#include "util/datetime.h"

#include <cstdio>

namespace sm::util {

std::int64_t days_from_civil(int year, unsigned month, unsigned day) {
  // Howard Hinnant's algorithm, valid for all representable inputs.
  const std::int64_t y = year - (month <= 2 ? 1 : 0);
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);  // [0, 399]
  const unsigned doy =
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1;  // [0, 365]
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;  // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

CivilDateTime civil_from_days(std::int64_t days) {
  const std::int64_t z = days + 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);  // [0, 146096]
  const unsigned yoe =
      (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;  // [0, 399]
  const std::int64_t y = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);  // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                       // [0, 11]
  const unsigned d = doy - (153 * mp + 2) / 5 + 1;               // [1, 31]
  const unsigned m = mp + (mp < 10 ? 3 : -9);                    // [1, 12]
  CivilDateTime c;
  c.year = static_cast<int>(y + (m <= 2 ? 1 : 0));
  c.month = m;
  c.day = d;
  return c;
}

UnixTime to_unix(const CivilDateTime& c) {
  return days_from_civil(c.year, c.month, c.day) * kSecondsPerDay +
         c.hour * 3600 + c.minute * 60 + c.second;
}

CivilDateTime from_unix(UnixTime t) {
  std::int64_t days = t / kSecondsPerDay;
  std::int64_t rem = t % kSecondsPerDay;
  if (rem < 0) {
    rem += kSecondsPerDay;
    days -= 1;
  }
  CivilDateTime c = civil_from_days(days);
  c.hour = static_cast<unsigned>(rem / 3600);
  c.minute = static_cast<unsigned>((rem % 3600) / 60);
  c.second = static_cast<unsigned>(rem % 60);
  return c;
}

UnixTime make_date(int year, unsigned month, unsigned day) {
  return days_from_civil(year, month, day) * kSecondsPerDay;
}

std::string format_datetime(UnixTime t) {
  const CivilDateTime c = from_unix(t);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u %02u:%02u:%02u", c.year,
                c.month, c.day, c.hour, c.minute, c.second);
  return buf;
}

std::string format_date(UnixTime t) {
  const CivilDateTime c = from_unix(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02u-%02u", c.year, c.month, c.day);
  return buf;
}

}  // namespace sm::util
