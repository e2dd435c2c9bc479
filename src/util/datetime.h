// Calendar/date utilities with a range wide enough for the pathological
// certificates the paper observes (Not After dates in year 3000+ and
// validity periods over one million days).
//
// Times are int64 seconds since the Unix epoch (UTC, no leap seconds), which
// covers years [-292e9, +292e9] — far beyond any X.509 date.
#pragma once

#include <cstdint>
#include <string>

namespace sm::util {

/// Seconds since 1970-01-01T00:00:00Z.
using UnixTime = std::int64_t;

constexpr std::int64_t kSecondsPerDay = 86400;

/// A Gregorian calendar date-time (UTC).
struct CivilDateTime {
  int year = 1970;       ///< e.g. 2014; may exceed 9999 for absurd certs
  unsigned month = 1;    ///< 1..12
  unsigned day = 1;      ///< 1..31
  unsigned hour = 0;     ///< 0..23
  unsigned minute = 0;   ///< 0..59
  unsigned second = 0;   ///< 0..59

  friend bool operator==(const CivilDateTime&, const CivilDateTime&) = default;
};

/// Days since the epoch for a civil date (Hinnant's days_from_civil).
std::int64_t days_from_civil(int year, unsigned month, unsigned day);

/// Inverse of days_from_civil (Hinnant's civil_from_days).
CivilDateTime civil_from_days(std::int64_t days);

/// Converts a civil date-time to Unix seconds.
UnixTime to_unix(const CivilDateTime& c);

/// Converts Unix seconds to a civil date-time.
CivilDateTime from_unix(UnixTime t);

/// Convenience: midnight UTC of the given date as Unix seconds.
UnixTime make_date(int year, unsigned month, unsigned day);

/// Formats as "YYYY-MM-DD HH:MM:SS" (ISO-like, UTC implied).
std::string format_datetime(UnixTime t);

/// Formats as "YYYY-MM-DD".
std::string format_date(UnixTime t);

}  // namespace sm::util
