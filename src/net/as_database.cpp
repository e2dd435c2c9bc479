#include "net/as_database.h"

#include <algorithm>

namespace sm::net {

void AsDatabase::add(AsInfo info) { info_[info.asn] = std::move(info); }

void AsDatabase::add_country_change(Asn asn, util::UnixTime from,
                                    std::string country) {
  auto& entries = moves_[asn];
  const auto it = std::lower_bound(
      entries.begin(), entries.end(), from,
      [](const auto& entry, util::UnixTime t) { return entry.first < t; });
  entries.insert(it, {from, std::move(country)});
}

const AsInfo* AsDatabase::find(Asn asn) const {
  const auto it = info_.find(asn);
  return it == info_.end() ? nullptr : &it->second;
}

AsType AsDatabase::type_of(Asn asn) const {
  const AsInfo* info = find(asn);
  return info ? info->type : AsType::kUnknown;
}

std::string AsDatabase::country_at(Asn asn, util::UnixTime t) const {
  if (const auto it = moves_.find(asn); it != moves_.end()) {
    const auto& entries = it->second;
    const auto pos = std::upper_bound(
        entries.begin(), entries.end(), t,
        [](util::UnixTime time, const auto& entry) {
          return time < entry.first;
        });
    if (pos != entries.begin()) return std::prev(pos)->second;
  }
  const AsInfo* info = find(asn);
  return info ? info->country : std::string{};
}

std::string AsDatabase::label(Asn asn) const {
  const AsInfo* info = find(asn);
  if (!info) return "#" + std::to_string(asn) + " (unknown)";
  return "#" + std::to_string(asn) + " " + info->name + " (" + info->country +
         ")";
}

}  // namespace sm::net
