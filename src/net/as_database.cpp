#include "net/as_database.h"

namespace sm::net {

void AsDatabase::add(AsInfo info) { info_[info.asn] = std::move(info); }

const AsInfo* AsDatabase::find(Asn asn) const {
  const auto it = info_.find(asn);
  return it == info_.end() ? nullptr : &it->second;
}

AsType AsDatabase::type_of(Asn asn) const {
  const AsInfo* info = find(asn);
  return info ? info->type : AsType::kUnknown;
}

std::string AsDatabase::label(Asn asn) const {
  const AsInfo* info = find(asn);
  if (!info) return "#" + std::to_string(asn) + " (unknown)";
  return "#" + std::to_string(asn) + " " + info->name + " (" + info->country +
         ")";
}

}  // namespace sm::net
