// Autonomous-system metadata — the stand-in for CAIDA's AS classification
// and AS-to-organization datasets (paper §5.4, §7.3).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/route_table.h"
#include "util/datetime.h"

namespace sm::net {

/// CAIDA-style AS business type (paper Table 2).
enum class AsType : std::uint8_t {
  kTransitAccess = 0,  ///< ISPs and access networks
  kContent,            ///< hosting/CDN/content
  kEnterprise,         ///< enterprise stub networks
  kUnknown,
};

/// Static metadata for one AS.
struct AsInfo {
  Asn asn = 0;
  std::string name;          ///< e.g. "Deutsche Telekom AG"
  std::string country;       ///< ISO alpha-3 as the paper prints, e.g. "DEU"
  AsType type = AsType::kUnknown;
};

/// Lookup table of AS metadata, with optional dated country overrides to
/// model CAIDA's quarterly AS-to-organization snapshots (the paper notes a
/// 3-4 month resolution for AS-to-country mapping).
class AsDatabase {
 public:
  /// Registers (or replaces) an AS entry.
  void add(AsInfo info);

  /// Records that `asn` is located in `country` from `from` onwards.
  void add_country_change(Asn asn, util::UnixTime from, std::string country);

  /// Static info for `asn`, or nullptr when unknown.
  const AsInfo* find(Asn asn) const;

  /// The AS type, kUnknown for unregistered ASes.
  AsType type_of(Asn asn) const;

  /// The country of `asn` at time `t`, honouring dated overrides; "" when
  /// unknown.
  std::string country_at(Asn asn, util::UnixTime t) const;

  /// Display label "#3320 Deutsche Telekom AG (DEU)" as in Table 3.
  std::string label(Asn asn) const;

  std::size_t size() const { return info_.size(); }

 private:
  std::map<Asn, AsInfo> info_;
  // Per-AS sorted list of (effective-from, country).
  std::map<Asn, std::vector<std::pair<util::UnixTime, std::string>>> moves_;
};

}  // namespace sm::net
