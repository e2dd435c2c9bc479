// Autonomous-system metadata — the stand-in for CAIDA's AS classification
// and AS-to-organization datasets (paper §5.4, §7.3).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "net/route_table.h"

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

/// Lookup table of AS metadata.
class AsDatabase {
 public:
  /// Registers (or replaces) an AS entry.
  void add(AsInfo info);

  /// Static info for `asn`, or nullptr when unknown.
  const AsInfo* find(Asn asn) const;

  /// The AS type, kUnknown for unregistered ASes.
  AsType type_of(Asn asn) const;

  /// Display label "#3320 Deutsche Telekom AG (DEU)" as in Table 3.
  std::string label(Asn asn) const;

  std::size_t size() const { return info_.size(); }

 private:
  std::map<Asn, AsInfo> info_;
};

}  // namespace sm::net
