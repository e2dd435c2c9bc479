// GeneralName (RFC 5280 §4.2.1.6) — the entries of a SubjectAltName
// extension. Only the four kinds that matter for this study are modeled.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asn1/der.h"
#include "util/bytes.h"

namespace sm::x509 {

/// One SubjectAltName entry.
struct GeneralName {
  enum class Kind : std::uint8_t {
    kEmail = 1,  ///< rfc822Name
    kDns = 2,    ///< dNSName
    kUri = 6,    ///< uniformResourceIdentifier
    kIp = 7,     ///< iPAddress (IPv4 only; rendered dotted-quad)
  };

  Kind kind = Kind::kDns;
  std::string value;

  friend bool operator==(const GeneralName&, const GeneralName&) = default;
  friend auto operator<=>(const GeneralName&, const GeneralName&) = default;

  /// Rendering with a kind prefix for unambiguous feature keys,
  /// e.g. "dns:fritz.fonwlan.box" or "ip:192.168.1.1".
  std::string to_string() const;
};

/// Writes a GeneralNames SEQUENCE (the SAN extension payload).
void write_general_names(asn1::DerWriter& w,
                         const std::vector<GeneralName>& names);

/// Decodes a GeneralNames SEQUENCE. Unknown name kinds are skipped (as a
/// lenient real-world parser must); returns nullopt only on structural
/// corruption.
std::optional<std::vector<GeneralName>> decode_general_names(
    util::BytesView der);

}  // namespace sm::x509
