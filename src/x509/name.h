// X.501 distinguished names (the issuer/subject of a certificate).
//
// Modeled as an ordered list of (attribute OID, string value) pairs; each
// attribute occupies its own RDN, which matches how virtually all real
// certificates are built. Empty names (zero attributes) are legal and occur
// in the wild — the paper's Table 1 lists the empty string as the third most
// common issuer of invalid certificates.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "asn1/der.h"
#include "asn1/oid.h"

namespace sm::x509 {

/// One attribute inside a distinguished name.
struct NameAttribute {
  asn1::Oid type;
  std::string value;

  friend bool operator==(const NameAttribute&, const NameAttribute&) = default;
  friend auto operator<=>(const NameAttribute&, const NameAttribute&) = default;
};

/// A distinguished name: ordered attribute list.
struct Name {
  std::vector<NameAttribute> attributes;

  friend bool operator==(const Name&, const Name&) = default;
  friend auto operator<=>(const Name&, const Name&) = default;

  /// True when the name carries no attributes at all.
  bool empty() const { return attributes.empty(); }

  /// Value of the first attribute with the given OID, or nullopt.
  std::optional<std::string> get(const asn1::Oid& type) const;

  /// The first CommonName value, or "" when absent (the paper treats missing
  /// and empty CNs identically).
  std::string common_name() const;

  /// Appends an attribute and returns *this for chaining.
  Name& add(const asn1::Oid& type, std::string value);

  /// Convenience constructor for the ubiquitous CN-only name.
  static Name with_common_name(std::string cn);

  /// OpenSSL-style one-line rendering, e.g. "CN=fritz.box, O=AVM".
  /// Empty name renders as "".
  std::string to_string() const;

  /// Writes the DER RDNSequence (one attribute per RDN, UTF8String
  /// values).
  void encode(asn1::DerWriter& w) const;

  /// The same encoding as a standalone buffer.
  util::Bytes encode() const;

  /// Parses a DER RDNSequence. Returns nullopt on malformed input.
  static std::optional<Name> decode(util::BytesView der);
};

}  // namespace sm::x509
