// ASN.1 OBJECT IDENTIFIER values and the well-known OIDs the X.509 layer
// needs.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>

#include "util/bytes.h"

namespace sm::asn1 {

/// An OBJECT IDENTIFIER, held as its X.690 content octets (the bytes
/// inside the DER TLV). Parsing therefore copies a few bytes instead of
/// decoding arcs into a heap vector, and equality is a byte comparison, so
/// a parsed OID is matched against the static instances below as a span.
/// Every well-known OID fits the inline (small-string) storage.
class Oid {
 public:
  Oid() = default;

  /// From arcs, e.g. Oid{{2, 5, 4, 3}} = id-at-cn. Fewer than two arcs
  /// encode as empty content.
  Oid(std::initializer_list<std::uint32_t> arcs);

  /// The content octets.
  util::BytesView content() const {
    return {reinterpret_cast<const std::uint8_t*>(content_.data()),
            content_.size()};
  }

  friend bool operator==(const Oid&, const Oid&) = default;
  friend auto operator<=>(const Oid&, const Oid&) = default;

  /// Dotted-decimal rendering, e.g. "2.5.4.3".
  std::string to_string() const;

  /// Parses dotted-decimal; requires at least two arcs, first in {0,1,2},
  /// second < 40 when first < 2 (per X.690 encoding constraints).
  static std::optional<Oid> from_string(const std::string& dotted);

  /// Decodes X.690 content octets. Returns nullopt on malformed input. A
  /// non-minimal encoding is stored in its minimal form, so OIDs with
  /// equal arcs compare equal.
  static std::optional<Oid> decode(util::BytesView content);

 private:
  explicit Oid(std::span<const std::uint32_t> arcs);

  std::string content_;
};

// -- Well-known OIDs used by the X.509 layer ---------------------------------
//
// Each returns a reference to one immutable instance, built on first use.

namespace oids {

/// id-at-commonName (2.5.4.3)
const Oid& common_name();
/// id-at-organizationName (2.5.4.10)
const Oid& organization();
/// id-at-organizationalUnitName (2.5.4.11)
const Oid& organizational_unit();
/// id-at-countryName (2.5.4.6)
const Oid& country();
/// id-at-localityName (2.5.4.7)
const Oid& locality();
/// id-at-stateOrProvinceName (2.5.4.8)
const Oid& state();

/// id-ce-subjectKeyIdentifier (2.5.29.14)
const Oid& subject_key_identifier();
/// id-ce-keyUsage (2.5.29.15)
const Oid& key_usage();
/// id-ce-subjectAltName (2.5.29.17)
const Oid& subject_alt_name();
/// id-ce-basicConstraints (2.5.29.19)
const Oid& basic_constraints();
/// id-ce-cRLDistributionPoints (2.5.29.31)
const Oid& crl_distribution_points();
/// id-ce-authorityKeyIdentifier (2.5.29.35)
const Oid& authority_key_identifier();
/// id-pe-authorityInfoAccess (1.3.6.1.5.5.7.1.1)
const Oid& authority_info_access();
/// id-ad-ocsp (1.3.6.1.5.5.7.48.1)
const Oid& ad_ocsp();
/// id-ad-caIssuers (1.3.6.1.5.5.7.48.2)
const Oid& ad_ca_issuers();

/// id-ce-certificatePolicies (2.5.29.32)
const Oid& certificate_policies();
/// id-ce-extKeyUsage (2.5.29.37)
const Oid& extended_key_usage();
/// id-kp-serverAuth (1.3.6.1.5.5.7.3.1)
const Oid& kp_server_auth();
/// id-kp-clientAuth (1.3.6.1.5.5.7.3.2)
const Oid& kp_client_auth();

/// rsaEncryption (1.2.840.113549.1.1.1) — SPKI algorithm for RSA keys
const Oid& rsa_encryption();
/// sha256WithRSAEncryption (1.2.840.113549.1.1.11)
const Oid& sha256_with_rsa();
/// A private-arc OID for the simulated signature scheme
/// (1.3.6.1.4.1.99999.1.1); see crypto::SigScheme::kSimSha256.
const Oid& sim_signature();

}  // namespace oids

}  // namespace sm::asn1
