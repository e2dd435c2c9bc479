// The X.509 certificate model: an in-memory representation plus DER
// parsing, fingerprints, and typed accessors for the extensions the paper's
// linking methodology uses (SAN, AKI/SKI, CRL distribution points, AIA/OCSP,
// certificate-policy OIDs).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asn1/oid.h"
#include "bignum/biguint.h"
#include "crypto/signature.h"
#include "util/bytes.h"
#include "util/datetime.h"
#include "x509/general_name.h"
#include "x509/name.h"

namespace sm::x509 {

/// The NotBefore/NotAfter pair. NotAfter < NotBefore is representable on
/// purpose: 5.38% of the paper's invalid certificates have a negative
/// validity period.
struct Validity {
  util::UnixTime not_before = 0;
  util::UnixTime not_after = 0;

  friend bool operator==(const Validity&, const Validity&) = default;

  /// Signed validity period in days (may be negative).
  double period_days() const {
    return static_cast<double>(not_after - not_before) /
           static_cast<double>(util::kSecondsPerDay);
  }
};

/// A raw (not yet interpreted) certificate extension.
struct Extension {
  asn1::Oid oid;
  bool critical = false;
  util::Bytes value;  ///< the DER inside the extnValue OCTET STRING

  friend bool operator==(const Extension&, const Extension&) = default;
};

/// Decoded BasicConstraints.
struct BasicConstraints {
  bool is_ca = false;
  std::optional<std::int64_t> path_len;
};

/// KeyUsage named bits (RFC 5280 §4.2.1.3).
enum class KeyUsageBit : std::uint32_t {
  kDigitalSignature = 1u << 0,
  kNonRepudiation = 1u << 1,
  kKeyEncipherment = 1u << 2,
  kDataEncipherment = 1u << 3,
  kKeyAgreement = 1u << 4,
  kKeyCertSign = 1u << 5,
  kCrlSign = 1u << 6,
  kEncipherOnly = 1u << 7,
  kDecipherOnly = 1u << 8,
};

/// A KeyUsage bit mask (OR of KeyUsageBit values).
struct KeyUsage {
  std::uint32_t bits = 0;

  bool has(KeyUsageBit bit) const {
    return bits & static_cast<std::uint32_t>(bit);
  }
  KeyUsage& set(KeyUsageBit bit) {
    bits |= static_cast<std::uint32_t>(bit);
    return *this;
  }
  friend bool operator==(const KeyUsage&, const KeyUsage&) = default;
};

/// Decoded AuthorityInfoAccess: OCSP responder URLs and caIssuers URLs.
struct AuthorityInfoAccess {
  std::vector<std::string> ocsp;
  std::vector<std::string> ca_issuers;
};

/// X.509 certificate versions as they appear on the wire (0-based): 0 = v1,
/// 2 = v3. Invalid values (the paper saw 2, 4 and 13 as *displayed*
/// versions, i.e. raw 1, 3 and 12) are representable and parseable.
struct Certificate {
  std::int64_t raw_version = 2;  ///< wire value; display version is raw+1
  bignum::BigUint serial;
  asn1::Oid signature_algorithm;
  Name issuer;
  Name subject;
  Validity validity;
  crypto::PublicKeyInfo spki;
  std::vector<Extension> extensions;

  util::Bytes tbs_der;    ///< the signed TBSCertificate bytes
  util::Bytes signature;  ///< signature over tbs_der
  util::Bytes der;        ///< the complete certificate encoding

  /// Display version (raw_version + 1), e.g. 3 for a v3 certificate.
  std::int64_t display_version() const { return raw_version + 1; }

  /// True when the display version is one of the legal values {1, 2, 3}.
  bool version_is_legal() const {
    return raw_version >= 0 && raw_version <= 2;
  }

  /// SHA-256 over the full DER — the certificate's identity everywhere in
  /// this library.
  util::Bytes fingerprint_sha256() const;

  /// SHA-1 over the full DER (legacy display fingerprint).
  util::Bytes fingerprint_sha1() const;

  /// First extension with the given OID, if any.
  const Extension* find_extension(const asn1::Oid& oid) const;

  /// Decoded SubjectAltName entries ({} when absent or malformed).
  std::vector<GeneralName> subject_alt_names() const;

  /// AuthorityKeyIdentifier keyIdentifier bytes, if present.
  std::optional<util::Bytes> authority_key_id() const;

  /// SubjectKeyIdentifier bytes, if present.
  std::optional<util::Bytes> subject_key_id() const;

  /// CRL distribution point URLs ({} when absent).
  std::vector<std::string> crl_distribution_points() const;

  /// AuthorityInfoAccess content (empty lists when absent).
  AuthorityInfoAccess authority_info_access() const;

  /// Decoded BasicConstraints, if present.
  std::optional<BasicConstraints> basic_constraints() const;

  /// Certificate-policy OIDs ({} when absent) — the "OID" linking feature
  /// of the paper's Table 6.
  std::vector<asn1::Oid> policy_oids() const;

  /// True when issuer and subject encode identically (the cheap half of
  /// self-signed detection; see pki::Verifier for the signature half).
  bool subject_matches_issuer() const { return issuer == subject; }
};

/// Parses a DER certificate. Returns nullopt when the input is not a
/// structurally well-formed Certificate. Semantic nonsense (absurd dates,
/// illegal versions, unknown algorithms) parses fine — rejecting it is the
/// verifier's job, not the parser's.
std::optional<Certificate> parse_certificate(util::BytesView der);

}  // namespace sm::x509
