// X.509 CRLs (RFC 5280 §5): the CertificateList structure, its DER
// encode/parse round-trip, and a builder. Revocation is one of the
// invalidity causes the paper's §2 taxonomy lists; the revocation pass
// (pki::BatchVerifier::check_revocation_all) parses and signature-checks
// the CRLs a pki::RevocationSource serves.
#pragma once

#include <optional>
#include <vector>

#include "bignum/biguint.h"
#include "crypto/signature.h"
#include "util/bytes.h"
#include "util/datetime.h"
#include "x509/name.h"

namespace sm::x509 {

/// One revokedCertificates entry.
struct RevokedEntry {
  bignum::BigUint serial;
  util::UnixTime revocation_date = 0;

  friend bool operator==(const RevokedEntry&, const RevokedEntry&) = default;
};

/// A parsed CertificateList.
struct Crl {
  Name issuer;
  util::UnixTime this_update = 0;
  std::optional<util::UnixTime> next_update;
  std::vector<RevokedEntry> revoked;  ///< sorted by serial

  asn1::Oid signature_algorithm;
  util::Bytes tbs_der;    ///< the signed TBSCertList bytes
  util::Bytes signature;
  util::Bytes der;        ///< the complete CertificateList encoding

  /// True when `serial` appears in the revoked list (binary search).
  bool is_revoked(const bignum::BigUint& serial) const;
};

/// Parses a DER CertificateList. Returns nullopt on structural errors.
std::optional<Crl> parse_crl(util::BytesView der);

/// Builds and signs CRLs.
class CrlBuilder {
 public:
  CrlBuilder& set_issuer(Name issuer);
  CrlBuilder& set_this_update(util::UnixTime t);
  CrlBuilder& set_next_update(util::UnixTime t);
  /// Adds one revoked serial. Duplicates are tolerated and deduplicated at
  /// sign() time.
  CrlBuilder& add_revoked(bignum::BigUint serial, util::UnixTime when);

  /// Encodes the TBSCertList, signs it with `issuer_key`, and re-parses the
  /// result. Throws std::logic_error if the encoding fails to re-parse.
  Crl sign(const crypto::SigningKey& issuer_key) const;

 private:
  Name issuer_;
  util::UnixTime this_update_ = 0;
  std::optional<util::UnixTime> next_update_;
  std::vector<RevokedEntry> revoked_;
};

}  // namespace sm::x509
