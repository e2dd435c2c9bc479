// A CRL collection keyed by issuer name, feeding the verifier's revocation
// check. CRLs are signature-verified against their issuing certificate on
// insertion (use add_unverified for pre-trusted data).
#pragma once

#include <map>
#include <optional>

#include "pki/root_store.h"
#include "x509/certificate.h"
#include "x509/crl.h"

namespace sm::pki {

/// Issuer-indexed CRLs; keeps the freshest (largest thisUpdate) CRL per
/// issuer. CRLs whose nextUpdate precedes thisUpdate are malformed and
/// rejected outright (by add and add_unverified both) — a validity window
/// that ends before it starts cannot be reasoned about.
class CrlStore {
 public:
  /// Verifies the CRL's signature under `issuer`'s key and that the names
  /// match; on success stores it (replacing an older CRL for the same
  /// issuer) and returns true.
  bool add(x509::Crl crl, const x509::Certificate& issuer);

  /// Stores without signature verification. Returns false when the CRL is
  /// malformed (nextUpdate < thisUpdate) or older than the stored one.
  bool add_unverified(x509::Crl crl);

  /// The freshest CRL for `issuer`, or nullptr.
  const x509::Crl* find(const x509::Name& issuer) const;

  /// True when `issuer` has a CRL listing `serial`.
  bool is_revoked(const x509::Name& issuer,
                  const bignum::BigUint& serial) const;

  /// True when the stored CRL for `issuer` has gone stale at `now`
  /// (nextUpdate < now). False when there is no CRL or it carries no
  /// nextUpdate — absence of a deadline is not staleness; callers should
  /// treat a missing CRL as unknown/unreachable, not stale.
  bool is_stale(const x509::Name& issuer, util::UnixTime now) const;

  std::size_t size() const { return by_issuer_.size(); }

 private:
  std::map<SubjectKey, x509::Crl> by_issuer_;  // key: issuer DER
};

}  // namespace sm::pki
