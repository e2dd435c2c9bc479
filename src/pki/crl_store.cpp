#include "pki/crl_store.h"

#include "crypto/signature.h"

namespace sm::pki {

bool CrlStore::add(x509::Crl crl, const x509::Certificate& issuer) {
  if (!(crl.issuer == issuer.subject)) return false;
  if (!crypto::verify(issuer.spki, crl.tbs_der, crl.signature)) return false;
  return add_unverified(std::move(crl));
}

bool CrlStore::add_unverified(x509::Crl crl) {
  if (crl.next_update.has_value() && *crl.next_update < crl.this_update) {
    return false;  // malformed: the validity window ends before it starts
  }
  SubjectKey key = subject_lookup_key(crl.issuer);
  const auto it = by_issuer_.find(key);
  if (it != by_issuer_.end() && it->second.this_update >= crl.this_update) {
    return false;  // keep the fresher CRL
  }
  by_issuer_.insert_or_assign(std::move(key), std::move(crl));
  return true;
}

const x509::Crl* CrlStore::find(const x509::Name& issuer) const {
  const auto it = by_issuer_.find(subject_lookup_key(issuer));
  return it == by_issuer_.end() ? nullptr : &it->second;
}

bool CrlStore::is_revoked(const x509::Name& issuer,
                          const bignum::BigUint& serial) const {
  const x509::Crl* crl = find(issuer);
  return crl != nullptr && crl->is_revoked(serial);
}

bool CrlStore::is_stale(const x509::Name& issuer, util::UnixTime now) const {
  const x509::Crl* crl = find(issuer);
  return crl != nullptr && crl->next_update.has_value() &&
         *crl->next_update < now;
}

}  // namespace sm::pki
