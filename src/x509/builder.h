// CertificateBuilder — constructs and signs certificates.
//
// The builder produces the DER TBSCertificate, signs it with the supplied
// issuer key (self-signing when the subject's own key is passed), and
// returns a fully-populated Certificate whose `der` round-trips through
// parse_certificate().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "asn1/der.h"
#include "crypto/signature.h"
#include "x509/certificate.h"

namespace sm::x509 {

/// Fluent builder for x509::Certificate. All setters return *this.
class CertificateBuilder {
 public:
  /// Wire version (0 = v1, 2 = v3). Values outside {0,1,2} are encoded
  /// verbatim so the simulator can produce the illegal-version certificates
  /// the paper disregards. v1 certificates never emit extensions.
  CertificateBuilder& set_raw_version(std::int64_t version);

  CertificateBuilder& set_serial(bignum::BigUint serial);
  CertificateBuilder& set_issuer(Name issuer);
  CertificateBuilder& set_subject(Name subject);
  CertificateBuilder& set_validity(util::UnixTime not_before,
                                   util::UnixTime not_after);

  /// The subject's public key (goes into the SPKI).
  CertificateBuilder& set_public_key(crypto::PublicKeyInfo key);

  /// Adds a SubjectAltName extension (one call; pass all names).
  CertificateBuilder& set_subject_alt_names(std::vector<GeneralName> names);

  /// Adds SubjectKeyIdentifier with the given bytes.
  CertificateBuilder& set_subject_key_id(util::Bytes key_id);

  /// Adds AuthorityKeyIdentifier with the given keyIdentifier bytes.
  CertificateBuilder& set_authority_key_id(util::Bytes key_id);

  /// Adds BasicConstraints (critical, per CA convention).
  CertificateBuilder& set_basic_constraints(
      bool is_ca, std::optional<std::int64_t> path_len = std::nullopt);

  /// Adds a (critical) KeyUsage extension.
  CertificateBuilder& set_key_usage(KeyUsage usage);

  /// Adds an ExtendedKeyUsage extension with the given purpose OIDs.
  CertificateBuilder& set_extended_key_usage(std::vector<asn1::Oid> purposes);

  /// Adds a CRLDistributionPoints extension with the given URLs.
  CertificateBuilder& set_crl_distribution_points(
      std::vector<std::string> urls);

  /// Adds an AuthorityInfoAccess extension.
  CertificateBuilder& set_authority_info_access(
      std::vector<std::string> ocsp_urls,
      std::vector<std::string> ca_issuer_urls);

  /// Adds a CertificatePolicies extension with the given policy OIDs.
  CertificateBuilder& set_policy_oids(std::vector<asn1::Oid> oids);

  /// Adds an arbitrary raw extension (already-encoded inner value).
  CertificateBuilder& add_raw_extension(Extension ext);

  /// Builds the TBS, signs with `issuer_key`, and parses the result back so
  /// every field of the returned Certificate reflects the actual encoding.
  /// Throws std::logic_error if mandatory fields are missing or the result
  /// fails to re-parse (which would indicate an encoder bug).
  Certificate sign(const crypto::SigningKey& issuer_key) const;

 private:
  void write_tbs(asn1::DerWriter& w, crypto::SigScheme sig_scheme) const;

  std::int64_t raw_version_ = 2;
  bignum::BigUint serial_ = bignum::BigUint(1);
  Name issuer_;
  Name subject_;
  Validity validity_{};
  std::optional<crypto::PublicKeyInfo> spki_;
  std::vector<Extension> extensions_;
};

/// Writes the AlgorithmIdentifier for a signature scheme (shared with the
/// CRL builder).
void write_signature_algorithm(asn1::DerWriter& w, crypto::SigScheme scheme);

}  // namespace sm::x509
