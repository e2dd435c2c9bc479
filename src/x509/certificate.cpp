#include "x509/certificate.h"

#include "asn1/der.h"
#include "util/sha1.h"
#include "util/sha256.h"

namespace sm::x509 {

namespace {

// Parses an AlgorithmIdentifier SEQUENCE, returning its OID (parameters are
// accepted and ignored).
std::optional<asn1::Oid> parse_algorithm(util::BytesView der) {
  const auto outer = asn1::parse_single(der);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  asn1::Reader r(outer->content);
  return r.read_oid();
}

// Maps a SPKI algorithm OID to a crypto scheme.
std::optional<crypto::SigScheme> scheme_from_oid(const asn1::Oid& oid) {
  if (oid == asn1::oids::rsa_encryption() ||
      oid == asn1::oids::sha256_with_rsa()) {
    return crypto::SigScheme::kRsaSha256;
  }
  if (oid == asn1::oids::sim_signature()) {
    return crypto::SigScheme::kSimSha256;
  }
  return std::nullopt;
}

}  // namespace

util::Bytes Certificate::fingerprint_sha256() const {
  return util::Sha256::digest(der);
}

util::Bytes Certificate::fingerprint_sha1() const {
  return util::Sha1::digest(der);
}

const Extension* Certificate::find_extension(const asn1::Oid& oid) const {
  for (const Extension& ext : extensions) {
    if (ext.oid == oid) return &ext;
  }
  return nullptr;
}

std::vector<GeneralName> Certificate::subject_alt_names() const {
  const Extension* ext = find_extension(asn1::oids::subject_alt_name());
  if (!ext) return {};
  return decode_general_names(ext->value).value_or(std::vector<GeneralName>{});
}

std::optional<util::Bytes> Certificate::authority_key_id() const {
  const Extension* ext = find_extension(asn1::oids::authority_key_identifier());
  if (!ext) return std::nullopt;
  // AuthorityKeyIdentifier ::= SEQUENCE { keyIdentifier [0] IMPLICIT ... }
  const auto outer = asn1::parse_single(ext->value);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  asn1::Reader r(outer->content);
  const auto key_id = r.read_tag(asn1::context_primitive(0));
  if (!key_id) return std::nullopt;
  return util::Bytes(key_id->content.begin(), key_id->content.end());
}

std::optional<util::Bytes> Certificate::subject_key_id() const {
  const Extension* ext = find_extension(asn1::oids::subject_key_identifier());
  if (!ext) return std::nullopt;
  const auto tlv = asn1::parse_single(ext->value);
  if (!tlv || tlv->tag != static_cast<std::uint8_t>(asn1::Tag::kOctetString)) {
    return std::nullopt;
  }
  return util::Bytes(tlv->content.begin(), tlv->content.end());
}

std::vector<std::string> Certificate::crl_distribution_points() const {
  const Extension* ext = find_extension(asn1::oids::crl_distribution_points());
  if (!ext) return {};
  // CRLDistributionPoints ::= SEQUENCE OF DistributionPoint
  // DistributionPoint ::= SEQUENCE { distributionPoint [0] EXPLICIT
  //   DistributionPointName OPTIONAL, ... }
  // DistributionPointName ::= CHOICE { fullName [0] IMPLICIT GeneralNames }
  std::vector<std::string> out;
  const auto outer = asn1::parse_single(ext->value);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return out;
  }
  asn1::Reader points(outer->content);
  while (!points.at_end()) {
    const auto dp = points.read(asn1::Tag::kSequence);
    if (!dp) break;
    asn1::Reader dp_reader(dp->content);
    const auto dp_name = dp_reader.read_tag(asn1::context_constructed(0));
    if (!dp_name) continue;
    asn1::Reader name_reader(dp_name->content);
    const auto full_name = name_reader.read_tag(asn1::context_constructed(0));
    if (!full_name) continue;
    asn1::Reader gn_reader(full_name->content);
    while (!gn_reader.at_end()) {
      const auto gn = gn_reader.read_any();
      if (!gn) break;
      if (gn->tag == asn1::context_primitive(6)) {  // URI
        out.push_back(util::to_string(gn->content));
      }
    }
  }
  return out;
}

AuthorityInfoAccess Certificate::authority_info_access() const {
  AuthorityInfoAccess out;
  const Extension* ext = find_extension(asn1::oids::authority_info_access());
  if (!ext) return out;
  // AuthorityInfoAccessSyntax ::= SEQUENCE OF AccessDescription
  // AccessDescription ::= SEQUENCE { accessMethod OID,
  //                                  accessLocation GeneralName }
  const auto outer = asn1::parse_single(ext->value);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return out;
  }
  asn1::Reader descs(outer->content);
  while (!descs.at_end()) {
    const auto desc = descs.read(asn1::Tag::kSequence);
    if (!desc) break;
    asn1::Reader desc_reader(desc->content);
    const auto method = desc_reader.read_oid();
    if (!method) continue;
    const auto loc = desc_reader.read_any();
    if (!loc || loc->tag != asn1::context_primitive(6)) continue;
    const std::string url = util::to_string(loc->content);
    if (*method == asn1::oids::ad_ocsp()) {
      out.ocsp.push_back(url);
    } else if (*method == asn1::oids::ad_ca_issuers()) {
      out.ca_issuers.push_back(url);
    }
  }
  return out;
}

std::optional<BasicConstraints> Certificate::basic_constraints() const {
  const Extension* ext = find_extension(asn1::oids::basic_constraints());
  if (!ext) return std::nullopt;
  const auto outer = asn1::parse_single(ext->value);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  BasicConstraints out;
  asn1::Reader r(outer->content);
  if (const auto peek = r.peek_tag();
      peek && *peek == static_cast<std::uint8_t>(asn1::Tag::kBoolean)) {
    const auto is_ca = r.read_boolean();
    if (!is_ca) return std::nullopt;
    out.is_ca = *is_ca;
  }
  if (!r.at_end()) {
    const auto path_len = r.read_small_integer();
    if (path_len) out.path_len = *path_len;
  }
  return out;
}

std::vector<asn1::Oid> Certificate::policy_oids() const {
  const Extension* ext = find_extension(asn1::oids::certificate_policies());
  if (!ext) return {};
  // CertificatePolicies ::= SEQUENCE OF PolicyInformation
  // PolicyInformation ::= SEQUENCE { policyIdentifier OID, ... }
  std::vector<asn1::Oid> out;
  const auto outer = asn1::parse_single(ext->value);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return out;
  }
  asn1::Reader policies(outer->content);
  while (!policies.at_end()) {
    const auto info = policies.read(asn1::Tag::kSequence);
    if (!info) break;
    asn1::Reader info_reader(info->content);
    const auto oid = info_reader.read_oid();
    if (oid) out.push_back(*oid);
  }
  return out;
}

std::optional<Certificate> parse_certificate(util::BytesView der) {
  const auto outer = asn1::parse_single(der);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  asn1::Reader cert_reader(outer->content);
  const auto tbs = cert_reader.read(asn1::Tag::kSequence);
  if (!tbs) return std::nullopt;

  Certificate cert;
  cert.der.assign(der.begin(), der.end());
  cert.tbs_der.assign(tbs->full.begin(), tbs->full.end());

  // signatureAlgorithm + signatureValue
  const auto sig_alg = cert_reader.read(asn1::Tag::kSequence);
  if (!sig_alg) return std::nullopt;
  {
    asn1::Reader alg_reader(sig_alg->content);
    auto oid = alg_reader.read_oid();
    if (!oid) return std::nullopt;
    cert.signature_algorithm = std::move(*oid);
  }
  const auto sig_bits = cert_reader.read(asn1::Tag::kBitString);
  if (!sig_bits || sig_bits->content.empty() || sig_bits->content[0] != 0 ||
      !cert_reader.at_end()) {
    return std::nullopt;
  }
  cert.signature.assign(sig_bits->content.begin() + 1, sig_bits->content.end());

  // --- TBSCertificate ---
  asn1::Reader tbs_reader(tbs->content);
  if (const auto peek = tbs_reader.peek_tag();
      peek && *peek == asn1::context_constructed(0)) {
    const auto version_wrapper = tbs_reader.read_tag(asn1::context_constructed(0));
    if (!version_wrapper) return std::nullopt;
    asn1::Reader version_reader(version_wrapper->content);
    const auto version = version_reader.read_small_integer();
    if (!version || !version_reader.at_end()) return std::nullopt;
    cert.raw_version = *version;
  } else {
    cert.raw_version = 0;  // DEFAULT v1
  }
  auto serial = tbs_reader.read_integer();
  if (!serial) return std::nullopt;
  cert.serial = std::move(*serial);
  const auto inner_alg = tbs_reader.read(asn1::Tag::kSequence);
  if (!inner_alg) return std::nullopt;
  const auto issuer_tlv = tbs_reader.read(asn1::Tag::kSequence);
  if (!issuer_tlv) return std::nullopt;
  auto issuer = Name::decode(issuer_tlv->full);
  if (!issuer) return std::nullopt;
  cert.issuer = std::move(*issuer);

  const auto validity_tlv = tbs_reader.read(asn1::Tag::kSequence);
  if (!validity_tlv) return std::nullopt;
  {
    asn1::Reader validity_reader(validity_tlv->content);
    const auto not_before = validity_reader.read_time();
    const auto not_after = validity_reader.read_time();
    if (!not_before || !not_after || !validity_reader.at_end()) {
      return std::nullopt;
    }
    cert.validity = Validity{*not_before, *not_after};
  }

  const auto subject_tlv = tbs_reader.read(asn1::Tag::kSequence);
  if (!subject_tlv) return std::nullopt;
  auto subject = Name::decode(subject_tlv->full);
  if (!subject) return std::nullopt;
  cert.subject = std::move(*subject);

  // SubjectPublicKeyInfo ::= SEQUENCE { algorithm, subjectPublicKey BIT STR }
  const auto spki = tbs_reader.read(asn1::Tag::kSequence);
  if (!spki) return std::nullopt;
  {
    asn1::Reader spki_reader(spki->content);
    const auto alg = spki_reader.read(asn1::Tag::kSequence);
    if (!alg) return std::nullopt;
    const auto alg_oid = parse_algorithm(alg->full);
    if (!alg_oid) return std::nullopt;
    const auto scheme = scheme_from_oid(*alg_oid);
    if (!scheme) return std::nullopt;
    cert.spki.scheme = *scheme;
    const auto key_bits = spki_reader.read(asn1::Tag::kBitString);
    if (!key_bits || key_bits->content.empty() || key_bits->content[0] != 0 ||
        !spki_reader.at_end()) {
      return std::nullopt;
    }
    cert.spki.key.assign(key_bits->content.begin() + 1,
                         key_bits->content.end());
  }

  // extensions [3] EXPLICIT SEQUENCE OF Extension OPTIONAL
  if (const auto peek = tbs_reader.peek_tag();
      peek && *peek == asn1::context_constructed(3)) {
    const auto wrapper = tbs_reader.read_tag(asn1::context_constructed(3));
    if (!wrapper) return std::nullopt;
    asn1::Reader wrapper_reader(wrapper->content);
    const auto list = wrapper_reader.read(asn1::Tag::kSequence);
    if (!list || !wrapper_reader.at_end()) return std::nullopt;
    asn1::Reader ext_reader(list->content);
    while (!ext_reader.at_end()) {
      const auto ext_tlv = ext_reader.read(asn1::Tag::kSequence);
      if (!ext_tlv) return std::nullopt;
      asn1::Reader one(ext_tlv->content);
      Extension ext;
      auto oid = one.read_oid();
      if (!oid) return std::nullopt;
      ext.oid = std::move(*oid);
      if (const auto p = one.peek_tag();
          p && *p == static_cast<std::uint8_t>(asn1::Tag::kBoolean)) {
        const auto critical = one.read_boolean();
        if (!critical) return std::nullopt;
        ext.critical = *critical;
      }
      const auto value = one.read(asn1::Tag::kOctetString);
      if (!value || !one.at_end()) return std::nullopt;
      ext.value.assign(value->content.begin(), value->content.end());
      cert.extensions.push_back(std::move(ext));
    }
  }
  if (!tbs_reader.at_end()) return std::nullopt;
  return cert;
}

}  // namespace sm::x509
