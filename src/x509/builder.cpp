#include "x509/builder.h"

#include <stdexcept>

#include "asn1/der.h"

namespace sm::x509 {

namespace {

using asn1::DerWriter;
using asn1::Tag;

// AlgorithmIdentifier for a subject public key.
void write_spki_algorithm(DerWriter& w, crypto::SigScheme scheme) {
  const DerWriter::Mark seq = w.begin(Tag::kSequence);
  switch (scheme) {
    case crypto::SigScheme::kRsaSha256:
      w.oid(asn1::oids::rsa_encryption());
      w.null();
      break;
    case crypto::SigScheme::kSimSha256:
      w.oid(asn1::oids::sim_signature());
      break;
  }
  w.end(seq);
}

void write_extension(DerWriter& w, const Extension& ext) {
  const DerWriter::Mark seq = w.begin(Tag::kSequence);
  w.oid(ext.oid);
  if (ext.critical) w.boolean(true);
  w.octet_string(ext.value);
  w.end(seq);
}

// An extension whose value `write_value` encodes.
template <typename Fn>
Extension make_extension(const asn1::Oid& oid, bool critical,
                         Fn&& write_value) {
  Extension ext;
  ext.oid = oid;
  ext.critical = critical;
  DerWriter w;
  write_value(w);
  ext.value = w.take();
  return ext;
}

}  // namespace

void write_signature_algorithm(DerWriter& w, crypto::SigScheme scheme) {
  const DerWriter::Mark seq = w.begin(Tag::kSequence);
  switch (scheme) {
    case crypto::SigScheme::kRsaSha256:
      w.oid(asn1::oids::sha256_with_rsa());
      w.null();
      break;
    case crypto::SigScheme::kSimSha256:
      w.oid(asn1::oids::sim_signature());
      break;
  }
  w.end(seq);
}

CertificateBuilder& CertificateBuilder::set_raw_version(std::int64_t version) {
  raw_version_ = version;
  return *this;
}

CertificateBuilder& CertificateBuilder::set_serial(bignum::BigUint serial) {
  serial_ = std::move(serial);
  return *this;
}

CertificateBuilder& CertificateBuilder::set_issuer(Name issuer) {
  issuer_ = std::move(issuer);
  return *this;
}

CertificateBuilder& CertificateBuilder::set_subject(Name subject) {
  subject_ = std::move(subject);
  return *this;
}

CertificateBuilder& CertificateBuilder::set_validity(util::UnixTime not_before,
                                                     util::UnixTime not_after) {
  validity_ = Validity{not_before, not_after};
  return *this;
}

CertificateBuilder& CertificateBuilder::set_public_key(
    crypto::PublicKeyInfo key) {
  spki_ = std::move(key);
  return *this;
}

CertificateBuilder& CertificateBuilder::set_subject_alt_names(
    std::vector<GeneralName> names) {
  extensions_.push_back(make_extension(
      asn1::oids::subject_alt_name(), false,
      [&](DerWriter& w) { write_general_names(w, names); }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_subject_key_id(
    util::Bytes key_id) {
  extensions_.push_back(
      make_extension(asn1::oids::subject_key_identifier(), false,
                     [&](DerWriter& w) { w.octet_string(key_id); }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_authority_key_id(
    util::Bytes key_id) {
  extensions_.push_back(make_extension(
      asn1::oids::authority_key_identifier(), false, [&](DerWriter& w) {
        const DerWriter::Mark seq = w.begin(Tag::kSequence);
        w.tlv(asn1::context_primitive(0), key_id);
        w.end(seq);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_basic_constraints(
    bool is_ca, std::optional<std::int64_t> path_len) {
  extensions_.push_back(make_extension(
      asn1::oids::basic_constraints(), true, [&](DerWriter& w) {
        const DerWriter::Mark seq = w.begin(Tag::kSequence);
        if (is_ca) w.boolean(true);
        if (path_len) w.integer(*path_len);
        w.end(seq);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_key_usage(KeyUsage usage) {
  extensions_.push_back(make_extension(
      asn1::oids::key_usage(), true,
      [&](DerWriter& w) { w.named_bit_string(usage.bits, 9); }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_extended_key_usage(
    std::vector<asn1::Oid> purposes) {
  extensions_.push_back(make_extension(
      asn1::oids::extended_key_usage(), false, [&](DerWriter& w) {
        const DerWriter::Mark seq = w.begin(Tag::kSequence);
        for (const asn1::Oid& purpose : purposes) w.oid(purpose);
        w.end(seq);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_crl_distribution_points(
    std::vector<std::string> urls) {
  extensions_.push_back(make_extension(
      asn1::oids::crl_distribution_points(), false, [&](DerWriter& w) {
        const DerWriter::Mark points = w.begin(Tag::kSequence);
        for (const std::string& url : urls) {
          const DerWriter::Mark point = w.begin(Tag::kSequence);
          const DerWriter::Mark dp_name =
              w.begin(asn1::context_constructed(0));
          // fullName GeneralNames
          const DerWriter::Mark full_name =
              w.begin(asn1::context_constructed(0));
          w.tlv(asn1::context_primitive(6), util::as_bytes(url));
          w.end(full_name);
          w.end(dp_name);
          w.end(point);
        }
        w.end(points);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_authority_info_access(
    std::vector<std::string> ocsp_urls,
    std::vector<std::string> ca_issuer_urls) {
  extensions_.push_back(make_extension(
      asn1::oids::authority_info_access(), false, [&](DerWriter& w) {
        const DerWriter::Mark descs = w.begin(Tag::kSequence);
        const auto add_desc = [&](const asn1::Oid& method,
                                  const std::string& url) {
          const DerWriter::Mark desc = w.begin(Tag::kSequence);
          w.oid(method);
          w.tlv(asn1::context_primitive(6), util::as_bytes(url));
          w.end(desc);
        };
        for (const std::string& url : ocsp_urls) {
          add_desc(asn1::oids::ad_ocsp(), url);
        }
        for (const std::string& url : ca_issuer_urls) {
          add_desc(asn1::oids::ad_ca_issuers(), url);
        }
        w.end(descs);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::set_policy_oids(
    std::vector<asn1::Oid> oids) {
  extensions_.push_back(make_extension(
      asn1::oids::certificate_policies(), false, [&](DerWriter& w) {
        const DerWriter::Mark policies = w.begin(Tag::kSequence);
        for (const asn1::Oid& oid : oids) {
          const DerWriter::Mark info = w.begin(Tag::kSequence);
          w.oid(oid);
          w.end(info);
        }
        w.end(policies);
      }));
  return *this;
}

CertificateBuilder& CertificateBuilder::add_raw_extension(Extension ext) {
  extensions_.push_back(std::move(ext));
  return *this;
}

void CertificateBuilder::write_tbs(DerWriter& w,
                                   crypto::SigScheme sig_scheme) const {
  const DerWriter::Mark tbs = w.begin(Tag::kSequence);
  if (raw_version_ != 0) {
    const DerWriter::Mark version = w.begin(asn1::context_constructed(0));
    w.integer(raw_version_);
    w.end(version);
  }
  w.integer(serial_);
  write_signature_algorithm(w, sig_scheme);
  issuer_.encode(w);
  {
    const DerWriter::Mark validity = w.begin(Tag::kSequence);
    w.time(validity_.not_before);
    w.time(validity_.not_after);
    w.end(validity);
  }
  subject_.encode(w);
  {
    const DerWriter::Mark spki = w.begin(Tag::kSequence);
    write_spki_algorithm(w, spki_->scheme);
    w.bit_string(spki_->key);
    w.end(spki);
  }
  if (!extensions_.empty() && raw_version_ != 0) {
    const DerWriter::Mark wrapper = w.begin(asn1::context_constructed(3));
    const DerWriter::Mark list = w.begin(Tag::kSequence);
    for (const Extension& ext : extensions_) write_extension(w, ext);
    w.end(list);
    w.end(wrapper);
  }
  w.end(tbs);
}

Certificate CertificateBuilder::sign(
    const crypto::SigningKey& issuer_key) const {
  if (!spki_) throw std::logic_error("CertificateBuilder: missing public key");
  const crypto::SigScheme scheme = issuer_key.pub.scheme;
  DerWriter w(512);
  const DerWriter::Mark cert = w.begin(Tag::kSequence);
  const std::size_t tbs_start = w.size();
  write_tbs(w, scheme);
  const util::Bytes signature =
      crypto::sign(issuer_key, w.view().subspan(tbs_start));
  write_signature_algorithm(w, scheme);
  w.bit_string(signature);
  w.end(cert);

  auto parsed = parse_certificate(w.view());
  if (!parsed) {
    throw std::logic_error("CertificateBuilder: self-produced DER not parseable");
  }
  return std::move(*parsed);
}

}  // namespace sm::x509
