#include "x509/crl.h"

#include <algorithm>
#include <stdexcept>

#include "asn1/der.h"
#include "x509/builder.h"

namespace sm::x509 {

namespace {

bool serial_less(const RevokedEntry& a, const RevokedEntry& b) {
  return a.serial < b.serial;
}

}  // namespace

bool Crl::is_revoked(const bignum::BigUint& serial) const {
  const RevokedEntry probe{serial, 0};
  const auto it =
      std::lower_bound(revoked.begin(), revoked.end(), probe, serial_less);
  return it != revoked.end() && it->serial == serial;
}

std::optional<Crl> parse_crl(util::BytesView der) {
  const auto outer = asn1::parse_single(der);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  asn1::Reader list_reader(outer->content);
  const auto tbs = list_reader.read(asn1::Tag::kSequence);
  if (!tbs) return std::nullopt;

  Crl crl;
  crl.der.assign(der.begin(), der.end());
  crl.tbs_der.assign(tbs->full.begin(), tbs->full.end());

  const auto sig_alg = list_reader.read(asn1::Tag::kSequence);
  if (!sig_alg) return std::nullopt;
  {
    asn1::Reader alg_reader(sig_alg->content);
    const auto oid = alg_reader.read_oid();
    if (!oid) return std::nullopt;
    crl.signature_algorithm = *oid;
  }
  const auto sig_bits = list_reader.read(asn1::Tag::kBitString);
  if (!sig_bits || sig_bits->content.empty() || sig_bits->content[0] != 0 ||
      !list_reader.at_end()) {
    return std::nullopt;
  }
  crl.signature.assign(sig_bits->content.begin() + 1, sig_bits->content.end());

  // --- TBSCertList ---
  asn1::Reader tbs_reader(tbs->content);
  // Optional version (v2 = INTEGER 1).
  if (const auto peek = tbs_reader.peek_tag();
      peek && *peek == static_cast<std::uint8_t>(asn1::Tag::kInteger)) {
    const auto version = tbs_reader.read_small_integer();
    if (!version || *version != 1) return std::nullopt;
  }
  const auto inner_alg = tbs_reader.read(asn1::Tag::kSequence);
  if (!inner_alg) return std::nullopt;
  const auto issuer_tlv = tbs_reader.read(asn1::Tag::kSequence);
  if (!issuer_tlv) return std::nullopt;
  auto issuer = Name::decode(issuer_tlv->full);
  if (!issuer) return std::nullopt;
  crl.issuer = std::move(*issuer);
  const auto this_update = tbs_reader.read_time();
  if (!this_update) return std::nullopt;
  crl.this_update = *this_update;
  // Optional nextUpdate: a time tag.
  if (const auto peek = tbs_reader.peek_tag();
      peek && (*peek == static_cast<std::uint8_t>(asn1::Tag::kUtcTime) ||
               *peek == static_cast<std::uint8_t>(asn1::Tag::kGeneralizedTime))) {
    const auto next_update = tbs_reader.read_time();
    if (!next_update) return std::nullopt;
    crl.next_update = *next_update;
  }
  // Optional revokedCertificates.
  if (const auto peek = tbs_reader.peek_tag();
      peek && *peek == static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    const auto revoked_list = tbs_reader.read(asn1::Tag::kSequence);
    if (!revoked_list) return std::nullopt;
    asn1::Reader entries(revoked_list->content);
    while (!entries.at_end()) {
      const auto entry = entries.read(asn1::Tag::kSequence);
      if (!entry) return std::nullopt;
      asn1::Reader entry_reader(entry->content);
      RevokedEntry revoked;
      auto serial = entry_reader.read_integer();
      if (!serial) return std::nullopt;
      revoked.serial = std::move(*serial);
      const auto when = entry_reader.read_time();
      if (!when) return std::nullopt;
      revoked.revocation_date = *when;
      crl.revoked.push_back(std::move(revoked));
    }
  }
  if (!tbs_reader.at_end()) return std::nullopt;
  std::sort(crl.revoked.begin(), crl.revoked.end(), serial_less);
  return crl;
}

CrlBuilder& CrlBuilder::set_issuer(Name issuer) {
  issuer_ = std::move(issuer);
  return *this;
}

CrlBuilder& CrlBuilder::set_this_update(util::UnixTime t) {
  this_update_ = t;
  return *this;
}

CrlBuilder& CrlBuilder::set_next_update(util::UnixTime t) {
  next_update_ = t;
  return *this;
}

CrlBuilder& CrlBuilder::add_revoked(bignum::BigUint serial,
                                    util::UnixTime when) {
  revoked_.push_back(RevokedEntry{std::move(serial), when});
  return *this;
}

Crl CrlBuilder::sign(const crypto::SigningKey& issuer_key) const {
  using asn1::DerWriter;
  DerWriter w;
  const DerWriter::Mark list = w.begin(asn1::Tag::kSequence);
  const std::size_t tbs_start = w.size();
  const DerWriter::Mark tbs = w.begin(asn1::Tag::kSequence);
  w.integer(std::int64_t{1});  // v2
  write_signature_algorithm(w, issuer_key.pub.scheme);
  issuer_.encode(w);
  w.time(this_update_);
  if (next_update_) w.time(*next_update_);
  if (!revoked_.empty()) {
    std::vector<RevokedEntry> sorted = revoked_;
    std::sort(sorted.begin(), sorted.end(), serial_less);
    sorted.erase(std::unique(sorted.begin(), sorted.end(),
                             [](const RevokedEntry& a, const RevokedEntry& b) {
                               return a.serial == b.serial;
                             }),
                 sorted.end());
    const DerWriter::Mark entries = w.begin(asn1::Tag::kSequence);
    for (const RevokedEntry& entry : sorted) {
      const DerWriter::Mark one = w.begin(asn1::Tag::kSequence);
      w.integer(entry.serial);
      w.time(entry.revocation_date);
      w.end(one);
    }
    w.end(entries);
  }
  w.end(tbs);
  const util::Bytes signature =
      crypto::sign(issuer_key, w.view().subspan(tbs_start));
  write_signature_algorithm(w, issuer_key.pub.scheme);
  w.bit_string(signature);
  w.end(list);

  auto parsed = parse_crl(w.view());
  if (!parsed) {
    throw std::logic_error("CrlBuilder: self-produced DER not parseable");
  }
  return std::move(*parsed);
}

}  // namespace sm::x509
