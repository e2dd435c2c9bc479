#include "x509/name.h"

namespace sm::x509 {

namespace {

// Short labels for the attribute types we emit; unknown OIDs render dotted.
std::string label_for(const asn1::Oid& oid) {
  if (oid == asn1::oids::common_name()) return "CN";
  if (oid == asn1::oids::organization()) return "O";
  if (oid == asn1::oids::organizational_unit()) return "OU";
  if (oid == asn1::oids::country()) return "C";
  if (oid == asn1::oids::locality()) return "L";
  if (oid == asn1::oids::state()) return "ST";
  return oid.to_string();
}

}  // namespace

std::optional<std::string> Name::get(const asn1::Oid& type) const {
  for (const NameAttribute& attr : attributes) {
    if (attr.type == type) return attr.value;
  }
  return std::nullopt;
}

std::string Name::common_name() const {
  return get(asn1::oids::common_name()).value_or("");
}

Name& Name::add(const asn1::Oid& type, std::string value) {
  attributes.push_back(NameAttribute{type, std::move(value)});
  return *this;
}

Name Name::with_common_name(std::string cn) {
  Name n;
  n.add(asn1::oids::common_name(), std::move(cn));
  return n;
}

std::string Name::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < attributes.size(); ++i) {
    if (i) out += ", ";
    out += label_for(attributes[i].type);
    out += '=';
    out += attributes[i].value;
  }
  return out;
}

void Name::encode(asn1::DerWriter& w) const {
  const asn1::DerWriter::Mark rdns = w.begin(asn1::Tag::kSequence);
  for (const NameAttribute& attr : attributes) {
    const asn1::DerWriter::Mark set = w.begin(asn1::Tag::kSet);
    const asn1::DerWriter::Mark atv = w.begin(asn1::Tag::kSequence);
    w.oid(attr.type);
    w.utf8_string(attr.value);
    w.end(atv);
    w.end(set);
  }
  w.end(rdns);
}

util::Bytes Name::encode() const {
  asn1::DerWriter w;
  encode(w);
  return w.take();
}

std::optional<Name> Name::decode(util::BytesView der) {
  const auto outer = asn1::parse_single(der);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  Name out;
  asn1::Reader rdn_reader(outer->content);
  while (!rdn_reader.at_end()) {
    const auto set = rdn_reader.read(asn1::Tag::kSet);
    if (!set) return std::nullopt;
    asn1::Reader set_reader(set->content);
    while (!set_reader.at_end()) {
      const auto atv = set_reader.read(asn1::Tag::kSequence);
      if (!atv) return std::nullopt;
      asn1::Reader atv_reader(atv->content);
      const auto oid = atv_reader.read_oid();
      if (!oid) return std::nullopt;
      const auto value = atv_reader.read_string();
      if (!value || !atv_reader.at_end()) return std::nullopt;
      out.attributes.push_back(NameAttribute{*oid, *value});
    }
  }
  return out;
}

}  // namespace sm::x509
