#include "x509/general_name.h"

#include <charconv>

#include "asn1/der.h"

namespace sm::x509 {

namespace {

std::optional<util::Bytes> ipv4_to_bytes(const std::string& dotted) {
  util::Bytes out;
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    std::size_t dot = dotted.find('.', pos);
    if (dot == std::string::npos) dot = dotted.size();
    unsigned octet = 0;
    const auto [ptr, ec] =
        std::from_chars(dotted.data() + pos, dotted.data() + dot, octet);
    if (ec != std::errc{} || ptr != dotted.data() + dot || octet > 255) {
      return std::nullopt;
    }
    out.push_back(static_cast<std::uint8_t>(octet));
    pos = dot + 1;
  }
  if (pos <= dotted.size() && dotted.find('.', pos) != std::string::npos) {
    return std::nullopt;
  }
  return out;
}

std::string bytes_to_ipv4(util::BytesView b) {
  std::string out;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i) out.push_back('.');
    out += std::to_string(b[i]);
  }
  return out;
}

}  // namespace

std::string GeneralName::to_string() const {
  switch (kind) {
    case Kind::kEmail:
      return "email:" + value;
    case Kind::kDns:
      return "dns:" + value;
    case Kind::kUri:
      return "uri:" + value;
    case Kind::kIp:
      return "ip:" + value;
  }
  return "?:" + value;
}

void write_general_names(asn1::DerWriter& w,
                         const std::vector<GeneralName>& names) {
  const asn1::DerWriter::Mark seq = w.begin(asn1::Tag::kSequence);
  for (const GeneralName& name : names) {
    const auto tag =
        asn1::context_primitive(static_cast<unsigned>(name.kind));
    const std::optional<util::Bytes> ip =
        name.kind == GeneralName::Kind::kIp ? ipv4_to_bytes(name.value)
                                            : std::nullopt;
    // Unparseable IPs encode as raw text so nothing is silently dropped;
    // real invalid certificates contain similar garbage.
    if (ip) {
      w.tlv(tag, *ip);
    } else {
      w.tlv(tag, util::as_bytes(name.value));
    }
  }
  w.end(seq);
}

std::optional<std::vector<GeneralName>> decode_general_names(
    util::BytesView der) {
  const auto outer = asn1::parse_single(der);
  if (!outer || outer->tag != static_cast<std::uint8_t>(asn1::Tag::kSequence)) {
    return std::nullopt;
  }
  std::vector<GeneralName> out;
  asn1::Reader r(outer->content);
  while (!r.at_end()) {
    const auto tlv = r.read_any();
    if (!tlv) return std::nullopt;
    if ((tlv->tag & 0xc0) != 0x80) return std::nullopt;  // not context class
    const unsigned choice = tlv->tag & 0x1f;
    GeneralName name;
    switch (choice) {
      case 1:
        name.kind = GeneralName::Kind::kEmail;
        name.value = util::to_string(tlv->content);
        break;
      case 2:
        name.kind = GeneralName::Kind::kDns;
        name.value = util::to_string(tlv->content);
        break;
      case 6:
        name.kind = GeneralName::Kind::kUri;
        name.value = util::to_string(tlv->content);
        break;
      case 7:
        name.kind = GeneralName::Kind::kIp;
        name.value = tlv->content.size() == 4
                         ? bytes_to_ipv4(tlv->content)
                         : util::to_string(tlv->content);
        break;
      default:
        continue;  // skip name kinds we do not model
    }
    out.push_back(std::move(name));
  }
  return out;
}

}  // namespace sm::x509
