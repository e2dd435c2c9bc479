#include "asn1/oid.h"

#include <charconv>

namespace sm::asn1 {

std::string Oid::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < arcs.size(); ++i) {
    if (i) out.push_back('.');
    out += std::to_string(arcs[i]);
  }
  return out;
}

std::optional<Oid> Oid::from_string(const std::string& dotted) {
  Oid out;
  std::size_t pos = 0;
  while (pos <= dotted.size()) {
    std::size_t dot = dotted.find('.', pos);
    if (dot == std::string::npos) dot = dotted.size();
    std::uint32_t arc = 0;
    const auto [ptr, ec] =
        std::from_chars(dotted.data() + pos, dotted.data() + dot, arc);
    if (ec != std::errc{} || ptr != dotted.data() + dot) return std::nullopt;
    out.arcs.push_back(arc);
    pos = dot + 1;
    if (dot == dotted.size()) break;
  }
  if (out.arcs.size() < 2) return std::nullopt;
  if (out.arcs[0] > 2) return std::nullopt;
  if (out.arcs[0] < 2 && out.arcs[1] >= 40) return std::nullopt;
  return out;
}

std::optional<Oid> Oid::decode(util::BytesView content) {
  if (content.empty()) return std::nullopt;
  Oid out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    std::uint64_t v = 0;
    bool done = false;
    // Cap sub-identifier length to avoid overflow on hostile input.
    for (int i = 0; i < 9 && pos < content.size(); ++i) {
      const std::uint8_t b = content[pos++];
      v = (v << 7) | (b & 0x7f);
      if (!(b & 0x80)) {
        done = true;
        break;
      }
    }
    if (!done) return std::nullopt;
    if (first) {
      first = false;
      if (v < 40) {
        out.arcs.push_back(0);
        out.arcs.push_back(static_cast<std::uint32_t>(v));
      } else if (v < 80) {
        out.arcs.push_back(1);
        out.arcs.push_back(static_cast<std::uint32_t>(v - 40));
      } else {
        out.arcs.push_back(2);
        out.arcs.push_back(static_cast<std::uint32_t>(v - 80));
      }
    } else {
      if (v > 0xffffffffULL) return std::nullopt;
      out.arcs.push_back(static_cast<std::uint32_t>(v));
    }
  }
  return out;
}

namespace oids {

const Oid& common_name() {
  static const Oid kOid{{2, 5, 4, 3}};
  return kOid;
}
const Oid& organization() {
  static const Oid kOid{{2, 5, 4, 10}};
  return kOid;
}
const Oid& organizational_unit() {
  static const Oid kOid{{2, 5, 4, 11}};
  return kOid;
}
const Oid& country() {
  static const Oid kOid{{2, 5, 4, 6}};
  return kOid;
}
const Oid& locality() {
  static const Oid kOid{{2, 5, 4, 7}};
  return kOid;
}
const Oid& state() {
  static const Oid kOid{{2, 5, 4, 8}};
  return kOid;
}

const Oid& subject_key_identifier() {
  static const Oid kOid{{2, 5, 29, 14}};
  return kOid;
}
const Oid& key_usage() {
  static const Oid kOid{{2, 5, 29, 15}};
  return kOid;
}
const Oid& subject_alt_name() {
  static const Oid kOid{{2, 5, 29, 17}};
  return kOid;
}
const Oid& basic_constraints() {
  static const Oid kOid{{2, 5, 29, 19}};
  return kOid;
}
const Oid& crl_distribution_points() {
  static const Oid kOid{{2, 5, 29, 31}};
  return kOid;
}
const Oid& authority_key_identifier() {
  static const Oid kOid{{2, 5, 29, 35}};
  return kOid;
}
const Oid& authority_info_access() {
  static const Oid kOid{{1, 3, 6, 1, 5, 5, 7, 1, 1}};
  return kOid;
}
const Oid& ad_ocsp() {
  static const Oid kOid{{1, 3, 6, 1, 5, 5, 7, 48, 1}};
  return kOid;
}
const Oid& ad_ca_issuers() {
  static const Oid kOid{{1, 3, 6, 1, 5, 5, 7, 48, 2}};
  return kOid;
}

const Oid& certificate_policies() {
  static const Oid kOid{{2, 5, 29, 32}};
  return kOid;
}
const Oid& extended_key_usage() {
  static const Oid kOid{{2, 5, 29, 37}};
  return kOid;
}
const Oid& kp_server_auth() {
  static const Oid kOid{{1, 3, 6, 1, 5, 5, 7, 3, 1}};
  return kOid;
}
const Oid& kp_client_auth() {
  static const Oid kOid{{1, 3, 6, 1, 5, 5, 7, 3, 2}};
  return kOid;
}

const Oid& rsa_encryption() {
  static const Oid kOid{{1, 2, 840, 113549, 1, 1, 1}};
  return kOid;
}
const Oid& sha256_with_rsa() {
  static const Oid kOid{{1, 2, 840, 113549, 1, 1, 11}};
  return kOid;
}
const Oid& sim_signature() {
  static const Oid kOid{{1, 3, 6, 1, 4, 1, 99999, 1, 1}};
  return kOid;
}

}  // namespace oids

}  // namespace sm::asn1
