#include "asn1/oid.h"

#include <charconv>
#include <vector>

namespace sm::asn1 {

namespace {

void put_base128(std::string& out, std::uint64_t v) {
  char tmp[10];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>(v & 0x7f);
    v >>= 7;
  } while (v);
  for (int i = n - 1; i >= 0; --i) {
    out.push_back(static_cast<char>(tmp[i] | (i ? 0x80 : 0x00)));
  }
}

// Calls `arc` with every arc of the content octets, in order; false when
// they are malformed. `minimal` is cleared when re-encoding the arcs would
// not give `content` back.
template <typename ArcFn>
bool for_each_arc(util::BytesView content, bool& minimal, const ArcFn& arc) {
  if (content.empty()) return false;
  minimal = true;
  std::size_t pos = 0;
  bool first = true;
  while (pos < content.size()) {
    if (content[pos] == 0x80) minimal = false;  // a leading zero group
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
    if (!done) return false;
    if (first) {
      first = false;
      if (v < 40) {
        arc(0);
        arc(static_cast<std::uint32_t>(v));
      } else if (v < 80) {
        arc(1);
        arc(static_cast<std::uint32_t>(v - 40));
      } else {
        if (v - 80 > 0xffffffffULL) minimal = false;  // arc 2 truncates
        arc(2);
        arc(static_cast<std::uint32_t>(v - 80));
      }
    } else {
      if (v > 0xffffffffULL) return false;
      arc(static_cast<std::uint32_t>(v));
    }
  }
  return true;
}

}  // namespace

Oid::Oid(std::initializer_list<std::uint32_t> arcs)
    : Oid(std::span<const std::uint32_t>(arcs.begin(), arcs.size())) {}

Oid::Oid(std::span<const std::uint32_t> arcs) {
  if (arcs.size() < 2) return;
  put_base128(content_, std::uint64_t{arcs[0]} * 40 + arcs[1]);
  for (std::size_t i = 2; i < arcs.size(); ++i) put_base128(content_, arcs[i]);
}

std::string Oid::to_string() const {
  std::string out;
  bool minimal = true;
  for_each_arc(content(), minimal, [&](std::uint32_t arc) {
    if (!out.empty()) out.push_back('.');
    out += std::to_string(arc);
  });
  return out;
}

std::optional<Oid> Oid::from_string(const std::string& dotted) {
  std::vector<std::uint32_t> arcs;
  std::size_t pos = 0;
  while (pos <= dotted.size()) {
    std::size_t dot = dotted.find('.', pos);
    if (dot == std::string::npos) dot = dotted.size();
    std::uint32_t arc = 0;
    const auto [ptr, ec] =
        std::from_chars(dotted.data() + pos, dotted.data() + dot, arc);
    if (ec != std::errc{} || ptr != dotted.data() + dot) return std::nullopt;
    arcs.push_back(arc);
    pos = dot + 1;
    if (dot == dotted.size()) break;
  }
  if (arcs.size() < 2) return std::nullopt;
  if (arcs[0] > 2) return std::nullopt;
  if (arcs[0] < 2 && arcs[1] >= 40) return std::nullopt;
  return Oid(std::span<const std::uint32_t>(arcs));
}

std::optional<Oid> Oid::decode(util::BytesView content) {
  bool minimal = true;
  if (!for_each_arc(content, minimal, [](std::uint32_t) {})) {
    return std::nullopt;
  }
  if (!minimal) {
    std::vector<std::uint32_t> arcs;
    for_each_arc(content, minimal,
                 [&](std::uint32_t arc) { arcs.push_back(arc); });
    return Oid(std::span<const std::uint32_t>(arcs));
  }
  Oid out;
  out.content_.assign(reinterpret_cast<const char*>(content.data()),
                      content.size());
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
