#include <charconv>

#include "asn1/der.h"

namespace sm::asn1 {

namespace {

// Decodes the definite length at data[pos]; advances pos past the length
// octets. Rejects indefinite lengths (not allowed in DER) and lengths that
// exceed the remaining buffer.
std::optional<std::size_t> read_length(util::BytesView data,
                                       std::size_t& pos) {
  if (pos >= data.size()) return std::nullopt;
  const std::uint8_t first = data[pos++];
  if (!(first & 0x80)) return first;
  const int num_octets = first & 0x7f;
  if (num_octets == 0 || num_octets > 8) return std::nullopt;
  if (pos + static_cast<std::size_t>(num_octets) > data.size()) {
    return std::nullopt;
  }
  std::size_t len = 0;
  for (int i = 0; i < num_octets; ++i) {
    len = (len << 8) | data[pos++];
  }
  return len;
}

std::optional<unsigned> parse_digits(util::BytesView content,
                                     std::size_t pos, std::size_t count) {
  unsigned v = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint8_t c = content[pos + i];
    if (c < '0' || c > '9') return std::nullopt;
    v = v * 10 + (c - '0');
  }
  return v;
}

}  // namespace

std::optional<std::uint8_t> Reader::peek_tag() const {
  if (at_end()) return std::nullopt;
  return data_[pos_];
}

std::optional<Tlv> Reader::read_any() {
  if (at_end()) return std::nullopt;
  const std::size_t start = pos_;
  const std::uint8_t tag = data_[pos_++];
  // Multi-byte tags are not used by X.509; reject them.
  if ((tag & 0x1f) == 0x1f) return std::nullopt;
  const auto len = read_length(data_, pos_);
  if (!len) return std::nullopt;
  if (pos_ + *len > data_.size()) return std::nullopt;
  Tlv out;
  out.tag = tag;
  out.content = data_.subspan(pos_, *len);
  out.full = data_.subspan(start, pos_ + *len - start);
  pos_ += *len;
  return out;
}

std::optional<Tlv> Reader::read(Tag tag) {
  return read_tag(static_cast<std::uint8_t>(tag));
}

std::optional<Tlv> Reader::read_tag(std::uint8_t tag) {
  const std::size_t saved = pos_;
  auto tlv = read_any();
  if (!tlv || tlv->tag != tag) {
    pos_ = saved;
    return std::nullopt;
  }
  return tlv;
}

std::optional<bignum::BigUint> Reader::read_integer() {
  const auto tlv = read(Tag::kInteger);
  if (!tlv || tlv->content.empty()) return std::nullopt;
  if (tlv->content[0] & 0x80) return std::nullopt;  // negative
  return bignum::BigUint::from_bytes(tlv->content);
}

std::optional<std::int64_t> Reader::read_small_integer() {
  const auto tlv = read(Tag::kInteger);
  if (!tlv || tlv->content.empty() || tlv->content.size() > 8) {
    return std::nullopt;
  }
  // Sign-extend from the first content byte.
  std::int64_t v = (tlv->content[0] & 0x80) ? -1 : 0;
  for (const std::uint8_t b : tlv->content) {
    v = (v << 8) | b;
  }
  return v;
}

std::optional<bool> Reader::read_boolean() {
  const auto tlv = read(Tag::kBoolean);
  if (!tlv || tlv->content.size() != 1) return std::nullopt;
  return tlv->content[0] != 0;
}

std::optional<Oid> Reader::read_oid() {
  const auto tlv = read(Tag::kOid);
  if (!tlv) return std::nullopt;
  return Oid::decode(tlv->content);
}

std::optional<util::UnixTime> Reader::read_time() {
  const std::size_t saved = pos_;
  auto tlv = read(Tag::kUtcTime);
  bool utc = true;
  if (!tlv) {
    pos_ = saved;
    tlv = read(Tag::kGeneralizedTime);
    utc = false;
    if (!tlv) return std::nullopt;
  }
  const util::BytesView c = tlv->content;
  util::CivilDateTime civil;
  std::size_t pos = 0;
  if (utc) {
    if (c.size() != 13 || c.back() != 'Z') return std::nullopt;
    const auto yy = parse_digits(c, 0, 2);
    if (!yy) return std::nullopt;
    civil.year = (*yy >= 50) ? 1900 + static_cast<int>(*yy)
                             : 2000 + static_cast<int>(*yy);
    pos = 2;
  } else {
    if (c.size() != 15 || c.back() != 'Z') return std::nullopt;
    const auto yyyy = parse_digits(c, 0, 4);
    if (!yyyy) return std::nullopt;
    civil.year = static_cast<int>(*yyyy);
    pos = 4;
  }
  const auto month = parse_digits(c, pos, 2);
  const auto day = parse_digits(c, pos + 2, 2);
  const auto hour = parse_digits(c, pos + 4, 2);
  const auto minute = parse_digits(c, pos + 6, 2);
  const auto second = parse_digits(c, pos + 8, 2);
  if (!month || !day || !hour || !minute || !second) return std::nullopt;
  if (*month < 1 || *month > 12 || *day < 1 || *day > 31 || *hour > 23 ||
      *minute > 59 || *second > 59) {
    return std::nullopt;
  }
  civil.month = *month;
  civil.day = *day;
  civil.hour = *hour;
  civil.minute = *minute;
  civil.second = *second;
  return util::to_unix(civil);
}

std::optional<std::string> Reader::read_string() {
  const auto tag = peek_tag();
  if (!tag) return std::nullopt;
  if (*tag != static_cast<std::uint8_t>(Tag::kUtf8String) &&
      *tag != static_cast<std::uint8_t>(Tag::kPrintableString) &&
      *tag != static_cast<std::uint8_t>(Tag::kIa5String)) {
    return std::nullopt;
  }
  const auto tlv = read_any();
  if (!tlv) return std::nullopt;
  return util::to_string(tlv->content);
}

std::optional<Tlv> parse_single(util::BytesView data) {
  Reader r(data);
  const auto tlv = r.read_any();
  if (!tlv || !r.at_end()) return std::nullopt;
  return tlv;
}

}  // namespace sm::asn1
