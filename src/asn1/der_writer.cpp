#include "asn1/der.h"

namespace sm::asn1 {

namespace {

// Number of octets the long form needs for `len` (len >= 0x80).
unsigned length_octets(std::size_t len) {
  unsigned n = 0;
  for (; len != 0; len >>= 8) ++n;
  return n;
}

// Appends `value` as exactly `digits` decimal digits.
void put_digits(util::Bytes& out, unsigned value, int digits) {
  std::uint8_t buf[4];
  for (int i = digits - 1; i >= 0; --i) {
    buf[i] = static_cast<std::uint8_t>('0' + value % 10);
    value /= 10;
  }
  out.insert(out.end(), buf, buf + digits);
}

}  // namespace

void DerWriter::header(std::uint8_t tag, std::size_t length) {
  out_.push_back(tag);
  if (length < 0x80) {
    out_.push_back(static_cast<std::uint8_t>(length));
    return;
  }
  const unsigned n = length_octets(length);
  out_.push_back(static_cast<std::uint8_t>(0x80 | n));
  for (unsigned i = n; i-- > 0;) {
    out_.push_back(static_cast<std::uint8_t>(length >> (8 * i)));
  }
}

DerWriter::Mark DerWriter::begin(std::uint8_t tag) {
  out_.push_back(tag);
  out_.push_back(0);  // length placeholder, patched by end()
  return out_.size() - 1;
}

void DerWriter::end(Mark mark) {
  const std::size_t length = out_.size() - mark - 1;
  if (length < 0x80) {
    out_[mark] = static_cast<std::uint8_t>(length);
    return;
  }
  const unsigned n = length_octets(length);
  out_[mark] = static_cast<std::uint8_t>(0x80 | n);
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(mark + 1), n, 0);
  for (unsigned i = 0; i < n; ++i) {
    out_[mark + 1 + i] = static_cast<std::uint8_t>(length >> (8 * (n - 1 - i)));
  }
}

void DerWriter::tlv(std::uint8_t tag, util::BytesView content) {
  header(tag, content.size());
  util::append(out_, content);
}

void DerWriter::integer(const bignum::BigUint& value) {
  const util::Bytes content = value.to_bytes();
  const bool pad = content.empty() || (content[0] & 0x80);
  header(static_cast<std::uint8_t>(Tag::kInteger), content.size() + pad);
  if (pad) out_.push_back(0x00);
  util::append(out_, content);
}

void DerWriter::integer(std::int64_t value) {
  // Minimal two's-complement big-endian encoding, built back to front.
  std::uint8_t buf[8];
  int start = 8;
  bool more = true;
  while (more) {
    const std::uint8_t byte = static_cast<std::uint8_t>(value & 0xff);
    value >>= 8;
    buf[--start] = byte;
    more = !((value == 0 && !(byte & 0x80)) ||
             (value == -1 && (byte & 0x80)));
  }
  tlv(static_cast<std::uint8_t>(Tag::kInteger),
      util::BytesView(buf + start, static_cast<std::size_t>(8 - start)));
}

void DerWriter::boolean(bool value) {
  header(static_cast<std::uint8_t>(Tag::kBoolean), 1);
  out_.push_back(value ? 0xff : 0x00);
}

void DerWriter::null() { header(static_cast<std::uint8_t>(Tag::kNull), 0); }

void DerWriter::oid(const Oid& oid) {
  tlv(static_cast<std::uint8_t>(Tag::kOid), oid.content());
}

void DerWriter::octet_string(util::BytesView content) {
  tlv(static_cast<std::uint8_t>(Tag::kOctetString), content);
}

void DerWriter::bit_string(util::BytesView content) {
  header(static_cast<std::uint8_t>(Tag::kBitString), content.size() + 1);
  out_.push_back(0x00);  // unused bits
  util::append(out_, content);
}

void DerWriter::named_bit_string(std::uint32_t bits, unsigned bit_count) {
  // Find the highest set named bit; DER requires trailing zero bits to be
  // stripped.
  unsigned highest = 0;
  bool any = false;
  for (unsigned i = 0; i < bit_count && i < 32; ++i) {
    if (bits & (1u << i)) {
      highest = i;
      any = true;
    }
  }
  if (!any) {
    header(static_cast<std::uint8_t>(Tag::kBitString), 1);
    out_.push_back(0x00);  // empty bit string
    return;
  }
  const unsigned octets = highest / 8 + 1;
  const unsigned unused = 7 - (highest % 8);
  header(static_cast<std::uint8_t>(Tag::kBitString), octets + 1);
  out_.push_back(static_cast<std::uint8_t>(unused));
  for (unsigned octet = 0; octet < octets; ++octet) {
    std::uint8_t value = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      const unsigned named = octet * 8 + bit;
      if (named < 32 && (bits & (1u << named))) {
        value |= static_cast<std::uint8_t>(0x80 >> bit);
      }
    }
    out_.push_back(value);
  }
}

void DerWriter::utf8_string(std::string_view s) {
  tlv(static_cast<std::uint8_t>(Tag::kUtf8String), util::as_bytes(s));
}

void DerWriter::time(util::UnixTime t) {
  util::CivilDateTime c = util::from_unix(t);
  if (c.year > 9999) {
    c = util::CivilDateTime{9999, 12, 31, 23, 59, 59};
  }
  // YYMMDDHHMMSSZ (UTCTime) or YYYYMMDDHHMMSSZ (GeneralizedTime).
  if (c.year >= 1950 && c.year <= 2049) {
    header(static_cast<std::uint8_t>(Tag::kUtcTime), 13);
    put_digits(out_, static_cast<unsigned>(c.year % 100), 2);
  } else {
    header(static_cast<std::uint8_t>(Tag::kGeneralizedTime), 15);
    put_digits(out_, static_cast<unsigned>(c.year < 0 ? 0 : c.year), 4);
  }
  put_digits(out_, c.month, 2);
  put_digits(out_, c.day, 2);
  put_digits(out_, c.hour, 2);
  put_digits(out_, c.minute, 2);
  put_digits(out_, c.second, 2);
  out_.push_back('Z');
}

}  // namespace sm::asn1
