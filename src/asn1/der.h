// DER (X.690 Distinguished Encoding Rules) writing and reading.
//
// The writer (DerWriter) encodes top-down into a single buffer: primitives
// append in place and containers back-patch their length when closed. The
// reader is a cursor over a byte view
// with typed extractors that return std::optional on malformed input —
// parsing never throws.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "asn1/oid.h"
#include "bignum/biguint.h"
#include "util/bytes.h"
#include "util/datetime.h"

namespace sm::asn1 {

/// Universal class tags used by this library (X.680 §8).
enum class Tag : std::uint8_t {
  kBoolean = 0x01,
  kInteger = 0x02,
  kBitString = 0x03,
  kOctetString = 0x04,
  kNull = 0x05,
  kOid = 0x06,
  kUtf8String = 0x0c,
  kPrintableString = 0x13,
  kIa5String = 0x16,
  kUtcTime = 0x17,
  kGeneralizedTime = 0x18,
  kSequence = 0x30,  // constructed
  kSet = 0x31,       // constructed
};

/// Tag byte for [n] context-specific, constructed (e.g. the explicit
/// version wrapper in TBSCertificate).
constexpr std::uint8_t context_constructed(unsigned n) {
  return static_cast<std::uint8_t>(0xa0 | n);
}

/// Tag byte for [n] context-specific, primitive (e.g. SAN dNSName / iPAddress
/// choices).
constexpr std::uint8_t context_primitive(unsigned n) {
  return static_cast<std::uint8_t>(0x80 | n);
}

// --- Writing ----------------------------------------------------------------

/// Encodes DER into one growing buffer. Primitives append their complete
/// TLV in place; a constructed value is opened with begin(tag), filled with
/// its children, and closed with end(mark), which back-patches the length
/// (widening the one-byte placeholder when the content needs the long
/// form). Typical use:
///   DerWriter w;
///   const DerWriter::Mark seq = w.begin(Tag::kSequence);
///   w.integer(std::int64_t{2});
///   w.utf8_string("fritz.box");
///   w.end(seq);
///   util::Bytes der = w.take();
class DerWriter {
 public:
  /// Where an open constructed value's length byte sits.
  using Mark = std::size_t;

  DerWriter() = default;
  /// Starts with `capacity` bytes reserved.
  explicit DerWriter(std::size_t capacity) { out_.reserve(capacity); }

  /// Opens a constructed value; close it with end(). Opened values nest.
  Mark begin(std::uint8_t tag);
  Mark begin(Tag tag) { return begin(static_cast<std::uint8_t>(tag)); }

  /// Closes the value begin() opened at `mark`: everything written since is
  /// its content. Bytes before `mark` stay where they are; bytes after it
  /// may move.
  void end(Mark mark);

  /// Tag + definite length + `content`.
  void tlv(std::uint8_t tag, util::BytesView content);

  /// INTEGER from a non-negative bignum (a 0x00 pad byte when the high bit
  /// is set, per DER two's-complement rules).
  void integer(const bignum::BigUint& value);

  /// INTEGER from a machine integer (may be negative).
  void integer(std::int64_t value);

  /// BOOLEAN (DER: 0xff for true).
  void boolean(bool value);

  /// NULL.
  void null();

  /// OBJECT IDENTIFIER.
  void oid(const Oid& oid);

  /// OCTET STRING.
  void octet_string(util::BytesView content);

  /// BIT STRING with zero unused bits (keys, signatures).
  void bit_string(util::BytesView content);

  /// BIT STRING of named bits (DER: trailing zero bits are not encoded and
  /// the unused-bit count is explicit). Bit 0 is the most significant bit
  /// of the first content octet, per X.680. Used for KeyUsage.
  void named_bit_string(std::uint32_t bits, unsigned bit_count);

  /// UTF8String.
  void utf8_string(std::string_view s);

  /// Time as UTCTime when the year fits 1950-2049, else GeneralizedTime —
  /// exactly the RFC 5280 rule. Years > 9999 are clamped to 9999-12-31
  /// because GeneralizedTime cannot represent them.
  void time(util::UnixTime t);

  /// Bytes written so far (open values still carry placeholder lengths).
  std::size_t size() const { return out_.size(); }
  util::BytesView view() const { return out_; }

  /// Moves the encoding out; the writer is empty afterwards.
  util::Bytes take() { return std::move(out_); }

 private:
  void header(std::uint8_t tag, std::size_t length);

  util::Bytes out_;
};

// --- Reading ----------------------------------------------------------------

/// One decoded TLV: its tag, its content bytes, and the full encoding
/// (header + content) for signature/fingerprint purposes.
struct Tlv {
  std::uint8_t tag = 0;
  util::BytesView content;
  util::BytesView full;
};

/// A non-owning DER cursor. Typical use:
///   Reader r(buffer);
///   auto seq = r.read(Tag::kSequence);
///   if (!seq) ... error ...
///   Reader inner(seq->content);
class Reader {
 public:
  explicit Reader(util::BytesView data) : data_(data) {}

  /// True when all input has been consumed.
  bool at_end() const { return pos_ >= data_.size(); }

  /// Bytes remaining.
  std::size_t remaining() const { return data_.size() - pos_; }

  /// Tag byte of the next TLV without consuming it; nullopt at end.
  std::optional<std::uint8_t> peek_tag() const;

  /// Reads the next TLV whatever its tag.
  std::optional<Tlv> read_any();

  /// Reads the next TLV and requires the given tag.
  std::optional<Tlv> read(Tag tag);

  /// Reads the next TLV and requires the given raw tag byte.
  std::optional<Tlv> read_tag(std::uint8_t tag);

  /// Reads an INTEGER as a bignum; rejects negative values.
  std::optional<bignum::BigUint> read_integer();

  /// Reads an INTEGER that must fit in int64.
  std::optional<std::int64_t> read_small_integer();

  /// Reads a BOOLEAN.
  std::optional<bool> read_boolean();

  /// Reads an OBJECT IDENTIFIER.
  std::optional<Oid> read_oid();

  /// Reads a UTCTime or GeneralizedTime as Unix seconds.
  std::optional<util::UnixTime> read_time();

  /// Reads any of the string types as raw text.
  std::optional<std::string> read_string();

 private:
  util::BytesView data_;
  std::size_t pos_ = 0;
};

/// Parses a complete DER value that must span the whole buffer.
std::optional<Tlv> parse_single(util::BytesView data);

}  // namespace sm::asn1
