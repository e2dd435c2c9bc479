// Tests for sm::asn1 — DER encode/decode round-trips, known encodings, and
// malformed-input rejection.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "asn1/der.h"
#include "asn1/print.h"
#include "asn1/oid.h"
#include "util/datetime.h"
#include "util/hex.h"

namespace sm::asn1 {
namespace {

using util::Bytes;
using util::BytesView;
using util::hex_encode;

// The DER one writer call produces, e.g.
//   der_of([](DerWriter& w) { w.null(); })
template <typename Fn>
Bytes der_of(Fn&& write) {
  DerWriter w;
  write(w);
  return w.take();
}

std::string integer_hex(std::int64_t value) {
  return hex_encode(der_of([&](DerWriter& w) { w.integer(value); }));
}

Bytes time_der(util::UnixTime t) {
  return der_of([&](DerWriter& w) { w.time(t); });
}

Bytes oid_der(const Oid& oid) {
  return der_of([&](DerWriter& w) { w.oid(oid); });
}

// --- OIDs -------------------------------------------------------------------

TEST(Oid, DottedStringRoundTrip) {
  const auto oid = Oid::from_string("1.2.840.113549.1.1.11");
  ASSERT_TRUE(oid.has_value());
  EXPECT_EQ(oid->to_string(), "1.2.840.113549.1.1.11");
}

TEST(Oid, FromStringRejectsBadInput) {
  EXPECT_FALSE(Oid::from_string("").has_value());
  EXPECT_FALSE(Oid::from_string("1").has_value());
  EXPECT_FALSE(Oid::from_string("3.1").has_value());     // first arc > 2
  EXPECT_FALSE(Oid::from_string("1.40").has_value());    // second arc >= 40
  EXPECT_FALSE(Oid::from_string("1.2.x").has_value());
}

TEST(Oid, KnownEncoding) {
  // sha256WithRSAEncryption: 06 09 2a 86 48 86 f7 0d 01 01 0b
  EXPECT_EQ(hex_encode(oid_der(oids::sha256_with_rsa())),
            "06092a864886f70d01010b");
  // id-at-commonName: 55 04 03
  EXPECT_EQ(hex_encode(oid_der(oids::common_name())), "0603550403");
  // An arc above 2^28 takes five base-128 octets.
  EXPECT_EQ(hex_encode(oid_der(Oid{{2, 999, 0xffffffffu}})),
            "060788378fffffff7f");
}

TEST(Oid, EncodeDecodeRoundTrip) {
  for (const Oid& oid :
       {oids::common_name(), oids::subject_alt_name(), oids::ad_ocsp(),
        oids::sim_signature(), oids::authority_info_access()}) {
    const Bytes der = oid_der(oid);
    Reader r(der);
    const auto back = r.read_oid();
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, oid);
  }
}

TEST(Oid, DecodeRejectsTruncatedBase128) {
  // A continuation byte with nothing after it.
  EXPECT_FALSE(Oid::decode(Bytes{0x2a, 0x86}).has_value());
  EXPECT_FALSE(Oid::decode(Bytes{}).has_value());
}

// --- primitive encodings ------------------------------------------------------

TEST(Der, IntegerKnownEncodings) {
  EXPECT_EQ(integer_hex(0), "020100");
  EXPECT_EQ(integer_hex(127), "02017f");
  // 128 needs a leading zero octet to stay positive.
  EXPECT_EQ(integer_hex(128), "02020080");
  EXPECT_EQ(integer_hex(-1), "0201ff");
  EXPECT_EQ(integer_hex(-129), "0202ff7f");
  EXPECT_EQ(integer_hex(INT64_MIN), "02088000000000000000");
  EXPECT_EQ(integer_hex(INT64_MAX), "02087fffffffffffffff");
}

TEST(Der, BigIntegerPadsHighBit) {
  const auto der = der_of(
      [](DerWriter& w) { w.integer(bignum::BigUint::from_hex("80")); });
  EXPECT_EQ(hex_encode(der), "02020080");
}

TEST(Der, BooleanAndNull) {
  EXPECT_EQ(hex_encode(der_of([](DerWriter& w) { w.boolean(true); })),
            "0101ff");
  EXPECT_EQ(hex_encode(der_of([](DerWriter& w) { w.boolean(false); })),
            "010100");
  EXPECT_EQ(hex_encode(der_of([](DerWriter& w) { w.null(); })), "0500");
}

TEST(Der, LongFormLength) {
  const Bytes content(200, 0xab);
  const Bytes der = der_of([&](DerWriter& w) { w.octet_string(content); });
  // 04 81 C8 <200 bytes>
  EXPECT_EQ(der[0], 0x04);
  EXPECT_EQ(der[1], 0x81);
  EXPECT_EQ(der[2], 200);
  EXPECT_EQ(der.size(), 203u);
}

TEST(Der, VeryLongFormLength) {
  const Bytes content(70000, 0x01);
  const Bytes der = der_of([&](DerWriter& w) { w.octet_string(content); });
  EXPECT_EQ(der[1], 0x83);  // three length octets
  Reader r(der);
  const auto tlv = r.read(Tag::kOctetString);
  ASSERT_TRUE(tlv.has_value());
  EXPECT_EQ(tlv->content.size(), 70000u);
}

TEST(Der, BitStringPrependsUnusedBits) {
  const Bytes der =
      der_of([](DerWriter& w) { w.bit_string(Bytes{0xde, 0xad}); });
  EXPECT_EQ(hex_encode(der), "030300dead");
}

// --- DerWriter back-patching --------------------------------------------------

// Every length form on both sides of its boundary: a SEQUENCE closed by
// begin()/end() around one OCTET STRING must equal the same SEQUENCE
// written directly with tlv(), header byte for byte. Each case sizes the
// OCTET STRING so the SEQUENCE content is exactly `length` bytes.
TEST(DerWriter, BackPatchedLengthMatchesDirectTlvAtEveryBoundary) {
  struct Case {
    std::size_t length;   // SEQUENCE content length
    std::size_t octets;   // OCTET STRING content length giving it
    std::string header;   // expected SEQUENCE header
  };
  const std::vector<Case> cases = {
      {2, 0, "3002"},              {127, 125, "307f"},
      {128, 126, "308180"},        {255, 252, "3081ff"},
      {256, 253, "30820100"},      {65535, 65531, "3082ffff"},
      {65536, 65532, "3083010000"},
  };
  for (const Case& c : cases) {
    const Bytes octets(c.octets, 0x5a);
    const Bytes inner = der_of([&](DerWriter& w) { w.octet_string(octets); });
    ASSERT_EQ(inner.size(), c.length);
    const Bytes direct = der_of([&](DerWriter& w) { w.tlv(0x30, inner); });
    const Bytes patched = der_of([&](DerWriter& w) {
      const DerWriter::Mark mark = w.begin(Tag::kSequence);
      w.octet_string(octets);
      w.end(mark);
    });
    EXPECT_EQ(patched, direct) << c.length;
    EXPECT_EQ(hex_encode(BytesView(patched).first(c.header.size() / 2)),
              c.header)
        << c.length;
  }
  EXPECT_EQ(hex_encode(der_of([](DerWriter& w) { w.end(w.begin(0x30)); })),
            "3000");
}

// Closing an inner value that needs the long form shifts what follows its
// mark; the outer value, closed later, measures the widened content, and
// bytes written before the outer mark never move.
TEST(DerWriter, NestedLongFormsWidenOuterValues) {
  DerWriter w;
  w.null();
  const DerWriter::Mark outer = w.begin(Tag::kSequence);
  const DerWriter::Mark inner = w.begin(Tag::kSequence);
  w.octet_string(Bytes(200, 0xab));
  w.end(inner);
  w.boolean(true);
  w.end(outer);
  const Bytes der = w.take();
  // 05 00 | 30 81 d1 | 30 81 cb | 04 81 c8 <200> | 01 01 ff
  ASSERT_EQ(der.size(), 2u + 3 + 3 + 3 + 200 + 3);
  EXPECT_EQ(hex_encode(BytesView(der).first(11)), "05003081d13081cb0481c8");
  EXPECT_EQ(hex_encode(BytesView(der).last(3)), "0101ff");
  Reader r(BytesView(der).subspan(2));
  const auto seq = r.read(Tag::kSequence);
  ASSERT_TRUE(seq.has_value());
  EXPECT_TRUE(r.at_end());
}

// --- reader ------------------------------------------------------------------

TEST(Reader, ReadsNestedSequence) {
  DerWriter w;
  const DerWriter::Mark mark = w.begin(Tag::kSequence);
  w.integer(std::int64_t{42});
  w.boolean(true);
  w.end(mark);
  const Bytes der = w.take();
  Reader r(der);
  const auto seq = r.read(Tag::kSequence);
  ASSERT_TRUE(seq.has_value());
  EXPECT_TRUE(r.at_end());
  Reader body(seq->content);
  EXPECT_EQ(body.read_small_integer(), 42);
  EXPECT_EQ(body.read_boolean(), true);
  EXPECT_TRUE(body.at_end());
}

TEST(Reader, TagMismatchDoesNotConsume) {
  const Bytes der = der_of([&](DerWriter& w) { w.boolean(true); });
  Reader r(der);
  EXPECT_FALSE(r.read(Tag::kInteger).has_value());
  EXPECT_EQ(r.read_boolean(), true);  // still readable
}

TEST(Reader, RejectsTruncatedLength) {
  Bytes der = der_of([](DerWriter& w) { w.octet_string(Bytes(200, 1)); });
  der.resize(2);  // tag + first length byte, missing the rest
  Reader r(der);
  EXPECT_FALSE(r.read_any().has_value());
}

TEST(Reader, RejectsContentOverrun) {
  Bytes der = {0x04, 0x05, 0x01, 0x02};  // claims 5 bytes, has 2
  Reader r(der);
  EXPECT_FALSE(r.read_any().has_value());
}

TEST(Reader, RejectsIndefiniteLength) {
  const Bytes der = {0x30, 0x80, 0x00, 0x00};
  Reader r(der);
  EXPECT_FALSE(r.read_any().has_value());
}

TEST(Reader, RejectsHighTagNumberForm) {
  const Bytes der = {0x1f, 0x81, 0x01, 0x00};
  Reader r(der);
  EXPECT_FALSE(r.read_any().has_value());
}

TEST(Reader, IntegerRejectsNegativeAsBignum) {
  const Bytes der = der_of([](DerWriter& w) { w.integer(std::int64_t{-5}); });
  Reader r(der);
  EXPECT_FALSE(r.read_integer().has_value());
}

TEST(Reader, SmallIntegerSignExtends) {
  const Bytes der = der_of([](DerWriter& w) { w.integer(std::int64_t{-42}); });
  Reader r(der);
  EXPECT_EQ(r.read_small_integer(), -42);
}

TEST(Reader, FullBufferParseRejectsTrailing) {
  Bytes der = der_of([](DerWriter& w) { w.null(); });
  der.push_back(0x00);
  EXPECT_FALSE(parse_single(der).has_value());
}

// --- time --------------------------------------------------------------------

TEST(DerTime, UtcTimeRange) {
  const util::UnixTime t = util::make_date(2014, 7, 1) + 3661;
  const Bytes der = time_der(t);
  EXPECT_EQ(der[0], static_cast<std::uint8_t>(Tag::kUtcTime));
  Reader r(der);
  EXPECT_EQ(r.read_time(), t);
}

TEST(DerTime, GeneralizedTimeBefore1950) {
  const util::UnixTime t = util::make_date(1940, 1, 2);
  const Bytes der = time_der(t);
  EXPECT_EQ(der[0], static_cast<std::uint8_t>(Tag::kGeneralizedTime));
  Reader r(der);
  EXPECT_EQ(r.read_time(), t);
}

TEST(DerTime, GeneralizedTimeFarFuture) {
  const util::UnixTime t = util::make_date(3000, 6, 15);
  const Bytes der = time_der(t);
  EXPECT_EQ(der[0], static_cast<std::uint8_t>(Tag::kGeneralizedTime));
  Reader r(der);
  EXPECT_EQ(r.read_time(), t);
}

TEST(DerTime, Year10000ClampsTo9999) {
  const util::UnixTime t = util::make_date(12000, 1, 1);
  const Bytes der = time_der(t);
  Reader r(der);
  const auto back = r.read_time();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(util::from_unix(*back).year, 9999);
}

TEST(DerTime, UtcTimeCenturyPivot) {
  // YY >= 50 is 19YY, YY < 50 is 20YY (RFC 5280).
  {
    const Bytes der = time_der(util::make_date(1975, 3, 3));
    Reader r(der);
    EXPECT_EQ(util::from_unix(*r.read_time()).year, 1975);
  }
  {
    const Bytes der = time_der(util::make_date(2049, 3, 3));
    Reader r(der);
    EXPECT_EQ(util::from_unix(*r.read_time()).year, 2049);
  }
}

TEST(DerTime, RejectsMalformedTimeStrings) {
  // Hand-build a UTCTime with a bad month.
  const std::string bad = "149913073000Z";  // month 99... wait: YYMMDD
  Bytes der;
  der.push_back(static_cast<std::uint8_t>(Tag::kUtcTime));
  der.push_back(static_cast<std::uint8_t>(bad.size()));
  for (char c : bad) der.push_back(static_cast<std::uint8_t>(c));
  Reader r(der);
  EXPECT_FALSE(r.read_time().has_value());
}

// Property sweep: encode_time/read_time round-trips across eras.
class TimeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TimeRoundTrip, RoundTrips) {
  const util::UnixTime t =
      util::make_date(GetParam(), 5, 17) + 11 * 3600 + 22 * 60 + 33;
  const Bytes der = time_der(t);
  Reader r(der);
  EXPECT_EQ(r.read_time(), t);
}

INSTANTIATE_TEST_SUITE_P(Years, TimeRoundTrip,
                         ::testing::Values(1951, 1970, 1999, 2000, 2012, 2049,
                                           2050, 2100, 3000, 4750, 9999));

// --- context tags --------------------------------------------------------------

TEST(Der, ContextTags) {
  DerWriter w;
  const DerWriter::Mark mark = w.begin(context_constructed(0));
  w.integer(std::int64_t{2});
  w.end(mark);
  const Bytes wrapped = w.take();
  EXPECT_EQ(wrapped[0], 0xa0);
  Reader r(wrapped);
  const auto tlv = r.read_tag(context_constructed(0));
  ASSERT_TRUE(tlv.has_value());
  Reader body(tlv->content);
  EXPECT_EQ(body.read_small_integer(), 2);
}

TEST(Der, StringTypes) {
  const Bytes utf8_der =
      der_of([](DerWriter& w) { w.utf8_string("fritz.box"); });
  Reader utf8(utf8_der);
  EXPECT_EQ(utf8.read_string(), "fritz.box");
  // Parsed certificates carry PrintableString and IA5String too.
  const Bytes printable_der = {0x13, 0x02, 'U', 'S'};
  Reader printable(printable_der);
  EXPECT_EQ(printable.read_string(), "US");
  const Bytes ia5_der = {0x16, 0x05, 'a', '.', 'c', 'o', 'm'};
  Reader ia5(ia5_der);
  EXPECT_EQ(ia5.read_string(), "a.com");
}

TEST(Der, TlvFullCoversHeaderAndContent) {
  const Bytes der =
      der_of([](DerWriter& w) { w.octet_string(Bytes{1, 2, 3}); });
  Reader r(der);
  const auto tlv = r.read_any();
  ASSERT_TRUE(tlv.has_value());
  EXPECT_EQ(tlv->full.size(), der.size());
  EXPECT_EQ(tlv->content.size(), 3u);
}

// --- pretty-printer -------------------------------------------------------------

TEST(Print, TagNames) {
  EXPECT_EQ(tag_name(0x30), "SEQUENCE");
  EXPECT_EQ(tag_name(0x02), "INTEGER");
  EXPECT_EQ(tag_name(0xa0), "[0]");
  EXPECT_EQ(tag_name(0x82), "[2] (primitive)");
  EXPECT_EQ(tag_name(0x7f), "tag 0x7f");
}

TEST(Print, RendersDecodedPrimitives) {
  Bytes children;
  DerWriter w;
  const DerWriter::Mark mark = w.begin(Tag::kSequence);
  w.integer(std::int64_t{12345});
  w.oid(oids::common_name());
  w.utf8_string("fritz.box");
  w.boolean(true);
  w.time(util::make_date(2014, 7, 1));
  w.end(mark);
  const Bytes der = w.take();
  const std::string text = to_text(der);
  EXPECT_NE(text.find("SEQUENCE"), std::string::npos);
  EXPECT_NE(text.find("INTEGER 12345"), std::string::npos);
  EXPECT_NE(text.find("OBJECT IDENTIFIER 2.5.4.3"), std::string::npos);
  EXPECT_NE(text.find("UTF8String \"fritz.box\""), std::string::npos);
  EXPECT_NE(text.find("BOOLEAN TRUE"), std::string::npos);
  EXPECT_NE(text.find("2014-07-01"), std::string::npos);
  // Children are indented under the sequence.
  EXPECT_NE(text.find("\n  INTEGER"), std::string::npos);
}

TEST(Print, MalformedDegradesToHex) {
  const Bytes junk = {0x30, 0x10, 0x02};  // sequence claiming 16 bytes
  const std::string text = to_text(junk);
  EXPECT_NE(text.find("!malformed"), std::string::npos);
}

TEST(Print, DepthGuard) {
  DerWriter w;
  std::vector<DerWriter::Mark> marks;
  for (int i = 0; i < 40; ++i) marks.push_back(w.begin(Tag::kSequence));
  w.null();
  for (auto it = marks.rbegin(); it != marks.rend(); ++it) w.end(*it);
  const Bytes der = w.take();
  PrintOptions options;
  options.max_depth = 5;
  const std::string text = to_text(der, options);
  EXPECT_NE(text.find("(max depth)"), std::string::npos);
}

TEST(Print, LongValuesTruncated) {
  const Bytes der =
      der_of([](DerWriter& w) { w.octet_string(Bytes(100, 0xab)); });
  const std::string text = to_text(der);
  EXPECT_NE(text.find(".."), std::string::npos);
  EXPECT_NE(text.find("(100 bytes)"), std::string::npos);
}

}  // namespace
}  // namespace sm::asn1
