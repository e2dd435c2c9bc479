// Tests for X.509 CRLs and revocation: CertificateList build/parse
// round-trips, the revocation pass's CRL rules (signature gating, validity
// windows, staleness), and KeyUsage named-bit encoding.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>

#include "asn1/der.h"
#include "pki/verifier.h"
#include "util/prng.h"
#include "x509/builder.h"
#include "x509/crl.h"

namespace sm {
namespace {

using crypto::SigScheme;
using x509::CertificateBuilder;
using x509::Crl;
using x509::CrlBuilder;
using x509::Name;

crypto::SigningKey sim_key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::generate_keypair(SigScheme::kSimSha256, rng);
}

x509::Certificate make_ca(const std::string& cn,
                          const crypto::SigningKey& key) {
  return CertificateBuilder()
      .set_serial(bignum::BigUint(1))
      .set_issuer(Name::with_common_name(cn))
      .set_subject(Name::with_common_name(cn))
      .set_validity(util::make_date(2010, 1, 1), util::make_date(2035, 1, 1))
      .set_public_key(key.pub)
      .set_basic_constraints(true)
      .sign(key);
}

// --- named-bit BIT STRING ------------------------------------------------------

// The KeyUsage-shaped (9 named bits) BIT STRING for `bits`.
util::Bytes named_bits_der(std::uint32_t bits) {
  asn1::DerWriter w;
  w.named_bit_string(bits, 9);
  return w.take();
}

TEST(NamedBits, KnownEncodings) {
  // keyCertSign|cRLSign = bits 5,6 -> one octet 0000'0110 -> 0x06, 1 unused.
  const auto der = named_bits_der(0b1100000);
  ASSERT_EQ(der.size(), 4u);
  EXPECT_EQ(der[0], 0x03);  // BIT STRING
  EXPECT_EQ(der[2], 1);     // unused bits
  EXPECT_EQ(der[3], 0x06);
  // digitalSignature alone = bit 0 -> 0x80, 7 unused.
  const auto ds = named_bits_der(0b1);
  EXPECT_EQ(ds[2], 7);
  EXPECT_EQ(ds[3], 0x80);
  // decipherOnly = bit 8 -> two octets, 7 unused.
  const auto dec = named_bits_der(1u << 8);
  EXPECT_EQ(dec[2], 7);
  EXPECT_EQ(dec[3], 0x00);
  EXPECT_EQ(dec[4], 0x80);
}

TEST(NamedBits, EncodesEveryMaskMinimally) {
  // X.690 11.2.2: trailing zero bits are dropped, so the content is the
  // unused-bit count and just enough octets for the highest set bit, with
  // named bit i at octet i / 8, most significant bit first.
  for (std::uint32_t bits = 0; bits < (1u << 9); ++bits) {
    const auto der = named_bits_der(bits);
    const auto tlv = asn1::parse_single(der);
    ASSERT_TRUE(tlv.has_value());
    const unsigned used = bits == 0 ? 0 : 32 - __builtin_clz(bits);
    util::Bytes expected = {static_cast<std::uint8_t>((8 - used % 8) % 8)};
    expected.resize(1 + (used + 7) / 8, 0);
    for (unsigned i = 0; i < used; ++i) {
      if ((bits >> i) & 1) expected[1 + i / 8] |= 0x80 >> (i % 8);
    }
    EXPECT_EQ(util::Bytes(tlv->content.begin(), tlv->content.end()), expected)
        << bits;
  }
}

// --- KeyUsage on certificates -----------------------------------------------------

TEST(KeyUsage, BuilderRoundTrip) {
  const auto key = sim_key(1);
  x509::KeyUsage usage;
  usage.set(x509::KeyUsageBit::kKeyCertSign)
      .set(x509::KeyUsageBit::kCrlSign);
  const auto cert = CertificateBuilder()
                        .set_serial(bignum::BigUint(2))
                        .set_issuer(Name::with_common_name("ku"))
                        .set_subject(Name::with_common_name("ku"))
                        .set_validity(0, 1)
                        .set_public_key(key.pub)
                        .set_key_usage(usage)
                        .sign(key);
  EXPECT_TRUE(usage.has(x509::KeyUsageBit::kKeyCertSign));
  EXPECT_FALSE(usage.has(x509::KeyUsageBit::kDigitalSignature));
  // The parsed certificate carries the critical extension with the
  // named-bit encoding of the mask: bits 5 and 6, one unused bit.
  const auto* raw = cert.find_extension(asn1::oids::key_usage());
  ASSERT_NE(raw, nullptr);
  EXPECT_TRUE(raw->critical);
  EXPECT_EQ(raw->value, named_bits_der(usage.bits));
  EXPECT_EQ(raw->value, (util::Bytes{0x03, 0x02, 0x01, 0x06}));
}

TEST(KeyUsage, AbsentWhenNotSet) {
  const auto key = sim_key(2);
  const auto cert = CertificateBuilder()
                        .set_serial(bignum::BigUint(3))
                        .set_issuer(Name::with_common_name("x"))
                        .set_subject(Name::with_common_name("x"))
                        .set_validity(0, 1)
                        .set_public_key(key.pub)
                        .sign(key);
  EXPECT_EQ(cert.find_extension(asn1::oids::key_usage()), nullptr);
}

// --- CRL build/parse ---------------------------------------------------------------

TEST(CrlRoundTrip, BuildParseQuery) {
  const auto ca_key = sim_key(3);
  const Crl crl = CrlBuilder()
                      .set_issuer(Name::with_common_name("Revoking CA"))
                      .set_this_update(util::make_date(2014, 6, 1))
                      .set_next_update(util::make_date(2014, 7, 1))
                      .add_revoked(bignum::BigUint(42),
                                   util::make_date(2014, 5, 20))
                      .add_revoked(bignum::BigUint(7),
                                   util::make_date(2014, 4, 1))
                      .add_revoked(bignum::BigUint(42),
                                   util::make_date(2014, 5, 20))  // dup
                      .sign(ca_key);
  EXPECT_EQ(crl.issuer.common_name(), "Revoking CA");
  EXPECT_EQ(crl.this_update, util::make_date(2014, 6, 1));
  EXPECT_EQ(crl.next_update, util::make_date(2014, 7, 1));
  ASSERT_EQ(crl.revoked.size(), 2u);  // deduplicated
  EXPECT_TRUE(crl.is_revoked(bignum::BigUint(42)));
  EXPECT_TRUE(crl.is_revoked(bignum::BigUint(7)));
  EXPECT_FALSE(crl.is_revoked(bignum::BigUint(43)));
  // Sorted by serial, each with its revocation date.
  EXPECT_EQ(crl.revoked[0], (x509::RevokedEntry{bignum::BigUint(7),
                                                util::make_date(2014, 4, 1)}));
  EXPECT_EQ(crl.revoked[1], (x509::RevokedEntry{bignum::BigUint(42),
                                                util::make_date(2014, 5, 20)}));

  // Independent parse agrees.
  const auto reparsed = x509::parse_crl(crl.der);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->revoked, crl.revoked);
  EXPECT_EQ(reparsed->signature, crl.signature);
}

TEST(CrlRoundTrip, EmptyCrl) {
  const auto ca_key = sim_key(4);
  const Crl crl = CrlBuilder()
                      .set_issuer(Name::with_common_name("Quiet CA"))
                      .set_this_update(util::make_date(2014, 1, 1))
                      .sign(ca_key);
  EXPECT_TRUE(crl.revoked.empty());
  EXPECT_FALSE(crl.next_update.has_value());
  EXPECT_FALSE(crl.is_revoked(bignum::BigUint(1)));
}

TEST(CrlRoundTrip, ParserRejectsGarbage) {
  EXPECT_FALSE(x509::parse_crl(util::to_bytes("nope")).has_value());
  const auto ca_key = sim_key(5);
  Crl crl = CrlBuilder()
                .set_issuer(Name::with_common_name("T"))
                .set_this_update(0)
                .sign(ca_key);
  util::Bytes truncated = crl.der;
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(x509::parse_crl(truncated).has_value());
}

// --- the revocation pass's CRL rules ----------------------------------------------

// Serves a fixed CRL per issuer key; no OCSP responder answers.
class FixedCrls final : public pki::RevocationSource {
 public:
  void publish(const x509::Certificate& ca, const Crl& crl) {
    der_[ca.subject.to_string()] = crl.der;
  }

  bool fetch_crl(std::string_view issuer_key,
                 util::Bytes& der) const override {
    const auto it = der_.find(std::string(issuer_key));
    if (it == der_.end()) return false;
    der.insert(der.end(), it->second.begin(), it->second.end());
    return true;
  }

  OcspAnswer ocsp(std::string_view, std::string_view) const override {
    return OcspAnswer::kUnreachable;
  }

 private:
  std::map<std::string, util::Bytes> der_;
};

// The CRL-only revocation status of `serial` under `ca`, the one trusted
// root, at `now`.
pki::RevocationStatus crl_status(const FixedCrls& source,
                                 const x509::Certificate& ca,
                                 std::uint64_t serial, util::UnixTime now) {
  pki::RootStore roots;
  roots.add(ca);
  const pki::IntermediatePool pool;
  const pki::BatchVerifier verifier(roots, pool);
  const pki::RevocationQuery query{ca.subject.to_string(),
                                   bignum::BigUint(serial).to_hex(),
                                   /*has_crl=*/true, /*has_ocsp=*/false};
  return verifier.check_revocation_all({&query, 1}, source, now)[0];
}

TEST(CrlRevocation, VerifiesSignatureAndIssuer) {
  using pki::RevocationStatus;
  const auto ca_key = sim_key(6);
  const auto ca = make_ca("Store CA", ca_key);
  const util::UnixTime now = util::make_date(2014, 3, 1);
  FixedCrls source;
  EXPECT_EQ(crl_status(source, ca, 9, now), RevocationStatus::kUnreachable);

  source.publish(ca, CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(util::make_date(2014, 1, 1))
                         .add_revoked(bignum::BigUint(9), 0)
                         .sign(ca_key));
  EXPECT_EQ(crl_status(source, ca, 9, now), RevocationStatus::kRevoked);
  EXPECT_EQ(crl_status(source, ca, 10, now), RevocationStatus::kGood);

  // A CRL signed by the wrong key proves nothing either way.
  const auto rogue_key = sim_key(7);
  source.publish(ca, CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(util::make_date(2014, 2, 1))
                         .add_revoked(bignum::BigUint(10), 0)
                         .sign(rogue_key));
  EXPECT_EQ(crl_status(source, ca, 10, now), RevocationStatus::kUnknown);
  EXPECT_EQ(crl_status(source, ca, 11, now), RevocationStatus::kUnknown);

  // Nor does one naming another issuer, even with a valid signature.
  source.publish(ca, CrlBuilder()
                         .set_issuer(Name::with_common_name("Not Store CA"))
                         .set_this_update(0)
                         .sign(ca_key));
  EXPECT_EQ(crl_status(source, ca, 10, now), RevocationStatus::kUnknown);
}

TEST(CrlRevocation, RejectsNextUpdateBeforeThisUpdate) {
  using pki::RevocationStatus;
  const auto ca_key = sim_key(30);
  const auto ca = make_ca("Backwards CA", ca_key);
  const util::UnixTime this_update = util::make_date(2014, 6, 1);
  // nextUpdate earlier than thisUpdate: a malformed validity window that
  // answers nothing even though the signature verifies.
  FixedCrls source;
  source.publish(ca, CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(this_update)
                         .set_next_update(util::make_date(2014, 5, 1))
                         .add_revoked(bignum::BigUint(5), 0)
                         .sign(ca_key));
  EXPECT_EQ(crl_status(source, ca, 5, this_update), RevocationStatus::kUnknown);

  // The degenerate-but-legal equal-boundary window is accepted.
  source.publish(ca, CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(this_update)
                         .set_next_update(this_update)
                         .add_revoked(bignum::BigUint(5), 0)
                         .sign(ca_key));
  EXPECT_EQ(crl_status(source, ca, 5, this_update), RevocationStatus::kRevoked);
  EXPECT_EQ(crl_status(source, ca, 6, this_update), RevocationStatus::kGood);
}

TEST(CrlRevocation, StalenessEdges) {
  using pki::RevocationStatus;
  const auto ca_key = sim_key(31);
  const auto ca = make_ca("Stale CA", ca_key);
  const util::UnixTime next = util::make_date(2014, 7, 1);
  FixedCrls source;
  source.publish(ca, CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(util::make_date(2014, 6, 1))
                         .set_next_update(next)
                         .add_revoked(bignum::BigUint(3), 0)
                         .sign(ca_key));
  EXPECT_EQ(crl_status(source, ca, 4, next - 1), RevocationStatus::kGood);
  // The deadline instant is still fresh.
  EXPECT_EQ(crl_status(source, ca, 4, next), RevocationStatus::kGood);
  EXPECT_EQ(crl_status(source, ca, 4, next + 1), RevocationStatus::kStaleCrl);
  // A revoked entry outranks staleness.
  EXPECT_EQ(crl_status(source, ca, 3, next + 1), RevocationStatus::kRevoked);

  // Absence of a nextUpdate deadline is not staleness.
  const auto quiet_key = sim_key(32);
  const auto quiet = make_ca("No Deadline CA", quiet_key);
  source.publish(quiet, CrlBuilder()
                            .set_issuer(quiet.subject)
                            .set_this_update(util::make_date(2010, 1, 1))
                            .sign(quiet_key));
  EXPECT_EQ(crl_status(source, quiet, 4, util::make_date(2030, 1, 1)),
            RevocationStatus::kGood);
}

TEST(CrlRevocation, RevokedLeafStaysChainValid) {
  // Revocation is its own answer: the chain walk never reads a CRL, so a
  // revoked leaf still verifies, and the revocation pass calls it revoked.
  const auto root_key = sim_key(9);
  const auto root = make_ca("Rev Root", root_key);
  const auto leaf_key = sim_key(10);
  const auto leaf = CertificateBuilder()
                        .set_serial(bignum::BigUint(777))
                        .set_issuer(root.subject)
                        .set_subject(Name::with_common_name("revoked.example"))
                        .set_validity(util::make_date(2013, 1, 1),
                                      util::make_date(2015, 1, 1))
                        .set_public_key(leaf_key.pub)
                        .sign(root_key);
  FixedCrls source;
  source.publish(root, CrlBuilder()
                           .set_issuer(root.subject)
                           .set_this_update(util::make_date(2014, 1, 1))
                           .add_revoked(bignum::BigUint(777),
                                        util::make_date(2014, 1, 1))
                           .sign(root_key));

  pki::RootStore roots;
  roots.add(root);
  const pki::IntermediatePool pool;
  EXPECT_TRUE(pki::Verifier(roots, pool).verify(leaf).valid);
  const util::UnixTime now = util::make_date(2014, 2, 1);
  EXPECT_EQ(crl_status(source, root, 777, now),
            pki::RevocationStatus::kRevoked);
  EXPECT_EQ(crl_status(source, root, 778, now), pki::RevocationStatus::kGood);
}

}  // namespace
}  // namespace sm
