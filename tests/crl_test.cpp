// Tests for X.509 CRLs and revocation: CertificateList build/parse
// round-trips, CrlStore signature gating, verifier integration, and
// KeyUsage named-bit encoding.
#include <gtest/gtest.h>

#include "asn1/der.h"
#include "pki/crl_store.h"
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

TEST(NamedBits, RoundTripAllMasks) {
  for (std::uint32_t bits = 0; bits < (1u << 9); ++bits) {
    const auto der = named_bits_der(bits);
    const auto tlv = asn1::parse_single(der);
    ASSERT_TRUE(tlv.has_value());
    EXPECT_EQ(asn1::decode_named_bit_string(tlv->content), bits) << bits;
  }
}

TEST(NamedBits, DecodeRejectsNonZeroPadding) {
  // 7 unused bits declared but padding bits set.
  const util::Bytes content = {0x07, 0x81};
  EXPECT_FALSE(asn1::decode_named_bit_string(content).has_value());
  EXPECT_FALSE(asn1::decode_named_bit_string({}).has_value());
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
  const auto parsed = cert.key_usage();
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, usage);
  EXPECT_TRUE(parsed->has(x509::KeyUsageBit::kKeyCertSign));
  EXPECT_FALSE(parsed->has(x509::KeyUsageBit::kDigitalSignature));
  EXPECT_EQ(parsed->to_string(), "keyCertSign, cRLSign");
  const auto* raw = cert.find_extension(asn1::oids::key_usage());
  ASSERT_NE(raw, nullptr);
  EXPECT_TRUE(raw->critical);
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
  EXPECT_FALSE(cert.key_usage().has_value());
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
  EXPECT_EQ(crl.revocation_date(bignum::BigUint(7)),
            util::make_date(2014, 4, 1));

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

// --- CrlStore ----------------------------------------------------------------------

TEST(CrlStore, VerifiesSignatureAndIssuer) {
  const auto ca_key = sim_key(6);
  const auto ca = make_ca("Store CA", ca_key);
  const Crl good = CrlBuilder()
                       .set_issuer(ca.subject)
                       .set_this_update(util::make_date(2014, 1, 1))
                       .add_revoked(bignum::BigUint(9), 0)
                       .sign(ca_key);
  pki::CrlStore store;
  EXPECT_TRUE(store.add(good, ca));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.is_revoked(ca.subject, bignum::BigUint(9)));
  EXPECT_FALSE(store.is_revoked(ca.subject, bignum::BigUint(10)));
  EXPECT_FALSE(
      store.is_revoked(Name::with_common_name("Other CA"), bignum::BigUint(9)));

  // A CRL signed by the wrong key is rejected.
  const auto rogue_key = sim_key(7);
  const Crl forged = CrlBuilder()
                         .set_issuer(ca.subject)
                         .set_this_update(util::make_date(2014, 2, 1))
                         .add_revoked(bignum::BigUint(10), 0)
                         .sign(rogue_key);
  EXPECT_FALSE(store.add(forged, ca));
  EXPECT_FALSE(store.is_revoked(ca.subject, bignum::BigUint(10)));

  // A mismatched issuer name is rejected even with a valid signature.
  const Crl misnamed = CrlBuilder()
                           .set_issuer(Name::with_common_name("Not Store CA"))
                           .set_this_update(0)
                           .sign(ca_key);
  EXPECT_FALSE(store.add(misnamed, ca));
}

TEST(CrlStore, KeepsFreshestCrl) {
  const auto ca_key = sim_key(8);
  const auto ca = make_ca("Fresh CA", ca_key);
  const Crl old_crl = CrlBuilder()
                          .set_issuer(ca.subject)
                          .set_this_update(util::make_date(2014, 1, 1))
                          .add_revoked(bignum::BigUint(1), 0)
                          .sign(ca_key);
  const Crl new_crl = CrlBuilder()
                          .set_issuer(ca.subject)
                          .set_this_update(util::make_date(2014, 6, 1))
                          .add_revoked(bignum::BigUint(2), 0)
                          .sign(ca_key);
  pki::CrlStore store;
  EXPECT_TRUE(store.add(new_crl, ca));
  // A well-signed but older edition is not kept — and says so.
  EXPECT_FALSE(store.add(old_crl, ca));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.is_revoked(ca.subject, bignum::BigUint(1)));
  EXPECT_TRUE(store.is_revoked(ca.subject, bignum::BigUint(2)));
}

TEST(CrlStore, RejectsNextUpdateBeforeThisUpdate) {
  const auto ca_key = sim_key(30);
  const auto ca = make_ca("Backwards CA", ca_key);
  // nextUpdate earlier than thisUpdate: a malformed validity window the
  // store refuses even though the signature verifies.
  const Crl backwards = CrlBuilder()
                            .set_issuer(ca.subject)
                            .set_this_update(util::make_date(2014, 6, 1))
                            .set_next_update(util::make_date(2014, 5, 1))
                            .add_revoked(bignum::BigUint(5), 0)
                            .sign(ca_key);
  pki::CrlStore store;
  EXPECT_FALSE(store.add(backwards, ca));
  EXPECT_FALSE(store.add_unverified(backwards));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.is_revoked(ca.subject, bignum::BigUint(5)));

  // The degenerate-but-legal equal-boundary window is accepted.
  const Crl instant = CrlBuilder()
                          .set_issuer(ca.subject)
                          .set_this_update(util::make_date(2014, 6, 1))
                          .set_next_update(util::make_date(2014, 6, 1))
                          .sign(ca_key);
  EXPECT_TRUE(store.add(instant, ca));
  EXPECT_EQ(store.size(), 1u);
}

TEST(CrlStore, StalenessEdges) {
  const auto ca_key = sim_key(31);
  const auto ca = make_ca("Stale CA", ca_key);
  const util::UnixTime next = util::make_date(2014, 7, 1);
  const Crl dated = CrlBuilder()
                        .set_issuer(ca.subject)
                        .set_this_update(util::make_date(2014, 6, 1))
                        .set_next_update(next)
                        .sign(ca_key);
  pki::CrlStore store;
  // No CRL for the issuer: not stale (there is nothing to be stale).
  EXPECT_FALSE(store.is_stale(ca.subject, next + 1));
  ASSERT_TRUE(store.add(dated, ca));
  EXPECT_FALSE(store.is_stale(ca.subject, next - 1));
  EXPECT_FALSE(store.is_stale(ca.subject, next));  // deadline instant: fresh
  EXPECT_TRUE(store.is_stale(ca.subject, next + 1));

  // A replacement edition pushes the deadline out again.
  const Crl fresher = CrlBuilder()
                          .set_issuer(ca.subject)
                          .set_this_update(util::make_date(2014, 7, 15))
                          .set_next_update(util::make_date(2014, 8, 15))
                          .sign(ca_key);
  ASSERT_TRUE(store.add(fresher, ca));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FALSE(store.is_stale(ca.subject, next + 1));
  EXPECT_TRUE(store.is_stale(ca.subject, util::make_date(2014, 9, 1)));

  // Absence of a nextUpdate deadline is not staleness.
  const auto quiet_key = sim_key(32);
  const auto quiet = make_ca("No Deadline CA", quiet_key);
  const Crl open_ended = CrlBuilder()
                             .set_issuer(quiet.subject)
                             .set_this_update(util::make_date(2010, 1, 1))
                             .sign(quiet_key);
  ASSERT_TRUE(store.add(open_ended, quiet));
  EXPECT_FALSE(store.is_stale(quiet.subject, util::make_date(2030, 1, 1)));
}

// --- verifier integration ------------------------------------------------------------

TEST(Revocation, VerifierClassifiesRevokedLeaf) {
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

  pki::RootStore roots;
  roots.add(root);
  const pki::IntermediatePool pool;

  pki::CrlStore crls;
  const Crl crl = CrlBuilder()
                      .set_issuer(root.subject)
                      .set_this_update(util::make_date(2014, 1, 1))
                      .add_revoked(bignum::BigUint(777),
                                   util::make_date(2014, 1, 1))
                      .sign(root_key);
  ASSERT_TRUE(crls.add(crl, root));

  // Without a CRL store: valid.
  const pki::Verifier plain(roots, pool);
  EXPECT_TRUE(plain.verify(leaf).valid);

  // With the store: revoked.
  pki::VerifyOptions options;
  options.crl_store = &crls;
  const pki::Verifier checking(roots, pool, options);
  const auto result = checking.verify(leaf);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.reason, pki::InvalidReason::kRevoked);
  EXPECT_EQ(to_string(result.reason), "revoked");

  // A sibling with a different serial still validates.
  const auto other = CertificateBuilder()
                         .set_serial(bignum::BigUint(778))
                         .set_issuer(root.subject)
                         .set_subject(Name::with_common_name("fine.example"))
                         .set_validity(util::make_date(2013, 1, 1),
                                       util::make_date(2015, 1, 1))
                         .set_public_key(leaf_key.pub)
                         .sign(root_key);
  EXPECT_TRUE(checking.verify(other).valid);
}

}  // namespace
}  // namespace sm
