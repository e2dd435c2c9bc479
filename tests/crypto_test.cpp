// Tests for sm::crypto — RSA keygen/sign/verify, the simulated scheme, key
// serialization, and fingerprints.
#include <gtest/gtest.h>

#include "crypto/rsa.h"
#include "crypto/signature.h"
#include "util/prng.h"

namespace sm::crypto {
namespace {

using util::Bytes;
using util::Rng;
using util::to_bytes;

// --- raw RSA ----------------------------------------------------------------

TEST(Rsa, KeypairHasRequestedModulusBits) {
  Rng rng(101);
  const RsaPrivateKey key = generate_rsa_keypair(256, rng);
  EXPECT_EQ(key.pub.n.bit_length(), 256u);
  EXPECT_EQ(key.pub.e, bignum::BigUint(65537));
  EXPECT_EQ(key.p * key.q, key.pub.n);
}

TEST(Rsa, SignVerifyRoundTrip) {
  Rng rng(102);
  const RsaPrivateKey key = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("tbs certificate bytes");
  const Bytes sig = rsa_sign_sha256(key, msg);
  EXPECT_EQ(sig.size(), 64u);
  EXPECT_TRUE(rsa_verify_sha256(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsTamperedMessage) {
  Rng rng(103);
  const RsaPrivateKey key = generate_rsa_keypair(512, rng);
  const Bytes sig = rsa_sign_sha256(key, to_bytes("original"));
  EXPECT_FALSE(rsa_verify_sha256(key.pub, to_bytes("tampered"), sig));
}

TEST(Rsa, VerifyRejectsTamperedSignature) {
  Rng rng(104);
  const RsaPrivateKey key = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha256(key, msg);
  sig[10] ^= 0x01;
  EXPECT_FALSE(rsa_verify_sha256(key.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongKey) {
  Rng rng(105);
  const RsaPrivateKey key1 = generate_rsa_keypair(512, rng);
  const RsaPrivateKey key2 = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("message");
  const Bytes sig = rsa_sign_sha256(key1, msg);
  EXPECT_FALSE(rsa_verify_sha256(key2.pub, msg, sig));
}

TEST(Rsa, VerifyRejectsWrongLengthSignature) {
  Rng rng(106);
  const RsaPrivateKey key = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_sha256(key, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_sha256(key.pub, msg, sig));
}

TEST(Rsa, TooSmallModulusThrowsOnSign) {
  Rng rng(107);
  const RsaPrivateKey key = generate_rsa_keypair(128, rng);
  // 128-bit modulus = 16 bytes < 51-byte PKCS1/SHA-256 minimum.
  EXPECT_THROW(rsa_sign_sha256(key, to_bytes("m")), std::invalid_argument);
}

TEST(Rsa, PublicKeyCodecRoundTrip) {
  Rng rng(108);
  const RsaPrivateKey key = generate_rsa_keypair(256, rng);
  const Bytes encoded = encode_rsa_public_key(key.pub);
  RsaPublicKey decoded;
  ASSERT_TRUE(decode_rsa_public_key(encoded, decoded));
  EXPECT_EQ(decoded, key.pub);
}

TEST(Rsa, PublicKeyCodecRejectsTruncation) {
  Rng rng(109);
  const RsaPrivateKey key = generate_rsa_keypair(256, rng);
  Bytes encoded = encode_rsa_public_key(key.pub);
  encoded.resize(encoded.size() - 3);
  RsaPublicKey decoded;
  EXPECT_FALSE(decode_rsa_public_key(encoded, decoded));
}

TEST(Rsa, DeterministicSignature) {
  Rng rng(110);
  const RsaPrivateKey key = generate_rsa_keypair(512, rng);
  const Bytes msg = to_bytes("same input");
  EXPECT_EQ(rsa_sign_sha256(key, msg), rsa_sign_sha256(key, msg));
}

// --- unified signature interface ---------------------------------------------

class SchemeTest : public ::testing::TestWithParam<SigScheme> {};

TEST_P(SchemeTest, SignVerifyRoundTrip) {
  Rng rng(200);
  const SigningKey key = generate_keypair(GetParam(), rng, 512);
  const Bytes msg = to_bytes("any message");
  const Bytes sig = sign(key, msg);
  EXPECT_TRUE(verify(key.pub, msg, sig));
  EXPECT_FALSE(verify(key.pub, to_bytes("other message"), sig));
}

TEST_P(SchemeTest, CrossKeyVerifyFails) {
  Rng rng(201);
  const SigningKey key1 = generate_keypair(GetParam(), rng, 512);
  const SigningKey key2 = generate_keypair(GetParam(), rng, 512);
  const Bytes msg = to_bytes("message");
  EXPECT_FALSE(verify(key2.pub, msg, sign(key1, msg)));
}

TEST_P(SchemeTest, FingerprintStableAndDistinct) {
  Rng rng(202);
  const SigningKey key1 = generate_keypair(GetParam(), rng, 512);
  const SigningKey key2 = generate_keypair(GetParam(), rng, 512);
  EXPECT_EQ(key1.pub.fingerprint(), key1.pub.fingerprint());
  EXPECT_NE(key1.pub.fingerprint(), key2.pub.fingerprint());
  EXPECT_EQ(key1.pub.fingerprint().size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeTest,
                         ::testing::Values(SigScheme::kRsaSha256,
                                           SigScheme::kSimSha256),
                         [](const auto& info) {
                           return info.param == SigScheme::kRsaSha256
                                      ? std::string("Rsa")
                                      : std::string("Sim");
                         });

TEST(SimScheme, KeypairIsFastAndDeterministicPerSeed) {
  Rng rng1(303), rng2(303);
  const SigningKey a = generate_keypair(SigScheme::kSimSha256, rng1);
  const SigningKey b = generate_keypair(SigScheme::kSimSha256, rng2);
  EXPECT_EQ(a.pub.key, b.pub.key);
  EXPECT_EQ(a.secret, b.secret);
  EXPECT_EQ(a.pub.key.size(), 32u);
}

TEST(SimScheme, SchemesDoNotCrossVerify) {
  Rng rng(304);
  const SigningKey rsa = generate_keypair(SigScheme::kRsaSha256, rng, 512);
  const SigningKey sim = generate_keypair(SigScheme::kSimSha256, rng);
  const Bytes msg = to_bytes("msg");
  EXPECT_FALSE(verify(rsa.pub, msg, sign(sim, msg)));
  EXPECT_FALSE(verify(sim.pub, msg, sign(rsa, msg)));
}

TEST(Verify, MalformedKeyMaterialReturnsFalse) {
  PublicKeyInfo bad;
  bad.scheme = SigScheme::kRsaSha256;
  bad.key = to_bytes("not a key");
  EXPECT_FALSE(verify(bad, to_bytes("m"), to_bytes("sig")));
  bad.scheme = SigScheme::kSimSha256;
  bad.key = to_bytes("short");  // wrong size for sim scheme
  EXPECT_FALSE(verify(bad, to_bytes("m"), to_bytes("sig")));
}

}  // namespace
}  // namespace sm::crypto
