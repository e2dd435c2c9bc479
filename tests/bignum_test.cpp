// Unit + property tests for sm::bignum — arithmetic identities, division
// invariants, modular algebra, and primality.
#include <gtest/gtest.h>

#include "bignum/biguint.h"
#include "bignum/prime.h"
#include "util/prng.h"

namespace sm::bignum {
namespace {

using util::Rng;

BigUint random_biguint(Rng& rng, std::size_t max_bits) {
  const std::size_t bits = 1 + rng.below(max_bits);
  const std::size_t bytes = (bits + 7) / 8;
  util::Bytes buf(bytes);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.below(256));
  return BigUint::from_bytes(buf);
}

// --- construction / formatting ---------------------------------------------

TEST(BigUint, ZeroProperties) {
  const BigUint zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_FALSE(zero.is_odd());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_EQ(zero.to_hex(), "0");
  EXPECT_EQ(zero.to_bytes(), util::Bytes{0});
  EXPECT_EQ(zero.low64(), 0u);
}

TEST(BigUint, FromUint64) {
  const BigUint v(0x1234567890abcdefULL);
  EXPECT_EQ(v.to_hex(), "1234567890abcdef");
  EXPECT_EQ(v.low64(), 0x1234567890abcdefULL);
  EXPECT_EQ(v.bit_length(), 61u);
}

TEST(BigUint, HexRoundTrip) {
  const std::string hex = "deadbeefcafe0123456789abcdef00ff";
  EXPECT_EQ(BigUint::from_hex(hex).to_hex(), hex);
}

TEST(BigUint, FromHexRejectsGarbage) {
  EXPECT_THROW(BigUint::from_hex("xyz"), std::invalid_argument);
}

TEST(BigUint, BytesRoundTripStripsLeadingZeros) {
  const util::Bytes padded = {0x00, 0x00, 0x12, 0x34};
  const BigUint v = BigUint::from_bytes(padded);
  EXPECT_EQ(v.to_bytes(), (util::Bytes{0x12, 0x34}));
}

// --- comparison ------------------------------------------------------------

TEST(BigUint, Ordering) {
  EXPECT_LT(BigUint(5), BigUint(7));
  EXPECT_GT(BigUint::from_hex("100000000"), BigUint(0xffffffffULL));
  EXPECT_EQ(BigUint(42), BigUint(42));
}

// --- arithmetic --------------------------------------------------------------

TEST(BigUint, AddCarriesAcrossLimbs) {
  const BigUint a = BigUint::from_hex("ffffffffffffffff");
  EXPECT_EQ((a + BigUint(1)).to_hex(), "10000000000000000");
}

TEST(BigUint, SubBorrowsAcrossLimbs) {
  const BigUint a = BigUint::from_hex("10000000000000000");
  EXPECT_EQ((a - BigUint(1)).to_hex(), "ffffffffffffffff");
}

TEST(BigUint, SubUnderflowThrows) {
  EXPECT_THROW(BigUint(1) - BigUint(2), std::underflow_error);
}

TEST(BigUint, MultiplySchoolbook) {
  const BigUint a = BigUint::from_hex("ffffffff");
  EXPECT_EQ((a * a).to_hex(), "fffffffe00000001");
}

TEST(BigUint, DivModSmall) {
  const auto [q, r] = BigUint::divmod(BigUint(100), BigUint(7));
  EXPECT_EQ(q, BigUint(14));
  EXPECT_EQ(r, BigUint(2));
}

TEST(BigUint, DivByZeroThrows) {
  EXPECT_THROW(BigUint::divmod(BigUint(1), BigUint(0)), std::domain_error);
  EXPECT_THROW(BigUint(1) % BigUint(0), std::domain_error);
}

TEST(BigUint, ShiftsInverse) {
  const BigUint v = BigUint::from_hex("123456789abcdef");
  EXPECT_EQ((v << 37) >> 37, v);
  EXPECT_EQ((v >> 200), BigUint(0));
}

// Property sweep: (a+b)-b == a, (a*b)/b == a, a == q*b + r with r < b.
class BigUintAlgebra : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BigUintAlgebra, AdditionSubtractionInverse) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const BigUint a = random_biguint(rng, 256);
    const BigUint b = random_biguint(rng, 256);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_EQ((a + b) - a, b);
  }
}

TEST_P(BigUintAlgebra, MultiplicationDivisionInverse) {
  Rng rng(GetParam() + 1000);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_biguint(rng, 192);
    BigUint b = random_biguint(rng, 96);
    if (b.is_zero()) b = BigUint(3);
    EXPECT_EQ(BigUint::divmod(a * b, b).first, a);
    EXPECT_TRUE(((a * b) % b).is_zero());
  }
}

TEST_P(BigUintAlgebra, DivModInvariant) {
  Rng rng(GetParam() + 2000);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_biguint(rng, 256);
    BigUint b = random_biguint(rng, 128);
    if (b.is_zero()) b = BigUint(5);
    const auto [q, r] = BigUint::divmod(a, b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST_P(BigUintAlgebra, MultiplicationCommutesAndDistributes) {
  Rng rng(GetParam() + 3000);
  for (int i = 0; i < 30; ++i) {
    const BigUint a = random_biguint(rng, 128);
    const BigUint b = random_biguint(rng, 128);
    const BigUint c = random_biguint(rng, 128);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BigUintAlgebra,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- modular arithmetic ------------------------------------------------------

TEST(BigUint, ModPowSmall) {
  // 5^3 mod 13 = 125 mod 13 = 8
  EXPECT_EQ(BigUint::mod_pow(BigUint(5), BigUint(3), BigUint(13)), BigUint(8));
}

TEST(BigUint, ModPowFermat) {
  // Fermat's little theorem: a^(p-1) = 1 mod p for prime p, gcd(a,p)=1.
  const BigUint p(1000003);
  for (std::uint64_t a : {2ULL, 42ULL, 999999ULL}) {
    EXPECT_EQ(BigUint::mod_pow(BigUint(a), p - BigUint(1), p), BigUint(1));
  }
}

TEST(BigUint, ModPowZeroExponent) {
  EXPECT_EQ(BigUint::mod_pow(BigUint(7), BigUint(0), BigUint(13)), BigUint(1));
  EXPECT_EQ(BigUint::mod_pow(BigUint(7), BigUint(5), BigUint(1)), BigUint(0));
}

TEST(BigUint, ModInverse) {
  const auto inv = BigUint::mod_inverse(BigUint(3), BigUint(11));
  ASSERT_TRUE(inv.ok);
  EXPECT_EQ(inv.value, BigUint(4));  // 3*4 = 12 = 1 mod 11
  const auto none = BigUint::mod_inverse(BigUint(6), BigUint(9));
  EXPECT_FALSE(none.ok);
}

TEST(BigUint, ModInverseProperty) {
  Rng rng(77);
  const BigUint m = BigUint::from_hex("fffffffb");  // prime
  for (int i = 0; i < 25; ++i) {
    BigUint a = random_biguint(rng, 64) % m;
    if (a.is_zero()) a = BigUint(2);
    const auto inv = BigUint::mod_inverse(a, m);
    ASSERT_TRUE(inv.ok);
    EXPECT_EQ((a * inv.value) % m, BigUint(1));
  }
}

// --- primality ---------------------------------------------------------------

TEST(Prime, SmallKnownPrimes) {
  Rng rng(1);
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 101ULL, 65537ULL, 1000003ULL}) {
    EXPECT_TRUE(is_probable_prime(BigUint(p), rng)) << p;
  }
}

TEST(Prime, SmallKnownComposites) {
  Rng rng(2);
  for (std::uint64_t c : {1ULL, 4ULL, 100ULL, 65539ULL * 3, 561ULL, 41041ULL}) {
    EXPECT_FALSE(is_probable_prime(BigUint(c), rng)) << c;
  }
}

TEST(Prime, CarmichaelNumbersRejected) {
  Rng rng(3);
  // Classic Fermat pseudoprimes that Miller-Rabin must reject.
  for (std::uint64_t c : {561ULL, 1105ULL, 1729ULL, 2465ULL, 2821ULL, 6601ULL}) {
    EXPECT_FALSE(is_probable_prime(BigUint(c), rng)) << c;
  }
}

TEST(Prime, LargeKnownPrime) {
  Rng rng(4);
  // 2^127 - 1 is a Mersenne prime.
  const BigUint m127 = (BigUint(1) << 127) - BigUint(1);
  EXPECT_TRUE(is_probable_prime(m127, rng));
  // 2^128 - 1 factors (it is 3 * 5 * 17 * ...).
  EXPECT_FALSE(is_probable_prime((BigUint(1) << 128) - BigUint(1), rng));
}

class RandomPrimeBits : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RandomPrimeBits, HasExactBitLengthAndIsPrime) {
  Rng rng(GetParam() * 31 + 7);
  const BigUint p = random_prime(GetParam(), rng);
  EXPECT_EQ(p.bit_length(), GetParam());
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(is_probable_prime(p, rng));
}

INSTANTIATE_TEST_SUITE_P(Bits, RandomPrimeBits,
                         ::testing::Values(16, 24, 32, 48, 64, 96, 128));

TEST(Prime, RandomBelowRespectsBound) {
  Rng rng(5);
  const BigUint bound = BigUint::from_hex("1000000000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(random_below(bound, rng), bound);
  }
}

}  // namespace
}  // namespace sm::bignum
