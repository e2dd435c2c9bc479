// Robustness and property tests across modules: hostile-input fuzzing of
// the DER/X.509/PEM parsers, reference-checked bignum division, permutation
// bijectivity sweeps, and linker invariants across random worlds.
#include <gtest/gtest.h>

#include <set>

#include "analysis/dataset.h"
#include "bignum/biguint.h"
#include "crypto/signature.h"
#include "linking/linker.h"
#include "scan/permutation.h"
#include "simworld/world.h"
#include "util/prng.h"
#include "x509/builder.h"
#include "x509/pem.h"

namespace sm {
namespace {

x509::Certificate sample_cert(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto key =
      crypto::generate_keypair(crypto::SigScheme::kSimSha256, rng);
  return x509::CertificateBuilder()
      .set_serial(bignum::BigUint(seed))
      .set_issuer(x509::Name::with_common_name("fuzz ca"))
      .set_subject(x509::Name::with_common_name("fuzz.device.local"))
      .set_validity(util::make_date(2013, 1, 1), util::make_date(2033, 1, 1))
      .set_public_key(key.pub)
      .set_subject_alt_names({{x509::GeneralName::Kind::kDns, "a.b"},
                              {x509::GeneralName::Kind::kIp, "10.0.0.1"}})
      .set_crl_distribution_points({"http://crl.fuzz/x.crl"})
      .set_basic_constraints(false)
      .sign(key);
}

// Exercise every accessor; the point is "no crash / no UB", not values.
void poke_certificate(const x509::Certificate& cert) {
  std::size_t sum = 0;
  sum += cert.subject.common_name().size();
  sum += cert.issuer.to_string().size();
  sum += cert.subject_alt_names().size();
  sum += cert.crl_distribution_points().size();
  sum += cert.authority_info_access().ocsp.size();
  sum += cert.policy_oids().size();
  sum += cert.authority_key_id().has_value() ? 1 : 0;
  sum += cert.subject_key_id().has_value() ? 1 : 0;
  sum += cert.basic_constraints().has_value() ? 1 : 0;
  sum += cert.fingerprint_sha256().size();
  volatile std::size_t sink = sum;
  (void)sink;
}

// --- parser fuzzing ------------------------------------------------------------

TEST(Fuzz, RandomNoiseNeverCrashesParser) {
  util::Rng rng(1);
  for (int round = 0; round < 500; ++round) {
    util::Bytes noise(rng.below(600));
    for (auto& b : noise) b = static_cast<std::uint8_t>(rng.below(256));
    if (const auto cert = x509::parse_certificate(noise)) {
      poke_certificate(*cert);
    }
  }
}

TEST(Fuzz, SingleByteMutationsNeverCrashParser) {
  const x509::Certificate cert = sample_cert(1);
  for (std::size_t position = 0; position < cert.der.size(); ++position) {
    for (const std::uint8_t delta : {0x01, 0x80, 0xff}) {
      util::Bytes mutated = cert.der;
      mutated[position] ^= delta;
      if (const auto parsed = x509::parse_certificate(mutated)) {
        poke_certificate(*parsed);
      }
    }
  }
}

TEST(Fuzz, TruncationsNeverCrashParser) {
  const x509::Certificate cert = sample_cert(2);
  for (std::size_t length = 0; length <= cert.der.size(); ++length) {
    const util::BytesView prefix(cert.der.data(), length);
    if (const auto parsed = x509::parse_certificate(prefix)) {
      // Only the full buffer is a complete certificate.
      EXPECT_EQ(length, cert.der.size());
      poke_certificate(*parsed);
    }
  }
}

TEST(Fuzz, MutatedCertNeverVerifies) {
  // A parseable mutation must never still verify under the original key —
  // the signature must cover every TBS byte.
  const x509::Certificate cert = sample_cert(3);
  util::Rng rng(3);
  int parsed_mutants = 0;
  for (int round = 0; round < 2000; ++round) {
    util::Bytes mutated = cert.der;
    mutated[rng.below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    const auto parsed = x509::parse_certificate(mutated);
    if (!parsed || parsed->der == cert.der) continue;
    ++parsed_mutants;
    if (parsed->tbs_der != cert.tbs_der) {
      EXPECT_FALSE(crypto::verify(cert.spki, parsed->tbs_der,
                                  parsed->signature))
          << "mutation accepted at round " << round;
    }
  }
  EXPECT_GT(parsed_mutants, 0);  // the sweep must actually exercise parses
}

TEST(Fuzz, PemMutationsNeverCrash) {
  const std::string pem = x509::to_pem(sample_cert(4));
  util::Rng rng(4);
  for (int round = 0; round < 500; ++round) {
    std::string mutated = pem;
    mutated[rng.below(mutated.size())] =
        static_cast<char>(rng.below(256));
    auto blocks = x509::pem_decode_all(mutated);
    auto certs = x509::certificates_from_pem(mutated);
    (void)blocks;
    (void)certs;
  }
}

// --- bignum division vs 128-bit reference ------------------------------------------

// The reference is GCC/Clang's 128-bit integer; __extension__ marks its
// use as intended under -Wpedantic.
__extension__ typedef unsigned __int128 Uint128;

class DivmodReference : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DivmodReference, MatchesInt128) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    const Uint128 num = (static_cast<Uint128>(rng()) << 64) | rng();
    std::uint64_t den64 = rng();
    if (rng.chance(0.3)) den64 >>= rng.below(48);  // vary divisor magnitude
    if (den64 == 0) den64 = 1;
    // Build BigUints from the raw words.
    util::Bytes num_bytes(16);
    for (int i = 0; i < 16; ++i) {
      num_bytes[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(num >> (120 - 8 * i));
    }
    const auto big_num = bignum::BigUint::from_bytes(num_bytes);
    const bignum::BigUint big_den(den64);
    const auto [quotient, remainder] =
        bignum::BigUint::divmod(big_num, big_den);
    const Uint128 expected_q = num / den64;
    const Uint128 expected_r = num % den64;
    EXPECT_EQ(quotient.low64(),
              static_cast<std::uint64_t>(expected_q & ~0ULL));
    EXPECT_EQ((quotient >> 64).low64(),
              static_cast<std::uint64_t>(expected_q >> 64));
    EXPECT_EQ(remainder.low64(), static_cast<std::uint64_t>(expected_r));
  }
}

TEST_P(DivmodReference, MultiLimbInvariantHolds) {
  util::Rng rng(GetParam() + 100);
  for (int round = 0; round < 300; ++round) {
    util::Bytes num_bytes(1 + rng.below(96));
    util::Bytes den_bytes(1 + rng.below(48));
    for (auto& b : num_bytes) b = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : den_bytes) b = static_cast<std::uint8_t>(rng.below(256));
    const auto num = bignum::BigUint::from_bytes(num_bytes);
    auto den = bignum::BigUint::from_bytes(den_bytes);
    if (den.is_zero()) den = bignum::BigUint(7);
    const auto [quotient, remainder] = bignum::BigUint::divmod(num, den);
    EXPECT_LT(remainder, den);
    EXPECT_EQ(quotient * den + remainder, num);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DivmodReference, ::testing::Values(1, 2, 3));

// --- permutation sweep ---------------------------------------------------------------

TEST(PermutationSweep, BijectiveOnDenseSubdomain) {
  // Exhaustively check a dense 2^16 block: all outputs distinct, all
  // inverses correct.
  const scan::AddressPermutation perm(0x5eed);
  std::set<std::uint32_t> images;
  for (std::uint32_t x = 0xabcd0000; x < 0xabce0000; ++x) {
    const std::uint32_t y = perm.forward(x);
    EXPECT_TRUE(images.insert(y).second);
    EXPECT_EQ(perm.inverse(y), x);
  }
  EXPECT_EQ(images.size(), 0x10000u);
}

// --- linker invariants across random worlds -----------------------------------------

class LinkerInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinkerInvariants, HoldOnRandomWorld) {
  simworld::WorldConfig config = simworld::WorldConfig::tiny();
  config.seed = GetParam();
  config.device_count = 150;
  config.website_count = 50;
  config.schedule.scale = 0.1;
  const simworld::WorldResult world = simworld::World(config).run();
  const analysis::DatasetIndex index(world.archive, world.routing);
  const linking::Linker linker(index);
  const linking::IterativeResult linked = linker.link_iteratively();

  // Invariant 1: every linked certificate is eligible, and no certificate
  // appears in two groups.
  std::set<scan::CertId> seen;
  std::uint64_t total = 0;
  for (const linking::LinkedGroup& group : linked.groups) {
    EXPECT_GE(group.certs.size(), 2u);
    for (const scan::CertId id : group.certs) {
      EXPECT_TRUE(linker.eligible()[id]);
      EXPECT_TRUE(seen.insert(id).second) << "cert in two groups";
      ++total;
    }
  }
  EXPECT_EQ(total, linked.linked_certs);

  // Invariant 2: every group obeys the lifetime-overlap rule.
  for (const linking::LinkedGroup& group : linked.groups) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
    for (const scan::CertId id : group.certs) {
      spans.emplace_back(index.stats(id).first_scan,
                         index.stats(id).last_scan);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      for (std::size_t j = i + 1; j < spans.size(); ++j) {
        const std::int64_t overlap =
            static_cast<std::int64_t>(
                std::min(spans[i].second, spans[j].second)) -
            static_cast<std::int64_t>(spans[j].first) + 1;
        EXPECT_LE(overlap, 1);
      }
    }
  }

  // Invariant 3: with the paper's configuration, linking on this simulated
  // population is near-perfect precision (the fields that would confuse it
  // are excluded by design).
  const linking::TruthScore truth = linker.score_against_truth(linked);
  EXPECT_GE(truth.precision(), 0.99);
  EXPECT_GT(truth.recall(), 0.15);

  // Invariant 4: the before/after comparison conserves entities.
  const linking::LinkingGain gain = linker.compare_with_original(linked);
  EXPECT_EQ(gain.entities_after,
            gain.eligible_certs - linked.linked_certs + linked.groups.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinkerInvariants,
                         ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace sm
