// BatchVerifier must agree with Verifier::verify bit-for-bit over a mixed
// population — valid, self-signed, transvalid, bad-signature,
// malformed-version, never-valid — at any thread count, while its memo
// actually absorbs the repeated CA-level work and counts it the same way
// on every schedule.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "pki/root_store.h"
#include "pki/verifier.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"

namespace sm::pki {
namespace {

using crypto::SigScheme;
using crypto::SigningKey;
using util::Rng;
using x509::Certificate;
using x509::CertificateBuilder;
using x509::Name;

SigningKey make_key(std::uint64_t seed) {
  Rng rng(seed);
  return crypto::generate_keypair(SigScheme::kSimSha256, rng);
}

struct Fixture {
  SigningKey root_key = make_key(1);
  SigningKey intermediate_key = make_key(2);
  SigningKey vendor_key = make_key(3);
  SigningKey stranger_key = make_key(4);
  Certificate root;
  Certificate intermediate;
  Certificate vendor_ca;
  RootStore roots;
  IntermediatePool pool;

  Fixture() {
    const Name root_name = Name::with_common_name("Batch Root CA");
    const Name int_name = Name::with_common_name("Batch Intermediate CA");
    const Name vendor_name = Name::with_common_name("Vendor Device CA");
    root = ca_cert(root_name, root_name, root_key.pub, root_key, 1);
    intermediate = ca_cert(int_name, root_name, intermediate_key.pub,
                           root_key, 2);
    // Untrusted self-signed device CA — chains ending here are
    // untrusted-issuer, exactly the vendor-CA shape the simulator uses.
    vendor_ca = ca_cert(vendor_name, vendor_name, vendor_key.pub,
                        vendor_key, 3);
    roots.add(root);
    pool.add(intermediate);
    pool.add(vendor_ca);
  }

  static Certificate ca_cert(const Name& subject, const Name& issuer,
                             const crypto::PublicKeyInfo& subject_key,
                             const SigningKey& issuer_key,
                             std::uint64_t serial) {
    return CertificateBuilder()
        .set_serial(bignum::BigUint(serial))
        .set_issuer(issuer)
        .set_subject(subject)
        .set_validity(util::make_date(2005, 1, 1),
                      util::make_date(2035, 1, 1))
        .set_public_key(subject_key)
        .set_basic_constraints(true)
        .sign(issuer_key);
  }
};

// A mixed population cycling through every InvalidReason the verifier can
// produce (plus valid and transvalid chains).
std::vector<Certificate> make_population(const Fixture& f, std::size_t count) {
  std::vector<Certificate> certs;
  certs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    SigningKey leaf_key = make_key(100 + i);
    const Name subject =
        Name::with_common_name("device-" + std::to_string(i) + ".example");
    CertificateBuilder builder;
    builder.set_serial(bignum::BigUint(10000 + i))
        .set_subject(subject)
        .set_validity(util::make_date(2014, 1, 1),
                      util::make_date(2024, 1, 1))
        .set_public_key(leaf_key.pub);
    switch (i % 7) {
      case 0:  // transvalid: intermediate-signed, chain completed from pool
      case 6:
        builder.set_issuer(f.intermediate.subject);
        certs.push_back(builder.sign(f.intermediate_key));
        break;
      case 1:  // self-signed (the 88% bucket)
      case 2:
        builder.set_issuer(subject);
        certs.push_back(builder.sign(leaf_key));
        break;
      case 3:  // untrusted issuer via the vendor CA
        builder.set_issuer(f.vendor_ca.subject);
        certs.push_back(builder.sign(f.vendor_key));
        break;
      case 4:  // bad signature: claims the intermediate, signed by stranger
        builder.set_issuer(f.intermediate.subject);
        certs.push_back(builder.sign(f.stranger_key));
        break;
      case 5:  // malformed version
        builder.set_issuer(subject).set_raw_version(12);
        certs.push_back(builder.sign(leaf_key));
        break;
    }
  }
  // One never-valid leaf chained to the intermediate (backwards validity on
  // a CA-signed cert; self-signed backwards certs classify self-signed).
  SigningKey nv_key = make_key(99);
  certs.push_back(CertificateBuilder()
                      .set_serial(bignum::BigUint(424242))
                      .set_subject(Name::with_common_name("never.example"))
                      .set_issuer(f.intermediate.subject)
                      .set_validity(util::make_date(2024, 1, 1),
                                    util::make_date(2014, 1, 1))
                      .set_public_key(nv_key.pub)
                      .sign(f.intermediate_key));
  return certs;
}

TEST(BatchVerifier, MatchesSerialVerifierAtAnyThreadCount) {
  const Fixture f;
  const std::vector<Certificate> certs = make_population(f, 140);

  const Verifier serial(f.roots, f.pool);
  std::vector<ValidationResult> expected;
  expected.reserve(certs.size());
  for (const Certificate& cert : certs) {
    expected.push_back(serial.verify(cert));
  }
  // Sanity: the population really exercises the whole taxonomy.
  bool saw_valid = false, saw_transvalid = false;
  std::set<InvalidReason> reasons;
  for (const ValidationResult& r : expected) {
    saw_valid |= r.valid;
    saw_transvalid |= r.transvalid;
    if (!r.valid) reasons.insert(r.reason);
  }
  EXPECT_TRUE(saw_valid);
  EXPECT_TRUE(saw_transvalid);
  EXPECT_TRUE(reasons.contains(InvalidReason::kSelfSigned));
  EXPECT_TRUE(reasons.contains(InvalidReason::kUntrustedIssuer));
  EXPECT_TRUE(reasons.contains(InvalidReason::kBadSignature));
  EXPECT_TRUE(reasons.contains(InvalidReason::kMalformedVersion));
  EXPECT_TRUE(reasons.contains(InvalidReason::kNeverValid));

  for (const std::size_t threads : {1u, 8u}) {
    util::ThreadPool workers(threads);
    const BatchVerifier batch(f.roots, f.pool);
    const std::vector<ValidationResult> got =
        batch.verify_all(certs, &workers);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expected[i]) << "cert " << i << ", " << threads
                                     << " threads";
    }
    const BatchVerifyStats stats = batch.stats();
    EXPECT_EQ(stats.verified, certs.size());
    // Every transvalid leaf re-walks intermediate->root; the memo must
    // absorb those repeats, so computed checks stay well below one per
    // verification.
    EXPECT_GT(stats.sig_cache_hits, 0u);
    EXPECT_LT(stats.sig_checks, stats.verified + stats.sig_cache_hits);
  }
}

TEST(BatchVerifier, CountersAreTheSameOnEverySchedule) {
  // Workers that miss one memo entry at once both compute it; only the
  // emplace that inserts may count a signature check. An intermediate with
  // a 1 MiB extension makes its memoized checks (its self-signature and
  // the root's signature over it) slow to hash, so every worker's first
  // leaf misses them while another worker is still computing: the race
  // happens on nearly every 4-thread run, and the counters must still
  // equal the 1-thread ones.
  Fixture f;
  const SigningKey big_key = make_key(700);
  const Name big_name = Name::with_common_name("Bulky Intermediate CA");
  const Certificate big =
      CertificateBuilder()
          .set_serial(bignum::BigUint(70))
          .set_issuer(f.root.subject)
          .set_subject(big_name)
          .set_validity(util::make_date(2005, 1, 1),
                        util::make_date(2035, 1, 1))
          .set_public_key(big_key.pub)
          .set_basic_constraints(true)
          .add_raw_extension(x509::Extension{asn1::Oid{{1, 3, 6, 1, 4, 1, 7}},
                                             false,
                                             util::Bytes(1 << 20, 0x5a)})
          .sign(f.root_key);
  f.pool.add(big);
  std::vector<Certificate> leaves;
  for (std::uint64_t i = 0; i < 128; ++i) {
    const SigningKey leaf_key = make_key(800 + i);
    leaves.push_back(
        CertificateBuilder()
            .set_serial(bignum::BigUint(800 + i))
            .set_issuer(big_name)
            .set_subject(Name::with_common_name(
                "bulky-" + std::to_string(i) + ".example"))
            .set_validity(util::make_date(2014, 1, 1),
                          util::make_date(2024, 1, 1))
            .set_public_key(leaf_key.pub)
            .sign(big_key));
  }
  const auto run = [&](std::size_t threads) {
    util::ThreadPool workers(threads);
    const BatchVerifier batch(f.roots, f.pool);
    for (const ValidationResult& r : batch.verify_all(leaves, &workers)) {
      EXPECT_TRUE(r.valid && r.transvalid);
    }
    return batch.stats();
  };
  const BatchVerifyStats serial = run(1);
  for (int repeat = 0; repeat < 20; ++repeat) {
    const BatchVerifyStats parallel = run(4);
    EXPECT_EQ(parallel.verified, serial.verified) << "repeat " << repeat;
    EXPECT_EQ(parallel.sig_checks, serial.sig_checks) << "repeat " << repeat;
    EXPECT_EQ(parallel.sig_cache_hits, serial.sig_cache_hits)
        << "repeat " << repeat;
  }
}

TEST(BatchVerifier, PresentedChainsMatchSerialVerifier) {
  const Fixture f;
  const Verifier serial(f.roots, f.pool);
  const BatchVerifier batch(f.roots, f.pool);
  SigningKey leaf_key = make_key(500);
  const Certificate leaf =
      Fixture::ca_cert(Name::with_common_name("presented.example"),
                       f.intermediate.subject, leaf_key.pub,
                       f.intermediate_key, 9);
  const std::vector<Certificate> presented = {f.intermediate};
  const ValidationResult expected = serial.verify(leaf, presented);
  const ValidationResult got = batch.verify(leaf, presented);
  EXPECT_EQ(got, expected);
  EXPECT_TRUE(got.valid);
  EXPECT_FALSE(got.transvalid);  // chain was presented, not pool-completed
}

TEST(BatchVerifier, MemoDoesNotLeakAcrossDistinctLeaves) {
  // Two leaves with the same subject but different keys: one genuinely
  // self-signed, one signed by the intermediate. Leaf-level checks are
  // unmemoized, so the two must classify independently.
  const Fixture f;
  const BatchVerifier batch(f.roots, f.pool);
  SigningKey key_a = make_key(600);
  SigningKey key_b = make_key(601);
  const Name subject = Name::with_common_name("twin.example");
  const Certificate self_signed =
      Fixture::ca_cert(subject, subject, key_a.pub, key_a, 11);
  const Certificate chained =
      Fixture::ca_cert(subject, f.intermediate.subject, key_b.pub,
                       f.intermediate_key, 12);
  EXPECT_EQ(batch.verify(self_signed).reason, InvalidReason::kSelfSigned);
  EXPECT_TRUE(batch.verify(chained).valid);
  EXPECT_EQ(batch.verify(self_signed).reason, InvalidReason::kSelfSigned);
}

}  // namespace
}  // namespace sm::pki
