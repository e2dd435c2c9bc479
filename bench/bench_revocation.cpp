// Revocation benchmark: the batch-verified revocation pass
// (BatchVerifier::check_revocation_all against a published ecosystem,
// thread sweep) and the notary's kRevocationQuery serving path (singles
// and batches). Prints the paper-world revocation breakdown first, then
// runs google-benchmark timings.
//
// Links sm_alloc_hook so the serving benchmarks report allocs_per_query
// — the revocation render bypasses the response cache and must stay at
// zero on a warm buffer; scripts/bench_check.sh gates that exactly.
#include <benchmark/benchmark.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/revocation.h"
#include "bench/common.h"
#include "bignum/biguint.h"
#include "corpus/corpus_index.h"
#include "netio/frame.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/service.h"
#include "pki/root_store.h"
#include "pki/verifier.h"
#include "revocation/ecosystem.h"
#include "util/alloc_hook.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"

namespace {

using namespace sm;

// ---- synthetic ecosystem for the verifier kernel -------------------------
// The world keeps its verifier stores internal, so the check_revocation_all
// sweep runs against a self-contained ecosystem at paper-ish CA scale.

constexpr std::size_t kAuthorities = 48;
constexpr std::size_t kCertsPerAuthority = 400;
const util::UnixTime kCheckTime = util::make_date(2014, 9, 1);

struct VerifierFixture {
  revocation::Ecosystem eco;
  pki::RootStore roots;
  pki::IntermediatePool intermediates;
  std::vector<pki::RevocationQuery> queries;

  VerifierFixture() : eco(make_config()) {
    for (std::size_t i = 0; i < kAuthorities; ++i) {
      util::Rng rng(9000 + i);
      const crypto::SigningKey key =
          crypto::generate_keypair(crypto::SigScheme::kSimSha256, rng);
      const std::string cn = "Bench CA " + std::to_string(i);
      const x509::Certificate cert =
          x509::CertificateBuilder()
              .set_serial(bignum::BigUint(1))
              .set_issuer(x509::Name::with_common_name(cn))
              .set_subject(x509::Name::with_common_name(cn))
              .set_validity(util::make_date(2010, 1, 1),
                            util::make_date(2035, 1, 1))
              .set_public_key(key.pub)
              .set_basic_constraints(true)
              .sign(key);
      const std::string issuer_key = cert.subject.to_string();
      eco.add_authority(issuer_key, cert, key, /*trusted=*/true);
      if (i % 2 == 0) {
        roots.add(cert);
      } else {
        intermediates.add(cert);
      }
      for (std::size_t j = 0; j < kCertsPerAuthority; ++j) {
        const std::string serial = bignum::BigUint(100 + j).to_hex();
        eco.add_certificate(issuer_key, serial,
                            util::make_date(2014, 1 + (j % 8), 1));
        queries.push_back({issuer_key, serial, j % 5 != 0, j % 3 != 0});
      }
    }
    eco.publish();
  }

  static revocation::EcosystemConfig make_config() {
    revocation::EcosystemConfig config;
    config.seed = 0xbe7c;
    config.check_time = kCheckTime;
    config.mass_event_issuer =
        x509::Name::with_common_name("Bench CA 7").to_string();
    config.mass_event_time = util::make_date(2014, 5, 1);
    return config;
  }
};

const VerifierFixture& fixture() {
  static const VerifierFixture f;
  return f;
}

// ---- notary serving over the shared paper world --------------------------

const simworld::WorldResult& world() { return bench::context().world; }

const notary::NotaryIndex& shared_index() {
  static const notary::NotaryIndex index = [] {
    notary::NotaryIndexOptions options;
    options.revocation_statuses = &world().revocation.statuses;
    return notary::NotaryIndex(bench::context().index.corpus(), options);
  }();
  return index;
}

const std::vector<std::string>& query_payloads() {
  static const std::vector<std::string> payloads = [] {
    std::vector<std::string> out;
    out.reserve(world().archive.certs().size());
    for (const scan::CertRecord& cert : world().archive.certs()) {
      out.emplace_back(reinterpret_cast<const char*>(cert.fingerprint.data()),
                       cert.fingerprint.size());
    }
    return out;
  }();
  return payloads;
}

void report() {
  bench::print_banner(
      "revocation",
      "CRL/OCSP ecosystem: batch-verified status + notary serving");
  const auto& outcome = world().revocation;
  if (outcome.ecosystem == nullptr) {
    std::printf("revocation pass disabled in this world\n\n");
    return;
  }
  const revocation::EcosystemStats stats = outcome.ecosystem->stats();
  std::printf(
      "paper world: %zu authorities, %zu issued serials; revoked %zu "
      "(%zu by the mass event), %zu stale CRLs, %zu unreachable DPs\n",
      stats.authorities, stats.certificates, stats.revoked_intent,
      stats.revoked_mass_event, stats.stale_authorities,
      stats.unreachable_authorities);
  const analysis::RevocationBreakdown breakdown =
      analysis::compute_revocation_breakdown(world().archive,
                                             outcome.statuses);
  std::fputs(analysis::render_revocation_table(breakdown).c_str(), stdout);
  std::printf("\n");
}

// The revocation pass kernel: fetch + parse + verify the served CRL once
// per issuer, then classify every certificate. Thread sweep over the
// synthetic ecosystem (48 CAs x 400 certs), on wall-clock time.
void BM_RevocationCheckAll(benchmark::State& state) {
  const VerifierFixture& f = fixture();
  const pki::BatchVerifier verifier(f.roots, f.intermediates);
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const std::vector<pki::RevocationStatus> statuses =
        verifier.check_revocation_all(f.queries, f.eco, kCheckTime, &pool);
    benchmark::DoNotOptimize(statuses.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.queries.size()));
}
BENCHMARK(BM_RevocationCheckAll)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Single kRevocationQuery serving: a flat-row read plus a two-line render
// into a warm buffer — allocation-free, no cache involved.
void BM_NotaryRevocationQuery(benchmark::State& state) {
  notary::NotaryService service(shared_index());
  const std::size_t n = query_payloads().size();
  std::string out;
  out.reserve(64 << 10);
  std::size_t i = 0;
  const std::uint64_t allocs_before = util::alloc_hook::thread_new_count();
  for (auto _ : state) {
    out.clear();
    service.handle_into(netio::FrameType::kRevocationQuery,
                        query_payloads()[i], out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % n;
  }
  const std::uint64_t allocs =
      util::alloc_hook::thread_new_count() - allocs_before;
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_query"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_NotaryRevocationQuery);

// Batched revocation status for 256 fingerprints per request.
void BM_NotaryRevocationBatch(benchmark::State& state) {
  notary::NotaryService service(shared_index());
  std::vector<scan::CertFingerprint> fps;
  const auto& certs = world().archive.certs();
  for (std::size_t i = 0; i < 256 && i < certs.size(); ++i) {
    fps.push_back(certs[i].fingerprint);
  }
  const std::string request = notary::encode_batch_query(fps);
  std::string out;
  out.reserve(1 << 20);
  for (auto _ : state) {
    out.clear();
    service.handle_into(netio::FrameType::kRevocationQuery, request, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(fps.size()));
}
BENCHMARK(BM_NotaryRevocationBatch);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
