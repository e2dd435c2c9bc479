// Section 4 of the paper, the data set: scan discrepancies between the
// two campaigns (Figure 1), isolating invalid certificates (§4.2) and their
// growth over the study (Figure 2).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "analysis/discrepancy.h"
#include "analysis/longevity.h"
#include "bench/common.h"
#include "bench/paper.h"
#include "pki/verifier.h"
#include "simworld/world.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"

namespace sm::bench {
namespace {

// Figure 1: the fraction of hosts unique to each campaign's scan, per /8,
// on a day where both campaigns scanned — the dataset-discrepancy /
// blacklisting analysis of §4.1.
void report_fig01() {
  sm::bench::print_banner("Figure 1",
                          "hosts unique to each scan, per /8 network");
  const auto disc =
      sm::analysis::compute_scan_discrepancy(context().world.archive);
  if (!disc) {
    std::puts("no dual-campaign scan pair found");
    return;
  }
  std::printf("compared scans: umich #%zu vs rapid7 #%zu\n",
              disc->umich_scan, disc->rapid7_scan);
  std::printf("umich hosts %llu (%llu unique), rapid7 hosts %llu (%llu unique)\n",
              static_cast<unsigned long long>(disc->umich_total_hosts),
              static_cast<unsigned long long>(disc->umich_only_hosts),
              static_cast<unsigned long long>(disc->rapid7_total_hosts),
              static_cast<unsigned long long>(disc->rapid7_only_hosts));
  std::printf(
      "paper shape: Rapid7 scans ~20%% smaller; missing hosts spread across\n"
      "the IP space, driven by per-campaign BGP-prefix blacklists\n\n");
  sm::util::TextTable table(
      {"/8 network", "umich hosts", "u-unique", "rapid7 hosts", "r-unique"});
  for (const auto& row : disc->per_slash8) {
    table.add_row({std::to_string(row.first_octet) + ".0.0.0/8",
                   std::to_string(row.umich_hosts),
                   num(row.umich_unique_fraction, 3),
                   std::to_string(row.rapid7_hosts),
                   num(row.rapid7_unique_fraction, 3)});
  }
  std::fputs(table.str().c_str(), stdout);

  sm::bench::Comparison cmp;
  cmp.add("rapid7/umich host ratio", "~0.8",
          num(static_cast<double>(disc->rapid7_total_hosts) /
                  static_cast<double>(disc->umich_total_hosts),
              2));
  cmp.print();
}

void BM_ScanDiscrepancy(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto result = sm::analysis::compute_scan_discrepancy(archive);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ScanDiscrepancy);

// §4.2: isolating invalid certificates — the openssl-verify analog. Paper:
// 87.9% of unique certificates are invalid; of those, 88.0% are
// self-signed, 11.99% are signed by an untrusted certificate, and 0.01%
// fail for other reasons. The kernel benchmark times the full verifier on
// freshly built certificates (chain building + self-signature detection).
void report_sec4() {
  sm::bench::print_banner("Section 4.2", "validity breakdown");
  const auto vb =
      sm::analysis::compute_validity_breakdown(context().world.archive);

  sm::bench::Comparison cmp;
  cmp.add("unique certificates (scaled)", "80.4M",
          std::to_string(vb.total_certs));
  cmp.add("invalid fraction", "87.9%",
          sm::util::percent(vb.invalid_fraction()));
  cmp.add("self-signed among invalid", "88.0%",
          sm::util::percent(static_cast<double>(vb.self_signed) /
                            static_cast<double>(vb.invalid_certs)));
  cmp.add("untrusted issuer among invalid", "11.99%",
          sm::util::percent(static_cast<double>(vb.untrusted_issuer) /
                            static_cast<double>(vb.invalid_certs)));
  cmp.add("other reasons among invalid", "0.01%",
          sm::util::percent(static_cast<double>(vb.other_invalid) /
                            static_cast<double>(vb.invalid_certs)));
  cmp.add("illegal-version certs disregarded", "89,667 (scaled)",
          std::to_string(vb.malformed_version));
  cmp.add("transvalid among valid (broken served chains)", "exists [29]",
          std::to_string(vb.transvalid) + " = " +
              sm::util::percent(static_cast<double>(vb.transvalid) /
                                static_cast<double>(vb.valid_certs)));
  cmp.print();
}

// Kernel: verify a self-signed device certificate (the hot path — 88% of
// all certificates take it).
void BM_VerifySelfSigned(benchmark::State& state) {
  sm::util::Rng rng(1);
  const auto key =
      sm::crypto::generate_keypair(sm::crypto::SigScheme::kSimSha256, rng);
  const auto cert =
      sm::x509::CertificateBuilder()
          .set_serial(sm::bignum::BigUint(1))
          .set_issuer(sm::x509::Name::with_common_name("192.168.1.1"))
          .set_subject(sm::x509::Name::with_common_name("192.168.1.1"))
          .set_validity(0, sm::util::make_date(2033, 1, 1))
          .set_public_key(key.pub)
          .sign(key);
  const sm::pki::RootStore roots;
  const sm::pki::IntermediatePool pool;
  const sm::pki::Verifier verifier(roots, pool);
  for (auto _ : state) {
    auto result = verifier.verify(cert);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_VerifySelfSigned);

// Kernel: parse a certificate from DER (the scan-ingest hot path).
void BM_ParseCertificate(benchmark::State& state) {
  sm::util::Rng rng(2);
  const auto key =
      sm::crypto::generate_keypair(sm::crypto::SigScheme::kSimSha256, rng);
  const auto cert =
      sm::x509::CertificateBuilder()
          .set_serial(sm::bignum::BigUint(7))
          .set_issuer(sm::x509::Name::with_common_name("fritz.box"))
          .set_subject(sm::x509::Name::with_common_name("fritz.box"))
          .set_validity(0, sm::util::make_date(2033, 1, 1))
          .set_public_key(key.pub)
          .set_subject_alt_names(
              {{sm::x509::GeneralName::Kind::kDns, "fritz.fonwlan.box"}})
          .sign(key);
  for (auto _ : state) {
    auto parsed = sm::x509::parse_certificate(cert.der);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_ParseCertificate);

void BM_ValidityBreakdown(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto vb = sm::analysis::compute_validity_breakdown(archive);
    benchmark::DoNotOptimize(vb);
  }
}
BENCHMARK(BM_ValidityBreakdown);

// A corpus shaped like the paper's population: mostly self-signed device
// certificates, a slice of CA-issued leaves funneling through a handful of
// intermediates (valid + transvalid), and vendor-CA chains that end
// untrusted. Shared by the batch-verify kernels below.
struct VerifyCorpus {
  sm::pki::RootStore roots;
  sm::pki::IntermediatePool pool;
  std::vector<sm::x509::Certificate> certs;
};

const VerifyCorpus& verify_corpus() {
  static const VerifyCorpus corpus = [] {
    VerifyCorpus c;
    sm::util::Rng rng(3);
    const auto make_key = [&rng] {
      return sm::crypto::generate_keypair(sm::crypto::SigScheme::kSimSha256,
                                          rng);
    };
    const auto ca_cert = [](const sm::x509::Name& subject,
                            const sm::x509::Name& issuer,
                            const sm::crypto::PublicKeyInfo& pub,
                            const sm::crypto::SigningKey& signer,
                            std::uint64_t serial) {
      return sm::x509::CertificateBuilder()
          .set_serial(sm::bignum::BigUint(serial))
          .set_issuer(issuer)
          .set_subject(subject)
          .set_validity(0, sm::util::make_date(2035, 1, 1))
          .set_public_key(pub)
          .set_basic_constraints(true)
          .sign(signer);
    };
    const auto root_key = make_key();
    const auto intermediate_key = make_key();
    const auto vendor_key = make_key();
    const sm::x509::Name root_name =
        sm::x509::Name::with_common_name("Bench Root CA");
    const sm::x509::Name int_name =
        sm::x509::Name::with_common_name("Bench Intermediate CA");
    const sm::x509::Name vendor_name =
        sm::x509::Name::with_common_name("Bench Vendor CA");
    const auto root = ca_cert(root_name, root_name, root_key.pub, root_key, 1);
    const auto intermediate =
        ca_cert(int_name, root_name, intermediate_key.pub, root_key, 2);
    const auto vendor =
        ca_cert(vendor_name, vendor_name, vendor_key.pub, vendor_key, 3);
    c.roots.add(root);
    c.pool.add(intermediate);
    c.pool.add(vendor);

    constexpr std::size_t kCorpus = 8000;
    c.certs.reserve(kCorpus);
    for (std::size_t i = 0; i < kCorpus; ++i) {
      const auto leaf_key = make_key();
      const sm::x509::Name subject = sm::x509::Name::with_common_name(
          "device-" + std::to_string(i) + ".example");
      sm::x509::CertificateBuilder builder;
      builder.set_serial(sm::bignum::BigUint(100 + i))
          .set_subject(subject)
          .set_validity(0, sm::util::make_date(2033, 1, 1))
          .set_public_key(leaf_key.pub);
      if (i % 10 < 7) {  // 70% self-signed
        builder.set_issuer(subject);
        c.certs.push_back(builder.sign(leaf_key));
      } else if (i % 10 < 9) {  // 20% transvalid via the intermediate
        builder.set_issuer(int_name);
        c.certs.push_back(builder.sign(intermediate_key));
      } else {  // 10% vendor-CA chains (untrusted issuer)
        builder.set_issuer(vendor_name);
        c.certs.push_back(builder.sign(vendor_key));
      }
    }
    return c;
  }();
  return corpus;
}

// Baseline: the plain serial verifier over the whole corpus — what the
// simulator did per certificate before BatchVerifier existed.
void BM_VerifyAllSerial(benchmark::State& state) {
  const VerifyCorpus& corpus = verify_corpus();
  const sm::pki::Verifier verifier(corpus.roots, corpus.pool);
  for (auto _ : state) {
    std::size_t valid = 0;
    for (const auto& cert : corpus.certs) {
      valid += verifier.verify(cert).valid ? 1 : 0;
    }
    benchmark::DoNotOptimize(valid);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    corpus.certs.size()));
}
BENCHMARK(BM_VerifyAllSerial)->Unit(benchmark::kMillisecond);

// Kernel: memoized batch verification, swept over thread counts. A fresh
// BatchVerifier per iteration so the memo is cold, as in a real pass.
void BM_BatchVerifyAll(benchmark::State& state) {
  const VerifyCorpus& corpus = verify_corpus();
  sm::util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const sm::pki::BatchVerifier batch(corpus.roots, corpus.pool);
    auto results = batch.verify_all(corpus.certs, &pool);
    benchmark::DoNotOptimize(results.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() *
                                                    corpus.certs.size()));
}
BENCHMARK(BM_BatchVerifyAll)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Kernel: the full world build (topology + PKI + population + every scan),
// swept over thread counts — the `Context()` setup cost every bench and
// tool pays. Smaller than WorldConfig::paper() so the sweep stays fast.
void BM_WorldBuild(benchmark::State& state) {
  sm::simworld::WorldConfig config;
  config.seed = 11;
  config.device_count = 1000;
  config.website_count = 340;
  config.schedule.scale = 0.2;
  sm::util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto world = sm::simworld::World(config, &pool).run();
    benchmark::DoNotOptimize(world.issued_certificates);
  }
}
BENCHMARK(BM_WorldBuild)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Figure 2: the number of invalid and valid certificates per scan over
// time, for both campaigns — invalid counts grow over the study.
void report_fig02() {
  sm::bench::print_banner("Figure 2",
                          "invalid/valid certificates per scan over time");
  const auto series =
      sm::analysis::compute_scan_series(context().world.archive);
  sm::util::TextTable table(
      {"scan date", "campaign", "invalid", "valid", "invalid %"});
  const std::size_t step = std::max<std::size_t>(1, series.size() / 16);
  for (std::size_t i = 0; i < series.size(); i += step) {
    const auto& row = series[i];
    table.add_row({sm::util::format_date(row.date),
                   to_string(row.campaign), std::to_string(row.invalid),
                   std::to_string(row.valid),
                   sm::util::percent(row.invalid_fraction())});
  }
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  // Growth: average invalid count in the first vs last quarter of scans.
  const std::size_t quarter = std::max<std::size_t>(1, series.size() / 4);
  double early = 0, late = 0, min_frac = 1, max_frac = 0, frac_sum = 0;
  for (std::size_t i = 0; i < quarter; ++i) {
    early += static_cast<double>(series[i].invalid);
  }
  for (std::size_t i = series.size() - quarter; i < series.size(); ++i) {
    late += static_cast<double>(series[i].invalid);
  }
  for (const auto& row : series) {
    const double frac = row.invalid_fraction();
    min_frac = std::min(min_frac, frac);
    max_frac = std::max(max_frac, frac);
    frac_sum += frac;
  }
  sm::bench::Comparison cmp;
  cmp.add("invalid count grows over study", "yes",
          late > early ? "yes" : "no");
  cmp.add("late/early invalid-count ratio", "> 1", num(late / early, 2));
  cmp.add("per-scan invalid fraction mean", "65.0%",
          sm::util::percent(frac_sum / static_cast<double>(series.size())));
  cmp.add("per-scan invalid fraction range", "59.6% - 73.7%",
          sm::util::percent(min_frac) + " - " + sm::util::percent(max_frac));
  cmp.print();
}

void BM_ScanSeries(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto series = sm::analysis::compute_scan_series(archive);
    benchmark::DoNotOptimize(series);
  }
}
BENCHMARK(BM_ScanSeries);

}  // namespace

void report_section4() {
  report_fig01();
  report_sec4();
  report_fig02();
}

}  // namespace sm::bench
