// Section 6 of the paper, linking certificates: feature uniqueness (Table
// 5), the worked example (Figure 9), per-field performance (Table 6),
// group sizes (Figure 10) and the gain from linking (§6.4.4), plus the
// linker ablations that simulator ground truth makes possible.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/dataset.h"
#include "bench/common.h"
#include "bench/paper.h"
#include "linking/linker.h"

namespace sm::bench {
namespace {

using sm::analysis::DatasetIndex;
using sm::linking::Feature;
using sm::linking::FieldResult;
using sm::linking::Linker;
using sm::linking::LinkerConfig;
using sm::scan::Campaign;
using sm::scan::CertRecord;
using sm::scan::ScanArchive;
using sm::scan::ScanEvent;

// Table 5: the percentage of linking-eligible invalid certificates whose
// value for each feature is shared with at least one other certificate.
// Paper: Not Before 67.7%, Common Name 67.5%, Not After 61.4%, Public Key
// 47.0%, SAN list 19.6%, Issuer Name + Serial 4.2% — and CRL/AIA/OCSP/OID
// present on under 1% of invalid certificates.
std::string paper_value(Feature feature) {
  switch (feature) {
    case Feature::kNotBefore:
      return "67.7%";
    case Feature::kCommonName:
      return "67.5%";
    case Feature::kNotAfter:
      return "61.4%";
    case Feature::kPublicKey:
      return "47.0%";
    case Feature::kSan:
      return "19.6%";
    case Feature::kIssuerSerial:
      return "4.2%";
    case Feature::kCrl:
      return "present on 0.8%";
    case Feature::kAia:
      return "present on 0.7%";
    case Feature::kOcsp:
      return "present on 0.1%";
    case Feature::kOid:
      return "present on 0.1%";
  }
  return "-";
}

void report_tab5() {
  sm::bench::print_banner("Table 5",
                          "non-uniqueness of invalid-certificate features");
  const auto rows = context().linker.feature_uniqueness();
  const double eligible =
      static_cast<double>(context().linker.eligible_count());

  sm::util::TextTable table(
      {"feature", "applicable", "present %", "non-unique (paper)",
       "non-unique"});
  for (const auto& row : rows) {
    table.add_row({to_string(row.feature), std::to_string(row.applicable),
                   sm::util::percent(static_cast<double>(row.applicable) /
                                     eligible),
                   paper_value(row.feature),
                   sm::util::percent(row.non_unique_fraction())});
  }
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  const auto fraction_of = [&](Feature feature) {
    for (const auto& row : rows) {
      if (row.feature == feature) return row.non_unique_fraction();
    }
    return 0.0;
  };
  cmp.add("IN+SN least non-unique of the big fields", "yes",
          fraction_of(Feature::kIssuerSerial) <
                  fraction_of(Feature::kPublicKey) &&
                  fraction_of(Feature::kIssuerSerial) <
                      fraction_of(Feature::kCommonName)
              ? "yes"
              : "no");
  const auto applicable_of = [&](Feature feature) -> double {
    for (const auto& row : rows) {
      if (row.feature == feature) {
        return static_cast<double>(row.applicable) / eligible;
      }
    }
    return 0.0;
  };
  cmp.add("CRL/AIA/OCSP/OID rarely present", "< 1% each",
          sm::util::percent(applicable_of(Feature::kCrl)) + " / " +
              sm::util::percent(applicable_of(Feature::kAia)) + " / " +
              sm::util::percent(applicable_of(Feature::kOcsp)) + " / " +
              sm::util::percent(applicable_of(Feature::kOid)));
  cmp.print();
}

void BM_FeatureUniqueness(benchmark::State& state) {
  const auto& linker = context().linker;
  for (auto _ : state) {
    auto rows = linker.feature_uniqueness();
    benchmark::DoNotOptimize(rows);
  }
}
BENCHMARK(BM_FeatureUniqueness);

// Figure 9: the paper's worked linking example — three groups of
// certificates sharing public keys PK1, PK2, PK3 across four scans. PK1 and
// PK2 satisfy the one-scan-overlap rule and link; PK3's certificates
// overlap on two scans and are rejected. The §6.4.1 example consistency
// values (IP 0.5, /24 0.75, AS 1.0 for PK2) are reproduced too.
constexpr std::int64_t kDay = sm::util::kSecondsPerDay;

CertRecord example_record(std::uint64_t id, std::uint64_t key) {
  CertRecord rec;
  for (int i = 0; i < 8; ++i) {
    rec.fingerprint[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  rec.key_fingerprint = key;
  rec.subject_cn = "cert-" + std::to_string(id);
  rec.not_before = 0;
  rec.not_after = sm::util::make_date(2033, 1, 1);
  rec.valid = false;
  rec.invalid_reason = sm::pki::InvalidReason::kSelfSigned;
  return rec;
}

struct Example {
  ScanArchive archive;
  sm::net::RoutingHistory routing;

  Example() {
    sm::net::RouteTable table;
    // One AS; two /24s within it so the /24-level metric is interesting.
    table.announce(*sm::net::Prefix::parse("10.0.0.0/16"), 64500);
    routing.add_snapshot(0, table);

    // Certs 1-2 share PK1; 3-5 share PK2; 6-7 share PK3.
    for (std::uint64_t id = 1; id <= 7; ++id) {
      const std::uint64_t key = id <= 2 ? 0xF1 : (id <= 5 ? 0xF2 : 0xF3);
      archive.intern(example_record(id, key));
    }
    const std::size_t s0 = archive.begin_scan(ScanEvent{Campaign::kUMich, 0});
    const std::size_t s1 =
        archive.begin_scan(ScanEvent{Campaign::kUMich, 7 * kDay});
    const std::size_t s2 =
        archive.begin_scan(ScanEvent{Campaign::kUMich, 14 * kDay});
    const std::size_t s3 =
        archive.begin_scan(ScanEvent{Campaign::kUMich, 21 * kDay});
    const auto ip = [](std::uint32_t addr_index) {
      // "IP addr 2" and "IP addr 3" share a /24, as in the example.
      static const std::uint32_t kAddrs[] = {
          0x0a000101, 0x0a000201, 0x0a000202, 0x0a000301, 0x0a000401,
          0x0a000501};
      return kAddrs[addr_index - 1];
    };
    // PK1: cert1 scans 0-1 at addr1; cert2 scans 2-3 (gap in scan 2 for
    // cert1 as in the figure: "not observed in the third scan").
    archive.add_observation(s0, 0, ip(1), 1);
    archive.add_observation(s1, 0, ip(1), 1);
    archive.add_observation(s3, 1, ip(1), 1);
    // PK2: cert3 scans 0-1 at addr2; cert4 scans 1-2 at addr3 (one-scan
    // overlap); cert5 scan 3 at addr4.
    archive.add_observation(s0, 2, ip(2), 2);
    archive.add_observation(s1, 2, ip(2), 2);
    archive.add_observation(s1, 3, ip(3), 2);
    archive.add_observation(s2, 3, ip(3), 2);
    archive.add_observation(s3, 4, ip(4), 2);
    // PK3: cert6 scans 0-2 at addr5; cert7 scans 1-3 at addr6 — two-scan
    // overlap, different devices.
    archive.add_observation(s0, 5, ip(5), 3);
    archive.add_observation(s1, 5, ip(5), 3);
    archive.add_observation(s2, 5, ip(5), 3);
    archive.add_observation(s1, 6, ip(6), 4);
    archive.add_observation(s2, 6, ip(6), 4);
    archive.add_observation(s3, 6, ip(6), 4);
  }
};

void report_fig09() {
  sm::bench::print_banner("Figure 9",
                          "the linking-methodology worked example");
  Example example;
  const DatasetIndex index(example.archive, example.routing);
  const Linker linker(index);
  const FieldResult result =
      linker.link_field(Feature::kPublicKey, linker.eligible());

  sm::bench::Comparison cmp;
  cmp.add("groups linked", "2 (PK1, PK2)",
          std::to_string(result.groups.size()));
  cmp.add("PK3 rejected (two-scan overlap)", "yes",
          result.total_linked == 5 ? "yes" : "no");
  cmp.print();

  for (const auto& group : result.groups) {
    const auto consistency = linker.group_consistency(group);
    std::printf(
        "group of %zu certs (key %s): IP consistency %.2f, /24 %.2f, AS %.2f\n",
        group.certs.size(),
        feature_value(example.archive.cert(group.certs[0]),
                      Feature::kPublicKey)
            .c_str(),
        consistency.ip, consistency.slash24, consistency.as_level);
  }
  std::puts(
      "\npaper's PK2 example: IP-level 0.5, /24-level 0.75, AS-level 1.0");
}

void BM_ExampleLinking(benchmark::State& state) {
  Example example;
  const DatasetIndex index(example.archive, example.routing);
  for (auto _ : state) {
    const Linker linker(index);
    auto result = linker.link_field(Feature::kPublicKey, linker.eligible());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ExampleLinking);

// Table 6: per-field linking performance — certificates linked, uniquely
// linked, and IP-//24-/AS-level consistency. Paper's key shapes: Public Key
// links the most certificates with 98% AS-level but only 41.9% IP-level
// consistency (German-ISP churn); Common Name and SAN behave similarly;
// Not Before / Not After link certificates with consistency too weak to
// use, and together with IN+SN are excluded from the final linker.
struct PaperRow {
  const char* linked;
  const char* ip;
  const char* as_level;
};

PaperRow paper_row(Feature feature) {
  switch (feature) {
    case Feature::kPublicKey:
      return {"23.3M", "41.9%", "98.0%"};
    case Feature::kNotBefore:
      return {"16.3M", "53.5%", "63.0%"};
    case Feature::kCommonName:
      return {"8.6M", "51.1%", "96.6%"};
    case Feature::kNotAfter:
      return {"6.2M", "51.2%", "58.2%"};
    case Feature::kIssuerSerial:
      return {"4.2M", "48.2%", "89.3%"};
    case Feature::kSan:
      return {"2.5M", "52.2%", "97.5%"};
    case Feature::kCrl:
      return {"389K", "85.8%", "95.2%"};
    case Feature::kAia:
      return {"377K", "85.7%", "95.1%"};
    case Feature::kOcsp:
      return {"3.4K", "52.2%", "97.5%"};
    case Feature::kOid:
      return {"593", "83.9%", "92.6%"};
  }
  return {"-", "-", "-"};
}

void report_tab6() {
  sm::bench::print_banner("Table 6", "per-field linking performance");
  const auto results = context().linker.evaluate_all_fields();

  sm::util::TextTable table({"field", "linked (paper)", "linked",
                             "uniq linked", "IP", "/24", "AS",
                             "AS (paper)"});
  for (const auto& result : results) {
    const PaperRow paper = paper_row(result.feature);
    table.add_row({to_string(result.feature), paper.linked,
                   std::to_string(result.total_linked),
                   std::to_string(result.uniquely_linked),
                   sm::util::percent(result.consistency.ip),
                   sm::util::percent(result.consistency.slash24),
                   sm::util::percent(result.consistency.as_level),
                   paper.as_level});
  }
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  const auto find = [&](Feature feature) -> const sm::linking::FieldResult& {
    for (const auto& result : results) {
      if (result.feature == feature) return result;
    }
    throw std::logic_error("missing field");
  };
  sm::bench::Comparison cmp;
  cmp.add("Public Key links the most certs", "yes",
          find(Feature::kPublicKey).total_linked >=
                  find(Feature::kCommonName).total_linked
              ? "yes"
              : "no");
  cmp.add("PK AS-consistency >> IP-consistency (98.0 vs 41.9)", "yes",
          find(Feature::kPublicKey).consistency.as_level >
                  find(Feature::kPublicKey).consistency.ip + 0.2
              ? "yes"
              : "no");
  cmp.add("/24 slightly above IP everywhere", "yes",
          find(Feature::kPublicKey).consistency.slash24 >=
                  find(Feature::kPublicKey).consistency.ip
              ? "yes"
              : "no");
  cmp.add("NB/NA excluded from final linker", "yes", "yes (by construction)");
  cmp.print();
}

void BM_EvaluateAllFields(benchmark::State& state) {
  const auto& linker = context().linker;
  for (auto _ : state) {
    auto results = linker.evaluate_all_fields();
    benchmark::DoNotOptimize(results);
  }
}
BENCHMARK(BM_EvaluateAllFields);

void BM_LinkPublicKeyField(benchmark::State& state) {
  const auto& linker = context().linker;
  for (auto _ : state) {
    auto result =
        linker.link_field(Feature::kPublicKey, linker.eligible());
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_LinkPublicKeyField);

// Figure 10: the CDF of linked-group sizes, overall and per linking field.
// Paper: groups reach 413 certificates; public-key groups are the largest
// population; CRL groups are almost all pairs; SAN groups average larger
// than Common Name groups.
void report_fig10() {
  sm::bench::print_banner("Figure 10", "sizes of linked certificate groups");
  const auto& linked = context().linked;

  std::map<Feature, std::vector<double>> sizes_by_feature;
  std::vector<double> all_sizes;
  for (const auto& group : linked.groups) {
    sizes_by_feature[group.feature].push_back(
        static_cast<double>(group.certs.size()));
    all_sizes.push_back(static_cast<double>(group.certs.size()));
  }

  sm::util::TextTable table(
      {"field", "groups", "mean size", "median", "max", "pairs %"});
  double cn_mean = 0, san_mean = 0;
  for (const auto& [feature, sizes] : sizes_by_feature) {
    const sm::util::EmpiricalCdf cdf(sizes);
    const double pairs = cdf.at(2.0);
    if (feature == Feature::kCommonName) cn_mean = cdf.mean();
    if (feature == Feature::kSan) san_mean = cdf.mean();
    table.add_row({to_string(feature), std::to_string(sizes.size()),
                   num(cdf.mean(), 2), num(cdf.median(), 0),
                   num(cdf.max(), 0), sm::util::percent(pairs)});
  }
  const sm::util::EmpiricalCdf all_cdf(all_sizes);
  table.add_row({"All", std::to_string(all_sizes.size()),
                 num(all_cdf.mean(), 2), num(all_cdf.median(), 0),
                 num(all_cdf.max(), 0), sm::util::percent(all_cdf.at(2.0))});
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  cmp.add("largest group (certs)", "413 (scaled)", num(all_cdf.max(), 0));
  cmp.add("groups larger than 2", "62%",
          sm::util::percent(1.0 - all_cdf.at(2.0)));
  if (san_mean > 0 && cn_mean > 0) {
    cmp.add("SAN mean group size > CN mean (5.10 vs 2.60)", "yes",
            san_mean > cn_mean
                ? "yes (" + num(san_mean, 2) + " vs " + num(cn_mean, 2) + ")"
                : "no (" + num(san_mean, 2) + " vs " + num(cn_mean, 2) + ")");
  }
  cmp.print();

  std::puts("group-size CDF (all fields):");
  sm::bench::print_curve("size", "F(x)", all_cdf.curve(10));
}

void BM_IterativeLinking(benchmark::State& state) {
  const auto& linker = context().linker;
  for (auto _ : state) {
    auto result = linker.link_iteratively();
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_IterativeLinking);

// §6.4.4: how linking changes the view of the certificate population.
// Paper: the single-scan fraction drops from 61% to 50.7%, and the mean
// lifetime grows from 95.4 to 132.3 days, once reissued certificates are
// merged into device entities. We also report the ground-truth
// precision/recall the paper could not compute.
void report_sec644() {
  sm::bench::print_banner("Section 6.4.4",
                          "linked vs original certificate population");
  const auto gain = context().linker.compare_with_original(context().linked);
  const auto truth = context().linker.score_against_truth(context().linked);

  sm::bench::Comparison cmp;
  cmp.add("linking-eligible invalid certs", "69.5M (scaled)",
          std::to_string(gain.eligible_certs));
  cmp.add("certs linked into groups", "27.4M = 39.4%",
          std::to_string(context().linked.linked_certs) + " = " +
              sm::util::percent(
                  static_cast<double>(context().linked.linked_certs) /
                  static_cast<double>(gain.eligible_certs)));
  cmp.add("groups formed", "2.98M (scaled)",
          std::to_string(context().linked.groups.size()));
  cmp.add("single-scan fraction before", "61%",
          sm::util::percent(gain.single_scan_fraction_before));
  cmp.add("single-scan fraction after", "50.7%",
          sm::util::percent(gain.single_scan_fraction_after));
  cmp.add("mean lifetime before (days)", 95.4,
          gain.mean_lifetime_before_days);
  cmp.add("mean lifetime after (days)", 132.3, gain.mean_lifetime_after_days);
  cmp.add("mean lifetime grows", "yes",
          gain.mean_lifetime_after_days > gain.mean_lifetime_before_days
              ? "yes"
              : "no");
  cmp.print();

  std::puts("ground truth (unavailable to the paper):");
  sm::bench::Comparison truth_cmp;
  truth_cmp.add("linking precision (pairwise)", "unknown",
                num(truth.precision(), 4));
  truth_cmp.add("linking recall (pairwise)", "unknown",
                num(truth.recall(), 4));
  truth_cmp.add("pairs linked", "-", std::to_string(truth.linked_pairs));
  truth_cmp.add("true pairs available", "-",
                std::to_string(truth.possible_pairs));
  truth_cmp.print();
}

void BM_CompareWithOriginal(benchmark::State& state) {
  const auto& linker = context().linker;
  const auto& linked = context().linked;
  for (auto _ : state) {
    auto gain = linker.compare_with_original(linked);
    benchmark::DoNotOptimize(gain);
  }
}
BENCHMARK(BM_CompareWithOriginal);

void BM_TruthScoring(benchmark::State& state) {
  const auto& linker = context().linker;
  const auto& linked = context().linked;
  for (auto _ : state) {
    auto truth = linker.score_against_truth(linked);
    benchmark::DoNotOptimize(truth);
  }
}
BENCHMARK(BM_TruthScoring);

// Ablations of the linking methodology's design choices (not in the paper;
// enabled by simulator ground truth):
//  * overlap tolerance 0 / 1 (paper) / 2 scans;
//  * duplicate filter on/off;
//  * IP-CN exclusion on/off;
//  * single-field linkers vs the full iterative pipeline.
// Precision is pairwise against true device identities.
void run_variant(sm::util::TextTable& table, const std::string& name,
                 const LinkerConfig& config) {
  const Linker linker(context().index, config);
  const auto linked = linker.link_iteratively();
  const auto truth = linker.score_against_truth(linked);
  table.add_row(
      {name, std::to_string(linker.eligible_count()),
       std::to_string(linked.linked_certs),
       sm::util::percent(static_cast<double>(linked.linked_certs) /
                         static_cast<double>(linker.eligible_count())),
       num(truth.precision(), 4), num(truth.recall(), 4)});
}

void report_ablation() {
  sm::bench::print_banner("Ablation",
                          "linker design choices scored against ground truth");
  sm::util::TextTable table(
      {"variant", "eligible", "linked", "linked %", "precision", "recall"});

  run_variant(table, "paper defaults", LinkerConfig{});

  LinkerConfig strict;
  strict.max_overlap_scans = 0;
  run_variant(table, "overlap tolerance 0", strict);

  LinkerConfig lax;
  lax.max_overlap_scans = 2;
  run_variant(table, "overlap tolerance 2", lax);

  LinkerConfig no_dup;
  no_dup.dup_ip_threshold = 0xffffffff;
  no_dup.exclude_always_at_threshold = false;
  run_variant(table, "duplicate filter off", no_dup);

  LinkerConfig ip_cns;
  ip_cns.exclude_ip_common_names = false;
  run_variant(table, "IP CNs allowed in CN linking", ip_cns);

  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  std::puts("single-field linkers (paper order context):");
  sm::util::TextTable single(
      {"field", "linked", "precision", "recall"});
  for (const Feature feature :
       {Feature::kPublicKey, Feature::kCommonName, Feature::kSan,
        Feature::kNotBefore, Feature::kIssuerSerial}) {
    const auto linked = context().linker.link_iteratively({feature});
    const auto truth = context().linker.score_against_truth(linked);
    single.add_row({to_string(feature), std::to_string(linked.linked_certs),
                    num(truth.precision(), 4), num(truth.recall(), 4)});
  }
  std::fputs(single.str().c_str(), stdout);
  std::puts(
      "\nshape check: the paper's choices (tolerance 1, duplicate filter on,\n"
      "IP CNs excluded) should dominate the precision/recall frontier; the\n"
      "timestamp fields should show visibly worse precision.");
}

void BM_LinkerConstruction(benchmark::State& state) {
  for (auto _ : state) {
    Linker linker(context().index);
    benchmark::DoNotOptimize(linker);
  }
}
BENCHMARK(BM_LinkerConstruction);

void BM_FullPipeline(benchmark::State& state) {
  for (auto _ : state) {
    Linker linker(context().index);
    auto linked = linker.link_iteratively();
    auto truth = linker.score_against_truth(linked);
    benchmark::DoNotOptimize(truth);
  }
}
BENCHMARK(BM_FullPipeline);

}  // namespace

void report_section6() {
  report_tab5();
  report_fig09();
  report_tab6();
  report_fig10();
  report_sec644();
  report_ablation();
}

}  // namespace sm::bench
