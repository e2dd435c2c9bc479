// Section 5 of the paper, characterizing invalid certificates: validity
// periods and lifetimes (Figures 3-5), issuers and keys (Table 1, Figure
// 6), hosting (Figures 7-8, Tables 2-3) and device types (Table 4).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/diversity.h"
#include "analysis/longevity.h"
#include "bench/common.h"
#include "bench/paper.h"

namespace sm::bench {
namespace {

// Figure 3: the CDF of validity periods for valid vs invalid certificates.
// Paper: valid median 1.1y / p90 3.1y; invalid median 20y / p90 25y, 5.38%
// negative, tail beyond a million days.
void report_fig03() {
  sm::bench::print_banner("Figure 3", "CDF of certificate validity periods");
  const auto vp =
      sm::analysis::compute_validity_periods(context().world.archive);

  sm::bench::Comparison cmp;
  cmp.add("valid median (years)", 1.1, vp.valid_days.median() / 365.0);
  cmp.add("valid p90 (years)", 3.1, vp.valid_days.percentile(0.9) / 365.0);
  cmp.add("invalid median (years)", 20.0, vp.invalid_days.median() / 365.0);
  cmp.add("invalid p90 (years)", 25.0,
          vp.invalid_days.percentile(0.9) / 365.0);
  cmp.add("invalid negative-period fraction", "5.38%",
          sm::util::percent(vp.invalid_negative_fraction));
  cmp.add("invalid tail beyond 300k days", "exists (1M+ days)",
          vp.invalid_days.max() > 300000 ? "exists (" +
              num(vp.invalid_days.max(), 0) + " days)" : "absent");
  cmp.print();

  std::puts("invalid validity-period CDF (days):");
  sm::bench::print_curve("days", "F(x)", vp.invalid_days.curve(10));
  std::puts("valid validity-period CDF (days):");
  sm::bench::print_curve("days", "F(x)", vp.valid_days.curve(10));
}

void BM_ValidityPeriods(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto vp = sm::analysis::compute_validity_periods(archive);
    benchmark::DoNotOptimize(vp);
  }
}
BENCHMARK(BM_ValidityPeriods);

// Figure 4: the CDF of certificate lifetimes (first to last scan observed).
// Paper: valid median 274 days; invalid median one day — ~60% of invalid
// certificates appear in a single scan.
void report_fig04() {
  sm::bench::print_banner("Figure 4", "CDF of certificate lifetimes");
  const auto lifetimes = sm::analysis::compute_lifetimes(context().index);

  sm::bench::Comparison cmp;
  cmp.add("valid median lifetime (days)", 274.0,
          lifetimes.valid_days.median(), 0);
  cmp.add("invalid median lifetime (days)", 1.0,
          lifetimes.invalid_days.median(), 0);
  cmp.add("invalid single-scan fraction", "~60%",
          sm::util::percent(lifetimes.invalid_single_scan_fraction));
  cmp.print();

  std::puts("invalid lifetime CDF (days):");
  sm::bench::print_curve("days", "F(x)", lifetimes.invalid_days.curve(10));
  std::puts("valid lifetime CDF (days):");
  sm::bench::print_curve("days", "F(x)", lifetimes.valid_days.curve(10));
}

void BM_Lifetimes(benchmark::State& state) {
  for (auto _ : state) {
    auto lifetimes = sm::analysis::compute_lifetimes(context().index);
    benchmark::DoNotOptimize(lifetimes);
  }
}
BENCHMARK(BM_Lifetimes);

void BM_DatasetIndexBuild(benchmark::State& state) {
  const auto& world = context().world;
  for (auto _ : state) {
    sm::analysis::DatasetIndex index(world.archive, world.routing);
    benchmark::DoNotOptimize(index);
  }
}
BENCHMARK(BM_DatasetIndexBuild);

// Figure 5: for ephemeral invalid certificates (seen in exactly one scan),
// the difference between the first-advertised date and the NotBefore date.
// Paper: bimodal — ~70% under four days (fresh reissues), ~20% over 1000
// days (stuck factory clocks); 30% same-day; 2.9% negative.
void report_fig05() {
  sm::bench::print_banner(
      "Figure 5", "first-advertised minus NotBefore, ephemeral invalid certs");
  const auto deltas = sm::analysis::compute_notbefore_deltas(context().index);

  sm::bench::Comparison cmp;
  cmp.add("same-day fraction", "~30%",
          sm::util::percent(deltas.same_day_fraction));
  cmp.add("under 4 days", "~70%",
          sm::util::percent(deltas.under_four_days_fraction));
  cmp.add("over 1000 days (stuck clocks)", "~20%",
          sm::util::percent(deltas.over_thousand_days_fraction));
  cmp.add("negative (clock ahead)", "2.9%",
          sm::util::percent(deltas.negative_fraction));
  cmp.print();

  std::puts("delta CDF (days, non-negative part):");
  sm::bench::print_curve("days", "F(x)", deltas.positive_days.curve(12));
}

void BM_NotBeforeDeltas(benchmark::State& state) {
  for (auto _ : state) {
    auto deltas = sm::analysis::compute_notbefore_deltas(context().index);
    benchmark::DoNotOptimize(deltas);
  }
}
BENCHMARK(BM_NotBeforeDeltas);

// Table 1: the top five issuers of valid and invalid certificates, plus
// §5.3's signing-key diversity. Paper: valid issuers are the familiar CAs
// (Go Daddy, RapidSSL, ...); invalid issuers are device vendors
// (www.lancom-systems.de), private IPs (192.168.1.1), and the empty string.
void report_tab1() {
  sm::bench::print_banner("Table 1", "top issuers of valid/invalid certs");
  const auto id =
      sm::analysis::compute_issuer_diversity(context().world.archive);

  std::puts("top issuers of valid certificates:");
  sm::util::TextTable valid_table({"issuer", "certs"});
  for (const auto& row : id.top_valid) {
    valid_table.add_row({row.issuer, std::to_string(row.certs)});
  }
  std::fputs(valid_table.str().c_str(), stdout);

  std::puts("\ntop issuers of invalid certificates:");
  sm::util::TextTable invalid_table({"issuer", "certs"});
  for (const auto& row : id.top_invalid) {
    invalid_table.add_row({row.issuer, std::to_string(row.certs)});
  }
  std::fputs(invalid_table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  cmp.add("top invalid issuer", "www.lancom-systems.de",
          id.top_invalid.empty() ? "n/a" : id.top_invalid[0].issuer);
  bool has_empty = false, has_private_ip = false;
  for (const auto& row : id.top_invalid) {
    if (row.issuer == "(Empty string)") has_empty = true;
    if (row.issuer.rfind("192.168.", 0) == 0) has_private_ip = true;
  }
  cmp.add("empty-string issuer in top 5", "yes", has_empty ? "yes" : "no");
  cmp.add("192.168.x issuer in top 5", "yes", has_private_ip ? "yes" : "no");
  cmp.add("signing keys spanning half of valid certs", "5",
          std::to_string(id.valid_keys_for_half));
  cmp.add("distinct valid parent keys", "1,477 (scaled)",
          std::to_string(id.valid_parent_keys));
  cmp.add("distinct invalid parent keys (AKI-bearing)", "1.7M (scaled)",
          std::to_string(id.invalid_parent_keys));
  cmp.add("top-5 parent keys' share of AKI-bearing invalid", "37%",
          sm::util::percent(id.invalid_top5_key_share));
  cmp.add("invalid certs issued by private-IP names",
          "3.35M of 70.6M = 4.7%",
          sm::util::percent(id.invalid_private_ip_issuer_fraction));
  cmp.print();
}

void BM_IssuerDiversity(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto id = sm::analysis::compute_issuer_diversity(archive);
    benchmark::DoNotOptimize(id);
  }
}
BENCHMARK(BM_IssuerDiversity);

// Figure 6: the fraction of public keys needed to cover a fraction of
// certificates. Paper: invalid certificates share keys far more than valid
// ones — over 47% of invalid certs share a key; one Lancom key alone spans
// 6.5% of all invalid certificates.
void report_fig06() {
  sm::bench::print_banner("Figure 6",
                          "fraction of public keys covering certificates");
  const auto kd =
      sm::analysis::compute_key_diversity(context().world.archive);

  sm::bench::Comparison cmp;
  cmp.add("invalid certs sharing a key", "> 47%",
          sm::util::percent(kd.invalid_shared_fraction));
  cmp.add("valid certs sharing a key (reissue reuse)", "lower than invalid",
          sm::util::percent(kd.valid_shared_fraction));
  cmp.add("top shared key's share of invalid (Lancom)", "6.5%",
          sm::util::percent(kd.top_invalid_key_share));
  cmp.add("top shared key cert count", "4,586,469 (scaled)",
          std::to_string(kd.top_invalid_key_certs));
  cmp.print();

  std::puts("invalid coverage curve (x = frac of keys, y = frac of certs):");
  sm::bench::print_curve("keys", "certs", kd.invalid_curve, 10);
  std::puts("valid coverage curve:");
  sm::bench::print_curve("keys", "certs", kd.valid_curve, 10);
}

void BM_KeyDiversity(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto kd = sm::analysis::compute_key_diversity(archive);
    benchmark::DoNotOptimize(kd);
  }
}
BENCHMARK(BM_KeyDiversity);

// Figure 7: the CDF of the average number of IP addresses advertising each
// certificate per scan. Paper: most certs of both kinds sit on one host,
// but the 99th percentile is 2.0 IPs for invalid vs 11.3 for valid (CDN
// replication), with a long valid tail.
void report_fig07() {
  sm::bench::print_banner("Figure 7",
                          "average IPs advertising each certificate per scan");
  const auto hd = sm::analysis::compute_host_diversity(context().index);

  sm::bench::Comparison cmp;
  cmp.add("invalid p99 (IPs/scan)", 2.0, hd.invalid_p99, 1);
  cmp.add("valid p99 (IPs/scan)", 11.3, hd.valid_p99, 1);
  cmp.add("valid tail exceeds invalid tail", "yes",
          hd.valid_avg_ips.max() > hd.invalid_avg_ips.max() ? "yes" : "no");
  cmp.add("invalid certs ever on > 2 IPs in one scan", "1.6%",
          sm::util::percent(hd.invalid_multihost_fraction) +
              " (scaled: few factory-shared certs exist at 5k devices)");
  cmp.print();

  std::puts("invalid avg-IPs CDF:");
  sm::bench::print_curve("ips", "F(x)", hd.invalid_avg_ips.curve(8));
  std::puts("valid avg-IPs CDF:");
  sm::bench::print_curve("ips", "F(x)", hd.valid_avg_ips.curve(8));
  std::printf("valid max avg-IPs: %s; invalid max: %s\n",
              num(hd.valid_avg_ips.max(), 1).c_str(),
              num(hd.invalid_avg_ips.max(), 1).c_str());
}

void BM_HostDiversity(benchmark::State& state) {
  for (auto _ : state) {
    auto hd = sm::analysis::compute_host_diversity(context().index);
    benchmark::DoNotOptimize(hd);
  }
}
BENCHMARK(BM_HostDiversity);

// Figure 8: the CDF of the number of autonomous systems hosting each
// certificate, plus §5.4's concentration numbers. Paper: 18% of invalid
// certificates originate from a single AS; 165 ASes cover 70% of invalid
// certs vs 500 for valid. (Our world has ~80 ASes vs the internet's tens of
// thousands, so absolute AS counts scale down; the invalid < valid
// concentration ordering is the target.)
void report_fig08() {
  sm::bench::print_banner("Figure 8", "ASes hosting each certificate");
  const auto ad = sm::analysis::compute_as_diversity(context().index);

  sm::bench::Comparison cmp;
  cmp.add("top AS share of invalid certs", "18%",
          sm::util::percent(ad.invalid_top_as_share));
  cmp.add("top AS share of valid certs", "10%",
          sm::util::percent(ad.valid_top_as_share));
  cmp.add("ASes covering 70% of invalid", "165 (scaled)",
          std::to_string(ad.invalid_ases_for_70));
  cmp.add("ASes covering 70% of valid", "500 (scaled)",
          std::to_string(ad.valid_ases_for_70));
  cmp.add("invalid needs fewer ASes than valid", "yes",
          ad.invalid_ases_for_70 <= ad.valid_ases_for_70 ? "yes" : "no");
  cmp.print();

  std::puts("invalid #ASes-per-cert CDF:");
  sm::bench::print_curve("ases", "F(x)", ad.invalid_as_counts.curve(6));
  std::puts("valid #ASes-per-cert CDF:");
  sm::bench::print_curve("ases", "F(x)", ad.valid_as_counts.curve(6));
}

void BM_AsDiversity(benchmark::State& state) {
  for (auto _ : state) {
    auto ad = sm::analysis::compute_as_diversity(context().index);
    benchmark::DoNotOptimize(ad);
  }
}
BENCHMARK(BM_AsDiversity);

// Table 2: the breakdown of certificate origin by CAIDA-style AS type.
// Paper: 94.1% of invalid certificates come from transit/access networks;
// valid certificates split between transit/access (46.6%) and content
// (42.9%) networks.
void report_tab2() {
  sm::bench::print_banner("Table 2", "AS-type breakdown of cert origin");
  const auto breakdown = sm::analysis::compute_as_type_breakdown(
      context().index, context().world.as_db);

  const auto share = [&](sm::net::AsType type, bool valid) {
    const auto it = breakdown.shares.find(type);
    if (it == breakdown.shares.end()) return 0.0;
    return valid ? it->second.first : it->second.second;
  };

  sm::util::TextTable table(
      {"AS type", "% of valid (paper)", "% of valid", "% of invalid (paper)",
       "% of invalid"});
  table.add_row({"Transit/Access", "46.6%",
                 sm::util::percent(share(sm::net::AsType::kTransitAccess, true)),
                 "94.1%",
                 sm::util::percent(share(sm::net::AsType::kTransitAccess, false))});
  table.add_row({"Content", "42.9%",
                 sm::util::percent(share(sm::net::AsType::kContent, true)),
                 "4.7%",
                 sm::util::percent(share(sm::net::AsType::kContent, false))});
  table.add_row({"Enterprise", "7.8%",
                 sm::util::percent(share(sm::net::AsType::kEnterprise, true)),
                 "1.5%",
                 sm::util::percent(share(sm::net::AsType::kEnterprise, false))});
  table.add_row({"Unknown", "2.6%",
                 sm::util::percent(share(sm::net::AsType::kUnknown, true)),
                 "1.7%",
                 sm::util::percent(share(sm::net::AsType::kUnknown, false))});
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  cmp.add("invalid overwhelmingly transit/access", "94.1%",
          sm::util::percent(share(sm::net::AsType::kTransitAccess, false)));
  cmp.add("content networks mostly valid", "yes",
          share(sm::net::AsType::kContent, true) >
                  share(sm::net::AsType::kContent, false)
              ? "yes"
              : "no");
  cmp.print();
}

void BM_AsTypeBreakdown(benchmark::State& state) {
  for (auto _ : state) {
    auto breakdown = sm::analysis::compute_as_type_breakdown(
        context().index, context().world.as_db);
    benchmark::DoNotOptimize(breakdown);
  }
}
BENCHMARK(BM_AsTypeBreakdown);

// Table 3: the top ASes hosting valid and invalid certificates. Paper: all
// top valid hosters are US hosting companies (GoDaddy, Unified Layer,
// Amazon, SoftLayer); top invalid hosters are end-user access ISPs with
// Germany heavily represented (Deutsche Telekom, Vodafone, Telefonica) plus
// Comcast and Korea Telecom.
void report_tab3() {
  sm::bench::print_banner("Table 3", "top ASes hosting valid/invalid certs");
  const auto top = sm::analysis::compute_top_ases(context().index,
                                                  context().world.as_db);

  std::puts("top ASes hosting valid certificates (paper: GoDaddy, Unified");
  std::puts("Layer, Amazon x2, SoftLayer — all USA):");
  sm::util::TextTable valid_table({"AS", "certs"});
  for (const auto& row : top.valid) {
    valid_table.add_row({row.label, std::to_string(row.certs)});
  }
  std::fputs(valid_table.str().c_str(), stdout);

  std::puts("\ntop ASes hosting invalid certificates (paper: Deutsche");
  std::puts("Telekom, Comcast, Vodafone, Telefonica Germany, Korea Telecom):");
  sm::util::TextTable invalid_table({"AS", "certs"});
  for (const auto& row : top.invalid) {
    invalid_table.add_row({row.label, std::to_string(row.certs)});
  }
  std::fputs(invalid_table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  cmp.add("top invalid AS", "#3320 Deutsche Telekom AG (DEU)",
          top.invalid.empty() ? "n/a" : top.invalid[0].label);
  int german = 0;
  for (const auto& row : top.invalid) {
    const auto* info = context().world.as_db.find(row.asn);
    if (info && info->country == "DEU") ++german;
  }
  cmp.add("German ISPs among top-5 invalid", "3", std::to_string(german));
  bool all_valid_usa = !top.valid.empty();
  for (const auto& row : top.valid) {
    const auto* info = context().world.as_db.find(row.asn);
    if (!info || info->country != "USA") all_valid_usa = false;
  }
  cmp.add("all top-5 valid ASes in USA", "yes", all_valid_usa ? "yes" : "no");
  cmp.print();
}

void BM_TopAses(benchmark::State& state) {
  for (auto _ : state) {
    auto top = sm::analysis::compute_top_ases(context().index,
                                              context().world.as_db);
    benchmark::DoNotOptimize(top);
  }
}
BENCHMARK(BM_TopAses);

// Table 4: the device-type breakdown of invalid certificates from the top
// 50 issuing names — the codified version of the paper's manual
// classification. Paper: 45.3% home router/cable modem, 32.0% unknown,
// 6.0% VPN, 5.7% remote storage, 4.3% remote administration, 1.9%
// firewall, 1.8% IP camera, 2.6% other.
void report_tab4() {
  sm::bench::print_banner("Table 4",
                          "device types behind the top 50 invalid issuers");
  const auto breakdown =
      sm::analysis::compute_device_types(context().world.archive, 50);

  const auto paper_share = [](const std::string& type) -> std::string {
    if (type == "Home router/cable modem") return "45.3%";
    if (type == "Unknown") return "32.0%";
    if (type == "VPN") return "6.04%";
    if (type == "Remote storage") return "5.70%";
    if (type == "Remote administration") return "4.27%";
    if (type == "Firewall") return "1.92%";
    if (type == "IP camera") return "1.78%";
    if (type == "Other") return "2.62%";
    return "-";
  };

  sm::util::TextTable table({"device type", "paper", "measured"});
  for (const auto& [type, share] : breakdown.shares) {
    table.add_row({type, paper_share(type), sm::util::percent(share)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);

  sm::bench::Comparison cmp;
  cmp.add("largest category", "Home router/cable modem",
          breakdown.shares.empty() ? "n/a" : breakdown.shares[0].first);
  cmp.add("classified certificates", "top-50 issuers",
          std::to_string(breakdown.classified_certs));
  cmp.print();
}

void BM_DeviceTypes(benchmark::State& state) {
  const auto& archive = context().world.archive;
  for (auto _ : state) {
    auto breakdown = sm::analysis::compute_device_types(archive, 50);
    benchmark::DoNotOptimize(breakdown);
  }
}
BENCHMARK(BM_DeviceTypes);

}  // namespace

void report_section5() {
  report_fig03();
  report_fig04();
  report_fig05();
  report_tab1();
  report_fig06();
  report_fig07();
  report_fig08();
  report_tab2();
  report_tab3();
  report_tab4();
}

}  // namespace sm::bench
