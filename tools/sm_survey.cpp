// sm_survey — the command-line front end to the library:
//
//   sm_survey simulate [--seed N] [--devices N] [--websites N] [--scale F]
//                      [--out bundle.smwb] [--tsv archive.tsv]
//       Simulate a world + both scan campaigns; optionally persist the
//       result as a world bundle and/or a TSV archive export.
//
//   sm_survey report   (--in bundle.smwb | --seed N ...)
//       The §4/§5 analysis report: validity breakdown, longevity,
//       key/issuer/host/AS diversity.
//
//   sm_survey link     (--in bundle.smwb | --seed N ...)
//       The §6 linking report: Table 5, Table 6, iterative linking, and
//       ground-truth precision/recall where device ids are present.
//
//   sm_survey track    (--in bundle.smwb | --seed N ...)
//       The §7 tracking report: trackable devices, AS movement, bulk
//       transfers, reassignment inference.
//
//   sm_survey figures  (--in bundle.smwb | --seed N ...) [--outdir DIR]
//       Writes gnuplot-ready .dat series for every figure in the paper
//       plus a plots.gp script that renders them.
//
//   sm_survey stat --archive FILE
//       Streams a binary certificate archive (v1 or v2) through the
//       scan::ArchiveReader visitor API — validity split, per-campaign
//       observation totals — without materializing the whole ScanArchive.
//
//   sm_survey lint --pem FILE
//       Parses every CERTIFICATE block in a PEM bundle and lints each one
//       (zlint-style device-certificate pathology checks).
//
//   sm_survey dump --pem FILE
//       dumpasn1-style DER tree of every block in a PEM bundle.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>

#include "analysis/discrepancy.h"
#include "analysis/diversity.h"
#include "analysis/longevity.h"
#include "corpus_load.h"
#include "linking/linker.h"
#include "asn1/print.h"
#include "pki/lint.h"
#include "report/report.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "simworld/world_io.h"
#include "tracking/tracker.h"
#include "util/thread_pool.h"
#include "x509/pem.h"

namespace {

using namespace sm;

struct Options {
  std::string command;
  std::uint64_t seed = 42;
  std::size_t devices = 5000;
  std::size_t websites = 1700;
  double scale = 0.45;
  std::string in_path;
  std::string out_path;
  std::string tsv_path;
  std::string archive_path;
  std::string outdir = "figures";
  std::string pem_path;
  std::size_t threads = 0;  // 0 = one per hardware thread
};

void usage() {
  std::fputs(
      "usage: sm_survey "
      "<simulate|report|link|track|figures|stat|lint|dump> [options]\n"
      "  --seed N       simulation seed (default 42)\n"
      "  --devices N    end-user devices (default 5000)\n"
      "  --websites N   valid websites (default 1700)\n"
      "  --scale F      scan-schedule density 0..1 (default 0.45)\n"
      "  --in FILE      load a world bundle instead of simulating\n"
      "  --out FILE     (simulate) write a world bundle\n"
      "  --tsv FILE     (simulate) export the archive as TSV\n"
      "  --archive FILE (simulate) write a checksummed binary archive\n"
      "                 plus FILE.rev, its revocation statuses;\n"
      "                 (stat) stream one without loading it whole\n"
      "  --outdir DIR   (figures) output directory (default ./figures)\n"
      "  --pem FILE     (lint) PEM bundle to lint\n"
      "  --threads N    worker threads for analysis/linking/tracking\n"
      "                 (default: one per hardware thread; results are\n"
      "                 identical for every N)\n",
      stderr);
}

using tools::parse_u64_or_die;

std::optional<Options> parse(int argc, char** argv) {
  if (argc < 2) return std::nullopt;
  Options opts;
  opts.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      opts.seed = parse_u64_or_die("--seed", value(), ~std::uint64_t{0});
    } else if (arg == "--devices") {
      opts.devices = parse_u64_or_die("--devices", value(), 100'000'000);
    } else if (arg == "--websites") {
      opts.websites = parse_u64_or_die("--websites", value(), 100'000'000);
    } else if (arg == "--scale") {
      opts.scale = tools::parse_scale_or_die("--scale", value());
    } else if (arg == "--in") {
      opts.in_path = value();
    } else if (arg == "--out") {
      opts.out_path = value();
    } else if (arg == "--tsv") {
      opts.tsv_path = value();
    } else if (arg == "--archive") {
      opts.archive_path = value();
    } else if (arg == "--outdir") {
      opts.outdir = value();
    } else if (arg == "--pem") {
      opts.pem_path = value();
    } else if (arg == "--threads") {
      const char* v = value();
      char* end = nullptr;
      opts.threads = std::strtoull(v, &end, 10);
      if (*v == '\0' || end == nullptr || *end != '\0' ||
          opts.threads > 4096) {
        std::fprintf(stderr, "invalid --threads value '%s' (want 0-4096)\n",
                     v);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opts;
}

simworld::WorldResult obtain_world(const Options& opts) {
  tools::CorpusSpec spec;
  spec.in_path = opts.in_path;
  spec.seed = opts.seed;
  spec.devices = opts.devices;
  spec.websites = opts.websites;
  spec.scale = opts.scale;
  tools::LoadedCorpus corpus = tools::load_or_simulate(spec);
  return std::move(*corpus.world);  // always a world: no archive_path given
}

int cmd_simulate(const Options& opts) {
  const simworld::WorldResult world = obtain_world(opts);
  std::printf("scans:        %zu\n", world.archive.scans().size());
  std::printf("observations: %zu\n", world.archive.observation_count());
  std::printf("unique certs: %zu\n", world.archive.certs().size());
  if (world.verify_stats.verified > 0) {
    std::printf("verified:     %llu certs (%llu sig checks, %llu memo hits)\n",
                static_cast<unsigned long long>(world.verify_stats.verified),
                static_cast<unsigned long long>(world.verify_stats.sig_checks),
                static_cast<unsigned long long>(
                    world.verify_stats.sig_cache_hits));
  }
  if (!opts.out_path.empty()) {
    if (!simworld::save_world_bundle_file(world, opts.out_path)) {
      std::fprintf(stderr, "failed to write %s\n", opts.out_path.c_str());
      return 1;
    }
    std::printf("bundle:       %s\n", opts.out_path.c_str());
  }
  if (!opts.tsv_path.empty()) {
    std::ofstream tsv(opts.tsv_path);
    if (!tsv) {
      std::fprintf(stderr, "failed to write %s\n", opts.tsv_path.c_str());
      return 1;
    }
    scan::export_tsv(world.archive, tsv);
    std::printf("tsv:          %s\n", opts.tsv_path.c_str());
  }
  if (!opts.archive_path.empty()) {
    if (!scan::save_archive_file(world.archive, opts.archive_path)) {
      std::fprintf(stderr, "failed to write %s\n", opts.archive_path.c_str());
      return 1;
    }
    std::printf("archive:      %s\n", opts.archive_path.c_str());
    // The statuses ride next to the archive, so a daemon serving it
    // answers what this world knows.
    const std::string rev_path = opts.archive_path + ".rev";
    if (!world.revocation.statuses.empty() &&
        !tools::save_revocation_sidecar(rev_path,
                                        world.revocation.statuses)) {
      std::fprintf(stderr, "failed to write %s\n", rev_path.c_str());
      return 1;
    }
  }
  return 0;
}

// Streams an archive file through scan::ArchiveReader: every certificate
// and scan is visited exactly once without ever holding the full
// ScanArchive in memory — the shape every analysis over a full-size corpus
// (222 scans, 80M certs in the paper) wants.
int cmd_stat(const Options& opts) {
  if (opts.archive_path.empty()) {
    std::fprintf(stderr, "stat requires --archive FILE\n");
    return 2;
  }
  std::ifstream in(opts.archive_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opts.archive_path.c_str());
    return 1;
  }
  const auto stream_begin = std::chrono::steady_clock::now();
  scan::ArchiveReader reader(in);
  if (!reader.ok()) {
    std::fprintf(stderr, "%s: not a valid archive\n",
                 opts.archive_path.c_str());
    return 1;
  }
  std::printf("format:        SMAR v%u\n", reader.version());

  std::uint64_t valid = 0, invalid = 0, transvalid = 0, san_entries = 0;
  reader.for_each_cert([&](scan::CertId, const scan::CertRecord& cert) {
    (cert.valid ? valid : invalid) += 1;
    if (cert.transvalid) ++transvalid;
    san_entries += cert.san.size();
  });
  std::uint64_t scans = 0, observations = 0, max_obs = 0;
  std::uint64_t per_campaign[2] = {0, 0};
  reader.for_each_scan([&](const scan::ScanData& scan) {
    ++scans;
    observations += scan.observations.size();
    max_obs = std::max<std::uint64_t>(max_obs, scan.observations.size());
    per_campaign[static_cast<int>(scan.event.campaign)] +=
        scan.observations.size();
  });
  if (!reader.finished()) {
    std::fprintf(stderr, "%s: corrupt archive (checksum/truncation)\n",
                 opts.archive_path.c_str());
    return 1;
  }
  std::printf("unique certs:  %llu (%llu valid, %llu invalid, "
              "%llu transvalid)\n",
              static_cast<unsigned long long>(valid + invalid),
              static_cast<unsigned long long>(valid),
              static_cast<unsigned long long>(invalid),
              static_cast<unsigned long long>(transvalid));
  std::printf("san entries:   %llu\n",
              static_cast<unsigned long long>(san_entries));
  std::printf("scans:         %llu (umich %llu obs, rapid7 %llu obs)\n",
              static_cast<unsigned long long>(scans),
              static_cast<unsigned long long>(per_campaign[0]),
              static_cast<unsigned long long>(per_campaign[1]));
  std::printf("observations:  %llu (largest scan %llu)\n",
              static_cast<unsigned long long>(observations),
              static_cast<unsigned long long>(max_obs));
  std::fprintf(stderr, "streamed in %.2fs (%zu threads)\n",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             stream_begin)
                   .count(),
               sm::util::ThreadPool::global_thread_count());
  return 0;
}

int cmd_report(const Options& opts) {
  const simworld::WorldResult world = obtain_world(opts);
  const analysis::DatasetIndex index(world.archive, world.routing);
  report::ReportOptions report_options;
  // Simulated worlds carry the revocation pass output; bundles do not
  // (statuses live outside the archive), so the table is conditional.
  if (!world.revocation.statuses.empty()) {
    report_options.revocation_statuses = &world.revocation.statuses;
  }
  const std::string rendered =
      report::render_report(index, world.as_db, report_options);
  std::fputs(rendered.c_str(), stdout);
  // Validation-work counters (zero when --in loaded a prebuilt bundle —
  // classifications are baked into its CertRecords, nothing re-verifies).
  if (world.verify_stats.verified > 0) {
    std::printf("\n-- verification work --\n"
                "verified %llu certs; %llu signature checks computed, %llu "
                "answered by the memo (%s)\n",
                static_cast<unsigned long long>(world.verify_stats.verified),
                static_cast<unsigned long long>(world.verify_stats.sig_checks),
                static_cast<unsigned long long>(
                    world.verify_stats.sig_cache_hits),
                util::percent(
                    static_cast<double>(world.verify_stats.sig_cache_hits) /
                    static_cast<double>(
                        std::max<std::uint64_t>(
                            1, world.verify_stats.sig_checks +
                                   world.verify_stats.sig_cache_hits)))
                    .c_str());
  }
  return 0;
}

int cmd_link(const Options& opts) {
  const simworld::WorldResult world = obtain_world(opts);
  const analysis::DatasetIndex index(world.archive, world.routing);
  const linking::Linker linker(index);

  std::printf("linking-eligible invalid certificates: %llu\n\n",
              static_cast<unsigned long long>(linker.eligible_count()));
  std::puts("-- feature uniqueness (table 5) --");
  for (const auto& row : linker.feature_uniqueness()) {
    std::printf("  %-12s applicable %-7llu non-unique %s\n",
                to_string(row.feature).c_str(),
                static_cast<unsigned long long>(row.applicable),
                util::percent(row.non_unique_fraction()).c_str());
  }

  std::puts("\n-- per-field linking (table 6) --");
  for (const auto& field : linker.evaluate_all_fields()) {
    std::printf("  %-12s linked %-7llu uniq %-7llu IP %5s /24 %5s AS %5s\n",
                to_string(field.feature).c_str(),
                static_cast<unsigned long long>(field.total_linked),
                static_cast<unsigned long long>(field.uniquely_linked),
                util::percent(field.consistency.ip).c_str(),
                util::percent(field.consistency.slash24).c_str(),
                util::percent(field.consistency.as_level).c_str());
  }

  const auto linked = linker.link_iteratively();
  const auto gain = linker.compare_with_original(linked);
  std::puts("\n-- iterative linking (6.4.3 / 6.4.4) --");
  std::printf("linked %llu certs (%s) into %zu groups\n",
              static_cast<unsigned long long>(linked.linked_certs),
              util::percent(static_cast<double>(linked.linked_certs) /
                            static_cast<double>(linker.eligible_count()))
                  .c_str(),
              linked.groups.size());
  std::printf("single-scan fraction %s -> %s; mean lifetime %.1f -> %.1f "
              "days\n",
              util::percent(gain.single_scan_fraction_before).c_str(),
              util::percent(gain.single_scan_fraction_after).c_str(),
              gain.mean_lifetime_before_days, gain.mean_lifetime_after_days);

  const auto truth = linker.score_against_truth(linked);
  if (truth.possible_pairs > 0) {
    std::printf("ground truth: precision %.4f recall %.4f\n",
                truth.precision(), truth.recall());
  }
  return 0;
}

int cmd_track(const Options& opts) {
  const simworld::WorldResult world = obtain_world(opts);
  const analysis::DatasetIndex index(world.archive, world.routing);
  const linking::Linker linker(index);
  const auto linked = linker.link_iteratively();
  const tracking::DeviceTracker tracker(index, linker, linked, world.as_db);

  const auto summary = tracker.summary();
  std::puts("-- trackable devices (7.2) --");
  std::printf("without linking %llu | with linking %llu (+%s)\n",
              static_cast<unsigned long long>(
                  summary.trackable_without_linking),
              static_cast<unsigned long long>(summary.trackable_with_linking),
              util::percent(summary.improvement()).c_str());

  const auto movement = tracker.movement();
  std::puts("\n-- movement (7.3) --");
  std::printf("tracked %llu | movers %llu | transitions %llu | "
              "country-crossers %llu\n",
              static_cast<unsigned long long>(movement.tracked_devices),
              static_cast<unsigned long long>(movement.devices_with_as_change),
              static_cast<unsigned long long>(movement.total_as_transitions),
              static_cast<unsigned long long>(
                  movement.devices_crossing_countries));
  for (const auto& transfer : movement.bulk_transfers) {
    std::printf("  bulk: %u devices %s -> %s (scan %u)\n", transfer.devices,
                world.as_db.label(transfer.from).c_str(),
                world.as_db.label(transfer.to).c_str(), transfer.scan);
  }

  const auto stats = tracker.reassignment();
  std::puts("\n-- reassignment (7.4 / figure 11) --");
  std::printf("%llu of %zu ASes assign >= 90%% static addresses\n",
              static_cast<unsigned long long>(stats.ases_90pct_static),
              stats.per_as.size());
  for (const auto& as_stats : stats.most_dynamic) {
    std::printf("  dynamic: %-46s %s change every scan\n",
                world.as_db.label(as_stats.asn).c_str(),
                util::percent(as_stats.always_changing_fraction()).c_str());
  }
  return 0;
}

int cmd_figures(const Options& opts) {
  const simworld::WorldResult world = obtain_world(opts);
  const analysis::DatasetIndex index(world.archive, world.routing);

  std::filesystem::create_directories(opts.outdir);
  const auto open_dat = [&](const std::string& name) {
    std::ofstream out(opts.outdir + "/" + name);
    if (!out) {
      std::fprintf(stderr, "cannot write %s/%s\n", opts.outdir.c_str(),
                   name.c_str());
      std::exit(1);
    }
    return out;
  };
  const auto write_cdf = [&](const std::string& name,
                             const util::EmpiricalCdf& cdf) {
    auto out = open_dat(name);
    out << "# x F(x)\n";
    for (const auto& [x, y] : cdf.curve(400)) out << x << ' ' << y << '\n';
  };

  // Figure 1: per-/8 unique-host fractions on a dual-scan day.
  if (const auto disc = analysis::compute_scan_discrepancy(world.archive)) {
    auto out = open_dat("fig01_slash8.dat");
    out << "# first_octet umich_unique rapid7_unique\n";
    for (const auto& row : disc->per_slash8) {
      out << row.first_octet << ' ' << row.umich_unique_fraction << ' '
          << row.rapid7_unique_fraction << '\n';
    }
  }

  // Figure 2: per-scan counts.
  {
    auto out = open_dat("fig02_series.dat");
    out << "# unix_date campaign invalid valid\n";
    for (const auto& row : analysis::compute_scan_series(world.archive)) {
      out << row.date << ' ' << static_cast<int>(row.campaign) << ' '
          << row.invalid << ' ' << row.valid << '\n';
    }
  }

  // Figures 3-5.
  const auto vp = analysis::compute_validity_periods(world.archive);
  write_cdf("fig03_validity_valid.dat", vp.valid_days);
  write_cdf("fig03_validity_invalid.dat", vp.invalid_days);
  const auto lt = analysis::compute_lifetimes(index);
  write_cdf("fig04_lifetime_valid.dat", lt.valid_days);
  write_cdf("fig04_lifetime_invalid.dat", lt.invalid_days);
  const auto nb = analysis::compute_notbefore_deltas(index);
  write_cdf("fig05_notbefore_delta.dat", nb.positive_days);

  // Figure 6: key coverage curves.
  const auto kd = analysis::compute_key_diversity(world.archive);
  {
    auto out = open_dat("fig06_keys_valid.dat");
    out << "# frac_keys frac_certs\n";
    for (const auto& [x, y] : kd.valid_curve) out << x << ' ' << y << '\n';
    auto out2 = open_dat("fig06_keys_invalid.dat");
    out2 << "# frac_keys frac_certs\n";
    for (const auto& [x, y] : kd.invalid_curve) out2 << x << ' ' << y << '\n';
  }

  // Figures 7-8.
  const auto hd = analysis::compute_host_diversity(index);
  write_cdf("fig07_ips_valid.dat", hd.valid_avg_ips);
  write_cdf("fig07_ips_invalid.dat", hd.invalid_avg_ips);
  const auto ad = analysis::compute_as_diversity(index);
  write_cdf("fig08_ases_valid.dat", ad.valid_as_counts);
  write_cdf("fig08_ases_invalid.dat", ad.invalid_as_counts);

  // Figures 10-11 need linking/tracking.
  const linking::Linker linker(index);
  const auto linked = linker.link_iteratively();
  {
    std::vector<double> sizes;
    for (const auto& group : linked.groups) {
      sizes.push_back(static_cast<double>(group.certs.size()));
    }
    write_cdf("fig10_group_sizes.dat", util::EmpiricalCdf(std::move(sizes)));
  }
  const tracking::DeviceTracker tracker(index, linker, linked, world.as_db);
  write_cdf("fig11_static_fraction.dat",
            tracker.reassignment().static_fraction_cdf);

  // A gnuplot script that renders the lot.
  {
    auto out = open_dat("plots.gp");
    out << R"(# gnuplot script regenerating the paper's figures from the
# .dat series in this directory:  gnuplot plots.gp
set terminal pngcairo size 900,540
set key bottom right
set grid

set output 'fig03_validity.png'
set title 'Figure 3: validity periods'
set logscale x
set xlabel 'Validity Period (Days)'; set ylabel 'CDF'
plot 'fig03_validity_invalid.dat' w l t 'Invalid',      'fig03_validity_valid.dat' w l t 'Valid'
unset logscale x

set output 'fig04_lifetime.png'
set title 'Figure 4: lifetimes'
set xlabel 'Lifetime (Days)'; set ylabel 'CDF'
plot 'fig04_lifetime_invalid.dat' w l t 'Invalid',      'fig04_lifetime_valid.dat' w l t 'Valid'

set output 'fig05_delta.png'
set title 'Figure 5: first advertised - NotBefore (ephemeral invalid)'
set logscale x
set xlabel 'Days'; set ylabel 'CDF'
plot 'fig05_notbefore_delta.dat' w l notitle
unset logscale x

set output 'fig06_keys.png'
set title 'Figure 6: public-key sharing'
set xlabel 'Fraction of Public Keys'; set ylabel 'Fraction of Certificates'
plot 'fig06_keys_invalid.dat' w l t 'Invalid',      'fig06_keys_valid.dat' w l t 'Valid', x t 'y=x' dt 2

set output 'fig07_ips.png'
set title 'Figure 7: average IPs hosting a certificate'
set logscale x
set xlabel 'Avg. IPs per scan'; set ylabel 'CDF'
plot 'fig07_ips_invalid.dat' w l t 'Invalid',      'fig07_ips_valid.dat' w l t 'Valid'
unset logscale x

set output 'fig08_ases.png'
set title 'Figure 8: ASes hosting a certificate'
set xlabel 'ASes'; set ylabel 'CDF'
plot 'fig08_ases_invalid.dat' w l t 'Invalid',      'fig08_ases_valid.dat' w l t 'Valid'

set output 'fig10_groups.png'
set title 'Figure 10: linked group sizes'
set logscale x
set xlabel 'Certificates per group'; set ylabel 'CDF'
plot 'fig10_group_sizes.dat' w l notitle
unset logscale x

set output 'fig11_static.png'
set title 'Figure 11: static-assignment fraction over ASes'
set xlabel 'Fraction of AS devices statically assigned'; set ylabel 'CDF'
plot 'fig11_static_fraction.dat' w l notitle
)";
  }
  std::printf("wrote figure data + plots.gp to %s/\n", opts.outdir.c_str());
  return 0;
}

int cmd_lint(const Options& opts) {
  if (opts.pem_path.empty()) {
    std::fprintf(stderr, "lint requires --pem FILE\n");
    return 2;
  }
  std::ifstream in(opts.pem_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opts.pem_path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto blocks = x509::pem_decode_all(text);
  const auto certs = x509::certificates_from_pem(text);
  std::printf("%zu PEM blocks, %zu parseable certificates\n\n",
              blocks.size(), certs.size());
  std::size_t index = 0;
  for (const auto& cert : certs) {
    std::printf("[%zu] subject: %s\n", index,
                cert.subject.to_string().empty()
                    ? "(empty)"
                    : cert.subject.to_string().c_str());
    std::printf("    issuer:  %s\n", cert.issuer.to_string().empty()
                                          ? "(empty)"
                                          : cert.issuer.to_string().c_str());
    const auto findings = pki::lint_certificate(cert);
    if (findings.empty()) {
      std::puts("    lint:    clean");
    }
    for (const auto& finding : findings) {
      std::printf("    [%-7s] %-24s %s\n",
                  to_string(finding.severity).c_str(),
                  to_string(finding.check).c_str(), finding.message.c_str());
    }
    ++index;
  }
  const auto summary = pki::lint_all(certs);
  std::printf("\nsummary: %llu certs, %llu with errors, %llu with warnings\n",
              static_cast<unsigned long long>(summary.certificates),
              static_cast<unsigned long long>(summary.with_errors),
              static_cast<unsigned long long>(summary.with_warnings));
  return 0;
}

int cmd_dump(const Options& opts) {
  if (opts.pem_path.empty()) {
    std::fprintf(stderr, "dump requires --pem FILE\n");
    return 2;
  }
  std::ifstream in(opts.pem_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opts.pem_path.c_str());
    return 1;
  }
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const auto blocks = x509::pem_decode_all(text);
  std::size_t index = 0;
  for (const auto& block : blocks) {
    std::printf("-- block %zu: %s (%zu bytes) --\n", index++,
                block.label.c_str(), block.der.size());
    std::fputs(asn1::to_text(block.der).c_str(), stdout);
    std::putchar('\n');
  }
  if (blocks.empty()) std::puts("no PEM blocks found");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts) {
    usage();
    return 2;
  }
  if (opts->threads != 0) {
    util::ThreadPool::set_global_threads(opts->threads);
  }
  if (opts->command == "simulate") return cmd_simulate(*opts);
  if (opts->command == "report") return cmd_report(*opts);
  if (opts->command == "link") return cmd_link(*opts);
  if (opts->command == "track") return cmd_track(*opts);
  if (opts->command == "figures") return cmd_figures(*opts);
  if (opts->command == "stat") return cmd_stat(*opts);
  if (opts->command == "lint") return cmd_lint(*opts);
  if (opts->command == "dump") return cmd_dump(*opts);
  usage();
  return 2;
}
