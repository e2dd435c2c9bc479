// The `survey` workload: the paper's offline path, end to end, in one
// process. A pass is World::run -> SMAR save + load -> corpus spine ->
// report -> linking -> tracking; survey time is its wall clock.
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "bench.h"
#include "corpus/corpus_index.h"
#include "linking/linker.h"
#include "report/report.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "tracking/tracker.h"
#include "util/hex.h"
#include "util/sha256.h"

namespace perfbench {
namespace {

using namespace sm;

/// The measured world (WorldConfig::paper(), ~56k certificates), or with
/// a tenth of its devices and websites for the set-up warm-up pass;
/// WorldConfig::tiny() for both under --tiny.
simworld::WorldConfig survey_world(const Options& o, bool warm_up) {
  simworld::WorldConfig config =
      o.tiny ? simworld::WorldConfig::tiny() : simworld::WorldConfig::paper();
  if (!o.tiny && warm_up) {
    config.device_count /= 10;
    config.website_count /= 10;
  }
  config.seed = o.seed;
  return config;
}

struct Pass {
  double wall_s = 0;
  double peak_rss_mb = 0;
  double world_cpu_s = 0;
  std::size_t certs = 0;
  std::size_t observations = 0;
  std::size_t archive_bytes = 0;
  std::uint64_t sig_checks = 0;
  std::uint64_t sig_memo_hits = 0;
  std::uint64_t linked_certs = 0;
  std::uint64_t steal_ticks = 0;  ///< host steal over the pass
  bool round_trip_ok = false;
  std::string digest;  ///< SHA-256 of the rendered report, link, track text
};

std::string render_links(const linking::Linker& linker,
                         const std::vector<linking::FieldResult>& fields,
                         const linking::IterativeResult& linked) {
  std::string out;
  char line[256];
  for (const auto& f : fields) {
    std::snprintf(line, sizeof line, "%s linked %llu uniq %llu %.6f %.6f %.6f\n",
                  to_string(f.feature).c_str(),
                  static_cast<unsigned long long>(f.total_linked),
                  static_cast<unsigned long long>(f.uniquely_linked),
                  f.consistency.ip, f.consistency.slash24,
                  f.consistency.as_level);
    out += line;
  }
  const auto gain = linker.compare_with_original(linked);
  std::snprintf(line, sizeof line,
                "eligible %llu linked %llu groups %zu single %.6f->%.6f "
                "lifetime %.3f->%.3f\n",
                static_cast<unsigned long long>(linker.eligible_count()),
                static_cast<unsigned long long>(linked.linked_certs),
                linked.groups.size(), gain.single_scan_fraction_before,
                gain.single_scan_fraction_after,
                gain.mean_lifetime_before_days, gain.mean_lifetime_after_days);
  out += line;
  return out;
}

std::string render_tracking(const tracking::DeviceTracker& tracker) {
  std::string out;
  char line[256];
  const auto summary = tracker.summary();
  std::snprintf(line, sizeof line, "trackable %llu -> %llu\n",
                static_cast<unsigned long long>(summary.trackable_without_linking),
                static_cast<unsigned long long>(summary.trackable_with_linking));
  out += line;
  const auto movement = tracker.movement();
  std::snprintf(line, sizeof line,
                "tracked %llu movers %llu transitions %llu crossers %llu "
                "bulk %zu\n",
                static_cast<unsigned long long>(movement.tracked_devices),
                static_cast<unsigned long long>(movement.devices_with_as_change),
                static_cast<unsigned long long>(movement.total_as_transitions),
                static_cast<unsigned long long>(
                    movement.devices_crossing_countries),
                movement.bulk_transfers.size());
  out += line;
  for (const auto& t : movement.bulk_transfers) {
    std::snprintf(line, sizeof line, "  bulk %u %u->%u @%u\n", t.devices,
                  t.from, t.to, t.scan);
    out += line;
  }
  const auto reassignment = tracker.reassignment();
  std::snprintf(line, sizeof line, "static90 %llu of %zu\n",
                static_cast<unsigned long long>(reassignment.ases_90pct_static),
                reassignment.per_as.size());
  out += line;
  for (const auto& as : reassignment.most_dynamic) {
    std::snprintf(line, sizeof line, "  dynamic %u %.6f\n", as.asn,
                  as.always_changing_fraction());
    out += line;
  }
  return out;
}

// One survey pass. Every stage is a call into one layer's public API,
// timed as a span when tracing is on. Checks run after the clock stops.
Pass survey_pass(const simworld::WorldConfig& config) {
  Pass pass;
  reset_peak_rss();
  const std::int64_t begin = now_ns();
  std::optional<ScopedSpan> root;
  root.emplace("survey.pass", SpanContext{Tracer::get().next_id(), 0});
  const SpanContext ctx = root->context();

  simworld::WorldResult world;
  {
    ScopedSpan span("simworld.run", ctx);
    const double cpu0 = process_cpu_seconds();
    world = simworld::World(config).run();
    pass.world_cpu_s = process_cpu_seconds() - cpu0;
  }
  std::string bytes;
  {
    ScopedSpan span("scan.archive_save", ctx);
    std::ostringstream out;
    if (!scan::save_archive(world.archive, out)) return pass;
    bytes = std::move(out).str();
  }
  std::optional<scan::ScanArchive> loaded;
  {
    ScopedSpan span("scan.archive_load", ctx);
    std::istringstream in(bytes);
    loaded = scan::load_archive(in);
  }
  if (!loaded) return pass;
  std::optional<corpus::CorpusIndex> spine;
  {
    ScopedSpan span("corpus.spine_build", ctx);
    spine.emplace(*loaded, corpus::CorpusOptions{&world.routing, nullptr});
  }
  const analysis::DatasetIndex index(*spine);
  std::string report_text;
  {
    ScopedSpan span("report.render", ctx);
    report::ReportOptions options;
    options.revocation_statuses = &world.revocation.statuses;
    report_text = report::render_report(index, world.as_db, options);
  }
  std::optional<linking::Linker> linker;
  {
    ScopedSpan span("linking.linker_build", ctx);
    linker.emplace(index);
  }
  std::vector<linking::FieldResult> fields;
  {
    ScopedSpan span("linking.evaluate_fields", ctx);
    fields = linker->evaluate_all_fields();
  }
  linking::IterativeResult linked;
  {
    ScopedSpan span("linking.link_iteratively", ctx);
    linked = linker->link_iteratively();
  }
  const std::string link_text = render_links(*linker, fields, linked);
  std::optional<tracking::DeviceTracker> tracker;
  {
    ScopedSpan span("tracking.tracker_build", ctx);
    tracker.emplace(index, *linker, linked, world.as_db);
  }
  std::string track_text;
  {
    ScopedSpan span("tracking.analyses", ctx);
    track_text = render_tracking(*tracker);
  }
  pass.wall_s = seconds_since(begin);
  root.reset();  // the checks below are not part of the pass
  pass.peak_rss_mb = peak_rss_mb();

  pass.certs = loaded->certs().size();
  pass.observations = loaded->observation_count();
  pass.archive_bytes = bytes.size();
  pass.sig_checks = world.verify_stats.sig_checks;
  pass.sig_memo_hits = world.verify_stats.sig_cache_hits;
  pass.linked_certs = linked.linked_certs;
  std::ostringstream resaved;
  pass.round_trip_ok = scan::save_archive(*loaded, resaved) &&
                       resaved.view() == std::string_view(bytes);
  util::Sha256 sha;
  const std::string* parts[] = {&report_text, &link_text, &track_text};
  for (const std::string* part : parts) {
    sha.update(util::BytesView(
        reinterpret_cast<const std::uint8_t*>(part->data()), part->size()));
    sha.update(util::BytesView(reinterpret_cast<const std::uint8_t*>("\n--\n"), 4));
  }
  pass.digest = util::hex_encode(sha.finish());
  return pass;
}

constexpr std::size_t kWindowPasses = 5;

// Runs passes for `seconds` (at least `min_passes`), checking each.
std::vector<Pass> timed_passes(const simworld::WorldConfig& config,
                               double seconds, std::size_t min_passes,
                               Result& result, std::string& digest) {
  std::vector<Pass> passes;
  const std::int64_t begin = now_ns();
  while (passes.size() < min_passes ||
         (seconds_since(begin) < seconds && passes.size() < 200)) {
    const std::uint64_t steal0 = host_steal_ticks();
    Pass pass = survey_pass(config);
    pass.steal_ticks = host_steal_ticks() - steal0;
    ++result.attempted;
    if (digest.empty()) digest = pass.digest;
    if (!pass.round_trip_ok || pass.digest != digest) {
      ++result.failed;
      std::printf("pass %zu: %s\n", passes.size(),
                  pass.round_trip_ok ? "digest moved" : "archive round trip failed");
    }
    passes.push_back(std::move(pass));
  }
  return passes;
}

/// Wall times of the quiet passes (quiet_intervals()), in order.
std::vector<double> wall_times(const std::vector<Pass>& passes) {
  std::vector<std::uint64_t> steal;
  for (const Pass& p : passes) steal.push_back(p.steal_ticks);
  const std::vector<bool> quiet = quiet_intervals(steal, passes.size());
  std::vector<double> out;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    if (quiet[i]) out.push_back(passes[i].wall_s);
  }
  return out;
}

}  // namespace

Result run_survey(const Options& o) {
  Result result;
  const std::int64_t process_begin = now_ns();

  // Set-up: a warm-up pass over a world a tenth the size per repetition
  // (pool threads started, code and allocator warm). Its digest is
  // checked for repeatability like every other pass.
  const simworld::WorldConfig warm_config = survey_world(o, /*warm_up=*/true);
  std::vector<double> setup_times;
  std::string warm_digest;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const std::int64_t begin = rep == 0 ? process_begin : now_ns();
    const Pass warm = survey_pass(warm_config);
    setup_times.push_back(seconds_since(begin));
    ++result.attempted;
    if (warm_digest.empty()) warm_digest = warm.digest;
    if (!warm.round_trip_ok || warm.digest != warm_digest) ++result.failed;
  }
  result.set("setup_s", median(setup_times), "s");
  print_samples("setup s", setup_times);

  const simworld::WorldConfig config = survey_world(o, /*warm_up=*/false);
  std::string digest;
  const double phase = o.trace ? o.seconds / 2 : o.seconds;
  const std::vector<Pass> passes =
      timed_passes(config, phase, o.trace ? 1 : kWindowPasses, result, digest);
  const std::vector<double> walls = wall_times(passes);
  const double certs = static_cast<double>(passes.front().certs);
  result.set("ops_per_s", certs / median(walls), "1/s");
  result.set("latency_p50_us", median(walls) * 1e6, "us");
  // A pass is one sample, so the tail is taken over windows of
  // kWindowPasses consecutive passes: the median of each window's p99.
  std::vector<double> tails;
  for (std::size_t i = 0; i + kWindowPasses <= walls.size(); i += kWindowPasses) {
    tails.push_back(quantile({walls.begin() + static_cast<std::ptrdiff_t>(i),
                              walls.begin() + static_cast<std::ptrdiff_t>(i + kWindowPasses)},
                             0.99));
  }
  if (tails.empty()) tails.push_back(quantile(walls, 0.99));
  result.set("latency_p99_us", median(tails) * 1e6, "us");
  result.set("survey_s", median(walls), "s");
  std::vector<double> rss;
  for (const Pass& p : passes) rss.push_back(p.peak_rss_mb);
  result.set("peak_rss_mb", median(rss), "MB");
  result.set("passes", static_cast<double>(passes.size()), "count");
  print_samples("quiet pass s", walls);
  std::vector<std::uint64_t> steal;
  for (const Pass& p : passes) steal.push_back(p.steal_ticks);
  print_steal("pass", steal);
  std::printf("survey digest %s\n", digest.c_str());
  std::printf("survey world %zu certs, %zu observations, %zu passes\n",
              passes.front().certs, passes.front().observations,
              passes.size());
  if (!o.trace) return result;

  // Traced run: the same passes again with spans on.
  Tracer::get().set_enabled(true);
  const std::vector<Pass> traced = timed_passes(config, phase, 1, result, digest);
  Tracer::get().set_enabled(false);
  const std::vector<Span> spans = Tracer::get().collect();
  const std::vector<double> traced_walls = wall_times(traced);
  result.set("trace.overhead_pct",
             (median(traced_walls) / median(walls) - 1.0) * 100.0, "%");
  result.set("trace.spans", static_cast<double>(spans.size()), "count");

  const Pass& last = traced.back();
  std::vector<double> cpu;
  for (const Pass& p : traced) cpu.push_back(p.world_cpu_s);
  result.set("simworld.run_cpu_s", median(cpu), "s");
  result.set("pki.sig_checks", static_cast<double>(last.sig_checks), "count");
  result.set("pki.sig_memo_hits", static_cast<double>(last.sig_memo_hits),
             "count");
  result.set("scan.archive_mb", static_cast<double>(last.archive_bytes) / 1e6,
             "MB");
  result.set("scan.certs", static_cast<double>(last.certs), "count");
  result.set("scan.observations", static_cast<double>(last.observations),
             "count");
  result.set("linking.linked_certs", static_cast<double>(last.linked_certs),
             "count");

  // Where a pass's time goes: median per stage, as a share of the pass.
  struct Stage {
    const char* span;
    const char* metric;
  };
  constexpr Stage kStages[] = {
      {"simworld.run", "simworld.run_s"},
      {"scan.archive_save", "scan.archive_save_s"},
      {"scan.archive_load", "scan.archive_load_s"},
      {"corpus.spine_build", "corpus.spine_build_s"},
      {"report.render", "report.render_s"},
      {"linking.linker_build", "linking.linker_build_s"},
      {"linking.evaluate_fields", "linking.evaluate_fields_s"},
      {"linking.link_iteratively", "linking.link_iteratively_s"},
      {"tracking.tracker_build", "tracking.tracker_build_s"},
      {"tracking.analyses", "tracking.analyses_s"},
  };
  const double pass_s = median(span_durations(spans, "survey.pass", 1e-9));
  std::printf("traced pass breakdown (median of %zu passes, %.3f s):\n",
              traced.size(), pass_s);
  double covered = 0;
  for (const Stage& stage : kStages) {
    const double s = median(span_durations(spans, stage.span, 1e-9));
    covered += s;
    result.set(stage.metric, s, "s");
    std::printf("  %-28s %8.3f s  %5.1f%%\n", stage.span, s,
                100.0 * s / pass_s);
  }
  std::printf("  %-28s %8.3f s  %5.1f%%\n", "(survey.pass self)",
              pass_s - covered, 100.0 * (pass_s - covered) / pass_s);
  return result;
}

}  // namespace perfbench
