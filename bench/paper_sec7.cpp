// Section 7 of the paper, tracking end-user devices: trackability and
// movement (§7.2-7.3) and IP reassignment per AS (Figure 11, §7.4).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"
#include "bench/paper.h"
#include "tracking/tracker.h"

namespace sm::bench {
namespace {

// §7: tracking end-user devices. Paper: 5.59M devices trackable without
// linking, 6.75M with (+17.2%); 718K devices change AS at least once with
// 69.7% moving exactly once; bulk prefix-transfer movements (Verizon ->
// MCI) are visible; 45K devices cross countries.
void report_sec7() {
  sm::bench::print_banner("Section 7", "tracking end-user devices");
  const sm::tracking::DeviceTracker tracker(
      context().index, context().linker, context().linked,
      context().world.as_db);
  const auto summary = tracker.summary();
  const auto movement = tracker.movement();

  sm::bench::Comparison cmp;
  cmp.add("trackable without linking", "5,585,965 (scaled)",
          std::to_string(summary.trackable_without_linking));
  cmp.add("trackable with linking", "6,750,744 (scaled)",
          std::to_string(summary.trackable_with_linking));
  cmp.add("improvement", "+17.2%",
          "+" + sm::util::percent(summary.improvement()));
  cmp.add("devices changing AS at least once", "718,495 (scaled)",
          std::to_string(movement.devices_with_as_change));
  cmp.add("mover fraction of tracked", "10.6%",
          sm::util::percent(
              static_cast<double>(movement.devices_with_as_change) /
              static_cast<double>(movement.tracked_devices)));
  cmp.add("total AS transitions", "1,328,223 (scaled)",
          std::to_string(movement.total_as_transitions));
  cmp.add("movers with exactly one move", "69.7%",
          sm::util::percent(movement.single_move_fraction));
  cmp.add("max moves by one device", "> 100 (mobile)",
          std::to_string(movement.max_moves));
  cmp.add("devices crossing countries", "45,450 (scaled)",
          std::to_string(movement.devices_crossing_countries));
  cmp.print();

  std::puts("bulk AS-to-AS movements (paper: Verizon -> MCI twice, AT&T):");
  sm::util::TextTable table({"scan", "from", "to", "devices"});
  for (const auto& transfer : movement.bulk_transfers) {
    table.add_row({std::to_string(transfer.scan),
                   context().world.as_db.label(transfer.from),
                   context().world.as_db.label(transfer.to),
                   std::to_string(transfer.devices)});
  }
  std::fputs(table.str().c_str(), stdout);
}

void BM_Movement(benchmark::State& state) {
  const sm::tracking::DeviceTracker tracker(
      context().index, context().linker, context().linked,
      context().world.as_db);
  for (auto _ : state) {
    auto movement = tracker.movement();
    benchmark::DoNotOptimize(movement);
  }
}
BENCHMARK(BM_Movement);

void BM_Summary(benchmark::State& state) {
  const sm::tracking::DeviceTracker tracker(
      context().index, context().linker, context().linked,
      context().world.as_db);
  for (auto _ : state) {
    auto summary = tracker.summary();
    benchmark::DoNotOptimize(summary);
  }
}
BENCHMARK(BM_Summary);

// Figure 11 / §7.4: the distribution over ASes of the fraction of tracked
// devices with statically-assigned IPs. Paper: 56.3% of ASes are >= 90%
// static (Comcast, AT&T cited), while a small set (Deutsche Telekom,
// Telefonica Venezolana, Tim Celular, BSES) reassigns most devices between
// every scan.
void report_fig11() {
  sm::bench::print_banner("Figure 11",
                          "per-AS fraction of statically-assigned devices");
  const sm::tracking::DeviceTracker tracker(
      context().index, context().linker, context().linked,
      context().world.as_db);
  const auto stats = tracker.reassignment();

  sm::bench::Comparison cmp;
  cmp.add("ASes analysed (>= 10 tracked devices)", "4,467 (scaled)",
          std::to_string(stats.per_as.size()));
  cmp.add("ASes >= 90% static", "56.3%",
          stats.per_as.empty()
              ? "n/a"
              : sm::util::percent(static_cast<double>(stats.ases_90pct_static) /
                                  static_cast<double>(stats.per_as.size())));
  cmp.add("highly dynamic ASes (>=75% change every scan)", "15 (scaled)",
          std::to_string(stats.most_dynamic.size()));
  cmp.print();

  std::puts("static-fraction CDF over ASes:");
  sm::bench::print_curve("static frac", "F(x)",
                         stats.static_fraction_cdf.curve(10));

  std::puts("most dynamic ASes (paper: DT 76.3%, Telefonica VEN 99.6%, ...):");
  sm::util::TextTable table({"AS", "devices", "change-every-scan"});
  for (const auto& as_stats : stats.most_dynamic) {
    table.add_row({context().world.as_db.label(as_stats.asn),
                   std::to_string(as_stats.tracked_devices),
                   sm::util::percent(as_stats.always_changing_fraction())});
  }
  std::fputs(table.str().c_str(), stdout);

  std::puts("\nexample static-heavy ASes (paper: Comcast 90%, AT&T 88.9%):");
  sm::util::TextTable table2({"AS", "devices", "static"});
  for (const auto& as_stats : stats.per_as) {
    if (as_stats.asn == 7922 || as_stats.asn == 7018 ||
        as_stats.asn == 3320) {
      table2.add_row({context().world.as_db.label(as_stats.asn),
                      std::to_string(as_stats.tracked_devices),
                      sm::util::percent(as_stats.static_fraction())});
    }
  }
  std::fputs(table2.str().c_str(), stdout);
}

void BM_Reassignment(benchmark::State& state) {
  const sm::tracking::DeviceTracker tracker(
      context().index, context().linker, context().linked,
      context().world.as_db);
  for (auto _ : state) {
    auto stats = tracker.reassignment();
    benchmark::DoNotOptimize(stats);
  }
}
BENCHMARK(BM_Reassignment);

void BM_TrackerBuild(benchmark::State& state) {
  for (auto _ : state) {
    sm::tracking::DeviceTracker tracker(context().index, context().linker,
                                        context().linked,
                                        context().world.as_db);
    benchmark::DoNotOptimize(tracker);
  }
}
BENCHMARK(BM_TrackerBuild);

}  // namespace

void report_section7() {
  report_sec7();
  report_fig11();
}

}  // namespace sm::bench
