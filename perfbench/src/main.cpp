// perfbench — one process that builds a workload's inputs from a
// seed, sets the system up, drives it for a fixed time, checks every
// answer, and prints the metrics. run.py builds it and adds the machine
// context; see README.md for the workloads and metrics.
//
//   perfbench --workload survey|lookup|bulk|ingest --seed N --seconds S
//             --trace 0|1 [--tiny] [--threads N] [--trace-out FILE]
//
// The last line of stdout is the JSON result: with --trace 0 it carries
// the end-to-end metrics, with --trace 1 the per-layer ones. Exits 1,
// after printing it, when an answer was wrong or a count did not
// reconcile; 2 on a bad command line.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "util/thread_pool.h"

namespace perfbench {

void Result::inconsistent(const char* what) {
  std::printf("CHECK FAILED: %s\n", what);
  consistent = false;
}

std::vector<double> span_durations(const std::vector<Span>& spans,
                                   std::string_view name, double scale) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * scale);
    }
  }
  return out;
}

std::uint64_t host_steal_ticks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  return n == 8 ? v[7] : 0;
}

std::vector<bool> quiet_intervals(const std::vector<std::uint64_t>& steal,
                                  std::size_t n) {
  std::vector<bool> quiet(n, true);
  const std::size_t measured = std::min(n, steal.size());
  if (measured == 0) return quiet;
  std::vector<std::uint64_t> sorted(steal.begin(), steal.begin() + measured);
  std::sort(sorted.begin(), sorted.end());
  const std::uint64_t limit = sorted[(measured - 1) / 2];
  for (std::size_t i = 0; i < measured; ++i) quiet[i] = steal[i] <= limit;
  return quiet;
}

WindowSteal::WindowSteal(std::int64_t begin_ns)
    : thread_([this, begin_ns] {
        std::uint64_t last = host_steal_ticks();
        std::unique_lock lock(mu_);
        for (std::int64_t k = 1;; ++k) {
          const std::chrono::steady_clock::time_point due{
              std::chrono::nanoseconds(begin_ns + k * kWindowNs)};
          if (cv_.wait_until(lock, due, [this] { return stopped_; })) return;
          const std::uint64_t now = host_steal_ticks();
          per_window_.push_back(now - last);
          last = now;
        }
      }) {}

std::vector<std::uint64_t> WindowSteal::stop() {
  {
    std::lock_guard lock(mu_);
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  return per_window_;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
    {"latency_p99_us", "us"},
    {"peak_rss_mb", "MB"},
};

// Must match BENCHMARK.json. A layer a workload does not exercise
// reports 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"simworld.run_s", "s"},
    {"simworld.run_cpu_s", "s"},
    {"pki.sig_checks", "count"},
    {"pki.sig_memo_hits", "count"},
    {"scan.archive_save_s", "s"},
    {"scan.archive_load_s", "s"},
    {"scan.archive_mb", "MB"},
    {"scan.certs", "count"},
    {"scan.observations", "count"},
    {"corpus.spine_build_s", "s"},
    {"corpus.live.append_p50_ms", "ms"},
    {"corpus.live.delta_certs", "count"},
    {"report.render_s", "s"},
    {"linking.linker_build_s", "s"},
    {"linking.evaluate_fields_s", "s"},
    {"linking.link_iteratively_s", "s"},
    {"linking.linked_certs", "count"},
    {"tracking.tracker_build_s", "s"},
    {"tracking.analyses_s", "s"},
    {"notary.router.handle_p50_us", "us"},
    {"notary.router.handle_p99_us", "us"},
    {"notary.router.sub_batches_per_batch", "count"},
    {"notary.service.handle_p50_us", "us"},
    {"notary.service.handle_p99_us", "us"},
    {"notary.service.cache_hit_ratio", "ratio"},
    {"notary.service.queries", "count"},
    {"notary.service.revocation_queries", "count"},
    {"notary.service.batch_entries", "count"},
    {"notary.service.not_found", "count"},
    {"notary.index.build_p50_ms", "ms"},
    {"notary.service.publish_p50_us", "us"},
    {"notary.service.cache_invalidations", "count"},
    {"netio.server_frames", "count"},
    {"netio.send_syscalls_per_frame", "ratio"},
    {"netio.client_pool.requests", "count"},
    {"netio.client_pool.timeouts", "count"},
    {"netio.client_pool.reconnects", "count"},
    {"netio.front_p50_us", "us"},
    {"netio.hop_p50_us", "us"},
    {"loadgen.late_p99_us", "us"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload survey|lookup|bulk|ingest "
               "--seed N --seconds S --trace 0|1 [--tiny] [--threads N] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* flag, const char* text,
                        std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (*text == '\0' || *end != '\0' || errno != 0 || v > max ||
      text[0] == '-') {
    std::fprintf(stderr, "perfbench: bad value for %s: '%s'\n", flag,
                 text);
    std::exit(2);
  }
  return v;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = parse_u64("--seed", value(), ~std::uint64_t{0});
      have_seed = true;
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64("--seconds", value(), 60));
      if (o.seconds < 1) usage("--seconds must be at least 1");
      have_seconds = true;
    } else if (arg == "--trace") {
      o.trace = parse_u64("--trace", value(), 1) == 1;
      have_trace = true;
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--threads") {
      o.threads = parse_u64("--threads", value(), 256);
    } else if (arg == "--trace-out") {
      o.trace_out = value();
    } else {
      usage(("unknown option " + arg).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (o.threads == 0) {
    o.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return o;
}

bool correct(const Result& r) {
  return r.consistent && r.failed == 0 && r.attempted > 0;
}

void print_json(const Result& r, bool trace) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct(r) ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const auto emit = [&](const MetricSpec* specs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = r.metrics.find(specs[i].name);
      const double value = it == r.metrics.end() ? 0.0 : it->second.value;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", specs[i].name,
                  std::isfinite(value) ? value : 0.0, specs[i].unit);
    }
  };
  if (trace) {
    emit(kPerLayer, std::size(kPerLayer));
  } else {
    emit(kEndToEnd, std::size(kEndToEnd));
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  sm::util::ThreadPool::set_global_threads(options.threads);

  Result (*run)(const Options&) = nullptr;
  if (options.workload == "survey") run = run_survey;
  if (options.workload == "lookup") run = run_lookup;
  if (options.workload == "bulk") run = run_bulk;
  if (options.workload == "ingest") run = run_ingest;
  if (run == nullptr) usage(("unknown workload " + options.workload).c_str());

  std::printf("workload %s seed %llu seconds %.0f trace %d threads %zu "
              "world %s build %s compiler gcc %s\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.threads,
              options.tiny ? "tiny" : "full", PERFBENCH_BUILD_TYPE,
              __VERSION__);
  Result result = run(options);
  result.set("error_rate",
             result.attempted == 0
                 ? 1.0
                 : static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted),
             "ratio");

  for (const MetricSpec& spec : kEndToEnd) {
    if (result.metrics.count(spec.name) == 0) {
      result.inconsistent("an end-to-end metric was not measured");
    }
  }
  for (const auto& [name, metric] : result.metrics) {
    std::printf("metric %-40s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  if (options.trace && !options.trace_out.empty() &&
      !Tracer::get().write_tsv(options.trace_out)) {
    std::printf("could not write spans to %s\n", options.trace_out.c_str());
  }
  std::fflush(stdout);
  print_json(result, options.trace);
  return correct(result) ? 0 : 1;
}
