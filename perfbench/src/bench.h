// Shared pieces of the end-to-end benchmark: options, the result
// every workload fills in, and the timing helpers they share.
#pragma once

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// WorldConfig::tiny()-sized inputs (the smoke test); the measured
  /// workloads use the sizes documented in README.md.
  bool tiny = false;
  /// Worker threads for the library's global pool (default nproc); the
  /// client connections follow from it (see serving.cpp).
  std::size_t threads = 0;
  /// Where the traced run writes its spans ("" = not written).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one workload run reports.
struct Result {
  /// Operations checked, and those that failed or answered wrong.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when a check outside the per-operation ones failed (a traffic
  /// count that does not reconcile, a digest that moved).
  bool consistent = true;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void inconsistent(const char* what);
};

Result run_survey(const Options& options);
Result run_lookup(const Options& options);
Result run_bulk(const Options& options);
Result run_ingest(const Options& options);

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupRepetitions = 3;

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Returns free heap to the kernel, then resets the kernel's high-water
/// RSS mark to the current RSS, so that peak_rss_mb() reports the peak of
/// what runs next over the live data only. False when the kernel refuses
/// (the peak then covers the whole process).
inline bool reset_peak_rss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// High-water RSS in MiB: VmHWM, falling back to getrusage.
inline double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f)) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// CPU time the hypervisor has taken from this machine's CPUs so far
/// (the "steal" column of /proc/stat), in clock ticks; 0 where the
/// kernel does not report it.
std::uint64_t host_steal_ticks();

/// Which of a run's intervals (windows of samples, survey passes, ingest
/// cycles) its figures are taken over: those with no more host steal
/// than the median interval, so at least half of them. Steal comes in
/// bursts that are no property of the program under test; a burst over
/// part of a run then moves none of the run's figures, while a change in
/// the program moves every interval alike. Intervals past the end of
/// `steal` (no reading) are kept.
std::vector<bool> quiet_intervals(const std::vector<std::uint64_t>& steal,
                                  std::size_t n);

/// Reads host_steal_ticks() at every window boundary (kWindowNs) of a
/// phase that began at `begin_ns`, on a thread of its own, until stop().
class WindowSteal {
 public:
  explicit WindowSteal(std::int64_t begin_ns);
  ~WindowSteal() { stop(); }
  WindowSteal(const WindowSteal&) = delete;
  WindowSteal& operator=(const WindowSteal&) = delete;

  /// Stops sampling; returns the steal of every window that ended.
  std::vector<std::uint64_t> stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::vector<std::uint64_t> per_window_;
  std::thread thread_;
};

inline void print_samples(const char* label, const std::vector<double>& values) {
  std::printf("%s:", label);
  for (double v : values) std::printf(" %.4f", v);
  std::printf("\n");
}

/// One timed request (or batch frame): when it completed, relative to
/// the start of its phase, how long it took, and the lookups it carried.
struct Sample {
  std::int64_t at_ns = 0;
  double latency_us = 0;
  std::uint32_t lookups = 0;
};

/// Short enough that a burst of host steal spoils few windows.
inline constexpr std::int64_t kWindowNs = 250'000'000;

/// Splits samples into windows of kWindowNs by completion time (the last,
/// partial window is dropped unless it is the only one).
inline std::vector<std::vector<const Sample*>> windows(
    const std::vector<Sample>& samples) {
  std::vector<std::vector<const Sample*>> out;
  std::int64_t end = 0;
  for (const Sample& s : samples) end = std::max(end, s.at_ns);
  const auto full = static_cast<std::size_t>(end / kWindowNs);
  out.resize(std::max<std::size_t>(1, full));
  for (const Sample& s : samples) {
    const auto w = static_cast<std::size_t>(s.at_ns / kWindowNs);
    if (w < out.size()) out[w].push_back(&s);
  }
  return out;
}

/// Median over the quiet windows (quiet_intervals() of
/// `steal`) of each window's latency quantile: a stall confined to one
/// window moves one window, not the figure.
inline double windowed_latency(const std::vector<Sample>& samples,
                               const std::vector<std::uint64_t>& steal, double q) {
  std::vector<double> per_window;
  const auto all = windows(samples);
  const std::vector<bool> quiet = quiet_intervals(steal, all.size());
  for (std::size_t w = 0; w < all.size(); ++w) {
    const auto& window = all[w];
    if (!quiet[w]) continue;
    std::vector<double> latencies;
    for (const Sample* s : window) latencies.push_back(s->latency_us);
    if (!latencies.empty()) per_window.push_back(quantile(latencies, q));
  }
  return median(per_window);
}

/// Median over the quiet windows of the lookups completed per second.
inline double windowed_rate(const std::vector<Sample>& samples,
                            const std::vector<std::uint64_t>& steal) {
  const auto all = windows(samples);
  if (all.size() == 1) {  // shorter than one window: the whole phase
    double lookups = 0;
    std::int64_t end = 1;
    for (const Sample& s : samples) {
      lookups += s.lookups;
      end = std::max(end, s.at_ns);
    }
    return lookups * 1e9 / static_cast<double>(end);
  }
  std::vector<double> per_window;
  const std::vector<bool> quiet = quiet_intervals(steal, all.size());
  for (std::size_t w = 0; w < all.size(); ++w) {
    if (!quiet[w]) continue;
    double lookups = 0;
    for (const Sample* s : all[w]) lookups += s->lookups;
    per_window.push_back(lookups * 1e9 / static_cast<double>(kWindowNs));
  }
  return median(per_window);
}

/// One line with the host steal of each interval, and how many of them
/// the figures were taken over.
inline void print_steal(const char* interval, const std::vector<std::uint64_t>& steal) {
  const std::vector<bool> quiet = quiet_intervals(steal, steal.size());
  std::printf("host steal ticks per %s:", interval);
  for (std::uint64_t t : steal) std::printf(" %llu", static_cast<unsigned long long>(t));
  std::printf(" (figures over %zu of %zu)\n",
              static_cast<std::size_t>(std::count(quiet.begin(), quiet.end(), true)),
              steal.size());
}

/// One line with a latency sample's shape.
inline void print_latency(const char* label, const std::vector<Sample>& samples) {
  std::vector<double> us;
  for (const Sample& s : samples) us.push_back(s.latency_us);
  std::printf("%s: n %zu p50 %.1f p90 %.1f p99 %.1f p99.9 %.1f max %.1f us\n",
              label, us.size(), quantile(us, 0.5), quantile(us, 0.9),
              quantile(us, 0.99), quantile(us, 0.999), quantile(us, 1.0));
}

/// A stopwatch that can be paused around work that is not being
/// measured (oracle construction inside a set-up repetition).
class Stopwatch {
 public:
  Stopwatch() : start_(now_ns()) {}
  void pause() { paused_at_ = now_ns(); }
  void resume() { excluded_ += now_ns() - paused_at_; }
  double seconds() const {
    return static_cast<double>(now_ns() - start_ - excluded_) * 1e-9;
  }

 private:
  std::int64_t start_;
  std::int64_t paused_at_ = 0;
  std::int64_t excluded_ = 0;
};

/// Spans of one name, as durations in the unit's scale.
std::vector<double> span_durations(const std::vector<Span>& spans,
                                   std::string_view name, double scale);

}  // namespace perfbench
