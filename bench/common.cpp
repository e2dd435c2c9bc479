#include "bench/common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "tools/flags.h"
#include "util/thread_pool.h"

namespace sm::bench {

Context::Context()
    : world(simworld::World(simworld::WorldConfig::paper()).run()),
      index(world.archive, world.routing),
      linker(index),
      linked(linker.link_iteratively()) {}

const Context& context() {
  // The statics initialize in order on first use, so `begin` brackets the
  // Context build and the message fires exactly once.
  static const auto begin = std::chrono::steady_clock::now();
  static const Context ctx;
  static const bool logged = [] {
    std::fprintf(stderr,
                 "bench context (paper world + index + linking): %.2fs on "
                 "%zu threads\n",
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - begin)
                     .count(),
                 util::ThreadPool::global_thread_count());
    return true;
  }();
  (void)logged;
  return ctx;
}

void configure_threads(int* argc, char** argv) {
  constexpr std::uint64_t kMaxThreads = 4096;
  std::size_t threads = 0;  // 0 = hardware default
  bool configured = false;
  if (const char* env = std::getenv("SM_THREADS")) {
    threads = tools::parse_u64_or_die("SM_THREADS", env, kMaxThreads);
    configured = true;
  }
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < *argc) {
      threads = tools::parse_u64_or_die("--threads", argv[++i], kMaxThreads);
      configured = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = tools::parse_u64_or_die("--threads", argv[i] + 10, kMaxThreads);
      configured = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  if (configured) sm::util::ThreadPool::set_global_threads(threads);
}

void print_banner(const std::string& experiment, const std::string& title) {
  std::printf("\n=== %s — %s ===\n", experiment.c_str(), title.c_str());
  std::printf(
      "(simulated world: %zu devices + %zu websites, %zu scans; shapes are\n"
      " the reproduction target, not absolute counts)\n\n",
      context().world.true_device_count, context().world.true_website_count,
      context().world.archive.scans().size());
}

Comparison::Comparison()
    : table_({"metric", "paper", "measured"}) {}

void Comparison::add(const std::string& metric, const std::string& paper,
                     const std::string& measured) {
  table_.add_row({metric, paper, measured});
}

void Comparison::add(const std::string& metric, double paper, double measured,
                     int precision) {
  table_.add_row({metric, num(paper, precision), num(measured, precision)});
}

void Comparison::print() const {
  std::fputs(table_.str().c_str(), stdout);
  std::fputc('\n', stdout);
}

void print_curve(const std::string& x_label, const std::string& y_label,
                 const std::vector<std::pair<double, double>>& points,
                 std::size_t max_rows) {
  util::TextTable table({x_label, y_label});
  const std::size_t step =
      points.empty() ? 1 : std::max<std::size_t>(1, points.size() / max_rows);
  for (std::size_t i = 0; i < points.size(); i += step) {
    table.add_row({num(points[i].first, 2), num(points[i].second, 3)});
  }
  if (!points.empty() && (points.size() - 1) % step != 0) {
    table.add_row(
        {num(points.back().first, 2), num(points.back().second, 3)});
  }
  std::fputs(table.str().c_str(), stdout);
  std::fputc('\n', stdout);
}

std::string num(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace sm::bench
