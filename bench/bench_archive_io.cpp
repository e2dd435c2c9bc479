// Archive I/O benchmark: SMAR v2 (framed + CRC32, sharded, parallel)
// save/load on a simulated-world archive, plus the streaming
// ArchiveReader path. Prints a size/time/RSS summary, then runs
// google-benchmark timings — the save/load benchmarks sweep the thread
// count (wall-clock, since the work runs on the pool) to show the
// parallel shard pipeline scaling.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <sstream>
#include <string>

#include <sys/resource.h>

#include "bench/common.h"
#include "scan/archive_io.h"
#include "util/thread_pool.h"

namespace {

using namespace sm;

const scan::ScanArchive& archive() { return bench::context().world.archive; }

std::string serialize() {
  std::stringstream out;
  scan::save_archive(archive(), out);
  return out.str();
}

long peak_rss_kib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

double timed_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

void report() {
  bench::print_banner("archive-io", "Archive save/load: SMAR v2 framed+CRC32");
  const std::string bytes = serialize();

  const double save_ms =
      timed_ms([&] { benchmark::DoNotOptimize(serialize()); });
  double load_ms = 0;
  {
    std::stringstream in(bytes);
    load_ms = timed_ms([&] {
      auto loaded = scan::load_archive(in);
      benchmark::DoNotOptimize(loaded);
    });
  }

  // Streaming pass (no ScanArchive materialized): the low-memory path.
  std::size_t streamed_obs = 0;
  double stream_ms = 0;
  {
    std::stringstream in(bytes);
    stream_ms = timed_ms([&] {
      scan::ArchiveReader reader(in);
      reader.for_each_scan([&](const scan::ScanData& scan) {
        streamed_obs += scan.observations.size();
      });
    });
  }

  std::printf("archive: %zu certs, %zu scans, %zu observations\n",
              archive().certs().size(), archive().scans().size(),
              archive().observation_count());
  std::printf("  bytes: %zu   save: %.1f ms   load: %.1f ms\n", bytes.size(),
              save_ms, load_ms);
  std::printf("  streaming scan pass: %.1f ms (%zu observations)\n",
              stream_ms, streamed_obs);

  // Intern throughput — the certificate-table hot path on every load.
  // FingerprintHash is a raw memcpy of the fingerprint's first 8 bytes:
  // the fingerprint is already uniform hash output, so no mixing step.
  std::size_t interned = 0;
  const double intern_ms = timed_ms([&] {
    scan::ScanArchive fresh;
    fresh.reserve_certs(archive().certs().size());
    for (const auto& record : archive().certs()) fresh.intern(record);
    interned = fresh.certs().size();
  });
  std::printf("  cert intern: %zu certs in %.1f ms (%.2fM certs/s, "
              "memcpy fingerprint hash)\n",
              interned, intern_ms,
              static_cast<double>(interned) / intern_ms / 1e3);
  std::printf("  peak RSS: %ld KiB\n\n", peak_rss_kib());
}

void BM_SaveV2(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  std::size_t size = 0;
  for (auto _ : state) {
    auto bytes = serialize();
    size = bytes.size();
    benchmark::DoNotOptimize(bytes);
  }
  // Inside the loop iterations() still reads 0, so set the rate after it.
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(size));
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_SaveV2)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_LoadV2(benchmark::State& state) {
  util::ThreadPool::set_global_threads(
      static_cast<std::size_t>(state.range(0)));
  const std::string bytes = serialize();
  for (auto _ : state) {
    std::stringstream in(bytes);
    auto loaded = scan::load_archive(in);
    benchmark::DoNotOptimize(loaded);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
  util::ThreadPool::set_global_threads(0);
}
BENCHMARK(BM_LoadV2)->Arg(1)->Arg(2)->Arg(8)->UseRealTime();

void BM_StreamScansV2(benchmark::State& state) {
  const std::string bytes = serialize();
  for (auto _ : state) {
    std::stringstream in(bytes);
    scan::ArchiveReader reader(in);
    std::size_t observations = 0;
    reader.for_each_scan([&](const scan::ScanData& scan) {
      observations += scan.observations.size();
    });
    benchmark::DoNotOptimize(observations);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_StreamScansV2);

void BM_ExportTsv(benchmark::State& state) {
  for (auto _ : state) {
    std::stringstream out;
    scan::export_tsv(archive(), out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_ExportTsv);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
