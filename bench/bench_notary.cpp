// Notary benchmark: NotaryIndex construction over the paper-scale corpus
// (thread sweep), in-process query throughput with the response cache on
// and off (single- and multi-threaded), and full loopback round-trips
// through the epoll server. Prints a summary, then runs google-benchmark
// timings.
//
// This binary links sm_alloc_hook (the counting operator new/delete
// replacement), so the query benchmarks can report allocs_per_query —
// the number the allocation-free hot path drives to zero — and the
// loopback benchmark reports send_syscalls_per_rtt from the server's
// vectored-write counter. scripts/bench_check.sh tracks both exactly.
#include <benchmark/benchmark.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "corpus/corpus_index.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/service.h"
#include "util/alloc_hook.h"
#include "util/thread_pool.h"

namespace {

using namespace sm;

const scan::ScanArchive& archive() { return bench::context().world.archive; }

// The corpus spine shared with every other consumer in the bench context.
const corpus::CorpusIndex& spine() { return bench::context().index.corpus(); }

const notary::NotaryIndex& shared_index() {
  static const notary::NotaryIndex index(spine());
  return index;
}

// Pre-encoded query payloads (16-byte fingerprints), one per cert, so the
// timed loops measure the service, not payload construction.
const std::vector<std::string>& query_payloads() {
  static const std::vector<std::string> payloads = [] {
    std::vector<std::string> out;
    out.reserve(archive().certs().size());
    for (const scan::CertRecord& cert : archive().certs()) {
      out.emplace_back(reinterpret_cast<const char*>(cert.fingerprint.data()),
                       cert.fingerprint.size());
    }
    return out;
  }();
  return payloads;
}

// Pre-encoded kQuery wire frames for the loopback benchmark.
const std::vector<std::string>& query_wires() {
  static const std::vector<std::string> wires = [] {
    std::vector<std::string> out;
    out.reserve(query_payloads().size());
    for (const std::string& payload : query_payloads()) {
      out.push_back(netio::encode_frame(netio::FrameType::kQuery, payload));
    }
    return out;
  }();
  return wires;
}

// Blocking loopback client (mirrors tools/sm_notaryd --bench).
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool round_trip(int fd, netio::FrameDecoder& decoder,
                const std::string& wire, netio::Frame& out) {
  std::string_view rest = wire;
  while (!rest.empty()) {
    const ssize_t n = ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    rest.remove_prefix(static_cast<std::size_t>(n));
  }
  for (;;) {
    if (decoder.next(out) == netio::DecodeStatus::kFrame) return true;
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return false;
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

void report() {
  bench::print_banner("notary",
                      "sm_notaryd: index build + query service throughput");
  const auto t0 = std::chrono::steady_clock::now();
  const notary::NotaryIndex& index = shared_index();
  const double build_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  std::printf("corpus: %zu certs, %zu scans, %zu observations\n",
              archive().certs().size(), archive().scans().size(),
              archive().observation_count());
  std::printf("index build (global pool): %.1f ms\n", build_ms);

  notary::NotaryServiceConfig config;
  config.cache_bytes = 64 << 20;
  notary::NotaryService service(index, config);
  const std::size_t n = index.size();
  std::string out;
  out.reserve(64 << 10);
  const auto q0 = std::chrono::steady_clock::now();
  for (std::size_t round = 0; round < 2; ++round) {
    for (scan::CertId id = 0; id < n; ++id) {
      out.clear();
      service.handle_into(netio::FrameType::kQuery, query_payloads()[id],
                          out);
      benchmark::DoNotOptimize(out.data());
    }
  }
  const double query_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - q0)
                             .count();
  // Allocation audit of the steady-state hit path.
  const std::uint64_t allocs_before = util::alloc_hook::thread_new_count();
  for (scan::CertId id = 0; id < n; ++id) {
    out.clear();
    service.handle_into(netio::FrameType::kQuery, query_payloads()[id], out);
    benchmark::DoNotOptimize(out.data());
  }
  const std::uint64_t hot_allocs =
      util::alloc_hook::thread_new_count() - allocs_before;
  const auto metrics = service.metrics();
  std::printf("in-process: %.0f queries/s (hit rate %s, p99 %.1f us)\n",
              static_cast<double>(2 * n) / query_s,
              util::percent(metrics.cache_hit_rate()).c_str(),
              metrics.latency.p99_us);
  std::printf("steady-state sweep: %" PRIu64
              " heap allocations across %zu cache-hit queries\n\n",
              hot_allocs, n);
}

void BM_NotaryIndexBuild(benchmark::State& state) {
  util::ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  notary::NotaryIndexOptions options;
  options.pool = &pool;
  for (auto _ : state) {
    notary::NotaryIndex index(spine(), options);
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(archive().certs().size()));
}
BENCHMARK(BM_NotaryIndexBuild)->Arg(1)->Arg(2)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// One handler thread, cache off vs on (service recreated per run so the
// cache starts cold but warms within the first sweep). Renders into a
// reused output buffer through the zero-copy entry point; the
// allocs_per_query counter reaches 0 once the cache is warm.
void BM_NotaryQuery(benchmark::State& state) {
  const notary::NotaryIndex& index = shared_index();
  notary::NotaryServiceConfig config;
  config.cache_bytes =
      state.range(0) == 0 ? 0 : static_cast<std::size_t>(64) << 20;
  notary::NotaryService service(index, config);
  const std::size_t n = index.size();
  std::string out;
  out.reserve(64 << 10);
  scan::CertId id = 0;
  const std::uint64_t allocs_before = util::alloc_hook::thread_new_count();
  for (auto _ : state) {
    out.clear();
    service.handle_into(netio::FrameType::kQuery, query_payloads()[id], out);
    benchmark::DoNotOptimize(out.data());
    id = (id + 1) % n;
  }
  const std::uint64_t allocs =
      util::alloc_hook::thread_new_count() - allocs_before;
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_query"] = benchmark::Counter(
      static_cast<double>(allocs), benchmark::Counter::kAvgIterations);
  state.SetLabel(state.range(0) == 0 ? "cache-off" : "cache-on");
}
BENCHMARK(BM_NotaryQuery)->Arg(0)->Arg(1);

// Shared service hammered by `threads` handler threads (the contention
// shape the epoll workers produce).
void BM_NotaryQueryParallel(benchmark::State& state) {
  static notary::NotaryService* service = [] {
    notary::NotaryServiceConfig config;
    config.cache_bytes = 64 << 20;
    return new notary::NotaryService(shared_index(), config);
  }();
  const std::size_t n = shared_index().size();
  scan::CertId id =
      static_cast<scan::CertId>(state.thread_index() * 131 % n);
  std::string out;
  out.reserve(64 << 10);
  for (auto _ : state) {
    out.clear();
    service->handle_into(netio::FrameType::kQuery, query_payloads()[id],
                         out);
    benchmark::DoNotOptimize(out.data());
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NotaryQueryParallel)->Threads(1)->Threads(2)->Threads(8);

// Full loopback round-trip: framing, epoll, kernel TCP, and the service.
// Requests are pre-encoded wire frames; the server renders through the
// stream handler straight into its output buffer and flushes with
// vectored sendmsg (send_syscalls_per_rtt tracks the flush count).
void BM_NotaryLoopbackRoundTrip(benchmark::State& state) {
  const notary::NotaryIndex& index = shared_index();
  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = 64 << 20;
  notary::NotaryService service(index, service_config);
  netio::ServerConfig server_config;
  server_config.workers = static_cast<std::size_t>(state.range(0));
  netio::TcpServer server(
      server_config,
      [&service](netio::FrameType type, std::string_view payload,
                 std::string& out) {
        service.handle_into(type, payload, out);
      });
  if (!server.start()) {
    state.SkipWithError("server start failed");
    return;
  }
  const int fd = connect_loopback(server.port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    return;
  }
  netio::FrameDecoder decoder;
  netio::Frame response;
  const std::size_t n = index.size();
  scan::CertId id = 0;
  for (auto _ : state) {
    if (!round_trip(fd, decoder, query_wires()[id], response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
    id = (id + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
  const netio::ServerCounters counters = server.counters();
  state.counters["send_syscalls_per_rtt"] = benchmark::Counter(
      static_cast<double>(counters.send_syscalls),
      benchmark::Counter::kAvgIterations);
  ::close(fd);
  server.shutdown();
}
BENCHMARK(BM_NotaryLoopbackRoundTrip)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMicrosecond);

// Batched loopback: one kBatchQuery frame carrying `batch` fingerprints
// per round trip. Amortizing the syscall pair across the batch is where
// the pipelined protocol earns its keep; items == fingerprints answered.
void BM_NotaryLoopbackBatch(benchmark::State& state) {
  const notary::NotaryIndex& index = shared_index();
  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = 64 << 20;
  notary::NotaryService service(index, service_config);
  netio::ServerConfig server_config;
  server_config.workers = 1;
  netio::TcpServer server(
      server_config,
      [&service](netio::FrameType type, std::string_view payload,
                 std::string& out) {
        service.handle_into(type, payload, out);
      });
  if (!server.start()) {
    state.SkipWithError("server start failed");
    return;
  }
  const int fd = connect_loopback(server.port());
  if (fd < 0) {
    state.SkipWithError("connect failed");
    return;
  }
  const auto batch = static_cast<std::size_t>(state.range(0));
  const std::size_t n = index.size();
  // Pre-encode a rotation of batch request frames.
  std::vector<std::string> wires;
  for (std::size_t w = 0; w < 8; ++w) {
    std::vector<scan::CertFingerprint> fps;
    for (std::size_t i = 0; i < batch; ++i) {
      fps.push_back(archive().cert((w * batch + i) % n).fingerprint);
    }
    wires.push_back(netio::encode_frame(netio::FrameType::kBatchQuery,
                                        notary::encode_batch_query(fps)));
  }
  netio::FrameDecoder decoder(32u << 20);
  netio::Frame response;
  std::size_t w = 0;
  for (auto _ : state) {
    if (!round_trip(fd, decoder, wires[w], response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
    w = (w + 1) % wires.size();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
  ::close(fd);
  server.shutdown();
}
BENCHMARK(BM_NotaryLoopbackBatch)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
