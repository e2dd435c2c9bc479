// Resharding benchmark: a live two-shard deployment (LiveCorpus-backed
// backends with ReshardHost behind RouterService, in-process over real
// loopback TCP) splits one shard into two while a client hammers the
// router. Prints the handoff phase timings — the headline being the
// cutover blackout: the map-swap round trip during which the new epoch
// takes effect (RCU swap, so queries never stop flowing) — then runs
// google-benchmark timings of the reshard kernels.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "netio/frame.h"
#include "netio/frame_client.h"
#include "netio/server.h"
#include "notary/index.h"
#include "notary/prefix_map.h"
#include "notary/reshard.h"
#include "notary/router.h"
#include "notary/service.h"
#include "scan/archive_io.h"

namespace {

using namespace sm;

const scan::ScanArchive& archive() { return bench::context().world.archive; }

std::string fp_payload(const scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One in-process live backend: the sm_notaryd --shard-prefix / --empty
// shape (LiveCorpus + NotaryService + ReshardHost behind a TcpServer).
struct LiveBackend {
  std::optional<corpus::LiveCorpus> live;
  std::optional<notary::NotaryService> service;
  std::optional<notary::ReshardHost> reshard;
  std::optional<netio::TcpServer> server;
  std::uint16_t port = 0;

  void start(scan::ScanArchive slice, corpus::RevocationStatusMap statuses,
             corpus::KeyCountMap key_counts) {
    live.emplace(std::move(slice), &bench::context().world.routing, nullptr,
                 std::move(statuses), std::move(key_counts));
    const auto snap = live->snapshot();
    notary::NotaryIndexOptions options;
    if (snap->key_counts) options.key_counts = snap->key_counts.get();
    if (snap->statuses) {
      options.revocation_statuses = snap->statuses.get();
    }
    notary::NotaryServiceConfig config;
    config.cache_bytes = 8u << 20;
    service.emplace(
        std::make_shared<const notary::NotaryIndex>(*snap->spine, options),
        config);
    reshard.emplace(*live, *service);
    netio::ServerConfig server_config;
    server_config.workers = 2;
    server.emplace(server_config,
                   [this](netio::FrameType type, std::string_view payload,
                          std::string& out) {
                     if (!reshard->handle(type, payload, out)) {
                       service->handle_into(type, payload, out);
                     }
                   });
    if (!server->start()) std::abort();
    port = server->port();
  }
};

std::string slice_send_payload(std::uint8_t lo, std::uint8_t hi,
                               std::uint16_t target) {
  const std::string host = "127.0.0.1";
  std::string payload;
  payload.push_back(static_cast<char>(lo));
  payload.push_back(static_cast<char>(hi));
  payload.push_back(static_cast<char>(target & 0xff));
  payload.push_back(static_cast<char>(target >> 8));
  payload.push_back(static_cast<char>(host.size()));
  payload += host;
  return payload;
}

netio::Frame ask(std::uint16_t port, netio::FrameType type,
                 std::string_view payload) {
  netio::FrameClient client;
  netio::Frame response;
  if (!client.connect({"127.0.0.1", port}) ||
      !client.call(type, payload, response)) {
    std::abort();
  }
  return response;
}

// The printed experiment: split [c0-ff] off the upper shard onto a fresh
// successor while queries flow, reporting per-phase wall times.
void report() {
  bench::print_banner("reshard",
                      "online resharding: live slice handoff timings");

  const scan::ScanArchive& full = archive();
  corpus::KeyCountMap key_counts;
  for (const scan::CertRecord& cert : full.certs()) {
    ++key_counts[cert.key_fingerprint];
  }
  const corpus::RevocationStatusMap& statuses =
      bench::context().world.revocation.statuses;

  LiveBackend lower, upper, successor;
  lower.start(corpus::extract_prefix_slice(full, 0, 127), statuses,
              key_counts);
  upper.start(corpus::extract_prefix_slice(full, 128, 255), statuses,
              key_counts);
  successor.start(scan::ScanArchive{}, {}, {});

  notary::RouterConfig router_config;
  router_config.shards.push_back({{{"127.0.0.1", lower.port}}});
  router_config.shards.push_back({{{"127.0.0.1", upper.port}}});
  router_config.pool.ping_interval_ms = 50;
  notary::RouterService router(std::move(router_config));
  netio::ServerConfig server_config;
  server_config.workers = 4;
  netio::TcpServer router_server(
      server_config, [&router](netio::FrameType type,
                               std::string_view payload, std::string& out) {
        router.handle_into(type, payload, out);
      });
  if (!router_server.start()) std::abort();

  std::vector<scan::CertFingerprint> probes;
  for (const scan::CertRecord& cert : full.certs()) {
    probes.push_back(cert.fingerprint);
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> failed{0};
  std::thread load([&] {
    netio::FrameClient client;
    if (!client.connect({"127.0.0.1", router_server.port()})) return;
    netio::Frame response;
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (!client.call(netio::FrameType::kQuery,
                       fp_payload(probes[i++ % probes.size()]), response) ||
          response.type != netio::FrameType::kCertInfo) {
        failed.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      served.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Let the load reach steady state before the handoff starts.
  while (served.load(std::memory_order_relaxed) < 500) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const auto handoff_start = std::chrono::steady_clock::now();
  auto phase_start = handoff_start;
  const netio::Frame streamed =
      ask(upper.port, netio::FrameType::kSliceSend,
          slice_send_payload(192, 255, successor.port));
  if (streamed.type != netio::FrameType::kSliceInfo) std::abort();
  const double stream_s = seconds_since(phase_start);

  notary::PrefixMap next = router.current_map();
  std::string error;
  if (!notary::split_prefix_map_entry(
          next, 1, {{"127.0.0.1", successor.port}}, error)) {
    std::abort();
  }
  phase_start = std::chrono::steady_clock::now();
  const netio::Frame swapped =
      ask(router_server.port(), netio::FrameType::kMapUpdate,
          notary::serialize_prefix_map(next));
  if (swapped.type != netio::FrameType::kMapInfo) std::abort();
  const double blackout_s = seconds_since(phase_start);

  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // drain
  phase_start = std::chrono::steady_clock::now();
  const netio::Frame retired =
      ask(upper.port, netio::FrameType::kSliceRetire, "\xc0\xff");
  if (retired.type != netio::FrameType::kSliceInfo) std::abort();
  const double retire_s = seconds_since(phase_start);
  const double total_s = seconds_since(handoff_start);

  stop.store(true, std::memory_order_relaxed);
  load.join();

  const std::size_t moved =
      corpus::extract_prefix_slice(full, 192, 255).certs().size();
  std::printf("  certificates moved     %zu of %zu\n", moved,
              full.certs().size());
  std::printf("  slice stream + merge   %9.3f s\n", stream_s);
  std::printf("  cutover blackout       %9.6f s (map swap to epoch %llu)\n",
              blackout_s,
              static_cast<unsigned long long>(router.map_epoch()));
  std::printf("  source slice retire    %9.3f s (after 0.100 s drain)\n",
              retire_s);
  std::printf("  handoff total          %9.3f s\n", total_s);
  std::printf("  queries during handoff %llu served, %llu failed\n",
              static_cast<unsigned long long>(served.load()),
              static_cast<unsigned long long>(failed.load()));
  if (failed.load() != 0 || blackout_s >= 1.0) std::abort();

  router_server.shutdown();
  lower.server->shutdown();
  upper.server->shutdown();
  successor.server->shutdown();
}

// ---- kernels -------------------------------------------------------------

// The cutover blackout kernel: validate + compile + RCU-swap a new map
// on a standalone RouterService (no sockets — the swap itself).
void BM_RouterMapSwap(benchmark::State& state) {
  notary::RouterConfig config;
  config.shards.push_back({{{"127.0.0.1", 19301}}});
  config.shards.push_back({{{"127.0.0.1", 19302}}});
  config.pool.ping_interval_ms = 0;
  notary::RouterService router(std::move(config));
  notary::PrefixMap map = router.current_map();
  std::string error;
  for (auto _ : state) {
    ++map.epoch;
    if (!router.apply_map(map, error)) std::abort();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterMapSwap)->Unit(benchmark::kMicrosecond);

// Map wire codec at the 256-entry ceiling (every first byte its own
// entry) — the worst case a router or driver ever moves.
void BM_PrefixMapRoundTrip(benchmark::State& state) {
  notary::PrefixMap map;
  map.epoch = 7;
  for (unsigned b = 0; b < 256; ++b) {
    map.entries.push_back(
        {static_cast<std::uint8_t>(b), static_cast<std::uint8_t>(b),
         {{"127.0.0.1", static_cast<std::uint16_t>(10000 + b)}}});
  }
  for (auto _ : state) {
    const std::string wire = notary::serialize_prefix_map(map);
    notary::PrefixMap parsed;
    std::string error;
    if (!notary::parse_prefix_map(wire, parsed, error)) std::abort();
    benchmark::DoNotOptimize(parsed);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixMapRoundTrip)->Unit(benchmark::kMicrosecond);

// Snapshotting a quarter-range slice out of the full archive — the
// per-round cost a source backend pays while streaming to a successor.
void BM_SliceExtract(benchmark::State& state) {
  const scan::ScanArchive& full = archive();
  for (auto _ : state) {
    const scan::ScanArchive slice =
        corpus::extract_prefix_slice(full, 192, 255);
    benchmark::DoNotOptimize(slice.certs().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SliceExtract)->Unit(benchmark::kMillisecond);

// Serialize + merge a quarter slice into a fresh successor corpus — the
// receiving side of one catch-up round.
void BM_SliceMerge(benchmark::State& state) {
  corpus::KeyCountMap key_counts;
  for (const scan::CertRecord& cert : archive().certs()) {
    ++key_counts[cert.key_fingerprint];
  }
  std::ostringstream smar;
  if (!scan::save_archive(corpus::extract_prefix_slice(archive(), 192, 255),
                          smar)) {
    std::abort();
  }
  const std::string wire = smar.str();
  for (auto _ : state) {
    corpus::LiveCorpus successor(scan::ScanArchive{},
                                 &bench::context().world.routing);
    std::istringstream in(wire);
    const corpus::AppendResult result =
        successor.merge_slice(in, &key_counts, nullptr);
    if (!result.ok) std::abort();
    benchmark::DoNotOptimize(result.new_certs);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SliceMerge)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
