// Router benchmark: a four-shard sm_notaryd deployment (prefix-sliced
// backends behind RouterService, all in-process over real loopback TCP)
// hammered with single queries, batched queries, a many-connection
// sweep, and Zipf-popularity traffic. Prints a summary including the
// batch-32 vs single-query amplification, then runs google-benchmark
// timings. Clients are netio::FrameClient connections; the end-to-end
// numbers with per-layer breakdowns come from perfbench's lookup and
// bulk workloads (perfbench/README.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "netio/frame.h"
#include "netio/frame_client.h"
#include "netio/server.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/router.h"
#include "notary/service.h"

namespace {

using namespace sm;

constexpr std::size_t kShardCount = 4;

const scan::ScanArchive& archive() { return bench::context().world.archive; }

// One in-process backend: the --shard-prefix sm_notaryd shape.
struct Backend {
  scan::ScanArchive slice;
  std::optional<corpus::CorpusIndex> spine;
  std::optional<notary::NotaryIndex> index;
  std::optional<notary::NotaryService> service;
  std::optional<netio::TcpServer> server;
};

// The routed deployment every benchmark talks to; built once.
struct Deployment {
  std::unordered_map<scan::KeyFingerprint, std::uint32_t> key_counts;
  std::array<Backend, kShardCount> backends;
  std::optional<notary::RouterService> router;
  std::optional<netio::TcpServer> router_server;
  std::vector<scan::CertFingerprint> fingerprints;

  Deployment() {
    const scan::ScanArchive& full = archive();
    key_counts.reserve(full.certs().size());
    for (const scan::CertRecord& cert : full.certs()) {
      ++key_counts[cert.key_fingerprint];
      fingerprints.push_back(cert.fingerprint);
    }
    notary::RouterConfig router_config;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      Backend& backend = backends[s];
      const auto lo = static_cast<std::uint8_t>(s * 256 / kShardCount);
      const auto hi =
          static_cast<std::uint8_t>((s + 1) * 256 / kShardCount - 1);
      backend.slice = corpus::extract_prefix_slice(full, lo, hi);
      backend.spine.emplace(
          backend.slice,
          corpus::CorpusOptions{&bench::context().world.routing, nullptr});
      notary::NotaryIndexOptions options;
      options.key_counts = &key_counts;
      backend.index.emplace(*backend.spine, options);
      backend.service.emplace(*backend.index);
      netio::ServerConfig config;
      config.workers = 2;
      backend.server.emplace(config,
                             [&backend](netio::FrameType type,
                                        std::string_view payload,
                                        std::string& out) {
                               backend.service->handle_into(type, payload,
                                                            out);
                             });
      if (!backend.server->start()) std::abort();
      router_config.shards.push_back(
          {{{"127.0.0.1", backend.server->port()}}});
    }
    router.emplace(std::move(router_config));
    netio::ServerConfig server_config;
    server_config.workers = 8;
    router_server.emplace(server_config,
                          [this](netio::FrameType type,
                                 std::string_view payload, std::string& out) {
                            router->handle_into(type, payload, out);
                          });
    if (!router_server->start()) std::abort();
  }
};

Deployment& deployment() {
  static Deployment* d = new Deployment();
  return *d;
}

std::string fp_payload(const scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

// Closed-loop lookups/s over one connection; `batch` == 0 means single
// kQuery frames, otherwise kBatchQuery frames of that size.
double measure_lookups_per_s(std::size_t batch, std::size_t total_lookups) {
  Deployment& d = deployment();
  // A batch response carries kShardCount scatter/gather sub-responses;
  // FrameClient decodes up to netio::kMaxResponsePayload.
  netio::FrameClient client;
  if (!client.connect({"127.0.0.1", d.router_server->port()})) return 0.0;
  netio::Frame response;
  std::size_t cursor = 0;
  const auto next_fp = [&] {
    const scan::CertFingerprint& fp = d.fingerprints[cursor];
    cursor = (cursor + 1) % d.fingerprints.size();
    return fp;
  };
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t done = 0;
  while (done < total_lookups) {
    std::string wire;
    if (batch == 0) {
      wire = netio::encode_frame(netio::FrameType::kQuery,
                                 fp_payload(next_fp()));
      done += 1;
    } else {
      std::vector<scan::CertFingerprint> fps;
      fps.reserve(batch);
      for (std::size_t i = 0; i < batch; ++i) fps.push_back(next_fp());
      wire = netio::encode_frame(netio::FrameType::kBatchQuery,
                                 notary::encode_batch_query(fps));
      done += batch;
    }
    if (!client.send(wire) || !client.read_frame(response)) break;
    benchmark::DoNotOptimize(response);
  }
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  return secs > 0 ? static_cast<double>(done) / secs : 0.0;
}

void report() {
  bench::print_banner(
      "router", "sm_notary_router: sharded deployment over loopback TCP");
  Deployment& d = deployment();
  std::printf("corpus: %zu certs across %zu shards (", archive().certs().size(),
              kShardCount);
  for (std::size_t s = 0; s < kShardCount; ++s) {
    const auto [lo, hi] = d.router->shard_range(s);
    std::printf("%s%u-%u: %zu", s ? ", " : "", lo, hi,
                d.backends[s].slice.certs().size());
  }
  std::printf(")\n");

  const double single = measure_lookups_per_s(0, 4'000);
  const double batch32 = measure_lookups_per_s(32, 64'000);
  std::printf("single kQuery:       %10.0f lookups/s\n", single);
  std::printf("kBatchQuery (32):    %10.0f lookups/s\n", batch32);
  std::printf("batch-32 amplification: %.1fx %s\n\n",
              single > 0 ? batch32 / single : 0.0,
              batch32 >= 2 * single ? "(>= 2x: OK)" : "(below 2x target)");
}

// One connection, one in-flight kQuery through router + backend.
void BM_RouterSingleQuery(benchmark::State& state) {
  Deployment& d = deployment();
  netio::FrameClient client;
  if (!client.connect({"127.0.0.1", d.router_server->port()})) {
    state.SkipWithError("connect failed");
    return;
  }
  netio::Frame response;
  std::size_t cursor = state.thread_index();
  for (auto _ : state) {
    const std::string wire = netio::encode_frame(
        netio::FrameType::kQuery,
        fp_payload(d.fingerprints[cursor % d.fingerprints.size()]));
    if (!client.send(wire) || !client.read_frame(response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations());
}
// Blocking loopback round trips: the main thread's CPU time misses the
// router and backend work, so every per-query timing here is real time.
BENCHMARK(BM_RouterSingleQuery)->UseRealTime()->Unit(benchmark::kMicrosecond);

// One kBatchQuery per iteration: the router scatters sub-batches to all
// four shards concurrently and reassembles. Items == lookups, so the
// lookups/s column is directly comparable with BM_RouterSingleQuery.
void BM_RouterBatchQuery(benchmark::State& state) {
  Deployment& d = deployment();
  const auto batch = static_cast<std::size_t>(state.range(0));
  netio::FrameClient client;
  if (!client.connect({"127.0.0.1", d.router_server->port()})) {
    state.SkipWithError("connect failed");
    return;
  }
  netio::Frame response;
  std::size_t cursor = 0;
  for (auto _ : state) {
    std::vector<scan::CertFingerprint> fps;
    fps.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      fps.push_back(d.fingerprints[cursor % d.fingerprints.size()]);
      ++cursor;
    }
    const std::string wire = netio::encode_frame(
        netio::FrameType::kBatchQuery, notary::encode_batch_query(fps));
    if (!client.send(wire) || !client.read_frame(response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_RouterBatchQuery)->Arg(8)->Arg(32)->Arg(128)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// Many-connection sweep: every benchmark thread drives its own TCP
// connection, so N threads == N concurrent closed-loop clients.
void BM_RouterConnectionSweep(benchmark::State& state) {
  Deployment& d = deployment();
  netio::FrameClient client;
  if (!client.connect({"127.0.0.1", d.router_server->port()})) {
    state.SkipWithError("connect failed");
    return;
  }
  netio::Frame response;
  std::size_t cursor = static_cast<std::size_t>(state.thread_index()) * 131;
  for (auto _ : state) {
    const std::string wire = netio::encode_frame(
        netio::FrameType::kQuery,
        fp_payload(d.fingerprints[cursor % d.fingerprints.size()]));
    if (!client.send(wire) || !client.read_frame(response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
    ++cursor;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterConnectionSweep)->Threads(1)->Threads(4)->Threads(16)
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// Zipf(1.1) popularity over the corpus: a hot head concentrating on a
// few shards, the skew perfbench's lookup workload draws from.
void BM_RouterZipfQuery(benchmark::State& state) {
  Deployment& d = deployment();
  static const std::vector<double>* cdf = [] {
    auto* weights = new std::vector<double>();
    weights->reserve(deployment().fingerprints.size());
    double total = 0.0;
    for (std::size_t r = 0; r < deployment().fingerprints.size(); ++r) {
      total += std::pow(static_cast<double>(r + 1), -1.1);
      weights->push_back(total);
    }
    return weights;
  }();
  netio::FrameClient client;
  if (!client.connect({"127.0.0.1", d.router_server->port()})) {
    state.SkipWithError("connect failed");
    return;
  }
  netio::Frame response;
  std::mt19937_64 rng(0x5eed'0001);
  std::uniform_real_distribution<double> uniform(0.0, cdf->back());
  for (auto _ : state) {
    const auto it = std::upper_bound(cdf->begin(), cdf->end(), uniform(rng));
    const auto rank = static_cast<std::size_t>(it - cdf->begin());
    const std::string wire = netio::encode_frame(
        netio::FrameType::kQuery,
        fp_payload(d.fingerprints[std::min(rank,
                                           d.fingerprints.size() - 1)]));
    if (!client.send(wire) || !client.read_frame(response)) {
      state.SkipWithError("round trip failed");
      break;
    }
    benchmark::DoNotOptimize(response);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RouterZipfQuery)->UseRealTime()->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  sm::bench::configure_threads(&argc, argv);
  report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
