// Tests for the sharded notary deployment: four in-process sm_notaryd
// shapes (prefix-sliced NotaryService behind a TcpServer) behind a
// RouterService, validated against a single-process oracle built over the
// unsliced corpus. The suite shares one simulated world via
// SetUpTestSuite and is registered as a single ctest entry (it also runs
// under TSan/ASan in scripts/tier1.sh).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "loopback_client.h"
#include "netio/client_pool.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/router.h"
#include "notary/service.h"
#include "simworld/world.h"

namespace sm::notary {
namespace {

using testing::LoopbackClient;

constexpr std::size_t kShardCount = 4;

std::string fp_payload(const scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

/// One in-process backend: the --shard-prefix sm_notaryd shape.
struct Backend {
  std::optional<corpus::CorpusIndex> spine;
  std::optional<NotaryIndex> index;
  std::optional<NotaryService> service;
  std::optional<netio::TcpServer> server;
  scan::ScanArchive slice;
  std::uint16_t port = 0;

  void serve(std::uint16_t on_port = 0) {
    netio::ServerConfig config;
    config.workers = 2;
    config.port = on_port;
    server.emplace(config, [this](netio::FrameType type,
                                  std::string_view payload) {
      return service->handle(type, payload);
    });
    std::string error;
    ASSERT_TRUE(server->start(&error)) << error;
    port = server->port();
  }
};

class RouterWorldTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simworld::WorldConfig config;
    config.seed = 11;
    config.device_count = 120;
    config.website_count = 40;
    config.schedule.scale = 0.1;
    world_ = new simworld::WorldResult(simworld::World(config).run());
    const scan::ScanArchive& full = world_->archive;

    // Full-corpus key-sharing degrees: what sm_notaryd --shard-prefix
    // injects so a slice's responses match the unsliced oracle's.
    key_counts_ =
        new std::unordered_map<scan::KeyFingerprint, std::uint32_t>();
    for (const scan::CertRecord& cert : full.certs()) {
      ++(*key_counts_)[cert.key_fingerprint];
    }

    oracle_spine_ = new corpus::CorpusIndex(
        full, corpus::CorpusOptions{&world_->routing, nullptr});
    NotaryIndexOptions oracle_options;
    oracle_options.revocation_statuses = &world_->revocation.statuses;
    oracle_index_ = new NotaryIndex(*oracle_spine_, oracle_options);
    oracle_ = new NotaryService(*oracle_index_);

    backends_ = new std::array<Backend, kShardCount>();
    RouterConfig router_config;
    for (std::size_t s = 0; s < kShardCount; ++s) {
      Backend& backend = (*backends_)[s];
      const auto lo = static_cast<std::uint8_t>(s * 256 / kShardCount);
      const auto hi =
          static_cast<std::uint8_t>((s + 1) * 256 / kShardCount - 1);
      backend.slice = corpus::extract_prefix_slice(full, lo, hi);
      backend.spine.emplace(backend.slice,
                            corpus::CorpusOptions{&world_->routing, nullptr});
      NotaryIndexOptions options;
      options.key_counts = key_counts_;
      // Fingerprint-keyed, so each slice picks out its own subset.
      options.revocation_statuses = &world_->revocation.statuses;
      backend.index.emplace(*backend.spine, options);
      backend.service.emplace(*backend.index);
      backend.serve();
      router_config.shards.push_back(
          {{{"127.0.0.1", backend.port}}});
    }
    router_config.pool.ping_interval_ms = 50;  // fast health detection
    router_ = new RouterService(std::move(router_config));

    netio::ServerConfig server_config;
    server_config.workers = 4;
    router_server_ = new netio::TcpServer(
        server_config, [](netio::FrameType type, std::string_view payload) {
          return router_->handle(type, payload);
        });
    ASSERT_TRUE(router_server_->start());
  }

  static void TearDownTestSuite() {
    delete router_server_;
    router_server_ = nullptr;
    delete router_;
    router_ = nullptr;
    delete backends_;
    backends_ = nullptr;
    delete oracle_;
    oracle_ = nullptr;
    delete oracle_index_;
    oracle_index_ = nullptr;
    delete oracle_spine_;
    oracle_spine_ = nullptr;
    delete key_counts_;
    key_counts_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  static std::uint16_t router_port() { return router_server_->port(); }

  /// One round-trip through the routed deployment.
  static netio::Frame ask_router(netio::FrameType type,
                                 std::string_view payload) {
    LoopbackClient client(router_port());
    EXPECT_TRUE(client.connected());
    EXPECT_TRUE(client.send_frame(type, payload));
    netio::Frame response;
    EXPECT_TRUE(client.read_frame(response));
    return response;
  }

  static simworld::WorldResult* world_;
  static std::unordered_map<scan::KeyFingerprint, std::uint32_t>*
      key_counts_;
  static corpus::CorpusIndex* oracle_spine_;
  static NotaryIndex* oracle_index_;
  static NotaryService* oracle_;
  static std::array<Backend, kShardCount>* backends_;
  static RouterService* router_;
  static netio::TcpServer* router_server_;
};

simworld::WorldResult* RouterWorldTest::world_ = nullptr;
std::unordered_map<scan::KeyFingerprint, std::uint32_t>*
    RouterWorldTest::key_counts_ = nullptr;
corpus::CorpusIndex* RouterWorldTest::oracle_spine_ = nullptr;
NotaryIndex* RouterWorldTest::oracle_index_ = nullptr;
NotaryService* RouterWorldTest::oracle_ = nullptr;
std::array<Backend, kShardCount>* RouterWorldTest::backends_ = nullptr;
RouterService* RouterWorldTest::router_ = nullptr;
netio::TcpServer* RouterWorldTest::router_server_ = nullptr;

TEST_F(RouterWorldTest, SlicesPartitionTheArchive) {
  std::size_t total = 0;
  for (const Backend& backend : *backends_) {
    total += backend.slice.certs().size();
  }
  EXPECT_EQ(total, world_->archive.certs().size());
}

// The tentpole acceptance bar: for every certificate in the corpus AND a
// fuzzed sample of unknown fingerprints, the routed deployment answers
// byte-identically to one unsharded process over the full archive.
TEST_F(RouterWorldTest, PrefixRoutingMatchesSingleProcessOracle) {
  LoopbackClient client(router_port());
  ASSERT_TRUE(client.connected());

  std::vector<scan::CertFingerprint> probes;
  for (const scan::CertRecord& cert : world_->archive.certs()) {
    probes.push_back(cert.fingerprint);
  }
  std::mt19937_64 rng(0xfaded);  // deterministic fuzz, mostly misses
  for (int i = 0; i < 500; ++i) {
    scan::CertFingerprint fp;
    for (auto& b : fp) b = static_cast<std::uint8_t>(rng());
    probes.push_back(fp);
  }

  netio::Frame routed;
  for (const scan::CertFingerprint& fp : probes) {
    const std::string payload = fp_payload(fp);
    ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, payload));
    ASSERT_TRUE(client.read_frame(routed));
    const netio::Frame direct =
        oracle_->handle(netio::FrameType::kQuery, payload);
    ASSERT_EQ(routed.type, direct.type);
    ASSERT_EQ(routed.payload, direct.payload);
  }
}

// A batch scattered over four shards and reassembled must be
// byte-identical to the oracle's single-process batch response — which
// is itself entry-by-entry identical to standalone queries.
TEST_F(RouterWorldTest, BatchEqualsSequenceOfSingles) {
  std::vector<scan::CertFingerprint> fps;
  // Interleave hits from every shard range with misses.
  for (std::size_t i = 0; i < world_->archive.certs().size() && i < 40;
       ++i) {
    fps.push_back(world_->archive.cert(static_cast<scan::CertId>(i))
                      .fingerprint);
  }
  std::mt19937_64 rng(0xbeef);
  for (int i = 0; i < 20; ++i) {
    scan::CertFingerprint fp;
    for (auto& b : fp) b = static_cast<std::uint8_t>(rng());
    fps.insert(fps.begin() + static_cast<long>(rng() % fps.size()), fp);
  }

  const std::string request = encode_batch_query(fps);
  const netio::Frame routed =
      ask_router(netio::FrameType::kBatchQuery, request);
  ASSERT_EQ(routed.type, netio::FrameType::kBatchInfo);
  const netio::Frame direct =
      oracle_->handle(netio::FrameType::kBatchQuery, request);
  EXPECT_EQ(routed.payload, direct.payload);  // literal byte equivalence

  // And both equal the sequence of singles, entry by entry.
  std::vector<BatchEntry> entries;
  ASSERT_TRUE(parse_batch_info(routed.payload, entries));
  ASSERT_EQ(entries.size(), fps.size());
  LoopbackClient client(router_port());
  ASSERT_TRUE(client.connected());
  netio::Frame single;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    ASSERT_TRUE(
        client.send_frame(netio::FrameType::kQuery, fp_payload(fps[i])));
    ASSERT_TRUE(client.read_frame(single));
    EXPECT_EQ(entries[i].status, single.type) << "entry " << i;
    EXPECT_EQ(entries[i].body, single.payload) << "entry " << i;
  }
}

// Revocation queries route exactly like certificate queries: every
// corpus fingerprint plus fuzzed misses, singles and one all-shard
// batch, each byte-identical to the unsharded oracle.
TEST_F(RouterWorldTest, RevocationRoutingMatchesSingleProcessOracle) {
  LoopbackClient client(router_port());
  ASSERT_TRUE(client.connected());

  std::vector<scan::CertFingerprint> probes;
  for (const scan::CertRecord& cert : world_->archive.certs()) {
    probes.push_back(cert.fingerprint);
  }
  std::mt19937_64 rng(0x5eed);
  for (int i = 0; i < 100; ++i) {
    scan::CertFingerprint fp;
    for (auto& b : fp) b = static_cast<std::uint8_t>(rng());
    probes.push_back(fp);
  }

  bool saw_revoked = false;
  netio::Frame routed;
  for (const scan::CertFingerprint& fp : probes) {
    const std::string payload = fp_payload(fp);
    ASSERT_TRUE(
        client.send_frame(netio::FrameType::kRevocationQuery, payload));
    ASSERT_TRUE(client.read_frame(routed));
    const netio::Frame direct =
        oracle_->handle(netio::FrameType::kRevocationQuery, payload);
    ASSERT_EQ(routed.type, direct.type);
    ASSERT_EQ(routed.payload, direct.payload);
    saw_revoked |= routed.payload.find("revocation: revoked") !=
                   std::string::npos;
  }
  // The injected world statuses actually flow through the shards — the
  // suite must not pass vacuously on all-unknown.
  EXPECT_TRUE(saw_revoked);

  const std::string request = encode_batch_query(probes);
  const netio::Frame batched =
      ask_router(netio::FrameType::kRevocationQuery, request);
  ASSERT_EQ(batched.type, netio::FrameType::kBatchInfo);
  const netio::Frame direct =
      oracle_->handle(netio::FrameType::kRevocationQuery, request);
  EXPECT_EQ(batched.payload, direct.payload);
}

// Protocol forward compatibility, end to end over real sockets: a
// well-framed frame of a type this build does not know must be answered
// kError — and the connection must stay healthy for the next request.
TEST_F(RouterWorldTest, UnknownTypeAnswersErrorAndConnectionSurvives) {
  LoopbackClient client(router_port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(static_cast<netio::FrameType>(0x7f),
                                "from the future"));
  netio::Frame response;
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kError);

  // Same connection, normal service.
  const scan::CertFingerprint fp = world_->archive.certs()[0].fingerprint;
  ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, fp_payload(fp)));
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kCertInfo);

  // And straight against a backend daemon shape, bypassing the router.
  LoopbackClient direct((*backends_)[0].port);
  ASSERT_TRUE(direct.connected());
  ASSERT_TRUE(direct.send_frame(static_cast<netio::FrameType>(0x70), ""));
  ASSERT_TRUE(direct.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kError);
  ASSERT_TRUE(direct.send_frame(netio::FrameType::kPing, "still here"));
  ASSERT_TRUE(direct.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kPong);
  EXPECT_EQ(response.payload, "still here");
}

TEST_F(RouterWorldTest, StatsAndSnapshotAggregateAcrossShards) {
  const netio::Frame stats = ask_router(netio::FrameType::kStats, "");
  ASSERT_EQ(stats.type, netio::FrameType::kStatsText);
  EXPECT_NE(stats.payload.find("router-stats"), std::string::npos);
  EXPECT_NE(stats.payload.find("shards: 4"), std::string::npos);
  EXPECT_NE(stats.payload.find("shard 0 (prefix 0-63)"), std::string::npos);
  EXPECT_NE(stats.payload.find("shard 3 (prefix 192-255)"),
            std::string::npos);
  for (const Backend& backend : *backends_) {
    EXPECT_NE(stats.payload.find("backend 127.0.0.1:" +
                                 std::to_string(backend.port)),
              std::string::npos);
  }
  EXPECT_NE(stats.payload.find("pings-ok"), std::string::npos);

  const netio::Frame snapshot = ask_router(netio::FrameType::kSnapshot, "");
  ASSERT_EQ(snapshot.type, netio::FrameType::kSnapshotInfo);
  for (std::size_t s = 0; s < kShardCount; ++s) {
    EXPECT_NE(snapshot.payload.find("shard " + std::to_string(s)),
              std::string::npos);
  }
  EXPECT_NE(snapshot.payload.find("scans:"), std::string::npos);

  const netio::Frame pong = ask_router(netio::FrameType::kPing, "hi");
  EXPECT_EQ(pong.type, netio::FrameType::kPong);
  EXPECT_EQ(pong.payload, "hi");
}

// The resilience bar: killing one backend mid-load must error only that
// shard's prefix range (counted per shard in ROUTER-STATS); restarting it
// restores byte-identical service.
TEST_F(RouterWorldTest, BackendKillAndRestartMidLoad) {
  constexpr std::size_t kVictim = 2;  // prefix range [128, 191]
  Backend& victim = (*backends_)[kVictim];
  const std::uint16_t victim_port = victim.port;
  const auto in_victim_range = [](const scan::CertFingerprint& fp) {
    return fp[0] >= 128 && fp[0] <= 191;
  };

  // Load before, during, and after the kill: a mixed probe set covering
  // every shard, replayed round-robin by a client thread.
  std::vector<scan::CertFingerprint> probes;
  for (const scan::CertRecord& cert : world_->archive.certs()) {
    probes.push_back(cert.fingerprint);
  }

  victim.server->shutdown();
  victim.server.reset();

  // Drive load against the degraded deployment. Shard 2's prefix range
  // answers kError; every other range answers exactly like the oracle.
  LoopbackClient client(router_port());
  ASSERT_TRUE(client.connected());
  std::size_t victim_errors = 0;
  netio::Frame routed;
  for (const scan::CertFingerprint& fp : probes) {
    const std::string payload = fp_payload(fp);
    ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, payload));
    ASSERT_TRUE(client.read_frame(routed));
    if (in_victim_range(fp)) {
      ASSERT_EQ(routed.type, netio::FrameType::kError);
      EXPECT_NE(routed.payload.find("shard 2"), std::string::npos);
      EXPECT_NE(routed.payload.find("unavailable"), std::string::npos);
      ++victim_errors;
    } else {
      const netio::Frame direct =
          oracle_->handle(netio::FrameType::kQuery, payload);
      ASSERT_EQ(routed.type, direct.type) << "prefix " << int(fp[0]);
      ASSERT_EQ(routed.payload, direct.payload);
    }
  }
  ASSERT_GT(victim_errors, 0u);

  // A batch spanning all shards degrades per-entry, not wholesale.
  const netio::Frame batched = ask_router(
      netio::FrameType::kBatchQuery,
      encode_batch_query({probes.begin(), probes.begin() + 50}));
  ASSERT_EQ(batched.type, netio::FrameType::kBatchInfo);
  std::vector<BatchEntry> entries;
  ASSERT_TRUE(parse_batch_info(batched.payload, entries));
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].status == netio::FrameType::kError,
              in_victim_range(probes[i]))
        << "entry " << i;
  }

  // The outage is visible in ROUTER-STATS, attributed to shard 2.
  const netio::Frame stats = ask_router(netio::FrameType::kStats, "");
  const std::string label = "shard 2 (prefix 128-191): unavailable ";
  const std::size_t at = stats.payload.find(label);
  ASSERT_NE(at, std::string::npos);
  EXPECT_GT(std::atoi(stats.payload.c_str() + at + label.size()), 0);

  // Restart on the same port; the prober marks the backend healthy again
  // and full byte-identical service resumes.
  victim.serve(victim_port);
  ASSERT_EQ(victim.port, victim_port);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!router_->pool().healthy(kVictim) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(router_->pool().healthy(kVictim));

  for (const scan::CertFingerprint& fp : probes) {
    if (!in_victim_range(fp)) continue;
    const std::string payload = fp_payload(fp);
    ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, payload));
    ASSERT_TRUE(client.read_frame(routed));
    const netio::Frame direct =
        oracle_->handle(netio::FrameType::kQuery, payload);
    ASSERT_EQ(routed.type, direct.type);
    ASSERT_EQ(routed.payload, direct.payload);
  }
}

}  // namespace
}  // namespace sm::notary
