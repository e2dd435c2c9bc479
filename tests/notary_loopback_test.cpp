// End-to-end tests of the notary over real loopback TCP: multi-threaded
// clients byte-compare responses against render_knowledge, responses are
// invariant to the worker-thread count and the cache, corrupted frames
// (truncations and single-bit flips) are all rejected without hurting the
// server, and a graceful shutdown mid-load never tears a frame. This
// binary also runs under TSan and ASan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loopback_client.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "corpus/corpus_index.h"
#include "notary/index.h"
#include "notary/service.h"
#include "simworld/world.h"

namespace sm::notary {
namespace {

using testing::LoopbackClient;

// One micro world + index shared by every test in the suite (built once).
class NotaryLoopbackTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    simworld::WorldConfig config;
    config.seed = 11;
    config.device_count = 120;
    config.website_count = 40;
    config.schedule.scale = 0.1;
    world_ = new simworld::WorldResult(simworld::World(config).run());
    spine_ = new corpus::CorpusIndex(
        world_->archive, corpus::CorpusOptions{&world_->routing, nullptr});
    index_ = new NotaryIndex(*spine_);
  }

  static void TearDownTestSuite() {
    delete index_;
    index_ = nullptr;
    delete spine_;
    spine_ = nullptr;
    delete world_;
    world_ = nullptr;
  }

  // Starts a server around a fresh service; returns the server (caller
  // keeps the service alive).
  static std::unique_ptr<netio::TcpServer> start_server(
      NotaryService& service, std::size_t workers,
      int idle_timeout_ms = 60'000) {
    netio::ServerConfig config;
    config.workers = workers;
    config.idle_timeout_ms = idle_timeout_ms;
    auto server = std::make_unique<netio::TcpServer>(
        config, [&service](netio::FrameType type, std::string_view payload,
                           std::string& out) {
          service.handle_into(type, payload, out);
        });
    std::string error;
    EXPECT_TRUE(server->start(&error)) << error;
    return server;
  }

  static std::string fp_payload(scan::CertId id) {
    const auto& fp = world_->archive.cert(id).fingerprint;
    return std::string(reinterpret_cast<const char*>(fp.data()), fp.size());
  }

  static simworld::WorldResult* world_;
  static corpus::CorpusIndex* spine_;
  static NotaryIndex* index_;
};

simworld::WorldResult* NotaryLoopbackTest::world_ = nullptr;
corpus::CorpusIndex* NotaryLoopbackTest::spine_ = nullptr;
NotaryIndex* NotaryLoopbackTest::index_ = nullptr;

TEST_F(NotaryLoopbackTest, ConcurrentClientsGetByteExactResponses) {
  NotaryServiceConfig config;
  config.cache_bytes = 8 << 20;
  NotaryService service(*index_, config);
  const auto server = start_server(service, /*workers=*/4);

  constexpr int kClients = 6;
  std::atomic<int> mismatches{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopbackClient client(server->port());
      if (!client.connected()) return;
      netio::Frame response;
      // Each client walks the whole corpus from a different offset, so
      // cache hits and misses interleave across connections.
      const std::size_t n = index_->size();
      for (std::size_t i = 0; i < n; ++i) {
        const auto id = static_cast<scan::CertId>((i + c * 131) % n);
        if (!client.send_frame(netio::FrameType::kQuery, fp_payload(id)) ||
            !client.read_frame(response)) {
          return;
        }
        if (response.type != netio::FrameType::kCertInfo ||
            response.payload != render_knowledge(index_->knowledge(id))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(answered.load(), kClients * static_cast<int>(index_->size()));
}

TEST_F(NotaryLoopbackTest, ResponsesInvariantToWorkersAndCache) {
  // Reference bytes: the pure render, no server involved.
  std::vector<std::string> expected;
  expected.reserve(index_->size());
  for (scan::CertId id = 0; id < index_->size(); ++id) {
    expected.push_back(render_knowledge(index_->knowledge(id)));
  }

  const struct {
    std::size_t workers;
    std::size_t cache_bytes;
  } variants[] = {{1, 0}, {1, 8 << 20}, {4, 0}, {4, 8 << 20}};
  for (const auto& variant : variants) {
    NotaryServiceConfig config;
    config.cache_bytes = variant.cache_bytes;
    NotaryService service(*index_, config);
    const auto server = start_server(service, variant.workers);
    LoopbackClient client(server->port());
    ASSERT_TRUE(client.connected());
    netio::Frame response;
    for (scan::CertId id = 0; id < index_->size(); ++id) {
      ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, fp_payload(id)));
      ASSERT_TRUE(client.read_frame(response));
      ASSERT_EQ(response.type, netio::FrameType::kCertInfo);
      ASSERT_EQ(response.payload, expected[id])
          << "workers=" << variant.workers
          << " cache=" << variant.cache_bytes << " cert " << id;
    }
  }
}

// Satellite: the corruption sweep over notary frames, mirroring
// archive_corruption_test — every truncation and every single-bit flip of
// a valid query frame is rejected (kError or a plain close, never a
// kCertInfo), and the server keeps serving afterwards.
TEST_F(NotaryLoopbackTest, CorruptionSweepRejectsEveryDamagedFrame) {
  NotaryService service(*index_);
  const auto server = start_server(service, /*workers=*/2);
  const std::string wire =
      netio::encode_frame(netio::FrameType::kQuery, fp_payload(0));

  const auto expect_rejected = [&](const std::string& bytes,
                                   const std::string& what) {
    LoopbackClient client(server->port());
    ASSERT_TRUE(client.connected()) << what;
    ASSERT_TRUE(client.send_raw(bytes)) << what;
    // Half-close: the server sees EOF after the damaged bytes, so even a
    // "still waiting for the rest" truncation resolves to a close.
    client.shutdown_write();
    std::vector<netio::Frame> frames;
    ASSERT_TRUE(client.read_until_eof(frames)) << what;
    for (const netio::Frame& frame : frames) {
      EXPECT_NE(frame.type, netio::FrameType::kCertInfo) << what;
      EXPECT_NE(frame.type, netio::FrameType::kNotFound) << what;
    }
  };

  for (std::size_t cut = 1; cut < wire.size(); ++cut) {
    expect_rejected(wire.substr(0, cut),
                    "truncation at " + std::to_string(cut));
  }
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      expect_rejected(corrupt, "bit flip at byte " + std::to_string(byte) +
                                   " bit " + std::to_string(bit));
    }
  }

  // The server survived the entire sweep: a clean query still works.
  LoopbackClient client(server->port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_raw(wire));
  netio::Frame response;
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kCertInfo);
  EXPECT_EQ(response.payload, render_knowledge(index_->knowledge(0)));

  server->shutdown();
  const netio::ServerCounters counters = server->counters();
  EXPECT_EQ(counters.connections_closed, counters.connections_accepted);
  EXPECT_GT(counters.malformed_frames, 0u);
}

TEST_F(NotaryLoopbackTest, StatsFrameReportsOverTheWire) {
  NotaryServiceConfig config;
  config.cache_bytes = 1 << 20;
  NotaryService service(*index_, config);
  const auto server = start_server(service, /*workers=*/2);

  LoopbackClient client(server->port());
  ASSERT_TRUE(client.connected());
  netio::Frame response;
  ASSERT_TRUE(client.send_frame(netio::FrameType::kQuery, fp_payload(0)));
  ASSERT_TRUE(client.read_frame(response));
  ASSERT_TRUE(client.send_frame(netio::FrameType::kPing, "probe"));
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.type, netio::FrameType::kPong);
  EXPECT_EQ(response.payload, "probe");

  ASSERT_TRUE(client.send_frame(netio::FrameType::kStats, ""));
  ASSERT_TRUE(client.read_frame(response));
  ASSERT_EQ(response.type, netio::FrameType::kStatsText);
  EXPECT_NE(response.payload.find("notary-stats"), std::string::npos);
  EXPECT_NE(response.payload.find(
                "index-size: " + std::to_string(index_->size())),
            std::string::npos);
  EXPECT_NE(response.payload.find("queries: 1 (found 1, unknown 0)"),
            std::string::npos);
}

TEST_F(NotaryLoopbackTest, GracefulShutdownMidLoadNeverTearsAFrame) {
  NotaryServiceConfig config;
  config.cache_bytes = 4 << 20;
  NotaryService service(*index_, config);
  auto server = start_server(service, /*workers=*/4);

  constexpr int kClients = 4;
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> completed{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopbackClient client(server->port());
      if (!client.connected()) return;
      netio::Frame response;
      for (std::uint64_t i = 0;; ++i) {
        const auto id =
            static_cast<scan::CertId>((i + c) % index_->size());
        if (!client.send_frame(netio::FrameType::kQuery, fp_payload(id))) {
          break;  // server closed: expected once shutdown starts
        }
        if (!client.read_frame(response)) break;
        if (response.type != netio::FrameType::kCertInfo ||
            response.payload != render_knowledge(index_->knowledge(id))) {
          torn.store(true, std::memory_order_relaxed);
          break;
        }
        completed.fetch_add(1, std::memory_order_relaxed);
      }
      // Whatever remains on the wire must still be whole frames.
      std::vector<netio::Frame> tail;
      if (!client.read_until_eof(tail)) {
        torn.store(true, std::memory_order_relaxed);
      }
    });
  }
  // Let the load ramp, then pull the plug mid-flight. Wait for every
  // client's accept too: a client still in the listen backlog when the
  // listener closes is never accepted (bounded, so a client that cannot
  // connect fails the count below instead of hanging).
  const auto ramp_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((completed.load(std::memory_order_relaxed) < 200 ||
          server->counters().connections_accepted <
              static_cast<std::uint64_t>(kClients)) &&
         std::chrono::steady_clock::now() < ramp_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->shutdown();
  for (auto& thread : threads) thread.join();

  EXPECT_FALSE(torn.load());
  EXPECT_GE(completed.load(), 200u);
  const netio::ServerCounters counters = server->counters();
  EXPECT_EQ(counters.connections_accepted, kClients);
  EXPECT_EQ(counters.connections_closed, counters.connections_accepted);
  EXPECT_EQ(counters.malformed_frames, 0u);
}

}  // namespace
}  // namespace sm::notary
