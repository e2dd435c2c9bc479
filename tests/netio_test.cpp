// Tests for sm::netio: the frame codec (round-trips, incremental decode,
// truncation/bit-flip rejection) and the epoll TcpServer (echo traffic,
// pipelining, malformed-frame handling, idle timeouts, graceful drain).
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "loopback_client.h"
#include "netio/client_pool.h"
#include "netio/frame.h"
#include "netio/server.h"

namespace sm::netio {
namespace {

using testing::LoopbackClient;

std::string sample_payload(std::size_t size) {
  std::string out(size, '\0');
  for (std::size_t i = 0; i < size; ++i) {
    out[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return out;
}

TEST(FrameCodec, RoundTripsEveryTypeAndSize) {
  const FrameType types[] = {
      FrameType::kQuery,    FrameType::kStats,        FrameType::kPing,
      FrameType::kSnapshot, FrameType::kCertInfo,     FrameType::kNotFound,
      FrameType::kStatsText, FrameType::kPong,
      FrameType::kSnapshotInfo, FrameType::kError,
  };
  const std::size_t sizes[] = {0, 1, 16, 255, 256, 4096};
  for (const FrameType type : types) {
    for (const std::size_t size : sizes) {
      const std::string payload = sample_payload(size);
      const std::string wire = encode_frame(type, payload);
      ASSERT_EQ(wire.size(), kFrameHeaderSize + size + kFrameTrailerSize);

      FrameDecoder decoder;
      decoder.feed(wire);
      Frame out;
      ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
      EXPECT_EQ(out.type, type);
      EXPECT_EQ(out.payload, payload);
      EXPECT_EQ(decoder.buffered(), 0u);
      EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore);
      EXPECT_FALSE(decoder.poisoned());
    }
  }
}

TEST(FrameCodec, DecodesByteByByte) {
  const std::string wire = encode_frame(FrameType::kPing, "incremental");
  FrameDecoder decoder;
  Frame out;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(wire.data() + i, 1);
    ASSERT_EQ(decoder.next(out), DecodeStatus::kNeedMore) << "byte " << i;
  }
  decoder.feed(wire.data() + wire.size() - 1, 1);
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.payload, "incremental");
}

TEST(FrameCodec, DrainsPipelinedFramesInOrder) {
  std::string wire;
  for (int i = 0; i < 50; ++i) {
    wire += encode_frame(FrameType::kPing, "frame-" + std::to_string(i));
  }
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  for (int i = 0; i < 50; ++i) {
    ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
    EXPECT_EQ(out.payload, "frame-" + std::to_string(i));
  }
  EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore);
}

TEST(FrameCodec, DecodesUnknownTypeWhenWellFramed) {
  // Forward compatibility: a type byte this build does not know is NOT a
  // framing violation — a newer peer may legitimately send it, and the
  // handler answers kError without dropping the connection. The decoder
  // surfaces the frame; only the length limit and the CRC police garbage.
  const auto future_type = static_cast<FrameType>(0x7f);
  ASSERT_FALSE(is_known_frame_type(0x7f));
  FrameDecoder decoder;
  decoder.feed(encode_frame(future_type, "from the future"));
  Frame out;
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.type, future_type);
  EXPECT_EQ(out.payload, "from the future");
  EXPECT_FALSE(decoder.poisoned());
  // The stream stays healthy: a known frame decodes right after it.
  decoder.feed(encode_frame(FrameType::kPing, "y"));
  ASSERT_EQ(decoder.next(out), DecodeStatus::kFrame);
  EXPECT_EQ(out.type, FrameType::kPing);
}

TEST(FrameCodec, TypeByteIsChecksummed) {
  // Flipping the type byte on the wire without re-running the CRC is
  // corruption, not a future protocol — the checksum covers the type.
  std::string wire = encode_frame(FrameType::kPing, "x");
  wire[0] = 0x7f;
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kMalformed);
  EXPECT_TRUE(decoder.poisoned());
  EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
}

TEST(FrameCodec, RejectsOversizedLengthBeforeBuffering) {
  FrameDecoder decoder(/*max_payload=*/64);
  // Header claims 65 payload bytes; rejection must not wait for them.
  std::string header;
  header.push_back(static_cast<char>(FrameType::kPing));
  const std::uint32_t size = 65;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((size >> (8 * i)) & 0xff));
  }
  decoder.feed(header);
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kMalformed);
  EXPECT_NE(decoder.error().find("exceeds"), std::string::npos);
}

TEST(FrameCodec, RejectsChecksumMismatch) {
  std::string wire = encode_frame(FrameType::kQuery, sample_payload(16));
  wire[kFrameHeaderSize + 3] ^= 0x01;  // corrupt one payload byte
  FrameDecoder decoder;
  decoder.feed(wire);
  Frame out;
  EXPECT_EQ(decoder.next(out), DecodeStatus::kMalformed);
  EXPECT_NE(decoder.error().find("checksum"), std::string::npos);
}

TEST(FrameCodec, NoTruncationDecodesAsAFrame) {
  const std::string wire = encode_frame(FrameType::kQuery, sample_payload(24));
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.feed(wire.data(), cut);
    Frame out;
    // A strict prefix never yields a frame; it either waits or (when the
    // type byte itself is absent/garbled) cannot fail yet either.
    EXPECT_EQ(decoder.next(out), DecodeStatus::kNeedMore) << "cut " << cut;
  }
}

TEST(FrameCodec, NoSingleBitFlipDecodesAsAFrame) {
  const std::string wire = encode_frame(FrameType::kQuery, sample_payload(24));
  for (std::size_t byte = 0; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupt = wire;
      corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
      FrameDecoder decoder;
      decoder.feed(corrupt);
      Frame out;
      // Either detected immediately (kMalformed) or the flipped length
      // field demands bytes that never arrive (kNeedMore). Never a frame.
      EXPECT_NE(decoder.next(out), DecodeStatus::kFrame)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// ---- live server ---------------------------------------------------------

class EchoServerTest : public ::testing::Test {
 protected:
  ServerConfig config_ = [] {
    ServerConfig config;
    config.workers = 2;
    return config;
  }();

  // Echo handler: kPing -> kPong, anything else -> kError.
  static Frame echo(FrameType type, std::string_view payload) {
    if (type == FrameType::kPing) {
      return {FrameType::kPong, std::string(payload)};
    }
    return {FrameType::kError, "echo server only pings"};
  }
};

TEST_F(EchoServerTest, ServesSequentialRequests) {
  TcpServer server(config_, echo);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  Frame response;
  for (int i = 0; i < 20; ++i) {
    const std::string payload = "ping-" + std::to_string(i);
    ASSERT_TRUE(client.send_frame(FrameType::kPing, payload));
    ASSERT_TRUE(client.read_frame(response));
    EXPECT_EQ(response.type, FrameType::kPong);
    EXPECT_EQ(response.payload, payload);
  }
  client.close();
  server.shutdown();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.connections_accepted, 1u);
  EXPECT_EQ(counters.frames_handled, 20u);
  EXPECT_EQ(counters.malformed_frames, 0u);
}

TEST_F(EchoServerTest, StreamHandlerAppendsFramesDirectlyToOutput) {
  // The stream-handler form writes encoded frames straight into the
  // connection's output buffer — including several frames per request.
  TcpServer server(config_, [](FrameType type, std::string_view payload,
                               std::string& out) {
    if (type == FrameType::kPing) {
      encode_frame_into(out, FrameType::kPong, payload);
      encode_frame_into(out, FrameType::kPong, "tail");
    } else {
      encode_frame_into(out, FrameType::kError, "ping only");
    }
  });
  ASSERT_TRUE(server.start());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  Frame response;
  for (int i = 0; i < 8; ++i) {
    const std::string payload = "stream-" + std::to_string(i);
    ASSERT_TRUE(client.send_frame(FrameType::kPing, payload));
    ASSERT_TRUE(client.read_frame(response));
    EXPECT_EQ(response.type, FrameType::kPong);
    EXPECT_EQ(response.payload, payload);
    ASSERT_TRUE(client.read_frame(response));
    EXPECT_EQ(response.type, FrameType::kPong);
    EXPECT_EQ(response.payload, "tail");
  }
  client.close();
  server.shutdown();
  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.frames_handled, 8u);
  // Every flushed response costs at least one sendmsg; the counter is
  // how bench_check tracks the vectored-write savings.
  EXPECT_GE(counters.send_syscalls, 1u);
  EXPECT_LE(counters.send_syscalls, 16u);
}

TEST_F(EchoServerTest, CallManyPipelinesABatchOverOneConnection) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  ClientPoolConfig pool_config;
  pool_config.connections_per_backend = 1;
  pool_config.ping_interval_ms = 0;
  ClientPool pool({{"127.0.0.1", server.port()}}, pool_config);

  std::vector<std::string> payloads;
  for (int i = 0; i < 32; ++i) {
    payloads.push_back("batch-" + std::to_string(i));
  }
  std::vector<std::string_view> views(payloads.begin(), payloads.end());
  auto futures = pool.call_many(0, FrameType::kPing, views);
  ASSERT_EQ(futures.size(), payloads.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    CallResult result = futures[i].get();
    ASSERT_TRUE(result.ok()) << "call " << i;
    EXPECT_EQ(result.response.type, FrameType::kPong);
    EXPECT_EQ(result.response.payload, payloads[i]);
  }
  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.requests, payloads.size());
  EXPECT_EQ(counters.ok, payloads.size());
  server.shutdown();
}

// kRevocationQuery batches ride the same call_many pipelining as every
// other frame type. When the backend stalls mid-batch, correlation is
// positional, so the whole in-flight pipeline fails with kTimeout, the
// backend is marked down, and the connection resets — after which the
// next batch reconnects and succeeds (the health bit is advisory routing
// state, not a gate; with probing off nothing marks it back up).
TEST_F(EchoServerTest, CallManyRevocationBatchAndMidBatchMarkDown) {
  constexpr int kBatch = 12;
  std::atomic<int> handled{0};
  std::atomic<int> stall_at{-1};  // handler index that sleeps past timeout
  TcpServer server(config_, [&](FrameType type, std::string_view payload) {
    if (type != FrameType::kRevocationQuery) {
      return Frame{FrameType::kError, "revocation only"};
    }
    if (handled.fetch_add(1, std::memory_order_relaxed) ==
        stall_at.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(600));
    }
    return Frame{FrameType::kRevocationInfo,
                 "revocation: revoked " + std::string(payload)};
  });
  ASSERT_TRUE(server.start());

  ClientPoolConfig pool_config;
  pool_config.connections_per_backend = 1;  // one pipeline, strict order
  pool_config.request_timeout_ms = 150;
  pool_config.ping_interval_ms = 0;  // nobody marks it back up
  ClientPool pool({{"127.0.0.1", server.port()}}, pool_config);

  std::vector<std::string> payloads;
  for (int i = 0; i < kBatch; ++i) {
    payloads.push_back("fp-" + std::to_string(i));
  }
  std::vector<std::string_view> views(payloads.begin(), payloads.end());

  // A healthy batch pipelines in order over the one connection.
  auto futures = pool.call_many(0, FrameType::kRevocationQuery, views);
  ASSERT_EQ(futures.size(), payloads.size());
  for (std::size_t i = 0; i < futures.size(); ++i) {
    CallResult result = futures[i].get();
    ASSERT_TRUE(result.ok()) << "call " << i;
    EXPECT_EQ(result.response.type, FrameType::kRevocationInfo);
    EXPECT_EQ(result.response.payload, "revocation: revoked " + payloads[i]);
  }
  EXPECT_TRUE(pool.healthy(0));
  EXPECT_EQ(pool.counters(0).ok, static_cast<std::uint64_t>(kBatch));

  // Now the backend stalls mid-batch: the oldest answer goes overdue,
  // and everything behind it on the pipeline is unidentifiable — the
  // whole flight fails and the backend is marked down.
  stall_at.store(kBatch + 4, std::memory_order_relaxed);
  auto stalled = pool.call_many(0, FrameType::kRevocationQuery, views);
  int failed = 0;
  for (auto& future : stalled) {
    const CallResult result = future.get();
    if (!result.ok()) {
      EXPECT_EQ(result.status, CallStatus::kTimeout);
      ++failed;
    }
  }
  EXPECT_GE(failed, kBatch - 4);
  EXPECT_FALSE(pool.healthy(0));
  const BackendCounters counters = pool.counters(0);
  EXPECT_GE(counters.timeouts, 1u);
  EXPECT_GE(counters.mark_downs, 1u);

  // Marked down is not gated off: the next batch reconnects the reset
  // connection and pipelines normally.
  stall_at.store(-1, std::memory_order_relaxed);
  auto retry = pool.call_many(0, FrameType::kRevocationQuery, views);
  for (std::size_t i = 0; i < retry.size(); ++i) {
    CallResult result = retry[i].get();
    ASSERT_TRUE(result.ok()) << "retry call " << i;
    EXPECT_EQ(result.response.payload, "revocation: revoked " + payloads[i]);
  }
  EXPECT_GE(pool.counters(0).reconnects, 2u);
  // Only a successful probe flips the health bit back, and probing is off.
  EXPECT_FALSE(pool.healthy(0));
  server.shutdown();
}

TEST_F(EchoServerTest, ServesPipelinedBurstInOrder) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string burst;
  constexpr int kFrames = 500;
  for (int i = 0; i < kFrames; ++i) {
    burst += encode_frame(FrameType::kPing, "burst-" + std::to_string(i));
  }
  ASSERT_TRUE(client.send_raw(burst));
  Frame response;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(client.read_frame(response)) << "response " << i;
    EXPECT_EQ(response.type, FrameType::kPong);
    EXPECT_EQ(response.payload, "burst-" + std::to_string(i));
  }
}

TEST_F(EchoServerTest, ServesManyConcurrentConnections) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      LoopbackClient client(server.port());
      if (!client.connected()) return;
      Frame response;
      for (int i = 0; i < kPerClient; ++i) {
        const std::string payload =
            "c" + std::to_string(c) + "-" + std::to_string(i);
        if (!client.send_frame(FrameType::kPing, payload)) return;
        if (!client.read_frame(response)) return;
        if (response.type != FrameType::kPong || response.payload != payload)
          return;
        ++ok[c];
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(ok[c], kPerClient) << "client " << c;
  }
  server.shutdown();
  EXPECT_EQ(server.counters().frames_handled,
            static_cast<std::uint64_t>(kClients) * kPerClient);
}

TEST_F(EchoServerTest, MalformedFrameGetsErrorThenCloseAndServerSurvives) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  {
    LoopbackClient bad(server.port());
    ASSERT_TRUE(bad.connected());
    // A healthy frame first, then garbage: response for the first, one
    // kError for the garbage, then close.
    ASSERT_TRUE(bad.send_frame(FrameType::kPing, "before"));
    ASSERT_TRUE(bad.send_raw("\xff\xff\xff\xff\xff\xff\xff\xff"));
    std::vector<Frame> frames;
    ASSERT_TRUE(bad.read_until_eof(frames));
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, FrameType::kPong);
    EXPECT_EQ(frames[0].payload, "before");
    EXPECT_EQ(frames[1].type, FrameType::kError);
  }

  // The worker is unharmed: a fresh connection still gets service.
  LoopbackClient good(server.port());
  ASSERT_TRUE(good.connected());
  ASSERT_TRUE(good.send_frame(FrameType::kPing, "after"));
  Frame response;
  ASSERT_TRUE(good.read_frame(response));
  EXPECT_EQ(response.payload, "after");

  good.close();
  server.shutdown();
  EXPECT_EQ(server.counters().malformed_frames, 1u);
}

TEST_F(EchoServerTest, IdleConnectionsAreClosed) {
  config_.idle_timeout_ms = 100;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  LoopbackClient idle(server.port());
  ASSERT_TRUE(idle.connected());
  std::vector<Frame> frames;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_TRUE(idle.read_until_eof(frames));  // blocks until the server closes
  EXPECT_TRUE(frames.empty());
  EXPECT_LT(std::chrono::steady_clock::now() - begin, std::chrono::seconds(10));
  server.shutdown();
  EXPECT_GE(server.counters().idle_closed, 1u);
}

TEST_F(EchoServerTest, EofAfterRequestStillGetsTheResponse) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(FrameType::kPing, "parting"));
  client.shutdown_write();  // server sees EOF right behind the request
  std::vector<Frame> frames;
  ASSERT_TRUE(client.read_until_eof(frames));
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kPong);
  EXPECT_EQ(frames[0].payload, "parting");
}

TEST_F(EchoServerTest, ShutdownFlushesAndClosesCleanly) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());

  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  Frame response;
  ASSERT_TRUE(client.send_frame(FrameType::kPing, "pre-shutdown"));
  ASSERT_TRUE(client.read_frame(response));

  server.shutdown();
  EXPECT_FALSE(server.running());
  // The drained connection reads EOF, not a reset or torn bytes.
  std::vector<Frame> frames;
  EXPECT_TRUE(client.read_until_eof(frames));
  EXPECT_TRUE(frames.empty());
  // Idempotent.
  server.shutdown();
  EXPECT_EQ(server.counters().connections_closed,
            server.counters().connections_accepted);
}

TEST_F(EchoServerTest, StartFailsOnUnbindableAddress) {
  config_.bind_address = "203.0.113.1";  // TEST-NET, not local
  TcpServer server(config_, echo);
  std::string error;
  EXPECT_FALSE(server.start(&error));
  EXPECT_FALSE(error.empty());
}

// ---- event-loop lifecycle regressions ------------------------------------

// Regression: a connection closed mid-batch (abortive RST) frees its fd
// number; if the same epoll_wait batch also carries a wake event, the old
// code adopted pending connections immediately, so a freshly adopted
// connection could be registered under the recycled fd — and a stale
// EPOLLHUP/EPOLLERR later in the same events[] array killed it. With
// adoption deferred to end-of-batch, fresh connections always survive
// this churn. One worker maximizes fd-number recycling.
TEST_F(EchoServerTest, FdChurnDoesNotKillFreshlyAdoptedConnections) {
  config_.workers = 1;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  constexpr int kIterations = 100;
  constexpr int kAborters = 4;
  for (int i = 0; i < kIterations; ++i) {
    // A burst of connections that RST right after sending a request: the
    // worker sees readable bytes and an error/hup for each, closes them,
    // and their fd numbers free up mid-batch.
    std::vector<std::unique_ptr<LoopbackClient>> aborters;
    for (int a = 0; a < kAborters; ++a) {
      auto aborter = std::make_unique<LoopbackClient>(server.port());
      ASSERT_TRUE(aborter->connected());
      ASSERT_TRUE(aborter->send_frame(FrameType::kPing, "doomed"));
      aborters.push_back(std::move(aborter));
    }
    for (auto& aborter : aborters) aborter->abortive_close();
    // Immediately behind the churn: a connection that must survive. Its
    // server-side fd typically recycles one of the aborted numbers.
    LoopbackClient fresh(server.port());
    ASSERT_TRUE(fresh.connected());
    const std::string payload = "alive-" + std::to_string(i);
    ASSERT_TRUE(fresh.send_frame(FrameType::kPing, payload));
    Frame response;
    ASSERT_TRUE(fresh.read_frame(response)) << "iteration " << i;
    EXPECT_EQ(response.type, FrameType::kPong);
    EXPECT_EQ(response.payload, payload);
  }
  server.shutdown();
  EXPECT_EQ(server.counters().connections_closed,
            server.counters().connections_accepted);
}

namespace {

std::size_t count_open_fds() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

// Fills every free fd slot under the current RLIMIT_NOFILE with dup(0),
// then frees exactly `keep_free` of them. RAII-restores the dups and the
// original limit.
class FdExhauster {
 public:
  explicit FdExhauster(std::size_t keep_free) {
    getrlimit(RLIMIT_NOFILE, &old_);
    rlimit tight = old_;
    // A low ceiling keeps the fill cheap; every fd this process has open
    // sits far below 256.
    tight.rlim_cur = 256;
    setrlimit(RLIMIT_NOFILE, &tight);
    for (;;) {
      const int fd = ::dup(0);
      if (fd < 0) break;
      fillers_.push_back(fd);
    }
    while (keep_free > 0 && !fillers_.empty()) {
      ::close(fillers_.back());
      fillers_.pop_back();
      --keep_free;
    }
  }

  ~FdExhauster() {
    release_all();
    setrlimit(RLIMIT_NOFILE, &old_);
  }

  /// Frees `n` more slots (lets a backed-off acceptor make progress).
  void release(std::size_t n) {
    while (n > 0 && !fillers_.empty()) {
      ::close(fillers_.back());
      fillers_.pop_back();
      --n;
    }
  }

  void release_all() {
    for (const int fd : fillers_) ::close(fd);
    fillers_.clear();
  }

 private:
  rlimit old_{};
  std::vector<int> fillers_;
};

}  // namespace

// Regression: accept4 failing with EMFILE used to break straight back to
// poll(), which (level-triggered) reported POLLIN again immediately —
// a busy spin pinning a core for as long as the fd table stayed full. The
// acceptor now backs off ~10ms per failure and counts each backoff; once
// an fd frees up, the backlogged connection is accepted and served.
TEST_F(EchoServerTest, AcceptorBacksOffOnFdExhaustion) {
  config_.workers = 1;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  // Leave exactly one free slot — consumed by the client's own socket, so
  // the server-side accept4 is guaranteed to hit EMFILE.
  FdExhauster exhaust(/*keep_free=*/1);
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());  // SYN-ACKed from the backlog

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().accept_backoffs == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.counters().accept_backoffs, 1u);

  // Free the table: the acceptor's next poll round adopts the backlogged
  // connection and service resumes.
  exhaust.release_all();
  ASSERT_TRUE(client.send_frame(FrameType::kPing, "after-emfile"));
  Frame response;
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.type, FrameType::kPong);
  EXPECT_EQ(response.payload, "after-emfile");
}

// Regression: ServerConfig documents that a backpressured connection
// "resumes once half is flushed", but flush() only re-armed reading when
// the outbuf was completely empty. The hysteresis resume is observable as
// backpressure_resumes (counted only when reading resumes with bytes
// still queued). A pipelining client with a tiny receive buffer forces
// the pause; a slow drain forces the EAGAIN path where the half-drain
// resume lives.
TEST_F(EchoServerTest, BackpressureResumesAtHalfDrainNotEmpty) {
  config_.workers = 1;
  // The kernel autotunes the server connection's send buffer up to
  // tcp_wmem[2]; a single EPOLLOUT flush can therefore move that many
  // bytes at once. The resume band (half the cap) must span at least the
  // kernel buffer, or the drain can jump clean over it — from above the
  // band to an empty outbuf — without ever hitting EAGAIN inside it.
  std::size_t wmem_max = 4u << 20;
  {
    std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem");
    std::size_t lo = 0, def = 0, max = 0;
    if (wmem >> lo >> def >> max && max > 0) wmem_max = max;
  }
  config_.max_buffered_responses = 2 * wmem_max;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  // Small receive window: response bytes pile up in the server's outbuf
  // instead of the kernel buffers.
  LoopbackClient client(server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());

  // Four caps' worth of pongs: enough to force a pause no matter how much
  // the kernel swallows, with a long EAGAIN-paced drain behind it.
  const std::string payload = sample_payload(16 * 1024);
  const int kFrames =
      static_cast<int>(4 * config_.max_buffered_responses / payload.size());
  std::thread writer([&] {
    std::string burst;
    for (int i = 0; i < kFrames; ++i) {
      burst += encode_frame(FrameType::kPing, payload);
    }
    client.send_raw(burst);
  });

  // Hold off reading until the server has actually paused. With the client
  // sitting on its receive window, the kernel absorbs a bounded amount
  // (server sndbuf + client rcvbuf) and everything else must pile up in
  // the outbuf — so the pause is reached no matter how slowly the server
  // runs relative to the drain (sanitizer builds are ~10x slower).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.counters().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Drain every response; with the old all-or-nothing resume this still
  // completes (the server resumes on empty), but backpressure_resumes
  // stays 0 — the half-drain fix is what makes it positive.
  Frame response;
  int received = 0;
  for (; received < kFrames; ++received) {
    if (!client.read_frame(response)) break;
    ASSERT_EQ(response.type, FrameType::kPong);
    ASSERT_EQ(response.payload, payload) << "frame " << received;
  }
  writer.join();
  EXPECT_EQ(received, kFrames);
  server.shutdown();

  const ServerCounters counters = server.counters();
  EXPECT_EQ(counters.frames_handled, static_cast<std::uint64_t>(kFrames));
  EXPECT_GE(counters.backpressure_pauses, 1u);
  EXPECT_GE(counters.backpressure_resumes, 1u);
}

// Regression: when a later worker's epoll_create1/eventfd failed during
// start(), the earlier workers' fds leaked — shutdown() early-returns
// while `started` is false, and the old failure path only closed the
// listen socket. Sweep every fd budget that makes start() fail partway
// and assert the fd table returns to its baseline each time.
TEST_F(EchoServerTest, PartialStartFailureLeaksNoFds) {
  config_.workers = 4;
  // Full start needs 10 fds: listen + stop eventfd + 4 x (epoll + wake).
  for (std::size_t budget = 1; budget < 10; ++budget) {
    FdExhauster exhaust(/*keep_free=*/budget);
    const std::size_t before = count_open_fds();
    TcpServer server(config_, echo);
    std::string error;
    EXPECT_FALSE(server.start(&error)) << "budget " << budget;
    EXPECT_FALSE(error.empty()) << "budget " << budget;
    EXPECT_EQ(count_open_fds(), before) << "budget " << budget;
  }
  // Sanity: with the table unconstrained the same config starts fine.
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  LoopbackClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(client.send_frame(FrameType::kPing, "post-sweep"));
  Frame response;
  ASSERT_TRUE(client.read_frame(response));
  EXPECT_EQ(response.payload, "post-sweep");
}

namespace {

// fd -> readlink target. Keyed on both so a *new* fd that recycles a
// pre-existing number (e.g. the number this listing's own directory fd
// frees) is still recognized as new.
std::vector<std::pair<int, std::string>> list_open_fds() {
  std::vector<std::pair<int, std::string>> fds;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    const auto target = std::filesystem::read_symlink(entry.path(), ec);
    if (!ec) fds.emplace_back(std::stoi(entry.path().filename().string()),
                              target.string());
  }
  return fds;
}

}  // namespace

// Regression: none of the server's fds (listen socket, eventfds, epoll
// instances, accepted connections) carried FD_CLOEXEC, so every one of
// them leaked into any child the host process forked — sm_notaryd's
// shard/router deployments fork-exec freely. Every fd the server creates
// after this snapshot must be close-on-exec.
TEST_F(EchoServerTest, AllServerFdsAreCloexec) {
  config_.workers = 2;
  const auto before = list_open_fds();

  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  // An accepted connection adds the accept4'd fd to the set under test.
  // Raw client socket (not LoopbackClient) so the test can mark its own
  // fd CLOEXEC and then assert the property on *every* new fd.
  const int client = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(client, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(client, reinterpret_cast<sockaddr*>(&addr),
                      sizeof addr),
            0);
  const std::string ping = encode_frame(FrameType::kPing, "fd-audit");
  ASSERT_EQ(::send(client, ping.data(), ping.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(ping.size()));
  char buf[256];
  ASSERT_GT(::recv(client, buf, sizeof buf, 0), 0);  // conn fd exists now

  std::size_t audited = 0;
  for (const auto& [fd, target] : list_open_fds()) {
    if (std::find(before.begin(), before.end(),
                  std::make_pair(fd, target)) != before.end()) {
      continue;  // pre-existing (stdio, gtest, ...), not ours to judge
    }
    const int flags = ::fcntl(fd, F_GETFD);
    if (flags < 0) continue;  // closed since listing (the /proc dir fd)
    EXPECT_TRUE(flags & FD_CLOEXEC) << "fd " << fd << " leaks across exec";
    ++audited;
  }
  // listen + stop eventfd + per-worker (epoll + wake) + conn + client.
  EXPECT_GE(audited, 2 + 2 * config_.workers + 2);
  ::close(client);
  server.shutdown();
}

// Regression: sweep_idle reaped connections purely by last_activity, and
// a backpressured connection whose peer drains slowly makes no write
// progress — so the sweep cut off connections mid-response with unsent
// bytes queued and EPOLLOUT armed. Such connections are now exempt (and
// counted); only truly idle connections are reaped.
TEST_F(EchoServerTest, IdleSweepSparesBackpressuredConnections) {
  config_.workers = 1;
  config_.idle_timeout_ms = 100;  // far below the time the pause lasts
  config_.max_buffered_responses = 256 * 1024;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  std::size_t wmem_max = 4u << 20;
  {
    std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem");
    std::size_t lo = 0, def = 0, max = 0;
    if (wmem >> lo >> def >> max && max > 0) wmem_max = max;
  }

  // Enough response bytes to fill the kernel buffers (forcing EAGAIN,
  // which arms EPOLLOUT) and then the outbuf cap (forcing the pause).
  // Encoded BEFORE connecting: under sanitizers the CRC/concat work takes
  // longer than idle_timeout_ms, and the sweep would reap a connection
  // that had not yet sent its first byte.
  const std::string payload = sample_payload(16 * 1024);
  const int kFrames = static_cast<int>(
      (wmem_max + 8 * config_.max_buffered_responses) / payload.size());
  std::string burst;
  burst.reserve(static_cast<std::size_t>(kFrames) * (payload.size() + 16));
  for (int i = 0; i < kFrames; ++i) {
    burst += encode_frame(FrameType::kPing, payload);
  }

  LoopbackClient client(server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  std::thread writer([&] { client.send_raw(burst); });

  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.counters().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // EXPECT (not ASSERT) throughout: the drain below must run even on
  // failure so `writer` unblocks and joins instead of hitting terminate.
  EXPECT_GE(server.counters().backpressure_pauses, 1u);

  // Sit through several idle periods without reading: the sweep must see
  // the stalled-but-backpressured connection and spare it.
  deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (server.counters().idle_exempted == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server.counters().idle_exempted, 1u);

  // The connection survived: every queued response is still deliverable.
  Frame response;
  int received = 0;
  for (; received < kFrames; ++received) {
    if (!client.read_frame(response)) break;
    ASSERT_EQ(response.type, FrameType::kPong);
  }
  writer.join();
  EXPECT_EQ(received, kFrames);
  server.shutdown();
  EXPECT_EQ(server.counters().frames_handled,
            static_cast<std::uint64_t>(kFrames));
}

// A graceful drain must deliver every response already queued on a
// backpressured connection — the peer is reading, just slowly — before
// closing, rather than cutting the stream at the first sweep.
TEST_F(EchoServerTest, DrainFlushesBackpressuredOutbufBeforeDeadline) {
  config_.workers = 1;
  config_.max_buffered_responses = 256 * 1024;
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());

  std::size_t wmem_max = 4u << 20;
  {
    std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem");
    std::size_t lo = 0, def = 0, max = 0;
    if (wmem >> lo >> def >> max && max > 0) wmem_max = max;
  }

  LoopbackClient client(server.port(), /*rcvbuf=*/4096);
  ASSERT_TRUE(client.connected());
  const std::string payload = sample_payload(16 * 1024);
  const int kFrames = static_cast<int>(
      (wmem_max + 8 * config_.max_buffered_responses) / payload.size());
  std::thread writer([&] {
    std::string burst;
    for (int i = 0; i < kFrames; ++i) {
      burst += encode_frame(FrameType::kPing, payload);
    }
    client.send_raw(burst);
  });

  // Initiate the drain while responses are still queued server-side.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (server.counters().backpressure_pauses == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GE(server.counters().backpressure_pauses, 1u);
  std::thread drainer([&] { server.shutdown(); });

  // The draining server delivers every response it accepted, then EOF —
  // even when it paused reading mid-burst and our unread request bytes
  // are still queued on its side (the lingering half-close; closing
  // outright there would RST and destroy the in-flight response tail).
  std::vector<Frame> frames;
  EXPECT_TRUE(client.read_until_eof(frames));
  writer.join();
  // Complete the linger: our EOF lets the server close instead of
  // holding the connection until the drain deadline.
  client.shutdown_write();
  drainer.join();
  const std::uint64_t handled = server.counters().frames_handled;
  EXPECT_EQ(frames.size(), handled);
  for (const Frame& frame : frames) {
    EXPECT_EQ(frame.type, FrameType::kPong);
  }
  EXPECT_EQ(server.counters().connections_closed,
            server.counters().connections_accepted);
}


// ---- ClientPool: callers read their own answers --------------------------

namespace {

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

ClientPoolConfig one_connection_pool() {
  ClientPoolConfig config;
  config.connections_per_backend = 1;
  config.ping_interval_ms = 0;
  return config;
}

}  // namespace

// Many callers share one pipelined connection. Whoever holds the reading
// role completes the others' calls too, so every answer must still reach
// the caller that asked for it.
TEST_F(EchoServerTest, ClientPoolManyThreadsShareOneConnection) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  ClientPool pool({{"127.0.0.1", server.port()}}, one_connection_pool());

  constexpr int kThreads = 8;
  constexpr int kCalls = 500;
  std::vector<int> matched(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kCalls; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        const CallResult result =
            pool.call(0, FrameType::kPing, payload).get();
        if (result.ok() && result.response.type == FrameType::kPong &&
            result.response.payload == payload) {
          ++matched[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(matched[t], kCalls) << "thread " << t;
  }
  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.requests,
            static_cast<std::uint64_t>(kThreads) * kCalls);
  EXPECT_EQ(counters.ok, counters.requests);
  EXPECT_EQ(counters.timeouts, 0u);
  EXPECT_EQ(counters.io_errors, 0u);
  EXPECT_EQ(counters.reconnects, 1u);
  server.shutdown();
}

// A slow first answer holds up the calls queued behind it on the same
// connection; they wait for it rather than time out, then complete in
// FIFO order, whichever waiter happens to read.
TEST_F(EchoServerTest, ClientPoolSlowFirstAnswerKeepsFollowersInOrder) {
  constexpr auto kSlow = std::chrono::milliseconds(300);
  TcpServer server(config_, [&](FrameType type, std::string_view payload) {
    if (payload == "slow") std::this_thread::sleep_for(kSlow);
    return echo(type, payload);
  });
  ASSERT_TRUE(server.start());
  ClientPoolConfig pool_config = one_connection_pool();
  pool_config.request_timeout_ms = 5'000;
  ClientPool pool({{"127.0.0.1", server.port()}}, pool_config);

  const auto sent = std::chrono::steady_clock::now();
  std::vector<std::string> payloads = {"slow", "f1", "f2", "f3", "f4"};
  std::vector<PendingCall> calls;
  for (const std::string& payload : payloads) {
    calls.push_back(pool.call(0, FrameType::kPing, payload));
  }
  // Followers wait first, newest first, so one of them takes the
  // reading role while the slow answer is still out.
  std::vector<CallResult> results(payloads.size());
  std::vector<std::chrono::steady_clock::time_point> done(payloads.size());
  std::vector<std::thread> threads;
  for (std::size_t i = payloads.size(); i-- > 1;) {
    threads.emplace_back([&, i] {
      results[i] = calls[i].get();
      done[i] = std::chrono::steady_clock::now();
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  results[0] = calls[0].get();
  done[0] = std::chrono::steady_clock::now();
  for (auto& thread : threads) thread.join();

  for (std::size_t i = 0; i < payloads.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "call " << i;
    EXPECT_EQ(results[i].response.payload, payloads[i]);
    EXPECT_GE(done[i] - sent, kSlow - std::chrono::milliseconds(10))
        << "call " << i << " finished before the answer ahead of it";
  }
  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.timeouts, 0u);
  EXPECT_EQ(counters.ok, payloads.size());
  EXPECT_TRUE(pool.healthy(0));
  server.shutdown();
}

// Destroying the pool wakes a caller blocked in get() with kShutdown at
// once, not at the request deadline, and closes every pool socket — the
// one being read included, whose close falls to that caller.
TEST_F(EchoServerTest, ClientPoolDestructionFailsABlockedGetPromptly) {
  std::atomic<bool> release{false};
  TcpServer server(config_, [&](FrameType type, std::string_view payload) {
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!release.load() && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return echo(type, payload);
  });
  ASSERT_TRUE(server.start());
  const std::size_t fds_before = count_open_fds();

  ClientPoolConfig pool_config = one_connection_pool();
  pool_config.request_timeout_ms = 8'000;
  auto pool = std::make_unique<ClientPool>(
      std::vector<Endpoint>{{"127.0.0.1", server.port()}}, pool_config);
  std::atomic<bool> sent{false};
  CallResult result;
  std::chrono::steady_clock::time_point returned;
  std::thread caller([&] {
    PendingCall call = pool->call(0, FrameType::kPing, "held");
    sent.store(true);
    result = call.get();
    returned = std::chrono::steady_clock::now();
  });
  while (!sent.load()) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto destroyed = std::chrono::steady_clock::now();
  pool.reset();
  caller.join();

  EXPECT_EQ(result.status, CallStatus::kShutdown);
  EXPECT_LT(returned - destroyed, std::chrono::milliseconds(1'000));
  release.store(true);
  // The server closes its end once it sees ours gone.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count_open_fds() != fds_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count_open_fds(), fds_before);
  server.shutdown();
}

// A PendingCall dropped (or overwritten) before get() still owns the
// next answer on its connection; it drains it, so the calls behind it
// get their own answers, not its.
TEST_F(EchoServerTest, ClientPoolDroppedCallDoesNotDesyncTheConnection) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  ClientPool pool({{"127.0.0.1", server.port()}}, one_connection_pool());

  { PendingCall dropped = pool.call(0, FrameType::kPing, "dropped"); }
  EXPECT_EQ(pool.counters(0).ok, 1u);  // the drop waited for its answer
  CallResult next = pool.call(0, FrameType::kPing, "next").get();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.response.payload, "next");

  const std::string_view batch[] = {"b0", "b1", "b2"};
  { auto unread = pool.call_many(0, FrameType::kPing, batch); }
  PendingCall call = pool.call(0, FrameType::kPing, "overwritten");
  call = pool.call(0, FrameType::kPing, "kept");
  next = call.get();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.response.payload, "kept");
  // A result is handed out once; an empty call reports kShutdown.
  EXPECT_EQ(call.get().status, CallStatus::kShutdown);
  EXPECT_EQ(PendingCall().get().status, CallStatus::kShutdown);

  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.requests, 7u);
  EXPECT_EQ(counters.ok, 7u);
  server.shutdown();
}

// The pool runs no thread per connection: over four backends it adds
// exactly one thread to the process, the prober, and calls add none.
TEST_F(EchoServerTest, ClientPoolAddsOnlyTheProberThread) {
  config_.workers = 1;
  std::vector<std::unique_ptr<TcpServer>> servers;
  std::vector<Endpoint> endpoints;
  for (int i = 0; i < 4; ++i) {
    servers.push_back(std::make_unique<TcpServer>(config_, echo));
    ASSERT_TRUE(servers.back()->start());
    endpoints.push_back({"127.0.0.1", servers.back()->port()});
  }
  const std::size_t before = count_threads();

  ClientPoolConfig pool_config;
  pool_config.ping_interval_ms = 20;
  ClientPool pool(endpoints, pool_config);
  EXPECT_EQ(count_threads(), before + 1);
  for (std::size_t b = 0; b < endpoints.size(); ++b) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(pool.call(b, FrameType::kPing, "x").get().ok());
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pool.counters(endpoints.size() - 1).pings_ok == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(pool.counters(endpoints.size() - 1).pings_ok, 1u);
  EXPECT_EQ(count_threads(), before + 1);
  for (auto& server : servers) server->shutdown();
}

}  // namespace
}  // namespace sm::netio
