// Tests for sm::netio: the frame codec (round-trips, incremental decode,
// truncation/bit-flip rejection), endpoint parsing, the epoll TcpServer
// (echo traffic, pipelining, malformed-frame handling, idle timeouts,
// graceful drain), ClientPool, and the blocking FrameClient.
#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
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
#include "netio/frame_client.h"
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

TEST(ParseEndpoint, AcceptsHostAndDecimalPort) {
  Endpoint ep;
  ASSERT_TRUE(parse_endpoint("127.0.0.1:7433", ep));
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7433);
  ASSERT_TRUE(parse_endpoint("h:65535", ep));
  EXPECT_EQ(ep.host, "h");
  EXPECT_EQ(ep.port, 65535);
}

TEST(ParseEndpoint, RejectsEmptyHost) {
  Endpoint ep;
  EXPECT_FALSE(parse_endpoint(":1", ep));
}

TEST(ParseEndpoint, RejectsEmptyPort) {
  Endpoint ep;
  EXPECT_FALSE(parse_endpoint("h:", ep));
  EXPECT_FALSE(parse_endpoint("h", ep));
}

TEST(ParseEndpoint, RejectsPortZero) {
  Endpoint ep;
  EXPECT_FALSE(parse_endpoint("h:0", ep));
}

TEST(ParseEndpoint, RejectsPortAbove65535) {
  Endpoint ep;
  EXPECT_FALSE(parse_endpoint("h:65536", ep));
  EXPECT_FALSE(parse_endpoint("h:1000000", ep));
}

TEST(ParseEndpoint, RejectsTrailingAndLeadingJunk) {
  Endpoint ep;
  EXPECT_FALSE(parse_endpoint("h:1x", ep));
  EXPECT_FALSE(parse_endpoint("h:+7", ep));
  EXPECT_FALSE(parse_endpoint("h: 7", ep));
  EXPECT_FALSE(parse_endpoint("h:-0", ep));
}

TEST(ParseEndpoint, ParsesCommaSeparatedLists) {
  std::vector<Endpoint> eps;
  ASSERT_TRUE(parse_endpoints("127.0.0.1:1,h:2", eps));
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[1].host, "h");
  EXPECT_EQ(eps[1].port, 2);
  EXPECT_FALSE(parse_endpoints("h:1,", eps));
  EXPECT_FALSE(parse_endpoints(",h:1", eps));
  EXPECT_FALSE(parse_endpoints("", eps));
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
  static void echo(FrameType type, std::string_view payload,
                   std::string& out) {
    if (type == FrameType::kPing) {
      encode_frame_into(out, FrameType::kPong, payload);
    } else {
      encode_frame_into(out, FrameType::kError, "echo server only pings");
    }
  }

  // echo, but every answer waits until `release` is set (or 10 s pass).
  static TcpServer::StreamHandler held_echo(const std::atomic<bool>& release) {
    return [&release](FrameType type, std::string_view payload,
                      std::string& out) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!release.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      echo(type, payload, out);
    };
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
  // The handler writes encoded frames straight into the connection's
  // output buffer — including several frames per request.
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


// ---- ClientPool: one checked-out connection per call ---------------------

namespace {

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

ClientPoolConfig unprobed_pool() {
  ClientPoolConfig config;
  config.ping_interval_ms = 0;
  return config;
}

/// Waits up to 5 s for the process's fd count to drop back to `baseline`
/// (a server closes its end of a connection once it sees ours gone).
void expect_fds_return_to(std::size_t baseline) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (count_open_fds() != baseline &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(count_open_fds(), baseline);
}

}  // namespace

// Many callers at once: each call owns its connection until get(), so
// every answer reaches the caller that asked for it, and the pool opens
// no more connections than there are concurrent callers.
TEST_F(EchoServerTest, ClientPoolManyThreadsGetTheirOwnAnswers) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  ClientPool pool({{"127.0.0.1", server.port()}}, unprobed_pool());

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
  EXPECT_GE(counters.reconnects, 1u);
  EXPECT_LE(counters.reconnects, static_cast<std::uint64_t>(kThreads));
  server.shutdown();
}

// One thread with 32 calls in flight holds 32 connections; each call
// reads its own answer in whatever order the thread asks, and a second
// round reuses the idle connections instead of opening more.
TEST_F(EchoServerTest, ClientPoolCallsInFlightFromOneThreadGetTheirOwnAnswers) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  ClientPool pool({{"127.0.0.1", server.port()}}, unprobed_pool());

  std::vector<std::string> payloads;
  for (int i = 0; i < 32; ++i) {
    payloads.push_back("batch-" + std::to_string(i));
  }
  for (int round = 0; round < 2; ++round) {
    std::vector<PendingCall> calls;
    for (const std::string& payload : payloads) {
      calls.push_back(pool.call(0, FrameType::kPing, payload));
    }
    for (std::size_t i = calls.size(); i-- > 0;) {  // newest first
      CallResult result = calls[i].get();
      ASSERT_TRUE(result.ok()) << "round " << round << " call " << i;
      EXPECT_EQ(result.response.type, FrameType::kPong);
      EXPECT_EQ(result.response.payload, payloads[i]);
    }
  }
  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.requests, 2 * payloads.size());
  EXPECT_EQ(counters.ok, 2 * payloads.size());
  EXPECT_EQ(counters.reconnects, payloads.size());
  server.shutdown();
}

// kRevocationQuery batches go out as N calls in flight, as the router
// issues a sub-batch. When the backend stalls on one of them, only that
// call times out; the other answers arrive on their own connections. The
// backend is marked down, and the next batch reconnects and succeeds
// (the health bit is advisory routing state, not a gate; with probing
// off nothing marks it back up).
TEST_F(EchoServerTest, CallManyRevocationBatchAndMidBatchMarkDown) {
  constexpr int kBatch = 12;
  // One server worker per connection: a stalled handler blocks its
  // worker's event loop, and no other call may share it.
  config_.workers = kBatch;
  std::atomic<int> handled{0};
  std::atomic<int> stall_at{-1};  // the handler call that waits for release
  std::atomic<bool> release{false};
  TcpServer server(config_, [&](FrameType type, std::string_view payload,
                                std::string& out) {
    if (type != FrameType::kRevocationQuery) {
      encode_frame_into(out, FrameType::kError, "revocation only");
      return;
    }
    if (handled.fetch_add(1, std::memory_order_relaxed) ==
        stall_at.load(std::memory_order_relaxed)) {
      const auto give_up =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!release.load() && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    encode_frame_into(out, FrameType::kRevocationInfo,
                      "revocation: revoked " + std::string(payload));
  });
  ASSERT_TRUE(server.start());

  ClientPoolConfig pool_config = unprobed_pool();
  pool_config.request_timeout_ms = 150;
  ClientPool pool({{"127.0.0.1", server.port()}}, pool_config);

  std::vector<std::string> payloads;
  for (int i = 0; i < kBatch; ++i) {
    payloads.push_back("fp-" + std::to_string(i));
  }
  const auto send_batch = [&] {
    std::vector<PendingCall> calls;
    for (const std::string& payload : payloads) {
      calls.push_back(pool.call(0, FrameType::kRevocationQuery, payload));
    }
    std::vector<CallResult> results;
    for (PendingCall& call : calls) results.push_back(call.get());
    return results;
  };

  std::vector<CallResult> results = send_batch();
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "call " << i;
    EXPECT_EQ(results[i].response.type, FrameType::kRevocationInfo);
    EXPECT_EQ(results[i].response.payload,
              "revocation: revoked " + payloads[i]);
  }
  EXPECT_TRUE(pool.healthy(0));
  EXPECT_EQ(pool.counters(0).ok, static_cast<std::uint64_t>(kBatch));

  // The backend stalls on one call of the next batch: that call alone
  // times out.
  stall_at.store(kBatch + 4, std::memory_order_relaxed);
  results = send_batch();
  release.store(true);
  int timed_out = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].ok()) {
      EXPECT_EQ(results[i].response.payload,
                "revocation: revoked " + payloads[i]);
    } else {
      EXPECT_EQ(results[i].status, CallStatus::kTimeout) << "call " << i;
      ++timed_out;
    }
  }
  EXPECT_EQ(timed_out, 1);
  EXPECT_FALSE(pool.healthy(0));
  BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.ok, static_cast<std::uint64_t>(2 * kBatch - 1));
  EXPECT_EQ(counters.timeouts, 1u);
  EXPECT_EQ(counters.io_errors, 0u);
  EXPECT_EQ(counters.mark_downs, 1u);

  // Marked down is not gated off: the next batch reconnects what the
  // failure closed and succeeds whole.
  stall_at.store(-1, std::memory_order_relaxed);
  results = send_batch();
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << "retry call " << i;
    EXPECT_EQ(results[i].response.payload,
              "revocation: revoked " + payloads[i]);
  }
  counters = pool.counters(0);
  EXPECT_GT(counters.reconnects, static_cast<std::uint64_t>(kBatch));
  EXPECT_EQ(counters.timeouts, 1u);
  // Only a successful probe flips the health bit back, and probing is off.
  EXPECT_FALSE(pool.healthy(0));
  server.shutdown();
}

// A backend restarted on the same port leaves the pool's idle
// connections dead. The first call that picks one up fails, and that
// failure closes the other idle ones, so every later call connects
// afresh: one failed call per restart, not one per stale socket.
TEST_F(EchoServerTest, ClientPoolRestartedBackendCostsAtMostOneFailedCall) {
  auto server = std::make_unique<TcpServer>(config_, echo);
  ASSERT_TRUE(server->start());
  const std::uint16_t port = server->port();
  ClientPool pool({{"127.0.0.1", port}}, unprobed_pool());

  // Warm four idle connections.
  {
    std::vector<PendingCall> calls;
    for (int i = 0; i < 4; ++i) {
      calls.push_back(pool.call(0, FrameType::kPing, "warm"));
    }
    for (PendingCall& call : calls) ASSERT_TRUE(call.get().ok());
  }
  ASSERT_EQ(pool.counters(0).reconnects, 4u);

  server->shutdown();
  server.reset();
  ServerConfig restarted = config_;
  restarted.port = port;
  server = std::make_unique<TcpServer>(restarted, echo);
  ASSERT_TRUE(server->start());

  int failed = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string payload = "after-" + std::to_string(i);
    const CallResult result = pool.call(0, FrameType::kPing, payload).get();
    if (!result.ok()) {
      EXPECT_EQ(result.status, CallStatus::kIoError);
      ++failed;
      continue;
    }
    EXPECT_EQ(result.response.payload, payload);
  }
  EXPECT_LE(failed, 1);
  const BackendCounters counters = pool.counters(0);
  EXPECT_EQ(counters.ok, 4u + 8u - static_cast<std::uint64_t>(failed));
  EXPECT_EQ(counters.reconnects, 4u + static_cast<std::uint64_t>(failed));
  server->shutdown();
}

// Destroying the pool wakes a caller blocked in get() with kShutdown at
// once, not at the request deadline, and closes every pool socket — the
// one being read included, whose close falls to that caller.
TEST_F(EchoServerTest, ClientPoolDestructionFailsABlockedGetPromptly) {
  std::atomic<bool> release{false};
  TcpServer server(config_, held_echo(release));
  ASSERT_TRUE(server.start());
  const std::size_t fds_before = count_open_fds();

  ClientPoolConfig pool_config = unprobed_pool();
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
  expect_fds_return_to(fds_before);
  server.shutdown();
}

// The same for the prober: destroying the pool while a probe waits on a
// held backend ends that wait at once, joins the prober and closes its
// connection.
TEST_F(EchoServerTest, ClientPoolDestructionWakesABlockedProbe) {
  std::atomic<bool> release{false};
  std::atomic<int> pings{0};
  const auto held = held_echo(release);
  TcpServer server(config_, [&](FrameType type, std::string_view payload,
                                std::string& out) {
    pings.fetch_add(1);
    held(type, payload, out);
  });
  ASSERT_TRUE(server.start());
  const std::size_t fds_before = count_open_fds();

  ClientPoolConfig pool_config;
  pool_config.ping_interval_ms = 10;
  pool_config.request_timeout_ms = 8'000;
  auto pool = std::make_unique<ClientPool>(
      std::vector<Endpoint>{{"127.0.0.1", server.port()}}, pool_config);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (pings.load() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(pings.load(), 1);  // the probe is held in the handler

  const auto destroyed = std::chrono::steady_clock::now();
  pool.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - destroyed,
            std::chrono::milliseconds(1'000));
  release.store(true);
  expect_fds_return_to(fds_before);
  server.shutdown();
}

// A PendingCall dropped (or overwritten) before get() still owns its
// answer; it drains it, so its connection goes back to the pool clean and
// later calls on it get their own answers, not its.
TEST_F(EchoServerTest, ClientPoolDroppedCallDoesNotDesyncTheConnection) {
  TcpServer server(config_, echo);
  ASSERT_TRUE(server.start());
  ClientPool pool({{"127.0.0.1", server.port()}}, unprobed_pool());

  { PendingCall dropped = pool.call(0, FrameType::kPing, "dropped"); }
  EXPECT_EQ(pool.counters(0).ok, 1u);  // the drop waited for its answer
  CallResult next = pool.call(0, FrameType::kPing, "next").get();
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.response.payload, "next");

  {
    PendingCall unread[] = {pool.call(0, FrameType::kPing, "b0"),
                            pool.call(0, FrameType::kPing, "b1"),
                            pool.call(0, FrameType::kPing, "b2")};
  }
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
  EXPECT_EQ(counters.reconnects, 3u);  // at most three calls at once
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


// ---- FrameClient -----------------------------------------------------------

TEST_F(EchoServerTest, FrameClientRefusedConnectFailsPromptly) {
  // A bound socket that never listens: connects to it are refused.
  const int holder = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(holder, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(holder, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  ASSERT_EQ(::getsockname(holder, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  FrameClient client;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.connect({"127.0.0.1", ntohs(addr.sin_port)}, 5'000));
  EXPECT_LT(std::chrono::steady_clock::now() - begin,
            std::chrono::seconds(1));
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.failure(), FrameClient::Failure::kConnect);
  EXPECT_NE(client.error().find("connect to 127.0.0.1"), std::string::npos)
      << client.error();
  ::close(holder);
}

TEST_F(EchoServerTest, FrameClientSilentServerTimesOutTheCall) {
  std::atomic<bool> release{false};
  TcpServer server(config_, held_echo(release));
  ASSERT_TRUE(server.start());

  FrameClient client;
  ASSERT_TRUE(client.connect({"127.0.0.1", server.port()}, 1'000, 200));
  Frame response;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(client.call(FrameType::kPing, "unanswered", response));
  const auto waited = std::chrono::steady_clock::now() - begin;
  EXPECT_GE(waited, std::chrono::milliseconds(150));
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(client.failure(), FrameClient::Failure::kTimeout);
  EXPECT_EQ(client.error(), "read timed out");
  release.store(true);
  client.close();
  server.shutdown();
}

TEST_F(EchoServerTest, FrameClientReportsTheDecodersErrorOnMalformedResponse) {
  // An 0xff-filled header announces a payload far above any limit.
  const std::string garbage(16, '\xff');
  TcpServer server(config_, [&](FrameType, std::string_view, std::string& out) {
    out += garbage;
  });
  ASSERT_TRUE(server.start());
  FrameDecoder reference(kMaxResponsePayload);
  reference.feed(garbage);
  Frame unused;
  ASSERT_EQ(reference.next(unused), DecodeStatus::kMalformed);

  FrameClient client;
  ASSERT_TRUE(client.connect({"127.0.0.1", server.port()}));
  Frame response;
  EXPECT_FALSE(client.call(FrameType::kPing, "x", response));
  EXPECT_EQ(client.failure(), FrameClient::Failure::kMalformed);
  EXPECT_NE(client.error().find(reference.error()), std::string::npos)
      << client.error();
  client.close();
  server.shutdown();
}

TEST_F(EchoServerTest, FrameClientDecodesResponsesUpToTheResponseCap) {
  // Requests stay under kMaxFramePayload; responses (batch answers) may
  // grow to kMaxResponsePayload.
  TcpServer server(config_, [](FrameType, std::string_view payload,
                               std::string& out) {
    const std::size_t size = payload == "cap" ? kMaxResponsePayload
                                              : kMaxFramePayload + 1;
    encode_frame_into(out, FrameType::kPong, std::string(size, 'r'));
  });
  ASSERT_TRUE(server.start());

  FrameClient client;
  ASSERT_TRUE(client.connect({"127.0.0.1", server.port()}));
  Frame response;
  ASSERT_TRUE(client.call(FrameType::kPing, "above", response))
      << client.error();
  EXPECT_EQ(response.type, FrameType::kPong);
  EXPECT_EQ(response.payload.size(), kMaxFramePayload + 1);
  ASSERT_TRUE(client.call(FrameType::kPing, "cap", response))
      << client.error();
  EXPECT_EQ(response.payload.size(), kMaxResponsePayload);
  client.close();
  server.shutdown();
}

}  // namespace
}  // namespace sm::netio
