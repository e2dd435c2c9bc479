// A from-scratch epoll TCP server for the notary daemon: one acceptor
// thread plus N single-threaded worker event loops (the util::ThreadPool
// shape — fixed threads created up front, no per-connection threads).
// Connections are non-blocking end to end, with per-connection read/write
// buffers, idle timeouts, write backpressure, and a clean drain shutdown:
//
//  * the acceptor distributes accepted sockets round-robin over the
//    workers through an eventfd-signalled handoff queue;
//  * each worker owns its connections exclusively, so the event loop runs
//    lock-free; the request handler is the only shared code and must be
//    thread-safe;
//  * a malformed frame (unknown type, oversized length, CRC mismatch)
//    earns one kError response and a connection close — the worker and
//    every other connection keep running;
//  * shutdown() (the SIGTERM path) stops accepting, lets workers flush
//    every response already queued (bounded by drain_timeout_ms), then
//    closes and joins. It is safe to call from a signal-driven thread
//    while clients are mid-request.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "netio/frame.h"

namespace sm::netio {

/// Server tunables.
struct ServerConfig {
  /// Dotted-quad address to bind ("127.0.0.1" keeps the notary loopback-
  /// only; "0.0.0.0" serves the world).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see TcpServer::
  /// port() after start()).
  std::uint16_t port = 0;
  /// Worker event loops; 0 means one per hardware thread.
  std::size_t workers = 0;
  /// Connections silent (no readable bytes, nothing to write) this long
  /// are closed.
  int idle_timeout_ms = 60'000;
  /// shutdown(): maximum time workers keep flushing queued responses
  /// before force-closing.
  int drain_timeout_ms = 5'000;
  /// Per-frame payload ceiling (rejected before allocation).
  std::size_t max_frame_payload = kMaxFramePayload;
  /// Pause reading from a connection whose unsent responses exceed this;
  /// reading resumes once at most half of it remains queued (hysteresis,
  /// so a pipelining client is not re-paused after every partial flush).
  std::size_t max_buffered_responses = 4u << 20;
};

/// Lifetime totals, aggregated over acceptor + workers. Safe to snapshot
/// while running (relaxed atomics; exact once the server is shut down).
struct ServerCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_handled = 0;     ///< well-formed frames dispatched
  std::uint64_t malformed_frames = 0;   ///< framing violations (1/connection)
  std::uint64_t idle_closed = 0;        ///< closed by the idle timeout
  /// Idle-sweep passes that spared a connection because the server still
  /// owed it queued response bytes (unsent() > 0 with EPOLLOUT armed).
  std::uint64_t idle_exempted = 0;
  std::uint64_t accept_backoffs = 0;    ///< acceptor sleeps on fd exhaustion
  /// Flush-complete closes that found unread request bytes still queued
  /// and half-closed (FIN) instead: closing outright would have made the
  /// kernel send RST, destroying response bytes still in flight to the
  /// peer. The connection lingers, discarding input, until the peer's
  /// EOF (bounded by the idle sweep / drain deadline).
  std::uint64_t lingering_closes = 0;
  std::uint64_t backpressure_pauses = 0;   ///< reads paused (outbuf > max)
  /// Reads resumed with responses still queued (the half-drain
  /// hysteresis; resumes via a fully drained outbuf are not counted).
  std::uint64_t backpressure_resumes = 0;
  /// sendmsg(2) calls that moved at least one byte. Responses queued
  /// while a flush is blocked ride out in the same vectored call, so for
  /// a pipelining client this grows far slower than frames_handled.
  std::uint64_t send_syscalls = 0;
};

/// The server. Construct, start(), serve until shutdown().
class TcpServer {
 public:
  /// The request handler, called on a worker thread once per well-formed
  /// request frame. It appends the complete, already-encoded response
  /// frame (header, payload, CRC) directly to `out`, which is the
  /// connection's output buffer — no intermediate Frame, no payload copy.
  /// Must append exactly one well-formed frame per call (e.g. with
  /// encode_frame_into). Must be thread-safe; must not block indefinitely
  /// (it stalls that worker's event loop).
  using StreamHandler =
      std::function<void(FrameType, std::string_view payload,
                         std::string& out)>;

  TcpServer(ServerConfig config, StreamHandler handler);
  ~TcpServer();  ///< implies shutdown()

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  /// Binds, listens, and launches the acceptor + workers. False (with
  /// `error` filled in when given) if the socket could not be set up.
  bool start(std::string* error = nullptr);

  /// The bound port (valid after start(); resolves port 0 requests).
  std::uint16_t port() const;

  /// Graceful drain: stop accepting, flush queued responses, close, join.
  /// Idempotent; safe to call concurrently with serving traffic.
  void shutdown();

  /// True between a successful start() and shutdown().
  bool running() const;

  ServerCounters counters() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sm::netio
