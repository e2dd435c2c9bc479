// ClientPool — pooled, pipelined frame-protocol client connections, the
// router tier's path to its backends.
//
//  * Each backend gets a fixed set of persistent connections. A call()
//    picks one (round-robin), appends the request frame, and returns a
//    PendingCall; many calls share one connection in flight
//    (pipelining), so a single TCP stream amortizes syscalls and keeps
//    the backend's epoll loop busy.
//  * Correlation is FIFO per connection: the server answers every frame
//    on the connection it arrived on, in arrival order, so the oldest
//    unanswered call owns the next response. (No request ids on the
//    wire — ordering IS the correlation scheme. Responses across
//    *different* connections complete out of order freely.)
//  * No thread reads on the pool's behalf: the callers waiting on a
//    connection read it themselves, leader/follower style. One of them
//    holds the connection's reading role, polls and receives with the
//    lock released, completes every call whose answer arrived (in FIFO
//    order, its own or not) and passes the role on once its own answer
//    is in; the others sleep until their call completes or the role is
//    free. The oldest waiter's deadline is the read timeout. A timeout,
//    EOF, or malformed response fails every call in flight on that
//    connection (their responses are unidentifiable once the stream is
//    broken) and the connection reconnects lazily.
//  * A prober thread kPings every backend on a fixed cadence and flips
//    its health bit; callers can route around unhealthy backends and
//    the prober's successful ping marks them back up. It is the pool's
//    only thread.
//  * Counters are per-backend and per-error-class, since-start
//    (requests, ok, connect errors, timeouts, io errors, pings ok/
//    failed, mark-downs, reconnects) — the ROUTER-STATS raw material.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"

namespace sm::netio {

/// One backend address.
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Pool tunables.
struct ClientPoolConfig {
  /// Persistent connections per backend.
  std::size_t connections_per_backend = 2;
  int connect_timeout_ms = 1'000;
  /// Deadline for the oldest in-flight call on a connection; hitting it
  /// fails everything queued behind it too.
  int request_timeout_ms = 2'000;
  /// Health-probe cadence; 0 disables the prober thread.
  int ping_interval_ms = 200;
  /// Response decoder ceiling. Batch responses aggregate many rendered
  /// certificates, so this defaults well above the frame codec's
  /// single-frame kMaxFramePayload.
  std::size_t max_frame_payload = 32u << 20;
};

/// How a call() ended.
enum class CallStatus {
  kOk,            ///< response frame received
  kConnectFailed, ///< could not establish a connection
  kTimeout,       ///< oldest-waiter deadline expired
  kIoError,       ///< send/recv error, EOF, or malformed response
  kShutdown,      ///< pool destroyed with the call in flight
};

struct CallResult {
  CallStatus status = CallStatus::kShutdown;
  Frame response;  ///< valid only when status == kOk

  bool ok() const { return status == CallStatus::kOk; }
};

/// One call in flight, returned by ClientPool::call/call_many. Move-only.
/// get() blocks until the response arrives or the call fails, reading
/// the connection itself when no other waiter is (see the header
/// comment), and returns the result once; later get()s, like get() on a
/// default-constructed or moved-from PendingCall, return kShutdown. A
/// PendingCall destroyed before get() waits for its answer and discards
/// it, so the calls behind it on the connection stay correlated. A
/// PendingCall may outlive its pool: destroying the pool fails it with
/// kShutdown.
class PendingCall {
 public:
  PendingCall();
  PendingCall(PendingCall&& other) noexcept;
  PendingCall& operator=(PendingCall&& other) noexcept;
  ~PendingCall();

  CallResult get();

 private:
  friend class ClientPool;
  struct State;
  explicit PendingCall(std::unique_ptr<State> state);

  std::unique_ptr<State> state_;
};

/// Since-start, per-backend counters (relaxed atomics under the hood;
/// this is the copied-out view).
struct BackendCounters {
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t connect_errors = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t io_errors = 0;
  std::uint64_t pings_ok = 0;
  std::uint64_t pings_failed = 0;
  std::uint64_t mark_downs = 0;   ///< healthy -> unhealthy transitions
  std::uint64_t reconnects = 0;   ///< successful (re-)connects
};

/// The pool. Construct with the backend list, then call() from any
/// thread. Backends can be added while the pool is live (resharding
/// brings up successors at runtime) but never removed — indices handed
/// out stay valid for the pool's lifetime, which is what lets the router
/// publish routing tables that name backends by index. Destruction fails
/// outstanding calls with kShutdown (a caller blocked in get() returns
/// at once) and joins the prober thread.
class ClientPool {
 public:
  /// add_backend's failure value (pool already shutting down).
  static constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);

  ClientPool(std::vector<Endpoint> backends, ClientPoolConfig config = {});
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  std::size_t backend_count() const;
  const Endpoint& backend(std::size_t index) const;

  /// Registers `endpoint` and returns its pool index, starting its
  /// connections and enrolling it with the health prober. Idempotent: an
  /// endpoint already in the pool (same host:port) returns its existing
  /// index. Thread-safe against calls, probes, and other add_backend
  /// invocations (the backend list is copy-on-add behind an atomic
  /// shared_ptr, the same RCU pattern as the router's prefix map).
  /// Returns kNoBackend if the pool is already shutting down.
  std::size_t add_backend(const Endpoint& endpoint);

  /// Sends one request frame to `backend` and returns the call; its
  /// get() yields the response (or the failure). Thread-safe; returns
  /// once the frame is sent.
  PendingCall call(std::size_t backend, FrameType type,
                   std::string_view payload);

  /// Pipelines payloads.size() same-typed request frames to `backend`
  /// over ONE pooled connection in one vectored send: one lock, one
  /// sendmsg batch, N FIFO-correlated calls (call i answers
  /// payloads[i]). A send failure fails every call in the batch. The
  /// frames are encoded scatter/gather straight from the payload views —
  /// no per-call frame string is built.
  std::vector<PendingCall> call_many(
      std::size_t backend, FrameType type,
      std::span<const std::string_view> payloads);

  /// Current health bit: set by successful probes/calls, cleared by any
  /// failure. A fresh pool reports healthy until proven otherwise.
  bool healthy(std::size_t backend) const;

  BackendCounters counters(std::size_t backend) const;

 private:
  friend class PendingCall;  // a call reads its connection itself
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sm::netio
