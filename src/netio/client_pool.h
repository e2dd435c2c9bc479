// ClientPool — the router tier's path to its backends: a checkout pool of
// FrameClient connections per backend.
//
//  * call() takes an idle connection of the backend (or connects a new
//    one), sends the request frame and returns a PendingCall that owns
//    the connection until get(). No connection is shared by two calls,
//    so the next frame on it is the call's answer, and a backend's pool
//    grows only to its peak number of concurrent calls.
//  * get() reads that answer. A good answer puts the connection back on
//    the idle list. A failure closes it and the backend's idle ones
//    (which likely lead to the same dead or restarted process) and marks
//    the backend down.
//  * A prober thread, the pool's only thread, kPings every backend over
//    its own connection on a fixed cadence: a failed ping marks the
//    backend down, a good one marks it up, and callers route around
//    backends that are down.
//  * Counters are per-backend and per-error-class, since start — the
//    ROUTER-STATS raw material.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"
#include "netio/frame_client.h"

namespace sm::netio {

/// Pool tunables.
struct ClientPoolConfig {
  int connect_timeout_ms = 1'000;
  /// Bounds each send and each wait for answer bytes (FrameClient's I/O
  /// timeout).
  int request_timeout_ms = 2'000;
  /// Health-probe cadence; 0 disables the prober thread.
  int ping_interval_ms = 200;
};

/// How a call() ended.
enum class CallStatus {
  kOk,            ///< response frame received
  kConnectFailed, ///< could not establish a connection
  kTimeout,       ///< request_timeout_ms expired on the send or the answer
  kIoError,       ///< send/recv error, EOF, or malformed response
  kShutdown,      ///< pool destroyed with the call in flight
};

struct CallResult {
  CallStatus status = CallStatus::kShutdown;
  Frame response;  ///< valid only when status == kOk

  bool ok() const { return status == CallStatus::kOk; }
};

/// One call in flight, returned by ClientPool::call. Move-only. get()
/// blocks until the answer arrives or the call fails and returns the
/// result once; later get()s, and get() on an empty PendingCall, return
/// kShutdown. Destroyed before get(), it waits for its answer and drops
/// it, so its connection goes back clean. It may outlive its pool:
/// destroying the pool fails it with kShutdown.
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

/// Since-start, per-backend counters, copied out under the backend's
/// lock. Probe traffic counts only in pings_*.
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
/// thread. Backends can be added while the pool is live (resharding) but
/// never removed, so the indices routing tables name stay valid.
/// Destruction fails outstanding calls with kShutdown (a caller blocked
/// in get() returns at once) and joins the prober thread.
class ClientPool {
 public:
  /// add_backend's failure value (pool already shutting down).
  static constexpr std::size_t kNoBackend = static_cast<std::size_t>(-1);

  ClientPool(std::vector<Endpoint> backends, ClientPoolConfig config = {});
  ~ClientPool();

  ClientPool(const ClientPool&) = delete;
  ClientPool& operator=(const ClientPool&) = delete;

  const Endpoint& backend(std::size_t index) const;

  /// Registers `endpoint` and returns its pool index, enrolling it with
  /// the prober. Idempotent: an endpoint already in the pool (same
  /// host:port) returns its existing index. Thread-safe against calls,
  /// probes and other add_backend calls (the backend list is copy-on-add
  /// behind an atomic shared_ptr). kNoBackend once the pool shuts down.
  std::size_t add_backend(const Endpoint& endpoint);

  /// Sends one request frame to `backend` and returns the call, whose
  /// get() yields the response or the failure. Thread-safe.
  PendingCall call(std::size_t backend, FrameType type,
                   std::string_view payload);

  /// Current health bit: set by successful probes, cleared by any
  /// failure. A fresh pool reports healthy until proven otherwise.
  bool healthy(std::size_t backend) const;

  BackendCounters counters(std::size_t backend) const;

 private:
  friend class PendingCall;  // a call returns its connection to the pool
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sm::netio
