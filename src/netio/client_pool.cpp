#include "netio/client_pool.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "util/crc32.h"

namespace sm::netio {
namespace {

using Clock = std::chrono::steady_clock;

// Poll ceiling for the thread holding a connection's reading role: it
// re-checks the connection under the lock at least this often. Teardown
// wakes it at once (shutdown() on the fd ends its poll); the tick only
// bounds the wait should that wake be missed.
constexpr int kTickMs = 100;

/// Milliseconds until `deadline`, capped at kTickMs. Rounded up: a
/// sub-millisecond remainder truncated to 0 would turn the wait into a
/// poll(…, 0) spin until the deadline passed.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now())
          .count();
  if (left <= 0) return 0;
  return static_cast<int>(std::min<long long>(left, kTickMs));
}

void put_u32le_bytes(unsigned char* p, std::uint32_t value) {
  p[0] = static_cast<unsigned char>(value & 0xff);
  p[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((value >> 24) & 0xff);
}

/// Encodes and sends one frame scatter/gather: the header and CRC trailer
/// live on the stack, the payload bytes go straight from the caller's
/// view, so no frame string is ever materialized. Three iovecs, resumed
/// mid-iovec after partial sends.
bool send_frame(int fd, FrameType type, std::string_view payload) {
  unsigned char header[kFrameHeaderSize];
  unsigned char trailer[kFrameTrailerSize];
  header[0] = static_cast<unsigned char>(type);
  put_u32le_bytes(header + 1, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32(header, kFrameHeaderSize);
  crc = util::crc32(payload.data(), payload.size(), crc);
  put_u32le_bytes(trailer, crc);
  iovec iov[3];
  std::size_t iovcnt = 0;
  iov[iovcnt++] = {header, kFrameHeaderSize};
  if (!payload.empty()) {
    iov[iovcnt++] = {const_cast<char*>(payload.data()), payload.size()};
  }
  iov[iovcnt++] = {trailer, kFrameTrailerSize};
  std::size_t iov_idx = 0;
  std::size_t left = kFrameHeaderSize + payload.size() + kFrameTrailerSize;
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = iov + iov_idx;
    msg.msg_iovlen = iovcnt - iov_idx;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // SO_SNDTIMEO expiry surfaces as EAGAIN: dead peer
    }
    left -= static_cast<std::size_t>(n);
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0 && sent >= iov[iov_idx].iov_len) {
      sent -= iov[iov_idx].iov_len;
      ++iov_idx;
    }
    if (sent > 0) {
      iov[iov_idx].iov_base = static_cast<char*>(iov[iov_idx].iov_base) + sent;
      iov[iov_idx].iov_len -= sent;
    }
  }
  return true;
}

}  // namespace

struct ClientPool::Impl {
  /// One call's completion record, queued on its connection while in
  /// flight. Guarded by the connection's mutex.
  struct Slot {
    Clock::time_point deadline;
    bool done = false;
    CallResult result;
  };

  // One pooled connection. `mutex` guards every field; the fd's I/O is the
  // one exception. The caller holding `reading` polls and receives on the
  // fd with the mutex released, and while it does nobody else reads or
  // closes the fd. The fd goes -1 -> live only by a sender (under `mutex`,
  // and only while fd == -1, which implies nothing is in flight and
  // nobody is reading). It goes live -> -1 by whoever breaks the
  // connection: the reader, or — only while nobody is reading — a failed
  // sender or the pool's shutdown. With a reader active those two
  // ::shutdown() the fd instead, which ends the reader's poll, and leave
  // the close to it.
  struct Conn {
    std::mutex mutex;
    std::condition_variable cv;  // notified when calls complete or fail
    int fd = -1;
    FrameDecoder decoder;
    std::deque<Slot*> waiters;   // in flight, oldest first
    bool reading = false;
    bool closed = false;         // pool shut down: no new calls
    // Probe traffic is accounted in pings_ok/pings_failed only; a probe
    // conn stays out of the data-path counters (requests, ok, errors,
    // reconnects) so ROUTER-STATS error classes mean what they say.
    bool is_probe = false;
  };

  struct Backend {
    Endpoint endpoint;
    std::vector<std::unique_ptr<Conn>> conns;  // round-robin data conns
    std::unique_ptr<Conn> probe;  // prober-only, so a slow probe never
                                  // queues behind (or fails) data calls
    std::atomic<std::size_t> next{0};
    std::atomic<bool> healthy{true};

    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> ok{0};
    std::atomic<std::uint64_t> connect_errors{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> io_errors{0};
    std::atomic<std::uint64_t> pings_ok{0};
    std::atomic<std::uint64_t> pings_failed{0};
    std::atomic<std::uint64_t> mark_downs{0};
    std::atomic<std::uint64_t> reconnects{0};
  };

  // The backend list is immutable once published: add_backend copies it,
  // appends, and release-stores the new list (RCU). Readers (call paths,
  // the prober, counters) acquire-load a snapshot and index into it;
  // Backend objects themselves are shared_ptr-owned, so a snapshot taken
  // before an add keeps working unchanged. Backends are never removed —
  // a retired shard's backend just stops being named by any routing
  // table, its counters still visible in ROUTER-STATS.
  using BackendList = std::vector<std::shared_ptr<Backend>>;

  ClientPoolConfig config;
  std::atomic<std::shared_ptr<const BackendList>> backends{nullptr};
  std::mutex grow_mutex;  // serializes add_backend; shutdown takes it to
                          // pin the final list before closing connections
  std::atomic<bool> stop{false};
  std::thread prober;
  std::mutex prober_mutex;
  std::condition_variable prober_cv;

  std::shared_ptr<const BackendList> list() const {
    return backends.load(std::memory_order_acquire);
  }

  static void mark_down(Backend& b) {
    if (b.healthy.exchange(false, std::memory_order_relaxed)) {
      b.mark_downs.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Fails and clears every call in flight. Caller holds conn.mutex.
  static void fail_waiters(Conn& conn, CallStatus status) {
    for (Slot* slot : conn.waiters) {
      slot->result = CallResult{status, {}};
      slot->done = true;
    }
    conn.waiters.clear();
  }

  /// Closes a broken connection and fails its calls. Caller holds
  /// conn.mutex and either holds the reading role or knows nobody does.
  /// State first, slots last: a caller that sees its call failed must
  /// already see the backend down and the counters bumped, or a retry
  /// could route straight back.
  static void break_connection(Backend& backend, Conn& conn,
                               CallStatus status) {
    if (!conn.is_probe) {
      const std::uint64_t n = conn.waiters.size();
      auto& counter = status == CallStatus::kTimeout ? backend.timeouts
                                                     : backend.io_errors;
      counter.fetch_add(n, std::memory_order_relaxed);
    }
    ::close(conn.fd);
    conn.fd = -1;
    mark_down(backend);
    fail_waiters(conn, status);
  }

  /// One round by the holder of conn's reading role, which the caller
  /// holds along with `lock` on conn.mutex, with calls in flight: waits,
  /// mutex released, until the connection is readable or the oldest
  /// call's deadline passes, then completes every call whose answer
  /// arrived. Returns whether any call completed or failed.
  static bool read_round(Backend& backend, Conn& conn,
                         std::unique_lock<std::mutex>& lock) {
    const int fd = conn.fd;
    const Clock::time_point deadline = conn.waiters.front()->deadline;
    lock.unlock();

    pollfd pfd = {fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, remaining_ms(deadline));
    int error = errno;
    char buf[64 * 1024];
    ssize_t n = 0;
    if (ready > 0) {
      n = ::recv(fd, buf, sizeof buf, 0);
      error = errno;
    }

    lock.lock();
    if (conn.closed) {
      // The pool shut down mid-read: it has failed every call and left
      // the fd to us.
      ::close(fd);
      conn.fd = -1;
      return true;
    }
    if (ready < 0 && error != EINTR) {
      break_connection(backend, conn, CallStatus::kIoError);
      return true;
    }
    if (ready <= 0) {
      if (Clock::now() < deadline) return false;
      // The oldest answer is overdue. Everything behind it on this
      // connection is unidentifiable once the stream is abandoned, so the
      // whole flight fails and the connection resets.
      break_connection(backend, conn, CallStatus::kTimeout);
      return true;
    }
    if (n < 0 && error == EINTR) return false;
    if (n <= 0) {  // EOF or error: the stream is gone
      break_connection(backend, conn, CallStatus::kIoError);
      return true;
    }
    conn.decoder.feed(buf, static_cast<std::size_t>(n));
    bool completed = false;
    Frame frame;
    for (;;) {
      const DecodeStatus status = conn.decoder.next(frame);
      if (status == DecodeStatus::kNeedMore) return completed;
      if (status == DecodeStatus::kMalformed || conn.waiters.empty()) {
        // Garbage, or a response nobody asked for: correlation is
        // positional, so the stream is unusable from here on.
        break_connection(backend, conn, CallStatus::kIoError);
        return true;
      }
      Slot& slot = *conn.waiters.front();
      conn.waiters.pop_front();
      if (!conn.is_probe) backend.ok.fetch_add(1, std::memory_order_relaxed);
      slot.result = CallResult{CallStatus::kOk, std::move(frame)};
      slot.done = true;
      frame = Frame{};
      completed = true;
    }
  }

  /// Sends one request frame on `conn` and queues its call behind the
  /// ones already in flight there (FIFO). A failure fails the returned
  /// call at once. Defined after PendingCall::State, which it fills in.
  PendingCall send_call(const std::shared_ptr<Backend>& backend, Conn& conn,
                        FrameType type, std::string_view payload);

  /// The data connection for the next call to `backend` (round-robin).
  static Conn& next_conn(Backend& backend) {
    return *backend.conns[backend.next.fetch_add(1, std::memory_order_relaxed) %
                          backend.conns.size()];
  }

  void probe_loop() {
    std::unique_lock lock(prober_mutex);
    while (!stop.load(std::memory_order_acquire)) {
      prober_cv.wait_for(
          lock, std::chrono::milliseconds(config.ping_interval_ms),
          [&] { return stop.load(std::memory_order_acquire); });
      if (stop.load(std::memory_order_acquire)) break;
      lock.unlock();
      // Per-round snapshot: a backend added mid-round is probed from the
      // next round on.
      const std::shared_ptr<const BackendList> snapshot = list();
      for (const auto& backend : *snapshot) {
        if (stop.load(std::memory_order_acquire)) break;
        const CallResult result =
            send_call(backend, *backend->probe, FrameType::kPing, "hp").get();
        if (result.ok() && result.response.type == FrameType::kPong) {
          backend->pings_ok.fetch_add(1, std::memory_order_relaxed);
          backend->healthy.store(true, std::memory_order_relaxed);
        } else {
          backend->pings_failed.fetch_add(1, std::memory_order_relaxed);
          mark_down(*backend);
        }
      }
      lock.lock();
    }
  }

  std::shared_ptr<Backend> make_backend(Endpoint endpoint) {
    auto backend = std::make_shared<Backend>();
    backend->endpoint = std::move(endpoint);
    for (std::size_t i = 0; i < config.connections_per_backend; ++i) {
      backend->conns.push_back(std::make_unique<Conn>());
    }
    backend->probe = std::make_unique<Conn>();
    backend->probe->is_probe = true;
    return backend;
  }

  void start() {
    if (config.ping_interval_ms > 0) {
      prober = std::thread([this] { probe_loop(); });
    }
  }

  void shutdown() {
    stop.store(true, std::memory_order_release);
    prober_cv.notify_all();
    // Pin the final list under grow_mutex: any add_backend that won the
    // lock before us is fully in the list; any that loses it observes
    // `stop` and refuses, so every connection is closed below.
    std::shared_ptr<const BackendList> final_list;
    {
      std::lock_guard grow(grow_mutex);
      final_list = list();
    }
    const auto close_conn = [](Conn& conn) {
      std::lock_guard lock(conn.mutex);
      conn.closed = true;
      if (conn.fd >= 0) {
        if (conn.reading) {
          ::shutdown(conn.fd, SHUT_RDWR);  // the reader closes it
        } else {
          ::close(conn.fd);
          conn.fd = -1;
        }
      }
      fail_waiters(conn, CallStatus::kShutdown);
      conn.cv.notify_all();
    };
    for (const auto& backend : *final_list) {
      for (auto& conn : backend->conns) close_conn(*conn);
      close_conn(*backend->probe);
    }
    if (prober.joinable()) prober.join();
  }
};

struct PendingCall::State {
  // Owns `conn`, so the call may outlive the pool.
  std::shared_ptr<ClientPool::Impl::Backend> backend;
  ClientPool::Impl::Conn* conn = nullptr;
  ClientPool::Impl::Slot slot;
};

PendingCall::PendingCall() = default;
PendingCall::PendingCall(PendingCall&& other) noexcept = default;
PendingCall::PendingCall(std::unique_ptr<State> state)
    : state_(std::move(state)) {}

PendingCall& PendingCall::operator=(PendingCall&& other) noexcept {
  if (this != &other) {
    if (state_) get();
    state_ = std::move(other.state_);
  }
  return *this;
}

PendingCall::~PendingCall() {
  if (state_) get();  // drain: the answer is owed to this slot
}

CallResult PendingCall::get() {
  if (!state_) return {};
  ClientPool::Impl::Conn& conn = *state_->conn;
  ClientPool::Impl::Slot& slot = state_->slot;
  {
    std::unique_lock lock(conn.mutex);
    conn.cv.wait(lock, [&] { return slot.done || !conn.reading; });
    if (!slot.done) {
      // Nobody is reading: take the role and keep it until our own
      // answer is in, waking the waiters whose answers arrive first.
      conn.reading = true;
      do {
        if (ClientPool::Impl::read_round(*state_->backend, conn, lock)) {
          conn.cv.notify_all();
        }
      } while (!slot.done);
      // The round that completed our call woke every waiter; once we
      // unlock, one whose answer is still out finds the role free.
      conn.reading = false;
    }
  }
  CallResult result = std::move(slot.result);
  state_.reset();
  return result;
}

PendingCall ClientPool::Impl::send_call(
    const std::shared_ptr<Backend>& backend, Conn& conn, FrameType type,
    std::string_view payload) {
  auto state = std::make_unique<PendingCall::State>();
  state->backend = backend;
  state->conn = &conn;
  Slot& slot = state->slot;
  PendingCall out(std::move(state));
  const auto fail = [&](CallStatus status) {
    slot.result = CallResult{status, {}};
    slot.done = true;
    return std::move(out);
  };

  std::lock_guard lock(conn.mutex);
  if (conn.closed) return fail(CallStatus::kShutdown);
  if (conn.fd < 0) {
    // request_timeout_ms bounds sends; reads poll against call deadlines.
    std::string error;
    const int fd = connect_tcp(backend->endpoint, config.connect_timeout_ms,
                               config.request_timeout_ms, error);
    if (fd < 0) {
      if (!conn.is_probe) {
        backend->connect_errors.fetch_add(1, std::memory_order_relaxed);
      }
      mark_down(*backend);
      return fail(CallStatus::kConnectFailed);
    }
    conn.fd = fd;
    conn.decoder = FrameDecoder(kMaxResponsePayload);
    if (!conn.is_probe) {
      backend->reconnects.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!send_frame(conn.fd, type, payload)) {
    if (!conn.is_probe) {
      backend->io_errors.fetch_add(1, std::memory_order_relaxed);
    }
    mark_down(*backend);
    if (conn.reading) {
      ::shutdown(conn.fd, SHUT_RDWR);  // the reader owns the teardown
    } else {
      break_connection(*backend, conn, CallStatus::kIoError);
      conn.cv.notify_all();
    }
    return fail(CallStatus::kIoError);
  }
  slot.deadline =
      Clock::now() + std::chrono::milliseconds(config.request_timeout_ms);
  conn.waiters.push_back(&slot);
  return out;
}

ClientPool::ClientPool(std::vector<Endpoint> backends,
                       ClientPoolConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  if (impl_->config.connections_per_backend == 0) {
    impl_->config.connections_per_backend = 1;
  }
  auto initial = std::make_shared<Impl::BackendList>();
  for (Endpoint& endpoint : backends) {
    initial->push_back(impl_->make_backend(std::move(endpoint)));
  }
  impl_->backends.store(std::move(initial), std::memory_order_release);
  impl_->start();
}

ClientPool::~ClientPool() { impl_->shutdown(); }

const Endpoint& ClientPool::backend(std::size_t index) const {
  return (*impl_->list())[index]->endpoint;
}

std::size_t ClientPool::add_backend(const Endpoint& endpoint) {
  std::lock_guard grow(impl_->grow_mutex);
  const std::shared_ptr<const Impl::BackendList> cur = impl_->list();
  for (std::size_t i = 0; i < cur->size(); ++i) {
    const Endpoint& existing = (*cur)[i]->endpoint;
    if (existing.host == endpoint.host && existing.port == endpoint.port) {
      return i;
    }
  }
  if (impl_->stop.load(std::memory_order_acquire)) return kNoBackend;
  auto next = std::make_shared<Impl::BackendList>(*cur);
  next->push_back(impl_->make_backend(endpoint));
  impl_->backends.store(std::move(next), std::memory_order_release);
  return cur->size();
}

PendingCall ClientPool::call(std::size_t backend, FrameType type,
                             std::string_view payload) {
  const std::shared_ptr<const Impl::BackendList> list = impl_->list();
  const std::shared_ptr<Impl::Backend>& b = (*list)[backend];
  b->requests.fetch_add(1, std::memory_order_relaxed);
  return impl_->send_call(b, Impl::next_conn(*b), type, payload);
}

bool ClientPool::healthy(std::size_t backend) const {
  return (*impl_->list())[backend]->healthy.load(std::memory_order_relaxed);
}

BackendCounters ClientPool::counters(std::size_t backend) const {
  const Impl::Backend& b = *(*impl_->list())[backend];
  BackendCounters out;
  out.requests = b.requests.load(std::memory_order_relaxed);
  out.ok = b.ok.load(std::memory_order_relaxed);
  out.connect_errors = b.connect_errors.load(std::memory_order_relaxed);
  out.timeouts = b.timeouts.load(std::memory_order_relaxed);
  out.io_errors = b.io_errors.load(std::memory_order_relaxed);
  out.pings_ok = b.pings_ok.load(std::memory_order_relaxed);
  out.pings_failed = b.pings_failed.load(std::memory_order_relaxed);
  out.mark_downs = b.mark_downs.load(std::memory_order_relaxed);
  out.reconnects = b.reconnects.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sm::netio
