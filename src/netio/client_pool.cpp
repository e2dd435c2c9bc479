#include "netio/client_pool.h"

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <semaphore>
#include <thread>

namespace sm::netio {

struct ClientPool::Impl {
  using Conn = std::unique_ptr<FrameClient>;

  struct Backend {
    explicit Backend(Endpoint where) : endpoint(std::move(where)) {}

    const Endpoint endpoint;
    std::atomic<bool> healthy{true};

    // Guards the fields below. A connection is idle here, checked out by
    // exactly one call (its fd listed in `busy`, so shutdown can wake a
    // blocked read), or closed. A checked-out fd is closed only after it
    // leaves `busy`, so shutdown never touches a closed or reused fd.
    std::mutex mutex;
    BackendCounters counters;
    bool closed = false;           // pool shut down: no new calls
    std::vector<Conn> idle;        // data connections ready for a call
    std::vector<Conn> probe_idle;  // the prober's own connection, if idle
    std::vector<int> busy;         // fds of checked-out connections

    /// Clears the health bit. Caller holds `mutex`.
    void mark_down() {
      if (healthy.exchange(false, std::memory_order_relaxed)) {
        ++counters.mark_downs;
      }
    }
  };

  // Immutable once published: add_backend copies the list, appends and
  // release-stores it (RCU), so a snapshot stays valid. Backends are
  // never removed — a retired shard's backend just stops being named by
  // any routing table, its counters still visible in ROUTER-STATS.
  using BackendList = std::vector<std::shared_ptr<Backend>>;

  ClientPoolConfig config;
  std::atomic<std::shared_ptr<const BackendList>> backends{nullptr};
  std::mutex grow_mutex;  // serializes add_backend; shutdown takes it to
                          // pin the final list before closing connections
  std::atomic<bool> stop{false};
  std::binary_semaphore stop_signal{0};  // ends the prober's sleep
  std::thread prober;

  std::shared_ptr<const BackendList> list() const {
    return backends.load(std::memory_order_acquire);
  }

  /// Takes an idle connection of the backend (the prober's own one for a
  /// probe) or connects a new one, and registers it as busy. Returns null
  /// with `status` set when neither works.
  Conn checkout(Backend& b, bool probe, CallStatus& status) const {
    std::unique_lock lock(b.mutex);
    if (!probe) ++b.counters.requests;
    std::vector<Conn>& idle = probe ? b.probe_idle : b.idle;
    Conn conn;
    if (!idle.empty()) {
      conn = std::move(idle.back());
      idle.pop_back();
    } else if (!b.closed) {
      lock.unlock();
      conn = std::make_unique<FrameClient>();
      const bool connected = conn->connect(
          b.endpoint, config.connect_timeout_ms, config.request_timeout_ms);
      lock.lock();
      if (!connected) {
        if (!probe) ++b.counters.connect_errors;
        b.mark_down();
        status = CallStatus::kConnectFailed;
        return nullptr;
      }
      if (!probe) ++b.counters.reconnects;
    }
    if (b.closed) {
      status = CallStatus::kShutdown;
      return nullptr;
    }
    b.busy.push_back(conn->fd());
    return conn;
  }

  /// Ends a call: a good answer puts the connection back on the idle
  /// list; a failure closes it and the backend's idle ones, and marks the
  /// backend down before the caller sees it, so a retry routes elsewhere.
  static CallResult check_in(Backend& b, Conn conn, bool probe, bool ok,
                             Frame response) {
    std::lock_guard lock(b.mutex);
    b.busy.erase(std::find(b.busy.begin(), b.busy.end(), conn->fd()));
    if (b.closed) return {CallStatus::kShutdown, {}};
    if (ok) {
      if (!probe) ++b.counters.ok;
      (probe ? b.probe_idle : b.idle).push_back(std::move(conn));
      return {CallStatus::kOk, std::move(response)};
    }
    const bool timeout = conn->failure() == FrameClient::Failure::kTimeout;
    if (!probe) ++(timeout ? b.counters.timeouts : b.counters.io_errors);
    b.mark_down();
    b.idle.clear();
    b.probe_idle.clear();
    return {timeout ? CallStatus::kTimeout : CallStatus::kIoError, {}};
  }

  /// Sends one request frame on a checked-out connection.
  PendingCall start(const std::shared_ptr<Backend>& backend, bool probe,
                    FrameType type, std::string_view payload) const;

  void probe_loop() {
    const auto interval = std::chrono::milliseconds(config.ping_interval_ms);
    while (!stop_signal.try_acquire_for(interval)) {
      // A backend added mid-round is probed from the next round on.
      const std::shared_ptr<const BackendList> snapshot = list();
      for (const auto& backend : *snapshot) {
        if (stop.load(std::memory_order_acquire)) return;
        const CallResult result =
            start(backend, /*probe=*/true, FrameType::kPing, "hp").get();
        std::lock_guard lock(backend->mutex);
        if (result.ok() && result.response.type == FrameType::kPong) {
          ++backend->counters.pings_ok;
          backend->healthy.store(true, std::memory_order_relaxed);
        } else {
          ++backend->counters.pings_failed;
          backend->mark_down();
        }
      }
    }
  }

  void shutdown() {
    stop.store(true, std::memory_order_release);
    stop_signal.release();
    // Pin the final list under grow_mutex: any add_backend that won the
    // lock before us is fully in the list; any that loses it observes
    // `stop` and refuses, so every connection is closed below.
    const auto final_list = [&] {
      std::lock_guard grow(grow_mutex);
      return list();
    }();
    for (const auto& backend : *final_list) {
      std::lock_guard lock(backend->mutex);
      backend->closed = true;
      backend->idle.clear();
      backend->probe_idle.clear();
      // Ends a blocked read (or send); its call closes the fd itself.
      for (const int fd : backend->busy) ::shutdown(fd, SHUT_RDWR);
    }
    if (prober.joinable()) prober.join();
  }
};

struct PendingCall::State {
  // Shared, so the call may outlive the pool.
  std::shared_ptr<ClientPool::Impl::Backend> backend;
  ClientPool::Impl::Conn conn;  // null once the call has ended
  bool probe = false;
  CallResult result;  // the outcome of a call that ended before get()
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
  if (state_) get();  // drain, so the connection goes back clean
}

CallResult PendingCall::get() {
  if (!state_) return {};
  const std::unique_ptr<State> state = std::move(state_);
  if (!state->conn) return std::move(state->result);
  Frame response;
  const bool ok = state->conn->read_frame(response);
  return ClientPool::Impl::check_in(*state->backend, std::move(state->conn),
                                    state->probe, ok, std::move(response));
}

PendingCall ClientPool::Impl::start(const std::shared_ptr<Backend>& backend,
                                    bool probe, FrameType type,
                                    std::string_view payload) const {
  auto state = std::make_unique<PendingCall::State>();
  state->backend = backend;
  state->probe = probe;
  state->conn = checkout(*backend, probe, state->result.status);
  if (state->conn && !state->conn->send_frame(type, payload)) {
    state->result = check_in(*backend, std::move(state->conn), probe,
                             /*ok=*/false, {});
  }
  return PendingCall(std::move(state));
}

ClientPool::ClientPool(std::vector<Endpoint> backends,
                       ClientPoolConfig config)
    : impl_(std::make_unique<Impl>()) {
  impl_->config = config;
  auto initial = std::make_shared<Impl::BackendList>();
  for (Endpoint& endpoint : backends) {
    initial->push_back(std::make_shared<Impl::Backend>(std::move(endpoint)));
  }
  impl_->backends.store(std::move(initial), std::memory_order_release);
  if (config.ping_interval_ms > 0) {
    impl_->prober = std::thread([impl = impl_.get()] { impl->probe_loop(); });
  }
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
  next->push_back(std::make_shared<Impl::Backend>(endpoint));
  impl_->backends.store(std::move(next), std::memory_order_release);
  return cur->size();
}

PendingCall ClientPool::call(std::size_t backend, FrameType type,
                             std::string_view payload) {
  const std::shared_ptr<const Impl::BackendList> list = impl_->list();
  return impl_->start((*list)[backend], /*probe=*/false, type, payload);
}

bool ClientPool::healthy(std::size_t backend) const {
  return (*impl_->list())[backend]->healthy.load(std::memory_order_relaxed);
}

BackendCounters ClientPool::counters(std::size_t backend) const {
  Impl::Backend& b = *(*impl_->list())[backend];
  std::lock_guard lock(b.mutex);
  return b.counters;
}

}  // namespace sm::netio
