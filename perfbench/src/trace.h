// Span recording for the traced benchmark run.
//
// A span is one call into a layer's public API, timed from the
// benchmark's own code: its name, start and end (steady_clock ns), the
// span that caused it, and the id of the request it belongs to. Spans are
// appended to per-thread buffers (one uncontended lock each) and only
// merged and written out after the timed phase ends. With tracing off
// every probe is one relaxed atomic load.
//
// Requests cross threads and sockets (client -> router worker -> backend
// worker), and the wire protocol carries no request id, so the
// benchmark's handler lambdas correlate by the request's first
// fingerprint through a FIFO registry: the sender pushes {request, span}
// under the fingerprint, the receiving handler pops it. Two requests for
// the same fingerprint in flight at once may swap contexts; both do the
// same work, so per-request figures are unaffected in distribution.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";       ///< static string
  std::uint64_t id = 0;
  std::uint64_t parent = 0;    ///< 0 = root
  std::uint64_t request = 0;   ///< 0 = not part of a request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  double micros() const { return static_cast<double>(end_ns - start_ns) * 1e-3; }
};

/// What a sender hands the next hop of a request.
struct SpanContext {
  std::uint64_t request = 0;
  std::uint64_t span = 0;
};

class Tracer {
 public:
  static Tracer& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  void record(const Span& span);

  /// Every span recorded so far, in no particular order.
  std::vector<Span> collect() const;
  void clear();

  /// Writes "id parent request name start_ns end_ns" lines.
  bool write_tsv(const std::string& path) const;

  /// Cross-thread correlation registry (see the file comment).
  void push_context(std::uint64_t key, SpanContext context);
  SpanContext pop_context(std::uint64_t key);

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;
  };
  struct ContextShard {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::deque<SpanContext>> queues;
  };
  static constexpr std::size_t kContextShards = 64;

  Buffer& local_buffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  ContextShard contexts_[kContextShards];
};

/// Correlation key of a 16-byte fingerprint starting at `p`.
inline std::uint64_t fingerprint_key(const char* p) {
  std::uint64_t a = 0, b = 0;
  std::memcpy(&a, p, 8);
  std::memcpy(&b, p + 8, 8);
  return a ^ (b * 0x9e3779b97f4a7c15ull);
}

/// Times one scope as a span when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, SpanContext parent = {})
      : active_(Tracer::get().enabled()) {
    if (!active_) return;
    span_.name = name;
    span_.id = Tracer::get().next_id();
    span_.parent = parent.span;
    span_.request = parent.request;
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (!active_) return;
    span_.end_ns = now_ns();
    Tracer::get().record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  /// The context a child of this span carries (request id kept).
  SpanContext context() const { return {span_.request, span_.id}; }

 private:
  bool active_;
  Span span_;
};

}  // namespace perfbench
