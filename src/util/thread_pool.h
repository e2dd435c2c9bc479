// A fixed-size worker pool with a deterministic `parallel_for` helper.
//
// Design constraints (set by the linking pipeline that motivated it):
//  * Results must be bit-identical regardless of thread count: callers
//    write into index-addressed slots, so only the *schedule* varies.
//  * `parallel_for` blocks until every chunk finished and rethrows the
//    first exception a chunk threw (by chunk order, deterministically).
//  * Re-entrant use from inside a worker thread (a parallel region that
//    itself calls `parallel_for`) must not deadlock: nested calls run
//    inline on the calling worker.
//  * A pool of size <= 1 never spawns threads — the serial reference
//    path and the parallel path are the same code.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sm::util {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means one per hardware thread. A pool of
  /// size 1 runs everything inline on the caller.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (>= 1; the caller participates when it equals 1).
  std::size_t size() const { return size_; }

  /// Splits [0, n) into chunks of at most `chunk` indices and runs
  /// `fn(begin, end)` over them on the workers. Blocks until all chunks
  /// completed. If any chunk threw, rethrows the exception of the
  /// lowest-indexed throwing chunk. Safe to call from inside a worker
  /// (runs serially inline in that case).
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Runs `produce(i)` for every i in [0, n) on the workers and the caller,
  /// and `consume(i)` on the calling thread only, strictly in index order,
  /// while later indices are still being produced. Index i is produced only
  /// once index i - window was consumed, so at most `window` (>= 1)
  /// produced-but-unconsumed results exist at a time; a producer slot may
  /// therefore be addressed as i % window. Blocks until every index was
  /// consumed. If a produce or consume throws, no later index is consumed
  /// and the first exception (in time) is rethrown. Runs serially
  /// (produce(i), consume(i), ...) on a pool of size 1 or inside a worker.
  void ordered_for(std::size_t n, std::size_t window,
                   const std::function<void(std::size_t)>& produce,
                   const std::function<void(std::size_t)>& consume);

  /// The process-wide pool, created on first use with
  /// `global_thread_count()` workers.
  static ThreadPool& global();

  /// Sets the worker count used when (re)creating the global pool, and
  /// recreates it if it already exists. 0 restores the hardware default.
  /// Not safe concurrently with running work on the global pool; intended
  /// for start-up flags (`--threads`).
  static void set_global_threads(std::size_t threads);

  /// The configured global worker count (resolved, >= 1).
  static std::size_t global_thread_count();

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop();
  void run_serial(std::size_t n, std::size_t chunk,
                  const std::function<void(std::size_t, std::size_t)>& fn);

  std::size_t size_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Task> queue_;
  bool stopping_ = false;
};

}  // namespace sm::util
