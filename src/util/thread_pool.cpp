#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>

namespace sm::util {

namespace {

// Set inside workers so a nested `parallel_for` runs inline instead of
// deadlocking on its own pool.
thread_local bool t_in_worker = false;

// Caps absurd requests (e.g. a negative count that wrapped to SIZE_MAX)
// so the constructor never throws length_error or exhausts the system.
constexpr std::size_t kMaxThreads = 4096;

std::size_t resolve(std::size_t threads) {
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return std::min(threads, kMaxThreads);
}

std::mutex& global_mutex() {
  static std::mutex m;
  return m;
}

std::size_t& global_setting() {
  static std::size_t threads = 0;  // 0 = hardware default
  return threads;
}

std::unique_ptr<ThreadPool>& global_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

// One parallel_for invocation. Executors (workers + the caller) pull chunk
// indices from `next` until exhausted; the lowest-indexed exception wins so
// a failing run reports the same error at every thread count.
struct Job {
  std::size_t n = 0;
  std::size_t chunk = 1;
  std::size_t chunk_count = 0;
  const std::function<void(std::size_t, std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pending_tasks = 0;
  std::exception_ptr error;
  std::size_t error_chunk = static_cast<std::size_t>(-1);

  void run_chunks() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= chunk_count) return;
      const std::size_t begin = i * chunk;
      const std::size_t end = std::min(n, begin + chunk);
      try {
        (*fn)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        if (i < error_chunk) {
          error_chunk = i;
          error = std::current_exception();
        }
      }
    }
  }
};

// One ordered_for invocation: `next` is the next index to produce,
// `consumed` the number consumed, and ready[i % window] marks a produced
// index. Everything is guarded by `mutex`.
struct OrderedJob {
  std::size_t n = 0;
  std::size_t window = 1;
  const std::function<void(std::size_t)>* produce = nullptr;
  std::mutex mutex;
  std::condition_variable changed;
  std::size_t next = 0;
  std::size_t consumed = 0;
  std::vector<std::uint8_t> ready;
  std::size_t pending_tasks = 0;
  std::exception_ptr error;

  bool may_produce() const { return next < n && next < consumed + window; }

  // Produces one claimed index, recording the first error. Called and
  // returns with `lock` held.
  void produce_one(std::unique_lock<std::mutex>& lock) {
    const std::size_t i = next++;
    lock.unlock();
    std::exception_ptr thrown;
    try {
      (*produce)(i);
    } catch (...) {
      thrown = std::current_exception();
    }
    lock.lock();
    if (thrown) {
      if (!error) error = thrown;
    } else {
      ready[i % window] = 1;
    }
    changed.notify_all();
  }

  // A worker's share: produce while the window allows, until every index
  // was claimed or a task failed.
  void run_producer() {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&] { return may_produce() || next >= n || error; });
      if (next >= n || error) break;
      produce_one(lock);
    }
    --pending_tasks;
    changed.notify_all();
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) : size_(resolve(threads)) {
  // The caller participates in every parallel_for, so spawn size_ - 1
  // workers; a pool of size 1 is purely serial.
  const std::size_t spawn = size_ - 1;
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.back());
      queue_.pop_back();
    }
    task.fn();
  }
}

void ThreadPool::run_serial(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    fn(begin, std::min(n, begin + chunk));
  }
}

void ThreadPool::parallel_for(
    std::size_t n, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  chunk = std::max<std::size_t>(1, chunk);
  const std::size_t chunk_count = (n + chunk - 1) / chunk;
  if (size_ <= 1 || chunk_count <= 1 || t_in_worker) {
    run_serial(n, chunk, fn);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk = chunk;
  job->chunk_count = chunk_count;
  job->fn = &fn;

  // The caller is one executor; spawn at most chunk_count - 1 helpers.
  const std::size_t helpers = std::min(workers_.size(), chunk_count - 1);
  job->pending_tasks = helpers;
  if (helpers > 0) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < helpers; ++i) {
        queue_.push_back(Task{[job] {
          job->run_chunks();
          {
            std::lock_guard<std::mutex> inner(job->mutex);
            --job->pending_tasks;
          }
          job->done.notify_one();
        }});
      }
    }
    wake_.notify_all();
  }

  job->run_chunks();

  std::unique_lock<std::mutex> lock(job->mutex);
  job->done.wait(lock, [&] { return job->pending_tasks == 0; });
  // Move the exception out of the Job before rethrowing: worker closures
  // may destroy their Job reference after we return, and the exception
  // object must only ever be touched from this thread.
  std::exception_ptr error = std::move(job->error);
  job->error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::ordered_for(std::size_t n, std::size_t window,
                             const std::function<void(std::size_t)>& produce,
                             const std::function<void(std::size_t)>& consume) {
  if (n == 0) return;
  if (size_ <= 1 || n == 1 || t_in_worker) {
    for (std::size_t i = 0; i < n; ++i) {
      produce(i);
      consume(i);
    }
    return;
  }

  auto job = std::make_shared<OrderedJob>();
  job->n = n;
  job->window = std::max<std::size_t>(1, window);
  job->produce = &produce;
  job->ready.assign(job->window, 0);
  const std::size_t helpers = std::min(workers_.size(), n - 1);
  job->pending_tasks = helpers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) {
      queue_.push_back(Task{[job] { job->run_producer(); }});
    }
  }
  wake_.notify_all();

  // The caller consumes in order, and produces itself whenever the next
  // index to consume is not ready yet and the window allows.
  std::unique_lock<std::mutex> lock(job->mutex);
  while (job->consumed < n && !job->error) {
    const std::size_t slot = job->consumed % job->window;
    if (job->ready[slot]) {
      lock.unlock();
      std::exception_ptr thrown;
      try {
        consume(job->consumed);
      } catch (...) {
        thrown = std::current_exception();
      }
      lock.lock();
      if (thrown) {
        if (!job->error) job->error = thrown;
        break;
      }
      job->ready[slot] = 0;
      ++job->consumed;
      job->changed.notify_all();
    } else if (job->may_produce()) {
      job->produce_one(lock);
    } else {
      job->changed.wait(lock, [&] {
        return job->ready[job->consumed % job->window] || job->error;
      });
    }
  }
  // On error, stop the producers from claiming more and wait them out:
  // they reference `produce`, which lives in the caller's frame.
  if (job->error) job->next = n;
  job->changed.notify_all();
  job->changed.wait(lock, [&] { return job->pending_tasks == 0; });
  std::exception_ptr error = std::move(job->error);
  job->error = nullptr;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(global_mutex());
  auto& slot = global_slot();
  if (!slot) slot = std::make_unique<ThreadPool>(global_setting());
  return *slot;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(global_mutex());
  global_setting() = threads;
  auto& slot = global_slot();
  if (slot) slot = std::make_unique<ThreadPool>(threads);
}

std::size_t ThreadPool::global_thread_count() {
  std::lock_guard<std::mutex> lock(global_mutex());
  return resolve(global_setting());
}

}  // namespace sm::util
