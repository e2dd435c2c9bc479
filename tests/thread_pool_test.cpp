// Tests for sm::util::ThreadPool — shutdown, parallel_for coverage and
// deterministic ordering, exception propagation, the nested-use guard, and
// ordered_for's in-order consumption on the caller within its window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/thread_pool.h"

namespace sm::util {
namespace {

TEST(ThreadPool, ConstructAndShutdownIdle) {
  // Pools of every interesting size must start and join cleanly with no
  // work submitted.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }
}

TEST(ThreadPool, ZeroMeansHardwareDefault) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, ShutdownAfterWork) {
  // Destruction right after a burst of jobs must not hang or lose tasks.
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(4);
    std::atomic<int> hits{0};
    pool.parallel_for(100, 7, [&](std::size_t begin, std::size_t end) {
      hits += static_cast<int>(end - begin);
    });
    EXPECT_EQ(hits.load(), 100);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<int> visits(1000, 0);
    pool.parallel_for(visits.size(), 13,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) ++visits[i];
                      });
    for (const int v : visits) EXPECT_EQ(v, 1);
  }
}

TEST(ThreadPool, ParallelForDeterministicOrdering) {
  // Index-addressed writes make the output independent of the schedule:
  // the same transform must produce byte-identical results at 1, 2, and 8
  // threads.
  const std::size_t n = 4096;
  std::vector<std::uint64_t> reference(n);
  ThreadPool serial(1);
  serial.parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      reference[i] = i * 2654435761u + 17;
    }
  });
  for (const std::size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> out(n);
    pool.parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = i * 2654435761u + 17;
      }
    });
    EXPECT_EQ(out, reference);
  }
}

TEST(ThreadPool, EmptyRangeIsANoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ExceptionPropagates) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.parallel_for(100, 10,
                          [](std::size_t begin, std::size_t) {
                            if (begin == 50) {
                              throw std::runtime_error("chunk 5 failed");
                            }
                          }),
        std::runtime_error);
    // The pool must remain usable after a throwing job.
    std::atomic<int> hits{0};
    pool.parallel_for(10, 1, [&](std::size_t, std::size_t) { ++hits; });
    EXPECT_EQ(hits.load(), 10);
  }
}

TEST(ThreadPool, LowestChunkExceptionWins) {
  // Several chunks throw; the rethrown error must be the lowest-indexed
  // one at every thread count.
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    try {
      pool.parallel_for(100, 10, [](std::size_t begin, std::size_t) {
        if (begin >= 30) {
          throw std::runtime_error("chunk " + std::to_string(begin / 10));
        }
      });
      FAIL() << "expected a throw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk 3");
    }
  }
}

TEST(ThreadPool, NestedUseRunsInline) {
  // A parallel region that itself calls parallel_for must complete (the
  // nested call runs serially on the worker) rather than deadlock.
  ThreadPool pool(4);
  std::vector<std::uint64_t> sums(16, 0);
  pool.parallel_for(sums.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      std::vector<std::uint64_t> inner(100);
      pool.parallel_for(inner.size(), 10,
                        [&](std::size_t b, std::size_t e) {
                          for (std::size_t j = b; j < e; ++j) {
                            inner[j] = i * 1000 + j;
                          }
                        });
      sums[i] = std::accumulate(inner.begin(), inner.end(), std::uint64_t{0});
    }
  });
  for (std::size_t i = 0; i < sums.size(); ++i) {
    EXPECT_EQ(sums[i], i * 1000 * 100 + 4950);
  }
}

TEST(ThreadPool, OrderedForConsumesInOrderOnTheCaller) {
  // Producers fill index-addressed ring slots; the caller alone consumes,
  // in index order, and never sees more than `window` produced results
  // waiting.
  for (const std::size_t threads : {1u, 2u, 4u}) {
    for (const std::size_t window : {1u, 3u, 8u}) {
      ThreadPool pool(threads);
      const std::size_t n = 200;
      std::vector<std::uint64_t> ring(window, 0);
      std::atomic<std::size_t> produced{0};
      std::vector<std::uint64_t> consumed;
      bool off_caller = false;
      std::size_t max_waiting = 0;
      const std::thread::id caller = std::this_thread::get_id();
      pool.ordered_for(
          n, window,
          [&](std::size_t i) {
            ring[i % window] = i * i + 1;
            ++produced;
          },
          [&](std::size_t i) {
            if (std::this_thread::get_id() != caller) off_caller = true;
            max_waiting = std::max(max_waiting, produced.load() - i);
            consumed.push_back(ring[i % window]);
          });
      ASSERT_EQ(consumed.size(), n);
      for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(consumed[i], i * i + 1);
      EXPECT_FALSE(off_caller);
      EXPECT_LE(max_waiting, window);
    }
  }
}

TEST(ThreadPool, OrderedForStopsAtTheFirstError) {
  ThreadPool pool(4);
  std::vector<std::size_t> consumed;
  EXPECT_THROW(pool.ordered_for(
                   100, 4,
                   [&](std::size_t i) {
                     if (i == 37) throw std::runtime_error("produce 37");
                   },
                   [&](std::size_t i) { consumed.push_back(i); }),
               std::runtime_error);
  ASSERT_LE(consumed.size(), 37u);
  for (std::size_t i = 0; i < consumed.size(); ++i) EXPECT_EQ(consumed[i], i);

  consumed.clear();
  EXPECT_THROW(pool.ordered_for(
                   100, 4, [](std::size_t) {},
                   [&](std::size_t i) {
                     if (i == 5) throw std::runtime_error("consume 5");
                     consumed.push_back(i);
                   }),
               std::runtime_error);
  EXPECT_EQ(consumed.size(), 5u);
  // The pool still works afterwards.
  std::atomic<int> hits{0};
  pool.ordered_for(10, 2, [&](std::size_t) { ++hits; }, [](std::size_t) {});
  EXPECT_EQ(hits.load(), 10);
}

TEST(ThreadPool, GlobalPoolConfigurable) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global_thread_count(), 3u);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  ThreadPool::set_global_threads(0);  // restore hardware default
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

}  // namespace
}  // namespace sm::util
