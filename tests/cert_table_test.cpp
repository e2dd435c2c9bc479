// CertTable: value semantics across copies that share chunks (appending
// to a copy never changes the original, and the reverse), the chunk
// boundaries, record address stability, the random-access iterator, and
// readers iterating a held epoch while a writer appends to copies of it.
// Runs under TSan and ASan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "scan/cert_table.h"
#include "util/thread_pool.h"

namespace sm::scan {
namespace {

constexpr std::size_t kChunk = CertTable::kChunk;

static_assert(std::random_access_iterator<CertTable::const_iterator>);

// Record `i` carries `i` in its fingerprint and in a heap-allocated CN, so
// a copy that shares or clones storage wrongly shows up as a mismatch.
CertRecord record(std::uint32_t i) {
  CertRecord r;
  std::memcpy(r.fingerprint.data(), &i, sizeof i);
  r.subject_cn = "certificate-number-" + std::to_string(i);
  return r;
}

bool holds(const CertRecord& r, std::uint32_t i) {
  std::uint32_t got = 0;
  std::memcpy(&got, r.fingerprint.data(), sizeof got);
  return got == i && r.subject_cn == "certificate-number-" + std::to_string(i);
}

CertTable table_of(std::size_t n) {
  CertTable t;
  for (std::size_t i = 0; i < n; ++i) {
    t.push_back(record(static_cast<std::uint32_t>(i)));
  }
  return t;
}

void expect_holds_prefix(const CertTable& t, std::size_t n) {
  ASSERT_EQ(t.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(holds(t[i], static_cast<std::uint32_t>(i))) << "record " << i;
  }
}

TEST(CertTableTest, EmptyTable) {
  const CertTable t;
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.chunk_count(), 0u);
  EXPECT_EQ(t.begin(), t.end());
}

// Around each chunk boundary: appending to a copy leaves the original as
// it was, and appending to the original leaves the copy as it was.
TEST(CertTableTest, CopiesAreIndependentAtChunkBoundaries) {
  for (const std::size_t n : {kChunk - 1, kChunk, kChunk + 1}) {
    SCOPED_TRACE(testing::Message() << "size " << n);
    CertTable original = table_of(n);
    CertTable copy = original;
    expect_holds_prefix(copy, n);

    // The copy grows past the next boundary; the original must not see it.
    for (std::size_t i = n; i < n + kChunk + 2; ++i) {
      copy.push_back(record(static_cast<std::uint32_t>(i)));
    }
    expect_holds_prefix(original, n);
    expect_holds_prefix(copy, n + kChunk + 2);

    // The original grows with different records; the copy must not see
    // them either.
    for (std::size_t i = 0; i < 3; ++i) {
      original.push_back(record(static_cast<std::uint32_t>(900000 + i)));
    }
    ASSERT_EQ(original.size(), n + 3);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_TRUE(
          holds(original[n + i], static_cast<std::uint32_t>(900000 + i)));
    }
    expect_holds_prefix(copy, n + kChunk + 2);
  }
}

// A bulk append equals that many push_backs, from any starting size, and
// leaves a copy that shares the old tail chunk untouched.
TEST(CertTableTest, AppendMovedMatchesPushBacks) {
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    for (const std::size_t n : {std::size_t{0}, kChunk - 3, kChunk}) {
      for (const std::size_t add : {std::size_t{1}, std::size_t{5}, 3 * kChunk + 7}) {
        SCOPED_TRACE(testing::Message() << "threads " << threads << " size "
                                        << n << " add " << add);
        CertTable table = table_of(n);
        const CertTable copy = table;
        std::vector<CertRecord> source;
        for (std::size_t i = n; i < n + add; ++i) {
          source.push_back(record(static_cast<std::uint32_t>(i)));
        }
        table.append_moved(add, pool, [&](std::size_t i) -> CertRecord& {
          return source[i];
        });
        expect_holds_prefix(table, n + add);
        EXPECT_EQ(table.chunk_count(), (n + add + kChunk - 1) / kChunk);
        expect_holds_prefix(copy, n);
        // push_back continues where the bulk append stopped.
        table.push_back(record(static_cast<std::uint32_t>(n + add)));
        expect_holds_prefix(table, n + add + 1);
      }
    }
  }
}

TEST(CertTableTest, ChunkSpansCoverTheTableInOrder) {
  for (const std::size_t n : {std::size_t{1}, kChunk - 1, kChunk, kChunk + 1,
                              3 * kChunk + 5}) {
    SCOPED_TRACE(testing::Message() << "size " << n);
    const CertTable t = table_of(n);
    EXPECT_EQ(t.chunk_count(), (n + kChunk - 1) / kChunk);
    std::size_t next = 0;
    for (std::size_t c = 0; c < t.chunk_count(); ++c) {
      for (const CertRecord& r : t.chunk(c)) {
        ASSERT_EQ(&r, &t[next]);
        ++next;
      }
    }
    EXPECT_EQ(next, n);
    EXPECT_TRUE(holds(t.back(), static_cast<std::uint32_t>(n - 1)));
  }
}

// Records never move: an append (even one that clones a shared tail for
// the appending table) leaves every other table's records in place, and
// the appending table's own full chunks stay put.
TEST(CertTableTest, RecordsNeverMove) {
  CertTable t = table_of(kChunk + 10);
  const CertRecord* first = &t[0];
  const CertRecord* last_full = &t[kChunk - 1];
  const CertTable held = t;
  const CertRecord* held_tail = &held[kChunk + 9];
  for (std::size_t i = 0; i < 2 * kChunk; ++i) {
    t.push_back(record(static_cast<std::uint32_t>(kChunk + 10 + i)));
  }
  EXPECT_EQ(&t[0], first);
  EXPECT_EQ(&t[kChunk - 1], last_full);
  EXPECT_EQ(&held[kChunk + 9], held_tail);
  expect_holds_prefix(held, kChunk + 10);
  expect_holds_prefix(t, 3 * kChunk + 10);
}

TEST(CertTableTest, MoveLeavesTheSourceEmpty) {
  CertTable source = table_of(kChunk + 1);
  CertTable moved = std::move(source);
  expect_holds_prefix(moved, kChunk + 1);
  EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
  source.push_back(record(7));
  ASSERT_EQ(source.size(), 1u);
  EXPECT_TRUE(holds(source[0], 7));

  CertTable assigned;
  assigned = std::move(moved);
  expect_holds_prefix(assigned, kChunk + 1);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(CertTableTest, IteratorIsRandomAccess) {
  const CertTable t = table_of(kChunk + 3);
  EXPECT_EQ(std::distance(t.begin(), t.end()),
            static_cast<std::ptrdiff_t>(t.size()));
  auto it = t.begin() + static_cast<std::ptrdiff_t>(kChunk);
  EXPECT_TRUE(holds(*it, kChunk));
  EXPECT_TRUE(holds(it[2], kChunk + 2));
  EXPECT_TRUE(holds(*(it - 1), kChunk - 1));
  EXPECT_EQ(it - t.begin(), static_cast<std::ptrdiff_t>(kChunk));
  EXPECT_LT(t.begin(), it);
  EXPECT_TRUE(holds(*--it, kChunk - 1));
  EXPECT_EQ(it->subject_cn, "certificate-number-" + std::to_string(kChunk - 1));
  std::uint32_t i = 0;
  for (const CertRecord& r : t) EXPECT_TRUE(holds(r, i++));
  EXPECT_EQ(i, t.size());
}

// The live-ingest shape: a writer keeps appending to its working table and
// publishes a copy per epoch; readers take the current epoch, hold it, and
// iterate every record while the writer goes on appending (cloning shared
// tails, and appending in place once the readers let go).
TEST(CertTableTest, ReadersIterateHeldEpochsWhileAppendsRun) {
  constexpr std::size_t kEpochs = 60;
  constexpr std::size_t kPerEpoch = 97;  // not a divisor of kChunk
  constexpr int kReaders = 3;

  std::mutex mutex;
  auto published = std::make_shared<const CertTable>(table_of(kChunk - 5));
  const auto current = [&] {
    std::lock_guard lock(mutex);
    return published;
  };
  std::atomic<bool> done{false};
  std::atomic<std::size_t> checked{0};
  std::atomic<bool> mismatch{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        const std::shared_ptr<const CertTable> epoch = current();
        std::uint32_t i = 0;
        for (const CertRecord& record : *epoch) {
          if (!holds(record, i++)) mismatch.store(true);
        }
        if (i != epoch->size()) mismatch.store(true);
        checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  CertTable working = *current();
  for (std::size_t e = 0; e < kEpochs; ++e) {
    for (std::size_t k = 0; k < kPerEpoch; ++k) {
      working.push_back(record(static_cast<std::uint32_t>(working.size())));
    }
    auto next = std::make_shared<const CertTable>(working);
    std::lock_guard lock(mutex);
    published = std::move(next);
  }
  // Let every reader get a few more passes in before stopping.
  const std::size_t before = checked.load();
  while (checked.load() < before + kReaders) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(mismatch.load());
  expect_holds_prefix(*current(), kChunk - 5 + kEpochs * kPerEpoch);
}

}  // namespace
}  // namespace sm::scan
