// CertTable — the archive's append-only certificate table, stored in
// fixed-size chunks held by shared_ptr. Copying a table copies chunk
// pointers, not records, so archive copies (one per live-ingest epoch)
// share every full chunk. A copy that appends clones only a shared, partly
// filled tail chunk (at most kChunk - 1 records) and never reallocates a
// record: chunks reserve their full capacity up front.
//
// Records arrive one at a time (push_back), in bulk moved on a thread
// pool (append_moved), or as whole segments built elsewhere (append).
//
// Value semantics hold in both directions: appending to a copy never
// changes the original, and appending to the original never changes a
// copy. A published table may be read from any number of threads while
// another copy of it appends.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <iterator>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "scan/cert_record.h"
#include "util/thread_pool.h"

namespace sm::scan {

class CertTable {
 public:
  static constexpr std::size_t kChunkBits = 10;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  /// Random-access iterator by index. Hot loops over many records should
  /// walk chunk(c) spans instead, which skip the per-record chunk lookup.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = CertRecord;
    using difference_type = std::ptrdiff_t;
    using pointer = const CertRecord*;
    using reference = const CertRecord&;

    const_iterator() = default;
    const_iterator(const CertTable* table, std::size_t index)
        : table_(table), index_(index) {}

    reference operator*() const { return (*table_)[index_]; }
    pointer operator->() const { return &(*table_)[index_]; }
    reference operator[](difference_type n) const {
      return (*table_)[index_ + static_cast<std::size_t>(n)];
    }

    const_iterator& operator++() { ++index_; return *this; }
    const_iterator operator++(int) { auto old = *this; ++index_; return old; }
    const_iterator& operator--() { --index_; return *this; }
    const_iterator operator--(int) { auto old = *this; --index_; return old; }
    const_iterator& operator+=(difference_type n) {
      index_ += static_cast<std::size_t>(n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) {
      index_ -= static_cast<std::size_t>(n);
      return *this;
    }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend auto operator<=>(const const_iterator& a, const const_iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    const CertTable* table_ = nullptr;
    std::size_t index_ = 0;
  };

  CertTable() = default;
  CertTable(const CertTable&) = default;
  CertTable& operator=(const CertTable&) = default;
  CertTable(CertTable&& other) noexcept
      : chunks_(std::exchange(other.chunks_, {})),
        size_(std::exchange(other.size_, 0)) {}
  CertTable& operator=(CertTable&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    size_ = std::exchange(other.size_, 0);
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const CertRecord& operator[](std::size_t i) const {
    return chunks_[i >> kChunkBits]->data()[i & (kChunk - 1)];
  }
  const CertRecord& back() const { return (*this)[size_ - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// The records of chunk `c` (ids [c * kChunk, c * kChunk + span size)).
  std::size_t chunk_count() const { return chunks_.size(); }
  std::span<const CertRecord> chunk(std::size_t c) const {
    return {chunks_[c]->data(), std::min(kChunk, size_ - c * kChunk)};
  }

  void push_back(const CertRecord& record) { emplace_back(record); }
  void push_back(CertRecord&& record) { emplace_back(std::move(record)); }

  /// Appends `n` records at once, moving record size() + i out of
  /// `source(i)` (which returns a CertRecord&). The records are built on
  /// `pool` in blocks, so the pages of new chunks are first touched by the
  /// workers rather than by one thread. Equivalent to n push_backs.
  template <typename Source>
  void append_moved(std::size_t n, util::ThreadPool& pool,
                    const Source& source);

  class Segment;

  /// Appends a segment's records. A table that ends on a chunk boundary
  /// adopts the segment's storage as its next chunk, moving no record;
  /// otherwise the records are moved in with append_moved on `pool`.
  void append(Segment&& segment, util::ThreadPool& pool);

  /// Pre-sizes the chunk list for `n` records.
  void reserve(std::size_t n) { chunks_.reserve((n + kChunk - 1) / kChunk); }

 private:
  /// Storage for kChunk records, allocated once so a record never moves;
  /// the first `size` slots hold constructed records. Readers never read
  /// `size`: the table's own size_ bounds every access, and a chunk is
  /// appended to in place only while exactly one table holds it.
  class Chunk {
   public:
    Chunk() : data_(std::allocator<CertRecord>{}.allocate(kChunk)) {}
    Chunk(const Chunk&) = delete;
    Chunk& operator=(const Chunk&) = delete;
    ~Chunk() {
      std::destroy_n(data_, size);
      std::allocator<CertRecord>{}.deallocate(data_, kChunk);
    }
    CertRecord* data() const { return data_; }

    std::size_t size = 0;

   private:
    CertRecord* data_;
  };

  /// Records per parallel task in append_moved (about 23 KB of records).
  static constexpr std::size_t kAppendBlock = 64;

  template <typename Arg>
  void emplace_back(Arg&& record);

  /// Gives this table its own copy of a partly filled tail chunk that
  /// another table shares, leaving theirs untouched.
  void own_tail();

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

/// Up to kChunk records built apart from any table (by one thread, e.g. a
/// loader worker parsing one frame) and then handed to a table with
/// CertTable::append, which usually takes its storage over as a chunk.
class CertTable::Segment {
 public:
  Segment() : chunk_(std::make_shared<Chunk>()) {}
  // One owner at a time: a copy would share the storage it fills.
  Segment(Segment&&) = default;
  Segment& operator=(Segment&&) = default;

  std::size_t size() const { return chunk_->size; }
  bool full() const { return chunk_->size == kChunk; }
  CertRecord& operator[](std::size_t i) { return chunk_->data()[i]; }

  /// Default-constructs the next record and returns it. Requires !full().
  CertRecord& emplace_back() {
    CertRecord* slot = std::construct_at(chunk_->data() + chunk_->size);
    ++chunk_->size;
    return *slot;
  }

 private:
  friend class CertTable;
  std::shared_ptr<Chunk> chunk_;
};

inline void CertTable::append(Segment&& segment, util::ThreadPool& pool) {
  const std::size_t n = segment.size();
  if (n == 0) return;
  if ((size_ & (kChunk - 1)) == 0) {
    chunks_.push_back(std::move(segment.chunk_));
    size_ += n;
    return;
  }
  append_moved(n, pool, [&](std::size_t i) -> CertRecord& { return segment[i]; });
}

inline void CertTable::own_tail() {
  const std::size_t slot = size_ & (kChunk - 1);
  if (slot == 0 || chunks_.back().use_count() == 1) return;
  auto own = std::make_shared<Chunk>();
  std::uninitialized_copy_n(chunks_.back()->data(), slot, own->data());
  own->size = slot;
  chunks_.back() = std::move(own);
}

template <typename Arg>
void CertTable::emplace_back(Arg&& record) {
  const std::size_t slot = size_ & (kChunk - 1);
  if (slot == 0) {
    chunks_.push_back(std::make_shared<Chunk>());
  } else {
    own_tail();
  }
  Chunk& tail = *chunks_.back();
  std::construct_at(tail.data() + slot, std::forward<Arg>(record));
  tail.size = slot + 1;
  ++size_;
}

template <typename Source>
void CertTable::append_moved(std::size_t n, util::ThreadPool& pool,
                             const Source& source) {
  if (n == 0) return;
  own_tail();
  const std::size_t base = size_;
  const std::size_t end = base + n;
  while (chunks_.size() * kChunk < end) {
    chunks_.push_back(std::make_shared<Chunk>());
  }
  // Moving a record cannot throw, so every slot below is constructed once
  // parallel_for returns.
  static_assert(std::is_nothrow_move_constructible_v<CertRecord>);
  pool.parallel_for(n, kAppendBlock, [&](std::size_t begin, std::size_t stop) {
    for (std::size_t i = begin; i < stop; ++i) {
      const std::size_t at = base + i;
      std::construct_at(chunks_[at >> kChunkBits]->data() + (at & (kChunk - 1)),
                        std::move(source(i)));
    }
  });
  for (std::size_t c = base >> kChunkBits; c < chunks_.size(); ++c) {
    chunks_[c]->size = std::min(kChunk, end - c * kChunk);
  }
  size_ = end;
}

}  // namespace sm::scan
