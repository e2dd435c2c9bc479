// CertTable — the archive's append-only certificate table, stored in
// fixed-size chunks held by shared_ptr. Copying a table copies chunk
// pointers, not records, so archive copies (one per live-ingest epoch)
// share every full chunk. A copy that appends clones only a shared, partly
// filled tail chunk (at most kChunk - 1 records) and never reallocates a
// record: chunks reserve their full capacity up front.
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
#include <utility>
#include <vector>

#include "scan/cert_record.h"

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
    return (*chunks_[i >> kChunkBits])[i & (kChunk - 1)];
  }
  const CertRecord& back() const { return (*this)[size_ - 1]; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size_}; }

  /// The records of chunk `c` (ids [c * kChunk, c * kChunk + span size)).
  std::size_t chunk_count() const { return chunks_.size(); }
  std::span<const CertRecord> chunk(std::size_t c) const {
    return {chunks_[c]->data(), std::min(kChunk, size_ - c * kChunk)};
  }

  void push_back(const CertRecord& record) {
    writable_tail().push_back(record);
    ++size_;
  }
  void push_back(CertRecord&& record) {
    writable_tail().push_back(std::move(record));
    ++size_;
  }

  /// Pre-sizes the chunk list for `n` records.
  void reserve(std::size_t n) { chunks_.reserve((n + kChunk - 1) / kChunk); }

 private:
  /// Capacity kChunk from creation, so a record never moves. Readers never
  /// call its size(): the table's own size_ bounds every access, and a
  /// chunk is appended to in place only while exactly one table holds it.
  using Chunk = std::vector<CertRecord>;

  /// The chunk the next record goes to, held by this table alone.
  Chunk& writable_tail();

  std::vector<std::shared_ptr<Chunk>> chunks_;
  std::size_t size_ = 0;
};

inline CertTable::Chunk& CertTable::writable_tail() {
  const std::size_t slot = size_ & (kChunk - 1);
  if (slot == 0) {
    chunks_.push_back(std::make_shared<Chunk>());
    chunks_.back()->reserve(kChunk);
  } else if (chunks_.back().use_count() > 1) {
    // Another table shares this partly filled tail: copy its filled
    // prefix into a chunk of our own, leaving theirs untouched.
    const Chunk& shared = *chunks_.back();
    auto own = std::make_shared<Chunk>();
    own->reserve(kChunk);
    own->assign(shared.begin(),
                shared.begin() + static_cast<std::ptrdiff_t>(slot));
    chunks_.back() = std::move(own);
  }
  return *chunks_.back();
}

}  // namespace sm::scan
