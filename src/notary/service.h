// NotaryService — the request handler sm_notaryd plugs into netio: frames
// in, frames out, with a per-shard slot cache of rendered responses and
// lock-free request metrics.
//
//  * The index is published as an epoch/RCU-style snapshot
//    (std::atomic<std::shared_ptr>): each request takes one acquire load,
//    renders against that immutable epoch with zero locks held, and the
//    shared_ptr keeps the epoch alive until the response is built. A
//    live-ingestion pipeline swaps in new epochs with publish(); services
//    built over a fixed index simply never swap.
//  * publish() invalidates precisely: only cached renders of certificates
//    named in the delta are dropped, everything else survives the swap
//    (an untouched certificate renders to identical bytes in both epochs,
//    so its cached response stays correct). An epoch guard on the insert
//    path keeps a render that raced a swap from re-entering stale bytes.
//  * The cache is memory-bounded and allocation-free at steady state:
//    each shard owns one fixed ring arena of rendered bytes plus a flat
//    open-addressing slot table, so a hit is a table probe and a memcpy
//    out of the arena — no lists, no node allocations, no refcounts. The
//    budget (cache_bytes) is split over the shards the index actually
//    populates (a fingerprint-prefix slice reaches only a few of the 64),
//    and the cache holds only the *rendered* text of immutable entries,
//    so responses are byte-identical with the cache on or off.
//  * handle_into() appends the complete response frame — header, payload,
//    CRC — straight into a caller-supplied buffer (the connection outbuf),
//    so a cache-hit query performs zero heap allocations and exactly one
//    copy (arena -> outbuf). handle() wraps it for callers that want a
//    decoded Frame.
//  * Metrics are relaxed atomics (request counts, cache hit/miss,
//    malformed requests, swap/invalidation totals) plus a power-of-two-
//    bucket latency histogram with p50/p99 estimates — all dumped on
//    demand by a kStats request.
//  * handle()/handle_into() are safe to call from any number of server
//    workers, concurrently with publish().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"
#include "notary/index.h"

namespace sm::notary {

/// Service tunables.
struct NotaryServiceConfig {
  /// Total bytes of rendered responses to cache (0 disables the cache).
  std::size_t cache_bytes = 0;
};

/// Lock-free latency histogram: bucket b counts requests whose handling
/// took [2^b, 2^(b+1)) nanoseconds. Percentile estimates report a bucket's
/// upper bound (never above the true maximum), so they are deterministic
/// in the counts. Samples past the top bucket are counted separately as
/// overflow instead of being clamped into it — clamping would let
/// max_us/p99_us report the top bucket's bound as if it were a measured
/// ceiling.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 48;

  void record(std::uint64_t nanos);

  struct Summary {
    std::uint64_t count = 0;     ///< all samples, overflow included
    std::uint64_t overflow = 0;  ///< samples >= 2^kBuckets ns
    double p50_us = 0;  ///< upper bound of the median bucket
    double p99_us = 0;
    double max_us = 0;  ///< exact maximum recorded sample
  };
  Summary summarize() const;

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> max_nanos_{0};  ///< relaxed running maximum
};

/// A point-in-time copy of the service counters.
struct NotaryMetricsSnapshot {
  std::uint64_t requests = 0;       ///< all frames handled
  std::uint64_t queries = 0;        ///< kQuery frames
  std::uint64_t batch_queries = 0;  ///< kBatchQuery frames
  std::uint64_t batch_entries = 0;  ///< fingerprints across all batches
  /// kRevocationQuery frames (single and batch forms both count once).
  std::uint64_t revocation_queries = 0;
  /// Lookups answered kCertInfo / kNotFound — single queries and batch
  /// entries both count, so found + not_found can exceed queries.
  std::uint64_t found = 0;
  std::uint64_t not_found = 0;
  std::uint64_t stats_requests = 0;
  std::uint64_t pings = 0;
  std::uint64_t snapshot_requests = 0;  ///< kSnapshot frames
  std::uint64_t bad_requests = 0;   ///< well-framed but unusable requests
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;   ///< includes cache-disabled renders
  std::uint64_t epoch = 0;              ///< currently published epoch
  std::uint64_t snapshot_swaps = 0;     ///< publish() calls
  std::uint64_t cache_invalidations = 0;  ///< cached renders dropped
  LatencyHistogram::Summary latency;

  double cache_hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// The notary request handler. Owns the cache and metrics; serves the
/// currently published index snapshot.
class NotaryService {
 public:
  /// Serves a fixed index the caller keeps alive (the batch shape: build
  /// once, serve until shutdown). The index is borrowed, never swapped —
  /// publish() still works and takes over ownership management from then
  /// on.
  explicit NotaryService(const NotaryIndex& index,
                         NotaryServiceConfig config = {});

  /// Serves a shared index the service participates in owning — the
  /// live-ingestion shape, where publish() later retires it.
  explicit NotaryService(std::shared_ptr<const NotaryIndex> index,
                         NotaryServiceConfig config = {});

  /// Handles one well-formed frame, appending the complete response frame
  /// (type byte, u32le size, payload, CRC32) to `out`; thread-safe. This
  /// is the hot path: a cache-hit query allocates nothing (given `out`
  /// has capacity) and copies the rendered bytes exactly once, arena to
  /// `out`. Query payloads are the 16-byte archive fingerprint or a full
  /// 32-byte SHA-256 (truncated). kRevocationQuery takes the same single
  /// payload, or a batch-query payload (u32le count + 16-byte
  /// fingerprints) answered as one kBatchInfo of kRevocationInfo /
  /// kNotFound entries; the tiny revocation render bypasses the response
  /// cache and is itself allocation-free into a warm buffer.
  void handle_into(netio::FrameType type, std::string_view payload,
                   std::string& out);

  /// Convenience wrapper decoding the response into a Frame (extra
  /// allocation + copy; tests and non-hot callers only).
  netio::Frame handle(netio::FrameType type, std::string_view payload);

  /// Swaps in a new index epoch and drops exactly the cached renders of
  /// `changed` certificate ids (certificate ids are stable across epochs,
  /// so every other cached render is still byte-correct). Queries in
  /// flight keep rendering against the epoch they loaded — the old index
  /// stays alive until its last reader drops it. Serialized against
  /// other publishers; never blocks the query path's snapshot load.
  void publish(std::shared_ptr<const NotaryIndex> index,
               std::span<const scan::CertId> changed);

  NotaryMetricsSnapshot metrics() const;

  /// The kStatsText body: counters, hit rate, latency percentiles.
  std::string render_stats() const;
  void render_stats_into(std::string& out) const;

  /// The kSnapshotInfo body for the currently published epoch.
  std::string render_snapshot_info() const;
  void render_snapshot_info_into(std::string& out) const;

  /// Arena bytes budgeted to cache shard `s` (0 when the shard is
  /// unreachable under the current index) — exposed for tests pinning the
  /// reachable-shard split.
  std::size_t cache_shard_capacity(std::size_t s) const;

  /// The currently published index. The reference is guaranteed stable
  /// only while no publish() runs; live-pipeline callers should hold the
  /// shared_ptr via index_snapshot() instead.
  const NotaryIndex& index() const { return *snapshot()->index; }
  std::shared_ptr<const NotaryIndex> index_snapshot() const {
    return snapshot()->index;
  }

 private:
  /// One published epoch: the index plus its ordinal. Immutable after
  /// publication; reference-counted so in-flight renders pin it.
  struct Snapshot {
    std::shared_ptr<const NotaryIndex> index;
    std::uint64_t epoch = 0;
  };

  /// Sentinel cert id marking an unused cache slot.
  static constexpr scan::CertId kEmptyCacheSlot = 0xffffffff;

  /// One cached render: `len` body bytes at ring position `start %
  /// capacity` of the shard arena, plus the CRC32 of the standalone
  /// kCertInfo frame carrying that body (deterministic given the bytes),
  /// so a single-query hit appends header + body + cached CRC without
  /// re-running the checksum. `start` is the arena's monotonic write
  /// position at insert time; the entry is live iff no later write has
  /// lapped it: shard.total <= start + shard.capacity.
  struct CacheSlot {
    std::uint64_t start = 0;
    scan::CertId id = kEmptyCacheSlot;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
  };

  /// One cache shard: a fixed ring arena of rendered body bytes and a
  /// power-of-two open-addressing table over it. Writes never straddle
  /// the ring edge (the tail is padded instead), so every live entry is
  /// contiguous in memory. Eviction is implicit — the ring lapping an
  /// entry stales it — which is FIFO-by-render-time rather than LRU, a
  /// deliberate trade: no per-hit bookkeeping, no allocation, ever.
  struct CacheShard {
    mutable std::mutex mutex;
    std::unique_ptr<char[]> arena;
    std::size_t capacity = 0;  ///< arena bytes (0 = shard uncached)
    std::uint64_t total = 0;   ///< monotonic write position
    std::vector<CacheSlot> slots;
    std::size_t slot_mask = 0;
  };

  std::shared_ptr<const Snapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Splits cache_bytes over the shards `index` populates, (re)allocating
  /// only shards whose budget changed (a reset drops that shard's cached
  /// renders). Called at construction and on publish().
  void resize_cache(const NotaryIndex& index);

  /// Probes for a live entry; nullptr on miss. Caller holds shard.mutex.
  static const CacheSlot* cache_find(const CacheShard& shard,
                                     scan::CertId id);

  /// Writes `body` into the ring and claims a slot for it. Caller holds
  /// shard.mutex and has checked len <= capacity.
  static void cache_insert(CacheShard& shard, scan::CertId id,
                           const char* body, std::uint32_t len,
                           std::uint32_t crc);

  /// Appends the kCertInfo answer for one certificate through the
  /// response cache: a whole frame when `as_frame` (single query), else
  /// one kBatchInfo entry.
  void append_knowledge(const scan::CertFingerprint& fp, scan::CertId id,
                        const CertKnowledge& k, std::uint64_t epoch,
                        bool as_frame, std::string& out);

  /// The one per-fingerprint answer of every lookup shape: kNotFound
  /// with the hex fingerprint, the cached kCertInfo render, or (with
  /// `revocation`) the kRevocationInfo render — a whole frame when
  /// `as_frame`, else one kBatchInfo entry.
  void answer_fingerprint(const Snapshot& snap,
                          const scan::CertFingerprint& fp, bool revocation,
                          bool as_frame, std::string& out);

  /// Answers kQuery, kBatchQuery and kRevocationQuery (single or batch
  /// form) into `out`: a malformed payload answers kError, a single one
  /// frame, a batch one kBatchInfo frame of per-entry answers.
  void answer_lookup(netio::FrameType type, std::string_view payload,
                     std::string& out);

  NotaryServiceConfig config_;
  std::array<CacheShard, NotaryIndex::kShards> cache_;

  /// The query path's only shared state: one acquire load per request.
  std::atomic<std::shared_ptr<const Snapshot>> snapshot_;
  /// Monotonic epoch mirror used by the cache-insert guard: publish()
  /// advances it *before* invalidating, so a render begun against an
  /// older epoch can never re-insert bytes the invalidation removed.
  std::atomic<std::uint64_t> epoch_{0};
  std::mutex publish_mutex_;  ///< serializes publishers only

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> batch_queries_{0};
  std::atomic<std::uint64_t> batch_entries_{0};
  std::atomic<std::uint64_t> revocation_queries_{0};
  std::atomic<std::uint64_t> found_{0};
  std::atomic<std::uint64_t> not_found_{0};
  std::atomic<std::uint64_t> stats_requests_{0};
  std::atomic<std::uint64_t> pings_{0};
  std::atomic<std::uint64_t> snapshot_requests_{0};
  std::atomic<std::uint64_t> bad_requests_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> snapshot_swaps_{0};
  std::atomic<std::uint64_t> cache_invalidations_{0};
  LatencyHistogram latency_;
};

}  // namespace sm::notary
