#include "notary/service.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "notary/batch.h"
#include "util/crc32.h"
#include "util/datetime.h"
#include "util/stats.h"

namespace sm::notary {
namespace {

double bucket_upper_us(std::size_t bucket) {
  return static_cast<double>(std::uint64_t{1} << (bucket + 1)) / 1000.0;
}

// Slot-table probing: a fixed window of linearly-probed slots per id.
// Lookups scan the whole window (never stopping early at an empty slot —
// publish() invalidation punches holes mid-chain), so the window must
// stay small; 8 slots is two cache lines of 16-byte CacheSlots.
constexpr std::size_t kProbeWindow = 8;

// Fibonacci-hash home slot: cert ids are dense small integers, so spread
// them with the golden-ratio multiplier before masking.
std::size_t slot_home(scan::CertId id) {
  return static_cast<std::size_t>(
      (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

void LatencyHistogram::record(std::uint64_t nanos) {
  const std::size_t bucket =
      static_cast<std::size_t>(std::bit_width(nanos | 1) - 1);
  if (bucket >= kBuckets) {
    overflow_.fetch_add(1, std::memory_order_relaxed);
  } else {
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  }
  // Relaxed running maximum: the CAS loop only spins while this sample is
  // the new record, so the hot path is one load.
  std::uint64_t seen = max_nanos_.load(std::memory_order_relaxed);
  while (nanos > seen && !max_nanos_.compare_exchange_weak(
                             seen, nanos, std::memory_order_relaxed)) {
  }
}

LatencyHistogram::Summary LatencyHistogram::summarize() const {
  std::array<std::uint64_t, kBuckets> counts;
  Summary out;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    out.count += counts[i];
  }
  out.overflow = overflow_.load(std::memory_order_relaxed);
  out.count += out.overflow;
  if (out.count == 0) return out;
  out.max_us =
      static_cast<double>(max_nanos_.load(std::memory_order_relaxed)) /
      1000.0;
  const auto percentile = [&](double p) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        p * static_cast<double>(out.count - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      // The true maximum tightens a bucket's upper bound whenever the
      // largest sample landed in (or below) this bucket.
      if (seen >= rank) return std::min(bucket_upper_us(i), out.max_us);
    }
    // The rank falls among overflow samples — past every bucket. The only
    // honest bound left is the exact recorded maximum.
    return out.max_us;
  };
  out.p50_us = percentile(0.50);
  out.p99_us = percentile(0.99);
  return out;
}

NotaryService::NotaryService(const NotaryIndex& index,
                             NotaryServiceConfig config)
    // Aliasing, non-owning shared_ptr: the batch caller owns the index
    // for the service's whole lifetime (the pre-live contract).
    : NotaryService(std::shared_ptr<const NotaryIndex>(
                        std::shared_ptr<const void>(), &index),
                    config) {}

NotaryService::NotaryService(std::shared_ptr<const NotaryIndex> index,
                             NotaryServiceConfig config)
    : config_(config) {
  auto snap = std::make_shared<Snapshot>();
  snap->index = std::move(index);
  snap->epoch = 0;
  const NotaryIndex* idx = snap->index.get();
  snapshot_.store(std::move(snap), std::memory_order_release);
  resize_cache(*idx);
}

void NotaryService::resize_cache(const NotaryIndex& index) {
  if (config_.cache_bytes == 0) return;
  // Budget only the shards this index can answer from: a fingerprint-
  // prefix slice (sm_notaryd --shard-prefix) reaches a handful of the 64
  // shard values, and splitting the budget 64 ways would strand most of
  // it on shards that can never see a kCertInfo render.
  std::size_t populated = 0;
  for (std::size_t s = 0; s < NotaryIndex::kShards; ++s) {
    if (index.shard_population(s) > 0) ++populated;
  }
  const std::size_t per =
      populated == 0 ? 0 : config_.cache_bytes / populated;
  for (std::size_t s = 0; s < NotaryIndex::kShards; ++s) {
    const std::size_t want = index.shard_population(s) > 0 ? per : 0;
    CacheShard& shard = cache_[s];
    std::lock_guard lock(shard.mutex);
    if (shard.capacity == want) continue;  // keep arena AND cached entries
    shard.capacity = want;
    shard.total = 0;
    if (want == 0) {
      shard.arena.reset();
      shard.slots.clear();
      shard.slots.shrink_to_fit();
      shard.slot_mask = 0;
      continue;
    }
    shard.arena = std::make_unique<char[]>(want);
    // Slot count scaled to the arena (responses run a few hundred bytes),
    // clamped so tiny test caches still get a workable table and huge
    // arenas don't drown in slot metadata.
    const std::size_t n = std::bit_ceil(
        std::clamp<std::size_t>(want / 128, 16, 65536));
    shard.slots.assign(n, CacheSlot{});
    shard.slot_mask = n - 1;
  }
}

std::size_t NotaryService::cache_shard_capacity(std::size_t s) const {
  const CacheShard& shard = cache_[s];
  std::lock_guard lock(shard.mutex);
  return shard.capacity;
}

const NotaryService::CacheSlot* NotaryService::cache_find(
    const CacheShard& shard, scan::CertId id) {
  std::size_t i = slot_home(id) & shard.slot_mask;
  for (std::size_t j = 0; j < kProbeWindow; ++j, i = (i + 1) & shard.slot_mask) {
    const CacheSlot& slot = shard.slots[i];
    if (slot.id != id) continue;
    // At most one slot holds a given id (inserts reuse it), so this is
    // the verdict: live if the ring has not lapped the entry.
    if (shard.total <= slot.start + shard.capacity) return &slot;
    return nullptr;
  }
  return nullptr;
}

void NotaryService::cache_insert(CacheShard& shard, scan::CertId id,
                                 const char* body, std::uint32_t len,
                                 std::uint32_t crc) {
  // Pick a slot: reuse this id's, else any empty/lapped one, else evict
  // the oldest render in the window (its arena bytes stay put; the slot
  // simply forgets them).
  CacheSlot* dest = nullptr;
  CacheSlot* stale = nullptr;
  CacheSlot* oldest = nullptr;
  std::size_t i = slot_home(id) & shard.slot_mask;
  for (std::size_t j = 0; j < kProbeWindow; ++j, i = (i + 1) & shard.slot_mask) {
    CacheSlot& slot = shard.slots[i];
    if (slot.id == id) {
      dest = &slot;
      break;
    }
    if (slot.id == kEmptyCacheSlot ||
        shard.total > slot.start + shard.capacity) {
      if (stale == nullptr) stale = &slot;
    } else if (oldest == nullptr || slot.start < oldest->start) {
      oldest = &slot;
    }
  }
  if (dest == nullptr) dest = stale != nullptr ? stale : oldest;
  // Ring write that never straddles the arena edge: pad the tail instead,
  // so every live entry is one contiguous memcpy. Advancing `total` is
  // the eviction — entries it laps fail the liveness check.
  std::size_t pos = static_cast<std::size_t>(shard.total % shard.capacity);
  if (pos + len > shard.capacity) {
    shard.total += shard.capacity - pos;
    pos = 0;
  }
  std::memcpy(shard.arena.get() + pos, body, len);
  dest->start = shard.total;
  dest->id = id;
  dest->len = len;
  dest->crc = crc;
  shard.total += len;
}

void NotaryService::publish(std::shared_ptr<const NotaryIndex> index,
                            std::span<const scan::CertId> changed) {
  std::lock_guard publish_lock(publish_mutex_);
  auto snap = std::make_shared<Snapshot>();
  snap->index = std::move(index);
  snap->epoch =
      snapshot_.load(std::memory_order_relaxed)->epoch + 1;
  const NotaryIndex* idx = snap->index.get();  // pinned by snapshot_ below
  // Order matters: advance the insert-guard epoch first, then swap the
  // snapshot, then invalidate. A render that loaded the old snapshot and
  // is about to cache a changed cert re-reads epoch_ inside the shard
  // mutex — it either inserts before the erase below (and is erased) or
  // sees the new epoch and skips the insert. Either way no stale bytes
  // survive; untouched certs render identically in both epochs, so their
  // cached entries stay byte-correct.
  epoch_.store(snap->epoch, std::memory_order_release);
  snapshot_.store(std::move(snap), std::memory_order_release);
  snapshot_swaps_.fetch_add(1, std::memory_order_relaxed);

  if (config_.cache_bytes == 0) return;
  // Population changes (live ingestion growing a shard from empty)
  // rebalance per-shard budgets; a shard whose budget is unchanged keeps
  // its arena and every cached entry.
  resize_cache(*idx);
  std::uint64_t dropped = 0;
  // Ids are stable intern keys, so a changed cert can only be cached in
  // the one shard its fingerprint maps to — no 64-shard sweep.
  for (const scan::CertId id : changed) {
    if (id >= idx->size()) continue;
    CacheShard& shard =
        cache_[NotaryIndex::shard_of(idx->knowledge(id).fingerprint)];
    std::lock_guard lock(shard.mutex);
    if (shard.capacity == 0) continue;
    std::size_t i = slot_home(id) & shard.slot_mask;
    for (std::size_t j = 0; j < kProbeWindow;
         ++j, i = (i + 1) & shard.slot_mask) {
      CacheSlot& slot = shard.slots[i];
      if (slot.id != id) continue;
      // Count only live entries — a lapped slot is not a cached render.
      if (shard.total <= slot.start + shard.capacity) ++dropped;
      slot = CacheSlot{};
      break;
    }
  }
  cache_invalidations_.fetch_add(dropped, std::memory_order_relaxed);
}

void NotaryService::append_knowledge(const scan::CertFingerprint& fp,
                                     scan::CertId id, const CertKnowledge& k,
                                     std::uint64_t epoch, bool as_frame,
                                     std::string& out) {
  CacheShard& shard = cache_[NotaryIndex::shard_of(fp)];
  {
    // capacity is read under the lock too: publish() resizes shards.
    std::lock_guard lock(shard.mutex);
    if (const CacheSlot* slot =
            shard.capacity != 0 ? cache_find(shard, id) : nullptr) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      // The hit path: one memcpy, arena -> out, under the shard mutex
      // (the copy is what lets the ring overwrite the arena afterwards).
      // The cached CRC is the standalone frame's, so the single-query
      // form skips the checksum pass entirely.
      const char* body =
          shard.arena.get() +
          static_cast<std::size_t>(slot->start % shard.capacity);
      if (as_frame) {
        out.push_back(static_cast<char>(netio::FrameType::kCertInfo));
        netio::put_u32le(out, slot->len);
        out.append(body, slot->len);
        netio::put_u32le(out, slot->crc);
      } else {
        const std::size_t entry =
            begin_batch_entry(out, netio::FrameType::kCertInfo);
        out.append(body, slot->len);
        end_batch_entry(out, entry);
      }
      return;
    }
  }
  // Miss: render straight into `out` (no staging string), then copy the
  // fresh body into the arena. Rendering outside the lock is deliberate:
  // misses are the slow path, and the entry is immutable within its
  // epoch, so two racing renders produce identical bytes.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  std::size_t body_start = 0;
  std::uint32_t frame_crc = 0;
  if (as_frame) {
    netio::FrameWriter frame(out, netio::FrameType::kCertInfo);
    body_start = frame.payload_offset();
    render_knowledge_into(k, out);
    frame_crc = frame.finish();
  } else {
    body_start = begin_batch_entry(out, netio::FrameType::kCertInfo);
    render_knowledge_into(k, out);
    end_batch_entry(out, body_start);
  }
  const std::size_t body_end =
      as_frame ? out.size() - netio::kFrameTrailerSize : out.size();
  const std::size_t body_len = body_end - body_start;
  if (config_.cache_bytes == 0) return;
  if (!as_frame) {
    // The batch path never built the standalone frame, but the cached CRC
    // must be the standalone frame's (a later single-query hit appends
    // it). Chain it over a stack header + the body already in `out`.
    char hdr[netio::kFrameHeaderSize];
    hdr[0] = static_cast<char>(netio::FrameType::kCertInfo);
    const auto len32 = static_cast<std::uint32_t>(body_len);
    hdr[1] = static_cast<char>(len32 & 0xff);
    hdr[2] = static_cast<char>((len32 >> 8) & 0xff);
    hdr[3] = static_cast<char>((len32 >> 16) & 0xff);
    hdr[4] = static_cast<char>((len32 >> 24) & 0xff);
    frame_crc = util::crc32(hdr, sizeof hdr);
    frame_crc = util::crc32(out.data() + body_start, body_len, frame_crc);
  }
  std::lock_guard lock(shard.mutex);
  // Epoch guard: if a publish() advanced the epoch since this render
  // began, its invalidation pass may already have swept this shard —
  // inserting now could cache stale bytes for a changed cert. Skip; the
  // next query re-renders against the new epoch.
  if (shard.capacity != 0 && body_len <= shard.capacity &&
      epoch_.load(std::memory_order_acquire) == epoch &&
      cache_find(shard, id) == nullptr) {
    cache_insert(shard, id, out.data() + body_start,
                 static_cast<std::uint32_t>(body_len), frame_crc);
  }
}

void NotaryService::answer_fingerprint(const Snapshot& snap,
                                       const scan::CertFingerprint& fp,
                                       bool revocation, bool as_frame,
                                       std::string& out) {
  // Writes one answer whose body `render` appends: a whole frame, or one
  // kBatchInfo entry.
  const auto write = [&](netio::FrameType type, auto render) {
    if (as_frame) {
      netio::FrameWriter frame(out, type);
      render();
      frame.finish();
    } else {
      const std::size_t body = begin_batch_entry(out, type);
      render();
      end_batch_entry(out, body);
    }
  };
  const CertKnowledge* k = snap.index->lookup(fp);
  if (k == nullptr) {
    not_found_.fetch_add(1, std::memory_order_relaxed);
    write(netio::FrameType::kNotFound,
          [&] { append_hex_fingerprint(out, fp); });
    return;
  }
  found_.fetch_add(1, std::memory_order_relaxed);
  if (revocation) {
    // The two-line revocation body is rendered directly — no trip through
    // the kCertInfo response cache (whose slots are keyed by cert id
    // alone and hold the full knowledge render).
    write(netio::FrameType::kRevocationInfo,
          [&] { render_revocation_into(*k, out); });
    return;
  }
  const auto id = static_cast<scan::CertId>(k - &snap.index->knowledge(0));
  append_knowledge(fp, id, *k, snap.epoch, as_frame, out);
}

void NotaryService::answer_lookup(netio::FrameType type,
                                  std::string_view payload,
                                  std::string& out) {
  const bool revocation = type == netio::FrameType::kRevocationQuery;
  // kRevocationQuery takes either form; its payload length tells them
  // apart.
  if (type == netio::FrameType::kQuery ||
      (revocation && is_single_fingerprint(payload.size()))) {
    if (!is_single_fingerprint(payload.size())) {
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      netio::encode_frame_into(
          out, netio::FrameType::kError,
          "query payload must be a 16-byte fingerprint or a "
          "32-byte SHA-256");
      return;
    }
    scan::CertFingerprint fp{};
    std::memcpy(fp.data(), payload.data(), fp.size());
    // The query hot path: one acquire load pins this request's epoch;
    // lookup and render run lock-free against the immutable index (the
    // shared_ptr keeps it alive across a concurrent publish).
    answer_fingerprint(*snapshot(), fp, revocation, /*as_frame=*/true, out);
    return;
  }
  BatchQueryView view;
  if (!view.parse(payload)) {
    bad_requests_.fetch_add(1, std::memory_order_relaxed);
    netio::encode_frame_into(
        out, netio::FrameType::kError,
        revocation
            ? "revocation query payload must be a 16-byte fingerprint, a "
              "32-byte SHA-256, or a u32le count followed by that many "
              "16-byte fingerprints"
            : "batch query payload must be a u32le count followed by "
              "that many 16-byte fingerprints");
    return;
  }
  batch_entries_.fetch_add(view.size(), std::memory_order_relaxed);
  // One acquire pins a single epoch for the whole batch, so every entry
  // is answered from the same index — and byte-identical to what the
  // same fingerprint would get as a standalone query against that epoch.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  netio::FrameWriter frame(out, netio::FrameType::kBatchInfo);
  netio::put_u32le(out, view.size());
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    answer_fingerprint(*snap, view.fingerprint(i), revocation,
                       /*as_frame=*/false, out);
  }
  frame.finish();
}

void NotaryService::handle_into(netio::FrameType type,
                                std::string_view payload, std::string& out) {
  const auto start = std::chrono::steady_clock::now();
  requests_.fetch_add(1, std::memory_order_relaxed);
  switch (type) {
    case netio::FrameType::kQuery:
      queries_.fetch_add(1, std::memory_order_relaxed);
      answer_lookup(type, payload, out);
      break;
    case netio::FrameType::kBatchQuery:
      batch_queries_.fetch_add(1, std::memory_order_relaxed);
      answer_lookup(type, payload, out);
      break;
    case netio::FrameType::kRevocationQuery:
      revocation_queries_.fetch_add(1, std::memory_order_relaxed);
      answer_lookup(type, payload, out);
      break;
    case netio::FrameType::kStats: {
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      netio::FrameWriter frame(out, netio::FrameType::kStatsText);
      render_stats_into(out);
      frame.finish();
      break;
    }
    case netio::FrameType::kPing:
      pings_.fetch_add(1, std::memory_order_relaxed);
      // Zero-copy echo: the request payload goes straight back out.
      netio::encode_frame_into(out, netio::FrameType::kPong, payload);
      break;
    case netio::FrameType::kSnapshot: {
      snapshot_requests_.fetch_add(1, std::memory_order_relaxed);
      netio::FrameWriter frame(out, netio::FrameType::kSnapshotInfo);
      render_snapshot_info_into(out);
      frame.finish();
      break;
    }
    default:
      bad_requests_.fetch_add(1, std::memory_order_relaxed);
      netio::encode_frame_into(out, netio::FrameType::kError,
                               "unsupported request frame");
      break;
  }
  latency_.record(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

netio::Frame NotaryService::handle(netio::FrameType type,
                                   std::string_view payload) {
  std::string buf;
  handle_into(type, payload, buf);
  netio::Frame response;
  response.type =
      static_cast<netio::FrameType>(static_cast<std::uint8_t>(buf[0]));
  response.payload.assign(
      buf.data() + netio::kFrameHeaderSize,
      buf.size() - netio::kFrameHeaderSize - netio::kFrameTrailerSize);
  return response;
}

NotaryMetricsSnapshot NotaryService::metrics() const {
  NotaryMetricsSnapshot out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.queries = queries_.load(std::memory_order_relaxed);
  out.batch_queries = batch_queries_.load(std::memory_order_relaxed);
  out.batch_entries = batch_entries_.load(std::memory_order_relaxed);
  out.revocation_queries =
      revocation_queries_.load(std::memory_order_relaxed);
  out.found = found_.load(std::memory_order_relaxed);
  out.not_found = not_found_.load(std::memory_order_relaxed);
  out.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  out.pings = pings_.load(std::memory_order_relaxed);
  out.snapshot_requests =
      snapshot_requests_.load(std::memory_order_relaxed);
  out.bad_requests = bad_requests_.load(std::memory_order_relaxed);
  out.cache_hits = cache_hits_.load(std::memory_order_relaxed);
  out.cache_misses = cache_misses_.load(std::memory_order_relaxed);
  out.epoch = snapshot()->epoch;
  out.snapshot_swaps = snapshot_swaps_.load(std::memory_order_relaxed);
  out.cache_invalidations =
      cache_invalidations_.load(std::memory_order_relaxed);
  out.latency = latency_.summarize();
  return out;
}

void NotaryService::render_snapshot_info_into(std::string& out) const {
  const std::shared_ptr<const Snapshot> snap = snapshot();
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "epoch: %" PRIu64 "\n"
                "scans: %zu\n"
                "last-scan-start: %s\n"
                "certs: %zu\n",
                snap->epoch, snap->index->scan_count(),
                snap->index->scan_count() == 0
                    ? "never"
                    : util::format_datetime(snap->index->last_scan_start())
                          .c_str(),
                snap->index->size());
  out += buf;
}

std::string NotaryService::render_snapshot_info() const {
  std::string out;
  render_snapshot_info_into(out);
  return out;
}

void NotaryService::render_stats_into(std::string& out) const {
  // One snapshot acquire serves BOTH index-size and snapshot-epoch: a
  // second acquire (the old code took one here and another inside
  // metrics()) could straddle a concurrent publish() and pair epoch N
  // with epoch N+1's size.
  const std::shared_ptr<const Snapshot> snap = snapshot();
  const NotaryMetricsSnapshot m = metrics();
  char buf[1024];
  std::snprintf(
      buf, sizeof buf,
      "notary-stats\n"
      "index-size: %zu\n"
      "requests: %" PRIu64 "\n"
      "queries: %" PRIu64 " (found %" PRIu64 ", unknown %" PRIu64 ")\n"
      "batch-queries: %" PRIu64 " (entries %" PRIu64 ")\n"
      "revocation-queries: %" PRIu64 "\n"
      "pings: %" PRIu64 "\n"
      "stats-requests: %" PRIu64 "\n"
      "bad-requests: %" PRIu64 "\n"
      "cache: %" PRIu64 " hits, %" PRIu64 " misses (hit rate %s)\n"
      "latency-p50-us: %.3f\n"
      "latency-p99-us: %.3f\n"
      "latency-max-us: %.3f\n"
      "latency-overflow: %" PRIu64 " (samples >= %.3f us)\n"
      "snapshot-epoch: %" PRIu64 "\n"
      "snapshot-swaps: %" PRIu64 "\n"
      "snapshot-requests: %" PRIu64 "\n"
      "cache-invalidations: %" PRIu64 "\n",
      snap->index->size(), m.requests, m.queries, m.found, m.not_found,
      m.batch_queries, m.batch_entries, m.revocation_queries, m.pings,
      m.stats_requests,
      m.bad_requests, m.cache_hits, m.cache_misses,
      util::percent(m.cache_hit_rate()).c_str(), m.latency.p50_us,
      m.latency.p99_us, m.latency.max_us, m.latency.overflow,
      bucket_upper_us(LatencyHistogram::kBuckets - 1), snap->epoch,
      m.snapshot_swaps, m.snapshot_requests, m.cache_invalidations);
  out += buf;
}

std::string NotaryService::render_stats() const {
  std::string out;
  render_stats_into(out);
  return out;
}

}  // namespace sm::notary
