#include "notary/router.h"

#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "notary/batch.h"

namespace sm::notary {
namespace {

std::string unavailable_reason(std::size_t shard,
                               std::pair<std::uint8_t, std::uint8_t> range) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "shard %zu (prefix %u-%u) unavailable",
                shard, range.first, range.second);
  return buf;
}

}  // namespace

struct RouterService::Impl {
  /// Mutable per-entry state, shared_ptr'd so a map swap can carry it
  /// over: a swap that keeps a range intact keeps its round-robin cursor
  /// and its unavailable counter, so ROUTER-STATS stays continuous
  /// across epochs for ranges that didn't move.
  struct EntryState {
    std::atomic<std::size_t> next{0};  // replica round-robin cursor
    std::atomic<std::uint64_t> unavailable{0};  // failed on every replica
  };

  struct Entry {
    std::uint8_t lo = 0;
    std::uint8_t hi = 0;
    std::vector<std::size_t> backends;  // indices into the flat pool
    std::shared_ptr<EntryState> state;
  };

  /// One immutable compiled routing table. The data plane loads the
  /// current table once per request and works off that snapshot; a
  /// concurrent kMapUpdate publishes a successor without disturbing it.
  struct RoutingTable {
    PrefixMap source;  // the map as received (kMapInfo serves this back)
    std::vector<Entry> entries;
    // byte -> entry index. Entries cap at 256 and cover every byte, so
    // an index always fits and every byte resolves.
    std::array<std::uint8_t, 256> entry_of{};
  };

  std::unique_ptr<netio::ClientPool> pool;
  std::atomic<std::shared_ptr<const RoutingTable>> table{nullptr};
  std::mutex map_mutex;  // serializes apply_map (the swap, not the reads)

  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> queries{0};
  std::atomic<std::uint64_t> query_errors{0};
  std::atomic<std::uint64_t> batch_queries{0};
  std::atomic<std::uint64_t> batch_entries{0};
  std::atomic<std::uint64_t> batch_entry_errors{0};
  std::atomic<std::uint64_t> revocation_queries{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> pings{0};
  std::atomic<std::uint64_t> stats_requests{0};
  std::atomic<std::uint64_t> snapshot_requests{0};
  std::atomic<std::uint64_t> map_requests{0};
  std::atomic<std::uint64_t> map_swaps{0};
  std::atomic<std::uint64_t> bad_requests{0};

  std::shared_ptr<const RoutingTable> snapshot() const {
    return table.load(std::memory_order_acquire);
  }

  /// Compiles and publishes `map`. With `require_advance` the epoch must
  /// strictly exceed the live table's (the kMapUpdate rule); the initial
  /// map from the constructor skips that check.
  bool apply_map(const PrefixMap& map, bool require_advance,
                 std::string& error) {
    if (!validate_prefix_map(map, error)) return false;
    std::lock_guard lock(map_mutex);
    const std::shared_ptr<const RoutingTable> cur = snapshot();
    if (require_advance && cur && map.epoch <= cur->source.epoch) {
      char buf[96];
      std::snprintf(buf, sizeof buf,
                    "map epoch %" PRIu64 " does not advance current %" PRIu64,
                    map.epoch, cur->source.epoch);
      error = buf;
      return false;
    }
    auto next = std::make_shared<RoutingTable>();
    next->source = map;
    next->entries.reserve(map.entries.size());
    for (const PrefixMapEntry& me : map.entries) {
      Entry entry;
      entry.lo = me.lo;
      entry.hi = me.hi;
      for (const netio::Endpoint& replica : me.replicas) {
        const std::size_t b = pool->add_backend(replica);
        if (b == netio::ClientPool::kNoBackend) {
          error = "pool is shutting down";
          return false;
        }
        entry.backends.push_back(b);
      }
      // Same range as a live entry: inherit its cursor/counter so the
      // swap is invisible in the stats of untouched ranges.
      if (cur) {
        for (const Entry& old : cur->entries) {
          if (old.lo == me.lo && old.hi == me.hi) {
            entry.state = old.state;
            break;
          }
        }
      }
      if (!entry.state) entry.state = std::make_shared<EntryState>();
      next->entries.push_back(std::move(entry));
    }
    for (std::size_t i = 0; i < next->entries.size(); ++i) {
      const Entry& e = next->entries[i];
      for (int b = e.lo; b <= e.hi; ++b) {
        next->entry_of[static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(i);
      }
    }
    table.store(std::move(next), std::memory_order_release);
    if (cur) map_swaps.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  static std::pair<std::uint8_t, std::uint8_t> entry_range(const Entry& e) {
    return {e.lo, e.hi};
  }

  /// Replica order for one call: round-robin start, healthy replicas
  /// first, unhealthy ones kept as last-resort tail (a marked-down
  /// backend may have recovered between probes).
  std::vector<std::size_t> replica_order(const Entry& entry) {
    const std::size_t n = entry.backends.size();
    const std::size_t start =
        entry.state->next.fetch_add(1, std::memory_order_relaxed) % n;
    std::vector<std::size_t> order;
    order.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = entry.backends[(start + i) % n];
      if (pool->healthy(b)) order.push_back(b);
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t b = entry.backends[(start + i) % n];
      if (!pool->healthy(b)) order.push_back(b);
    }
    return order;
  }

  /// Forwards one frame to a map entry's replicas, retrying across them.
  /// Returns false if every replica failed.
  bool forward(const Entry& entry, netio::FrameType type,
               std::string_view payload, netio::Frame& out) {
    bool first = true;
    for (const std::size_t backend : replica_order(entry)) {
      if (!first) retries.fetch_add(1, std::memory_order_relaxed);
      first = false;
      netio::CallResult result = pool->call(backend, type, payload).get();
      if (result.ok()) {
        out = std::move(result.response);
        return true;
      }
    }
    entry.state->unavailable.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  /// Routes one single-fingerprint request (kQuery or kRevocationQuery —
  /// the forwarded frame carries `type` through verbatim) to the entry
  /// owning the fingerprint's first byte.
  netio::Frame handle_query(netio::FrameType type, std::string_view payload) {
    queries.fetch_add(1, std::memory_order_relaxed);
    if (payload.empty()) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return {netio::FrameType::kError,
              "query payload must carry at least the fingerprint's first "
              "byte to route on"};
    }
    const std::shared_ptr<const RoutingTable> t = snapshot();
    const std::size_t s =
        t->entry_of[static_cast<std::uint8_t>(payload[0])];
    const Entry& entry = t->entries[s];
    netio::Frame response;
    if (!forward(entry, type, payload, response)) {
      query_errors.fetch_add(1, std::memory_order_relaxed);
      return {netio::FrameType::kError,
              unavailable_reason(s, entry_range(entry))};
    }
    return response;  // backend bytes pass through verbatim
  }

  /// Scatter/gathers one batch request. `type` is the sub-frame request
  /// type sent to each entry (kBatchQuery or kRevocationQuery); both
  /// answer kBatchInfo, so the gather path is shared.
  netio::Frame handle_batch(netio::FrameType type, std::string_view payload) {
    batch_queries.fetch_add(1, std::memory_order_relaxed);
    std::vector<scan::CertFingerprint> fps;
    if (!parse_batch_query(payload, fps)) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return {netio::FrameType::kError,
              "batch query payload must be a u32le count followed by "
              "that many 16-byte fingerprints"};
    }
    batch_entries.fetch_add(fps.size(), std::memory_order_relaxed);

    // One table snapshot for the whole scatter/gather: every entry of
    // this batch routes under the same epoch even if a swap lands midway.
    const std::shared_ptr<const RoutingTable> t = snapshot();

    // Scatter: group entries by map entry, remembering each one's
    // original position so the gathered response preserves request order.
    std::vector<std::vector<std::size_t>> positions(t->entries.size());
    std::vector<std::vector<scan::CertFingerprint>> groups(t->entries.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      const std::size_t s = t->entry_of[fps[i][0]];
      positions[s].push_back(i);
      groups[s].push_back(fps[i]);
    }

    // One concurrent first attempt per entry; failures retry serially in
    // the gather loop below (forward() handles the replica walk).
    struct SubBatch {
      std::size_t shard = 0;
      std::string request;
      netio::PendingCall first_attempt;
    };
    std::vector<SubBatch> subs;
    for (std::size_t s = 0; s < t->entries.size(); ++s) {
      if (groups[s].empty()) continue;
      SubBatch sub;
      sub.shard = s;
      sub.request = encode_batch_query(groups[s]);
      const std::size_t backend = replica_order(t->entries[s]).front();
      sub.first_attempt = pool->call(backend, type, sub.request);
      subs.push_back(std::move(sub));
    }

    std::vector<BatchEntry> entries(fps.size());
    for (SubBatch& sub : subs) {
      const Entry& shard = t->entries[sub.shard];
      const std::size_t count = positions[sub.shard].size();
      std::vector<BatchEntry> shard_entries;
      bool ok = false;
      netio::CallResult first = sub.first_attempt.get();
      if (first.ok() &&
          first.response.type == netio::FrameType::kBatchInfo &&
          parse_batch_info(first.response.payload, shard_entries) &&
          shard_entries.size() == count) {
        ok = true;
      } else {
        // First replica failed (or answered garbage): walk the rest.
        netio::Frame response;
        if (forward(shard, type, sub.request, response) &&
            response.type == netio::FrameType::kBatchInfo &&
            parse_batch_info(response.payload, shard_entries) &&
            shard_entries.size() == count) {
          ok = true;
        }
      }
      if (ok) {
        for (std::size_t i = 0; i < count; ++i) {
          entries[positions[sub.shard][i]] = std::move(shard_entries[i]);
        }
      } else {
        batch_entry_errors.fetch_add(count, std::memory_order_relaxed);
        const std::string reason =
            unavailable_reason(sub.shard, entry_range(shard));
        for (const std::size_t pos : positions[sub.shard]) {
          entries[pos] = {netio::FrameType::kError, reason};
        }
      }
    }

    std::string body =
        encode_batch_info_header(static_cast<std::uint32_t>(entries.size()));
    for (const BatchEntry& entry : entries) {
      append_batch_entry(body, entry.status, entry.body);
    }
    return {netio::FrameType::kBatchInfo, std::move(body)};
  }

  netio::Frame handle_snapshot() {
    snapshot_requests.fetch_add(1, std::memory_order_relaxed);
    // Scatter to every entry; a shard's staleness bound is its own, so
    // the aggregate view labels each section with the prefix range.
    const std::shared_ptr<const RoutingTable> t = snapshot();
    std::string body;
    for (std::size_t s = 0; s < t->entries.size(); ++s) {
      const Entry& entry = t->entries[s];
      char header[64];
      std::snprintf(header, sizeof header, "shard %zu (prefix %u-%u):\n", s,
                    entry.lo, entry.hi);
      body += header;
      netio::Frame response;
      if (forward(entry, netio::FrameType::kSnapshot, {}, response) &&
          response.type == netio::FrameType::kSnapshotInfo) {
        body += response.payload;
      } else {
        body += "unavailable\n";
      }
    }
    return {netio::FrameType::kSnapshotInfo, std::move(body)};
  }

  netio::Frame handle_map_update(std::string_view payload) {
    map_requests.fetch_add(1, std::memory_order_relaxed);
    if (payload.empty()) {
      return {netio::FrameType::kMapInfo,
              serialize_prefix_map(snapshot()->source)};
    }
    PrefixMap map;
    std::string error;
    if (!parse_prefix_map(payload, map, error)) {
      bad_requests.fetch_add(1, std::memory_order_relaxed);
      return {netio::FrameType::kError, "map update rejected: " + error};
    }
    if (!apply_map(map, /*require_advance=*/true, error)) {
      return {netio::FrameType::kError, "map update rejected: " + error};
    }
    return {netio::FrameType::kMapInfo,
            serialize_prefix_map(snapshot()->source)};
  }

  std::string render_stats() const {
    const std::shared_ptr<const RoutingTable> t = snapshot();
    std::string out;
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "router-stats\n"
        "shards: %zu\n"
        "map-epoch: %" PRIu64 "\n"
        "map-swaps: %" PRIu64 "\n"
        "requests: %" PRIu64 "\n"
        "queries: %" PRIu64 " (failed %" PRIu64 ")\n"
        "batch-queries: %" PRIu64 " (entries %" PRIu64 ", entry-errors %"
        PRIu64 ")\n"
        "revocation-queries: %" PRIu64 "\n"
        "retries: %" PRIu64 "\n"
        "pings: %" PRIu64 "\n"
        "stats-requests: %" PRIu64 "\n"
        "snapshot-requests: %" PRIu64 "\n"
        "map-requests: %" PRIu64 "\n"
        "bad-requests: %" PRIu64 "\n",
        t->entries.size(), t->source.epoch,
        map_swaps.load(std::memory_order_relaxed),
        requests.load(std::memory_order_relaxed),
        queries.load(std::memory_order_relaxed),
        query_errors.load(std::memory_order_relaxed),
        batch_queries.load(std::memory_order_relaxed),
        batch_entries.load(std::memory_order_relaxed),
        batch_entry_errors.load(std::memory_order_relaxed),
        revocation_queries.load(std::memory_order_relaxed),
        retries.load(std::memory_order_relaxed),
        pings.load(std::memory_order_relaxed),
        stats_requests.load(std::memory_order_relaxed),
        snapshot_requests.load(std::memory_order_relaxed),
        map_requests.load(std::memory_order_relaxed),
        bad_requests.load(std::memory_order_relaxed));
    out = buf;
    for (std::size_t s = 0; s < t->entries.size(); ++s) {
      const Entry& entry = t->entries[s];
      std::snprintf(buf, sizeof buf,
                    "shard %zu (prefix %u-%u): unavailable %" PRIu64 "\n", s,
                    entry.lo, entry.hi,
                    entry.state->unavailable.load(std::memory_order_relaxed));
      out += buf;
      for (const std::size_t b : entry.backends) {
        const netio::Endpoint& ep = pool->backend(b);
        const netio::BackendCounters c = pool->counters(b);
        std::snprintf(
            buf, sizeof buf,
            "  backend %s:%u: %s requests %" PRIu64 " ok %" PRIu64
            " connect-errors %" PRIu64 " timeouts %" PRIu64 " io-errors %"
            PRIu64 " pings-ok %" PRIu64 " pings-failed %" PRIu64
            " mark-downs %" PRIu64 " reconnects %" PRIu64 "\n",
            ep.host.c_str(), ep.port,
            pool->healthy(b) ? "healthy" : "down", c.requests, c.ok,
            c.connect_errors, c.timeouts, c.io_errors, c.pings_ok,
            c.pings_failed, c.mark_downs, c.reconnects);
        out += buf;
      }
    }
    return out;
  }
};

RouterService::RouterService(RouterConfig config)
    : impl_(std::make_unique<Impl>()) {
  // The pool starts empty; apply_map registers every endpoint through
  // the same add_backend path a later kMapUpdate would use.
  impl_->pool = std::make_unique<netio::ClientPool>(
      std::vector<netio::Endpoint>{}, config.pool);
  std::vector<std::vector<netio::Endpoint>> replica_sets;
  replica_sets.reserve(config.shards.size());
  for (RouterShard& shard : config.shards) {
    replica_sets.push_back(std::move(shard.replicas));
  }
  std::string error;
  if (!impl_->apply_map(uniform_prefix_map(replica_sets),
                        /*require_advance=*/false, error)) {
    // An unroutable initial config (no shards, empty replica set) leaves
    // a deliberately empty table; every data-plane request answers
    // kError until a valid kMapUpdate arrives. Callers that want a hard
    // failure validate their flags first (sm_notary_router does).
    auto empty = std::make_shared<Impl::RoutingTable>();
    impl_->table.store(std::move(empty), std::memory_order_release);
  }
}

RouterService::~RouterService() = default;

void RouterService::handle_into(netio::FrameType type,
                                std::string_view payload, std::string& out) {
  impl_->requests.fetch_add(1, std::memory_order_relaxed);
  if (impl_->snapshot()->entries.empty()) {
    switch (type) {
      case netio::FrameType::kQuery:
      case netio::FrameType::kBatchQuery:
      case netio::FrameType::kRevocationQuery:
      case netio::FrameType::kSnapshot:
        netio::encode_frame_into(out, netio::FrameType::kError,
                                 "router has no routing map");
        return;
      default:
        break;  // control-plane frames still work on an empty table
    }
  }
  switch (type) {
    case netio::FrameType::kQuery: {
      const netio::Frame r =
          impl_->handle_query(netio::FrameType::kQuery, payload);
      netio::encode_frame_into(out, r.type, r.payload);
      return;
    }
    case netio::FrameType::kBatchQuery: {
      const netio::Frame r =
          impl_->handle_batch(netio::FrameType::kBatchQuery, payload);
      netio::encode_frame_into(out, r.type, r.payload);
      return;
    }
    case netio::FrameType::kRevocationQuery: {
      impl_->revocation_queries.fetch_add(1, std::memory_order_relaxed);
      // Same length dispatch as the backend: 16/32 bytes is the single
      // form (routed like kQuery on the fingerprint's first byte), any
      // other length is the batch form (scattered with kRevocationQuery
      // sub-frames; each shard answers kBatchInfo). The forwarded request
      // type stays kRevocationQuery either way, so backend bytes — and
      // therefore the gathered response — match an unsharded notary's.
      const netio::Frame r =
          payload.size() == std::tuple_size_v<scan::CertFingerprint> ||
                  payload.size() == 32
              ? impl_->handle_query(netio::FrameType::kRevocationQuery,
                                    payload)
              : impl_->handle_batch(netio::FrameType::kRevocationQuery,
                                    payload);
      netio::encode_frame_into(out, r.type, r.payload);
      return;
    }
    case netio::FrameType::kPing:
      impl_->pings.fetch_add(1, std::memory_order_relaxed);
      // Zero-copy echo: the request payload is framed straight into the
      // connection buffer, never copied into a response string.
      netio::encode_frame_into(out, netio::FrameType::kPong, payload);
      return;
    case netio::FrameType::kStats: {
      impl_->stats_requests.fetch_add(1, std::memory_order_relaxed);
      netio::FrameWriter frame(out, netio::FrameType::kStatsText);
      out += impl_->render_stats();
      frame.finish();
      return;
    }
    case netio::FrameType::kSnapshot: {
      const netio::Frame r = impl_->handle_snapshot();
      netio::encode_frame_into(out, r.type, r.payload);
      return;
    }
    case netio::FrameType::kMapUpdate: {
      const netio::Frame r = impl_->handle_map_update(payload);
      netio::encode_frame_into(out, r.type, r.payload);
      return;
    }
    default:
      impl_->bad_requests.fetch_add(1, std::memory_order_relaxed);
      netio::encode_frame_into(out, netio::FrameType::kError,
                               "unsupported request frame");
      return;
  }
}

netio::Frame RouterService::handle(netio::FrameType type,
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

std::size_t RouterService::shard_of(std::uint8_t first_byte) const {
  return impl_->snapshot()->entry_of[first_byte];
}

std::size_t RouterService::shard_count() const {
  return impl_->snapshot()->entries.size();
}

std::pair<std::uint8_t, std::uint8_t> RouterService::shard_range(
    std::size_t index) const {
  const std::shared_ptr<const Impl::RoutingTable> t = impl_->snapshot();
  return {t->entries[index].lo, t->entries[index].hi};
}

PrefixMap RouterService::current_map() const {
  return impl_->snapshot()->source;
}

std::uint64_t RouterService::map_epoch() const {
  return impl_->snapshot()->source.epoch;
}

bool RouterService::apply_map(const PrefixMap& map, std::string& error) {
  return impl_->apply_map(map, /*require_advance=*/true, error);
}

std::string RouterService::render_stats() const {
  return impl_->render_stats();
}

const netio::ClientPool& RouterService::pool() const { return *impl_->pool; }

}  // namespace sm::notary
