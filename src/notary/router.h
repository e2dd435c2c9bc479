// RouterService — the request handler of the notary routing tier. It
// owns no corpus: every lookup is forwarded to an sm_notaryd backend
// serving a fingerprint-prefix slice, over a netio::ClientPool.
//
//  * Routing is by PrefixMap (prefix_map.h): an epoch-versioned list of
//    contiguous first-byte ranges, each naming its replica set. The map
//    is compiled into a byte->entry table and swapped RCU-style (the
//    same std::atomic<std::shared_ptr> pattern as LiveCorpus), so a map
//    update never blocks the data plane: in-flight requests finish
//    against the table they loaded, new requests see the new one.
//  * A kMapUpdate frame with an empty payload answers the serialized
//    current map (kMapInfo); with a payload it parses, validates, and
//    applies the map — refusing any epoch that does not advance — then
//    answers the map now in effect. New endpoints are registered with
//    the pool on the fly (ClientPool::add_backend); backends dropped
//    from the map stop receiving traffic but keep their counters.
//  * Routing a kQuery reads payload byte 0 — a truncated 32-byte
//    SHA-256 keeps its first byte, so both query forms route
//    identically. A kBatchQuery is scattered: entries grouped by map
//    entry, one sub-batch per entry issued concurrently, responses
//    gathered in the original order. An entry that cannot answer turns
//    into per-entry kError statuses; the rest of the batch succeeds.
//  * Each map entry may have replicas. Calls prefer healthy replicas
//    (the pool's kPing prober maintains the health bit) and retry a
//    failed call once per remaining replica before giving up with
//    kError "shard N (prefix LO-HI) unavailable".
//  * kStats renders ROUTER-STATS: router-level counters (including
//    map-epoch and map-swaps), plus per shard and per backend the
//    pool's per-error-class counters since start.
//  * handle() is thread-safe (shared state is the atomic table + the
//    pool) but blocks the calling server worker for up to the pool's
//    request timeout while the backend answers. The pool has no reader
//    threads: the blocked worker reads the backend connection itself
//    (or sleeps while a worker waiting on the same connection reads it),
//    so router workers are the threads that do the backend I/O — size
//    the router's worker count to the concurrency you need.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "netio/client_pool.h"
#include "netio/frame.h"
#include "notary/prefix_map.h"

namespace sm::notary {

/// One shard: the replicas that all serve the same prefix slice.
struct RouterShard {
  std::vector<netio::Endpoint> replicas;
};

struct RouterConfig {
  /// Initial layout, compiled into the epoch-1 uniform map: shard i
  /// serves [i*256/N, (i+1)*256/N). Later maps arrive via kMapUpdate.
  std::vector<RouterShard> shards;
  netio::ClientPoolConfig pool;
};

class RouterService {
 public:
  explicit RouterService(RouterConfig config);
  ~RouterService();

  RouterService(const RouterService&) = delete;
  RouterService& operator=(const RouterService&) = delete;

  /// The netio::TcpServer handler: routes/scatters request frames to the
  /// backends and returns the (re)assembled response.
  netio::Frame handle(netio::FrameType type, std::string_view payload);

  /// StreamHandler form: appends the complete encoded response frame to
  /// `out` (the connection's output buffer). kPing echoes the request
  /// payload straight into `out` — no intermediate response string at
  /// all; other frame types encode their assembled response in place.
  void handle_into(netio::FrameType type, std::string_view payload,
                   std::string& out);

  /// Which map entry owns fingerprints starting with `first_byte`, under
  /// the map currently in effect.
  std::size_t shard_of(std::uint8_t first_byte) const;
  std::size_t shard_count() const;
  /// Inclusive first-byte prefix range [lo, hi] served by entry `index`
  /// of the current map.
  std::pair<std::uint8_t, std::uint8_t> shard_range(std::size_t index) const;

  /// The map currently in effect (what an empty kMapUpdate answers).
  PrefixMap current_map() const;
  std::uint64_t map_epoch() const;

  /// Validates and applies a new map, exactly as a kMapUpdate frame
  /// would: the epoch must advance, every endpoint is registered with
  /// the pool, and the compiled table is swapped in atomically. Returns
  /// false and fills `error` without touching the live table on any
  /// validation failure.
  bool apply_map(const PrefixMap& map, std::string& error);

  /// The ROUTER-STATS text (also served for kStats frames).
  std::string render_stats() const;

  /// The underlying pool — health bits and per-backend counters, mainly
  /// for tests and operator tooling.
  const netio::ClientPool& pool() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sm::notary
