// Longest-prefix-match routing tables and their evolution over time —
// the stand-in for the RouteViews prefix-to-AS snapshots the paper joins
// against each scan date.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/ipv4.h"
#include "util/datetime.h"

namespace sm::net {

/// An autonomous-system number.
using Asn = std::uint32_t;

/// A binary-trie IP-to-ASN map with longest-prefix-match lookup.
class RouteTable {
 public:
  RouteTable();

  /// Announces `prefix` as originated by `asn`. Re-announcing an existing
  /// prefix overwrites its origin (the mechanism behind prefix transfers).
  void announce(const Prefix& prefix, Asn asn);

  /// Longest-prefix-match origin AS for `ip`, or nullopt when no announced
  /// prefix covers it.
  std::optional<Asn> lookup(Ipv4Address ip) const;

  /// Number of announced prefixes.
  std::size_t size() const { return announced_; }

  /// All announced (prefix, asn) pairs, in trie order.
  std::vector<std::pair<Prefix, Asn>> entries() const;

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::int32_t value = -1;  // index into values_, -1 = no announcement
  };

  std::int32_t walk_insert(const Prefix& prefix);

  std::vector<Node> nodes_;
  std::vector<Asn> values_;
  std::size_t announced_ = 0;
};

/// A time-indexed sequence of routing tables. The paper uses historic
/// RouteViews snapshots to map IPs to ASes "using the entry closest to each
/// scan"; this class does the same with simulated snapshots and supports
/// mid-study prefix transfers (e.g. Verizon moving blocks to MCI).
class RoutingHistory {
 public:
  /// Adds a snapshot effective from `from` (inclusive). Snapshots must not
  /// share an effective time.
  void add_snapshot(util::UnixTime from, RouteTable table);

  /// The snapshot in effect at time `t` (the latest snapshot whose
  /// effective time is <= t, or the earliest snapshot when t precedes all).
  /// Returns nullptr when empty.
  const RouteTable* at(util::UnixTime t) const;

  std::size_t snapshot_count() const { return snapshots_.size(); }

 private:
  std::vector<std::pair<util::UnixTime, RouteTable>> snapshots_;  // sorted
};

}  // namespace sm::net
