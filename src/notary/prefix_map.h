// PrefixMap — the epoch-versioned routing table of the notary deployment.
//
// The map partitions the 256 possible first fingerprint bytes into
// contiguous, non-overlapping ranges and names, for each range, the set
// of replica endpoints serving that slice. Epochs are the coherence
// mechanism: every map swap increments the epoch, a router refuses to
// apply a map whose epoch does not advance, and ROUTER-STATS reports the
// epoch in effect so an operator can confirm a fleet has converged.
//
// The struct is deliberately plain data. RouterService compiles a map
// into its own lookup table (byte -> entry) and swaps it RCU-style; the
// wire format below (kMapUpdate / kMapInfo payloads) is how maps travel
// between sm_reshard, routers, and operator tooling.
//
// Wire format (all integers little-endian):
//
//   u64  epoch
//   u16  entry count (1..256)
//   per entry:
//     u8   lo          first byte of the inclusive prefix range
//     u8   hi          last byte of the inclusive prefix range
//     u8   replica count (>= 1)
//     per replica:
//       u16  port      (nonzero)
//       u8   host length (nonzero)
//       ..   host bytes
//
// A valid map's entries are sorted, adjacent (entry i+1 starts at
// entry i's hi + 1), and cover [0, 255] exactly — there is no such thing
// as an unrouted fingerprint.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netio/client_pool.h"

namespace sm::notary {

/// One contiguous prefix range and the replicas serving it.
struct PrefixMapEntry {
  std::uint8_t lo = 0;  ///< inclusive first-byte lower bound
  std::uint8_t hi = 0;  ///< inclusive first-byte upper bound
  std::vector<netio::Endpoint> replicas;
};

struct PrefixMap {
  std::uint64_t epoch = 0;
  std::vector<PrefixMapEntry> entries;
};

/// Structural validation: sorted adjacent entries covering [0, 255], at
/// least one replica per entry, nonempty hosts, nonzero ports. Returns
/// false and fills `error` on the first violation.
bool validate_prefix_map(const PrefixMap& map, std::string& error);

/// The classic i-of-N split as a map: entry i covers
/// [i*256/N, (i+1)*256/N) and serves replica set i. This is how a router
/// started with --backend flags builds its epoch-1 map, so a static
/// deployment and a resharded one describe themselves identically.
PrefixMap uniform_prefix_map(
    const std::vector<std::vector<netio::Endpoint>>& replica_sets,
    std::uint64_t epoch = 1);

/// Wire codec (kMapUpdate / kMapInfo payloads).
std::string serialize_prefix_map(const PrefixMap& map);
/// Parses AND validates; false + `error` on malformed bytes or an
/// invalid map.
bool parse_prefix_map(std::string_view payload, PrefixMap& out,
                      std::string& error);

/// Human-readable rendering (sm_reshard --show, logs):
///   epoch 4
///   [00-7f] 127.0.0.1:9301 127.0.0.1:9305
///   [80-ff] 127.0.0.1:9302
std::string render_prefix_map(const PrefixMap& map);

/// Splits entry `index`'s range at its midpoint: the lower half keeps the
/// existing replicas, the upper half is served by `new_replicas`, and the
/// epoch advances. Fails (false + `error`) when the range is a single
/// byte or `new_replicas` is empty.
bool split_prefix_map_entry(PrefixMap& map, std::size_t index,
                            std::vector<netio::Endpoint> new_replicas,
                            std::string& error);

/// Merges entry `index` into its right neighbour: the combined range is
/// served by entry index+1's replicas (the side that absorbed the slice),
/// and the epoch advances. Fails when `index` is the last entry.
bool merge_prefix_map_entry(PrefixMap& map, std::size_t index,
                            std::string& error);

}  // namespace sm::notary
