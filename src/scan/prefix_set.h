// A set of CIDR prefixes with covering-prefix membership tests — used for
// the per-campaign scan blacklists behind the paper's Figure 1 dataset
// discrepancy.
#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"

namespace sm::scan {

/// A prefix set; `covers(ip)` is true when any member prefix contains `ip`.
/// Membership is a binary search over the members' union, held as sorted
/// disjoint address ranges.
class PrefixSet {
 public:
  /// Adds a prefix to the set (a prefix already present is ignored).
  void add(const net::Prefix& prefix);

  /// True when some member prefix contains `ip`.
  bool covers(net::Ipv4Address ip) const;

  /// All member prefixes, in binary-trie order: a prefix before the
  /// prefixes it contains, and at the first differing bit the 1 side
  /// first. (Serialised worlds store this order.)
  const std::vector<net::Prefix>& prefixes() const { return members_; }

  std::size_t size() const { return members_.size(); }
  bool empty() const { return members_.empty(); }

 private:
  /// Addresses [first, end) — 64-bit so a range may end at 2^32.
  struct Range {
    std::uint64_t first = 0;
    std::uint64_t end = 0;
  };

  std::vector<net::Prefix> members_;  // trie order
  std::vector<Range> ranges_;         // sorted, disjoint, non-adjacent
};

}  // namespace sm::scan
