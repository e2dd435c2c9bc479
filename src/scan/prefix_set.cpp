#include "scan/prefix_set.h"

#include <algorithm>
#include <iterator>

namespace sm::scan {

namespace {

// Binary-trie pre-order with the 1 branch visited first: compare the bits
// both prefixes have; where they differ the larger value (a 1 at the first
// differing bit) comes first, and where they agree the shorter prefix
// (the ancestor) does.
bool trie_before(const net::Prefix& a, const net::Prefix& b) {
  const net::Prefix& shorter = a.length() <= b.length() ? a : b;
  const std::uint32_t mask = shorter.mask();
  const std::uint32_t bits_a = a.address().value() & mask;
  const std::uint32_t bits_b = b.address().value() & mask;
  if (bits_a != bits_b) return bits_a > bits_b;
  return a.length() < b.length();
}

}  // namespace

void PrefixSet::add(const net::Prefix& prefix) {
  const auto pos =
      std::lower_bound(members_.begin(), members_.end(), prefix, trie_before);
  if (pos != members_.end() && *pos == prefix) return;
  members_.insert(pos, prefix);

  // Merge [first, end) with every range it overlaps or touches.
  Range merged{prefix.address().value(),
               prefix.address().value() + prefix.size()};
  auto lo = std::lower_bound(
      ranges_.begin(), ranges_.end(), merged.first,
      [](const Range& r, std::uint64_t first) { return r.end < first; });
  auto hi = lo;
  for (; hi != ranges_.end() && hi->first <= merged.end; ++hi) {
    merged.first = std::min(merged.first, hi->first);
    merged.end = std::max(merged.end, hi->end);
  }
  ranges_.insert(ranges_.erase(lo, hi), merged);
}

bool PrefixSet::covers(net::Ipv4Address ip) const {
  const std::uint64_t addr = ip.value();
  const auto it = std::upper_bound(
      ranges_.begin(), ranges_.end(), addr,
      [](std::uint64_t a, const Range& r) { return a < r.first; });
  return it != ranges_.begin() && addr < std::prev(it)->end;
}

}  // namespace sm::scan
