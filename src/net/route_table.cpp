#include "net/route_table.h"

#include <algorithm>

namespace sm::net {

RouteTable::RouteTable() { nodes_.emplace_back(); }

std::int32_t RouteTable::walk_insert(const Prefix& prefix) {
  std::int32_t node = 0;
  for (unsigned depth = 0; depth < prefix.length(); ++depth) {
    const unsigned bit = (prefix.address().value() >> (31 - depth)) & 1;
    if (nodes_[static_cast<std::size_t>(node)].child[bit] < 0) {
      nodes_[static_cast<std::size_t>(node)].child[bit] =
          static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    node = nodes_[static_cast<std::size_t>(node)].child[bit];
  }
  return node;
}

void RouteTable::announce(const Prefix& prefix, Asn asn) {
  const std::int32_t node = walk_insert(prefix);
  Node& n = nodes_[static_cast<std::size_t>(node)];
  if (n.value < 0) {
    n.value = static_cast<std::int32_t>(values_.size());
    values_.push_back(asn);
    ++announced_;
  } else {
    values_[static_cast<std::size_t>(n.value)] = asn;
  }
}

std::optional<Asn> RouteTable::lookup(Ipv4Address ip) const {
  std::optional<Asn> best;
  std::int32_t node = 0;
  for (unsigned depth = 0; depth <= 32; ++depth) {
    const Node& n = nodes_[static_cast<std::size_t>(node)];
    if (n.value >= 0) best = values_[static_cast<std::size_t>(n.value)];
    if (depth == 32) break;
    const unsigned bit = (ip.value() >> (31 - depth)) & 1;
    node = n.child[bit];
    if (node < 0) break;
  }
  return best;
}

std::vector<std::pair<Prefix, Asn>> RouteTable::entries() const {
  std::vector<std::pair<Prefix, Asn>> out;
  // Iterative DFS carrying the path bits.
  struct Frame {
    std::int32_t node;
    std::uint32_t bits;
    unsigned depth;
  };
  std::vector<Frame> stack = {{0, 0, 0}};
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(f.node)];
    if (n.value >= 0) {
      const std::uint32_t addr =
          f.depth == 0 ? 0 : (f.bits << (32 - f.depth));
      out.emplace_back(Prefix(Ipv4Address(addr), f.depth),
                       values_[static_cast<std::size_t>(n.value)]);
    }
    for (unsigned bit = 0; bit < 2; ++bit) {
      if (n.child[bit] >= 0 && f.depth < 32) {
        stack.push_back(
            Frame{n.child[bit], (f.bits << 1) | bit, f.depth + 1});
      }
    }
  }
  return out;
}

void RoutingHistory::add_snapshot(util::UnixTime from, RouteTable table) {
  const auto it = std::lower_bound(
      snapshots_.begin(), snapshots_.end(), from,
      [](const auto& entry, util::UnixTime t) { return entry.first < t; });
  snapshots_.insert(it, {from, std::move(table)});
}

const RouteTable* RoutingHistory::at(util::UnixTime t) const {
  if (snapshots_.empty()) return nullptr;
  const auto it = std::upper_bound(
      snapshots_.begin(), snapshots_.end(), t,
      [](util::UnixTime time, const auto& entry) { return time < entry.first; });
  if (it == snapshots_.begin()) return &it->second;
  return &std::prev(it)->second;
}

}  // namespace sm::net
