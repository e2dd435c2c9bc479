#include "notary/prefix_map.h"

#include <cstdio>

#include "netio/frame.h"

namespace sm::notary {

namespace {

void put_u16le(std::string& out, std::uint16_t value) {
  out.push_back(static_cast<char>(value & 0xff));
  out.push_back(static_cast<char>((value >> 8) & 0xff));
}

std::uint16_t get_u16le(const char* p) {
  return static_cast<std::uint16_t>(
      static_cast<unsigned char>(p[0]) |
      static_cast<unsigned char>(p[1]) << 8);
}

}  // namespace

bool validate_prefix_map(const PrefixMap& map, std::string& error) {
  if (map.entries.empty()) {
    error = "prefix map has no entries";
    return false;
  }
  if (map.entries.size() > 256) {
    error = "prefix map has more than 256 entries";
    return false;
  }
  int expected_lo = 0;
  for (std::size_t i = 0; i < map.entries.size(); ++i) {
    const PrefixMapEntry& e = map.entries[i];
    char buf[96];
    if (e.lo != expected_lo) {
      std::snprintf(buf, sizeof buf,
                    "entry %zu starts at %u, expected %d (ranges must be "
                    "adjacent and cover 0-255)",
                    i, e.lo, expected_lo);
      error = buf;
      return false;
    }
    if (e.hi < e.lo) {
      std::snprintf(buf, sizeof buf, "entry %zu range %u-%u is inverted", i,
                    e.lo, e.hi);
      error = buf;
      return false;
    }
    if (e.replicas.empty()) {
      std::snprintf(buf, sizeof buf, "entry %zu (%u-%u) has no replicas", i,
                    e.lo, e.hi);
      error = buf;
      return false;
    }
    for (const netio::Endpoint& ep : e.replicas) {
      if (ep.host.empty() || ep.host.size() > 255 || ep.port == 0) {
        std::snprintf(buf, sizeof buf,
                      "entry %zu (%u-%u) has a malformed replica endpoint", i,
                      e.lo, e.hi);
        error = buf;
        return false;
      }
    }
    expected_lo = static_cast<int>(e.hi) + 1;
  }
  if (expected_lo != 256) {
    error = "prefix map does not cover bytes up to 255";
    return false;
  }
  return true;
}

PrefixMap uniform_prefix_map(
    const std::vector<std::vector<netio::Endpoint>>& replica_sets,
    std::uint64_t epoch) {
  PrefixMap map;
  map.epoch = epoch;
  const std::size_t n = replica_sets.size();
  map.entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    PrefixMapEntry entry;
    entry.lo = static_cast<std::uint8_t>(i * 256 / n);
    entry.hi = static_cast<std::uint8_t>((i + 1) * 256 / n - 1);
    entry.replicas = replica_sets[i];
    map.entries.push_back(std::move(entry));
  }
  return map;
}

std::string serialize_prefix_map(const PrefixMap& map) {
  std::string out;
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((map.epoch >> shift) & 0xff));
  }
  put_u16le(out, static_cast<std::uint16_t>(map.entries.size()));
  for (const PrefixMapEntry& e : map.entries) {
    out.push_back(static_cast<char>(e.lo));
    out.push_back(static_cast<char>(e.hi));
    out.push_back(static_cast<char>(e.replicas.size()));
    for (const netio::Endpoint& ep : e.replicas) {
      put_u16le(out, ep.port);
      out.push_back(static_cast<char>(ep.host.size()));
      out.append(ep.host);
    }
  }
  return out;
}

bool parse_prefix_map(std::string_view payload, PrefixMap& out,
                      std::string& error) {
  const char* p = payload.data();
  std::size_t left = payload.size();
  auto need = [&](std::size_t n) {
    if (left < n) {
      error = "prefix map payload truncated";
      return false;
    }
    return true;
  };
  if (!need(10)) return false;
  PrefixMap map;
  map.epoch = 0;
  for (int i = 7; i >= 0; --i) {
    map.epoch = map.epoch << 8 | static_cast<unsigned char>(p[i]);
  }
  const std::uint16_t count = get_u16le(p + 8);
  p += 10;
  left -= 10;
  if (count == 0 || count > 256) {
    error = "prefix map entry count out of range";
    return false;
  }
  map.entries.reserve(count);
  for (std::uint16_t i = 0; i < count; ++i) {
    if (!need(3)) return false;
    PrefixMapEntry entry;
    entry.lo = static_cast<std::uint8_t>(p[0]);
    entry.hi = static_cast<std::uint8_t>(p[1]);
    const std::uint8_t replicas = static_cast<std::uint8_t>(p[2]);
    p += 3;
    left -= 3;
    if (replicas == 0) {
      error = "prefix map entry has zero replicas";
      return false;
    }
    entry.replicas.reserve(replicas);
    for (std::uint8_t r = 0; r < replicas; ++r) {
      if (!need(3)) return false;
      netio::Endpoint ep;
      ep.port = get_u16le(p);
      const std::uint8_t host_len = static_cast<std::uint8_t>(p[2]);
      p += 3;
      left -= 3;
      if (!need(host_len)) return false;
      ep.host.assign(p, host_len);
      p += host_len;
      left -= host_len;
      entry.replicas.push_back(std::move(ep));
    }
    map.entries.push_back(std::move(entry));
  }
  if (left != 0) {
    error = "prefix map payload has trailing bytes";
    return false;
  }
  if (!validate_prefix_map(map, error)) return false;
  out = std::move(map);
  return true;
}

std::string render_prefix_map(const PrefixMap& map) {
  std::string out = "epoch " + std::to_string(map.epoch) + "\n";
  char buf[16];
  for (const PrefixMapEntry& e : map.entries) {
    std::snprintf(buf, sizeof buf, "[%02x-%02x]", e.lo, e.hi);
    out += buf;
    for (const netio::Endpoint& ep : e.replicas) {
      out += ' ';
      out += ep.host;
      out += ':';
      out += std::to_string(ep.port);
    }
    out += '\n';
  }
  return out;
}

bool split_prefix_map_entry(PrefixMap& map, std::size_t index,
                            std::vector<netio::Endpoint> new_replicas,
                            std::string& error) {
  if (index >= map.entries.size()) {
    error = "split: entry index out of range";
    return false;
  }
  PrefixMapEntry& e = map.entries[index];
  if (e.lo == e.hi) {
    error = "split: entry covers a single byte, cannot split further";
    return false;
  }
  if (new_replicas.empty()) {
    error = "split: no replicas given for the new entry";
    return false;
  }
  const std::uint8_t mid =
      static_cast<std::uint8_t>(e.lo + (e.hi - e.lo) / 2);
  PrefixMapEntry upper;
  upper.lo = static_cast<std::uint8_t>(mid + 1);
  upper.hi = e.hi;
  upper.replicas = std::move(new_replicas);
  e.hi = mid;
  map.entries.insert(map.entries.begin() + static_cast<std::ptrdiff_t>(index) + 1,
                     std::move(upper));
  ++map.epoch;
  return true;
}

bool merge_prefix_map_entry(PrefixMap& map, std::size_t index,
                            std::string& error) {
  if (index + 1 >= map.entries.size()) {
    error = "merge: entry has no right neighbour";
    return false;
  }
  map.entries[index + 1].lo = map.entries[index].lo;
  map.entries.erase(map.entries.begin() + static_cast<std::ptrdiff_t>(index));
  ++map.epoch;
  return true;
}

}  // namespace sm::notary
