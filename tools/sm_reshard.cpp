// sm_reshard — the online-resharding driver. It owns no data and holds
// no locks: it sequences the slice-handoff state machine between a
// running sm_notary_router and its sm_notaryd backends, entirely through
// the framed protocol (src/netio/frame.h).
//
//   sm_reshard --router HOST:PORT --show
//       Fetch and print the router's current prefix map (kMapUpdate with
//       an empty payload answers kMapInfo).
//
//   sm_reshard --router HOST:PORT --split I --to HOST:PORT[,HOST:PORT...]
//       Split map entry I at its midpoint. The upper half moves to the
//       --to replicas (typically fresh `sm_notaryd --empty` successors):
//         snapshot+stream  kSliceSend to entry I's first replica, once
//                          per successor — the source streams the upper
//                          half's slice and catches up until the
//                          successor is current (the successor publishes
//                          its enlarged index before replying);
//         swap             kMapUpdate pushes the epoch+1 map to the
//                          router; in-flight queries finish on the old
//                          table, new ones route to the successors;
//         retire           kSliceRetire tells each old replica to drop
//                          the handed-off range.
//       Queries never fail during the handoff: until the swap the old
//       replicas still own the whole range, and by the swap the
//       successors are published and current.
//
//   sm_reshard --router HOST:PORT --merge I
//       Inverse: entry I's range moves to entry I+1's replicas and the
//       two entries collapse into one (same stream → swap → retire
//       sequence, with entry I's replicas as the source).
//
// Exit codes: 0 success, 1 protocol/transport failure, 2 bad flags
// (usage to stderr).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"
#include "netio/frame.h"
#include "netio/frame_client.h"
#include "notary/prefix_map.h"

namespace {

using namespace sm;

struct Options {
  std::string router_host;
  std::uint16_t router_port = 0;
  bool show = false;
  bool has_split = false;
  bool has_merge = false;
  std::size_t entry = 0;
  std::vector<netio::Endpoint> to;
  /// Grace between the map swap and the source-side retire: queries the
  /// router dispatched on the old table must land on the old owner before
  /// it drops the range.
  int drain_ms = 200;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: sm_reshard --router HOST:PORT (--show | --split I --to "
      "HOST:PORT[,...] | --merge I)\n"
      "\n"
      "  --show          print the router's current prefix map\n"
      "  --split I       split map entry I at its midpoint; the upper\n"
      "                  half moves to the --to replicas (fresh\n"
      "                  `sm_notaryd --empty` successors)\n"
      "  --to LIST       comma-separated successor endpoints for --split\n"
      "  --merge I       fold entry I into entry I+1 (entry I's range\n"
      "                  streams to entry I+1's replicas)\n"
      "  --drain-ms N    wait N ms between the map swap and the source\n"
      "                  retire, letting old-table queries land "
      "(default 200)\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--router") {
      netio::Endpoint ep;
      if (!netio::parse_endpoint(next(), ep)) {
        std::fprintf(stderr, "bad --router endpoint: %s\n", argv[i]);
        return std::nullopt;
      }
      opts.router_host = ep.host;
      opts.router_port = ep.port;
    } else if (arg == "--show") {
      opts.show = true;
    } else if (arg == "--split") {
      std::uint64_t value = 0;
      if (!tools::parse_u64(next(), 255, value)) {
        std::fprintf(stderr, "bad --split entry index: %s\n", argv[i]);
        return std::nullopt;
      }
      opts.entry = value;
      opts.has_split = true;
    } else if (arg == "--merge") {
      std::uint64_t value = 0;
      if (!tools::parse_u64(next(), 255, value)) {
        std::fprintf(stderr, "bad --merge entry index: %s\n", argv[i]);
        return std::nullopt;
      }
      opts.entry = value;
      opts.has_merge = true;
    } else if (arg == "--to") {
      if (!netio::parse_endpoints(next(), opts.to)) {
        std::fprintf(stderr, "bad --to endpoint in: %s\n", argv[i]);
        return std::nullopt;
      }
    } else if (arg == "--drain-ms") {
      std::uint64_t value = 0;
      if (!tools::parse_u64(next(), 60'000, value)) {
        std::fprintf(stderr, "bad --drain-ms: %s\n", argv[i]);
        return std::nullopt;
      }
      opts.drain_ms = static_cast<int>(value);
    } else if (arg == "--help" || arg == "-h") {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (opts.router_port == 0) {
    std::fprintf(stderr, "--router is required\n");
    return std::nullopt;
  }
  const int modes = static_cast<int>(opts.show) +
                    static_cast<int>(opts.has_split) +
                    static_cast<int>(opts.has_merge);
  if (modes != 1) {
    std::fprintf(stderr,
                 "exactly one of --show, --split, --merge is required\n");
    return std::nullopt;
  }
  if (opts.has_split && opts.to.empty()) {
    std::fprintf(stderr, "--split needs --to\n");
    return std::nullopt;
  }
  if (!opts.has_split && !opts.to.empty()) {
    std::fprintf(stderr, "--to only makes sense with --split\n");
    return std::nullopt;
  }
  return opts;
}

bool call_peer(const netio::Endpoint& ep, netio::FrameType type,
               std::string_view payload, netio::FrameType want,
               std::string& response_payload) {
  netio::FrameClient conn;
  if (!conn.connect(ep)) {
    std::fprintf(stderr, "sm_reshard: cannot connect to %s:%u\n",
                 ep.host.c_str(), ep.port);
    return false;
  }
  netio::Frame response;
  if (!conn.call(type, payload, response)) {
    std::fprintf(stderr, "sm_reshard: no response from %s:%u\n",
                 ep.host.c_str(), ep.port);
    return false;
  }
  if (response.type != want) {
    std::fprintf(stderr, "sm_reshard: %s:%u refused: %s\n", ep.host.c_str(),
                 ep.port, response.payload.c_str());
    return false;
  }
  response_payload = std::move(response.payload);
  return true;
}

std::string encode_slice_send(std::uint8_t lo, std::uint8_t hi,
                              const netio::Endpoint& target) {
  std::string payload;
  payload.push_back(static_cast<char>(lo));
  payload.push_back(static_cast<char>(hi));
  payload.push_back(static_cast<char>(target.port & 0xff));
  payload.push_back(static_cast<char>(target.port >> 8));
  payload.push_back(static_cast<char>(target.host.size()));
  payload += target.host;
  return payload;
}

bool fetch_map(const Options& opts, notary::PrefixMap& map) {
  std::string payload;
  if (!call_peer({opts.router_host, opts.router_port},
                 netio::FrameType::kMapUpdate, {},
                 netio::FrameType::kMapInfo, payload)) {
    return false;
  }
  std::string error;
  if (!notary::parse_prefix_map(payload, map, error)) {
    std::fprintf(stderr, "sm_reshard: router sent a bad map: %s\n",
                 error.c_str());
    return false;
  }
  return true;
}

// The shared tail of --split and --merge: stream [lo, hi] from `source`
// to every `target`, push the new map to the router, then retire the
// range from every old holder. Timings go to stderr; the map-swap
// duration is the cutover blackout the bench tracks.
int run_handoff(const Options& opts, const notary::PrefixMap& next_map,
                std::uint8_t lo, std::uint8_t hi,
                const netio::Endpoint& source,
                const std::vector<netio::Endpoint>& targets,
                const std::vector<netio::Endpoint>& retire_from) {
  using Clock = std::chrono::steady_clock;
  std::string response;

  for (const netio::Endpoint& target : targets) {
    const auto t0 = Clock::now();
    if (!call_peer(source, netio::FrameType::kSliceSend,
                   encode_slice_send(lo, hi, target),
                   netio::FrameType::kSliceInfo, response)) {
      return 1;
    }
    std::fprintf(stderr, "stream  %.3fs  %s\n",
                 std::chrono::duration<double>(Clock::now() - t0).count(),
                 response.c_str());
  }

  const auto swap0 = Clock::now();
  if (!call_peer({opts.router_host, opts.router_port},
                 netio::FrameType::kMapUpdate,
                 notary::serialize_prefix_map(next_map),
                 netio::FrameType::kMapInfo, response)) {
    return 1;
  }
  // The ack payload is the router's (binary) authoritative map — confirm
  // it round-trips and reports the epoch we pushed.
  notary::PrefixMap applied;
  std::string error;
  if (!notary::parse_prefix_map(response, applied, error) ||
      applied.epoch != next_map.epoch) {
    std::fprintf(stderr,
                 "sm_reshard: router acked an unexpected map (%s)\n",
                 error.empty() ? "wrong epoch" : error.c_str());
    return 1;
  }
  const double swap_seconds =
      std::chrono::duration<double>(Clock::now() - swap0).count();
  std::fprintf(stderr, "swap    %.6fs  now epoch %llu\n", swap_seconds,
               static_cast<unsigned long long>(applied.epoch));

  if (opts.drain_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.drain_ms));
  }
  for (const netio::Endpoint& old : retire_from) {
    const auto t0 = Clock::now();
    const char range[2] = {static_cast<char>(lo), static_cast<char>(hi)};
    if (!call_peer(old, netio::FrameType::kSliceRetire,
                   std::string_view(range, 2), netio::FrameType::kSliceInfo,
                   response)) {
      return 1;
    }
    std::fprintf(stderr, "retire  %.3fs  %s\n",
                 std::chrono::duration<double>(Clock::now() - t0).count(),
                 response.c_str());
  }

  std::printf("resharded to epoch %llu (map swap %.6fs)\n%s",
              static_cast<unsigned long long>(next_map.epoch), swap_seconds,
              notary::render_prefix_map(next_map).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts.has_value()) {
    usage();
    return 2;
  }

  notary::PrefixMap map;
  if (!fetch_map(*opts, map)) return 1;

  if (opts->show) {
    std::fputs(notary::render_prefix_map(map).c_str(), stdout);
    return 0;
  }

  if (opts->entry >= map.entries.size()) {
    std::fprintf(stderr,
                 "sm_reshard: entry %zu out of range (map has %zu "
                 "entries)\n",
                 opts->entry, map.entries.size());
    return 2;
  }
  const notary::PrefixMapEntry old_entry = map.entries[opts->entry];
  std::string error;

  if (opts->has_split) {
    notary::PrefixMap next = map;
    if (!notary::split_prefix_map_entry(next, opts->entry, opts->to,
                                        error)) {
      std::fprintf(stderr, "sm_reshard: cannot split: %s\n", error.c_str());
      return 2;
    }
    // The upper half is the range that moves; the lower stays put.
    const notary::PrefixMapEntry& upper = next.entries[opts->entry + 1];
    std::fprintf(stderr,
                 "split entry %zu: [%02x-%02x] stays, [%02x-%02x] moves "
                 "to %zu successor(s)\n",
                 opts->entry, next.entries[opts->entry].lo,
                 next.entries[opts->entry].hi, upper.lo, upper.hi,
                 opts->to.size());
    return run_handoff(*opts, next, upper.lo, upper.hi,
                       old_entry.replicas.front(), opts->to,
                       old_entry.replicas);
  }

  // --merge: entry I's whole range moves to entry I+1's replicas.
  notary::PrefixMap next = map;
  if (!notary::merge_prefix_map_entry(next, opts->entry, error)) {
    std::fprintf(stderr, "sm_reshard: cannot merge: %s\n", error.c_str());
    return 2;
  }
  const notary::PrefixMapEntry& right = map.entries[opts->entry + 1];
  std::fprintf(stderr,
               "merge entry %zu: [%02x-%02x] moves to entry %zu's "
               "replicas\n",
               opts->entry, old_entry.lo, old_entry.hi, opts->entry + 1);
  return run_handoff(*opts, next, old_entry.lo, old_entry.hi,
                     old_entry.replicas.front(), right.replicas,
                     old_entry.replicas);
}
