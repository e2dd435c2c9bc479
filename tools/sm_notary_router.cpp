// sm_notary_router — the routing tier in front of sharded sm_notaryd
// backends. It owns no corpus: each backend serves one fingerprint-prefix
// slice (sm_notaryd --shard-prefix), and the router forwards every query
// to the shard that owns its first fingerprint byte, scatters batch
// queries across shards, and keeps per-backend health via kPing probes.
//
//   sm_notary_router --backend H:P[,H:P...] --backend H:P[,H:P...] ...
//       One --backend flag per shard, in shard order: with N flags,
//       shard i (serving first bytes [i*256/N, (i+1)*256/N)) is the i-th
//       flag. Comma-separated endpoints within one flag are replicas of
//       the same slice (failover, round-robin).
//
// The router serves the same framed protocol as sm_notaryd (kQuery,
// kBatchQuery, kStats → ROUTER-STATS, kPing, kSnapshot → per-shard
// staleness) and drains cleanly on SIGTERM/SIGINT, printing ROUTER-STATS.
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "flags.h"
#include "netio/client_pool.h"
#include "netio/server.h"
#include "notary/router.h"

namespace {

using namespace sm;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Options {
  std::vector<notary::RouterShard> shards;
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 7432;
  std::size_t threads = 0;  // 0 = hardware concurrency
  std::uint64_t idle_ms = 60'000;
  netio::ClientPoolConfig pool;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: sm_notary_router --backend HOST:PORT[,HOST:PORT...] [...]\n"
      "\n"
      "  --backend LIST   one flag per shard, in shard order; commas\n"
      "                   separate replicas of the same prefix slice\n"
      "  --port N         listen port (default 7432)\n"
      "  --bind ADDR      bind address (default 127.0.0.1)\n"
      "  --threads N      server workers (default: hardware concurrency)\n"
      "  --idle-ms N      close idle client connections after N ms\n"
      "  --connections-per-backend N   pool size per backend (default 2)\n"
      "  --request-timeout-ms N        per-call timeout (default 2000)\n"
      "  --ping-interval-ms N          health-probe period, 0 disables\n"
      "                                (default 200)\n");
}

std::uint64_t parse_u64_or_die(const char* flag, const char* text,
                               std::uint64_t max) {
  std::uint64_t value = 0;
  if (!tools::parse_u64(text, max, value)) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, text);
    usage();
    std::exit(2);
  }
  return value;
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
    if (arg == "--backend") {
      notary::RouterShard shard;
      if (!netio::parse_endpoints(next(), shard.replicas)) {
        std::fprintf(stderr, "bad --backend list: %s\n", argv[i]);
        return std::nullopt;
      }
      opts.shards.push_back(std::move(shard));
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(
          parse_u64_or_die("--port", next(), 65535));
    } else if (arg == "--bind") {
      opts.bind_address = next();
    } else if (arg == "--threads") {
      opts.threads = parse_u64_or_die("--threads", next(), 4096);
    } else if (arg == "--idle-ms") {
      opts.idle_ms = parse_u64_or_die("--idle-ms", next(), 86'400'000);
    } else if (arg == "--connections-per-backend") {
      opts.pool.connections_per_backend = static_cast<std::size_t>(
          parse_u64_or_die("--connections-per-backend", next(), 64));
    } else if (arg == "--request-timeout-ms") {
      opts.pool.request_timeout_ms =
          parse_u64_or_die("--request-timeout-ms", next(), 600'000);
    } else if (arg == "--ping-interval-ms") {
      opts.pool.ping_interval_ms =
          parse_u64_or_die("--ping-interval-ms", next(), 600'000);
    } else if (arg == "--help" || arg == "-h") {
      return std::nullopt;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  if (opts.shards.empty()) {
    std::fprintf(stderr, "at least one --backend is required\n");
    return std::nullopt;
  }
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts.has_value()) {
    usage();
    return 2;
  }

  notary::RouterConfig router_config;
  router_config.shards = opts->shards;
  router_config.pool = opts->pool;
  notary::RouterService router(std::move(router_config));

  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const auto [lo, hi] = router.shard_range(s);
    std::string replicas;
    for (const auto& ep : opts->shards[s].replicas) {
      if (!replicas.empty()) replicas += ", ";
      replicas += ep.host + ":" + std::to_string(ep.port);
    }
    std::fprintf(stderr, "shard %zu: prefix %u-%u -> %s\n", s,
                 static_cast<unsigned>(lo), static_cast<unsigned>(hi),
                 replicas.c_str());
  }

  netio::ServerConfig server_config;
  server_config.bind_address = opts->bind_address;
  server_config.port = opts->port;
  server_config.workers = opts->threads;
  server_config.idle_timeout_ms = opts->idle_ms;
  netio::TcpServer server(server_config,
                          [&router](netio::FrameType type,
                                    std::string_view payload,
                                    std::string& out) {
                            router.handle_into(type, payload, out);
                          });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::fprintf(stderr, "sm_notary_router listening on %s:%u (%zu shards)\n",
               opts->bind_address.c_str(), server.port(),
               router.shard_count());
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "signal received, draining...\n");
  server.shutdown();
  const auto counters = server.counters();
  std::fprintf(stderr,
               "drained: %llu connections, %llu frames (%llu malformed, "
               "%llu idle-closed)\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.frames_handled),
               static_cast<unsigned long long>(counters.malformed_frames),
               static_cast<unsigned long long>(counters.idle_closed));
  std::fputs(router.render_stats().c_str(), stderr);
  return 0;
}
