// sm_notaryd — the certificate-notary daemon: serves "what do we know
// about this certificate?" lookups over a scan corpus, the delivery
// vehicle the paper's conclusion calls for (a client deciding whether an
// *invalid* certificate is a benign device cert can ask the notary for
// its history instead of guessing).
//
//   sm_notaryd [--in bundle.smwb | --archive archive.smar] [--port N]
//              [--threads N] [--cache-mb N] [--link]
//       Build the NotaryIndex and serve the framed binary protocol
//       (src/netio/frame.h) until SIGTERM/SIGINT, then drain cleanly.
//       With neither --in nor --archive, a world is simulated from
//       --seed/--devices/--websites/--scale (handy for demos). An
//       `archive.smar.rev` sidecar next to --archive supplies revocation
//       statuses in every serving mode.
//
//   sm_notaryd --shard-prefix LO-HI|i/n ...
//       Shard mode: serve only the certificates whose fingerprint's first
//       byte lies in [LO, HI] (i/n expands to shard i's range under an
//       n-way split). N such processes behind sm_notary_router
//       partition the corpus; key-sharing degrees are still computed over
//       the full corpus before slicing, so every shard's responses are
//       byte-identical to an unsharded daemon's. Shards are live: they
//       mount a notary::ReshardHost, so a running shard can stream a
//       prefix slice to a successor (kSliceSend), absorb one
//       (kSliceBegin/Segment/Done), and retire a handed-off range
//       (kSliceRetire) — the backend side of tools/sm_reshard.
//
//   sm_notaryd --empty ...
//       Successor mode: serve an EMPTY corpus (the loaded or simulated
//       world contributes only its routing history, for AS resolution)
//       and wait for a reshard driver to stream a slice in. Key-sharing
//       degrees and revocation statuses arrive in the slice sidecar, so
//       the successor answers byte-identically to the shard it relieves.
//
//   sm_notaryd --query HEX --port N [--host ADDR]
//       One-shot client: look up a fingerprint (16- or 32-byte hex) on a
//       running daemon and print the response.
//
//   sm_notaryd --ingest DIR [--ingest-poll-ms N] ...
//       Live-ingestion mode: serve the initial corpus, then poll DIR for
//       new `.smar` scan segments (write them atomically — rename into
//       place). Each segment is appended through corpus::LiveCorpus and
//       published as a new epoch/RCU snapshot; queries keep flowing
//       lock-free throughout, and only cached renders of certificates
//       the segment touched are invalidated. kSnapshot requests report
//       the staleness bound ("index as of scan N"). A `SEG.smar.rev`
//       sidecar next to a segment carries revocation statuses learned
//       with it (the slice-sidecar binary format); a status change for an
//       already-known certificate invalidates its cached render like any
//       other delta member.
//
//   sm_notaryd --probe N --port P [--host ADDR] [--oracle HOST:PORT] ...
//       Probe client: drive N kQuery + kRevocationQuery lookups over the
//       corpus's fingerprints against a running daemon or router and
//       count failures. With --oracle, every response is also fetched
//       from the oracle daemon and compared byte-for-byte — the
//       resharding e2e check (exit 0 only on zero failures and zero
//       mismatches).
//
//   sm_notaryd --split-segments K DIR ...
//       Segment producer: write DIR/base.smar (all but the last K scans
//       of the corpus) plus one segment-NNN.smar per held-out scan, each
//       with its `.rev` revocation sidecar — ready to serve with
//       `--archive base.smar --ingest DIR`.
//
// Load generation lives in perfbench (perfbench/README.md): its lookup,
// bulk and ingest workloads drive the same NotaryService, ClientPool and
// LiveCorpus paths this daemon serves.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "corpus_load.h"
#include "linking/linker.h"
#include "netio/frame.h"
#include "netio/frame_client.h"
#include "netio/server.h"
#include "notary/index.h"
#include "notary/reshard.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "util/hex.h"
#include "util/thread_pool.h"

namespace {

using namespace sm;

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

struct Options {
  std::string in_path;
  std::string archive_path;
  std::string bind_address = "127.0.0.1";
  std::string host = "127.0.0.1";
  std::uint16_t port = 7433;
  bool port_given = false;
  std::size_t threads = 0;
  std::size_t cache_mb = 64;
  int idle_ms = 60'000;
  bool link = false;
  bool has_shard = false;        // --shard-prefix LO-HI
  std::uint8_t shard_lo = 0;
  std::uint8_t shard_hi = 255;
  bool empty_corpus = false;     // --empty: successor awaiting a slice
  std::uint64_t probe = 0;       // --probe N: e2e probe client
  std::string oracle;            // --oracle HOST:PORT for --probe
  std::string query_hex;
  std::string ingest_dir;
  int ingest_poll_ms = 500;
  std::uint64_t split_count = 0;
  std::string split_dir;
  // Simulation fallback when no input file is given.
  std::uint64_t seed = 42;
  std::size_t devices = 5000;
  std::size_t websites = 1700;
  double scale = 0.45;
};

void usage() {
  std::fputs(
      "usage: sm_notaryd [--in bundle.smwb | --archive archive.smar]\n"
      "  --port N       TCP port (default 7433; 0 = kernel-assigned)\n"
      "  --bind ADDR    bind address (default 127.0.0.1)\n"
      "  --threads N    worker event loops / index build threads (0 = hw)\n"
      "  --cache-mb N   rendered-response LRU cache size (default 64; 0 "
      "= off)\n"
      "  --idle-ms N    idle connection timeout in ms (default 60000)\n"
      "  --link         attach linked-device ids (runs the linker; needs "
      "routing,\n"
      "                 so --in or a simulated world)\n"
      "  --seed/--devices/--websites/--scale   simulate when no input "
      "given\n"
      "  --shard-prefix LO-HI  serve only certificates whose fingerprint\n"
      "                 first byte is in [LO, HI] (decimal 0-255; i/n\n"
      "                 means shard i's range under an n-way split) —\n"
      "                 the backend side of sm_notary_router; key-sharing\n"
      "                 degrees still reflect the full corpus; the shard\n"
      "                 accepts the kSlice* reshard frames (sm_reshard)\n"
      "  --empty        successor mode: serve an empty corpus (routing\n"
      "                 history only) and wait for a reshard slice\n"
      "  --probe N      probe client: N kQuery+kRevocationQuery lookups\n"
      "                 against --host/--port; exits 0 only on zero\n"
      "                 failures (and zero oracle mismatches)\n"
      "  --oracle H:P   also fetch every --probe response from this\n"
      "                 unsharded daemon and require byte-identity\n"
      "  --query HEX    one-shot client query against a running daemon:\n"
      "                 prints the knowledge render plus the revocation\n"
      "                 status line; exits 0 found, 3 not in the index,\n"
      "                 2 bad hex, 1 connect/transport failure\n"
      "  --host ADDR    server address for --query (default 127.0.0.1)\n"
      "  --ingest DIR   live mode: poll DIR for new .smar segments and\n"
      "                 publish each as a fresh index epoch (no --link)\n"
      "  --ingest-poll-ms N  directory poll interval (default 500)\n"
      "  --split-segments K DIR  write DIR/base.smar (all but the last K\n"
      "                 scans) plus one segment-NNN.smar per held-out\n"
      "                 scan, then exit — the producer side of --ingest\n",
      stderr);
}

using tools::parse_u64_or_die;

std::pair<std::uint8_t, std::uint8_t> parse_prefix_range_or_die(
    const char* text) {
  // i/n: shard i of n, the range the router expects backend i to own.
  const char* slash = std::strchr(text, '/');
  if (slash != nullptr && slash != text && slash[1] != '\0') {
    const std::uint64_t n = parse_u64_or_die("--shard-prefix", slash + 1,
                                             256);
    const std::uint64_t i =
        parse_u64_or_die("--shard-prefix", std::string(text, slash).c_str(),
                         255);
    if (n >= 1 && i < n) {
      return {static_cast<std::uint8_t>(i * 256 / n),
              static_cast<std::uint8_t>((i + 1) * 256 / n - 1)};
    }
  }
  const char* dash = std::strchr(text, '-');
  if (dash != nullptr && dash != text && dash[1] != '\0') {
    const std::uint64_t lo =
        parse_u64_or_die("--shard-prefix", std::string(text, dash).c_str(),
                         255);
    const std::uint64_t hi = parse_u64_or_die("--shard-prefix", dash + 1,
                                              255);
    if (lo <= hi) {
      return {static_cast<std::uint8_t>(lo), static_cast<std::uint8_t>(hi)};
    }
  }
  std::fprintf(stderr,
               "--shard-prefix wants LO-HI (first-byte range) or i/n "
               "(shard i of n, i < n, n in 1..256), got \"%s\"\n",
               text);
  usage();
  std::exit(2);
}

std::optional<Options> parse(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--in") {
      opts.in_path = value();
    } else if (arg == "--archive") {
      opts.archive_path = value();
    } else if (arg == "--bind") {
      opts.bind_address = value();
    } else if (arg == "--host") {
      opts.host = value();
    } else if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(
          parse_u64_or_die("--port", value(), 65535));
      opts.port_given = true;
    } else if (arg == "--threads") {
      opts.threads = parse_u64_or_die("--threads", value(), 4096);
    } else if (arg == "--cache-mb") {
      opts.cache_mb = parse_u64_or_die("--cache-mb", value(), 1 << 20);
    } else if (arg == "--idle-ms") {
      opts.idle_ms = static_cast<int>(
          parse_u64_or_die("--idle-ms", value(), 86'400'000));
    } else if (arg == "--link") {
      opts.link = true;
    } else if (arg == "--shard-prefix") {
      std::tie(opts.shard_lo, opts.shard_hi) =
          parse_prefix_range_or_die(value());
      opts.has_shard = true;
    } else if (arg == "--empty") {
      opts.empty_corpus = true;
    } else if (arg == "--probe") {
      opts.probe = parse_u64_or_die("--probe", value(), ~std::uint64_t{0});
      if (opts.probe == 0) opts.probe = 1;
    } else if (arg == "--oracle") {
      opts.oracle = value();
    } else if (arg == "--query") {
      opts.query_hex = value();
    } else if (arg == "--ingest") {
      opts.ingest_dir = value();
    } else if (arg == "--ingest-poll-ms") {
      opts.ingest_poll_ms = static_cast<int>(
          parse_u64_or_die("--ingest-poll-ms", value(), 3'600'000));
      if (opts.ingest_poll_ms == 0) opts.ingest_poll_ms = 1;
    } else if (arg == "--split-segments") {
      opts.split_count =
          parse_u64_or_die("--split-segments", value(), 100'000);
      opts.split_dir = value();
    } else if (arg == "--seed") {
      opts.seed = parse_u64_or_die("--seed", value(), ~std::uint64_t{0});
    } else if (arg == "--devices") {
      opts.devices = parse_u64_or_die("--devices", value(), 100'000'000);
    } else if (arg == "--websites") {
      opts.websites = parse_u64_or_die("--websites", value(), 100'000'000);
    } else if (arg == "--scale") {
      opts.scale = tools::parse_scale_or_die("--scale", value());
    } else {
      std::fprintf(stderr, "unknown option %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return opts;
}

// ---- clients ---------------------------------------------------------------

int run_query_client(const Options& opts) {
  const auto bytes = util::hex_decode(opts.query_hex);
  if (!bytes.has_value() ||
      (bytes->size() != 16 && bytes->size() != 32)) {
    std::fprintf(stderr,
                 "--query wants 32 or 64 hex digits (16- or 32-byte "
                 "fingerprint)\n");
    return 2;
  }
  netio::FrameClient client;
  if (!client.connect({opts.host, opts.port})) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", opts.host.c_str(),
                 opts.port);
    return 1;
  }
  // Both requests ride one connection: the knowledge render, then the
  // revocation verdict. Exit codes stay distinct so scripts can branch:
  // 0 found, 3 not in the index, 2 bad hex, 1 transport/protocol failure.
  const std::string payload(bytes->begin(), bytes->end());
  netio::Frame response;
  if (!client.call(netio::FrameType::kQuery, payload, response)) {
    std::fprintf(stderr, "no response from %s:%u\n", opts.host.c_str(),
                 opts.port);
    return 1;
  }
  std::fputs(response.payload.c_str(), stdout);
  if (!response.payload.empty() && response.payload.back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (response.type == netio::FrameType::kNotFound) return 3;
  if (response.type != netio::FrameType::kCertInfo) return 1;
  netio::Frame revocation;
  if (!client.call(netio::FrameType::kRevocationQuery, payload,
                   revocation)) {
    std::fprintf(stderr, "no revocation response from %s:%u\n",
                 opts.host.c_str(), opts.port);
    return 1;
  }
  if (revocation.type != netio::FrameType::kRevocationInfo) return 1;
  // The kRevocationInfo body repeats the fingerprint line already printed
  // above; emit only its "revocation: <status>" line.
  const std::size_t line = revocation.payload.find("revocation: ");
  std::fputs(line == std::string::npos ? revocation.payload.c_str()
                                       : revocation.payload.c_str() + line,
             stdout);
  return 0;
}

// The resharding e2e check: hammer a router (or daemon) with kQuery +
// kRevocationQuery lookups and — with --oracle — require byte-identical
// responses from an unsharded daemon. Any transport failure or mismatch
// is fatal; a resharding deployment must mask the handoff completely.
int run_probe_client(const Options& opts, const scan::ScanArchive& archive) {
  const auto& certs = archive.certs();
  if (certs.empty()) {
    std::fprintf(stderr, "--probe: empty corpus, nothing to query\n");
    return 2;
  }
  netio::Endpoint oracle_ep;
  if (!opts.oracle.empty() && !netio::parse_endpoint(opts.oracle, oracle_ep)) {
    std::fprintf(stderr, "--oracle wants HOST:PORT, got \"%s\"\n",
                 opts.oracle.c_str());
    return 2;
  }

  netio::FrameClient client;
  if (!client.connect({opts.host, opts.port})) {
    std::fprintf(stderr, "--probe: cannot connect to %s:%u\n",
                 opts.host.c_str(), opts.port);
    return 1;
  }
  netio::FrameClient oracle;
  if (oracle_ep.port != 0 && !oracle.connect(oracle_ep)) {
    std::fprintf(stderr, "--probe: cannot connect to oracle %s:%u\n",
                 oracle_ep.host.c_str(), oracle_ep.port);
    return 1;
  }

  netio::Frame response;
  netio::Frame oracle_response;
  std::uint64_t sent = 0;
  std::uint64_t mismatches = 0;
  const netio::FrameType kinds[2] = {netio::FrameType::kQuery,
                                     netio::FrameType::kRevocationQuery};
  for (std::uint64_t q = 0; q < opts.probe; ++q) {
    const auto& fp = certs[q % certs.size()].fingerprint;
    const std::string_view payload(
        reinterpret_cast<const char*>(fp.data()), fp.size());
    for (const netio::FrameType kind : kinds) {
      ++sent;
      if (!client.call(kind, payload, response)) {
        std::fprintf(stderr,
                     "--probe: transport failure on query %llu of %llu\n",
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(opts.probe * 2));
        return 1;
      }
      if (response.type == netio::FrameType::kError) {
        std::fprintf(stderr, "--probe: query %llu answered kError: %s\n",
                     static_cast<unsigned long long>(sent),
                     response.payload.c_str());
        return 1;
      }
      if (!oracle.connected()) continue;
      if (!oracle.call(kind, payload, oracle_response)) {
        std::fprintf(stderr, "--probe: oracle transport failure\n");
        return 1;
      }
      if (response.type != oracle_response.type ||
          response.payload != oracle_response.payload) {
        if (++mismatches <= 3) {
          std::fprintf(
              stderr,
              "--probe: MISMATCH on query %llu (type %u vs %u)\n--- "
              "got ---\n%s\n--- oracle ---\n%s\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned>(response.type),
              static_cast<unsigned>(oracle_response.type),
              response.payload.c_str(), oracle_response.payload.c_str());
        }
      }
    }
  }
  std::printf("probe: %llu lookups, %llu mismatches%s\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(mismatches),
              opts.oracle.empty() ? "" : " (oracle-checked)");
  return mismatches == 0 ? 0 : 1;
}

// ---- the serve path ----------------------------------------------------------

/// Runs until the stop flag is raised; the --ingest directory poller.
using IngestPoller = std::function<void(const std::atomic<bool>& stop)>;

// Every serving mode ends here: one TcpServer over the service (with the
// reshard control frames intercepted first when a ReshardHost is
// mounted), an optional ingest poller thread, a wait for SIGTERM/SIGINT,
// then a drain and its summary.
int serve(const Options& opts, notary::NotaryService& service,
          notary::ReshardHost* reshard, const IngestPoller& ingest) {
  netio::ServerConfig config;
  config.bind_address = opts.bind_address;
  config.port = opts.port;
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(
      config, [&service, reshard](netio::FrameType type,
                                  std::string_view payload,
                                  std::string& out) {
        if (reshard == nullptr || !reshard->handle(type, payload, out)) {
          service.handle_into(type, payload, out);
        }
      });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::string mode;
  if (reshard != nullptr) mode = ", reshard-capable";
  if (ingest) {
    mode = ", ingesting " + opts.ingest_dir + " every " +
           std::to_string(opts.ingest_poll_ms) + "ms";
  }
  std::fprintf(stderr, "sm_notaryd listening on %s:%u (%zu certificates%s)\n",
               opts.bind_address.c_str(), server.port(),
               service.index().size(), mode.c_str());

  std::atomic<bool> stop{false};
  std::thread poller;
  if (ingest) poller = std::thread([&] { ingest(stop); });
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "signal received, draining...\n");
  stop.store(true, std::memory_order_relaxed);
  if (poller.joinable()) poller.join();
  server.shutdown();
  const auto counters = server.counters();
  std::fprintf(stderr,
               "drained: %llu connections, %llu frames (%llu malformed, "
               "%llu idle-closed)\n",
               static_cast<unsigned long long>(counters.connections_accepted),
               static_cast<unsigned long long>(counters.frames_handled),
               static_cast<unsigned long long>(counters.malformed_frames),
               static_cast<unsigned long long>(counters.idle_closed));
  std::fputs(service.render_stats().c_str(), stderr);
  std::fputs(service.render_snapshot_info().c_str(), stderr);
  return 0;
}

notary::NotaryServiceConfig service_config(const Options& opts) {
  notary::NotaryServiceConfig config;
  config.cache_bytes = opts.cache_mb << 20;
  return config;
}

// Moves the archive out of a loaded corpus (the routing history, when
// present, stays behind in `corpus.world` and remains borrowable).
scan::ScanArchive take_archive(tools::LoadedCorpus& corpus) {
  return corpus.world.has_value() ? std::move(corpus.world->archive)
                                  : std::move(corpus.archive);
}

// Logs a fresh LiveCorpus's first epoch.
void report_epoch0(const corpus::LiveSnapshot& snap,
                   std::chrono::steady_clock::time_point begin) {
  std::fprintf(stderr,
               "live corpus: epoch 0 over %zu scans, %zu certificates in "
               "%.2fs\n",
               snap.spine->scan_count(), snap.spine->cert_count(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count());
}

// ---- corpus setups -----------------------------------------------------------

// The static daemon: one columnar spine over the corpus; the linker
// (under --link) and the notary index both consume it.
int run_static_server(const Options& opts, const tools::LoadedCorpus& corpus) {
  const auto spine_begin = std::chrono::steady_clock::now();
  corpus::CorpusOptions spine_options;
  spine_options.routing = corpus.routing();
  const corpus::CorpusIndex spine(corpus.archive_ref(), spine_options);
  std::fprintf(stderr, "corpus spine: %zu certificates, %zu observations "
               "in %.2fs\n",
               spine.cert_count(), spine.observation_count(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - spine_begin)
                   .count());

  std::vector<std::vector<scan::CertId>> device_groups;
  if (opts.link) {
    if (corpus.routing() == nullptr) {
      std::fprintf(stderr,
                   "--link needs routing data (--in bundle or a simulated "
                   "world, not --archive)\n");
      return 1;
    }
    const auto begin = std::chrono::steady_clock::now();
    const analysis::DatasetIndex index(spine);
    const linking::Linker linker(index);
    const auto linked = linker.link_iteratively();
    device_groups.reserve(linked.groups.size());
    for (const auto& group : linked.groups) {
      device_groups.push_back(group.certs);
    }
    std::fprintf(stderr, "linking: %zu device groups in %.2fs\n",
                 device_groups.size(),
                 std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - begin)
                     .count());
  }

  const auto begin = std::chrono::steady_clock::now();
  notary::NotaryIndexOptions index_options;
  if (!device_groups.empty()) {
    index_options.device_groups = &device_groups;
  }
  // Revocation verdicts ride along when the corpus carries them (a
  // simulated world or an archive's .rev sidecar; otherwise kUnknown).
  if (!corpus.statuses().empty()) {
    index_options.revocation_statuses = &corpus.statuses();
  }
  const notary::NotaryIndex index(spine, index_options);
  std::fprintf(stderr, "notary index: %zu certificates in %.2fs\n",
               index.size(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count());

  notary::NotaryService service(index, service_config(opts));
  return serve(opts, service, nullptr, {});
}

// The --ingest poller: watches a directory for new .smar segments,
// appends each through the LiveCorpus, and publishes the fresh epoch to
// the service. Files are processed once, in name order — producers must
// write segments atomically (write elsewhere, rename into place).
void poll_ingest_dir(const Options& opts, corpus::LiveCorpus& live,
                     notary::NotaryService& service,
                     const std::atomic<bool>& stop) {
  std::set<std::string> seen;
  while (!stop.load(std::memory_order_relaxed)) {
    std::vector<std::string> fresh;
    std::error_code ec;
    for (std::filesystem::directory_iterator
             it(opts.ingest_dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      const std::filesystem::path& path = it->path();
      if (path.extension() != ".smar" || !it->is_regular_file(ec)) continue;
      if (seen.contains(path.string())) continue;
      fresh.push_back(path.string());
    }
    if (ec) {
      std::fprintf(stderr, "ingest: cannot read %s: %s\n",
                   opts.ingest_dir.c_str(), ec.message().c_str());
    }
    std::sort(fresh.begin(), fresh.end());
    for (const std::string& path : fresh) {
      if (stop.load(std::memory_order_relaxed)) return;
      seen.insert(path);
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "ingest: cannot open %s\n", path.c_str());
        continue;
      }
      // An optional SEG.smar.rev sidecar carries revocation statuses
      // learned with the segment.
      corpus::RevocationStatusMap segment_statuses;
      const corpus::RevocationStatusMap* statuses_arg = nullptr;
      std::error_code rev_ec;
      const std::string rev_path = path + ".rev";
      if (std::filesystem::is_regular_file(rev_path, rev_ec)) {
        std::string rev_error;
        if (tools::load_revocation_sidecar(rev_path, segment_statuses,
                                           rev_error)) {
          statuses_arg = &segment_statuses;
        } else {
          std::fprintf(stderr, "ingest: ignoring bad sidecar %s: %s\n",
                       rev_path.c_str(), rev_error.c_str());
        }
      }
      const auto begin = std::chrono::steady_clock::now();
      const corpus::AppendResult result = live.append_segment(in, statuses_arg);
      if (!result.ok) {
        std::fprintf(stderr, "ingest: %s rejected: %s\n", path.c_str(),
                     result.error.c_str());
        continue;
      }
      const auto snap = live.snapshot();
      notary::publish_live_snapshot(*snap, service);
      const double seconds = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();
      std::fprintf(stderr,
                   "ingest: %s -> epoch %llu (+%zu scans, +%zu certs, "
                   "%zu certs changed) in %.3fs\n",
                   path.c_str(),
                   static_cast<unsigned long long>(snap->epoch),
                   result.scans_appended, result.new_certs,
                   result.delta_size, seconds);
    }
    for (int waited = 0;
         waited < opts.ingest_poll_ms &&
         !stop.load(std::memory_order_relaxed);
         waited += 20) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

// --ingest: a LiveCorpus over the whole loaded archive; the segment
// sidecars update its revocation statuses epoch over epoch.
int run_ingest_server(const Options& opts, tools::LoadedCorpus corpus) {
  std::error_code ec;
  if (!std::filesystem::is_directory(opts.ingest_dir, ec)) {
    std::fprintf(stderr, "--ingest: %s is not a directory\n",
                 opts.ingest_dir.c_str());
    return 2;
  }
  const auto begin = std::chrono::steady_clock::now();
  corpus::RevocationStatusMap statuses = corpus.statuses();
  corpus::LiveCorpus live(take_archive(corpus), corpus.routing(), nullptr,
                          std::move(statuses));
  const auto snap0 = live.snapshot();
  report_epoch0(*snap0, begin);

  notary::NotaryService service(notary::build_live_index(*snap0),
                                service_config(opts));
  return serve(opts, service, nullptr,
               [&](const std::atomic<bool>& stop) {
                 poll_ingest_dir(opts, live, service, stop);
               });
}

// --shard-prefix / --empty: a live, reshardable backend. The slice lives
// in a LiveCorpus (so kSliceBegin/Segment/Done merges and kSliceRetire
// publish fresh epochs) and a notary::ReshardHost intercepts the reshard
// control frames in front of the NotaryService.
int run_live_server(const Options& opts, const tools::LoadedCorpus& corpus) {
  scan::ScanArchive initial;
  corpus::RevocationStatusMap statuses;
  corpus::KeyCountMap key_counts;
  if (opts.empty_corpus) {
    std::fprintf(stderr,
                 "successor: empty corpus, awaiting a reshard slice\n");
  } else {
    const scan::ScanArchive& full = corpus.archive_ref();
    // Key-sharing degree is a property of the FULL corpus (an SPKI's
    // other holders live on other shards): count before slicing and
    // carry the counts as this slice's sidecar, so they survive merges
    // and retires.
    key_counts.reserve(full.certs().size());
    for (const scan::CertRecord& cert : full.certs()) {
      ++key_counts[cert.key_fingerprint];
    }
    statuses = corpus.statuses();
    initial =
        corpus::extract_prefix_slice(full, opts.shard_lo, opts.shard_hi);
    std::fprintf(stderr, "shard: prefix %u-%u, %zu of %zu certificates\n",
                 static_cast<unsigned>(opts.shard_lo),
                 static_cast<unsigned>(opts.shard_hi),
                 initial.certs().size(), full.certs().size());
  }

  const auto begin = std::chrono::steady_clock::now();
  corpus::LiveCorpus live(std::move(initial), corpus.routing(), nullptr,
                          std::move(statuses), std::move(key_counts));
  const auto snap0 = live.snapshot();
  report_epoch0(*snap0, begin);

  notary::NotaryService service(notary::build_live_index(*snap0),
                                service_config(opts));
  notary::ReshardHost reshard(live, service);
  return serve(opts, service, &reshard, {});
}

// The producer side of --ingest: split the corpus into a base archive
// plus one single-scan segment per held-out scan, written with the
// atomic write-then-rename protocol the ingest poller documents.
int run_split_segments(const Options& opts, tools::LoadedCorpus corpus) {
  const scan::ScanArchive full = take_archive(corpus);
  const std::size_t total = full.scans().size();
  if (opts.split_count >= total) {
    std::fprintf(stderr,
                 "--split-segments: corpus has %zu scans, cannot hold "
                 "out %llu\n",
                 total,
                 static_cast<unsigned long long>(opts.split_count));
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(opts.split_dir, ec);
  if (ec) {
    std::fprintf(stderr, "--split-segments: cannot create %s: %s\n",
                 opts.split_dir.c_str(), ec.message().c_str());
    return 2;
  }
  const std::size_t base_count =
      total - static_cast<std::size_t>(opts.split_count);
  const corpus::RevocationStatusMap& statuses = corpus.statuses();
  const auto write = [&](const scan::ScanArchive& archive,
                         const std::string& name) {
    const auto path = std::filesystem::path(opts.split_dir) / name;
    // Revocation sidecar first: the ingest poller keys on the .smar
    // appearing, so NAME.smar.rev must already be in place by then.
    corpus::RevocationStatusMap subset;
    for (const scan::CertRecord& cert : archive.certs()) {
      const auto it = statuses.find(cert.fingerprint);
      if (it != statuses.end()) subset.emplace(it->first, it->second);
    }
    if (!subset.empty() &&
        !tools::save_revocation_sidecar(path.string() + ".rev", subset)) {
      std::fprintf(stderr, "cannot write %s.rev\n", path.c_str());
      return false;
    }
    const std::string tmp = path.string() + ".tmp";
    if (!scan::save_archive_file(archive, tmp)) {
      std::fprintf(stderr, "cannot write %s\n", tmp.c_str());
      return false;
    }
    std::error_code rename_ec;
    std::filesystem::rename(tmp, path, rename_ec);
    if (rename_ec) {
      std::fprintf(stderr, "cannot rename %s: %s\n", tmp.c_str(),
                   rename_ec.message().c_str());
      return false;
    }
    std::fprintf(stderr, "wrote %s: %zu certs, %zu scans\n",
                 path.c_str(), archive.certs().size(),
                 archive.scans().size());
    return true;
  };
  if (!write(corpus::extract_segment(full, 0, base_count), "base.smar")) {
    return 1;
  }
  for (std::size_t k = 0; k < opts.split_count; ++k) {
    char name[40];
    std::snprintf(name, sizeof name, "segment-%03zu.smar", k + 1);
    if (!write(corpus::extract_segment(full, base_count + k,
                                       base_count + k + 1),
               name)) {
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = parse(argc, argv);
  if (!opts.has_value()) {
    usage();
    return 2;
  }
  if (!opts->query_hex.empty()) {
    if (!opts->port_given) {
      std::fprintf(stderr, "--query needs --port\n");
      return 2;
    }
    return run_query_client(*opts);
  }
  if (opts->threads != 0) {
    util::ThreadPool::set_global_threads(opts->threads);
  }
  if (!opts->ingest_dir.empty() && opts->link) {
    std::fprintf(stderr,
                 "--link is incompatible with live ingestion: the "
                 "iterative linker is corpus-global and cannot be "
                 "maintained incrementally\n");
    return 2;
  }
  if ((opts->has_shard || opts->empty_corpus) &&
      (opts->link || !opts->ingest_dir.empty() || opts->split_count > 0)) {
    std::fprintf(stderr,
                 "--shard-prefix/--empty serve a live slice; they are "
                 "incompatible with --link, --ingest and "
                 "--split-segments\n");
    return 2;
  }

  tools::CorpusSpec spec;
  spec.in_path = opts->in_path;
  spec.archive_path = opts->archive_path;
  spec.seed = opts->seed;
  spec.devices = opts->devices;
  spec.websites = opts->websites;
  spec.scale = opts->scale;
  tools::LoadedCorpus corpus = tools::load_or_simulate(spec);

  if (opts->split_count > 0) {
    return run_split_segments(*opts, std::move(corpus));
  }
  if (!opts->ingest_dir.empty()) {
    return run_ingest_server(*opts, std::move(corpus));
  }
  if (opts->probe > 0) {
    if (!opts->port_given) {
      std::fprintf(stderr, "--probe needs --port\n");
      return 2;
    }
    return run_probe_client(*opts, corpus.archive_ref());
  }
  if (opts->has_shard || opts->empty_corpus) {
    return run_live_server(*opts, corpus);
  }
  return run_static_server(*opts, corpus);
}
