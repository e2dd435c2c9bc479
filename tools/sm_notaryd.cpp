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
//       --seed/--devices/--websites/--scale (handy for demos).
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
//   sm_notaryd --bench N [--clients C] ...
//       Load-generator mode: serve on an ephemeral loopback port, drive N
//       lookups from C concurrent client connections, and report
//       throughput and client-side latency percentiles. --bench-batch B
//       groups lookups into kBatchQuery frames, --bench-zipf S draws
//       fingerprints from a Zipf(S) popularity curve, and
//       --bench-open-loop QPS switches to open-loop arrivals (latency
//       measured from the scheduled send time, so queueing counts).
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
//       of the corpus) plus one segment-NNN.smar per held-out scan —
//       ready to serve with `--archive base.smar --ingest DIR`.
//
//   sm_notaryd --ingest-bench K ...
//       Self-contained ingestion benchmark: holds out the last K scans
//       of the corpus, serves the rest, then appends the K held-out
//       segments while loopback clients query continuously — reporting
//       per-epoch swap latency and the query p50/p99 during ingestion.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/dataset.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "corpus_load.h"
#include "linking/linker.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/reshard.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "simworld/world_io.h"
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
  std::uint64_t bench = 0;
  std::size_t clients = 4;
  std::size_t bench_batch = 0;   // fingerprints per kBatchQuery; 0 = singles
  double bench_zipf = 0;         // Zipf exponent; 0 = uniform round-robin
  double bench_open_loop = 0;    // target arrival rate (qps); 0 = closed loop
  bool has_shard = false;        // --shard-prefix LO-HI
  std::uint8_t shard_lo = 0;
  std::uint8_t shard_hi = 255;
  bool empty_corpus = false;     // --empty: successor awaiting a slice
  std::uint64_t probe = 0;       // --probe N: e2e probe client
  std::string oracle;            // --oracle HOST:PORT for --probe
  std::string query_hex;
  std::string ingest_dir;
  int ingest_poll_ms = 500;
  std::uint64_t ingest_bench = 0;
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
      "  --bench N      loopback load generator: N queries, then exit\n"
      "  --clients C    concurrent bench connections (default 4)\n"
      "  --bench-batch M      group M fingerprints per kBatchQuery frame\n"
      "  --bench-zipf S       Zipf(S)-distributed fingerprint popularity\n"
      "                 (S > 0, e.g. 0.99) instead of a uniform sweep\n"
      "  --bench-open-loop R  open-loop arrivals at R requests/s: sends\n"
      "                 are scheduled, latency includes queue delay\n"
      "  --query HEX    one-shot client query against a running daemon:\n"
      "                 prints the knowledge render plus the revocation\n"
      "                 status line; exits 0 found, 3 not in the index,\n"
      "                 2 bad hex, 1 connect/transport failure\n"
      "  --host ADDR    server address for --query (default 127.0.0.1)\n"
      "  --ingest DIR   live mode: poll DIR for new .smar segments and\n"
      "                 publish each as a fresh index epoch (no --link)\n"
      "  --ingest-poll-ms N  directory poll interval (default 500)\n"
      "  --ingest-bench K    append the corpus's last K scans as live\n"
      "                 segments under loopback query load; report swap\n"
      "                 latency and query p99 during ingestion\n"
      "  --split-segments K DIR  write DIR/base.smar (all but the last K\n"
      "                 scans) plus one segment-NNN.smar per held-out\n"
      "                 scan, then exit — the producer side of --ingest\n",
      stderr);
}

using tools::parse_u64_or_die;

double parse_positive_double_or_die(const char* flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !(value > 0) || value > 1e9) {
    std::fprintf(stderr, "%s wants a positive number, got \"%s\"\n", flag,
                 text);
    std::exit(2);
  }
  return value;
}

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
    } else if (arg == "--bench") {
      opts.bench = parse_u64_or_die("--bench", value(), ~std::uint64_t{0});
    } else if (arg == "--clients") {
      opts.clients = parse_u64_or_die("--clients", value(), 1024);
      if (opts.clients == 0) opts.clients = 1;
    } else if (arg == "--bench-batch") {
      opts.bench_batch = parse_u64_or_die("--bench-batch", value(),
                                          notary::kMaxBatchEntries);
    } else if (arg == "--bench-zipf") {
      opts.bench_zipf = parse_positive_double_or_die("--bench-zipf", value());
    } else if (arg == "--bench-open-loop") {
      opts.bench_open_loop =
          parse_positive_double_or_die("--bench-open-loop", value());
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
    } else if (arg == "--ingest-bench") {
      opts.ingest_bench =
          parse_u64_or_die("--ingest-bench", value(), 100'000);
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

// ---- blocking-socket client helpers (bench + --query modes) -------------

int connect_tcp(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool read_frame(int fd, netio::FrameDecoder& decoder, netio::Frame& out) {
  for (;;) {
    switch (decoder.next(out)) {
      case netio::DecodeStatus::kFrame:
        return true;
      case netio::DecodeStatus::kMalformed:
        return false;
      case netio::DecodeStatus::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

// ---- modes ---------------------------------------------------------------

int run_query_client(const Options& opts) {
  const auto bytes = util::hex_decode(opts.query_hex);
  if (!bytes.has_value() ||
      (bytes->size() != 16 && bytes->size() != 32)) {
    std::fprintf(stderr,
                 "--query wants 32 or 64 hex digits (16- or 32-byte "
                 "fingerprint)\n");
    return 2;
  }
  const int fd = connect_tcp(opts.host, opts.port);
  if (fd < 0) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", opts.host.c_str(),
                 opts.port);
    return 1;
  }
  // Both requests ride one connection: the knowledge render, then the
  // revocation verdict. Exit codes stay distinct so scripts can branch:
  // 0 found, 3 not in the index, 2 bad hex, 1 transport/protocol failure.
  const std::string payload(bytes->begin(), bytes->end());
  netio::FrameDecoder decoder;
  netio::Frame response;
  const bool ok =
      send_all(fd, netio::encode_frame(netio::FrameType::kQuery, payload)) &&
      read_frame(fd, decoder, response);
  if (!ok) {
    ::close(fd);
    std::fprintf(stderr, "no response from %s:%u\n", opts.host.c_str(),
                 opts.port);
    return 1;
  }
  std::fputs(response.payload.c_str(), stdout);
  if (!response.payload.empty() && response.payload.back() != '\n') {
    std::fputc('\n', stdout);
  }
  if (response.type == netio::FrameType::kNotFound) {
    ::close(fd);
    return 3;
  }
  if (response.type != netio::FrameType::kCertInfo) {
    ::close(fd);
    return 1;
  }
  netio::Frame revocation;
  const bool rev_ok =
      send_all(fd, netio::encode_frame(netio::FrameType::kRevocationQuery,
                                       payload)) &&
      read_frame(fd, decoder, revocation);
  ::close(fd);
  if (!rev_ok) {
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

int run_bench(const Options& opts, notary::NotaryService& service,
              const scan::ScanArchive& archive) {
  netio::ServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;  // ephemeral: the bench is self-contained
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(config, [&service](netio::FrameType type,
                                             std::string_view payload,
                                             std::string& out) {
    service.handle_into(type, payload, out);
  });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }

  const auto& certs = archive.certs();
  if (certs.empty()) {
    std::fprintf(stderr, "empty corpus, nothing to query\n");
    return 1;
  }
  const std::size_t clients = opts.clients;
  const std::size_t batch = std::max<std::size_t>(opts.bench_batch, 1);
  // Round requests up so every client issues whole frames.
  const std::uint64_t frames_per_client =
      (opts.bench + clients * batch - 1) / (clients * batch);

  // Zipf(S) popularity over certificate ranks: one shared CDF, sampled
  // per client by binary search. Rank r (1-based) gets weight r^-S —
  // with S near 1 a few fingerprints dominate, which is what a notary
  // fronting real TLS clients would see (and what makes the LRU earn
  // its keep).
  std::vector<double> zipf_cdf;
  if (opts.bench_zipf > 0) {
    zipf_cdf.resize(certs.size());
    double total = 0;
    for (std::size_t r = 0; r < certs.size(); ++r) {
      total += std::pow(static_cast<double>(r + 1), -opts.bench_zipf);
      zipf_cdf[r] = total;
    }
    for (double& v : zipf_cdf) v /= total;
  }

  // Open-loop arrivals: each client sends on a fixed schedule regardless
  // of responses, so latency includes the queueing a closed loop hides
  // (coordinated omission). Latency is measured from the *scheduled*
  // send time.
  const std::uint64_t interval_ns =
      opts.bench_open_loop > 0
          ? static_cast<std::uint64_t>(1e9 * static_cast<double>(clients) /
                                       opts.bench_open_loop)
          : 0;

  std::atomic<std::uint64_t> failures{0};
  notary::LatencyHistogram latency;

  std::fprintf(
      stderr, "bench: %llu lookups over %zu connections (batch %zu%s%s)...\n",
      static_cast<unsigned long long>(frames_per_client * clients * batch),
      clients, batch, opts.bench_zipf > 0 ? ", zipf" : "",
      interval_ns > 0 ? ", open-loop" : "");
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const int fd = connect_tcp("127.0.0.1", server.port());
      if (fd < 0) {
        failures.fetch_add(frames_per_client * batch,
                           std::memory_order_relaxed);
        return;
      }
      netio::FrameDecoder decoder(32u << 20);  // batch responses are big
      netio::Frame response;
      std::mt19937_64 rng(0x5eed0000 + c);
      std::uniform_real_distribution<double> uniform(0.0, 1.0);
      std::vector<scan::CertFingerprint> fps(batch);
      std::uint64_t serial = 0;
      const auto pick = [&]() -> const scan::CertFingerprint& {
        std::size_t index;
        if (!zipf_cdf.empty()) {
          index = static_cast<std::size_t>(
              std::upper_bound(zipf_cdf.begin(), zipf_cdf.end(),
                               uniform(rng)) -
              zipf_cdf.begin());
          if (index >= certs.size()) index = certs.size() - 1;
        } else {
          index = (serial * clients + c) % certs.size();
        }
        ++serial;
        return certs[index].fingerprint;
      };
      for (std::uint64_t q = 0; q < frames_per_client; ++q) {
        std::string request;
        if (opts.bench_batch > 0) {
          for (std::size_t i = 0; i < batch; ++i) fps[i] = pick();
          request = netio::encode_frame(netio::FrameType::kBatchQuery,
                                        notary::encode_batch_query(fps));
        } else {
          const auto& fp = pick();
          request = netio::encode_frame(
              netio::FrameType::kQuery,
              std::string_view(reinterpret_cast<const char*>(fp.data()),
                               fp.size()));
        }
        auto t0 = std::chrono::steady_clock::now();
        if (interval_ns > 0) {
          t0 = begin + std::chrono::nanoseconds(q * interval_ns +
                                                c * interval_ns / clients);
          std::this_thread::sleep_until(t0);
        }
        const netio::FrameType want = opts.bench_batch > 0
                                          ? netio::FrameType::kBatchInfo
                                          : netio::FrameType::kCertInfo;
        if (!send_all(fd, request) || !read_frame(fd, decoder, response) ||
            response.type != want) {
          failures.fetch_add(batch, std::memory_order_relaxed);
          continue;
        }
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
      ::close(fd);
    });
  }
  for (auto& thread : threads) thread.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  const auto summary = latency.summarize();
  const std::uint64_t lookups_ok =
      summary.count * static_cast<std::uint64_t>(batch);
  std::printf("lookups:    %llu ok, %llu failed in %.3fs\n",
              static_cast<unsigned long long>(lookups_ok),
              static_cast<unsigned long long>(
                  failures.load(std::memory_order_relaxed)),
              seconds);
  std::printf("throughput: %.0f lookups/s, %.0f frames/s (%zu client "
              "connections, %zu workers)\n",
              static_cast<double>(lookups_ok) / seconds,
              static_cast<double>(summary.count) / seconds, clients,
              opts.threads == 0
                  ? static_cast<std::size_t>(
                        std::thread::hardware_concurrency())
                  : opts.threads);
  std::printf("rtt:        p50 %.1fus  p99 %.1fus  max %.1fus%s\n",
              summary.p50_us, summary.p99_us, summary.max_us,
              interval_ns > 0 ? "  (from scheduled send)" : "");

  // The server's own view, through the protocol like any client.
  const int fd = connect_tcp("127.0.0.1", server.port());
  if (fd >= 0) {
    netio::FrameDecoder decoder;
    netio::Frame response;
    if (send_all(fd, netio::encode_frame(netio::FrameType::kStats, "")) &&
        read_frame(fd, decoder, response)) {
      std::printf("\n%s", response.payload.c_str());
    }
    ::close(fd);
  }
  server.shutdown();
  return failures.load(std::memory_order_relaxed) == 0 ? 0 : 1;
}

// ---- live ingestion ------------------------------------------------------

// Builds the notary index over one published corpus epoch (no linking:
// the iterative linker is corpus-global, so live mode serves observation
// history without linked-device ids). The snapshot's sidecar maps —
// revocation statuses and injected full-corpus key-sharing degrees —
// ride into every epoch's index, not just the first.
std::shared_ptr<const notary::NotaryIndex> build_epoch_index(
    const corpus::LiveSnapshot& snap) {
  notary::NotaryIndexOptions options;
  if (snap.key_counts) options.key_counts = snap.key_counts.get();
  if (snap.statuses) options.revocation_statuses = snap.statuses.get();
  return std::make_shared<const notary::NotaryIndex>(*snap.spine, options);
}

// Moves the archive out of a loaded corpus (the routing history, when
// present, stays behind in `corpus.world` and remains borrowable).
scan::ScanArchive take_archive(tools::LoadedCorpus& corpus) {
  return corpus.world.has_value() ? std::move(corpus.world->archive)
                                  : std::move(corpus.archive);
}

// The --ingest poller: watches a directory for new .smar segments,
// appends each through the LiveCorpus, and publishes the fresh epoch to
// the service. Files are processed once, in name order — producers must
// write segments atomically (write elsewhere, rename into place).
void poll_ingest_dir(const Options& opts, corpus::LiveCorpus& live,
                     notary::NotaryService& service,
                     std::atomic<bool>& stop) {
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
      // learned with the segment (slice-sidecar binary format; the key
      // count section is unused here).
      corpus::RevocationStatusMap segment_statuses;
      const corpus::RevocationStatusMap* statuses_arg = nullptr;
      std::error_code rev_ec;
      const std::string rev_path = path + ".rev";
      if (std::filesystem::is_regular_file(rev_path, rev_ec)) {
        std::ifstream rev(rev_path, std::ios::binary);
        std::ostringstream bytes;
        bytes << rev.rdbuf();
        corpus::KeyCountMap unused_counts;
        std::string rev_error;
        if (rev && notary::parse_slice_sidecar(bytes.view(), unused_counts,
                                               segment_statuses, rev_error)) {
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
      service.publish(build_epoch_index(*snap), snap->delta);
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
  const corpus::RevocationStatusMap* statuses =
      corpus.world.has_value() && !corpus.world->revocation.statuses.empty()
          ? &corpus.world->revocation.statuses
          : nullptr;
  const auto write = [&](const scan::ScanArchive& archive,
                         const std::string& name) {
    const auto path = std::filesystem::path(opts.split_dir) / name;
    // Revocation sidecar first: the ingest poller keys on the .smar
    // appearing, so NAME.smar.rev must already be in place by then.
    if (statuses != nullptr) {
      corpus::RevocationStatusMap subset;
      for (const scan::CertRecord& cert : archive.certs()) {
        const auto it = statuses->find(cert.fingerprint);
        if (it != statuses->end()) subset.emplace(it->first, it->second);
      }
      if (!subset.empty()) {
        std::ofstream rev(path.string() + ".rev",
                          std::ios::binary | std::ios::trunc);
        const std::string blob =
            notary::serialize_slice_sidecar({}, subset);
        if (!rev.write(blob.data(),
                       static_cast<std::streamsize>(blob.size()))) {
          std::fprintf(stderr, "cannot write %s.rev\n", path.c_str());
          return false;
        }
      }
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

int run_ingest_server(const Options& opts, tools::LoadedCorpus corpus) {
  std::error_code ec;
  if (!std::filesystem::is_directory(opts.ingest_dir, ec)) {
    std::fprintf(stderr, "--ingest: %s is not a directory\n",
                 opts.ingest_dir.c_str());
    return 2;
  }
  const net::RoutingHistory* routing = corpus.routing();
  const auto begin = std::chrono::steady_clock::now();
  // Seed the revocation sidecar from the world when it carries one; the
  // .smar.rev segment sidecars update it epoch over epoch.
  corpus::RevocationStatusMap initial_statuses;
  if (corpus.world.has_value()) {
    initial_statuses = corpus.world->revocation.statuses;
  }
  corpus::LiveCorpus live(take_archive(corpus), routing, nullptr,
                          std::move(initial_statuses));
  const auto snap0 = live.snapshot();
  std::fprintf(stderr, "live corpus: epoch 0 over %zu scans, %zu "
               "certificates in %.2fs\n",
               snap0->spine->scan_count(), snap0->spine->cert_count(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count());

  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = opts.cache_mb << 20;
  notary::NotaryService service(build_epoch_index(*snap0), service_config);

  netio::ServerConfig config;
  config.bind_address = opts.bind_address;
  config.port = opts.port;
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(config, [&service](netio::FrameType type,
                                             std::string_view payload,
                                             std::string& out) {
    service.handle_into(type, payload, out);
  });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::fprintf(stderr,
               "sm_notaryd listening on %s:%u, ingesting %s every %dms\n",
               opts.bind_address.c_str(), server.port(),
               opts.ingest_dir.c_str(), opts.ingest_poll_ms);

  std::atomic<bool> stop{false};
  std::thread poller([&] { poll_ingest_dir(opts, live, service, stop); });
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "signal received, draining...\n");
  stop.store(true, std::memory_order_relaxed);
  poller.join();
  server.shutdown();
  std::fputs(service.render_stats().c_str(), stderr);
  std::fputs(service.render_snapshot_info().c_str(), stderr);
  return 0;
}

int run_ingest_bench(const Options& opts, tools::LoadedCorpus corpus) {
  const net::RoutingHistory* routing = corpus.routing();
  const scan::ScanArchive full = take_archive(corpus);
  const std::size_t segments = opts.ingest_bench;
  if (full.scans().size() < segments + 1) {
    std::fprintf(stderr,
                 "--ingest-bench %zu needs a corpus with more than %zu "
                 "scans (have %zu)\n",
                 segments, segments, full.scans().size());
    return 2;
  }
  const std::size_t base_scans = full.scans().size() - segments;

  // Serialize the held-out scans as standalone segments up front, so the
  // timed loop measures ingestion (parse + archive copy + spine extension
  // + index build + publish), not segment production.
  std::vector<std::string> segment_bytes;
  segment_bytes.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    std::ostringstream out;
    if (!scan::save_archive(
            corpus::extract_segment(full, base_scans + i, base_scans + i + 1),
            out)) {
      std::fprintf(stderr, "failed to serialize segment %zu\n", i);
      return 1;
    }
    segment_bytes.push_back(std::move(out).str());
  }

  corpus::LiveCorpus live(corpus::extract_segment(full, 0, base_scans),
                          routing, nullptr);
  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = opts.cache_mb << 20;
  notary::NotaryService service(build_epoch_index(*live.snapshot()),
                                service_config);

  netio::ServerConfig config;
  config.bind_address = "127.0.0.1";
  config.port = 0;  // ephemeral: the bench is self-contained
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(config, [&service](netio::FrameType type,
                                             std::string_view payload,
                                             std::string& out) {
    service.handle_into(type, payload, out);
  });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }

  // Query load for the whole run: every client walks the *full* corpus's
  // fingerprints, so lookups hit certs from both the base and the not-
  // yet-appended segments (kNotFound until their epoch lands).
  std::atomic<bool> done{false};
  std::atomic<bool> ingesting{false};
  std::atomic<std::uint64_t> failures{0};
  notary::LatencyHistogram overall;
  notary::LatencyHistogram during_ingest;
  std::vector<std::thread> clients;
  clients.reserve(opts.clients);
  for (std::size_t c = 0; c < opts.clients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_tcp("127.0.0.1", server.port());
      if (fd < 0) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      netio::FrameDecoder decoder;
      netio::Frame response;
      std::string payload(16, '\0');
      const auto& certs = full.certs();
      for (std::uint64_t q = c * 131;
           !done.load(std::memory_order_relaxed); ++q) {
        const auto& fp = certs[q % certs.size()].fingerprint;
        payload.assign(reinterpret_cast<const char*>(fp.data()), fp.size());
        const auto t0 = std::chrono::steady_clock::now();
        if (!send_all(fd, netio::encode_frame(netio::FrameType::kQuery,
                                              payload)) ||
            !read_frame(fd, decoder, response) ||
            (response.type != netio::FrameType::kCertInfo &&
             response.type != netio::FrameType::kNotFound)) {
          failures.fetch_add(1, std::memory_order_relaxed);
          break;
        }
        const auto nanos = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count());
        overall.record(nanos);
        if (ingesting.load(std::memory_order_relaxed)) {
          during_ingest.record(nanos);
        }
      }
      ::close(fd);
    });
  }

  std::fprintf(stderr,
               "ingest-bench: %zu base scans + %zu segments, %zu query "
               "connections\n",
               base_scans, segments, opts.clients);
  std::vector<double> swap_seconds;
  swap_seconds.reserve(segments);
  bool append_failed = false;
  for (std::size_t i = 0; i < segments; ++i) {
    // Let the query load run against the settled epoch between swaps.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    std::istringstream in(segment_bytes[i]);
    ingesting.store(true, std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    const corpus::AppendResult result = live.append_segment(in);
    if (!result.ok) {
      std::fprintf(stderr, "append %zu failed: %s\n", i,
                   result.error.c_str());
      append_failed = true;
      ingesting.store(false, std::memory_order_relaxed);
      break;
    }
    const auto snap = live.snapshot();
    service.publish(build_epoch_index(*snap), snap->delta);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    ingesting.store(false, std::memory_order_relaxed);
    swap_seconds.push_back(seconds);
    std::fprintf(stderr,
                 "  epoch %llu: +%zu certs, %zu changed, swap %.3fs\n",
                 static_cast<unsigned long long>(snap->epoch),
                 result.new_certs, result.delta_size, seconds);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  done.store(true, std::memory_order_relaxed);
  for (auto& thread : clients) thread.join();
  server.shutdown();

  double swap_total = 0;
  double swap_max = 0;
  for (const double s : swap_seconds) {
    swap_total += s;
    swap_max = std::max(swap_max, s);
  }
  const auto all = overall.summarize();
  const auto during = during_ingest.summarize();
  std::printf("segments:   %zu appended, final epoch %llu\n",
              swap_seconds.size(),
              static_cast<unsigned long long>(live.epochs_published()));
  if (!swap_seconds.empty()) {
    std::printf("swap:       mean %.3fs  max %.3fs\n",
                swap_total / static_cast<double>(swap_seconds.size()),
                swap_max);
  }
  std::printf("queries:    %llu total (%llu failed)\n",
              static_cast<unsigned long long>(all.count),
              static_cast<unsigned long long>(
                  failures.load(std::memory_order_relaxed)));
  std::printf("rtt:        p50 %.1fus  p99 %.1fus  max %.1fus\n",
              all.p50_us, all.p99_us, all.max_us);
  std::printf("rtt-during-ingest: %llu queries, p50 %.1fus  p99 %.1fus\n",
              static_cast<unsigned long long>(during.count), during.p50_us,
              during.p99_us);
  std::printf("\n%s%s", service.render_stats().c_str(),
              service.render_snapshot_info().c_str());
  return (!append_failed &&
          failures.load(std::memory_order_relaxed) == 0)
             ? 0
             : 1;
}

// --shard-prefix / --empty: a live, reshardable backend. The slice lives
// in a LiveCorpus (so kSliceBegin/Segment/Done merges and kSliceRetire
// publish fresh epochs) and a notary::ReshardHost intercepts the reshard
// control frames in front of the NotaryService.
int run_live_server(const Options& opts, tools::LoadedCorpus corpus) {
  const net::RoutingHistory* routing = corpus.routing();
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
    if (corpus.world.has_value()) {
      statuses = corpus.world->revocation.statuses;
    }
    initial =
        corpus::extract_prefix_slice(full, opts.shard_lo, opts.shard_hi);
    std::fprintf(stderr, "shard: prefix %u-%u, %zu of %zu certificates\n",
                 static_cast<unsigned>(opts.shard_lo),
                 static_cast<unsigned>(opts.shard_hi),
                 initial.certs().size(), full.certs().size());
  }

  const auto begin = std::chrono::steady_clock::now();
  corpus::LiveCorpus live(std::move(initial), routing, nullptr,
                          std::move(statuses), std::move(key_counts));
  const auto snap0 = live.snapshot();
  std::fprintf(stderr,
               "live corpus: epoch 0 over %zu scans, %zu certificates in "
               "%.2fs\n",
               snap0->spine->scan_count(), snap0->spine->cert_count(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count());

  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = opts.cache_mb << 20;
  notary::NotaryService service(build_epoch_index(*snap0), service_config);
  notary::ReshardHost reshard(live, service);

  if (opts.bench > 0) return run_bench(opts, service, *snap0->archive);

  netio::ServerConfig config;
  config.bind_address = opts.bind_address;
  config.port = opts.port;
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(
      config, [&service, &reshard](netio::FrameType type,
                                   std::string_view payload,
                                   std::string& out) {
        if (!reshard.handle(type, payload, out)) {
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
  std::fprintf(stderr,
               "sm_notaryd listening on %s:%u (%zu certificates, "
               "reshard-capable)\n",
               opts.bind_address.c_str(), server.port(),
               service.index().size());
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "signal received, draining...\n");
  server.shutdown();
  std::fputs(service.render_stats().c_str(), stderr);
  std::fputs(service.render_snapshot_info().c_str(), stderr);
  return 0;
}

// ---- probe client (--probe) ----------------------------------------------

bool parse_host_port(const std::string& text, std::string& host,
                     std::uint16_t& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str() + colon + 1, &end,
                                           10);
  if (*end != '\0' || value == 0 || value > 65535) return false;
  host = text.substr(0, colon);
  port = static_cast<std::uint16_t>(value);
  return true;
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
  std::string oracle_host;
  std::uint16_t oracle_port = 0;
  if (!opts.oracle.empty() &&
      !parse_host_port(opts.oracle, oracle_host, oracle_port)) {
    std::fprintf(stderr, "--oracle wants HOST:PORT, got \"%s\"\n",
                 opts.oracle.c_str());
    return 2;
  }

  const int fd = connect_tcp(opts.host, opts.port);
  if (fd < 0) {
    std::fprintf(stderr, "--probe: cannot connect to %s:%u\n",
                 opts.host.c_str(), opts.port);
    return 1;
  }
  int oracle_fd = -1;
  if (oracle_port != 0) {
    oracle_fd = connect_tcp(oracle_host, oracle_port);
    if (oracle_fd < 0) {
      std::fprintf(stderr, "--probe: cannot connect to oracle %s:%u\n",
                   oracle_host.c_str(), oracle_port);
      ::close(fd);
      return 1;
    }
  }

  netio::FrameDecoder decoder(32u << 20);
  netio::FrameDecoder oracle_decoder(32u << 20);
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
      if (!send_all(fd, netio::encode_frame(kind, payload)) ||
          !read_frame(fd, decoder, response)) {
        std::fprintf(stderr,
                     "--probe: transport failure on query %llu of %llu\n",
                     static_cast<unsigned long long>(sent),
                     static_cast<unsigned long long>(opts.probe * 2));
        ::close(fd);
        if (oracle_fd >= 0) ::close(oracle_fd);
        return 1;
      }
      if (response.type == netio::FrameType::kError) {
        std::fprintf(stderr, "--probe: query %llu answered kError: %s\n",
                     static_cast<unsigned long long>(sent),
                     response.payload.c_str());
        ::close(fd);
        if (oracle_fd >= 0) ::close(oracle_fd);
        return 1;
      }
      if (oracle_fd < 0) continue;
      if (!send_all(oracle_fd, netio::encode_frame(kind, payload)) ||
          !read_frame(oracle_fd, oracle_decoder, oracle_response)) {
        std::fprintf(stderr, "--probe: oracle transport failure\n");
        ::close(fd);
        ::close(oracle_fd);
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
  ::close(fd);
  if (oracle_fd >= 0) ::close(oracle_fd);
  std::printf("probe: %llu lookups, %llu mismatches%s\n",
              static_cast<unsigned long long>(sent),
              static_cast<unsigned long long>(mismatches),
              opts.oracle.empty() ? "" : " (oracle-checked)");
  return mismatches == 0 ? 0 : 1;
}

int run_server(const Options& opts, notary::NotaryService& service) {
  netio::ServerConfig config;
  config.bind_address = opts.bind_address;
  config.port = opts.port;
  config.workers = opts.threads;
  config.idle_timeout_ms = opts.idle_ms;
  netio::TcpServer server(config, [&service](netio::FrameType type,
                                             std::string_view payload,
                                             std::string& out) {
    service.handle_into(type, payload, out);
  });
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return 1;
  }
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::fprintf(stderr, "sm_notaryd listening on %s:%u (%zu certificates)\n",
               opts.bind_address.c_str(), server.port(),
               service.index().size());
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
  std::fputs(service.render_stats().c_str(), stderr);
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
  if ((!opts->ingest_dir.empty() || opts->ingest_bench > 0) && opts->link) {
    std::fprintf(stderr,
                 "--link is incompatible with live ingestion: the "
                 "iterative linker is corpus-global and cannot be "
                 "maintained incrementally\n");
    return 2;
  }
  if ((opts->has_shard || opts->empty_corpus) &&
      (opts->link || !opts->ingest_dir.empty() || opts->ingest_bench > 0 ||
       opts->split_count > 0)) {
    std::fprintf(stderr,
                 "--shard-prefix/--empty serve a live slice; they are "
                 "incompatible with --link, --ingest, --ingest-bench and "
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
  if (opts->ingest_bench > 0) {
    return run_ingest_bench(*opts, std::move(corpus));
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
  // --shard-prefix / --empty: the live, reshardable backend path (its
  // LiveCorpus carries the full-corpus key-sharing degrees and the
  // revocation statuses as sidecars).
  if (opts->has_shard || opts->empty_corpus) {
    return run_live_server(*opts, std::move(corpus));
  }
  const scan::ScanArchive& archive = corpus.archive_ref();

  // One columnar spine over the corpus: the linker (under --link) and the
  // notary index both consume it; nothing below re-derives observations.
  const auto spine_begin = std::chrono::steady_clock::now();
  corpus::CorpusOptions spine_options;
  spine_options.routing = corpus.routing();
  const corpus::CorpusIndex spine(archive, spine_options);
  std::fprintf(stderr, "corpus spine: %zu certificates, %zu observations "
               "in %.2fs\n",
               spine.cert_count(), spine.observation_count(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - spine_begin)
                   .count());

  std::vector<std::vector<scan::CertId>> device_groups;
  if (opts->link) {
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
  // simulated world; bundles and bare archives serve kUnknown). The map
  // is fingerprint-keyed, so a prefix slice picks up its subset for free.
  if (corpus.world.has_value() &&
      !corpus.world->revocation.statuses.empty()) {
    index_options.revocation_statuses = &corpus.world->revocation.statuses;
  }
  const notary::NotaryIndex index(spine, index_options);
  std::fprintf(stderr, "notary index: %zu certificates in %.2fs\n",
               index.size(),
               std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - begin)
                   .count());

  notary::NotaryServiceConfig service_config;
  service_config.cache_bytes = opts->cache_mb << 20;
  notary::NotaryService service(index, service_config);

  if (opts->bench > 0) return run_bench(*opts, service, archive);
  return run_server(*opts, service);
}
