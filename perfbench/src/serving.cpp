// The serving workloads: the §8 notary as deployed, driven over real
// loopback TCP from this process.
//
//   lookup  4 prefix-sliced backends behind the router; single kQuery /
//           kRevocationQuery frames, Zipf(1.1) popularity, warm cache;
//           closed loop.
//   bulk    the same deployment; kBatchQuery frames of 128 uniform
//           fingerprints (~10% unknown), cache far below the corpus;
//           closed loop.
//   ingest  one unsharded live notary; held-out scans are appended back
//           to back as SMAR segments while single queries arrive open
//           loop.
//
// Fixed sizes (stated, not tuned per run): backends run 2 server
// workers each, the router 4, the ingest notary 4. The client side uses
// one thread per connection: --threads connections (nproc by default)
// for bulk and ingest, half as many for lookup, whose 12 server workers
// would otherwise leave the figure to the scheduler.
//
// Every response is compared byte for byte with what an unsharded
// oracle NotaryService answered for the same request before timing
// started, and the servers' own counters must reconcile with what the
// generator sent.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "netio/frame.h"
#include "netio/server.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/router.h"
#include "notary/service.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "util/crc32.h"

namespace perfbench {
namespace {

using namespace sm;
using netio::FrameType;

constexpr std::size_t kShards = 4;
constexpr std::size_t kBackendWorkers = 2;
constexpr std::size_t kRouterWorkers = 4;
constexpr std::size_t kIngestWorkers = 4;
/// lookup: holds the Zipf head of every slice.
constexpr std::size_t kLookupCacheBytes = 8u << 20;
/// bulk: a small fraction of a slice's rendered corpus (~6 MB), so
/// uniform batch entries mostly miss.
constexpr std::size_t kBulkCacheBytes = 256u << 10;
constexpr std::size_t kIngestCacheBytes = 32u << 20;
/// ingest's open-loop arrival rate, about a tenth of what the notary
/// sustains closed loop on a 4-core machine.
constexpr double kIngestOpenRate = 8'000;
constexpr std::size_t kBatchEntries = 128;
constexpr double kUnknownFraction = 0.10;
constexpr double kRevocationFraction = 0.25;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kIngestSegments = 20;
/// Correlation-key salts: the same fingerprint travels client -> router
/// and router -> backend; each hop gets its own FIFO.
constexpr std::uint64_t kRouterHop = 0x5151'0000'0000'0001ull;
constexpr std::uint64_t kServiceHop = 0x7373'0000'0000'0002ull;

std::string_view fp_view(const scan::CertFingerprint& fp) {
  return {reinterpret_cast<const char*>(fp.data()), fp.size()};
}

std::string frame_bytes(const netio::Frame& frame) {
  return netio::encode_frame(frame.type, frame.payload);
}

simworld::WorldConfig serving_world(const Options& o) {
  simworld::WorldConfig config = o.tiny ? simworld::WorldConfig::tiny()
                                        : simworld::WorldConfig::paper();
  config.seed = o.seed;
  return config;
}

// ---------------------------------------------------------------------
// The corpus every deployment starts from: a simulated world whose
// archive is saved to SMAR bytes and loaded back, as a daemon loads it.

struct Corpus {
  simworld::WorldResult world;
  scan::ScanArchive archive;
  double world_cpu_s = 0;
  std::size_t archive_bytes = 0;
};

std::unique_ptr<Corpus> build_corpus(const Options& o) {
  auto c = std::make_unique<Corpus>();
  {
    ScopedSpan span("simworld.run");
    const double cpu0 = process_cpu_seconds();
    c->world = simworld::World(serving_world(o)).run();
    c->world_cpu_s = process_cpu_seconds() - cpu0;
  }
  std::string bytes;
  {
    ScopedSpan span("scan.archive_save");
    std::ostringstream out;
    if (!scan::save_archive(c->world.archive, out)) return nullptr;
    bytes = std::move(out).str();
  }
  {
    ScopedSpan span("scan.archive_load");
    std::istringstream in(bytes);
    auto loaded = scan::load_archive(in);
    if (!loaded) return nullptr;
    c->archive = std::move(*loaded);
  }
  c->archive_bytes = bytes.size();
  c->world.archive = scan::ScanArchive{};  // the loaded copy is served
  return c;
}

// ---------------------------------------------------------------------
// Server handlers. With tracing off they are the plain StreamHandler
// forwarding; with it on they time the call as a span parented on the
// context the previous hop left under the request's first fingerprint.

bool is_lookup(FrameType type) {
  return type == FrameType::kQuery || type == FrameType::kBatchQuery ||
         type == FrameType::kRevocationQuery;
}

bool is_batch(FrameType type, std::string_view payload) {
  return type == FrameType::kBatchQuery ||
         (type == FrameType::kRevocationQuery && payload.size() != 16 &&
          payload.size() != 32);
}

/// First fingerprint of a lookup payload; null when too short to hold one.
const char* first_fingerprint(FrameType type, std::string_view payload) {
  if (!is_batch(type, payload)) return payload.size() >= 16 ? payload.data() : nullptr;
  return payload.size() >= 20 ? payload.data() + 4 : nullptr;
}

void traced_service(notary::NotaryService& service, FrameType type,
                    std::string_view payload, std::string& out) {
  Tracer& tracer = Tracer::get();
  const char* first = tracer.enabled() && is_lookup(type)
                          ? first_fingerprint(type, payload)
                          : nullptr;
  if (first == nullptr) {
    service.handle_into(type, payload, out);
    return;
  }
  ScopedSpan span("notary.service.handle",
                  tracer.pop_context(fingerprint_key(first) ^ kServiceHop));
  service.handle_into(type, payload, out);
}

void traced_router(notary::RouterService& router, FrameType type,
                   std::string_view payload, std::string& out) {
  Tracer& tracer = Tracer::get();
  const char* first = tracer.enabled() && is_lookup(type)
                          ? first_fingerprint(type, payload)
                          : nullptr;
  if (first == nullptr) {
    router.handle_into(type, payload, out);
    return;
  }
  ScopedSpan span("notary.router.handle",
                  tracer.pop_context(fingerprint_key(first) ^ kRouterHop));
  if (is_batch(type, payload)) {
    // Each shard's sub-batch starts with the first entry routed to it.
    notary::BatchQueryView view;
    if (view.parse(payload)) {
      std::vector<bool> seen(router.shard_count());
      for (std::uint32_t i = 0; i < view.size(); ++i) {
        const scan::CertFingerprint fp = view.fingerprint(i);
        const std::size_t s = router.shard_of(fp[0]);
        if (s < seen.size() && !seen[s]) {
          seen[s] = true;
          tracer.push_context(
              fingerprint_key(reinterpret_cast<const char*>(fp.data())) ^ kServiceHop,
              span.context());
        }
      }
    }
  } else {
    tracer.push_context(fingerprint_key(first) ^ kServiceHop, span.context());
  }
  router.handle_into(type, payload, out);
}

std::unique_ptr<netio::TcpServer> start_server(
    std::size_t workers, netio::TcpServer::StreamHandler handler) {
  netio::ServerConfig config;
  config.workers = workers;
  auto server = std::make_unique<netio::TcpServer>(config, std::move(handler));
  std::string error;
  if (!server->start(&error)) {
    std::fprintf(stderr, "server start failed: %s\n", error.c_str());
    return nullptr;
  }
  return server;
}

// ---------------------------------------------------------------------
// The sharded deployment (lookup, bulk).

struct Backend {
  scan::ScanArchive slice;
  std::optional<corpus::CorpusIndex> spine;
  std::optional<notary::NotaryIndex> index;
  std::optional<notary::NotaryService> service;
  std::unique_ptr<netio::TcpServer> server;
};

struct Sharded {
  std::unique_ptr<Corpus> corpus;
  std::unordered_map<scan::KeyFingerprint, std::uint32_t> key_counts;
  std::array<Backend, kShards> backends;
  std::optional<notary::RouterService> router;
  std::unique_ptr<netio::TcpServer> router_server;

  std::uint16_t port() const { return router_server->port(); }
};

std::unique_ptr<Sharded> build_sharded(const Options& o,
                                       std::size_t cache_bytes) {
  auto d = std::make_unique<Sharded>();
  d->corpus = build_corpus(o);
  if (!d->corpus) return nullptr;
  const scan::ScanArchive& full = d->corpus->archive;
  for (const scan::CertRecord& cert : full.certs()) {
    ++d->key_counts[cert.key_fingerprint];
  }
  notary::RouterConfig router_config;
  for (std::size_t s = 0; s < kShards; ++s) {
    Backend& b = d->backends[s];
    const auto lo = static_cast<std::uint8_t>(s * 256 / kShards);
    const auto hi = static_cast<std::uint8_t>((s + 1) * 256 / kShards - 1);
    b.slice = corpus::extract_prefix_slice(full, lo, hi);
    {
      ScopedSpan span("corpus.spine_build");
      b.spine.emplace(b.slice,
                      corpus::CorpusOptions{&d->corpus->world.routing, nullptr});
    }
    {
      ScopedSpan span("notary.index.build");
      notary::NotaryIndexOptions options;
      options.key_counts = &d->key_counts;
      options.revocation_statuses = &d->corpus->world.revocation.statuses;
      b.index.emplace(*b.spine, options);
    }
    b.service.emplace(*b.index, notary::NotaryServiceConfig{cache_bytes});
    b.server = start_server(kBackendWorkers,
                            [&b](FrameType type, std::string_view payload,
                                 std::string& out) {
                              traced_service(*b.service, type, payload, out);
                            });
    if (!b.server) return nullptr;
    router_config.shards.push_back({{{"127.0.0.1", b.server->port()}}});
  }
  d->router.emplace(std::move(router_config));
  d->router_server = start_server(
      kRouterWorkers,
      [r = &*d->router](FrameType type, std::string_view payload,
                        std::string& out) {
        traced_router(*r, type, payload, out);
      });
  if (!d->router_server) return nullptr;
  return d;
}

/// The unsharded oracle: one index over the whole corpus, no cache.
struct Oracle {
  std::optional<corpus::CorpusIndex> spine;
  std::optional<notary::NotaryIndex> index;
  std::optional<notary::NotaryService> service;

  explicit Oracle(const Corpus& c) {
    spine.emplace(c.archive, corpus::CorpusOptions{&c.world.routing, nullptr});
    notary::NotaryIndexOptions options;
    options.revocation_statuses = &c.world.revocation.statuses;
    index.emplace(*spine, options);
    service.emplace(*index);
  }
};

// ---------------------------------------------------------------------
// The client side: one blocking connection per thread, one request in
// flight on it.

class Client {
 public:
  Client() : buf_(64 * 1024, '\0') {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connect(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval timeout{5, 0};  // a stuck server fails the request, not the run
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof timeout);
    return true;
  }

  /// Sends one request frame and reads one whole response frame (header,
  /// payload, CRC); the view stays valid until the next call.
  bool round_trip(std::string_view request, std::string_view& response) {
    while (!request.empty()) {
      const ssize_t n =
          ::send(fd_, request.data(), request.size(), MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      request.remove_prefix(static_cast<std::size_t>(n));
    }
    return read_frame(response);
  }

 private:
  bool read_frame(std::string_view& frame) {
    if (begin_ == end_) begin_ = end_ = 0;
    for (;;) {
      const std::size_t have = end_ - begin_;
      std::size_t need = netio::kFrameHeaderSize;
      if (have >= netio::kFrameHeaderSize) {
        const std::uint32_t len = netio::get_u32le(buf_.data() + begin_ + 1);
        if (len > (64u << 20)) return false;
        need = netio::kFrameHeaderSize + len + netio::kFrameTrailerSize;
        if (have >= need) {
          frame = {buf_.data() + begin_, need};
          begin_ += need;
          return true;
        }
      }
      if (begin_ + need > buf_.size()) {
        std::memmove(buf_.data(), buf_.data() + begin_, have);
        begin_ = 0;
        end_ = have;
        if (need > buf_.size()) buf_.resize(need);
      }
      const ssize_t n = ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      end_ += static_cast<std::size_t>(n);
    }
  }

  int fd_ = -1;
  std::string buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// What the generator sent, by frame type — reconciled against the
/// servers' own counters afterwards.
struct Sent {
  std::uint64_t queries = 0;
  std::uint64_t revocation_queries = 0;
  std::uint64_t batches = 0;
  std::uint64_t batch_entries = 0;
  std::uint64_t unknown_entries = 0;

  std::uint64_t frames() const { return queries + revocation_queries + batches; }
  void add(const Sent& o) {
    queries += o.queries;
    revocation_queries += o.revocation_queries;
    batches += o.batches;
    batch_entries += o.batch_entries;
    unknown_entries += o.unknown_entries;
  }
};

struct LoadStats {
  std::vector<Sample> samples;  ///< per frame
  std::vector<double> late_us;  ///< open loop: send time - scheduled time
  std::uint64_t lookups = 0;    ///< batch entries count one each
  std::uint64_t failed = 0;
  Sent sent;
  /// Closed loop: host steal ticks per window of samples.
  std::vector<std::uint64_t> window_steal;

  void add(const LoadStats& o) {
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    late_us.insert(late_us.end(), o.late_us.begin(), o.late_us.end());
    lookups += o.lookups;
    failed += o.failed;
    sent.add(o.sent);
  }
};

/// Sends request number `k` of connection `conn` and checks the answer;
/// adds to lookups/failed/sent.
using RequestFn = std::function<void(Client&, std::size_t conn, std::uint64_t k,
                                     LoadStats&)>;

std::uint64_t request_id(std::size_t conn, std::uint64_t k) {
  return (static_cast<std::uint64_t>(conn + 1) << 40) | k;
}

/// Runs `fn` once and records the sample, timed from `from_ns`.
void timed_request(const RequestFn& fn, Client& client, std::size_t c,
                   std::uint64_t k, std::int64_t from_ns, std::int64_t begin_ns,
                   LoadStats& s) {
  const std::uint64_t before = s.lookups;
  fn(client, c, k, s);
  const std::int64_t done = now_ns();
  s.samples.push_back({done - begin_ns, static_cast<double>(done - from_ns) * 1e-3,
                       static_cast<std::uint32_t>(s.lookups - before)});
}

LoadStats merge(const std::vector<LoadStats>& per) {
  LoadStats total;
  for (const LoadStats& s : per) total.add(s);
  return total;
}

/// Closed loop: each connection sends its next request when the previous
/// answer arrived, for `seconds`.
LoadStats run_closed(std::uint16_t port, std::size_t conns, double seconds,
                     const RequestFn& fn) {
  std::vector<LoadStats> per(conns);
  const std::int64_t begin = now_ns();
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  WindowSteal steal(begin);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      LoadStats& s = per[c];
      Client client;
      if (!client.connect(port)) {
        ++s.failed;
        return;
      }
      for (std::uint64_t k = 0;; ++k) {
        const std::int64_t t0 = now_ns();
        if (t0 >= end) break;
        timed_request(fn, client, c, k, t0, begin, s);
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadStats total = merge(per);
  total.window_steal = steal.stop();
  return total;
}

/// Open loop: request k of connection c is due at begin + (k + c/conns) *
/// conns/rate regardless of earlier answers; latency counts from the due
/// time, so a stall also charges the requests queued behind it. Runs for
/// `seconds`, or until `*stop` is set.
LoadStats run_open(std::uint16_t port, std::size_t conns, double rate,
                   double seconds, const RequestFn& fn,
                   const std::atomic<bool>* stop = nullptr) {
  std::vector<LoadStats> per(conns);
  const double interval_ns = 1e9 * static_cast<double>(conns) / rate;
  const std::int64_t begin = now_ns() + 1'000'000;
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);  // wake on schedule
      LoadStats& s = per[c];
      Client client;
      if (!client.connect(port)) {
        ++s.failed;
        return;
      }
      const double offset = interval_ns * static_cast<double>(c) /
                            static_cast<double>(conns);
      for (std::uint64_t k = 0;; ++k) {
        const std::int64_t due =
            begin + static_cast<std::int64_t>(offset + interval_ns *
                                                           static_cast<double>(k));
        if (due >= end || (stop && stop->load(std::memory_order_acquire))) break;
        std::int64_t now = now_ns();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = now_ns();
        }
        s.late_us.push_back(static_cast<double>(now - due) * 1e-3);
        timed_request(fn, client, c, k, due, begin, s);
      }
    });
  }
  for (auto& t : threads) t.join();
  return merge(per);
}

// ---------------------------------------------------------------------
// Request plans: generated from the seed and answered by the oracle
// before any timing starts.

/// One distinct single-fingerprint request and its expected frame.
struct Single {
  std::string request;
  std::string expected;
  bool revocation = false;
};

/// Sends one single request and checks the answer byte for byte.
void send_single(Client& client, const Single& q, LoadStats& s) {
  std::string_view response;
  const bool ok = client.round_trip(q.request, response) && response == q.expected;
  ++s.lookups;
  if (!ok) ++s.failed;
  ++(q.revocation ? s.sent.revocation_queries : s.sent.queries);
}

/// Zipf(s) ranks over `n` items: CDF for inverse-transform sampling.
std::vector<double> zipf_cdf(std::size_t n, double s) {
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t r = 0; r < n; ++r) {
    total += std::pow(static_cast<double>(r + 1), -s);
    cdf[r] = total;
  }
  for (double& v : cdf) v /= total;
  return cdf;
}

std::size_t zipf_draw(const std::vector<double>& cdf, std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
  const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                               cdf.size() - 1);
}

std::vector<std::size_t> shuffled(std::size_t n, std::mt19937_64& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  return order;
}

constexpr std::size_t kSequenceLength = 1u << 14;

/// lookup: per connection, a cycle of single requests over the corpus
/// with Zipf popularity; about a quarter are revocation queries.
struct LookupPlan {
  std::vector<Single> singles;
  std::vector<std::vector<std::uint32_t>> sequences;  ///< per connection
};

LookupPlan plan_lookup(const Options& o, const scan::ScanArchive& full,
                       notary::NotaryService& oracle, std::size_t conns) {
  LookupPlan plan;
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ull + 1);
  const std::vector<std::size_t> order = shuffled(full.certs().size(), rng);
  const std::vector<double> cdf = zipf_cdf(order.size(), kZipfExponent);
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  for (std::size_t c = 0; c < conns; ++c) {
    std::vector<std::uint32_t>& seq = plan.sequences.emplace_back();
    for (std::size_t k = 0; k < kSequenceLength; ++k) {
      const std::size_t cert = order[zipf_draw(cdf, rng)];
      const bool revocation =
          std::uniform_real_distribution<double>(0, 1)(rng) < kRevocationFraction;
      const std::uint64_t key = cert * 2 + (revocation ? 1 : 0);
      auto [it, fresh] = seen.emplace(key, plan.singles.size());
      if (fresh) {
        const FrameType type =
            revocation ? FrameType::kRevocationQuery : FrameType::kQuery;
        const std::string_view fp = fp_view(full.cert(cert).fingerprint);
        plan.singles.push_back({netio::encode_frame(type, fp),
                                frame_bytes(oracle.handle(type, fp)),
                                revocation});
      }
      seq.push_back(it->second);
    }
  }
  return plan;
}

/// bulk: per connection, a cycle of 128-entry batches drawn uniformly
/// from the corpus plus ~10% fingerprints the corpus does not hold.
struct BulkPlan {
  struct Batch {
    std::string request;
    std::vector<std::uint32_t> entries;  ///< into `expected`
    std::uint32_t unknown = 0;
  };
  /// Expected standalone kQuery answer per distinct fingerprint; a batch
  /// entry is its first 5 + length bytes (status, length, body).
  std::vector<std::string> expected;
  std::vector<Batch> batches;
  std::size_t batches_per_conn = 0;
};

BulkPlan plan_bulk(const Options& o, const scan::ScanArchive& full,
                   notary::NotaryService& oracle, std::size_t conns) {
  BulkPlan plan;
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ull + 2);
  const std::size_t n = full.certs().size();
  // Enough distinct batches that a connection's cycle outlives the cache.
  plan.batches_per_conn = std::max<std::size_t>(16, 2 * n / kBatchEntries / conns);
  std::vector<std::uint32_t> known(n, UINT32_MAX);
  for (std::size_t b = 0; b < plan.batches_per_conn * conns; ++b) {
    BulkPlan::Batch batch;
    std::vector<scan::CertFingerprint> fps;
    for (std::size_t i = 0; i < kBatchEntries; ++i) {
      scan::CertFingerprint fp;
      std::uint32_t slot;
      if (std::uniform_real_distribution<double>(0, 1)(rng) < kUnknownFraction) {
        scan::CertId ignored;
        do {
          for (auto& byte : fp) byte = static_cast<std::uint8_t>(rng());
        } while (full.find(fp, ignored));
        slot = static_cast<std::uint32_t>(plan.expected.size());
        plan.expected.push_back(
            frame_bytes(oracle.handle(FrameType::kQuery, fp_view(fp))));
        ++batch.unknown;
      } else {
        const std::size_t cert = rng() % n;
        fp = full.cert(cert).fingerprint;
        if (known[cert] == UINT32_MAX) {
          known[cert] = static_cast<std::uint32_t>(plan.expected.size());
          plan.expected.push_back(
              frame_bytes(oracle.handle(FrameType::kQuery, fp_view(fp))));
        }
        slot = known[cert];
      }
      fps.push_back(fp);
      batch.entries.push_back(slot);
    }
    batch.request = netio::encode_frame(FrameType::kBatchQuery,
                                        notary::encode_batch_query(fps));
    plan.batches.push_back(std::move(batch));
  }
  return plan;
}

/// Counts the entries of a kBatchInfo response frame that do not match.
std::uint64_t batch_mismatches(std::string_view frame, const BulkPlan::Batch& batch,
                               const std::vector<std::string>& expected) {
  const std::uint64_t all = batch.entries.size();
  if (frame.size() < netio::kFrameHeaderSize + netio::kFrameTrailerSize + 4 ||
      static_cast<FrameType>(frame[0]) != FrameType::kBatchInfo) {
    return all;
  }
  const std::size_t body = frame.size() - netio::kFrameTrailerSize;
  if (util::crc32(frame.data(), body) != netio::get_u32le(frame.data() + body) ||
      netio::get_u32le(frame.data() + netio::kFrameHeaderSize) != all) {
    return all;
  }
  std::uint64_t wrong = 0;
  std::size_t pos = netio::kFrameHeaderSize + 4;
  for (const std::uint32_t slot : batch.entries) {
    const std::string& want = expected[slot];
    const std::size_t len = netio::kFrameHeaderSize + netio::get_u32le(want.data() + 1);
    if (pos + len > body) return all;
    if (std::memcmp(frame.data() + pos, want.data(), len) != 0) ++wrong;
    pos += len;
  }
  return pos == body ? wrong : all;
}

// ---------------------------------------------------------------------
// Per-layer figures from the spans of the traced phase.

double union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  std::int64_t lo = 0, hi = 0;
  bool open = false;
  for (const auto& [s, e] : intervals) {
    if (open && s <= hi) {
      hi = std::max(hi, e);
      continue;
    }
    if (open) total += static_cast<double>(hi - lo);
    lo = s;
    hi = e;
    open = true;
  }
  if (open) total += static_cast<double>(hi - lo);
  return total;
}

/// Self times per request: the client's round trip minus the first hop's
/// handling (`front`), and that hop's handling minus the union of its
/// children (`hop`; empty when `leaf` is null).
void request_self_times(const std::vector<Span>& spans, const char* mid,
                        const char* leaf, std::vector<double>& front_us,
                        std::vector<double>& hop_us) {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  const auto child = [&](const Span& parent, const char* name) {
    std::vector<const Span*> out;
    const auto it = children.find(parent.id);
    if (it == children.end()) return out;
    for (const Span* s : it->second) {
      if (std::strcmp(s->name, name) == 0) out.push_back(s);
    }
    return out;
  };
  for (const Span& s : spans) {
    if (std::strcmp(s.name, "client.request") != 0) continue;
    const auto mids = child(s, mid);
    if (mids.size() != 1) continue;
    front_us.push_back(s.micros() - mids[0]->micros());
    if (leaf == nullptr) continue;
    std::vector<std::pair<std::int64_t, std::int64_t>> parts;
    for (const Span* l : child(*mids[0], leaf)) parts.emplace_back(l->start_ns, l->end_ns);
    if (parts.empty()) continue;
    hop_us.push_back((static_cast<double>(mids[0]->end_ns - mids[0]->start_ns) -
                      union_ns(std::move(parts))) *
                     1e-3);
  }
}

void set_setup_layers(Result& r, const std::vector<Span>& spans,
                      const Corpus& corpus) {
  r.set("simworld.run_s", median(span_durations(spans, "simworld.run", 1e-9)), "s");
  r.set("simworld.run_cpu_s", corpus.world_cpu_s, "s");
  r.set("pki.sig_checks", static_cast<double>(corpus.world.verify_stats.sig_checks),
        "count");
  r.set("pki.sig_memo_hits",
        static_cast<double>(corpus.world.verify_stats.sig_cache_hits), "count");
  r.set("scan.archive_save_s",
        median(span_durations(spans, "scan.archive_save", 1e-9)), "s");
  r.set("scan.archive_load_s",
        median(span_durations(spans, "scan.archive_load", 1e-9)), "s");
  r.set("scan.archive_mb", static_cast<double>(corpus.archive_bytes) / 1e6, "MB");
  r.set("scan.certs", static_cast<double>(corpus.archive.certs().size()), "count");
  r.set("scan.observations",
        static_cast<double>(corpus.archive.observation_count()), "count");
  double spine = 0;
  for (double s : span_durations(spans, "corpus.spine_build", 1e-9)) spine += s;
  r.set("corpus.spine_build_s", spine, "s");
}

void set_request_layers(Result& r, const std::vector<Span>& spans,
                        const char* mid, const char* leaf) {
  const auto router = span_durations(spans, "notary.router.handle", 1e-3);
  r.set("notary.router.handle_p50_us", median(router), "us");
  r.set("notary.router.handle_p99_us", quantile(router, 0.99), "us");
  const auto service = span_durations(spans, "notary.service.handle", 1e-3);
  r.set("notary.service.handle_p50_us", median(service), "us");
  r.set("notary.service.handle_p99_us", quantile(service, 0.99), "us");
  std::vector<double> front, hop;
  request_self_times(spans, mid, leaf, front, hop);
  r.set("netio.front_p50_us", median(front), "us");
  r.set("netio.hop_p50_us", median(hop), "us");
  r.set("trace.spans", static_cast<double>(spans.size()), "count");
}

void set_service_layers(Result& r, const std::vector<notary::NotaryMetricsSnapshot>& ms) {
  notary::NotaryMetricsSnapshot sum;
  for (const auto& m : ms) {
    sum.queries += m.queries;
    sum.revocation_queries += m.revocation_queries;
    sum.batch_entries += m.batch_entries;
    sum.not_found += m.not_found;
    sum.cache_hits += m.cache_hits;
    sum.cache_misses += m.cache_misses;
    sum.cache_invalidations += m.cache_invalidations;
  }
  r.set("notary.service.cache_hit_ratio", sum.cache_hit_rate(), "ratio");
  r.set("notary.service.queries", static_cast<double>(sum.queries), "count");
  r.set("notary.service.revocation_queries",
        static_cast<double>(sum.revocation_queries), "count");
  r.set("notary.service.batch_entries", static_cast<double>(sum.batch_entries),
        "count");
  r.set("notary.service.not_found", static_cast<double>(sum.not_found), "count");
  r.set("notary.service.cache_invalidations",
        static_cast<double>(sum.cache_invalidations), "count");
}

void set_server_layers(Result& r, const std::vector<netio::ServerCounters>& cs) {
  double frames = 0, syscalls = 0;
  for (const auto& c : cs) {
    frames += static_cast<double>(c.frames_handled);
    syscalls += static_cast<double>(c.send_syscalls);
  }
  r.set("netio.server_frames", frames, "count");
  r.set("netio.send_syscalls_per_frame", frames > 0 ? syscalls / frames : 0, "ratio");
}

void check_equal(Result& r, const char* what, std::uint64_t got,
                 std::uint64_t want) {
  if (got == want) return;
  std::printf("traffic mix: %s = %llu, generator sent %llu\n", what,
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want));
  r.inconsistent(what);
}

void count_load(Result& r, const LoadStats& s) {
  r.attempted += s.lookups;
  r.failed += s.failed;
}

/// Runs the set-up `kSetupRepetitions` times and keeps the last
/// deployment. `build` returns null on failure; `after_build` runs with
/// the clock paused on the first repetition only (oracle, plans), and
/// `warm` runs on the clock (cache warm-up) for every repetition. Sets
/// setup_s and peak_rss_mb, the median over repetitions of the time and
/// of the high-water RSS from the start of the build to the end of the
/// warm-up: the timed phase adds only the benchmark's own samples.
template <typename Deployment>
std::unique_ptr<Deployment> repeated_setup(
    const Options& o, Result& r,
    const std::function<std::unique_ptr<Deployment>()>& build,
    const std::function<void(Deployment&)>& after_build,
    const std::function<void(Deployment&)>& warm) {
  std::vector<double> times, rss;
  std::unique_ptr<Deployment> d;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    d.reset();
    const bool last = rep + 1 == kSetupRepetitions;
    reset_peak_rss();
    Stopwatch clock;
    Tracer::get().set_enabled(o.trace && last);
    d = build();
    Tracer::get().set_enabled(false);
    if (!d) return nullptr;
    clock.pause();
    if (rep == 0) after_build(*d);
    clock.resume();
    warm(*d);
    times.push_back(clock.seconds());
    rss.push_back(peak_rss_mb());
  }
  r.set("setup_s", median(times), "s");
  r.set("peak_rss_mb", median(rss), "MB");
  print_samples("setup s", times);
  return d;
}

Result run_sharded(const Options& o, bool bulk) {
  Result r;
  const std::size_t conns = bulk ? o.threads : std::max<std::size_t>(1, o.threads / 2);
  std::optional<LookupPlan> lookup;
  std::optional<BulkPlan> batches;
  Sent warm_sent;

  const RequestFn single_fn = [&](Client& client, std::size_t c, std::uint64_t k,
                                  LoadStats& s) {
    const auto& seq = lookup->sequences[c];
    const Single& q = lookup->singles[seq[k % seq.size()]];
    ScopedSpan span("client.request", {request_id(c, k), 0});
    if (span.active()) {
      Tracer::get().push_context(
          fingerprint_key(q.request.data() + netio::kFrameHeaderSize) ^ kRouterHop,
          span.context());
    }
    send_single(client, q, s);
  };
  const RequestFn batch_fn = [&](Client& client, std::size_t c, std::uint64_t k,
                                 LoadStats& s) {
    const BulkPlan::Batch& b =
        batches->batches[c * batches->batches_per_conn + k % batches->batches_per_conn];
    ScopedSpan span("client.request", {request_id(c, k), 0});
    if (span.active()) {
      Tracer::get().push_context(
          fingerprint_key(b.request.data() + netio::kFrameHeaderSize + 4) ^ kRouterHop,
          span.context());
    }
    std::string_view response;
    const std::uint64_t wrong = client.round_trip(b.request, response)
                                    ? batch_mismatches(response, b, batches->expected)
                                    : b.entries.size();
    s.lookups += b.entries.size();
    s.failed += wrong;
    ++s.sent.batches;
    s.sent.batch_entries += b.entries.size();
    s.sent.unknown_entries += b.unknown;
  };

  auto d = repeated_setup<Sharded>(
      o, r,
      [&] { return build_sharded(o, bulk ? kBulkCacheBytes : kLookupCacheBytes); },
      [&](Sharded& d) {
        Oracle oracle(*d.corpus);
        if (bulk) {
          batches = plan_bulk(o, d.corpus->archive, *oracle.service, conns);
        } else {
          lookup = plan_lookup(o, d.corpus->archive, *oracle.service, conns);
        }
      },
      [&](Sharded& d) {
        // Warm-up, checked like the rest: every distinct single once
        // (fills the cache), or eight batches on one connection.
        Client client;
        LoadStats s;
        if (!client.connect(d.port())) {
          ++s.failed;
        } else if (bulk) {
          for (std::uint64_t k = 0; k < 8; ++k) batch_fn(client, 0, k, s);
        } else {
          for (const Single& q : lookup->singles) send_single(client, q, s);
        }
        count_load(r, s);
        warm_sent = s.sent;  // counters restart with each deployment
      });
  if (!d) {
    std::printf("set-up failed\n");
    r.inconsistent("set-up");
    r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    return r;
  }
  const std::vector<Span> setup_spans = Tracer::get().collect();
  Tracer::get().clear();
  std::printf("deployment: %zu certs over %zu shards; %s\n",
              d->corpus->archive.certs().size(), kShards,
              bulk ? "kBatchQuery x128, cache 256 KiB/backend"
                   : "kQuery/kRevocationQuery, Zipf(1.1), cache 8 MiB/backend");

  Sent sent = warm_sent;
  const RequestFn& fn = bulk ? batch_fn : single_fn;
  // One measurement: a closed loop on every connection. Its latency is
  // the round trip at capacity; an open loop at a fixed rate gave a p99
  // that moved with the host's wake-up latency from run to run.
  const auto measure = [&](double seconds) {
    LoadStats load = run_closed(d->port(), conns, seconds, fn);
    count_load(r, load);
    sent.add(load.sent);
    return load;
  };
  const LoadStats untraced = measure(o.trace ? o.seconds / 2 : o.seconds);
  const std::vector<std::uint64_t>& steal = untraced.window_steal;
  r.set("ops_per_s", windowed_rate(untraced.samples, steal), "1/s");
  r.set("lookups_per_s", windowed_rate(untraced.samples, steal), "1/s");
  r.set("latency_p50_us", windowed_latency(untraced.samples, steal, 0.5), "us");
  r.set("latency_p99_us", windowed_latency(untraced.samples, steal, 0.99), "us");
  r.set("latency_samples", static_cast<double>(untraced.samples.size()), "count");
  print_latency("closed loop", untraced.samples);
  print_steal("window", steal);

  std::vector<Span> spans;
  if (o.trace) {
    Tracer::get().set_enabled(true);
    const LoadStats traced = measure(o.seconds / 2);
    Tracer::get().set_enabled(false);
    spans = Tracer::get().collect();
    r.set("trace.overhead_pct",
          (windowed_rate(untraced.samples, steal) /
               windowed_rate(traced.samples, traced.window_steal) -
           1) * 100,
          "%");
  }

  // Reconcile the servers' own counters with what was sent; read them
  // after shutdown, when they are exact.
  std::vector<netio::ServerCounters> counters;
  d->router_server->shutdown();
  counters.push_back(d->router_server->counters());
  std::vector<notary::NotaryMetricsSnapshot> metrics;
  std::uint64_t backend_frames = 0, backend_requests = 0, sub_batches = 0,
                queries = 0, revocations = 0, entries = 0, not_found = 0;
  for (Backend& b : d->backends) {
    b.server->shutdown();
    counters.push_back(b.server->counters());
    const notary::NotaryMetricsSnapshot& m = metrics.emplace_back(b.service->metrics());
    backend_frames += counters.back().frames_handled;
    backend_requests += m.requests;
    sub_batches += m.batch_queries;
    queries += m.queries;
    revocations += m.revocation_queries;
    entries += m.batch_entries;
    not_found += m.not_found;
  }
  netio::BackendCounters pool;
  for (std::size_t b = 0; b < kShards; ++b) {
    const netio::BackendCounters c = d->router->pool().counters(b);
    pool.requests += c.requests;
    pool.timeouts += c.timeouts;
    pool.reconnects += c.reconnects;
  }
  check_equal(r, "router frames", counters[0].frames_handled, sent.frames());
  check_equal(r, "backend kQuery", queries, sent.queries);
  check_equal(r, "backend kRevocationQuery", revocations, sent.revocation_queries);
  check_equal(r, "backend batch entries", entries, sent.batch_entries);
  check_equal(r, "backend not-found", not_found, sent.unknown_entries);
  check_equal(r, "backend frames vs service requests", backend_frames,
              backend_requests);
  check_equal(r, "pool requests vs backend lookups", pool.requests,
              queries + revocations + sub_batches);

  if (o.trace) {
    set_setup_layers(r, setup_spans, *d->corpus);
    r.set("notary.index.build_p50_ms",
          median(span_durations(setup_spans, "notary.index.build", 1e-6)), "ms");
    set_request_layers(r, spans, "notary.router.handle", "notary.service.handle");
    set_service_layers(r, metrics);
    set_server_layers(r, counters);
    r.set("notary.router.sub_batches_per_batch",
          sent.batches ? static_cast<double>(sub_batches) / static_cast<double>(sent.batches)
                       : 0.0,
          "count");
    r.set("netio.client_pool.requests", static_cast<double>(pool.requests), "count");
    r.set("netio.client_pool.timeouts", static_cast<double>(pool.timeouts), "count");
    r.set("netio.client_pool.reconnects", static_cast<double>(pool.reconnects), "count");
    if (!o.trace_out.empty()) {
      // The request spans are what gets written; keep the set-up ones too.
      for (const Span& s : setup_spans) Tracer::get().record(s);
    }
  }
  return r;
}

// ---------------------------------------------------------------------
// ingest
//
// One ingest cycle is a fresh live notary over the base corpus that
// appends every held-out segment back to back while the query load runs
// open loop; the load stops with the last publish. Cycles repeat for the
// run time, so reads are always measured under a steady write load, and
// latency and throughput are taken per cycle, then the median over
// cycles.

/// What every cycle starts from.
struct LiveInputs {
  std::unique_ptr<Corpus> corpus;
  scan::ScanArchive base;
  std::vector<std::string> segments;  ///< SMAR bytes, one held-out scan each
};

/// One live notary: the sm_notaryd --ingest shape.
struct LiveServer {
  std::optional<corpus::LiveCorpus> live;
  std::optional<notary::NotaryService> service;
  std::unique_ptr<netio::TcpServer> server;
  /// Segments whose publish has started / finished: a response may come
  /// from any epoch between the two bounds read around its round trip.
  std::atomic<std::uint64_t> publishing{0};
  std::atomic<std::uint64_t> published{0};
};

struct Live {
  LiveInputs inputs;
  std::unique_ptr<LiveServer> server;
};

std::shared_ptr<const notary::NotaryIndex> index_of(const corpus::LiveSnapshot& snap) {
  notary::NotaryIndexOptions options;
  if (snap.statuses) options.revocation_statuses = snap.statuses.get();
  if (snap.key_counts) options.key_counts = snap.key_counts.get();
  return std::make_shared<const notary::NotaryIndex>(*snap.spine, options);
}

std::unique_ptr<LiveServer> start_live(const LiveInputs& in) {
  auto d = std::make_unique<LiveServer>();
  {
    ScopedSpan span("corpus.spine_build");
    d->live.emplace(in.base, &in.corpus->world.routing, nullptr,
                    in.corpus->world.revocation.statuses);
  }
  std::shared_ptr<const notary::NotaryIndex> index;
  {
    ScopedSpan span("notary.index.build");
    index = index_of(*d->live->snapshot());
  }
  d->service.emplace(std::move(index), notary::NotaryServiceConfig{kIngestCacheBytes});
  d->server = start_server(kIngestWorkers,
                           [s = &*d->service](FrameType type, std::string_view payload,
                                              std::string& out) {
                             traced_service(*s, type, payload, out);
                           });
  if (!d->server) return nullptr;
  return d;
}

std::unique_ptr<Live> build_live(const Options& o) {
  auto d = std::make_unique<Live>();
  d->inputs.corpus = build_corpus(o);
  if (!d->inputs.corpus) return nullptr;
  const scan::ScanArchive& full = d->inputs.corpus->archive;
  const std::size_t total = full.scans().size();
  const std::size_t k = std::min(kIngestSegments, total / 2);
  for (std::size_t i = total - k; i < total; ++i) {
    std::ostringstream bytes;
    if (!scan::save_archive(corpus::extract_segment(full, i, i + 1), bytes)) return nullptr;
    d->inputs.segments.push_back(std::move(bytes).str());
  }
  d->inputs.base = corpus::extract_segment(full, 0, total - k);
  d->server = start_live(d->inputs);
  if (!d->server) return nullptr;
  return d;
}

/// ingest: a pool of certificates of the final corpus (some only arrive
/// with a held-out segment), queried with Zipf popularity; expected
/// answers for every epoch come from an oracle that replays the same
/// appends.
struct IngestPlan {
  struct Key {
    std::string request;
    bool revocation = false;
    std::vector<std::string> versions;      ///< distinct expected frames
    std::vector<std::uint8_t> at_epoch;     ///< epoch -> index into versions
  };
  std::vector<Key> keys;
  std::vector<std::vector<std::uint32_t>> sequences;  ///< per connection
};

constexpr std::size_t kIngestPool = 4096;

IngestPlan plan_ingest(const Options& o, const LiveInputs& in, std::size_t conns) {
  IngestPlan plan;
  const scan::ScanArchive& full = in.corpus->archive;
  std::mt19937_64 rng(o.seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<std::size_t> order = shuffled(full.certs().size(), rng);
  order.resize(std::min(order.size(), kIngestPool));
  const std::vector<double> cdf = zipf_cdf(order.size(), kZipfExponent);
  std::unordered_map<std::uint64_t, std::uint32_t> seen;
  for (std::size_t c = 0; c < conns; ++c) {
    auto& seq = plan.sequences.emplace_back();
    for (std::size_t k = 0; k < kSequenceLength; ++k) {
      const std::size_t cert = order[zipf_draw(cdf, rng)];
      const bool revocation =
          std::uniform_real_distribution<double>(0, 1)(rng) < kRevocationFraction;
      auto [it, fresh] = seen.emplace(cert * 2 + (revocation ? 1 : 0), plan.keys.size());
      if (fresh) {
        IngestPlan::Key key;
        key.revocation = revocation;
        key.request = netio::encode_frame(
            revocation ? FrameType::kRevocationQuery : FrameType::kQuery,
            fp_view(full.cert(cert).fingerprint));
        plan.keys.push_back(std::move(key));
      }
      seq.push_back(it->second);
    }
  }
  // The oracle: the same base and segments through a second LiveCorpus,
  // answered by an uncached NotaryService at every epoch.
  corpus::LiveCorpus oracle_live(in.base, &in.corpus->world.routing, nullptr,
                                 in.corpus->world.revocation.statuses);
  notary::NotaryService oracle(index_of(*oracle_live.snapshot()));
  for (std::size_t epoch = 0; epoch <= in.segments.size(); ++epoch) {
    if (epoch > 0) {
      std::istringstream bytes(in.segments[epoch - 1]);
      if (!oracle_live.append_segment(bytes).ok) break;  // every answer then fails
      const auto snap = oracle_live.snapshot();
      oracle.publish(index_of(*snap), snap->delta);
    }
    for (IngestPlan::Key& key : plan.keys) {
      const std::string_view payload =
          std::string_view(key.request).substr(netio::kFrameHeaderSize, 16);
      std::string want = frame_bytes(oracle.handle(
          key.revocation ? FrameType::kRevocationQuery : FrameType::kQuery, payload));
      if (key.versions.empty() || key.versions.back() != want) {
        key.versions.push_back(std::move(want));
      }
      key.at_epoch.push_back(static_cast<std::uint8_t>(key.versions.size() - 1));
    }
  }
  return plan;
}

/// One cycle's figures.
struct Cycle {
  LoadStats load;
  std::vector<double> publish_ms, append_ms, build_ms, swap_us;
  std::uint64_t delta_certs = 0;
  std::uint64_t observations = 0;  ///< appended by the published segments
  std::uint64_t failed_appends = 0;
  double peak_rss_mb = 0;
  std::uint64_t steal_ticks = 0;  ///< host steal over the cycle

  double observations_per_s() const {
    double seconds = 0;
    for (double ms : publish_ms) seconds += ms * 1e-3;
    return seconds > 0 ? static_cast<double>(observations) / seconds : 0;
  }
};

/// Appends every segment back to back while the query load runs open
/// loop, stopping the load after the last publish.
Cycle ingest_cycle(const LiveInputs& in, LiveServer& d, std::size_t conns,
                   const RequestFn& fn) {
  Cycle p;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::size_t i = 0; i < in.segments.size(); ++i) {
      d.publishing.store(i + 1, std::memory_order_release);
      const std::int64_t t0 = now_ns();
      corpus::AppendResult appended;
      {
        ScopedSpan span("corpus.live.append");
        std::istringstream bytes(in.segments[i]);
        appended = d.live->append_segment(bytes);
      }
      const std::int64_t t1 = now_ns();
      if (!appended.ok) {
        std::printf("append %zu failed: %s\n", i, appended.error.c_str());
        ++p.failed_appends;
        continue;
      }
      const auto snap = d.live->snapshot();
      std::shared_ptr<const notary::NotaryIndex> index;
      {
        ScopedSpan span("notary.index.build");
        index = index_of(*snap);
      }
      const std::int64_t t2 = now_ns();
      {
        ScopedSpan span("notary.service.publish");
        d.service->publish(std::move(index), snap->delta);
      }
      const std::int64_t t3 = now_ns();
      d.published.store(i + 1, std::memory_order_release);
      p.append_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      p.build_ms.push_back(static_cast<double>(t2 - t1) * 1e-6);
      p.swap_us.push_back(static_cast<double>(t3 - t2) * 1e-3);
      p.publish_ms.push_back(static_cast<double>(t3 - t0) * 1e-6);
      p.delta_certs += snap->delta.size();
      p.observations += appended.observations;
    }
    done.store(true, std::memory_order_release);
  });
  p.load = run_open(d.server->port(), conns, kIngestOpenRate, 120, fn, &done);
  writer.join();
  return p;
}

std::vector<bool> quiet_cycles(const std::vector<Cycle>& cycles) {
  std::vector<std::uint64_t> steal;
  for (const Cycle& c : cycles) steal.push_back(c.steal_ticks);
  return quiet_intervals(steal, cycles.size());
}

/// Median over the quiet cycles of a per-cycle figure.
template <typename F>
double per_cycle_median(const std::vector<Cycle>& cycles, F figure) {
  const std::vector<bool> quiet = quiet_cycles(cycles);
  std::vector<double> values;
  for (std::size_t i = 0; i < cycles.size(); ++i) {
    if (quiet[i]) values.push_back(figure(cycles[i]));
  }
  return median(values);
}

double cycle_latency(const Cycle& c, double q) {
  std::vector<double> us;
  for (const Sample& s : c.load.samples) us.push_back(s.latency_us);
  return quantile(us, q);
}

}  // namespace

Result run_lookup(const Options& o) { return run_sharded(o, false); }
Result run_bulk(const Options& o) { return run_sharded(o, true); }

Result run_ingest(const Options& o) {
  Result r;
  const std::size_t conns = o.threads;
  std::optional<IngestPlan> plan;
  LiveServer* current = nullptr;

  // Sends one key and checks the answer against every epoch the
  // response could have come from.
  const auto check = [&](Client& client, const IngestPlan::Key& key, LoadStats& s) {
    const std::uint64_t lo = current->published.load(std::memory_order_acquire);
    std::string_view response;
    bool ok = client.round_trip(key.request, response);
    const std::uint64_t hi = current->publishing.load(std::memory_order_acquire);
    if (ok) {
      ok = false;
      for (std::uint64_t e = lo; e <= hi && e < key.at_epoch.size(); ++e) {
        if (response == key.versions[key.at_epoch[e]]) {
          ok = true;
          break;
        }
      }
    }
    ++s.lookups;
    if (!ok) ++s.failed;
    ++(key.revocation ? s.sent.revocation_queries : s.sent.queries);
  };
  const RequestFn fn = [&](Client& client, std::size_t c, std::uint64_t k,
                           LoadStats& s) {
    const auto& seq = plan->sequences[c];
    const IngestPlan::Key& key = plan->keys[seq[k % seq.size()]];
    ScopedSpan span("client.request", {request_id(c, k), 0});
    if (span.active()) {
      Tracer::get().push_context(
          fingerprint_key(key.request.data() + netio::kFrameHeaderSize) ^ kServiceHop,
          span.context());
    }
    check(client, key, s);
  };
  // Every distinct key once at epoch 0: fills the cache, checked.
  Sent sent;  // to the current server
  const auto warm = [&](LiveServer& d) {
    current = &d;
    Client client;
    LoadStats s;
    if (!client.connect(d.server->port())) {
      ++s.failed;
    } else {
      for (const IngestPlan::Key& key : plan->keys) check(client, key, s);
    }
    count_load(r, s);
    sent = s.sent;
  };
  // Shuts the server down and reconciles its counters with what it was sent.
  std::vector<notary::NotaryMetricsSnapshot> metrics;
  std::vector<netio::ServerCounters> counters;
  const auto retire = [&](LiveServer& d) {
    d.server->shutdown();
    counters.push_back(d.server->counters());
    metrics.push_back(d.service->metrics());
    check_equal(r, "server frames", counters.back().frames_handled, sent.frames());
    check_equal(r, "service kQuery", metrics.back().queries, sent.queries);
    check_equal(r, "service kRevocationQuery", metrics.back().revocation_queries,
                sent.revocation_queries);
    check_equal(r, "service epoch", metrics.back().epoch, d.published.load());
  };

  auto d = repeated_setup<Live>(
      o, r, [&] { return build_live(o); },
      [&](Live& d) {
        // A set-up repetition's warm-up needs the plan: keys with no
        // answer yet would check against nothing.
        plan = plan_ingest(o, d.inputs, conns);
      },
      [&](Live& d) { warm(*d.server); });
  if (!d) {
    std::printf("set-up failed\n");
    r.inconsistent("set-up");
    r.attempted = std::max<std::uint64_t>(r.attempted, 1);
    return r;
  }
  const std::vector<Span> setup_spans = Tracer::get().collect();
  Tracer::get().clear();
  std::printf("live notary: %zu certs at epoch 0, %zu segments held out, "
              "%zu query keys\n",
              d->server->service->index().size(), d->inputs.segments.size(),
              plan->keys.size());

  // Cycles for `seconds`: the first reuses the set-up's server, each
  // later one starts a fresh server over the base (off the clock).
  const auto run_cycles = [&](double seconds) {
    std::vector<Cycle> cycles;
    const std::int64_t begin = now_ns();
    while (cycles.empty() || seconds_since(begin) < seconds) {
      if (!d->server) {
        d->server = start_live(d->inputs);
        if (!d->server) {
          r.inconsistent("restart");
          break;
        }
        warm(*d->server);
      }
      reset_peak_rss();
      const std::uint64_t steal0 = host_steal_ticks();
      Cycle cycle = ingest_cycle(d->inputs, *d->server, conns, fn);
      cycle.steal_ticks = host_steal_ticks() - steal0;
      cycle.peak_rss_mb = peak_rss_mb();
      count_load(r, cycle.load);
      sent.add(cycle.load.sent);
      r.attempted += cycle.publish_ms.size() + cycle.failed_appends;
      r.failed += cycle.failed_appends;
      retire(*d->server);
      d->server.reset();
      cycles.push_back(std::move(cycle));
    }
    return cycles;
  };

  const std::vector<Cycle> untraced = run_cycles(o.trace ? o.seconds / 2 : o.seconds);
  // The first cycle runs on the set-up's notary, as a daemon would; later
  // cycles restart it, and heap fragmentation from the restarts raises
  // their peaks cycle after cycle.
  r.set("peak_rss_mb", untraced.front().peak_rss_mb, "MB");
  std::vector<double> publish_ms;
  std::vector<std::uint64_t> cycle_steal;
  const std::vector<bool> quiet = quiet_cycles(untraced);
  for (std::size_t i = 0; i < untraced.size(); ++i) {
    const Cycle& c = untraced[i];
    cycle_steal.push_back(c.steal_ticks);
    if (!quiet[i]) continue;
    publish_ms.insert(publish_ms.end(), c.publish_ms.begin(), c.publish_ms.end());
  }
  r.set("ops_per_s", per_cycle_median(untraced, [](const Cycle& c) {
          return c.observations_per_s();
        }), "1/s");
  r.set("publish_p50_ms", median(publish_ms), "ms");
  r.set("latency_p50_us",
        per_cycle_median(untraced, [](const Cycle& c) { return cycle_latency(c, 0.5); }),
        "us");
  r.set("latency_p99_us",
        per_cycle_median(untraced, [](const Cycle& c) { return cycle_latency(c, 0.99); }),
        "us");
  LoadStats all;
  for (const Cycle& c : untraced) all.add(c.load);
  r.set("latency_samples", static_cast<double>(all.samples.size()), "count");
  r.set("cycles", static_cast<double>(untraced.size()), "count");
  r.set("open_loop_rate", kIngestOpenRate, "1/s");
  r.set("loadgen.late_p99_us", quantile(all.late_us, 0.99), "us");
  print_latency("open loop", all.samples);
  print_samples("publish ms", publish_ms);
  print_steal("cycle", cycle_steal);

  if (o.trace) {
    Tracer::get().set_enabled(true);
    const std::vector<Cycle> traced = run_cycles(o.seconds / 2);
    Tracer::get().set_enabled(false);
    const std::vector<Span> spans = Tracer::get().collect();
    const auto p50 = [](const Cycle& c) { return cycle_latency(c, 0.5); };
    r.set("trace.overhead_pct",
          (per_cycle_median(traced, p50) / per_cycle_median(untraced, p50) - 1) * 100,
          "%");
    Cycle pooled;
    for (const Cycle& c : traced) {
      pooled.load.add(c.load);
      for (auto [to, from] : {std::pair{&pooled.append_ms, &c.append_ms},
                              std::pair{&pooled.build_ms, &c.build_ms},
                              std::pair{&pooled.swap_us, &c.swap_us}}) {
        to->insert(to->end(), from->begin(), from->end());
      }
      pooled.delta_certs += c.delta_certs;
    }
    r.set("loadgen.late_p99_us", quantile(pooled.load.late_us, 0.99), "us");
    r.set("corpus.live.append_p50_ms", median(pooled.append_ms), "ms");
    r.set("corpus.live.delta_certs",
          static_cast<double>(pooled.delta_certs) / static_cast<double>(traced.size()),
          "count");
    r.set("notary.index.build_p50_ms", median(pooled.build_ms), "ms");
    r.set("notary.service.publish_p50_us", median(pooled.swap_us), "us");
    set_setup_layers(r, setup_spans, *d->inputs.corpus);
    set_request_layers(r, spans, "notary.service.handle", nullptr);
    set_service_layers(r, metrics);
    set_server_layers(r, counters);
    if (!o.trace_out.empty()) {
      for (const Span& s : setup_spans) Tracer::get().record(s);
    }
  }
  return r;
}

}  // namespace perfbench
