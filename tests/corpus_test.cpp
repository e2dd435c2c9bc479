// CorpusIndex correctness: the parallel columnar build (CSR, ASN column,
// per-cert stats) is compared field-by-field against a brute-force serial
// recompute over a simulated world, at 1, 2, and 8 build threads — any
// divergence from the serial reference or between thread counts fails.
// Also covers the empty archive, interned-but-never-observed certificates,
// a hand-made archive with a mid-study prefix transfer, the
// no-routing-history degenerate case, and the spine extension (an
// appended archive's extended spine must equal its cold build column for
// column). Runs under TSan and ASan in scripts/tier1.sh.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "net/route_table.h"
#include "scan/archive.h"
#include "simworld/world.h"
#include "util/thread_pool.h"

namespace sm::corpus {
namespace {

// The serial reference: everything recomputed the obvious way, straight
// from the archive, one observation at a time.
struct BruteForce {
  std::vector<std::vector<Obs>> obs;            // per cert
  std::vector<std::vector<net::Asn>> asns;      // per cert, parallel
  std::vector<CertStats> stats;                 // per cert
  std::vector<scan::DeviceId> first_device;     // per cert

  BruteForce(const scan::ScanArchive& archive,
             const net::RoutingHistory* routing) {
    const std::size_t n = archive.certs().size();
    obs.resize(n);
    asns.resize(n);
    stats.resize(n);
    first_device.assign(n, scan::kNoDevice);

    const auto& scans = archive.scans();
    for (std::uint32_t s = 0; s < scans.size(); ++s) {
      const net::RouteTable* table =
          routing == nullptr ? nullptr : routing->at(scans[s].event.start);
      for (const scan::Observation& o : scans[s].observations) {
        if (first_device[o.cert] == scan::kNoDevice) {
          first_device[o.cert] = o.device;
        }
        obs[o.cert].push_back({s, o.ip});
        asns[o.cert].push_back(
            table == nullptr
                ? 0
                : table->lookup(net::Ipv4Address(o.ip)).value_or(0));
      }
    }

    for (std::size_t id = 0; id < n; ++id) {
      CertStats& s = stats[id];
      std::map<std::uint32_t, std::set<std::uint32_t>> ips_by_scan;
      std::set<std::uint32_t> ips;
      std::set<std::uint32_t> slash24s;
      for (const Obs& o : obs[id]) {
        ips_by_scan[o.scan].insert(o.ip);
        ips.insert(o.ip);
        slash24s.insert(o.ip >> 8);
      }
      s.distinct_ips = static_cast<std::uint32_t>(ips.size());
      s.distinct_slash24s = static_cast<std::uint32_t>(slash24s.size());
      if (!ips_by_scan.empty()) {
        s.first_scan = ips_by_scan.begin()->first;
        s.last_scan = ips_by_scan.rbegin()->first;
        s.min_ips_in_scan = ~std::uint32_t{0};
        for (const auto& [scan, ips] : ips_by_scan) {
          ++s.scans_seen;
          const auto count = static_cast<std::uint32_t>(ips.size());
          s.total_ip_scan_slots += count;
          if (count > s.max_ips_in_scan) s.max_ips_in_scan = count;
          if (count < s.min_ips_in_scan) s.min_ips_in_scan = count;
        }
      }
      if (routing != nullptr) {
        // Observation-weighted AS tally over the column; ASN 0 counts as
        // a distinct AS, and majority ties break to the smallest ASN
        // (std::map iterates ascending).
        std::map<net::Asn, std::uint64_t> tally;
        for (const net::Asn asn : asns[id]) ++tally[asn];
        s.distinct_as_count = static_cast<std::uint32_t>(tally.size());
        s.distinct_routed_ases =
            s.distinct_as_count - static_cast<std::uint32_t>(tally.count(0));
        std::uint64_t best = 0;
        for (const auto& [asn, count] : tally) {
          if (count > best) {
            best = count;
            s.majority_as = asn;
          }
        }
      }
    }
  }
};

void expect_matches(const CorpusIndex& index, const BruteForce& expected) {
  ASSERT_EQ(index.cert_count(), expected.stats.size());
  std::size_t total = 0;
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    const auto obs = index.observations(id);
    const auto asns = index.asns(id);
    ASSERT_EQ(obs.size(), expected.obs[id].size()) << "cert " << id;
    ASSERT_EQ(asns.size(), obs.size()) << "cert " << id;
    total += obs.size();
    for (std::size_t i = 0; i < obs.size(); ++i) {
      EXPECT_EQ(obs[i].scan, expected.obs[id][i].scan)
          << "cert " << id << " obs " << i;
      EXPECT_EQ(obs[i].ip, expected.obs[id][i].ip)
          << "cert " << id << " obs " << i;
      EXPECT_EQ(asns[i], expected.asns[id][i])
          << "cert " << id << " obs " << i;
    }
    const CertStats& got = index.stats(id);
    const CertStats& want = expected.stats[id];
    EXPECT_EQ(got.scans_seen, want.scans_seen) << "cert " << id;
    EXPECT_EQ(got.first_scan, want.first_scan) << "cert " << id;
    EXPECT_EQ(got.last_scan, want.last_scan) << "cert " << id;
    EXPECT_EQ(got.total_ip_scan_slots, want.total_ip_scan_slots)
        << "cert " << id;
    EXPECT_EQ(got.max_ips_in_scan, want.max_ips_in_scan) << "cert " << id;
    EXPECT_EQ(got.min_ips_in_scan, want.min_ips_in_scan) << "cert " << id;
    EXPECT_EQ(got.distinct_as_count, want.distinct_as_count) << "cert " << id;
    EXPECT_EQ(got.majority_as, want.majority_as) << "cert " << id;
    EXPECT_EQ(got.distinct_ips, want.distinct_ips) << "cert " << id;
    EXPECT_EQ(got.distinct_slash24s, want.distinct_slash24s) << "cert " << id;
    EXPECT_EQ(got.distinct_routed_ases, want.distinct_routed_ases)
        << "cert " << id;
    EXPECT_EQ(index.first_device(id), expected.first_device[id])
        << "cert " << id;
  }
  EXPECT_EQ(index.observation_count(), total);
  EXPECT_EQ(index.observation_count(), index.archive().observation_count());
}

// Column-for-column equality of two spines: CSR offsets (through each
// row's bounds), observations, ASNs, every stats field, first devices.
void expect_same_spine(const CorpusIndex& got, const CorpusIndex& want) {
  ASSERT_EQ(got.cert_count(), want.cert_count());
  ASSERT_EQ(got.scan_count(), want.scan_count());
  ASSERT_EQ(got.observation_count(), want.observation_count());
  ASSERT_EQ(got.has_routing(), want.has_routing());
  if (got.cert_count() == 0) return;
  const Obs* got_base = got.observations(0).data();
  const Obs* want_base = want.observations(0).data();
  for (scan::CertId id = 0; id < got.cert_count(); ++id) {
    const auto got_obs = got.observations(id);
    const auto want_obs = want.observations(id);
    ASSERT_EQ(got_obs.data() - got_base, want_obs.data() - want_base)
        << "offset of cert " << id;
    ASSERT_EQ(got_obs.size(), want_obs.size()) << "cert " << id;
    for (std::size_t i = 0; i < got_obs.size(); ++i) {
      ASSERT_EQ(got_obs[i].scan, want_obs[i].scan) << "cert " << id;
      ASSERT_EQ(got_obs[i].ip, want_obs[i].ip) << "cert " << id;
      ASSERT_EQ(got.asns(id)[i], want.asns(id)[i]) << "cert " << id;
    }
    const CertStats& a = got.stats(id);
    const CertStats& b = want.stats(id);
    EXPECT_EQ(a.scans_seen, b.scans_seen) << "cert " << id;
    EXPECT_EQ(a.first_scan, b.first_scan) << "cert " << id;
    EXPECT_EQ(a.last_scan, b.last_scan) << "cert " << id;
    EXPECT_EQ(a.total_ip_scan_slots, b.total_ip_scan_slots) << "cert " << id;
    EXPECT_EQ(a.max_ips_in_scan, b.max_ips_in_scan) << "cert " << id;
    EXPECT_EQ(a.min_ips_in_scan, b.min_ips_in_scan) << "cert " << id;
    EXPECT_EQ(a.distinct_as_count, b.distinct_as_count) << "cert " << id;
    EXPECT_EQ(a.majority_as, b.majority_as) << "cert " << id;
    EXPECT_EQ(a.distinct_ips, b.distinct_ips) << "cert " << id;
    EXPECT_EQ(a.distinct_slash24s, b.distinct_slash24s) << "cert " << id;
    EXPECT_EQ(a.distinct_routed_ases, b.distinct_routed_ases) << "cert " << id;
    EXPECT_EQ(got.first_device(id), want.first_device(id)) << "cert " << id;
  }
}

const simworld::WorldResult& small_world() {
  static const simworld::WorldResult world = [] {
    simworld::WorldConfig config;
    config.seed = 7;
    config.device_count = 80;
    config.website_count = 30;
    config.schedule.scale = 0.08;
    return simworld::World(config).run();
  }();
  return world;
}

TEST(CorpusIndex, MatchesSerialBruteForceAtEveryThreadCount) {
  const auto& world = small_world();
  const BruteForce expected(world.archive, &world.routing);
  ASSERT_GT(world.archive.certs().size(), 0u);
  ASSERT_GT(world.archive.observation_count(), 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    CorpusOptions options;
    options.routing = &world.routing;
    options.pool = &pool;
    const CorpusIndex index(world.archive, options);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    expect_matches(index, expected);
  }
}

TEST(CorpusIndex, LifetimeDaysMatchesComputeLifetimes) {
  const auto& world = small_world();
  const CorpusIndex index(world.archive);
  const auto lifetimes = scan::compute_lifetimes(world.archive);
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    const double expected = index.stats(id).scans_seen == 0
                                ? 0.0
                                : lifetimes[id].days(world.archive.scans());
    EXPECT_DOUBLE_EQ(index.lifetime_days(id), expected) << "cert " << id;
  }
}

TEST(CorpusIndex, EmptyArchiveYieldsEmptySpine) {
  const scan::ScanArchive archive;
  const CorpusIndex index(archive);
  EXPECT_EQ(index.cert_count(), 0u);
  EXPECT_EQ(index.scan_count(), 0u);
  EXPECT_EQ(index.observation_count(), 0u);
  EXPECT_FALSE(index.has_routing());
}

scan::CertRecord record_with_fingerprint(std::uint8_t tag) {
  scan::CertRecord record;
  record.fingerprint.fill(tag);
  return record;
}

TEST(CorpusIndex, InternedButNeverObservedCertHasEmptyRow) {
  scan::ScanArchive archive;
  const scan::CertId seen = archive.intern(record_with_fingerprint(1));
  const scan::CertId ghost = archive.intern(record_with_fingerprint(2));
  scan::ScanEvent event;
  event.start = util::make_date(2013, 3, 1);
  const std::size_t scan = archive.begin_scan(event);
  archive.add_observation(scan, seen, 0x0a000001, /*device=*/17);

  const CorpusIndex index(archive);
  EXPECT_EQ(index.cert_count(), 2u);
  EXPECT_EQ(index.observation_count(), 1u);
  EXPECT_TRUE(index.observations(ghost).empty());
  EXPECT_TRUE(index.asns(ghost).empty());
  EXPECT_EQ(index.stats(ghost).scans_seen, 0u);
  EXPECT_EQ(index.stats(ghost).min_ips_in_scan, 0u);
  EXPECT_EQ(index.stats(ghost).total_ip_scan_slots, 0u);
  EXPECT_EQ(index.first_device(ghost), scan::kNoDevice);
  EXPECT_EQ(index.lifetime_days(ghost), 0.0);

  EXPECT_EQ(index.observations(seen).size(), 1u);
  EXPECT_EQ(index.first_device(seen), 17u);
  EXPECT_EQ(index.lifetime_days(seen), 1.0);
}

TEST(CorpusIndex, AsnColumnTracksPrefixTransfersAcrossScans) {
  // One IP, two scans, and a routing history where the covering prefix
  // moves from AS 100 to AS 200 between them — the column must resolve
  // each observation through the snapshot at its own scan's start.
  scan::ScanArchive archive;
  const scan::CertId cert = archive.intern(record_with_fingerprint(3));

  const std::uint32_t ip = net::Ipv4Address::from_octets(10, 1, 2, 3).value();
  const util::UnixTime t1 = util::make_date(2013, 1, 1);
  const util::UnixTime t2 = util::make_date(2013, 6, 1);

  net::RouteTable before;
  before.announce(net::Prefix(net::Ipv4Address(ip), 16), 100);
  net::RouteTable after;
  after.announce(net::Prefix(net::Ipv4Address(ip), 16), 200);
  net::RoutingHistory routing;
  routing.add_snapshot(t1 - 1000, std::move(before));
  routing.add_snapshot(t2 - 1000, std::move(after));

  scan::ScanEvent first;
  first.start = t1;
  archive.add_observation(archive.begin_scan(first), cert, ip, 1);
  scan::ScanEvent second;
  second.start = t2;
  archive.add_observation(archive.begin_scan(second), cert, ip, 1);

  CorpusOptions options;
  options.routing = &routing;
  const CorpusIndex index(archive, options);
  ASSERT_EQ(index.asns(cert).size(), 2u);
  EXPECT_EQ(index.asns(cert)[0], 100u);
  EXPECT_EQ(index.asns(cert)[1], 200u);
  EXPECT_EQ(index.stats(cert).distinct_as_count, 2u);
  // Tie at one observation each: the majority breaks to the smaller ASN.
  EXPECT_EQ(index.stats(cert).majority_as, 100u);
  EXPECT_EQ(index.as_of(0, ip), 100u);
  EXPECT_EQ(index.as_of(1, ip), 200u);
}

TEST(CorpusIndex, NoRoutingHistoryLeavesAsStatsZero) {
  const auto& world = small_world();
  const CorpusIndex index(world.archive);  // no routing supplied
  EXPECT_FALSE(index.has_routing());
  const BruteForce expected(world.archive, nullptr);
  expect_matches(index, expected);
  for (scan::CertId id = 0; id < index.cert_count(); ++id) {
    EXPECT_EQ(index.stats(id).distinct_as_count, 0u);
    EXPECT_EQ(index.stats(id).majority_as, 0u);
    for (const net::Asn asn : index.asns(id)) EXPECT_EQ(asn, 0u);
  }
}

// Appends scans [first, last) of `full` the way LiveCorpus does:
// certificates re-interned by fingerprint (unknown ones take the next
// ids), observations remapped.
void append_scans(scan::ScanArchive& archive, const scan::ScanArchive& full,
                  std::size_t first, std::size_t last) {
  for (std::size_t s = first; s < last; ++s) {
    scan::ScanData scan;
    scan.event = full.scans()[s].event;
    for (const scan::Observation& o : full.scans()[s].observations) {
      scan.observations.push_back(
          {archive.intern(full.cert(o.cert)), o.ip, o.device});
    }
    archive.add_scan(std::move(scan));
  }
}

// A chain of appends over the small world, each extending the previous
// epoch's spine, checked against a cold build of the same archive at 1, 2
// and 8 threads. The base holds half the scans plus two certificates
// interned without an observation: one the next segment observes, one
// never observed. A later epoch interns another unobserved certificate.
void check_extension_chain(const net::RoutingHistory* routing) {
  const scan::ScanArchive& full = small_world().archive;
  const std::size_t total = full.scans().size();
  ASSERT_GT(total, 8u);
  const std::size_t half = total / 2;
  const std::size_t cuts[] = {half, half + 1, half + 3, total};

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(testing::Message() << threads << " threads");
    util::ThreadPool pool(threads);
    const CorpusOptions options{routing, &pool};

    std::deque<scan::ScanArchive> archives;  // the spines borrow these
    archives.push_back(extract_segment(full, 0, half));
    scan::ScanArchive& base = archives.back();
    // A certificate a later segment observes for the first time.
    const scan::CertRecord* late = nullptr;
    for (std::size_t s = half; s < total && late == nullptr; ++s) {
      for (const scan::Observation& o : full.scans()[s].observations) {
        scan::CertId id = 0;
        if (!base.find(full.cert(o.cert).fingerprint, id)) {
          late = &full.cert(o.cert);
          break;
        }
      }
    }
    ASSERT_NE(late, nullptr) << "no scan after " << half << " adds a cert";
    base.intern(*late);
    base.intern(record_with_fingerprint(0xee));  // never observed
    const std::size_t base_certs = base.certs().size();

    std::deque<CorpusIndex> spines;
    spines.emplace_back(archives.back(), options);
    for (std::size_t k = 1; k < std::size(cuts); ++k) {
      SCOPED_TRACE(testing::Message() << "epoch " << k);
      archives.push_back(archives.back());  // copy-on-append
      scan::ScanArchive& next = archives.back();
      append_scans(next, full, cuts[k - 1], cuts[k]);
      if (k == 2) next.intern(record_with_fingerprint(0xef));
      spines.emplace_back(next, spines.back(), options);
      const CorpusIndex cold(next, options);
      expect_same_spine(spines.back(), cold);
    }
    // The segments brought new certificates beyond the one unobserved
    // intern; the late certificate got observed, the 0xee one never did.
    EXPECT_GT(spines.back().cert_count(), base_certs + 1);
    EXPECT_FALSE(spines.back().observations(base_certs - 2).empty());
    EXPECT_TRUE(spines.back().observations(base_certs - 1).empty());
  }
}

TEST(CorpusIndex, ExtendedSpineMatchesColdBuildAtEveryThreadCount) {
  check_extension_chain(&small_world().routing);
}

TEST(CorpusIndex, ExtendedSpineMatchesColdBuildWithoutRouting) {
  check_extension_chain(nullptr);
}

TEST(CorpusIndex, ExtensionRejectsANonAppend) {
  const auto& world = small_world();
  const std::size_t half = world.archive.scans().size() / 2;
  const CorpusOptions options{&world.routing, nullptr};
  const scan::ScanArchive base = extract_segment(world.archive, 0, half);
  scan::ScanArchive longer = base;
  append_scans(longer, world.archive, half, half + 2);
  const CorpusIndex long_spine(longer, options);

  // Fewer scans (and certificates) than the spine it would extend.
  EXPECT_THROW(CorpusIndex(base, long_spine, options), std::invalid_argument);

  // Same scans, fewer certificates.
  scan::ScanArchive ghost = base;
  ghost.intern(record_with_fingerprint(0xee));
  const CorpusIndex ghost_spine(ghost, options);
  EXPECT_THROW(CorpusIndex(base, ghost_spine, options), std::invalid_argument);

  // An old scan that gained an observation.
  const CorpusIndex base_spine(base, options);
  scan::ScanArchive rewritten = base;
  rewritten.add_observation(0, 0, 0x0a000001, 1);
  EXPECT_THROW(CorpusIndex(rewritten, base_spine, options),
               std::invalid_argument);

  // A different routing history than the spine was built with.
  EXPECT_THROW(CorpusIndex(longer, base_spine, CorpusOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sm::corpus
