// Tests for sm::notary: NotaryIndex field correctness against brute-force
// recomputation, thread-count determinism of the rendered responses, the
// service's FIFO ring cache (byte-identical on/off, eviction), and the
// metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corpus/corpus_index.h"
#include "corpus/live.h"
#include "net/ipv4.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/service.h"
#include "simworld/world.h"
#include "util/thread_pool.h"

namespace sm::notary {
namespace {

simworld::WorldConfig micro_config() {
  simworld::WorldConfig config;
  config.seed = 11;
  config.device_count = 120;
  config.website_count = 40;
  config.schedule.scale = 0.1;
  return config;
}

const simworld::WorldResult& micro_world() {
  static const simworld::WorldResult world =
      simworld::World(micro_config()).run();
  return world;
}

// The shared corpus spine (with routing) the notary consumes.
const corpus::CorpusIndex& micro_spine() {
  static const corpus::CorpusIndex spine(
      micro_world().archive,
      corpus::CorpusOptions{&micro_world().routing, nullptr});
  return spine;
}

TEST(NotaryIndex, MatchesBruteForceRecomputation) {
  const auto& world = micro_world();
  const auto& archive = world.archive;
  const NotaryIndex index(micro_spine());
  ASSERT_EQ(index.size(), archive.certs().size());

  for (scan::CertId id = 0; id < archive.certs().size(); ++id) {
    const CertKnowledge& k = index.knowledge(id);
    const scan::CertRecord& record = archive.cert(id);
    EXPECT_EQ(k.fingerprint, record.fingerprint);
    EXPECT_EQ(k.valid, record.valid);
    EXPECT_EQ(k.transvalid, record.transvalid);
    EXPECT_EQ(k.reason, record.invalid_reason);
    EXPECT_EQ(k.subject_cn, record.subject_cn);
    EXPECT_EQ(k.issuer_cn, record.issuer_cn);
    EXPECT_EQ(k.not_before, record.not_before);
    EXPECT_EQ(k.not_after, record.not_after);

    // Brute-force observation history from the raw archive.
    std::uint64_t observations = 0;
    std::uint32_t scans_seen = 0;
    util::UnixTime first_seen = 0, last_seen = 0;
    std::set<std::uint32_t> ips, slash24s;
    std::set<net::Asn> ases;
    for (const scan::ScanData& scan : archive.scans()) {
      bool seen_in_scan = false;
      const net::RouteTable* table = world.routing.at(scan.event.start);
      for (const scan::Observation& obs : scan.observations) {
        if (obs.cert != id) continue;
        ++observations;
        if (!seen_in_scan) {
          seen_in_scan = true;
          ++scans_seen;
          if (observations == 1) first_seen = scan.event.start;
          last_seen = scan.event.start;
        }
        ips.insert(obs.ip);
        slash24s.insert(obs.ip >> 8);
        if (table != nullptr) {
          const auto asn = table->lookup(net::Ipv4Address(obs.ip));
          if (asn.has_value() && *asn != 0) ases.insert(*asn);
        }
      }
    }
    EXPECT_EQ(k.observations, observations) << "cert " << id;
    EXPECT_EQ(k.scans_seen, scans_seen) << "cert " << id;
    if (observations > 0) {
      EXPECT_EQ(k.first_seen, first_seen) << "cert " << id;
      EXPECT_EQ(k.last_seen, last_seen) << "cert " << id;
    }
    EXPECT_EQ(k.distinct_ips, ips.size()) << "cert " << id;
    EXPECT_EQ(k.distinct_slash24s, slash24s.size()) << "cert " << id;
    EXPECT_EQ(k.distinct_ases, ases.size()) << "cert " << id;
  }
}

TEST(NotaryIndex, KeySharingCountsCertsPerSpki) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  std::map<scan::KeyFingerprint, std::uint32_t> counts;
  for (const scan::CertRecord& record : world.archive.certs()) {
    ++counts[record.key_fingerprint];
  }
  bool any_shared = false;
  for (scan::CertId id = 0; id < world.archive.certs().size(); ++id) {
    const std::uint32_t expected =
        counts.at(world.archive.cert(id).key_fingerprint);
    EXPECT_EQ(index.knowledge(id).key_sharing, expected);
    any_shared |= expected > 1;
  }
  // The simulated world includes firmware families that share keys, so the
  // degree must actually exercise values above 1 somewhere.
  EXPECT_TRUE(any_shared);
}

TEST(NotaryIndex, LookupFindsEveryCertAndRejectsUnknown) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  for (scan::CertId id = 0; id < world.archive.certs().size(); ++id) {
    const CertKnowledge* k = index.lookup(world.archive.cert(id).fingerprint);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k, &index.knowledge(id));
  }
  scan::CertFingerprint unknown{};
  unknown.fill(0xfe);
  EXPECT_EQ(index.lookup(unknown), nullptr);
}

TEST(NotaryIndex, RenderedResponsesAreThreadCountInvariant) {
  const auto& world = micro_world();
  util::ThreadPool serial(1);
  util::ThreadPool wide(8);
  // Both the spine build and the notary build vary their thread count.
  const corpus::CorpusIndex spine1(
      world.archive, corpus::CorpusOptions{&world.routing, &serial});
  const corpus::CorpusIndex spine8(
      world.archive, corpus::CorpusOptions{&world.routing, &wide});
  NotaryIndexOptions options1;
  options1.pool = &serial;
  NotaryIndexOptions options8;
  options8.pool = &wide;
  const NotaryIndex index1(spine1, options1);
  const NotaryIndex index8(spine8, options8);
  ASSERT_EQ(index1.size(), index8.size());
  for (scan::CertId id = 0; id < index1.size(); ++id) {
    EXPECT_EQ(render_knowledge(index1.knowledge(id)),
              render_knowledge(index8.knowledge(id)))
        << "cert " << id;
  }
}

TEST(NotaryIndex, DeviceGroupsAssignLinkedIds) {
  const auto& world = micro_world();
  ASSERT_GE(world.archive.certs().size(), 6u);
  const std::vector<std::vector<scan::CertId>> groups = {{2, 5}, {0, 1, 4}};
  NotaryIndexOptions options;
  options.device_groups = &groups;
  // A spine built without routing: the AS column is all zeros.
  const corpus::CorpusIndex spine(world.archive);
  const NotaryIndex index(spine, options);
  EXPECT_EQ(index.knowledge(2).linked_device, 0u);
  EXPECT_EQ(index.knowledge(5).linked_device, 0u);
  EXPECT_EQ(index.knowledge(0).linked_device, 1u);
  EXPECT_EQ(index.knowledge(1).linked_device, 1u);
  EXPECT_EQ(index.knowledge(4).linked_device, 1u);
  EXPECT_EQ(index.knowledge(3).linked_device, kNoLinkedDevice);
  // Without routing the AS column degrades to 0 rather than lying.
  EXPECT_EQ(index.knowledge(0).distinct_ases, 0u);
}

TEST(NotaryIndex, RenderKnowledgeContainsEveryField) {
  const NotaryIndex index(micro_spine());
  const std::string body = render_knowledge(index.knowledge(0));
  for (const char* key :
       {"fingerprint: ", "status: ", "subject-cn: ", "issuer-cn: ",
        "not-before: ", "not-after: ", "first-seen: ", "last-seen: ",
        "scans-seen: ", "observations: ", "distinct-ips: ",
        "distinct-slash24s: ", "distinct-ases: ", "key-sharing: ",
        "linked-device: "}) {
    EXPECT_NE(body.find(key), std::string::npos) << key;
  }
}

// ---- service -------------------------------------------------------------

std::string fp_payload(const scan::CertFingerprint& fp) {
  return std::string(reinterpret_cast<const char*>(fp.data()), fp.size());
}

TEST(NotaryService, ResponsesAreByteIdenticalWithCacheOnAndOff) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  NotaryService uncached(index);  // cache_bytes = 0
  NotaryServiceConfig cached_config;
  cached_config.cache_bytes = 16 << 20;
  NotaryService cached(index, cached_config);

  for (scan::CertId id = 0; id < index.size(); ++id) {
    const std::string payload = fp_payload(world.archive.cert(id).fingerprint);
    // Twice each, so the cached service serves both the miss and hit paths.
    for (int round = 0; round < 2; ++round) {
      const netio::Frame a = uncached.handle(netio::FrameType::kQuery, payload);
      const netio::Frame b = cached.handle(netio::FrameType::kQuery, payload);
      ASSERT_EQ(a.type, netio::FrameType::kCertInfo);
      ASSERT_EQ(b.type, netio::FrameType::kCertInfo);
      ASSERT_EQ(a.payload, b.payload) << "cert " << id;
      EXPECT_EQ(a.payload, render_knowledge(index.knowledge(id)));
    }
  }
  EXPECT_EQ(uncached.metrics().cache_hits, 0u);
  EXPECT_EQ(cached.metrics().cache_hits, index.size());
  EXPECT_EQ(cached.metrics().cache_misses, index.size());
}

TEST(NotaryService, AcceptsFull32ByteFingerprintPayloads) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  NotaryService service(index);
  // A 32-byte SHA-256 is truncated to the archive's 128-bit intern key.
  std::string payload = fp_payload(world.archive.cert(0).fingerprint);
  payload.append(16, '\xaa');
  const netio::Frame response =
      service.handle(netio::FrameType::kQuery, payload);
  ASSERT_EQ(response.type, netio::FrameType::kCertInfo);
  EXPECT_EQ(response.payload, render_knowledge(index.knowledge(0)));
}

TEST(NotaryService, UnknownFingerprintAnswersNotFound) {
  const NotaryIndex index(micro_spine());
  NotaryService service(index);
  scan::CertFingerprint unknown{};
  unknown.fill(0xfe);
  const netio::Frame response =
      service.handle(netio::FrameType::kQuery, fp_payload(unknown));
  EXPECT_EQ(response.type, netio::FrameType::kNotFound);
  // kNotFound echoes the queried fingerprint in hex.
  std::string expected;
  for (int i = 0; i < 16; ++i) expected += "fe";
  EXPECT_EQ(response.payload, expected);
  EXPECT_EQ(service.metrics().not_found, 1u);
}

TEST(NotaryService, BadPayloadSizesAnswerError) {
  const NotaryIndex index(micro_spine());
  NotaryService service(index);
  for (const std::size_t size : {0u, 1u, 15u, 17u, 31u, 33u}) {
    const netio::Frame response = service.handle(
        netio::FrameType::kQuery, std::string(size, 'x'));
    EXPECT_EQ(response.type, netio::FrameType::kError) << size;
  }
  EXPECT_EQ(service.metrics().bad_requests, 6u);
}

TEST(NotaryService, LruEvictsWithinShardUnderTinyCapacity) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());

  // Two certificates in the same cache shard.
  std::vector<scan::CertId> same_shard;
  const std::size_t target = NotaryIndex::shard_of(
      world.archive.cert(0).fingerprint);
  for (scan::CertId id = 0; id < index.size() && same_shard.size() < 2; ++id) {
    if (NotaryIndex::shard_of(world.archive.cert(id).fingerprint) == target) {
      same_shard.push_back(id);
    }
  }
  ASSERT_EQ(same_shard.size(), 2u) << "micro world too small for the sweep";
  const std::string a = fp_payload(world.archive.cert(same_shard[0]).fingerprint);
  const std::string b = fp_payload(world.archive.cert(same_shard[1]).fingerprint);

  // Capacity: one rendered response per populated shard (plus slack), so
  // A and B evict each other.  The cache splits its budget across
  // populated shards only, so size the total by that count.
  std::size_t populated = 0;
  for (std::size_t s = 0; s < NotaryIndex::kShards; ++s) {
    if (index.shard_population(s) > 0) ++populated;
  }
  const std::size_t one_entry =
      render_knowledge(index.knowledge(same_shard[0])).size() + 64;
  NotaryServiceConfig config;
  config.cache_bytes = one_entry * populated;
  NotaryService service(index, config);

  auto query = [&](const std::string& payload) {
    const netio::Frame r = service.handle(netio::FrameType::kQuery, payload);
    ASSERT_EQ(r.type, netio::FrameType::kCertInfo);
  };
  query(a);  // miss, cached
  query(a);  // hit
  EXPECT_EQ(service.metrics().cache_hits, 1u);
  query(b);  // miss, evicts a
  query(a);  // miss again (evicted), evicts b
  query(b);  // miss again
  const NotaryMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 4u);
  // Responses stay correct throughout the thrash.
  const netio::Frame r = service.handle(netio::FrameType::kQuery, a);
  EXPECT_EQ(r.payload, render_knowledge(index.knowledge(same_shard[0])));
}

TEST(NotaryService, CacheBudgetSplitsAcrossPopulatedShardsOnly) {
  const NotaryIndex index(micro_spine());
  std::size_t populated = 0;
  for (std::size_t s = 0; s < NotaryIndex::kShards; ++s) {
    if (index.shard_population(s) > 0) ++populated;
  }
  ASSERT_GT(populated, 0u);

  NotaryServiceConfig config;
  config.cache_bytes = 1 << 20;
  const NotaryService service(index, config);

  const std::size_t per = config.cache_bytes / populated;
  for (std::size_t s = 0; s < NotaryIndex::kShards; ++s) {
    if (index.shard_population(s) > 0) {
      EXPECT_EQ(service.cache_shard_capacity(s), per) << "shard " << s;
    } else {
      EXPECT_EQ(service.cache_shard_capacity(s), 0u)
          << "empty shard " << s << " should get no cache budget";
    }
  }
}

TEST(NotaryService, MetricsAndStatsTextTrackTraffic) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  NotaryServiceConfig config;
  config.cache_bytes = 1 << 20;
  NotaryService service(index, config);

  const std::string known = fp_payload(world.archive.cert(0).fingerprint);
  scan::CertFingerprint missing{};
  missing.fill(0xfe);

  service.handle(netio::FrameType::kQuery, known);
  service.handle(netio::FrameType::kQuery, known);
  service.handle(netio::FrameType::kQuery, fp_payload(missing));
  const netio::Frame pong = service.handle(netio::FrameType::kPing, "hello");
  EXPECT_EQ(pong.type, netio::FrameType::kPong);
  EXPECT_EQ(pong.payload, "hello");
  const netio::Frame stats = service.handle(netio::FrameType::kStats, "");
  ASSERT_EQ(stats.type, netio::FrameType::kStatsText);

  const NotaryMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.requests, 5u);
  EXPECT_EQ(m.queries, 3u);
  EXPECT_EQ(m.found, 2u);
  EXPECT_EQ(m.not_found, 1u);
  EXPECT_EQ(m.pings, 1u);
  EXPECT_EQ(m.stats_requests, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_DOUBLE_EQ(m.cache_hit_rate(), 0.5);
  EXPECT_GT(m.latency.count, 0u);
  EXPECT_GT(m.latency.p99_us, 0.0);

  EXPECT_NE(stats.payload.find("notary-stats"), std::string::npos);
  EXPECT_NE(stats.payload.find("queries: 3 (found 2, unknown 1)"),
            std::string::npos);
  EXPECT_NE(stats.payload.find("latency-p50-us"), std::string::npos);
}

TEST(LatencyHistogram, PercentilesAreMonotoneAndBounded) {
  LatencyHistogram histogram;
  EXPECT_EQ(histogram.summarize().count, 0u);
  // 1us, 2us, 4us ... exercise distinct power-of-two buckets.
  for (int i = 0; i < 10; ++i) {
    histogram.record(std::uint64_t{1000} << i);
  }
  const auto summary = histogram.summarize();
  EXPECT_EQ(summary.count, 10u);
  EXPECT_GT(summary.p50_us, 0.0);
  EXPECT_LE(summary.p50_us, summary.p99_us);
  EXPECT_LE(summary.p99_us, summary.max_us);
}

// Regression: max_us reported the top of the maximum sample's *bucket*,
// not the sample — a 3ms request showed up as 4.194ms. The histogram now
// tracks the exact maximum alongside the buckets.
TEST(LatencyHistogram, MaxReportsExactSampleNotBucketBound) {
  LatencyHistogram histogram;
  histogram.record(1'500);
  histogram.record(3'000'000);  // 3ms: bucket [2^21, 2^22) ns
  const auto summary = histogram.summarize();
  EXPECT_EQ(summary.count, 2u);
  EXPECT_DOUBLE_EQ(summary.max_us, 3'000.0);
  EXPECT_LE(summary.p99_us, summary.max_us);
}

// Regression: samples past the top bucket were silently clamped *into*
// it, so a pathological multi-day stall was indistinguishable from a
// sample at the top bucket's bound — and the count lied about where the
// tail mass lives. Overflow is now counted separately and max_us still
// reports the true sample.
TEST(LatencyHistogram, OverflowSamplesAreCountedNotClamped) {
  LatencyHistogram histogram;
  histogram.record(1'000);
  const std::uint64_t huge = (std::uint64_t{1} << 50) + 12'345;
  histogram.record(huge);  // >= 2^48 ns: past the last bucket
  const auto summary = histogram.summarize();
  EXPECT_EQ(summary.count, 2u);
  EXPECT_EQ(summary.overflow, 1u);
  EXPECT_DOUBLE_EQ(summary.max_us, static_cast<double>(huge) / 1000.0);
  EXPECT_LE(summary.p99_us, summary.max_us);
}

// ---- batch queries -------------------------------------------------------

TEST(BatchCodec, QueryAndInfoRoundTrip) {
  std::vector<scan::CertFingerprint> fps(5);
  for (std::size_t i = 0; i < fps.size(); ++i) fps[i].fill(i * 17);
  std::vector<scan::CertFingerprint> parsed;
  ASSERT_TRUE(parse_batch_query(encode_batch_query(fps), parsed));
  EXPECT_EQ(parsed, fps);

  std::string body = encode_batch_info_header(3);
  append_batch_entry(body, netio::FrameType::kCertInfo, "status: valid\n");
  append_batch_entry(body, netio::FrameType::kNotFound, "deadbeef");
  append_batch_entry(body, netio::FrameType::kError, "shard down");
  std::vector<BatchEntry> entries;
  ASSERT_TRUE(parse_batch_info(body, entries));
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].status, netio::FrameType::kCertInfo);
  EXPECT_EQ(entries[0].body, "status: valid\n");
  EXPECT_EQ(entries[1].status, netio::FrameType::kNotFound);
  EXPECT_EQ(entries[2].status, netio::FrameType::kError);
  EXPECT_EQ(entries[2].body, "shard down");
}

TEST(BatchCodec, RejectsMalformedPayloads) {
  std::vector<scan::CertFingerprint> fps(2);
  const std::string good = encode_batch_query(fps);
  std::vector<scan::CertFingerprint> out;
  EXPECT_TRUE(parse_batch_query(good, out));
  // Truncated, padded, count/size disagreement, count over the cap.
  EXPECT_FALSE(parse_batch_query(good.substr(0, good.size() - 1), out));
  EXPECT_FALSE(parse_batch_query(good + "x", out));
  EXPECT_FALSE(parse_batch_query(good.substr(0, 3), out));
  std::string oversized(4 + (kMaxBatchEntries + 1) * 16, '\0');
  const std::uint32_t n = kMaxBatchEntries + 1;
  std::memcpy(oversized.data(), &n, 4);
  EXPECT_FALSE(parse_batch_query(oversized, out));

  std::string info = encode_batch_info_header(1);
  append_batch_entry(info, netio::FrameType::kCertInfo, "x");
  std::vector<BatchEntry> entries;
  EXPECT_TRUE(parse_batch_info(info, entries));
  EXPECT_FALSE(parse_batch_info(info.substr(0, info.size() - 1), entries));
  EXPECT_FALSE(parse_batch_info(info + "y", entries));
  std::string bad_status = info;
  bad_status[4] = 0x03;  // kPing is not a valid per-entry status
  EXPECT_FALSE(parse_batch_info(bad_status, entries));
}

// The protocol promise: a kBatchQuery answers exactly what the same
// fingerprints would get as standalone kQuery frames against the same
// epoch — same statuses, byte-identical bodies, in request order.
TEST(NotaryService, BatchEqualsSequenceOfSingles) {
  const auto& world = micro_world();
  const NotaryIndex index(micro_spine());
  NotaryService service(index);

  std::vector<scan::CertFingerprint> fps;
  for (std::size_t i = 0; i < 8 && i < world.archive.certs().size(); ++i) {
    fps.push_back(world.archive.cert(static_cast<scan::CertId>(i))
                      .fingerprint);
  }
  scan::CertFingerprint missing{};
  missing.fill(0xfe);
  fps.insert(fps.begin() + 3, missing);  // a miss in the middle

  const netio::Frame batched =
      service.handle(netio::FrameType::kBatchQuery, encode_batch_query(fps));
  ASSERT_EQ(batched.type, netio::FrameType::kBatchInfo);
  std::vector<BatchEntry> entries;
  ASSERT_TRUE(parse_batch_info(batched.payload, entries));
  ASSERT_EQ(entries.size(), fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    const netio::Frame single =
        service.handle(netio::FrameType::kQuery, fp_payload(fps[i]));
    EXPECT_EQ(entries[i].status, single.type) << "entry " << i;
    EXPECT_EQ(entries[i].body, single.payload) << "entry " << i;
  }

  const NotaryMetricsSnapshot m = service.metrics();
  EXPECT_EQ(m.batch_queries, 1u);
  EXPECT_EQ(m.batch_entries, fps.size());
  // Singles + batch entries both land in found/not_found.
  EXPECT_EQ(m.found + m.not_found, 2 * fps.size());
  EXPECT_EQ(m.not_found, 2u);
}

TEST(NotaryService, MalformedBatchQueryAnswersError) {
  const NotaryIndex index(micro_spine());
  NotaryService service(index);
  const netio::Frame response =
      service.handle(netio::FrameType::kBatchQuery, "garbage");
  EXPECT_EQ(response.type, netio::FrameType::kError);
  EXPECT_EQ(service.metrics().bad_requests, 1u);
}

// Regression: render_stats() read the index size from one snapshot
// acquire and the epoch from another (inside metrics()), so a publish()
// landing between the two produced a stats dump pairing epoch N with
// epoch N+1's index size. Two indexes of different sizes swapped in a
// tight loop catch the tear: epoch parity determines which size must be
// reported.
TEST(NotaryService, RenderStatsPairsEpochWithThatEpochsIndexSize) {
  const auto& world = micro_world();
  // A second index with a different certificate count: the lower half of
  // the fingerprint space (sliced from the same archive).
  const scan::ScanArchive half_archive =
      corpus::extract_prefix_slice(world.archive, 0, 127);
  const corpus::CorpusIndex half_spine(half_archive, corpus::CorpusOptions{});
  auto full = std::make_shared<const NotaryIndex>(micro_spine());
  auto half = std::make_shared<const NotaryIndex>(half_spine);
  ASSERT_NE(full->size(), half->size());

  NotaryService service(full);
  std::atomic<bool> stop{false};
  std::thread publisher([&] {
    // Odd epochs carry the half index, even epochs the full one.
    for (std::uint64_t e = 1; !stop.load(std::memory_order_relaxed); ++e) {
      service.publish(e % 2 == 1 ? half : full, {});
    }
  });

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  std::uint64_t checked = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string stats = service.render_stats();
    std::size_t size = 0;
    std::uint64_t epoch = 0;
    ASSERT_EQ(std::sscanf(stats.c_str(), "notary-stats\nindex-size: %zu",
                          &size),
              1);
    const std::size_t at = stats.find("snapshot-epoch: ");
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(std::sscanf(stats.c_str() + at, "snapshot-epoch: %" SCNu64,
                          &epoch),
              1);
    const std::size_t expected =
        epoch % 2 == 1 ? half->size() : full->size();
    ASSERT_EQ(size, expected) << "torn stats at epoch " << epoch;
    ++checked;
  }
  stop.store(true, std::memory_order_relaxed);
  publisher.join();
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace sm::notary
