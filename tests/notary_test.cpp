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

  // Every other lookup shape, and one malformed payload of each, moves
  // exactly the counters it should.
  const scan::CertFingerprint& known_fp = world.archive.cert(0).fingerprint;
  const scan::CertFingerprint& other_fp = world.archive.cert(1).fingerprint;
  const NotaryMetricsSnapshot before = service.metrics();
  // known is cached by now (a hit); other is rendered for the first time.
  EXPECT_EQ(service
                .handle(netio::FrameType::kBatchQuery,
                        encode_batch_query({known_fp, missing, other_fp}))
                .type,
            netio::FrameType::kBatchInfo);
  EXPECT_EQ(service.handle(netio::FrameType::kRevocationQuery, known).type,
            netio::FrameType::kRevocationInfo);
  EXPECT_EQ(service
                .handle(netio::FrameType::kRevocationQuery,
                        fp_payload(missing))
                .type,
            netio::FrameType::kNotFound);
  EXPECT_EQ(service
                .handle(netio::FrameType::kRevocationQuery,
                        encode_batch_query({known_fp, missing}))
                .type,
            netio::FrameType::kBatchInfo);
  // Malformed: a short kQuery, a batch-shaped kQuery, a garbage batch and
  // a revocation payload of neither form.
  for (const auto& [type, payload] :
       std::vector<std::pair<netio::FrameType, std::string>>{
           {netio::FrameType::kQuery, "abc"},
           {netio::FrameType::kQuery, encode_batch_query({known_fp})},
           {netio::FrameType::kBatchQuery, "garbage"},
           {netio::FrameType::kRevocationQuery, "garbage"}}) {
    EXPECT_EQ(service.handle(type, payload).type, netio::FrameType::kError);
  }
  EXPECT_EQ(service.handle(netio::FrameType::kSnapshot, "").type,
            netio::FrameType::kSnapshotInfo);
  // A publish that changes the cached cert drops its render.
  service.publish(std::shared_ptr<const NotaryIndex>(
                      std::shared_ptr<const void>(), &index),
                  std::vector<scan::CertId>{0});

  const NotaryMetricsSnapshot after = service.metrics();
  EXPECT_EQ(after.requests - before.requests, 9u);
  EXPECT_EQ(after.queries - before.queries, 2u);
  EXPECT_EQ(after.batch_queries - before.batch_queries, 2u);
  EXPECT_EQ(after.batch_entries - before.batch_entries, 5u);
  EXPECT_EQ(after.revocation_queries - before.revocation_queries, 4u);
  EXPECT_EQ(after.found - before.found, 4u);
  EXPECT_EQ(after.not_found - before.not_found, 3u);
  EXPECT_EQ(after.stats_requests - before.stats_requests, 0u);
  EXPECT_EQ(after.pings - before.pings, 0u);
  EXPECT_EQ(after.snapshot_requests - before.snapshot_requests, 1u);
  EXPECT_EQ(after.bad_requests - before.bad_requests, 4u);
  EXPECT_EQ(after.cache_hits - before.cache_hits, 1u);
  EXPECT_EQ(after.cache_misses - before.cache_misses, 1u);
  EXPECT_EQ(after.epoch - before.epoch, 1u);
  EXPECT_EQ(after.snapshot_swaps - before.snapshot_swaps, 1u);
  EXPECT_EQ(after.cache_invalidations - before.cache_invalidations, 1u);
  EXPECT_EQ(after.latency.count - before.latency.count, 9u);
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

/// Encodes a kBatchInfo payload through the one entry writer.
std::string encode_batch_info(const std::vector<BatchEntry>& entries) {
  std::string out;
  netio::put_u32le(out, static_cast<std::uint32_t>(entries.size()));
  for (const BatchEntry& entry : entries) {
    const std::size_t body = begin_batch_entry(out, entry.status);
    out += entry.body;
    end_batch_entry(out, body);
  }
  return out;
}

/// Decodes a kBatchQuery payload through BatchQueryView; false if it is
/// rejected.
bool decode_batch_query(std::string_view payload,
                        std::vector<scan::CertFingerprint>& out) {
  BatchQueryView view;
  if (!view.parse(payload)) return false;
  out.clear();
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    out.push_back(view.fingerprint(i));
  }
  return true;
}

TEST(BatchCodec, QueryAndInfoRoundTrip) {
  std::vector<scan::CertFingerprint> fps(5);
  for (std::size_t i = 0; i < fps.size(); ++i) fps[i].fill(i * 17);
  std::vector<scan::CertFingerprint> parsed;
  ASSERT_TRUE(decode_batch_query(encode_batch_query(fps), parsed));
  EXPECT_EQ(parsed, fps);

  const std::vector<BatchEntry> sent = {
      {netio::FrameType::kCertInfo, "status: valid\n"},
      {netio::FrameType::kNotFound, "deadbeef"},
      {netio::FrameType::kError, "shard down"}};
  const std::string body = encode_batch_info(sent);
  std::vector<BatchEntry> entries;
  ASSERT_TRUE(parse_batch_info(body, entries));
  EXPECT_EQ(entries, sent);

  // The zero-copy reader walks the same entries as raw wire bytes, which
  // concatenate back to the payload after its count.
  BatchInfoView view;
  ASSERT_TRUE(view.parse(body));
  ASSERT_EQ(view.size(), sent.size());
  std::string walked;
  for (std::uint32_t i = 0; i < view.size(); ++i) walked += view.next_entry();
  EXPECT_EQ(walked, body.substr(4));
}

TEST(BatchCodec, RejectsMalformedPayloads) {
  std::vector<scan::CertFingerprint> fps(2);
  const std::string good = encode_batch_query(fps);
  BatchQueryView query;
  EXPECT_TRUE(query.parse(good));
  // Truncated, padded, count/size disagreement, count over the cap.
  EXPECT_FALSE(query.parse(good.substr(0, good.size() - 1)));
  EXPECT_FALSE(query.parse(good + "x"));
  EXPECT_FALSE(query.parse(good.substr(0, 3)));
  EXPECT_EQ(query.size(), 0u);
  std::string oversized(4 + (kMaxBatchEntries + 1) * 16, '\0');
  const std::uint32_t n = kMaxBatchEntries + 1;
  std::memcpy(oversized.data(), &n, 4);
  EXPECT_FALSE(query.parse(oversized));

  const std::string info =
      encode_batch_info({{netio::FrameType::kCertInfo, "x"}});
  std::vector<BatchEntry> entries;
  BatchInfoView view;
  EXPECT_TRUE(parse_batch_info(info, entries));
  EXPECT_TRUE(view.parse(info));
  EXPECT_FALSE(parse_batch_info(info.substr(0, info.size() - 1), entries));
  EXPECT_FALSE(view.parse(info.substr(0, info.size() - 1)));
  EXPECT_FALSE(parse_batch_info(info + "y", entries));
  EXPECT_FALSE(view.parse(info + "y"));
  EXPECT_EQ(view.size(), 0u);
  std::string bad_status = info;
  bad_status[4] = 0x03;  // kPing is not a valid per-entry status
  EXPECT_FALSE(parse_batch_info(bad_status, entries));
  EXPECT_FALSE(view.parse(bad_status));
}

// Golden payloads for the mutation sweep, spelled out byte by byte.
std::string golden_batch_query() {
  std::string out("\x02\x00\x00\x00", 4);  // u32le count
  for (int i = 0; i < 16; ++i) out.push_back(static_cast<char>(i));
  for (int i = 0; i < 16; ++i) out.push_back(static_cast<char>(0xff - i));
  return out;
}

std::string golden_batch_info() {
  // u32le count, then {status, u32le body length, body} per entry: one
  // entry of each response status.
  return std::string("\x04\x00\x00\x00", 4) +
         std::string("\x81\x0e\x00\x00\x00", 5) + "status: valid\n" +
         std::string("\x82\x04\x00\x00\x00", 5) + "beef" +
         std::string("\x87\x0b\x00\x00\x00", 5) + "revoked: no" +
         std::string("\xee\x0a\x00\x00\x00", 5) + "shard down";
}

/// Every truncation and every single-bit flip of `golden`.
std::vector<std::string> mutations_of(const std::string& golden) {
  std::vector<std::string> out;
  for (std::size_t len = 0; len < golden.size(); ++len) {
    out.push_back(golden.substr(0, len));
  }
  for (std::size_t i = 0; i < golden.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = golden;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      out.push_back(std::move(flipped));
    }
  }
  return out;
}

// Every truncation and bit flip of a golden payload is either rejected
// or decodes to entries that re-encode to exactly the mutated bytes: the
// codec never accepts bytes it would not itself have written.
TEST(BatchCodec, MutationSweepRejectsOrRoundTrips) {
  const std::string query = golden_batch_query();
  std::vector<scan::CertFingerprint> fps(2);
  for (int i = 0; i < 16; ++i) {
    fps[0][i] = static_cast<std::uint8_t>(i);
    fps[1][i] = static_cast<std::uint8_t>(0xff - i);
  }
  ASSERT_EQ(encode_batch_query(fps), query);
  std::size_t query_rejected = 0;
  for (const std::string& m : mutations_of(query)) {
    std::vector<scan::CertFingerprint> decoded;
    if (!decode_batch_query(m, decoded)) {
      ++query_rejected;
      continue;
    }
    EXPECT_EQ(encode_batch_query(decoded), m);
  }
  // Exactly the truncations and the count-byte flips are rejected.
  EXPECT_EQ(query_rejected, query.size() + 4 * 8);

  const std::string info = golden_batch_info();
  std::vector<BatchEntry> golden_entries;
  ASSERT_TRUE(parse_batch_info(info, golden_entries));
  ASSERT_EQ(golden_entries.size(), 4u);
  EXPECT_EQ(golden_entries[2].status, netio::FrameType::kRevocationInfo);
  ASSERT_EQ(encode_batch_info(golden_entries), info);
  std::size_t info_rejected = 0;
  for (const std::string& m : mutations_of(info)) {
    std::vector<BatchEntry> decoded;
    BatchInfoView view;
    const bool accepted = parse_batch_info(m, decoded);
    EXPECT_EQ(view.parse(m), accepted);
    if (!accepted) {
      ++info_rejected;
      continue;
    }
    EXPECT_EQ(encode_batch_info(decoded), m);
  }
  EXPECT_GE(info_rejected, info.size());
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
