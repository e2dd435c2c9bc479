// Tests for sm::scan — permutation bijectivity, probe timing, schedules,
// prefix sets, certificate records, and the archive/lifetime machinery.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "crypto/signature.h"
#include "net/route_table.h"
#include "scan/archive.h"
#include "scan/permutation.h"
#include "scan/prefix_set.h"
#include "scan/schedule.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"

namespace sm::scan {
namespace {

// --- AddressPermutation -----------------------------------------------------

TEST(Permutation, InverseOfForwardIsIdentity) {
  const AddressPermutation perm(12345);
  util::Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(perm.inverse(perm.forward(x)), x);
    EXPECT_EQ(perm.forward(perm.inverse(x)), x);
  }
}

TEST(Permutation, IsInjectiveOnSample) {
  const AddressPermutation perm(99);
  std::set<std::uint32_t> images;
  for (std::uint32_t x = 0; x < 20000; ++x) images.insert(perm.forward(x));
  EXPECT_EQ(images.size(), 20000u);
}

TEST(Permutation, DifferentKeysDiffer) {
  const AddressPermutation a(1), b(2);
  int same = 0;
  for (std::uint32_t x = 0; x < 1000; ++x) {
    if (a.forward(x) == b.forward(x)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Permutation, ScattersAdjacentInputs) {
  // Consecutive scan indices should hit unrelated /8s (ZMap's property of
  // not hammering one network).
  const AddressPermutation perm(7);
  std::set<std::uint32_t> first_octets;
  for (std::uint32_t x = 0; x < 64; ++x) {
    first_octets.insert(perm.forward(x) >> 24);
  }
  EXPECT_GT(first_octets.size(), 32u);
}

// --- probe_time -----------------------------------------------------------------

TEST(ProbeTime, WithinScanWindow) {
  const AddressPermutation perm(5);
  const util::UnixTime start = util::make_date(2013, 5, 1);
  const std::int64_t duration = 10 * 3600;
  util::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const net::Ipv4Address ip(static_cast<std::uint32_t>(rng()));
    const util::UnixTime t = probe_time(perm, ip, start, duration);
    EXPECT_GE(t, start);
    EXPECT_LT(t, start + duration);
  }
}

TEST(ProbeTime, ProportionalToPermutationIndex) {
  const AddressPermutation perm(5);
  const util::UnixTime start = 0;
  const std::int64_t duration = 36000;
  // The first address in scan order is probed at the very start.
  const net::Ipv4Address first(perm.forward(0));
  EXPECT_EQ(probe_time(perm, first, start, duration), 0);
  // An address halfway through the order is probed near the middle.
  const net::Ipv4Address mid(perm.forward(0x80000000u));
  const util::UnixTime t = probe_time(perm, mid, start, duration);
  EXPECT_NEAR(static_cast<double>(t), duration / 2.0, 2.0);
}

TEST(ProbeTime, DifferentScanKeysReorder) {
  const AddressPermutation a(1), b(2);
  const net::Ipv4Address ip(0x12345678);
  const util::UnixTime ta = probe_time(a, ip, 0, 36000);
  const util::UnixTime tb = probe_time(b, ip, 0, 36000);
  EXPECT_NE(ta, tb);  // astronomically unlikely to collide
}

// --- schedule --------------------------------------------------------------------

TEST(Schedule, FullScaleShape) {
  ScheduleConfig config;
  util::Rng rng(3);
  const auto events = make_paper_schedule(config, rng);
  std::size_t umich = 0, rapid7 = 0;
  for (const ScanEvent& e : events) {
    (e.campaign == Campaign::kUMich ? umich : rapid7)++;
  }
  // The paper: 156 UMich scans, 74 Rapid7 scans.
  EXPECT_GT(umich, 100u);
  EXPECT_LT(umich, 260u);
  EXPECT_GT(rapid7, 60u);
  EXPECT_LT(rapid7, 90u);
  // Chronologically sorted.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].start, events[i].start);
  }
  // Campaign windows respected.
  for (const ScanEvent& e : events) {
    if (e.campaign == Campaign::kUMich) {
      EXPECT_GE(e.start, config.umich_start);
      EXPECT_LE(e.start, config.umich_end + util::kSecondsPerDay);
    } else {
      EXPECT_GE(e.start, config.rapid7_start);
      EXPECT_LE(e.start, config.rapid7_end + util::kSecondsPerDay);
    }
  }
}

TEST(Schedule, ScaleReducesScanCount) {
  ScheduleConfig full, half;
  half.scale = 0.5;
  util::Rng rng1(4), rng2(4);
  const auto full_events = make_paper_schedule(full, rng1);
  const auto half_events = make_paper_schedule(half, rng2);
  EXPECT_LT(half_events.size(), full_events.size());
  EXPECT_GT(half_events.size(), full_events.size() / 4);
}

TEST(Schedule, DualScanDaysExist) {
  ScheduleConfig config;
  util::Rng rng(5);
  const auto events = make_paper_schedule(config, rng);
  const auto dual = dual_scan_days(events);
  // The paper had 8 dual days; the simulated cadence should produce at
  // least one in the overlap window.
  EXPECT_GE(dual.size(), 1u);
}

TEST(Schedule, CampaignNames) {
  EXPECT_EQ(to_string(Campaign::kUMich), "umich");
  EXPECT_EQ(to_string(Campaign::kRapid7), "rapid7");
}

// --- PrefixSet -------------------------------------------------------------------

TEST(PrefixSet, CoversMembers) {
  PrefixSet set;
  EXPECT_TRUE(set.empty());
  set.add(*net::Prefix::parse("10.1.0.0/16"));
  set.add(*net::Prefix::parse("20.0.0.0/8"));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.covers(*net::Ipv4Address::parse("10.1.2.3")));
  EXPECT_TRUE(set.covers(*net::Ipv4Address::parse("20.200.1.1")));
  EXPECT_FALSE(set.covers(*net::Ipv4Address::parse("10.2.0.1")));
  EXPECT_EQ(set.prefixes().size(), 2u);
}

TEST(PrefixSet, NestedAndAdjacentMembersMerge) {
  PrefixSet set;
  set.add(*net::Prefix::parse("10.0.16.0/20"));
  set.add(*net::Prefix::parse("10.0.0.0/20"));   // adjacent below
  set.add(*net::Prefix::parse("10.0.4.0/24"));   // inside the first add
  set.add(*net::Prefix::parse("10.0.0.0/20"));   // already present
  set.add(*net::Prefix::parse("255.255.255.255/32"));
  EXPECT_EQ(set.size(), 4u);
  EXPECT_TRUE(set.covers(*net::Ipv4Address::parse("10.0.0.0")));
  EXPECT_TRUE(set.covers(*net::Ipv4Address::parse("10.0.31.255")));
  EXPECT_FALSE(set.covers(*net::Ipv4Address::parse("10.0.32.0")));
  EXPECT_FALSE(set.covers(*net::Ipv4Address::parse("9.255.255.255")));
  EXPECT_TRUE(set.covers(*net::Ipv4Address::parse("255.255.255.255")));
  EXPECT_FALSE(set.covers(*net::Ipv4Address::parse("255.255.255.254")));
}

// Membership and prefixes() order against net::RouteTable, the binary
// trie that stored the set before: random nested, overlapping and
// duplicate prefixes, probed at and around every member's edges.
TEST(PrefixSet, MatchesRouteTableOracle) {
  util::Rng rng(1607);
  for (int trial = 0; trial < 20; ++trial) {
    PrefixSet set;
    net::RouteTable oracle;
    std::vector<std::uint32_t> probes;
    const int members = 1 + static_cast<int>(rng.below(60));
    for (int i = 0; i < members; ++i) {
      // Cluster addresses so prefixes nest and touch.
      const auto addr = static_cast<std::uint32_t>(
          (rng.below(4) << 28) | (rng.below(1u << 12) << 12) | rng.below(4096));
      const net::Prefix prefix(net::Ipv4Address(addr),
                               static_cast<unsigned>(rng.below(33)));
      set.add(prefix);
      oracle.announce(prefix, 1);
      const std::uint64_t first = prefix.address().value();
      const std::uint64_t last = first + prefix.size() - 1;
      for (const std::uint64_t p : {first, last, first - 1, last + 1}) {
        probes.push_back(static_cast<std::uint32_t>(p));
      }
    }
    for (int i = 0; i < 500; ++i) {
      probes.push_back(static_cast<std::uint32_t>(rng()));
    }
    std::vector<net::Prefix> expected;
    for (const auto& [prefix, asn] : oracle.entries()) {
      expected.push_back(prefix);
    }
    EXPECT_EQ(set.prefixes(), expected) << trial;
    EXPECT_EQ(set.size(), oracle.size()) << trial;
    for (const std::uint32_t ip : probes) {
      EXPECT_EQ(set.covers(net::Ipv4Address(ip)),
                oracle.lookup(net::Ipv4Address(ip)).has_value())
          << trial << " " << net::Ipv4Address(ip).to_string();
    }
  }
}

// --- CertRecord --------------------------------------------------------------------

x509::Certificate make_test_cert(std::uint64_t seed) {
  util::Rng rng(seed);
  const auto key = crypto::generate_keypair(crypto::SigScheme::kSimSha256, rng);
  return x509::CertificateBuilder()
      .set_serial(bignum::BigUint(seed))
      .set_issuer(x509::Name::with_common_name("device"))
      .set_subject(x509::Name::with_common_name("device"))
      .set_validity(util::make_date(2013, 1, 1), util::make_date(2033, 1, 1))
      .set_public_key(key.pub)
      .set_subject_alt_names({{x509::GeneralName::Kind::kDns, "b.example"},
                              {x509::GeneralName::Kind::kDns, "a.example"}})
      .sign(key);
}

TEST(CertRecord, ExtractsFields) {
  const x509::Certificate cert = make_test_cert(10);
  pki::ValidationResult validation;
  validation.valid = false;
  validation.reason = pki::InvalidReason::kSelfSigned;
  const CertRecord rec = make_cert_record(cert, validation);
  EXPECT_EQ(rec.subject_cn, "device");
  EXPECT_EQ(rec.issuer_cn, "device");
  EXPECT_EQ(rec.serial_hex, "a");
  EXPECT_EQ(rec.not_before, util::make_date(2013, 1, 1));
  EXPECT_FALSE(rec.valid);
  EXPECT_EQ(rec.invalid_reason, pki::InvalidReason::kSelfSigned);
  EXPECT_NEAR(rec.validity_period_days(), 7305.0, 1.0);  // ~20 years
  EXPECT_EQ(rec.san.size(), 2u);
}

TEST(CertRecord, SanJoinedIsSorted) {
  const x509::Certificate cert = make_test_cert(11);
  const CertRecord rec = make_cert_record(cert, {});
  EXPECT_EQ(rec.san_joined(), "dns:a.example|dns:b.example");
  CertRecord empty;
  EXPECT_EQ(empty.san_joined(), "");
}

TEST(CertRecord, FingerprintsDistinguishCerts) {
  const CertRecord a = make_cert_record(make_test_cert(1), {});
  const CertRecord b = make_cert_record(make_test_cert(2), {});
  EXPECT_NE(a.fingerprint, b.fingerprint);
  EXPECT_NE(a.key_fingerprint, b.key_fingerprint);
}

// --- ScanArchive -------------------------------------------------------------------

TEST(Archive, InternDeduplicates) {
  ScanArchive archive;
  const CertRecord rec = make_cert_record(make_test_cert(20), {});
  const CertId a = archive.intern(rec);
  const CertId b = archive.intern(rec);
  EXPECT_EQ(a, b);
  EXPECT_EQ(archive.certs().size(), 1u);
  CertId found = 999;
  EXPECT_TRUE(archive.find(rec.fingerprint, found));
  EXPECT_EQ(found, a);
  CertFingerprint missing{};
  EXPECT_FALSE(archive.find(missing, found));
}

// A record whose fingerprint is `bytes` (the rest of the record is
// irrelevant to the index).
CertRecord record_with_fingerprint(const CertFingerprint& bytes) {
  CertRecord rec;
  rec.fingerprint = bytes;
  return rec;
}

CertFingerprint random_fingerprint(util::Rng& rng) {
  CertFingerprint fp{};
  for (auto& b : fp) b = static_cast<std::uint8_t>(rng.below(256));
  return fp;
}

TEST(Archive, FingerprintIndexGrowsAcrossRehashes) {
  util::Rng rng(56);
  ScanArchive archive;
  std::vector<CertFingerprint> fingerprints;
  for (int i = 0; i < 5000; ++i) {
    fingerprints.push_back(random_fingerprint(rng));
    ASSERT_EQ(archive.intern(record_with_fingerprint(fingerprints.back())),
              static_cast<CertId>(i));
  }
  // Every id survived the rehashes from 16 slots up; re-interning dedupes.
  for (std::size_t i = 0; i < fingerprints.size(); ++i) {
    CertId found = 0;
    ASSERT_TRUE(archive.find(fingerprints[i], found)) << i;
    EXPECT_EQ(found, static_cast<CertId>(i));
    EXPECT_EQ(archive.intern(record_with_fingerprint(fingerprints[i])),
              static_cast<CertId>(i));
  }
  EXPECT_EQ(archive.certs().size(), 5000u);
  for (int i = 0; i < 1000; ++i) {
    CertId found = 0;
    EXPECT_FALSE(archive.find(random_fingerprint(rng), found));
  }
}

TEST(Archive, InternAllMatchesOneByOneIntern) {
  // One scan's batch as the world commit builds it: two devices issue the
  // same fingerprint in it (a factory-static batch), and some records
  // repeat fingerprints already in the table. The batch gets the ids that
  // one intern() per record gives, at every pool size.
  util::Rng rng(21);
  std::vector<CertFingerprint> known, batch;
  for (int i = 0; i < 3000; ++i) known.push_back(random_fingerprint(rng));
  for (int i = 0; i < 2500; ++i) {
    const std::uint64_t pick = rng.below(4);
    if (pick == 0) {
      batch.push_back(known[rng.below(known.size())]);
    } else if (pick == 1 && !batch.empty()) {
      batch.push_back(batch[rng.below(batch.size())]);
    } else {
      batch.push_back(random_fingerprint(rng));
    }
  }
  ScanArchive serial;
  for (const CertFingerprint& fp : known) serial.intern(record_with_fingerprint(fp));
  std::vector<CertId> expected;
  for (const CertFingerprint& fp : batch) {
    expected.push_back(serial.intern(record_with_fingerprint(fp)));
  }
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    ScanArchive archive;
    for (const CertFingerprint& fp : known) {
      archive.intern(record_with_fingerprint(fp));
    }
    std::vector<CertRecord> records;
    for (const CertFingerprint& fp : batch) {
      records.push_back(record_with_fingerprint(fp));
      records.back().subject_cn = "a name too long for the inline buffer";
    }
    std::vector<CertRecord*> pointers;
    for (CertRecord& rec : records) pointers.push_back(&rec);
    std::vector<CertId> ids(pointers.size());
    archive.intern_all(pointers, ids, pool);
    EXPECT_EQ(ids, expected) << "threads=" << threads;
    ASSERT_EQ(archive.certs().size(), serial.certs().size());
    for (std::size_t id = 0; id < archive.certs().size(); ++id) {
      ASSERT_EQ(archive.cert(static_cast<CertId>(id)).fingerprint,
                serial.cert(static_cast<CertId>(id)).fingerprint)
          << "id " << id;
      if (id >= known.size()) {
        EXPECT_EQ(archive.cert(static_cast<CertId>(id)).subject_cn,
                  "a name too long for the inline buffer");
      }
    }
    // Later single interns still find every batch record.
    for (std::size_t i = 0; i < batch.size(); ++i) {
      CertId found = 0;
      ASSERT_TRUE(archive.find(batch[i], found));
      EXPECT_EQ(found, expected[i]);
    }
  }
}

TEST(Archive, FingerprintIndexComparesFullKeys) {
  // All four share the hash bytes (0..7), so they share tag and bucket;
  // they differ only further in, where just the full-key comparison
  // tells them apart.
  CertFingerprint a{};
  a.fill(0x42);
  CertFingerprint b = a;
  b[15] = 0x43;
  CertFingerprint c = a;
  c[9] = 0x00;
  ScanArchive archive;
  EXPECT_EQ(archive.intern(record_with_fingerprint(a)), 0u);
  EXPECT_EQ(archive.intern(record_with_fingerprint(b)), 1u);
  EXPECT_EQ(archive.intern(record_with_fingerprint(c)), 2u);
  EXPECT_EQ(archive.intern(record_with_fingerprint(b)), 1u);
  CertFingerprint d = a;
  d[14] = 0x00;
  CertId found = 0;
  EXPECT_FALSE(archive.find(d, found));
  EXPECT_TRUE(archive.find(c, found));
  EXPECT_EQ(found, 2u);
  ScanArchive empty;
  EXPECT_FALSE(empty.find(a, found));
}

TEST(Archive, CopyInternsWithoutChangingTheOriginal) {
  util::Rng rng(140);
  ScanArchive original;
  original.reserve_certs(100);
  std::vector<CertFingerprint> old_fps, new_fps;
  for (int i = 0; i < 100; ++i) {
    old_fps.push_back(random_fingerprint(rng));
    original.intern(record_with_fingerprint(old_fps.back()));
  }
  ScanArchive copy = original;
  // Enough new records to force the copy's index through rehashes.
  for (int i = 0; i < 300; ++i) {
    new_fps.push_back(random_fingerprint(rng));
    EXPECT_EQ(copy.intern(record_with_fingerprint(new_fps.back())),
              static_cast<CertId>(100 + i));
  }
  EXPECT_EQ(copy.intern(record_with_fingerprint(old_fps[7])), 7u);
  EXPECT_EQ(original.certs().size(), 100u);
  CertId found = 0;
  for (const CertFingerprint& fp : new_fps) {
    EXPECT_FALSE(original.find(fp, found));
    EXPECT_TRUE(copy.find(fp, found));
  }
  for (std::size_t i = 0; i < old_fps.size(); ++i) {
    ASSERT_TRUE(original.find(old_fps[i], found));
    EXPECT_EQ(found, static_cast<CertId>(i));
  }
  // The original still interns independently of the copy.
  EXPECT_EQ(original.intern(record_with_fingerprint(new_fps[0])), 100u);
  EXPECT_EQ(copy.certs().size(), 400u);
}

TEST(Archive, ScansMustBeChronological) {
  ScanArchive archive;
  ScanEvent e1{Campaign::kUMich, 1000};
  ScanEvent e2{Campaign::kUMich, 500};
  archive.begin_scan(e1);
  EXPECT_THROW(archive.begin_scan(e2), std::logic_error);
}

TEST(Archive, ObservationBookkeeping) {
  ScanArchive archive;
  const CertId cert = archive.intern(make_cert_record(make_test_cert(30), {}));
  const std::size_t s0 = archive.begin_scan(ScanEvent{Campaign::kUMich, 100});
  const std::size_t s1 = archive.begin_scan(ScanEvent{Campaign::kRapid7, 200});
  archive.add_observation(s0, cert, 0x01020304, 7);
  archive.add_observation(s1, cert, 0x01020305, 7);
  archive.add_observation(s1, cert, 0x01020306, 8);
  EXPECT_EQ(archive.observation_count(), 3u);
  EXPECT_EQ(archive.scans()[s0].observations.size(), 1u);
  EXPECT_EQ(archive.scans()[s1].observations.size(), 2u);
  EXPECT_EQ(archive.scans()[s1].observations[0].device, 7u);
}

TEST(Archive, InsertScanPlacesByStart) {
  ScanArchive archive;
  const CertId cert = archive.intern(make_cert_record(make_test_cert(31), {}));
  archive.begin_scan(ScanEvent{Campaign::kUMich, 100});
  archive.begin_scan(ScanEvent{Campaign::kUMich, 300});
  const auto scan_at = [](util::UnixTime start) {
    return ScanData{ScanEvent{Campaign::kRapid7, start}, {}};
  };
  ScanData between = scan_at(200);
  between.observations = {{cert, 1, 1}, {cert, 2, 1}};
  EXPECT_EQ(archive.insert_scan(std::move(between)), 1u);
  EXPECT_EQ(archive.insert_scan(scan_at(50)), 0u);
  // A tie lands after the scan it ties with; a late start appends.
  EXPECT_EQ(archive.insert_scan(scan_at(300)), 4u);
  EXPECT_EQ(archive.insert_scan(scan_at(400)), 5u);
  ASSERT_EQ(archive.scans().size(), 6u);
  EXPECT_EQ(archive.scans()[0].event.start, 50);
  EXPECT_EQ(archive.scans()[1].event.start, 100);
  EXPECT_EQ(archive.scans()[2].event.start, 200);
  EXPECT_EQ(archive.scans()[2].observations.size(), 2u);
  EXPECT_EQ(archive.scans()[3].event.campaign, Campaign::kUMich);
  EXPECT_EQ(archive.scans()[4].event.campaign, Campaign::kRapid7);
  EXPECT_EQ(archive.scans()[5].event.start, 400);
  EXPECT_EQ(archive.observation_count(), 2u);
}

// --- lifetimes --------------------------------------------------------------------

TEST(Lifetimes, PaperSemantics) {
  ScanArchive archive;
  const CertId once = archive.intern(make_cert_record(make_test_cert(40), {}));
  const CertId spans = archive.intern(make_cert_record(make_test_cert(41), {}));
  const CertId unseen = archive.intern(make_cert_record(make_test_cert(42), {}));

  const util::UnixTime day = util::kSecondsPerDay;
  const std::size_t s0 = archive.begin_scan(ScanEvent{Campaign::kUMich, 0});
  const std::size_t s1 =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 7 * day});
  const std::size_t s2 =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 10 * day});
  archive.add_observation(s0, once, 1, 1);
  archive.add_observation(s0, spans, 2, 2);
  archive.add_observation(s1, spans, 2, 2);
  archive.add_observation(s2, spans, 2, 2);
  // `spans` also observed twice in one scan; must count once.
  archive.add_observation(s2, spans, 3, 2);

  const auto lifetimes = compute_lifetimes(archive);
  // Seen once => 1 day (the paper's rule).
  EXPECT_DOUBLE_EQ(lifetimes[once].days(archive.scans()), 1.0);
  EXPECT_EQ(lifetimes[once].scans_seen, 1u);
  // Seen on day 0 and day 10 => 11 days inclusive.
  EXPECT_DOUBLE_EQ(lifetimes[spans].days(archive.scans()), 11.0);
  EXPECT_EQ(lifetimes[spans].scans_seen, 3u);
  EXPECT_EQ(lifetimes[spans].first_scan, s0);
  EXPECT_EQ(lifetimes[spans].last_scan, s2);
  // Interned but never observed.
  EXPECT_EQ(lifetimes[unseen].scans_seen, 0u);
  EXPECT_DOUBLE_EQ(lifetimes[unseen].days(archive.scans()), 0.0);
}

}  // namespace
}  // namespace sm::scan
