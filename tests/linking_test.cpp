// Tests for sm::linking — feature extraction and interning, the §6.2
// duplicate filter,
// the lifetime-overlap rule (including the paper's Figure 9 scenario),
// consistency evaluation, iterative linking, and ground-truth scoring.
#include <gtest/gtest.h>

#include <string>
#include <unordered_map>

#include "analysis/dataset.h"
#include "linking/feature.h"
#include "linking/feature_index.h"
#include "linking/linker.h"
#include "simworld/world.h"

namespace sm::linking {
namespace {

using scan::Campaign;
using scan::CertId;
using scan::CertRecord;
using scan::ScanArchive;
using scan::ScanEvent;

constexpr std::int64_t kDay = util::kSecondsPerDay;

// Builds a CertRecord with a unique fingerprint derived from `id`.
CertRecord make_record(std::uint64_t id) {
  CertRecord rec;
  for (int i = 0; i < 8; ++i) {
    rec.fingerprint[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  rec.fingerprint[15] = 0xAA;  // distinguish from default
  rec.key_fingerprint = 0x1000 + id;
  rec.subject_cn = "device-" + std::to_string(id);
  rec.issuer_cn = rec.subject_cn;
  rec.issuer_dn = "CN=" + rec.subject_cn;
  rec.serial_hex = "1";
  rec.not_before = util::make_date(2013, 1, 1);
  rec.not_after = util::make_date(2033, 1, 1);
  rec.valid = false;
  rec.invalid_reason = pki::InvalidReason::kSelfSigned;
  return rec;
}

/// A small test-world builder: scans 30 days apart, one /16 = one AS.
struct TestWorld {
  ScanArchive archive;
  net::RoutingHistory routing;

  TestWorld() {
    net::RouteTable table;
    // AS = second octet of 10.x/16 for easy control.
    for (std::uint32_t x = 0; x < 8; ++x) {
      table.announce(
          net::Prefix(net::Ipv4Address((10u << 24) | (x << 16)), 16), 100 + x);
    }
    routing.add_snapshot(0, table);
  }

  std::size_t add_scan(int day) {
    return archive.begin_scan(
        ScanEvent{Campaign::kUMich, day * kDay, 10 * 3600});
  }

  /// IP helper: 10.<as_octet>.0.<host>.
  static std::uint32_t ip(std::uint32_t as_octet, std::uint32_t host) {
    return (10u << 24) | (as_octet << 16) | host;
  }
};

// --- feature extraction ------------------------------------------------------

TEST(Feature, ValuesAndApplicability) {
  CertRecord rec = make_record(1);
  rec.san = {"dns:b", "dns:a"};
  rec.crl_url = "http://crl";
  rec.aia_url = "http://aia";
  rec.ocsp_url = "http://ocsp";
  rec.policy_oid = "1.2.3";
  EXPECT_FALSE(feature_value(rec, Feature::kPublicKey).empty());
  EXPECT_EQ(feature_value(rec, Feature::kCommonName), "device-1");
  EXPECT_EQ(feature_value(rec, Feature::kNotBefore),
            std::to_string(rec.not_before));
  EXPECT_EQ(feature_value(rec, Feature::kNotAfter),
            std::to_string(rec.not_after));
  EXPECT_EQ(feature_value(rec, Feature::kIssuerSerial), "CN=device-1#1");
  EXPECT_EQ(feature_value(rec, Feature::kSan), "dns:a|dns:b");
  EXPECT_EQ(feature_value(rec, Feature::kCrl), "http://crl");
  EXPECT_EQ(feature_value(rec, Feature::kAia), "http://aia");
  EXPECT_EQ(feature_value(rec, Feature::kOcsp), "http://ocsp");
  EXPECT_EQ(feature_value(rec, Feature::kOid), "1.2.3");
}

TEST(Feature, IpCommonNamesExcluded) {
  CertRecord rec = make_record(2);
  rec.subject_cn = "192.168.1.1";
  EXPECT_TRUE(feature_value(rec, Feature::kCommonName, true).empty());
  EXPECT_EQ(feature_value(rec, Feature::kCommonName, false), "192.168.1.1");
}

TEST(Feature, EmptyValuesNotApplicable) {
  CertRecord rec = make_record(3);
  rec.subject_cn.clear();
  EXPECT_TRUE(feature_value(rec, Feature::kCommonName).empty());
  EXPECT_TRUE(feature_value(rec, Feature::kSan).empty());
  EXPECT_TRUE(feature_value(rec, Feature::kCrl).empty());
}

TEST(Feature, Names) {
  EXPECT_EQ(to_string(Feature::kPublicKey), "Public Key");
  EXPECT_EQ(to_string(Feature::kIssuerSerial), "IN + SN");
  EXPECT_EQ(kAllFeatures.size(), 10u);
}

// --- feature interning ----------------------------------------------------------

// The key rules as plain strings: IN + SN is issuer_dn + "#" + serial_hex,
// SAN the record's sorted '|'-joined list.
TEST(Feature, ComposedKeysMatchTheirStringRules) {
  for (const auto& [issuer, serial] :
       std::vector<std::pair<std::string, std::string>>{
           {"a#b", "c"}, {"a", "b#c"}, {"", "x"}, {"x", ""}, {"", ""}}) {
    CertRecord rec = make_record(4);
    rec.issuer_dn = issuer;
    rec.serial_hex = serial;
    EXPECT_EQ(feature_value(rec, Feature::kIssuerSerial),
              issuer.empty() && serial.empty() ? "" : issuer + "#" + serial);
  }
  for (const std::vector<std::string>& san : std::vector<std::vector<std::string>>{
           {}, {""}, {"", ""}, {"|"}, {"a|b"}, {"b", "a"}, {"z", "a", "m", "a"}}) {
    CertRecord rec = make_record(5);
    rec.san = san;
    EXPECT_EQ(feature_value(rec, Feature::kSan), rec.san_joined());
  }
  CertRecord rec = make_record(6);
  rec.not_before = -kDay;
  EXPECT_EQ(feature_value(rec, Feature::kNotBefore), std::to_string(-kDay));
}

/// Interns `feature` over `certs` with feature_value strings as the keys,
/// ids in first-appearance order: the reference FeatureIndex must match.
std::vector<std::uint32_t> reference_column(const scan::CertTable& certs,
                                            const std::vector<bool>& include,
                                            Feature feature,
                                            bool exclude_ip_common_names) {
  std::vector<std::uint32_t> column(certs.size(), FeatureIndex::kNoValue);
  std::unordered_map<std::string, std::uint32_t> ids;
  for (CertId id = 0; id < certs.size(); ++id) {
    if (!include[id]) continue;
    const std::string value =
        feature_value(certs[id], feature, exclude_ip_common_names);
    if (value.empty()) continue;
    column[id] = ids.emplace(value, static_cast<std::uint32_t>(ids.size()))
                     .first->second;
  }
  return column;
}

void expect_index_matches_strings(const scan::CertTable& certs,
                                  const std::vector<bool>& include) {
  for (const bool exclude_ip : {true, false}) {
    const FeatureIndex index(certs, include, exclude_ip);
    for (const Feature feature : kAllFeatures) {
      EXPECT_EQ(index.column(feature),
                reference_column(certs, include, feature, exclude_ip))
          << to_string(feature) << " exclude_ip_common_names=" << exclude_ip;
      // The CSR lists hold exactly the column's members, ascending.
      std::vector<std::vector<CertId>> members(index.value_count(feature));
      for (CertId id = 0; id < certs.size(); ++id) {
        const std::uint32_t v = index.value_id(feature, id);
        if (v != FeatureIndex::kNoValue) members[v].push_back(id);
      }
      for (std::uint32_t v = 0; v < members.size(); ++v) {
        const FeatureIndex::CertSpan span = index.certs_with_value(feature, v);
        EXPECT_EQ(std::vector<CertId>(span.begin(), span.end()), members[v]);
      }
    }
  }
}

TEST(FeatureIndex, KeysEqualTheirStrings) {
  scan::CertTable certs;
  const auto add = [&](const auto& edit) {
    CertRecord rec = make_record(certs.size());
    edit(rec);
    certs.push_back(rec);
  };
  // IN + SN: the '#' inside a name or serial makes these two one value.
  add([](CertRecord& r) { r.issuer_dn = "a#b"; r.serial_hex = "c"; });
  add([](CertRecord& r) { r.issuer_dn = "a"; r.serial_hex = "b#c"; });
  add([](CertRecord& r) { r.issuer_dn = ""; r.serial_hex = "x"; });
  add([](CertRecord& r) { r.issuer_dn = "x"; r.serial_hex = ""; });
  // SAN: a '|' inside an entry, unsorted lists, empty entries.
  add([](CertRecord& r) { r.san = {"a|b"}; });
  add([](CertRecord& r) { r.san = {"a", "b"}; });
  add([](CertRecord& r) { r.san = {"b", "a"}; });
  add([](CertRecord& r) { r.san = {"dns:z", "dns:a", "dns:m"}; });
  add([](CertRecord& r) { r.san = {"dns:m", "dns:z", "dns:a"}; });
  add([](CertRecord& r) { r.san = {""}; });
  add([](CertRecord& r) { r.san = {"", ""}; });
  add([](CertRecord& r) { r.san = {"|"}; });
  // IPv4-looking Common Names, excluded or not.
  add([](CertRecord& r) { r.subject_cn = "10.0.0.1"; });
  add([](CertRecord& r) { r.subject_cn = "10.0.0.1"; });
  add([](CertRecord& r) { r.subject_cn = "10.0.0.256"; });
  // Empty fields everywhere.
  add([](CertRecord& r) {
    r.subject_cn.clear();
    r.issuer_dn.clear();
    r.serial_hex.clear();
    r.san.clear();
  });
  // Negative and shared validity bounds, a shared key, shared URLs.
  add([](CertRecord& r) { r.not_before = -kDay; r.not_after = -1; });
  add([](CertRecord& r) { r.not_before = -kDay; r.key_fingerprint = 0x1000; });
  add([](CertRecord& r) { r.not_before = 1; });
  add([](CertRecord& r) { r.not_before = 1 + (std::int64_t{1} << 32); });
  add([](CertRecord& r) { r.crl_url = r.aia_url = r.ocsp_url = "u"; });
  add([](CertRecord& r) { r.crl_url = r.ocsp_url = r.policy_oid = "u"; });
  std::vector<bool> include(certs.size(), true);
  expect_index_matches_strings(certs, include);
  // Excluded certificates get no value and do not shift first appearance.
  include[0] = include[5] = include[12] = false;
  expect_index_matches_strings(certs, include);

  const FeatureIndex index(certs, std::vector<bool>(certs.size(), true),
                           true);
  EXPECT_EQ(index.value_id(Feature::kIssuerSerial, 0),
            index.value_id(Feature::kIssuerSerial, 1));
  EXPECT_EQ(index.value_id(Feature::kSan, 4), index.value_id(Feature::kSan, 5));
  EXPECT_EQ(index.value_id(Feature::kSan, 5), index.value_id(Feature::kSan, 6));
  EXPECT_EQ(index.value_id(Feature::kSan, 10),
            index.value_id(Feature::kSan, 11));
  EXPECT_EQ(index.value_id(Feature::kSan, 9), FeatureIndex::kNoValue);
  EXPECT_EQ(index.value_id(Feature::kCommonName, 12), FeatureIndex::kNoValue);
}

TEST(FeatureIndex, KeysEqualTheirStringsOnTheTinyWorld) {
  const simworld::WorldResult world =
      simworld::World(simworld::WorldConfig::tiny()).run();
  const scan::CertTable& certs = world.archive.certs();
  std::vector<bool> include(certs.size(), true);
  expect_index_matches_strings(certs, include);
  for (CertId id = 0; id < certs.size(); id += 3) include[id] = false;
  expect_index_matches_strings(certs, include);
}

// --- §6.2 duplicate filter -----------------------------------------------------

TEST(DuplicateFilter, ExcludesManyIpCerts) {
  TestWorld w;
  const CertId shared = w.archive.intern(make_record(1));
  const CertId normal = w.archive.intern(make_record(2));
  const std::size_t s0 = w.add_scan(0);
  // `shared` on three IPs in one scan; `normal` on one.
  w.archive.add_observation(s0, shared, TestWorld::ip(0, 1), 1);
  w.archive.add_observation(s0, shared, TestWorld::ip(0, 2), 2);
  w.archive.add_observation(s0, shared, TestWorld::ip(0, 3), 3);
  w.archive.add_observation(s0, normal, TestWorld::ip(0, 4), 4);
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  EXPECT_FALSE(linker.eligible()[shared]);
  EXPECT_TRUE(linker.eligible()[normal]);
  EXPECT_EQ(linker.eligible_count(), 1u);
}

TEST(DuplicateFilter, TwoIpsOnceIsAllowed) {
  // A device that changed IP mid-scan: two IPs in one scan, one in the next.
  TestWorld w;
  const CertId cert = w.archive.intern(make_record(1));
  const std::size_t s0 = w.add_scan(0);
  const std::size_t s1 = w.add_scan(30);
  w.archive.add_observation(s0, cert, TestWorld::ip(0, 1), 1);
  w.archive.add_observation(s0, cert, TestWorld::ip(0, 2), 1);
  w.archive.add_observation(s1, cert, TestWorld::ip(0, 3), 1);
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  EXPECT_TRUE(linker.eligible()[cert]);
}

TEST(DuplicateFilter, TwoIpsInEveryScanExcluded) {
  // Exactly two IPs in *every* scan strongly suggests two devices share the
  // certificate (the paper's footnote 11).
  TestWorld w;
  const CertId cert = w.archive.intern(make_record(1));
  for (int day : {0, 30, 60}) {
    const std::size_t s = w.add_scan(day);
    w.archive.add_observation(s, cert, TestWorld::ip(0, 1), 1);
    w.archive.add_observation(s, cert, TestWorld::ip(0, 2), 2);
  }
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  EXPECT_FALSE(linker.eligible()[cert]);
}

TEST(DuplicateFilter, ValidCertsNotEligible) {
  TestWorld w;
  CertRecord valid = make_record(1);
  valid.valid = true;
  valid.invalid_reason = pki::InvalidReason::kNone;
  const CertId cert = w.archive.intern(valid);
  const std::size_t s0 = w.add_scan(0);
  w.archive.add_observation(s0, cert, TestWorld::ip(0, 1), 1);
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  EXPECT_FALSE(linker.eligible()[cert]);
}

// --- Figure 9: the lifetime-overlap rule -----------------------------------------

class Figure9 : public ::testing::Test {
 protected:
  // Reproduces the paper's Figure 9 exactly:
  //  * PK1: cert1 (scans 0-1, IP a), cert2 (scans 1-3, IP b) — the pair
  //    overlaps on exactly one scan: linkable.
  //  * PK2: cert3 (scans 0-1), cert4 (scans 1-3), cert5 (scan 3) across
  //    three IPs — all pairwise overlaps <= 1 scan: linkable.
  //  * PK3: cert6 (scans 0-2, IP e), cert7 (scans 1-3, IP f) — overlap on
  //    two scans: NOT linkable.
  void SetUp() override {
    for (std::uint64_t i = 1; i <= 7; ++i) {
      CertRecord rec = make_record(i);
      rec.key_fingerprint = i <= 2 ? 0x111u : (i <= 5 ? 0x222u : 0x333u);
      certs_.push_back(w_.archive.intern(rec));
    }
    const std::size_t s0 = w_.add_scan(0);
    const std::size_t s1 = w_.add_scan(30);
    const std::size_t s2 = w_.add_scan(60);
    const std::size_t s3 = w_.add_scan(90);
    const auto obs = [&](std::size_t scan, std::uint64_t cert,
                         std::uint32_t host, scan::DeviceId device) {
      w_.archive.add_observation(scan, certs_[cert - 1],
                                 TestWorld::ip(0, host), device);
    };
    // PK1 group: one IP at a time, no overlap beyond a single scan.
    obs(s0, 1, 1, 10);
    obs(s1, 1, 1, 10);
    obs(s1, 2, 2, 10);
    obs(s2, 2, 2, 10);
    obs(s3, 2, 2, 10);
    // PK2 group: certs 3 and 4 overlap on exactly scan s1.
    obs(s0, 3, 3, 11);
    obs(s1, 3, 3, 11);
    obs(s1, 4, 4, 11);
    obs(s2, 4, 4, 11);
    obs(s3, 5, 5, 11);
    // PK3 group: certs 6 and 7 overlap on scans s1 and s2.
    obs(s0, 6, 6, 12);
    obs(s1, 6, 6, 12);
    obs(s2, 6, 6, 12);
    obs(s1, 7, 7, 13);
    obs(s2, 7, 7, 13);
    obs(s3, 7, 7, 13);
    index_.emplace(w_.archive, w_.routing);
    linker_.emplace(*index_);
  }

  TestWorld w_;
  std::vector<CertId> certs_;
  std::optional<analysis::DatasetIndex> index_;
  std::optional<Linker> linker_;
};

TEST_F(Figure9, LinksPk1AndPk2ButNotPk3) {
  const FieldResult result =
      linker_->link_field(Feature::kPublicKey, linker_->eligible());
  ASSERT_EQ(result.groups.size(), 2u);
  std::set<std::set<CertId>> groups;
  for (const LinkedGroup& group : result.groups) {
    groups.insert(std::set<CertId>(group.certs.begin(), group.certs.end()));
  }
  EXPECT_TRUE(groups.contains({certs_[0], certs_[1]}));
  EXPECT_TRUE(groups.contains({certs_[2], certs_[3], certs_[4]}));
  EXPECT_EQ(result.total_linked, 5u);
}

TEST_F(Figure9, OverlapThresholdZeroRejectsPk2Pair) {
  // With no overlap tolerance, cert pairs sharing one scan break apart.
  LinkerConfig config;
  config.max_overlap_scans = 0;
  const Linker strict(*index_, config);
  const FieldResult result =
      strict.link_field(Feature::kPublicKey, strict.eligible());
  // PK1's certs overlap on s1, PK2's on s1 — both rejected. Only cert5
  // remains single (no group).
  EXPECT_EQ(result.groups.size(), 0u);
}

TEST_F(Figure9, OverlapThresholdTwoAcceptsPk3) {
  LinkerConfig config;
  config.max_overlap_scans = 2;
  const Linker lax(*index_, config);
  const FieldResult result =
      lax.link_field(Feature::kPublicKey, lax.eligible());
  EXPECT_EQ(result.groups.size(), 3u);
}

TEST_F(Figure9, ConsistencyOfPk2GroupMatchesPaperExample) {
  // The paper's worked example: PK2 observed on 4 scans; modal IP appears
  // twice (cert3's and cert4's IPs each twice... here IPs 3,3,4,4,5 over
  // scans s0..s3 with s1 counting both 3 and 4).
  const FieldResult result =
      linker_->link_field(Feature::kPublicKey, linker_->eligible());
  for (const LinkedGroup& group : result.groups) {
    const Consistency c = linker_->group_consistency(group);
    EXPECT_GT(c.ip, 0.0);
    EXPECT_LE(c.ip, 1.0);
    EXPECT_GE(c.slash24, c.ip);
    EXPECT_GE(c.as_level, c.slash24);
    // All IPs share 10.0/16: AS-level consistency must be perfect.
    EXPECT_DOUBLE_EQ(c.as_level, 1.0);
  }
}

TEST_F(Figure9, TruthScoringFlagsBadLinks) {
  // Force PK3 into a group via a lax config: its two certs belong to
  // different true devices (12 and 13), so precision must drop.
  LinkerConfig config;
  config.max_overlap_scans = 2;
  const Linker lax(*index_, config);
  const IterativeResult result =
      lax.link_iteratively({Feature::kPublicKey});
  const TruthScore score = lax.score_against_truth(result);
  EXPECT_GT(score.linked_pairs, score.correct_pairs);
  EXPECT_LT(score.precision(), 1.0);
  // The default (paper) config links only true pairs here.
  const IterativeResult good = linker_->link_iteratively({Feature::kPublicKey});
  const TruthScore good_score = linker_->score_against_truth(good);
  EXPECT_DOUBLE_EQ(good_score.precision(), 1.0);
}

// --- consistency levels ----------------------------------------------------------

TEST(Consistency, DynamicIpStableAsShape) {
  // A device reissuing per scan from a German-style ISP: new IP every scan,
  // same AS — the Public Key row of Table 6.
  TestWorld w;
  std::vector<CertId> certs;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    CertRecord rec = make_record(i);
    rec.key_fingerprint = 0x5AFE;  // same device key
    certs.push_back(w.archive.intern(rec));
  }
  for (int i = 0; i < 4; ++i) {
    const std::size_t s = w.add_scan(i * 30);
    w.archive.add_observation(
        s, certs[static_cast<std::size_t>(i)],
        TestWorld::ip(2, static_cast<std::uint32_t>(i + 1)), 7);
  }
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  const FieldResult result =
      linker.link_field(Feature::kPublicKey, linker.eligible());
  ASSERT_EQ(result.groups.size(), 1u);
  const Consistency c = linker.group_consistency(result.groups[0]);
  EXPECT_DOUBLE_EQ(c.ip, 0.25);       // four distinct IPs over four scans
  EXPECT_DOUBLE_EQ(c.as_level, 1.0);  // one AS throughout
}

// --- iterative linking --------------------------------------------------------------

TEST(Iterative, RemovesLinkedCertsBetweenFields) {
  // Certs share both a key and a CN; iterative linking must count them once.
  TestWorld w;
  std::vector<CertId> certs;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    CertRecord rec = make_record(i);
    rec.key_fingerprint = 0xABC;
    rec.subject_cn = "shared-name";
    certs.push_back(w.archive.intern(rec));
  }
  for (int i = 0; i < 3; ++i) {
    const std::size_t s = w.add_scan(i * 30);
    w.archive.add_observation(s, certs[static_cast<std::size_t>(i)],
                              TestWorld::ip(0, 1), 5);
  }
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  const IterativeResult result = linker.link_iteratively(
      {Feature::kPublicKey, Feature::kCommonName});
  EXPECT_EQ(result.groups.size(), 1u);
  EXPECT_EQ(result.linked_certs, 3u);
}

TEST(Iterative, DefaultOrderExcludesWeakFields) {
  TestWorld w;
  const CertId cert = w.archive.intern(make_record(1));
  const std::size_t s0 = w.add_scan(0);
  w.archive.add_observation(s0, cert, TestWorld::ip(0, 1), 1);
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  const IterativeResult result = linker.link_iteratively();
  for (const Feature feature : result.order) {
    EXPECT_NE(feature, Feature::kNotBefore);
    EXPECT_NE(feature, Feature::kNotAfter);
    EXPECT_NE(feature, Feature::kIssuerSerial);
  }
}

// --- Table 5 -------------------------------------------------------------------------

TEST(FeatureUniqueness, CountsSharedValues) {
  TestWorld w;
  CertRecord a = make_record(1);
  CertRecord b = make_record(2);
  CertRecord c = make_record(3);
  a.subject_cn = b.subject_cn = "same";
  c.subject_cn = "different";
  const CertId ia = w.archive.intern(a);
  const CertId ib = w.archive.intern(b);
  const CertId ic = w.archive.intern(c);
  const std::size_t s0 = w.add_scan(0);
  w.archive.add_observation(s0, ia, TestWorld::ip(0, 1), 1);
  w.archive.add_observation(s0, ib, TestWorld::ip(0, 2), 2);
  w.archive.add_observation(s0, ic, TestWorld::ip(0, 3), 3);
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  const auto rows = linker.feature_uniqueness();
  for (const FeatureUniqueness& row : rows) {
    if (row.feature == Feature::kCommonName) {
      EXPECT_EQ(row.applicable, 3u);
      EXPECT_EQ(row.non_unique, 2u);
      EXPECT_NEAR(row.non_unique_fraction(), 2.0 / 3.0, 1e-9);
    }
  }
}

// --- §6.4.4 --------------------------------------------------------------------------

TEST(LinkingGain, MergingReducesSingleScanFraction) {
  TestWorld w;
  // Three single-scan certs from one device (linkable by key) + one
  // single-scan cert from another device (unlinkable).
  std::vector<CertId> certs;
  for (std::uint64_t i = 1; i <= 4; ++i) {
    CertRecord rec = make_record(i);
    if (i <= 3) rec.key_fingerprint = 0x77;
    certs.push_back(w.archive.intern(rec));
  }
  for (int i = 0; i < 3; ++i) {
    const std::size_t s = w.add_scan(i * 30);
    w.archive.add_observation(s, certs[static_cast<std::size_t>(i)],
                              TestWorld::ip(0, 1), 5);
    if (i == 0) {
      w.archive.add_observation(s, certs[3], TestWorld::ip(0, 9), 6);
    }
  }
  const analysis::DatasetIndex index(w.archive, w.routing);
  const Linker linker(index);
  const IterativeResult result =
      linker.link_iteratively({Feature::kPublicKey});
  const LinkingGain gain = linker.compare_with_original(result);
  EXPECT_EQ(gain.eligible_certs, 4u);
  EXPECT_DOUBLE_EQ(gain.single_scan_fraction_before, 1.0);
  // After linking: one 61-day entity + one single-scan entity.
  EXPECT_EQ(gain.entities_after, 2u);
  EXPECT_DOUBLE_EQ(gain.single_scan_fraction_after, 0.5);
  EXPECT_GT(gain.mean_lifetime_after_days, gain.mean_lifetime_before_days);
}

}  // namespace
}  // namespace sm::linking
