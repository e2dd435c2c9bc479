// Tests for sm::net — address parsing, prefix math, LPM route tables,
// routing history, and the AS database.
#include <gtest/gtest.h>

#include "net/as_database.h"
#include "net/ipv4.h"
#include "net/route_table.h"
#include "util/prng.h"

namespace sm::net {
namespace {

// --- Ipv4Address ---------------------------------------------------------

TEST(Ipv4, ParseAndFormat) {
  const auto ip = Ipv4Address::parse("192.168.1.1");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->value(), 0xc0a80101u);
  EXPECT_EQ(ip->to_string(), "192.168.1.1");
  EXPECT_EQ(Ipv4Address(0).to_string(), "0.0.0.0");
  EXPECT_EQ(Ipv4Address(0xffffffff).to_string(), "255.255.255.255");
}

TEST(Ipv4, ParseRejectsGarbage) {
  for (const char* bad :
       {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3",
        "1.2.3.4 ", "01x.2.3.4", "1.2.3.1234"}) {
    EXPECT_FALSE(Ipv4Address::parse(bad).has_value()) << bad;
  }
}

TEST(Ipv4, FromOctets) {
  EXPECT_EQ(Ipv4Address::from_octets(10, 0, 0, 1).to_string(), "10.0.0.1");
}

TEST(Ipv4, LooksLikeIpv4) {
  EXPECT_TRUE(looks_like_ipv4("192.168.1.1"));
  EXPECT_FALSE(looks_like_ipv4("fritz.box"));
  EXPECT_FALSE(looks_like_ipv4("WD2GO 293822"));
}

TEST(Ipv4, PrivateRanges) {
  EXPECT_TRUE(is_private(*Ipv4Address::parse("10.1.2.3")));
  EXPECT_TRUE(is_private(*Ipv4Address::parse("172.16.0.1")));
  EXPECT_TRUE(is_private(*Ipv4Address::parse("172.31.255.255")));
  EXPECT_TRUE(is_private(*Ipv4Address::parse("192.168.99.1")));
  EXPECT_FALSE(is_private(*Ipv4Address::parse("172.32.0.1")));
  EXPECT_FALSE(is_private(*Ipv4Address::parse("8.8.8.8")));
}

// --- Prefix ------------------------------------------------------------------

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(*Ipv4Address::parse("192.168.1.77"), 24);
  EXPECT_EQ(p.to_string(), "192.168.1.0/24");
  EXPECT_TRUE(p.contains(*Ipv4Address::parse("192.168.1.1")));
  EXPECT_FALSE(p.contains(*Ipv4Address::parse("192.168.2.1")));
  EXPECT_EQ(p.size(), 256u);
}

TEST(Prefix, ParseAndRoundTrip) {
  const auto p = Prefix::parse("10.42.0.0/16");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "10.42.0.0/16");
  EXPECT_FALSE(Prefix::parse("10.42.0.0").has_value());
  EXPECT_FALSE(Prefix::parse("10.42.0.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("10.42.0.0/x").has_value());
}

TEST(Prefix, ZeroLengthCoversEverything) {
  const Prefix all(Ipv4Address(0), 0);
  EXPECT_TRUE(all.contains(Ipv4Address(0)));
  EXPECT_TRUE(all.contains(Ipv4Address(0xffffffff)));
  EXPECT_EQ(all.mask(), 0u);
}

TEST(Prefix, Slash8And24Helpers) {
  const Ipv4Address ip = *Ipv4Address::parse("93.184.216.34");
  EXPECT_EQ(slash8(ip).to_string(), "93.0.0.0/8");
  EXPECT_EQ(slash24(ip).to_string(), "93.184.216.0/24");
}

// --- RouteTable ----------------------------------------------------------------

TEST(RouteTable, LongestPrefixMatchWins) {
  RouteTable t;
  t.announce(*Prefix::parse("10.0.0.0/8"), 100);
  t.announce(*Prefix::parse("10.1.0.0/16"), 200);
  t.announce(*Prefix::parse("10.1.2.0/24"), 300);
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("10.9.9.9")), 100u);
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("10.1.9.9")), 200u);
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("10.1.2.3")), 300u);
  EXPECT_FALSE(t.lookup(*Ipv4Address::parse("11.0.0.1")).has_value());
  EXPECT_EQ(t.size(), 3u);
}

TEST(RouteTable, ReannounceOverwrites) {
  RouteTable t;
  const Prefix p = *Prefix::parse("20.0.0.0/16");
  t.announce(p, 1);
  t.announce(p, 2);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("20.0.1.1")), 2u);
}

TEST(RouteTable, HostRouteAndDefaultRoute) {
  RouteTable t;
  t.announce(Prefix(Ipv4Address(0), 0), 1);          // default
  t.announce(*Prefix::parse("5.6.7.8/32"), 2);       // host route
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("5.6.7.8")), 2u);
  EXPECT_EQ(t.lookup(*Ipv4Address::parse("5.6.7.9")), 1u);
}

TEST(RouteTable, EntriesRoundTrip) {
  RouteTable t;
  t.announce(*Prefix::parse("10.0.0.0/8"), 100);
  t.announce(*Prefix::parse("172.20.0.0/16"), 200);
  const auto entries = t.entries();
  EXPECT_EQ(entries.size(), 2u);
  RouteTable copy;
  for (const auto& [prefix, asn] : entries) copy.announce(prefix, asn);
  EXPECT_EQ(copy.lookup(*Ipv4Address::parse("10.3.4.5")), 100u);
  EXPECT_EQ(copy.lookup(*Ipv4Address::parse("172.20.1.1")), 200u);
}

TEST(RouteTable, RandomizedAgainstLinearScan) {
  util::Rng rng(123);
  RouteTable t;
  std::vector<std::pair<Prefix, Asn>> prefixes;
  for (int i = 0; i < 200; ++i) {
    const Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng())),
                   8 + static_cast<unsigned>(rng.below(17)));
    const Asn asn = static_cast<Asn>(1 + rng.below(1000));
    t.announce(p, asn);
    // Keep only the last announcement for duplicate prefixes, as the trie
    // does.
    bool replaced = false;
    for (auto& [existing, existing_asn] : prefixes) {
      if (existing == p) {
        existing_asn = asn;
        replaced = true;
        break;
      }
    }
    if (!replaced) prefixes.emplace_back(p, asn);
  }
  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address ip(static_cast<std::uint32_t>(rng()));
    std::optional<Asn> expected;
    unsigned best_len = 0;
    for (const auto& [prefix, asn] : prefixes) {
      if (prefix.contains(ip) &&
          (!expected.has_value() || prefix.length() >= best_len)) {
        if (!expected.has_value() || prefix.length() > best_len) {
          expected = asn;
          best_len = prefix.length();
        }
      }
    }
    EXPECT_EQ(t.lookup(ip), expected) << ip.to_string();
  }
}

// --- RoutingHistory ---------------------------------------------------------

TEST(RoutingHistory, SnapshotSelection) {
  RoutingHistory history;
  RouteTable before;
  before.announce(*Prefix::parse("10.0.0.0/16"), 19262);
  history.add_snapshot(1000, before);
  RouteTable after = before;
  after.announce(*Prefix::parse("10.0.0.0/16"), 701);  // prefix transfer
  history.add_snapshot(2000, after);

  const Ipv4Address ip = *Ipv4Address::parse("10.0.5.5");
  EXPECT_EQ(history.at(1500)->lookup(ip), 19262u);
  EXPECT_EQ(history.at(2000)->lookup(ip), 701u);
  EXPECT_EQ(history.at(99999)->lookup(ip), 701u);
  // Before the first snapshot, the earliest applies.
  EXPECT_EQ(history.at(0)->lookup(ip), 19262u);
}

TEST(RoutingHistory, EmptyReturnsNull) {
  const RoutingHistory history;
  EXPECT_EQ(history.at(123), nullptr);
}

// --- AsDatabase -----------------------------------------------------------------

TEST(AsDatabase, BasicLookup) {
  AsDatabase db;
  db.add(AsInfo{3320, "Deutsche Telekom AG", "DEU", AsType::kTransitAccess});
  ASSERT_NE(db.find(3320), nullptr);
  EXPECT_EQ(db.find(3320)->name, "Deutsche Telekom AG");
  EXPECT_EQ(db.type_of(3320), AsType::kTransitAccess);
  EXPECT_EQ(db.type_of(9999), AsType::kUnknown);
  EXPECT_EQ(db.label(3320), "#3320 Deutsche Telekom AG (DEU)");
  EXPECT_EQ(db.label(9999), "#9999 (unknown)");
}

}  // namespace
}  // namespace sm::net
