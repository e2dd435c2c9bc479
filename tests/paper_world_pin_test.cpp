// The paper-size world's SMAR v2 bytes, pinned. WorldConfig::tiny()'s pin
// (simworld_parallel_test) reaches neither every vendor profile nor the
// long-form DER lengths the larger names and SAN lists produce; this one
// does, at one and at four threads. The §6 linking of that world (the
// survey's, at seed 1) is pinned the same way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "analysis/dataset.h"
#include "linking/linker.h"
#include "scan/archive_io.h"
#include "simworld/world.h"
#include "util/hex.h"
#include "util/sha256.h"
#include "util/thread_pool.h"

namespace sm::simworld {
namespace {

// SHA-256 of WorldConfig::paper()'s archive in SMAR v2 bytes, as the
// encode_* DER encoder (before DerWriter) and the portable SHA-256 produced
// it.
constexpr char kPaperArchiveSha256[] =
    "bcc3f15f2298813e5e9b374318b5e61cc8658d347c39241d00dd22a6644703c1";

TEST(PaperWorldPin, ArchiveBytesAtOneAndFourThreads) {
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    const WorldResult world = World(WorldConfig::paper(), &pool).run();
    std::ostringstream out;
    ASSERT_TRUE(scan::save_archive(world.archive, out));
    const std::string bytes = out.str();
    EXPECT_EQ(util::hex_encode(util::Sha256::digest(util::as_bytes(bytes))),
              kPaperArchiveSha256)
        << threads << " threads";
    EXPECT_EQ(world.dropped_lease_intervals, 0u) << threads << " threads";
  }
}

// WorldConfig::paper() at seed 1 (the world perfbench's survey measures):
// its linked-certificate count, and the SHA-256 of every
// evaluate_all_fields() row with its groups followed by the
// link_iteratively() order and groups, in the byte layout of
// `linking_bytes` below, as the linker produced them before fields were
// evaluated once at construction.
constexpr std::uint64_t kPaperLinkedCerts = 26571;
constexpr char kPaperLinkingSha256[] =
    "011c55ce9e2d6fadb3bbd2a78cf0c5f79a0c1c6645dbfcc6c8f83fd1e36e3b42";

void put(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  put(out, bits);
}

void put(std::string& out, const std::vector<linking::LinkedGroup>& groups) {
  put(out, std::uint64_t{groups.size()});
  for (const linking::LinkedGroup& group : groups) {
    put(out, static_cast<std::uint64_t>(group.feature));
    put(out, std::uint64_t{group.certs.size()});
    for (const scan::CertId id : group.certs) put(out, std::uint64_t{id});
  }
}

std::string linking_bytes(const std::vector<linking::FieldResult>& fields,
                          const linking::IterativeResult& linked) {
  std::string out;
  put(out, std::uint64_t{fields.size()});
  for (const linking::FieldResult& field : fields) {
    put(out, static_cast<std::uint64_t>(field.feature));
    put(out, field.total_linked);
    put(out, field.uniquely_linked);
    put(out, field.consistency.ip);
    put(out, field.consistency.slash24);
    put(out, field.consistency.as_level);
    put(out, field.groups);
  }
  put(out, std::uint64_t{linked.order.size()});
  for (const linking::Feature feature : linked.order) {
    put(out, static_cast<std::uint64_t>(feature));
  }
  put(out, linked.linked_certs);
  put(out, linked.groups);
  return out;
}

TEST(PaperWorldPin, LinkingAtOneAndFourThreads) {
  WorldConfig config = WorldConfig::paper();
  config.seed = 1;
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool pool(threads);
    const WorldResult world = World(config, &pool).run();
    const analysis::DatasetIndex index(world.archive, world.routing, &pool);
    const linking::Linker linker(index, {}, &pool);
    const linking::IterativeResult linked = linker.link_iteratively();
    EXPECT_EQ(linked.linked_certs, kPaperLinkedCerts) << threads << " threads";
    const std::string bytes =
        linking_bytes(linker.evaluate_all_fields(), linked);
    EXPECT_EQ(util::hex_encode(util::Sha256::digest(util::as_bytes(bytes))),
              kPaperLinkingSha256)
        << threads << " threads";
    // The ranked order, given explicitly, links the same groups.
    const linking::IterativeResult explicit_order =
        linker.link_iteratively(linked.order);
    EXPECT_EQ(explicit_order.linked_certs, linked.linked_certs);
    ASSERT_EQ(explicit_order.groups.size(), linked.groups.size());
    for (std::size_t g = 0; g < linked.groups.size(); ++g) {
      EXPECT_EQ(explicit_order.groups[g].feature, linked.groups[g].feature);
      EXPECT_EQ(explicit_order.groups[g].certs, linked.groups[g].certs);
    }
  }
}

}  // namespace
}  // namespace sm::simworld
