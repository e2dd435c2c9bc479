// The paper-size world's SMAR v2 bytes, pinned. WorldConfig::tiny()'s pin
// (simworld_parallel_test) reaches neither every vendor profile nor the
// long-form DER lengths the larger names and SAN lists produce; this one
// does, at one and at four threads.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace sm::simworld
