// Corruption harness for the binary archive loaders: exhaustive
// truncation (every prefix of a valid archive) and bit-flip sweeps (every
// bit of every byte). The contract under attack input is: return
// std::nullopt (the frame CRCs must catch *every* single-bit flip), never
// crash, never hang, never over-allocate. Run under ASan by
// scripts/tier1.sh.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "scan/archive_io.h"

namespace sm::scan {
namespace {

CertRecord small_record(std::uint64_t id) {
  CertRecord rec;
  for (int i = 0; i < 8; ++i) {
    rec.fingerprint[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  rec.key_fingerprint = 0x1000 + id;
  rec.subject_cn = "h" + std::to_string(id);
  rec.issuer_cn = "issuer";
  rec.issuer_dn = "CN=issuer";
  rec.serial_hex = "01";
  rec.not_before = 1000000000;
  rec.not_after = 2000000000;
  rec.san = {"dns:h.example"};
  rec.aki_hex = "aa";
  rec.crl_url = "http://c";
  rec.aia_url = "";
  rec.ocsp_url = "http://o";
  rec.policy_oid = "1.2";
  rec.raw_version = 2;
  rec.invalid_reason = pki::InvalidReason::kSelfSigned;
  return rec;
}

// Small on purpose: the sweeps are O(bits × parse), so keep the archive a
// few hundred bytes while still covering every frame type (header, two
// cert-bearing records, two scans, end marker).
ScanArchive small_archive() {
  ScanArchive archive;
  archive.intern(small_record(1));
  archive.intern(small_record(2));
  const std::size_t s0 =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 1000, 3600});
  const std::size_t s1 =
      archive.begin_scan(ScanEvent{Campaign::kRapid7, 2000, 3600});
  archive.add_observation(s0, 0, 0x0a000001, 0);
  archive.add_observation(s0, 1, 0x0a000002, 1);
  archive.add_observation(s1, 1, 0x0a000003, kNoDevice);
  return archive;
}

std::string serialize() {
  std::stringstream out;
  EXPECT_TRUE(save_archive(small_archive(), out));
  return out.str();
}

TEST(CorruptionSweep, EveryTruncationRejectedV2) {
  const std::string full = serialize();
  ASSERT_GT(full.size(), 100u);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream in(full.substr(0, cut));
    EXPECT_FALSE(load_archive(in).has_value()) << "cut=" << cut;
  }
  std::stringstream intact(full);
  EXPECT_TRUE(load_archive(intact).has_value());
}

TEST(CorruptionSweep, EveryBitFlipRejectedV2) {
  // Every frame is checksummed, so any single-bit corruption — in the magic,
  // a frame header, a payload, or a CRC itself — must yield nullopt.
  const std::string full = serialize();
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::stringstream in(mutated);
      EXPECT_FALSE(load_archive(in).has_value())
          << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(CorruptionSweep, StreamingReaderRejectsCorruptionV2) {
  const std::string full = serialize();
  // Truncations: the reader must fail by the end of the walk, never crash.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::stringstream in(full.substr(0, cut));
    ArchiveReader reader(in);
    if (!reader.ok()) continue;
    reader.for_each_cert(ArchiveReader::CertFn());
    reader.for_each_scan(ArchiveReader::ScanFn());
    EXPECT_FALSE(reader.finished()) << "cut=" << cut;
  }
  // Bit flips: same contract — a corrupted stream never finishes cleanly.
  for (std::size_t byte = 0; byte < full.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = full;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      std::stringstream in(mutated);
      ArchiveReader reader(in);
      if (reader.ok()) {
        reader.for_each_cert(ArchiveReader::CertFn());
        reader.for_each_scan(ArchiveReader::ScanFn());
      }
      EXPECT_FALSE(reader.finished()) << "byte=" << byte << " bit=" << bit;
    }
  }
}

TEST(CorruptionSweep, HostileLengthClaimsAreBounded) {
  // A frame that claims a huge payload on a tiny stream must fail fast
  // without allocating the claimed size (read_exact grows in chunks).
  std::string bytes;
  bytes += "SMAR";
  const std::uint32_t version = 2;
  bytes.append(reinterpret_cast<const char*>(&version), sizeof(version));
  bytes.push_back('H');
  const std::uint64_t huge = 1ull << 29;  // within kMaxFrameBytes, but absent
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes += "only a few actual bytes";
  std::stringstream in(bytes);
  EXPECT_FALSE(load_archive(in).has_value());

  // A retired v1 header claiming ~4 billion certs is rejected before any
  // allocation: the version check fails before the count is read.
  std::string v1;
  v1 += "SMAR";
  const std::uint32_t v1_version = 1;
  v1.append(reinterpret_cast<const char*>(&v1_version), sizeof(v1_version));
  const std::uint32_t bogus_count = 0xfffffffe;
  v1.append(reinterpret_cast<const char*>(&bogus_count), sizeof(bogus_count));
  std::stringstream v1_in(v1);
  EXPECT_FALSE(load_archive(v1_in).has_value());
  EXPECT_EQ(v1_in.tellg(), 8);  // magic + version; the count stays unread
}

}  // namespace
}  // namespace sm::scan
