// Tests for sm::scan archive persistence — SMAR v2 binary and TSV
// round-trips, hostile-string (adversarial) round-trip properties, format
// limit enforcement, v2 byte-format pinning, rejection of retired v1
// bytes, parallel determinism, trailing-garbage detection, the streaming
// ArchiveReader, and a full simulated-world round-trip. The
// truncation/bit-flip corruption sweeps live in
// archive_corruption_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "scan/archive_io.h"
#include "simworld/world.h"
#include "smar_v1_fixture.h"
#include "util/crc32.h"
#include "util/thread_pool.h"

namespace sm::scan {
namespace {

CertRecord sample_record(std::uint64_t id) {
  CertRecord rec;
  for (int i = 0; i < 8; ++i) {
    rec.fingerprint[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(id >> (8 * i));
  }
  rec.fingerprint[12] = 0xDD;
  rec.key_fingerprint = 0xABCD0000 + id;
  rec.subject_cn = "host-" + std::to_string(id);
  rec.issuer_cn = "issuer with\ttab and\nnewline and % percent";
  rec.issuer_dn = "CN=" + rec.issuer_cn;
  rec.serial_hex = "deadbeef";
  rec.not_before = util::make_date(2013, 4, 1);
  rec.not_after = util::make_date(2033, 4, 1);
  rec.san = {"dns:a.example", "ip:192.168.1.1"};
  rec.aki_hex = "00aa11bb";
  rec.crl_url = "http://crl.example/x.crl";
  rec.aia_url = "http://ca.example/ca.crt";
  rec.ocsp_url = "http://ocsp.example";
  rec.policy_oid = "1.3.6.1.4.1.99999.2.1";
  rec.raw_version = 2;
  rec.is_ca = (id % 2) == 0;
  rec.valid = (id % 3) == 0;
  rec.transvalid = (id % 3) == 0 && (id % 2) == 1;
  rec.invalid_reason =
      rec.valid ? pki::InvalidReason::kNone : pki::InvalidReason::kSelfSigned;
  return rec;
}

// A record whose every string field attacks the TSV escaping: embedded
// delimiters, escape sequences that must not double-decode, and SAN
// entries containing the '|' join character, tabs, newlines, percent
// signs, and emptiness.
CertRecord hostile_record(std::uint64_t id) {
  CertRecord rec = sample_record(id);
  rec.fingerprint[15] = static_cast<std::uint8_t>(0xA0 + id);
  rec.subject_cn = "a|b\tc\nd%e%7cf";
  rec.issuer_cn = "%";
  rec.issuer_dn = "";
  rec.serial_hex = "%25%09%0a";
  rec.san = {"", "dns:pipe|inside", "tab\tentry", "line\nentry",
             "pct%entry", "%7c", "|", "trailing|"};
  rec.aki_hex = "aki\twith\ttabs|and%pipes\n";
  rec.crl_url = "||";
  rec.aia_url = "%%";
  rec.ocsp_url = "\t\n%|";
  rec.policy_oid = "1.2.3";
  return rec;
}

ScanArchive sample_archive() {
  ScanArchive archive;
  for (std::uint64_t i = 1; i <= 5; ++i) archive.intern(sample_record(i));
  const std::size_t s0 =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 1000, 36000});
  const std::size_t s1 =
      archive.begin_scan(ScanEvent{Campaign::kRapid7, 700000, 36000});
  archive.add_observation(s0, 0, 0x0a000001, 1);
  archive.add_observation(s0, 1, 0x0a000002, 2);
  archive.add_observation(s1, 0, 0x0a000003, 1);
  archive.add_observation(s1, 4, 0x0a000004, kNoDevice);
  return archive;
}

ScanArchive hostile_archive() {
  ScanArchive archive;
  for (std::uint64_t i = 1; i <= 4; ++i) archive.intern(hostile_record(i));
  CertRecord empty_san = sample_record(50);
  empty_san.san.clear();  // must stay distinct from {""}
  archive.intern(empty_san);
  CertRecord one_empty_san = sample_record(51);
  one_empty_san.san = {""};
  archive.intern(one_empty_san);
  const std::size_t s0 =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 2000, 36000});
  for (CertId c = 0; c < 6; ++c) archive.add_observation(s0, c, 100 + c, c);
  return archive;
}

void expect_equal(const ScanArchive& a, const ScanArchive& b) {
  ASSERT_EQ(a.certs().size(), b.certs().size());
  for (std::size_t i = 0; i < a.certs().size(); ++i) {
    const CertRecord& x = a.certs()[i];
    const CertRecord& y = b.certs()[i];
    EXPECT_EQ(x.fingerprint, y.fingerprint);
    EXPECT_EQ(x.key_fingerprint, y.key_fingerprint);
    EXPECT_EQ(x.subject_cn, y.subject_cn);
    EXPECT_EQ(x.issuer_cn, y.issuer_cn);
    EXPECT_EQ(x.issuer_dn, y.issuer_dn);
    EXPECT_EQ(x.serial_hex, y.serial_hex);
    EXPECT_EQ(x.not_before, y.not_before);
    EXPECT_EQ(x.not_after, y.not_after);
    EXPECT_EQ(x.san, y.san);
    EXPECT_EQ(x.aki_hex, y.aki_hex);
    EXPECT_EQ(x.crl_url, y.crl_url);
    EXPECT_EQ(x.aia_url, y.aia_url);
    EXPECT_EQ(x.ocsp_url, y.ocsp_url);
    EXPECT_EQ(x.policy_oid, y.policy_oid);
    EXPECT_EQ(x.raw_version, y.raw_version);
    EXPECT_EQ(x.is_ca, y.is_ca);
    EXPECT_EQ(x.valid, y.valid);
    EXPECT_EQ(x.transvalid, y.transvalid);
    EXPECT_EQ(x.invalid_reason, y.invalid_reason);
  }
  ASSERT_EQ(a.scans().size(), b.scans().size());
  for (std::size_t s = 0; s < a.scans().size(); ++s) {
    EXPECT_EQ(a.scans()[s].event, b.scans()[s].event);
    ASSERT_EQ(a.scans()[s].observations.size(),
              b.scans()[s].observations.size());
    for (std::size_t i = 0; i < a.scans()[s].observations.size(); ++i) {
      const Observation& x = a.scans()[s].observations[i];
      const Observation& y = b.scans()[s].observations[i];
      EXPECT_EQ(x.cert, y.cert);
      EXPECT_EQ(x.ip, y.ip);
      EXPECT_EQ(x.device, y.device);
    }
  }
}

std::string save_to_string(const ScanArchive& archive) {
  std::stringstream buffer;
  EXPECT_TRUE(save_archive(archive, buffer));
  return buffer.str();
}

// A saved sample_archive() with `value` written at `offset` into the
// payload of frame `index` (0 = header, 1 = the cert frame, then one per
// scan) and that frame re-checksummed, so only the loader's own checks —
// not the CRC — can reject it.
template <typename T>
std::string patched_sample(std::size_t index, std::size_t offset, T value) {
  std::string bytes = save_to_string(sample_archive());
  std::size_t at = 8;  // magic + version
  std::uint64_t size = 0;
  for (std::size_t i = 0;; ++i) {
    std::memcpy(&size, bytes.data() + at + 1, sizeof(size));
    if (i == index) break;
    at += 1 + sizeof(size) + size + sizeof(std::uint32_t);
  }
  char* payload = bytes.data() + at + 1 + sizeof(size);
  std::memcpy(payload + offset, &value, sizeof(value));
  const std::uint32_t crc = util::crc32(std::string_view(payload, size));
  std::memcpy(payload + size, &crc, sizeof(crc));
  return bytes;
}

bool loads(const std::string& bytes) {
  std::stringstream in(bytes);
  return load_archive(in).has_value();
}

// --- binary ------------------------------------------------------------------

TEST(BinaryFormat, RoundTrip) {
  const ScanArchive original = sample_archive();
  std::stringstream buffer;
  ASSERT_TRUE(save_archive(original, buffer));
  const auto loaded = load_archive(buffer);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);
}

TEST(BinaryFormat, HostileStringsRoundTrip) {
  const ScanArchive original = hostile_archive();
  std::stringstream buffer(save_to_string(original));
  const auto loaded = load_archive(buffer);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);
}

TEST(BinaryFormat, EmptyArchiveRoundTrip) {
  const ScanArchive empty;
  std::stringstream buffer(save_to_string(empty));
  const auto loaded = load_archive(buffer);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_TRUE(loaded->certs().empty());
  EXPECT_TRUE(loaded->scans().empty());
}

TEST(BinaryFormat, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOPE" << std::string(64, '\0');
  EXPECT_FALSE(load_archive(buffer).has_value());
}

TEST(BinaryFormat, RejectsUnsupportedVersion) {
  std::stringstream buffer;
  buffer << "SMAR";
  const std::uint32_t version = 3;
  buffer.write(reinterpret_cast<const char*>(&version), sizeof(version));
  buffer << std::string(64, '\0');
  EXPECT_FALSE(load_archive(buffer).has_value());
}

TEST(BinaryFormat, RejectsTruncation) {
  const std::string full = save_to_string(sample_archive());
  // Truncate at several points; none may crash, all must fail cleanly.
  // (The exhaustive sweep lives in archive_corruption_test.cpp.)
  for (const std::size_t cut :
       {std::size_t{3}, std::size_t{10}, full.size() / 2, full.size() - 3}) {
    std::stringstream cut_buffer(full.substr(0, cut));
    EXPECT_FALSE(load_archive(cut_buffer).has_value()) << "cut=" << cut;
  }
}

TEST(BinaryFormat, RejectsOutOfRangeCertIndex) {
  // Scan 1's second observation (frame 3, after the 25-byte scan header
  // and one 12-byte observation) may name cert 4 but not cert 5.
  EXPECT_TRUE(loads(patched_sample<CertId>(3, 25 + 12, 4)));
  EXPECT_FALSE(loads(patched_sample<CertId>(3, 25 + 12, 5)));
}

TEST(BinaryFormat, FileRoundTrip) {
  const ScanArchive original = sample_archive();
  const std::string path = "/tmp/sm_archive_io_test.smar";
  ASSERT_TRUE(save_archive_file(original, path));
  const auto loaded = load_archive_file(path);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(original, *loaded);
  EXPECT_FALSE(load_archive_file("/tmp/does-not-exist.smar").has_value());
}

TEST(BinaryFormat, EmbeddedArchiveLeavesRemainderReadable) {
  // world_io embeds archives in a larger stream: the loader must consume
  // exactly the archive's bytes.
  std::stringstream buffer(save_to_string(sample_archive()) + "REMAINDER");
  const auto loaded = load_archive(buffer);
  ASSERT_TRUE(loaded.has_value());
  std::string rest;
  buffer >> rest;
  EXPECT_EQ(rest, "REMAINDER");
}

TEST(BinaryFormat, ReportsTrailingBytes) {
  std::stringstream clean(save_to_string(sample_archive()));
  ArchiveLoadReport report;
  ASSERT_TRUE(load_archive(clean, &report).has_value());
  EXPECT_FALSE(report.trailing_bytes);

  std::stringstream tail(save_to_string(sample_archive()) + "x");
  ArchiveLoadReport tail_report;
  ASSERT_TRUE(load_archive(tail, &tail_report).has_value());
  EXPECT_TRUE(tail_report.trailing_bytes);
}

TEST(BinaryFormat, FileLoadRejectsTrailingGarbage) {
  const std::string path = "/tmp/sm_archive_io_trailing.smar";
  std::ofstream out(path, std::ios::binary);
  const std::string bytes = save_to_string(sample_archive());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out << "trailing garbage";
  out.close();
  EXPECT_FALSE(load_archive_file(path).has_value());
}

TEST(BinaryFormat, SaveRejectsOverLimitSanCount) {
  // A SAN list beyond the format limit must fail the save loudly instead
  // of writing a file the loader would reject.
  ScanArchive archive;
  CertRecord rec = sample_record(1);
  rec.san.assign((1u << 16) + 1, "x");
  archive.intern(rec);
  std::stringstream buffer;
  EXPECT_FALSE(save_archive(archive, buffer));
  const std::string path = "/tmp/sm_archive_io_overlimit.smar";
  EXPECT_FALSE(save_archive_file(archive, path));
}

TEST(BinaryFormat, RejectsNonChronologicalScans) {
  // Scan 1 (frame 3; its start follows the campaign byte) may start after
  // scan 0's t=1000 but not before it (that used to throw out of
  // begin_scan).
  EXPECT_TRUE(loads(patched_sample<util::UnixTime>(3, 1, 1001)));
  EXPECT_FALSE(loads(patched_sample<util::UnixTime>(3, 1, 999)));
}

// --- binary: golden bytes ----------------------------------------------------

// The golden archive: one plain record, one whose strings carry every
// character the TSV escaping treats specially, and one scan.
ScanArchive golden_archive() {
  ScanArchive archive;
  CertRecord rec;
  rec.fingerprint = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  rec.key_fingerprint = 0x1122334455667788ull;
  rec.subject_cn = "device.local";
  rec.issuer_cn = "192.168.1.1";
  rec.issuer_dn = "CN=192.168.1.1";
  rec.serial_hex = "0badc0de";
  rec.not_before = 1370000000;
  rec.not_after = 2000000000;
  rec.san = {"dns:device.local", "ip:10.0.0.1"};
  rec.aki_hex = "a1b2";
  rec.crl_url = "http://crl.example/c.crl";
  rec.aia_url = "";
  rec.ocsp_url = "http://ocsp.example";
  rec.policy_oid = "1.2.3.4";
  rec.raw_version = 2;
  rec.is_ca = false;
  rec.valid = false;
  rec.transvalid = false;
  rec.invalid_reason = pki::InvalidReason::kSelfSigned;
  archive.intern(rec);
  archive.intern(hostile_record(1));
  const std::size_t s =
      archive.begin_scan(ScanEvent{Campaign::kUMich, 1339286400, 36000});
  archive.add_observation(s, 0, 0x0a000001, 7);
  archive.add_observation(s, 1, 0xc0a80101, kNoDevice);
  return archive;
}

// golden_archive() as saved by the v2 writer. Pins the byte format: the
// writer must emit exactly these bytes and the loader must parse them.
constexpr char kGoldenV2Hex[] =
    "534d415202000000481c000000000000000200000000000000010000000000000002"
    "0000000000000000200000ea6e0a3243c6010000000000000102030405060708090a"
    "0b0c0d0e0f1088776655443322110c0000006465766963652e6c6f63616c0b000000"
    "3139322e3136382e312e310e000000434e3d3139322e3136382e312e310800000030"
    "62616463306465808aa8510000000000943577000000000200000010000000646e73"
    "3a6465766963652e6c6f63616c0b00000069703a31302e302e302e31040000006131"
    "623218000000687474703a2f2f63726c2e6578616d706c652f632e63726c00000000"
    "13000000687474703a2f2f6f6373702e6578616d706c6507000000312e322e332e34"
    "020000000001010000000000000000000000dd0000a10100cdab000000000d000000"
    "617c6209630a64256525376366010000002500000000090000002532352530392530"
    "6100ce585100000000806bf7760000000008000000000000000f000000646e733a70"
    "6970657c696e736964650900000074616209656e7472790a0000006c696e650a656e"
    "7472790900000070637425656e74727903000000253763010000007c090000007472"
    "61696c696e677c18000000616b69097769746809746162737c616e64257069706573"
    "0a020000007c7c02000000252504000000090a257c05000000312e322e3302000000"
    "00017d92bcbc5331000000000000000080e3d34f00000000a08c0000000000000200"
    "000000000000000000000100000a07000000010000000101a8c0ffffffff4533818c"
    "451800000000000000020000000000000001000000000000000200000000000000c3"
    "90b796";

TEST(GoldenV2, GoldenBytesLoad) {
  std::stringstream in(unhex(kGoldenV2Hex));
  const auto loaded = load_archive(in);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(golden_archive(), *loaded);
}

TEST(GoldenV2, WriterIsByteIdenticalToGolden) {
  EXPECT_EQ(save_to_string(golden_archive()), unhex(kGoldenV2Hex));
}

// --- binary: retired v1 ------------------------------------------------------

TEST(RetiredV1, GoldenV1BytesAreRejected) {
  std::stringstream in(unhex(kGoldenV1Hex));
  EXPECT_FALSE(load_archive(in).has_value());
  const std::string path = "/tmp/sm_archive_io_v1.smar";
  std::ofstream(path, std::ios::binary) << unhex(kGoldenV1Hex);
  EXPECT_FALSE(load_archive_file(path).has_value());

  std::stringstream streamed(unhex(kGoldenV1Hex));
  ArchiveReader reader(streamed);
  EXPECT_FALSE(reader.ok());
  EXPECT_FALSE(reader.for_each_cert(ArchiveReader::CertFn()));
  EXPECT_FALSE(reader.for_each_scan(ArchiveReader::ScanFn()));
}

// --- parallel determinism ----------------------------------------------------

TEST(ParallelArchiveIo, BitIdenticalAcrossThreadCounts) {
  // Sized to span several cert frames would be too slow here; several
  // scans is enough to exercise the per-frame parallel schedule.
  simworld::WorldConfig config = simworld::WorldConfig::tiny();
  config.device_count = 120;
  config.website_count = 40;
  const simworld::WorldResult world = simworld::World(config).run();

  std::string reference;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    const std::string bytes = save_to_string(world.archive);
    if (reference.empty()) {
      reference = bytes;
    } else {
      EXPECT_EQ(bytes, reference) << "threads=" << threads;
    }
    std::stringstream in(bytes);
    const auto loaded = load_archive(in);
    ASSERT_TRUE(loaded.has_value()) << "threads=" << threads;
    expect_equal(world.archive, *loaded);
  }
  util::ThreadPool::set_global_threads(0);
}

// --- binary: frame layout the writer does not produce --------------------------

// The cert-frame payload of one record: the writer's own encoding, cut out
// of a one-record archive (magic and version, then the header frame, then
// the cert frame).
std::string record_payload(const CertRecord& rec) {
  ScanArchive one;
  one.intern(rec);
  const std::string bytes = save_to_string(one);
  std::size_t at = 8;
  std::uint64_t size = 0;
  std::memcpy(&size, bytes.data() + at + 1, sizeof(size));
  at += 1 + sizeof(size) + size + sizeof(std::uint32_t);
  std::memcpy(&size, bytes.data() + at + 1, sizeof(size));
  return bytes.substr(at + 1 + sizeof(size), size);
}

template <typename T>
void put_raw(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void put_frame(std::string& out, char type, const std::string& payload) {
  out.push_back(type);
  put_raw<std::uint64_t>(out, payload.size());
  out += payload;
  put_raw<std::uint32_t>(out, util::crc32(payload));
}

// A scan-less SMAR v2 archive of `records` whose cert frames hold
// `cert_chunk` records each (the last one the rest).
std::string smar_with_chunk(const std::vector<CertRecord>& records,
                            std::uint32_t cert_chunk) {
  std::string out = "SMAR";
  put_raw<std::uint32_t>(out, 2);
  std::string header;
  put_raw<std::uint64_t>(header, records.size());
  put_raw<std::uint64_t>(header, 0);
  put_raw<std::uint64_t>(header, 0);
  put_raw<std::uint32_t>(header, cert_chunk);
  put_frame(out, 'H', header);
  for (std::size_t lo = 0; lo < records.size(); lo += cert_chunk) {
    std::string payload;
    for (std::size_t i = lo; i < std::min(records.size(), lo + cert_chunk); ++i) {
      payload += record_payload(records[i]);
    }
    put_frame(out, 'C', payload);
  }
  std::string end;
  put_raw<std::uint64_t>(end, records.size());
  put_raw<std::uint64_t>(end, 0);
  put_raw<std::uint64_t>(end, 0);
  put_frame(out, 'E', end);
  return out;
}

std::vector<CertRecord> sample_records(std::size_t n) {
  std::vector<CertRecord> records;
  for (std::size_t i = 0; i < n; ++i) records.push_back(sample_record(i));
  return records;
}

TEST(BinaryFormat, LoadsCertFramesThatSplitTableChunks) {
  // 1000 records per frame: frames end inside the table's chunks, and the
  // last frame is short.
  const std::vector<CertRecord> records = sample_records(2500);
  const std::string bytes = smar_with_chunk(records, 1000);
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    std::stringstream in(bytes);
    const auto loaded = load_archive(in);
    ASSERT_TRUE(loaded.has_value()) << "threads=" << threads;
    ASSERT_EQ(loaded->certs().size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
      ASSERT_EQ(loaded->cert(static_cast<CertId>(i)).fingerprint,
                records[i].fingerprint)
          << "id " << i;
      ASSERT_EQ(loaded->cert(static_cast<CertId>(i)).subject_cn,
                records[i].subject_cn);
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(BinaryFormat, RejectsDuplicateFingerprintAcrossFrames) {
  // Record 1700 (third frame) repeats record 10's fingerprint (first
  // frame); ids could no longer follow file order, so the load fails.
  std::vector<CertRecord> records = sample_records(2500);
  records[1700].fingerprint = records[10].fingerprint;
  for (const std::uint32_t cert_chunk : {1000u, 8192u}) {
    const std::string bytes = smar_with_chunk(records, cert_chunk);
    for (const std::size_t threads : {1u, 4u}) {
      util::ThreadPool::set_global_threads(threads);
      EXPECT_FALSE(loads(bytes))
          << "cert_chunk=" << cert_chunk << " threads=" << threads;
    }
  }
  util::ThreadPool::set_global_threads(0);
}

TEST(BinaryFormat, SaveWritesNothingWhenALateFrameBreaksALimit) {
  // The bad record sits in the archive's second cert frame: the limits
  // pass must reject it before the first frame is written.
  ScanArchive archive;
  for (std::uint64_t i = 0; i < 8192 + 10; ++i) archive.intern(sample_record(i));
  CertRecord bad = sample_record(1u << 20);
  bad.san.assign((1u << 16) + 1, "x");
  archive.intern(bad);
  for (const std::size_t threads : {1u, 4u}) {
    util::ThreadPool::set_global_threads(threads);
    std::ostringstream out;
    EXPECT_FALSE(save_archive(archive, out)) << "threads=" << threads;
    EXPECT_TRUE(out.str().empty()) << "threads=" << threads;
  }
  util::ThreadPool::set_global_threads(0);
}

// --- streaming reader --------------------------------------------------------

TEST(ArchiveReaderTest, StreamsCertsAndScans) {
  const ScanArchive original = sample_archive();
  std::stringstream in(save_to_string(original));
  ArchiveReader reader(in);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader.cert_count(), original.certs().size());
  EXPECT_EQ(reader.scan_count(), original.scans().size());

  std::vector<CertRecord> certs;
  ASSERT_TRUE(reader.for_each_cert([&](CertId id, const CertRecord& cert) {
    EXPECT_EQ(id, certs.size());
    certs.push_back(cert);
  }));
  EXPECT_EQ(certs.size(), original.certs().size());

  std::vector<ScanData> scans;
  ASSERT_TRUE(reader.for_each_scan(
      [&](const ScanData& scan) { scans.push_back(scan); }));
  EXPECT_TRUE(reader.finished());

  // The streamed view must match the materialized archive exactly.
  ScanArchive streamed;
  for (CertRecord& cert : certs) streamed.intern(std::move(cert));
  for (ScanData& scan : scans) streamed.add_scan(std::move(scan));
  expect_equal(original, streamed);
}

TEST(ArchiveReaderTest, ScanOnlyVisitSkipsCertSection) {
  const ScanArchive original = sample_archive();
  std::stringstream in(save_to_string(original));
  ArchiveReader reader(in);
  ASSERT_TRUE(reader.ok());
  std::size_t observations = 0;
  ASSERT_TRUE(reader.for_each_scan(
      [&](const ScanData& scan) { observations += scan.observations.size(); }));
  EXPECT_EQ(observations, original.observation_count());
  EXPECT_TRUE(reader.finished());
  // The cert section is behind us now.
  EXPECT_FALSE(reader.for_each_cert(ArchiveReader::CertFn()));
}

TEST(ArchiveReaderTest, RejectsGarbageAndTruncation) {
  std::stringstream garbage("not an archive at all");
  ArchiveReader bad(garbage);
  EXPECT_FALSE(bad.ok());
  EXPECT_FALSE(bad.for_each_cert(ArchiveReader::CertFn()));
  EXPECT_FALSE(bad.for_each_scan(ArchiveReader::ScanFn()));

  const std::string full = save_to_string(sample_archive());
  std::stringstream cut(full.substr(0, full.size() - 5));
  ArchiveReader reader(cut);
  ASSERT_TRUE(reader.ok());  // header intact
  EXPECT_TRUE(reader.for_each_cert(ArchiveReader::CertFn()));
  EXPECT_FALSE(reader.for_each_scan(ArchiveReader::ScanFn()));
  EXPECT_FALSE(reader.finished());
  EXPECT_FALSE(reader.ok());
}

// --- TSV ---------------------------------------------------------------------

// export_tsv is write-only. These tests pin its exact bytes: every string
// is percent-escaped (tab %09, newline %0a, '%' %25, and '|' %7c inside a
// SAN entry), so each row splits on tabs and each SAN list on '|' back into
// exactly the fields written.

constexpr char kTsvCertHeader[] =
    "#certs\tfingerprint\tkey_fp\tsubject_cn\tissuer_cn\tissuer_dn\t"
    "serial\tnot_before\tnot_after\tsan\taki\tcrl\taia\tocsp\toid\t"
    "version\tis_ca\tvalid\ttransvalid\treason\n";
constexpr char kTsvObservationHeader[] =
    "#observations\tscan\tcampaign\tstart\tduration\tcert\tip\tdevice\n";

std::string tsv_of(const ScanArchive& archive) {
  std::stringstream buffer;
  export_tsv(archive, buffer);
  return buffer.str();
}

TEST(TsvFormat, RoundTrip) {
  const std::string expected =
      std::string(kTsvCertHeader) +
      "C\t010000000000000000000000dd000000\t2882338817\thost-1\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t00aa11bb\t"
      "http://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t0\t0\t0\t1\n"
      "C\t020000000000000000000000dd000000\t2882338818\thost-2\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t00aa11bb\t"
      "http://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t1\t0\t0\t1\n"
      "C\t030000000000000000000000dd000000\t2882338819\thost-3\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t00aa11bb\t"
      "http://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t0\t1\t1\t0\n"
      "C\t040000000000000000000000dd000000\t2882338820\thost-4\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t00aa11bb\t"
      "http://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t1\t0\t0\t1\n"
      "C\t050000000000000000000000dd000000\t2882338821\thost-5\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t00aa11bb\t"
      "http://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t0\t0\t0\t1\n" +
      kTsvObservationHeader +
      "O\t0\t0\t1000\t36000\t0\t167772161\t1\n"
      "O\t0\t0\t1000\t36000\t1\t167772162\t2\n"
      "O\t1\t1\t700000\t36000\t0\t167772163\t1\n"
      "O\t1\t1\t700000\t36000\t4\t167772164\t4294967295\n";
  EXPECT_EQ(tsv_of(sample_archive()), expected);
}

TEST(TsvFormat, HostileStringsRoundTrip) {
  // hostile_record()'s string columns, subject_cn through policy_oid.
  // Escapes are never decoded on the way out ("%7c" becomes "%257c"), '|'
  // is escaped only inside SAN entries, and an empty SAN entry still ends
  // in '|', so {} (the empty column) and {""} ("|") stay apart.
  const std::string hostile_columns =
      "a|b%09c%0ad%25e%257cf\t%25\t\t%2525%2509%250a\t1364774400\t"
      "1995926400\t"
      "|dns:pipe%7cinside|tab%09entry|line%0aentry|pct%25entry|%257c|"
      "%7c|trailing%7c|\taki%09with%09tabs|and%25pipes%0a\t||\t%25%25\t"
      "%09%0a%25|\t1.2.3\t2\t";
  const std::string expected =
      std::string(kTsvCertHeader) +
      "C\t010000000000000000000000dd0000a1\t2882338817\t" + hostile_columns +
      "0\t0\t0\t1\n"
      "C\t020000000000000000000000dd0000a2\t2882338818\t" + hostile_columns +
      "1\t0\t0\t1\n"
      "C\t030000000000000000000000dd0000a3\t2882338819\t" + hostile_columns +
      "0\t1\t1\t0\n"
      "C\t040000000000000000000000dd0000a4\t2882338820\t" + hostile_columns +
      "1\t0\t0\t1\n"
      "C\t320000000000000000000000dd000000\t2882338866\thost-50\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\t\t00aa11bb\thttp://crl.example/x.crl\t"
      "http://ca.example/ca.crt\thttp://ocsp.example\t"
      "1.3.6.1.4.1.99999.2.1\t2\t1\t0\t0\t1\n"
      "C\t330000000000000000000000dd000000\t2882338867\thost-51\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\t|\t00aa11bb\thttp://crl.example/x.crl\t"
      "http://ca.example/ca.crt\thttp://ocsp.example\t"
      "1.3.6.1.4.1.99999.2.1\t2\t0\t1\t1\t0\n" +
      kTsvObservationHeader +
      "O\t0\t0\t2000\t36000\t0\t100\t0\n"
      "O\t0\t0\t2000\t36000\t1\t101\t1\n"
      "O\t0\t0\t2000\t36000\t2\t102\t2\n"
      "O\t0\t0\t2000\t36000\t3\t103\t3\n"
      "O\t0\t0\t2000\t36000\t4\t104\t4\n"
      "O\t0\t0\t2000\t36000\t5\t105\t5\n";
  EXPECT_EQ(tsv_of(hostile_archive()), expected);
}

TEST(TsvFormat, SanEntriesWithPipesRoundTrip) {
  // The '|' join delimiter used to pass through unescaped, silently
  // splitting one SAN entry into several.
  ScanArchive archive;
  CertRecord rec = sample_record(1);
  rec.san = {"dns:a|b.example", "uri:http://x/?q=1|2"};
  archive.intern(rec);
  const std::string expected =
      std::string(kTsvCertHeader) +
      "C\t010000000000000000000000dd000000\t2882338817\thost-1\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a%7cb.example|uri:http://x/?q=1%7c2|\t"
      "00aa11bb\thttp://crl.example/x.crl\thttp://ca.example/ca.crt\t"
      "http://ocsp.example\t1.3.6.1.4.1.99999.2.1\t2\t0\t0\t0\t1\n" +
      kTsvObservationHeader;
  EXPECT_EQ(tsv_of(archive), expected);
}

TEST(TsvFormat, AkiEscapingIsSymmetric) {
  // aki_hex used to be written raw: a tab inside it corrupted the row. It
  // is escaped like every other string column.
  ScanArchive archive;
  CertRecord rec = sample_record(1);
  rec.aki_hex = "00aa\t11bb%7c";
  archive.intern(rec);
  const std::string expected =
      std::string(kTsvCertHeader) +
      "C\t010000000000000000000000dd000000\t2882338817\thost-1\t"
      "issuer with%09tab and%0anewline and %25 percent\t"
      "CN=issuer with%09tab and%0anewline and %25 percent\tdeadbeef\t"
      "1364774400\t1995926400\tdns:a.example|ip:192.168.1.1|\t"
      "00aa%0911bb%257c\thttp://crl.example/x.crl\t"
      "http://ca.example/ca.crt\thttp://ocsp.example\t"
      "1.3.6.1.4.1.99999.2.1\t2\t0\t0\t0\t1\n" +
      kTsvObservationHeader;
  EXPECT_EQ(tsv_of(archive), expected);
}

TEST(TsvFormat, EscapesSpecialCharacters) {
  const std::string tsv = tsv_of(sample_archive());
  // Raw tab/newline inside a field would corrupt the format; the escaped
  // encodings must appear instead.
  EXPECT_NE(tsv.find("%09"), std::string::npos);
  EXPECT_NE(tsv.find("%0a"), std::string::npos);
  EXPECT_NE(tsv.find("%25"), std::string::npos);
}

// --- end-to-end --------------------------------------------------------------

TEST(RoundTrip, SimulatedWorldSurvives) {
  simworld::WorldConfig config = simworld::WorldConfig::tiny();
  config.device_count = 80;
  config.website_count = 30;
  const simworld::WorldResult world = simworld::World(config).run();
  std::stringstream buffer;
  ASSERT_TRUE(save_archive(world.archive, buffer));
  const auto loaded = load_archive(buffer);
  ASSERT_TRUE(loaded.has_value());
  expect_equal(world.archive, *loaded);
}

}  // namespace
}  // namespace sm::scan
