// ScanArchive persistence:
//
//  * a compact binary container ("SMAR", format version 2) for saving/
//    reloading archives, so an expensive simulation or a parsed real-world
//    scan corpus is paid for once. It is a sequence of frames — a header,
//    the certificate table sharded into fixed-size chunks, one frame per
//    scan, and an end marker — each carrying a CRC32 of its payload, so
//    truncation, bit rot, and trailing garbage are detected at load time.
//    Frames are serialized/deserialized in parallel on the shared
//    util::ThreadPool; the bytes written and the archive loaded are
//    bit-identical for every thread count. The retired version 1 (one
//    unframed stream, no checksums) is rejected like any unknown version.
//  * a streaming visitor (ArchiveReader) that walks certificates and scans
//    one record at a time without materializing the whole ScanArchive;
//  * a TSV export (`sm_survey simulate --tsv`) so simulated data can be
//    fed to external tooling.
//
// The binary format round-trips every field the pipeline consumes. The
// TSV export escapes hostile string contents (tabs, newlines, '%', '|'
// inside SAN entries), so every row and SAN list stays unambiguous.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>

#include "scan/archive.h"

namespace sm::scan {

/// Extra detail a load can report beyond success/failure.
struct ArchiveLoadReport {
  bool trailing_bytes = false;  ///< the stream continued past the archive
};

/// Serializes an archive to the binary "SMAR" format. Returns false — with
/// the stream possibly part-written but never silently truncated counts —
/// when the archive exceeds a format limit (certificate/scan/observation/
/// SAN counts or string lengths) or the stream fails.
bool save_archive(const ScanArchive& archive, std::ostream& out);

/// Deserializes a binary archive. Returns nullopt on malformed input — bad
/// magic, unsupported version, truncation, checksum mismatch, out-of-range
/// indices,
/// non-chronological scans — without crashing or over-allocating. Reads
/// exactly the archive's bytes, so an archive embedded in a larger stream
/// (see simworld/world_io.h) leaves the remainder untouched. When `report`
/// is non-null, it receives — by peeking one byte past the end, so don't
/// combine with embedded use — whether trailing bytes follow.
std::optional<ScanArchive> load_archive(std::istream& in,
                                        ArchiveLoadReport* report = nullptr);

/// Convenience: save to / load from a file path. A file must contain
/// exactly one archive, so load rejects trailing bytes. Load returns
/// nullopt when the file is missing or malformed; save returns false on
/// I/O failure or format-limit overflow.
bool save_archive_file(const ScanArchive& archive, const std::string& path);
std::optional<ScanArchive> load_archive_file(const std::string& path);

/// Streams an archive record-by-record without building a ScanArchive —
/// the low-memory path for analyses and `sm_survey stat` over corpora that
/// should not be materialized whole. The underlying stream is consumed
/// sequentially, so visit certificates (optional) before scans:
///
///   ArchiveReader reader(in);
///   reader.for_each_cert([&](CertId id, const CertRecord& cert) { ... });
///   reader.for_each_scan([&](const ScanData& scan) { ... });
///
/// Every record is validated exactly as load_archive would (checksums,
/// bounds, ordering); any failure puts the reader in a sticky error state.
class ArchiveReader {
 public:
  using CertFn = std::function<void(CertId, const CertRecord&)>;
  using ScanFn = std::function<void(const ScanData&)>;

  /// Reads and validates the archive header. On failure ok() is false.
  explicit ArchiveReader(std::istream& in);

  /// True until the header or any streamed section fails to parse.
  bool ok() const { return state_ != State::kError; }

  /// Total unique certificates and scans, from the header.
  std::uint64_t cert_count() const { return cert_count_; }
  std::uint64_t scan_count() const { return scan_count_; }

  /// Streams every certificate in id order. Returns false on corrupt
  /// input or if the certificate section was already consumed.
  bool for_each_cert(const CertFn& fn);

  /// Streams every scan in order. If for_each_cert was not called, the
  /// certificate section is consumed (checksummed but unparsed) first.
  /// Verifies the end marker. Returns false on corrupt input or
  /// if the scan section was already consumed.
  bool for_each_scan(const ScanFn& fn);

  /// True once every section (and the end marker) was consumed and
  /// verified.
  bool finished() const { return state_ == State::kDone; }

 private:
  enum class State { kError, kCerts, kScans, kDone };

  bool skip_certs();

  std::istream& in_;
  State state_ = State::kError;
  std::uint64_t cert_count_ = 0;
  std::uint64_t scan_count_ = 0;
  std::uint64_t obs_count_ = 0;   // the header's claimed total observations
  std::uint64_t cert_chunk_ = 0;  // certificates per cert frame
};

/// Writes the archive as two TSV sections:
///   #certs <tab-separated cert rows>
///   #observations <scan_index, campaign, scan_start, cert_index, ip, device>
/// Strings are percent-escaped for tabs/newlines/percent signs; SAN list
/// entries additionally escape '|' and each entry is terminated by '|', so
/// arbitrary entry contents (and empty entries) stay unambiguous.
void export_tsv(const ScanArchive& archive, std::ostream& out);

}  // namespace sm::scan
