// ScanArchive — the dataset container: an interned table of unique
// certificates plus, per scan, the (certificate, IP) observations. This is
// the in-memory analog of the paper's 222-scan corpus.
//
// Observations also carry the *true* device id assigned by the simulator.
// The paper had no such ground truth; the analysis layer never uses it for
// linking, only for the precision/recall scoring the paper lists as future
// work.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "scan/cert_record.h"
#include "scan/cert_table.h"
#include "scan/schedule.h"

namespace sm::scan {

/// Index of a unique certificate within the archive.
using CertId = std::uint32_t;

/// Ground-truth device identifier (simulator-assigned).
using DeviceId = std::uint32_t;

/// Sentinel for "no known device".
inline constexpr DeviceId kNoDevice = 0xffffffff;

/// One host observation within one scan.
struct Observation {
  CertId cert = 0;
  std::uint32_t ip = 0;
  DeviceId device = kNoDevice;  ///< ground truth only; not a linking input
};

/// One completed scan: its metadata and all observations.
struct ScanData {
  ScanEvent event;
  std::vector<Observation> observations;
};

/// The full dataset.
class ScanArchive {
 public:
  /// Interns a certificate record, returning its stable id. Records with a
  /// previously-seen fingerprint are deduplicated.
  CertId intern(const CertRecord& record);
  CertId intern(CertRecord&& record);

  /// Interns `records` in order, as one intern() call each would, and
  /// writes each record's id to `ids` (same size). New records are moved
  /// out of `records`; duplicates are left as they are. The index is
  /// probed on `pool`, ids are assigned serially in first-appearance
  /// order, and the new records are moved into the table on `pool`.
  void intern_all(std::span<CertRecord* const> records,
                  std::span<CertId> ids, util::ThreadPool& pool);

  /// Appends the records of `segments`, in order, as new ids — the bulk
  /// path of an archive loader, whose records must be distinct. Segments
  /// are handed to the table (see CertTable::append), then the new
  /// fingerprints are indexed in order. Returns false when a fingerprint
  /// is already indexed or repeats among the new records; the archive must
  /// then be discarded.
  bool append_distinct(std::vector<CertTable::Segment>&& segments,
                       util::ThreadPool& pool);

  /// Looks up an interned certificate by fingerprint; returns false when
  /// unknown.
  bool find(const CertFingerprint& fingerprint, CertId& out) const;

  /// Starts a new scan; observations are appended to the returned ScanData
  /// via add_observation. Scans must be begun in chronological order.
  std::size_t begin_scan(const ScanEvent& event);

  /// Appends one observation to scan `scan_index`.
  void add_observation(std::size_t scan_index, CertId cert, std::uint32_t ip,
                       DeviceId device);

  /// Appends a fully-built scan (event + observations) in one move — the
  /// bulk path the parallel archive loader uses. Same chronological
  /// requirement as begin_scan. Returns the new scan's index.
  std::size_t add_scan(ScanData&& scan);

  /// Places a fully-built scan in start order, after every scan that
  /// starts no later; later scans move up one index. Returns the new
  /// scan's index. add_scan is the append-only form of the same step.
  std::size_t insert_scan(ScanData&& scan);

  /// Pre-sizes the certificate table and its fingerprint index (a
  /// load-time optimization).
  void reserve_certs(std::size_t n);

  /// The certificate table ([] = cert id). Copies of an archive share its
  /// storage (see CertTable), so copying one to append costs O(scans +
  /// interned fingerprints), not O(certificate records).
  const CertTable& certs() const { return certs_; }
  const std::vector<ScanData>& scans() const { return scans_; }

  const CertRecord& cert(CertId id) const { return certs_[id]; }

  /// Total observations across all scans (O(1): maintained as a running
  /// counter by add_observation/add_scan — this is on hot stat paths).
  std::size_t observation_count() const { return observation_count_; }

 private:
  // The fingerprint index: open addressing with linear probing over a
  // power-of-two slot array, at most half full. A slot holds the id + 1
  // (0 = empty) and a 32-bit tag, the low half of FingerprintHash
  // (fingerprints are already uniform hash output). The tag, masked, is
  // the home bucket, so a rehash moves slots without reading records; full
  // keys are compared through certs_. Copying an archive copies one flat
  // vector.
  struct IndexSlot {
    std::uint32_t id_plus_one = 0;
    std::uint32_t tag = 0;
  };

  /// The slot holding `fingerprint`, or the empty slot where it belongs.
  /// `fingerprint_of(id)` gives the fingerprint an indexed id stands for.
  template <typename FingerprintOf>
  std::size_t probe(const CertFingerprint& fingerprint,
                    const FingerprintOf& fingerprint_of) const;
  std::size_t probe(const CertFingerprint& fingerprint) const;
  /// Appends a record known to be new and indexes it at `slot`.
  CertId insert_at(std::size_t slot, CertRecord&& record);
  /// Resizes the slot array to `slots` (a power of two) and re-indexes.
  void rehash(std::size_t slots);

  CertTable certs_;
  std::vector<IndexSlot> index_;
  std::vector<ScanData> scans_;
  std::size_t observation_count_ = 0;
};

/// Per-certificate lifetime summary over an archive: the scan-index range
/// and observation counts the linking methodology consumes.
struct CertLifetime {
  std::uint32_t first_scan = 0;  ///< index of first scan observed
  std::uint32_t last_scan = 0;   ///< index of last scan observed
  std::uint32_t scans_seen = 0;  ///< number of scans with >= 1 observation

  /// Inclusive lifetime in days given the scan start times, computed the
  /// paper's way: 1 day when seen once; (last - first) + 1 day otherwise.
  double days(const std::vector<ScanData>& scans) const;
};

/// Computes lifetimes for every certificate in the archive ([] = cert id).
std::vector<CertLifetime> compute_lifetimes(const ScanArchive& archive);

}  // namespace sm::scan
