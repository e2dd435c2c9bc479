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
#include <unordered_map>
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

  /// Pre-sizes the certificate table (a load-time optimization).
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
  CertTable certs_;
  std::unordered_map<CertFingerprint, CertId, FingerprintHash> by_fingerprint_;
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
