// LiveCorpus — the growing corpus behind a continuously updating notary.
//
// The paper's §8 notary is inherently a live service: the scan corpus
// keeps growing while clients query it (the Certificate Transparency
// delivery shape — an append-only log that monitors poll). Everything
// else in this repository builds once from a finished archive;
// LiveCorpus is the bridge between those immutable builds and a stream
// of new scan segments:
//
//   * absorb: append_segment() (one SMAR segment) and merge_slice()
//     (another shard's prefix slice plus its sidecars) validate their
//     input and hand it to one copy-on-write step. It copies the current
//     archive (the copy shares every certificate record with the
//     previous epoch, scan::CertTable), re-interns the incoming
//     certificates (new ones append, so existing ids stay), places each
//     scan by start time — a start the corpus has gains the remapped
//     observations, any other is inserted — and merges the sidecars.
//     When every incoming scan lands after the corpus's last, the
//     previous epoch's immutable corpus::CorpusIndex spine is extended
//     on the shared util::ThreadPool, so the cost follows the input, not
//     the corpus; otherwise the spine is built cold;
//   * publish: the new (archive, spine, delta) triple becomes a
//     LiveSnapshot published through one epoch/RCU-style shared_ptr
//     swap (std::atomic<std::shared_ptr>, release store). Readers take
//     acquire loads and hold zero locks: a snapshot() caller keeps the
//     whole epoch alive via its shared_ptr while queries render, and
//     old epochs retire automatically when the last reader drops them;
//   * delta: each snapshot carries the exact set of certificate ids
//     whose knowledge changed in that epoch — certificates observed by
//     the new scans, newly interned certificates, every existing
//     certificate sharing an SPKI key with a new one (its key-sharing
//     degree grew), and those whose sidecar status or degree moved.
//     Downstream caches (NotaryService's per-shard ring-arena slot
//     cache) invalidate precisely this set and keep everything else.
//
// Certificate ids are stable across epochs: interning is append-only
// and deduplicates by fingerprint, so id N means the same certificate
// in every snapshot that contains it. Writers are serialized by a mutex;
// a refused input (corrupt bytes, scans out of order) leaves the
// published snapshot and all ingest state untouched.
//
// Two additions serve the sharded deployment:
//
//   * sidecar maps: each snapshot can carry fingerprint-keyed revocation
//     statuses and full-corpus key-sharing degrees, versioned with the
//     same copy-on-write discipline as the archive. A cert revoked
//     mid-ingestion invalidates its cache entry through the delta like
//     any other change, and NotaryIndex builds inject the maps so a
//     slice answers byte-identically to the unsharded oracle. A corpus
//     carrying injected degrees is a prefix slice and refuses segments:
//     only a sender's sidecar can keep those degrees true;
//   * resharding: merge_slice() absorbs a slice, and retire_prefix()
//     drops a handed-off range. Retire rebuilds the intern table, so it
//     is the one operation that breaks cert-id stability — its delta
//     deliberately spans every id of both the old and new epoch, forcing
//     a full downstream cache flush.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus/corpus_index.h"
#include "net/route_table.h"
#include "scan/archive.h"

namespace sm::corpus {

/// Revocation status per certificate fingerprint (fingerprint-keyed so
/// entries survive re-interning across slices; mirrors
/// NotaryIndexOptions::revocation_statuses).
using RevocationStatusMap =
    std::unordered_map<scan::CertFingerprint, pki::RevocationStatus,
                       scan::FingerprintHash>;

/// Full-corpus key-sharing degree per SPKI key (mirrors
/// NotaryIndexOptions::key_counts). A prefix slice cannot derive these
/// from its own certificates, so sharded daemons carry them alongside.
using KeyCountMap = std::unordered_map<scan::KeyFingerprint, std::uint32_t>;

/// One immutable published epoch of the growing corpus. Everything here
/// is safe to read from any thread for as long as the shared_ptr that
/// delivered it lives. Member order matters: `spine` borrows `*archive`,
/// so it is declared after (destroyed before) the archive.
struct LiveSnapshot {
  /// 0 for the initial snapshot; +1 per successful publish (append,
  /// slice merge, or prefix retire).
  std::uint64_t epoch = 0;
  std::shared_ptr<const scan::ScanArchive> archive;
  std::shared_ptr<const CorpusIndex> spine;
  /// Certificate ids whose derived knowledge changed in this epoch
  /// (ascending, deduplicated; empty for epoch 0). After retire_prefix
  /// this spans every id of the old AND new epoch — ids were remapped,
  /// so nothing cached under the old numbering may survive.
  std::vector<scan::CertId> delta;
  /// Revocation statuses in effect for this epoch (null = none known).
  std::shared_ptr<const RevocationStatusMap> statuses;
  /// Injected full-corpus key-sharing degrees (null = derive from the
  /// archive itself, the unsharded case).
  std::shared_ptr<const KeyCountMap> key_counts;
};

/// Outcome of one append_segment() call.
struct AppendResult {
  bool ok = false;
  std::string error;             ///< set when !ok
  std::size_t scans_appended = 0;
  std::size_t new_certs = 0;     ///< certificates first seen in this segment
  std::size_t observations = 0;  ///< observations appended
  std::size_t delta_size = 0;    ///< |snapshot()->delta| after the append
};

class LiveCorpus {
 public:
  /// Seeds the corpus with an initial archive and publishes epoch 0.
  /// `routing` (optional, borrowed) enables the spine's AS resolution;
  /// `pool` (optional) runs the spine builds (null = global pool).
  /// `statuses` seeds the revocation sidecar; a non-empty `key_counts`
  /// marks this corpus as a prefix slice carrying injected full-corpus
  /// degrees (sm_notaryd --shard-prefix passes both).
  explicit LiveCorpus(scan::ScanArchive initial,
                      const net::RoutingHistory* routing = nullptr,
                      util::ThreadPool* pool = nullptr,
                      RevocationStatusMap statuses = {},
                      KeyCountMap key_counts = {});

  LiveCorpus(const LiveCorpus&) = delete;
  LiveCorpus& operator=(const LiveCorpus&) = delete;

  /// The current epoch — one lock-free acquire load. The returned
  /// shared_ptr keeps the snapshot (archive + spine) alive for the
  /// caller regardless of later publishes.
  std::shared_ptr<const LiveSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Streams one SMAR segment from `in` and publishes a new epoch.
  /// Serializes with other appends; never blocks readers. The segment's
  /// scans must strictly increase and start strictly after the current
  /// last scan, so a replayed segment is refused. On any failure (that,
  /// a corrupt or scan-less segment, or a prefix-slice corpus) nothing is
  /// published and the result carries the reason.
  /// `statuses` (optional) carries revocation statuses learned with the
  /// segment — typically for its newly interned certificates, but a
  /// changed status for an already-known certificate is applied too and
  /// lands in the delta, so a cert revoked mid-ingestion invalidates its
  /// cached render.
  AppendResult append_segment(std::istream& in,
                              const RevocationStatusMap* statuses = nullptr);

  /// Streams another shard's prefix slice (SMAR bytes from `in`) and
  /// merges it: certificates are re-interned (new ones appended, so
  /// existing ids stay stable), scans are matched to the local timeline
  /// by start time — observations concatenate for a shared scan, scans
  /// unknown locally are inserted — and the sidecar maps absorb
  /// `key_counts` (taking the larger degree) and `statuses`. Both
  /// archives must keep strictly increasing scan start times; the caller
  /// guarantees the slice's prefix range is disjoint from ranges already
  /// ingested in full (the sender protocol does). An empty local archive
  /// (a fresh successor daemon) adopts the slice wholesale.
  AppendResult merge_slice(std::istream& in,
                           const KeyCountMap* key_counts = nullptr,
                           const RevocationStatusMap* statuses = nullptr);

  /// Drops every certificate whose fingerprint starts with a byte in
  /// [lo, hi] (inclusive) and their observations; scans and the rest of
  /// the corpus survive. The intern table is rebuilt, so cert ids are
  /// remapped: the published delta covers every id of the old and new
  /// epoch, and downstream caches must flush accordingly (LiveSnapshot
  /// delta semantics make that automatic).
  AppendResult retire_prefix(std::uint8_t lo, std::uint8_t hi);

  /// Successful publishes so far (== snapshot()->epoch).
  std::uint64_t epochs_published() const {
    return snapshot()->epoch;
  }

 private:
  /// The copy-on-write absorb step described above, shared by
  /// append_segment and merge_slice once they have validated `certs` and
  /// `scans` under append_mutex_. Publishes the next epoch.
  AppendResult absorb(const LiveSnapshot& cur,
                      std::vector<scan::CertRecord> certs,
                      std::vector<scan::ScanData> scans,
                      const KeyCountMap* key_counts,
                      const RevocationStatusMap* statuses);
  /// Publishes `archive` as the next epoch; `extend` builds its spine
  /// from the current one (the archive must only append to it).
  void publish(std::shared_ptr<scan::ScanArchive> archive,
               std::vector<scan::CertId> delta, bool extend);

  const net::RoutingHistory* routing_;
  util::ThreadPool* pool_;

  std::mutex append_mutex_;  ///< serializes writers; readers never take it
  /// SPKI key -> certificate ids holding it, over the *current* epoch's
  /// certificates (append-side state, guarded by append_mutex_). Used to
  /// find the existing certs whose key-sharing degree a new cert changes.
  std::unordered_map<scan::KeyFingerprint, std::vector<scan::CertId>> keys_;
  /// Current sidecar versions (append-side; published by pointer, copied
  /// on change). statuses_ null means empty; key_counts_ null means "not
  /// a slice — derive degrees locally".
  std::shared_ptr<const RevocationStatusMap> statuses_;
  std::shared_ptr<const KeyCountMap> key_counts_;

  std::atomic<std::shared_ptr<const LiveSnapshot>> snapshot_;
};

/// Builds a standalone archive containing scans [first, last) of `full`
/// and exactly the certificates they observe, re-interned densely. The
/// segment-producer helper: `sm_notaryd --split-segments`, perfbench's
/// ingest workload and the tests use it to split a simulated archive
/// into an initial corpus plus a stream of appendable SMAR segments.
scan::ScanArchive extract_segment(const scan::ScanArchive& full,
                                  std::size_t first, std::size_t last);

/// Builds the fingerprint-prefix slice of `full` for one notary shard:
/// every certificate whose fingerprint's first byte lies in [lo, hi]
/// (inclusive), re-interned densely in original id order — including
/// interned-but-never-observed certificates, so the N slices of a
/// partition cover the archive exactly. Scans from `first_scan` on are
/// kept (with only the in-range observations); the default 0 keeps ALL
/// scans, so each shard reports the same staleness bound (scan count,
/// last scan start) as the unsliced corpus. A nonzero `first_scan` is
/// the slice-handoff catch-up form: all in-range certificates (intern
/// dedups re-sends on the receiving side) but only the scans the
/// receiver has not yet merged.
scan::ScanArchive extract_prefix_slice(const scan::ScanArchive& full,
                                       std::uint8_t lo, std::uint8_t hi,
                                       std::size_t first_scan = 0);

}  // namespace sm::corpus
