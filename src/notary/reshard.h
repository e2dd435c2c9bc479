// ReshardHost — the backend side of online resharding: the slice
// handoff state machine an sm_notaryd mounts next to its NotaryService.
//
// A reshard moves one prefix range [lo, hi] from a source daemon to a
// successor while both keep serving queries:
//
//   snapshot   the source takes a LiveCorpus snapshot and extracts the
//              range's slice (certs + all scans + sidecar maps);
//   stream     the slice travels as kSliceBegin (range), kSliceSegment
//              chunks (stream 0 = sidecar blob, stream 1 = SMAR bytes),
//              kSliceDone (merge trigger) — each frame individually
//              acknowledged with kSliceInfo;
//   catch-up   if the source ingested more scans while streaming, it
//              repeats with only the new scans (every round re-lists the
//              range's certificates; the receiver's intern dedups) until
//              a round finds the snapshot unchanged;
//   swap       the driver (tools/sm_reshard) flips the router's prefix
//              map — not this class's job;
//   retire     kSliceRetire tells the source to drop the range
//              (LiveCorpus::retire_prefix + a full-invalidation publish).
//
// The receiver accumulates exactly one transfer at a time into a bounded
// buffer; a second concurrent kSliceBegin is refused with kError. After
// a successful merge (or retire) the host rebuilds the NotaryIndex from
// the new LiveCorpus snapshot — injecting the sidecar revocation
// statuses and key-sharing degrees — and publishes it to the service
// with the snapshot's delta, so the enlarged (or shrunk) index is live
// before the call returns and the driver can safely cut the range over.
//
// handle() blocks its server worker for the duration of a merge or an
// outbound send (the same blocking discipline as the router's forwards);
// query traffic keeps flowing on the other workers, and the epoch swap
// itself is the usual RCU publish.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "corpus/live.h"
#include "netio/frame.h"
#include "notary/service.h"

namespace sm::notary {

struct ReshardHostOptions {
  /// kSliceSegment chunk size for outbound streams. Must stay under the
  /// frame codec's kMaxFramePayload (minus the stream-id byte).
  std::size_t chunk_bytes = 256 * 1024;
  /// Ceiling on one inbound transfer (sidecar + SMAR bytes together);
  /// exceeding it aborts the transfer with kError.
  std::size_t max_transfer_bytes = std::size_t{1} << 30;
  /// Catch-up rounds before an outbound send gives up on a corpus that
  /// keeps growing faster than it streams.
  int max_rounds = 8;
  /// Pool for index rebuilds (null = the process-global pool).
  util::ThreadPool* pool = nullptr;
};

/// Serialization of the sidecar maps that ride with a slice (the
/// kSliceSegment stream-0 blob): key-sharing degrees for the slice's
/// keys, revocation statuses for the slice's fingerprints. Exposed for
/// tests; the wire format is u32le counts with fixed-width entries.
std::string serialize_slice_sidecar(const corpus::KeyCountMap& key_counts,
                                    const corpus::RevocationStatusMap& statuses);
bool parse_slice_sidecar(std::string_view payload,
                         corpus::KeyCountMap& key_counts,
                         corpus::RevocationStatusMap& statuses,
                         std::string& error);

/// Builds a NotaryIndex over `snap`, injecting its sidecar maps
/// (revocation statuses, full-corpus key-sharing degrees). Live mode
/// serves no linked-device ids: the iterative linker is corpus-global.
std::shared_ptr<const NotaryIndex> build_live_index(
    const corpus::LiveSnapshot& snap, util::ThreadPool* pool = nullptr);

/// build_live_index + publish to `service` with the snapshot's delta. The
/// shared epoch-publication helper of every live daemon path — ingest
/// loops and slice merges go through the same door.
void publish_live_snapshot(const corpus::LiveSnapshot& snap,
                           NotaryService& service,
                           util::ThreadPool* pool = nullptr);

class ReshardHost {
 public:
  ReshardHost(corpus::LiveCorpus& live, NotaryService& service,
              ReshardHostOptions options = {});
  ~ReshardHost();

  ReshardHost(const ReshardHost&) = delete;
  ReshardHost& operator=(const ReshardHost&) = delete;

  /// Intercepts the reshard control frames (kSliceBegin / kSliceSegment /
  /// kSliceDone / kSliceSend / kSliceRetire), appending the complete
  /// encoded response to `out` and returning true. Any other frame type
  /// returns false untouched — the caller passes it on to its
  /// NotaryService. Thread-safe.
  bool handle(netio::FrameType type, std::string_view payload,
              std::string& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sm::notary
