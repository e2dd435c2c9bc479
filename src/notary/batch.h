// Batch query/response payload codec, layered on the frame protocol.
//
// kBatchQuery payload (all integers little-endian):
//
//   offset  size   field
//   0       4      count (number of fingerprints; bounded by
//                  kMaxBatchEntries)
//   4       16*i   fingerprint[i]  (128-bit archive intern key)
//
// kBatchInfo payload: u32le count, then count entries of
//
//   offset  size   field
//   0       1      status (a response FrameType byte: kCertInfo,
//                  kNotFound, kRevocationInfo, or kError — exactly the
//                  type the same fingerprint would get as a standalone
//                  kQuery/kRevocationQuery)
//   1       4      length of body
//   5       len    body (byte-identical to the standalone response
//                  payload)
//
// Reusing response FrameType bytes as per-entry status makes "batch ==
// sequence of singles" a literal byte property, which the router relies
// on when it scatter/gathers sub-batches across shards: it copies each
// validated entry's wire bytes through unchanged.
//
// One tool per job: append_batch_query_entry builds a request (and
// encode_batch_query a whole one), BatchQueryView reads one in place,
// begin_batch_entry/end_batch_entry write a response entry straight into
// an output buffer, and BatchInfoView validates and walks a response in
// place. parse_batch_info is the decoding form of BatchInfoView for
// callers that want owned entries.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"
#include "scan/cert_record.h"

namespace sm::notary {

/// Ceiling on fingerprints per kBatchQuery frame. 4096 * 16 bytes stays
/// comfortably below the frame codec's 1 MiB payload ceiling while the
/// typical *response* (dozens of rendered lines per entry) is what
/// actually bounds useful batch sizes.
inline constexpr std::size_t kMaxBatchEntries = 4096;

/// The one-fingerprint payload rule of kQuery and kRevocationQuery: a
/// 16-byte intern key or a 32-byte SHA-256 (whose first 16 bytes are the
/// key). A batch payload is 4 + 16n bytes, so the two never collide.
inline constexpr bool is_single_fingerprint(std::size_t payload_size) {
  return payload_size == sizeof(scan::CertFingerprint) || payload_size == 32;
}

/// One decoded kBatchInfo entry: the response type and payload the
/// fingerprint would have received as a standalone kQuery.
struct BatchEntry {
  netio::FrameType status = netio::FrameType::kError;
  std::string body;

  friend bool operator==(const BatchEntry&, const BatchEntry&) = default;
};

/// Serializes a kBatchQuery payload.
std::string encode_batch_query(
    const std::vector<scan::CertFingerprint>& fingerprints);

/// Appends one fingerprint to a kBatchQuery payload under construction
/// and counts it; an empty `payload` starts a new one.
void append_batch_query_entry(std::string& payload,
                              const scan::CertFingerprint& fp);

/// Validates a kBatchQuery payload once and iterates the fingerprints in
/// place (no vector materialized — the service's batch hot path reads
/// them straight out of the request buffer). parse() rejects a payload
/// that is truncated, oversized, has a count disagreeing with its size,
/// or exceeds kMaxBatchEntries. The view borrows `payload`; it must
/// outlive the view.
class BatchQueryView {
 public:
  bool parse(std::string_view payload);

  std::uint32_t size() const { return count_; }

  scan::CertFingerprint fingerprint(std::uint32_t i) const {
    scan::CertFingerprint fp;
    std::memcpy(fp.data(), fps_ + static_cast<std::size_t>(i) * fp.size(),
                fp.size());
    return fp;
  }

 private:
  const char* fps_ = nullptr;
  std::uint32_t count_ = 0;
};

/// Writes one kBatchInfo entry in place: begin_batch_entry writes the
/// status byte and a length placeholder, the caller appends the body
/// bytes directly to `payload`, and end_batch_entry patches the length.
/// Returns the body start offset to pass back to end_batch_entry. The
/// payload's u32le count comes first, written by the caller.
std::size_t begin_batch_entry(std::string& payload, netio::FrameType status);
void end_batch_entry(std::string& payload, std::size_t body_start);

/// Validates a kBatchInfo payload once and walks its entries in place.
/// parse() rejects a truncated entry, trailing bytes, a non-response
/// status byte, or a count above kMaxBatchEntries. The view borrows
/// `payload`; it must outlive the view.
class BatchInfoView {
 public:
  bool parse(std::string_view payload);

  std::uint32_t size() const { return count_; }

  /// The next entry's wire bytes — status byte, u32le length, body — in
  /// payload order. Call at most size() times after a successful parse.
  std::string_view next_entry();

 private:
  std::string_view rest_;
  std::uint32_t count_ = 0;
};

/// Decodes a kBatchInfo payload into owned entries, under exactly
/// BatchInfoView's rules. Returns false on any violation.
bool parse_batch_info(std::string_view payload, std::vector<BatchEntry>& out);

}  // namespace sm::notary
