// The sm_notaryd wire protocol: length-prefixed binary frames, each
// carrying a CRC32 of everything before the trailer so corruption on the
// wire (or a confused client) is detected per frame instead of poisoning
// the stream silently.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       1     type        (FrameType)
//   1       4     size        (payload bytes; bounded by max_payload)
//   5       size  payload
//   5+size  4     crc32       (util::crc32 over bytes [0, 5+size))
//
// Request frames a client may send: kQuery (payload = 16- or 32-byte
// certificate fingerprint; 32-byte SHA-256 inputs are truncated to the
// archive's 128-bit intern key), kBatchQuery (u32le count + count 16-byte
// fingerprints — one frame, many lookups, amortizing framing cost on the
// hot path), kRevocationQuery (same payload shapes as kQuery/kBatchQuery;
// asks for revocation status instead of full knowledge), kStats (empty
// payload), kPing (arbitrary payload, echoed), kSnapshot (empty payload;
// asks which index epoch is serving). The server answers kCertInfo /
// kNotFound / kBatchInfo / kRevocationInfo / kStatsText / kPong /
// kSnapshotInfo, or kError with a human-readable reason.
//
// The resharding control plane rides the same framing: kMapUpdate /
// kMapInfo move the router's serialized prefix map (notary/prefix_map.h),
// and kSliceBegin / kSliceSegment / kSliceDone / kSliceSend / kSliceRetire
// move a backend's prefix slice to a successor daemon (notary/reshard.h).
// Daemons and routers that predate these types answer them kError under
// the forward-compatibility rule below, which is what makes a mixed-epoch
// fleet safe during rollout.
//
// A frame that cannot be parsed at all (oversized length, checksum
// mismatch) gets one kError response and the connection is closed —
// framing is lost, so the stream cannot be resynchronized — but the
// worker and every other connection keep running. A well-framed frame of
// an *unknown type*, by contrast, decodes cleanly: framing is intact, so
// the handler answers kError ("unsupported request frame") and the
// connection stays healthy. That forward-compatibility rule is what let
// kRevocationQuery roll out against fleets of older daemons.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sm::netio {

/// Fixed bytes before the payload (type + size) and after it (crc32).
inline constexpr std::size_t kFrameHeaderSize = 5;
inline constexpr std::size_t kFrameTrailerSize = 4;

/// Default ceiling on payload size; a length field above the limit is
/// rejected before any allocation, so hostile lengths cannot balloon
/// memory (mirrors the archive loader's bounded reads).
inline constexpr std::size_t kMaxFramePayload = 1 << 20;

/// Ceiling for decoding a server's *responses*: batch answers aggregate
/// many rendered certificates, so clients (FrameClient, ClientPool)
/// accept well above the single-frame request cap.
inline constexpr std::size_t kMaxResponsePayload = 32u << 20;

/// Frame kinds. Requests are < 0x80, responses >= 0x80.
enum class FrameType : std::uint8_t {
  kQuery = 0x01,      ///< fingerprint lookup
  kStats = 0x02,      ///< metrics snapshot request
  kPing = 0x03,       ///< liveness probe; payload echoed back
  kSnapshot = 0x04,   ///< which index epoch is serving? (empty payload)
  kBatchQuery = 0x05,  ///< many fingerprint lookups in one frame
  kRevocationQuery = 0x06,  ///< revocation status lookup (single or batch)
  kMapUpdate = 0x07,  ///< routing map: empty payload fetches, else applies
  kSliceBegin = 0x08,    ///< start of a prefix-slice transfer (lo, hi, aux)
  kSliceSegment = 0x09,  ///< one chunk of a slice stream (stream id + bytes)
  kSliceDone = 0x0a,     ///< end of transfer; receiver merges and publishes
  kSliceSend = 0x0b,  ///< tell a backend to stream [lo,hi] to a successor
  kSliceRetire = 0x0c,   ///< tell a backend to drop its [lo,hi] slice
  kCertInfo = 0x81,   ///< rendered certificate knowledge
  kNotFound = 0x82,   ///< fingerprint unknown to the notary
  kStatsText = 0x83,  ///< rendered metrics
  kPong = 0x84,       ///< ping echo
  kSnapshotInfo = 0x85,  ///< snapshot staleness bound ("as of scan N")
  kBatchInfo = 0x86,  ///< per-entry answers to a kBatchQuery
  kRevocationInfo = 0x87,  ///< rendered revocation status
  kMapInfo = 0x88,    ///< serialized routing map now in effect
  kSliceInfo = 0x89,  ///< progress/summary answer to a slice-control frame
  kError = 0xee,      ///< malformed/unsupported request; payload = reason
};

/// True for the byte values enumerated above. NOT consulted by the frame
/// decoder — an unknown type with intact framing decodes and is answered
/// kError by the handler (forward compatibility) — but handlers use it to
/// classify, and batch-entry statuses are validated against it.
bool is_known_frame_type(std::uint8_t value);

/// Little-endian u32 helpers, shared by the frame codec and the batch
/// payload format layered on top of it (notary/batch.h).
void put_u32le(std::string& out, std::uint32_t value);
std::uint32_t get_u32le(const char* p);

/// One decoded (or to-be-encoded) frame.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;

  friend bool operator==(const Frame&, const Frame&) = default;
};

/// Serializes a frame (header + payload + CRC32 trailer).
std::string encode_frame(FrameType type, std::string_view payload);
inline std::string encode_frame(const Frame& frame) {
  return encode_frame(frame.type, frame.payload);
}

/// Overwrites 4 bytes at `offset` with `value` (little-endian). The
/// counterpart of put_u32le for length fields patched after the fact.
void patch_u32le(std::string& out, std::size_t offset, std::uint32_t value);

/// Builds one frame in place at the tail of an output buffer, so response
/// bytes go straight into a connection's outbuf with no intermediate
/// string. Usage:
///
///   FrameWriter frame(out, FrameType::kCertInfo);
///   render_into(out);        // append payload bytes directly
///   frame.finish();          // patches the size field, appends the CRC
///
/// finish() must be called exactly once, before anything else appends to
/// `out`; it returns the frame's CRC32 (useful to cache alongside the
/// payload so a later replay skips the checksum pass entirely).
class FrameWriter {
 public:
  FrameWriter(std::string& out, FrameType type) : out_(out),
                                                  start_(out.size()) {
    out_.push_back(static_cast<char>(type));
    out_.append(4, '\0');  // size, patched by finish()
  }

  /// Offset in the output buffer where the payload begins.
  std::size_t payload_offset() const { return start_ + kFrameHeaderSize; }

  std::uint32_t finish();

 private:
  std::string& out_;
  std::size_t start_;
};

/// Appends a fully-encoded frame to `out` — byte-identical to
/// `out += encode_frame(type, payload)` without the temporary string.
/// `payload` must not alias `out` (appending may reallocate).
void encode_frame_into(std::string& out, FrameType type,
                       std::string_view payload);

/// Outcome of one FrameDecoder::next call.
enum class DecodeStatus {
  kNeedMore,   ///< no complete frame buffered yet
  kFrame,      ///< one frame decoded and removed from the buffer
  kMalformed,  ///< the stream is corrupt; the decoder is poisoned
};

/// Incremental frame parser over a connection's receive buffer. Feed bytes
/// as they arrive, then drain complete frames with next(). Any framing
/// violation (oversized length, CRC mismatch) poisons the decoder
/// permanently — after a bad frame the stream offsets are meaningless, so
/// the only safe recovery is closing the connection. An unknown type byte
/// is NOT a framing violation: if length and CRC check out the frame
/// decodes, and the receiver decides what to do with it.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  /// Appends raw bytes received from the peer.
  void feed(const char* data, std::size_t size);
  void feed(std::string_view data) { feed(data.data(), data.size()); }

  /// Attempts to decode the next frame from the buffered bytes.
  DecodeStatus next(Frame& out);

  /// Bytes buffered but not yet consumed by a decoded frame.
  std::size_t buffered() const { return buffer_.size() - consumed_; }

  /// True once a framing violation was seen.
  bool poisoned() const { return poisoned_; }

  /// Reason for the poisoning ("" while healthy).
  const std::string& error() const { return error_; }

 private:
  std::size_t max_payload_;
  std::string buffer_;
  std::size_t consumed_ = 0;  // decoded prefix awaiting compaction
  bool poisoned_ = false;
  std::string error_;
};

}  // namespace sm::netio
