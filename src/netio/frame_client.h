// FrameClient — the one blocking, strict request/response frame-protocol
// client: connect, send a frame (or pre-encoded bytes), read one frame
// back. The command-line tools, the reshard slice sender, the loopback
// benchmarks and the tests all talk to servers through it, and
// ClientPool is a pool of FrameClient connections.
//
// Timeouts are opt-in per connection: a bounded handshake
// (connect_timeout_ms) and bounded sends and receives (io_timeout_ms, as
// SO_SNDTIMEO/SO_RCVTIMEO). 0 leaves the kernel's blocking behaviour.
// Responses decode with the kMaxResponsePayload ceiling, since batch
// answers outgrow the single-frame kMaxFramePayload.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"

namespace sm::netio {

/// One server address (IPv4 dotted quad + port).
struct Endpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// Parses "HOST:PORT" (split at the last colon). HOST must be non-empty;
/// PORT must be 1-65535 written as plain decimal digits — no sign, space
/// or trailing bytes.
bool parse_endpoint(std::string_view text, Endpoint& out);

/// Parses a comma-separated list of parse_endpoint entries ("a:1,b:2"),
/// appending each to `out`. False when any entry (an empty one included)
/// is malformed.
bool parse_endpoints(std::string_view text, std::vector<Endpoint>& out);

/// Connects `fd`, a fresh TCP socket, to `ep`, waiting at most
/// connect_timeout_ms for the handshake (0 = no bound). On success the
/// socket is blocking with TCP_NODELAY, and io_timeout_ms > 0 bounds
/// every send and receive on it. On failure returns false with `error`
/// set; the caller still owns (and closes) `fd`. Callers that need
/// socket options before the handshake create the socket themselves.
bool connect_socket(int fd, const Endpoint& ep, int connect_timeout_ms,
                    int io_timeout_ms, std::string& error);

/// socket() (CLOEXEC) + connect_socket(). Returns the connected fd, or -1
/// with `error` set.
int connect_tcp(const Endpoint& ep, int connect_timeout_ms,
                int io_timeout_ms, std::string& error);

class FrameClient {
 public:
  /// How the last failed operation ended.
  enum class Failure {
    kNone,
    kConnect,    ///< socket, address or handshake failure
    kIo,         ///< send/recv error, or EOF in the middle of a frame
    kTimeout,    ///< io_timeout_ms expired on a send or receive
    kClosed,     ///< the peer closed the connection between frames
    kMalformed,  ///< the response did not decode; error() says why
  };

  FrameClient() = default;
  /// Takes ownership of an already connected socket.
  explicit FrameClient(int fd) : fd_(fd) {}
  ~FrameClient() { close(); }
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Connects to `ep` (closing any previous connection); see
  /// connect_socket for the timeouts.
  bool connect(const Endpoint& ep, int connect_timeout_ms = 0,
               int io_timeout_ms = 0);
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends every byte of `wire` (one or more encoded frames, or anything
  /// else).
  bool send(std::string_view wire);
  /// Encodes and sends one frame without building a frame string: one
  /// sendmsg of header, the caller's payload and the CRC trailer.
  bool send_frame(FrameType type, std::string_view payload);
  /// Blocks until one whole frame arrives.
  bool read_frame(Frame& out);
  /// send_frame + read_frame.
  bool call(FrameType type, std::string_view payload, Frame& out);

  Failure failure() const { return failure_; }
  /// Human-readable reason for the last failure ("" after success).
  const std::string& error() const { return error_; }

  void close();

 private:
  bool fail(Failure failure, std::string error);

  int fd_ = -1;
  FrameDecoder decoder_{kMaxResponsePayload};
  Failure failure_ = Failure::kNone;
  std::string error_;
};

}  // namespace sm::netio
