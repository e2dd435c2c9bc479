// Loopback client for the netio/notary tests: a netio::FrameClient to a
// TcpServer under test on 127.0.0.1, plus the socket tweaks only tests
// want — a shrunken receive window, half-close, an abortive (RST) close,
// and reading every frame until the server hangs up.
#pragma once

#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "netio/frame.h"
#include "netio/frame_client.h"

namespace sm::testing {

class LoopbackClient {
 public:
  /// `rcvbuf` > 0 shrinks SO_RCVBUF before connecting (the backpressure
  /// tests use a tiny receive window to keep response bytes queued on the
  /// server; the window scale is fixed at the handshake).
  explicit LoopbackClient(std::uint16_t port, int rcvbuf = 0) {
    const netio::Endpoint ep{"127.0.0.1", port};
    if (rcvbuf <= 0) {
      client_.connect(ep);
      return;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
    std::string error;
    if (!netio::connect_socket(fd, ep, 0, 0, error)) {
      ::close(fd);
      return;
    }
    client_ = netio::FrameClient(fd);
  }

  bool connected() const { return client_.connected(); }

  /// Sends every byte (raw — callers encode frames themselves when they
  /// want to corrupt them).
  bool send_raw(std::string_view data) { return client_.send(data); }

  bool send_frame(netio::FrameType type, std::string_view payload) {
    return client_.send_frame(type, payload);
  }

  /// Half-closes the write side so the server sees EOF while we can still
  /// read its final responses.
  void shutdown_write() {
    if (client_.connected()) ::shutdown(client_.fd(), SHUT_WR);
  }

  /// Blocks until one well-formed frame arrives. False on EOF, error, or a
  /// framing violation from the server (which would be a server bug).
  bool read_frame(netio::Frame& out) { return client_.read_frame(out); }

  /// Reads until the server closes, collecting every frame it sent. False
  /// if any received bytes failed to decode as frames, or the stream
  /// ended mid-frame.
  bool read_until_eof(std::vector<netio::Frame>& frames) {
    netio::Frame frame;
    while (client_.read_frame(frame)) frames.push_back(frame);
    return client_.failure() == netio::FrameClient::Failure::kClosed;
  }

  void close() { client_.close(); }

  /// Aborts the connection: SO_LINGER(0) makes close() send RST instead
  /// of FIN, so the server sees EPOLLERR/EPOLLHUP rather than clean EOF —
  /// the fd-churn tests use this to recycle server-side fd numbers fast.
  void abortive_close() {
    if (!client_.connected()) return;
    const linger lg{1, 0};
    ::setsockopt(client_.fd(), SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
    client_.close();
  }

 private:
  netio::FrameClient client_;
};

}  // namespace sm::testing
