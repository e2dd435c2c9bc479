#include "netio/frame_client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "util/crc32.h"

namespace sm::netio {
namespace {

void put_u32le_bytes(unsigned char* p, std::uint32_t value) {
  p[0] = static_cast<unsigned char>(value & 0xff);
  p[1] = static_cast<unsigned char>((value >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((value >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((value >> 24) & 0xff);
}

}  // namespace

bool parse_endpoint(std::string_view text, Endpoint& out) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return false;
  const std::string_view digits = text.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) return false;
  std::uint32_t port = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (port == 0 || port > 65535) return false;
  out.host.assign(text.substr(0, colon));
  out.port = static_cast<std::uint16_t>(port);
  return true;
}

bool parse_endpoints(std::string_view text, std::vector<Endpoint>& out) {
  for (;;) {
    const std::size_t comma = text.find(',');
    Endpoint ep;
    if (!parse_endpoint(text.substr(0, comma), ep)) return false;
    out.push_back(std::move(ep));
    if (comma == std::string_view::npos) return true;
    text.remove_prefix(comma + 1);
  }
}

bool connect_socket(int fd, const Endpoint& ep, int connect_timeout_ms,
                    int io_timeout_ms, std::string& error) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    error = "bad target address " + ep.host;
    return false;
  }
  // Non-blocking handshake so a timeout can bound it; poll(-1) when
  // unbounded waits exactly as a blocking connect() would.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    error = "fcntl failed";
    return false;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    if (errno != EINPROGRESS) {
      error = "connect to " + ep.host + " failed";
      return false;
    }
    pollfd pfd = {fd, POLLOUT, 0};
    int ready;
    do {
      ready = ::poll(&pfd, 1, connect_timeout_ms > 0 ? connect_timeout_ms
                                                     : -1);
    } while (ready < 0 && errno == EINTR);
    int err = 0;
    socklen_t len = sizeof err;
    if (ready <= 0 ||
        ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      error = "connect to " + ep.host + " timed out/failed";
      return false;
    }
  }
  if (::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) != 0) {
    error = "fcntl failed";
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  if (io_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = io_timeout_ms / 1000;
    tv.tv_usec = (io_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  return true;
}

int connect_tcp(const Endpoint& ep, int connect_timeout_ms,
                int io_timeout_ms, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    error = "socket() failed";
    return -1;
  }
  if (!connect_socket(fd, ep, connect_timeout_ms, io_timeout_ms, error)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool FrameClient::fail(Failure failure, std::string error) {
  failure_ = failure;
  error_ = std::move(error);
  return false;
}

bool FrameClient::connect(const Endpoint& ep, int connect_timeout_ms,
                          int io_timeout_ms) {
  close();
  std::string error;
  fd_ = connect_tcp(ep, connect_timeout_ms, io_timeout_ms, error);
  if (fd_ < 0) return fail(Failure::kConnect, std::move(error));
  failure_ = Failure::kNone;
  error_.clear();
  return true;
}

bool FrameClient::send(std::string_view wire) {
  while (!wire.empty()) {
    const ssize_t n = ::send(fd_, wire.data(), wire.size(), MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return fail(Failure::kTimeout, "send timed out");
      }
      return fail(Failure::kIo, "send failed");
    }
    wire.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool FrameClient::send_frame(FrameType type, std::string_view payload) {
  // Scatter/gather: the header and CRC trailer live on the stack and the
  // payload goes straight from the caller's view, so no frame string is
  // built. Three iovecs, resumed mid-iovec after a partial send.
  unsigned char header[kFrameHeaderSize];
  unsigned char trailer[kFrameTrailerSize];
  header[0] = static_cast<unsigned char>(type);
  put_u32le_bytes(header + 1, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32(header, kFrameHeaderSize);
  crc = util::crc32(payload.data(), payload.size(), crc);
  put_u32le_bytes(trailer, crc);
  iovec iov[3];
  std::size_t iovcnt = 0;
  iov[iovcnt++] = {header, kFrameHeaderSize};
  if (!payload.empty()) {
    iov[iovcnt++] = {const_cast<char*>(payload.data()), payload.size()};
  }
  iov[iovcnt++] = {trailer, kFrameTrailerSize};
  std::size_t iov_idx = 0;
  std::size_t left = kFrameHeaderSize + payload.size() + kFrameTrailerSize;
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = iov + iov_idx;
    msg.msg_iovlen = iovcnt - iov_idx;
    const ssize_t n = ::sendmsg(fd_, &msg, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return fail(Failure::kTimeout, "send timed out");
      }
      return fail(Failure::kIo, "send failed");
    }
    left -= static_cast<std::size_t>(n);
    std::size_t sent = static_cast<std::size_t>(n);
    while (sent > 0 && sent >= iov[iov_idx].iov_len) {
      sent -= iov[iov_idx].iov_len;
      ++iov_idx;
    }
    if (sent > 0) {
      iov[iov_idx].iov_base = static_cast<char*>(iov[iov_idx].iov_base) + sent;
      iov[iov_idx].iov_len -= sent;
    }
  }
  return true;
}

bool FrameClient::read_frame(Frame& out) {
  for (;;) {
    switch (decoder_.next(out)) {
      case DecodeStatus::kFrame:
        return true;
      case DecodeStatus::kMalformed:
        return fail(Failure::kMalformed,
                    "malformed response (" + decoder_.error() + ")");
      case DecodeStatus::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      decoder_.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      return decoder_.buffered() == 0
                 ? fail(Failure::kClosed, "peer closed")
                 : fail(Failure::kIo, "peer closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return fail(Failure::kTimeout, "read timed out");
    }
    return fail(Failure::kIo, "recv failed");
  }
}

bool FrameClient::call(FrameType type, std::string_view payload,
                       Frame& out) {
  return send_frame(type, payload) && read_frame(out);
}

void FrameClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  decoder_ = FrameDecoder(kMaxResponsePayload);
}

}  // namespace sm::netio
