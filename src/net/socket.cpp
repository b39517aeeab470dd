#include "net/socket.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>

#include "support/failpoint.hpp"

namespace msptrsv::net {

namespace {

using core::Expected;
using core::SolveStatus;

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Expected<bool> Socket::send_all(std::span<const std::uint8_t> bytes) {
  // Chaos seam: error() kills the write before any byte moves; partial(N)
  // is a TORN write -- the first N bytes reach the wire and then the call
  // reports the connection dead, so the peer sees a truncated frame (the
  // corrupt-stream case the frame decoder must fail-stop on).
  std::size_t limit = bytes.size();
  bool torn = false;
  if (const support::FailpointHit fp = MSPTRSV_FAILPOINT("net.sock.send")) {
    if (fp.kind == support::FailpointHit::Kind::kError) {
      return Expected<bool>(SolveStatus::kNetworkError,
                            "injected by failpoint net.sock.send");
    }
    if (fp.kind == support::FailpointHit::Kind::kPartial) {
      limit = std::min(
          limit, static_cast<std::size_t>(fp.arg > 0 ? fp.arg : 0));
      torn = true;
    }
  }
  std::size_t sent = 0;
  while (sent < limit) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, limit - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Expected<bool>(SolveStatus::kNetworkError,
                            errno_text("send failed at byte " +
                                       std::to_string(sent) + " of " +
                                       std::to_string(bytes.size())));
    }
    sent += static_cast<std::size_t>(n);
  }
  if (torn) {
    return Expected<bool>(
        SolveStatus::kNetworkError,
        "injected torn write: " + std::to_string(limit) + " of " +
            std::to_string(bytes.size()) +
            " bytes sent (failpoint net.sock.send)");
  }
  return true;
}

Expected<bool> Socket::recv_exact(std::span<std::uint8_t> bytes, bool* eof) {
  if (eof != nullptr) *eof = false;
  if (const support::FailpointHit fp = MSPTRSV_FAILPOINT("net.sock.recv");
      fp.kind == support::FailpointHit::Kind::kError) {
    return Expected<bool>(SolveStatus::kNetworkError,
                          "injected by failpoint net.sock.recv");
  }
  std::size_t got = 0;
  while (got < bytes.size()) {
    const ssize_t n = ::recv(fd_, bytes.data() + got, bytes.size() - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Expected<bool>(SolveStatus::kNetworkError,
                            errno_text("recv failed"));
    }
    if (n == 0) {
      if (got == 0 && eof != nullptr) {
        *eof = true;
        return true;  // clean close between frames
      }
      return Expected<bool>(
          SolveStatus::kNetworkError,
          "peer closed mid-frame (" + std::to_string(got) + " of " +
              std::to_string(bytes.size()) + " bytes received)");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

bool Socket::peer_closed() const {
  if (fd_ < 0) return true;
  std::uint8_t byte;
  ssize_t n;
  do {
    n = ::recv(fd_, &byte, 1, MSG_PEEK | MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
}

void Socket::shutdown_read() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RD);
}

void Socket::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Expected<ListenSocket> ListenSocket::open(std::uint16_t port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Expected<ListenSocket>(SolveStatus::kNetworkError,
                                  errno_text("socket"));
  }
  Socket sock(fd);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Expected<ListenSocket>(
        SolveStatus::kNetworkError,
        errno_text("bind to port " + std::to_string(port)));
  }
  if (::listen(fd, backlog) != 0) {
    return Expected<ListenSocket>(SolveStatus::kNetworkError,
                                  errno_text("listen"));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Expected<ListenSocket>(SolveStatus::kNetworkError,
                                  errno_text("getsockname"));
  }
  ListenSocket out;
  out.sock_ = std::move(sock);
  out.port_ = ntohs(bound.sin_port);
  return out;
}

Expected<Socket> ListenSocket::accept() {
  for (;;) {
    const int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Expected<Socket>(SolveStatus::kNetworkError,
                            errno_text("accept"));
  }
}

Expected<Socket> tcp_connect(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* found = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &found);
  if (rc != 0 || found == nullptr) {
    return Expected<Socket>(SolveStatus::kNetworkError,
                            "cannot resolve " + host + ": " +
                                ::gai_strerror(rc));
  }
  Expected<Socket> result(SolveStatus::kNetworkError, "no address tried");
  for (const addrinfo* ai = found; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      result = Expected<Socket>(SolveStatus::kNetworkError,
                                errno_text("socket"));
      continue;
    }
    Socket sock(fd);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      result = std::move(sock);
      break;
    }
    result = Expected<Socket>(
        SolveStatus::kNetworkError,
        errno_text("connect to " + host + ":" + std::to_string(port)));
  }
  ::freeaddrinfo(found);
  return result;
}

}  // namespace msptrsv::net
