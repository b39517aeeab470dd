// Minimal RAII TCP sockets for the solve wire protocol.
//
// Deliberately tiny: blocking POSIX sockets, loopback/IPv4, EINTR-safe
// full-buffer send/recv, and clean half-close semantics -- everything the
// frame layer (net/protocol.hpp) needs and nothing more. Errors come back
// through the library's Expected/SolveStatus channel as kNetworkError with
// the errno text attached, so server and client code branch on typed
// statuses instead of parsing strerror output.
//
// Two deliberate properties the higher layers depend on:
//  * writes use MSG_NOSIGNAL: a peer that vanished mid-reply produces a
//    recoverable kNetworkError on this connection, never a process-wide
//    SIGPIPE;
//  * shutdown_read()/shutdown_write() are exposed separately -- graceful
//    drain works by closing the READ side (no new requests) while the
//    write side stays open until every in-flight reply has been flushed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "core/status.hpp"

namespace msptrsv::net {

/// Move-only owner of a connected (or listening) socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Sends the whole span (EINTR-safe, MSG_NOSIGNAL). kNetworkError names
  /// the failing byte offset.
  core::Expected<bool> send_all(std::span<const std::uint8_t> bytes);

  /// Receives exactly bytes.size() bytes. A clean EOF before the first
  /// byte returns ok() == true with *eof set (the idle-connection close);
  /// EOF mid-buffer or any error is kNetworkError.
  core::Expected<bool> recv_exact(std::span<std::uint8_t> bytes, bool* eof);

  /// Non-blocking check, consuming nothing: true when the peer has closed
  /// or reset the connection and no unread byte precedes that.
  bool peer_closed() const;

  /// Half-closes: no more reads will see data / no more writes allowed.
  void shutdown_read();
  void shutdown_write();
  void close();

 private:
  int fd_ = -1;
};

/// A bound, listening TCP socket on 127.0.0.1.
class ListenSocket {
 public:
  /// Binds and listens on loopback:`port` (0 = ephemeral; read the chosen
  /// one back with port()).
  static core::Expected<ListenSocket> open(std::uint16_t port, int backlog);

  ListenSocket() = default;
  ListenSocket(ListenSocket&&) noexcept = default;
  ListenSocket& operator=(ListenSocket&&) noexcept = default;

  bool valid() const { return sock_.valid(); }
  std::uint16_t port() const { return port_; }

  /// Blocks for the next connection. kNetworkError after shutdown() -- the
  /// acceptor loop's exit signal.
  core::Expected<Socket> accept();

  /// Unblocks any accept() in flight and fails every later one
  /// (kNetworkError), leaving the fd open. On Linux, close() alone does
  /// NOT wake a thread already blocked in accept() -- shutdown() does,
  /// making it fail with EINVAL.
  void shutdown() {
    sock_.shutdown_read();
    sock_.shutdown_write();
  }

  /// Shuts down and releases the fd. Resetting the fd races a concurrent
  /// accept(): join the accepting thread after shutdown() and before this.
  void close() {
    shutdown();
    sock_.close();
  }

 private:
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to `host`:`port` (numeric IPv4 or a resolvable name;
/// TCP_NODELAY set -- solve frames are latency-sensitive and small).
core::Expected<Socket> tcp_connect(const std::string& host,
                                   std::uint16_t port);

}  // namespace msptrsv::net
