// Minimal POSIX TCP helpers shared by the serve daemon and its clients.
//
// Loopback-oriented: the serve API is a local IPC surface (the daemon binds
// 127.0.0.1 by default), so these wrappers stay deliberately small — IPv4,
// blocking sockets, full-buffer send/recv loops, MSG_NOSIGNAL everywhere so
// a dropped peer surfaces as an error return instead of SIGPIPE.
//
// Both ends of every connection disable Nagle (TCP_NODELAY) here and only
// here. The protocol is request/response with small frames; with Nagle on,
// a reply written while the peer's delayed ACK is pending waits ~40 ms.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

namespace uavres::serve::net {

/// Binds + listens on host:port. Returns the fd (>= 0) or -1 with `error`
/// describing the failing call. `port` 0 picks an ephemeral port;
/// `*bound_port` reports the resolved one.
inline int Listen(const std::string& host, std::uint16_t port,
                  std::uint16_t* bound_port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host address: " + host;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    if (error) *error = std::string("bind/listen: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  if (bound_port) {
    sockaddr_in got{};
    socklen_t len = sizeof got;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len) == 0) {
      *bound_port = ntohs(got.sin_port);
    }
  }
  return fd;
}

/// Disables Nagle so small frames leave as soon as they are written.
inline void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

/// Accepts one connection on a listening fd; the fd or -1 with errno set.
inline int Accept(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) SetNoDelay(fd);
  return fd;
}

/// Connects to host:port; fd or -1 with `error`.
inline int Connect(const std::string& host, std::uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (error) *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (error) *error = "bad host address: " + host;
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    if (error) *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  SetNoDelay(fd);
  return fd;
}

/// Writes the whole buffer; false once the peer is gone.
inline bool SendAll(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t sent = ::send(fd, data, n, MSG_NOSIGNAL);
    if (sent <= 0) {
      if (sent < 0 && errno == EINTR) continue;
      return false;
    }
    data += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// Reads up to `n` bytes (one recv); 0 on orderly close, -1 on error.
inline ssize_t RecvSome(int fd, char* buf, std::size_t n) {
  for (;;) {
    const ssize_t got = ::recv(fd, buf, n, 0);
    if (got < 0 && errno == EINTR) continue;
    return got;
  }
}

}  // namespace uavres::serve::net
