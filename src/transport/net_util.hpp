// Socket plumbing shared by the epoll and io_uring backends.
#pragma once

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "common/status.hpp"
#include "common/strutil.hpp"

namespace md::net {

inline Status Errno(const char* what) {
  return Err(ErrorCode::kInternal, Format("%s: %s", what, std::strerror(errno)));
}

inline void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

inline void SetTcpOptions(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

inline std::string PeerString(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    char buf[INET_ADDRSTRLEN];
    inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
    return Format("%s:%u", buf, static_cast<unsigned>(ntohs(addr.sin_port)));
  }
  return "unknown";
}

/// Binds + listens a loopback listener socket; fills `actualPort` (resolves
/// port 0 to the kernel-assigned ephemeral port). Returns the fd or a
/// negative errno-style failure via the status.
struct ListenSocket {
  int fd = -1;
  std::uint16_t port = 0;
};

/// `reusePort` sets SO_REUSEPORT (NetLoop::ListenShared); without it the
/// bind fails on a port any other socket holds.
inline Result<ListenSocket> CreateListenSocket(std::uint16_t port,
                                               bool reusePort,
                                               bool nonBlocking = true) {
  const int fd = ::socket(
      AF_INET, SOCK_STREAM | (nonBlocking ? SOCK_NONBLOCK : 0) | SOCK_CLOEXEC,
      0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // SO_REUSEPORT lets every IoThread bind its own listener on the same port;
  // the kernel spreads incoming connections across them (paper §4: clients
  // are equally partitioned among the IoThreads).
  if (reusePort) setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Errno("bind");
  }
  if (::listen(fd, 1024) < 0) {
    ::close(fd);
    return Errno("listen");
  }
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ListenSocket{fd, ntohs(addr.sin_port)};
}

/// Resolves `host` into `addr` (numeric IPv4, or "localhost").
inline Status ResolveHost(const std::string& host, std::uint16_t port,
                          sockaddr_in& addr) {
  addr = sockaddr_in{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    // Only "localhost" is resolved by name — evaluation runs on loopback.
    if (host != "localhost") {
      return Err(ErrorCode::kInvalidArgument, "unresolvable host: " + host);
    }
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  return OkStatus();
}

}  // namespace md::net
