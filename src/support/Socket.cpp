//===- support/Socket.cpp -------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Socket.h"

#include <utility>

#ifndef _WIN32
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace g80;

Socket::Socket(Socket &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)), Pending(std::move(Other.Pending)) {}

Socket &Socket::operator=(Socket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
    Pending = std::move(Other.Pending);
  }
  return *this;
}

Socket::~Socket() { close(); }

ListenSocket::ListenSocket(ListenSocket &&Other) noexcept
    : Fd(std::exchange(Other.Fd, -1)), UnixPath(std::move(Other.UnixPath)),
      Port(Other.Port) {}

ListenSocket &ListenSocket::operator=(ListenSocket &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = std::exchange(Other.Fd, -1);
    UnixPath = std::move(Other.UnixPath);
    Port = Other.Port;
  }
  return *this;
}

ListenSocket::~ListenSocket() { close(); }

namespace {

Diagnostic socketDiag(std::string Message) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Message));
}

} // namespace

#ifndef _WIN32

bool g80::socketsSupported() { return true; }

void Socket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
  Pending.clear();
}

namespace {

/// Milliseconds left until \p Deadline, clamped to [0, INT_MAX-ish].
int millisLeft(std::chrono::steady_clock::time_point Deadline) {
  auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
      Deadline - std::chrono::steady_clock::now());
  if (Left.count() < 0)
    return 0;
  if (Left.count() > 3600000)
    return 3600000;
  return int(Left.count());
}

std::chrono::steady_clock::time_point deadlineIn(double Seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(Seconds));
}

// A write to a peer that already closed must fail with EPIPE, not kill
// the process with SIGPIPE.  Where the platform has MSG_NOSIGNAL the
// flag suppresses it per-send; elsewhere a one-time process-wide
// SIG_IGN covers the same hazard.
#ifdef MSG_NOSIGNAL
constexpr int SendFlags = MSG_NOSIGNAL;
inline void suppressSigpipe() {}
#else
constexpr int SendFlags = 0;
void suppressSigpipe() {
  static const bool Installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)Installed;
}
#endif

/// Turns off Nagle's algorithm on TCP socket \p Fd (why: Socket.h).
/// sendFrame writes each frame with one send, so Nagle has no small
/// fragments to coalesce anyway.  Failure only costs latency.
void setNoDelay(int Fd) {
  int One = 1;
  (void)::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
}

} // namespace

Expected<Unit> Socket::sendFrame(std::string_view Payload) {
  if (Fd < 0)
    return socketDiag("sendFrame on a closed socket");
  if (Payload.size() > MaxFrameBytes)
    return socketDiag("frame payload exceeds " +
                      std::to_string(MaxFrameBytes) + " bytes");
  uint32_t Len = uint32_t(Payload.size());
  unsigned char Prefix[4] = {
      (unsigned char)(Len >> 24), (unsigned char)(Len >> 16),
      (unsigned char)(Len >> 8), (unsigned char)(Len)};
  std::string Wire(reinterpret_cast<const char *>(Prefix), 4);
  Wire.append(Payload);
  suppressSigpipe();
  size_t Done = 0;
  while (Done < Wire.size()) {
    ssize_t N = ::send(Fd, Wire.data() + Done, Wire.size() - Done, SendFlags);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return socketDiag(std::string("send failed: ") + std::strerror(errno));
    }
    Done += size_t(N);
  }
  return Unit{};
}

Socket::Recv Socket::recvFrame(double TimeoutSeconds, std::string &Payload) {
  if (Fd < 0)
    return Recv::Error;
  auto Deadline = deadlineIn(TimeoutSeconds);
  Payload.clear();
  for (;;) {
    // Buffered frames come first: poll cannot see them.
    if (Pending.size() >= 4) {
      auto *P = reinterpret_cast<const unsigned char *>(Pending.data());
      uint32_t Need = (uint32_t(P[0]) << 24) | (uint32_t(P[1]) << 16) |
                      (uint32_t(P[2]) << 8) | uint32_t(P[3]);
      if (Need > MaxFrameBytes)
        return Recv::Oversized;
      if (Pending.size() - 4 >= Need) {
        Payload.assign(Pending, 4, Need);
        Pending.erase(0, 4 + size_t(Need));
        return Recv::Frame;
      }
    }
    struct pollfd Pfd = {Fd, POLLIN, 0};
    int R = ::poll(&Pfd, 1, millisLeft(Deadline));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return Recv::Error;
    }
    if (R == 0)
      return Recv::Timeout; // Pending keeps the partial frame.
    char Chunk[16384];
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return Recv::Error;
    }
    if (N == 0) {
      // Orderly close is only clean at a frame boundary; EOF inside a
      // frame means the peer died mid-message.
      return Pending.empty() ? Recv::Closed : Recv::Error;
    }
    Pending.append(Chunk, size_t(N));
  }
}

void ListenSocket::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
    if (!UnixPath.empty())
      ::unlink(UnixPath.c_str());
  }
}

Expected<ListenSocket> ListenSocket::listenUnix(const std::string &Path) {
  struct sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path))
    return socketDiag("unix socket path too long: " + Path);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return socketDiag(std::string("socket failed: ") + std::strerror(errno));
  // A crashed daemon leaves its socket file behind; rebinding requires
  // removing it first (connect() to the stale file fails, so this is
  // safe for the single-daemon-per-spool model).
  ::unlink(Path.c_str());
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return socketDiag("bind " + Path + " failed: " + E);
  }
  if (::listen(Fd, 64) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return socketDiag("listen " + Path + " failed: " + E);
  }
  return ListenSocket(Fd, Path, 0);
}

Expected<ListenSocket> ListenSocket::listenTcp(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return socketDiag(std::string("socket failed: ") + std::strerror(errno));
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return socketDiag("bind 127.0.0.1:" + std::to_string(Port) +
                      " failed: " + E);
  }
  if (::listen(Fd, 64) != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return socketDiag("listen failed: " + E);
  }
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<struct sockaddr *>(&Addr), &Len) !=
      0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return socketDiag("getsockname failed: " + E);
  }
  return ListenSocket(Fd, "", ntohs(Addr.sin_port));
}

Expected<Socket> ListenSocket::acceptFor(double TimeoutSeconds) {
  if (Fd < 0)
    return socketDiag("accept on a closed listener");
  auto Deadline = deadlineIn(TimeoutSeconds);
  for (;;) {
    struct pollfd Pfd = {Fd, POLLIN, 0};
    int R = ::poll(&Pfd, 1, millisLeft(Deadline));
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return socketDiag(std::string("poll failed: ") + std::strerror(errno));
    }
    if (R == 0)
      return Socket(); // Timeout: invalid socket, not an error.
    int Conn = ::accept(Fd, nullptr, nullptr);
    if (Conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
          errno == EWOULDBLOCK)
        continue;
      return socketDiag(std::string("accept failed: ") +
                        std::strerror(errno));
    }
    if (UnixPath.empty())
      setNoDelay(Conn);
    return Socket::fromFd(Conn);
  }
}

namespace {

Expected<Socket> connectAddr(int Family, const struct sockaddr *Addr,
                             socklen_t Len, const std::string &What) {
  int Fd = ::socket(Family, SOCK_STREAM, 0);
  if (Fd < 0)
    return socketDiag(std::string("socket failed: ") + std::strerror(errno));
  int R = ::connect(Fd, Addr, Len);
  if (R != 0 && errno == EINTR) {
    // POSIX: a connect() interrupted by a signal keeps completing
    // asynchronously, and re-calling it races the in-flight attempt
    // (EALREADY/EADDRINUSE).  Wait for writability, then read the real
    // outcome from SO_ERROR.
    for (;;) {
      struct pollfd Pfd = {Fd, POLLOUT, 0};
      int P = ::poll(&Pfd, 1, -1);
      if (P < 0 && errno == EINTR)
        continue;
      if (P < 0) {
        std::string E = std::strerror(errno);
        ::close(Fd);
        return socketDiag("connect " + What + " failed: " + E);
      }
      break;
    }
    int Err = 0;
    socklen_t ErrLen = sizeof(Err);
    if (::getsockopt(Fd, SOL_SOCKET, SO_ERROR, &Err, &ErrLen) != 0)
      Err = errno;
    if (Err == 0) {
      R = 0;
    } else {
      errno = Err;
      R = -1;
    }
  }
  if (R != 0) {
    std::string E = std::strerror(errno);
    ::close(Fd);
    return socketDiag("connect " + What + " failed: " + E);
  }
  if (Family == AF_INET)
    setNoDelay(Fd);
  return Socket::fromFd(Fd);
}

} // namespace

Expected<Socket> g80::connectUnix(const std::string &Path) {
  struct sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path))
    return socketDiag("unix socket path too long: " + Path);
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return connectAddr(AF_UNIX, reinterpret_cast<struct sockaddr *>(&Addr),
                     sizeof(Addr), Path);
}

Expected<Socket> g80::connectTcp(uint16_t Port) {
  struct sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  return connectAddr(AF_INET, reinterpret_cast<struct sockaddr *>(&Addr),
                     sizeof(Addr), "127.0.0.1:" + std::to_string(Port));
}

#else // _WIN32

bool g80::socketsSupported() { return false; }

void Socket::close() { Fd = -1; }

Expected<Unit> Socket::sendFrame(std::string_view) {
  return socketDiag("sockets unsupported on this platform");
}

Socket::Recv Socket::recvFrame(double, std::string &) { return Recv::Error; }

void ListenSocket::close() { Fd = -1; }

Expected<ListenSocket> ListenSocket::listenUnix(const std::string &) {
  return socketDiag("sockets unsupported on this platform");
}

Expected<ListenSocket> ListenSocket::listenTcp(uint16_t) {
  return socketDiag("sockets unsupported on this platform");
}

Expected<Socket> ListenSocket::acceptFor(double) {
  return socketDiag("sockets unsupported on this platform");
}

Expected<Socket> g80::connectUnix(const std::string &) {
  return socketDiag("sockets unsupported on this platform");
}

Expected<Socket> g80::connectTcp(uint16_t) {
  return socketDiag("sockets unsupported on this platform");
}

#endif
