//===- support/Socket.h - Length-prefixed frame transport -----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's wire transport: stream sockets (Unix-domain or
/// loopback TCP) carrying length-prefixed frames.  Each frame is a
/// 4-byte big-endian payload length followed by that many payload bytes
/// (the serve protocol puts one JSON object per frame); the prefix makes
/// message boundaries explicit so a slow or malicious client can never
/// smear two requests together, and the size cap bounds what a single
/// frame can make the daemon buffer.
///
/// All receive paths take a wall-clock budget and distinguish four
/// outcomes — a complete frame, a timeout, an orderly peer close, and a
/// transport error — because the daemon reacts differently to each
/// (keep polling, drop the session, normal end, log and drop).
///
/// Each Socket reads through its own buffer, so one recv usually yields
/// a frame's prefix and payload together; bytes past the frame wait for
/// the next call.  TCP sockets also set TCP_NODELAY: a request/reply
/// exchange where one side writes twice in a row (the daemon's
/// `accepted` then `result`) would otherwise stall the second write
/// behind the peer's delayed ACK, about 40 ms on Linux.
///
/// On platforms without POSIX sockets, socketsSupported() is false and
/// every operation fails with a SocketError diagnostic; callers gate on
/// it the same way Subprocess callers gate on subprocessSupported().
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SUPPORT_SOCKET_H
#define G80TUNE_SUPPORT_SOCKET_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace g80 {

/// True when this platform can create stream sockets.
bool socketsSupported();

/// One connected stream endpoint.  Movable, not copyable; the destructor
/// closes the descriptor.
class Socket {
public:
  /// Frames larger than this are a protocol violation, not a payload.
  static constexpr uint32_t MaxFrameBytes = 1u << 20;

  Socket() = default;
  Socket(Socket &&Other) noexcept;
  Socket &operator=(Socket &&Other) noexcept;
  Socket(const Socket &) = delete;
  Socket &operator=(const Socket &) = delete;
  ~Socket();

  bool valid() const { return Fd >= 0; }

  /// Writes the 4-byte length prefix and \p Payload.  Fails (without
  /// raising SIGPIPE) when the peer is gone or the payload exceeds
  /// MaxFrameBytes.
  Expected<Unit> sendFrame(std::string_view Payload);

  /// What recvFrame observed.
  enum class Recv : uint8_t {
    Frame,     ///< \p Payload holds one complete frame.
    Timeout,   ///< No complete frame within the budget.
    Closed,    ///< Peer closed the connection at a frame boundary.
    Error,     ///< Transport failure (mid-frame EOF, I/O error); the
               ///< connection is unusable.
    Oversized, ///< The prefix announced a frame beyond MaxFrameBytes.
               ///< The payload is not waited for, so the stream is still
               ///< writable — the server sends a structured error reply
               ///< before dropping the session.
  };

  /// Waits up to \p TimeoutSeconds for one complete frame.  The budget
  /// covers the whole frame (prefix and payload together).  A timeout
  /// keeps whatever part of the frame has arrived, so a caller polling
  /// in short slices (the daemon's sessions, ServeClient::runShard)
  /// resumes the frame on its next call instead of losing it.
  Recv recvFrame(double TimeoutSeconds, std::string &Payload);

  /// Closes the descriptor.  Idempotent.
  void close();

  /// Adopts an already-connected descriptor (accept/connect internals
  /// and tests).
  static Socket fromFd(int Fd) { return Socket(Fd); }

private:
  explicit Socket(int Fd) : Fd(Fd) {}

  int Fd = -1;
  /// Received bytes not yet returned: a frame a timeout cut short, or
  /// frames that arrived behind the one last returned.
  std::string Pending;
};

/// A listening endpoint.  Movable, not copyable; closing a Unix-domain
/// listener unlinks its socket file.
class ListenSocket {
public:
  ListenSocket() = default;
  ListenSocket(ListenSocket &&Other) noexcept;
  ListenSocket &operator=(ListenSocket &&Other) noexcept;
  ListenSocket(const ListenSocket &) = delete;
  ListenSocket &operator=(const ListenSocket &) = delete;
  ~ListenSocket();

  /// Binds and listens on a Unix-domain socket at \p Path, replacing any
  /// stale socket file a crashed daemon left behind.
  static Expected<ListenSocket> listenUnix(const std::string &Path);

  /// Binds and listens on loopback TCP \p Port (0 picks an ephemeral
  /// port; see port()).  Loopback only — the daemon has no authn story
  /// and must not be reachable off-host.
  static Expected<ListenSocket> listenTcp(uint16_t Port);

  bool valid() const { return Fd >= 0; }

  /// The bound TCP port (resolved after listenTcp(0)); 0 for Unix
  /// listeners.
  uint16_t port() const { return Port; }

  /// Waits up to \p TimeoutSeconds for a connection.  Returns an invalid
  /// Socket on timeout; a Diagnostic only for hard accept errors.
  Expected<Socket> acceptFor(double TimeoutSeconds);

  /// Stops listening (and unlinks the Unix socket file).  Idempotent.
  void close();

private:
  ListenSocket(int Fd, std::string UnixPath, uint16_t Port)
      : Fd(Fd), UnixPath(std::move(UnixPath)), Port(Port) {}

  int Fd = -1;
  std::string UnixPath;
  uint16_t Port = 0;
};

/// Connects to a Unix-domain socket at \p Path.
Expected<Socket> connectUnix(const std::string &Path);

/// Connects to loopback TCP \p Port.
Expected<Socket> connectTcp(uint16_t Port);

} // namespace g80

#endif // G80TUNE_SUPPORT_SOCKET_H
