//===- serve/Client.cpp ---------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Client.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>

using namespace g80;

namespace {

Diagnostic clientError(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

} // namespace

Expected<ServeClient> ServeClient::connect(const std::string &SocketPath,
                                           uint16_t TcpPort) {
  Expected<Socket> Conn = SocketPath.empty() ? connectTcp(TcpPort)
                                             : connectUnix(SocketPath);
  if (!Conn)
    return Conn.takeDiag();
  return ServeClient(Conn.takeValue());
}

Expected<std::string> ServeClient::recvOne(double TimeoutSeconds) {
  std::string Payload;
  switch (Conn.recvFrame(TimeoutSeconds, Payload)) {
  case Socket::Recv::Frame:
    return Payload;
  case Socket::Recv::Timeout:
    return clientError("timed out waiting for a reply frame");
  case Socket::Recv::Closed:
    return clientError("daemon closed the connection");
  case Socket::Recv::Error:
    return clientError("transport error while receiving");
  case Socket::Recv::Oversized:
    return clientError("daemon sent a frame exceeding the " +
                       std::to_string(Socket::MaxFrameBytes) + "-byte cap");
  }
  return clientError("unreachable");
}

Expected<std::string> ServeClient::roundTrip(const std::string &Frame,
                                             double TimeoutSeconds) {
  Expected<Unit> S = Conn.sendFrame(Frame);
  if (!S)
    return S.takeDiag();
  return recvOne(TimeoutSeconds);
}

Expected<std::string> ServeClient::submit(const TuneRequest &Req,
                                          double TimeoutSeconds) {
  return roundTrip(Req.toJson(), TimeoutSeconds);
}

Expected<std::string> ServeClient::awaitResult(
    double TimeoutSeconds,
    const std::function<void(const std::string &)> &OnProgress) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutSeconds);
  for (;;) {
    double Left = std::chrono::duration<double>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
    if (Left <= 0)
      return clientError("timed out waiting for a result frame");
    Expected<std::string> Frame = recvOne(Left);
    if (!Frame)
      return Frame.takeDiag();
    if (frameType(*Frame) == "progress") {
      if (OnProgress)
        OnProgress(*Frame);
      continue;
    }
    return Frame;
  }
}

Expected<ShardResult>
ServeClient::runShard(const ShardRequest &Req, double TimeoutSeconds,
                      const std::function<bool()> &ShouldAbandon) {
  Expected<Unit> S = Conn.sendFrame(Req.toJson());
  if (!S)
    return S.takeDiag();
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(TimeoutSeconds);
  // Short receive slices so a coordinator can abandon a hung worker (or
  // shut down) promptly instead of blocking out the whole shard budget.
  for (;;) {
    if (ShouldAbandon && ShouldAbandon())
      return clientError("shard wait abandoned");
    double Left = std::chrono::duration<double>(
                      Deadline - std::chrono::steady_clock::now())
                      .count();
    if (Left <= 0)
      return clientError("timed out waiting for a shard_result frame");
    std::string Payload;
    switch (Conn.recvFrame(std::min(Left, 0.25), Payload)) {
    case Socket::Recv::Frame: {
      std::string Type = frameType(Payload);
      if (Type == "shard_result")
        return ShardResult::fromJson(Payload);
      if (Type == "error") {
        std::string Msg = Payload;
        jsonStringField(Payload, "error", Msg);
        return clientError(Msg);
      }
      continue; // Skip unrelated frames (progress etc.).
    }
    case Socket::Recv::Timeout:
      continue;
    case Socket::Recv::Closed:
      return clientError("daemon closed the connection");
    case Socket::Recv::Error:
      return clientError("transport error while receiving");
    case Socket::Recv::Oversized:
      return clientError("daemon sent a frame exceeding the " +
                         std::to_string(Socket::MaxFrameBytes) +
                         "-byte cap");
    }
  }
}

Expected<ServeStatus> ServeClient::status(double TimeoutSeconds) {
  Expected<std::string> Reply =
      roundTrip("{\"type\":\"status\"}", TimeoutSeconds);
  if (!Reply)
    return Reply.takeDiag();
  return ServeStatus::fromJson(*Reply);
}

Expected<Unit> ServeClient::shutdown(double TimeoutSeconds) {
  Expected<std::string> Reply =
      roundTrip("{\"type\":\"shutdown\"}", TimeoutSeconds);
  if (!Reply)
    return Reply.takeDiag();
  if (frameType(*Reply) != "ok")
    return clientError("unexpected shutdown reply: " + *Reply);
  return Unit{};
}
