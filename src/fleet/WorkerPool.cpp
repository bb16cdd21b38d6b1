//===- fleet/WorkerPool.cpp -----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fleet/WorkerPool.h"

#include <cstdlib>

using namespace g80;

namespace {

Diagnostic fleetError(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

/// Strict port parse; 0 is not a valid worker port.
bool parsePort(const std::string &S, uint16_t &Out) {
  if (S.empty())
    return false;
  char *End = nullptr;
  unsigned long V = std::strtoul(S.c_str(), &End, 10);
  if (!End || *End != '\0' || V == 0 || V > 65535)
    return false;
  Out = uint16_t(V);
  return true;
}

} // namespace

Expected<WorkerEndpoint> g80::parseWorkerEndpoint(const std::string &Spec) {
  WorkerEndpoint Ep;
  Ep.Label = Spec;
  if (Spec.empty())
    return fleetError("empty worker endpoint");
  if (Spec.rfind("unix:", 0) == 0) {
    Ep.SocketPath = Spec.substr(5);
    if (Ep.SocketPath.empty())
      return fleetError("worker endpoint '" + Spec + "' has no path");
    return Ep;
  }
  if (Spec.rfind("tcp:", 0) == 0) {
    if (!parsePort(Spec.substr(4), Ep.TcpPort))
      return fleetError("worker endpoint '" + Spec + "' has no valid port");
    return Ep;
  }
  if (Spec.find('/') != std::string::npos) {
    Ep.SocketPath = Spec;
    return Ep;
  }
  size_t Colon = Spec.rfind(':');
  if (Colon != std::string::npos) {
    std::string Host = Spec.substr(0, Colon);
    if (Host != "localhost" && Host != "127.0.0.1")
      return fleetError("worker endpoint '" + Spec +
                        "' must be loopback (localhost/127.0.0.1) — the "
                        "protocol has no authn story");
    if (!parsePort(Spec.substr(Colon + 1), Ep.TcpPort))
      return fleetError("worker endpoint '" + Spec + "' has no valid port");
    return Ep;
  }
  if (parsePort(Spec, Ep.TcpPort))
    return Ep;
  return fleetError("cannot parse worker endpoint '" + Spec +
                    "' (expected unix:PATH, a path, tcp:PORT, "
                    "localhost:PORT, or a bare port)");
}

Expected<std::vector<WorkerEndpoint>>
g80::parseWorkerList(const std::string &CommaList) {
  std::vector<WorkerEndpoint> Out;
  size_t Start = 0;
  while (Start <= CommaList.size()) {
    size_t Comma = CommaList.find(',', Start);
    std::string Item = CommaList.substr(
        Start, Comma == std::string::npos ? std::string::npos
                                          : Comma - Start);
    if (!Item.empty()) {
      Expected<WorkerEndpoint> Ep = parseWorkerEndpoint(Item);
      if (!Ep)
        return Ep.takeDiag();
      Out.push_back(Ep.takeValue());
    }
    if (Comma == std::string::npos)
      break;
    Start = Comma + 1;
  }
  return Out;
}

WorkerPool::WorkerPool(std::vector<WorkerEndpoint> Endpoints) {
  Workers.reserve(Endpoints.size());
  for (WorkerEndpoint &Ep : Endpoints) {
    auto S = std::make_unique<State>();
    S->Ep = std::move(Ep);
    Workers.push_back(std::move(S));
  }
}

bool WorkerPool::healthy(size_t I) const {
  return Workers[I]->Healthy.load(std::memory_order_acquire);
}

void WorkerPool::setHealthy(size_t I, bool H) {
  Workers[I]->Healthy.store(H, std::memory_order_release);
  Workers[I]->Settled.store(true, std::memory_order_release);
}

size_t WorkerPool::healthyCount() const {
  size_t N = 0;
  for (const auto &W : Workers)
    N += W->Healthy.load(std::memory_order_acquire) ? 1 : 0;
  return N;
}

bool WorkerPool::allSettled() const {
  for (const auto &W : Workers)
    if (!W->Settled.load(std::memory_order_acquire))
      return false;
  return true;
}

Expected<ServeClient> WorkerPool::connectWorker(size_t I) const {
  const WorkerEndpoint &Ep = Workers[I]->Ep;
  return ServeClient::connect(Ep.SocketPath, Ep.TcpPort);
}

bool WorkerPool::probe(size_t I, double TimeoutSeconds) {
  Expected<ServeClient> Conn = connectWorker(I);
  if (!Conn) {
    setHealthy(I, false);
    return false;
  }
  Expected<ServeStatus> S = Conn->status(TimeoutSeconds);
  bool Ok = bool(S) && !S->Draining;
  setHealthy(I, Ok);
  return Ok;
}
