//===- fleet/WorkerPool.h - Fleet worker endpoints and health -------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator's view of its tune-serve workers: parsed endpoints,
/// per-worker health flags, connection setup, and the heartbeat probe.
/// Health here is advisory scheduling state, not truth — a worker marked
/// unhealthy is simply skipped by the local degradation check until its
/// runner thread reconnects (with capped exponential backoff) and a
/// status probe succeeds again.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_FLEET_WORKERPOOL_H
#define G80TUNE_FLEET_WORKERPOOL_H

#include "serve/Client.h"
#include "support/Status.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace g80 {

/// One worker address: a Unix-domain socket path or a loopback TCP port.
struct WorkerEndpoint {
  std::string SocketPath; ///< Empty selects TCP.
  uint16_t TcpPort = 0;
  std::string Label;      ///< The spec as given (for messages/reports).
};

/// Parses one endpoint spec: "unix:PATH", a path containing '/',
/// "tcp:PORT", "localhost:PORT", "127.0.0.1:PORT", or a bare port.
Expected<WorkerEndpoint> parseWorkerEndpoint(const std::string &Spec);

/// Parses a comma-separated endpoint list (the --workers flag).
Expected<std::vector<WorkerEndpoint>>
parseWorkerList(const std::string &CommaList);

/// Health for a fixed set of workers.  All accessors are thread-safe; the
/// coordinator's per-worker runner threads and monitor read and write
/// concurrently.
class WorkerPool {
public:
  explicit WorkerPool(std::vector<WorkerEndpoint> Endpoints);

  size_t size() const { return Workers.size(); }
  const WorkerEndpoint &endpoint(size_t I) const { return Workers[I]->Ep; }

  bool healthy(size_t I) const;
  void setHealthy(size_t I, bool H);
  size_t healthyCount() const;
  /// Whether every worker's health has been set at least once, i.e. its
  /// first connection attempt or probe has finished, either way.  Until
  /// then "unhealthy" only means "not connected yet".
  bool allSettled() const;

  /// Opens a fresh connection to worker \p I.
  Expected<ServeClient> connectWorker(size_t I) const;

  /// One status round-trip on a *fresh* connection — detects a dead or
  /// wedged daemon even while the shard connection looks idle-healthy.
  /// Updates the health flag.
  bool probe(size_t I, double TimeoutSeconds);

private:
  struct State {
    WorkerEndpoint Ep;
    std::atomic<bool> Healthy{false};
    std::atomic<bool> Settled{false};
  };

  std::vector<std::unique_ptr<State>> Workers;
};

} // namespace g80

#endif // G80TUNE_FLEET_WORKERPOOL_H
