//===- fleet/Coordinator.h - Fault-tolerant fleet sweep coordinator -------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `tune fleet`'s engine: partitions one deterministic sweep plan into
/// shards (fleet/ShardPlan.h), dispatches them to N tune-serve workers
/// over the framed-JSON protocol, and fills the plan's round from their
/// journal records through SweepDriver::run(SweepPlan, RoundMeasure).
/// The driver journals the records in plan order, so the journal is the
/// bytes `tune search --journal` writes for the same plan because the
/// same code writes both.
///
/// Robustness model (DESIGN.md §13):
///  - every shard is idempotent, keyed by (plan fingerprint, candidate
///    range); duplicate completions are dropped first-result-wins;
///  - a dead, hung, or refused worker gets its in-flight shard
///    re-queued and its runner reconnects with capped exponential
///    backoff (support/Backoff.h); the monitor probes every worker on a
///    fresh connection each heartbeat, and a runner whose worker failed
///    the probe drops its connection;
///  - stragglers past the 95th percentile of completed-shard durations
///    are hedged onto a second worker;
///  - when every remote worker is unhealthy the coordinator degrades to
///    executing shards in-process rather than stalling;
///  - the journal is the coordinator's only durable state: a rerun
///    resumes it like `tune search --resume`, recovering the shards that
///    lie wholly in its prefix and dispatching the rest.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_FLEET_COORDINATOR_H
#define G80TUNE_FLEET_COORDINATOR_H

#include "fleet/ShardPlan.h"
#include "fleet/WorkerPool.h"
#include "serve/Protocol.h"
#include "support/Status.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace g80 {

/// Live counters streamed to --progress.
struct FleetProgress {
  uint64_t ShardsDone = 0;
  uint64_t ShardsTotal = 0;
  uint64_t HealthyWorkers = 0;
  uint64_t TotalWorkers = 0;
  uint64_t ReDispatched = 0;
  uint64_t Hedged = 0;
  uint64_t LocalShards = 0;
  bool Degraded = false; ///< Remote workers configured but shards ran locally.
};

/// How a fleet run ended.
enum class FleetStatus : uint8_t {
  Completed,   ///< All shards done and journaled.
  Interrupted, ///< Stopped by signal/ShouldStop; the journal resumes.
  Error,       ///< Setup or journal failure; see Error.
};

struct FleetReport {
  FleetStatus Status = FleetStatus::Error;
  uint64_t ShardsTotal = 0;
  uint64_t ShardsCompleted = 0;
  uint64_t ShardsRecovered = 0;   ///< Wholly in the resumed journal.
  uint64_t ReDispatched = 0;      ///< Requeued after a worker failure.
  uint64_t Hedged = 0;            ///< Straggler duplicates issued.
  uint64_t DuplicatesDropped = 0; ///< Late results beaten by a first finisher.
  uint64_t LocalShards = 0;       ///< Executed in-process by the coordinator.
  bool Degraded = false;
  uint64_t PlanFp = 0;
  std::vector<std::string> Warnings;
  Diagnostic Error;
};

struct FleetOptions {
  /// What to sweep (app/machine/strategy/seed/budget/fastbw/lint; Wait
  /// and DeadlineSeconds are ignored).
  TuneRequest Request;
  /// Remote workers.  May be empty: the coordinator then runs every
  /// shard in-process (AllowLocal must be true).
  std::vector<WorkerEndpoint> Workers;
  /// Where shards run in-process keep their resume journals.
  std::string SpoolDir;
  /// The fleet's journal: grows in plan order as the finished shards'
  /// contiguous prefix, and is resumed whenever it exists (one of
  /// another request is refused).
  std::string JournalPath;
  /// Candidates per shard (clamped to [1, 1024]).
  uint64_t ShardSize = 8;
  /// Plan-derivation and in-process execution threads.
  unsigned Jobs = 1;
  /// Per-dispatch wall-clock budget before a worker is declared hung and
  /// the shard re-queued.
  double ShardTimeoutSeconds = 600;
  /// Idle-worker status-probe period.
  double HeartbeatSeconds = 2;
  /// Degrade to coordinator-local in-process execution when no remote
  /// worker is healthy.
  bool AllowLocal = true;
  std::function<void(const FleetProgress &)> OnProgress;
  /// Checked continuously; true interrupts the run resumably.
  std::function<bool()> ShouldStop;
};

class FleetCoordinator {
public:
  explicit FleetCoordinator(FleetOptions Opts);
  ~FleetCoordinator();
  FleetCoordinator(const FleetCoordinator &) = delete;
  FleetCoordinator &operator=(const FleetCoordinator &) = delete;

  /// Plans, resumes the journal, and dispatches every shard it does not
  /// hold yet.  Blocking; returns when the journal is complete, the run
  /// is interrupted, or setup or the journal fails.
  FleetReport run();

private:
  struct Impl;
  Impl *M;
};

} // namespace g80

#endif // G80TUNE_FLEET_COORDINATOR_H
