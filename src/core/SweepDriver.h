//===- core/SweepDriver.h - Durable, resumable, isolated sweeps -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durable sweep-execution layer: the one measurement loop of every
/// strategy and every caller.  A SearchCursor proposes rounds of
/// configurations (a SweepPlan is a one-round cursor); the driver
/// measures each round, optionally with three protections:
///
///  - **Write-ahead journal** (support/Journal.h): every completed
///    evaluation — measured or quarantined — is appended as a checksummed,
///    fsync'd record before the sweep moves on, so a SIGKILL/OOM/power
///    loss at any instant forfeits at most the configuration in flight.
///
///  - **Resume**: with SweepOptions::Resume, a journal whose fingerprint
///    header matches is replayed as a prefix of the regenerated commit
///    order — completed configurations are restored (bit-identical times)
///    and skipped; a torn final record from the kill point is truncated
///    away.  A journal from a different app/machine/strategy/seed/
///    injection, or with records out of that order, is rejected.
///
///  - **Process isolation** (support/Subprocess.h): with
///    SweepOptions::Isolate, workers are forked per shard of a round and
///    stream records back over a pipe.  A worker that segfaults, exits
///    nonzero, or blows its per-configuration wall-clock budget costs
///    only the in-flight configuration, which is retried once (with
///    backoff, in a fresh worker) before being quarantined as a
///    Simulate-stage WorkerCrashed/WorkerTimeout failure.  Where fork is
///    unavailable the sweep degrades to in-process execution with a
///    warning instead of failing.
///
/// SIGINT/SIGTERM during a driven sweep (see ScopedSweepSignalHandlers)
/// stop it at the next record boundary with SweepStatus::Interrupted; the
/// journal already holds everything completed, so `--resume` continues
/// where the interrupt landed.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_SWEEPDRIVER_H
#define G80TUNE_CORE_SWEEPDRIVER_H

#include "core/Search.h"
#include "support/Journal.h"

#include <functional>
#include <string>
#include <vector>

namespace g80 {

/// One probe outcome fed back to a cursor.
struct ProbeResult {
  uint64_t FlatIndex = 0;
  /// The configuration measured successfully.  False covers inexpressible
  /// points, resource-invalid executables, and quarantined measurements —
  /// the cursor only needs "no usable time here".
  bool Usable = false;
  double TimeSeconds = 0; ///< Valid only when Usable.
};

/// A deterministic search: nextRound() proposes a batch of flat indices
/// to probe, feed() delivers their results (parallel to the proposal
/// list), and an empty round ends the search.  Cursor state must depend
/// only on the seed and the fed results — never on wall clock, job count,
/// or journal state — so a resumed run regenerates the exact probe
/// sequence.
class SearchCursor {
public:
  virtual ~SearchCursor() = default;
  virtual std::vector<uint64_t> nextRound() = 0;
  virtual void feed(const std::vector<ProbeResult> &Round) = 0;
};

/// One progress observation, emitted from the committer after every
/// completed (measured or quarantined) record.  Counts include
/// journal-resumed configurations, so Done/Total is the sweep's true
/// position; FreshDone excludes them, so rates computed from successive
/// observations reflect this run's throughput only.
struct SweepProgress {
  size_t Done = 0;       ///< Candidates completed, including resumed.
  size_t FreshDone = 0;  ///< Candidates completed by this run.
  size_t Total = 0;      ///< Planned candidates, or the search budget.
  size_t Quarantined = 0;
};

/// How a driven sweep should run.
struct SweepOptions {
  /// Journal file; empty disables durability.
  std::string JournalPath;
  /// Replay a matching journal instead of truncating it.
  bool Resume = false;
  /// Fork a worker per shard of candidates.
  bool Isolate = false;
  /// Wall-clock budget per in-flight configuration in a worker.
  double TaskTimeoutSeconds = 30.0;
  /// Fingerprint written to (and checked against) the journal header.
  JournalHeader Fingerprint;
  /// Worker threads for static evaluation and the in-process measurement
  /// path (1 = serial).  Workers measure a round into disjoint slots while
  /// the calling thread commits results strictly in round order, so the
  /// journal bytes, SearchOutcome totals, best-config tie-breaking, and
  /// quarantine accounting are bit-identical for every job count.
  /// Measurement ignores it (with a warning when > 1) under Isolate —
  /// those workers are processes.
  unsigned Jobs = 1;
  /// Observer called from the committer thread after each completed
  /// record (`tune search --progress`).  Runs strictly in commit order and
  /// must not mutate sweep state; it cannot affect results, journal
  /// bytes, or quarantine accounting.
  std::function<void(const SweepProgress &)> OnProgress;
  /// Per-sweep cancellation hook, polled wherever the global interrupt
  /// flag is polled (record boundaries, worker-poll slices).  Returning
  /// true stops this sweep with SweepStatus::Interrupted without touching
  /// the process-wide flag — how the serve daemon enforces per-request
  /// deadlines and drains without killing sibling sweeps.
  std::function<bool()> ShouldStop;
};

enum class SweepStatus : uint8_t {
  Completed,   ///< Every planned candidate was measured or quarantined
               ///< (a search: it converged or spent its budget).
  Interrupted, ///< SIGINT/SIGTERM (or requestSweepInterrupt) stopped it;
               ///< the journal makes it resumable.
  Error,       ///< Setup failed (stale/corrupt journal, I/O); no sweep ran.
};

/// A driven sweep's full story.
struct SweepReport {
  SweepStatus Status = SweepStatus::Completed;
  SearchOutcome Outcome;

  /// Configurations restored from the journal instead of re-measured.
  size_t ResumedSkipped = 0;
  /// In-flight configurations retried in a fresh worker after a
  /// crash/hang.
  size_t WorkerRetries = 0;
  /// Isolation was requested but fork is unavailable; ran in-process.
  bool DegradedInProcess = false;
  /// The resumed journal ended in a torn record that was dropped.
  bool TornTailDropped = false;
  /// A journal append failed, so the records after it are not durable;
  /// the sweep went on without the journal (see Warnings).
  bool JournalFailed = false;
  /// Human-readable notes (degradation, retries, torn tail).
  std::vector<std::string> Warnings;
  /// Set when Status == Error.
  Diagnostic Error;
};

/// Measures a plan's round in place of the driver's own threads — how the
/// fleet coordinator fills it from worker shard results.  \p Slots are the
/// round's unreplayed candidates in commit order: for a plan, the suffix
/// after the journal prefix a resume replayed.  The function fills every
/// slot (a measurement or a Failure), in any order and from any thread,
/// calls Done(I) once slot I is final, and returns when every slot is
/// done or Stopped() is true.  The calling thread runs it; the driver's
/// committer journals the slots in round order meanwhile.
using RoundMeasure = std::function<void(
    const std::vector<ConfigEval *> &Slots,
    const std::function<void(size_t)> &Done,
    const std::function<bool()> &Stopped)>;

/// Runs plans and cursors durably.  The engine must outlive the driver.
class SweepDriver {
public:
  SweepDriver(const SearchEngine &Engine, SweepOptions Opts)
      : Engine(Engine), Opts(std::move(Opts)) {}

  /// Executes the measurement phase of \p Plan: a one-round cursor over
  /// its candidates with a budget of the candidate count, committed in
  /// plan order.  The outcome's Candidates are the plan's.  Quarantined
  /// indices in the outcome are sorted so interrupted + resumed runs
  /// compare equal to uninterrupted ones.
  SweepReport run(SweepPlan Plan) const;

  /// Like run(SweepPlan), except that \p Measure measures the round;
  /// SweepOptions::Isolate and Jobs then do not apply to measurement.
  SweepReport run(SweepPlan Plan, const RoundMeasure &Measure) const;

  /// Executes the search \p Cursor proposes until it converges, \p Budget
  /// records (replayed ones included) are committed, or a round backstop
  /// of 256 + 16 * Budget rounds is hit.  Evals holds every configuration
  /// the search proposed, Candidates the successfully measured ones in
  /// commit order.  Static rejects are fed to the cursor but never
  /// journaled or budgeted.
  SweepReport run(SearchCursor &Cursor, uint64_t Budget,
                  std::string Strategy) const;

private:
  SweepReport drive(SearchOutcome Seed, SearchCursor &Cursor,
                    uint64_t Budget, const RoundMeasure &Measure) const;

  const SearchEngine &Engine;
  SweepOptions Opts;
};

/// Bumps the sweep-interrupt counter that run() polls between records —
/// what the signal handlers call, exposed for tests.  The first request
/// asks for a graceful stop; a second is a force-quit escalation (see
/// sweepForceQuitRequested).
void requestSweepInterrupt();
/// Clears the counter (call before starting a fresh sweep).
void clearSweepInterrupt();
/// Whether at least one interrupt is pending (graceful stop).
bool sweepInterruptRequested();
/// Whether a second interrupt arrived while the first was being honored
/// — the operator insisting.  Long drains (the serve daemon's SIGTERM
/// handling) poll this to abandon graceful work and exit immediately;
/// everything journaled remains resumable.
bool sweepForceQuitRequested();

/// RAII: while alive, SIGINT and SIGTERM request a graceful sweep
/// interrupt instead of killing the process (a second signal escalates
/// to a force-quit request); previous dispositions are restored on
/// destruction.  The driver then flushes and reports
/// SweepStatus::Interrupted so the caller can exit with the distinct
/// "interrupted, resumable" code.
class ScopedSweepSignalHandlers {
public:
  ScopedSweepSignalHandlers();
  ~ScopedSweepSignalHandlers();
  ScopedSweepSignalHandlers(const ScopedSweepSignalHandlers &) = delete;
  ScopedSweepSignalHandlers &
  operator=(const ScopedSweepSignalHandlers &) = delete;

private:
  void *Saved = nullptr; ///< Opaque previous-disposition storage.
};

} // namespace g80

#endif // G80TUNE_CORE_SWEEPDRIVER_H
