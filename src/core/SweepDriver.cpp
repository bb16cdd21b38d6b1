//===- core/SweepDriver.cpp -----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"

#include "core/EvalRecord.h"
#include "support/Backoff.h"
#include "support/Parallel.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <deque>
#include <fstream>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

using namespace g80;

//===--- Graceful-shutdown flag and signal routing ----------------------------//

namespace {

// 0 = run, 1 = graceful stop requested, 2 = force-quit requested (the
// operator signalled twice).  A plain counter capped at 2: sig_atomic_t
// guarantees only single read/write atomicity, which this pattern needs.
volatile std::sig_atomic_t SweepInterruptFlag = 0;

extern "C" void sweepSignalHandler(int) {
  SweepInterruptFlag = SweepInterruptFlag < 1 ? 1 : 2;
}

struct SavedHandlers {
  void (*Int)(int);
  void (*Term)(int);
};

} // namespace

void g80::requestSweepInterrupt() {
  SweepInterruptFlag = SweepInterruptFlag < 1 ? 1 : 2;
}
void g80::clearSweepInterrupt() { SweepInterruptFlag = 0; }
bool g80::sweepInterruptRequested() { return SweepInterruptFlag != 0; }
bool g80::sweepForceQuitRequested() { return SweepInterruptFlag >= 2; }

ScopedSweepSignalHandlers::ScopedSweepSignalHandlers() {
  auto *S = new SavedHandlers;
  S->Int = std::signal(SIGINT, sweepSignalHandler);
  S->Term = std::signal(SIGTERM, sweepSignalHandler);
  Saved = S;
}

ScopedSweepSignalHandlers::~ScopedSweepSignalHandlers() {
  auto *S = static_cast<SavedHandlers *>(Saved);
  if (S->Int != SIG_ERR)
    std::signal(SIGINT, S->Int);
  if (S->Term != SIG_ERR)
    std::signal(SIGTERM, S->Term);
  delete S;
}

//===--- The driver ------------------------------------------------------------//

namespace {

/// Attempts a configuration gets in isolated workers before it is
/// quarantined: the original try plus one retry.
constexpr unsigned MaxWorkerAttempts = 2;

/// Candidates per forked worker.
constexpr size_t ShardSize = 8;

/// Pacing before a retry: exponential with deterministic jitter, salted
/// by the configuration's flat index (see support/Backoff.h).
constexpr BackoffPolicy RetryBackoff{};

Diagnostic sweepError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

bool fileExists(const std::string &Path) {
  return std::ifstream(Path).good();
}

std::string actionWord(FaultAction A) {
  return A == FaultAction::Crash ? "crash" : "hang";
}

void sleepSeconds(double S) {
  if (S > 0)
    std::this_thread::sleep_for(std::chrono::duration<double>(S));
}

/// Everything drive() threads through its helpers.
struct DriveState {
  SweepReport Rep;
  const SearchEngine &Engine;
  const SweepOptions &Opts;
  JournalWriter Writer;
  /// The sweep's record allowance (a plan's candidate count).
  uint64_t Budget;
  /// Records committed so far, replayed ones included.
  uint64_t Records = 0;
  /// Per-flat-index worker failure count (for the retry-once policy).
  std::unordered_map<uint64_t, unsigned> Attempts;
  /// Records committed by this run (excludes resume replay).
  size_t FreshRecords = 0;

  DriveState(const SearchEngine &Engine, const SweepOptions &Opts,
             uint64_t Budget)
      : Engine(Engine), Opts(Opts), Budget(Budget) {}

  SearchOutcome &out() { return Rep.Outcome; }

  /// Whether this sweep should stop: the process-wide interrupt flag (a
  /// signal) or the per-sweep ShouldStop hook (a deadline or drain).
  bool stopRequested() const {
    return sweepInterruptRequested() ||
           (Opts.ShouldStop && Opts.ShouldStop());
  }

  void warn(std::string Msg) { Rep.Warnings.push_back(std::move(Msg)); }

  /// Appends the record for a completed eval; a failing journal write
  /// degrades to non-durable execution (with a warning) rather than
  /// killing a healthy sweep.
  void journal(const ConfigEval &E) {
    if (!Writer.isOpen())
      return;
    TraceSpan Span("journal", E.FlatIndex);
    Expected<Unit> R = Writer.appendRecord(EvalRecord::fromEval(E).toJson());
    if (!R) {
      warn("journal write failed (" + R.diag().Message +
           "); continuing without durability");
      Rep.JournalFailed = true;
      Writer.close();
    } else {
      traceCount("sweep.journal_records");
    }
  }

  /// Folds a finished (or replayed) eval into the outcome: successful
  /// measurements join Candidates in commit order.
  void book(size_t Idx) {
    ConfigEval &E = out().Evals[Idx];
    if (E.failed()) {
      out().noteQuarantined(Idx);
    } else if (E.Measured) {
      out().Candidates.push_back(Idx);
      out().noteMeasured(Idx);
    }
    ++Records;
  }

  /// Books a finished eval into the outcome and the journal.
  void complete(size_t Idx) {
    book(Idx);
    const ConfigEval &E = out().Evals[Idx];
    if (E.failed()) {
      traceCount("sweep.quarantined");
    } else if (E.Measured) {
      traceCount("sweep.measured");
      if (E.Sim.BandwidthFastPath)
        traceCount("sweep.fastbw");
    }
    journal(E);
    ++FreshRecords;
    if (Opts.OnProgress) {
      SweepProgress P;
      P.Done = size_t(Records);
      P.FreshDone = FreshRecords;
      P.Total = size_t(Budget);
      P.Quarantined = out().Quarantined.size();
      Opts.OnProgress(P);
    }
  }

  /// Measures \p E in this process without committing it.  Armed
  /// crash/hang actions are converted to quarantine diagnostics —
  /// actually crashing would defeat the graceful degradation this path
  /// exists for.  Thread-safe on distinct evals: this is what parallel
  /// workers run, with commitment left to the round-order committer.
  void measureOnly(ConfigEval &E) const {
    FaultAction A = Engine.evaluator().injector().actionAt(E.FlatIndex);
    if (A != FaultAction::None) {
      E.Failure = makeDiag(A == FaultAction::Crash ? ErrorCode::WorkerCrashed
                                                   : ErrorCode::WorkerTimeout,
                           Stage::Simulate,
                           "injected " + actionWord(A) +
                               " (simulated in-process) (config #" +
                               std::to_string(E.FlatIndex) + ")");
    } else {
      Engine.evaluator().measure(E); // Failure lands on E on false.
    }
  }

  /// Measures and commits Evals[Idx] — the serial in-process step.
  void measureInProcess(size_t Idx) {
    measureOnly(out().Evals[Idx]);
    complete(Idx);
  }

  /// Quarantines the in-flight victim of a worker failure.
  void quarantineVictim(size_t Idx, ErrorCode Code, const std::string &Why) {
    ConfigEval &E = out().Evals[Idx];
    E.Failure = makeDiag(Code, Stage::Simulate,
                         Why + " (config #" + std::to_string(E.FlatIndex) +
                             ", after " + std::to_string(MaxWorkerAttempts) +
                             " attempts)");
    complete(Idx);
  }
};

/// Sleeps \p Seconds in short slices, bailing out (false) when a stop is
/// requested mid-backoff so a deadline or drain is not blocked behind a
/// retry pause.
bool sleepUnlessStopped(DriveState &D, double Seconds) {
  while (Seconds > 0) {
    if (D.stopRequested())
      return false;
    double Slice = std::min(Seconds, 0.05);
    sleepSeconds(Slice);
    Seconds -= Slice;
  }
  return !D.stopRequested();
}

/// Polls \p Worker in short slices so a stop request (signal, deadline,
/// drain) cancels an in-flight shard within ~50ms instead of waiting out
/// the full task timeout.  Returns false when stopped (the worker is
/// killed; its unjournaled work will be re-measured on resume).
bool pollSliced(DriveState &D, Subprocess &Worker, std::string &Line,
                Subprocess::Poll &Out) {
  double Remaining = D.Opts.TaskTimeoutSeconds;
  for (;;) {
    if (D.stopRequested()) {
      Worker.kill();
      return false;
    }
    double Slice = std::min(Remaining, 0.05);
    Out = Worker.poll(Slice, Line);
    if (Out != Subprocess::Poll::Timeout)
      return true;
    Remaining -= Slice;
    if (Remaining <= 0)
      return true; // Out is Timeout: the real task-timeout budget ran out.
  }
}

/// The worker side: measure each shard config, streaming one EvalRecord
/// JSON line per completion.  Armed crash/hang actions genuinely
/// misbehave here — that is the failure mode the isolation layer exists
/// to contain.
void runShardInWorker(const SearchEngine &Engine,
                      const std::vector<ConfigEval> &Evals,
                      const std::vector<size_t> &Shard,
                      const Subprocess::Emit &Emit) {
  // The forked child inherits the parent's tracer (and its file
  // descriptor); recording from here would interleave with the parent's
  // writes.  The parent's "worker" span observes this shard instead.
  ScopedTracer MuteInChild(nullptr);
  for (size_t Idx : Shard) {
    ConfigEval E = Evals[Idx];
    switch (Engine.evaluator().injector().actionAt(E.FlatIndex)) {
    case FaultAction::Crash:
      std::raise(SIGSEGV);
      break;
    case FaultAction::Hang:
      for (;;)
        sleepSeconds(3600);
    case FaultAction::None:
      break;
    }
    Engine.evaluator().measure(E);
    Emit(EvalRecord::fromEval(E).toJson());
  }
}

/// Runs a round's remaining candidates in forked shard workers.  Returns
/// false when interrupted.
bool runIsolated(DriveState &D, std::deque<size_t> &Todo) {
  while (!Todo.empty()) {
    if (D.stopRequested())
      return false;

    // A config that already failed a worker retries alone in a fresh
    // worker, after a backoff, so a subsequent failure is unambiguously
    // its own fault.
    bool IsRetry = D.Attempts[D.out().Evals[Todo.front()].FlatIndex] > 0;
    size_t N = IsRetry ? 1 : std::min(ShardSize, Todo.size());
    if (!IsRetry) {
      // Never mix a to-be-retried config into a fresh shard mid-queue.
      for (size_t I = 1; I < N; ++I)
        if (D.Attempts[D.out().Evals[Todo[I]].FlatIndex] > 0) {
          N = I;
          break;
        }
    }
    std::vector<size_t> Shard(Todo.begin(), Todo.begin() + long(N));
    Todo.erase(Todo.begin(), Todo.begin() + long(N));
    // Spans the worker's whole lifetime (spawn, measurement streaming,
    // exit handling), tagged with the shard's first configuration.
    TraceSpan ShardSpan("worker", D.out().Evals[Shard[0]].FlatIndex);
    if (IsRetry) {
      uint64_t Flat = D.out().Evals[Shard[0]].FlatIndex;
      if (!sleepUnlessStopped(
              D, RetryBackoff.delaySeconds(D.Attempts[Flat], Flat)))
        return false;
    }

    Subprocess Worker =
        Subprocess::spawn([&](const Subprocess::Emit &Emit) {
          runShardInWorker(D.Engine, D.out().Evals, Shard, Emit);
        });
    if (!Worker.valid()) {
      // fork failed at runtime (resource exhaustion): degrade for this
      // shard rather than dying.
      if (!D.Rep.DegradedInProcess) {
        D.Rep.DegradedInProcess = true;
        D.warn("fork failed; degrading to in-process execution");
      }
      for (size_t Idx : Shard)
        D.measureInProcess(Idx);
      continue;
    }

    size_t Received = 0;
    // Handles the in-flight config after a worker crash/hang/garble:
    // requeue the untouched remainder, then either requeue the victim for
    // its one retry or quarantine it.
    auto FailInFlight = [&](ErrorCode Code, const std::string &Why) {
      for (size_t I = Shard.size(); I-- > Received + 1;)
        Todo.push_front(Shard[I]);
      size_t Victim = Shard[Received];
      unsigned &A = D.Attempts[D.out().Evals[Victim].FlatIndex];
      ++A;
      if (A < MaxWorkerAttempts) {
        ++D.Rep.WorkerRetries;
        traceCount("sweep.worker_retries");
        Todo.push_front(Victim);
      } else {
        D.quarantineVictim(Victim, Code, Why);
      }
    };

    bool ShardDone = false;
    while (!ShardDone) {
      std::string Line;
      Subprocess::Poll P;
      if (!pollSliced(D, Worker, Line, P))
        return false;
      switch (P) {
      case Subprocess::Poll::Line: {
        Expected<EvalRecord> R = EvalRecord::fromJson(Line);
        if (!R || Received >= Shard.size() ||
            R->Index != D.out().Evals[Shard[Received]].FlatIndex) {
          Worker.kill();
          FailInFlight(ErrorCode::WorkerCrashed,
                       "worker emitted a garbled record");
          ShardDone = true;
          break;
        }
        R->applyTo(D.out().Evals[Shard[Received]]);
        D.complete(Shard[Received]);
        ++Received;
        break;
      }
      case Subprocess::Poll::Exited: {
        WorkerExit X = Worker.exitStatus();
        if (Received == Shard.size() &&
            X.K == WorkerExit::Kind::CleanExit) {
          ShardDone = true;
          break;
        }
        std::string Why =
            X.K == WorkerExit::Kind::Signaled
                ? "worker crashed on signal " + std::to_string(X.Code)
                : "worker exited with status " + std::to_string(X.Code);
        if (Received < Shard.size())
          FailInFlight(ErrorCode::WorkerCrashed, Why);
        ShardDone = true;
        break;
      }
      case Subprocess::Poll::Timeout: {
        Worker.kill();
        FailInFlight(ErrorCode::WorkerTimeout,
                     "worker exceeded the " +
                         std::to_string(D.Opts.TaskTimeoutSeconds) +
                         "s task timeout");
        ShardDone = true;
        break;
      }
      }
    }
  }
  return true;
}

bool runInProcess(DriveState &D, std::deque<size_t> &Todo) {
  while (!Todo.empty()) {
    if (D.stopRequested())
      return false;
    size_t Idx = Todo.front();
    Todo.pop_front();
    D.measureInProcess(Idx);
  }
  return true;
}

/// The round-order committer of both multi-threaded measuring steps:
/// \p Measure fills the round's slots (Slots[I] is the I-th Todo entry)
/// from any thread and calls Done(I) as each is final, and one committer
/// thread folds each result into the outcome and the journal as soon as it
/// and every earlier one are done.  Commit order is what the journal
/// format, noteMeasured's first-wins tie-breaking, and the floating-point
/// accumulation of TotalMeasuredSeconds all depend on, so pinning it makes
/// the sweep's journal and SearchOutcome bit-identical to a serial run's
/// regardless of who measures, in what order.
///
/// The caller measures, rather than commits, so measurement reuses the
/// heap that static evaluation (also a parallelFor on the caller) left
/// free: a separate measuring thread allocates from a fresh malloc arena,
/// which raised g80bench search_large's peak RSS by ~10% on a 4-vCPU VM.
///
/// On interrupt only the contiguous committed prefix is durable — exactly
/// the serial semantics — and measured-but-uncommitted results are
/// discarded (they will be re-measured, deterministically, on resume).
bool commitInRoundOrder(DriveState &D, std::deque<size_t> &Todo,
                        const RoundMeasure &Measure) {
  std::vector<size_t> Order(Todo.begin(), Todo.end());
  Todo.clear();
  size_t N = Order.size();
  std::vector<ConfigEval *> Slots(N);
  for (size_t I = 0; I != N; ++I)
    Slots[I] = &D.out().Evals[Order[I]];

  std::mutex M;
  std::condition_variable Cv;
  std::vector<char> Ready(N, 0); // Guarded by M.
  std::atomic<bool> Cancel{false};

  // Declared after what it uses, so a caller unwinding out of Measure
  // stops and joins it before they go.
  std::jthread Committer([&](std::stop_token Unwinding) {
    for (size_t Next = 0; Next != N && !Unwinding.stop_requested();) {
      if (D.stopRequested()) {
        Cancel.store(true, std::memory_order_release);
        return;
      }
      {
        std::unique_lock<std::mutex> L(M);
        if (!Ready[Next]) {
          // Bounded wait so a signal arriving between checks still stops
          // the sweep promptly.
          Cv.wait_for(L, std::chrono::milliseconds(50));
          continue;
        }
      }
      D.complete(Order[Next]);
      ++Next;
    }
  });
  Measure(
      Slots,
      [&](size_t I) {
        {
          std::lock_guard<std::mutex> L(M);
          Ready[I] = 1;
        }
        Cv.notify_one();
      },
      [&] { return Cancel.load(std::memory_order_acquire); });
  Committer.join();
  return !Cancel.load(std::memory_order_relaxed);
}

/// The parallel in-process path: parallelFor's threads claim the round
/// front to back, so an interrupt loses only what they finished past the
/// committer.  Cancelled claims finish without measuring.
bool runInProcessParallel(DriveState &D, std::deque<size_t> &Todo,
                          unsigned Jobs) {
  return commitInRoundOrder(
      D, Todo,
      [&](const std::vector<ConfigEval *> &Slots,
          const std::function<void(size_t)> &Done,
          const std::function<bool()> &Stopped) {
        parallelFor(Jobs, Slots.size(), [&](size_t I) {
          if (!Stopped())
            D.measureOnly(*Slots[I]);
          Done(I);
        });
      });
}

/// A plan as a cursor: one round proposing every candidate in plan order.
class PlanCursor final : public SearchCursor {
public:
  explicit PlanCursor(const SweepPlan &Plan) {
    for (size_t Idx : Plan.Candidates)
      Flat.push_back(Plan.Evals[Idx].FlatIndex);
  }
  std::vector<uint64_t> nextRound() override { return std::exchange(Flat, {}); }
  void feed(const std::vector<ProbeResult> &) override {}

private:
  std::vector<uint64_t> Flat;
};

} // namespace

SweepReport SweepDriver::run(SweepPlan Plan) const {
  return run(std::move(Plan), RoundMeasure());
}

SweepReport SweepDriver::run(SweepPlan Plan,
                             const RoundMeasure &Measure) const {
  PlanCursor Cursor(Plan);
  uint64_t Budget = Plan.Candidates.size();
  SearchOutcome Seed = SearchOutcome::fromPlan(std::move(Plan));
  std::vector<size_t> Candidates = std::exchange(Seed.Candidates, {});
  SweepReport Rep = drive(std::move(Seed), Cursor, Budget, Measure);
  // A plan's candidates are the plan, quarantined ones included.
  Rep.Outcome.Candidates = std::move(Candidates);
  return Rep;
}

SweepReport SweepDriver::run(SearchCursor &Cursor, uint64_t Budget,
                             std::string Strategy) const {
  SearchOutcome Seed;
  Seed.Strategy = std::move(Strategy);
  return drive(std::move(Seed), Cursor, Budget, RoundMeasure());
}

SweepReport SweepDriver::drive(SearchOutcome Seed, SearchCursor &Cursor,
                               uint64_t Budget,
                               const RoundMeasure &RoundFill) const {
  DriveState D(Engine, Opts, Budget);
  D.out() = std::move(Seed);

  auto Fail = [&](Diagnostic Err) {
    D.Rep.Status = SweepStatus::Error;
    D.Rep.Error = std::move(Err);
    return std::move(D.Rep);
  };

  // Journal records and cursors address configurations by flat index, but
  // sparse plans and searches hold only a subset of the space in Evals.
  std::unordered_map<uint64_t, size_t> PosOf;
  for (size_t I = 0; I != D.out().Evals.size(); ++I)
    PosOf.emplace(D.out().Evals[I].FlatIndex, I);

  //--- Journal setup. -----------------------------------------------------//
  std::vector<std::string> Replay;
  if (!Opts.JournalPath.empty()) {
    bool Exists = fileExists(Opts.JournalPath);
    if (Opts.Resume && Exists) {
      Expected<JournalContents> C = readJournal(Opts.JournalPath);
      if (!C)
        return Fail(C.takeDiag());
      if (!C->Header.matches(Opts.Fingerprint))
        return Fail(sweepError(
            "journal '" + Opts.JournalPath +
            "' was written by a different sweep (app/machine/strategy/"
            "seed/injection fingerprint mismatch); refusing to resume"));
      D.Rep.TornTailDropped = C->DroppedTornTail;
      if (C->DroppedTornTail)
        D.warn("dropped a torn final journal record (the kill point); "
               "that configuration will be re-measured");
      Replay = std::move(C->Records);
      Expected<JournalWriter> W =
          JournalWriter::append(Opts.JournalPath, C->ValidBytes);
      if (!W)
        return Fail(W.takeDiag());
      D.Writer = W.takeValue();
    } else {
      if (Opts.Resume && !Exists)
        D.warn("journal '" + Opts.JournalPath +
               "' does not exist yet; starting a fresh sweep");
      Expected<JournalWriter> W =
          JournalWriter::create(Opts.JournalPath, Opts.Fingerprint);
      if (!W)
        return Fail(W.takeDiag());
      D.Writer = W.takeValue();
    }
  }

  //--- Execution mode, chosen once per sweep. -----------------------------//
  unsigned Jobs = std::max(1u, Opts.Jobs);
  bool Isolated = Opts.Isolate && subprocessSupported();
  if (Isolated) {
    if (Jobs > 1)
      D.warn("--jobs is ignored with --isolate (isolation workers are "
             "processes, one shard at a time)");
  } else if (Opts.Isolate) {
    D.Rep.DegradedInProcess = true;
    D.warn("process isolation is unavailable on this platform; "
           "running in-process");
  }
  auto Measure = [&](std::deque<size_t> &Todo) {
    if (RoundFill)
      return commitInRoundOrder(D, Todo, RoundFill);
    if (Isolated)
      return runIsolated(D, Todo);
    if (Jobs > 1 && Todo.size() > 1)
      return runInProcessParallel(D, Todo, Jobs);
    return runInProcess(D, Todo);
  };

  //--- The round loop. ----------------------------------------------------//
  // Backstop against cursors that can only re-propose memoized points
  // (possible once a small space is fully explored): rounds past this are
  // treated as convergence, never an error.
  const uint64_t RoundLimit = 256 + 16 * Budget;
  size_t Replayed = 0;
  bool Finished = true;
  for (uint64_t Round = 0; D.Records < Budget;) {
    std::vector<uint64_t> Proposals = Cursor.nextRound();
    if (Proposals.empty())
      break; // Converged (a plan after its one round).
    if (++Round > RoundLimit) {
      D.warn("adaptive search hit the round backstop (" +
             std::to_string(RoundLimit) + " rounds); stopping");
      break;
    }

    // Unique proposals in first-appearance order; statics for the ones
    // never proposed before.
    std::vector<uint64_t> Unique, Fresh;
    std::unordered_set<uint64_t> Seen;
    for (uint64_t Flat : Proposals)
      if (Seen.insert(Flat).second) {
        Unique.push_back(Flat);
        if (!PosOf.count(Flat))
          Fresh.push_back(Flat);
      }
    if (!Fresh.empty()) {
      for (ConfigEval &E : Engine.evaluator().evaluateSubset(Fresh, Jobs)) {
        size_t Pos = D.out().Evals.size();
        PosOf.emplace(E.FlatIndex, Pos);
        D.out().Evals.push_back(std::move(E));
        // Static rejects are deterministic and cheaply recomputed, so they
        // are fed to the cursor but never journaled or budgeted.
        if (D.out().Evals[Pos].usable())
          ++D.out().ValidCount;
        else if (D.out().Evals[Pos].failed())
          D.out().noteQuarantined(Pos);
      }
    }

    // The round's work: usable and not yet measured.  A commit either
    // measures a configuration or quarantines it (making it unusable), so
    // memoized probes drop out here.
    std::deque<size_t> Todo;
    for (uint64_t Flat : Unique) {
      size_t Pos = PosOf.at(Flat);
      const ConfigEval &E = D.out().Evals[Pos];
      if (E.usable() && !E.Measured)
        Todo.push_back(Pos);
    }

    // Budget truncation: the round that reaches the budget is the last.
    bool BudgetSpent = D.Records + Todo.size() >= Budget;
    if (BudgetSpent)
      Todo.resize(size_t(Budget - D.Records));

    // Replay: the journal must be a strict prefix of commit order, or it
    // belongs to a different sweep.
    while (!Todo.empty() && Replayed != Replay.size()) {
      Expected<EvalRecord> R = EvalRecord::fromJson(Replay[Replayed]);
      if (!R)
        return Fail(R.takeDiag());
      ConfigEval &E = D.out().Evals[Todo.front()];
      if (R->Index != E.FlatIndex || R->Point != E.Point)
        return Fail(sweepError(
            "journal record for config #" + std::to_string(R->Index) +
            " does not match the sweep's commit order; refusing to resume"));
      R->applyTo(E);
      D.book(Todo.front());
      Todo.pop_front();
      ++Replayed;
    }

    if (!Measure(Todo)) {
      Finished = false;
      break;
    }
    if (BudgetSpent)
      break;

    // Feed the cursor every proposal's outcome, in proposal order.
    std::vector<ProbeResult> Feed;
    Feed.reserve(Proposals.size());
    for (uint64_t Flat : Proposals) {
      const ConfigEval &E = D.out().Evals[PosOf.at(Flat)];
      Feed.push_back(ProbeResult{Flat, E.Measured && !E.failed(),
                                 E.TimeSeconds});
    }
    Cursor.feed(Feed);
  }

  if (Replayed != Replay.size())
    return Fail(sweepError("journal holds more records than the sweep "
                           "replays; refusing to resume"));
  D.Rep.ResumedSkipped = Replayed;

  // Deterministic regardless of execution/replay order, so interrupted +
  // resumed sweeps compare equal to uninterrupted ones.
  std::sort(D.out().Quarantined.begin(), D.out().Quarantined.end());

  D.Writer.close();
  D.Rep.Status =
      Finished ? SweepStatus::Completed : SweepStatus::Interrupted;
  return std::move(D.Rep);
}
