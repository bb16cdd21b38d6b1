//===- fleet/Coordinator.cpp ----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fleet/Coordinator.h"

#include "core/EvalRecord.h"
#include "core/SweepDriver.h"
#include "serve/Shard.h"
#include "support/Backoff.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

using namespace g80;

namespace {

/// Straggler threshold: hedge an in-flight shard once it exceeds this
/// percentile of completed-shard durations (needs >= 3 completions).
constexpr double HedgePercentile = 0.95;

/// Floor under the hedge threshold, so tiny shards don't hedge wildly.
constexpr double HedgeMinSeconds = 1.0;

/// Reconnect pacing for failed workers.
constexpr BackoffPolicy ReconnectBackoff{};

Diagnostic fleetDiag(std::string Msg) {
  return makeDiag(ErrorCode::SocketError, Stage::Parse, std::move(Msg));
}

} // namespace

//===--- Impl -----------------------------------------------------------------//

struct FleetCoordinator::Impl {
  FleetOptions Opts;
  WorkerPool Pool;

  // Planning artifacts (immutable once buildPlan succeeds).
  std::unique_ptr<TunableApp> App;
  std::unique_ptr<SearchEngine> Eng;
  JournalHeader Header;
  ShardPlan Partition;
  /// Each candidate's flat index, in plan order: what the records of a
  /// shard result must carry.
  std::vector<uint64_t> CandidateFlat;

  // The round the SweepDriver hands measure() (set before any thread
  // starts).  Slots are the candidates from plan position Replayed on.
  const std::vector<ConfigEval *> *Slots = nullptr;
  const std::function<void(size_t)> *SlotDone = nullptr;
  const std::function<bool()> *Stopped = nullptr;
  uint64_t Replayed = 0;

  /// One shard's scheduling state.  Req is immutable after setup; the
  /// rest is guarded by M.
  struct Shard {
    ShardRequest Req;
    bool Done = false;
    bool HedgedOnce = false;
    unsigned InFlight = 0;
    std::chrono::steady_clock::time_point ActiveSince;
  };

  std::mutex M;
  std::condition_variable Cv;
  std::vector<Shard> Shards;        ///< Guarded by M (except .Req).
  std::deque<uint64_t> Queue;       ///< Guarded by M; may hold hedge dups.
  std::vector<double> Durations;    ///< Guarded by M; completed-shard secs.
  uint64_t DoneCount = 0;           ///< Guarded by M.
  uint64_t Recovered = 0;           ///< Shards wholly replayed.
  uint64_t ReDispatched = 0;        ///< Guarded by M.
  uint64_t HedgedCount = 0;         ///< Guarded by M.
  uint64_t DuplicatesDropped = 0;   ///< Guarded by M.
  uint64_t LocalShards = 0;         ///< Guarded by M.
  bool Degraded = false;            ///< Guarded by M.
  std::vector<std::string> Warnings; ///< Guarded by M.

  explicit Impl(FleetOptions O) : Opts(std::move(O)), Pool(Opts.Workers) {}

  //===--- Predicates and small utilities ----------------------------------//

  /// The driver's stop (a signal or Opts.ShouldStop), which its committer
  /// notices within 50 ms.  A signal is read here directly as well: the
  /// sweeps of local shards stop on it at once, and must not be re-queued
  /// as if they had failed.
  bool stopRequested() const {
    return sweepInterruptRequested() || (Stopped && (*Stopped)());
  }

  bool finishedLocked() const { return DoneCount == Shards.size(); }

  bool finished() {
    std::lock_guard<std::mutex> L(M);
    return finishedLocked();
  }

  bool shouldExit() { return finished() || stopRequested(); }

  void sleepInterruptible(double Seconds) {
    auto Deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration<double>(Seconds);
    while (std::chrono::steady_clock::now() < Deadline && !shouldExit())
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  void warn(std::string Msg) {
    std::lock_guard<std::mutex> L(M);
    Warnings.push_back(std::move(Msg));
  }

  //===--- Setup ------------------------------------------------------------//

  /// Derives the plan, fingerprint, and shard partition.
  Expected<SweepPlan> buildPlan() {
    TraceSpan Span("fleet.plan");
    std::string Error;
    if (!validateServeRequest(Opts.Request, Error))
      return fleetDiag(Error);
    if (!serveStrategyIsPlannable(Opts.Request))
      return fleetDiag("strategy '" + Opts.Request.Strategy +
                       "' is adaptive and cannot be sharded; run it on a "
                       "single daemon with 'tune serve' or locally with "
                       "'tune search'");
    Opts.Request.Wait = false;
    Opts.Request.DeadlineSeconds = 0;
    SpaceTier Tier = SpaceTier::Small;
    (void)parseSpaceTier(Opts.Request.Space, Tier); // Validated above.
    App = makeServeApp(Opts.Request.App, Tier);
    Eng = makeServeEngine(*App, Opts.Request);
    SweepPlan Plan = planForRequest(*Eng, Opts.Request, Opts.Jobs);
    Header = fingerprintForRequest(*App, *Eng, Plan, Opts.Request);
    Partition = ShardPlan::partition(Plan.Candidates.size(),
                                     planFingerprint(Header, Plan),
                                     Opts.ShardSize);
    CandidateFlat.clear();
    for (size_t C : Plan.Candidates)
      CandidateFlat.push_back(Plan.Evals[C].FlatIndex);
    Shards.clear();
    Shards.reserve(Partition.Shards.size());
    for (const ShardRange &R : Partition.Shards) {
      Shard S;
      S.Req.Tune = Opts.Request;
      S.Req.PlanFp = Partition.PlanFp;
      S.Req.ShardIndex = R.Index;
      S.Req.Begin = R.Begin;
      S.Req.End = R.End;
      Shards.push_back(std::move(S));
    }
    return Plan;
  }

  //===--- Shard scheduling --------------------------------------------------//

  /// Pops the next unfinished shard, waiting briefly when the queue is
  /// empty.  Marks it in flight.
  std::optional<uint64_t> claimShard() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L, std::chrono::milliseconds(200),
                [this] { return !Queue.empty() || finishedLocked(); });
    while (!Queue.empty()) {
      uint64_t I = Queue.front();
      Queue.pop_front();
      Shard &S = Shards[size_t(I)];
      if (S.Done)
        continue; // A hedge duplicate whose first copy already won.
      if (S.InFlight++ == 0)
        S.ActiveSince = std::chrono::steady_clock::now();
      return I;
    }
    return std::nullopt;
  }

  /// Drops the caller's in-flight claim on shard \p I; when \p Requeue
  /// (dispatch failed) the shard goes back to the queue front.
  void releaseShard(uint64_t I, bool Requeue) {
    std::lock_guard<std::mutex> L(M);
    Shard &S = Shards[size_t(I)];
    if (S.InFlight)
      --S.InFlight;
    if (Requeue && !S.Done) {
      Queue.push_front(I);
      ++ReDispatched;
      traceCount("fleet.redispatch");
      Cv.notify_all();
    }
  }

  /// Applies shard \p I's result, first result wins: every record must
  /// parse and carry its candidate's flat index, or the result is refused
  /// (false).  Records the resumed journal already holds are not applied
  /// again.
  bool commitShard(uint64_t I, const std::vector<std::string> &Records,
                   double DurationSeconds, bool Local) {
    const ShardRange &Range = Partition.Shards[size_t(I)];
    if (Records.size() != Range.size())
      return false;
    std::vector<EvalRecord> Parsed;
    Parsed.reserve(Records.size());
    for (uint64_t K = 0; K != Range.size(); ++K) {
      Expected<EvalRecord> R = EvalRecord::fromJson(Records[size_t(K)]);
      if (!R || R->Index != CandidateFlat[size_t(Range.Begin + K)])
        return false;
      Parsed.push_back(R.takeValue());
    }

    {
      std::lock_guard<std::mutex> L(M);
      Shard &S = Shards[size_t(I)];
      if (S.Done) {
        ++DuplicatesDropped;
        traceCount("fleet.duplicate_dropped");
        return true;
      }
      S.Done = true; // This result won; only it writes the slots.
    }
    for (uint64_t P = std::max(Range.Begin, Replayed); P != Range.End; ++P) {
      Parsed[size_t(P - Range.Begin)].applyTo(*(*Slots)[size_t(P - Replayed)]);
      (*SlotDone)(size_t(P - Replayed));
    }
    std::lock_guard<std::mutex> L(M);
    ++DoneCount;
    Durations.push_back(DurationSeconds);
    if (Local) {
      ++LocalShards;
      Degraded = Pool.size() > 0;
      traceCount("fleet.local_shard");
    }
    traceCount("fleet.shard_done");
    Cv.notify_all();
    return true;
  }

  FleetProgress progressLocked() const {
    FleetProgress P;
    P.ShardsDone = DoneCount;
    P.ShardsTotal = Shards.size();
    P.HealthyWorkers = Pool.healthyCount();
    P.TotalWorkers = Pool.size();
    P.ReDispatched = ReDispatched;
    P.Hedged = HedgedCount;
    P.LocalShards = LocalShards;
    P.Degraded = Degraded;
    return P;
  }

  //===--- Threads -----------------------------------------------------------//

  /// One runner per worker: connect (with backoff), claim, dispatch,
  /// commit; any failure marks the worker unhealthy, requeues the shard,
  /// and reconnects.
  void workerLoop(size_t W) {
    unsigned FailStreak = 0;
    std::optional<ServeClient> Conn;
    double ProbeTimeout = std::max(1.0, Opts.HeartbeatSeconds);

    auto Disconnect = [&](const std::string &Why, uint64_t Salt) {
      Conn.reset();
      Pool.setHealthy(W, false);
      ++FailStreak;
      traceCount("fleet.worker_failure");
      warn("worker " + Pool.endpoint(W).Label + ": " + Why);
      sleepInterruptible(ReconnectBackoff.delaySeconds(
          std::min(FailStreak, 12u), Salt ^ (uint64_t(W) << 32)));
    };

    while (!shouldExit()) {
      if (!Conn) {
        Expected<ServeClient> C = Pool.connectWorker(W);
        if (!C) {
          Pool.setHealthy(W, false);
          ++FailStreak;
          sleepInterruptible(ReconnectBackoff.delaySeconds(
              std::min(FailStreak, 12u), uint64_t(W)));
          continue;
        }
        Expected<ServeStatus> St = C->status(ProbeTimeout);
        if (!St || St->Draining) {
          Disconnect(!St ? St.diag().Message : "worker is draining",
                     FailStreak);
          continue;
        }
        Conn.emplace(std::move(*C));
        Pool.setHealthy(W, true);
        FailStreak = 0;
      }

      // The monitor's fresh-connection probe is the one health signal: a
      // runner whose worker failed it drops the connection and reconnects
      // (a busy runner's dispatch is abandoned on the same flag).
      if (!Pool.healthy(W)) {
        Disconnect("failed a heartbeat probe", 1);
        continue;
      }
      std::optional<uint64_t> I = claimShard();
      if (!I)
        continue;

      auto T0 = std::chrono::steady_clock::now();
      Expected<ShardResult> R = Conn->runShard(
          Shards[size_t(*I)].Req, Opts.ShardTimeoutSeconds, [this, W] {
            return finished() || stopRequested() || !Pool.healthy(W);
          });
      double Dur = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();

      if (!R) {
        releaseShard(*I, /*Requeue=*/!stopRequested());
        Disconnect("shard " + std::to_string(*I) +
                       " dispatch failed: " + R.diag().Message,
                   *I);
        continue;
      }
      if (!R->completed() || R->ShardIndex != *I ||
          R->PlanFp != Partition.PlanFp ||
          !commitShard(*I, R->Records, Dur, /*Local=*/false)) {
        releaseShard(*I, /*Requeue=*/!stopRequested());
        Disconnect("shard " + std::to_string(*I) + " refused: " +
                       (R->Error.empty() ? "malformed shard_result"
                                         : R->Error),
                   *I);
        continue;
      }
      releaseShard(*I, /*Requeue=*/false);
    }
  }

  /// Degraded-mode executor: runs shards in-process, but only while no
  /// remote worker is healthy (or none were configured).  Before every
  /// runner has finished its first connection attempt, no worker is
  /// healthy yet either; running then would degrade a healthy fleet.
  void localLoop() {
    while (!shouldExit()) {
      if (Pool.size() > 0 &&
          (!Pool.allSettled() || Pool.healthyCount() > 0)) {
        sleepInterruptible(0.1);
        continue;
      }
      std::optional<uint64_t> I = claimShard();
      if (!I)
        continue;
      auto T0 = std::chrono::steady_clock::now();
      ShardResult R = executeShard(*Eng, *App, Shards[size_t(*I)].Req,
                                   Opts.SpoolDir, Opts.Jobs,
                                   [this] { return stopRequested(); });
      double Dur = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
      if (!R.completed() || !commitShard(*I, R.Records, Dur, /*Local=*/true)) {
        warn("local shard " + std::to_string(*I) + ": " +
             (R.Error.empty() ? "malformed records" : R.Error));
        releaseShard(*I, /*Requeue=*/!stopRequested());
        continue;
      }
      releaseShard(*I, /*Requeue=*/false);
    }
  }

  /// Hedging + heartbeat + progress: probes every worker each heartbeat
  /// period on a fresh connection, duplicates stragglers past
  /// HedgePercentile, and streams progress.
  void monitorLoop() {
    FleetProgress Last;
    bool Emitted = false;
    auto LastProbe = std::chrono::steady_clock::now();
    while (!shouldExit()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));

      auto Now = std::chrono::steady_clock::now();
      if (Pool.size() > 0 &&
          std::chrono::duration<double>(Now - LastProbe).count() >=
              Opts.HeartbeatSeconds) {
        LastProbe = Now;
        for (size_t W = 0; W != Pool.size(); ++W)
          Pool.probe(W, std::max(1.0, Opts.HeartbeatSeconds));
      }

      {
        std::lock_guard<std::mutex> L(M);
        // Hedge: with >= 3 completed durations, any in-flight shard past
        // the percentile (with a floor) gets queued a second time.
        if (Durations.size() >= 3 &&
            Pool.size() + (Opts.AllowLocal ? 1 : 0) > 1) {
          std::vector<double> Sorted(Durations);
          std::sort(Sorted.begin(), Sorted.end());
          size_t Idx =
              size_t(HedgePercentile * double(Sorted.size() - 1) + 0.5);
          double Threshold = std::max(HedgeMinSeconds,
                                      Sorted[std::min(Idx, Sorted.size() - 1)]);
          for (uint64_t I = 0; I != Shards.size(); ++I) {
            Shard &S = Shards[size_t(I)];
            if (S.Done || !S.InFlight || S.HedgedOnce)
              continue;
            if (std::chrono::duration<double>(Now - S.ActiveSince).count() <=
                Threshold)
              continue;
            S.HedgedOnce = true;
            ++HedgedCount;
            traceCount("fleet.hedged");
            Queue.push_back(I);
            Cv.notify_all();
          }
        }
        FleetProgress P = progressLocked();
        if (Opts.OnProgress &&
            (!Emitted || P.ShardsDone != Last.ShardsDone ||
             P.HealthyWorkers != Last.HealthyWorkers ||
             P.ReDispatched != Last.ReDispatched ||
             P.Hedged != Last.Hedged || P.Degraded != Last.Degraded ||
             P.LocalShards != Last.LocalShards)) {
          Last = P;
          Emitted = true;
          Opts.OnProgress(P);
        }
      }
    }
  }

  //===--- The round --------------------------------------------------------//

  /// The SweepDriver's RoundMeasure: shards wholly inside the replayed
  /// journal prefix are recovered; the rest run on the runner, local and
  /// monitor threads until every slot is filled or the driver stops.
  void measure(const std::vector<ConfigEval *> &RoundSlots,
               const std::function<void(size_t)> &Done,
               const std::function<bool()> &Stop) {
    Slots = &RoundSlots;
    SlotDone = &Done;
    Stopped = &Stop;
    Replayed = CandidateFlat.size() - RoundSlots.size();
    for (uint64_t I = 0; I != Shards.size(); ++I) {
      if (Partition.Shards[size_t(I)].End <= Replayed) {
        Shards[size_t(I)].Done = true;
        ++DoneCount;
      } else {
        Queue.push_back(I);
      }
    }
    Recovered = DoneCount;

    if (!Queue.empty() && !stopRequested()) {
      std::vector<std::thread> Threads;
      for (size_t W = 0; W != Pool.size(); ++W)
        Threads.emplace_back(&Impl::workerLoop, this, W);
      if (Opts.AllowLocal)
        Threads.emplace_back(&Impl::localLoop, this);
      Threads.emplace_back(&Impl::monitorLoop, this);
      {
        std::unique_lock<std::mutex> L(M);
        while (!finishedLocked() && !stopRequested())
          Cv.wait_for(L, std::chrono::milliseconds(100));
      }
      for (std::thread &T : Threads)
        T.join();
    }
    // The round's slots and callbacks live only for this call.
    Slots = nullptr;
    SlotDone = nullptr;
    Stopped = nullptr;
  }
};

//===--- FleetCoordinator ------------------------------------------------------//

FleetCoordinator::FleetCoordinator(FleetOptions Opts)
    : M(new Impl(std::move(Opts))) {}

FleetCoordinator::~FleetCoordinator() { delete M; }

FleetReport FleetCoordinator::run() {
  TraceSpan Span("fleet.run");
  FleetReport Rep;

  if (M->Opts.AllowLocal && M->Opts.SpoolDir.empty()) {
    Rep.Error = fleetDiag("local execution requires a spool directory");
    return Rep;
  }
  if (M->Opts.JournalPath.empty()) {
    Rep.Error = fleetDiag("fleet mode requires a journal path");
    return Rep;
  }
  if (M->Pool.size() == 0 && !M->Opts.AllowLocal) {
    Rep.Error =
        fleetDiag("no workers configured and local execution disabled");
    return Rep;
  }

  Expected<SweepPlan> Plan = M->buildPlan();
  if (!Plan) {
    Rep.Error = Plan.takeDiag();
    return Rep;
  }
  Rep.PlanFp = M->Partition.PlanFp;
  Rep.ShardsTotal = M->Partition.Shards.size();

  std::error_code Ec;
  if (!M->Opts.SpoolDir.empty())
    std::filesystem::create_directories(M->Opts.SpoolDir, Ec);
  if (Ec) {
    Rep.Error = fleetDiag("cannot create fleet spool '" + M->Opts.SpoolDir +
                          "': " + Ec.message());
    return Rep;
  }

  // The driver journals the shards' records in plan order, exactly as for
  // `tune search --journal`, and resumes a journal that already exists.
  SweepOptions SO;
  SO.JournalPath = M->Opts.JournalPath;
  SO.Resume = std::filesystem::exists(SO.JournalPath);
  SO.Fingerprint = M->Header;
  SO.ShouldStop = M->Opts.ShouldStop;
  SweepReport Sweep = SweepDriver(*M->Eng, std::move(SO))
                          .run(Plan.takeValue(),
                               [this](const std::vector<ConfigEval *> &Slots,
                                      const std::function<void(size_t)> &Done,
                                      const std::function<bool()> &Stop) {
                                 M->measure(Slots, Done, Stop);
                               });

  Rep.ShardsCompleted = M->DoneCount;
  Rep.ShardsRecovered = M->Recovered;
  Rep.ReDispatched = M->ReDispatched;
  Rep.Hedged = M->HedgedCount;
  Rep.DuplicatesDropped = M->DuplicatesDropped;
  Rep.LocalShards = M->LocalShards;
  Rep.Degraded = M->Degraded;
  Rep.Warnings = std::move(Sweep.Warnings);
  for (std::string &W : M->Warnings)
    Rep.Warnings.push_back(std::move(W));

  if (Sweep.Status == SweepStatus::Error) {
    Rep.Error = std::move(Sweep.Error);
    return Rep;
  }
  // The journal is the fleet's output: a run that lost records is failed.
  if (Sweep.JournalFailed) {
    Rep.Error = fleetDiag("journal '" + M->Opts.JournalPath +
                          "' is incomplete after a failed write; rerun "
                          "to resume it");
    return Rep;
  }
  Rep.Status = Sweep.Status == SweepStatus::Completed
                   ? FleetStatus::Completed
                   : FleetStatus::Interrupted;
  return Rep;
}
