//===- fleet/Coordinator.cpp ----------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fleet/Coordinator.h"

#include "core/Search.h"
#include "serve/Shard.h"
#include "support/Backoff.h"
#include "support/Journal.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <mutex>
#include <optional>
#include <sstream>
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

std::string shardName(uint64_t Index) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "shard-%06llu",
                static_cast<unsigned long long>(Index));
  return Buf;
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

  /// One shard's scheduling state.  Req is immutable after setup; the
  /// rest is guarded by M.
  struct Shard {
    ShardRequest Req;
    bool Done = false;
    bool HedgedOnce = false;
    unsigned InFlight = 0;
    std::chrono::steady_clock::time_point ActiveSince;
    std::vector<std::string> Records;
  };

  std::mutex M;
  std::condition_variable Cv;
  std::vector<Shard> Shards;        ///< Guarded by M (except .Req).
  std::deque<uint64_t> Queue;       ///< Guarded by M; may hold hedge dups.
  std::vector<double> Durations;    ///< Guarded by M; completed-shard secs.
  uint64_t DoneCount = 0;           ///< Guarded by M.
  uint64_t ReDispatched = 0;        ///< Guarded by M.
  uint64_t HedgedCount = 0;         ///< Guarded by M.
  uint64_t DuplicatesDropped = 0;   ///< Guarded by M.
  uint64_t LocalShards = 0;         ///< Guarded by M.
  bool Degraded = false;            ///< Guarded by M.
  bool Fatal = false;               ///< Guarded by M.
  Diagnostic FatalDiag;             ///< Guarded by M.
  std::vector<std::string> Warnings; ///< Guarded by M.

  explicit Impl(FleetOptions O) : Opts(std::move(O)), Pool(Opts.Workers) {}

  //===--- Predicates and small utilities ----------------------------------//

  bool stopRequested() const {
    return Opts.ShouldStop && Opts.ShouldStop();
  }

  bool finishedLocked() const { return DoneCount == Shards.size(); }

  bool finished() {
    std::lock_guard<std::mutex> L(M);
    return finishedLocked() || Fatal;
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

  void fail(Diagnostic D) {
    std::lock_guard<std::mutex> L(M);
    if (!Fatal) {
      Fatal = true;
      FatalDiag = std::move(D);
    }
    Cv.notify_all();
  }

  //===--- Spool layout -----------------------------------------------------//

  std::string manifestPath() const { return Opts.SpoolDir + "/fleet.plan"; }
  std::string resultPath(uint64_t I) const {
    return Opts.SpoolDir + "/" + shardName(I) + ".result";
  }
  std::string localJournalPath(uint64_t I) const {
    return Opts.SpoolDir + "/" + shardName(I) + ".local.journal";
  }

  std::string manifestJson() const {
    std::ostringstream OS;
    OS << "{\"type\":\"fleet_plan\",\"plan_fp\":" << Partition.PlanFp
       << ",\"shards\":" << Partition.Shards.size()
       << ",\"candidates\":" << Partition.Candidates
       << ",\"shard_size\":" << Partition.ShardSize << "}";
    return OS.str();
  }

  //===--- Setup ------------------------------------------------------------//

  /// Derives the plan, fingerprint, and shard partition.
  Expected<Unit> buildPlan() {
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
    return Unit{};
  }

  /// Opens the coordinator spool: validates (or writes) the plan
  /// manifest, quarantines torn results, and loads every durable shard
  /// result.  Shards have no tickets: buildPlan re-derives every shard
  /// request, and the manifest pins the plan.  (Ticket files that older
  /// coordinators wrote are ignored and left in place.)
  Expected<Unit> openSpool() {
    TraceSpan Span("fleet.spool");
    std::error_code Ec;
    std::filesystem::create_directories(Opts.SpoolDir, Ec);
    if (Ec)
      return fleetDiag("cannot create fleet spool '" + Opts.SpoolDir +
                       "': " + Ec.message());

    // The manifest pins the spool to one exact partition: a restart with
    // a different plan (or shard size) must not splice foreign results.
    std::string Manifest = manifestJson();
    if (std::filesystem::exists(manifestPath())) {
      Expected<std::string> File = readFile(manifestPath());
      std::string_view Have = File ? std::string_view(*File) : "";
      while (!Have.empty() && (Have.back() == '\n' || Have.back() == '\r'))
        Have.remove_suffix(1);
      if (Have != Manifest)
        return fleetDiag(
            "fleet spool '" + Opts.SpoolDir +
            "' belongs to a different plan (manifest mismatch); use a "
            "fresh --spool or rerun the original request");
    } else {
      Expected<Unit> W = writeFileDurable(manifestPath(), Manifest + "\n");
      if (!W)
        return W.takeDiag();
    }

    for (uint64_t I = 0; I != Shards.size(); ++I) {
      if (!std::filesystem::exists(resultPath(I)))
        continue;
      Expected<std::string> File = readFile(resultPath(I));
      Expected<ShardResult> R =
          File ? ShardResult::fromJson(*File) : File.takeDiag();
      bool Valid = bool(R) && R->completed() &&
                   R->PlanFp == Partition.PlanFp && R->ShardIndex == I &&
                   R->Records.size() == Partition.Shards[I].size();
      if (!Valid) {
        // Same invariant as serve/Spool: a torn file is quarantined and
        // reported, never fatal; the shard simply runs again.
        warn(quarantineFile(resultPath(I),
                            "quarantined corrupt fleet shard result '" +
                                resultPath(I) + "'"));
        continue;
      }
      Shards[I].Done = true;
      Shards[I].Records = std::move(R->Records);
      ++DoneCount;
    }
    return Unit{};
  }

  //===--- Shard scheduling --------------------------------------------------//

  /// Pops the next unfinished shard, waiting briefly when the queue is
  /// empty.  Marks it in flight.
  std::optional<uint64_t> claimShard() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L, std::chrono::milliseconds(200), [this] {
      return !Queue.empty() || finishedLocked() || Fatal;
    });
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

  /// First-result-wins durable commit.  Returns false only on a fatal
  /// spool failure.
  bool commitShard(uint64_t I, std::vector<std::string> Records,
                   double DurationSeconds, bool Local) {
    std::unique_lock<std::mutex> L(M);
    Shard &S = Shards[size_t(I)];
    if (S.Done) {
      ++DuplicatesDropped;
      traceCount("fleet.duplicate_dropped");
      return true;
    }
    ShardResult R;
    R.ShardIndex = I;
    R.PlanFp = Partition.PlanFp;
    R.Begin = S.Req.Begin;
    R.End = S.Req.End;
    R.Status = "completed";
    R.Records = Records;
    Expected<Unit> W = writeFileDurable(resultPath(I), R.toJson() + "\n");
    if (!W) {
      L.unlock();
      fail(W.takeDiag());
      return false;
    }
    S.Done = true;
    S.Records = std::move(Records);
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
    auto LastProbe = std::chrono::steady_clock::now();
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
        LastProbe = std::chrono::steady_clock::now();
      }

      std::optional<uint64_t> I = claimShard();
      if (!I) {
        // Idle: heartbeat the daemon so silent death is noticed within a
        // heartbeat period, not at the next dispatch.
        if (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          LastProbe)
                .count() >= Opts.HeartbeatSeconds) {
          Expected<ServeStatus> St = Conn->status(ProbeTimeout);
          LastProbe = std::chrono::steady_clock::now();
          if (!St || St->Draining) {
            Disconnect(!St ? St.diag().Message : "worker is draining", 1);
            continue;
          }
        }
        continue;
      }

      auto T0 = std::chrono::steady_clock::now();
      Expected<ShardResult> R = Conn->runShard(
          Shards[size_t(*I)].Req, Opts.ShardTimeoutSeconds, [this, W] {
            return finished() || stopRequested() || !Pool.healthy(W);
          });
      LastProbe = std::chrono::steady_clock::now();
      double Dur =
          std::chrono::duration<double>(LastProbe - T0).count();

      if (!R) {
        releaseShard(*I, /*Requeue=*/!stopRequested());
        Disconnect("shard " + std::to_string(*I) +
                       " dispatch failed: " + R.diag().Message,
                   *I);
        continue;
      }
      if (!R->completed() || R->ShardIndex != *I ||
          R->PlanFp != Partition.PlanFp ||
          R->Records.size() != Shards[size_t(*I)].Req.End -
                                   Shards[size_t(*I)].Req.Begin) {
        releaseShard(*I, /*Requeue=*/!stopRequested());
        Disconnect("shard " + std::to_string(*I) + " refused: " +
                       (R->Error.empty() ? "malformed shard_result"
                                         : R->Error),
                   *I);
        continue;
      }
      if (!commitShard(*I, std::move(R->Records), Dur, /*Local=*/false)) {
        releaseShard(*I, /*Requeue=*/false);
        return; // Fatal spool failure; run() reports it.
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
                                   localJournalPath(*I), Opts.Jobs,
                                   [this] { return stopRequested(); });
      double Dur = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - T0)
                       .count();
      if (!R.completed()) {
        warn("local shard " + std::to_string(*I) + ": " + R.Error);
        releaseShard(*I, /*Requeue=*/!stopRequested());
        continue;
      }
      if (!commitShard(*I, std::move(R.Records), Dur, /*Local=*/true)) {
        releaseShard(*I, /*Requeue=*/false);
        return;
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
        if (Durations.size() >= 3 && Pool.size() + (Opts.AllowLocal ? 1 : 0) > 1) {
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

  //===--- Merge -------------------------------------------------------------//

  /// Splices every shard's records, in shard order, into the merged
  /// journal — written to a temp name and renamed, so the journal path
  /// only ever holds a complete merge.
  Expected<Unit> merge() {
    TraceSpan Span("fleet.merge");
    std::string Tmp = Opts.JournalPath + ".merge.tmp";
    Expected<JournalWriter> W = JournalWriter::create(Tmp, Header);
    if (!W)
      return W.takeDiag();
    for (const Shard &S : Shards)
      for (const std::string &Rec : S.Records) {
        Expected<Unit> A = W->appendRecord(Rec);
        if (!A)
          return A.takeDiag();
      }
    W->close();
    std::error_code Ec;
    std::filesystem::rename(Tmp, Opts.JournalPath, Ec);
    if (Ec)
      return fleetDiag("cannot move merged journal into place: " +
                       Ec.message());
    fsyncParentDir(Opts.JournalPath);
    return Unit{};
  }
};

//===--- FleetCoordinator ------------------------------------------------------//

FleetCoordinator::FleetCoordinator(FleetOptions Opts)
    : M(new Impl(std::move(Opts))) {}

FleetCoordinator::~FleetCoordinator() { delete M; }

FleetReport FleetCoordinator::run() {
  TraceSpan Span("fleet.run");
  FleetReport Rep;

  if (M->Opts.SpoolDir.empty()) {
    Rep.Error = fleetDiag("fleet mode requires a spool directory");
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

  Expected<Unit> P = M->buildPlan();
  if (!P) {
    Rep.Error = P.takeDiag();
    return Rep;
  }
  Rep.PlanFp = M->Partition.PlanFp;
  Rep.ShardsTotal = M->Partition.Shards.size();

  Expected<Unit> Sp = M->openSpool();
  if (!Sp) {
    Rep.Error = Sp.takeDiag();
    Rep.Warnings = std::move(M->Warnings);
    return Rep;
  }
  Rep.ShardsRecovered = M->DoneCount;
  for (uint64_t I = 0; I != M->Shards.size(); ++I)
    if (!M->Shards[I].Done)
      M->Queue.push_back(I);

  if (!M->Queue.empty() && !M->stopRequested()) {
    std::vector<std::thread> Threads;
    for (size_t W = 0; W != M->Pool.size(); ++W)
      Threads.emplace_back(&Impl::workerLoop, M, W);
    if (M->Opts.AllowLocal)
      Threads.emplace_back(&Impl::localLoop, M);
    Threads.emplace_back(&Impl::monitorLoop, M);

    {
      std::unique_lock<std::mutex> L(M->M);
      while (!M->finishedLocked() && !M->Fatal) {
        if (M->stopRequested())
          break;
        M->Cv.wait_for(L, std::chrono::milliseconds(100));
      }
    }
    for (std::thread &T : Threads)
      T.join();
  }

  Rep.ShardsCompleted = M->DoneCount;
  Rep.ReDispatched = M->ReDispatched;
  Rep.Hedged = M->HedgedCount;
  Rep.DuplicatesDropped = M->DuplicatesDropped;
  Rep.LocalShards = M->LocalShards;
  Rep.Degraded = M->Degraded;
  Rep.Warnings = std::move(M->Warnings);

  if (M->Fatal) {
    Rep.Status = FleetStatus::Error;
    Rep.Error = M->FatalDiag;
    return Rep;
  }
  if (M->DoneCount != M->Shards.size()) {
    Rep.Status = FleetStatus::Interrupted;
    return Rep;
  }
  Expected<Unit> Merged = M->merge();
  if (!Merged) {
    Rep.Status = FleetStatus::Error;
    Rep.Error = Merged.takeDiag();
    return Rep;
  }
  Rep.Status = FleetStatus::Completed;
  return Rep;
}
