//===- bench/g80bench/FleetSad.cpp - A sharded exhaustive sweep -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// A FleetCoordinator in the benchmark process shards the exhaustive
// sad/gtx plan (702 configurations, shards of 16) across two in-process
// TuneServer workers on Unix sockets (1 executor, 1 measurement thread
// each).  It is the simulator work of paper_small's sad/gtx sweep, routed
// through shard frames, per-shard worker journals, the coordinator spool
// and the merge, so its merged journal must be byte-identical to that
// sweep's.  Many small durable files are written and read back here,
// unlike in paper_small.
//
// Every run starts fresh workers on fresh spools; a worker reusing a
// spool would replay its per-shard journals instead of measuring.  The
// plan is fixed, so the seed has no effect on this workload.
//
//===----------------------------------------------------------------------===//

#include "Job.h"
#include "ServerHost.h"
#include "Workloads.h"

#include "fleet/Coordinator.h"
#include "serve/Client.h"
#include "serve/Shard.h"
#include "support/Journal.h"
#include "support/Numeric.h"

#include <filesystem>
#include <iostream>
#include <sstream>

using namespace g80;
using namespace g80bench;

namespace {

constexpr unsigned Workers = 2;
constexpr uint64_t ShardSize = 16;

TuneRequest exhaustive(const char *App) {
  TuneRequest Req;
  Req.App = App;
  Req.Strategy = "exhaustive";
  return Req;
}

/// A short path to \p Path for bind(2): relative to the working directory
/// when that is shorter.  Unix socket paths are limited to ~100 bytes.
std::string socketPath(const std::string &Path) {
  std::error_code Ec;
  std::string Rel = std::filesystem::relative(Path, Ec).string();
  return !Ec && !Rel.empty() && Rel.size() < Path.size() ? Rel : Path;
}

FleetReport runFleet(const TuneRequest &Req,
                     const std::vector<WorkerEndpoint> &Endpoints,
                     const std::string &Dir) {
  FleetOptions FO;
  FO.Request = Req;
  FO.Workers = Endpoints;
  FO.SpoolDir = Dir + "/spool";
  FO.JournalPath = Dir + "/fleet.journal";
  FO.ShardSize = ShardSize;
  FO.Jobs = 2;
  // Shards go to the workers only.  With local execution allowed, the
  // coordinator runs whatever it claims before the first worker connects.
  FO.AllowLocal = false;
  return FleetCoordinator(std::move(FO)).run();
}

/// One fleet run in the calling (forked) process: set-up, then the timed
/// run.  Returns a "setup" line and, on success, a "run" line.
std::string setUpAndRun(const TuneRequest &Req,
                        const std::string &Dir, unsigned Run, Spans &S,
                        Checker &C) {
  std::ostringstream OS;
  OS.precision(17);
  // Set-up: both workers listening and answering status, then one small
  // warm-up fleet run through them.
  std::vector<std::unique_ptr<ServerHost>> Hosts;
  std::vector<WorkerEndpoint> Endpoints;
  {
    Span Sp(S, "setup", int(Run), -1);
    for (unsigned I = 0; I != Workers; ++I) {
      ServeOptions SO;
      SO.SocketPath = socketPath(Dir + "/w" + std::to_string(I) + ".sock");
      SO.SpoolDir = Dir + "/w" + std::to_string(I);
      SO.Executors = 1;
      SO.Jobs = 1;
      Hosts.push_back(std::make_unique<ServerHost>(SO));
      C.check(Hosts.back()->error().empty(),
              "fleet worker: " + Hosts.back()->error());
      if (!Hosts.back()->error().empty())
        return OS.str();
      Endpoints.push_back(
          WorkerEndpoint{SO.SocketPath, 0, "unix:" + SO.SocketPath});
      Expected<ServeClient> Probe = ServeClient::connect(SO.SocketPath, 0);
      C.check(Probe && Probe->status(10).ok(),
              "fleet worker " + std::to_string(I) + " is not answering");
    }
    FleetReport Warm = runFleet(exhaustive("cp"), Endpoints, Dir + "/warm");
    C.check(Warm.Status == FleetStatus::Completed,
            "warm-up fleet run failed: " + Warm.Error.Message);
    OS << "setup\t" << Sp.ms() / 1e3 << '\n';
  }

  Span J(S, "job", int(Run), 0);
  FleetReport Rep = runFleet(Req, Endpoints, Dir + "/coord");
  double Ms = J.ms();
  std::string Journal = Dir + "/coord/fleet.journal";
  Expected<JournalContents> Merged = readJournal(Journal);
  C.check(Rep.Status == FleetStatus::Completed && Merged,
          "fleet run failed: " + Rep.Error.Message);
  if (Rep.Status == FleetStatus::Completed && Merged)
    OS << "run\t" << Ms << '\t' << Merged->Records.size() << '\t'
       << fileDigest(Journal) << '\t' << Rep.ShardsTotal << '\t'
       << Rep.ReDispatched << '\t' << Rep.Hedged << '\t' << Rep.LocalShards
       << '\n';
  return OS.str();
}

} // namespace

RunResult g80bench::runFleetSad(const RunConfig &Cfg, Spans &S, Checker &C,
                                Microscope &M) {
  RunResult R;
  TuneRequest Req = exhaustive(Cfg.Smoke ? "matmul" : "sad");
  // At least three runs (one when smoke-testing), and none that would end
  // past the deadline.  Each run is a fresh process, workers and all.
  const size_t MinRuns = Cfg.Smoke ? 1 : 3;
  std::vector<double> RunMs, IterationMs, Rates, RssMb;
  Clock::time_point Deadline = deadlineAfter(Cfg.Smoke ? 0 : Cfg.Seconds);
  for (unsigned Run = 0; startAnother(IterationMs, MinRuns, Deadline);
       ++Run) {
    Clock::time_point Start = Clock::now();
    std::string Dir = Cfg.WorkDir + "/run-" + std::to_string(Run);
    std::filesystem::create_directories(Dir);
    size_t SpansAtFork = S.size();
    uint64_t FailuresAtFork = C.failures();
    std::string Out, Error;
    double Rss = 0;
    bool Ok = runInChild(
        [&] {
          std::string Lines = setUpAndRun(Req, Dir, Run, S, C);
          return Lines + childTrailer(S, SpansAtFork, C, FailuresAtFork);
        },
        Out, Error, &Rss);
    C.check(Ok, "fleet run " + std::to_string(Run) + ": " + Error);
    absorbChild(Out, S, C);
    IterationMs.push_back(msBetween(Start, Clock::now()));
    RssMb.push_back(Rss);
    forEachLine(Out, "setup", [&](const std::vector<std::string_view> &F) {
      if (Expected<double> V = parseDouble(F[0]))
        R.SetupSeconds.push_back(*V);
    });
    double Ms = 0;
    forEachLine(Out, "run", [&](const std::vector<std::string_view> &F) {
      Expected<double> V = F.size() == 7 ? parseDouble(F[0])
                                         : parseDouble("malformed");
      Expected<uint64_t> N = F.size() == 7 ? parseUint64(F[1])
                                           : parseUint64("malformed");
      if (!V || !N)
        return;
      Ms = *V;
      RunMs.push_back(Ms);
      Rates.push_back(double(*N) / (Ms / 1e3));
      // The merged journal is the single-process sweep's, byte for byte.
      C.expectDigest(Cfg, "paper_small/" + jobName(Req), std::string(F[2]));
      std::cout << "fleet_sad run " << Run << ": " << *N << " configs in "
                << Ms / 1e3 << " s, " << F[3] << " shards, redispatched "
                << F[4] << ", hedged " << F[5] << ", local " << F[6] << "\n";
    });
    R.Attempted += 1;
    R.Failed += Ms == 0;
    C.check(Ms > 0, "fleet run " + std::to_string(Run) + " reported no run");

    if (Run == 0 && Cfg.Trace && Ms > 0) {
      Clock::time_point Untimed = Clock::now();
      std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
      M.noteDirectShare(M.replay(*App, Req, Workers, 0, 0), Ms);
      Deadline += Clock::now() - Untimed;
    }
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }
  R.ConfigsPerSec = median(Rates);
  R.WorkerPeakRssMb = median(RssMb);
  jobLatencies({RunMs}, R);
  return R;
}
