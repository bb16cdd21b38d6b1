//===- bench/g80bench/ServeTcp.cpp - Closed-loop serve traffic over TCP ---===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// An in-process TuneServer on ephemeral loopback TCP (2 executors, 1
// measurement thread each, queue limit 16) and two client connections in
// a closed loop: each client sends its next wait-mode request only after
// the previous result frame arrived.  Requests are `random` budget-2
// searches of the 96-point small matmul space with seeds drawn from the
// run's seed, so each costs a few milliseconds of simulation and the
// wire, admission and spool fsyncs dominate.  The small space makes
// configurations repeat across requests, which is where an evaluation
// cache would show (and search_large, where they do not, is where it
// would not).
//
//===----------------------------------------------------------------------===//

#include "Job.h"
#include "ServerHost.h"
#include "Workloads.h"

#include "serve/Client.h"
#include "serve/Shard.h"
#include "support/Random.h"

#include <atomic>
#include <filesystem>
#include <iostream>
#include <thread>

using namespace g80;
using namespace g80bench;

namespace {

constexpr unsigned Clients = 2;
constexpr uint64_t WarmUpPerClient = 10;
/// Requests per client checked against a direct computation (and, when
/// traced, replayed through the layers).
constexpr uint64_t CheckedPerClient = 16;

TuneRequest requestFor(uint64_t Seed, unsigned Client, uint64_t K,
                       bool WarmUp) {
  Rng R(Seed * 0x9e3779b97f4a7c15ULL ^ (uint64_t(Client) << 48) ^ K ^
        (WarmUp ? 1ULL << 63 : 0));
  TuneRequest Req;
  Req.App = "matmul";
  Req.Strategy = "random";
  Req.Budget = 2;
  Req.Seed = R.next() >> 33; // Small enough for any JSON reader.
  Req.Wait = true;
  return Req;
}

/// The result frame minus the spool id: a served result's deterministic
/// content.
std::string resultContent(const TuneResult &R) {
  TuneResult Copy = R;
  Copy.Id.clear();
  return Copy.toJson();
}

struct Served {
  TuneRequest Req;
  double Ms = 0;
  TuneResult Result;
};

struct ClientTally {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> Errors{0};
};

/// One closed-loop client on its own connection: request \p K + 1 goes
/// out only after request \p K's result arrived.  Stops after \p Count
/// requests or at \p Until, whichever comes first.
void clientLoop(uint16_t Port, unsigned Client, const RunConfig &Cfg,
                bool WarmUp, uint64_t Count, Clock::time_point Until,
                std::vector<Served> &Out, ClientTally &T, Spans &S,
                Checker &C) {
  Expected<ServeClient> Conn = ServeClient::connect("", Port);
  C.check(bool(Conn), "client " + std::to_string(Client) + " cannot connect");
  if (!Conn) {
    T.Errors.fetch_add(1);
    return;
  }
  for (uint64_t K = 0; K != Count && Clock::now() < Until; ++K) {
    Served One;
    One.Req = requestFor(Cfg.Seed, Client, K, WarmUp);
    T.Attempted.fetch_add(1);
    int64_t Id = int64_t(Client) * 1000000 + int64_t(K);
    Span Request(S, "serve.request", WarmUp ? -1 : 0, Id);
    Expected<std::string> Reply = [&] {
      Span Admit(S, "serve.admit", WarmUp ? -1 : 0, Id);
      return Conn->submit(One.Req, 30);
    }();
    if (Reply && frameType(*Reply) == "overloaded") {
      T.Shed.fetch_add(1);
      continue;
    }
    if (!Reply || frameType(*Reply) != "accepted") {
      T.Errors.fetch_add(1);
      C.check(false, "request not accepted: " +
                         (Reply ? *Reply : Reply.diag().Message));
      return;
    }
    Expected<std::string> Result = [&] {
      Span Wait(S, "serve.wait", WarmUp ? -1 : 0, Id);
      return Conn->awaitResult(60);
    }();
    Expected<TuneResult> Parsed =
        Result ? TuneResult::fromJson(*Result)
               : Expected<TuneResult>(Result.takeDiag());
    if (!Parsed || Parsed->Status != "completed") {
      T.Errors.fetch_add(1);
      C.check(false, "request failed: " +
                         (Parsed ? Parsed->Error : Parsed.diag().Message));
      return;
    }
    One.Ms = Request.ms();
    One.Result = Parsed.takeValue();
    Out.push_back(std::move(One));
  }
}

/// Runs every client to completion; returns their results, client by
/// client in request order, and the wall time in milliseconds.
std::vector<std::vector<Served>>
runClients(uint16_t Port, const RunConfig &Cfg, bool WarmUp, uint64_t Count,
           Clock::time_point Until, ClientTally &T, Spans &S, Checker &C,
           double &WallMs) {
  std::vector<std::vector<Served>> Out(Clients);
  Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Clients; ++I)
    Threads.emplace_back([&, I] {
      clientLoop(Port, I, Cfg, WarmUp, Count, Until, Out[I], T, S, C);
    });
  for (std::thread &Th : Threads)
    Th.join();
  WallMs = msBetween(T0, Clock::now());
  return Out;
}

std::unique_ptr<ServerHost> startServer(const std::string &Dir) {
  ServeOptions SO;
  SO.TcpPort = 0;
  SO.SpoolDir = Dir;
  SO.QueueLimit = 16;
  SO.Executors = 2;
  SO.Jobs = 1;
  return std::make_unique<ServerHost>(SO);
}

} // namespace

RunResult g80bench::runServeTcp(const RunConfig &Cfg, Spans &S, Checker &C,
                                Microscope &M) {
  RunResult R;
  ClientTally Tally;
  const Clock::time_point Never = Clock::time_point::max();
  std::unique_ptr<ServerHost> Host;
  std::string WarmUpDigest;
  unsigned SetUps = Cfg.Smoke ? 1 : 3;
  for (unsigned I = 0; I != SetUps; ++I) {
    Host.reset();
    std::string Dir = Cfg.WorkDir + "/spool-" + std::to_string(I);
    Span Sp(S, "setup", -1, I);
    Host = startServer(Dir);
    C.check(Host->error().empty(), "serve: " + Host->error());
    if (!Host->error().empty())
      return R;
    double WallMs = 0;
    std::vector<std::vector<Served>> Warm =
        runClients(Host->port(), Cfg, /*WarmUp=*/true, WarmUpPerClient,
                   Never, Tally, S, C, WallMs);
    R.SetupSeconds.push_back(Sp.ms() / 1e3);
    std::string Content;
    for (const std::vector<Served> &Client : Warm)
      for (const Served &One : Client)
        Content += resultContent(One.Result) + "\n";
    std::string Digest = hexDigest(Content);
    if (I == 0 && Cfg.Seed == 1)
      C.expectDigest(Cfg, "serve_tcp/warm-up-seed1", Digest);
    C.check(I == 0 || Digest == WarmUpDigest,
            "warm-up results differ between set-ups");
    WarmUpDigest = Digest;
  }
  uint64_t WarmUpAttempts = Tally.Attempted.load();

  double WallMs = 0;
  Clock::time_point Until = deadlineAfter(Cfg.Seconds);
  std::vector<std::vector<Served>> Timed =
      runClients(Host->port(), Cfg, /*WarmUp=*/false,
                 Cfg.Smoke ? 5 : UINT64_MAX, Until, Tally, S, C, WallMs);

  uint64_t Configs = 0;
  std::vector<double> Latencies;
  for (const std::vector<Served> &Client : Timed)
    for (const Served &One : Client) {
      Latencies.push_back(One.Ms);
      Configs += One.Result.Measured;
    }
  R.ConfigsPerSec = double(Configs) / (WallMs / 1e3);
  R.LatencyP50Ms = median(Latencies);
  R.LatencyTailMs = tail(Latencies);
  R.LatencyNote = std::to_string(Latencies.size()) +
                  " requests; tail = highest percentile (<= p99) with 10 "
                  "requests beyond it, or the maximum below 100 requests";
  R.Attempted = Tally.Attempted.load() - WarmUpAttempts;
  R.Failed = Tally.Shed.load() + Tally.Errors.load();
  if (Expected<ServeClient> Probe = ServeClient::connect("", Host->port())) {
    if (Expected<ServeStatus> St = Probe->status(10))
      std::cout << "serve_tcp: " << Latencies.size() << " requests, "
                << Configs << " configs, engine hit rate "
                << St->cacheHitRate() << ", shed " << St->Shed << "\n";
  }
  Host.reset();

  // Each client's first requests, computed again without the daemon,
  // must give the same result frames (the spool id aside).  Traced runs
  // also replay them through the layers.
  std::unique_ptr<TunableApp> App = makeServeApp("matmul");
  SearchEngine Eng(*App, makeServeMachine("gtx"));
  std::string Dir = Cfg.WorkDir + "/direct";
  std::filesystem::create_directories(Dir);
  for (unsigned Client = 0; Client != Clients; ++Client)
    for (uint64_t K = 0; K < CheckedPerClient && K < Timed[Client].size();
         ++K) {
      const Served &One = Timed[Client][K];
      JobOptions Opts;
      Opts.JournalPath = Dir + "/" + std::to_string(Client) + "-" +
                         std::to_string(K) + ".journal";
      JobTiming Timing;
      SweepReport Rep = runJob(*App, Eng, One.Req, Opts, Timing);
      C.check(resultContent(resultOf(*App, One.Req, Rep, "")) ==
                  resultContent(One.Result),
              "served result differs from the direct computation for seed " +
                  std::to_string(One.Req.Seed));
      if (Cfg.Trace) {
        int64_t Id = int64_t(Client) * 1000000 + int64_t(K);
        M.noteDirectShare(M.replay(*App, One.Req, 1, 0, Id), One.Ms);
      }
    }
  return R;
}
