//===- bench/g80bench/Microscope.cpp --------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Microscope.h"

#include "Job.h"

#include "analysis/Verifier.h"
#include "core/SearchStrategy.h"
#include "metrics/Metrics.h"
#include "serve/Shard.h"
#include "sim/Simulator.h"
#include "support/Journal.h"
#include "support/Numeric.h"

#include <filesystem>
#include <numeric>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

using namespace g80;
using namespace g80bench;

namespace {

/// Replays an adaptive search's cursor against its finished outcome and
/// returns how many configurations each round measured.  Mirrors the
/// round loop of runAdaptiveSweep; empty if the replay diverges.
std::vector<double> roundWidths(StrategyKind Kind, const ConfigSpace &Space,
                                std::vector<uint64_t> Expressible,
                                const StrategyOptions &Opts,
                                const SearchOutcome &Out) {
  std::unordered_map<uint64_t, const ConfigEval *> ByFlat;
  for (const ConfigEval &E : Out.Evals)
    ByFlat.emplace(E.FlatIndex, &E);
  std::unique_ptr<SearchCursor> Cursor =
      makeSearchCursor(Kind, Space, std::move(Expressible), Opts);
  std::unordered_set<uint64_t> Known;
  std::vector<double> Widths;
  const uint64_t Budget = std::max<uint64_t>(1, Opts.Budget);
  const uint64_t RoundLimit = 256 + 16 * Budget;
  uint64_t Total = 0;
  for (uint64_t Round = 0; Total < Budget && Round < RoundLimit; ++Round) {
    std::vector<uint64_t> Proposals = Cursor->nextRound();
    if (Proposals.empty())
      break;
    std::vector<ProbeResult> Feed;
    uint64_t Width = 0;
    std::unordered_set<uint64_t> Seen;
    for (uint64_t Flat : Proposals) {
      auto It = ByFlat.find(Flat);
      if (It == ByFlat.end())
        return {};
      const ConfigEval &E = *It->second;
      if (Seen.insert(Flat).second && !Known.count(Flat) && E.usable())
        ++Width;
      Feed.push_back(ProbeResult{Flat, E.Measured && !E.failed(),
                                 E.TimeSeconds});
    }
    Width = std::min(Width, Budget - Total);
    Total += Width;
    if (Width != 0)
      Widths.push_back(double(Width));
    for (uint64_t Flat : Proposals)
      Known.insert(Flat);
    Cursor->feed(Feed);
  }
  return Widths;
}

double sum(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

} // namespace

Microscope::Microscope(Spans &S, Checker &C, const std::string &Dir)
    : S(S), C(C), Dir(Dir) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  Expected<Spool> Sp = Spool::open(Dir + "/spool");
  C.check(bool(Sp), "microscope spool " + Dir + "/spool could not be opened");
  if (Sp)
    Scratch = Sp.takeValue();
}

double Microscope::replay(const TunableApp &App, const TuneRequest &Req,
                          unsigned Jobs, int Pass, int64_t ReqId) {
  Span Job(S, "microscope.job", Pass, ReqId);
  std::string Id;
  {
    Span T(S, "serve.spool_ticket", Pass, ReqId);
    Expected<std::string> Ticket = Scratch.createTicket(Req);
    C.check(bool(Ticket), "microscope ticket for " + jobName(Req));
    if (!Ticket)
      return 0;
    Id = *Ticket;
  }

  MachineModel Machine = makeServeMachine(Req.Machine);
  SearchEngine Eng(App, Machine);
  JobOptions Opts;
  Opts.Jobs = Jobs;
  Opts.JournalPath = Scratch.journalPath(Id);
  Opts.S = &S;
  Opts.Pass = Pass;
  Opts.ReqId = ReqId;
  JobTiming Timing;
  SweepReport Rep = runJob(App, Eng, Req, Opts, Timing);
  C.check(Rep.Status == SweepStatus::Completed,
          "microscope sweep of " + jobName(Req) + ": " + Rep.Error.Message);
  const SearchOutcome &Out = Rep.Outcome;

  {
    Span R(S, "serve.spool_result", Pass, ReqId);
    C.check(bool(Scratch.writeResult(Id, resultOf(App, Req, Rep, Id).toJson())),
            "microscope result for " + jobName(Req));
  }

  StrategyKind Kind = StrategyKind::Pareto;
  (void)parseStrategy(Req.Strategy, Kind);
  std::vector<uint64_t> Expressible = Eng.evaluator().expressibleIndices();
  add("core.measured", double(Out.Candidates.size()));
  add("core.expressible", double(Expressible.size()));
  add("core.thread_ms", Timing.SweepMs * double(Jobs));
  if (strategyIsPlannable(Kind)) {
    add("core.round_width", double(Out.Candidates.size()));
  } else {
    std::vector<double> Widths =
        roundWidths(Kind, App.space(), std::move(Expressible),
                    strategyOptionsForRequest(Req, Jobs), Out);
    C.check(!Widths.empty(), "round replay of " + jobName(Req) + " diverged");
    for (double W : Widths)
      add("core.round_width", W);
  }

  std::vector<const ConfigEval *> Measured;
  for (size_t Idx : Out.Candidates)
    Measured.push_back(&Out.Evals[Idx]);
  replayConfigs(App, Machine, Measured, Pass, ReqId);
  replayJournal(Scratch.journalPath(Id), Pass, ReqId);
  return Timing.PlanMs + Timing.SweepMs;
}

void Microscope::replayConfigs(const TunableApp &App,
                               const MachineModel &Machine,
                               const std::vector<const ConfigEval *> &Measured,
                               int Pass, int64_t ReqId) {
  for (const ConfigEval *E : Measured) {
    Kernel K = [&] {
      Span B(S, "kernels.build", Pass, ReqId);
      return App.buildKernel(E->Point);
    }();
    {
      Span V(S, "analysis.verify", Pass, ReqId);
      C.check(bool(checkKernel(K)), "kernel of config #" +
                                        std::to_string(E->FlatIndex) +
                                        " no longer verifies");
    }
    LaunchConfig Launch = App.launch(E->Point);
    {
      Span M(S, "metrics.compute", Pass, ReqId);
      (void)computeKernelMetrics(K, Launch, Machine);
    }
    Expected<SimResult> R = [&] {
      Span Sim(S, "sim.simulate", Pass, ReqId);
      Expected<SimResult> Res = simulateKernel(K, Launch, Machine);
      add("sim.ms", Sim.ms());
      return Res;
    }();
    // A pure speed-up must leave every simulated count unchanged.
    C.check(R && R->Cycles == E->Sim.Cycles &&
                R->IssuedWarpInstrs == E->Sim.IssuedWarpInstrs,
            "direct simulation of config #" + std::to_string(E->FlatIndex) +
                " disagrees with the sweep's");
    if (R) {
      add("sim.cycles", double(R->Cycles));
      add("sim.issued", double(R->IssuedWarpInstrs));
    }
  }
}

void Microscope::replayJournal(const std::string &Path, int Pass,
                               int64_t ReqId) {
  Expected<JournalContents> J = readJournal(Path);
  C.check(bool(J), "journal " + Path + " could not be read back");
  if (!J)
    return;
  std::string Copy =
      Dir + "/append-" + std::to_string(JournalsWritten++) + ".journal";
  Expected<JournalWriter> W = JournalWriter::create(Copy, J->Header);
  C.check(bool(W), "scratch journal " + Copy + " could not be created");
  if (!W)
    return;
  for (const std::string &Rec : J->Records) {
    Span A(S, "support.journal_append", Pass, ReqId);
    C.check(bool(W->appendRecord(Rec)), "append to " + Copy);
  }
}

void Microscope::noteDirectShare(double DirectMs, double EndToEndMs) {
  if (EndToEndMs > 0)
    add("job.direct_frac", DirectMs / EndToEndMs);
}

std::string Microscope::serialize() const {
  std::ostringstream OS;
  OS.precision(17);
  for (const auto &[Name, Values] : Samples)
    for (double V : Values)
      OS << "sample\t" << Name << '\t' << V << '\n';
  return OS.str();
}

void Microscope::absorb(std::string_view Lines) {
  forEachLine(Lines, "sample", [&](const std::vector<std::string_view> &F) {
    Expected<double> V = F.size() == 2 ? parseDouble(F[1])
                                       : parseDouble("malformed");
    C.check(bool(V), "malformed sample line from a pass child");
    if (V)
      add(std::string(F[0]), *V);
  });
}

std::vector<Metric> Microscope::metrics() const {
  auto Get = [&](const char *Name) {
    auto It = Samples.find(Name);
    return It == Samples.end() ? std::vector<double>{} : It->second;
  };
  auto Us = [](std::vector<double> Ms) {
    for (double &V : Ms)
      V *= 1e3;
    return Ms;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  std::vector<double> Widths = Get("core.round_width");
  std::vector<double> Append = Us(S.durationsMs("support.journal_append"));

  return {
      {"kernels.build_us", median(Us(S.durationsMs("kernels.build"))), "us"},
      {"analysis.verify_us", median(Us(S.durationsMs("analysis.verify"))),
       "us"},
      {"metrics.compute_us", median(Us(S.durationsMs("metrics.compute"))),
       "us"},
      {"sim.simulate_ms", median(S.durationsMs("sim.simulate")), "ms"},
      {"sim.simulate_tail_ms", tail(S.durationsMs("sim.simulate")), "ms"},
      {"sim.mcycles_per_s",
       Ratio(sum(Get("sim.cycles")) / 1e6, sum(Get("sim.ms")) / 1e3),
       "Mcycle/s"},
      {"sim.cycles", sum(Get("sim.cycles")), "count"},
      {"sim.issued", sum(Get("sim.issued")), "count"},
      {"core.plan_ms", median(S.durationsMs("core.plan")), "ms"},
      {"core.sweep_ms", median(S.durationsMs("core.sweep")), "ms"},
      {"core.parallel_eff",
       Ratio(sum(Get("sim.ms")), sum(Get("core.thread_ms"))), "ratio"},
      {"core.round_width", Ratio(sum(Widths), double(Widths.size())),
       "count"},
      {"core.measured_frac",
       Ratio(sum(Get("core.measured")), sum(Get("core.expressible"))),
       "ratio"},
      {"support.journal_append_us", median(Append), "us"},
      {"support.journal_append_tail_us", tail(Append), "us"},
      {"serve.spool_ticket_ms", median(S.durationsMs("serve.spool_ticket")),
       "ms"},
      {"serve.spool_result_ms", median(S.durationsMs("serve.spool_result")),
       "ms"},
      {"job.direct_frac", median(Get("job.direct_frac")), "ratio"},
  };
}
