//===- bench/g80bench/Job.cpp ---------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Job.h"

#include "core/SearchStrategy.h"
#include "serve/Shard.h"

#include <optional>

using namespace g80;
using namespace g80bench;

SweepReport g80bench::runJob(const TunableApp &App, const SearchEngine &Eng,
                             const TuneRequest &Req, const JobOptions &Opts,
                             JobTiming &Timing) {
  StrategyKind Kind = StrategyKind::Pareto;
  (void)parseStrategy(Req.Strategy, Kind); // Workloads name valid ones.
  SweepOptions SO;
  SO.JournalPath = Opts.JournalPath;
  SO.Resume = Opts.Resume;
  SO.Jobs = Opts.Jobs;

  auto Timed = [&](const char *Name, double &Ms, auto &&Body) {
    std::optional<Span> Sp;
    if (Opts.S)
      Sp.emplace(*Opts.S, Name, Opts.Pass, Opts.ReqId);
    Clock::time_point T0 = Clock::now();
    Body();
    Ms = msBetween(T0, Clock::now());
  };

  SweepReport Rep;
  if (strategyIsPlannable(Kind)) {
    SweepPlan Plan;
    Timed("core.plan", Timing.PlanMs,
          [&] { Plan = planForRequest(Eng, Req, Opts.Jobs); });
    SO.Fingerprint = fingerprintForRequest(App, Eng, Plan, Req);
    Timed("core.sweep", Timing.SweepMs,
          [&] { Rep = SweepDriver(Eng, SO).run(std::move(Plan)); });
    return Rep;
  }

  // The adaptive cursor's only up-front work is the expressible screen;
  // runAdaptiveSweep recalls it from the engine's memo.
  Timed("core.plan", Timing.PlanMs,
        [&] { (void)Eng.evaluator().expressibleIndices(); });
  // The header `tune search` writes for an adaptive strategy.
  SO.Fingerprint.App = std::string(App.name());
  SO.Fingerprint.Machine = Eng.evaluator().machine().Name;
  SO.Fingerprint.Strategy = strategyName(Kind);
  SO.Fingerprint.Seed = Req.Seed;
  SO.Fingerprint.Budget = Req.Budget;
  SO.Fingerprint.RawSize = App.space().rawSize();
  SO.Fingerprint.Space = Req.Space;
  Timed("core.sweep", Timing.SweepMs, [&] {
    Rep = runAdaptiveSweep(Eng, Kind,
                           strategyOptionsForRequest(Req, Opts.Jobs), SO);
  });
  return Rep;
}

TuneResult g80bench::resultOf(const TunableApp &App, const TuneRequest &Req,
                              const SweepReport &Rep, const std::string &Id) {
  const SearchOutcome &Out = Rep.Outcome;
  TuneResult Res;
  Res.Id = Id;
  Res.Req = Req;
  Res.Status = "completed";
  Res.Valid = Out.ValidCount;
  Res.Measured = Out.Candidates.size();
  Res.Quarantined = Out.Quarantined.size();
  if (Out.hasBest()) {
    Res.Best = App.space().describe(Out.Evals[Out.BestIndex].Point);
    Res.BestTime = Out.BestTime;
  }
  Res.TotalMeasuredSeconds = Out.TotalMeasuredSeconds;
  return Res;
}

std::string g80bench::jobName(const TuneRequest &Req) {
  std::string Name = Req.App + "-" + Req.Machine + "-" + Req.Strategy;
  if (Req.Space != "small")
    Name += "-" + Req.Space;
  return Name;
}
