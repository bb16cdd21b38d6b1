//===- bench/g80bench/SearchLarge.cpp - Searches of the large tiers -------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Each pass runs random, greedy, anneal and genetic (budget 64) over the
// large tier of all four apps, journaled, on cold engines.  This drives
// both executors (SweepDriver for random, runAdaptiveSweep with narrow
// rounds for the rest) on sparse 10^4-10^5-point spaces where static
// evaluation per probe is real and configurations almost never repeat.
//
// The strategy seed is fixed: on the large cp space one configuration can
// simulate for seconds while the median takes milliseconds, so a
// seed-drawn sample would change a pass's cost several-fold from seed to
// seed.  The run's seed only orders the searches.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "Job.h"

#include "serve/Shard.h"

using namespace g80;
using namespace g80bench;

namespace {

constexpr uint64_t PortfolioSeed = 1;
constexpr uint64_t Budget = 64;

} // namespace

RunResult g80bench::runSearchLarge(const RunConfig &Cfg, Spans &S, Checker &C,
                                   Microscope &M) {
  std::vector<TuneRequest> All;
  for (const char *App : {"matmul", "cp", "sad", "mri"})
    for (const char *Strategy : {"random", "greedy", "anneal", "genetic"})
      if (!Cfg.Smoke || std::string(App) == "matmul") {
        TuneRequest Req;
        Req.App = App;
        Req.Strategy = Strategy;
        Req.Space = "large";
        Req.Seed = PortfolioSeed;
        Req.Budget = Budget;
        All.push_back(Req);
      }

  PassWorkload W;
  W.Name = "search_large";
  W.Tier = SpaceTier::Large;
  for (size_t I : seededOrder(All.size(), Cfg.Seed))
    W.Jobs.push_back(All[I]);
  W.WarmUp.App = "matmul";
  W.WarmUp.Strategy = "greedy";
  W.WarmUp.Space = "large";
  W.WarmUp.Budget = 8;
  W.IsLatencySample = [](const TuneRequest &) { return true; };
  W.CheckPass = [](const std::vector<JobOutcome> &Jobs, Checker &Chk) {
    for (const JobOutcome &J : Jobs)
      Chk.check(J.HasBest, "a large-tier search found no usable config");
  };
  // Resuming a complete journal must replay everything, measure nothing,
  // leave the journal untouched, and reproduce the same best.
  W.CheckJournals = [&W](const AppMap &Apps,
                         const std::vector<JobOutcome> &Jobs,
                         const std::string &PassDir, Checker &Chk) {
    for (size_t I = 0; I != W.Jobs.size(); ++I) {
      const TuneRequest &Req = W.Jobs[I];
      const TunableApp &App = *Apps.at(Req.App);
      SearchEngine Eng(App, makeServeMachine(Req.Machine));
      JobOptions Opts;
      Opts.Jobs = PassThreads;
      Opts.JournalPath = journalOf(PassDir, I);
      Opts.Resume = true;
      JobTiming Timing;
      SweepReport Rep = runJob(App, Eng, Req, Opts, Timing);
      const SearchOutcome &Out = Rep.Outcome;
      Chk.check(Rep.Status == SweepStatus::Completed &&
                    Rep.ResumedSkipped >= Jobs[I].Measured &&
                    Out.hasBest() && Out.BestTime == Jobs[I].BestTime &&
                    fileDigest(Opts.JournalPath) == Jobs[I].Digest,
                "resuming the complete journal of " + jobName(Req) +
                    " did not reproduce it");
    }
  };
  return runForkedPasses(Cfg, S, C, M, W);
}
