//===- bench/g80bench/PaperSmall.cpp - Table 4 on the small spaces --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// For each of the eight small spaces (four apps on the 8800 GTX and the
// hypothetical next-generation machine) a pass runs a journaled
// Pareto-pruned search, then a journaled exhaustive sweep, each on a cold
// engine.  The Pareto searches are the latency samples: the tuning cost
// the paper's Table 4 is about.  The exhaustive sweeps supply the true
// optimum, which the Pareto search must find (best_quality 1.0).
//
// The spaces are fixed by the paper, so the seed only orders them.
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include <iostream>

using namespace g80;
using namespace g80bench;

RunResult g80bench::runPaperSmall(const RunConfig &Cfg, Spans &S, Checker &C,
                                  Microscope &M) {
  std::vector<std::pair<std::string, std::string>> Spaces;
  for (const char *App : {"matmul", "cp", "sad", "mri"})
    for (const char *Machine : {"gtx", "nextgen"})
      if (!Cfg.Smoke || (std::string(Machine) == "gtx" &&
                         (std::string(App) == "matmul" ||
                          std::string(App) == "cp")))
        Spaces.emplace_back(App, Machine);

  PassWorkload W;
  W.Name = "paper_small";
  for (size_t I : seededOrder(Spaces.size(), Cfg.Seed))
    for (const char *Strategy : {"pareto", "exhaustive"}) {
      TuneRequest Req;
      Req.App = Spaces[I].first;
      Req.Machine = Spaces[I].second;
      Req.Strategy = Strategy;
      W.Jobs.push_back(Req);
    }
  W.WarmUp.App = "cp";
  W.WarmUp.Strategy = "pareto";
  W.IsLatencySample = [](const TuneRequest &R) {
    return R.Strategy == "pareto";
  };
  W.CheckPass = [&W](const std::vector<JobOutcome> &Jobs, Checker &Chk) {
    // Jobs come in (pareto, exhaustive) pairs per space.
    double Worst = 1;
    for (size_t I = 0; I + 1 < Jobs.size(); I += 2) {
      const JobOutcome &Pareto = Jobs[I], &Exhaustive = Jobs[I + 1];
      bool Ok = Pareto.HasBest && Exhaustive.HasBest;
      double Quality = Ok ? Exhaustive.BestTime / Pareto.BestTime : 0;
      Worst = std::min(Worst, Quality);
      Chk.check(Quality == 1.0, "best_quality of " + W.Jobs[I].App + "/" +
                                    W.Jobs[I].Machine + " is " +
                                    std::to_string(Quality) + ", not 1.0");
    }
    std::cout << "paper_small best_quality (min over spaces): " << Worst
              << "\n";
  };
  return runForkedPasses(Cfg, S, C, M, W);
}
