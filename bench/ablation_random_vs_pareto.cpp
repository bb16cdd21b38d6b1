//===- bench/ablation_random_vs_pareto.cpp - §7 future-work comparison --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's §7 proposes comparing the Pareto pruning "to random
// sampling of the optimization space".  This ablation gives random
// search, and the `greedy` strategy `tune search` runs, the same
// measurement budget the Pareto subset used and asks, over many seeds:
// how often does each find the optimum, and how far off is its best
// configuration on average?
//
//===----------------------------------------------------------------------===//

#include "core/SearchStrategy.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/TextTable.h"

#include <iostream>
#include <memory>

using namespace g80;

static void addApp(TextTable &T, const TunableApp &App) {
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  size_t Budget = Pruned.Candidates.size();

  constexpr unsigned Seeds = 20;
  unsigned RandomFound = 0, GreedyFound = 0;
  SampleStats RandomGap, GreedyGap;
  for (unsigned Seed = 1; Seed <= Seeds; ++Seed) {
    SearchOutcome R =
        SweepDriver(Engine, {}).run(Engine.planRandom(Budget, Seed)).Outcome;
    if (R.BestTime <= Full.BestTime * 1.0000001)
      ++RandomFound;
    RandomGap.add(R.BestTime / Full.BestTime - 1.0);

    StrategyOptions Greedy{Seed, Budget};
    SearchOutcome G =
        runAdaptiveSweep(Engine, StrategyKind::Greedy, Greedy, {}).Outcome;
    if (G.BestTime <= Full.BestTime * 1.0000001)
      ++GreedyFound;
    GreedyGap.add(G.BestTime / Full.BestTime - 1.0);
  }

  bool ParetoFound = Pruned.BestTime <= Full.BestTime * 1.0000001;
  T.addRow({std::string(App.name()), fmtInt(uint64_t(Budget)),
            ParetoFound ? "yes" : "NO",
            fmtInt(RandomFound) + "/" + fmtInt(Seeds),
            fmtPercent(RandomGap.mean()),
            fmtInt(GreedyFound) + "/" + fmtInt(Seeds),
            fmtPercent(GreedyGap.mean())});
}

int main() {
  std::cout << "=== Ablation: Pareto pruning vs random sampling and "
               "greedy hill climbing at equal measurement budget (20 "
               "seeds) ===\n\n";
  TextTable T;
  T.setHeader({"Kernel", "Budget", "Pareto finds optimum",
               "Random finds", "Random mean gap", "Greedy finds",
               "Greedy mean gap"});
  {
    MatMulApp App(MatMulProblem::bench());
    addApp(T, App);
  }
  {
    CpApp App(CpProblem::bench());
    addApp(T, App);
  }
  {
    SadApp App(SadApp::benchProblem());
    addApp(T, App);
  }
  {
    MriFhdApp App(MriProblem::bench());
    addApp(T, App);
  }
  T.print(std::cout);
  std::cout << "\nGap = how much slower the strategy's winner is than "
               "the true optimum; greedy probes every one-step neighbor "
               "before it moves to the best one, and restarts from a "
               "random draw at a local optimum, until the budget runs "
               "out.\n";
  return 0;
}
