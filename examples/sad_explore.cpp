//===- examples/sad_explore.cpp - Exploring a 700-point space ------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The SAD kernel's space (Fig. 4) is the largest of the paper's four —
// too big to measure exhaustively in practice.  This example shows the
// intended workflow on it:
//   1. compute static metrics for all ~700 valid configurations
//      (seconds of compile-time analysis, no execution),
//   2. measure only the Pareto subset,
//   3. inspect what the metrics say about the winner.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/TextTable.h"

#include <algorithm>
#include <iostream>

using namespace g80;

int main() {
  SadApp App(SadApp::benchProblem());
  MachineModel Machine = MachineModel::geForce8800Gtx();
  SearchEngine Engine(App, Machine);

  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  std::cout << "SAD: " << Pruned.ValidCount << " valid configurations; "
            << "metrics computed for all, only "
            << Pruned.Candidates.size() << " measured ("
            << fmtPercent(Pruned.spaceReduction()) << " pruned)\n\n";

  // Rank the measured candidates.
  std::vector<size_t> Order = Pruned.Candidates;
  std::sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return Pruned.Evals[A].TimeSeconds < Pruned.Evals[B].TimeSeconds;
  });

  TextTable T;
  T.setHeader({"rank", "config", "time (ms)", "Instr/thread", "Regions",
               "W_TB", "B_SM"});
  unsigned Rank = 1;
  for (size_t I : Order) {
    const ConfigEval &E = Pruned.Evals[I];
    T.addRow({fmtInt(Rank++), App.space().describe(E.Point),
              fmtDouble(E.TimeSeconds * 1e3, 3),
              fmtInt(E.Metrics.Profile.DynInstrs),
              fmtInt(E.Metrics.Profile.regions()),
              fmtInt(E.Metrics.Occ.WarpsPerBlock),
              fmtInt(E.Metrics.Occ.BlocksPerSM)});
    if (Rank > 10)
      break;
  }
  T.print(std::cout);

  const ConfigEval &Best = Pruned.Evals[Order.front()];
  std::cout << "\nWinner: " << App.space().describe(Best.Point)
            << " — fully unrolled 4x4 loops (fewest instructions per "
               "offset) at a block size that still keeps several blocks "
               "per SM.\n";
  return 0;
}
