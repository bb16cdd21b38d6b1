//===- examples/quickstart.cpp - Tune matrix multiplication ----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Quickstart: tune the paper's matrix-multiplication kernel on the
// simulated GeForce 8800 GTX.
//
//  1. Construct the application (its optimization space comes with it).
//  2. Run the Pareto-pruned search: SearchEngine plans it from static
//     metrics for every configuration, and SweepDriver (the loop
//     `tune search` runs) measures only the Pareto-optimal subset.
//  3. Compare against the exhaustive search to see what the pruning
//     saved and that it still found the optimum.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/MatMul.h"
#include "ptx/Printer.h"
#include "support/Format.h"

#include <iostream>

using namespace g80;

int main() {
  MachineModel Machine = MachineModel::geForce8800Gtx();
  MatMulApp App(MatMulProblem::bench());
  SearchEngine Engine(App, Machine);

  std::cout << "Tuning " << App.name() << " on " << Machine.Name << " ("
            << App.space().rawSize() << " raw configurations)\n\n";

  // The contribution: measure only the Pareto-optimal subset.
  SearchOutcome Pareto =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  std::cout << "Pareto-pruned search:\n"
            << "  valid configurations : " << Pareto.ValidCount << "\n"
            << "  measured             : " << Pareto.Candidates.size()
            << "\n"
            << "  space reduction      : "
            << fmtPercent(Pareto.spaceReduction()) << "\n"
            << "  best time            : " << fmtDouble(Pareto.BestTime * 1e3)
            << " ms\n"
            << "  best config          : "
            << App.space().describe(Pareto.Evals[Pareto.BestIndex].Point)
            << "\n\n";

  // Sanity: the expensive way.
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  std::cout << "Exhaustive search:\n"
            << "  measured             : " << Full.Candidates.size() << "\n"
            << "  best time            : " << fmtDouble(Full.BestTime * 1e3)
            << " ms\n"
            << "  best config          : "
            << App.space().describe(Full.Evals[Full.BestIndex].Point)
            << "\n"
            << "  total eval time      : "
            << fmtDouble(Full.TotalMeasuredSeconds * 1e3) << " ms vs "
            << fmtDouble(Pareto.TotalMeasuredSeconds * 1e3)
            << " ms for the pruned search\n\n";

  bool FoundOptimum = Full.BestTime >= Pareto.BestTime * 0.9999;
  std::cout << (FoundOptimum
                    ? "The Pareto subset contained the optimal configuration."
                    : "WARNING: pruning missed the optimum!")
            << "\n\nWinning kernel:\n";
  printKernel(App.buildKernel(Full.Evals[Full.BestIndex].Point), std::cout);
  return FoundOptimum ? 0 : 1;
}
