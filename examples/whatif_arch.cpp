//===- examples/whatif_arch.cpp - Re-tuning for a new architecture ------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The paper's §1 motivation: "successive generations of architectures
// require a complete reapplication of the optimization process to
// achieve the maximum performance for the new system."  Because the
// machine is data in g80tune, re-tuning for a hypothetical next-gen part
// (twice the registers and shared memory, 1.5x the bandwidth) is one
// constructor call — and the optimal configuration indeed moves.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/MatMul.h"
#include "support/Format.h"
#include "support/TextTable.h"

#include <iostream>

using namespace g80;

static void tuneOn(const TunableApp &App, const MachineModel &Machine,
                   TextTable &T) {
  SearchEngine Engine(App, Machine);
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  const ConfigEval &Best = Full.Evals[Full.BestIndex];
  bool Found = Pruned.BestTime <= Full.BestTime * 1.0000001;
  T.addRow({Machine.Name, App.space().describe(Best.Point),
            fmtDouble(Full.BestTime * 1e3, 3) + " ms",
            fmtInt(Best.Metrics.Occ.BlocksPerSM),
            fmtInt(uint64_t(Pruned.Candidates.size())),
            Found ? "yes" : "NO"});
}

int main() {
  MatMulApp App(MatMulProblem::bench());

  std::cout << "Re-tuning matmul across architecture generations\n\n";
  TextTable T;
  T.setHeader({"Machine", "Optimal configuration", "Best time", "B_SM",
               "Pareto-selected", "Optimum on curve"});
  tuneOn(App, MachineModel::geForce8800Gtx(), T);
  tuneOn(App, MachineModel::hypotheticalNextGen(), T);
  T.print(std::cout);

  std::cout
      << "\nWith twice the registers per SM the register-hungry "
         "configurations regain thread-level parallelism: occupancy "
         "(B_SM) and the shape of the Pareto curve change, so the "
         "search must be reapplied per generation — the paper's "
         "motivation for automating it.  (Whether the winner itself "
         "moves depends on the workload; the curve one must test "
         "always does.)\n";
  return 0;
}
