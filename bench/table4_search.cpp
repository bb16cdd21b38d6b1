//===- bench/table4_search.cpp - Table 4 reproduction -------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Table 4: "Parameter Search Properties" — for each application: the
// size of the optimization space, the cost of evaluating all of it, the
// number of configurations the Pareto pruning selects, the space
// reduction, and the cost of evaluating only the selected ones.
// "Evaluation time" is the summed run time of the measured
// configurations (what one would spend running them on hardware), as in
// the paper.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/TextTable.h"

#include <iostream>
#include <memory>

using namespace g80;

namespace {

struct PaperRow {
  size_t Configs;
  const char *EvalTime;
  size_t Selected;
  const char *Reduction;
  const char *SelectedTime;
};

void addApp(TextTable &T, const TunableApp &App, const PaperRow &Paper) {
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;

  bool Found = Pruned.BestTime <= Full.BestTime * 1.0000001;
  T.addRow({std::string(App.name()), fmtInt(uint64_t(Full.ValidCount)),
            fmtDouble(Full.TotalMeasuredSeconds * 1e3, 1) + " ms",
            fmtInt(uint64_t(Pruned.Candidates.size())),
            fmtPercent(Pruned.spaceReduction(), 0),
            fmtDouble(Pruned.TotalMeasuredSeconds * 1e3, 1) + " ms",
            Found ? "yes" : "NO"});
  T.addRow({"  (paper)", fmtInt(uint64_t(Paper.Configs)), Paper.EvalTime,
            fmtInt(uint64_t(Paper.Selected)), Paper.Reduction,
            Paper.SelectedTime, "yes"});
  T.addSeparator();
}

} // namespace

int main() {
  std::cout << "=== Table 4: parameter search properties (simulated "
               "GeForce 8800; paper rows measured on silicon) ===\n\n";

  TextTable T;
  T.setHeader({"Kernel", "Configs", "Eval time", "Selected",
               "Space reduction", "Selected eval time", "Optimal found"});

  {
    MatMulApp App(MatMulProblem::bench());
    addApp(T, App, {93, "363.3 s", 11, "88%", "48.6 s"});
  }
  {
    CpApp App(CpProblem::bench());
    addApp(T, App, {38, "159.5 s", 10, "74%", "42.95 s"});
  }
  {
    SadApp App(SadApp::benchProblem());
    addApp(T, App, {908, "7.677 s", 16, "98%", "0.127 s"});
  }
  {
    MriFhdApp App(MriProblem::bench());
    addApp(T, App, {175, "771.9 s", 30, "77%", "208.0 s"});
  }
  T.print(std::cout);

  std::cout << "\nAbsolute evaluation times differ (scaled-down problem "
               "sizes on a simulator); the comparison targets are the "
               "space sizes, the selected counts and the reduction "
               "percentages.\n";
  return 0;
}
