//===- bench/ablation_bandwidth_screen.cpp - §5.3 screen on/off ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// §5.3: for matmul, "all of the configurations on [the curve] except the
// optimum are 8x8 tile size configurations" — bandwidth-bound points the
// metrics cannot rank — and "one should screen away such points prior to
// defining the curve."  This ablation runs the Pareto pruning with and
// without the bandwidth screen for every application and reports the
// selected count, how many selected configurations were bandwidth-bound,
// and whether the optimum stayed on the curve.
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

using namespace g80;

static void addApp(TextTable &T, const TunableApp &App) {
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  for (bool Screen : {false, true}) {
    ParetoOptions Opts;
    Opts.ScreenBandwidthBound = Screen;
    SearchOutcome Pruned =
        SweepDriver(Engine, {}).run(Engine.planPareto(Opts)).Outcome;
    size_t Bound = 0;
    for (size_t I : Pruned.Candidates)
      Bound += Pruned.Evals[I].Metrics.bandwidthBound();
    bool Found = Pruned.BestTime <= Full.BestTime * 1.0000001;
    T.addRow({std::string(App.name()), Screen ? "on" : "off",
              fmtInt(uint64_t(Pruned.Candidates.size())),
              fmtInt(uint64_t(Bound)),
              fmtDouble(Pruned.TotalMeasuredSeconds * 1e3, 1) + " ms",
              Found ? "yes" : "NO"});
  }
  T.addSeparator();
}

int main() {
  std::cout << "=== Ablation: the section 5.3 bandwidth screen ===\n\n";
  TextTable T;
  T.setHeader({"Kernel", "Screen", "Selected", "Of which bw-bound",
               "Selected eval time", "Optimum on curve"});
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
  std::cout << "\nScreening never loses the optimum (it is never "
               "bandwidth-bound) and stops wasting measurements on the "
               "matmul 8x8 wall.\n";
  return 0;
}
