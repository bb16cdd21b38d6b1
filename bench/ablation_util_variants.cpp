//===- bench/ablation_util_variants.cpp - Equation 2's /2 term ----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// §4: "We believe that the division by two in the first term in the
// bracket captures the first order effects."  This ablation swaps the
// bracket term of Equation 2 — the paper's (W-1)/2 + (B-1)W, a
// no-halving variant (W-1) + (B-1)W, and an other-blocks-only variant
// (B-1)W — and measures, for every application, whether the Pareto
// subset still contains the optimum and how many configurations it
// selects.
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

static const char *variantName(UtilizationVariant V) {
  switch (V) {
  case UtilizationVariant::Paper:
    return "(W-1)/2 + (B-1)W  [paper]";
  case UtilizationVariant::NoSyncHalving:
    return "(W-1) + (B-1)W";
  case UtilizationVariant::OtherBlocksOnly:
    return "(B-1)W";
  }
  return "?";
}

static void addApp(TextTable &T, const TunableApp &App) {
  for (UtilizationVariant V :
       {UtilizationVariant::Paper, UtilizationVariant::NoSyncHalving,
        UtilizationVariant::OtherBlocksOnly}) {
    MetricOptions MOpts;
    MOpts.Variant = V;
    SearchEngine Engine(App, MachineModel::geForce8800Gtx(), MOpts);
    SearchOutcome Full =
        SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
    SearchOutcome Pruned =
        SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
    bool Found = Pruned.BestTime <= Full.BestTime * 1.0000001;
    double Gap = Pruned.BestTime / Full.BestTime - 1.0;
    T.addRow({std::string(App.name()), variantName(V),
              fmtInt(uint64_t(Pruned.Candidates.size())),
              fmtPercent(Pruned.spaceReduction(), 0),
              Found ? "yes" : ("NO (+" + fmtPercent(Gap) + ")")});
  }
  T.addSeparator();
}

int main() {
  std::cout << "=== Ablation: Equation 2 bracket-term variants ===\n\n";
  TextTable T;
  T.setHeader({"Kernel", "Utilization bracket", "Selected",
               "Space reduction", "Optimum on curve"});
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
  return 0;
}
