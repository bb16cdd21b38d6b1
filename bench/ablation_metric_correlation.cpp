//===- bench/ablation_metric_correlation.cpp - §5.1 quantified ----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// §5.1: "The efficiency and utilization metrics both carry part of the
// information needed to predict the performance of a kernel
// configuration, though neither is sufficient in isolation for useful
// performance comparisons."  This ablation quantifies that: the Spearman
// rank correlation between measured run time and each metric's
// reciprocal (and a naive product combination) over every valid
// configuration of every application.  High correlation would mean a
// single scalar cost function suffices — §5.1 says it does not, which
// is precisely why the paper resorts to the two-dimensional Pareto
// front.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/TextTable.h"

#include <iostream>

using namespace g80;

static void addApp(TextTable &T, const TunableApp &App) {
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  std::vector<double> Time, InvEff, InvUtil, InvProduct;
  for (size_t I : Full.Candidates) {
    const ConfigEval &E = Full.Evals[I];
    Time.push_back(E.TimeSeconds);
    InvEff.push_back(1.0 / E.EfficiencyTotal);
    InvUtil.push_back(1.0 / E.Metrics.Utilization);
    InvProduct.push_back(1.0 /
                         (E.EfficiencyTotal * E.Metrics.Utilization));
  }

  T.addRow({std::string(App.name()), fmtInt(uint64_t(Time.size())),
            fmtDouble(spearmanCorrelation(Time, InvEff), 3),
            fmtDouble(spearmanCorrelation(Time, InvUtil), 3),
            fmtDouble(spearmanCorrelation(Time, InvProduct), 3)});
}

int main() {
  std::cout << "=== Ablation: how well does each metric alone rank "
               "configurations? (Spearman vs measured time; 1.0 = "
               "perfect predictor) ===\n\n";
  TextTable T;
  T.setHeader({"Kernel", "Configs", "rho(time, 1/Eff)", "rho(time, 1/Util)",
               "rho(time, 1/(Eff*Util))"});
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
  std::cout << "\nNo single column is reliably near 1.0 across all four "
               "applications (section 5.1: 'not detailed enough to "
               "combine into a single robust cost function') — hence the "
               "two-metric Pareto front.\n";
  return 0;
}
