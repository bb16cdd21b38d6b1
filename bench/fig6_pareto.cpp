//===- bench/fig6_pareto.cpp - Figure 6 reproduction --------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Figure 6: "Searching by Pareto-Optimal Performance Metric" — for each
// of the four applications, every configuration plotted by normalized
// Efficiency (x) and Utilization (y); the Pareto-optimal subset
// connected by the search curve; the true optimum circled.  Rendered
// here as an ASCII scatter per app ('.' = configuration, '*' = Pareto
// subset, 'O' = optimum found by exhaustive search) plus the selected
// configuration list.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/AsciiPlot.h"
#include "support/Format.h"
#include "support/TextTable.h"

#include <algorithm>
#include <iostream>
#include <memory>

using namespace g80;

static void runApp(const TunableApp &App, const char *FigureId) {
  MachineModel Machine = MachineModel::geForce8800Gtx();
  SearchEngine Engine(App, Machine);

  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  std::vector<size_t> Front = paretoSubset(Full.Evals);

  // Normalize both metrics to [0, 1] as the paper does.
  double MaxEff = 0, MaxUtil = 0;
  for (const ConfigEval &E : Full.Evals) {
    if (!E.usable())
      continue;
    MaxEff = std::max(MaxEff, E.EfficiencyTotal);
    MaxUtil = std::max(MaxUtil, E.Metrics.Utilization);
  }

  AsciiPlot Plot(64, 20);
  Plot.setTitle(std::string("Figure 6") + FigureId + ": " +
                std::string(App.name()) +
                "  ('.' config, '*' Pareto subset, 'O' optimum)");
  Plot.setViewport(0, 1.02, 0, 1.02);
  Plot.setXLabel("normalized efficiency");
  Plot.setYLabel("normalized utilization");
  for (const ConfigEval &E : Full.Evals)
    if (E.usable())
      Plot.addPoint(E.EfficiencyTotal / MaxEff,
                    E.Metrics.Utilization / MaxUtil, '.');
  for (size_t I : Front)
    Plot.addPoint(Full.Evals[I].EfficiencyTotal / MaxEff,
                  Full.Evals[I].Metrics.Utilization / MaxUtil, '*');
  const ConfigEval &Best = Full.Evals[Full.BestIndex];
  Plot.addPoint(Best.EfficiencyTotal / MaxEff,
                Best.Metrics.Utilization / MaxUtil, 'O');
  Plot.print(std::cout);

  bool OnCurve =
      std::find(Front.begin(), Front.end(), Full.BestIndex) != Front.end();
  std::cout << "\n  optimum: " << App.space().describe(Best.Point) << "  ("
            << fmtDouble(Best.TimeSeconds * 1e3, 3) << " ms)\n"
            << "  optimum on the Pareto curve: " << (OnCurve ? "YES" : "NO")
            << "\n  Pareto-selected configurations (" << Front.size()
            << " of " << Full.ValidCount << "):\n";
  TextTable T;
  T.setHeader({"config", "eff (norm)", "util (norm)", "time (ms)", "bw-bound"});
  for (size_t I : Front) {
    const ConfigEval &E = Full.Evals[I];
    T.addRow({App.space().describe(E.Point),
              fmtDouble(E.EfficiencyTotal / MaxEff, 3),
              fmtDouble(E.Metrics.Utilization / MaxUtil, 3),
              fmtDouble(E.TimeSeconds * 1e3, 3),
              E.Metrics.bandwidthBound() ? "yes" : "no"});
  }
  T.print(std::cout);
  std::cout << "\n";
}

int main() {
  std::cout << "=== Figure 6: searching by Pareto-optimal performance "
               "metric ===\n\n";
  MatMulApp MatMul(MatMulProblem::bench());
  runApp(MatMul, "(a)");
  MriFhdApp Mri(MriProblem::bench());
  runApp(Mri, "(b)");
  CpApp Cp(CpProblem::bench());
  runApp(Cp, "(c)");
  SadApp Sad(SadApp::benchProblem());
  runApp(Sad, "(d)");
  std::cout << "Paper: the optimum lies on the curve for every "
               "application; in (a) the rest of the curve is mostly the "
               "bandwidth-bound 8x8 configurations (see section 5.3).\n";
  return 0;
}
