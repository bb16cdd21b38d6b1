//===- tests/IntegrationTest.cpp - the paper's headline claims ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end reproduction checks of the paper's headline results at
/// bench scale: for every application, the Pareto subset of the metric
/// plot contains the configuration the exhaustive search finds optimal,
/// and the space reduction lands in the 74-98% band Table 4 reports.
///
//===----------------------------------------------------------------------===//

#include "analysis/Lint.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"

#include <gtest/gtest.h>

#include <memory>

using namespace g80;

namespace {

struct AppCase {
  const char *Name;
  std::unique_ptr<TunableApp> App;
  size_t PaperValid;    ///< Table 4 "configurations".
  size_t PaperSelected; ///< Table 4 "selected configurations".
  /// Minimum worst/best runtime ratio we require.  MRI-FHD is smaller
  /// than the others: the paper's 235% spread there included the §5.3
  /// cache-layout pathology our substrate does not model, and every
  /// configuration of our MRI kernel saturates the SFU pipe.
  double MinSpread;
};

std::vector<AppCase> makeApps() {
  std::vector<AppCase> Apps;
  Apps.push_back({"matmul", std::make_unique<MatMulApp>(MatMulProblem::bench()),
                  93, 11, 1.5});
  Apps.push_back(
      {"cp", std::make_unique<CpApp>(CpProblem::bench()), 38, 10, 1.5});
  Apps.push_back({"sad", std::make_unique<SadApp>(SadApp::benchProblem()),
                  908, 16, 1.5});
  Apps.push_back({"mri-fhd", std::make_unique<MriFhdApp>(MriProblem::bench()),
                  175, 30, 1.1});
  return Apps;
}

class HeadlineClaim : public ::testing::TestWithParam<size_t> {
protected:
  static std::vector<AppCase> &apps() {
    static std::vector<AppCase> Apps = makeApps();
    return Apps;
  }
};

TEST_P(HeadlineClaim, ParetoSubsetContainsTheOptimum) {
  AppCase &C = apps()[GetParam()];
  SearchEngine Engine(*C.App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;

  // §5.2: "For all benchmarks, the Pareto-optimal subset contains the
  // best configuration found by exhaustive search."
  EXPECT_DOUBLE_EQ(Pruned.BestTime, Full.BestTime) << C.Name;

  // Table 4's reduction band: 74% to 98%.
  EXPECT_GE(Pruned.spaceReduction(), 0.70) << C.Name;
  EXPECT_LE(Pruned.spaceReduction(), 0.99) << C.Name;

  // Space sizes in the paper's ballpark (our spaces differ slightly where
  // DESIGN.md documents it: same order, same shape).
  EXPECT_GE(Pruned.ValidCount, C.PaperValid / 2) << C.Name;
  EXPECT_LE(Pruned.ValidCount, C.PaperValid * 2) << C.Name;
  EXPECT_GE(Pruned.Candidates.size(), C.PaperSelected / 3) << C.Name;
  EXPECT_LE(Pruned.Candidates.size(), C.PaperSelected * 3) << C.Name;
}

TEST_P(HeadlineClaim, PrunedEvaluationIsMuchCheaper) {
  AppCase &C = apps()[GetParam()];
  SearchEngine Engine(*C.App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  EXPECT_LT(Pruned.TotalMeasuredSeconds, 0.5 * Full.TotalMeasuredSeconds)
      << C.Name;
}

TEST_P(HeadlineClaim, PerformanceSpreadIsLarge) {
  // §1: the spread between worst and best configurations is large (235%
  // for MRI); pruning matters because picking badly is expensive.
  AppCase &C = apps()[GetParam()];
  SearchEngine Engine(*C.App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  double Worst = 0;
  for (size_t I : Full.Candidates)
    Worst = std::max(Worst, Full.Evals[I].TimeSeconds);
  EXPECT_GT(Worst / Full.BestTime, C.MinSpread) << C.Name;
}

TEST_P(HeadlineClaim, LintIsCleanAcrossTheFullSpace) {
  // Every expressible configuration of every paper app must lint free of
  // errors: no shared-memory races, no contradicted coalescing
  // annotations, no register-pressure undershoot.  The only tolerated
  // warnings are bank conflicts (matmul's 8-wide tiles genuinely conflict
  // on the B-tile store; the paper's kernels do too).
  AppCase &C = apps()[GetParam()];
  const ConfigSpace &S = C.App->space();
  for (const ConfigPoint &P : S.enumerate()) {
    if (!C.App->isExpressible(P))
      continue;
    Kernel K = C.App->buildKernel(P);
    LintResult R = runLint(K, C.App->launch(P));
    for (const Finding &F : R.Findings) {
      EXPECT_NE(F.Severity, FindingSeverity::Error)
          << C.Name << " " << S.describe(P) << ": ["
          << findingCategoryName(F.Category) << "] " << F.Message;
      if (F.Severity == FindingSeverity::Warning) {
        EXPECT_EQ(F.Category, FindingCategory::BankConflict)
            << C.Name << " " << S.describe(P) << ": ["
            << findingCategoryName(F.Category) << "] " << F.Message;
      }
    }
  }
}

std::string appCaseName(const ::testing::TestParamInfo<size_t> &Info) {
  static const char *const Names[] = {"matmul", "cp", "sad", "mri"};
  return Names[Info.param];
}

INSTANTIATE_TEST_SUITE_P(AllApps, HeadlineClaim,
                         ::testing::Range(size_t(0), size_t(4)),
                         appCaseName);

//===--- §5.2: in-cluster runtime spread is small (MRI-FHD) ------------------===//

TEST(MriClusters, InClusterSpreadIsSmall) {
  MriFhdApp App(MriProblem::bench());
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  // Group the measured configs by (tpb, unroll): each group is one §5.2
  // metric cluster across the 7 work values.
  const ConfigSpace &S = App.space();
  double MaxSpread = 0;
  for (int Tpb : S.dim(S.dimIndex("tpb")).Values) {
    for (int U : S.dim(S.dimIndex("unroll")).Values) {
      double Min = 1e300, Max = 0;
      for (size_t I : Full.Candidates) {
        const ConfigEval &E = Full.Evals[I];
        if (S.valueOf(E.Point, "tpb") != Tpb ||
            S.valueOf(E.Point, "unroll") != U)
          continue;
        Min = std::min(Min, E.TimeSeconds);
        Max = std::max(Max, E.TimeSeconds);
      }
      if (Max > 0)
        MaxSpread = std::max(MaxSpread, Max / Min - 1.0);
    }
  }
  // The paper reports a maximum in-cluster variation of 7.1%; our
  // simulator's grid-tail effects stay in the same regime.
  EXPECT_LE(MaxSpread, 0.15);
  EXPECT_GT(MaxSpread, 0.0); // The dimension is not a pure no-op.
}

//===--- The §5.3 screen keeps the optimum (matmul) ---------------------------===//

TEST(BandwidthScreen, MatMulOptimumSurvivesScreening) {
  MatMulApp App(MatMulProblem::bench());
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  ParetoOptions Screen;
  Screen.ScreenBandwidthBound = true;
  SearchOutcome Screened =
      SweepDriver(Engine, {}).run(Engine.planPareto(Screen)).Outcome;
  EXPECT_DOUBLE_EQ(Screened.BestTime, Full.BestTime);
  // Every screened candidate is genuinely not bandwidth-bound; the
  // unscreened curve (the paper's Fig. 6(a)) contains bandwidth-bound
  // 8x8 configurations.
  for (size_t I : Screened.Candidates)
    EXPECT_FALSE(Screened.Evals[I].Metrics.bandwidthBound());
  SearchOutcome Unscreened =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;
  bool AnyBound = false;
  for (size_t I : Unscreened.Candidates)
    AnyBound = AnyBound || Unscreened.Evals[I].Metrics.bandwidthBound();
  EXPECT_TRUE(AnyBound);
}

} // namespace
