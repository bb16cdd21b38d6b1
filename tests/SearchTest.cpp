//===- tests/SearchTest.cpp - search strategy tests --------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SearchStrategy.h"

#include "kernels/MatMul.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace g80;

namespace {

// A modest problem keeps simulation cheap; the space shape is unchanged.
const MatMulApp &app() {
  static MatMulApp App(MatMulProblem{256});
  return App;
}

const SearchEngine &engine() {
  static SearchEngine Engine(app(), MachineModel::geForce8800Gtx());
  return Engine;
}

/// Measures \p Plan through the sweep driver, serially and unjournaled.
SearchOutcome measure(SweepPlan Plan) {
  return SweepDriver(engine(), {}).run(std::move(Plan)).Outcome;
}

/// Runs the `greedy` strategy with \p Budget probes.
SearchOutcome greedy(uint64_t Budget, uint64_t Seed) {
  StrategyOptions Opts{Seed, Budget};
  return runAdaptiveSweep(engine(), StrategyKind::Greedy, Opts, {}).Outcome;
}

TEST(Search, ExhaustiveMeasuresEveryUsableConfig) {
  SearchOutcome Out = measure(engine().planExhaustive());
  EXPECT_EQ(Out.Candidates.size(), Out.ValidCount);
  for (size_t I : Out.Candidates) {
    EXPECT_TRUE(Out.Evals[I].usable());
    EXPECT_TRUE(Out.Evals[I].Measured);
    EXPECT_GT(Out.Evals[I].TimeSeconds, 0);
    // An independent check on the driver: measuring a fresh copy by hand
    // gives the time the sweep recorded.
    ConfigEval Fresh = engine().evaluator().evaluateAt(Out.Evals[I].FlatIndex);
    ASSERT_TRUE(engine().evaluator().measure(Fresh));
    EXPECT_EQ(Fresh.TimeSeconds, Out.Evals[I].TimeSeconds);
  }
  EXPECT_EQ(Out.spaceReduction(), 0.0);
}

TEST(Search, BestIndexIsConsistent) {
  SearchOutcome Out = measure(engine().planExhaustive());
  ASSERT_LT(Out.BestIndex, Out.Evals.size());
  for (size_t I : Out.Candidates)
    EXPECT_GE(Out.Evals[I].TimeSeconds, Out.BestTime);
  EXPECT_EQ(Out.Evals[Out.BestIndex].TimeSeconds, Out.BestTime);
}

TEST(Search, ParetoPrunedIsSubsetOfUsable) {
  SearchOutcome Out = measure(engine().planPareto());
  EXPECT_LT(Out.Candidates.size(), Out.ValidCount);
  for (size_t I : Out.Candidates)
    EXPECT_TRUE(Out.Evals[I].usable());
  // Unmeasured configurations still carry metrics.
  size_t WithMetrics = 0;
  for (const ConfigEval &E : Out.Evals)
    if (E.usable())
      ++WithMetrics;
  EXPECT_EQ(WithMetrics, Out.ValidCount);
}

TEST(Search, ParetoFindsNearOptimum) {
  // At this reduced problem scale the simulator's launch-tail effects can
  // push the true optimum slightly off the curve (§5.3 discusses exactly
  // this failure mode); the curve still lands close.  The exact
  // found-the-optimum claim is asserted at bench scale in
  // IntegrationTest.
  SearchOutcome Full = measure(engine().planExhaustive());
  SearchOutcome Pruned = measure(engine().planPareto());
  EXPECT_LE(Pruned.BestTime, Full.BestTime * 1.25);
  EXPECT_LT(Pruned.TotalMeasuredSeconds, Full.TotalMeasuredSeconds);
}

TEST(Search, ClusteredSelectsAtMostOnePerCluster) {
  SearchOutcome Pruned = measure(engine().planPareto());
  SearchOutcome Clustered = measure(engine().planClustered());
  EXPECT_LE(Clustered.Candidates.size(), Pruned.Candidates.size());
  EXPECT_GE(Clustered.Candidates.size(), 1u);
  // Clustered candidates are a subset of the pruned candidates.
  for (size_t I : Clustered.Candidates)
    EXPECT_TRUE(std::binary_search(Pruned.Candidates.begin(),
                                   Pruned.Candidates.end(), I));
}

TEST(Search, RandomSampleDeterministicPerSeed) {
  SearchOutcome A = measure(engine().planRandom(10, 42));
  SearchOutcome B = measure(engine().planRandom(10, 42));
  SearchOutcome C = measure(engine().planRandom(10, 43));
  EXPECT_EQ(A.Candidates, B.Candidates);
  EXPECT_NE(A.Candidates, C.Candidates);
}

TEST(Search, RandomSampleDrawsDistinctUsable) {
  SearchOutcome Out = measure(engine().planRandom(20, 7));
  EXPECT_EQ(Out.Candidates.size(), 20u);
  EXPECT_TRUE(std::is_sorted(Out.Candidates.begin(), Out.Candidates.end()));
  EXPECT_TRUE(std::adjacent_find(Out.Candidates.begin(),
                                 Out.Candidates.end()) ==
              Out.Candidates.end());
  for (size_t I : Out.Candidates)
    EXPECT_TRUE(Out.Evals[I].usable());
}

TEST(Search, RandomSampleCapsAtSpaceSize) {
  SearchOutcome Out = measure(engine().planRandom(100000, 3));
  EXPECT_EQ(Out.Candidates.size(), Out.ValidCount);
}

TEST(Search, RandomSampleNeverBeatsExhaustive) {
  SearchOutcome Full = measure(engine().planExhaustive());
  for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
    SearchOutcome R = measure(engine().planRandom(10, Seed));
    EXPECT_GE(R.BestTime, Full.BestTime);
  }
}

TEST(Search, SpaceReductionArithmetic) {
  SearchOutcome Out = measure(engine().planPareto());
  double Expected =
      1.0 - double(Out.Candidates.size()) / double(Out.ValidCount);
  EXPECT_DOUBLE_EQ(Out.spaceReduction(), Expected);
}

TEST(Search, StrategyNamesSet) {
  EXPECT_EQ(measure(engine().planPareto()).Strategy, "pareto");
  EXPECT_EQ(measure(engine().planRandom(1, 1)).Strategy, "random");
  EXPECT_EQ(measure(engine().planClustered()).Strategy, "pareto+cluster");
}

} // namespace

// The `greedy` strategy (kept in this file so the shared engine() fixture
// is reused).
namespace {

TEST(Greedy, DeterministicPerSeed) {
  SearchOutcome A = greedy(20, 5);
  SearchOutcome B = greedy(20, 5);
  EXPECT_EQ(A.Candidates, B.Candidates);
  EXPECT_DOUBLE_EQ(A.BestTime, B.BestTime);
}

TEST(Greedy, RespectsBudget) {
  SearchOutcome Out = greedy(5, 11);
  EXPECT_LE(Out.Candidates.size(), 5u);
  EXPECT_GE(Out.Candidates.size(), 1u);
  EXPECT_EQ(Out.Strategy, "greedy");
}

TEST(Greedy, CandidatesAreUsableAndMeasured) {
  SearchOutcome Out = greedy(30, 2);
  for (size_t I : Out.Candidates) {
    EXPECT_TRUE(Out.Evals[I].usable());
    EXPECT_TRUE(Out.Evals[I].Measured);
  }
  EXPECT_TRUE(std::is_sorted(Out.Candidates.begin(), Out.Candidates.end()));
}

TEST(Greedy, NeverBeatsExhaustive) {
  SearchOutcome Full = measure(engine().planExhaustive());
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    SearchOutcome G = greedy(40, Seed);
    EXPECT_GE(G.BestTime, Full.BestTime);
  }
}

TEST(Greedy, ReachesALocalOptimumUnderLargeBudget) {
  // With an unbounded budget the walk ends at a configuration none of
  // whose measured one-step neighbors is faster.
  SearchOutcome Out = greedy(100000, 9);
  ASSERT_LT(Out.BestIndex, Out.Evals.size());
  const ConfigSpace &S = app().space();
  const ConfigPoint &BestP = Out.Evals[Out.BestIndex].Point;
  for (size_t D = 0; D != S.numDims(); ++D) {
    const std::vector<int> &Vals = S.dim(D).Values;
    for (size_t V = 0; V != Vals.size(); ++V) {
      if (Vals[V] != BestP[D])
        continue;
      for (int Step : {-1, 1}) {
        if ((Step < 0 && V == 0) || (Step > 0 && V + 1 >= Vals.size()))
          continue;
        ConfigPoint N = BestP;
        N[D] = Vals[V + size_t(Step)];
        for (size_t I : Out.Candidates) {
          if (Out.Evals[I].Point == N) {
            EXPECT_GE(Out.Evals[I].TimeSeconds, Out.BestTime);
          }
        }
      }
    }
  }
}

} // namespace
