//===- core/Search.cpp ----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"

#include "core/Cluster.h"
#include "support/Random.h"

#include <algorithm>

using namespace g80;

SearchOutcome SearchOutcome::fromPlan(SweepPlan Plan) {
  SearchOutcome Out;
  Out.Strategy = std::move(Plan.Strategy);
  Out.Evals = std::move(Plan.Evals);
  Out.Candidates = std::move(Plan.Candidates);
  // Count usable entries and quarantine the ones that already failed
  // during metric evaluation (injected parse/verify/estimate faults or a
  // genuine verifier rejection).
  for (size_t I = 0; I != Out.Evals.size(); ++I) {
    const ConfigEval &E = Out.Evals[I];
    if (E.usable())
      ++Out.ValidCount;
    else if (E.failed())
      Out.noteQuarantined(I);
  }
  return Out;
}

void SearchOutcome::noteQuarantined(size_t Idx) {
  Quarantined.push_back(Idx);
  ++FailedPerStage[static_cast<size_t>(Evals[Idx].Failure.At)];
}

void SearchOutcome::noteMeasured(size_t Idx) {
  const ConfigEval &E = Evals[Idx];
  TotalMeasuredSeconds += E.TimeSeconds;
  if (E.TimeSeconds < BestTime) {
    BestTime = E.TimeSeconds;
    BestIndex = Idx;
  }
}

SweepPlan SweepPlan::slice(size_t Begin, size_t End) const {
  SweepPlan Out;
  Out.Strategy = Strategy;
  Out.Evals = Evals;
  Begin = std::min(Begin, Candidates.size());
  End = std::min(std::max(End, Begin), Candidates.size());
  Out.Candidates.assign(Candidates.begin() + ptrdiff_t(Begin),
                        Candidates.begin() + ptrdiff_t(End));
  return Out;
}

std::vector<ConfigEval> SearchEngine::planStatics(unsigned Jobs) const {
  if (Eval.app().space().rawSize() <= DenseEvalLimit)
    return Eval.evaluateMetrics(Jobs);
  // Large tier: a full raw scan is off the table, but the expressible
  // subset (a cheap pointAt+isExpressible screen) is still enumerable.
  return Eval.evaluateSubset(Eval.expressibleIndices(), Jobs);
}

SweepPlan SearchEngine::planExhaustive(unsigned Jobs) const {
  SweepPlan Plan;
  Plan.Strategy = "exhaustive";
  Plan.Evals = planStatics(Jobs);
  Plan.Candidates.reserve(Plan.Evals.size());
  for (size_t I = 0; I != Plan.Evals.size(); ++I)
    if (Plan.Evals[I].usable())
      Plan.Candidates.push_back(I);
  return Plan;
}

SweepPlan SearchEngine::planPareto(const ParetoOptions &Opts,
                                   unsigned Jobs) const {
  SweepPlan Plan;
  Plan.Strategy = "pareto";
  Plan.Evals = planStatics(Jobs);
  Plan.Candidates = paretoSubset(Plan.Evals, Opts);
  return Plan;
}

SweepPlan SearchEngine::planClustered(unsigned Jobs) const {
  SweepPlan Plan;
  Plan.Strategy = "pareto+cluster";
  Plan.Evals = planStatics(Jobs);
  std::vector<size_t> Subset = paretoSubset(Plan.Evals);
  std::vector<std::vector<size_t>> Clusters =
      clusterByMetrics(Plan.Evals, Subset);
  // One representative per cluster; the smallest index keeps the choice
  // deterministic ("randomly select a single configuration" in the paper
  // — any member works, that is the point of the cluster).
  Plan.Candidates.reserve(Clusters.size());
  for (const std::vector<size_t> &C : Clusters)
    Plan.Candidates.push_back(C.front());
  std::sort(Plan.Candidates.begin(), Plan.Candidates.end());
  return Plan;
}

SweepPlan SearchEngine::planRandom(size_t K, uint64_t Seed,
                                   unsigned Jobs) const {
  SweepPlan Plan;
  Plan.Strategy = "random";
  if (Eval.app().space().rawSize() > DenseEvalLimit) {
    // Sparse draw: sample flat indices from the expressible screen first,
    // then pay for statics only on the sample.  Resource-invalid draws
    // stay in Evals (journal fingerprinting needs the full sample) but do
    // not become candidates, so a sparse plan may measure fewer than K.
    std::vector<uint64_t> Expr = Eval.expressibleIndices();
    Rng R(Seed);
    size_t Draw = std::min<size_t>(K, Expr.size());
    for (size_t I = 0; I != Draw; ++I) {
      size_t J = I + size_t(R.nextBelow(Expr.size() - I));
      std::swap(Expr[I], Expr[J]);
    }
    std::vector<uint64_t> Picked(Expr.begin(),
                                 Expr.begin() + ptrdiff_t(Draw));
    std::sort(Picked.begin(), Picked.end());
    Plan.Evals = Eval.evaluateSubset(Picked, Jobs);
    for (size_t I = 0; I != Plan.Evals.size(); ++I)
      if (Plan.Evals[I].usable())
        Plan.Candidates.push_back(I);
    return Plan;
  }
  Plan.Evals = Eval.evaluateMetrics(Jobs);
  std::vector<size_t> Usable;
  Usable.reserve(Plan.Evals.size());
  for (size_t I = 0; I != Plan.Evals.size(); ++I)
    if (Plan.Evals[I].usable())
      Usable.push_back(I);

  // Partial Fisher-Yates draw of min(K, usable) distinct indices.
  Rng R(Seed);
  size_t Draw = std::min(K, Usable.size());
  for (size_t I = 0; I != Draw; ++I) {
    size_t J = I + size_t(R.nextBelow(Usable.size() - I));
    std::swap(Usable[I], Usable[J]);
  }
  Plan.Candidates.assign(Usable.begin(), Usable.begin() + Draw);
  std::sort(Plan.Candidates.begin(), Plan.Candidates.end());
  return Plan;
}
