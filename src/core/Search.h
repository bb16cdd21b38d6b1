//===- core/Search.h - Configuration search strategies -----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static phase of the search strategies the paper studies or
/// proposes.  Each plan* method evaluates the space's metrics and picks
/// the candidates to measure:
///  - planExhaustive: every valid configuration (the paper's initial
///    full-space explorations, Fig. 3-4);
///  - planPareto: only the Pareto-optimal subset of the metric plot
///    (§5.2, Table 4 — the contribution);
///  - planClustered: additionally just one representative of each
///    metric-identical cluster (§5.2's MRI-FHD observation);
///  - planRandom: K uniformly random valid configurations (the baseline
///    §7 proposes comparing against).
/// Measurement is SweepDriver's job (core/SweepDriver.h): every caller
/// runs a plan through that one loop.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_SEARCH_H
#define G80TUNE_CORE_SEARCH_H

#include "core/Evaluation.h"
#include "core/Pareto.h"

#include <algorithm>
#include <array>
#include <limits>
#include <string>
#include <vector>

namespace g80 {

/// A measurement plan: the full space with static metrics plus the subset
/// of indices a strategy chose to measure.  Produced by the SearchEngine
/// plan*() methods and measured by SweepDriver (core/SweepDriver.h).
struct SweepPlan {
  std::string Strategy;
  std::vector<ConfigEval> Evals;
  std::vector<size_t> Candidates;

  /// The plan restricted to candidate positions [\p Begin, \p End) —
  /// the unit of fleet distribution.  Evals (the full static space) and
  /// Strategy are preserved so journal fingerprints, resume validation,
  /// and record contents are identical to the unsliced plan's; only the
  /// measurement work list shrinks.  Positions are clamped to the
  /// candidate count.
  SweepPlan slice(size_t Begin, size_t End) const;
};

/// The result of running one strategy over one app's space.
struct SearchOutcome {
  std::string Strategy;

  /// Every configuration in the space with its static metrics; entries in
  /// Candidates additionally carry measurements.
  std::vector<ConfigEval> Evals;
  /// Indices (into Evals) that were actually measured.
  std::vector<size_t> Candidates;

  /// Usable configurations (expressible and resource-valid) — the space
  /// size Table 4 reports.
  size_t ValidCount = 0;

  /// Indices (into Evals) quarantined because a pipeline stage failed on
  /// them — during metric evaluation or during measurement.  The sweep
  /// continues past them; each entry's ConfigEval::Failure says why.
  std::vector<size_t> Quarantined;
  /// Quarantined configurations per pipeline stage (indexed by Stage).
  std::array<size_t, NumStages> FailedPerStage{};

  size_t BestIndex = std::numeric_limits<size_t>::max();
  double BestTime = std::numeric_limits<double>::infinity();
  /// Sum of measured configuration run times — Table 4's "evaluation
  /// time" (the wall-clock cost of running the candidates on hardware).
  double TotalMeasuredSeconds = 0;

  /// Whether any candidate was measured successfully.  When false (every
  /// candidate failed, or there were none), BestIndex/BestTime hold their
  /// sentinels and must not be dereferenced.
  bool hasBest() const {
    return BestIndex != std::numeric_limits<size_t>::max();
  }

  size_t failedCount() const { return Quarantined.size(); }

  /// Seeds an outcome from a plan: adopts the evals/candidates, counts
  /// usable entries into ValidCount, and quarantines entries that already
  /// failed during metric evaluation.
  static SearchOutcome fromPlan(SweepPlan Plan);

  /// Records Evals[\p Idx] as quarantined, tallying its failure stage.
  void noteQuarantined(size_t Idx);

  /// Folds a successful measurement of Evals[\p Idx] into the totals and
  /// the running best.  Ties keep the earlier note (first caller wins),
  /// so callers must note candidates in plan order for determinism.
  void noteMeasured(size_t Idx);

  /// Table 4's "space reduction": fraction of valid configurations whose
  /// measurement the strategy skipped.  Zero when nothing was valid;
  /// clamped so quarantined candidates cannot push it negative.
  double spaceReduction() const {
    if (ValidCount == 0)
      return 0;
    double R = 1.0 - double(Candidates.size()) / double(ValidCount);
    return std::max(0.0, R);
  }
};

/// Plans search strategies for one app on one machine.  The app must
/// outlive the engine; the machine description is copied.
class SearchEngine {
public:
  SearchEngine(const TunableApp &App, MachineModel Machine,
               MetricOptions MOpts = {}, SimOptions SOpts = {},
               FaultPlan Faults = {}, LintOptions LOpts = {})
      : Eval(App, std::move(Machine), MOpts, SOpts, std::move(Faults),
             LOpts) {}

  /// Spaces at or below this raw size get the historical dense plan
  /// (Evals holds every raw point, position == flat index); larger spaces
  /// — the `--space large` tiers — are planned sparsely: Evals holds only
  /// the expressible subset (or, for random, only the sampled subset),
  /// each entry still carrying its FlatIndex.  Journal records address
  /// configurations by flat index either way, so resume and fleet
  /// sharding work identically for both layouts.
  static constexpr uint64_t DenseEvalLimit = 1u << 16;

  /// Candidate planning without measurement — the cheap static phase of
  /// each strategy; SweepDriver journals and shards the expensive
  /// measurement phase.  Pareto plans apply the §5.3 bandwidth screen
  /// when \p Opts asks for it.  \p Jobs parallelizes the static metric
  /// evaluation; the plan is identical for any job count.
  SweepPlan planExhaustive(unsigned Jobs = 1) const;
  SweepPlan planPareto(const ParetoOptions &Opts = {},
                       unsigned Jobs = 1) const;
  /// One representative per metric cluster of the default Pareto subset.
  SweepPlan planClustered(unsigned Jobs = 1) const;
  SweepPlan planRandom(size_t K, uint64_t Seed, unsigned Jobs = 1) const;

  const Evaluator &evaluator() const { return Eval; }

private:
  /// Static metrics for planning: dense below DenseEvalLimit, the
  /// expressible subset above it.
  std::vector<ConfigEval> planStatics(unsigned Jobs) const;

  Evaluator Eval;
};

} // namespace g80

#endif // G80TUNE_CORE_SEARCH_H
