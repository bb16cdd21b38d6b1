//===- core/SearchStrategy.h - Pluggable search strategies -------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strategy registry over large configuration spaces.  Two families,
/// one executor:
///
///  - **Plannable** strategies (exhaustive, pareto, cluster, random)
///    decide their full candidate set up front from static metrics alone
///    and produce a SweepPlan.
///
///  - **Adaptive** strategies (greedy, anneal, genetic) decide each next
///    probe from earlier measurements.  They are expressed as a
///    SearchCursor (core/SweepDriver.h) — a deterministic generator of
///    probe *rounds*.
///
/// SweepDriver runs both: a plan is a one-round cursor over its
/// candidates.  So journaling, resume, `--jobs`, process isolation and
/// serve apply to every strategy; only the fleet refuses adaptive ones,
/// which cannot be sharded up front.
///
/// Everything is seeded-deterministic: the same (app, machine, strategy,
/// seed, budget, space) always probes the same configurations in the same
/// order, at any `--jobs`.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_SEARCHSTRATEGY_H
#define G80TUNE_CORE_SEARCHSTRATEGY_H

#include "core/Search.h"
#include "core/SweepDriver.h"

#include <memory>
#include <string_view>

namespace g80 {

/// Every search strategy the tuner knows.
enum class StrategyKind {
  Exhaustive, ///< Measure every valid configuration.
  Pareto,     ///< Paper §5.2: measure the Pareto-optimal subset.
  Cluster,    ///< Pareto subset, one representative per metric cluster.
  Random,     ///< Budget uniformly random valid configurations.
  Greedy,     ///< Random-restart hill climbing on one-step neighbors.
  Anneal,     ///< Parallel Metropolis chains with a geometric cooldown.
  Genetic,    ///< Generational tournament selection + crossover/mutation.
};

/// "exhaustive", "pareto", "cluster", "random", "greedy", "anneal",
/// "genetic".
const char *strategyName(StrategyKind Kind);

/// Parses a strategy name; returns false on anything unknown.
bool parseStrategy(std::string_view Name, StrategyKind &Kind);

/// Whether the strategy has an up-front candidate plan
/// (planForStrategy).  Adaptive strategies run through runAdaptiveSweep.
bool strategyIsPlannable(StrategyKind Kind);

/// Whether --budget participates in the strategy (and its fingerprint).
bool strategyUsesBudget(StrategyKind Kind);

/// All strategies, in a stable order (bench/CI iterate over this).
const std::vector<StrategyKind> &allStrategies();

/// Knobs shared by every strategy.
struct StrategyOptions {
  uint64_t Seed = 1;
  /// Measurement-attempt budget for budgeted strategies (random draws K;
  /// adaptive strategies stop once this many probes have been journaled).
  uint64_t Budget = 16;
  /// Worker threads for static evaluation and measurement; results and
  /// journal bytes are identical for any value.
  unsigned Jobs = 1;
};

/// Plans a plannable strategy (dispatches to the SearchEngine plan*
/// methods).  Fatal if \p Kind is adaptive.
SweepPlan planForStrategy(const SearchEngine &Engine, StrategyKind Kind,
                          const StrategyOptions &Opts);

/// Builds the cursor for an adaptive \p Kind.  \p Expressible is the
/// app's expressible flat-index screen (Evaluator::expressibleIndices).
/// Fatal if \p Kind is plannable.
std::unique_ptr<SearchCursor>
makeSearchCursor(StrategyKind Kind, const ConfigSpace &Space,
                 std::vector<uint64_t> Expressible,
                 const StrategyOptions &Opts);

/// Runs an adaptive strategy durably: makeSearchCursor plus
/// SweepDriver::run with the strategy's budget (0 acts as 1).  Honors
/// every SweepOptions knob; budget counts journaled measurement attempts,
/// including replayed ones, so an interrupted run resumes into the same
/// total.  The journal bytes are identical for any job count.
SweepReport runAdaptiveSweep(const SearchEngine &Engine, StrategyKind Kind,
                             const StrategyOptions &Strategy,
                             const SweepOptions &Opts);

} // namespace g80

#endif // G80TUNE_CORE_SEARCHSTRATEGY_H
