//===- core/Evaluation.h - Per-configuration evaluation records --------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A ConfigEval carries everything the tuner knows about one optimization
/// configuration: the static metrics (always computed — cheap, like
/// running `nvcc -ptx/-cubin`, §4) and, once a strategy decides to pay
/// for it, the measured time (simulation here, silicon in the paper).
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_EVALUATION_H
#define G80TUNE_CORE_EVALUATION_H

#include "analysis/Lint.h"
#include "core/TunableApp.h"
#include "metrics/Metrics.h"
#include "sim/Simulator.h"
#include "support/FaultInjection.h"
#include "support/Status.h"

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace g80 {

/// Everything known about one configuration.
struct ConfigEval {
  uint64_t FlatIndex = 0; ///< Position in ConfigSpace enumeration order.
  ConfigPoint Point;
  bool Expressible = false;

  KernelMetrics Metrics; ///< Static metrics; Metrics.Valid is resource
                         ///< validity (the "invalid executable" case).
  uint64_t Invocations = 1;
  /// Equation 1 over the *whole problem*: for multi-invocation apps
  /// (MRI-FHD chunking) the per-kernel Instr is scaled by the invocation
  /// count so chunk values remain comparable.
  double EfficiencyTotal = 0;

  bool Measured = false;
  SimResult Sim;
  double TimeSeconds = 0; ///< Invocations * simulated kernel seconds.

  /// First pipeline failure for this configuration, if any.  A failed
  /// configuration is quarantined: the sweep records the diagnostic here
  /// and continues with the rest of the space.  Distinct from
  /// !Metrics.Valid, which is the paper's well-defined "invalid
  /// executable" outcome (data, not a fault).
  Diagnostic Failure;

  bool failed() const { return Failure.isError(); }

  /// Metrics exist, the kernel can actually launch, and no pipeline stage
  /// has faulted on it.
  bool usable() const { return Expressible && Metrics.Valid && !failed(); }
};

/// Computes metrics and (on demand) measured times for an app's space.
///
/// The app is held by reference and must outlive the evaluator; the
/// machine description is small and copied so callers may pass
/// temporaries like MachineModel::geForce8800Gtx().
class Evaluator {
public:
  Evaluator(const TunableApp &App, MachineModel Machine,
            MetricOptions MOpts = {}, SimOptions SOpts = {},
            FaultPlan Faults = {}, LintOptions LOpts = {})
      : App(App), Machine(std::move(Machine)), MOpts(MOpts), SOpts(SOpts),
        LOpts(LOpts), Inject(std::move(Faults)) {}

  /// Enumerates the full space and computes static metrics for every
  /// expressible configuration.  No simulation happens here.  Verification
  /// failures (and injected parse/verify/estimate faults) mark the entry
  /// failed() with a stage-tagged diagnostic; the sweep continues.
  ///
  /// With \p Jobs > 1 the per-configuration work is spread with
  /// parallelFor; every configuration is computed independently into its
  /// own slot, so the result is identical for any job count.
  /// The full result vector is memoized (keyed by nothing — it depends
  /// only on the evaluator's immutable state), so strategy planning and
  /// benchmarks stop recomputing the same metrics; callers get a copy.
  std::vector<ConfigEval> evaluateMetrics(unsigned Jobs = 1) const;

  /// Flat indices of every expressible configuration, in enumeration
  /// order.  Cheap — pointAt + isExpressible per point, no kernel
  /// generation — and memoized, so large spaces can be screened without
  /// paying for full static evaluation.
  std::vector<uint64_t> expressibleIndices() const;

  /// Static metrics for one flat index, memoized per point.  The adaptive
  /// strategies' probe primitive: a greedy walk or annealing chain touches
  /// a vanishing fraction of a large space, and revisits are free.
  ConfigEval evaluateAt(uint64_t FlatIndex) const;

  /// Static metrics for exactly \p Indices, returned in the same order —
  /// the sparse-space analog of evaluateMetrics for spaces too large to
  /// scan.  Each result is computed (or recalled) via evaluateAt, so the
  /// output is identical for any job count.
  std::vector<ConfigEval> evaluateSubset(const std::vector<uint64_t> &Indices,
                                         unsigned Jobs = 1) const;

  /// Measures \p E by simulation (the ground-truth "run it" step).
  /// Returns true on success; on failure records the diagnostic in
  /// \p E.Failure and returns false so the caller can quarantine the
  /// configuration and continue.
  ///
  /// When SimOptions::BandwidthFastPath is set and the §5.3 screen marks
  /// \p E bandwidth-bound, the analytic bandwidth bound substitutes for
  /// cycle simulation (E.Sim.BandwidthFastPath records it).
  ///
  /// Thread-safe: concurrent calls on distinct ConfigEvals are the
  /// parallel sweep's worker path.
  bool measure(ConfigEval &E) const;

  const TunableApp &app() const { return App; }
  const MachineModel &machine() const { return Machine; }
  const FaultInjector &injector() const { return Inject; }

private:
  /// Fills \p E (already carrying FlatIndex) for one configuration.
  /// Caches the generated kernel for later measure() calls.
  void evaluateOne(ConfigEval &E) const;

  /// Returns the generated kernel for \p E, from the cache when
  /// evaluateOne already built it (the plan/measure split otherwise
  /// regenerates identical IR for every measured candidate).
  std::shared_ptr<const Kernel> kernelFor(const ConfigEval &E) const;

  const TunableApp &App;
  const MachineModel Machine;
  MetricOptions MOpts;
  SimOptions SOpts;
  LintOptions LOpts;
  FaultInjector Inject;

  /// Memoized results, guarded by CacheM.  The evaluator's inputs are
  /// immutable after construction, so cached values never go stale; the
  /// kernel cache is bounded by the number of usable configurations.
  mutable std::mutex CacheM;
  mutable std::shared_ptr<const std::vector<ConfigEval>> MetricsMemo;
  mutable std::shared_ptr<const std::vector<uint64_t>> ExpressibleMemo;
  mutable std::unordered_map<uint64_t, ConfigEval> PointMemo;
  mutable std::unordered_map<uint64_t, std::shared_ptr<const Kernel>>
      KernelMemo;
};

} // namespace g80

#endif // G80TUNE_CORE_EVALUATION_H
