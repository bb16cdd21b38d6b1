//===- core/Evaluation.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Evaluation.h"

#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <cassert>

using namespace g80;

void Evaluator::evaluateOne(ConfigEval &E) const {
  const uint64_t I = E.FlatIndex;
  const bool Injecting = Inject.enabled();

  E.Point = App.space().pointAt(I);
  E.Expressible = App.isExpressible(E.Point);
  if (!E.Expressible)
    return;

  // The generator stands in for the paper's source-to-source step;
  // Parse-stage faults can only come from the injector here (file input
  // goes through parseKernel in the tool instead).
  if (Injecting) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Parse, I)) {
      E.Failure = std::move(*D);
      return;
    }
  }

  std::shared_ptr<const Kernel> K;
  {
    // Kernel generation stands in for the paper's source-to-source +
    // nvcc -ptx step, hence the "parse" span name.
    TraceSpan Span("parse", I);
    K = std::make_shared<const Kernel>(App.buildKernel(E.Point));
  }

  {
    TraceSpan Span("verify", I);
    std::optional<Diagnostic> InjectedVerify =
        Injecting ? Inject.at(Stage::Verify, I) : std::nullopt;
    if (InjectedVerify) {
      E.Failure = std::move(*InjectedVerify);
    } else if (Expected<Unit> V = checkKernel(*K); !V) {
      E.Failure = V.takeDiag();
    }
  }
  if (E.failed())
    return;

  // The optional lint gate: statically proven races, contradicted
  // annotations and resource undershoots quarantine the configuration
  // before any metric or simulation work is spent on it.  Off by default
  // (a clean space must journal byte-identically with or without it).
  if (LOpts.Enabled) {
    TraceSpan Span("lint", I);
    std::optional<Diagnostic> InjectedLint =
        Injecting ? Inject.at(Stage::Lint, I) : std::nullopt;
    if (InjectedLint) {
      E.Failure = std::move(*InjectedLint);
    } else {
      LintResult L = runLint(*K, App.launch(E.Point));
      if (L.errorCount() > 0)
        E.Failure =
            makeDiag(lintErrorCode(L), Stage::Lint, lintErrorSummary(L));
    }
  }
  if (E.failed())
    return;

  if (Injecting) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Estimate, I)) {
      E.Failure = std::move(*D);
      return;
    }
  }

  {
    TraceSpan Span("metrics", I);
    E.Metrics = computeKernelMetrics(*K, App.launch(E.Point), Machine, MOpts);
  }
  E.Invocations = App.invocations(E.Point);
  if (E.Metrics.Valid)
    E.EfficiencyTotal =
        efficiencyMetric(E.Metrics.Profile.DynInstrs * E.Invocations,
                         E.Metrics.Threads);

  // Keep the verified kernel for measure(): the plan/measure split would
  // otherwise regenerate identical IR for every measured candidate.
  {
    std::lock_guard<std::mutex> L(CacheM);
    KernelMemo.emplace(I, std::move(K));
  }
}

std::vector<ConfigEval> Evaluator::evaluateMetrics(unsigned Jobs) const {
  {
    std::lock_guard<std::mutex> L(CacheM);
    if (MetricsMemo)
      return *MetricsMemo;
  }

  const ConfigSpace &Space = App.space();
  uint64_t Raw = Space.rawSize();

  std::vector<ConfigEval> Evals(Raw);
  for (uint64_t I = 0; I != Raw; ++I)
    Evals[I].FlatIndex = I;

  // Each index writes only its own slot, so any job count gives the same
  // result.
  parallelFor(Jobs, Raw, [&](size_t I) { evaluateOne(Evals[I]); });

  {
    std::lock_guard<std::mutex> L(CacheM);
    if (!MetricsMemo)
      MetricsMemo = std::make_shared<const std::vector<ConfigEval>>(Evals);
  }
  return Evals;
}

std::vector<uint64_t> Evaluator::expressibleIndices() const {
  {
    std::lock_guard<std::mutex> L(CacheM);
    if (ExpressibleMemo)
      return *ExpressibleMemo;
  }

  const ConfigSpace &Space = App.space();
  uint64_t Raw = Space.rawSize();
  std::vector<uint64_t> Out;
  for (uint64_t I = 0; I != Raw; ++I)
    if (App.isExpressible(Space.pointAt(I)))
      Out.push_back(I);

  std::lock_guard<std::mutex> L(CacheM);
  if (!ExpressibleMemo)
    ExpressibleMemo = std::make_shared<const std::vector<uint64_t>>(Out);
  return *ExpressibleMemo;
}

ConfigEval Evaluator::evaluateAt(uint64_t FlatIndex) const {
  {
    std::lock_guard<std::mutex> L(CacheM);
    auto It = PointMemo.find(FlatIndex);
    if (It != PointMemo.end())
      return It->second;
  }

  ConfigEval E;
  E.FlatIndex = FlatIndex;
  evaluateOne(E);

  std::lock_guard<std::mutex> L(CacheM);
  auto [It, Inserted] = PointMemo.emplace(FlatIndex, std::move(E));
  (void)Inserted;
  return It->second;
}

std::vector<ConfigEval>
Evaluator::evaluateSubset(const std::vector<uint64_t> &Indices,
                          unsigned Jobs) const {
  std::vector<ConfigEval> Evals(Indices.size());
  parallelFor(Jobs, Indices.size(),
              [&](size_t I) { Evals[I] = evaluateAt(Indices[I]); });
  return Evals;
}

std::shared_ptr<const Kernel> Evaluator::kernelFor(const ConfigEval &E) const {
  {
    std::lock_guard<std::mutex> L(CacheM);
    auto It = KernelMemo.find(E.FlatIndex);
    if (It != KernelMemo.end())
      return It->second;
  }
  auto K = std::make_shared<const Kernel>(App.buildKernel(E.Point));
  std::lock_guard<std::mutex> L(CacheM);
  auto [It, Inserted] = KernelMemo.emplace(E.FlatIndex, std::move(K));
  (void)Inserted;
  return It->second;
}

bool Evaluator::measure(ConfigEval &E) const {
  assert(E.usable() && "measuring an unusable configuration");
  if (E.Measured)
    return true;

  if (Inject.enabled()) {
    if (std::optional<Diagnostic> D = Inject.at(Stage::Emulate, E.FlatIndex)) {
      E.Failure = std::move(*D);
      return false;
    }
    if (std::optional<Diagnostic> D = Inject.at(Stage::Simulate, E.FlatIndex)) {
      E.Failure = std::move(*D);
      return false;
    }
  }

  std::shared_ptr<const Kernel> K = kernelFor(E);
  TraceSpan Span("simulate", E.FlatIndex);
  // §5.3 screen short-circuit: when the metrics already classify the
  // configuration as bandwidth-bound, the analytic bound replaces cycle
  // simulation (opt-in; changes results, so tune folds it into the
  // journal fingerprint).
  Expected<SimResult> R =
      SOpts.BandwidthFastPath && E.Metrics.bandwidthBound()
          ? estimateBandwidthBoundKernel(*K, App.launch(E.Point), Machine,
                                         SOpts)
          : simulateKernel(*K, App.launch(E.Point), Machine, SOpts);
  if (!R) {
    E.Failure = R.takeDiag();
    return false;
  }
  E.Sim = *R;
  E.TimeSeconds = E.Sim.Seconds * static_cast<double>(E.Invocations);
  E.Measured = true;
  return true;
}
