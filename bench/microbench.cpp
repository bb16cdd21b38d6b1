//===- bench/microbench.cpp - library component microbenchmarks ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks of the library's own hot paths: the
// point of the paper's method is that the *static* pipeline (codegen +
// profile + resource estimate + occupancy + metrics + Pareto) is orders
// of magnitude cheaper than measuring a configuration, so those paths
// are worth tracking.
//
//===----------------------------------------------------------------------===//

#include "arch/Occupancy.h"
#include "core/Evaluation.h"
#include "core/Pareto.h"
#include "emu/Emulator.h"
#include "kernels/MatMul.h"
#include "metrics/Metrics.h"
#include "ptx/ResourceEstimator.h"
#include "ptx/StaticProfile.h"
#include "sim/Simulator.h"
#include "sim/Trace.h"
#include "support/Random.h"

#include <benchmark/benchmark.h>

using namespace g80;

namespace {

const MatMulApp &matmul() {
  static MatMulApp App(MatMulProblem::bench());
  return App;
}

ConfigPoint exampleConfig() { return {16, 2, 4, 1, 0}; }

void BM_OccupancyCalc(benchmark::State &State) {
  MachineModel M = MachineModel::geForce8800Gtx();
  unsigned Regs = 10;
  for (auto _ : State) {
    Occupancy O = computeOccupancy(M, 256, {Regs, 4096});
    benchmark::DoNotOptimize(O);
    Regs = Regs % 32 + 1;
  }
}
BENCHMARK(BM_OccupancyCalc);

void BM_KernelGeneration(benchmark::State &State) {
  for (auto _ : State) {
    Kernel K = matmul().buildKernel(exampleConfig());
    benchmark::DoNotOptimize(K.numVRegs());
  }
}
BENCHMARK(BM_KernelGeneration);

void BM_StaticProfile(benchmark::State &State) {
  Kernel K = matmul().buildKernel(exampleConfig());
  for (auto _ : State) {
    StaticProfile P = computeStaticProfile(K);
    benchmark::DoNotOptimize(P.DynInstrs);
  }
}
BENCHMARK(BM_StaticProfile);

void BM_RegisterEstimate(benchmark::State &State) {
  Kernel K = matmul().buildKernel(exampleConfig());
  for (auto _ : State) {
    unsigned R = estimateRegisters(K);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_RegisterEstimate);

void BM_FullMetricPipeline(benchmark::State &State) {
  // What replaces one hardware measurement: codegen + everything static.
  MachineModel M = MachineModel::geForce8800Gtx();
  for (auto _ : State) {
    Kernel K = matmul().buildKernel(exampleConfig());
    KernelMetrics KM =
        computeKernelMetrics(K, matmul().launch(exampleConfig()), M);
    benchmark::DoNotOptimize(KM.Efficiency);
  }
}
BENCHMARK(BM_FullMetricPipeline);

void BM_TraceBuild(benchmark::State &State) {
  Kernel K = matmul().buildKernel(exampleConfig());
  for (auto _ : State) {
    TraceProgram P = buildTrace(K);
    benchmark::DoNotOptimize(P.Entries.size());
  }
}
BENCHMARK(BM_TraceBuild);

void BM_ParetoFront(benchmark::State &State) {
  Rng R(42);
  std::vector<std::array<double, 2>> Points(size_t(State.range(0)));
  for (auto &P : Points)
    P = {R.nextDouble(), R.nextDouble()};
  for (auto _ : State) {
    auto F = paretoFront(Points);
    benchmark::DoNotOptimize(F.size());
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_ParetoFront)->Range(64, 16384)->Complexity();

void BM_SimulateSmallMatMul(benchmark::State &State) {
  // One measurement at a reduced problem size, for the static/measured
  // cost ratio.  Parameterized over the engine selection: Arg(0) is the
  // default (adaptive) engine, Arg(1) the Scan oracle, Arg(2) the forced
  // event core; the ratio of the first two is the default engine's
  // speedup on this kernel.
  MatMulApp App(MatMulProblem{128});
  Kernel K = App.buildKernel(exampleConfig());
  MachineModel M = MachineModel::geForce8800Gtx();
  const SimOptions::Engine Engines[] = {SimOptions::Engine::Adaptive,
                                        SimOptions::Engine::Scan,
                                        SimOptions::Engine::Event};
  SimOptions Opts;
  Opts.EngineSel = Engines[State.range(0)];
  for (auto _ : State) {
    Expected<SimResult> R =
        simulateKernel(K, App.launch(exampleConfig()), M, Opts);
    benchmark::DoNotOptimize(R->Cycles);
  }
}
BENCHMARK(BM_SimulateSmallMatMul)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgName("engine");

void BM_EmulateTinyMatMul(benchmark::State &State) {
  MatMulApp App(MatMulProblem{32});
  ConfigPoint P = {16, 1, 0, 0, 0};
  for (auto _ : State) {
    double Err = App.verifyConfig(P);
    benchmark::DoNotOptimize(Err);
  }
}
BENCHMARK(BM_EmulateTinyMatMul);

void BM_SpaceEnumeration(benchmark::State &State) {
  const ConfigSpace &S = matmul().space();
  for (auto _ : State) {
    auto Points = S.enumerate();
    benchmark::DoNotOptimize(Points.size());
  }
}
BENCHMARK(BM_SpaceEnumeration);

void BM_EvaluateMetricsSpace(benchmark::State &State) {
  // The whole static phase over the full space, at the given thread
  // count.  A fresh evaluator per iteration — the memo would otherwise
  // turn every iteration after the first into a cache hit.
  MachineModel M = MachineModel::geForce8800Gtx();
  unsigned Jobs = unsigned(State.range(0));
  for (auto _ : State) {
    Evaluator E(matmul(), M);
    auto Evals = E.evaluateMetrics(Jobs);
    benchmark::DoNotOptimize(Evals.size());
  }
}
BENCHMARK(BM_EvaluateMetricsSpace)->Arg(1)->Arg(2)->Arg(4);

void BM_MeasureKernelMemoHit(benchmark::State &State) {
  // measure() after the kernel cache is warm: isolates simulation cost
  // from codegen, the steady state of a driven sweep that planned first.
  MatMulApp App(MatMulProblem{128});
  MachineModel M = MachineModel::geForce8800Gtx();
  Evaluator E(App, M);
  auto Evals = E.evaluateMetrics();
  ConfigEval *Target = nullptr;
  for (ConfigEval &CE : Evals)
    if (CE.usable()) {
      Target = &CE;
      break;
    }
  for (auto _ : State) {
    Target->Measured = false;
    E.measure(*Target);
    benchmark::DoNotOptimize(Target->Sim.Cycles);
  }
}
BENCHMARK(BM_MeasureKernelMemoHit);

void BM_BandwidthFastPathEstimate(benchmark::State &State) {
  // The analytic estimate that replaces full simulation for
  // bandwidth-bound configurations under --fast-bw.
  Kernel K = matmul().buildKernel(exampleConfig());
  MachineModel M = MachineModel::geForce8800Gtx();
  LaunchConfig LC = matmul().launch(exampleConfig());
  for (auto _ : State) {
    Expected<SimResult> R = estimateBandwidthBoundKernel(K, LC, M);
    benchmark::DoNotOptimize(R->Cycles);
  }
}
BENCHMARK(BM_BandwidthFastPathEstimate);

} // namespace

BENCHMARK_MAIN();
