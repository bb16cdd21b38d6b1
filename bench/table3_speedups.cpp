//===- bench/table3_speedups.cpp - Table 3 reproduction ----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Table 3: "Application Suite" — the four applications and their speedup
// over a highly-optimized single-thread CPU implementation.  The CPU
// side runs for real on this host; the GPU side is the simulated
// GeForce 8800 running each app's best configuration.  Absolute ratios
// are not comparable with the paper (their CPU is a 2007 Core2 with
// ICC+MKL; ours is whatever this host is), but the *ordering* — CP and
// MRI-FHD vastly ahead of MatMul and SAD — should hold, since it is
// driven by arithmetic intensity, not by the hosts.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "cpu/Reference.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "kernels/Workloads.h"
#include "support/Format.h"
#include "support/TextTable.h"

#include <chrono>
#include <functional>
#include <iostream>

using namespace g80;

namespace {

double wallSeconds(const std::function<void()> &Fn) {
  auto T0 = std::chrono::steady_clock::now();
  Fn();
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

double bestGpuSeconds(const TunableApp &App) {
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  return SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome.BestTime;
}

} // namespace

int main() {
  std::cout << "=== Table 3: application suite, speedup of the simulated "
               "GeForce 8800 over this host's single-thread CPU ===\n\n";

  TextTable T;
  T.setHeader({"Application", "CPU (ms)", "GPU sim (ms)", "Speedup",
               "Paper speedup"});

  // Matrix multiplication.
  {
    MatMulApp App(MatMulProblem::bench());
    unsigned N = App.problem().N;
    std::vector<float> A = randomFloats(size_t(N) * N, 1);
    std::vector<float> Bm = randomFloats(size_t(N) * N, 2);
    std::vector<float> C(size_t(N) * N);
    double Cpu = wallSeconds([&] { matMulRef(N, A, Bm, C); });
    double Gpu = bestGpuSeconds(App);
    T.addRow({"Matrix Multiplication", fmtDouble(Cpu * 1e3, 2),
              fmtDouble(Gpu * 1e3, 3), fmtDouble(Cpu / Gpu, 1) + "x",
              "6.98x"});
  }

  // CP.
  {
    CpApp App(CpProblem::bench());
    const CpProblem &P = App.problem();
    std::vector<float> Out(size_t(P.W) * P.H);
    double Cpu =
        wallSeconds([&] { cpRef(P.W, P.H, P.Spacing, App.atoms(), Out); });
    double Gpu = bestGpuSeconds(App);
    T.addRow({"CP", fmtDouble(Cpu * 1e3, 2), fmtDouble(Gpu * 1e3, 3),
              fmtDouble(Cpu / Gpu, 1) + "x", "647x"});
  }

  // SAD.
  {
    SadApp App(SadApp::benchProblem());
    const SadProblem &P = App.problem();
    std::vector<float> Cur =
        randomFloats(size_t(P.Width) * P.Height, 3, 0, 255);
    std::vector<float> Ref = randomFloats(
        size_t(P.paddedWidth()) * P.paddedHeight(), 4, 0, 255);
    std::vector<float> Out(size_t(P.numMacroblocks()) *
                           P.offsetsPerBlock());
    double Cpu = wallSeconds([&] { sadRef(P, Cur, Ref, Out); });
    double Gpu = bestGpuSeconds(App);
    T.addRow({"SAD", fmtDouble(Cpu * 1e3, 2), fmtDouble(Gpu * 1e3, 3),
              fmtDouble(Cpu / Gpu, 1) + "x", "5.51x"});
  }

  // MRI-FHD.
  {
    MriFhdApp App(MriProblem::bench());
    const MriProblem &P = App.problem();
    std::vector<float> X = randomFloats(P.NumVoxels, 5);
    std::vector<float> Y = randomFloats(P.NumVoxels, 6);
    std::vector<float> Z = randomFloats(P.NumVoxels, 7);
    std::vector<MriSample> Samples(P.NumSamples);
    Rng R(8);
    for (MriSample &S : Samples) {
      S.Kx = R.nextFloatIn(-0.5f, 0.5f);
      S.Ky = R.nextFloatIn(-0.5f, 0.5f);
      S.Kz = R.nextFloatIn(-0.5f, 0.5f);
      S.RhoR = R.nextFloatIn(-1, 1);
      S.RhoI = R.nextFloatIn(-1, 1);
    }
    std::vector<float> OutR(P.NumVoxels, 0), OutI(P.NumVoxels, 0);
    double Cpu =
        wallSeconds([&] { mriFhdRef(X, Y, Z, Samples, OutR, OutI); });
    double Gpu = bestGpuSeconds(App);
    T.addRow({"MRI-FHD", fmtDouble(Cpu * 1e3, 2), fmtDouble(Gpu * 1e3, 3),
              fmtDouble(Cpu / Gpu, 1) + "x", "228x"});
  }

  T.print(std::cout);
  std::cout << "\nExpected shape: CP and MRI-FHD (SFU-heavy, "
               "constant-cache-fed) dominate; MatMul and SAD sit one to "
               "two orders lower, as in the paper.\n";
  return 0;
}
