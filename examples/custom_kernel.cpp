//===- examples/custom_kernel.cpp - Tune your own kernel ----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Bringing your own application to the tuner: implement TunableApp.
//
// The kernel here is a 1D stencil (3-point blur) over a vector — not one
// of the paper's four applications — with a three-dimensional
// optimization space: threads per block, outputs per thread, and loop
// unrolling.  The example walks through:
//   1. building kernel variants with KernelBuilder,
//   2. verifying them functionally through the emulator,
//   3. letting the search engine prune the space with the paper's
//      metrics.
//
//===----------------------------------------------------------------------===//

#include "core/SweepDriver.h"
#include "emu/Emulator.h"
#include "kernels/Workloads.h"
#include "ptx/Builder.h"
#include "ptx/Printer.h"
#include "support/Format.h"

#include <iostream>
#include <limits>

using namespace g80;

namespace {

/// y[i] = (x[i-1] + x[i] + x[i+1]) / 3 over N elements, with a
/// one-element halo on each side of x.
class StencilApp : public TunableApp {
public:
  explicit StencilApp(unsigned N) : N(N) {
    Space.addDim("tpb", {64, 128, 256, 512});
    Space.addDim("perthread", {1, 2, 4, 8});
    Space.addDim("unroll", {1, 2, 4});
  }

  std::string_view name() const override { return "stencil"; }
  const ConfigSpace &space() const override { return Space; }

  bool isExpressible(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    unsigned F = unsigned(Space.valueOf(P, "perthread"));
    unsigned U = unsigned(Space.valueOf(P, "unroll"));
    return N % (Tpb * F) == 0 && U <= F && F % U == 0;
  }

  LaunchConfig launch(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    unsigned F = unsigned(Space.valueOf(P, "perthread"));
    return LaunchConfig(Dim3(N / (Tpb * F)), Dim3(Tpb));
  }

  Kernel buildKernel(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    unsigned F = unsigned(Space.valueOf(P, "perthread"));
    unsigned U = unsigned(Space.valueOf(P, "unroll"));

    KernelBuilder B("stencil_tpb" + std::to_string(Tpb) + "_f" +
                    std::to_string(F) + "_u" + std::to_string(U));
    unsigned In = B.addGlobalPtr("x");   // N + 2 elements (halo).
    unsigned Out = B.addGlobalPtr("y");  // N elements.

    Reg Tx = B.mov(B.special(SpecialReg::TidX));
    // Thread's first output element; a thread's F elements are strided
    // by Tpb so every access stays coalesced.
    Reg First = B.madi(B.special(SpecialReg::CtaIdX),
                       B.imm(int32_t(Tpb * F)), Tx);
    Reg OutAddr = B.shli(First, B.imm(2));
    Reg InAddr = B.mov(OutAddr); // x is shifted by the halo: x[i+1-1].
    Reg Third = B.mov(B.imm(1.0f / 3.0f));

    auto EmitOne = [&](int32_t ElemOffset) {
      int32_t Off = ElemOffset * int32_t(Tpb) * 4;
      Reg L = B.ldGlobal(In, InAddr, Off + 0);
      Reg M = B.ldGlobal(In, InAddr, Off + 4);
      Reg R = B.ldGlobal(In, InAddr, Off + 8);
      Reg S = B.addf(B.addf(L, M), R);
      B.stGlobal(Out, OutAddr, Off, B.mulf(S, Third));
    };

    if (F == U) {
      for (unsigned E = 0; E != F; ++E)
        EmitOne(int32_t(E));
    } else {
      B.forLoop(F / U, [&] {
        for (unsigned E = 0; E != U; ++E)
          EmitOne(int32_t(E));
        B.addiTo(InAddr, InAddr, B.imm(int32_t(U * Tpb * 4)));
        B.addiTo(OutAddr, OutAddr, B.imm(int32_t(U * Tpb * 4)));
      });
    }
    return B.take();
  }

  double verifyConfig(const ConfigPoint &P) const override {
    std::vector<float> X = randomFloats(N + 2, 0x57E, -1, 1);
    DeviceBuffer XBuf = DeviceBuffer::fromFloats(X);
    DeviceBuffer YBuf = DeviceBuffer::zeroed(N);
    Kernel K = buildKernel(P);
    LaunchBindings Bind(K);
    Bind.bindBuffer(0, &XBuf);
    Bind.bindBuffer(1, &YBuf);
    if (!emulateKernel(K, launch(P), Bind))
      return std::numeric_limits<double>::infinity();

    std::vector<float> Want(N);
    for (unsigned I = 0; I != N; ++I)
      Want[I] = (X[I] + X[I + 1] + X[I + 2]) / 3.0f;
    return maxRelError(YBuf.toFloats(), Want);
  }

private:
  unsigned N;
  ConfigSpace Space;
};

} // namespace

int main() {
  StencilApp App(1u << 16);

  // Functional check of a couple of variants before trusting the tuner.
  for (ConfigPoint P : {ConfigPoint{128, 2, 2}, ConfigPoint{256, 8, 4}}) {
    double Err = App.verifyConfig(P);
    std::cout << "verify " << App.space().describe(P) << ": max rel err "
              << fmtSci(Err) << "\n";
    if (Err > 1e-5)
      return 1;
  }

  SearchEngine Engine(App, MachineModel::geForce8800Gtx());
  SearchOutcome Full =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  SearchOutcome Pruned =
      SweepDriver(Engine, {}).run(Engine.planPareto()).Outcome;

  std::cout << "\nstencil space: " << Pruned.ValidCount
            << " valid configurations, " << Pruned.Candidates.size()
            << " measured after pruning ("
            << fmtPercent(Pruned.spaceReduction()) << " reduction)\n"
            << "pruned best:     "
            << App.space().describe(Pruned.Evals[Pruned.BestIndex].Point)
            << " at " << fmtDouble(Pruned.BestTime * 1e6, 1) << " us\n"
            << "exhaustive best: "
            << App.space().describe(Full.Evals[Full.BestIndex].Point)
            << " at " << fmtDouble(Full.BestTime * 1e6, 1) << " us\n\n"
            << "Winning kernel:\n";
  printKernel(App.buildKernel(Full.Evals[Full.BestIndex].Point), std::cout);
  return 0;
}
