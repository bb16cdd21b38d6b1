//===- tests/ToyApps.h - synthetic apps for sweep/durability tests --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// A small synthetic TunableApp whose kernels are trivially valid at every
// configuration, so the whole raw space is a candidate set and injected or
// simulated failures are the only source of quarantine.  Shared between
// FaultToleranceTest (quarantine semantics) and DurabilityTest (journal,
// resume, isolation) so both exercise the exact same space.  Also home to
// stopAfter, the deterministic mid-sweep kill point of the resume tests.
//
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_TESTS_TOYAPPS_H
#define G80TUNE_TESTS_TOYAPPS_H

#include "core/SweepDriver.h"
#include "core/TunableApp.h"
#include "emu/Emulator.h"
#include "ptx/Builder.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace g80 {

/// A (5 block sizes x NumChains chain lengths) synthetic app.  The default
/// 20 chains give the classic 100-config quarantine space; 100 chains give
/// the 500-config acceptance space for durable-sweep tests.
class ToyApp : public TunableApp {
public:
  explicit ToyApp(int NumChains = 20) {
    Space.addDim("tpb", {32, 64, 96, 128, 160});
    std::vector<int> Chains;
    for (int I = 1; I <= NumChains; ++I)
      Chains.push_back(I);
    Space.addDim("chain", Chains);
  }

  std::string_view name() const override { return "toy"; }
  const ConfigSpace &space() const override { return Space; }

  Kernel buildKernel(const ConfigPoint &P) const override {
    unsigned Chain = unsigned(Space.valueOf(P, "chain"));
    KernelBuilder B("toy_c" + std::to_string(Chain));
    unsigned Out = B.addGlobalPtr("out");
    Reg Tx = B.mov(B.special(SpecialReg::TidX));
    Reg Addr = B.shli(Tx, B.imm(2));
    Reg Acc = B.mov(B.imm(0.0f));
    B.forLoop(Chain, [&] { B.emitTo(Acc, Opcode::AddF, Acc, B.imm(1.0f)); });
    B.stGlobal(Out, Addr, 0, Acc);
    return B.take();
  }

  LaunchConfig launch(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    return LaunchConfig(Dim3(16), Dim3(Tpb));
  }

  double verifyConfig(const ConfigPoint &P) const override {
    unsigned Tpb = unsigned(Space.valueOf(P, "tpb"));
    unsigned Chain = unsigned(Space.valueOf(P, "chain"));
    Kernel K = buildKernel(P);
    DeviceBuffer Buf = DeviceBuffer::zeroed(Tpb);
    LaunchBindings Bind(K);
    Bind.bindBuffer(0, &Buf);
    if (!emulateKernel(K, launch(P), Bind))
      return std::numeric_limits<double>::infinity();
    double Worst = 0;
    for (unsigned I = 0; I != Tpb; ++I)
      Worst = std::max(
          Worst, double(std::abs(Buf.floatAt(I) - float(Chain))));
    return Worst;
  }

private:
  ConfigSpace Space;
};

/// \p Opts plus a stop request (as SIGTERM would deliver, without the
/// process-wide flag) once \p N records are freshly committed: a
/// deterministic mid-sweep kill point under any job count.
inline SweepOptions stopAfter(SweepOptions Opts, size_t N) {
  auto Done = std::make_shared<std::atomic<size_t>>(0);
  Opts.OnProgress = [Done](const SweepProgress &P) { *Done = P.FreshDone; };
  Opts.ShouldStop = [Done, N] { return *Done >= N; };
  return Opts;
}

} // namespace g80

#endif // G80TUNE_TESTS_TOYAPPS_H
