//===- tests/SimEngineTest.cpp - scan vs event engine differentials -------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The engine selections (SimOptions::Engine::Adaptive, the default, and
// ::Event against the ::Scan oracle) must be bit-identical: same cycles,
// same issue/stall/memwait statistics, same diagnostics, same journal
// bytes.  The Scan selection is the mechanical reference; everything the
// other two do to go fast — the periodic steady-state fast-forward on
// either core, the adaptive switch from scan to event core, the ready
// bitmask, the wake calendar's clock jumps, and fused memory runs — must
// be invisible in results.
// This suite hammers that contract with deterministic fuzzed traces
// (random latency-class mixes, loop nests, barriers, divergent barriers,
// occupancy shapes), the apps' emulation spaces, watchdog-budget edges,
// and a whole-sweep journal comparison.  Static operand pruning feeds
// both cores the same scoreboard lists, so it also pins results: the
// fuzz digest, large-tier configs, and reads at the pruning boundary.
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "core/Search.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "ptx/Builder.h"
#include "ptx/Parser.h"
#include "support/Journal.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

/// Deterministic 64-bit LCG: the fuzz corpus must be identical on every
/// platform and every run.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    S = S * 6364136223846793005ull + 1442695040888963407ull;
    return S >> 33;
  }
  uint64_t range(uint64_t N) { return next() % N; }
};

/// One simulation's observable outcome, flattened for comparison and
/// hashing: every counter of a success, or the failure's code and message.
std::string outcome(const Expected<SimResult> &R) {
  if (!R.ok())
    return "error " + std::to_string(int(R.diag().Code)) + " " +
           R.diag().Message;
  return "cycles=" + std::to_string(R->Cycles) +
         " issued=" + std::to_string(R->IssuedWarpInstrs) +
         " synth=" + std::to_string(R->SyntheticCtlInstrs) +
         " stall=" + std::to_string(R->IssueStallCycles) +
         " memwait=" + std::to_string(R->MemQueueWaitCycles) +
         " blocks=" + std::to_string(R->BlocksRun) +
         " bsm=" + std::to_string(R->Occ.BlocksPerSM);
}

/// Compares one simulation under the default engine and the forced event
/// core against the Scan oracle, including failure diagnostics
/// (timeout/deadlock/occupancy must match code and message).  Returns the
/// oracle's outcome.  \p DefaultTrace, when given, is installed around
/// the default run alone, so its sim.* counters count default launches.
std::string expectEnginesIdentical(const Kernel &K, const LaunchConfig &L,
                                   SimOptions Base = {},
                                   Tracer *DefaultTrace = nullptr) {
  auto Run = [&](SimOptions::Engine E) {
    SimOptions O = Base;
    O.EngineSel = E;
    return outcome(simulateKernel(K, L, gtx(), O));
  };
  std::string Scan = Run(SimOptions::Engine::Scan);
  {
    ScopedTracer Install(DefaultTrace);
    EXPECT_EQ(Scan, Run(SimOptions::Engine::Adaptive)) << "default engine";
  }
  EXPECT_EQ(Scan, Run(SimOptions::Engine::Event)) << "event engine";
  return Scan;
}

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_engine_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

/// A tracer whose counters tell which paths the default engine took.
Tracer counterTracer(const char *Name) {
  Expected<Tracer> T = Tracer::toFile(tmpPath(Name));
  EXPECT_TRUE(T.ok());
  return std::move(*T);
}

/// Emits a random body: ALU/SFU chains, shared/const/tex/global accesses
/// with varying effective transaction sizes, barriers, loop nests up to
/// depth 3, and (optionally) a barrier under divergent control flow.
void emitFuzzBody(KernelBuilder &B, Rng &R, unsigned In, unsigned Out,
                  unsigned Sh, Reg Addr, Reg Acc, int Depth, int &Budget,
                  bool AllowDivergentBar) {
  static const unsigned EffBytes[] = {1, 2, 4, 8, 16};
  while (Budget > 0) {
    --Budget;
    switch (R.range(12)) {
    case 0: // Dependent ALU chain.
    case 1:
      B.emitTo(Acc, Opcode::AddF, Acc, B.imm(1.0f));
      break;
    case 2: // Independent ALU op.
      B.mulf(B.imm(2.0f), B.imm(3.0f));
      break;
    case 3: // SFU (holds the issue port longer).
      B.madfAcc(Acc, B.sinf(Acc), B.imm(0.5f));
      break;
    case 4: // Shared-memory round trip.
      B.stShared(Sh, Addr, 0, Acc);
      B.emitTo(Acc, Opcode::AddF, Acc, B.ldShared(Sh, Addr));
      break;
    case 5: // Constant cache.
      B.madfAcc(Acc, B.ldConst(In, Addr), B.imm(1.5f));
      break;
    case 6: // Texture cache.
      B.madfAcc(Acc, B.ldTex(In, Addr), B.imm(0.25f));
      break;
    case 7: // Global load, consumed immediately (scoreboard stall).
      B.emitTo(Acc, Opcode::AddF, Acc,
               B.ldGlobal(In, Addr, 0, EffBytes[R.range(5)]));
      break;
    case 8: // Global store (bandwidth only).
      B.stGlobal(Out, Addr, 0, Acc, EffBytes[R.range(5)]);
      break;
    case 9: // Barrier.
      B.bar();
      break;
    case 10: // Loop nest.
      if (Depth < 3) {
        int BodyBudget = int(R.range(uint64_t(Budget) + 1));
        Budget -= BodyBudget;
        B.forLoop(1 + R.range(6), [&] {
          emitFuzzBody(B, R, In, Out, Sh, Addr, Acc, Depth + 1, BodyBudget,
                       AllowDivergentBar);
        });
      }
      break;
    case 11: // Barrier under divergence: hangs the block on hardware.
      if (AllowDivergentBar && R.range(8) == 0) {
        Reg P = B.setpi(CmpKind::Lt, B.special(SpecialReg::TidX), B.imm(4));
        B.ifThen(P, /*Uniform=*/false, [&] { B.bar(); });
      }
      break;
    }
  }
}

Kernel fuzzKernel(Rng &R, bool AllowDivergentBar) {
  KernelBuilder B("fuzz");
  unsigned In = B.addGlobalPtr("in");
  unsigned Out = B.addGlobalPtr("out");
  unsigned Sh = B.addShared("tile", 256 << R.range(4));
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.shli(Tx, B.imm(2));
  Reg Acc = B.mov(B.imm(0.0f));
  int Budget = 8 + int(R.range(24));
  emitFuzzBody(B, R, In, Out, Sh, Addr, Acc, 0, Budget, AllowDivergentBar);
  B.stGlobal(Out, Addr, 0, Acc, 4);
  return B.take();
}

LaunchConfig fuzzLaunch(Rng &R) {
  // Occupancy shapes: 32..512 threads/block, 1..96 blocks.
  return LaunchConfig(Dim3(unsigned(1 + R.range(96))),
                      Dim3(unsigned(32 * (1 + R.range(16)))));
}

//===--- Engine contract -------------------------------------------------===//

TEST(SimEngine, DefaultEngineIsAdaptive) {
  EXPECT_EQ(SimOptions{}.EngineSel, SimOptions::Engine::Adaptive);
}

TEST(SimEngine, FuzzedTracesBitIdentical) {
  // All engines read the same statically pruned scoreboard lists, so
  // agreeing with each other cannot catch a pruning bug.  The digest of
  // all 200 outcomes is pinned, so a pruning change that moves any of
  // their results fails here; the corpus has loop-carried definitions and
  // nested loops for the loop-head fixpoint to get wrong.
  Tracer T = counterTracer("fuzz_trace");
  Rng R(0x9e3779b97f4a7c15ull);
  std::string All;
  for (int Case = 0; Case != 200; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/false);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("fuzz case " + std::to_string(Case));
    All += expectEnginesIdentical(K, L, {}, &T) + "\n";
  }
  EXPECT_EQ(fnv1a64(All), 0xcb2a57eaf3340cf9ull);
  // The default engine took both sides of its switch, and fast-forwarded
  // on the way, so the corpus checks the conversion and the skip.
  uint64_t Switched = T.counterValue("sim.event_core");
  EXPECT_GT(Switched, 0u);
  EXPECT_LT(Switched, 200u);
  EXPECT_GT(T.counterValue("sim.ff_skips"), 0u);
}

TEST(SimEngine, DivergentBarrierDeadlocksIdentically) {
  Rng R(0xdeadbeefcafef00dull);
  int Failures = 0;
  for (int Case = 0; Case != 60; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/true);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("divergent case " + std::to_string(Case));
    SimOptions Base; // Modest budgets keep a deadlocked SM's run short.
    Base.MaxCycles = 1 << 22;
    Base.MaxIssues = 1 << 20;
    Failures += expectEnginesIdentical(K, L, Base).starts_with("error");
  }
  // The corpus must actually exercise the failure paths.
  EXPECT_GT(Failures, 0);
}

TEST(SimEngine, TightBudgetsTimeOutIdentically) {
  // The event engine's clock jumps and steady-state skips are capped at
  // the watchdog budgets, so a timeout fires on exactly the same
  // instruction under both engines — same diagnostic text included.
  Rng R(0x5bd1e995u);
  for (int Case = 0; Case != 40; ++Case) {
    Kernel K = fuzzKernel(R, /*AllowDivergentBar=*/false);
    LaunchConfig L = fuzzLaunch(R);
    SCOPED_TRACE("budget case " + std::to_string(Case));
    SimOptions Tight;
    Tight.MaxIssues = 1 + R.range(5000);
    Tight.MaxCycles = 1 + R.range(50000);
    expectEnginesIdentical(K, L, Tight);
  }
}

TEST(SimEngine, PruningBoundariesKeepTheirStalls) {
  // Static operand pruning may drop an operand only once it is certainly
  // ready; these two reads sit just inside that boundary and must stall.
  // One warp, so no other warp's issues hide a stall.
  //  - Straight line: the add reads %r2 six issue slots (24 cycles) after
  //    its 28-cycle ALU definition, so it waits the last 4 cycles.
  //  - Loop carried: the texture fetch at the bottom of the body feeds the
  //    first add of the next trip, and its 124-cycle ready delay outlasts
  //    the loop-control chain in between.  %r3's pre-loop definition is
  //    long ready at the loop head, so only the loop-head join keeps %r3
  //    on the scoreboard; a join that lost the back edge would prune it.
  Expected<Kernel> K = parseKernel(R"(
.entry boundaries (.param .texref t, .param .global .f32* y)
{
  mov %r3, 1.0;
  mov %r0, %tid.x;
  shl.b32 %r1, %r0, 2;
  mov %r2, 0.0;
  mul.f32 %r4, 3.0, 2.0;
  mul.f32 %r5, 3.0, 2.0;
  mul.f32 %r6, 3.0, 2.0;
  mul.f32 %r7, 3.0, 2.0;
  mul.f32 %r8, 3.0, 2.0;
  add.f32 %r2, %r2, 1.0;
  loop x16 {
    add.f32 %r2, %r2, %r3;
    ld.tex.f32 %r3, [t + %r1];
  }
  st.global.f32 [y + %r1], %r2;
}
)");
  ASSERT_TRUE(K.ok()) << K.diag().Message;
  EXPECT_EQ(expectEnginesIdentical(*K, LaunchConfig(Dim3(1), Dim3(32))),
            "cycles=2084 issued=91 synth=48 stall=1720 memwait=0 blocks=1 "
            "bsm=8");
}

std::unique_ptr<TunableApp> largeApp(const std::string &Name) {
  if (Name == "matmul")
    return std::make_unique<MatMulApp>(MatMulProblem::bench(),
                                       SpaceTier::Large);
  if (Name == "cp")
    return std::make_unique<CpApp>(CpProblem::bench(), SpaceTier::Large);
  if (Name == "sad")
    return std::make_unique<SadApp>(SadApp::benchProblem(), SpaceTier::Large);
  return std::make_unique<MriFhdApp>(MriProblem::bench(), SpaceTier::Large);
}

TEST(SimEngine, LargeTierResultsPinned) {
  // Unrolled large-tier kernels are where static operand pruning has the
  // most to prune: cp [2,16,16,8,128,1] is the largest trace in any space
  // (68,436 ops, 51,920 registers).  Pinned like the fuzz digest, at the
  // committed problem sizes.  Two pins also fix the default engine's core
  // choice: cp [1,1,4,4,16,1] (1-thread blocks, issue port saturated)
  // stays on the scan core, and matmul [2,1,1,1,0,0] (idle 77% of its
  // cycles) switches to the event core.
  const struct {
    const char *App;
    ConfigPoint P;
    const char *Outcome;
    int EventCore = -1; ///< sim.event_core of the default run; -1: any.
  } Pins[] = {
      {"matmul", {16, 2, 2, 16, 1, 1},
       "cycles=2571632 issued=594176 synth=12288 stall=194928 "
       "memwait=8435840 blocks=16 bsm=1"},
      {"matmul", {4, 4, 8, 2, 1, 2},
       "cycles=13146130 issued=908384 synth=36864 stall=9512594 "
       "memwait=1236750064 blocks=32 bsm=8"},
      {"matmul", {2, 1, 1, 1, 0, 0},
       "cycles=537918650 issued=30494720 synth=9437184 stall=415939770 "
       "memwait=6615658820 blocks=4096 bsm=8",
       1},
      {"cp", {8, 4, 4, 8, 128, 1},
       "cycles=4296500 issued=303640 synth=48 stall=2295508 "
       "memwait=278936 blocks=4 bsm=3"},
      {"cp", {4, 4, 16, 8, 32, 0},
       "cycles=7492116 issued=545566 synth=96 stall=3736988 "
       "memwait=8189328 blocks=2 bsm=2"},
      {"cp", {2, 16, 16, 8, 128, 1},
       "cycles=7490268 issued=272734 synth=12 stall=5612900 "
       "memwait=2023168 blocks=1 bsm=1"},
      {"cp", {1, 1, 4, 4, 16, 1},
       "cycles=65211496 issued=10011136 synth=24576 stall=1128 "
       "memwait=54797552 blocks=256 bsm=8",
       0},
      {"sad", {32, 8, 2, 4, 4},
       "cycles=900970 issued=190720 synth=3072 stall=138090 "
       "memwait=155212 blocks=256 bsm=8"},
      {"sad", {160, 6, 2, 4, 4},
       "cycles=1462862 issued=364800 synth=5760 stall=3662 "
       "memwait=3400000 blocks=128 bsm=4"},
      {"mri", {256, 32, 16},
       "cycles=1454188 issued=265024 synth=1536 stall=876 "
       "memwait=144448 blocks=8 bsm=2"},
  };
  Tracer T = counterTracer("large_trace");
  for (const auto &Pin : Pins) {
    std::unique_ptr<TunableApp> App = largeApp(Pin.App);
    SCOPED_TRACE(std::string(Pin.App) + " " + App->space().describe(Pin.P));
    ASSERT_TRUE(App->isExpressible(Pin.P));
    uint64_t Before = T.counterValue("sim.event_core");
    EXPECT_EQ(expectEnginesIdentical(App->buildKernel(Pin.P),
                                     App->launch(Pin.P), {}, &T),
              Pin.Outcome);
    if (Pin.EventCore >= 0) {
      EXPECT_EQ(T.counterValue("sim.event_core") - Before,
                uint64_t(Pin.EventCore));
    }
  }
}

void expectSpaceBitIdentical(const TunableApp &App) {
  for (const ConfigPoint &P : App.space().enumerate()) {
    if (!App.isExpressible(P))
      continue;
    SCOPED_TRACE(App.space().describe(P));
    expectEnginesIdentical(App.buildKernel(P), App.launch(P));
  }
}

TEST(SimEngine, MatMulEmulationSpaceBitIdentical) {
  expectSpaceBitIdentical(MatMulApp(MatMulProblem::emulation()));
}

TEST(SimEngine, CpSadMriEmulationSpacesBitIdentical) {
  expectSpaceBitIdentical(CpApp(CpProblem::emulation()));
  expectSpaceBitIdentical(SadApp(SadApp::emulationProblem()));
  expectSpaceBitIdentical(MriFhdApp(MriProblem::emulation()));
}

//===--- Whole-sweep identity --------------------------------------------===//

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

TEST(SimEngine, JournalBytesEngineInvariant) {
  // A full exhaustive sweep journals byte-identically under every engine
  // selection: it can never leak into recorded results, which is why it
  // stays out of the journal fingerprint (tools/tune.cpp).
  MatMulApp App(MatMulProblem::emulation());
  auto RunWith = [&](SimOptions::Engine Eng, const std::string &Path) {
    SimOptions SimO;
    SimO.EngineSel = Eng;
    SearchEngine Engine(App, gtx(), {}, SimO);
    SweepOptions Opts;
    Opts.JournalPath = Path;
    Opts.Fingerprint.App = App.name();
    Opts.Fingerprint.Machine = gtx().Name;
    Opts.Fingerprint.Strategy = "exhaustive";
    Opts.Fingerprint.RawSize = App.space().rawSize();
    SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
    EXPECT_EQ(Rep.Status, SweepStatus::Completed);
    return slurp(Path);
  };
  std::string ScanBytes =
      RunWith(SimOptions::Engine::Scan, tmpPath("scan"));
  std::string EventBytes =
      RunWith(SimOptions::Engine::Event, tmpPath("event"));
  std::string AdaptiveBytes =
      RunWith(SimOptions::Engine::Adaptive, tmpPath("adaptive"));
  ASSERT_FALSE(ScanBytes.empty());
  EXPECT_EQ(ScanBytes, EventBytes);
  EXPECT_EQ(ScanBytes, AdaptiveBytes);
}

} // namespace
