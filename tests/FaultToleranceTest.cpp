//===- tests/FaultToleranceTest.cpp - quarantine & fault injection -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// End-to-end coverage of the fault-tolerant evaluation pipeline: structured
// per-stage diagnostics for malformed kernels, the simulator watchdog
// (timeout and divergent-barrier deadlock), deterministic fault injection,
// quarantine-and-continue semantics of SearchEngine sweeps, and the
// kill-and-resume guarantees of journaled SweepDriver runs.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/Search.h"
#include "core/SearchStrategy.h"
#include "core/SweepDriver.h"

#include "emu/Emulator.h"
#include "ptx/Builder.h"
#include "ptx/Parser.h"
#include "ptx/ResourceEstimator.h"
#include "analysis/Verifier.h"
#include "sim/Simulator.h"
#include "support/FaultInjection.h"
#include "support/Journal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

//===--- Malformed-kernel corpus: one diagnostic per pipeline stage -----------//

TEST(MalformedCorpus, TruncatedInputIsParseError) {
  Expected<Kernel> R = parseKernel(".entry k ()\n{\n  mov %r0, 1;\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::ParseError);
  EXPECT_EQ(R.diag().At, Stage::Parse);
}

TEST(MalformedCorpus, UnknownOpcodeIsParseErrorWithLine) {
  Expected<Kernel> R = parseKernel(".entry k ()\n{\n  frob %r0, %r1;\n}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::ParseError);
  EXPECT_EQ(R.diag().Line, 3u);
  EXPECT_NE(R.diag().str().find("line 3"), std::string::npos);
}

TEST(MalformedCorpus, ZeroTripLoopTextIsParseError) {
  Expected<Kernel> R =
      parseKernel(".entry k ()\n{\n  loop x0 {\n  }\n}\n");
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::ParseError);
  EXPECT_NE(R.diag().Message.find("loop"), std::string::npos);
}

TEST(MalformedCorpus, ZeroTripLoopIrFailsVerify) {
  // The builder can express what the text syntax rejects; the verifier is
  // the backstop.
  KernelBuilder B("zerotrip");
  B.forLoop(0, [&] { B.mov(B.imm(1)); });
  Kernel K = B.take();
  Expected<Unit> V = checkKernel(K);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.diag().Code, ErrorCode::VerifyFailed);
  EXPECT_EQ(V.diag().At, Stage::Verify);
  EXPECT_NE(V.diag().Message.find("zero trip count"), std::string::npos);
}

TEST(MalformedCorpus, UseBeforeDefFailsVerify) {
  Expected<Kernel> R = parseKernel(
      ".entry k (.param .global .f32* g)\n{\n  st.global.f32 [g], %r5;\n}\n");
  ASSERT_TRUE(R.ok());
  Expected<Unit> V = checkKernel(*R);
  ASSERT_FALSE(V.ok());
  EXPECT_EQ(V.diag().Code, ErrorCode::VerifyFailed);
  EXPECT_NE(V.diag().Message.find("before any definition"),
            std::string::npos);
}

TEST(MalformedCorpus, RegisterOverflowFailsEstimate) {
  // ~300 simultaneously live registers: more than even a one-warp block
  // could be granted (8192 / 32 = 256).
  KernelBuilder B("hog");
  unsigned Out = B.addGlobalPtr("out");
  std::vector<Reg> Live;
  for (int I = 0; I != 300; ++I)
    Live.push_back(B.mov(B.imm(float(I))));
  Reg Sum = Live[0];
  for (int I = 1; I != 300; ++I)
    Sum = B.addf(Sum, Live[size_t(I)]);
  B.stGlobal(Out, Operand(), 0, Sum);
  Kernel K = B.take();

  Expected<KernelResources> R = estimateResourcesChecked(K, gtx());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::ResourceOverflow);
  EXPECT_EQ(R.diag().At, Stage::Estimate);
}

//===--- Simulator watchdog ----------------------------------------------------//

/// A barrier nested in a divergent if-region: hangs the block on real
/// hardware; the simulator must report it, not spin.
Kernel divergentBarrierKernel() {
  KernelBuilder B("badbar");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg P = B.setpi(CmpKind::Lt, Tx, B.imm(1));
  B.ifThen(P, /*Uniform=*/false, [&] { B.bar(); });
  B.stGlobal(Out, Operand(), 0, Tx);
  return B.take();
}

TEST(Watchdog, DivergentBarrierReportsDeadlock) {
  Expected<SimResult> R = simulateKernel(
      divergentBarrierKernel(), LaunchConfig(Dim3(16), Dim3(64)), gtx());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::SimulatorDeadlock);
  EXPECT_EQ(R.diag().At, Stage::Simulate);
  EXPECT_NE(R.diag().Message.find("deadlock"), std::string::npos);
}

TEST(Watchdog, DeadlockDetectedWithinCycleBudget) {
  // Deadlock detection is event-driven (no runnable warp), so it fires
  // long before the cycle budget; a tiny budget must not be needed.
  SimOptions Opts;
  Opts.MaxCycles = 1u << 20;
  Expected<SimResult> R =
      simulateKernel(divergentBarrierKernel(),
                     LaunchConfig(Dim3(16), Dim3(64)), gtx(), Opts);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::SimulatorDeadlock);
}

TEST(Watchdog, CycleBudgetExhaustionReportsTimeout) {
  KernelBuilder B("long");
  unsigned Out = B.addGlobalPtr("out");
  Reg V = B.mov(B.imm(0.0f));
  B.forLoop(1000, [&] { B.emitTo(V, Opcode::AddF, V, B.imm(1.0f)); });
  B.stGlobal(Out, Operand(), 0, V);
  Kernel K = B.take();

  SimOptions Tight;
  Tight.MaxCycles = 64;
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(16), Dim3(64)), gtx(), Tight);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::SimulatorTimeout);
  EXPECT_EQ(R.diag().At, Stage::Simulate);
}

TEST(Watchdog, IssueBudgetExhaustionReportsTimeout) {
  KernelBuilder B("long2");
  unsigned Out = B.addGlobalPtr("out");
  Reg V = B.mov(B.imm(0.0f));
  B.forLoop(1000, [&] { B.emitTo(V, Opcode::AddF, V, B.imm(1.0f)); });
  B.stGlobal(Out, Operand(), 0, V);
  Kernel K = B.take();

  SimOptions Tight;
  Tight.MaxIssues = 32;
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(16), Dim3(64)), gtx(), Tight);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::SimulatorTimeout);
}

TEST(Watchdog, DefaultBudgetsDoNotFireOnHealthyKernels) {
  KernelBuilder B("healthy");
  unsigned Out = B.addGlobalPtr("out");
  Reg V = B.mov(B.imm(0.0f));
  B.forLoop(100, [&] { B.emitTo(V, Opcode::AddF, V, B.imm(1.0f)); });
  B.stGlobal(Out, Operand(), 0, V);
  Expected<SimResult> R =
      simulateKernel(B.take(), LaunchConfig(Dim3(32), Dim3(128)), gtx());
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R->Cycles, 0u);
}

//===--- Fault-injection plumbing ----------------------------------------------//

TEST(FaultInjection, DisabledInjectorNeverFires) {
  FaultInjector Off;
  EXPECT_FALSE(Off.enabled());
  for (uint64_t I = 0; I != 64; ++I)
    for (size_t S = 0; S != NumStages; ++S)
      EXPECT_FALSE(Off.at(Stage(S), I).has_value());
}

TEST(FaultInjection, RateOneAlwaysFiresRateZeroNever) {
  FaultPlan Plan;
  Plan.Rate[size_t(Stage::Simulate)] = 1.0;
  FaultInjector Inj(Plan);
  ASSERT_TRUE(Inj.enabled());
  for (uint64_t I = 0; I != 32; ++I) {
    EXPECT_TRUE(Inj.at(Stage::Simulate, I).has_value());
    EXPECT_FALSE(Inj.at(Stage::Parse, I).has_value());
  }
}

TEST(FaultInjection, DeterministicPerSeedAndIndex) {
  FaultPlan Plan;
  Plan.Seed = 99;
  Plan.Rate[size_t(Stage::Emulate)] = 0.5;
  FaultInjector A(Plan), B(Plan);
  unsigned Fired = 0;
  for (uint64_t I = 0; I != 256; ++I) {
    bool HitA = A.at(Stage::Emulate, I).has_value();
    EXPECT_EQ(HitA, B.at(Stage::Emulate, I).has_value()) << I;
    Fired += HitA;
  }
  // A 0.5 rate over 256 indices: comfortably between the extremes.
  EXPECT_GT(Fired, 64u);
  EXPECT_LT(Fired, 192u);

  Plan.Seed = 100;
  FaultInjector C(Plan);
  bool AnyDiffers = false;
  for (uint64_t I = 0; I != 256 && !AnyDiffers; ++I)
    AnyDiffers = A.at(Stage::Emulate, I).has_value() !=
                 C.at(Stage::Emulate, I).has_value();
  EXPECT_TRUE(AnyDiffers);
}

TEST(FaultInjection, TargetsPinStageIndexAndCode) {
  FaultPlan Plan;
  Plan.Targets.push_back({17, Stage::Verify, ErrorCode::VerifyFailed});
  FaultInjector Inj(Plan);
  std::optional<Diagnostic> D = Inj.at(Stage::Verify, 17);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Code, ErrorCode::VerifyFailed);
  EXPECT_EQ(D->At, Stage::Verify);
  EXPECT_FALSE(Inj.at(Stage::Verify, 16).has_value());
  EXPECT_FALSE(Inj.at(Stage::Parse, 17).has_value());
}

TEST(FaultInjection, PlanSpecParses) {
  Expected<FaultPlan> P =
      parseFaultPlan("seed=7,parse=0.25,deadlock@17,timeout@31,verify@4");
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P->Seed, 7u);
  EXPECT_DOUBLE_EQ(P->Rate[size_t(Stage::Parse)], 0.25);
  ASSERT_EQ(P->Targets.size(), 3u);
  EXPECT_EQ(P->Targets[0].At, Stage::Simulate);
  EXPECT_EQ(P->Targets[0].Code, ErrorCode::SimulatorDeadlock);
  EXPECT_EQ(P->Targets[1].Code, ErrorCode::SimulatorTimeout);
  EXPECT_EQ(P->Targets[2].At, Stage::Verify);
}

TEST(FaultInjection, ActionSpecParses) {
  Expected<FaultPlan> P = parseFaultPlan("crash@7,hang@13,deadlock@2");
  ASSERT_TRUE(P.ok());
  ASSERT_EQ(P->Actions.size(), 2u);
  EXPECT_EQ(P->Actions[0].ConfigIndex, 7u);
  EXPECT_EQ(P->Actions[0].Action, FaultAction::Crash);
  EXPECT_EQ(P->Actions[1].ConfigIndex, 13u);
  EXPECT_EQ(P->Actions[1].Action, FaultAction::Hang);
  ASSERT_EQ(P->Targets.size(), 1u); // deadlock@2 still a diagnostic target

  FaultInjector Inj(*P);
  EXPECT_EQ(Inj.actionAt(7), FaultAction::Crash);
  EXPECT_EQ(Inj.actionAt(13), FaultAction::Hang);
  EXPECT_EQ(Inj.actionAt(8), FaultAction::None);
  EXPECT_FALSE(parseFaultPlan("crash@x").ok());
}

TEST(FaultInjection, PlanSpecRejectsGarbage) {
  EXPECT_FALSE(parseFaultPlan("warp=0.5").ok());
  EXPECT_FALSE(parseFaultPlan("parse=1.5").ok());
  EXPECT_FALSE(parseFaultPlan("parse=x").ok());
  EXPECT_FALSE(parseFaultPlan("emulate@x").ok());
  EXPECT_FALSE(parseFaultPlan("nonsense").ok());
  EXPECT_TRUE(parseFaultPlan("").ok());
  EXPECT_TRUE(parseFaultPlan("")->empty());
}

//===--- Quarantine-and-continue sweeps ----------------------------------------//

// The 100-configuration ToyApp (5 block sizes x 20 chain lengths) lives in
// ToyApps.h, shared with DurabilityTest.
const ToyApp &toy() {
  static ToyApp App;
  return App;
}

/// Uninjected ground truth for the toy space.
const SearchOutcome &toyBaseline() {
  static SearchEngine Engine(toy(), gtx());
  static SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  return Out;
}

TEST(Quarantine, ToyBaselineIsFullyMeasurable) {
  const SearchOutcome &Out = toyBaseline();
  EXPECT_EQ(Out.ValidCount, 100u);
  EXPECT_EQ(Out.Candidates.size(), 100u);
  EXPECT_TRUE(Out.Quarantined.empty());
  ASSERT_TRUE(Out.hasBest());
  for (size_t S = 0; S != NumStages; ++S)
    EXPECT_EQ(Out.FailedPerStage[S], 0u);
}

/// The acceptance scenario: a 100-config sweep with a failure injected at
/// every pipeline stage completes, quarantines exactly the injected
/// configurations with correct stage tags, and still finds the true
/// optimum among the survivors.
TEST(Quarantine, InjectedSweepQuarantinesExactlyAndFindsOptimum) {
  const SearchOutcome &Base = toyBaseline();
  ASSERT_TRUE(Base.hasBest());

  // Six victims, one per stage (Simulate twice: timeout and deadlock),
  // none of them the true optimum.
  std::vector<uint64_t> Victims;
  for (uint64_t I = 0; Victims.size() < 6 && I != 100; ++I)
    if (I != Base.BestIndex)
      Victims.push_back(I);
  FaultPlan Plan;
  Plan.Targets.push_back(
      {Victims[0], Stage::Parse, ErrorCode::ParseError});
  Plan.Targets.push_back(
      {Victims[1], Stage::Verify, ErrorCode::VerifyFailed});
  Plan.Targets.push_back(
      {Victims[2], Stage::Estimate, ErrorCode::ResourceOverflow});
  Plan.Targets.push_back(
      {Victims[3], Stage::Emulate, ErrorCode::EmulationFault});
  Plan.Targets.push_back(
      {Victims[4], Stage::Simulate, ErrorCode::SimulatorTimeout});
  Plan.Targets.push_back(
      {Victims[5], Stage::Simulate, ErrorCode::SimulatorDeadlock});

  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  // The sweep completed and quarantined exactly the six victims.
  std::vector<size_t> WantQuarantine(Victims.begin(), Victims.end());
  std::sort(WantQuarantine.begin(), WantQuarantine.end());
  std::vector<size_t> GotQuarantine = Out.Quarantined;
  std::sort(GotQuarantine.begin(), GotQuarantine.end());
  EXPECT_EQ(GotQuarantine, WantQuarantine);

  // Correct stage tags and codes on each victim.
  EXPECT_EQ(Out.Evals[Victims[0]].Failure.At, Stage::Parse);
  EXPECT_EQ(Out.Evals[Victims[1]].Failure.At, Stage::Verify);
  EXPECT_EQ(Out.Evals[Victims[2]].Failure.At, Stage::Estimate);
  EXPECT_EQ(Out.Evals[Victims[3]].Failure.At, Stage::Emulate);
  EXPECT_EQ(Out.Evals[Victims[4]].Failure.Code,
            ErrorCode::SimulatorTimeout);
  EXPECT_EQ(Out.Evals[Victims[5]].Failure.Code,
            ErrorCode::SimulatorDeadlock);

  // Per-stage counters agree.
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Parse)], 1u);
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Verify)], 1u);
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Estimate)], 1u);
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Emulate)], 1u);
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Simulate)], 2u);

  // The three metric-stage victims fell out of the usable count; the two
  // measure-stage victims were still candidates when they faulted.
  EXPECT_EQ(Out.ValidCount, 97u);

  // Untouched configurations still measured; the true optimum survived.
  ASSERT_TRUE(Out.hasBest());
  EXPECT_EQ(Out.BestIndex, Base.BestIndex);
  EXPECT_DOUBLE_EQ(Out.BestTime, Base.BestTime);
  for (const ConfigEval &E : Out.Evals) {
    if (!E.failed()) {
      EXPECT_TRUE(E.Measured);
    }
  }
}

TEST(Quarantine, ProbabilisticInjectionStillFindsABest) {
  FaultPlan Plan;
  Plan.Seed = 5;
  Plan.Rate[size_t(Stage::Simulate)] = 0.3;
  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  EXPECT_FALSE(Out.Quarantined.empty());
  EXPECT_LT(Out.Quarantined.size(), 100u);
  ASSERT_TRUE(Out.hasBest());
  EXPECT_FALSE(Out.Evals[Out.BestIndex].failed());
  EXPECT_EQ(Out.Quarantined.size(),
            Out.FailedPerStage[size_t(Stage::Simulate)]);
}

TEST(Quarantine, AllCandidatesFailingIsWellDefined) {
  FaultPlan Plan;
  Plan.Rate[size_t(Stage::Simulate)] = 1.0;
  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  EXPECT_FALSE(Out.hasBest());
  EXPECT_EQ(Out.Quarantined.size(), 100u);
  EXPECT_EQ(Out.TotalMeasuredSeconds, 0.0);
  // No max()/inf leaks into the summary arithmetic.
  double R = Out.spaceReduction();
  EXPECT_GE(R, 0.0);
  EXPECT_LE(R, 1.0);
}

TEST(Quarantine, MetricStageFailuresShrinkValidCount) {
  FaultPlan Plan;
  Plan.Rate[size_t(Stage::Verify)] = 1.0;
  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  EXPECT_EQ(Out.ValidCount, 0u);
  EXPECT_TRUE(Out.Candidates.empty());
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Verify)], 100u);
  EXPECT_FALSE(Out.hasBest());
  EXPECT_EQ(Out.spaceReduction(), 0.0);
}

TEST(Quarantine, GreedyClimbSkipsFailedNeighbors) {
  FaultPlan Plan;
  Plan.Seed = 3;
  Plan.Rate[size_t(Stage::Simulate)] = 0.25;
  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  SearchOutcome Out =
      runAdaptiveSweep(Engine, StrategyKind::Greedy, {11, 40}, {}).Outcome;
  // The climb terminates, measures something, and every candidate is a
  // successful measurement (failures live in Quarantined instead).
  ASSERT_TRUE(Out.hasBest());
  for (size_t I : Out.Candidates) {
    EXPECT_TRUE(Out.Evals[I].Measured);
    EXPECT_FALSE(Out.Evals[I].failed());
  }
  for (size_t I : Out.Quarantined)
    EXPECT_TRUE(Out.Evals[I].failed());
}

TEST(Quarantine, RealDeadlockQuarantinedInSweep) {
  // Not an injection: an app whose odd-chain variants genuinely contain a
  // divergent barrier.  The simulator's deadlock detection must quarantine
  // them while the sweep measures the rest.
  class MixedApp : public TunableApp {
  public:
    MixedApp() { Space.addDim("variant", {0, 1, 2, 3, 4, 5}); }
    std::string_view name() const override { return "mixed"; }
    const ConfigSpace &space() const override { return Space; }
    Kernel buildKernel(const ConfigPoint &P) const override {
      bool Bad = (Space.valueOf(P, "variant") % 2) == 1;
      KernelBuilder B(Bad ? "bad" : "good");
      unsigned Out = B.addGlobalPtr("out");
      Reg Tx = B.mov(B.special(SpecialReg::TidX));
      if (Bad) {
        Reg Pr = B.setpi(CmpKind::Lt, Tx, B.imm(1));
        B.ifThen(Pr, /*Uniform=*/false, [&] { B.bar(); });
      } else {
        B.bar();
      }
      B.stGlobal(Out, B.shli(Tx, B.imm(2)), 0, Tx);
      return B.take();
    }
    LaunchConfig launch(const ConfigPoint &) const override {
      return LaunchConfig(Dim3(16), Dim3(64));
    }
    double verifyConfig(const ConfigPoint &) const override { return 0; }

  private:
    ConfigSpace Space;
  };

  MixedApp App;
  SearchEngine Engine(App, gtx());
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  ASSERT_EQ(Out.Evals.size(), 6u);
  EXPECT_EQ(Out.Quarantined.size(), 3u);
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Simulate)], 3u);
  for (size_t I : Out.Quarantined)
    EXPECT_EQ(Out.Evals[I].Failure.Code, ErrorCode::SimulatorDeadlock);
  ASSERT_TRUE(Out.hasBest());
  EXPECT_EQ(Out.BestIndex % 2, 0u);
}

//===--- Kill-and-resume: journaled sweeps survive being interrupted -----------//

std::string tmpJournal(const char *Name) {
  std::string Path = testing::TempDir() + "g80_ft_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

/// The fingerprint a toy exhaustive sweep writes/expects.
JournalHeader toyFingerprint(const std::string &Extra = "") {
  JournalHeader H;
  H.App = "toy";
  H.Machine = gtx().Name;
  H.Strategy = "exhaustive";
  H.Seed = 1;
  H.Budget = 0;
  H.RawSize = toy().space().rawSize();
  H.Extra = Extra;
  return H;
}

SweepReport runJournaled(const SearchEngine &Engine, const std::string &Path,
                         bool Resume, const std::string &Extra = "") {
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Resume = Resume;
  Opts.Fingerprint = toyFingerprint(Extra);
  return SweepDriver(Engine, Opts).run(Engine.planExhaustive());
}

/// Simulates a SIGKILL after \p Keep fsync'd records: rewrites the journal
/// as header + the first Keep records.
void truncateToRecords(const std::string &Path, size_t Keep) {
  std::ifstream In(Path);
  std::string Line, Out;
  size_t Lines = 0;
  while (Lines < Keep + 1 && std::getline(In, Line)) {
    Out += Line;
    Out += '\n';
    ++Lines;
  }
  In.close();
  std::ofstream(Path, std::ios::trunc) << Out;
}

/// Everything resume must reconstruct bit-identically.
void expectSameOutcome(const SearchOutcome &Got, const SearchOutcome &Want) {
  EXPECT_EQ(Got.Strategy, Want.Strategy);
  EXPECT_EQ(Got.ValidCount, Want.ValidCount);
  EXPECT_EQ(Got.Candidates, Want.Candidates);
  std::vector<size_t> GotQ = Got.Quarantined, WantQ = Want.Quarantined;
  std::sort(GotQ.begin(), GotQ.end());
  std::sort(WantQ.begin(), WantQ.end());
  EXPECT_EQ(GotQ, WantQ);
  EXPECT_EQ(Got.FailedPerStage, Want.FailedPerStage);
  EXPECT_EQ(Got.BestIndex, Want.BestIndex);
  EXPECT_EQ(Got.BestTime, Want.BestTime);
  EXPECT_EQ(Got.TotalMeasuredSeconds, Want.TotalMeasuredSeconds);
  ASSERT_EQ(Got.Evals.size(), Want.Evals.size());
  for (size_t I = 0; I != Got.Evals.size(); ++I) {
    EXPECT_EQ(Got.Evals[I].Measured, Want.Evals[I].Measured) << I;
    EXPECT_EQ(Got.Evals[I].TimeSeconds, Want.Evals[I].TimeSeconds) << I;
    EXPECT_EQ(Got.Evals[I].failed(), Want.Evals[I].failed()) << I;
  }
}

TEST(Resume, KilledMidSweepResumesToIdenticalOutcome) {
  SearchEngine Engine(toy(), gtx());
  std::string Path = tmpJournal("kill");

  SweepReport Full = runJournaled(Engine, Path, /*Resume=*/false);
  ASSERT_EQ(Full.Status, SweepStatus::Completed);
  expectSameOutcome(Full.Outcome, toyBaseline());

  // Kill points early, middle, and one-before-done.
  for (size_t Keep : {size_t(3), size_t(50), size_t(99)}) {
    SweepReport Again = runJournaled(Engine, Path, /*Resume=*/false);
    ASSERT_EQ(Again.Status, SweepStatus::Completed);
    truncateToRecords(Path, Keep);
    SweepReport Res = runJournaled(Engine, Path, /*Resume=*/true);
    ASSERT_EQ(Res.Status, SweepStatus::Completed);
    EXPECT_EQ(Res.ResumedSkipped, Keep);
    expectSameOutcome(Res.Outcome, toyBaseline());
  }
}

TEST(Resume, TornFinalRecordIsDroppedAndRemeasured) {
  SearchEngine Engine(toy(), gtx());
  std::string Path = tmpJournal("torn");
  ASSERT_EQ(runJournaled(Engine, Path, false).Status,
            SweepStatus::Completed);
  truncateToRecords(Path, 40);
  // The kill landed mid-write: a partial record with no trailing newline.
  {
    std::ofstream App(Path, std::ios::app);
    App << "{\"crc\":\"0123456789abcdef\",\"rec\":{\"idx\":40,\"po";
  }
  SweepReport Res = runJournaled(Engine, Path, /*Resume=*/true);
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_TRUE(Res.TornTailDropped);
  EXPECT_EQ(Res.ResumedSkipped, 40u);
  expectSameOutcome(Res.Outcome, toyBaseline());

  // The repaired journal must itself be resumable (truncate-and-continue
  // left no scar).
  SweepReport Res2 = runJournaled(Engine, Path, /*Resume=*/true);
  ASSERT_EQ(Res2.Status, SweepStatus::Completed);
  EXPECT_FALSE(Res2.TornTailDropped);
  EXPECT_EQ(Res2.ResumedSkipped, 100u);
  expectSameOutcome(Res2.Outcome, toyBaseline());
}

TEST(Resume, StaleJournalIsRejected) {
  SearchEngine Engine(toy(), gtx());
  std::string Path = tmpJournal("stale");
  ASSERT_EQ(runJournaled(Engine, Path, false).Status,
            SweepStatus::Completed);

  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Resume = true;
  Opts.Fingerprint = toyFingerprint();
  Opts.Fingerprint.Seed = 2; // a different sweep
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  EXPECT_EQ(Res.Status, SweepStatus::Error);
  EXPECT_EQ(Res.Error.Code, ErrorCode::JournalError);
}

TEST(Resume, WithInjectionArmedPreservesQuarantine) {
  FaultPlan Plan;
  Plan.Targets.push_back({7, Stage::Simulate, ErrorCode::SimulatorTimeout});
  Plan.Targets.push_back({41, Stage::Simulate, ErrorCode::SimulatorDeadlock});
  Plan.Targets.push_back({90, Stage::Verify, ErrorCode::VerifyFailed});
  SearchEngine Engine(toy(), gtx(), {}, {}, Plan);
  const std::string Extra = "inject:test";

  SearchOutcome Want =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  std::string Path = tmpJournal("inject");
  ASSERT_EQ(runJournaled(Engine, Path, false, Extra).Status,
            SweepStatus::Completed);
  truncateToRecords(Path, 30);
  SweepReport Res = runJournaled(Engine, Path, /*Resume=*/true, Extra);
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  expectSameOutcome(Res.Outcome, Want);
  // Quarantined configurations are restored as quarantined, not
  // re-attempted successes.
  EXPECT_EQ(Res.Outcome.Evals[7].Failure.Code, ErrorCode::SimulatorTimeout);
  EXPECT_EQ(Res.Outcome.Evals[41].Failure.Code,
            ErrorCode::SimulatorDeadlock);
}

TEST(Resume, InterruptRequestStopsAtRecordBoundaryAndResumes) {
  SearchEngine Engine(toy(), gtx());
  std::string Path = tmpJournal("intr");

  requestSweepInterrupt();
  SweepReport Stopped = runJournaled(Engine, Path, /*Resume=*/false);
  clearSweepInterrupt();
  EXPECT_EQ(Stopped.Status, SweepStatus::Interrupted);

  SweepReport Res = runJournaled(Engine, Path, /*Resume=*/true);
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  expectSameOutcome(Res.Outcome, toyBaseline());
}

} // namespace
