//===- tests/SearchStrategyTest.cpp - strategy registry + large tiers -----===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The pluggable strategy layer end to end: the large configuration tiers
// (size floors, small-tier invariance, emulator-verified correctness of
// register-blocked/tiled variants), seeded determinism of every strategy,
// journal byte-identity across job counts, kill+resume for adaptive
// searches, fingerprint rejection when any search knob changes, refusal
// of journals whose records leave the sweep's commit order, process
// isolation of adaptive rounds, budgeted sparse-plan slicing (the fleet
// sharding substrate), and a quality sanity floor: every strategy must
// beat a one-probe random baseline.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/EvalRecord.h"
#include "core/SearchStrategy.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Journal.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_strat_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// The canonical fingerprint for a budgeted run, mirroring the CLI.
JournalHeader adaptiveHeader(const TunableApp &App, StrategyKind Kind,
                             const StrategyOptions &Opts,
                             const char *Space = "small") {
  JournalHeader H;
  H.App = std::string(App.name());
  H.Machine = gtx().Name;
  H.Strategy = strategyName(Kind);
  H.Seed = Opts.Seed;
  H.Budget = Opts.Budget;
  H.RawSize = App.space().rawSize();
  H.Space = Space;
  return H;
}

/// Runs an adaptive strategy with the standard test knobs.
SweepReport runAdaptive(const SearchEngine &Eng, const TunableApp &App,
                        StrategyKind Kind, const StrategyOptions &SO,
                        const std::string &Journal = "", bool Resume = false,
                        size_t InterruptAfter = 0) {
  SweepOptions Opts;
  Opts.JournalPath = Journal;
  Opts.Resume = Resume;
  Opts.Jobs = SO.Jobs;
  if (!Journal.empty())
    Opts.Fingerprint = adaptiveHeader(App, Kind, SO);
  if (InterruptAfter != 0)
    Opts = stopAfter(std::move(Opts), InterruptAfter);
  return runAdaptiveSweep(Eng, Kind, SO, Opts);
}

/// The measured flat-index sequence, in candidate order.
std::vector<uint64_t> probeSequence(const SearchOutcome &Out) {
  std::vector<uint64_t> Seq;
  Seq.reserve(Out.Candidates.size());
  for (size_t I : Out.Candidates)
    Seq.push_back(Out.Evals[I].FlatIndex);
  return Seq;
}

const std::vector<StrategyKind> AdaptiveKinds = {
    StrategyKind::Greedy, StrategyKind::Anneal, StrategyKind::Genetic};

//===--- Registry basics -------------------------------------------------------//

TEST(StrategyRegistry, NamesRoundTripAndClassify) {
  for (StrategyKind Kind : allStrategies()) {
    StrategyKind Parsed;
    ASSERT_TRUE(parseStrategy(strategyName(Kind), Parsed));
    EXPECT_EQ(Parsed, Kind);
  }
  StrategyKind K;
  EXPECT_FALSE(parseStrategy("hillclimb", K));
  EXPECT_FALSE(parseStrategy("", K));
  EXPECT_TRUE(strategyIsPlannable(StrategyKind::Exhaustive));
  EXPECT_TRUE(strategyIsPlannable(StrategyKind::Pareto));
  EXPECT_TRUE(strategyIsPlannable(StrategyKind::Cluster));
  EXPECT_TRUE(strategyIsPlannable(StrategyKind::Random));
  EXPECT_FALSE(strategyIsPlannable(StrategyKind::Greedy));
  EXPECT_FALSE(strategyIsPlannable(StrategyKind::Anneal));
  EXPECT_FALSE(strategyIsPlannable(StrategyKind::Genetic));
}

TEST(StrategyRegistry, SpaceTierNamesRoundTrip) {
  SpaceTier T;
  ASSERT_TRUE(parseSpaceTier("small", T));
  EXPECT_EQ(T, SpaceTier::Small);
  ASSERT_TRUE(parseSpaceTier("large", T));
  EXPECT_EQ(T, SpaceTier::Large);
  EXPECT_FALSE(parseSpaceTier("huge", T));
  EXPECT_STREQ(spaceTierName(SpaceTier::Small), "small");
  EXPECT_STREQ(spaceTierName(SpaceTier::Large), "large");
}

//===--- Large configuration tiers ---------------------------------------------//

TEST(LargeTier, SpaceSizeFloorsAndSmallTierInvariance) {
  // The headline floors: at least 10^5 raw points for MatMul and CP.
  EXPECT_GE(MatMulApp(MatMulProblem::emulation(), SpaceTier::Large)
                .space()
                .rawSize(),
            100000u);
  EXPECT_GE(CpApp(CpProblem::emulation(), SpaceTier::Large).space().rawSize(),
            100000u);
  EXPECT_GE(
      SadApp(SadApp::emulationProblem(), SpaceTier::Large).space().rawSize(),
      10000u);
  EXPECT_GE(
      MriFhdApp(MriProblem::emulation(), SpaceTier::Large).space().rawSize(),
      4000u);

  // The default tier is exactly the paper's space — byte-for-byte.
  EXPECT_EQ(MatMulApp(MatMulProblem::emulation()).space().rawSize(), 96u);
  EXPECT_EQ(CpApp(CpProblem::emulation()).space().rawSize(), 40u);
  EXPECT_EQ(SadApp(SadApp::emulationProblem()).space().rawSize(), 1620u);
  EXPECT_EQ(MriFhdApp(MriProblem::emulation()).space().rawSize(), 175u);
}

TEST(LargeTier, MatMulRegisterBlockedVariantsComputeCorrectly) {
  MatMulApp App(MatMulProblem::emulation(), SpaceTier::Large);
  const ConfigSpace &S = App.space();
  // Emulator-verify a spread of large-tier-only shapes: register
  // blocking (rrow > 1), graduated spills (spill > 1), and both
  // prefetch arms.  Scan until we have one of each.
  bool SawRRow = false, SawSpill = false, SawPlain = false;
  for (uint64_t F = 0; F != S.rawSize(); ++F) {
    ConfigPoint P = S.pointAt(F);
    if (!App.isExpressible(P))
      continue;
    unsigned RRow = unsigned(S.valueOf(P, "rrow"));
    unsigned Spill = unsigned(S.valueOf(P, "spill"));
    bool Want = (!SawRRow && RRow > 1) || (!SawSpill && Spill > 1) ||
                (!SawPlain && RRow == 1 && Spill == 0);
    if (!Want)
      continue;
    EXPECT_LE(App.verifyConfig(P), 1e-3) << S.describe(P);
    SawRRow |= RRow > 1;
    SawSpill |= Spill > 1;
    SawPlain |= RRow == 1 && Spill == 0;
    if (SawRRow && SawSpill && SawPlain)
      break;
  }
  EXPECT_TRUE(SawRRow && SawSpill && SawPlain);
}

TEST(LargeTier, CpTiledVariantsComputeCorrectly) {
  CpApp App(CpProblem::emulation(), SpaceTier::Large);
  const ConfigSpace &S = App.space();
  bool SawYTile = false, SawUnroll = false, SawNarrow = false;
  for (uint64_t F = 0; F != S.rawSize(); ++F) {
    ConfigPoint P = S.pointAt(F);
    if (!App.isExpressible(P))
      continue;
    unsigned YTile = unsigned(S.valueOf(P, "ytile"));
    unsigned Unroll = unsigned(S.valueOf(P, "unroll"));
    unsigned BlockX = unsigned(S.valueOf(P, "blockx"));
    bool Want = (!SawYTile && YTile > 1) || (!SawUnroll && Unroll > 1) ||
                (!SawNarrow && BlockX < 16);
    if (!Want)
      continue;
    EXPECT_LE(App.verifyConfig(P), 1e-3) << S.describe(P);
    SawYTile |= YTile > 1;
    SawUnroll |= Unroll > 1;
    SawNarrow |= BlockX < 16;
    if (SawYTile && SawUnroll && SawNarrow)
      break;
  }
  EXPECT_TRUE(SawYTile && SawUnroll && SawNarrow);
}

//===--- Seeded determinism ----------------------------------------------------//

TEST(StrategyDeterminism, AdaptiveRunsAreSeedDeterministic) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  for (StrategyKind Kind : AdaptiveKinds) {
    StrategyOptions SO;
    SO.Seed = 7;
    SO.Budget = 12;
    SweepReport A = runAdaptive(Eng, App, Kind, SO);
    SweepReport B = runAdaptive(Eng, App, Kind, SO);
    ASSERT_EQ(A.Status, SweepStatus::Completed) << strategyName(Kind);
    EXPECT_EQ(probeSequence(A.Outcome), probeSequence(B.Outcome))
        << strategyName(Kind);
    EXPECT_EQ(A.Outcome.BestTime, B.Outcome.BestTime) << strategyName(Kind);

    SO.Seed = 8;
    SweepReport C = runAdaptive(Eng, App, Kind, SO);
    EXPECT_NE(probeSequence(A.Outcome), probeSequence(C.Outcome))
        << strategyName(Kind) << ": seed must steer the probe sequence";
  }
}

TEST(StrategyDeterminism, PlannedStrategiesAreSeedDeterministic) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 5;
  SO.Budget = 24;
  SweepPlan A = planForStrategy(Eng, StrategyKind::Random, SO);
  SweepPlan B = planForStrategy(Eng, StrategyKind::Random, SO);
  ASSERT_EQ(A.Candidates.size(), B.Candidates.size());
  for (size_t I = 0; I != A.Candidates.size(); ++I)
    EXPECT_EQ(A.Evals[A.Candidates[I]].FlatIndex,
              B.Evals[B.Candidates[I]].FlatIndex);
  SO.Seed = 6;
  SweepPlan C = planForStrategy(Eng, StrategyKind::Random, SO);
  bool Differ = A.Candidates.size() != C.Candidates.size();
  for (size_t I = 0; !Differ && I != A.Candidates.size(); ++I)
    Differ = A.Evals[A.Candidates[I]].FlatIndex !=
             C.Evals[C.Candidates[I]].FlatIndex;
  EXPECT_TRUE(Differ) << "random sample must depend on the seed";
}

TEST(StrategyDeterminism, JournalBytesIdenticalAcrossJobCounts) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  for (StrategyKind Kind : AdaptiveKinds) {
    StrategyOptions Serial;
    Serial.Seed = 3;
    Serial.Budget = 10;
    Serial.Jobs = 1;
    StrategyOptions Wide = Serial;
    Wide.Jobs = 8;
    std::string PathA = tmpPath("jobs1");
    std::string PathB = tmpPath("jobs8");
    ASSERT_EQ(runAdaptive(Eng, App, Kind, Serial, PathA).Status,
              SweepStatus::Completed);
    ASSERT_EQ(runAdaptive(Eng, App, Kind, Wide, PathB).Status,
              SweepStatus::Completed);
    std::string A = slurp(PathA), B = slurp(PathB);
    ASSERT_FALSE(A.empty());
    EXPECT_EQ(A, B) << strategyName(Kind)
                    << ": journal must not depend on job count";
  }
}

//===--- Durability ------------------------------------------------------------//

TEST(AdaptiveDurability, KillAndResumeMatchesUninterruptedRun) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  for (StrategyKind Kind : AdaptiveKinds) {
    StrategyOptions SO;
    SO.Seed = 11;
    SO.Budget = 14;

    std::string Straight = tmpPath("straight");
    SweepReport Ref = runAdaptive(Eng, App, Kind, SO, Straight);
    ASSERT_EQ(Ref.Status, SweepStatus::Completed) << strategyName(Kind);

    // Interrupt mid-run (as SIGTERM would), then resume to completion.
    std::string Killed = tmpPath("killed");
    clearSweepInterrupt();
    SweepReport Cut = runAdaptive(Eng, App, Kind, SO, Killed,
                                  /*Resume=*/false, /*InterruptAfter=*/5);
    ASSERT_EQ(Cut.Status, SweepStatus::Interrupted) << strategyName(Kind);

    SweepReport Resumed = runAdaptive(Eng, App, Kind, SO, Killed,
                                      /*Resume=*/true);
    ASSERT_EQ(Resumed.Status, SweepStatus::Completed) << strategyName(Kind);
    EXPECT_GE(Resumed.ResumedSkipped, 5u) << strategyName(Kind);
    EXPECT_EQ(slurp(Killed), slurp(Straight))
        << strategyName(Kind)
        << ": resumed journal must equal the uninterrupted one";
    EXPECT_EQ(probeSequence(Resumed.Outcome), probeSequence(Ref.Outcome));
    EXPECT_EQ(Resumed.Outcome.BestTime, Ref.Outcome.BestTime);
  }
}

TEST(AdaptiveDurability, FingerprintMismatchIsRejected) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 2;
  SO.Budget = 8;
  std::string Path = tmpPath("fp");
  ASSERT_EQ(runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path).Status,
            SweepStatus::Completed);

  // Any changed search knob must refuse the journal, not silently merge.
  StrategyOptions Reseeded = SO;
  Reseeded.Seed = 3;
  EXPECT_EQ(
      runAdaptive(Eng, App, StrategyKind::Greedy, Reseeded, Path, true).Status,
      SweepStatus::Error);

  StrategyOptions Rebudgeted = SO;
  Rebudgeted.Budget = 9;
  EXPECT_EQ(
      runAdaptive(Eng, App, StrategyKind::Greedy, Rebudgeted, Path, true)
          .Status,
      SweepStatus::Error);

  EXPECT_EQ(
      runAdaptive(Eng, App, StrategyKind::Anneal, SO, Path, true).Status,
      SweepStatus::Error);

  // A different space tier re-fingerprints too (the CLI stamps the tier
  // into the header).
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Resume = true;
  Opts.Fingerprint = adaptiveHeader(App, StrategyKind::Greedy, SO, "large");
  EXPECT_EQ(runAdaptiveSweep(Eng, StrategyKind::Greedy, SO, Opts).Status,
            SweepStatus::Error);

  // The matching knobs still resume cleanly.
  SweepReport Ok = runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path, true);
  EXPECT_EQ(Ok.Status, SweepStatus::Completed);
  EXPECT_EQ(Ok.ResumedSkipped, 8u);
}

//===--- Record-level replay refusal -------------------------------------------//

/// Rewrites \p Path as a journal with \p Header and \p Records.
void writeJournal(const std::string &Path, const JournalHeader &Header,
                  const std::vector<std::string> &Records) {
  std::remove(Path.c_str());
  Expected<JournalWriter> W = JournalWriter::create(Path, Header);
  ASSERT_TRUE(W.ok()) << W.diag().Message;
  for (const std::string &R : Records)
    ASSERT_TRUE(W->appendRecord(R).ok());
  W->close();
}

/// The journal record a measurement of usable flat index \p Flat writes.
std::string recordFor(const SearchEngine &Eng, uint64_t Flat) {
  ConfigEval E = Eng.evaluator().evaluateSubset({Flat}, 1).front();
  EXPECT_TRUE(E.usable()) << Flat;
  EXPECT_TRUE(Eng.evaluator().measure(E)) << Flat;
  return EvalRecord::fromEval(E).toJson();
}

/// A usable flat index of \p Eng's space that is not in \p Avoid.
uint64_t usableFlatOutside(const SearchEngine &Eng,
                           const std::vector<uint64_t> &Avoid) {
  for (uint64_t Flat : Eng.evaluator().expressibleIndices()) {
    if (std::find(Avoid.begin(), Avoid.end(), Flat) != Avoid.end())
      continue;
    if (Eng.evaluator().evaluateSubset({Flat}, 1).front().usable())
      return Flat;
  }
  ADD_FAILURE() << "no usable configuration outside the given set";
  return 0;
}

/// The flat indices a journal's records name, in file order.
std::vector<uint64_t> recordFlats(const JournalContents &C) {
  std::vector<uint64_t> Flat;
  for (const std::string &R : C.Records)
    Flat.push_back(EvalRecord::fromJson(R)->Index);
  return Flat;
}

/// Resumes the `random` sweep of \p SO from the journal at \p Path.
SweepReport resumeRandom(const SearchEngine &Eng, const TunableApp &App,
                         const StrategyOptions &SO, const std::string &Path) {
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Resume = true;
  Opts.Fingerprint = adaptiveHeader(App, StrategyKind::Random, SO);
  return SweepDriver(Eng, Opts).run(
      planForStrategy(Eng, StrategyKind::Random, SO));
}

/// Resumes \p Path through \p Resume and expects a refusal that leaves
/// the journal untouched.
template <typename Fn>
void expectRefused(const std::string &Path, Fn Resume) {
  std::string Before = slurp(Path);
  ASSERT_FALSE(Before.empty());
  SweepReport Rep = Resume();
  EXPECT_EQ(Rep.Status, SweepStatus::Error);
  EXPECT_NE(Rep.Error.Message.find("refusing to resume"), std::string::npos)
      << Rep.Error.Message;
  EXPECT_EQ(slurp(Path), Before) << "a refused journal must stay as it was";
}

TEST(ReplayRefusal, PlannedRecordOutsideThePlan) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 4;
  SO.Budget = 6;
  SweepPlan Plan = planForStrategy(Eng, StrategyKind::Random, SO);
  std::vector<uint64_t> Planned;
  for (size_t Idx : Plan.Candidates)
    Planned.push_back(Plan.Evals[Idx].FlatIndex);

  std::string Path = tmpPath("refuse_outside");
  writeJournal(Path, adaptiveHeader(App, StrategyKind::Random, SO),
               {recordFor(Eng, usableFlatOutside(Eng, Planned))});
  expectRefused(Path, [&] { return resumeRandom(Eng, App, SO, Path); });
}

TEST(ReplayRefusal, AdaptiveFirstRecordReplaced) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 5;
  SO.Budget = 10;
  std::string Path = tmpPath("refuse_first");
  ASSERT_EQ(runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path).Status,
            SweepStatus::Completed);
  Expected<JournalContents> C = readJournal(Path);
  ASSERT_TRUE(C.ok());
  ASSERT_FALSE(C->Records.empty());
  C->Records.front() = recordFor(Eng, usableFlatOutside(Eng, recordFlats(*C)));
  writeJournal(Path, C->Header, C->Records);
  expectRefused(Path, [&] {
    return runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path, true);
  });
}

TEST(ReplayRefusal, AdaptiveDuplicatedTrailingRecord) {
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 6;
  SO.Budget = 10;
  std::string Path = tmpPath("refuse_dup");
  ASSERT_EQ(runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path).Status,
            SweepStatus::Completed);
  Expected<JournalContents> C = readJournal(Path);
  ASSERT_TRUE(C.ok());
  ASSERT_FALSE(C->Records.empty());
  C->Records.push_back(C->Records.back());
  writeJournal(Path, C->Header, C->Records);
  expectRefused(Path, [&] {
    return runAdaptive(Eng, App, StrategyKind::Greedy, SO, Path, true);
  });
}

TEST(ReplayRefusal, PlannedRecordsOutOfPlanOrder) {
  // Every writer commits a plan in plan order, so a permuted journal is
  // not one this sweep wrote.
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 4;
  SO.Budget = 6;
  std::string Path = tmpPath("refuse_swap");
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = adaptiveHeader(App, StrategyKind::Random, SO);
  ASSERT_EQ(SweepDriver(Eng, Opts)
                .run(planForStrategy(Eng, StrategyKind::Random, SO))
                .Status,
            SweepStatus::Completed);
  Expected<JournalContents> C = readJournal(Path);
  ASSERT_TRUE(C.ok());
  ASSERT_GE(C->Records.size(), 2u);
  std::swap(C->Records[0], C->Records[1]);
  writeJournal(Path, C->Header, C->Records);
  expectRefused(Path, [&] { return resumeRandom(Eng, App, SO, Path); });
}

//===--- Adaptive isolation ----------------------------------------------------//

TEST(AdaptiveIsolation, JournalBytesMatchInProcessRun) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  MatMulApp App(MatMulProblem::emulation());
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 3;
  SO.Budget = 10;
  std::string Plain = tmpPath("iso_plain");
  ASSERT_EQ(runAdaptive(Eng, App, StrategyKind::Greedy, SO, Plain).Status,
            SweepStatus::Completed);

  std::string Isolated = tmpPath("iso_forked");
  SweepOptions Opts;
  Opts.JournalPath = Isolated;
  Opts.Fingerprint = adaptiveHeader(App, StrategyKind::Greedy, SO);
  Opts.Isolate = true;
  SweepReport Rep = runAdaptiveSweep(Eng, StrategyKind::Greedy, SO, Opts);
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  EXPECT_TRUE(Rep.Warnings.empty()) << Rep.Warnings.front();
  EXPECT_FALSE(Rep.DegradedInProcess);
  ASSERT_FALSE(slurp(Plain).empty());
  EXPECT_EQ(slurp(Isolated), slurp(Plain));
}

TEST(AdaptiveIsolation, CrashedProbeIsRetriedThenQuarantined) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  MatMulApp App(MatMulProblem::emulation());
  StrategyOptions SO;
  SO.Seed = 3;
  SO.Budget = 10;
  SearchEngine Clean(App, gtx());
  SweepReport Ref = runAdaptive(Clean, App, StrategyKind::Greedy, SO);
  ASSERT_EQ(Ref.Status, SweepStatus::Completed);
  ASSERT_GE(Ref.Outcome.Candidates.size(), 3u);
  uint64_t Victim = probeSequence(Ref.Outcome)[2];

  FaultPlan Faults;
  Faults.Actions.push_back({Victim, FaultAction::Crash});
  SearchEngine Eng(App, gtx(), {}, {}, Faults);
  SweepReport InProcess = runAdaptive(Eng, App, StrategyKind::Greedy, SO);
  ASSERT_EQ(InProcess.Status, SweepStatus::Completed);

  SweepOptions Opts;
  Opts.Isolate = true;
  SweepReport Rep = runAdaptiveSweep(Eng, StrategyKind::Greedy, SO, Opts);
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  EXPECT_EQ(Rep.WorkerRetries, 1u);
  ASSERT_EQ(Rep.Outcome.Quarantined.size(), 1u);
  const ConfigEval &E = Rep.Outcome.Evals[Rep.Outcome.Quarantined.front()];
  EXPECT_EQ(E.FlatIndex, Victim);
  EXPECT_EQ(E.Failure.Code, ErrorCode::WorkerCrashed);
  EXPECT_EQ(probeSequence(Rep.Outcome), probeSequence(InProcess.Outcome));
}

//===--- Quality ---------------------------------------------------------------//

TEST(StrategyQuality, EveryStrategyBeatsOneProbeRandom) {
  // Bench-sized problem: the emulation instance is so small that the
  // static metrics barely separate configurations, which would make the
  // comparison below meaningless.
  MatMulApp App(MatMulProblem::bench());
  SearchEngine Eng(App, gtx());

  // The baseline: a 1%-of-space random sample (one probe for the 96-point
  // MatMul space).
  StrategyOptions Tiny;
  Tiny.Seed = 1;
  Tiny.Budget = std::max<uint64_t>(1, App.space().rawSize() / 100);
  SweepOptions Plain;
  SweepReport Baseline = SweepDriver(Eng, Plain).run(
      planForStrategy(Eng, StrategyKind::Random, Tiny));
  ASSERT_EQ(Baseline.Status, SweepStatus::Completed);
  ASSERT_TRUE(Baseline.Outcome.hasBest());

  StrategyOptions SO;
  SO.Seed = 1;
  SO.Budget = 16;
  for (StrategyKind Kind : allStrategies()) {
    if (Kind == StrategyKind::Random && SO.Budget == Tiny.Budget)
      continue; // The baseline itself.
    SweepReport Rep;
    if (strategyIsPlannable(Kind))
      Rep = SweepDriver(Eng, Plain).run(planForStrategy(Eng, Kind, SO));
    else
      Rep = runAdaptive(Eng, App, Kind, SO);
    ASSERT_EQ(Rep.Status, SweepStatus::Completed) << strategyName(Kind);
    ASSERT_TRUE(Rep.Outcome.hasBest()) << strategyName(Kind);
    EXPECT_LE(Rep.Outcome.BestTime, Baseline.Outcome.BestTime)
        << strategyName(Kind) << " lost to a one-probe random baseline";
  }
}

//===--- Budgeted sparse plans (the fleet sharding substrate) ------------------//

TEST(SparsePlans, LargeTierRandomPlanIsSparseAndDeterministic) {
  MatMulApp App(MatMulProblem::emulation(), SpaceTier::Large);
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 9;
  SO.Budget = 40;
  SO.Jobs = 4;
  SweepPlan A = planForStrategy(Eng, StrategyKind::Random, SO);
  // The sample may lose a few picks to resource-invalid configurations,
  // but never exceeds the budget.
  ASSERT_GE(A.Candidates.size(), 1u);
  ASSERT_LE(A.Candidates.size(), 40u);
  // Sparse layout: Evals holds only the sampled subset, not the raw
  // space, and every entry still knows its flat index.
  EXPECT_LT(A.Evals.size(), App.space().rawSize());
  for (size_t C : A.Candidates)
    EXPECT_LT(A.Evals[C].FlatIndex, App.space().rawSize());

  SO.Jobs = 1;
  SweepPlan B = planForStrategy(Eng, StrategyKind::Random, SO);
  ASSERT_EQ(B.Candidates.size(), A.Candidates.size());
  for (size_t I = 0; I != A.Candidates.size(); ++I)
    EXPECT_EQ(A.Evals[A.Candidates[I]].FlatIndex,
              B.Evals[B.Candidates[I]].FlatIndex)
        << "sampled plan must not depend on the job count";
}

TEST(SparsePlans, SliceOfBudgetedPlanMatchesFullRun) {
  MatMulApp App(MatMulProblem::emulation(), SpaceTier::Large);
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 9;
  SO.Budget = 12;
  SweepPlan Full = planForStrategy(Eng, StrategyKind::Random, SO);
  size_t N = Full.Candidates.size();
  ASSERT_GE(N, 4u);
  size_t Mid = N / 2;

  SweepOptions Plain;
  SweepReport Ref = SweepDriver(Eng, Plain).run(std::move(Full));
  ASSERT_EQ(Ref.Status, SweepStatus::Completed);

  // Run the plan as two shards; every candidate's measurement must match
  // the unsharded run's, keyed by flat index.
  for (size_t Begin : {size_t(0), Mid}) {
    size_t End = Begin == 0 ? Mid : N;
    SweepPlan Shard = planForStrategy(Eng, StrategyKind::Random, SO)
                          .slice(Begin, End);
    ASSERT_EQ(Shard.Candidates.size(), End - Begin);
    SweepReport Rep = SweepDriver(Eng, Plain).run(std::move(Shard));
    ASSERT_EQ(Rep.Status, SweepStatus::Completed);
    for (size_t I = 0; I != Rep.Outcome.Candidates.size(); ++I) {
      size_t C = Rep.Outcome.Candidates[I];
      size_t RefC = Ref.Outcome.Candidates[Begin + I];
      EXPECT_EQ(Rep.Outcome.Evals[C].FlatIndex,
                Ref.Outcome.Evals[RefC].FlatIndex);
      EXPECT_EQ(Rep.Outcome.Evals[C].TimeSeconds,
                Ref.Outcome.Evals[RefC].TimeSeconds);
    }
  }
}

TEST(SparsePlans, SparseJournalResumesWithoutRemeasuring) {
  MatMulApp App(MatMulProblem::emulation(), SpaceTier::Large);
  SearchEngine Eng(App, gtx());
  StrategyOptions SO;
  SO.Seed = 4;
  SO.Budget = 10;

  JournalHeader H;
  H.App = std::string(App.name());
  H.Machine = gtx().Name;
  H.Strategy = "random";
  H.Seed = SO.Seed;
  H.Budget = SO.Budget;
  H.RawSize = App.space().rawSize();
  H.Space = "large";

  std::string Path = tmpPath("sparse");
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = H;
  SweepReport First = SweepDriver(Eng, Opts).run(
      planForStrategy(Eng, StrategyKind::Random, SO));
  ASSERT_EQ(First.Status, SweepStatus::Completed);

  Opts.Resume = true;
  SweepReport Second = SweepDriver(Eng, Opts).run(
      planForStrategy(Eng, StrategyKind::Random, SO));
  ASSERT_EQ(Second.Status, SweepStatus::Completed);
  EXPECT_EQ(Second.ResumedSkipped, First.Outcome.Candidates.size())
      << "sparse plans must map journal records back by flat index";
  EXPECT_EQ(Second.Outcome.BestTime, First.Outcome.BestTime);
}

} // namespace
