//===- tests/AnalysisTest.cpp - static-analysis framework and lint gate ---===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The analysis stack bottom up: CFG construction and dominators over the
// structured IR, the dataflow passes (liveness, def-use, exact definite
// assignment, max-live), then the lint checkers against a seeded corpus of
// deliberately broken kernels — each detector must fire on its bad kernel
// and stay silent on the clean one — and finally the Stage::Lint pipeline
// semantics: injected-fault quarantine, the clean-space byte-identity
// guarantee, and resume of a lint-quarantined journaled sweep.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "analysis/CFG.h"
#include "analysis/Dataflow.h"
#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "core/SweepDriver.h"
#include "kernels/MatMul.h"
#include "ptx/Builder.h"
#include "ptx/ResourceEstimator.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace g80;

namespace {

LaunchConfig launch1d(unsigned Tpb, unsigned Blocks = 4) {
  return LaunchConfig(Dim3(Blocks), Dim3(Tpb));
}

bool hasFinding(const LintResult &R, FindingCategory C) {
  return std::any_of(R.Findings.begin(), R.Findings.end(),
                     [C](const Finding &F) { return F.Category == C; });
}

const Finding *findFinding(const LintResult &R, FindingCategory C) {
  for (const Finding &F : R.Findings)
    if (F.Category == C)
      return &F;
  return nullptr;
}

//===--- CFG construction ------------------------------------------------------//

TEST(CfgTest, StraightLineKernelIsOneReachableChain) {
  KernelBuilder B("straight");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(4));
  B.stGlobal(Out, Operand::reg(Addr), 0, B.imm(0.0f));
  Kernel K = B.take();

  Cfg G(K);
  EXPECT_EQ(G.numInstrs(), 3u);
  EXPECT_TRUE(G.reachable(G.entry()));
  EXPECT_TRUE(G.reachable(G.exit()));
  EXPECT_TRUE(G.dominates(G.entry(), G.exit()));
  // Every block is reachable and appears exactly once in the RPO.
  unsigned ReachableCount = 0;
  for (unsigned I = 0; I != G.numBlocks(); ++I)
    ReachableCount += G.reachable(I);
  EXPECT_EQ(G.rpo().size(), ReachableCount);
}

TEST(CfgTest, DiamondDominators) {
  KernelBuilder B("diamond");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));            // id 0
  Reg P = B.setpi(CmpKind::Lt, Operand::reg(Tx), B.imm(16)); // id 1
  B.ifThenElse(
      P, /*Uniform=*/false,
      [&] { B.mov(B.imm(1.0f)); },  // id 2 (then)
      [&] { B.mov(B.imm(2.0f)); }); // id 3 (else)
  B.stGlobal(Out, Operand::reg(Tx), 0, B.imm(0.0f)); // id 4 (join)
  Kernel K = B.take();

  Cfg G(K);
  auto BlockOf = [&](unsigned InstrId) -> unsigned {
    for (unsigned I = 0; I != G.numBlocks(); ++I)
      for (unsigned Id : G.blocks()[I].InstrIds)
        if (Id == InstrId)
          return I;
    ADD_FAILURE() << "instruction " << InstrId << " not in any block";
    return ~0u;
  };
  unsigned Head = BlockOf(1), Then = BlockOf(2), Else = BlockOf(3),
           Join = BlockOf(4);
  EXPECT_NE(Then, Else);
  EXPECT_TRUE(G.dominates(Head, Then));
  EXPECT_TRUE(G.dominates(Head, Else));
  EXPECT_TRUE(G.dominates(Head, Join));
  EXPECT_FALSE(G.dominates(Then, Join));
  EXPECT_FALSE(G.dominates(Else, Join));
  // The head branches to both arms; the arms rejoin.
  const BasicBlock &H = G.blocks()[Head];
  EXPECT_EQ(H.Succs.size(), 2u);
}

TEST(CfgTest, ZeroTripLoopBodyIsUnreachable) {
  KernelBuilder B("zerotrip");
  unsigned Out = B.addGlobalPtr("out");
  B.forLoop(0, [&] { B.mov(B.imm(1.0f)); }); // id 0, never entered
  B.stGlobal(Out, Operand(), 0, B.imm(0.0f)); // id 1
  Kernel K = B.take();

  Cfg G(K);
  unsigned BodyBlock = ~0u;
  for (unsigned I = 0; I != G.numBlocks(); ++I)
    for (unsigned Id : G.blocks()[I].InstrIds)
      if (Id == 0)
        BodyBlock = I;
  ASSERT_NE(BodyBlock, ~0u);
  EXPECT_FALSE(G.reachable(BodyBlock));
  EXPECT_TRUE(G.reachable(G.exit()));
}

//===--- Dataflow passes -------------------------------------------------------//

TEST(DataflowTest, DefUseChainsLinkDefsToUses) {
  KernelBuilder B("defuse");
  unsigned Out = B.addGlobalPtr("out");
  Reg A = B.mov(B.imm(1));                              // id 0 defines A
  Reg C = B.addi(Operand::reg(A), B.imm(2));            // id 1 uses A, defs C
  B.stGlobal(Out, Operand::reg(C), 0, Operand::reg(A)); // id 2 uses C and A
  Kernel K = B.take();

  Cfg G(K);
  DefUseChains DU = computeDefUse(G, K.numVRegs());
  ASSERT_GT(DU.DefsOf.size(), std::max(A.Id, C.Id));
  EXPECT_EQ(DU.DefsOf[A.Id], (std::vector<unsigned>{0}));
  EXPECT_EQ(DU.DefsOf[C.Id], (std::vector<unsigned>{1}));
  EXPECT_EQ(DU.UsesOf[A.Id], (std::vector<unsigned>{1, 2}));
  EXPECT_EQ(DU.UsesOf[C.Id], (std::vector<unsigned>{2}));
}

TEST(DataflowTest, AccumulatorIsLiveAroundTheLoop) {
  KernelBuilder B("liveloop");
  unsigned Out = B.addGlobalPtr("out");
  Reg Acc = B.mov(B.imm(0.0f));
  B.forLoop(3, [&] {
    B.emitTo(Acc, Opcode::AddF, Operand::reg(Acc), B.imm(1.0f)); // id 1
  });
  B.stGlobal(Out, Operand(), 0, Operand::reg(Acc));
  Kernel K = B.take();

  Cfg G(K);
  LivenessResult L = computeLiveness(G, K.numVRegs());
  unsigned BodyBlock = ~0u;
  for (unsigned I = 0; I != G.numBlocks(); ++I)
    for (unsigned Id : G.blocks()[I].InstrIds)
      if (Id == 1)
        BodyBlock = I;
  ASSERT_NE(BodyBlock, ~0u);
  // Live into the body (read there) and out of it (read next iteration
  // and after the loop).
  EXPECT_TRUE(L.LiveIn[BodyBlock].contains(Acc.Id));
  EXPECT_TRUE(L.LiveOut[BodyBlock].contains(Acc.Id));
}

TEST(DataflowTest, DefiniteAssignmentFlagsBranchEscapes) {
  KernelBuilder B("branchescape");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg P = B.setpi(CmpKind::Lt, Operand::reg(Tx), B.imm(16));
  Reg R = B.reg();
  B.ifThen(P, /*Uniform=*/false, [&] { B.movTo(R, B.imm(1.0f)); });
  B.stGlobal(Out, Operand::reg(Tx), 0, Operand::reg(R)); // maybe-undef use
  Kernel K = B.take();

  Cfg G(K);
  std::vector<std::string> Msgs = checkDefiniteAssignment(G, K.numVRegs());
  ASSERT_EQ(Msgs.size(), 1u);
  EXPECT_NE(Msgs[0].find("r" + std::to_string(R.Id)), std::string::npos);
}

TEST(DataflowTest, DefiniteAssignmentAdmitsLoopCarriedDefs) {
  // A counted loop always runs at least once, so a definition inside its
  // body definitely reaches uses after the loop — the exact analysis must
  // not approximate this away.
  KernelBuilder B("loopdef");
  unsigned Out = B.addGlobalPtr("out");
  Reg R = B.reg();
  B.forLoop(2, [&] { B.movTo(R, B.imm(1.0f)); });
  B.stGlobal(Out, Operand(), 0, Operand::reg(R));
  Kernel K = B.take();

  Cfg G(K);
  EXPECT_TRUE(checkDefiniteAssignment(G, K.numVRegs()).empty());
  EXPECT_TRUE(verifyKernel(K).empty());
}

TEST(DataflowTest, CheckKernelCarriesEveryProblem) {
  KernelBuilder B("twoundef");
  unsigned Out = B.addGlobalPtr("out");
  Reg R1 = B.reg(), R2 = B.reg();
  B.stGlobal(Out, Operand(), 0, Operand::reg(R1));
  B.stGlobal(Out, Operand(), 4, Operand::reg(R2));
  Kernel K = B.take();

  Expected<Unit> V = checkKernel(K);
  ASSERT_FALSE(V.ok());
  const std::string &Msg = V.diag().Message;
  EXPECT_NE(Msg.find("r" + std::to_string(R1.Id)), std::string::npos);
  EXPECT_NE(Msg.find("r" + std::to_string(R2.Id)), std::string::npos);
  EXPECT_NE(Msg.find("; "), std::string::npos);
  EXPECT_NE(Msg.find("before any definition"), std::string::npos);
}

TEST(DataflowTest, MaxLiveNeverExceedsTheResourceEstimate) {
  // The lint register-pressure checker errors when max-live (+1 system
  // register) exceeds ptx/ResourceEstimator's report; the two accountings
  // must agree on every real kernel the generators can produce.
  MatMulApp App(MatMulProblem::bench());
  for (const ConfigPoint &P : App.space().enumerate()) {
    if (!App.isExpressible(P))
      continue;
    Kernel K = App.buildKernel(P);
    Cfg G(K);
    LivenessResult L = computeLiveness(G, K.numVRegs());
    EXPECT_LE(computeMaxLive(G, L) + 1, estimateRegisters(K))
        << App.space().describe(P);
  }
}

//===--- Bad-kernel corpus -----------------------------------------------------//
//
// One deliberately broken kernel per detector.  Every corpus kernel is
// structurally valid (the verifier accepts it); only the semantic lint
// passes object.

/// Shared-memory tile write indexed by tid.x only — correct in a 1D block,
/// a write-write race the moment the block gains a second row.
Kernel racyTileWrite() {
  KernelBuilder B("racy_tile");
  unsigned Out = B.addGlobalPtr("out");
  unsigned Tile = B.addShared("tile", 128);
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(4));
  B.stShared(Tile, Operand::reg(Addr), 0, B.imm(1.0f));
  B.bar();
  Reg V = B.ldShared(Tile, Operand::reg(Addr), 0);
  B.stGlobal(Out, Operand::reg(Addr), 0, Operand::reg(V));
  return B.take();
}

/// bar.sync under a branch whose predicate provably diverges inside the
/// block: half the threads never arrive.
Kernel divergentBarrier() {
  KernelBuilder B("divergent_bar");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg P = B.setpi(CmpKind::Lt, Operand::reg(Tx), B.imm(16));
  B.ifThen(P, /*Uniform=*/false, [&] { B.bar(); });
  B.stGlobal(Out, Operand::reg(Tx), 0, B.imm(0.0f));
  return B.take();
}

/// Column-major tile store with a 32-byte row pitch: all 16 half-warp
/// threads land in banks {0, 8} — the classic transpose conflict.
Kernel bankConflictedTranspose() {
  KernelBuilder B("conflicted_transpose");
  unsigned Out = B.addGlobalPtr("out");
  unsigned Tile = B.addShared("tile", 512);
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(32));
  B.stShared(Tile, Operand::reg(Addr), 0, B.imm(1.0f));
  Reg Lin = B.muli(Operand::reg(Tx), B.imm(4));
  B.stGlobal(Out, Operand::reg(Lin), 0, B.imm(0.0f));
  return B.take();
}

/// A loop that computes a value nobody ever reads.
Kernel deadLoop() {
  KernelBuilder B("dead_loop");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(4));
  B.forLoop(4, [&] { B.addf(B.imm(1.0f), B.imm(2.0f)); });
  B.stGlobal(Out, Operand::reg(Addr), 0, B.imm(0.0f));
  return B.take();
}

/// A branch guarded by a constant-false immediate comparison.
Kernel unreachableBranch() {
  KernelBuilder B("unreachable_branch");
  unsigned Out = B.addGlobalPtr("out");
  Reg P = B.setpi(CmpKind::Lt, B.imm(1), B.imm(0));
  B.ifThen(P, /*Uniform=*/true, [&] { B.mov(B.imm(1.0f)); });
  B.stGlobal(Out, Operand(), 0, B.imm(0.0f));
  return B.take();
}

/// A unit-stride global load annotated as fully serialized (32 effective
/// bytes/thread) — the coalescing metadata contradicts the address math.
Kernel contradictedCoalescing() {
  KernelBuilder B("bad_coalescing");
  unsigned In = B.addGlobalPtr("in");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(4));
  Reg V = B.ldGlobal(In, Operand::reg(Addr), 0, /*EffBytesPerThread=*/32);
  B.stGlobal(Out, Operand::reg(Addr), 0, Operand::reg(V));
  return B.take();
}

/// An if-region annotated Uniform whose predicate provably takes both
/// values within one block.
Kernel falseUniformAnnotation() {
  KernelBuilder B("false_uniform");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg P = B.setpi(CmpKind::Lt, Operand::reg(Tx), B.imm(16));
  Reg V = B.mov(B.imm(0.0f));
  B.ifThen(P, /*Uniform=*/true,
           [&] { B.emitTo(V, Opcode::AddF, Operand::reg(V), B.imm(1.0f)); });
  B.stGlobal(Out, Operand::reg(Tx), 0, Operand::reg(V));
  return B.take();
}

/// The well-formed twin: tiled write/read with a barrier between, unit
/// stride everywhere, every value consumed.
Kernel cleanTiled() {
  KernelBuilder B("clean_tiled");
  unsigned Out = B.addGlobalPtr("out");
  unsigned Tile = B.addShared("tile", 128);
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.muli(Operand::reg(Tx), B.imm(4));
  B.stShared(Tile, Operand::reg(Addr), 0, B.imm(1.0f));
  B.bar();
  Reg V = B.ldShared(Tile, Operand::reg(Addr), 0);
  B.stGlobal(Out, Operand::reg(Addr), 0, Operand::reg(V));
  return B.take();
}

TEST(LintCorpus, RacyTileWriteIsFlagged) {
  Kernel K = racyTileWrite();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, LaunchConfig(Dim3(4), Dim3(32, 2)));
  const Finding *F = findFinding(R, FindingCategory::Race);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Error);
  EXPECT_NE(F->Message.find("shared-memory race on tile"), std::string::npos);
  EXPECT_EQ(lintErrorCode(R), ErrorCode::LintRace);

  // The same kernel in a 1D block is race-free: the detector's verdict
  // depends on the launch geometry, not just the IR.
  EXPECT_FALSE(hasFinding(runLint(K, launch1d(32)), FindingCategory::Race));
}

TEST(LintCorpus, DivergentBarrierIsFlagged) {
  Kernel K = divergentBarrier();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  const Finding *F = findFinding(R, FindingCategory::BarrierDivergence);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Error);
  EXPECT_EQ(lintErrorCode(R), ErrorCode::LintRace);

  // With every thread below the threshold the branch is uniform-true and
  // the barrier is fine.
  EXPECT_FALSE(hasFinding(runLint(K, launch1d(16)),
                          FindingCategory::BarrierDivergence));
}

TEST(LintCorpus, BankConflictedTransposeWarns) {
  Kernel K = bankConflictedTranspose();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(16, 1));
  const Finding *F = findFinding(R, FindingCategory::BankConflict);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Warning);
  EXPECT_NE(F->Message.find("8-way"), std::string::npos);
  EXPECT_EQ(R.errorCount(), 0u); // Conflicts are slow, not wrong.
}

TEST(LintCorpus, DeadLoopComputationWarns) {
  Kernel K = deadLoop();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  const Finding *F = findFinding(R, FindingCategory::DeadCode);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Warning);
  EXPECT_NE(F->Message.find("never read"), std::string::npos);
  EXPECT_EQ(R.errorCount(), 0u);
}

TEST(LintCorpus, UnreachableConstantBranchWarns) {
  Kernel K = unreachableBranch();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  const Finding *F = findFinding(R, FindingCategory::Unreachable);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Warning);
  EXPECT_EQ(R.errorCount(), 0u);
}

TEST(LintCorpus, ContradictedCoalescingIsError) {
  Kernel K = contradictedCoalescing();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  const Finding *F = findFinding(R, FindingCategory::Coalescing);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Error);
  EXPECT_NE(F->Message.find("stride"), std::string::npos);
  EXPECT_EQ(lintErrorCode(R), ErrorCode::LintAnnotation);
}

TEST(LintCorpus, FalseUniformAnnotationIsError) {
  Kernel K = falseUniformAnnotation();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  const Finding *F = findFinding(R, FindingCategory::UniformAnnotation);
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(F->Severity, FindingSeverity::Error);
  EXPECT_EQ(lintErrorCode(R), ErrorCode::LintAnnotation);

  // A 16-thread block cannot diverge on tid.x < 16.
  EXPECT_FALSE(hasFinding(runLint(K, launch1d(16)),
                          FindingCategory::UniformAnnotation));
}

TEST(LintCorpus, CleanKernelHasNoFindings) {
  Kernel K = cleanTiled();
  ASSERT_TRUE(verifyKernel(K).empty());
  LintResult R = runLint(K, launch1d(32));
  EXPECT_TRUE(R.Findings.empty());
  EXPECT_EQ(R.errorCount(), 0u);
  EXPECT_EQ(R.warningCount(), 0u);
}

TEST(LintCorpus, SummaryAndRenderersCoverTheFindings) {
  LintResult R = runLint(racyTileWrite(), LaunchConfig(Dim3(4), Dim3(32, 2)));
  ASSERT_GT(R.errorCount(), 0u);

  std::string Summary = lintErrorSummary(R);
  EXPECT_NE(Summary.find("race"), std::string::npos);

  std::ostringstream Text;
  renderLintText(R, Text);
  EXPECT_NE(Text.str().find("error: [race]"), std::string::npos);

  std::ostringstream Json;
  renderLintJson(R, Json);
  EXPECT_NE(Json.str().find("\"findings\""), std::string::npos);
  EXPECT_NE(Json.str().find("\"errors\": " + std::to_string(R.errorCount())),
            std::string::npos);
}

//===--- Stage::Lint pipeline semantics ----------------------------------------//

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_lint_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

JournalHeader toyFp(const ToyApp &App, const std::string &Extra = "") {
  JournalHeader H;
  H.App = "toy";
  H.Machine = gtx().Name;
  H.Strategy = "exhaustive";
  H.RawSize = App.space().rawSize();
  H.Extra = Extra;
  return H;
}

TEST(LintStage, InjectedLintFaultQuarantinesUnderStageLint) {
  ToyApp App;
  FaultPlan Plan;
  Plan.Targets.push_back({5, Stage::Lint, ErrorCode::LintRace});

  LintOptions Lint;
  Lint.Enabled = true;
  SearchEngine Engine(App, gtx(), {}, {}, Plan, Lint);
  SearchOutcome Out =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  EXPECT_EQ(Out.FailedPerStage[size_t(Stage::Lint)], 1u);
  ASSERT_EQ(Out.Quarantined.size(), 1u);
  EXPECT_EQ(Out.Evals[Out.Quarantined[0]].FlatIndex, 5u);
  EXPECT_EQ(Out.Evals[Out.Quarantined[0]].Failure.Code, ErrorCode::LintRace);
  EXPECT_EQ(Out.Evals[Out.Quarantined[0]].Failure.At, Stage::Lint);

  // The same plan with the gate disabled never consults the injector at
  // Stage::Lint: --inject lint@N without --lint is inert.
  SearchEngine NoLint(App, gtx(), {}, {}, Plan);
  SearchOutcome Inert =
      SweepDriver(NoLint, {}).run(NoLint.planExhaustive()).Outcome;
  EXPECT_TRUE(Inert.Quarantined.empty());
}

TEST(LintStage, CleanSpaceJournalsByteIdenticallyWithTheGate) {
  // The acceptance guarantee behind `tune search --lint`: over a space
  // with no lint findings, a parallel linted sweep writes the same journal
  // bytes as a serial unlinted one.
  ToyApp App;
  SearchEngine Plain(App, gtx());
  SearchEngine Linted(App, gtx(), {}, {}, {}, LintOptions{true});

  SweepOptions A;
  A.JournalPath = tmpPath("ident_plain");
  A.Fingerprint = toyFp(App);
  ASSERT_EQ(SweepDriver(Plain, A).run(Plain.planExhaustive()).Status,
            SweepStatus::Completed);

  SweepOptions B;
  B.JournalPath = tmpPath("ident_lint");
  B.Fingerprint = toyFp(App);
  B.Jobs = 4;
  ASSERT_EQ(SweepDriver(Linted, B).run(Linted.planExhaustive(4)).Status,
            SweepStatus::Completed);

  std::string BytesA = slurp(A.JournalPath);
  ASSERT_FALSE(BytesA.empty());
  EXPECT_EQ(BytesA, slurp(B.JournalPath));
}

TEST(LintStage, QuarantinedSweepResumesAndKeepsAttribution) {
  // A lint-quarantined journaled sweep killed mid-flight must resume to
  // the same outcome, with the quarantine still attributed to Stage::Lint.
  ToyApp App;
  FaultPlan Plan;
  Plan.Targets.push_back({5, Stage::Lint, ErrorCode::LintRace});
  Plan.Targets.push_back({17, Stage::Lint, ErrorCode::LintFailed});
  SearchEngine Engine(App, gtx(), {}, {}, Plan, LintOptions{true});

  std::string Path = tmpPath("resume");
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = toyFp(App, "lint@5,lint@17|lint");
  SweepReport Full = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Full.Status, SweepStatus::Completed);
  EXPECT_EQ(Full.Outcome.FailedPerStage[size_t(Stage::Lint)], 2u);
  EXPECT_EQ(Full.Outcome.Quarantined.size(), 2u);

  // Keep the header plus the first 30 records — a mid-sweep SIGKILL.
  std::ifstream In(Path);
  std::string Line, Kept;
  for (size_t N = 0; N != 31 && std::getline(In, Line); ++N)
    Kept += Line + "\n";
  In.close();
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Kept;

  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 30u);
  EXPECT_EQ(Res.Outcome.FailedPerStage[size_t(Stage::Lint)], 2u);
  EXPECT_EQ(Res.Outcome.Quarantined, Full.Outcome.Quarantined);
  EXPECT_EQ(Res.Outcome.BestIndex, Full.Outcome.BestIndex);
  EXPECT_EQ(Res.Outcome.BestTime, Full.Outcome.BestTime);
  EXPECT_EQ(Res.Outcome.TotalMeasuredSeconds,
            Full.Outcome.TotalMeasuredSeconds);
}

} // namespace
