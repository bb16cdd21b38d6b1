//===- tests/SimulatorTest.cpp - timing simulator tests ----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Simulator.h"

#include "ptx/Builder.h"
#include "ptx/ResourceEstimator.h"
#include "sim/Trace.h"

#include <gtest/gtest.h>

using namespace g80;

namespace {

/// An ALU-only kernel: Chain dependent adds, Iters loop iterations.
Kernel makeAluKernel(unsigned Chain, unsigned Iters) {
  KernelBuilder B("alu");
  Reg V = B.mov(B.imm(1.0f));
  B.forLoop(Iters, [&] {
    for (unsigned I = 0; I != Chain; ++I)
      B.emitTo(V, Opcode::AddF, V, B.imm(1.0f));
  });
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.shli(Tx, B.imm(2));
  B.stGlobal(Out, Addr, 0, V);
  return B.take();
}

/// A streaming kernel: Loads per iteration consumed immediately.
Kernel makeStreamKernel(unsigned Iters, unsigned EffBytes) {
  KernelBuilder B("stream");
  unsigned In = B.addGlobalPtr("in");
  unsigned Out = B.addGlobalPtr("out");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.shli(Tx, B.imm(2));
  Reg Acc = B.mov(B.imm(0.0f));
  B.forLoop(Iters, [&] {
    Reg V = B.ldGlobal(In, Addr, 0, EffBytes);
    B.emitTo(Acc, Opcode::AddF, Acc, V);
    B.addiTo(Addr, Addr, B.imm(128));
  });
  B.stGlobal(Out, Addr, 0, Acc, EffBytes);
  return B.take();
}

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

//===--- Trace construction ----------------------------------------------------//

TEST(Trace, LoopStructureAndSyntheticControl) {
  Kernel K = makeAluKernel(2, 5);
  TraceProgram P = buildTrace(K);
  // mov, LoopBegin, 2 adds + 3 synthetic, LoopEnd, mov tx, shli, st.
  unsigned Begins = 0, Ends = 0, Instrs = 0, Synth = 0;
  for (const TraceEntry &E : P.Entries) {
    switch (E.K) {
    case TraceEntry::Kind::LoopBegin:
      ++Begins;
      EXPECT_EQ(E.TripCount, 5u);
      break;
    case TraceEntry::Kind::LoopEnd:
      ++Ends;
      EXPECT_EQ(P.Entries[E.Match].K, TraceEntry::Kind::LoopBegin);
      break;
    case TraceEntry::Kind::Instr:
      ++Instrs;
      Synth += E.SyntheticCtl;
      break;
    }
  }
  EXPECT_EQ(Begins, 1u);
  EXPECT_EQ(Ends, 1u);
  EXPECT_EQ(Synth, 3u);
  EXPECT_EQ(Instrs, 4u + 2u + 3u);
  EXPECT_EQ(P.MaxLoopDepth, 1u);
  EXPECT_EQ(P.NumRegs, K.numVRegs() + 2);
}

TEST(Trace, DivergentIfInlinesBothSides) {
  KernelBuilder B("k");
  Reg P = B.setpi(CmpKind::Lt, B.special(SpecialReg::TidX), B.imm(4));
  B.ifThenElse(
      P, /*Uniform=*/false, [&] { B.mov(B.imm(1)); },
      [&] { B.mov(B.imm(2)); });
  Kernel K1 = B.take();
  EXPECT_EQ(buildTrace(K1).Entries.size(), 3u); // setp + both sides.

  KernelBuilder B2("k2");
  Reg P2 = B2.setpi(CmpKind::Lt, B2.special(SpecialReg::CtaIdX), B2.imm(4));
  B2.ifThenElse(
      P2, /*Uniform=*/true, [&] { B2.mov(B2.imm(1)); },
      [&] { B2.mov(B2.imm(2)); });
  Kernel K2 = B2.take();
  EXPECT_EQ(buildTrace(K2).Entries.size(), 2u); // setp + then only.
}

//===--- Core sanity -------------------------------------------------------------//

TEST(Simulator, Deterministic) {
  Kernel K = makeStreamKernel(50, 4);
  LaunchConfig LC(Dim3(64), Dim3(128));
  Expected<SimResult> A = simulateKernel(K, LC, gtx());
  Expected<SimResult> B = simulateKernel(K, LC, gtx());
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(A->Cycles, B->Cycles);
  EXPECT_EQ(A->IssuedWarpInstrs, B->IssuedWarpInstrs);
  EXPECT_EQ(A->IssueStallCycles, B->IssueStallCycles);
}

TEST(Simulator, IssueCountMatchesProfile) {
  // Warp-instruction issues = warps * (trace instructions per warp).
  Kernel K = makeAluKernel(3, 7);
  LaunchConfig LC(Dim3(16), Dim3(64)); // 1 block/SM, 2 warps each.
  Expected<SimResult> R = simulateKernel(K, LC, gtx());
  ASSERT_TRUE(R.ok());
  uint64_t PerWarp = 1 + 7 * (3 + 3) + 3; // prologue + loop + epilogue.
  EXPECT_EQ(R->IssuedWarpInstrs, 2u * PerWarp);
  EXPECT_EQ(R->SyntheticCtlInstrs, 2u * 7u * 3u);
  EXPECT_EQ(R->BlocksRun, 1u);
}

TEST(Simulator, CyclesLowerBoundedByIssueBandwidth) {
  Kernel K = makeAluKernel(4, 100);
  LaunchConfig LC(Dim3(16), Dim3(256));
  Expected<SimResult> R = simulateKernel(K, LC, gtx());
  ASSERT_TRUE(R.ok());
  // One warp instruction per 4 cycles at best.
  EXPECT_GE(R->Cycles, R->IssuedWarpInstrs * 4u);
  EXPECT_LE(R->issueUtilization(), 1.0);
  EXPECT_GE(R->issueUtilization(), 0.0);
}

TEST(Simulator, InvalidOccupancyReported) {
  KernelBuilder B("huge");
  B.addShared("pad", 17000);
  B.mov(B.imm(1.0f));
  Kernel K = B.take();
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(1), Dim3(64)), gtx());
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::OccupancyInvalid);
  EXPECT_EQ(R.diag().At, Stage::Occupancy);
}

TEST(Simulator, MoreThan64ResidentWarpsRefused) {
  // The scheduler keeps warp sets in 64-bit masks, so a machine whose SM
  // would hold 128 warps is refused before anything is simulated.
  MachineModel Big = gtx();
  Big.MaxThreadsPerSM = 4096;
  Big.MaxBlocksPerSM = 16;
  Big.RegistersPerSM = 1 << 20;
  Big.SharedMemPerSMBytes = 1 << 20;
  Kernel K = makeAluKernel(1, 1);
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(64), Dim3(256)), Big);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::OccupancyInvalid);
  EXPECT_EQ(R.diag().At, Stage::Simulate);
  EXPECT_EQ(R.diag().Message, "SM would hold 128 resident warps; the "
                              "simulator models at most 64");

  // No factory machine comes near: at every block size, even a kernel
  // using no registers or shared memory fits in 64 warps, and this
  // kernel's fullest residency simulates.
  const MachineModel Factories[] = {gtx(), MachineModel::hypotheticalNextGen(),
                                    MachineModel::testDevice()};
  for (const MachineModel &M : Factories) {
    SCOPED_TRACE(M.Name);
    KernelResources Used = estimateResources(K, M);
    unsigned FullestTpb = 1, FullestWarps = 0;
    for (unsigned Tpb = 1; Tpb <= M.MaxThreadsPerBlock; ++Tpb) {
      EXPECT_LE(computeOccupancy(M, Tpb, {}).warpsPerSM(), 64u);
      unsigned Warps = computeOccupancy(M, Tpb, Used).warpsPerSM();
      if (Warps > FullestWarps) {
        FullestWarps = Warps;
        FullestTpb = Tpb;
      }
    }
    LaunchConfig Fullest(Dim3(M.NumSMs * M.MaxBlocksPerSM), Dim3(FullestTpb));
    Expected<SimResult> Sim = simulateKernel(K, Fullest, M);
    ASSERT_TRUE(Sim.ok()) << Sim.diag().Message;
    EXPECT_EQ(Sim->Occ.warpsPerSM(), FullestWarps);
  }
}

TEST(Simulator, EmptyGridIsZeroTime) {
  Kernel K = makeAluKernel(1, 1);
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(0), Dim3(64)), gtx());
  EXPECT_TRUE(R.ok());
  EXPECT_EQ(R->Cycles, 0u);
}

//===--- Latency hiding ----------------------------------------------------------//

TEST(Simulator, MoreWarpsHideMemoryLatency) {
  // Same per-thread work; more resident warps must not hurt and should
  // substantially reduce stall fraction for a latency-bound stream.
  Kernel K = makeStreamKernel(100, 4);
  Expected<SimResult> OneWarp =
      simulateKernel(K, LaunchConfig(Dim3(16), Dim3(32)), gtx());
  Expected<SimResult> ManyWarps =
      simulateKernel(K, LaunchConfig(Dim3(16 * 8), Dim3(32)), gtx());
  ASSERT_TRUE(OneWarp.ok() && ManyWarps.ok());
  // 8x the work in much less than 8x the time.
  EXPECT_LT(double(ManyWarps->Cycles), 4.0 * double(OneWarp->Cycles));
  EXPECT_GT(ManyWarps->issueUtilization(), OneWarp->issueUtilization());
}

TEST(Simulator, DependentChainSlowerThanIndependent) {
  // One warp: a dependent FP chain exposes ALU latency; independent adds
  // pipeline.  (Construct both with equal instruction counts.)
  KernelBuilder BD("dep");
  Reg V = BD.mov(BD.imm(1.0f));
  for (int I = 0; I != 64; ++I)
    BD.emitTo(V, Opcode::AddF, V, BD.imm(1.0f));
  unsigned OutD = BD.addGlobalPtr("out");
  BD.stGlobal(OutD, Operand(), 0, V);
  Kernel KD = BD.take();

  KernelBuilder BI("indep");
  std::vector<Reg> Vs;
  for (int I = 0; I != 8; ++I)
    Vs.push_back(BI.mov(BI.imm(1.0f)));
  for (int I = 0; I != 56; ++I)
    BI.emitTo(Vs[I % 8], Opcode::AddF, Vs[I % 8], BI.imm(1.0f));
  unsigned OutI = BI.addGlobalPtr("out");
  BI.stGlobal(OutI, Operand(), 0, Vs[0]);
  Kernel KI = BI.take();

  LaunchConfig LC(Dim3(16), Dim3(32)); // One warp per SM.
  Expected<SimResult> RD = simulateKernel(KD, LC, gtx());
  Expected<SimResult> RI = simulateKernel(KI, LC, gtx());
  ASSERT_TRUE(RD.ok() && RI.ok());
  EXPECT_GT(RD->Cycles, RI->Cycles);
}

//===--- Bandwidth model -----------------------------------------------------------//

TEST(Simulator, UncoalescedConsumesMoreBandwidthTime) {
  Kernel Coal = makeStreamKernel(200, 4);
  Kernel Uncoal = makeStreamKernel(200, 32);
  LaunchConfig LC(Dim3(16 * 16), Dim3(256));
  Expected<SimResult> RC = simulateKernel(Coal, LC, gtx());
  Expected<SimResult> RU = simulateKernel(Uncoal, LC, gtx());
  ASSERT_TRUE(RC.ok() && RU.ok());
  EXPECT_GT(RU->Cycles, RC->Cycles);
  EXPECT_GT(RU->MemQueueWaitCycles, RC->MemQueueWaitCycles);
}

TEST(Simulator, BandwidthBoundTimeTracksTraffic) {
  // Fully uncoalesced stream: time should approach traffic / bandwidth.
  unsigned Iters = 100;
  Kernel K = makeStreamKernel(Iters, 32);
  MachineModel M = gtx();
  unsigned WarpsPerSM = 8;
  LaunchConfig LC(Dim3(16 * WarpsPerSM), Dim3(32));
  Expected<SimResult> R = simulateKernel(K, LC, M);
  ASSERT_TRUE(R.ok());
  double Bytes = double(WarpsPerSM) * 32 * (Iters + 1) * 32; // Per SM.
  double MinCycles = Bytes / M.globalBytesPerCyclePerSM();
  EXPECT_GE(double(R->Cycles), MinCycles * 0.95);
  EXPECT_LE(double(R->Cycles), MinCycles * 1.8);
}

TEST(Simulator, MoreBandwidthNeverSlower) {
  Kernel K = makeStreamKernel(150, 32);
  LaunchConfig LC(Dim3(128), Dim3(128));
  MachineModel Slow = gtx();
  MachineModel Fast = gtx();
  Fast.GlobalBandwidthGBps *= 2;
  Expected<SimResult> RS = simulateKernel(K, LC, Slow);
  Expected<SimResult> RF = simulateKernel(K, LC, Fast);
  ASSERT_TRUE(RS.ok() && RF.ok());
  EXPECT_LE(RF->Cycles, RS->Cycles);
}

TEST(Simulator, LowerLatencyNeverSlower) {
  Kernel K = makeStreamKernel(100, 4);
  LaunchConfig LC(Dim3(64), Dim3(64));
  MachineModel Slow = gtx();
  MachineModel Fast = gtx();
  Fast.GlobalLatencyCycles = 100;
  Expected<SimResult> RS = simulateKernel(K, LC, Slow);
  Expected<SimResult> RF = simulateKernel(K, LC, Fast);
  EXPECT_LE(RF->Cycles, RS->Cycles);
}

//===--- Barriers ------------------------------------------------------------------//

TEST(Simulator, BarriersCostTime) {
  auto Make = [](bool WithBars) {
    KernelBuilder B("k");
    unsigned In = B.addGlobalPtr("in");
    Reg Tx = B.mov(B.special(SpecialReg::TidX));
    Reg Addr = B.shli(Tx, B.imm(2));
    Reg Acc = B.mov(B.imm(0.0f));
    B.forLoop(50, [&] {
      Reg V = B.ldGlobal(In, Addr, 0);
      B.emitTo(Acc, Opcode::AddF, Acc, V);
      if (WithBars)
        B.bar();
    });
    B.stGlobal(In, Addr, 0, Acc);
    return B.take();
  };
  LaunchConfig LC(Dim3(32), Dim3(256));
  Expected<SimResult> NoBar = simulateKernel(Make(false), LC, gtx());
  Expected<SimResult> Bar = simulateKernel(Make(true), LC, gtx());
  ASSERT_TRUE(NoBar.ok() && Bar.ok());
  EXPECT_GT(Bar->Cycles, NoBar->Cycles);
}

TEST(Simulator, BarrierKernelCompletes) {
  // Barrier handling must not deadlock across block waves.
  KernelBuilder B("barwave");
  unsigned In = B.addGlobalPtr("in");
  Reg Tx = B.mov(B.special(SpecialReg::TidX));
  Reg Addr = B.shli(Tx, B.imm(2));
  B.forLoop(10, [&] {
    B.bar();
    B.ldGlobal(In, Addr, 0);
    B.bar();
  });
  Kernel K = B.take();
  Expected<SimResult> R =
      simulateKernel(K, LaunchConfig(Dim3(64), Dim3(96)), gtx());
  ASSERT_TRUE(R.ok());
  EXPECT_GT(R->Cycles, 0u);
}

//===--- SFU --------------------------------------------------------------------------//

TEST(Simulator, SfuIssueIsSlower) {
  auto Make = [](bool Sfu) {
    KernelBuilder B("k");
    unsigned Out = B.addGlobalPtr("out");
    Reg V = B.mov(B.imm(1.0f));
    B.forLoop(100, [&] {
      if (Sfu)
        B.emitTo(V, Opcode::RsqrtF, V);
      else
        B.emitTo(V, Opcode::AddF, V, B.imm(1.0f));
    });
    B.stGlobal(Out, Operand(), 0, V);
    return B.take();
  };
  LaunchConfig LC(Dim3(16 * 3), Dim3(256)); // Plenty of warps.
  Expected<SimResult> Alu = simulateKernel(Make(false), LC, gtx());
  Expected<SimResult> Sfu = simulateKernel(Make(true), LC, gtx());
  ASSERT_TRUE(Alu.ok() && Sfu.ok());
  // SFU ops hold the issue port 16 cycles instead of 4; with the 3
  // loop-control ALU issues per iteration the port-bound cost ratio is
  // (16 + 3*4) / (4 + 3*4) = 1.75.
  EXPECT_NEAR(double(Sfu->Cycles) / double(Alu->Cycles), 1.75, 0.1);
}

//===--- Block scheduling ----------------------------------------------------------//

TEST(Simulator, WavesScaleLinearly) {
  Kernel K = makeAluKernel(4, 50);
  Expected<SimResult> OneWave =
      simulateKernel(K, LaunchConfig(Dim3(16 * 3), Dim3(256)), gtx());
  Expected<SimResult> FourWaves =
      simulateKernel(K, LaunchConfig(Dim3(16 * 12), Dim3(256)), gtx());
  ASSERT_TRUE(OneWave.ok() && FourWaves.ok());
  // Four times the blocks through the same resident capacity: about
  // four times the time.
  EXPECT_NEAR(double(FourWaves->Cycles) / double(OneWave->Cycles), 4.0, 0.8);
}

TEST(Simulator, BusiestSmDeterminesTime) {
  // 17 blocks on 16 SMs: one SM runs two -> roughly 2x one block's time.
  Kernel K = makeAluKernel(4, 50);
  Expected<SimResult> One =
      simulateKernel(K, LaunchConfig(Dim3(16), Dim3(64)), gtx());
  Expected<SimResult> Two =
      simulateKernel(K, LaunchConfig(Dim3(17), Dim3(64)), gtx());
  ASSERT_TRUE(One.ok() && Two.ok());
  EXPECT_GT(Two->Cycles, One->Cycles);
}

} // namespace
