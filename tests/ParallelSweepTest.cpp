//===- tests/ParallelSweepTest.cpp - parallelFor + parallel sweeps -------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The parallel execution layer, bottom up: parallelFor, parallel
// static-metric evaluation, and the SweepDriver's parallel in-process
// path.  The contract under test everywhere is *bit-identity*: any job
// count must produce the same journal bytes, the same outcome totals, and
// the same quarantine set as a serial run — including under fault
// injection and across a mid-sweep interrupt + resume.  A parallel sweep
// must also journal while it measures, not in a burst at the round's end.
// The bandwidth fast path rides along since it shares the measure() hot
// path.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/Search.h"
#include "core/SweepDriver.h"
#include "kernels/MatMul.h"
#include "support/FaultInjection.h"
#include "support/Json.h"
#include "support/Parallel.h"
#include "support/Subprocess.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_par_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

//===--- parallelFor ----------------------------------------------------------//

TEST(ParallelForTest, TouchesEveryIndexExactlyOnce) {
  const size_t N = 1337;
  std::vector<std::atomic<int>> Hits(N);
  parallelFor(4, N, [&Hits](size_t I) {
    Hits[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Hits[I].load(), 1) << "index " << I;
}

TEST(ParallelForTest, HandlesDegenerateShapes) {
  std::atomic<int> Count{0};
  parallelFor(2, 0, [&Count](size_t) { ++Count; }); // empty range
  EXPECT_EQ(Count.load(), 0);
  parallelFor(100, 3, [&Count](size_t) { ++Count; }); // Jobs > N
  EXPECT_EQ(Count.load(), 3);
  // Jobs = 0 runs inline, in index order.
  std::vector<size_t> Seen;
  std::thread::id Caller = std::this_thread::get_id();
  parallelFor(0, 5, [&](size_t I) {
    EXPECT_EQ(std::this_thread::get_id(), Caller);
    Seen.push_back(I);
  });
  EXPECT_EQ(Seen, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, DefaultJobsIsAtLeastOne) {
  EXPECT_GE(defaultJobs(), 1u);
}

//===--- Parallel static-metric evaluation -------------------------------------//

TEST(ParallelEvaluation, MetricsIdenticalForAnyJobCount) {
  MatMulApp App(MatMulProblem::emulation());
  // Fresh evaluators: the memo would otherwise hand the second call a
  // copy of the first result and prove nothing.
  Evaluator Serial(App, gtx());
  Evaluator Parallel(App, gtx());
  std::vector<ConfigEval> A = Serial.evaluateMetrics(1);
  std::vector<ConfigEval> B = Parallel.evaluateMetrics(8);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].FlatIndex, B[I].FlatIndex);
    EXPECT_EQ(A[I].Point, B[I].Point);
    EXPECT_EQ(A[I].Expressible, B[I].Expressible);
    EXPECT_EQ(A[I].Metrics.Valid, B[I].Metrics.Valid);
    EXPECT_EQ(A[I].Metrics.Efficiency, B[I].Metrics.Efficiency);
    EXPECT_EQ(A[I].Metrics.Utilization, B[I].Metrics.Utilization);
    EXPECT_EQ(A[I].EfficiencyTotal, B[I].EfficiencyTotal);
    EXPECT_EQ(A[I].failed(), B[I].failed());
  }
}

TEST(ParallelEvaluation, MemoizedSecondCallMatchesFirst) {
  ToyApp App(5);
  Evaluator E(App, gtx());
  std::vector<ConfigEval> First = E.evaluateMetrics(4);
  std::vector<ConfigEval> Second = E.evaluateMetrics(1);
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I != First.size(); ++I) {
    EXPECT_EQ(First[I].FlatIndex, Second[I].FlatIndex);
    EXPECT_EQ(First[I].EfficiencyTotal, Second[I].EfficiencyTotal);
  }
}

TEST(ParallelEvaluation, PlansIdenticalForAnyJobCount) {
  MatMulApp App(MatMulProblem::emulation());
  SweepPlan A = SearchEngine(App, gtx()).planExhaustive(1);
  SweepPlan B = SearchEngine(App, gtx()).planExhaustive(8);
  EXPECT_EQ(A.Strategy, B.Strategy);
  EXPECT_EQ(A.Candidates, B.Candidates);
  ASSERT_EQ(A.Evals.size(), B.Evals.size());
}

//===--- Parallel sweeps: byte-identity ----------------------------------------//

const ToyApp &toy100() {
  static ToyApp App(20);
  return App;
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

void expectEqualOutcomes(const SearchOutcome &Got,
                         const SearchOutcome &Want) {
  EXPECT_EQ(Got.Candidates, Want.Candidates);
  EXPECT_EQ(Got.Quarantined, Want.Quarantined);
  EXPECT_EQ(Got.BestIndex, Want.BestIndex);
  EXPECT_EQ(Got.BestTime, Want.BestTime);
  EXPECT_EQ(Got.TotalMeasuredSeconds, Want.TotalMeasuredSeconds);
  ASSERT_EQ(Got.Evals.size(), Want.Evals.size());
  for (size_t I = 0; I != Got.Evals.size(); ++I) {
    EXPECT_EQ(Got.Evals[I].Measured, Want.Evals[I].Measured) << I;
    EXPECT_EQ(Got.Evals[I].TimeSeconds, Want.Evals[I].TimeSeconds) << I;
    EXPECT_EQ(Got.Evals[I].Sim.Cycles, Want.Evals[I].Sim.Cycles) << I;
  }
}

/// Runs toy100's exhaustive sweep at the given job count, journaling to a
/// fresh file; returns the report after asserting completion.
SweepReport runToySweep(const SearchEngine &Engine, const std::string &Path,
                        unsigned Jobs, const std::string &Extra = "") {
  clearSweepInterrupt();
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = toyFp(toy100(), Extra);
  Opts.Jobs = Jobs;
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  EXPECT_EQ(Rep.Status, SweepStatus::Completed);
  return Rep;
}

TEST(ParallelSweep, JournalBytesIdenticalToSerial) {
  SearchEngine Engine(toy100(), gtx());
  std::string SerialPath = tmpPath("bytes_j1");
  std::string ParallelPath = tmpPath("bytes_j8");
  SweepReport Serial = runToySweep(Engine, SerialPath, 1);
  SweepReport Parallel = runToySweep(Engine, ParallelPath, 8);

  std::string SerialBytes = slurp(SerialPath);
  ASSERT_FALSE(SerialBytes.empty());
  EXPECT_EQ(SerialBytes, slurp(ParallelPath));
  expectEqualOutcomes(Parallel.Outcome, Serial.Outcome);
}

TEST(ParallelSweep, FaultInjectionPreservesByteIdentity) {
  // Injected in-process crash/hang actions and probabilistic simulate
  // faults must quarantine the same configs in the same (journal) order
  // at any job count.
  FaultPlan Plan;
  Plan.Actions.push_back({7, FaultAction::Crash});
  Plan.Actions.push_back({13, FaultAction::Hang});
  Plan.Rate[size_t(Stage::Simulate)] = 0.1;
  Plan.Seed = 42;
  SearchEngine Engine(toy100(), gtx(), {}, {}, Plan);

  std::string SerialPath = tmpPath("fault_j1");
  std::string ParallelPath = tmpPath("fault_j8");
  SweepReport Serial =
      runToySweep(Engine, SerialPath, 1, "crash@7,hang@13,sim=0.1");
  SweepReport Parallel =
      runToySweep(Engine, ParallelPath, 8, "crash@7,hang@13,sim=0.1");

  EXPECT_FALSE(Serial.Outcome.Quarantined.empty());
  EXPECT_EQ(slurp(SerialPath), slurp(ParallelPath));
  expectEqualOutcomes(Parallel.Outcome, Serial.Outcome);
  EXPECT_EQ(Parallel.Outcome.Evals[7].Failure.Code,
            ErrorCode::WorkerCrashed);
  EXPECT_EQ(Parallel.Outcome.Evals[13].Failure.Code,
            ErrorCode::WorkerTimeout);
}

TEST(ParallelSweep, InterruptThenResumeReachesSerialBytes) {
  // A graceful interrupt (as SIGTERM would deliver) lands after the 7th
  // committed record of a parallel sweep; resuming — still parallel —
  // must finish with journal bytes identical to an uninterrupted serial
  // sweep's.
  SearchEngine Engine(toy100(), gtx());
  std::string WantPath = tmpPath("intr_want");
  SweepReport Want = runToySweep(Engine, WantPath, 1);

  std::string Path = tmpPath("intr_got");
  clearSweepInterrupt();
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = toyFp(toy100());
  Opts.Jobs = 8;
  SweepReport Cut =
      SweepDriver(Engine, stopAfter(Opts, 7)).run(Engine.planExhaustive());
  ASSERT_EQ(Cut.Status, SweepStatus::Interrupted);

  // The committed prefix is a prefix of the serial journal, byte for byte.
  std::string Prefix = slurp(Path);
  ASSERT_FALSE(Prefix.empty());
  EXPECT_EQ(slurp(WantPath).compare(0, Prefix.size(), Prefix), 0);

  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 7u);
  EXPECT_EQ(slurp(Path), slurp(WantPath));
  expectEqualOutcomes(Res.Outcome, Want.Outcome);
}

TEST(ParallelSweep, InterruptUnderInjectionStaysResumable) {
  FaultPlan Plan;
  Plan.Actions.push_back({3, FaultAction::Crash});
  SearchEngine Engine(toy100(), gtx(), {}, {}, Plan);
  std::string WantPath = tmpPath("intrinj_want");
  SweepReport Want = runToySweep(Engine, WantPath, 1, "crash@3");

  std::string Path = tmpPath("intrinj_got");
  clearSweepInterrupt();
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = toyFp(toy100(), "crash@3");
  Opts.Jobs = 4;
  // Stop past the quarantined config.
  SweepReport Cut =
      SweepDriver(Engine, stopAfter(Opts, 10)).run(Engine.planExhaustive());
  ASSERT_EQ(Cut.Status, SweepStatus::Interrupted);

  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 10u);
  EXPECT_EQ(slurp(Path), slurp(WantPath));
  expectEqualOutcomes(Res.Outcome, Want.Outcome);
}

TEST(ParallelSweep, JobsWarnedAndIgnoredUnderIsolation) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  clearSweepInterrupt();
  SearchEngine Engine(toy100(), gtx());
  SweepOptions Opts;
  Opts.Isolate = true;
  Opts.Jobs = 4;
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  bool Warned = false;
  for (const std::string &W : Rep.Warnings)
    Warned |= W.find("--jobs is ignored with --isolate") != std::string::npos;
  EXPECT_TRUE(Warned);
  SearchOutcome Want =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;
  expectEqualOutcomes(Rep.Outcome, Want);
}

TEST(ParallelSweep, JournalsWhileMeasuring) {
  // Threads claim a round front to back, and the in-order committer
  // journals each record once it and every earlier one are measured, so
  // records reach the journal while the round is still being measured.
  // How fast the journal drains is the disk's fdatasync latency, and how
  // soon a claimed configuration runs is the scheduler's, so the checks
  // read the trace for what the sweep controls: the first half of the
  // simulations to start are mostly the plan's first half, and the
  // committer begins journaling before half of them have ended.
  MatMulApp App(MatMulProblem::bench());
  SearchEngine Engine(App, gtx());
  SweepPlan Plan = Engine.planExhaustive();
  std::string TracePath = tmpPath("stream_trace");
  clearSweepInterrupt();
  SweepOptions Opts;
  Opts.JournalPath = tmpPath("stream");
  Opts.Fingerprint.App = "matmul";
  Opts.Fingerprint.Machine = gtx().Name;
  Opts.Fingerprint.Strategy = "exhaustive";
  Opts.Fingerprint.RawSize = App.space().rawSize();
  Opts.Jobs = 4;
  {
    Expected<Tracer> T = Tracer::toFile(TracePath);
    ASSERT_TRUE(T.ok());
    ScopedTracer Install(&*T);
    SweepReport Rep = SweepDriver(Engine, Opts).run(Plan);
    ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  }

  std::map<uint64_t, size_t> PlanPos; // Flat index -> position in the plan.
  for (size_t P = 0; P != Plan.Candidates.size(); ++P)
    PlanPos[Plan.Evals[Plan.Candidates[P]].FlatIndex] = P;
  std::vector<std::pair<uint64_t, size_t>> Starts; // (start, plan position)
  std::vector<uint64_t> Ends, JournalStarts;
  std::ifstream In(TracePath);
  for (std::string Line; std::getline(In, Line);) {
    std::string Name;
    uint64_t Idx = 0, Start = 0, Dur = 0;
    if (!jsonStringField(Line, "name", Name) ||
        !jsonUintField(Line, "idx", Idx) ||
        !jsonUintField(Line, "start_us", Start) ||
        !jsonUintField(Line, "dur_us", Dur))
      continue;
    if (Name == "simulate") {
      Starts.push_back({Start, PlanPos.at(Idx)});
      Ends.push_back(Start + Dur);
    } else if (Name == "journal") {
      JournalStarts.push_back(Start);
    }
  }
  ASSERT_EQ(PlanPos.size(), 96u);
  ASSERT_EQ(Starts.size(), 96u);
  ASSERT_EQ(JournalStarts.size(), 96u);

  const size_t Half = 48;
  std::sort(Starts.begin(), Starts.end());
  size_t FrontFirst = size_t(std::count_if(
      Starts.begin(), Starts.begin() + Half,
      [&](const auto &S) { return S.second < Half; }));
  EXPECT_GE(FrontFirst, 36u);
  std::sort(Ends.begin(), Ends.end());
  EXPECT_LE(*std::min_element(JournalStarts.begin(), JournalStarts.end()),
            Ends[Half - 1]);
}

//===--- Bandwidth fast path ----------------------------------------------------//

TEST(BandwidthFastPath, EstimateAgreesLooselyWithSimulation) {
  // The analytic bound is a screen, not a simulator: demand only that it
  // lands within a small constant factor of the simulated cycle count
  // for a bandwidth-bound configuration, and that it flags itself.
  MatMulApp App(MatMulProblem::emulation());
  Evaluator E(App, gtx());
  std::vector<ConfigEval> Evals = E.evaluateMetrics();
  size_t Checked = 0;
  for (const ConfigEval &CE : Evals) {
    if (!CE.usable() || !CE.Metrics.bandwidthBound())
      continue;
    Kernel K = App.buildKernel(CE.Point);
    LaunchConfig LC = App.launch(CE.Point);
    Expected<SimResult> Fast = estimateBandwidthBoundKernel(K, LC, gtx());
    ASSERT_TRUE(Fast.ok()) << Fast.diag().Message;
    EXPECT_TRUE(Fast->BandwidthFastPath);
    Expected<SimResult> Sim = simulateKernel(K, LC, gtx());
    ASSERT_TRUE(Sim.ok()) << Sim.diag().Message;
    EXPECT_FALSE(Sim->BandwidthFastPath);
    ASSERT_GT(Sim->Cycles, 0u);
    double Ratio = double(Fast->Cycles) / double(Sim->Cycles);
    EXPECT_GT(Ratio, 0.25) << "config #" << CE.FlatIndex;
    EXPECT_LT(Ratio, 4.0) << "config #" << CE.FlatIndex;
    if (++Checked == 8)
      break;
  }
  ASSERT_GT(Checked, 0u) << "no bandwidth-bound configs in the space";
}

TEST(BandwidthFastPath, MeasureUsesItOnlyWhenEnabledAndBound) {
  MatMulApp App(MatMulProblem::emulation());
  SimOptions SOpts;
  SOpts.BandwidthFastPath = true;
  Evaluator Fast(App, gtx(), {}, SOpts);
  Evaluator Slow(App, gtx());
  std::vector<ConfigEval> Evals = Fast.evaluateMetrics();

  size_t Bound = 0, Unbound = 0;
  for (ConfigEval &CE : Evals) {
    if (!CE.usable() || (Bound >= 4 && Unbound >= 4))
      continue;
    ConfigEval Plain = CE;
    ASSERT_TRUE(Fast.measure(CE)) << CE.Failure.Message;
    ASSERT_TRUE(Slow.measure(Plain)) << Plain.Failure.Message;
    if (CE.Metrics.bandwidthBound()) {
      ++Bound;
      EXPECT_TRUE(CE.Sim.BandwidthFastPath) << CE.FlatIndex;
    } else {
      ++Unbound;
      EXPECT_FALSE(CE.Sim.BandwidthFastPath) << CE.FlatIndex;
      // Off the fast path the two evaluators must agree exactly.
      EXPECT_EQ(CE.Sim.Cycles, Plain.Sim.Cycles) << CE.FlatIndex;
    }
    EXPECT_FALSE(Plain.Sim.BandwidthFastPath);
  }
  EXPECT_GT(Bound, 0u);
  EXPECT_GT(Unbound, 0u);
}

TEST(BandwidthFastPath, ParallelSweepWithFastPathStaysDeterministic) {
  MatMulApp App(MatMulProblem::emulation());
  SimOptions SOpts;
  SOpts.BandwidthFastPath = true;
  SearchEngine Engine(App, gtx(), {}, SOpts);

  auto Run = [&](const std::string &Path, unsigned Jobs) {
    clearSweepInterrupt();
    SweepOptions Opts;
    Opts.JournalPath = Path;
    Opts.Fingerprint.App = std::string(App.name());
    Opts.Fingerprint.Machine = gtx().Name;
    Opts.Fingerprint.Strategy = "exhaustive";
    Opts.Fingerprint.RawSize = App.space().rawSize();
    Opts.Fingerprint.Extra = "|fastbw";
    Opts.Jobs = Jobs;
    SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
    EXPECT_EQ(Rep.Status, SweepStatus::Completed);
    return Rep;
  };
  std::string A = tmpPath("fastbw_j1"), B = tmpPath("fastbw_j8");
  SweepReport Serial = Run(A, 1);
  SweepReport Parallel = Run(B, 8);
  EXPECT_EQ(slurp(A), slurp(B));
  expectEqualOutcomes(Parallel.Outcome, Serial.Outcome);

  // The fast-path flag round-trips through the journal: a resume restores
  // it rather than re-simulating.
  bool SawFlag = false;
  for (size_t I : Serial.Outcome.Candidates)
    SawFlag |= Serial.Outcome.Evals[I].Sim.BandwidthFastPath;
  EXPECT_TRUE(SawFlag);
  clearSweepInterrupt();
  SweepOptions Opts;
  Opts.JournalPath = A;
  Opts.Fingerprint.App = std::string(App.name());
  Opts.Fingerprint.Machine = gtx().Name;
  Opts.Fingerprint.Strategy = "exhaustive";
  Opts.Fingerprint.RawSize = App.space().rawSize();
  Opts.Fingerprint.Extra = "|fastbw";
  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, Serial.Outcome.Candidates.size());
  for (size_t I : Serial.Outcome.Candidates)
    EXPECT_EQ(Res.Outcome.Evals[I].Sim.BandwidthFastPath,
              Serial.Outcome.Evals[I].Sim.BandwidthFastPath);
}

} // namespace
