//===- tests/TraceTest.cpp - tracer, report library, observability E2E ----===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The observability layer, bottom up: the JSONL tracer (span nesting,
// counter thread-safety under parallelFor, round-trip through
// readTraceSummary), the EvalRecord wire-format extensions (sim counters
// and occupancy through JSON and CSV, old-journal compatibility), the
// report aggregation (quarantine breakdown, attribution, top-N slowest),
// and the layer's one hard invariant end to end: a traced parallel sweep
// journal is byte-identical to a serial untraced one.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/EvalRecord.h"
#include "core/Report.h"
#include "core/Search.h"
#include "core/SweepDriver.h"
#include "support/Csv.h"
#include "support/FaultInjection.h"
#include "support/Journal.h"
#include "support/Parallel.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_trace_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

std::vector<std::string> lines(const std::string &Text) {
  std::vector<std::string> Out;
  std::istringstream In(Text);
  std::string L;
  while (std::getline(In, L))
    Out.push_back(L);
  return Out;
}

//===--- Tracer ---------------------------------------------------------------//

TEST(TracerTest, WritesMetaLineAndSpans) {
  std::string Path = tmpPath("meta");
  {
    Expected<Tracer> T = Tracer::toFile(Path);
    ASSERT_TRUE(T.ok()) << T.diag().Message;
    ScopedTracer Install(&*T);
    { TraceSpan S("alpha", 7); }
    EXPECT_EQ(T->spanCount(), 1u);
  }
  std::vector<std::string> L = lines(slurp(Path));
  ASSERT_GE(L.size(), 2u);
  EXPECT_NE(L[0].find("\"type\":\"meta\""), std::string::npos);
  EXPECT_NE(L[0].find("\"g80trace\":1"), std::string::npos);
  EXPECT_NE(L[1].find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(L[1].find("\"idx\":7"), std::string::npos);
}

TEST(TracerTest, NestedSpansRecordDepthAndContainment) {
  std::string Path = tmpPath("nesting");
  {
    Expected<Tracer> T = Tracer::toFile(Path);
    ASSERT_TRUE(T.ok());
    ScopedTracer Install(&*T);
    TraceSpan Outer("outer");
    { TraceSpan Inner("inner"); }
  }
  // Spans complete innermost-first, so the inner line precedes the outer.
  std::vector<std::string> L = lines(slurp(Path));
  ASSERT_EQ(L.size(), 3u); // meta, inner, outer.
  uint64_t InnerStart = 0, InnerDur = 0, InnerDepth = 0;
  uint64_t OuterStart = 0, OuterDur = 0, OuterDepth = 0;
  ASSERT_TRUE(jsonUintField(L[1], "start_us", InnerStart));
  ASSERT_TRUE(jsonUintField(L[1], "dur_us", InnerDur));
  ASSERT_TRUE(jsonUintField(L[1], "depth", InnerDepth));
  ASSERT_TRUE(jsonUintField(L[2], "start_us", OuterStart));
  ASSERT_TRUE(jsonUintField(L[2], "dur_us", OuterDur));
  ASSERT_TRUE(jsonUintField(L[2], "depth", OuterDepth));
  EXPECT_EQ(OuterDepth, 1u);
  EXPECT_EQ(InnerDepth, 2u);
  EXPECT_GE(InnerStart, OuterStart);
  EXPECT_LE(InnerStart + InnerDur, OuterStart + OuterDur);
  // The configuration index is omitted when not supplied.
  EXPECT_EQ(L[1].find("\"idx\""), std::string::npos);
}

TEST(TracerTest, SpansAreNoOpsWithoutAnInstalledTracer) {
  EXPECT_EQ(activeTracer(), nullptr);
  { TraceSpan S("ignored"); }
  traceCount("also.ignored");
}

TEST(TracerTest, CountersAreThreadSafeUnderThePool) {
  std::string Path = tmpPath("counters");
  constexpr int Tasks = 2000;
  {
    Expected<Tracer> T = Tracer::toFile(Path);
    ASSERT_TRUE(T.ok());
    ScopedTracer Install(&*T);
    parallelFor(8, Tasks, [](size_t) {
      TraceSpan S("task");
      traceCount("test.tasks");
    });
    EXPECT_EQ(T->counterValue("test.tasks"), uint64_t(Tasks));
    EXPECT_EQ(T->spanCount(), uint64_t(Tasks));
  }
  Expected<TraceSummary> S = readTraceSummary(Path);
  ASSERT_TRUE(S.ok()) << S.diag().Message;
  EXPECT_EQ(S->SpanLines, uint64_t(Tasks));
  EXPECT_EQ(S->Counters.at("test.tasks"), uint64_t(Tasks));
  ASSERT_EQ(S->Stages.size(), 1u);
  EXPECT_EQ(S->Stages[0].Name, "task");
  EXPECT_EQ(S->Stages[0].Count, uint64_t(Tasks));
}

TEST(TracerTest, SummaryRoundTripsSpansAndCounters) {
  std::string Path = tmpPath("roundtrip");
  {
    Expected<Tracer> T = Tracer::toFile(Path);
    ASSERT_TRUE(T.ok());
    T->recordSpan("simulate", 3, 1, 100, 40);
    T->recordSpan("simulate", 4, 1, 150, 60);
    T->recordSpan("parse", 3, 1, 90, 5);
    T->addCounter("sweep.measured", 2);
  }
  Expected<TraceSummary> S = readTraceSummary(Path);
  ASSERT_TRUE(S.ok()) << S.diag().Message;
  EXPECT_EQ(S->SpanLines, 3u);
  ASSERT_EQ(S->Stages.size(), 2u);
  // Sorted by total duration, descending.
  EXPECT_EQ(S->Stages[0].Name, "simulate");
  EXPECT_EQ(S->Stages[0].Count, 2u);
  EXPECT_EQ(S->Stages[0].TotalUs, 100u);
  EXPECT_EQ(S->Stages[0].MinUs, 40u);
  EXPECT_EQ(S->Stages[0].MaxUs, 60u);
  EXPECT_DOUBLE_EQ(S->Stages[0].meanUs(), 50.0);
  EXPECT_EQ(S->Stages[1].Name, "parse");
  EXPECT_EQ(S->Counters.at("sweep.measured"), 2u);
}

TEST(TracerTest, SummaryRejectsMalformedLinesButSkipsUnknownTypes) {
  std::string Path = tmpPath("malformed");
  spit(Path, "{\"type\":\"meta\",\"g80trace\":1}\n"
             "{\"type\":\"future-extension\",\"x\":1}\n"
             "{\"type\":\"span\",\"name\":\"ok\",\"dur_us\":1}\n");
  Expected<TraceSummary> Ok = readTraceSummary(Path);
  ASSERT_TRUE(Ok.ok()) << Ok.diag().Message;
  EXPECT_EQ(Ok->SpanLines, 1u);

  spit(Path, "this is not json\n");
  EXPECT_FALSE(readTraceSummary(Path).ok());

  spit(Path, "{\"type\":\"span\",\"name\":\"missing-duration\"}\n");
  EXPECT_FALSE(readTraceSummary(Path).ok());
}

//===--- EvalRecord wire-format extensions ------------------------------------//

EvalRecord sampleRecord() {
  EvalRecord R;
  R.Index = 42;
  R.Point = {16, 2, 1};
  R.Expressible = true;
  R.Valid = true;
  R.Efficiency = 1.25e-8;
  R.Utilization = 321.5;
  R.Measured = true;
  R.TimeSeconds = 0.00123456789012345;
  R.SimSeconds = 0.25;
  R.Cycles = 1000000;
  R.IssueStallCycles = 250000;
  R.MemQueueWaitCycles = 3000000;
  R.BlocksPerSM = 5;
  return R;
}

TEST(EvalRecordObservability, JsonRoundTripsSimCountersAndOccupancy) {
  EvalRecord R = sampleRecord();
  Expected<EvalRecord> Back = EvalRecord::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->IssueStallCycles, R.IssueStallCycles);
  EXPECT_EQ(Back->MemQueueWaitCycles, R.MemQueueWaitCycles);
  EXPECT_EQ(Back->BlocksPerSM, R.BlocksPerSM);
  EXPECT_DOUBLE_EQ(Back->issueEfficiency(), 0.75);
}

TEST(EvalRecordObservability, OldJournalPayloadsDefaultTheNewFieldsToZero) {
  // A record as PR-3-era journals serialized it: no stall/memwait/bsm.
  EvalRecord R = sampleRecord();
  std::string Json = R.toJson();
  for (const char *Key : {"\"stall\":250000,", "\"memwait\":3000000,",
                          "\"bsm\":5,"}) {
    size_t At = Json.find(Key);
    ASSERT_NE(At, std::string::npos) << Key;
    Json.erase(At, std::string(Key).size());
  }
  Expected<EvalRecord> Back = EvalRecord::fromJson(Json);
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->IssueStallCycles, 0u);
  EXPECT_EQ(Back->MemQueueWaitCycles, 0u);
  EXPECT_EQ(Back->BlocksPerSM, 0u);
  EXPECT_EQ(Back->Cycles, R.Cycles);
}

TEST(EvalRecordObservability, CsvRowRoundTripsThroughFromCsvRow) {
  EvalRecord R = sampleRecord();
  Expected<EvalRecord> Back =
      EvalRecord::fromCsvRow(EvalRecord::csvHeader(), R.csvRow());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Index, R.Index);
  EXPECT_EQ(Back->Point, R.Point);
  EXPECT_EQ(Back->Valid, R.Valid);
  EXPECT_EQ(Back->Measured, R.Measured);
  EXPECT_DOUBLE_EQ(Back->TimeSeconds, R.TimeSeconds);
  EXPECT_EQ(Back->Cycles, R.Cycles);
  EXPECT_EQ(Back->IssueStallCycles, R.IssueStallCycles);
  EXPECT_EQ(Back->MemQueueWaitCycles, R.MemQueueWaitCycles);
  EXPECT_EQ(Back->BlocksPerSM, R.BlocksPerSM);
}

TEST(EvalRecordObservability, CsvRoundTripsFailureWithCommaAndQuote) {
  EvalRecord R;
  R.Index = 7;
  R.Point = {8, 1};
  R.Expressible = true;
  R.Code = ErrorCode::SimulatorDeadlock;
  R.At = Stage::Simulate;
  R.Message = "queue stuck, \"warp 3\" never retired";

  // Through the CSV writer/parser, quoting included.
  std::ostringstream OS;
  CsvWriter W(OS);
  W.writeRow(EvalRecord::csvHeader());
  W.writeRow(R.csvRow());
  W.flush();
  std::vector<std::vector<std::string>> Rows = parseCsv(OS.str());
  ASSERT_EQ(Rows.size(), 2u);
  Expected<EvalRecord> Back = EvalRecord::fromCsvRow(Rows[0], Rows[1]);
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Code, ErrorCode::SimulatorDeadlock);
  EXPECT_EQ(Back->At, Stage::Simulate);
  EXPECT_EQ(Back->Message, R.Message);
  EXPECT_TRUE(Back->failed());
}

TEST(EvalRecordObservability, LintFailureRoundTripsJsonAndCsv) {
  EvalRecord R;
  R.Index = 11;
  R.Point = {16, 4};
  R.Expressible = true;
  R.Code = ErrorCode::LintRace;
  R.At = Stage::Lint;
  R.Message = "shared-memory race on tile";

  Expected<EvalRecord> Json = EvalRecord::fromJson(R.toJson());
  ASSERT_TRUE(Json.ok()) << Json.diag().Message;
  EXPECT_EQ(Json->Code, ErrorCode::LintRace);
  EXPECT_EQ(Json->At, Stage::Lint);
  EXPECT_TRUE(Json->failed());

  // The CSV path carries the stage and code by name, so a report over a
  // lint-quarantined dump must parse "lint"/"lint-race" cells back.
  std::vector<std::string> Header = EvalRecord::csvHeader();
  std::vector<std::string> Row = R.csvRow();
  bool SawStage = false, SawCode = false;
  for (size_t I = 0; I != Header.size(); ++I) {
    if (Header[I] == "fail_stage") {
      EXPECT_EQ(Row[I], "lint");
      SawStage = true;
    }
    if (Header[I] == "fail_code") {
      EXPECT_EQ(Row[I], "lint-race");
      SawCode = true;
    }
  }
  EXPECT_TRUE(SawStage);
  EXPECT_TRUE(SawCode);
  Expected<EvalRecord> Csv = EvalRecord::fromCsvRow(Header, Row);
  ASSERT_TRUE(Csv.ok()) << Csv.diag().Message;
  EXPECT_EQ(Csv->Code, ErrorCode::LintRace);
  EXPECT_EQ(Csv->At, Stage::Lint);
  EXPECT_EQ(Csv->Message, R.Message);
}

TEST(EvalRecordObservability, OutOfRangeStageOrCodeIsRejected) {
  // The numeric wire format bounds-checks against the current enum tails,
  // so every Lint value is in range for today's readers while a payload
  // from some future revision (larger code/stage) is rejected loudly
  // instead of aliasing onto the wrong stage.
  EvalRecord R;
  R.Index = 3;
  R.Point = {8};
  R.Expressible = true;
  R.Code = ErrorCode::LintFailed;
  R.At = Stage::Lint;
  R.Message = "gate";
  std::string Json = R.toJson();

  std::string CodeKey =
      "\"code\":" + std::to_string(unsigned(ErrorCode::LintFailed));
  std::string StageKey = "\"stage\":" + std::to_string(unsigned(Stage::Lint));
  ASSERT_NE(Json.find(CodeKey), std::string::npos);
  ASSERT_NE(Json.find(StageKey), std::string::npos);

  std::string BadCode = Json;
  BadCode.replace(BadCode.find(CodeKey), CodeKey.size(),
                  "\"code\":" +
                      std::to_string(unsigned(LastErrorCode) + 1));
  EXPECT_FALSE(EvalRecord::fromJson(BadCode).ok());

  std::string BadStage = Json;
  BadStage.replace(BadStage.find(StageKey), StageKey.size(),
                   "\"stage\":" + std::to_string(unsigned(NumStages)));
  EXPECT_FALSE(EvalRecord::fromJson(BadStage).ok());

  // The unmodified payload — the largest values currently in use — loads.
  Expected<EvalRecord> Back = EvalRecord::fromJson(Json);
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Code, ErrorCode::LintFailed);
  EXPECT_EQ(Back->At, Stage::Lint);
}

TEST(EvalRecordObservability, FromCsvRowRejectsGarbageCells) {
  std::vector<std::string> Header = EvalRecord::csvHeader();
  std::vector<std::string> Row = sampleRecord().csvRow();
  ASSERT_EQ(Header.size(), Row.size());
  for (size_t I = 0; I != Header.size(); ++I)
    if (Header[I] == "cycles")
      Row[I] = "12x4";
  EXPECT_FALSE(EvalRecord::fromCsvRow(Header, Row).ok());
  EXPECT_FALSE(
      EvalRecord::fromCsvRow(Header, std::vector<std::string>{"1"}).ok());
}

//===--- Report aggregation ---------------------------------------------------//

/// Synthetic artifact: N measured records with descending times, one
/// quarantined simulate-stage crash, one fast-bw record.
LoadedRecords syntheticRecords(size_t NumMeasured) {
  LoadedRecords L;
  JournalHeader H;
  H.App = "toy";
  H.Machine = "GeForce 8800 GTX";
  H.Strategy = "exhaustive";
  H.RawSize = 100;
  L.Header = H;
  for (size_t I = 0; I != NumMeasured; ++I) {
    EvalRecord R;
    R.Index = I;
    R.Point = {int(I)};
    R.Expressible = R.Valid = R.Measured = true;
    R.TimeSeconds = 0.001 * double(NumMeasured - I);
    R.Cycles = 1000;
    R.IssueStallCycles = 400;
    R.MemQueueWaitCycles = 2000;
    R.BlocksPerSM = 4;
    L.Records.push_back(R);
  }
  EvalRecord Bad;
  Bad.Index = NumMeasured;
  Bad.Point = {int(NumMeasured)};
  Bad.Expressible = Bad.Valid = true;
  Bad.Code = ErrorCode::WorkerCrashed;
  Bad.At = Stage::Simulate;
  Bad.Message = "worker exited";
  L.Records.push_back(Bad);
  EvalRecord Fast;
  Fast.Index = NumMeasured + 1;
  Fast.Point = {int(NumMeasured) + 1};
  Fast.Expressible = Fast.Valid = Fast.Measured = true;
  Fast.FastBw = true;
  Fast.TimeSeconds = 0.0001;
  Fast.BlocksPerSM = 4;
  L.Records.push_back(Fast);
  return L;
}

TEST(ReportTest, SummaryCountsAttributionAndQuarantine) {
  LoadedRecords L = syntheticRecords(6);
  SweepSummary S = SweepSummary::fromRecords(L);
  EXPECT_EQ(S.Records, 8u);
  EXPECT_EQ(S.Measured, 7u);
  EXPECT_EQ(S.Quarantined, 1u);
  EXPECT_EQ(S.FastBw, 1u);
  EXPECT_EQ(S.QuarantinedPerStage[size_t(Stage::Simulate)], 1u);
  EXPECT_EQ(S.QuarantineCodes.at("worker-crashed"), 1u);
  // Attribution sums exclude the fast-bw record (no scheduler stats).
  EXPECT_EQ(S.Cycles, 6000u);
  EXPECT_EQ(S.IssueStallCycles, 2400u);
  EXPECT_DOUBLE_EQ(S.issueEfficiency(), 0.6);
  EXPECT_TRUE(S.HasBest);
  EXPECT_EQ(S.Best.Index, 7u); // The fast-bw record is fastest.
  EXPECT_DOUBLE_EQ(S.MeanBlocksPerSm, 4.0);
  EXPECT_DOUBLE_EQ(S.rawSpaceReduction(), 1.0 - 7.0 / 100.0);
}

TEST(ReportTest, LintQuarantinesAreAttributedToTheirOwnStage) {
  LoadedRecords L = syntheticRecords(3);
  EvalRecord Linted;
  Linted.Index = L.Records.back().Index + 1;
  Linted.Point = {int(Linted.Index)};
  Linted.Expressible = Linted.Valid = true;
  Linted.Code = ErrorCode::LintRace;
  Linted.At = Stage::Lint;
  Linted.Message = "shared-memory race on tile";
  L.Records.push_back(Linted);

  SweepSummary S = SweepSummary::fromRecords(L);
  EXPECT_EQ(S.Quarantined, 2u);
  EXPECT_EQ(S.QuarantinedPerStage[size_t(Stage::Lint)], 1u);
  EXPECT_EQ(S.QuarantinedPerStage[size_t(Stage::Simulate)], 1u);
  EXPECT_EQ(S.QuarantineCodes.at("lint-race"), 1u);

  std::ostringstream Text;
  renderReportText(S, nullptr, Text);
  EXPECT_NE(Text.str().find("lint"), std::string::npos);
  EXPECT_NE(Text.str().find("lint-race"), std::string::npos);
}

TEST(ReportTest, SlowestListIsCappedAndSortedDescending) {
  SweepSummary S =
      SweepSummary::fromRecords(syntheticRecords(10), ReportOptions{3});
  ASSERT_EQ(S.Slowest.size(), 3u);
  EXPECT_GE(S.Slowest[0].TimeSeconds, S.Slowest[1].TimeSeconds);
  EXPECT_GE(S.Slowest[1].TimeSeconds, S.Slowest[2].TimeSeconds);
  EXPECT_EQ(S.Slowest[0].Index, 0u); // Synthetic times descend with index.
}

TEST(ReportTest, RendersTextAndJsonWithoutATrace) {
  SweepSummary S = SweepSummary::fromRecords(syntheticRecords(4));
  std::ostringstream Text, Json;
  renderReportText(S, nullptr, Text);
  renderReportJson(S, nullptr, Json);
  EXPECT_NE(Text.str().find("quarantine breakdown"), std::string::npos);
  EXPECT_NE(Text.str().find("worker-crashed"), std::string::npos);
  EXPECT_NE(Json.str().find("\"quarantined\": 1"), std::string::npos);
  EXPECT_NE(Json.str().find("\"fast_bw\": 1"), std::string::npos);
  EXPECT_EQ(Json.str().find("\"trace\""), std::string::npos);
}

TEST(ReportTest, LoadsJournalsAndCsvDumpsAlike) {
  // Journal: drive a real sweep.
  ToyApp App(4);
  SearchEngine Engine(App, gtx());
  SweepOptions Opts;
  Opts.JournalPath = tmpPath("load_journal");
  Opts.Fingerprint.App = "toy";
  Opts.Fingerprint.Machine = gtx().Name;
  Opts.Fingerprint.Strategy = "exhaustive";
  Opts.Fingerprint.RawSize = App.space().rawSize();
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);

  Expected<LoadedRecords> FromJournal = loadEvalRecords(Opts.JournalPath);
  ASSERT_TRUE(FromJournal.ok()) << FromJournal.diag().Message;
  ASSERT_TRUE(FromJournal->Header.has_value());
  EXPECT_EQ(FromJournal->Header->App, "toy");
  EXPECT_EQ(FromJournal->Records.size(), Rep.Outcome.Candidates.size());

  // CSV: the same records through the csvRow dump format.
  std::string CsvPath = testing::TempDir() + "g80_trace_load.csv";
  {
    std::ofstream OS(CsvPath, std::ios::trunc);
    CsvWriter W(OS);
    W.writeRow(EvalRecord::csvHeader());
    for (const EvalRecord &R : FromJournal->Records)
      W.writeRow(R.csvRow());
  }
  Expected<LoadedRecords> FromCsv = loadEvalRecords(CsvPath);
  ASSERT_TRUE(FromCsv.ok()) << FromCsv.diag().Message;
  EXPECT_FALSE(FromCsv->Header.has_value());
  ASSERT_EQ(FromCsv->Records.size(), FromJournal->Records.size());
  for (size_t I = 0; I != FromCsv->Records.size(); ++I) {
    EXPECT_EQ(FromCsv->Records[I].Index, FromJournal->Records[I].Index);
    EXPECT_DOUBLE_EQ(FromCsv->Records[I].TimeSeconds,
                     FromJournal->Records[I].TimeSeconds);
    EXPECT_EQ(FromCsv->Records[I].IssueStallCycles,
              FromJournal->Records[I].IssueStallCycles);
  }
  EXPECT_FALSE(loadEvalRecords(testing::TempDir() + "g80_no_such").ok());
}

//===--- Sweep integration ----------------------------------------------------//

SweepOptions toyOpts(const ToyApp &App, const char *Journal, unsigned Jobs) {
  SweepOptions Opts;
  Opts.JournalPath = tmpPath(Journal);
  Opts.Jobs = Jobs;
  Opts.Fingerprint.App = "toy";
  Opts.Fingerprint.Machine = gtx().Name;
  Opts.Fingerprint.Strategy = "exhaustive";
  Opts.Fingerprint.RawSize = App.space().rawSize();
  return Opts;
}

TEST(TraceSweepTest, TracedParallelJournalIsByteIdenticalToSerialUntraced) {
  ToyApp App(20);
  SearchEngine Engine(App, gtx());

  SweepOptions Serial = toyOpts(App, "ident_j1", 1);
  ASSERT_EQ(SweepDriver(Engine, Serial).run(Engine.planExhaustive()).Status,
            SweepStatus::Completed);

  std::string TracePath = tmpPath("ident_trace");
  SweepOptions Parallel = toyOpts(App, "ident_j8", 8);
  {
    Expected<Tracer> T = Tracer::toFile(TracePath);
    ASSERT_TRUE(T.ok());
    ScopedTracer Install(&*T);
    ASSERT_EQ(
        SweepDriver(Engine, Parallel).run(Engine.planExhaustive(8)).Status,
        SweepStatus::Completed);
  }

  // The acceptance invariant: tracing plus 8 jobs changes nothing.
  EXPECT_EQ(slurp(Serial.JournalPath), slurp(Parallel.JournalPath));

  // And the trace actually observed the sweep.
  Expected<TraceSummary> S = readTraceSummary(TracePath);
  ASSERT_TRUE(S.ok()) << S.diag().Message;
  EXPECT_GT(S->SpanLines, 0u);
  EXPECT_EQ(S->Counters.at("sweep.measured"), 100u);
  EXPECT_EQ(S->Counters.at("sweep.journal_records"), 100u);
  bool SawSimulate = false;
  for (const TraceStageStat &St : S->Stages)
    SawSimulate |= St.Name == "simulate";
  EXPECT_TRUE(SawSimulate);
}

TEST(TraceSweepTest, QuarantineCounterMatchesOutcome) {
  // Explicit injection targets: a deterministic quarantine volume.
  const char *Spec = "deadlock@3,timeout@17,deadlock@41";
  Expected<FaultPlan> Plan = parseFaultPlan(Spec);
  ASSERT_TRUE(Plan.ok()) << Plan.diag().Message;
  ToyApp App(20);
  SearchEngine Engine(App, gtx(), {}, {}, Plan.takeValue());

  std::string TracePath = tmpPath("quar_trace");
  SweepOptions Opts = toyOpts(App, "quar_j", 4);
  Opts.Fingerprint.Extra = Spec;
  SearchOutcome Out;
  {
    Expected<Tracer> T = Tracer::toFile(TracePath);
    ASSERT_TRUE(T.ok());
    ScopedTracer Install(&*T);
    SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive(4));
    ASSERT_EQ(Rep.Status, SweepStatus::Completed);
    Out = std::move(Rep.Outcome);
  }
  ASSERT_FALSE(Out.Quarantined.empty());

  // sweep.measured counts only successful measurements; quarantined
  // candidates land in the other counter.
  Expected<TraceSummary> S = readTraceSummary(TracePath);
  ASSERT_TRUE(S.ok());
  EXPECT_EQ(S->Counters.at("sweep.quarantined"), Out.Quarantined.size());
  EXPECT_EQ(S->Counters.at("sweep.measured"),
            Out.Candidates.size() - Out.Quarantined.size());

  // The journal then tells the same quarantine story through the report
  // aggregation: per-stage and per-code counts match the outcome.
  Expected<LoadedRecords> L = loadEvalRecords(Opts.JournalPath);
  ASSERT_TRUE(L.ok()) << L.diag().Message;
  SweepSummary Summary = SweepSummary::fromRecords(*L);
  EXPECT_EQ(Summary.Quarantined, Out.Quarantined.size());
  EXPECT_EQ(Summary.QuarantinedPerStage[size_t(Stage::Simulate)],
            Out.Quarantined.size());
  EXPECT_EQ(Summary.QuarantineCodes.at("sim-deadlock"), 2u);
  EXPECT_EQ(Summary.QuarantineCodes.at("sim-timeout"), 1u);
}

TEST(TraceSweepTest, ProgressObservationsAreMonotonicAndComplete) {
  ToyApp App(20);
  SearchEngine Engine(App, gtx());
  SweepOptions Opts = toyOpts(App, "progress_j", 4);
  std::vector<SweepProgress> Seen;
  Opts.OnProgress = [&Seen](const SweepProgress &P) { Seen.push_back(P); };
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive(4));
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);

  ASSERT_EQ(Seen.size(), 100u); // One observation per completed record.
  for (size_t I = 0; I != Seen.size(); ++I) {
    EXPECT_EQ(Seen[I].Done, I + 1); // Strictly in plan order.
    EXPECT_EQ(Seen[I].Total, 100u);
    EXPECT_LE(Seen[I].Quarantined, Seen[I].Done);
  }
  EXPECT_EQ(Seen.back().Done, Seen.back().Total);
  EXPECT_EQ(Seen.back().FreshDone, 100u);
}

} // namespace
