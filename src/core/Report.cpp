//===- core/Report.cpp ----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"

#include "support/Format.h"
#include "support/Csv.h"
#include "support/TextTable.h"

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace g80;

namespace {

Diagnostic reportError(std::string Msg) {
  return makeDiag(ErrorCode::JournalError, Stage::Parse, std::move(Msg));
}

std::string pointText(const std::vector<int> &Point) {
  std::string Out;
  for (size_t I = 0; I != Point.size(); ++I)
    Out += (I ? "," : "") + std::to_string(Point[I]);
  return Out;
}

std::string pointJson(const std::vector<int> &Point) {
  return "[" + pointText(Point) + "]";
}

} // namespace

//===--- Loading --------------------------------------------------------------//

Expected<LoadedRecords> g80::loadEvalRecords(const std::string &Path) {
  Expected<std::string> Text = readFile(Path);
  if (!Text)
    return Text.takeDiag();

  LoadedRecords Out;
  if (Text->compare(0, 15, "{\"g80journal\":1") == 0) {
    Expected<JournalContents> C = readJournal(Path);
    if (!C)
      return C.takeDiag();
    Out.Header = C->Header;
    Out.Records.reserve(C->Records.size());
    for (const std::string &Payload : C->Records) {
      Expected<EvalRecord> R = EvalRecord::fromJson(Payload);
      if (!R)
        return R.takeDiag();
      Out.Records.push_back(R.takeValue());
    }
    return Out;
  }

  std::vector<std::vector<std::string>> Rows = parseCsv(*Text);
  if (Rows.empty())
    return reportError("'" + Path +
                       "' is neither a sweep journal nor an eval CSV");
  const std::vector<std::string> &Header = Rows.front();
  if (std::find(Header.begin(), Header.end(), "index") == Header.end() ||
      std::find(Header.begin(), Header.end(), "cycles") == Header.end())
    return reportError("'" + Path +
                       "' is neither a sweep journal nor an eval CSV");
  Out.Records.reserve(Rows.size() - 1);
  for (size_t I = 1; I < Rows.size(); ++I) {
    Expected<EvalRecord> R = EvalRecord::fromCsvRow(Header, Rows[I]);
    if (!R)
      return reportError("row " + std::to_string(I + 1) + " of '" + Path +
                         "': " + R.diag().Message);
    Out.Records.push_back(R.takeValue());
  }
  return Out;
}

//===--- Trace aggregation ----------------------------------------------------//

Expected<TraceSummary> g80::readTraceSummary(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return reportError("cannot open trace file '" + Path + "'");

  TraceSummary Out;
  std::map<std::string, TraceStageStat> Stages;
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string Type;
    if (Line.front() != '{' || Line.back() != '}' ||
        !jsonStringField(Line, "type", Type))
      return reportError("trace line " + std::to_string(LineNo) +
                         " is not a JSON object with a \"type\" field");
    if (Type == "span") {
      std::string Name;
      uint64_t DurUs = 0;
      if (!jsonStringField(Line, "name", Name) ||
          !jsonUintField(Line, "dur_us", DurUs))
        return reportError("trace span line " + std::to_string(LineNo) +
                           " is missing name/dur_us");
      TraceStageStat &S = Stages[Name];
      S.Name = Name;
      ++S.Count;
      S.TotalUs += DurUs;
      S.MinUs = std::min(S.MinUs, DurUs);
      S.MaxUs = std::max(S.MaxUs, DurUs);
      ++Out.SpanLines;
    } else if (Type == "counter") {
      std::string Name;
      uint64_t Value = 0;
      if (!jsonStringField(Line, "name", Name) ||
          !jsonUintField(Line, "value", Value))
        return reportError("trace counter line " + std::to_string(LineNo) +
                           " is missing name/value");
      Out.Counters[Name] += Value;
    }
    // "meta" and unknown types: skip.
  }

  for (auto &[Name, S] : Stages)
    Out.Stages.push_back(S);
  std::stable_sort(Out.Stages.begin(), Out.Stages.end(),
                   [](const TraceStageStat &A, const TraceStageStat &B) {
                     return A.TotalUs > B.TotalUs;
                   });
  return Out;
}

//===--- Aggregation ----------------------------------------------------------//

SweepSummary SweepSummary::fromRecords(const LoadedRecords &Loaded,
                                       const ReportOptions &Opts) {
  SweepSummary S;
  S.Source = Loaded.Header;

  uint64_t BsmSum = 0;
  size_t BsmCount = 0;
  for (const EvalRecord &R : Loaded.Records) {
    ++S.Records;
    if (R.Expressible)
      ++S.Expressible;
    if (R.Valid)
      ++S.Valid;
    if (R.failed()) {
      ++S.Quarantined;
      ++S.QuarantinedPerStage[size_t(R.At)];
      ++S.QuarantineCodes[errorCodeName(R.Code)];
      continue;
    }
    if (!R.Measured)
      continue;
    ++S.Measured;
    S.TotalMeasuredSeconds += R.TimeSeconds;
    if (R.FastBw) {
      ++S.FastBw;
    } else {
      S.Cycles += R.Cycles;
      S.IssueStallCycles += R.IssueStallCycles;
      S.MemQueueWaitCycles += R.MemQueueWaitCycles;
    }
    if (R.BlocksPerSM > 0) {
      BsmSum += R.BlocksPerSM;
      ++BsmCount;
    }
    if (!S.HasBest || R.TimeSeconds < S.Best.TimeSeconds ||
        (R.TimeSeconds == S.Best.TimeSeconds && R.Index < S.Best.Index)) {
      S.HasBest = true;
      S.Best = R;
    }
  }
  S.MeanBlocksPerSm = BsmCount == 0 ? 0 : double(BsmSum) / double(BsmCount);

  std::vector<EvalRecord> Measured;
  for (const EvalRecord &R : Loaded.Records)
    if (R.Measured && !R.failed())
      Measured.push_back(R);
  std::sort(Measured.begin(), Measured.end(),
            [](const EvalRecord &A, const EvalRecord &B) {
              if (A.TimeSeconds != B.TimeSeconds)
                return A.TimeSeconds > B.TimeSeconds;
              return A.Index < B.Index;
            });
  if (Measured.size() > Opts.TopN)
    Measured.resize(Opts.TopN);
  S.Slowest = std::move(Measured);
  return S;
}

//===--- Rendering ------------------------------------------------------------//

void g80::renderReportText(const SweepSummary &S, const TraceSummary *Trace,
                           std::ostream &OS) {
  OS << "sweep report";
  if (S.Source)
    OS << " — " << S.Source->App << " on " << S.Source->Machine
       << ", strategy " << S.Source->Strategy;
  OS << "\n\n";

  OS << "  records              : " << S.Records << "\n";
  if (S.Source && S.Source->RawSize != 0)
    OS << "  space (raw)          : " << S.Source->RawSize << "\n";
  OS << "  expressible          : " << S.Expressible << "\n"
     << "  valid                : " << S.Valid << "\n"
     << "  measured             : " << S.Measured << "\n"
     << "  quarantined          : " << S.Quarantined << "\n"
     << "  space reduction      : " << fmtPercent(S.spaceReduction()) << "\n";
  if (S.Source && S.Source->RawSize != 0)
    OS << "  reduction vs raw     : " << fmtPercent(S.rawSpaceReduction())
       << "\n";
  OS << "  total measured time  : "
     << fmtDouble(S.TotalMeasuredSeconds * 1e3, 2) << " ms\n";
  if (S.HasBest)
    OS << "  best configuration   : #" << S.Best.Index << " ["
       << pointText(S.Best.Point) << "]\n"
       << "  best time            : " << fmtDouble(S.Best.TimeSeconds * 1e3, 3)
       << " ms\n";

  OS << "\nattribution (cycle-simulated records)\n"
     << "  cycles               : " << S.Cycles << "\n"
     << "  issue stalls         : " << S.IssueStallCycles;
  if (S.Cycles != 0)
    OS << " (" << fmtPercent(double(S.IssueStallCycles) / double(S.Cycles))
       << " of cycles; issue efficiency " << fmtPercent(S.issueEfficiency())
       << ")";
  // Queue waits sum over every memory request, so the ratio to simulated
  // cycles is a pressure figure (can exceed 1), not a share.
  OS << "\n  memory queue waits   : " << S.MemQueueWaitCycles;
  if (S.Cycles != 0)
    OS << " (" << fmtDouble(double(S.MemQueueWaitCycles) / double(S.Cycles), 1)
       << " wait-cycles per cycle)";
  OS << "\n  fast-bw records      : " << S.FastBw << "\n"
     << "  mean blocks/SM       : " << fmtDouble(S.MeanBlocksPerSm, 2) << "\n";

  if (S.Quarantined != 0) {
    OS << "\nquarantine breakdown\n";
    for (size_t St = 0; St != NumStages; ++St)
      if (S.QuarantinedPerStage[St] != 0)
        OS << "  " << stageName(Stage(St)) << " : "
           << S.QuarantinedPerStage[St] << "\n";
    for (const auto &[Code, Count] : S.QuarantineCodes)
      OS << "  [" << Code << "] : " << Count << "\n";
  }

  if (!S.Slowest.empty()) {
    OS << "\nslowest configurations\n";
    TextTable T;
    T.setHeader({"config", "point", "time", "cycles", "issue eff", "path"});
    for (const EvalRecord &R : S.Slowest)
      T.addRow({"#" + std::to_string(R.Index), pointText(R.Point),
                fmtDouble(R.TimeSeconds * 1e3, 3) + " ms",
                std::to_string(R.Cycles), fmtPercent(R.issueEfficiency()),
                R.FastBw ? "fast-bw" : "sim"});
    T.print(OS);
  }

  if (Trace) {
    OS << "\nstage wall-time histogram (trace)\n";
    uint64_t MaxTotal = 0;
    for (const TraceStageStat &St : Trace->Stages)
      MaxTotal = std::max(MaxTotal, St.TotalUs);
    TextTable T;
    T.setHeader({"stage", "count", "total", "mean", "share"});
    for (const TraceStageStat &St : Trace->Stages) {
      size_t Bar = MaxTotal == 0 ? 0
                                 : size_t(30.0 * double(St.TotalUs) /
                                          double(MaxTotal));
      T.addRow({St.Name, std::to_string(St.Count),
                fmtDouble(double(St.TotalUs) / 1e3, 1) + " ms",
                fmtDouble(St.meanUs(), 1) + " us", std::string(Bar, '#')});
    }
    T.print(OS);
    if (!Trace->Counters.empty()) {
      OS << "\ntrace counters\n";
      for (const auto &[Name, Value] : Trace->Counters)
        OS << "  " << Name << " : " << Value << "\n";
    }
  }
}

void g80::renderReportJson(const SweepSummary &S, const TraceSummary *Trace,
                           std::ostream &OS) {
  OS << "{\n  \"report\": \"sweep\",\n";
  if (S.Source)
    OS << "  \"source\": {\"app\": \"" << jsonEscape(S.Source->App)
       << "\", \"machine\": \"" << jsonEscape(S.Source->Machine)
       << "\", \"strategy\": \"" << jsonEscape(S.Source->Strategy)
       << "\", \"raw_size\": " << S.Source->RawSize << "},\n";
  OS << "  \"records\": " << S.Records
     << ",\n  \"expressible\": " << S.Expressible
     << ",\n  \"valid\": " << S.Valid << ",\n  \"measured\": " << S.Measured
     << ",\n  \"quarantined\": " << S.Quarantined
     << ",\n  \"fast_bw\": " << S.FastBw
     << ",\n  \"space_reduction\": " << jsonDouble(S.spaceReduction())
     << ",\n  \"space_reduction_raw\": " << jsonDouble(S.rawSpaceReduction())
     << ",\n  \"total_measured_seconds\": "
     << jsonDouble(S.TotalMeasuredSeconds);
  if (S.HasBest)
    OS << ",\n  \"best\": {\"index\": " << S.Best.Index
       << ", \"point\": " << pointJson(S.Best.Point)
       << ", \"time_seconds\": " << jsonDouble(S.Best.TimeSeconds) << "}";
  OS << ",\n  \"attribution\": {\"cycles\": " << S.Cycles
     << ", \"issue_stall_cycles\": " << S.IssueStallCycles
     << ", \"mem_queue_wait_cycles\": " << S.MemQueueWaitCycles
     << ", \"issue_efficiency\": " << jsonDouble(S.issueEfficiency())
     << ", \"mean_blocks_per_sm\": " << jsonDouble(S.MeanBlocksPerSm) << "}";

  OS << ",\n  \"quarantine\": {\"stages\": {";
  bool First = true;
  for (size_t St = 0; St != NumStages; ++St) {
    if (S.QuarantinedPerStage[St] == 0)
      continue;
    OS << (First ? "" : ", ") << "\"" << stageName(Stage(St))
       << "\": " << S.QuarantinedPerStage[St];
    First = false;
  }
  OS << "}, \"codes\": {";
  First = true;
  for (const auto &[Code, Count] : S.QuarantineCodes) {
    OS << (First ? "" : ", ") << "\"" << jsonEscape(Code) << "\": " << Count;
    First = false;
  }
  OS << "}}";

  OS << ",\n  \"slowest\": [";
  for (size_t I = 0; I != S.Slowest.size(); ++I) {
    const EvalRecord &R = S.Slowest[I];
    OS << (I ? ", " : "") << "{\"index\": " << R.Index
       << ", \"point\": " << pointJson(R.Point)
       << ", \"time_seconds\": " << jsonDouble(R.TimeSeconds)
       << ", \"cycles\": " << R.Cycles
       << ", \"issue_efficiency\": " << jsonDouble(R.issueEfficiency())
       << ", \"fast_bw\": " << (R.FastBw ? "true" : "false") << "}";
  }
  OS << "]";

  if (Trace) {
    OS << ",\n  \"trace\": {\"span_lines\": " << Trace->SpanLines
       << ", \"stages\": [";
    for (size_t I = 0; I != Trace->Stages.size(); ++I) {
      const TraceStageStat &St = Trace->Stages[I];
      OS << (I ? ", " : "") << "{\"name\": \"" << jsonEscape(St.Name)
         << "\", \"count\": " << St.Count << ", \"total_us\": " << St.TotalUs
         << ", \"mean_us\": " << jsonDouble(St.meanUs())
         << ", \"min_us\": " << (St.Count ? St.MinUs : 0)
         << ", \"max_us\": " << St.MaxUs << "}";
    }
    OS << "], \"counters\": {";
    bool FirstC = true;
    for (const auto &[Name, Value] : Trace->Counters) {
      OS << (FirstC ? "" : ", ") << "\"" << jsonEscape(Name)
         << "\": " << Value;
      FirstC = false;
    }
    OS << "}}";
  }
  OS << "\n}\n";
}
