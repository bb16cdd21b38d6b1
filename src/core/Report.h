//===- core/Report.h - Sweep summaries from journals, CSVs, traces --------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis half of the observability layer: load the EvalRecords a
/// sweep left behind (write-ahead journal or --out CSV), aggregate them
/// into a SweepSummary — the Table-4 view (measured vs. valid vs. space),
/// stall/bandwidth attribution from the simulator counters, quarantine
/// breakdown per stage and code, top-N slowest configurations — and
/// optionally fold in a --trace JSONL file for the per-stage wall-time
/// histogram.  `tune report` renders the result as text or JSON; tests
/// call the same entry points directly.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_CORE_REPORT_H
#define G80TUNE_CORE_REPORT_H

#include "core/EvalRecord.h"
#include "support/Journal.h"

#include <array>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

namespace g80 {

/// Records loaded from a sweep artifact.  Header is present for journals
/// (whose fingerprint names the app/machine/strategy and the raw space
/// size) and absent for CSV dumps.
struct LoadedRecords {
  std::optional<JournalHeader> Header;
  std::vector<EvalRecord> Records;
};

/// Loads \p Path as either a sweep journal (sniffed by its header line)
/// or an EvalRecord CSV dump.
Expected<LoadedRecords> loadEvalRecords(const std::string &Path);

/// Aggregate of one span name across a trace file.
struct TraceStageStat {
  std::string Name;
  uint64_t Count = 0;
  uint64_t TotalUs = 0;
  uint64_t MinUs = ~uint64_t(0);
  uint64_t MaxUs = 0;

  double meanUs() const {
    return Count == 0 ? 0 : double(TotalUs) / double(Count);
  }
};

/// Aggregated --trace JSONL: per-stage wall-time stats plus the counter
/// lines, in file order for stages of equal total time.
struct TraceSummary {
  std::vector<TraceStageStat> Stages; ///< Sorted by TotalUs, descending.
  std::map<std::string, uint64_t> Counters;
  uint64_t SpanLines = 0;
};

/// Parses a Tracer JSONL file.  Unknown line types are ignored (forward
/// compatibility); a line that is not a JSON object is an error.
Expected<TraceSummary> readTraceSummary(const std::string &Path);

struct ReportOptions {
  size_t TopN = 5; ///< Slowest-configuration list length.
};

/// Everything `tune report` prints, precomputed.
struct SweepSummary {
  /// Journal fingerprint when the source was a journal.
  std::optional<JournalHeader> Source;

  size_t Records = 0;
  size_t Expressible = 0;
  size_t Valid = 0; ///< Launchable (the paper's valid executables).
  size_t Measured = 0;
  size_t Quarantined = 0;
  size_t FastBw = 0; ///< Measured via the §5.3 analytic bound.

  double TotalMeasuredSeconds = 0;
  bool HasBest = false;
  EvalRecord Best; ///< Valid only when HasBest.

  /// Attribution sums over cycle-simulated records (fast-path records
  /// carry no scheduler statistics).
  uint64_t Cycles = 0;
  uint64_t IssueStallCycles = 0;
  uint64_t MemQueueWaitCycles = 0;
  double MeanBlocksPerSm = 0; ///< Over measured records with occupancy.

  std::array<size_t, NumStages> QuarantinedPerStage{};
  std::map<std::string, size_t> QuarantineCodes;

  std::vector<EvalRecord> Slowest; ///< Top-N by TimeSeconds, descending.

  /// Aggregate issue efficiency: busy share of the simulated cycles.
  double issueEfficiency() const {
    return Cycles == 0 ? 0 : 1.0 - double(IssueStallCycles) / double(Cycles);
  }

  /// Table 4's space reduction over what this artifact can see: the
  /// fraction of valid configurations not measured.
  double spaceReduction() const {
    if (Valid == 0)
      return 0;
    double R = 1.0 - double(Measured) / double(Valid);
    return R < 0 ? 0 : R;
  }

  /// Space reduction against the raw configuration space — the journal
  /// header's Table-4 denominator.  Only meaningful when Source is set
  /// (a journal holds candidates only, so spaceReduction() is near zero
  /// there); zero without a header.
  double rawSpaceReduction() const {
    if (!Source || Source->RawSize == 0)
      return 0;
    double R = 1.0 - double(Measured) / double(Source->RawSize);
    return R < 0 ? 0 : R;
  }

  static SweepSummary fromRecords(const LoadedRecords &Loaded,
                                  const ReportOptions &Opts = {});
};

/// Renders \p S (and \p Trace when non-null) as the human-readable
/// `tune report` output.
void renderReportText(const SweepSummary &S, const TraceSummary *Trace,
                      std::ostream &OS);

/// Renders the same content as one JSON object (pretty-printed, stable
/// key order) for the CI artifact and downstream tooling.
void renderReportJson(const SweepSummary &S, const TraceSummary *Trace,
                      std::ostream &OS);

} // namespace g80

#endif // G80TUNE_CORE_REPORT_H
