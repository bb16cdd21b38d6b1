//===- bench/g80bench/Passes.h - Forked passes of journaled jobs ----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shape paper_small and search_large share: a fixed list of
/// journaled tuning jobs, run pass after pass, each job in a freshly
/// forked child with a cold SearchEngine, so that no in-process cache
/// survives from one job to the next (as with separate `tune search`
/// runs).  Throughput and latencies come from each job's median time over
/// the passes.
///
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_PASSES_H
#define G80BENCH_PASSES_H

#include "Workloads.h"

#include "core/ConfigSpace.h"

#include <functional>
#include <map>
#include <memory>

namespace g80bench {

using AppMap = std::map<std::string, std::unique_ptr<g80::TunableApp>>;

/// What the parent learns about one job of one pass.
struct JobOutcome {
  double Ms = 0;
  uint64_t Measured = 0;
  bool Completed = false;
  bool HasBest = false;
  double BestTime = 0;
  std::string Digest; ///< Of the job's journal.
};

struct PassWorkload {
  std::string Name; ///< Digest key prefix.
  g80::SpaceTier Tier = g80::SpaceTier::Small;
  std::vector<g80::TuneRequest> Jobs; ///< In run order.
  g80::TuneRequest WarmUp;            ///< Run once per set-up.
  /// Whether a job's wall time is a latency sample.
  std::function<bool(const g80::TuneRequest &)> IsLatencySample;
  /// Parent-side checks on every pass's outcomes (parallel to Jobs).
  std::function<void(const std::vector<JobOutcome> &, Checker &)> CheckPass;
  /// Checks run in a forked child after the first pass, with the pass's
  /// journals still on disk (see journalOf).
  std::function<void(const AppMap &, const std::vector<JobOutcome> &,
                     const std::string &PassDir, Checker &)>
      CheckJournals;
};

/// Where job \p Job of the pass in \p PassDir journals.
std::string journalOf(const std::string &PassDir, size_t Job);

/// Measurement threads per job (`--jobs 2`).
constexpr unsigned PassThreads = 2;

RunResult runForkedPasses(const RunConfig &Cfg, Spans &S, Checker &C,
                          Microscope &M, const PassWorkload &W);

} // namespace g80bench

#endif // G80BENCH_PASSES_H
