//===- bench/g80bench/Job.h - One journaled tuning job --------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tuning job run in-process exactly as `tune search --journal` and the
/// serve executor run one: plan a plannable strategy and drive it through
/// SweepDriver, or run an adaptive one through runAdaptiveSweep, with the
/// journal fingerprint `tune search` would write for the same request.
///
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_JOB_H
#define G80BENCH_JOB_H

#include "Harness.h"

#include "core/SweepDriver.h"
#include "serve/Protocol.h"

#include <string>

namespace g80bench {

struct JobOptions {
  unsigned Jobs = 1; ///< Measurement threads.
  std::string JournalPath;
  bool Resume = false;
  /// When set, the plan and the sweep are recorded as "core.plan" and
  /// "core.sweep" spans.
  Spans *S = nullptr;
  int Pass = -1;
  int64_t ReqId = -1;
};

struct JobTiming {
  double PlanMs = 0;
  double SweepMs = 0;
};

g80::SweepReport runJob(const g80::TunableApp &App,
                        const g80::SearchEngine &Eng,
                        const g80::TuneRequest &Req, const JobOptions &Opts,
                        JobTiming &Timing);

/// The result frame TuneServer would send for \p Rep (id \p Id).
g80::TuneResult resultOf(const g80::TunableApp &App,
                         const g80::TuneRequest &Req,
                         const g80::SweepReport &Rep, const std::string &Id);

/// The job's name in digests and expected.json: app-machine-strategy,
/// plus the space tier when it is not "small".
std::string jobName(const g80::TuneRequest &Req);

} // namespace g80bench

#endif // G80BENCH_JOB_H
