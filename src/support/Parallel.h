//===- support/Parallel.h - In-order parallel loop ------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How g80tune spreads a batch of independent work items over threads.
/// parallelFor's threads claim indices one at a time, in increasing
/// order, from a single atomic counter, so work finishes roughly front to
/// back.  That is what lets the sweep driver's in-order committer
/// (core/SweepDriver.cpp) journal each result soon after it is measured
/// instead of when the round ends.
///
/// The work items are coarse (a whole configuration's static evaluation
/// or measurement, microseconds to seconds each), so a claim that costs
/// one relaxed fetch_add needs no chunking.  Determinism is the callers'
/// concern: each index writes only its own slot.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SUPPORT_PARALLEL_H
#define G80TUNE_SUPPORT_PARALLEL_H

#include <cstddef>
#include <functional>

namespace g80 {

/// max(1, hardware_concurrency): the `--jobs` default.
unsigned defaultJobs();

/// Runs Body(I) for every I in [0, N) on min(Jobs, N) threads, the caller
/// among them, and returns when all are done.  Jobs <= 1 or N <= 1 runs
/// inline on the caller.  Distinct indices must touch disjoint state.
void parallelFor(unsigned Jobs, size_t N,
                 const std::function<void(size_t)> &Body);

} // namespace g80

#endif // G80TUNE_SUPPORT_PARALLEL_H
