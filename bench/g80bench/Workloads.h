//===- bench/g80bench/Workloads.h - The four benchmark workloads ----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Each workload sets itself up several times (the median is setup_s),
/// runs its timed section for about RunConfig::Seconds, checks its outputs
/// through the Checker, and — in a traced run — replays its first pass
/// through the Microscope.  README.md says why each workload exists.
///
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_WORKLOADS_H
#define G80BENCH_WORKLOADS_H

#include "Harness.h"
#include "Microscope.h"

namespace g80bench {

/// Table 4: Pareto-pruned and exhaustive journaled searches of the eight
/// small spaces, one forked child per search.
RunResult runPaperSmall(const RunConfig &Cfg, Spans &S, Checker &C,
                        Microscope &M);

/// Budgeted random and adaptive searches of the four large spaces, one
/// forked child per search.
RunResult runSearchLarge(const RunConfig &Cfg, Spans &S, Checker &C,
                         Microscope &M);

/// Closed-loop wait-mode requests to an in-process TuneServer on loopback
/// TCP.
RunResult runServeTcp(const RunConfig &Cfg, Spans &S, Checker &C,
                      Microscope &M);

/// Exhaustive sad sweeps sharded by a FleetCoordinator across two
/// TuneServer workers on Unix sockets, all in one forked child per run.
RunResult runFleetSad(const RunConfig &Cfg, Spans &S, Checker &C,
                      Microscope &M);

} // namespace g80bench

#endif // G80BENCH_WORKLOADS_H
