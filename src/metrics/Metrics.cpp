//===- metrics/Metrics.cpp ------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "metrics/Metrics.h"

#include "ptx/Kernel.h"
#include "support/ErrorHandling.h"
#include "support/Trace.h"

#include <cassert>

using namespace g80;

double g80::efficiencyMetric(uint64_t Instr, uint64_t Threads) {
  assert(Instr > 0 && Threads > 0 && "efficiency of an empty launch");
  return 1.0 / (static_cast<double>(Instr) * static_cast<double>(Threads));
}

double g80::utilizationMetric(uint64_t Instr, uint64_t Regions,
                              unsigned WarpsPerBlock, unsigned BlocksPerSM,
                              UtilizationVariant Variant) {
  assert(Regions > 0 && "regions is blocking units + 1, so at least 1");
  assert(WarpsPerBlock > 0 && BlocksPerSM > 0 &&
         "utilization of an invalid occupancy");

  double RunLength = static_cast<double>(Instr) / static_cast<double>(Regions);
  double W = WarpsPerBlock;
  double OtherBlocks = static_cast<double>(BlocksPerSM - 1) * W;
  double Bracket = 0;
  switch (Variant) {
  case UtilizationVariant::Paper:
    Bracket = (W - 1.0) / 2.0 + OtherBlocks;
    break;
  case UtilizationVariant::NoSyncHalving:
    Bracket = (W - 1.0) + OtherBlocks;
    break;
  case UtilizationVariant::OtherBlocksOnly:
    Bracket = OtherBlocks;
    break;
  }
  return RunLength * Bracket;
}

double g80::bandwidthDemandRatio(const StaticProfile &Profile,
                                 const MachineModel &Machine) {
  if (Profile.DynInstrs == 0)
    return 0;
  double BytesPerThreadInstr =
      static_cast<double>(Profile.GlobalBytesEffective) /
      static_cast<double>(Profile.DynInstrs);
  // Peak issue: one warp-instruction per issue window => WarpSize thread-
  // instructions per issueCyclesPerWarpInstr() cycles.
  double ThreadInstrsPerCycle =
      static_cast<double>(Machine.WarpSize) /
      static_cast<double>(Machine.issueCyclesPerWarpInstr());
  double DemandBytesPerCycle = BytesPerThreadInstr * ThreadInstrsPerCycle;
  double Available = Machine.globalBytesPerCyclePerSM();
  assert(Available > 0 && "machine with no global bandwidth");
  return DemandBytesPerCycle / Available;
}

KernelMetrics g80::computeKernelMetrics(const Kernel &K,
                                        const LaunchConfig &Launch,
                                        const MachineModel &Machine,
                                        const MetricOptions &Opts) {
  KernelMetrics M;
  {
    TraceSpan Span("estimate");
    M.Profile = computeStaticProfile(K);
    M.Resources = estimateResources(K, Machine, Opts.Resources);
  }
  {
    TraceSpan Span("occupancy");
    M.Occ = computeOccupancy(Machine, Launch.threadsPerBlock(), M.Resources);
  }
  M.Threads = Launch.totalThreads();
  M.BandwidthDemandRatio = bandwidthDemandRatio(M.Profile, Machine);

  if (!M.Occ.valid())
    return M; // Invalid executable: no metrics.

  M.Valid = true;
  M.Efficiency = efficiencyMetric(M.Profile.DynInstrs, M.Threads);
  M.Utilization =
      utilizationMetric(M.Profile.DynInstrs, M.Profile.regions(),
                        M.Occ.WarpsPerBlock, M.Occ.BlocksPerSM, Opts.Variant);
  return M;
}
