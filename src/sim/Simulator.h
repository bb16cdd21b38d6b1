//===- sim/Simulator.h - G80 SM timing simulator -----------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wall-clock substitute: a timing model of a GeForce-8800 streaming
/// multiprocessor executing a kernel launch.  Where the paper measures
/// configurations on silicon, we measure them here; the tuner treats this
/// as ground truth exactly as the paper treats run time.
///
/// Modeled first-order mechanisms (the ones the paper's §2-§3 analysis
/// turns on):
///  - single issue port per SM, one warp-instruction per 4 cycles (SFU
///    ops occupy it for WarpSize/SFUs cycles);
///  - zero-overhead warp interleaving: any ready warp from any resident
///    block may issue ("the SM stalls only if there are no warps with
///    ready operands available", §2.1);
///  - register scoreboarding with non-blocking global loads: a load
///    stalls the warp only when a later instruction consumes its result;
///  - off-chip bandwidth as a service queue (the chip's 86.4 GB/s divided
///    evenly among SMs), with per-access effective transaction sizes so
///    uncoalesced accesses consume up to 8x their useful traffic;
///  - intra-block barrier synchronization;
///  - block residency from the occupancy calculation, with finished
///    blocks replaced by queued ones until the SM's share of the grid is
///    done.
///
/// One representative SM is simulated; SMs process equal shares of the
/// grid independently (true for the paper's regular kernels), so kernel
/// time equals the representative SM's busy time.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SIM_SIMULATOR_H
#define G80TUNE_SIM_SIMULATOR_H

#include "arch/LaunchConfig.h"
#include "arch/MachineModel.h"
#include "arch/Occupancy.h"
#include "support/Status.h"

#include <cstdint>

namespace g80 {

class Kernel;

/// Simulation controls, including the watchdog budgets.  Exhausting a
/// budget returns a structured SimulatorTimeout diagnostic — generated
/// kernels come from mechanical sweeps, so a runaway variant must not take
/// the whole search down with it.
struct SimOptions {
  /// Scheduler-core selection.  Both engines execute the same trace with
  /// the same round-robin issue order and produce bit-identical SimResults
  /// (asserted by tests/SimEngineTest.cpp and bench/sweep_perf); they
  /// differ only in how the next issueable warp is found.
  enum class Engine : uint8_t {
    /// Event-driven core (default): dense SoA warp state, a ready bitmask
    /// scanned with ctz, and a wake calendar over the cached StallUntil
    /// values so an all-stalled SM jumps the clock straight to the next
    /// wake cycle.  The fast path.
    Event,
    /// The original round-robin scan over every resident warp per issue
    /// slot.  Kept as the differential reference (tests/SimEngineTest.cpp,
    /// bench/sim_engine_perf) and as the fallback above 64 resident warps.
    Scan,
  };

  Engine EngineSel = Engine::Event;

  /// Watchdog cap on issued warp instructions.
  uint64_t MaxIssues = 1ull << 33;
  /// Watchdog cap on simulated cycles.  The default is far above any
  /// legitimate kernel in the paper's spaces (~2^31 cycles for the largest
  /// app) but finite, so a pathological trace terminates.
  uint64_t MaxCycles = 1ull << 40;
  /// Opt-in short circuit: when the §5.3 screen already classifies a
  /// configuration as bandwidth-bound, replace cycle simulation with the
  /// analytic estimateBandwidthBoundKernel() bound.  Off by default —
  /// results carry an estimate, not ground truth, and the journal
  /// fingerprint must change with this flag (requestHeader in
  /// serve/Shard.cpp appends it to Extra).  The decision itself lives in
  /// core/Evaluation.cpp, which owns the metrics.
  bool BandwidthFastPath = false;
};

/// Timing result and scheduler statistics.
struct SimResult {
  uint64_t Cycles = 0;
  double Seconds = 0;

  Occupancy Occ;

  uint64_t IssuedWarpInstrs = 0;   ///< Including synthetic loop control.
  uint64_t SyntheticCtlInstrs = 0; ///< The loop-control subset.
  /// Cycles the issue port sat idle because no resident warp had ready
  /// operands — the quantity the Utilization metric predicts.
  uint64_t IssueStallCycles = 0;
  /// Cycles of memory-queue serialization beyond raw latency (bandwidth
  /// pressure).
  uint64_t MemQueueWaitCycles = 0;
  uint64_t BlocksRun = 0; ///< Blocks executed on the simulated SM.

  /// True when Cycles/Seconds came from the analytic bandwidth bound
  /// (estimateBandwidthBoundKernel) instead of cycle simulation; the
  /// scheduler statistics above are zero in that case.
  bool BandwidthFastPath = false;

  /// Fraction of cycles the issue port was busy.
  double issueUtilization() const {
    return Cycles == 0 ? 0 : 1.0 - double(IssueStallCycles) / double(Cycles);
  }
};

/// Simulates \p K launched as \p Launch on \p Machine and returns timing.
/// Resource usage (hence occupancy) is taken from the same estimator the
/// metrics use, so metrics and ground truth agree about B_SM.
///
/// Failure diagnostics (all Stage Simulate unless noted):
///  - OccupancyInvalid (Stage Occupancy): the kernel cannot launch — the
///    paper's "invalid executable" outcome;
///  - SimulatorTimeout: a watchdog budget (MaxCycles/MaxIssues) ran out;
///  - SimulatorDeadlock: no resident warp can ever become ready again
///    while blocks are unfinished — e.g. a barrier in divergent control
///    flow, which hangs the block on real hardware.
Expected<SimResult> simulateKernel(const Kernel &K,
                                   const LaunchConfig &Launch,
                                   const MachineModel &Machine,
                                   const SimOptions &Opts = {});

/// Analytic lower-bound timing for a bandwidth-bound kernel: when the §5.3
/// screen says demanded DRAM traffic exceeds the machine's service rate,
/// run time is the bandwidth service time (plus issue-port time if that is
/// somehow larger, plus one latency to fill the pipeline) and cycle
/// simulation adds no information.  Returns a SimResult with
/// BandwidthFastPath set and scheduler statistics zeroed.  Shares the
/// occupancy check (and its OccupancyInvalid diagnostic) with
/// simulateKernel so the two entry points agree about launchability.
Expected<SimResult> estimateBandwidthBoundKernel(const Kernel &K,
                                                 const LaunchConfig &Launch,
                                                 const MachineModel &Machine,
                                                 const SimOptions &Opts = {});

} // namespace g80

#endif // G80TUNE_SIM_SIMULATOR_H
