//===- sim/Trace.h - Flattened execution trace program ----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Flattens a structured kernel body into a compact "trace program" that a
/// warp can step through with just a program counter and a loop-iteration
/// stack.  The timing simulator executes one of these per warp.
///
/// Transformations applied:
///  - Divergent if-regions are inlined as Then;Else (a SIMD warp
///    serializes through both sides); uniform regions as Then only.
///  - Each loop gains three synthetic loop-control instructions per
///    iteration (counter add, setp, branch — a dependent chain on a
///    synthetic per-depth counter register), matching the
///    LoopControlInstrsPerIter charge in StaticProfile so the metrics and
///    the ground-truth simulation agree about loop overhead.
///
/// The trace program is the determinism contract between the simulator's
/// two scheduler cores (scan and event, SimOptions::Engine): both execute
/// exactly this entry sequence per warp, so any pair of runs over the same
/// TraceProgram and launch must produce bit-identical SimResults
/// regardless of engine.  Anything that varies per-engine (ready masks,
/// wake calendars, period snapshots, the switch between cores) lives in
/// the simulator, never here.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SIM_TRACE_H
#define G80TUNE_SIM_TRACE_H

#include "ptx/Kernel.h"

#include <cstdint>
#include <vector>

namespace g80 {

/// One element of a trace program.
struct TraceEntry {
  enum class Kind : uint8_t {
    Instr,     ///< Execute I.
    LoopBegin, ///< Push TripCount onto the warp's loop stack.
    LoopEnd,   ///< Decrement; jump back to Match+1 unless exhausted.
  };

  Kind K = Kind::Instr;
  Instruction I;          ///< Valid when K == Instr.
  bool SyntheticCtl = false; ///< Loop-control instruction injected here.
  /// Barrier nested inside a divergent if-region.  Undefined behaviour on
  /// the hardware (§2.1: all warps of the block must reach the same
  /// barrier); the simulator models the observable outcome — the block
  /// hangs — so the watchdog can report a deadlock diagnostic.
  bool DivergentBar = false;
  uint64_t TripCount = 0; ///< Valid when K == LoopBegin.
  uint32_t Match = 0;     ///< LoopEnd -> index of its LoopBegin.
};

/// A flattened kernel ready for per-warp timing execution.
struct TraceProgram {
  std::vector<TraceEntry> Entries;
  /// Virtual registers including the synthetic loop-control registers
  /// appended after Kernel::numVRegs().
  unsigned NumRegs = 0;
  unsigned MaxLoopDepth = 0;
};

/// Builds the trace program for \p K.
TraceProgram buildTrace(const Kernel &K);

} // namespace g80

#endif // G80TUNE_SIM_TRACE_H
