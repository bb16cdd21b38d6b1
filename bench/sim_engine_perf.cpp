//===- bench/sim_engine_perf.cpp - Simulator engine throughput ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Times raw cycle simulation — no metric evaluation, no sweep planning —
// of every expressible configuration of each application under the
// default engine (SimOptions::Engine::Adaptive), the Scan oracle and the
// forced event core, and reports simulated cycles per wall second for
// each, plus how many default launches moved to the event core.
// Kernels, launches, and expressibility checks are done once up front so
// the timed region is simulateKernel() alone; the same prebuilt variants
// feed every engine.
//
// Every configuration's result is compared field-for-field across the
// engines (cycles, issued instructions, issue stalls, memory-queue wait,
// blocks, and failure diagnostics), so this doubles as a whole-space
// differential check and is safe to gate CI on: the perf floor in
// .github/workflows/nightly.yml parses the "apps" and "large_sample" rows
// of the JSON emitted here and fails if the default engine is ever
// clearly slower than the Scan oracle.
//
// The full-size run also times a fixed seeded sample of 128 expressible
// configurations from each app's large tier (SpaceTier::Large) and
// reports them under their own "large_sample" key.  Divergence on a
// sampled point fails the run like divergence anywhere else.
//
// Flags:
//   --app matmul|cp|sad|mri|all   which space(s) to time (default all)
//   --tiny                        emulation-sized problems, no large-tier
//                                 sample (CI smoke)
//   --out PATH                    JSON output (default BENCH_sim_engine.json)
//
//===----------------------------------------------------------------------===//

#include "arch/MachineModel.h"
#include "core/TunableApp.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "sim/Simulator.h"
#include "support/Format.h"
#include "support/Journal.h"
#include "support/Random.h"
#include "support/TextTable.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

struct Variant {
  Kernel K;
  LaunchConfig Launch;
};

struct EngineRun {
  double Seconds = 0;
  uint64_t SimCycles = 0; ///< Sum of Cycles over successful simulations.
  uint64_t SimIssued = 0; ///< Sum of IssuedWarpInstrs over the same runs.
  uint64_t Failures = 0;  ///< Occupancy-invalid and other diagnostics.
  uint64_t OnEvent = 0;   ///< Launches that ran on the event core.

  double cyclesPerSec() const {
    return Seconds > 0 ? double(SimCycles) / Seconds : 0;
  }
};

struct AppResult {
  std::string Name;
  size_t Configs = 0;
  EngineRun Scan;    ///< The oracle.
  EngineRun Default; ///< SimOptions{}: the adaptive engine.
  EngineRun Event;   ///< The event core from the first issue.
  bool EnginesMatch = false;

  double defaultSpeedup() const {
    return Default.Seconds > 0 ? Scan.Seconds / Default.Seconds : 0;
  }
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One simulateKernel outcome, flattened for cross-engine comparison.
struct Outcome {
  bool Ok = false;
  uint64_t Cycles = 0;
  uint64_t Issued = 0;
  uint64_t Stall = 0;
  uint64_t MemWait = 0;
  uint64_t Blocks = 0;
  unsigned Bsm = 0;
  std::string Error;

  bool operator==(const Outcome &O) const {
    return Ok == O.Ok && Cycles == O.Cycles && Issued == O.Issued &&
           Stall == O.Stall && MemWait == O.MemWait && Blocks == O.Blocks &&
           Bsm == O.Bsm && Error == O.Error;
  }
};

EngineRun timeEngine(const std::vector<Variant> &Variants,
                     const MachineModel &Machine, SimOptions::Engine Engine,
                     std::vector<Outcome> &Outcomes) {
  SimOptions Opts;
  Opts.EngineSel = Engine;
  Outcomes.clear();
  Outcomes.reserve(Variants.size());
  EngineRun R;
  // The simulator reports its core choice as a trace counter; nothing
  // else is traced inside simulateKernel, so the file stays one line.
  Expected<Tracer> Counters = Tracer::toFile("/dev/null");
  if (!Counters) {
    std::cerr << "error: " << Counters.diag().Message << "\n";
    std::exit(1);
  }
  ScopedTracer Install(&*Counters);
  auto T0 = std::chrono::steady_clock::now();
  for (const Variant &V : Variants) {
    Expected<SimResult> Sim = simulateKernel(V.K, V.Launch, Machine, Opts);
    Outcome O;
    if (Sim) {
      O.Ok = true;
      O.Cycles = Sim->Cycles;
      O.Issued = Sim->IssuedWarpInstrs;
      O.Stall = Sim->IssueStallCycles;
      O.MemWait = Sim->MemQueueWaitCycles;
      O.Blocks = Sim->BlocksRun;
      O.Bsm = Sim->Occ.BlocksPerSM;
      R.SimCycles += Sim->Cycles;
      R.SimIssued += Sim->IssuedWarpInstrs;
    } else {
      O.Error = Sim.diag().Message;
      ++R.Failures;
    }
    Outcomes.push_back(std::move(O));
  }
  R.Seconds = secondsSince(T0);
  R.OnEvent = Counters->counterValue("sim.event_core");
  return R;
}

/// Flat indices of every expressible point of \p App's space.
std::vector<uint64_t> expressibleIndices(const TunableApp &App) {
  std::vector<uint64_t> Indices;
  for (uint64_t I = 0, N = App.space().rawSize(); I != N; ++I)
    if (App.isExpressible(App.space().pointAt(I)))
      Indices.push_back(I);
  return Indices;
}

/// A fixed seeded sample of \p N expressible flat indices (all of them if
/// fewer), in index order.
std::vector<uint64_t> sampleIndices(const TunableApp &App, size_t N) {
  std::vector<uint64_t> Indices = expressibleIndices(App);
  N = std::min(N, Indices.size());
  Rng R(0x5eed);
  for (size_t I = 0; I != N; ++I) // Partial Fisher-Yates.
    std::swap(Indices[I], Indices[I + R.nextBelow(Indices.size() - I)]);
  Indices.resize(N);
  std::sort(Indices.begin(), Indices.end());
  return Indices;
}

AppResult benchApp(const std::string &Name, const TunableApp &App,
                   const std::vector<uint64_t> &Indices) {
  const MachineModel Machine = MachineModel::geForce8800Gtx();
  std::vector<Variant> Variants;
  for (uint64_t I : Indices) {
    ConfigPoint P = App.space().pointAt(I);
    Variants.push_back({App.buildKernel(P), App.launch(P)});
  }

  AppResult R;
  R.Name = Name;
  R.Configs = Variants.size();
  std::vector<Outcome> ScanOut, DefaultOut, EventOut;
  // The oracle first, so a warm cache favors neither faster engine's
  // headline number more than run-to-run noise does.
  R.Scan = timeEngine(Variants, Machine, SimOptions::Engine::Scan, ScanOut);
  R.Default =
      timeEngine(Variants, Machine, SimOptions::Engine::Adaptive, DefaultOut);
  R.Event = timeEngine(Variants, Machine, SimOptions::Engine::Event, EventOut);
  R.EnginesMatch = ScanOut == DefaultOut && ScanOut == EventOut;
  // Pinpoint the first divergence for debugging.
  for (size_t I = 0; !R.EnginesMatch && I != ScanOut.size(); ++I) {
    const Outcome &S = ScanOut[I];
    const Outcome &O = S == DefaultOut[I] ? EventOut[I] : DefaultOut[I];
    if (S == O)
      continue;
    std::cerr << Name << " config " << I << " diverged ("
              << (S == DefaultOut[I] ? "event" : "default")
              << " engine):\n  scan  cycles=" << S.Cycles
              << " issued=" << S.Issued << " stall=" << S.Stall
              << " memwait=" << S.MemWait << " blocks=" << S.Blocks
              << " err=" << S.Error << "\n  other cycles=" << O.Cycles
              << " issued=" << O.Issued << " stall=" << O.Stall
              << " memwait=" << O.MemWait << " blocks=" << O.Blocks
              << " err=" << O.Error << "\n";
    break;
  }
  return R;
}

void writeRows(std::ostringstream &OS, const std::vector<AppResult> &Results) {
  for (size_t I = 0; I != Results.size(); ++I) {
    const AppResult &R = Results[I];
    OS << "    {\"app\": \"" << jsonEscape(R.Name)
       << "\", \"configs\": " << R.Configs
       << ", \"scan_seconds\": " << fmtSci(R.Scan.Seconds)
       << ", \"default_seconds\": " << fmtSci(R.Default.Seconds)
       << ", \"event_seconds\": " << fmtSci(R.Event.Seconds)
       << ", \"sim_cycles_per_sec_scan\": " << fmtSci(R.Scan.cyclesPerSec())
       << ", \"sim_cycles_per_sec_default\": "
       << fmtSci(R.Default.cyclesPerSec())
       << ", \"sim_cycles_per_sec_event\": "
       << fmtSci(R.Event.cyclesPerSec())
       << ", \"sim_cycles\": " << R.Default.SimCycles
       << ", \"sim_issued\": " << R.Default.SimIssued
       << ", \"default_on_event_core\": " << R.Default.OnEvent
       << ", \"default_speedup\": " << fmtDouble(R.defaultSpeedup(), 3)
       << ", \"engines_match\": " << (R.EnginesMatch ? "true" : "false")
       << "}" << (I + 1 != Results.size() ? "," : "") << "\n";
  }
}

void writeJson(const std::string &Path, const std::vector<AppResult> &Results,
               const std::vector<AppResult> &Large) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"sim_engine_perf\",\n  \"apps\": [\n";
  writeRows(OS, Results);
  OS << "  ]";
  if (!Large.empty()) {
    OS << ",\n  \"large_sample\": [\n";
    writeRows(OS, Large);
    OS << "  ]";
  }
  OS << "\n}\n";

  std::ofstream File(Path, std::ios::trunc);
  if (!File) {
    std::cerr << "error: cannot write " << Path << "\n";
    std::exit(1);
  }
  File << OS.str();
  std::cout << "\nwrote " << Path << "\n";
}

void usage() {
  std::cerr
      << "usage: sim_engine_perf [--app matmul|cp|sad|mri|all] [--tiny] "
         "[--out PATH]\n";
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  std::string Which = "all";
  std::string OutPath = "BENCH_sim_engine.json";
  bool Tiny = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (Arg == "--app")
      Which = Value();
    else if (Arg == "--tiny")
      Tiny = true;
    else if (Arg == "--out")
      OutPath = Value();
    else
      usage();
  }

  struct Entry {
    const char *Name;
    std::function<std::unique_ptr<TunableApp>(SpaceTier)> Make;
  };
  std::vector<Entry> Apps = {
      {"matmul",
       [&](SpaceTier Tier) -> std::unique_ptr<TunableApp> {
         return std::make_unique<MatMulApp>(
             Tiny ? MatMulProblem::emulation() : MatMulProblem::bench(), Tier);
       }},
      {"cp",
       [&](SpaceTier Tier) -> std::unique_ptr<TunableApp> {
         return std::make_unique<CpApp>(
             Tiny ? CpProblem::emulation() : CpProblem::bench(), Tier);
       }},
      {"sad",
       [&](SpaceTier Tier) -> std::unique_ptr<TunableApp> {
         return std::make_unique<SadApp>(
             Tiny ? SadApp::emulationProblem() : SadApp::benchProblem(), Tier);
       }},
      {"mri",
       [&](SpaceTier Tier) -> std::unique_ptr<TunableApp> {
         return std::make_unique<MriFhdApp>(
             Tiny ? MriProblem::emulation() : MriProblem::bench(), Tier);
       }},
  };

  std::cout << "=== Simulator engine throughput: default vs scan oracle "
               "(and event) ===\n\n";

  std::vector<AppResult> Results, Large;
  bool Ran = false;
  for (const Entry &E : Apps) {
    if (Which != "all" && Which != E.Name)
      continue;
    Ran = true;
    std::unique_ptr<TunableApp> App = E.Make(SpaceTier::Small);
    Results.push_back(benchApp(E.Name, *App, expressibleIndices(*App)));
    if (!Tiny) {
      App = E.Make(SpaceTier::Large);
      Large.push_back(benchApp(E.Name, *App, sampleIndices(*App, 128)));
    }
  }
  if (!Ran)
    usage();

  bool AllMatch = true;
  auto PrintTable = [&](const std::vector<AppResult> &Rows) {
    TextTable T;
    T.setHeader({"App", "Configs", "Scan cyc/s", "Default cyc/s",
                 "Event cyc/s", "Default/scan", "On event", "Match"});
    for (const AppResult &R : Rows) {
      T.addRow({R.Name, fmtInt(uint64_t(R.Configs)),
                fmtSci(R.Scan.cyclesPerSec()), fmtSci(R.Default.cyclesPerSec()),
                fmtSci(R.Event.cyclesPerSec()),
                fmtDouble(R.defaultSpeedup(), 2) + "x",
                fmtInt(R.Default.OnEvent), R.EnginesMatch ? "yes" : "NO"});
      AllMatch &= R.EnginesMatch;
    }
    T.print(std::cout);
  };
  PrintTable(Results);
  if (!Large.empty()) {
    std::cout << "\nLarge tier, seeded sample:\n";
    PrintTable(Large);
  }

  writeJson(OutPath, Results, Large);

  if (!AllMatch) {
    std::cerr << "error: an engine diverged from the scan oracle\n";
    return 1;
  }
  return 0;
}
