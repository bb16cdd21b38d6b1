//===- bench/sim_engine_perf.cpp - Scan vs event engine throughput -----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Times raw cycle simulation — no metric evaluation, no sweep planning —
// of every expressible configuration of each application under both
// scheduler cores (SimOptions::Engine::Scan vs ::Event) and reports
// simulated cycles per wall second for each.  Kernels, launches, and
// expressibility checks are done once up front so the timed region is
// simulateKernel() alone; the same prebuilt variants feed both engines.
//
// Every configuration's result is compared field-for-field across the
// engines (cycles, issued instructions, issue stalls, memory-queue wait,
// blocks, and failure diagnostics), so this doubles as a whole-space
// differential check and is safe to gate CI on: the perf floor in
// .github/workflows/nightly.yml parses the "apps" rows of the JSON emitted
// here and fails if the event engine is ever slower than the scan engine
// on any app.
//
// The full-size run also times a fixed seeded sample of 128 expressible
// configurations from each app's large tier (SpaceTier::Large) and
// reports them under their own "large_sample" key, with no speed floor:
// the engines run close to even on cp and sad there.  Divergence on a
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
};

struct AppResult {
  std::string Name;
  size_t Configs = 0;
  EngineRun Scan;
  EngineRun Event;
  bool EnginesMatch = false;
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
  std::vector<Outcome> ScanOut, EventOut;
  // Scan first, event second, so a warm cache favors neither engine's
  // headline number more than run-to-run noise does.
  R.Scan = timeEngine(Variants, Machine, SimOptions::Engine::Scan, ScanOut);
  R.Event = timeEngine(Variants, Machine, SimOptions::Engine::Event, EventOut);
  R.EnginesMatch = ScanOut == EventOut;
  if (!R.EnginesMatch) // Pinpoint the first divergence for debugging.
    for (size_t I = 0; I != ScanOut.size(); ++I)
      if (!(ScanOut[I] == EventOut[I])) {
        const Outcome &S = ScanOut[I], &E = EventOut[I];
        std::cerr << Name << " config " << I << " diverged:\n  scan  cycles="
                  << S.Cycles << " issued=" << S.Issued << " stall=" << S.Stall
                  << " memwait=" << S.MemWait << " blocks=" << S.Blocks
                  << " err=" << S.Error << "\n  event cycles=" << E.Cycles
                  << " issued=" << E.Issued << " stall=" << E.Stall
                  << " memwait=" << E.MemWait << " blocks=" << E.Blocks
                  << " err=" << E.Error << "\n";
        break;
      }
  return R;
}

void writeRows(std::ostringstream &OS, const std::vector<AppResult> &Results) {
  for (size_t I = 0; I != Results.size(); ++I) {
    const AppResult &R = Results[I];
    auto PerSec = [](const EngineRun &E) {
      return E.Seconds > 0 ? double(E.SimCycles) / E.Seconds : 0;
    };
    double Speedup =
        R.Event.Seconds > 0 ? R.Scan.Seconds / R.Event.Seconds : 0;
    OS << "    {\"app\": \"" << jsonEscape(R.Name)
       << "\", \"configs\": " << R.Configs
       << ", \"scan_seconds\": " << fmtSci(R.Scan.Seconds)
       << ", \"event_seconds\": " << fmtSci(R.Event.Seconds)
       << ", \"sim_cycles_per_sec_scan\": " << fmtSci(PerSec(R.Scan))
       << ", \"sim_cycles_per_sec_event\": " << fmtSci(PerSec(R.Event))
       << ", \"sim_cycles\": " << R.Event.SimCycles
       << ", \"sim_issued\": " << R.Event.SimIssued
       << ", \"event_speedup\": " << fmtDouble(Speedup, 3)
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

  std::cout << "=== Simulator engine throughput: scan vs event ===\n\n";

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
    T.setHeader({"App", "Configs", "Scan cyc/s", "Event cyc/s", "Speedup",
                 "Match"});
    for (const AppResult &R : Rows) {
      auto PerSec = [](const EngineRun &E) {
        return E.Seconds > 0 ? double(E.SimCycles) / E.Seconds : 0;
      };
      double Speedup =
          R.Event.Seconds > 0 ? R.Scan.Seconds / R.Event.Seconds : 0;
      T.addRow({R.Name, fmtInt(uint64_t(R.Configs)), fmtSci(PerSec(R.Scan)),
                fmtSci(PerSec(R.Event)), fmtDouble(Speedup, 2) + "x",
                R.EnginesMatch ? "yes" : "NO"});
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
    std::cerr << "error: event engine diverged from scan engine\n";
    return 1;
  }
  return 0;
}
