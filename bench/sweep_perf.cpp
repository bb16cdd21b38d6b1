//===- bench/sweep_perf.cpp - Serial vs parallel sweep timing ----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Times an exhaustive sweep of each application's configuration space
// three ways — serially under the reference scan scheduler core, serially
// under the event core (the default engine), and under the event core
// with --jobs in-process threads — and reports the parallel
// speedup plus the throughput numbers (configurations/second and
// simulated cycles/second) behind each.  The per-engine columns measure
// the whole sweep (planning, kernel construction, metric evaluation, and
// simulation), so the engine speedup here is the end-to-end win, a lower
// bound on the raw simulateKernel() speedup that bench/sim_engine_perf
// isolates.  Also asserts the parallel outcome matches the serial one
// and that both engines produce identical outcomes, so this doubles as
// an end-to-end determinism smoke test.
//
// Emits machine-readable JSON (default BENCH_sweep.json) for the CI
// perf-regression artifact.
//
// Flags:
//   --app matmul|cp|sad|mri|all   which space(s) to sweep (default all)
//   --jobs N                      parallel worker count (default: hardware)
//   --tiny                        emulation-sized problems (CI smoke)
//   --out PATH                    JSON output path (default BENCH_sweep.json)
//   --trace PATH                  stream spans/counters to a JSONL file
//                                 during the parallel sweeps, then assert
//                                 every line is a well-formed trace record
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/TextTable.h"
#include "support/Trace.h"

#include <optional>

#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

struct AppResult {
  std::string Name;
  size_t Configs = 0;   ///< Measured candidates per sweep.
  uint64_t SimCycles = 0; ///< Total simulated cycles across candidates.
  double ScanSeconds = 0;   ///< Serial sweep, scan (reference) engine.
  double SerialSeconds = 0; ///< Serial sweep, event engine.
  double ParallelSeconds = 0; ///< --jobs N sweep, event engine.
  bool OutcomesMatch = false; ///< Serial event == parallel event.
  bool EnginesMatch = false;  ///< Serial scan == serial event.
};

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One timed exhaustive sweep: plan + drive.  A fresh engine per run so
/// the evaluator's kernel/metric memoization cannot leak work from the
/// serial timing into the parallel one.
SearchOutcome timedSweep(const TunableApp &App, unsigned Jobs,
                         SimOptions::Engine EngineSel, double &Seconds) {
  auto T0 = std::chrono::steady_clock::now();
  SimOptions SimO;
  SimO.EngineSel = EngineSel;
  SearchEngine Engine(App, MachineModel::geForce8800Gtx(), {}, SimO);
  SweepPlan Plan = Engine.planExhaustive(Jobs);
  SweepOptions Opts;
  Opts.Jobs = Jobs;
  SweepReport Report = SweepDriver(Engine, Opts).run(std::move(Plan));
  Seconds = secondsSince(T0);
  if (Report.Status != SweepStatus::Completed) {
    std::cerr << "error: sweep did not complete: " << Report.Error.Message
              << "\n";
    std::exit(1);
  }
  return std::move(Report.Outcome);
}

bool outcomesEqual(const SearchOutcome &A, const SearchOutcome &B) {
  if (A.Candidates != B.Candidates || A.Quarantined != B.Quarantined ||
      A.BestIndex != B.BestIndex || A.BestTime != B.BestTime ||
      A.TotalMeasuredSeconds != B.TotalMeasuredSeconds ||
      A.ValidCount != B.ValidCount)
    return false;
  for (size_t I : A.Candidates)
    if (A.Evals[I].Sim.Cycles != B.Evals[I].Sim.Cycles ||
        A.Evals[I].TimeSeconds != B.Evals[I].TimeSeconds)
      return false;
  return true;
}

AppResult benchApp(const std::string &Name, const TunableApp &App,
                   unsigned Jobs) {
  AppResult R;
  R.Name = Name;
  SearchOutcome Scan =
      timedSweep(App, 1, SimOptions::Engine::Scan, R.ScanSeconds);
  SearchOutcome Serial =
      timedSweep(App, 1, SimOptions::Engine::Event, R.SerialSeconds);
  SearchOutcome Parallel =
      timedSweep(App, Jobs, SimOptions::Engine::Event, R.ParallelSeconds);
  R.Configs = Serial.Candidates.size();
  for (size_t I : Serial.Candidates)
    R.SimCycles += Serial.Evals[I].Sim.Cycles;
  R.OutcomesMatch = outcomesEqual(Serial, Parallel);
  R.EnginesMatch = outcomesEqual(Scan, Serial);
  return R;
}

void writeJson(const std::string &Path, unsigned Jobs,
               const std::vector<AppResult> &Results) {
  std::ostringstream OS;
  // On a single-core runner the "parallel" sweep cannot scale, so its
  // speedup numbers are noise: scaling_valid tells consumers (CI perf
  // dashboards, regression gates) to skip speedup assertions rather
  // than fail on hardware that cannot express the difference.
  bool ScalingValid = defaultJobs() >= 2 && Jobs >= 2;
  OS << "{\n  \"bench\": \"sweep_perf\",\n  \"jobs\": " << Jobs
     << ",\n  \"hardware_concurrency\": " << defaultJobs()
     << ",\n  \"scaling_valid\": " << (ScalingValid ? "true" : "false")
     << ",\n  \"apps\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const AppResult &R = Results[I];
    double Speedup =
        R.ParallelSeconds > 0 ? R.SerialSeconds / R.ParallelSeconds : 0;
    auto PerSec = [&](double Seconds) {
      return Seconds > 0 ? double(R.Configs) / Seconds : 0;
    };
    double EngineSpeedup =
        R.SerialSeconds > 0 ? R.ScanSeconds / R.SerialSeconds : 0;
    OS << "    {\"app\": \"" << jsonEscape(R.Name)
       << "\", \"configs\": " << R.Configs
       << ", \"scan_seconds\": " << fmtSci(R.ScanSeconds)
       << ", \"serial_seconds\": " << fmtSci(R.SerialSeconds)
       << ", \"parallel_seconds\": " << fmtSci(R.ParallelSeconds)
       << ", \"speedup\": " << fmtDouble(Speedup, 3)
       << ", \"engine_speedup\": " << fmtDouble(EngineSpeedup, 3)
       << ", \"configs_per_sec_serial\": " << fmtDouble(PerSec(R.SerialSeconds), 1)
       << ", \"configs_per_sec_parallel\": "
       << fmtDouble(PerSec(R.ParallelSeconds), 1)
       << ", \"sim_cycles_per_sec_scan\": "
       << fmtSci(R.ScanSeconds > 0 ? double(R.SimCycles) / R.ScanSeconds : 0)
       << ", \"sim_cycles_per_sec\": "
       << fmtSci(R.ParallelSeconds > 0 ? double(R.SimCycles) / R.ParallelSeconds
                                       : 0)
       << ", \"outcomes_match\": " << (R.OutcomesMatch ? "true" : "false")
       << ", \"engines_match\": " << (R.EnginesMatch ? "true" : "false")
       << "}" << (I + 1 != Results.size() ? "," : "") << "\n";
  }
  OS << "  ]\n}\n";

  std::ofstream File(Path, std::ios::trunc);
  if (!File) {
    std::cerr << "error: cannot write " << Path << "\n";
    std::exit(1);
  }
  File << OS.str();
  std::cout << "\nwrote " << Path << "\n";
}

void usage() {
  std::cerr << "usage: sweep_perf [--app matmul|cp|sad|mri|all] [--jobs N] "
               "[--tiny] [--out PATH] [--trace PATH]\n";
  std::exit(2);
}

/// CI assertion: every line of \p Path parses as a trace record and the
/// file actually saw the sweeps (spans for simulate, counters for the
/// measured records).  readTraceSummary errors on any malformed line.
bool verifyTraceFile(const std::string &Path) {
  Expected<TraceSummary> S = readTraceSummary(Path);
  if (!S) {
    std::cerr << "error: trace verification failed: " << S.diag().Message
              << "\n";
    return false;
  }
  if (S->SpanLines == 0 || S->Counters.count("sweep.measured") == 0) {
    std::cerr << "error: trace file " << Path
              << " is well-formed but recorded no sweep activity\n";
    return false;
  }
  std::cout << "trace ok: " << Path << " (" << S->SpanLines << " spans, "
            << S->Stages.size() << " stages)\n";
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string Which = "all";
  std::string OutPath = "BENCH_sweep.json";
  std::string TracePath;
  unsigned Jobs = defaultJobs();
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
    else if (Arg == "--jobs")
      Jobs = unsigned(std::max(1, std::atoi(Value().c_str())));
    else if (Arg == "--tiny")
      Tiny = true;
    else if (Arg == "--out")
      OutPath = Value();
    else if (Arg == "--trace")
      TracePath = Value();
    else
      usage();
  }

  std::optional<Tracer> Trace;
  if (!TracePath.empty()) {
    Expected<Tracer> T = Tracer::toFile(TracePath);
    if (!T) {
      std::cerr << "error: --trace: " << T.diag().Message << "\n";
      return 2;
    }
    Trace.emplace(T.takeValue());
  }
  // Tracing stays on through both the serial and parallel sweeps; the
  // outcomes-match assertion below then also covers "tracing does not
  // perturb results".
  ScopedTracer TraceGuard(Trace ? &*Trace : nullptr);

  std::cout << "=== Sweep throughput: serial vs --jobs " << Jobs << " ("
            << defaultJobs()
            << " hardware threads) ===\n\n";

  struct Entry {
    const char *Name;
    std::function<std::unique_ptr<TunableApp>()> Make;
  };
  std::vector<Entry> Apps = {
      {"matmul",
       [&]() -> std::unique_ptr<TunableApp> {
         return std::make_unique<MatMulApp>(Tiny ? MatMulProblem::emulation()
                                                 : MatMulProblem::bench());
       }},
      {"cp",
       [&]() -> std::unique_ptr<TunableApp> {
         return std::make_unique<CpApp>(Tiny ? CpProblem::emulation()
                                             : CpProblem::bench());
       }},
      {"sad",
       [&]() -> std::unique_ptr<TunableApp> {
         return std::make_unique<SadApp>(Tiny ? SadApp::emulationProblem()
                                              : SadApp::benchProblem());
       }},
      {"mri",
       [&]() -> std::unique_ptr<TunableApp> {
         return std::make_unique<MriFhdApp>(Tiny ? MriProblem::emulation()
                                                 : MriProblem::bench());
       }},
  };

  std::vector<AppResult> Results;
  bool Ran = false;
  for (const Entry &E : Apps) {
    if (Which != "all" && Which != E.Name)
      continue;
    Ran = true;
    std::unique_ptr<TunableApp> App = E.Make();
    Results.push_back(benchApp(E.Name, *App, Jobs));
  }
  if (!Ran)
    usage();

  TextTable T;
  T.setHeader({"App", "Configs", "Scan", "Event", "Parallel", "Eng x",
               "Par x", "Match"});
  bool AllMatch = true;
  for (const AppResult &R : Results) {
    double Speedup =
        R.ParallelSeconds > 0 ? R.SerialSeconds / R.ParallelSeconds : 0;
    double EngineSpeedup =
        R.SerialSeconds > 0 ? R.ScanSeconds / R.SerialSeconds : 0;
    T.addRow({R.Name, fmtInt(uint64_t(R.Configs)),
              fmtDouble(R.ScanSeconds * 1e3, 1) + " ms",
              fmtDouble(R.SerialSeconds * 1e3, 1) + " ms",
              fmtDouble(R.ParallelSeconds * 1e3, 1) + " ms",
              fmtDouble(EngineSpeedup, 2) + "x",
              fmtDouble(Speedup, 2) + "x",
              R.OutcomesMatch && R.EnginesMatch ? "yes" : "NO"});
    AllMatch &= R.OutcomesMatch && R.EnginesMatch;
  }
  T.print(std::cout);

  writeJson(OutPath, Jobs, Results);

  if (Trace) {
    // Flush the counter lines before verifying the file.
    Trace->close();
    if (!verifyTraceFile(TracePath))
      return 1;
  }

  if (!AllMatch) {
    std::cerr << "error: sweep outcomes diverged (parallel vs serial, or "
                 "event vs scan engine)\n";
    return 1;
  }
  return 0;
}
