//===- bench/g80bench/g80bench.cpp - The end-to-end benchmark -------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Runs one workload (or all four) and prints every metric by name and
// unit, then one JSON result line:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// Untraced runs report the end-to-end metrics; traced runs (--trace 1)
// report the per-layer metrics from the direct layer calls made after the
// timed section.  Exits 1 when any output check fails.
//
// Flags:
//   --workload paper_small|search_large|serve_tcp|fleet_sad|all
//   --seed N        workload seed (default 1)
//   --seconds S     timed section length per workload (default 20)
//   --trace 0|1     per-layer run (default 0)
//   --smoke         a few operations per workload; with --workload all,
//                   each workload runs untraced and traced
//   --work DIR      scratch root (default .bench_build/work)
//   --expected F    committed digests (default: none checked)
//   --spans F       write the traced run's spans as JSONL
//
//===----------------------------------------------------------------------===//

#include "Microscope.h"
#include "Workloads.h"

#include "support/Numeric.h"
#include "support/Socket.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>

#include <unistd.h>

using namespace g80;
using namespace g80bench;

namespace {

const std::vector<std::string> AllWorkloads = {"paper_small", "search_large",
                                               "serve_tcp", "fleet_sad"};

struct Report {
  bool Correct = false;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

std::vector<Metric> endToEnd(const RunResult &R) {
  return {{"setup_s", median(R.SetupSeconds), "s"},
          {"configs_per_s", R.ConfigsPerSec, "1/s"},
          {"latency_p50_ms", R.LatencyP50Ms, "ms"},
          {"latency_tail_ms", R.LatencyTailMs, "ms"},
          {"peak_rss_mb", std::max(R.WorkerPeakRssMb, selfPeakRssMb()), "MB"}};
}

void printMetrics(const std::string &Workload, const char *Kind,
                  const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::cout << Workload << " " << Kind << " " << M.Name << " = " << M.Value
              << " " << M.Unit << "\n";
}

Report runWorkload(RunConfig Cfg, const std::string &WorkRoot,
                   const std::string &SpansPath) {
  Cfg.WorkDir = WorkRoot + "/" + Cfg.Workload + "-" +
                std::to_string(getpid()) + (Cfg.Trace ? "-traced" : "");
  std::error_code Ec;
  std::filesystem::remove_all(Cfg.WorkDir, Ec);
  std::filesystem::create_directories(Cfg.WorkDir);

  Spans S(Cfg.Trace, Cfg.Workload);
  Checker C;
  Microscope M(S, C, Cfg.WorkDir + "/microscope");
  RunResult R;
  if (Cfg.Workload == "paper_small")
    R = runPaperSmall(Cfg, S, C, M);
  else if (Cfg.Workload == "search_large")
    R = runSearchLarge(Cfg, S, C, M);
  else if (Cfg.Workload == "serve_tcp")
    R = runServeTcp(Cfg, S, C, M);
  else
    R = runFleetSad(Cfg, S, C, M);

  Report Rep;
  std::vector<Metric> E2e = endToEnd(R);
  printMetrics(Cfg.Workload, Cfg.Trace ? "traced-e2e" : "e2e", E2e);
  std::cout << Cfg.Workload << " latency: " << R.LatencyNote << "\n";
  Rep.Metrics = Cfg.Trace ? M.metrics() : E2e;
  if (Cfg.Trace)
    printMetrics(Cfg.Workload, "layer", Rep.Metrics);
  for (const Metric &Mt : Rep.Metrics)
    C.check(std::isfinite(Mt.Value) && (!Cfg.Trace || Mt.Value != 0),
            Cfg.Workload + " metric " + Mt.Name + " was not measured");
  C.check(R.LatencyP50Ms > 0 && R.ConfigsPerSec > 0 &&
              !R.SetupSeconds.empty(),
          Cfg.Workload + " timed nothing");
  if (Cfg.Trace && !SpansPath.empty())
    C.check(S.writeJsonl(SpansPath), "cannot write " + SpansPath);

  Rep.Attempted = std::max<uint64_t>(1, R.Attempted);
  Rep.Failed = R.Failed + C.failures();
  Rep.Correct = C.failures() == 0;
  std::filesystem::remove_all(Cfg.WorkDir, Ec);
  return Rep;
}

std::string toJson(const Report &Rep) {
  std::ostringstream OS;
  OS.precision(17);
  OS << "{\"correct\": " << (Rep.Correct ? "true" : "false")
     << ", \"attempted\": " << Rep.Attempted << ", \"failed\": " << Rep.Failed
     << ", \"metrics\": {";
  for (size_t I = 0; I != Rep.Metrics.size(); ++I) {
    const Metric &M = Rep.Metrics[I];
    OS << (I ? ", " : "") << "\"" << M.Name << "\": {\"value\": "
       << (std::isfinite(M.Value) ? M.Value : 0.0) << ", \"unit\": \""
       << M.Unit << "\"}";
  }
  OS << "}}";
  return OS.str();
}

[[noreturn]] void usage(const std::string &Why) {
  std::cerr << "g80bench: " << Why
            << "\nusage: g80bench [--workload NAME|all] [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--work DIR] "
               "[--expected FILE] [--spans FILE]\n";
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Base;
  std::string Workload = "all", WorkRoot = ".bench_build/work", SpansPath;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(Arg + " needs a value");
      return Argv[++I];
    };
    if (Arg == "--workload") {
      Workload = Value();
    } else if (Arg == "--seed") {
      Expected<uint64_t> V = parseUint64(Value());
      if (!V)
        usage("bad --seed");
      Base.Seed = *V;
    } else if (Arg == "--seconds") {
      Expected<double> V = parseDouble(Value());
      if (!V || !(*V > 0))
        usage("bad --seconds");
      Base.Seconds = *V;
    } else if (Arg == "--trace") {
      std::string V = Value();
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      Base.Trace = V == "1";
    } else if (Arg == "--smoke") {
      Base.Smoke = true;
    } else if (Arg == "--work") {
      WorkRoot = Value();
    } else if (Arg == "--expected") {
      Base.ExpectedPath = Value();
    } else if (Arg == "--spans") {
      SpansPath = Value();
    } else {
      usage("unknown flag " + Arg);
    }
  }
  std::vector<std::string> Workloads;
  if (Workload == "all")
    Workloads = AllWorkloads;
  else if (std::find(AllWorkloads.begin(), AllWorkloads.end(), Workload) !=
           AllWorkloads.end())
    Workloads = {Workload};
  else
    usage("unknown workload " + Workload);
  if (!socketsSupported())
    usage("this platform has no sockets; serve_tcp and fleet_sad need them");

  std::vector<bool> TraceModes = {Base.Trace};
  if (Base.Smoke && Workload == "all")
    TraceModes = {false, true};

  Report All;
  All.Correct = true;
  for (const std::string &W : Workloads)
    for (bool Trace : TraceModes) {
      RunConfig Cfg = Base;
      Cfg.Workload = W;
      Cfg.Trace = Trace;
      std::string Spans = SpansPath;
      if (!Spans.empty() && Workloads.size() > 1)
        Spans += "." + W;
      Report Rep = runWorkload(Cfg, WorkRoot, Spans);
      if (Workloads.size() == 1 && TraceModes.size() == 1) {
        std::cout << toJson(Rep) << std::endl;
        return Rep.Correct ? 0 : 1;
      }
      All.Correct = All.Correct && Rep.Correct;
      All.Attempted += Rep.Attempted;
      All.Failed += Rep.Failed;
      for (Metric M : Rep.Metrics) {
        M.Name = W + (Trace ? ".layer." : ".") + M.Name;
        All.Metrics.push_back(M);
      }
    }
  std::cout << toJson(All) << std::endl;
  return All.Correct ? 0 : 1;
}
