//===- bench/search_quality.cpp - Strategy quality vs budget -----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Measures every search strategy's solution quality against the
// exhaustive optimum, per application, as a function of measurement
// budget.  Quality is exhaustive_best_time / strategy_best_time, so 1.0
// means the strategy found the true optimum and 0.0 means it found
// nothing usable.  The budget-free strategies (pareto, cluster) appear
// once per app; the budgeted ones (random, greedy, anneal, genetic) get
// one row per requested budget.  Everything is seeded-deterministic, so
// the emitted numbers are stable across runs and machines and can be
// committed (BENCH_search.json) as the CI quality-floor reference.
//
// Emits machine-readable JSON (default BENCH_search.json) for the CI
// search-quality gate and the README strategy table.
//
// Flags:
//   --app matmul|cp|sad|mri|all   which space(s) to search (default all)
//   --budgets N[,N...]            budgets for budgeted strategies
//                                 (default 8,16,32,64)
//   --seed N                      strategy seed (default 1)
//   --jobs N                      parallel worker count (default: hardware)
//   --tiny                        emulation-sized problems (CI smoke)
//   --out PATH                    JSON output path (default BENCH_search.json)
//   --min-quality Q               gate: fail unless every strategy's
//                                 best row reaches quality >= Q
//
//===----------------------------------------------------------------------===//

#include "core/SearchStrategy.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/TextTable.h"

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace g80;

namespace {

struct Row {
  std::string Strategy;
  uint64_t Budget = 0; ///< 0 for budget-free strategies.
  size_t Measured = 0;
  double BestTime = 0; ///< 0 when nothing usable was found.
  double Quality = 0;  ///< exhaustive_best / best; 1.0 = optimum.
};

struct AppQuality {
  std::string Name;
  uint64_t RawSize = 0;
  size_t ExhaustiveMeasured = 0;
  double ExhaustiveBest = 0;
  std::vector<Row> Rows;
};

/// Runs one strategy to completion (no journal — quality only) and
/// returns its outcome.
SearchOutcome runStrategy(const SearchEngine &Engine, StrategyKind Kind,
                          const StrategyOptions &Opts) {
  if (strategyIsPlannable(Kind)) {
    SweepOptions SOpts;
    SOpts.Jobs = Opts.Jobs;
    SweepReport Rep =
        SweepDriver(Engine, SOpts).run(planForStrategy(Engine, Kind, Opts));
    if (Rep.Status != SweepStatus::Completed) {
      std::cerr << "error: " << strategyName(Kind)
                << " sweep failed: " << Rep.Error.Message << "\n";
      std::exit(1);
    }
    return std::move(Rep.Outcome);
  }
  SweepOptions SOpts;
  SOpts.Jobs = Opts.Jobs;
  SweepReport Rep = runAdaptiveSweep(Engine, Kind, Opts, SOpts);
  if (Rep.Status != SweepStatus::Completed) {
    std::cerr << "error: " << strategyName(Kind)
              << " search failed: " << Rep.Error.Message << "\n";
    std::exit(1);
  }
  return std::move(Rep.Outcome);
}

Row makeRow(StrategyKind Kind, uint64_t Budget, double ExhaustiveBest,
            const SearchOutcome &Out) {
  Row R;
  R.Strategy = strategyName(Kind);
  R.Budget = Budget;
  R.Measured = Out.Candidates.size();
  if (Out.hasBest()) {
    R.BestTime = Out.BestTime;
    R.Quality = Out.BestTime > 0 ? ExhaustiveBest / Out.BestTime : 0;
  }
  return R;
}

AppQuality benchApp(const std::string &Name, const TunableApp &App,
                    const std::vector<uint64_t> &Budgets, uint64_t Seed,
                    unsigned Jobs) {
  AppQuality Q;
  Q.Name = Name;
  Q.RawSize = App.space().rawSize();
  SearchEngine Engine(App, MachineModel::geForce8800Gtx());

  StrategyOptions Opts;
  Opts.Seed = Seed;
  Opts.Jobs = Jobs;

  SearchOutcome Ex = runStrategy(Engine, StrategyKind::Exhaustive, Opts);
  if (!Ex.hasBest()) {
    std::cerr << "error: exhaustive sweep of " << Name
              << " found nothing usable\n";
    std::exit(1);
  }
  Q.ExhaustiveMeasured = Ex.Candidates.size();
  Q.ExhaustiveBest = Ex.BestTime;

  for (StrategyKind Kind : {StrategyKind::Pareto, StrategyKind::Cluster})
    Q.Rows.push_back(makeRow(Kind, 0, Q.ExhaustiveBest,
                             runStrategy(Engine, Kind, Opts)));
  for (StrategyKind Kind : {StrategyKind::Random, StrategyKind::Greedy,
                            StrategyKind::Anneal, StrategyKind::Genetic})
    for (uint64_t B : Budgets) {
      Opts.Budget = B;
      Q.Rows.push_back(makeRow(Kind, B, Q.ExhaustiveBest,
                               runStrategy(Engine, Kind, Opts)));
    }
  return Q;
}

void writeJson(const std::string &Path, uint64_t Seed,
               const std::vector<AppQuality> &Results) {
  std::ostringstream OS;
  OS << "{\n  \"bench\": \"search_quality\",\n  \"seed\": " << Seed
     << ",\n  \"apps\": [\n";
  for (size_t I = 0; I != Results.size(); ++I) {
    const AppQuality &Q = Results[I];
    OS << "    {\"app\": \"" << jsonEscape(Q.Name)
       << "\", \"raw_size\": " << Q.RawSize
       << ", \"exhaustive_measured\": " << Q.ExhaustiveMeasured
       << ", \"exhaustive_best_seconds\": " << fmtSci(Q.ExhaustiveBest)
       << ",\n     \"rows\": [\n";
    for (size_t J = 0; J != Q.Rows.size(); ++J) {
      const Row &R = Q.Rows[J];
      OS << "       {\"strategy\": \"" << jsonEscape(R.Strategy)
         << "\", \"budget\": " << R.Budget
         << ", \"measured\": " << R.Measured
         << ", \"best_seconds\": " << fmtSci(R.BestTime)
         << ", \"quality\": " << fmtDouble(R.Quality, 4) << "}"
         << (J + 1 != Q.Rows.size() ? "," : "") << "\n";
    }
    OS << "     ]}" << (I + 1 != Results.size() ? "," : "") << "\n";
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
  std::cerr << "usage: search_quality [--app matmul|cp|sad|mri|all] "
               "[--budgets N[,N...]] [--seed N] [--jobs N] [--tiny] "
               "[--out PATH] [--min-quality Q]\n";
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  std::string Which = "all";
  std::string OutPath = "BENCH_search.json";
  std::vector<uint64_t> Budgets = {8, 16, 32, 64};
  uint64_t Seed = 1;
  unsigned Jobs = defaultJobs();
  bool Tiny = false;
  double MinQuality = -1;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= argc)
        usage();
      return argv[++I];
    };
    if (Arg == "--app")
      Which = Value();
    else if (Arg == "--budgets") {
      Budgets.clear();
      std::stringstream SS(Value());
      std::string Tok;
      while (std::getline(SS, Tok, ','))
        Budgets.push_back(uint64_t(std::max(1L, std::atol(Tok.c_str()))));
      if (Budgets.empty())
        usage();
    } else if (Arg == "--seed")
      Seed = uint64_t(std::max(0L, std::atol(Value().c_str())));
    else if (Arg == "--jobs")
      Jobs = unsigned(std::max(1, std::atoi(Value().c_str())));
    else if (Arg == "--tiny")
      Tiny = true;
    else if (Arg == "--out")
      OutPath = Value();
    else if (Arg == "--min-quality")
      MinQuality = std::atof(Value().c_str());
    else
      usage();
  }

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

  std::cout << "=== Search quality vs exhaustive optimum (seed " << Seed
            << ") ===\n\n";

  std::vector<AppQuality> Results;
  bool Ran = false;
  for (const Entry &E : Apps) {
    if (Which != "all" && Which != E.Name)
      continue;
    Ran = true;
    std::unique_ptr<TunableApp> App = E.Make();
    Results.push_back(benchApp(E.Name, *App, Budgets, Seed, Jobs));
  }
  if (!Ran)
    usage();

  TextTable T;
  T.setHeader({"App", "Strategy", "Budget", "Measured", "Best", "Quality"});
  for (const AppQuality &Q : Results)
    for (const Row &R : Q.Rows)
      T.addRow({Q.Name, R.Strategy,
                R.Budget ? fmtInt(R.Budget) : std::string("-"),
                fmtInt(uint64_t(R.Measured)),
                fmtDouble(R.BestTime * 1e3, 3) + " ms",
                fmtDouble(R.Quality, 4)});
  T.print(std::cout);

  writeJson(OutPath, Seed, Results);

  if (MinQuality >= 0) {
    // Gate on each strategy's best row: a budgeted strategy passes if any
    // requested budget reaches the floor (CI runs reduced budgets, so the
    // largest one is what matters).
    bool Ok = true;
    for (const AppQuality &Q : Results) {
      std::map<std::string, double> BestPerStrategy;
      for (const Row &R : Q.Rows) {
        auto It = BestPerStrategy.find(R.Strategy);
        if (It == BestPerStrategy.end() || R.Quality > It->second)
          BestPerStrategy[R.Strategy] = R.Quality;
      }
      for (const auto &P : BestPerStrategy)
        if (P.second < MinQuality) {
          std::cerr << "error: " << Q.Name << "/" << P.first
                    << " best quality " << fmtDouble(P.second, 4)
                    << " is below the floor " << fmtDouble(MinQuality, 4)
                    << "\n";
          Ok = false;
        }
    }
    if (!Ok)
      return 1;
    std::cout << "quality floor " << fmtDouble(MinQuality, 4)
              << " met by every strategy\n";
  }
  return 0;
}
