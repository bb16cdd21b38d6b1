//===- core/SearchStrategy.cpp --------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/SearchStrategy.h"

#include "support/ErrorHandling.h"
#include "support/Random.h"

#include <algorithm>
#include <cmath>

using namespace g80;

//===--- Registry -------------------------------------------------------------//

const char *g80::strategyName(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::Exhaustive:
    return "exhaustive";
  case StrategyKind::Pareto:
    return "pareto";
  case StrategyKind::Cluster:
    return "cluster";
  case StrategyKind::Random:
    return "random";
  case StrategyKind::Greedy:
    return "greedy";
  case StrategyKind::Anneal:
    return "anneal";
  case StrategyKind::Genetic:
    return "genetic";
  }
  return "pareto";
}

bool g80::parseStrategy(std::string_view Name, StrategyKind &Kind) {
  for (StrategyKind K : allStrategies())
    if (Name == strategyName(K)) {
      Kind = K;
      return true;
    }
  return false;
}

bool g80::strategyIsPlannable(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::Exhaustive:
  case StrategyKind::Pareto:
  case StrategyKind::Cluster:
  case StrategyKind::Random:
    return true;
  case StrategyKind::Greedy:
  case StrategyKind::Anneal:
  case StrategyKind::Genetic:
    return false;
  }
  return true;
}

bool g80::strategyUsesBudget(StrategyKind Kind) {
  switch (Kind) {
  case StrategyKind::Exhaustive:
  case StrategyKind::Pareto:
  case StrategyKind::Cluster:
    return false;
  case StrategyKind::Random:
  case StrategyKind::Greedy:
  case StrategyKind::Anneal:
  case StrategyKind::Genetic:
    return true;
  }
  return false;
}

const std::vector<StrategyKind> &g80::allStrategies() {
  static const std::vector<StrategyKind> All = {
      StrategyKind::Exhaustive, StrategyKind::Pareto,
      StrategyKind::Cluster,    StrategyKind::Random,
      StrategyKind::Greedy,     StrategyKind::Anneal,
      StrategyKind::Genetic};
  return All;
}

SweepPlan g80::planForStrategy(const SearchEngine &Engine, StrategyKind Kind,
                               const StrategyOptions &Opts) {
  switch (Kind) {
  case StrategyKind::Exhaustive:
    return Engine.planExhaustive(Opts.Jobs);
  case StrategyKind::Pareto:
    return Engine.planPareto({}, Opts.Jobs);
  case StrategyKind::Cluster:
    return Engine.planClustered(Opts.Jobs);
  case StrategyKind::Random:
    return Engine.planRandom(size_t(Opts.Budget), Opts.Seed, Opts.Jobs);
  case StrategyKind::Greedy:
  case StrategyKind::Anneal:
  case StrategyKind::Genetic:
    break;
  }
  reportFatalError("adaptive strategies have no up-front plan; use "
                   "runAdaptiveSweep");
}

//===--- Coordinate helpers ---------------------------------------------------//

namespace {

/// A point as per-dimension value *indices* — the representation cursors
/// walk in (neighbors are ±1 index steps).
using Coord = std::vector<size_t>;

uint64_t flatOf(const ConfigSpace &Space, const Coord &C) {
  uint64_t Flat = 0;
  for (size_t D = 0; D != Space.numDims(); ++D)
    Flat = Flat * Space.dim(D).Values.size() + C[D];
  return Flat;
}

Coord coordOf(const ConfigSpace &Space, uint64_t Flat) {
  Coord C(Space.numDims());
  // Mirrors ConfigSpace::pointAt: last dimension varies fastest.
  for (size_t D = Space.numDims(); D-- > 0;) {
    size_t N = Space.dim(D).Values.size();
    C[D] = size_t(Flat % N);
    Flat /= N;
  }
  return C;
}

/// Decorrelates per-chain / per-purpose streams from one user seed.
uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  return Seed ^ (0x9e3779b97f4a7c15ULL * (Salt + 1));
}

//===--- Greedy: random-restart hill climbing ---------------------------------//

class GreedyCursor final : public SearchCursor {
public:
  GreedyCursor(const ConfigSpace &Space, std::vector<uint64_t> Expressible,
               const StrategyOptions &Opts)
      : Space(Space), Expressible(std::move(Expressible)), R(Opts.Seed) {}

  std::vector<uint64_t> nextRound() override {
    if (Expressible.empty())
      return {};
    if (!HaveCurrent) {
      if (StartDraws >= MaxStartDraws)
        return {};
      ++StartDraws;
      return {Expressible[R.nextBelow(Expressible.size())]};
    }
    std::vector<uint64_t> Out;
    for (size_t D = 0; D != Space.numDims(); ++D) {
      size_t N = Space.dim(D).Values.size();
      if (Cur[D] > 0) {
        Coord C = Cur;
        --C[D];
        Out.push_back(flatOf(Space, C));
      }
      if (Cur[D] + 1 < N) {
        Coord C = Cur;
        ++C[D];
        Out.push_back(flatOf(Space, C));
      }
    }
    if (Out.empty()) {
      // Single-point space: nothing to climb.
      HaveCurrent = false;
      StartDraws = MaxStartDraws;
      return {};
    }
    return Out;
  }

  void feed(const std::vector<ProbeResult> &Round) override {
    if (!HaveCurrent) {
      if (Round.size() == 1 && Round[0].Usable) {
        Cur = coordOf(Space, Round[0].FlatIndex);
        CurTime = Round[0].TimeSeconds;
        HaveCurrent = true;
      }
      return;
    }
    double BestT = CurTime;
    uint64_t BestFlat = 0;
    bool Moved = false;
    for (const ProbeResult &P : Round)
      if (P.Usable && P.TimeSeconds < BestT) {
        BestT = P.TimeSeconds;
        BestFlat = P.FlatIndex;
        Moved = true;
      }
    if (Moved) {
      Cur = coordOf(Space, BestFlat);
      CurTime = BestT;
    } else {
      // Local optimum: restart from a fresh random draw so leftover
      // budget keeps exploring instead of idling.
      HaveCurrent = false;
    }
  }

private:
  static constexpr size_t MaxStartDraws = 1024;

  const ConfigSpace &Space;
  std::vector<uint64_t> Expressible;
  Rng R;
  bool HaveCurrent = false;
  Coord Cur;
  double CurTime = 0;
  size_t StartDraws = 0;
};

//===--- Anneal: parallel Metropolis chains -----------------------------------//

class AnnealCursor final : public SearchCursor {
public:
  AnnealCursor(const ConfigSpace &Space, std::vector<uint64_t> Expressible,
               const StrategyOptions &Opts)
      : Space(Space), Expressible(std::move(Expressible)) {
    size_t NumChains = size_t(
        std::max<uint64_t>(1, std::min<uint64_t>(8, Opts.Budget / 16)));
    for (size_t I = 0; I != NumChains; ++I) {
      Chain C;
      C.R = Rng(mixSeed(Opts.Seed, I));
      Chains.push_back(std::move(C));
    }
  }

  std::vector<uint64_t> nextRound() override {
    if (Expressible.empty())
      return {};
    std::vector<uint64_t> Out;
    Out.reserve(Chains.size());
    for (Chain &C : Chains) {
      if (!C.Started) {
        if (C.StartDraws++ >= MaxStartDraws)
          return {}; // A chain that cannot start ends the search.
        C.Proposed = coordOf(
            Space, Expressible[C.R.nextBelow(Expressible.size())]);
      } else {
        C.Proposed = neighborOf(C);
      }
      Out.push_back(flatOf(Space, C.Proposed));
    }
    return Out;
  }

  void feed(const std::vector<ProbeResult> &Round) override {
    for (size_t I = 0; I != Chains.size() && I != Round.size(); ++I) {
      Chain &C = Chains[I];
      const ProbeResult &P = Round[I];
      if (!C.Started) {
        if (P.Usable) {
          C.Cur = C.Proposed;
          C.CurTime = P.TimeSeconds;
          C.Started = true;
        }
        continue;
      }
      if (!P.Usable)
        continue;
      // Relative-delta Metropolis: times span decades across apps, so
      // the acceptance scale is the fractional slowdown.
      double Rel = (P.TimeSeconds - C.CurTime) / std::max(C.CurTime, 1e-30);
      bool Accept =
          Rel <= 0 || C.R.nextDouble() < std::exp(-Rel / Temperature);
      if (Accept) {
        C.Cur = C.Proposed;
        C.CurTime = P.TimeSeconds;
      }
    }
    Temperature = std::max(MinTemperature, Temperature * CoolRate);
  }

private:
  struct Chain {
    Rng R;
    bool Started = false;
    size_t StartDraws = 0;
    Coord Cur;
    Coord Proposed;
    double CurTime = 0;
  };

  Coord neighborOf(Chain &C) {
    Coord Out = C.Cur;
    // Bounded dimension draws: a dimension with one value cannot move.
    for (unsigned Attempt = 0; Attempt != 8; ++Attempt) {
      size_t D = size_t(C.R.nextBelow(Space.numDims()));
      size_t N = Space.dim(D).Values.size();
      if (N < 2)
        continue;
      bool Up = C.R.nextBelow(2) != 0;
      if (Up && Out[D] + 1 >= N)
        Up = false;
      else if (!Up && Out[D] == 0)
        Up = true;
      Out[D] = Up ? Out[D] + 1 : Out[D] - 1;
      return Out;
    }
    return Out; // Degenerate space: propose the current point.
  }

  static constexpr size_t MaxStartDraws = 1024;
  static constexpr double InitialTemperature = 0.25;
  static constexpr double CoolRate = 0.96;
  static constexpr double MinTemperature = 1e-4;

  const ConfigSpace &Space;
  std::vector<uint64_t> Expressible;
  std::vector<Chain> Chains;
  double Temperature = InitialTemperature;
};

//===--- Genetic: generational tournament + crossover/mutation ----------------//

class GeneticCursor final : public SearchCursor {
public:
  GeneticCursor(const ConfigSpace &Space, std::vector<uint64_t> Expressible,
               const StrategyOptions &Opts)
      : Space(Space), Expressible(std::move(Expressible)),
        R(mixSeed(Opts.Seed, 0)) {
    PopSize = size_t(
        std::max<uint64_t>(8, std::min<uint64_t>(32, Opts.Budget / 4)));
  }

  std::vector<uint64_t> nextRound() override {
    if (Expressible.empty())
      return {};
    Proposed.clear();
    if (Pop.empty()) {
      for (size_t I = 0; I != PopSize; ++I)
        Proposed.push_back(
            coordOf(Space, Expressible[R.nextBelow(Expressible.size())]));
    } else {
      for (size_t I = 0; I != PopSize; ++I) {
        const Coord &A = tournament();
        const Coord &B = tournament();
        Proposed.push_back(mutate(crossover(A, B)));
      }
    }
    std::vector<uint64_t> Out;
    Out.reserve(Proposed.size());
    for (const Coord &C : Proposed)
      Out.push_back(flatOf(Space, C));
    return Out;
  }

  void feed(const std::vector<ProbeResult> &Round) override {
    std::vector<Individual> Next;
    Next.reserve(Proposed.size());
    for (size_t I = 0; I != Proposed.size() && I != Round.size(); ++I) {
      double Fit = Round[I].Usable
                       ? Round[I].TimeSeconds
                       : std::numeric_limits<double>::infinity();
      Next.push_back({Proposed[I], Fit});
      if (Fit < BestFit) {
        BestFit = Fit;
        Best = Proposed[I];
      }
    }
    // Elitism: the best-ever individual displaces the worst of the new
    // generation, so the population never forgets its champion.
    if (std::isfinite(BestFit) && !Next.empty()) {
      size_t Worst = 0;
      for (size_t I = 1; I != Next.size(); ++I)
        if (Next[I].Fitness > Next[Worst].Fitness)
          Worst = I;
      if (Next[Worst].Fitness > BestFit)
        Next[Worst] = {Best, BestFit};
    }
    Pop = std::move(Next);
  }

private:
  struct Individual {
    Coord C;
    double Fitness = std::numeric_limits<double>::infinity();
  };

  const Coord &tournament() {
    const Individual &A = Pop[R.nextBelow(Pop.size())];
    const Individual &B = Pop[R.nextBelow(Pop.size())];
    return (A.Fitness <= B.Fitness ? A : B).C;
  }

  Coord crossover(const Coord &A, const Coord &B) {
    Coord Out(A.size());
    for (size_t D = 0; D != A.size(); ++D)
      Out[D] = R.nextBelow(2) ? A[D] : B[D];
    return Out;
  }

  Coord mutate(Coord C) {
    double Prob = 1.0 / double(std::max<size_t>(1, C.size()));
    for (size_t D = 0; D != C.size(); ++D) {
      if (R.nextDouble() >= Prob)
        continue;
      size_t N = Space.dim(D).Values.size();
      if (N < 2)
        continue;
      bool Up = R.nextBelow(2) != 0;
      if (Up && C[D] + 1 >= N)
        Up = false;
      else if (!Up && C[D] == 0)
        Up = true;
      C[D] = Up ? C[D] + 1 : C[D] - 1;
    }
    return C;
  }

  const ConfigSpace &Space;
  std::vector<uint64_t> Expressible;
  Rng R;
  size_t PopSize = 16;
  std::vector<Coord> Proposed;
  std::vector<Individual> Pop;
  Coord Best;
  double BestFit = std::numeric_limits<double>::infinity();
};

} // namespace

std::unique_ptr<SearchCursor>
g80::makeSearchCursor(StrategyKind Kind, const ConfigSpace &Space,
                      std::vector<uint64_t> Expressible,
                      const StrategyOptions &Opts) {
  switch (Kind) {
  case StrategyKind::Greedy:
    return std::make_unique<GreedyCursor>(Space, std::move(Expressible),
                                          Opts);
  case StrategyKind::Anneal:
    return std::make_unique<AnnealCursor>(Space, std::move(Expressible),
                                          Opts);
  case StrategyKind::Genetic:
    return std::make_unique<GeneticCursor>(Space, std::move(Expressible),
                                           Opts);
  default:
    break;
  }
  reportFatalError("plannable strategies have an up-front plan; use "
                   "planForStrategy");
}

//===--- The adaptive runner --------------------------------------------------//

SweepReport g80::runAdaptiveSweep(const SearchEngine &Engine,
                                  StrategyKind Kind,
                                  const StrategyOptions &Strategy,
                                  const SweepOptions &Opts) {
  const Evaluator &Eval = Engine.evaluator();
  std::unique_ptr<SearchCursor> Cursor = makeSearchCursor(
      Kind, Eval.app().space(), Eval.expressibleIndices(), Strategy);
  return SweepDriver(Engine, Opts).run(
      *Cursor, std::max<uint64_t>(1, Strategy.Budget), strategyName(Kind));
}
