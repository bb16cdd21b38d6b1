//===- serve/Shard.cpp ----------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Shard.h"

#include "core/EvalRecord.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "kernels/MatMul.h"
#include "kernels/MriFhd.h"
#include "kernels/Sad.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

using namespace g80;

std::unique_ptr<TunableApp> g80::makeServeApp(const std::string &Name,
                                              SpaceTier Tier) {
  if (Name == "matmul")
    return std::make_unique<MatMulApp>(MatMulProblem::bench(), Tier);
  if (Name == "cp")
    return std::make_unique<CpApp>(CpProblem::bench(), Tier);
  if (Name == "sad")
    return std::make_unique<SadApp>(SadApp::benchProblem(), Tier);
  if (Name == "mri" || Name == "mri-fhd")
    return std::make_unique<MriFhdApp>(MriProblem::bench(), Tier);
  return nullptr;
}

MachineModel g80::makeServeMachine(const std::string &Name) {
  if (Name == "nextgen")
    return MachineModel::hypotheticalNextGen();
  return MachineModel::geForce8800Gtx();
}

bool g80::isServeMachine(std::string_view Name) {
  return Name == "gtx" || Name == "nextgen";
}

bool g80::validateServeRequest(const TuneRequest &Req, std::string &Error) {
  if (Req.App != "matmul" && Req.App != "cp" && Req.App != "sad" &&
      Req.App != "mri" && Req.App != "mri-fhd") {
    Error = "unknown app '" + Req.App + "'";
    return false;
  }
  if (!isServeMachine(Req.Machine)) {
    Error = "unknown machine '" + Req.Machine + "'";
    return false;
  }
  StrategyKind Kind;
  if (!parseStrategy(Req.Strategy, Kind)) {
    Error = "unknown strategy '" + Req.Strategy + "'";
    return false;
  }
  SpaceTier Tier;
  if (!parseSpaceTier(Req.Space, Tier)) {
    Error = "unknown space tier '" + Req.Space + "' (expected small|large)";
    return false;
  }
  return true;
}

std::unique_ptr<SearchEngine> g80::makeServeEngine(const TunableApp &App,
                                                   const TuneRequest &Req,
                                                   FaultPlan Faults) {
  SimOptions SimO;
  SimO.BandwidthFastPath = Req.FastBw;
  return std::make_unique<SearchEngine>(App, makeServeMachine(Req.Machine),
                                        MetricOptions{}, SimO,
                                        std::move(Faults),
                                        LintOptions{Req.Lint});
}

bool g80::serveStrategyIsPlannable(const TuneRequest &Req) {
  StrategyKind Kind;
  return parseStrategy(Req.Strategy, Kind) && strategyIsPlannable(Kind);
}

SweepPlan g80::planForRequest(const SearchEngine &Eng, const TuneRequest &Req,
                              unsigned Jobs) {
  StrategyKind Kind;
  if (!parseStrategy(Req.Strategy, Kind) || !strategyIsPlannable(Kind))
    Kind = StrategyKind::Pareto; // Callers validate first; keep the old
                                 // pareto default for anything else.
  return planForStrategy(Eng, Kind, strategyOptionsForRequest(Req, Jobs));
}

StrategyOptions g80::strategyOptionsForRequest(const TuneRequest &Req,
                                               unsigned Jobs) {
  StrategyOptions Opts;
  Opts.Seed = Req.Seed;
  Opts.Budget = Req.Budget;
  Opts.Jobs = Jobs;
  return Opts;
}

namespace {

/// The journal header of every front end.  The fast path and the lint gate
/// change results, so a journal written with either resumes only with it.
JournalHeader requestHeader(const TunableApp &App, const SearchEngine &Eng,
                            const TuneRequest &Req, std::string Strategy,
                            bool LintInHeader, std::string_view InjectSpec) {
  JournalHeader H;
  H.App = std::string(App.name());
  H.Machine = Eng.evaluator().machine().Name;
  H.Strategy = std::move(Strategy);
  H.Seed = Req.Seed;
  H.Budget = Req.Budget;
  H.RawSize = App.space().rawSize();
  H.Space = Req.Space;
  H.Extra = std::string(InjectSpec) + (Req.FastBw ? "|fastbw" : "") +
            (LintInHeader ? "|lint" : "");
  return H;
}

} // namespace

JournalHeader g80::fingerprintForRequest(const TunableApp &App,
                                         const SearchEngine &Eng,
                                         const SweepPlan &Plan,
                                         const TuneRequest &Req,
                                         std::string_view InjectSpec) {
  bool LintQuarantined = std::any_of(
      Plan.Evals.begin(), Plan.Evals.end(), [](const ConfigEval &E) {
        return E.failed() && E.Failure.At == Stage::Lint;
      });
  return requestHeader(App, Eng, Req, Plan.Strategy, LintQuarantined,
                       InjectSpec);
}

SweepReport g80::runRequest(const TunableApp &App, const SearchEngine &Eng,
                            const TuneRequest &Req, SweepOptions Opts,
                            std::string_view InjectSpec) {
  StrategyKind Kind = StrategyKind::Pareto;
  (void)parseStrategy(Req.Strategy, Kind); // Validated by the caller.
  StrategyOptions StratO = strategyOptionsForRequest(Req, Opts.Jobs);
  if (strategyIsPlannable(Kind)) {
    SweepPlan Plan = planForStrategy(Eng, Kind, StratO);
    Opts.Fingerprint = fingerprintForRequest(App, Eng, Plan, Req, InjectSpec);
    return SweepDriver(Eng, std::move(Opts)).run(std::move(Plan));
  }
  // Adaptive strategies evaluate statics lazily, so there is no plan to
  // scan for lint quarantines: lint joins the header whenever armed.
  Opts.Fingerprint =
      requestHeader(App, Eng, Req, strategyName(Kind), Req.Lint, InjectSpec);
  return runAdaptiveSweep(Eng, Kind, StratO, Opts);
}

uint64_t g80::planFingerprint(const JournalHeader &Header,
                              const SweepPlan &Plan) {
  std::string Bytes = Header.toJson();
  Bytes += '|';
  // Hash the candidates' flat indices, not their Evals positions: dense
  // plans are position == flat index (so this is byte-compatible with
  // pre-tier fingerprints), but sparse large-tier plans number positions
  // sample-relative, and two different samples must not collide.
  for (size_t C : Plan.Candidates) {
    Bytes += std::to_string(Plan.Evals[C].FlatIndex);
    Bytes += ',';
  }
  return fnv1a64(Bytes);
}

ShardResult g80::executeShard(const SearchEngine &Eng, const TunableApp &App,
                              const ShardRequest &Req,
                              const std::string &JournalDir, unsigned Jobs,
                              const std::function<bool()> &ShouldStop) {
  ShardResult Res;
  Res.ShardIndex = Req.ShardIndex;
  Res.Begin = Req.Begin;
  Res.End = Req.End;
  Res.Status = "error";

  if (!serveStrategyIsPlannable(Req.Tune)) {
    // Adaptive strategies have no up-front candidate list to partition;
    // they run as whole jobs on one daemon, never as shards.
    Res.Error = "strategy '" + Req.Tune.Strategy +
                "' is adaptive and cannot be sharded";
    return Res;
  }

  SweepPlan Plan = planForRequest(Eng, Req.Tune, Jobs);
  JournalHeader Header = fingerprintForRequest(App, Eng, Plan, Req.Tune);
  Res.PlanFp = planFingerprint(Header, Plan);
  if (Req.PlanFp != 0 && Res.PlanFp != Req.PlanFp) {
    Res.Error = "plan fingerprint mismatch: derived " +
                std::to_string(Res.PlanFp) + ", coordinator sent " +
                std::to_string(Req.PlanFp) +
                " (version or configuration skew)";
    return Res;
  }
  if (Req.End > Plan.Candidates.size()) {
    Res.Error = "shard range [" + std::to_string(Req.Begin) + ", " +
                std::to_string(Req.End) + ") exceeds the plan's " +
                std::to_string(Plan.Candidates.size()) + " candidates";
    return Res;
  }

  // Capture the work list before the driver consumes the plan: the
  // reply's records are keyed by these flat indices, in this order.
  std::vector<size_t> Flat(Plan.Candidates.begin() + ptrdiff_t(Req.Begin),
                           Plan.Candidates.begin() + ptrdiff_t(Req.End));

  // Keyed by range, not shard index: the range behind an index depends on
  // the shard size, which may change between a coordinator's restarts.
  char Name[80];
  std::snprintf(Name, sizeof(Name), "shard-%016llx-%llu-%llu.journal",
                static_cast<unsigned long long>(Res.PlanFp),
                static_cast<unsigned long long>(Req.Begin),
                static_cast<unsigned long long>(Req.End));
  SweepOptions SOpts;
  SOpts.JournalPath = JournalDir + "/" + Name;
  SOpts.Resume = std::filesystem::exists(SOpts.JournalPath);
  SOpts.Jobs = Jobs;
  SOpts.Fingerprint = Header;
  SOpts.ShouldStop = ShouldStop;
  SweepReport Rep =
      SweepDriver(Eng, SOpts).run(Plan.slice(Req.Begin, Req.End));

  if (Rep.Status == SweepStatus::Error) {
    Res.Error = Rep.Error.Message;
    return Res;
  }
  if (Rep.Status == SweepStatus::Interrupted) {
    Res.Error = "shard interrupted; journal checkpointed for resume";
    return Res;
  }

  Res.Records.reserve(Flat.size());
  for (size_t Idx : Flat)
    Res.Records.push_back(
        EvalRecord::fromEval(Rep.Outcome.Evals[Idx]).toJson());
  Res.Status = "completed";
  Res.Error.clear();
  return Res;
}
