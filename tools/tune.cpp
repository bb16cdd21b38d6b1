//===- tools/tune.cpp - g80tune command-line driver ----------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The command-line face of the library:
//
//   tune list
//       List the built-in applications and their optimization spaces.
//
//   tune search --app <name> [--strategy pareto|exhaustive|cluster|random|
//                             greedy|anneal|genetic] [--space small|large]
//                            [--machine gtx|nextgen] [--budget N] [--seed N]
//                            [--inject SPEC] [--jobs N] [--fast-bw] [--lint]
//                            [--journal FILE [--resume]] [--isolate]
//                            [--task-timeout S] [--out FILE.csv]
//                            [--trace FILE.jsonl] [--progress]
//       Run a search strategy and print the outcome (Table-4 style)
//       through serve/Shard.h's runRequest, the daemon's and the fleet's
//       path.  --space picks the config-space tier (large: ~10^5 points).
//       --inject arms the deterministic fault injector (see
//       support/FaultInjection.h for the SPEC grammar); quarantined
//       configurations are reported per pipeline stage.
//       --jobs spreads metric evaluation and measurement across worker
//       threads (default: hardware concurrency); results and journals are
//       bit-identical for any job count.  --fast-bw replaces simulation
//       with the analytic bandwidth bound for configurations the §5.3
//       screen marks bandwidth-bound (an estimate; changes results, so it
//       is part of the journal fingerprint).  --lint inserts the static-
//       analysis gate (analysis/Lint.h) between verification and metric
//       evaluation: configurations with error-severity findings are
//       quarantined under Stage::Lint.  A clean space journals
//       byte-identically with or without the gate.
//       --journal streams every completed evaluation through a crash-safe
//       write-ahead journal; --resume replays a matching journal and
//       skips finished configurations.  --isolate forks a worker per
//       shard of candidates so a crashing or hanging configuration only
//       quarantines itself.  --out dumps the per-config eval table as CSV.
//       --trace streams per-stage spans and counters to a JSONL file
//       (support/Trace.h); --progress renders a live status line on
//       stderr (configs/sec, ETA, quarantines).  Neither can change
//       results or journal bytes.
//
// Exit codes: 0 success, 2 bad usage (an unknown flag, a flag missing its
// value, an unknown app/machine/strategy/space, a stale/corrupt journal),
// 3 parse/verify failure, 4 evaluation failure (nothing could be
// measured), 5 interrupted by SIGINT/SIGTERM (journal is resumable),
// 6 `tune serve` force-quit by a second signal (spool is resumable),
// 7 `tune fleet` failed to complete (its journal keeps the finished
// prefix).
// README.md has the consolidated table.
//
//   tune report <journal-or-csv> [--trace FILE] [--top N]
//                                [--format text|json]
//       Summarize a finished (or interrupted) sweep from its artifacts:
//       counts and space reduction, stall/bandwidth attribution from the
//       simulator counters, quarantine breakdown, slowest configurations,
//       and — with --trace — the per-stage wall-time histogram.
//
//   tune lint <app> [--config "v1,v2,..."] [--format text|json]
//       Run the static-analysis passes (races, divergent barriers, bank
//       conflicts, coalescing and resource cross-checks, dead code) over
//       one configuration or the whole expressible space, without
//       simulating anything.  Exits 4 when any error-severity finding
//       exists, so the command doubles as a CI gate.
//
//   tune show --app <name> --config "v1,v2,..." [--machine gtx|nextgen]
//       Print the generated kernel for one configuration plus its
//       static metrics.
//
//   tune inspect --file <kernel.ptx> --block X[,Y] --grid X[,Y]
//                [--machine gtx|nextgen]
//       Parse a kernel from text (the printer's syntax), verify it, and
//       report resources, occupancy, profile and metrics — the
//       `nvcc -ptx/-cubin` workflow of §2.3 in one command.
//
//   tune serve --spool DIR [--socket PATH | --tcp-port N] ...
//       The fault-tolerant autotuning daemon: accepts tuning requests
//       over a length-prefixed JSON protocol, executes them durably
//       (per-request journals under --spool), sheds load past
//       --queue-limit, enforces per-request deadlines, and resumes every
//       accepted-but-unfinished request after a crash or restart.  See
//       serve/Server.h and DESIGN.md §12.
//
//   tune fleet --app <name> --spool DIR --journal FILE
//              [--workers ep1,ep2,...] ...
//       Horizontal sharding across tune-serve daemons: partitions one
//       deterministic sweep into shards, dispatches them to the workers,
//       re-dispatches on worker death, hedges stragglers, and degrades to
//       in-process execution (shard journals under --spool) when no
//       worker is healthy.  With --no-local nothing runs in-process, so
//       --spool is optional and never created.  The SweepDriver journals
//       the shards' records in plan order, so --journal is byte-identical
//       to a single-daemon run, and a rerun resumes it like `tune search
//       --resume`.  See fleet/Coordinator.h and DESIGN.md §13.
//
//===----------------------------------------------------------------------===//

#include "core/EvalRecord.h"
#include "core/Report.h"
#include "core/Search.h"
#include "core/SweepDriver.h"
#include "fleet/Coordinator.h"
#include "serve/Server.h"
#include "serve/Shard.h"
#include "metrics/Metrics.h"
#include "ptx/Parser.h"
#include "ptx/Printer.h"
#include "analysis/Lint.h"
#include "analysis/Verifier.h"
#include "support/Journal.h"
#include "support/Json.h"
#include "support/Csv.h"
#include "support/FaultInjection.h"
#include "support/Format.h"
#include "support/Numeric.h"
#include "support/Parallel.h"
#include "support/Status.h"
#include "support/TextTable.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

using namespace g80;

namespace {

/// Exit codes: distinct classes so scripts can tell a user error from a
/// broken input from a pipeline that produced nothing.
enum ExitCode : int {
  ExitOk = 0,
  ExitUsage = 2,       ///< Bad flags, unknown app/strategy, bad spec,
                       ///< stale/corrupt journal.
  ExitParseVerify = 3, ///< Input kernel failed to parse or verify.
  ExitEvaluation = 4,  ///< Evaluation pipeline measured nothing.
  ExitInterrupted = 5, ///< SIGINT/SIGTERM stopped the sweep; the journal
                       ///< (if any) holds all completed work — resumable.
  ExitForcedShutdown = 6, ///< `tune serve` force-quit by a second signal;
                          ///< the spool resumes everything on restart.
  ExitFleetFailed = 7,    ///< `tune fleet` could not complete (setup or
                          ///< journal failure); the journal keeps the
                          ///< finished prefix.
};

int usage() {
  std::cerr
      << "usage:\n"
         "  tune list\n"
         "  tune search  --app <matmul|cp|sad|mri> [--strategy pareto|"
         "exhaustive|cluster|random|\n"
         "               greedy|anneal|genetic] [--space small|large]\n"
         "               [--machine gtx|nextgen] [--budget N] [--seed N] "
         "[--inject SPEC]\n"
         "               [--jobs N] [--fast-bw] [--lint]\n"
         "               [--journal FILE [--resume]] [--isolate] "
         "[--task-timeout S]\n"
         "               [--out FILE.csv] [--trace FILE.jsonl] [--progress]\n"
         "  tune report  <journal-or-csv> [--trace FILE.jsonl] [--top N] "
         "[--format text|json]\n"
         "  tune lint    <matmul|cp|sad|mri> | --app <name> "
         "[--config \"v1,v2,...\"]\n"
         "               [--format text|json]\n"
         "  tune show    --app <name> --config \"v1,v2,...\" "
         "[--machine gtx|nextgen]\n"
         "  tune inspect --file <kernel.ptx> --block X[,Y] --grid X[,Y]\n"
         "               [--machine gtx|nextgen]\n"
         "  tune serve   --spool DIR [--socket PATH | --tcp-port N]\n"
         "               [--queue-limit N] [--executors N] [--jobs N] "
         "[--trace FILE.jsonl]\n"
         "  tune fleet   --app <name> --journal FILE [--spool DIR]\n"
         "               [--workers ep1,ep2,...] [--machine gtx|nextgen]\n"
         "               [--strategy pareto|exhaustive|cluster|random]\n"
         "               [--space small|large] [--seed N] [--budget N] "
         "[--fast-bw] [--lint]\n"
         "               [--shard-size N] [--shard-timeout S] "
         "[--heartbeat S]\n"
         "               [--jobs N] [--no-local] [--progress] "
         "[--trace FILE.jsonl]\n";
  return ExitUsage;
}

using FlagMap = std::map<std::string, std::string>;

/// A subcommand and the flags its usage() line lists (plus --machine for
/// show and inspect): value flags take an argument, switches do not.
/// Only report and lint take a positional argument.
struct Subcommand {
  std::string_view Name, ValueFlags, Switches;
  bool TakesPositional = false;
};

constexpr Subcommand Subcommands[] = {
    {"list", "", ""},
    {"search",
     "app strategy space machine budget seed inject jobs journal "
     "task-timeout out trace",
     "fast-bw lint resume isolate progress"},
    {"report", "trace top format", "", true},
    {"lint", "app config format", "", true},
    {"show", "app config machine", ""},
    {"inspect", "file block grid machine", ""},
    {"serve", "spool socket tcp-port queue-limit executors jobs trace", ""},
    {"fleet",
     "app spool journal workers machine strategy space seed budget "
     "shard-size shard-timeout heartbeat jobs trace",
     "fast-bw lint no-local progress"},
};

/// Parses Argv[2..] against \p Cmd's flags; a subcommand that takes one
/// puts its single other argument in \p Positional (`tune report FILE`).
/// An unlisted flag, a value flag with no value after it, or any other
/// stray word is a usage error naming it.
bool parseFlags(int Argc, char **Argv, const Subcommand &Cmd, FlagMap &Flags,
                std::string &Positional) {
  auto Listed = [](std::string_view List, const std::string &Word) {
    return (" " + std::string(List) + " ").find(" " + Word + " ") !=
           std::string::npos;
  };
  for (int I = 2; I < Argc; ++I) {
    std::string_view Arg = Argv[I];
    if (!Arg.starts_with("--")) {
      if (!Cmd.TakesPositional || !Positional.empty()) {
        std::cerr << "error: tune " << Cmd.Name << ": unexpected argument '"
                  << Arg << "'\n";
        return false;
      }
      Positional = Arg;
      continue;
    }
    std::string Name(Arg.substr(2));
    if (Listed(Cmd.Switches, Name)) {
      Flags[Name] = "1";
    } else if (!Listed(Cmd.ValueFlags, Name)) {
      std::cerr << "error: tune " << Cmd.Name << " has no flag --" << Name
                << "\n";
      return false;
    } else if (I + 1 == Argc ||
               std::string_view(Argv[I + 1]).starts_with("--")) {
      std::cerr << "error: --" << Name << " needs a value\n";
      return false;
    } else {
      Flags[Name] = Argv[++I];
    }
  }
  return true;
}

/// Strict numeric flags (support/Numeric.h).  An absent flag leaves \p
/// Out untouched and succeeds; garbage ("--jobs banana", "--seed 1x") is
/// a usage error instead of silently becoming zero.
template <typename T>
bool numFlag(const FlagMap &Flags, const char *Name, T &Out) {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    return true;
  Expected<T> V = [&] {
    if constexpr (std::is_same_v<T, double>)
      return parseDouble(It->second);
    else
      return parseUint64(It->second);
  }();
  if (!V) {
    std::cerr << "error: --" << Name << ": " << V.diag().Message << "\n";
    return false;
  }
  Out = V.takeValue();
  return true;
}

/// The request `tune search` and `tune fleet` name with --app, --machine,
/// --strategy, --space, --seed, --budget, --fast-bw and --lint, checked
/// the way serve admission checks a wire request.  Prints the error.
bool requestFlags(const FlagMap &Flags, TuneRequest &Req) {
  for (auto [Name, Field] : {std::pair{"app", &Req.App},
                             {"machine", &Req.Machine},
                             {"strategy", &Req.Strategy},
                             {"space", &Req.Space}})
    if (auto It = Flags.find(Name); It != Flags.end())
      *Field = It->second;
  Req.FastBw = Flags.count("fast-bw") != 0;
  Req.Lint = Flags.count("lint") != 0;
  if (!numFlag(Flags, "seed", Req.Seed) ||
      !numFlag(Flags, "budget", Req.Budget))
    return false;
  std::string Error = "unknown or missing --app";
  if (Flags.count("app") && validateServeRequest(Req, Error))
    return true;
  std::cerr << "error: " << Error << "\n";
  return false;
}

/// --machine for show and inspect (default gtx), checked as a served
/// request's machine is: a typo is a usage error, not a silent GTX run.
bool machineFlag(const FlagMap &Flags, MachineModel &Out) {
  auto It = Flags.find("machine");
  std::string Name = It == Flags.end() ? "gtx" : It->second;
  if (!isServeMachine(Name)) {
    std::cerr << "error: unknown machine '" << Name << "'\n";
    return false;
  }
  Out = makeServeMachine(Name);
  return true;
}

/// Opens the --trace file, if any.  One that cannot be opened is exit 2
/// without the usage text: the command line itself was fine.
bool traceFlag(const FlagMap &Flags, std::optional<Tracer> &Trace) {
  auto It = Flags.find("trace");
  if (It == Flags.end())
    return true;
  Expected<Tracer> T = Tracer::toFile(It->second);
  if (!T) {
    std::cerr << "error: --trace: " << T.diag().Message << "\n";
    return false;
  }
  Trace.emplace(T.takeValue());
  return true;
}

int cmdList() {
  TextTable T;
  T.setHeader({"app", "dimensions", "raw size"});
  for (const char *Name : {"matmul", "cp", "sad", "mri"}) {
    std::unique_ptr<TunableApp> App = makeServeApp(Name);
    std::string Dims;
    for (const ConfigDim &D : App->space().dims()) {
      if (!Dims.empty())
        Dims += ", ";
      Dims += D.Name + "(" + std::to_string(D.Values.size()) + ")";
    }
    T.addRow({Name, Dims, fmtInt(App->space().rawSize())});
  }
  T.print(std::cout);
  return 0;
}

/// Dumps the full per-config eval table — the same EvalRecord fields the
/// journal serializes — as CSV.
bool writeEvalCsv(const std::string &Path, const SearchOutcome &Out) {
  std::ofstream OS(Path);
  if (!OS) {
    std::cerr << "error: cannot open '" << Path << "' for writing\n";
    return false;
  }
  CsvWriter W(OS);
  W.writeRow(EvalRecord::csvHeader());
  for (const ConfigEval &E : Out.Evals)
    W.writeRow(EvalRecord::fromEval(E).csvRow());
  return true;
}

void printSearchSummary(const TunableApp &App, const MachineModel &Machine,
                        const SearchOutcome &Out) {
  std::cout << App.name() << " on " << Machine.Name << " — strategy "
            << Out.Strategy << "\n\n"
            << "  valid configurations : " << Out.ValidCount << "\n"
            << "  measured             : " << Out.Candidates.size() << "\n"
            << "  space reduction      : "
            << fmtPercent(Out.spaceReduction()) << "\n"
            << "  total measured time  : "
            << fmtDouble(Out.TotalMeasuredSeconds * 1e3, 2) << " ms\n";
  if (!Out.Quarantined.empty()) {
    std::cout << "  quarantined          : " << Out.Quarantined.size()
              << "  (";
    bool First = true;
    for (size_t S = 0; S != NumStages; ++S) {
      if (Out.FailedPerStage[S] == 0)
        continue;
      std::cout << (First ? "" : ", ") << stageName(Stage(S)) << "="
                << Out.FailedPerStage[S];
      First = false;
    }
    std::cout << ")\n";
  }
  if (Out.hasBest()) {
    const ConfigEval &Best = Out.Evals[Out.BestIndex];
    std::cout << "  best configuration   : "
              << App.space().describe(Best.Point) << "\n"
              << "  best time            : "
              << fmtDouble(Out.BestTime * 1e3, 3) << " ms\n";
  }
}

int cmdSearch(FlagMap Flags) {
  TuneRequest Req;
  if (!requestFlags(Flags, Req))
    return usage();
  SpaceTier Tier = SpaceTier::Small;
  (void)parseSpaceTier(Req.Space, Tier); // Validated above.
  std::unique_ptr<TunableApp> App = makeServeApp(Req.App, Tier);

  std::string InjectSpec = Flags.count("inject") ? Flags["inject"] : "";
  Expected<FaultPlan> Faults = parseFaultPlan(InjectSpec); // "" = none.
  if (!Faults) {
    std::cerr << "error: " << Faults.diag().Message << "\n";
    return usage();
  }
  std::unique_ptr<SearchEngine> Engine =
      makeServeEngine(*App, Req, Faults.takeValue());

  SweepOptions SOpts;
  if (Flags.count("journal"))
    SOpts.JournalPath = Flags["journal"];
  SOpts.Resume = Flags.count("resume") != 0;
  SOpts.Isolate = Flags.count("isolate") != 0;
  if (!numFlag(Flags, "task-timeout", SOpts.TaskTimeoutSeconds))
    return usage();
  if (SOpts.TaskTimeoutSeconds <= 0) {
    std::cerr << "error: --task-timeout must be positive\n";
    return usage();
  }

  // Worker threads for planning, metric evaluation and in-process
  // measurement.  Isolation serializes shards through forked processes,
  // so an unspecified --jobs defaults to 1 there instead of warning.
  uint64_t Jobs = defaultJobs();
  if (!numFlag(Flags, "jobs", Jobs))
    return usage();
  if (Flags.count("jobs")) {
    if (Jobs < 1) {
      std::cerr << "error: --jobs must be a positive integer\n";
      return usage();
    }
  } else if (SOpts.Isolate) {
    Jobs = 1;
  }
  SOpts.Jobs = unsigned(Jobs);

  // Tracing never feeds back into the sweep, so it is safe to install
  // before planning: plan-phase spans (estimate/occupancy under the
  // metrics pass) land in the file too.
  std::optional<Tracer> Trace;
  if (!traceFlag(Flags, Trace))
    return ExitUsage;
  ScopedTracer TraceGuard(Trace ? &*Trace : nullptr);

  // Live status line on stderr.  Observation only — it runs on the
  // committer thread after each record and cannot perturb results.  The
  // last observation is redrawn after the sweep to end the line: a search
  // that converges under its budget, or an interrupted sweep, never
  // reports Done == Total.
  using Clock = std::chrono::steady_clock;
  auto Start = Clock::now(), LastDraw = Start - std::chrono::hours(1);
  std::optional<SweepProgress> LastProgress;
  auto DrawProgress = [&](bool Final) {
    const SweepProgress &P = *LastProgress;
    LastDraw = Clock::now();
    double Elapsed = std::chrono::duration<double>(LastDraw - Start).count();
    double Rate = Elapsed > 0 ? double(P.FreshDone) / Elapsed : 0;
    std::cerr << "\r  " << P.Done << "/" << P.Total << " configs  "
              << fmtDouble(Rate, 1) << "/s";
    if (Rate > 0 && !Final)
      std::cerr << "  ETA " << fmtDouble(double(P.Total - P.Done) / Rate, 0)
                << "s";
    if (P.Quarantined != 0)
      std::cerr << "  quarantined " << P.Quarantined;
    std::cerr << "   " << (Final ? "\n" : "") << std::flush;
  };
  if (Flags.count("progress"))
    SOpts.OnProgress = [&](const SweepProgress &P) {
      LastProgress = P;
      // Throttle: a fast sweep would otherwise spam stderr.
      if (Clock::now() - LastDraw >= std::chrono::milliseconds(100))
        DrawProgress(/*Final=*/false);
    };

  // The handlers cover planning: a signal while a large plan is built
  // ends the run (exit 5) once the plan exists, leaving a header-only
  // journal that --resume continues.
  clearSweepInterrupt();
  ScopedSweepSignalHandlers Guard;
  SweepReport Rep = runRequest(*App, *Engine, Req, SOpts, InjectSpec);
  if (LastProgress)
    DrawProgress(/*Final=*/true);
  for (const std::string &W : Rep.Warnings)
    std::cerr << "warning: " << W << "\n";
  if (Rep.Status == SweepStatus::Error) {
    std::cerr << "error: " << Rep.Error.Message << "\n";
    return ExitUsage;
  }
  SearchOutcome Out = std::move(Rep.Outcome);
  if (Rep.ResumedSkipped != 0)
    std::cout << "  resumed from journal : " << Rep.ResumedSkipped
              << " configurations skipped\n";
  if (Rep.WorkerRetries != 0)
    std::cout << "  worker retries       : " << Rep.WorkerRetries << "\n";
  bool Interrupted = Rep.Status == SweepStatus::Interrupted;

  printSearchSummary(*App, Engine->evaluator().machine(), Out);
  if (Flags.count("out") && !writeEvalCsv(Flags["out"], Out))
    return ExitUsage;

  if (Interrupted) {
    std::cerr << "interrupted: sweep stopped before completion";
    if (!SOpts.JournalPath.empty())
      std::cerr << "; rerun with --journal " << SOpts.JournalPath
                << " --resume to continue";
    std::cerr << "\n";
    return ExitInterrupted;
  }
  if (!Out.hasBest()) {
    // Partial results are still results: the quarantine breakdown above
    // says where the pipeline died, but there is nothing to rank.
    std::cerr << "error: no configuration could be measured ("
              << Out.Quarantined.size() << " quarantined)\n";
    return ExitEvaluation;
  }
  return ExitOk;
}

/// `tune serve --spool DIR`: the fault-tolerant autotuning daemon
/// (serve/Server.h).  Listens on a Unix socket (--socket) or loopback
/// TCP (--tcp-port; 0 picks an ephemeral port, printed on stdout),
/// accepts length-prefixed JSON tune requests, and executes them through
/// the durable SweepDriver with per-request journals under --spool.  A
/// protocol "shutdown" frame or a single SIGINT/SIGTERM drains
/// gracefully (exit 0); a second signal force-quits (exit 6).  Either
/// way, restarting with the same --spool resumes every accepted-but-
/// unfinished request.
int cmdServe(FlagMap Flags) {
  if (!socketsSupported()) {
    std::cerr << "error: tune serve is not supported on this platform\n";
    return ExitUsage;
  }
  ServeOptions SO;
  if (Flags.count("socket"))
    SO.SocketPath = Flags["socket"];
  if (!Flags.count("spool")) {
    std::cerr << "error: tune serve needs --spool DIR\n";
    return usage();
  }
  SO.SpoolDir = Flags["spool"];
  uint64_t Port = 0;
  uint64_t QueueLimit = SO.QueueLimit;
  uint64_t Executors = SO.Executors;
  uint64_t Jobs = SO.Jobs;
  if (!numFlag(Flags, "tcp-port", Port) ||
      !numFlag(Flags, "queue-limit", QueueLimit) ||
      !numFlag(Flags, "executors", Executors) ||
      !numFlag(Flags, "jobs", Jobs))
    return usage();
  if (Port > 65535) {
    std::cerr << "error: --tcp-port must be below 65536\n";
    return usage();
  }
  if (QueueLimit < 1 || Executors < 1 || Jobs < 1) {
    std::cerr << "error: --queue-limit/--executors/--jobs must be "
                 "positive\n";
    return usage();
  }
  SO.TcpPort = uint16_t(Port);
  SO.QueueLimit = size_t(QueueLimit);
  SO.Executors = unsigned(Executors);
  SO.Jobs = unsigned(Jobs);

  std::optional<Tracer> Trace;
  if (!traceFlag(Flags, Trace))
    return ExitUsage;
  ScopedTracer TraceGuard(Trace ? &*Trace : nullptr);

  TuneServer Server(std::move(SO));
  Expected<Unit> Started = Server.start();
  if (!Started) {
    std::cerr << "error: " << Started.diag().Message << "\n";
    return ExitUsage;
  }
  // The readiness line: scripts (CI, the chaos test) wait for it before
  // connecting, and it is how an ephemeral --tcp-port 0 is discovered.
  if (Flags.count("socket"))
    std::cout << "serve: listening on unix " << Flags["socket"] << "\n"
              << std::flush;
  else
    std::cout << "serve: listening on tcp 127.0.0.1:" << Server.port()
              << "\n"
              << std::flush;

  clearSweepInterrupt();
  ScopedSweepSignalHandlers Guard;
  ServeExit E = Server.serve();
  switch (E) {
  case ServeExit::Drained:
    std::cout << "serve: drained\n";
    return ExitOk;
  case ServeExit::Forced:
    std::cerr << "serve: force-quit; spool will resume on restart\n";
    return ExitForcedShutdown;
  case ServeExit::Error:
    return ExitUsage;
  }
  return ExitUsage;
}

/// `tune fleet`: the horizontal-sharding coordinator (fleet/Coordinator.h).
/// Partitions one deterministic sweep into shards, dispatches them to
/// the --workers tune-serve daemons, and journals their records through
/// the SweepDriver, byte-identical to a single-daemon run; an existing
/// --journal is resumed, so a rerun survives worker and coordinator
/// crashes.  Exit 0 on completion (even degraded-local), 2 on a bad
/// command line or unservable request (before any spool is made), 5 when
/// interrupted (a rerun resumes), 7 on a setup or journal failure
/// (including a --journal of another request).
int cmdFleet(FlagMap Flags) {
  FleetOptions FO;
  if (!requestFlags(Flags, FO.Request))
    return usage();
  // Only shards run in-process write to the spool, so a worker-only
  // fleet neither needs nor creates one.
  FO.AllowLocal = Flags.count("no-local") == 0;
  if (FO.AllowLocal && !Flags.count("spool")) {
    std::cerr << "error: tune fleet needs --spool DIR (or --no-local)\n";
    return usage();
  }
  if (FO.AllowLocal)
    FO.SpoolDir = Flags["spool"];
  if (!Flags.count("journal")) {
    std::cerr << "error: tune fleet needs --journal FILE\n";
    return usage();
  }
  FO.JournalPath = Flags["journal"];
  uint64_t Jobs = FO.Jobs;
  if (!numFlag(Flags, "shard-size", FO.ShardSize) ||
      !numFlag(Flags, "jobs", Jobs) ||
      !numFlag(Flags, "shard-timeout", FO.ShardTimeoutSeconds) ||
      !numFlag(Flags, "heartbeat", FO.HeartbeatSeconds))
    return usage();
  if (FO.ShardSize < 1 || Jobs < 1) {
    std::cerr << "error: --shard-size/--jobs must be positive\n";
    return usage();
  }
  if (FO.ShardTimeoutSeconds <= 0 || FO.HeartbeatSeconds <= 0) {
    std::cerr << "error: --shard-timeout/--heartbeat must be positive\n";
    return usage();
  }
  FO.Jobs = unsigned(Jobs);
  if (Flags.count("workers")) {
    Expected<std::vector<WorkerEndpoint>> W = parseWorkerList(Flags["workers"]);
    if (!W) {
      std::cerr << "error: --workers: " << W.diag().Message << "\n";
      return usage();
    }
    FO.Workers = W.takeValue();
  }
  if (!FO.Workers.empty() && !socketsSupported()) {
    std::cerr << "error: tune fleet with remote workers is not supported "
                 "on this platform (use local execution)\n";
    return ExitUsage;
  }
  if (FO.Workers.empty() && !FO.AllowLocal) {
    std::cerr << "error: --no-local requires at least one --workers "
                 "endpoint\n";
    return usage();
  }

  std::optional<Tracer> Trace;
  if (!traceFlag(Flags, Trace))
    return ExitUsage;
  ScopedTracer TraceGuard(Trace ? &*Trace : nullptr);

  bool Progress = Flags.count("progress") != 0;
  if (Progress)
    FO.OnProgress = [](const FleetProgress &P) {
      std::cerr << "\rfleet: " << P.ShardsDone << "/" << P.ShardsTotal
                << " shards  workers " << P.HealthyWorkers << "/"
                << P.TotalWorkers << " healthy  redispatched "
                << P.ReDispatched << "  hedged " << P.Hedged;
      if (P.LocalShards)
        std::cerr << "  local " << P.LocalShards
                  << (P.Degraded ? " (degraded)" : "");
      std::cerr << "    " << std::flush;
    };

  clearSweepInterrupt();
  ScopedSweepSignalHandlers Guard;
  FO.ShouldStop = [] { return sweepInterruptRequested(); };

  FleetCoordinator Coord(std::move(FO));
  FleetReport Rep = Coord.run();
  if (Progress)
    std::cerr << "\n";
  for (const std::string &W : Rep.Warnings)
    std::cerr << "fleet: warning: " << W << "\n";
  std::cout << "fleet: " << Rep.ShardsCompleted << "/" << Rep.ShardsTotal
            << " shards (" << Rep.ShardsRecovered << " recovered, "
            << Rep.ReDispatched << " re-dispatched, " << Rep.Hedged
            << " hedged, " << Rep.DuplicatesDropped << " duplicates dropped, "
            << Rep.LocalShards << " local)\n";
  switch (Rep.Status) {
  case FleetStatus::Completed:
    if (Rep.Degraded)
      std::cerr << "fleet: completed degraded — some shards ran locally "
                   "because no worker was healthy\n";
    std::cout << "fleet: journal written to " << Flags["journal"] << "\n";
    return ExitOk;
  case FleetStatus::Interrupted:
    std::cerr << "fleet: interrupted; rerun with the same --journal to "
                 "resume\n";
    return ExitInterrupted;
  case FleetStatus::Error:
    std::cerr << "error: " << Rep.Error.Message << "\n";
    return ExitFleetFailed;
  }
  return ExitFleetFailed;
}

/// `tune report <journal-or-csv>`: offline analysis of sweep artifacts.
int cmdReport(const std::string &Path, FlagMap Flags) {
  if (Path.empty()) {
    std::cerr << "error: tune report needs a journal or CSV file\n";
    return usage();
  }
  std::string Format = Flags.count("format") ? Flags["format"] : "text";
  if (Format != "text" && Format != "json") {
    std::cerr << "error: --format must be text or json\n";
    return usage();
  }
  ReportOptions RO;
  uint64_t TopN = RO.TopN;
  if (!numFlag(Flags, "top", TopN))
    return usage();
  RO.TopN = size_t(TopN);

  Expected<LoadedRecords> Loaded = loadEvalRecords(Path);
  if (!Loaded) {
    std::cerr << "error: " << Loaded.diag().Message << "\n";
    return ExitUsage;
  }
  std::optional<TraceSummary> Trace;
  if (Flags.count("trace")) {
    Expected<TraceSummary> T = readTraceSummary(Flags["trace"]);
    if (!T) {
      std::cerr << "error: " << T.diag().Message << "\n";
      return ExitUsage;
    }
    Trace.emplace(T.takeValue());
  }

  SweepSummary S = SweepSummary::fromRecords(*Loaded, RO);
  if (Format == "json")
    renderReportJson(S, Trace ? &*Trace : nullptr, std::cout);
  else
    renderReportText(S, Trace ? &*Trace : nullptr, std::cout);
  return ExitOk;
}

/// `tune lint <app> [--config "v1,v2,..."] [--format text|json]`:
/// run the static-analysis passes over one configuration's kernel or the
/// whole expressible space, without simulating anything.
int cmdLint(const std::string &Positional, FlagMap Flags) {
  std::string AppName = Flags.count("app") ? Flags["app"] : Positional;
  std::unique_ptr<TunableApp> App = makeServeApp(AppName);
  if (!App) {
    std::cerr << "error: unknown or missing app (tune lint <matmul|cp|sad|"
                 "mri> or --app <name>)\n";
    return usage();
  }
  std::string Format = Flags.count("format") ? Flags["format"] : "text";
  if (Format != "text" && Format != "json") {
    std::cerr << "error: --format must be text or json\n";
    return usage();
  }
  const ConfigSpace &S = App->space();

  // Single-configuration mode.
  if (Flags.count("config")) {
    Expected<std::vector<int>> Parsed = parseIntList(Flags["config"]);
    if (!Parsed) {
      std::cerr << "error: --config: " << Parsed.diag().Message << "\n";
      return usage();
    }
    ConfigPoint P = Parsed.takeValue();
    if (P.size() != S.numDims() || !App->isExpressible(P)) {
      std::cerr << "error: configuration is not expressible\n";
      return ExitUsage;
    }
    Kernel K = App->buildKernel(P);
    LintResult R = runLint(K, App->launch(P));
    if (Format == "json") {
      renderLintJson(R, std::cout);
    } else {
      std::cout << AppName << " " << S.describe(P) << "\n";
      if (R.Findings.empty())
        std::cout << "  clean\n";
      else
        renderLintText(R, std::cout);
    }
    return R.errorCount() > 0 ? ExitEvaluation : ExitOk;
  }

  // Whole-space mode: lint every expressible configuration; print only
  // the ones with findings (clean spaces print a one-line summary).
  size_t Checked = 0, Flagged = 0;
  unsigned Errors = 0, Warnings = 0;
  bool FirstJson = true;
  if (Format == "json")
    std::cout << "{\"app\":\"" << jsonEscape(AppName) << "\",\"configs\":[";
  for (const ConfigPoint &P : S.enumerate()) {
    if (!App->isExpressible(P))
      continue;
    ++Checked;
    Kernel K = App->buildKernel(P);
    LintResult R = runLint(K, App->launch(P));
    if (R.Findings.empty())
      continue;
    ++Flagged;
    Errors += R.errorCount();
    Warnings += R.warningCount();
    if (Format == "json") {
      std::cout << (FirstJson ? "" : ",") << "{\"config\":\""
                << jsonEscape(S.describe(P)) << "\",\"lint\":";
      renderLintJson(R, std::cout);
      std::cout << "}";
      FirstJson = false;
    } else {
      std::cout << AppName << " " << S.describe(P) << "\n";
      renderLintText(R, std::cout);
    }
  }
  if (Format == "json") {
    std::cout << "],\"checked\":" << Checked << ",\"errors\":" << Errors
              << ",\"warnings\":" << Warnings << "}\n";
  } else {
    std::cout << AppName << ": " << Checked << " configurations linted, "
              << Flagged << " with findings (" << Errors << " errors, "
              << Warnings << " warnings)\n";
  }
  return Errors > 0 ? ExitEvaluation : ExitOk;
}

int cmdShow(FlagMap Flags) {
  std::unique_ptr<TunableApp> App = makeServeApp(Flags["app"]);
  if (!App || !Flags.count("config")) {
    std::cerr << "error: need --app and --config\n";
    return usage();
  }
  MachineModel Machine;
  if (!machineFlag(Flags, Machine))
    return usage();
  Expected<std::vector<int>> Parsed = parseIntList(Flags["config"]);
  if (!Parsed) {
    std::cerr << "error: --config: " << Parsed.diag().Message << "\n";
    return usage();
  }
  ConfigPoint P = Parsed.takeValue();
  if (P.size() != App->space().numDims() || !App->isExpressible(P)) {
    std::cerr << "error: configuration is not expressible; dimensions:\n";
    for (const ConfigDim &D : App->space().dims()) {
      std::cerr << "  " << D.Name << " in {";
      for (size_t I = 0; I != D.Values.size(); ++I)
        std::cerr << (I ? "," : "") << D.Values[I];
      std::cerr << "}\n";
    }
    return ExitUsage;
  }
  Kernel K = App->buildKernel(P);
  KernelMetrics M = computeKernelMetrics(K, App->launch(P), Machine);
  printKernel(K, std::cout);
  std::cout << "\n// Instr=" << M.Profile.DynInstrs
            << " Regions=" << M.Profile.regions()
            << " regs=" << M.Resources.RegsPerThread
            << " smem=" << M.Resources.SharedMemPerBlockBytes
            << " B_SM=" << M.Occ.BlocksPerSM << " Eff=" << fmtSci(M.Efficiency)
            << " Util=" << fmtDouble(M.Utilization, 1) << "\n";
  return 0;
}

int cmdInspect(FlagMap Flags) {
  if (!Flags.count("file")) {
    std::cerr << "error: need --file\n";
    return usage();
  }
  MachineModel Machine;
  if (!machineFlag(Flags, Machine))
    return usage();
  Expected<std::string> Text = readFile(Flags["file"]);
  if (!Text) {
    std::cerr << "error: " << Text.diag().Message << "\n";
    return ExitParseVerify;
  }
  Expected<Kernel> R = parseKernel(*Text);
  if (!R) {
    std::cerr << Flags["file"] << ":" << R.diag().Line
              << ": error: " << R.diag().Message << "\n";
    return ExitParseVerify;
  }
  Kernel &K = *R;

  std::vector<std::string> Errors = verifyKernel(K);
  for (const std::string &E : Errors)
    std::cerr << Flags["file"] << ": verifier: " << E << "\n";
  if (!Errors.empty())
    return ExitParseVerify;

  std::vector<int> Block{256};
  std::vector<int> Grid{64};
  auto DimsFlag = [&Flags](const char *Name, std::vector<int> &Out) {
    if (!Flags.count(Name))
      return true;
    Expected<std::vector<int>> V = parseIntList(Flags[Name]);
    if (V && !(V->empty() || (*V)[0] < 1 || (V->size() > 1 && (*V)[1] < 1))) {
      Out = V.takeValue();
      return true;
    }
    std::cerr << "error: --" << Name << ": "
              << (V ? "needs positive dimensions" : V.diag().Message.c_str())
              << "\n";
    return false;
  };
  if (!DimsFlag("block", Block) || !DimsFlag("grid", Grid))
    return usage();
  LaunchConfig LC(
      Dim3(unsigned(Grid[0]), Grid.size() > 1 ? unsigned(Grid[1]) : 1),
      Dim3(unsigned(Block[0]), Block.size() > 1 ? unsigned(Block[1]) : 1));

  KernelMetrics M = computeKernelMetrics(K, LC, Machine);

  std::cout << "kernel '" << K.name() << "' on " << Machine.Name << " with "
            << LC.numBlocks() << " blocks x " << LC.threadsPerBlock()
            << " threads\n\n";
  TextTable T;
  T.addRow({"registers/thread", fmtInt(M.Resources.RegsPerThread)});
  T.addRow({"shared mem/block", fmtInt(M.Resources.SharedMemPerBlockBytes)});
  T.addRow({"blocks per SM (B_SM)",
            M.Occ.valid() ? fmtInt(M.Occ.BlocksPerSM) : "INVALID"});
  T.addRow({"limited by", occupancyLimitName(M.Occ.Limit)});
  T.addRow({"Instr (dyn/thread)", fmtInt(M.Profile.DynInstrs)});
  T.addRow({"Regions", fmtInt(M.Profile.regions())});
  T.addRow({"global loads/stores", fmtInt(M.Profile.GlobalLoads) + "/" +
                                       fmtInt(M.Profile.GlobalStores)});
  T.addRow({"bandwidth demand ratio",
            fmtDouble(M.BandwidthDemandRatio, 3) +
                (M.bandwidthBound() ? "  (BANDWIDTH BOUND)" : "")});
  if (M.Valid) {
    T.addRow({"Efficiency (Eq. 1)", fmtSci(M.Efficiency)});
    T.addRow({"Utilization (Eq. 2)", fmtDouble(M.Utilization, 1)});
    Expected<SimResult> S = simulateKernel(K, LC, Machine);
    if (!S) {
      T.print(std::cout);
      std::cerr << Flags["file"] << ": error: " << S.diag().str() << "\n";
      return ExitEvaluation;
    }
    T.addRow({"simulated time", fmtDouble(S->Seconds * 1e3, 3) + " ms"});
    T.addRow({"issue utilization",
              fmtPercent(S->issueUtilization())});
  }
  T.print(std::cout);
  return ExitOk;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  std::string_view Cmd = Argv[1];
  const Subcommand *Sub =
      std::find_if(std::begin(Subcommands), std::end(Subcommands),
                   [Cmd](const Subcommand &S) { return S.Name == Cmd; });
  if (Sub == std::end(Subcommands))
    return usage();
  FlagMap Flags;
  std::string Positional;
  if (!parseFlags(Argc, Argv, *Sub, Flags, Positional))
    return usage();
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "search")
    return cmdSearch(std::move(Flags));
  if (Cmd == "serve")
    return cmdServe(std::move(Flags));
  if (Cmd == "fleet")
    return cmdFleet(std::move(Flags));
  if (Cmd == "report")
    return cmdReport(Positional, std::move(Flags));
  if (Cmd == "lint")
    return cmdLint(Positional, std::move(Flags));
  if (Cmd == "show")
    return cmdShow(std::move(Flags));
  return cmdInspect(std::move(Flags));
}
