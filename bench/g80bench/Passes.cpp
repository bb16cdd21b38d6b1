//===- bench/g80bench/Passes.cpp ------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Passes.h"

#include "Job.h"

#include "serve/Shard.h"
#include "support/Numeric.h"

#include <filesystem>
#include <iostream>
#include <sstream>

using namespace g80;
using namespace g80bench;

std::string g80bench::journalOf(const std::string &PassDir, size_t Job) {
  return PassDir + "/" + std::to_string(Job) + ".journal";
}

namespace {

AppMap makeApps(const PassWorkload &W) {
  AppMap Apps;
  for (const TuneRequest &R : W.Jobs)
    if (!Apps.count(R.App))
      Apps[R.App] = makeServeApp(R.App, W.Tier);
  if (!Apps.count(W.WarmUp.App))
    Apps[W.WarmUp.App] = makeServeApp(W.WarmUp.App, W.Tier);
  return Apps;
}

std::vector<JobOutcome> parseJobs(std::string_view Out, Checker &C) {
  std::vector<JobOutcome> Jobs;
  forEachLine(Out, "job", [&](const std::vector<std::string_view> &F) {
    JobOutcome J;
    bool Ok = F.size() == 6;
    if (Ok) {
      Expected<double> Ms = parseDouble(F[0]), Best = parseDouble(F[4]);
      Expected<uint64_t> N = parseUint64(F[1]);
      Ok = Ms && Best && N;
      if (Ok) {
        J.Ms = *Ms;
        J.Measured = *N;
        J.Completed = F[2] == "1";
        J.HasBest = F[3] == "1";
        J.BestTime = *Best;
        J.Digest = std::string(F[5]);
      }
    }
    C.check(Ok, "malformed job line from a pass child");
    Jobs.push_back(J);
  });
  return Jobs;
}

/// Runs job \p I of a pass in a freshly forked child, as a separate
/// `tune search` process would: a cold engine and a fresh heap, so the
/// job's peak memory does not depend on the jobs before it.
bool runJobInChild(const PassWorkload &W, const AppMap &Apps,
                   const std::string &Dir, size_t I, int Pass, Spans &S,
                   Checker &C, JobOutcome &J, double &RssMb) {
  size_t SpansAtFork = S.size();
  uint64_t FailuresAtFork = C.failures();
  std::string Out, Error;
  bool Ok = runInChild(
      [&] {
        const TuneRequest &Req = W.Jobs[I];
        const TunableApp &App = *Apps.at(Req.App);
        JobOptions Opts;
        Opts.Jobs = PassThreads;
        Opts.JournalPath = journalOf(Dir, I);
        SweepReport Rep;
        double Ms = 0;
        {
          Span Sp(S, "job", Pass, int64_t(I));
          SearchEngine Eng(App, makeServeMachine(Req.Machine));
          JobTiming Timing;
          Rep = runJob(App, Eng, Req, Opts, Timing);
          Ms = Sp.ms();
        }
        const SearchOutcome &Res = Rep.Outcome;
        std::ostringstream OS;
        OS.precision(17);
        OS << "job\t" << Ms << '\t' << Res.Candidates.size() << '\t'
           << (Rep.Status == SweepStatus::Completed) << '\t'
           << Res.hasBest() << '\t' << (Res.hasBest() ? Res.BestTime : 0.0)
           << '\t' << fileDigest(Opts.JournalPath) << '\n';
        return OS.str() + childTrailer(S, SpansAtFork, C, FailuresAtFork);
      },
      Out, Error, &RssMb);
  C.check(Ok, W.Name + " job " + jobName(W.Jobs[I]) + ": " + Error);
  absorbChild(Out, S, C);
  std::vector<JobOutcome> Parsed = parseJobs(Out, C);
  if (!Ok || Parsed.size() != 1)
    return false;
  J = Parsed[0];
  return true;
}

} // namespace

RunResult g80bench::runForkedPasses(const RunConfig &Cfg, Spans &S,
                                    Checker &C, Microscope &M,
                                    const PassWorkload &W) {
  RunResult R;
  AppMap Apps;
  unsigned SetUps = Cfg.Smoke ? 1 : 9;
  for (unsigned I = 0; I != SetUps; ++I) {
    std::string Dir = Cfg.WorkDir + "/setup-" + std::to_string(I);
    std::filesystem::create_directories(Dir);
    Span Sp(S, "setup", -1, I);
    Apps = makeApps(W);
    const TunableApp &App = *Apps.at(W.WarmUp.App);
    SearchEngine Eng(App, makeServeMachine(W.WarmUp.Machine));
    JobOptions Opts;
    Opts.Jobs = PassThreads;
    Opts.JournalPath = Dir + "/warm-up.journal";
    JobTiming Timing;
    SweepReport Rep = runJob(App, Eng, W.WarmUp, Opts, Timing);
    C.check(Rep.Status == SweepStatus::Completed,
            W.Name + " warm-up job failed: " + Rep.Error.Message);
    R.SetupSeconds.push_back(Sp.ms() / 1e3);
  }

  // At least three passes (one when smoke-testing), and none that would
  // end past the deadline.
  const size_t MinPasses = Cfg.Smoke ? 1 : 3;
  std::vector<std::vector<double>> JobMs(W.Jobs.size());
  std::vector<uint64_t> JobConfigs(W.Jobs.size());
  std::vector<double> PassMsSeen, PassRssMb;
  std::vector<std::string> FirstDigests;
  Clock::time_point Deadline = deadlineAfter(Cfg.Smoke ? 0 : Cfg.Seconds);
  for (int Pass = 0; startAnother(PassMsSeen, MinPasses, Deadline); ++Pass) {
    std::string Dir = Cfg.WorkDir + "/pass-" + std::to_string(Pass);
    std::filesystem::create_directories(Dir);
    std::vector<JobOutcome> Jobs(W.Jobs.size());
    double PassRss = 0;
    Clock::time_point PassStart = Clock::now();
    bool Ok = true;
    for (size_t I = 0; I != W.Jobs.size() && Ok; ++I) {
      double Rss = 0;
      Ok = runJobInChild(W, Apps, Dir, I, Pass, S, C, Jobs[I], Rss);
      PassRss = std::max(PassRss, Rss);
    }
    double PassMs = msBetween(PassStart, Clock::now());
    R.Attempted += W.Jobs.size();
    if (!Ok) {
      R.Failed += 1;
      break;
    }

    uint64_t Measured = 0;
    for (size_t I = 0; I != Jobs.size(); ++I) {
      const JobOutcome &J = Jobs[I];
      Measured += J.Measured;
      R.Failed += !J.Completed;
      JobMs[I].push_back(J.Ms);
      JobConfigs[I] = J.Measured;
      std::string Key = W.Name + "/" + jobName(W.Jobs[I]);
      if (Pass == 0)
        C.expectDigest(Cfg, Key, J.Digest);
      else
        C.check(J.Digest == FirstDigests[I],
                Key + " journal differs between passes 0 and " +
                    std::to_string(Pass));
    }
    if (Pass == 0)
      for (const JobOutcome &J : Jobs)
        FirstDigests.push_back(J.Digest);
    W.CheckPass(Jobs, C);
    PassMsSeen.push_back(PassMs);
    PassRssMb.push_back(PassRss);
    std::cout << W.Name << " pass " << Pass << ": " << Jobs.size()
              << " jobs, " << Measured << " configs in " << PassMs / 1e3
              << " s\n";

    // Untimed work on the first pass: journal checks, then (traced) the
    // direct layer calls on the same jobs, each in a child of its own.
    // The run's deadline moves out by the time they take.
    Clock::time_point Untimed = Clock::now();
    std::string Out, Error;
    if (Pass == 0 && W.CheckJournals) {
      size_t SpansAtFork = S.size();
      uint64_t FailuresAtFork = C.failures();
      Ok = runInChild(
          [&] {
            W.CheckJournals(Apps, Jobs, Dir, C);
            return childTrailer(S, SpansAtFork, C, FailuresAtFork);
          },
          Out, Error);
      C.check(Ok, W.Name + " journal checks: " + Error);
      absorbChild(Out, S, C);
    }
    if (Pass == 0 && Cfg.Trace) {
      size_t SpansAtFork = S.size();
      uint64_t FailuresAtFork = C.failures();
      Ok = runInChild(
          [&] {
            Microscope Local(S, C, Cfg.WorkDir + "/microscope");
            for (size_t I = 0; I != W.Jobs.size(); ++I) {
              const TuneRequest &Req = W.Jobs[I];
              double Direct = Local.replay(*Apps.at(Req.App), Req,
                                           PassThreads, Pass, int64_t(I));
              Local.noteDirectShare(Direct, Jobs[I].Ms);
            }
            return Local.serialize() +
                   childTrailer(S, SpansAtFork, C, FailuresAtFork);
          },
          Out, Error);
      C.check(Ok, W.Name + " microscope: " + Error);
      absorbChild(Out, S, C);
      M.absorb(Out);
    }
    Deadline += Clock::now() - Untimed;
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
  }

  // Each job's median time over the passes, so one slow pass moves
  // neither the throughput nor the latencies.
  double Configs = 0, Ms = 0;
  std::vector<std::vector<double>> LatencyJobs;
  for (size_t I = 0; I != W.Jobs.size(); ++I) {
    Configs += double(JobConfigs[I]);
    Ms += median(JobMs[I]);
    if (W.IsLatencySample(W.Jobs[I]))
      LatencyJobs.push_back(JobMs[I]);
  }
  R.ConfigsPerSec = Ms > 0 ? Configs / (Ms / 1e3) : 0;
  R.WorkerPeakRssMb = median(PassRssMb);
  jobLatencies(LatencyJobs, R);
  return R;
}
