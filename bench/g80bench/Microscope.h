//===- bench/g80bench/Microscope.h - Direct per-layer calls ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's "microscope": after a workload's timed section it
/// replays the same jobs through each layer's public functions, timing
/// every call from outside, so per-layer numbers never perturb the
/// end-to-end ones.  A job is expressed as the TuneRequest the serve layer
/// would spool for it, and replayed the way TuneServer::runJob executes
/// one: spool ticket, plan, sweep, spool result.  Every measured
/// configuration is then rebuilt, verified, re-evaluated and re-simulated
/// on its own, and the job's journal records are re-appended to a scratch
/// journal.
///
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_MICROSCOPE_H
#define G80BENCH_MICROSCOPE_H

#include "Harness.h"

#include "core/Evaluation.h"
#include "serve/Spool.h"

#include <map>
#include <string>
#include <vector>

namespace g80bench {

class Microscope {
public:
  /// Layer calls write their files under \p Dir.
  Microscope(Spans &S, Checker &C, const std::string &Dir);

  /// Replays \p Req (measured with \p Jobs threads) through the layers
  /// and returns the direct plan + sweep time in milliseconds.
  double replay(const g80::TunableApp &App, const g80::TuneRequest &Req,
                unsigned Jobs, int Pass, int64_t ReqId);

  /// Records the share of a job's end-to-end latency that its direct
  /// plan + sweep account for.
  void noteDirectShare(double DirectMs, double EndToEndMs);

  /// Sample lines for the fork pipe, and their inverse.
  std::string serialize() const;
  void absorb(std::string_view Lines);

  /// Every per-layer metric, from the spans and samples recorded.
  std::vector<Metric> metrics() const;

private:
  void add(const std::string &Name, double V) { Samples[Name].push_back(V); }
  void replayConfigs(const g80::TunableApp &App,
                     const g80::MachineModel &Machine,
                     const std::vector<const g80::ConfigEval *> &Measured,
                     int Pass, int64_t ReqId);
  void replayJournal(const std::string &Path, int Pass, int64_t ReqId);

  Spans &S;
  Checker &C;
  std::string Dir;
  g80::Spool Scratch;
  uint64_t JournalsWritten = 0;
  std::map<std::string, std::vector<double>> Samples;
};

} // namespace g80bench

#endif // G80BENCH_MICROSCOPE_H
