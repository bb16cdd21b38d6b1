//===- bench/g80bench/Harness.h - Shared benchmark machinery --------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every g80bench workload shares: the run configuration, in-memory
/// spans (written out only at exit), output checks, the numbers a run
/// reports, content digests, and running a pass in a forked child.
///
//===----------------------------------------------------------------------===//

#ifndef G80BENCH_HARNESS_H
#define G80BENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace g80bench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One invocation's settings (see g80bench.cpp for the flags).
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 20;
  bool Trace = false;
  bool Smoke = false;
  /// Scratch root for journals, spools and sockets; removed at exit.
  std::string WorkDir;
  /// Committed seed-1 digests (expected.json); empty skips digest checks.
  std::string ExpectedPath;
};

/// One recorded span.  Times are nanoseconds since the run's epoch on
/// the steady clock, which forked children share with their parent.
struct SpanRec {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1; ///< Index of the enclosing span on the same thread.
  int Pass = -1;
  int64_t Req = -1; ///< Request id or job index within the pass.
};

/// Spans kept in memory and written out when the benchmark ends.
/// Recording is thread-safe; nesting is tracked per thread.
class Spans {
public:
  Spans(bool Enabled, std::string Workload);

  /// Opens a span and returns its id (-1 when disabled).
  int open(const char *Name, int Pass, int64_t Req);
  void close(int Id);

  size_t size() const;
  /// Spans from index \p From on, one line each — the fork pipe format.
  std::string serialize(size_t From) const;
  /// Appends spans serialized by a child forked when size() was the
  /// child's \p From.
  bool absorb(std::string_view Lines);

  /// Durations of every span named \p Name, in milliseconds.
  std::vector<double> durationsMs(std::string_view Name) const;

  /// Writes every span as JSONL ({name, start_us, end_us, parent,
  /// workload, pass, req}).
  bool writeJsonl(const std::string &Path) const;

private:
  int64_t nowNs() const;

  bool Enabled;
  std::string Workload;
  Clock::time_point Epoch;
  mutable std::mutex M;
  std::vector<SpanRec> Recs; ///< Guarded by M.
};

/// RAII span that always measures its own duration and records itself
/// when tracing is on.
class Span {
public:
  Span(Spans &S, const char *Name, int Pass = -1, int64_t Req = -1)
      : S(S), Id(S.open(Name, Pass, Req)), T0(Clock::now()) {}
  ~Span() { S.close(Id); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  double ms() const { return msBetween(T0, Clock::now()); }

private:
  Spans &S;
  int Id;
  Clock::time_point T0;
};

/// Output checks.  A failed check makes the run incorrect and counts as
/// a failed operation.
class Checker {
public:
  void check(bool Ok, const std::string &What);
  /// Adds failures a forked child counted (it printed them itself).
  void addFailures(uint64_t N);
  uint64_t failures() const;

  /// Compares \p Digest with \p Key in expected.json.
  void expectDigest(const RunConfig &Cfg, const std::string &Key,
                    const std::string &Digest);

private:
  mutable std::mutex M;
  uint64_t Failures = 0;
};

/// What a workload hands back for reporting.
struct RunResult {
  std::vector<double> SetupSeconds; ///< One per set-up.
  double ConfigsPerSec = 0;
  double LatencyP50Ms = 0;
  double LatencyTailMs = 0;
  std::string LatencyNote; ///< How the two latencies were formed.
  /// Peak resident set of the processes doing the work, when that is not
  /// this one (MB); the report takes the larger of this and its own.
  double WorkerPeakRssMb = 0;
  uint64_t Attempted = 0;  ///< Jobs attempted.
  uint64_t Failed = 0;     ///< Shed or errored jobs.
};

/// Now plus \p Seconds on the steady clock.
Clock::time_point deadlineAfter(double Seconds);

/// Whether a workload starts another repetition of its unit of work:
/// always below \p MinDone repetitions, otherwise only when one more,
/// lasting the median of \p DoneMs, would end by \p Deadline.
bool startAnother(const std::vector<double> &DoneMs, size_t MinDone,
                  Clock::time_point Deadline);

/// Latency of a workload made of a fixed list of jobs, each timed in
/// several passes: p50 is the median over jobs of each job's median time,
/// tail the slowest job's median time.  Per-job medians keep one slow pass
/// from moving either number.
void jobLatencies(const std::vector<std::vector<double>> &MsPerJob,
                  RunResult &R);

/// A named value with its unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

double median(std::vector<double> V);
/// The highest percentile (capped at p99) with at least ten samples
/// beyond it; the maximum when there are fewer than 100 samples.
double tail(std::vector<double> V);

/// FNV-1a-64 of a file's bytes as 16 hex digits ("" when unreadable).
std::string fileDigest(const std::string &Path);
std::string hexDigest(std::string_view Bytes);

/// Peak resident set of this process, in MB.
double selfPeakRssMb();

/// Runs \p Body in a forked child and returns what it produced, or
/// nothing (with \p Error set) when the child failed.  \p PeakRssMb, if
/// given, receives the child's peak resident set.  The parent must have
/// no running threads.
bool runInChild(const std::function<std::string()> &Body, std::string &Out,
                std::string &Error, double *PeakRssMb = nullptr);

/// The last lines a forked child sends: its spans recorded since the
/// fork and the number of checks that failed in it.
std::string childTrailer(const Spans &S, size_t SpansAtFork,
                         const Checker &C, uint64_t FailuresAtFork);
/// The parent's half: takes the spans and failures out of \p Out.
void absorbChild(std::string_view Out, Spans &S, Checker &C);

/// Calls \p Fn on every line of \p Text starting with \p Tag + '\t', with
/// the remaining tab-separated fields.
using LineFn = std::function<void(const std::vector<std::string_view> &)>;
void forEachLine(std::string_view Text, std::string_view Tag,
                 const LineFn &Fn);

/// A deterministic permutation of [0, N) for \p Seed.
std::vector<size_t> seededOrder(size_t N, uint64_t Seed);

} // namespace g80bench

#endif // G80BENCH_HARNESS_H
