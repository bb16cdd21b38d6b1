//===- bench/g80bench/Harness.cpp -----------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Journal.h"
#include "support/Numeric.h"
#include "support/Random.h"
#include "support/Statistics.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace g80;
using namespace g80bench;

namespace {

thread_local std::vector<int> OpenSpans;

} // namespace

void g80bench::forEachLine(std::string_view Text, std::string_view Tag,
                           const LineFn &Fn) {
  while (!Text.empty()) {
    size_t Nl = Text.find('\n');
    std::string_view Line = Text.substr(0, Nl);
    Text.remove_prefix(Nl == std::string_view::npos ? Text.size() : Nl + 1);
    if (Line.size() <= Tag.size() || Line.substr(0, Tag.size()) != Tag ||
        Line[Tag.size()] != '\t')
      continue;
    Line.remove_prefix(Tag.size() + 1);
    std::vector<std::string_view> Fields;
    for (;;) {
      size_t Tab = Line.find('\t');
      Fields.push_back(Line.substr(0, Tab));
      if (Tab == std::string_view::npos)
        break;
      Line.remove_prefix(Tab + 1);
    }
    Fn(Fields);
  }
}

//===--- Spans -----------------------------------------------------------===//

Spans::Spans(bool Enabled, std::string Workload)
    : Enabled(Enabled), Workload(std::move(Workload)), Epoch(Clock::now()) {}

int64_t Spans::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

int Spans::open(const char *Name, int Pass, int64_t Req) {
  if (!Enabled)
    return -1;
  SpanRec R;
  R.Name = Name;
  R.StartNs = nowNs();
  R.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  R.Pass = Pass;
  R.Req = Req;
  std::lock_guard<std::mutex> L(M);
  int Id = int(Recs.size());
  Recs.push_back(std::move(R));
  OpenSpans.push_back(Id);
  return Id;
}

void Spans::close(int Id) {
  if (Id < 0)
    return;
  int64_t End = nowNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> L(M);
  Recs[size_t(Id)].EndNs = End;
}

size_t Spans::size() const {
  std::lock_guard<std::mutex> L(M);
  return Recs.size();
}

std::string Spans::serialize(size_t From) const {
  std::lock_guard<std::mutex> L(M);
  std::ostringstream OS;
  for (size_t I = From; I < Recs.size(); ++I) {
    const SpanRec &R = Recs[I];
    OS << "span\t" << R.Name << '\t' << R.StartNs << '\t' << R.EndNs << '\t'
       << R.Parent << '\t' << R.Pass << '\t' << R.Req << '\n';
  }
  return OS.str();
}

bool Spans::absorb(std::string_view Lines) {
  bool Ok = true;
  std::lock_guard<std::mutex> L(M);
  forEachLine(Lines, "span", [&](const std::vector<std::string_view> &F) {
    if (F.size() != 6) {
      Ok = false;
      return;
    }
    Expected<int64_t> Start = parseInt64(F[1]), End = parseInt64(F[2]),
                      Parent = parseInt64(F[3]), Pass = parseInt64(F[4]),
                      Req = parseInt64(F[5]);
    if (!Start || !End || !Parent || !Pass || !Req) {
      Ok = false;
      return;
    }
    Recs.push_back(SpanRec{std::string(F[0]), *Start, *End, int(*Parent),
                           int(*Pass), *Req});
  });
  return Ok;
}

std::vector<double> Spans::durationsMs(std::string_view Name) const {
  std::lock_guard<std::mutex> L(M);
  std::vector<double> Out;
  for (const SpanRec &R : Recs)
    if (R.Name == Name)
      Out.push_back(double(R.EndNs - R.StartNs) / 1e6);
  return Out;
}

bool Spans::writeJsonl(const std::string &Path) const {
  std::ofstream OS(Path, std::ios::trunc);
  if (!OS)
    return false;
  std::lock_guard<std::mutex> L(M);
  OS.precision(15);
  for (const SpanRec &R : Recs)
    OS << "{\"name\":\"" << jsonEscape(R.Name)
       << "\",\"start_us\":" << double(R.StartNs) / 1e3
       << ",\"end_us\":" << double(R.EndNs) / 1e3
       << ",\"parent\":" << R.Parent << ",\"workload\":\""
       << jsonEscape(Workload) << "\",\"pass\":" << R.Pass
       << ",\"req\":" << R.Req << "}\n";
  return bool(OS);
}

//===--- Checker ---------------------------------------------------------===//

void Checker::check(bool Ok, const std::string &What) {
  if (Ok)
    return;
  std::cerr << "g80bench: check failed: " << What << "\n";
  std::lock_guard<std::mutex> L(M);
  ++Failures;
}

void Checker::addFailures(uint64_t N) {
  std::lock_guard<std::mutex> L(M);
  Failures += N;
}

uint64_t Checker::failures() const {
  std::lock_guard<std::mutex> L(M);
  return Failures;
}

void Checker::expectDigest(const RunConfig &Cfg, const std::string &Key,
                           const std::string &Digest) {
  std::cout << "digest " << Key << " " << Digest << "\n";
  if (Cfg.ExpectedPath.empty())
    return;
  std::ifstream In(Cfg.ExpectedPath, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  std::string Want;
  if (!jsonStringField(Buf.str(), Key, Want)) {
    check(false, "no expected digest for " + Key + " in " + Cfg.ExpectedPath);
    return;
  }
  check(Want == Digest, Key + " digest " + Digest + " != expected " + Want);
}

//===--- Numbers and digests ---------------------------------------------===//

double g80bench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  SampleStats S;
  for (double X : V)
    S.add(X);
  return S.median();
}

double g80bench::tail(std::vector<double> V) {
  if (V.empty())
    return 0;
  SampleStats S;
  for (double X : V)
    S.add(X);
  if (V.size() < 100)
    return S.max();
  double Q = std::min(0.99, 1.0 - 10.0 / double(V.size()));
  return S.quantile(Q);
}

Clock::time_point g80bench::deadlineAfter(double Seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(Seconds));
}

bool g80bench::startAnother(const std::vector<double> &DoneMs, size_t MinDone,
                            Clock::time_point Deadline) {
  return DoneMs.size() < MinDone ||
         deadlineAfter(median(DoneMs) / 1e3) <= Deadline;
}

void g80bench::jobLatencies(const std::vector<std::vector<double>> &MsPerJob,
                            RunResult &R) {
  std::vector<double> Medians;
  size_t Passes = 0;
  for (const std::vector<double> &Ms : MsPerJob) {
    Medians.push_back(median(Ms));
    Passes = std::max(Passes, Ms.size());
  }
  R.LatencyP50Ms = median(Medians);
  R.LatencyTailMs =
      Medians.empty() ? 0 : *std::max_element(Medians.begin(), Medians.end());
  R.LatencyNote = std::to_string(Medians.size()) + " jobs x " +
                  std::to_string(Passes) +
                  " passes; p50 = median of per-job medians, tail = slowest "
                  "job's median";
}

std::string g80bench::hexDigest(std::string_view Bytes) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(Bytes)));
  return Buf;
}

std::string g80bench::fileDigest(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return hexDigest(Buf.str());
}

double g80bench::selfPeakRssMb() {
  struct rusage Self {};
  getrusage(RUSAGE_SELF, &Self);
  return double(Self.ru_maxrss) / 1024.0;
}

//===--- Processes -------------------------------------------------------===//

bool g80bench::runInChild(const std::function<std::string()> &Body,
                          std::string &Out, std::string &Error,
                          double *PeakRssMb) {
  int Fds[2];
  if (pipe(Fds) != 0) {
    Error = "pipe failed";
    return false;
  }
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    Error = "fork failed";
    return false;
  }
  if (Pid == 0) {
    close(Fds[0]);
    int Code = 0;
    try {
      std::string Data = Body();
      std::cout.flush();
      std::cerr.flush();
      size_t Off = 0;
      while (Off < Data.size()) {
        ssize_t N = write(Fds[1], Data.data() + Off, Data.size() - Off);
        if (N < 0 && errno == EINTR)
          continue;
        if (N <= 0) {
          Code = 3;
          break;
        }
        Off += size_t(N);
      }
    } catch (...) {
      Code = 4;
    }
    close(Fds[1]);
    _exit(Code);
  }
  close(Fds[1]);
  Out.clear();
  char Buf[65536];
  for (;;) {
    ssize_t N = read(Fds[0], Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    Out.append(Buf, size_t(N));
  }
  close(Fds[0]);
  int Status = 0;
  struct rusage Usage {};
  while (wait4(Pid, &Status, 0, &Usage) < 0 && errno == EINTR) {
  }
  if (PeakRssMb)
    *PeakRssMb = double(Usage.ru_maxrss) / 1024.0;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Error = "child process exited abnormally (wait status " +
            std::to_string(Status) + ")";
    return false;
  }
  return true;
}

std::string g80bench::childTrailer(const Spans &S, size_t SpansAtFork,
                                   const Checker &C,
                                   uint64_t FailuresAtFork) {
  return S.serialize(SpansAtFork) + "failures\t" +
         std::to_string(C.failures() - FailuresAtFork) + "\n";
}

void g80bench::absorbChild(std::string_view Out, Spans &S, Checker &C) {
  C.check(S.absorb(Out), "malformed span lines from a pass child");
  forEachLine(Out, "failures", [&](const std::vector<std::string_view> &F) {
    Expected<uint64_t> N = parseUint64(F[0]);
    C.check(bool(N), "malformed failure count from a pass child");
    if (N)
      C.addFailures(*N);
  });
}

std::vector<size_t> g80bench::seededOrder(size_t N, uint64_t Seed) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[size_t(R.nextBelow(I))]);
  return Order;
}
