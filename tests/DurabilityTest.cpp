//===- tests/DurabilityTest.cpp - journal, subprocess, durable sweeps -----===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The durable sweep-execution layer, bottom up: the checksummed
// write-ahead journal (torn-tail and corruption semantics), the forked
// worker transport, the EvalRecord wire format, and SweepDriver end to end
// — journaled runs equal serial unjournaled ones, the 500-config kill/resume
// acceptance scenario re-measures nothing, and isolated workers that crash
// or hang cost exactly the in-flight configuration.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/EvalRecord.h"
#include "core/Search.h"
#include "core/SweepDriver.h"
#include "kernels/Cp.h"
#include "support/FaultInjection.h"
#include "support/Journal.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace g80;

namespace {

MachineModel gtx() { return MachineModel::geForce8800Gtx(); }

std::string tmpPath(const char *Name) {
  std::string Path = testing::TempDir() + "g80_dur_" + Name + ".jsonl";
  std::remove(Path.c_str());
  return Path;
}

JournalHeader header(const char *App = "toy", uint64_t Seed = 1) {
  JournalHeader H;
  H.App = App;
  H.Machine = "GeForce 8800 GTX";
  H.Strategy = "exhaustive";
  H.Seed = Seed;
  H.Budget = 0;
  H.RawSize = 100;
  return H;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

//===--- Journal primitives ----------------------------------------------------//

TEST(JsonHelpers, EscapeRoundTripsControlCharacters) {
  std::string Nasty = "a\"b\\c\nd\re\tf\x01g";
  EXPECT_EQ(jsonUnescape(jsonEscape(Nasty)), Nasty);
  EXPECT_EQ(jsonEscape(Nasty).find('\n'), std::string::npos);
}

TEST(JsonHelpers, Fnv1a64KnownVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
}

TEST(Journal, RoundTrip) {
  std::string Path = tmpPath("roundtrip");
  JournalHeader H = header();
  H.Extra = "inject=\"x\"";
  Expected<JournalWriter> W = JournalWriter::create(Path, H);
  ASSERT_TRUE(W.ok()) << W.diag().Message;
  std::vector<std::string> Payloads = {
      "{\"idx\":0}", "{\"idx\":1,\"msg\":\"a,b\"}", "{\"idx\":2}"};
  for (const std::string &P : Payloads)
    ASSERT_TRUE(W->appendRecord(P).ok());
  W->close();
  std::string Text = slurp(Path);
  EXPECT_EQ(Text.substr(0, Text.find('\n') + 1),
            "{\"g80journal\":1,\"crc\":\"af424f69a029a449\","
            "\"hdr\":{\"app\":\"toy\","
            "\"machine\":\"GeForce 8800 GTX\",\"strategy\":\"exhaustive\","
            "\"seed\":1,\"budget\":0,\"raw\":100,\"space\":\"small\","
            "\"extra\":\"inject=\\\"x\\\"\"}}\n");

  Expected<JournalContents> R = readJournal(Path);
  ASSERT_TRUE(R.ok()) << R.diag().Message;
  EXPECT_TRUE(R->Header.matches(H));
  EXPECT_EQ(R->Records, Payloads);
  EXPECT_FALSE(R->DroppedTornTail);
  EXPECT_EQ(R->ValidBytes, slurp(Path).size());
}

TEST(Journal, HeaderFingerprintComparesEveryField) {
  JournalHeader H = header();
  EXPECT_TRUE(H.matches(header()));
  JournalHeader M;
  M = header();
  M.App = "cp";
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.Machine = "other";
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.Strategy = "random";
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.Seed = 2;
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.Budget = 9;
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.RawSize = 99;
  EXPECT_FALSE(H.matches(M));
  M = header();
  M.Extra = "inject";
  EXPECT_FALSE(H.matches(M));
}

TEST(Journal, MissingFileAndBadHeaderAreErrors) {
  Expected<JournalContents> Missing = readJournal(tmpPath("missing"));
  ASSERT_FALSE(Missing.ok());
  EXPECT_EQ(Missing.diag().Code, ErrorCode::JournalError);

  std::string Path = tmpPath("badheader");
  spit(Path, "not a journal at all\n");
  Expected<JournalContents> Bad = readJournal(Path);
  ASSERT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.diag().Code, ErrorCode::JournalError);
}

TEST(Journal, TornTailDroppedThenAppendTruncates) {
  std::string Path = tmpPath("torn");
  Expected<JournalWriter> W = JournalWriter::create(Path, header());
  ASSERT_TRUE(W.ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":0}").ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":1}").ok());
  W->close();

  // The kill landed mid-write of record 2.
  {
    std::ofstream App(Path, std::ios::app | std::ios::binary);
    App << "{\"crc\":\"dead";
  }
  Expected<JournalContents> R = readJournal(Path);
  ASSERT_TRUE(R.ok()) << R.diag().Message;
  EXPECT_TRUE(R->DroppedTornTail);
  ASSERT_EQ(R->Records.size(), 2u);

  // Appending truncates the tail away and continues cleanly.
  Expected<JournalWriter> A = JournalWriter::append(Path, R->ValidBytes);
  ASSERT_TRUE(A.ok()) << A.diag().Message;
  ASSERT_TRUE(A->appendRecord("{\"idx\":2}").ok());
  A->close();

  Expected<JournalContents> R2 = readJournal(Path);
  ASSERT_TRUE(R2.ok()) << R2.diag().Message;
  EXPECT_FALSE(R2->DroppedTornTail);
  std::vector<std::string> Want = {"{\"idx\":0}", "{\"idx\":1}",
                                   "{\"idx\":2}"};
  EXPECT_EQ(R2->Records, Want);
}

TEST(Journal, BitFlipInFinalRecordIsATornTail) {
  std::string Path = tmpPath("flip_last");
  Expected<JournalWriter> W = JournalWriter::create(Path, header());
  ASSERT_TRUE(W.ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":0}").ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":1}").ok());
  W->close();

  std::string Bytes = slurp(Path);
  Bytes[Bytes.size() - 3] ^= 0x20; // inside the final record's payload
  spit(Path, Bytes);

  Expected<JournalContents> R = readJournal(Path);
  ASSERT_TRUE(R.ok()) << R.diag().Message;
  EXPECT_TRUE(R->DroppedTornTail);
  ASSERT_EQ(R->Records.size(), 1u);
  EXPECT_EQ(R->Records[0], "{\"idx\":0}");
}

TEST(Journal, CorruptionBeforeFinalRecordIsAHardError) {
  std::string Path = tmpPath("flip_mid");
  Expected<JournalWriter> W = JournalWriter::create(Path, header());
  ASSERT_TRUE(W.ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":0}").ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":1}").ok());
  ASSERT_TRUE(W->appendRecord("{\"idx\":2}").ok());
  W->close();

  std::string Bytes = slurp(Path);
  size_t FirstRec = Bytes.find('\n') + 1;
  size_t Mid = Bytes.find("idx\":0", FirstRec);
  ASSERT_NE(Mid, std::string::npos);
  Bytes[Mid] ^= 0x20; // damage a record that is *not* the torn tail
  spit(Path, Bytes);

  Expected<JournalContents> R = readJournal(Path);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.diag().Code, ErrorCode::JournalError);
}

#ifndef _WIN32

// fsync on /dev/null and on a FIFO fails (EINVAL), standing in for a disk
// that cannot make the bytes durable: that must be an error, never a
// silently "durable" journal or spool file.
TEST(Journal, CreateReportsAFailedFsync) {
  EXPECT_FALSE(JournalWriter::create("/dev/null", header()).ok());
}

TEST(DurableFileTest, FailedFsyncLeavesNeitherFileNorTmp) {
  std::string Path = tmpPath("durable_fifo");
  std::string Tmp = Path + ".tmp";
  std::remove(Tmp.c_str());
  ASSERT_EQ(::mkfifo(Tmp.c_str(), 0644), 0) << std::strerror(errno);
  // Hold a read end open so the writer's open() does not block.
  int Reader = ::open(Tmp.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(Reader, 0) << std::strerror(errno);
  Expected<Unit> W = writeFileDurable(Path, "{\"type\":\"result\"}\n");
  ::close(Reader);
  EXPECT_FALSE(W.ok());
  EXPECT_NE(::access(Path.c_str(), F_OK), 0) << "renamed into place";
  EXPECT_NE(::access(Tmp.c_str(), F_OK), 0) << "tmp left behind";
  std::remove(Path.c_str());
  std::remove(Tmp.c_str());
}

#endif // !_WIN32

//===--- Forked worker transport -----------------------------------------------//

#ifndef _WIN32

TEST(SubprocessTest, LinesThenCleanExit) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  Subprocess P = Subprocess::spawn([](const Subprocess::Emit &Emit) {
    Emit("one");
    Emit("two");
    Emit("three");
  });
  ASSERT_TRUE(P.valid());
  std::string Line;
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Line);
  EXPECT_EQ(Line, "one");
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Line);
  EXPECT_EQ(Line, "two");
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Line);
  EXPECT_EQ(Line, "three");
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Exited);
  EXPECT_EQ(P.exitStatus().K, WorkerExit::Kind::CleanExit);
  EXPECT_EQ(P.exitStatus().Code, 0);
}

TEST(SubprocessTest, CrashObservedAsSignal) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  Subprocess P = Subprocess::spawn([](const Subprocess::Emit &Emit) {
    Emit("before");
    raise(SIGSEGV);
  });
  ASSERT_TRUE(P.valid());
  std::string Line;
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Line);
  EXPECT_EQ(Line, "before");
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Exited);
  EXPECT_EQ(P.exitStatus().K, WorkerExit::Kind::Signaled);
  EXPECT_EQ(P.exitStatus().Code, SIGSEGV);
}

TEST(SubprocessTest, NonzeroExitObservedAsBadExit) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  Subprocess P = Subprocess::spawn(
      [](const Subprocess::Emit &) { _exit(7); });
  ASSERT_TRUE(P.valid());
  std::string Line;
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Exited);
  EXPECT_EQ(P.exitStatus().K, WorkerExit::Kind::BadExit);
  EXPECT_EQ(P.exitStatus().Code, 7);
}

TEST(SubprocessTest, HangObservedAsTimeoutThenKilled) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  Subprocess P = Subprocess::spawn([](const Subprocess::Emit &Emit) {
    Emit("alive");
    for (;;)
      sleep(1000);
  });
  ASSERT_TRUE(P.valid());
  std::string Line;
  ASSERT_EQ(P.poll(5.0, Line), Subprocess::Poll::Line);
  ASSERT_EQ(P.poll(0.1, Line), Subprocess::Poll::Timeout);
  P.kill();
  EXPECT_EQ(P.exitStatus().K, WorkerExit::Kind::Signaled);
}

#endif // !_WIN32

//===--- EvalRecord wire format ------------------------------------------------//

TEST(EvalRecordTest, JsonRoundTripIsBitIdentical) {
  EvalRecord R;
  R.Index = 42;
  R.Point = {64, 16, -1, 4, 2};
  R.Expressible = true;
  R.Valid = true;
  R.Efficiency = 1.0 / 3.0;
  R.Utilization = 162.41119691119692;
  R.Measured = true;
  R.TimeSeconds = 0.0011016592592592593;
  R.SimSeconds = 1e-300;
  R.Cycles = 1487240;
  EXPECT_EQ(R.toJson(),
            "{\"idx\":42,\"point\":[64,16,-1,4,2],\"expr\":true,\"valid\":true,"
            "\"eff\":0.33333333333333331,\"util\":162.41119691119692,"
            "\"measured\":true,\"time\":0.0011016592592592593,"
            "\"simsec\":1e-300,\"cycles\":1487240,"
            "\"fastbw\":false,\"stall\":0,\"memwait\":0,\"bsm\":0,\"code\":0,"
            "\"stage\":0,\"msg\":\"\"}");

  Expected<EvalRecord> Back = EvalRecord::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Index, R.Index);
  EXPECT_EQ(Back->Point, R.Point);
  EXPECT_EQ(Back->Expressible, R.Expressible);
  EXPECT_EQ(Back->Valid, R.Valid);
  EXPECT_EQ(Back->Efficiency, R.Efficiency);
  EXPECT_EQ(Back->Utilization, R.Utilization);
  EXPECT_EQ(Back->Measured, R.Measured);
  EXPECT_EQ(Back->TimeSeconds, R.TimeSeconds);
  EXPECT_EQ(Back->SimSeconds, R.SimSeconds);
  EXPECT_EQ(Back->Cycles, R.Cycles);
  EXPECT_FALSE(Back->failed());
}

TEST(EvalRecordTest, FailureRoundTripKeepsDiagnostic) {
  EvalRecord R;
  R.Index = 7;
  R.Point = {32, 1};
  R.Code = ErrorCode::WorkerTimeout;
  R.At = Stage::Simulate;
  R.Message = "worker exceeded 0.25s\nwith \"quotes\", commas";
  Expected<EvalRecord> Back = EvalRecord::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Code, ErrorCode::WorkerTimeout);
  EXPECT_EQ(Back->At, Stage::Simulate);
  EXPECT_EQ(Back->Message, R.Message);
  EXPECT_TRUE(Back->failed());
}

TEST(EvalRecordTest, GarbageJsonIsRejected) {
  EXPECT_FALSE(EvalRecord::fromJson("").ok());
  EXPECT_FALSE(EvalRecord::fromJson("{}").ok());
  EXPECT_FALSE(EvalRecord::fromJson("{\"idx\":1}").ok());
}

TEST(EvalRecordTest, CsvRowAlignsWithHeader) {
  EvalRecord R;
  R.Point = {1, 2, 3};
  EXPECT_EQ(R.csvRow().size(), EvalRecord::csvHeader().size());
}

//===--- SweepDriver end to end ------------------------------------------------//

const ToyApp &toy100() {
  static ToyApp App(20);
  return App;
}

/// The 500-configuration acceptance space (5 block sizes x 100 chains).
const ToyApp &toy500() {
  static ToyApp App(100);
  return App;
}

JournalHeader toyFp(const ToyApp &App, const std::string &Extra = "") {
  JournalHeader H;
  H.App = "toy";
  H.Machine = gtx().Name;
  H.Strategy = "exhaustive";
  H.RawSize = App.space().rawSize();
  H.Extra = Extra;
  return H;
}

void expectEqualOutcomes(const SearchOutcome &Got,
                         const SearchOutcome &Want) {
  EXPECT_EQ(Got.Candidates, Want.Candidates);
  std::vector<size_t> GotQ = Got.Quarantined, WantQ = Want.Quarantined;
  std::sort(GotQ.begin(), GotQ.end());
  std::sort(WantQ.begin(), WantQ.end());
  EXPECT_EQ(GotQ, WantQ);
  EXPECT_EQ(Got.BestIndex, Want.BestIndex);
  EXPECT_EQ(Got.BestTime, Want.BestTime);
  EXPECT_EQ(Got.TotalMeasuredSeconds, Want.TotalMeasuredSeconds);
}

TEST(SweepDriverTest, JournaledOutcomeEqualsInMemory) {
  SearchEngine Engine(toy100(), gtx());
  SearchOutcome Want =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  SweepOptions Opts;
  Opts.JournalPath = tmpPath("drv_plain");
  Opts.Fingerprint = toyFp(toy100());
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  expectEqualOutcomes(Rep.Outcome, Want);

  // One journal record per candidate.
  Expected<JournalContents> J = readJournal(Opts.JournalPath);
  ASSERT_TRUE(J.ok());
  EXPECT_EQ(J->Records.size(), Want.Candidates.size());
}

TEST(SweepDriverTest, IsolatedOutcomeEqualsInMemory) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  SearchEngine Engine(toy100(), gtx());
  SearchOutcome Want =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  SweepOptions Opts;
  Opts.Isolate = true;
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  EXPECT_EQ(Rep.WorkerRetries, 0u);
  expectEqualOutcomes(Rep.Outcome, Want);
}

/// The acceptance scenario: a 500-config journaled sweep is killed
/// mid-flight; `--resume` re-measures nothing already journaled and
/// reports the same best configuration and quarantine set as the
/// uninterrupted run.
TEST(SweepDriverTest, Acceptance500KillAndResume) {
  SearchEngine Engine(toy500(), gtx());
  std::string Path = tmpPath("accept500");

  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = toyFp(toy500());
  SweepReport Full = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Full.Status, SweepStatus::Completed);
  ASSERT_EQ(Full.Outcome.Candidates.size(), 500u);

  // SIGKILL after 123 fsync'd records: keep header + 123 lines.
  std::ifstream In(Path);
  std::string Line, Kept;
  for (size_t N = 0; N != 124 && std::getline(In, Line); ++N)
    Kept += Line + "\n";
  In.close();
  spit(Path, Kept);

  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 123u);
  expectEqualOutcomes(Res.Outcome, Full.Outcome);

  // Resuming the now-complete journal re-measures nothing at all.
  SweepReport Res2 = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res2.Status, SweepStatus::Completed);
  EXPECT_EQ(Res2.ResumedSkipped, 500u);
  expectEqualOutcomes(Res2.Outcome, Full.Outcome);
}

TEST(SweepDriverTest, IsolatedCrashAndHangQuarantineOnlyVictims) {
  if (!subprocessSupported())
    GTEST_SKIP() << "no fork on this platform";
  FaultPlan Plan;
  Plan.Actions.push_back({7, FaultAction::Crash});
  Plan.Actions.push_back({13, FaultAction::Hang});
  SearchEngine Engine(toy100(), gtx(), {}, {}, Plan);
  SearchEngine Clean(toy100(), gtx());
  SearchOutcome Base =
      SweepDriver(Clean, {}).run(Clean.planExhaustive()).Outcome;

  SweepOptions Opts;
  Opts.Isolate = true;
  Opts.TaskTimeoutSeconds = 0.25;
  Opts.JournalPath = tmpPath("crashhang");
  Opts.Fingerprint = toyFp(toy100(), "crash@7,hang@13");
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());

  // The parent survived, both victims were retried once in a fresh worker,
  // and only they were quarantined.
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  EXPECT_EQ(Rep.WorkerRetries, 2u);
  std::vector<size_t> WantQ = {7, 13};
  EXPECT_EQ(Rep.Outcome.Quarantined, WantQ);
  EXPECT_EQ(Rep.Outcome.Evals[7].Failure.Code, ErrorCode::WorkerCrashed);
  EXPECT_EQ(Rep.Outcome.Evals[13].Failure.Code, ErrorCode::WorkerTimeout);
  EXPECT_EQ(Rep.Outcome.Evals[7].Failure.At, Stage::Simulate);
  EXPECT_EQ(Rep.Outcome.Evals[13].Failure.At, Stage::Simulate);

  // Every other configuration measured exactly as an uninjected sweep.
  EXPECT_EQ(Rep.Outcome.Candidates.size(), 100u);
  for (size_t I = 0; I != 100; ++I) {
    if (I == 7 || I == 13)
      continue;
    EXPECT_TRUE(Rep.Outcome.Evals[I].Measured) << I;
    EXPECT_EQ(Rep.Outcome.Evals[I].TimeSeconds, Base.Evals[I].TimeSeconds)
        << I;
  }
  ASSERT_TRUE(Rep.Outcome.hasBest());
  EXPECT_EQ(Rep.Outcome.BestIndex, Base.BestIndex);

  // The quarantine records made it into the journal too: resuming skips
  // everything, including the victims.
  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 100u);
  EXPECT_EQ(Res.Outcome.Quarantined, WantQ);
}

TEST(SweepDriverTest, InProcessActionsDegradeToQuarantine) {
  // Without isolation a crash/hang action must not take the process down
  // (or hang it): it is converted to a quarantine diagnostic.
  FaultPlan Plan;
  Plan.Actions.push_back({3, FaultAction::Crash});
  Plan.Actions.push_back({5, FaultAction::Hang});
  SearchEngine Engine(toy100(), gtx(), {}, {}, Plan);

  SweepOptions Opts; // no Isolate
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
  std::vector<size_t> WantQ = {3, 5};
  EXPECT_EQ(Rep.Outcome.Quarantined, WantQ);
  EXPECT_EQ(Rep.Outcome.Evals[3].Failure.Code, ErrorCode::WorkerCrashed);
  EXPECT_EQ(Rep.Outcome.Evals[5].Failure.Code, ErrorCode::WorkerTimeout);
  ASSERT_TRUE(Rep.Outcome.hasBest());
}

TEST(SweepDriverTest, RealAppJournaledResumeMatchesPlain) {
  // A real kernel app, not the toy: cp's exhaustive sweep, killed after
  // ten records, must resume to the unjournaled outcome.
  CpApp App(CpProblem::bench());
  SearchEngine Engine(App, gtx());
  SearchOutcome Want =
      SweepDriver(Engine, {}).run(Engine.planExhaustive()).Outcome;

  std::string Path = tmpPath("cp_resume");
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint.App = std::string(App.name());
  Opts.Fingerprint.Machine = gtx().Name;
  Opts.Fingerprint.Strategy = "exhaustive";
  Opts.Fingerprint.RawSize = App.space().rawSize();
  SweepReport Full = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Full.Status, SweepStatus::Completed);

  std::ifstream In(Path);
  std::string Line, Kept;
  for (size_t N = 0; N != 11 && std::getline(In, Line); ++N)
    Kept += Line + "\n";
  In.close();
  spit(Path, Kept);

  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, 10u);
  expectEqualOutcomes(Res.Outcome, Want);
}

//===--- Signal semantics: graceful drain vs force-quit escalation --------===//

#ifndef _WIN32

namespace signalprobe {
// A plain sigaction handler: proof that the *previous* disposition is
// what fires, not the sweep handler.
volatile sig_atomic_t ProbeHits = 0;
extern "C" void probeHandler(int) { ProbeHits = ProbeHits + 1; }
} // namespace signalprobe

TEST(SweepSignalsTest, SingleSignalIsGracefulSecondIsForceQuit) {
  clearSweepInterrupt();
  ScopedSweepSignalHandlers Guard;
  ASSERT_FALSE(sweepInterruptRequested());
  ASSERT_FALSE(sweepForceQuitRequested());

  // First SIGINT: graceful-drain request only.
  ASSERT_EQ(raise(SIGINT), 0);
  EXPECT_TRUE(sweepInterruptRequested());
  EXPECT_FALSE(sweepForceQuitRequested());

  // Second signal (either of the pair): force-quit escalation.
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(sweepInterruptRequested());
  EXPECT_TRUE(sweepForceQuitRequested());

  // Further signals stay a force-quit; nothing wraps or throws.
  ASSERT_EQ(raise(SIGINT), 0);
  EXPECT_TRUE(sweepForceQuitRequested());
  clearSweepInterrupt();
}

TEST(SweepSignalsTest, InterruptedSweepDrainsGracefully) {
  // A sweep that receives one interrupt finishes its record boundary and
  // reports Interrupted — the journal stays resumable, nothing is lost.
  SearchEngine Engine(toy100(), gtx());
  clearSweepInterrupt();
  ScopedSweepSignalHandlers Guard;
  std::atomic<int> Committed{0};
  SweepOptions Opts;
  Opts.JournalPath = tmpPath("sig_drain");
  Opts.Fingerprint = toyFp(toy100());
  Opts.OnProgress = [&](const SweepProgress &) {
    if (++Committed == 3) {
      ASSERT_EQ(raise(SIGINT), 0);
    }
  };
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  EXPECT_EQ(Rep.Status, SweepStatus::Interrupted);
  EXPECT_LT(Committed.load(), 100);
  EXPECT_FALSE(sweepForceQuitRequested());
  clearSweepInterrupt();

  // The drained journal resumes cleanly to the full outcome.
  Opts.OnProgress = nullptr;
  Opts.Resume = true;
  SweepReport Res = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  ASSERT_EQ(Res.Status, SweepStatus::Completed);
  EXPECT_EQ(Res.ResumedSkipped, size_t(Committed.load()));
}

TEST(SweepSignalsTest, PreviousHandlersRestoredAfterScopeExit) {
  clearSweepInterrupt();
  struct sigaction Probe = {};
  Probe.sa_handler = signalprobe::probeHandler;
  sigemptyset(&Probe.sa_mask);
  struct sigaction SavedInt = {}, SavedTerm = {};
  ASSERT_EQ(sigaction(SIGINT, &Probe, &SavedInt), 0);
  ASSERT_EQ(sigaction(SIGTERM, &Probe, &SavedTerm), 0);
  signalprobe::ProbeHits = 0;

  {
    ScopedSweepSignalHandlers Guard;
    // Inside the scope the sweep handler owns the signal: the probe must
    // not fire, the interrupt counter must.
    ASSERT_EQ(raise(SIGINT), 0);
    EXPECT_EQ(int(signalprobe::ProbeHits), 0);
    EXPECT_TRUE(sweepInterruptRequested());
  }

  // After scope exit the probe (the "previous" disposition) fires again
  // and the counter no longer moves.
  clearSweepInterrupt();
  ASSERT_EQ(raise(SIGINT), 0);
  EXPECT_EQ(int(signalprobe::ProbeHits), 1);
  EXPECT_FALSE(sweepInterruptRequested());
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_EQ(int(signalprobe::ProbeHits), 2);

  ASSERT_EQ(sigaction(SIGINT, &SavedInt, nullptr), 0);
  ASSERT_EQ(sigaction(SIGTERM, &SavedTerm, nullptr), 0);
  clearSweepInterrupt();
}

#endif // !_WIN32

} // namespace
