//===- tests/FleetTest.cpp - the fleet coordinator stack ------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The fleet subsystem bottom up: shard partitioning, endpoint parsing,
// the shard wire frames, worker-side shard execution, the coordinator's
// journal resume (a cut prefix, a torn tail, another shard size, another
// request's journal), end-to-end byte-identity against a single-driver
// journal — distributed, degraded local, and with a dead worker in the
// pool — and the chaos drill: SIGKILL a random worker AND the coordinator
// mid-sweep, restart on the same journal, and it is byte-identical to an
// undisturbed run.
//
//===----------------------------------------------------------------------===//

#include "core/Search.h"
#include "core/SweepDriver.h"
#include "fleet/Coordinator.h"
#include "fleet/ShardPlan.h"
#include "fleet/WorkerPool.h"
#include "serve/Server.h"
#include "serve/Shard.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#ifndef _WIN32
#include <csignal>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace g80;

namespace {

std::string tmpDir(const char *Name) {
  std::string Path = testing::TempDir() + "g80_fleet_" + Name;
  std::filesystem::remove_all(Path);
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Cuts the journal at \p Path back to its header and first \p Records
/// records, as a kill between two appends leaves it.
void truncateJournal(const std::string &Path, size_t Records) {
  std::string Text = slurp(Path);
  size_t End = 0;
  for (size_t Line = 0; Line != Records + 1; ++Line)
    End = Text.find('\n', End) + 1;
  std::filesystem::resize_file(Path, End);
}

/// The records \p Path holds (a torn tail dropped); 0 when unreadable.
size_t journalRecords(const std::string &Path) {
  Expected<JournalContents> C = readJournal(Path);
  return C ? C->Records.size() : 0;
}

/// Polls \p Pred at 10ms until true or \p Seconds elapse.
bool waitFor(double Seconds, const std::function<bool()> &Pred) {
  auto Deadline = std::chrono::steady_clock::now() +
                  std::chrono::duration<double>(Seconds);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

TuneRequest fleetRequest(uint64_t Budget = 24) {
  TuneRequest Req;
  Req.App = "matmul";
  Req.Strategy = "random";
  Req.Budget = Budget;
  Req.Seed = 7;
  return Req;
}

/// The acceptance oracle: what one uninterrupted `tune search --journal`
/// (or one daemon) writes for the same request.
void writeReferenceJournal(const TuneRequest &Req, const std::string &Path) {
  std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
  ASSERT_TRUE(App);
  SimOptions SimO;
  SimO.BandwidthFastPath = Req.FastBw;
  SearchEngine Eng(*App, makeServeMachine(Req.Machine), MetricOptions{},
                   SimO, FaultPlan{}, LintOptions{Req.Lint});
  SweepPlan Plan = planForRequest(Eng, Req, 1);
  SweepOptions Opts;
  Opts.JournalPath = Path;
  Opts.Fingerprint = fingerprintForRequest(*App, Eng, Plan, Req);
  SweepReport Rep = SweepDriver(Eng, Opts).run(std::move(Plan));
  ASSERT_EQ(Rep.Status, SweepStatus::Completed);
}

FleetOptions fleetOptions(const std::string &Dir, uint64_t Budget = 24) {
  FleetOptions FO;
  FO.Request = fleetRequest(Budget);
  FO.SpoolDir = Dir + "/spool";
  FO.JournalPath = Dir + "/fleet.journal";
  FO.ShardSize = 2;
  FO.HeartbeatSeconds = 0.2;
  return FO;
}

//===--- ShardPlan ------------------------------------------------------------//

TEST(ShardPlanTest, PartitionCoversRangeContiguously) {
  ShardPlan P = ShardPlan::partition(25, 0xfeed, 8);
  EXPECT_EQ(P.PlanFp, 0xfeedu);
  EXPECT_EQ(P.ShardSize, 8u);
  ASSERT_EQ(P.Shards.size(), 4u);
  uint64_t Next = 0;
  for (const ShardRange &R : P.Shards) {
    EXPECT_EQ(R.Begin, Next);
    EXPECT_EQ(R.Index, uint64_t(&R - P.Shards.data()));
    EXPECT_LE(R.size(), 8u);
    Next = R.End;
  }
  EXPECT_EQ(Next, 25u);
  EXPECT_EQ(P.Shards.back().size(), 1u); // 25 = 3*8 + 1.
}

TEST(ShardPlanTest, DegenerateSizesClampedAndEmptySpaceYieldsNoShards) {
  EXPECT_EQ(ShardPlan::partition(10, 1, 0).ShardSize, 1u);
  EXPECT_EQ(ShardPlan::partition(10, 1, 1u << 20).ShardSize, 1024u);
  EXPECT_TRUE(ShardPlan::partition(0, 1, 8).Shards.empty());
  // Deterministic: same inputs, same partition.
  ShardPlan A = ShardPlan::partition(100, 2, 7);
  ShardPlan B = ShardPlan::partition(100, 2, 7);
  ASSERT_EQ(A.Shards.size(), B.Shards.size());
  for (size_t I = 0; I != A.Shards.size(); ++I) {
    EXPECT_EQ(A.Shards[I].Begin, B.Shards[I].Begin);
    EXPECT_EQ(A.Shards[I].End, B.Shards[I].End);
  }
}

//===--- Worker endpoints -----------------------------------------------------//

TEST(WorkerEndpointTest, ParsesEverySpecForm) {
  Expected<WorkerEndpoint> U = parseWorkerEndpoint("unix:/tmp/w.sock");
  ASSERT_TRUE(U.ok());
  EXPECT_EQ(U->SocketPath, "/tmp/w.sock");

  Expected<WorkerEndpoint> P = parseWorkerEndpoint("/run/tune/w.sock");
  ASSERT_TRUE(P.ok());
  EXPECT_EQ(P->SocketPath, "/run/tune/w.sock");

  Expected<WorkerEndpoint> T = parseWorkerEndpoint("tcp:9100");
  ASSERT_TRUE(T.ok());
  EXPECT_EQ(T->TcpPort, 9100);

  Expected<WorkerEndpoint> L = parseWorkerEndpoint("localhost:9101");
  ASSERT_TRUE(L.ok());
  EXPECT_EQ(L->TcpPort, 9101);

  Expected<WorkerEndpoint> B = parseWorkerEndpoint("9102");
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(B->TcpPort, 9102);

  // The protocol has no authentication: remote hosts are refused.
  EXPECT_FALSE(parseWorkerEndpoint("example.com:9100").ok());
  EXPECT_FALSE(parseWorkerEndpoint("tcp:0").ok());
  EXPECT_FALSE(parseWorkerEndpoint("tcp:99999").ok());
  EXPECT_FALSE(parseWorkerEndpoint("").ok());
  EXPECT_FALSE(parseWorkerEndpoint("banana").ok());
}

TEST(WorkerEndpointTest, ListSplitsOnCommasAndSkipsEmpties) {
  Expected<std::vector<WorkerEndpoint>> L =
      parseWorkerList("unix:/tmp/a.sock,,tcp:9100,");
  ASSERT_TRUE(L.ok()) << L.diag().Message;
  ASSERT_EQ(L->size(), 2u);
  EXPECT_EQ((*L)[0].SocketPath, "/tmp/a.sock");
  EXPECT_EQ((*L)[1].TcpPort, 9100);
  EXPECT_FALSE(parseWorkerList("unix:/a.sock,banana").ok());
}

//===--- Shard wire frames ----------------------------------------------------//

TEST(FleetProtocolTest, ShardRequestRoundTrip) {
  ShardRequest R;
  R.Tune = fleetRequest();
  R.Tune.FastBw = true;
  R.PlanFp = 0x0123456789abcdefull;
  R.ShardIndex = 3;
  R.Begin = 6;
  R.End = 8;
  EXPECT_EQ(R.toJson(),
            "{\"type\":\"shard\",\"app\":\"matmul\",\"machine\":\"gtx\","
            "\"strategy\":\"random\",\"space\":\"small\",\"seed\":7,"
            "\"budget\":24,\"fastbw\":true,\"lint\":false,"
            "\"plan_fp\":81985529216486895,\"shard\":3,\"begin\":6,\"end\":8}");
  EXPECT_EQ(frameType(R.toJson()), "shard");
  Expected<ShardRequest> Back = ShardRequest::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Tune.App, R.Tune.App);
  EXPECT_EQ(Back->Tune.Strategy, R.Tune.Strategy);
  EXPECT_EQ(Back->Tune.Seed, R.Tune.Seed);
  EXPECT_EQ(Back->Tune.Budget, R.Tune.Budget);
  EXPECT_EQ(Back->Tune.FastBw, R.Tune.FastBw);
  EXPECT_EQ(Back->PlanFp, R.PlanFp);
  EXPECT_EQ(Back->ShardIndex, R.ShardIndex);
  EXPECT_EQ(Back->Begin, R.Begin);
  EXPECT_EQ(Back->End, R.End);
  // Torn/garbage tickets must parse-fail, not crash.
  EXPECT_FALSE(ShardRequest::fromJson("not json").ok());
  EXPECT_FALSE(ShardRequest::fromJson("{\"type\":\"shard\"}").ok());
}

TEST(FleetProtocolTest, ShardResultRoundTripPreservesRecordBytes) {
  ShardResult R;
  R.ShardIndex = 2;
  R.PlanFp = 42;
  R.Begin = 4;
  R.End = 6;
  R.Status = "completed";
  // Records are raw journal payloads: quotes, backslashes, and unicode
  // escapes inside must survive the array round-trip byte-for-byte.
  R.Records = {"{\"index\":4,\"cfg\":\"a \\\"quoted\\\" value\"}",
               "{\"index\":5,\"path\":\"C:\\\\tmp\"}"};
  EXPECT_EQ(R.toJson(),
            "{\"type\":\"shard_result\",\"shard\":2,\"plan_fp\":42,"
            "\"begin\":4,\"end\":6,\"status\":\"completed\",\"records\":["
            "\"{\\\"index\\\":4,\\\"cfg\\\":\\\"a \\\\\\\"quoted\\\\\\\" "
            "value\\\"}\",\"{\\\"index\\\":5,\\\"path\\\":"
            "\\\"C:\\\\\\\\tmp\\\"}\"]}");
  Expected<ShardResult> Back = ShardResult::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_TRUE(Back->completed());
  ASSERT_EQ(Back->Records.size(), 2u);
  EXPECT_EQ(Back->Records[0], R.Records[0]);
  EXPECT_EQ(Back->Records[1], R.Records[1]);
  EXPECT_EQ(Back->Begin, R.Begin);
  EXPECT_EQ(Back->End, R.End);

  ShardResult E;
  E.ShardIndex = 2;
  E.Status = "error";
  E.Error = "plan fingerprint mismatch";
  EXPECT_EQ(E.toJson(),
            "{\"type\":\"shard_result\",\"shard\":2,\"plan_fp\":0,"
            "\"begin\":0,\"end\":0,\"status\":\"error\","
            "\"error\":\"plan fingerprint mismatch\",\"records\":[]}");
  Expected<ShardResult> BackE = ShardResult::fromJson(E.toJson());
  ASSERT_TRUE(BackE.ok());
  EXPECT_FALSE(BackE->completed());
  EXPECT_EQ(BackE->Error, E.Error);
  EXPECT_TRUE(BackE->Records.empty());
}

//===--- Worker-side shard execution ------------------------------------------//

TEST(ExecuteShardTest, ShardsConcatenateToTheFullJournal) {
  std::string Dir = tmpDir("exec");
  std::filesystem::create_directories(Dir);
  TuneRequest Req = fleetRequest();

  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(Req, Ref);

  std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
  SearchEngine Eng(*App, makeServeMachine(Req.Machine));
  SweepPlan Plan = planForRequest(Eng, Req, 1);
  JournalHeader Header = fingerprintForRequest(*App, Eng, Plan, Req);
  uint64_t Fp = planFingerprint(Header, Plan);
  ShardPlan Partition = ShardPlan::partition(Plan.Candidates.size(), Fp, 5);

  std::string Merged = Dir + "/merged.journal";
  Expected<JournalWriter> W = JournalWriter::create(Merged, Header);
  ASSERT_TRUE(W.ok());
  for (const ShardRange &R : Partition.Shards) {
    ShardRequest SReq;
    SReq.Tune = Req;
    SReq.PlanFp = Fp;
    SReq.ShardIndex = R.Index;
    SReq.Begin = R.Begin;
    SReq.End = R.End;
    ShardResult Res = executeShard(Eng, *App, SReq, Dir, 1, {});
    ASSERT_TRUE(Res.completed()) << Res.Error;
    EXPECT_EQ(Res.PlanFp, Fp);
    ASSERT_EQ(Res.Records.size(), R.size());
    for (const std::string &Rec : Res.Records)
      ASSERT_TRUE(W->appendRecord(Rec).ok());
  }
  W->close();
  EXPECT_EQ(slurp(Merged), slurp(Ref));
}

TEST(ExecuteShardTest, FingerprintSkewIsRefused) {
  std::string Dir = tmpDir("skew");
  std::filesystem::create_directories(Dir);
  TuneRequest Req = fleetRequest(8);
  std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
  SearchEngine Eng(*App, makeServeMachine(Req.Machine));
  ShardRequest SReq;
  SReq.Tune = Req;
  SReq.PlanFp = 0xdeadbeef; // Not this plan's fingerprint.
  SReq.Begin = 0;
  SReq.End = 2;
  ShardResult Res = executeShard(Eng, *App, SReq, Dir, 1, {});
  EXPECT_FALSE(Res.completed());
  EXPECT_NE(Res.Error.find("fingerprint mismatch"), std::string::npos);
}

//===--- Coordinator: local execution, journal resume -------------------------//

TEST(FleetCoordinatorTest, LocalOnlyRunIsByteIdenticalToOneDriver) {
  std::string Dir = tmpDir("local");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  FleetOptions FO = fleetOptions(Dir);
  FleetReport Rep = FleetCoordinator(std::move(FO)).run();
  ASSERT_EQ(Rep.Status, FleetStatus::Completed)
      << Rep.Error.Message;
  EXPECT_EQ(Rep.ShardsCompleted, Rep.ShardsTotal);
  EXPECT_EQ(Rep.LocalShards, Rep.ShardsTotal);
  EXPECT_FALSE(Rep.Degraded); // No workers configured — local is normal.
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));

  // The journal is the coordinator's only durable state: the spool holds
  // just the in-process executor's shard journals, one per shard.
  uint64_t Journals = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(Dir + "/spool")) {
    EXPECT_EQ(Entry.path().extension(), ".journal") << Entry.path();
    ++Journals;
  }
  EXPECT_EQ(Journals, Rep.ShardsTotal);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/fleet.journal.merge.tmp"));
}

TEST(FleetCoordinatorTest, RestartOnFinishedSpoolRecoversEverything) {
  std::string Dir = tmpDir("resume");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  FleetReport First = FleetCoordinator(fleetOptions(Dir)).run();
  ASSERT_EQ(First.Status, FleetStatus::Completed) << First.Error.Message;
  EXPECT_EQ(First.ShardsRecovered, 0u);

  // A finished journal: every shard is recovered, none dispatched.
  FleetReport Again = FleetCoordinator(fleetOptions(Dir)).run();
  ASSERT_EQ(Again.Status, FleetStatus::Completed) << Again.Error.Message;
  EXPECT_EQ(Again.ShardsRecovered, Again.ShardsTotal);
  EXPECT_EQ(Again.LocalShards, 0u);
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));

  // Cut the journal inside shard 2 ([4, 6)): shards 0 and 1 are
  // recovered, shard 2 runs whole and only its record 5 is appended.
  truncateJournal(Dir + "/fleet.journal", 5);
  FleetReport Second = FleetCoordinator(fleetOptions(Dir)).run();
  ASSERT_EQ(Second.Status, FleetStatus::Completed) << Second.Error.Message;
  EXPECT_EQ(Second.ShardsRecovered, 2u);
  EXPECT_EQ(Second.LocalShards, Second.ShardsTotal - 2);
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));
}

TEST(FleetCoordinatorTest, RestartWithAnotherShardSizeResumes) {
  std::string Dir = tmpDir("reshard");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  FleetReport First = FleetCoordinator(fleetOptions(Dir)).run();
  ASSERT_EQ(First.Status, FleetStatus::Completed) << First.Error.Message;
  truncateJournal(Dir + "/fleet.journal", 7);

  // Shards of 5 over a 7-record prefix: [0, 5) is recovered and [5, 10)
  // is cut by it.  The spool's shard journals of size 2 are not reused.
  FleetOptions FO = fleetOptions(Dir);
  FO.ShardSize = 5;
  FleetReport Second = FleetCoordinator(std::move(FO)).run();
  ASSERT_EQ(Second.Status, FleetStatus::Completed) << Second.Error.Message;
  EXPECT_EQ(Second.ShardsTotal, 5u);
  EXPECT_EQ(Second.ShardsRecovered, 1u);
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));
}

TEST(FleetCoordinatorTest, TornSpoolFilesQuarantinedNotFatal) {
  std::string Dir = tmpDir("torn");
  std::filesystem::create_directories(Dir + "/spool");
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  // A journal whose last record is torn, as a kill mid-append leaves it:
  // the tail is dropped with a warning and that record measured again.
  std::string Journal = Dir + "/fleet.journal";
  std::filesystem::copy_file(Ref, Journal);
  truncateJournal(Journal, 9);
  std::filesystem::resize_file(Journal,
                               std::filesystem::file_size(Journal) - 20);

  // What older coordinators kept in the spool — a plan manifest, shard
  // tickets and shard results — is ignored and left in place.
  std::ofstream(Dir + "/spool/fleet.plan") << "{\"type\":\"fleet_plan\"}\n";
  std::ofstream(Dir + "/spool/shard-000000.job") << "torn{";
  std::ofstream(Dir + "/spool/shard-000001.result") << "also torn";

  FleetReport Rep = FleetCoordinator(fleetOptions(Dir)).run();
  ASSERT_EQ(Rep.Status, FleetStatus::Completed) << Rep.Error.Message;
  ASSERT_EQ(Rep.Warnings.size(), 1u);
  EXPECT_NE(Rep.Warnings[0].find("torn"), std::string::npos)
      << Rep.Warnings[0];
  EXPECT_EQ(Rep.ShardsRecovered, 4u); // 8 of the 9 records survived.
  EXPECT_EQ(slurp(Journal), slurp(Ref));
  EXPECT_EQ(slurp(Dir + "/spool/fleet.plan"), "{\"type\":\"fleet_plan\"}\n");
  EXPECT_EQ(slurp(Dir + "/spool/shard-000000.job"), "torn{");
  EXPECT_EQ(slurp(Dir + "/spool/shard-000001.result"), "also torn");
}

TEST(FleetCoordinatorTest, SpoolManifestPinsThePlan) {
  std::string Dir = tmpDir("manifest");
  std::filesystem::create_directories(Dir);
  FleetReport First = FleetCoordinator(fleetOptions(Dir, 8)).run();
  ASSERT_EQ(First.Status, FleetStatus::Completed) << First.Error.Message;
  std::string Before = slurp(Dir + "/fleet.journal");

  // Same journal, different request: refused, not silently spliced, and
  // the journal keeps its bytes.
  FleetReport Second = FleetCoordinator(fleetOptions(Dir, 12)).run();
  ASSERT_EQ(Second.Status, FleetStatus::Error);
  EXPECT_NE(Second.Error.Message.find("different sweep"), std::string::npos)
      << Second.Error.Message;
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), Before);
}

#ifndef _WIN32
TEST(FleetCoordinatorTest, FailedJournalAppendIsAnError) {
  std::string Dir = tmpDir("append");
  std::filesystem::create_directories(Dir);
  // A child whose files may not grow past 1200 bytes: a shard journal (a
  // header and two records) fits, and the fleet journal fails at its
  // fourth record.  The driver goes on without the journal; the fleet,
  // whose output it is, must end in an error.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit Limit{1200, 1200};
    if (setrlimit(RLIMIT_FSIZE, &Limit) != 0)
      _exit(2);
    FleetReport Rep = FleetCoordinator(fleetOptions(Dir)).run();
    _exit(Rep.Status == FleetStatus::Error &&
                  Rep.Error.Message.find("incomplete") != std::string::npos
              ? 0
              : 1);
  }
  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  EXPECT_EQ(journalRecords(Dir + "/fleet.journal"), 3u);
}
#endif

TEST(FleetCoordinatorTest, NoWorkersAndNoLocalIsAnError) {
  std::string Dir = tmpDir("nolocal");
  std::filesystem::create_directories(Dir);
  FleetOptions FO = fleetOptions(Dir);
  FO.AllowLocal = false;
  FleetReport Rep = FleetCoordinator(std::move(FO)).run();
  EXPECT_EQ(Rep.Status, FleetStatus::Error);
}

} // namespace

//===--- Distributed end to end ------------------------------------------------//

namespace {

#ifndef _WIN32

/// An in-process tune-serve worker on an ephemeral TCP port.
struct InProcessWorker {
  TuneServer Server;
  std::thread Thread;

  explicit InProcessWorker(const std::string &SpoolDir)
      : Server([&] {
          ServeOptions SO;
          SO.SpoolDir = SpoolDir;
          SO.TcpPort = 0;
          SO.Executors = 1;
          return SO;
        }()) {}

  bool start() {
    if (!Server.start().ok())
      return false;
    Thread = std::thread([this] { Server.serve(); });
    return true;
  }

  WorkerEndpoint endpoint() const {
    WorkerEndpoint Ep;
    Ep.TcpPort = Server.port();
    Ep.Label = "localhost:" + std::to_string(Server.port());
    return Ep;
  }

  ~InProcessWorker() {
    if (Thread.joinable()) {
      Server.requestDrain();
      Thread.join();
    }
  }
};

TEST(FleetDistributedTest, TwoWorkersMergeByteIdentical) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  std::string Dir = tmpDir("dist");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  InProcessWorker W1(Dir + "/w1"), W2(Dir + "/w2");
  ASSERT_TRUE(W1.start() && W2.start());

  // Local execution stays allowed: with both workers live, the fleet must
  // not degrade, not even before the runners' first handshakes.
  FleetOptions FO = fleetOptions(Dir);
  FO.Workers = {W1.endpoint(), W2.endpoint()};
  FleetReport Rep = FleetCoordinator(std::move(FO)).run();
  ASSERT_EQ(Rep.Status, FleetStatus::Completed) << Rep.Error.Message;
  EXPECT_EQ(Rep.LocalShards, 0u);
  EXPECT_FALSE(Rep.Degraded);
  EXPECT_EQ(Rep.ShardsCompleted, Rep.ShardsTotal);
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));

  // Workers report the shards they served.
  Expected<ServeClient> C1 = ServeClient::connect("", W1.Server.port());
  ASSERT_TRUE(C1.ok());
  Expected<ServeStatus> S1 = C1->status(10);
  ASSERT_TRUE(S1.ok());
  Expected<ServeClient> C2 = ServeClient::connect("", W2.Server.port());
  ASSERT_TRUE(C2.ok());
  Expected<ServeStatus> S2 = C2->status(10);
  ASSERT_TRUE(S2.ok());
  // >= rather than ==: a hedge or re-dispatch may serve a shard twice.
  EXPECT_GE(S1->ShardsServed + S2->ShardsServed, Rep.ShardsTotal);
}

TEST(FleetDistributedTest, DeadEndpointDegradesAndStillMatches) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  std::string Dir = tmpDir("dead");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  writeReferenceJournal(fleetRequest(), Ref);

  // One live worker, one endpoint nobody listens on: the live worker
  // (plus degraded-local, if the live one lags) must finish the sweep.
  InProcessWorker W1(Dir + "/w1");
  ASSERT_TRUE(W1.start());
  WorkerEndpoint Dead;
  Dead.SocketPath = Dir + "/nobody-home.sock";
  Dead.Label = "unix:" + Dead.SocketPath;

  FleetOptions FO = fleetOptions(Dir);
  FO.Workers = {Dead, W1.endpoint()};
  FleetReport Rep = FleetCoordinator(std::move(FO)).run();
  ASSERT_EQ(Rep.Status, FleetStatus::Completed) << Rep.Error.Message;
  EXPECT_EQ(slurp(Dir + "/fleet.journal"), slurp(Ref));
}

TEST(FleetDistributedTest, ShardJournalsAreKeyedByRange) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  std::string Dir = tmpDir("range");
  std::filesystem::create_directories(Dir);
  InProcessWorker W(Dir + "/w");
  ASSERT_TRUE(W.start());

  TuneRequest Req = fleetRequest();
  std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
  SearchEngine Eng(*App, makeServeMachine(Req.Machine));
  SweepPlan Plan = planForRequest(Eng, Req, 1);
  ShardRequest SReq;
  SReq.Tune = Req;
  SReq.PlanFp =
      planFingerprint(fingerprintForRequest(*App, Eng, Plan, Req), Plan);

  // Shard 0 at two shard sizes, as a coordinator restarted with another
  // --shard-size sends it: the second must not resume the first's journal.
  std::vector<std::string> Records;
  for (uint64_t End : {8, 4}) {
    SReq.End = End;
    Expected<ServeClient> C = ServeClient::connect("", W.Server.port());
    ASSERT_TRUE(C.ok()) << C.diag().Message;
    Expected<ShardResult> R = C->runShard(SReq, 60);
    ASSERT_TRUE(R.ok()) << "[0, " << End << "): " << R.diag().Message;
    ASSERT_TRUE(R->completed()) << R->Error;
    ASSERT_EQ(R->Records.size(), End);
    if (Records.empty())
      Records = R->Records;
    for (size_t K = 0; K != End; ++K)
      EXPECT_EQ(R->Records[K], Records[K]);
  }
}

//===--- Chaos: SIGKILL a worker and the coordinator mid-sweep -----------------//

TEST(FleetChaosTest, KillWorkerAndCoordinatorResumeByteIdentical) {
  if (!socketsSupported())
    GTEST_SKIP() << "no fork/sockets on this platform";
  std::string Dir = tmpDir("chaos");
  std::filesystem::create_directories(Dir);
  std::string Ref = Dir + "/ref.journal";
  // A bigger sweep (24 shards) so the kills reliably land mid-run.
  const uint64_t Budget = 48;
  writeReferenceJournal(fleetRequest(Budget), Ref);

  std::string Sock1 = Dir + "/w1.sock", Sock2 = Dir + "/w2.sock";

  // Workers as real processes, so SIGKILL is the real thing.
  auto forkWorker = [&](const std::string &Spool, const std::string &Sock) {
    pid_t Pid = fork();
    if (Pid == 0) {
      ServeOptions SO;
      SO.SpoolDir = Spool;
      SO.SocketPath = Sock;
      SO.Executors = 1;
      TuneServer Server(SO);
      if (!Server.start().ok())
        _exit(99);
      Server.serve();
      _exit(0);
    }
    return Pid;
  };
  pid_t W1 = forkWorker(Dir + "/w1", Sock1);
  pid_t W2 = forkWorker(Dir + "/w2", Sock2);
  ASSERT_GT(W1, 0);
  ASSERT_GT(W2, 0);
  ASSERT_TRUE(waitFor(10, [&] {
    return std::filesystem::exists(Sock1) && std::filesystem::exists(Sock2);
  }));

  auto forkCoordinator = [&] {
    pid_t Pid = fork();
    if (Pid == 0) {
      FleetOptions FO = fleetOptions(Dir, Budget);
      FO.Workers = {{Sock1, 0, "unix:" + Sock1}, {Sock2, 0, "unix:" + Sock2}};
      FO.ShardTimeoutSeconds = 30;
      FleetReport Rep = FleetCoordinator(std::move(FO)).run();
      _exit(Rep.Status == FleetStatus::Completed ? 0 : 1);
    }
    return Pid;
  };
  pid_t Coord = forkCoordinator();
  ASSERT_GT(Coord, 0);

  // Wait until some records are journaled so both kills land mid-sweep.
  std::string Journal = Dir + "/fleet.journal";
  ASSERT_TRUE(waitFor(60, [&] { return journalRecords(Journal) >= 4; }))
      << "coordinator never made progress";

  // SIGKILL one worker, then the coordinator itself.
  ASSERT_EQ(kill(W1, SIGKILL), 0);
  int WStatus = 0;
  ASSERT_EQ(waitpid(W1, &WStatus, 0), W1);
  ASSERT_EQ(kill(Coord, SIGKILL), 0);
  ASSERT_EQ(waitpid(Coord, &WStatus, 0), Coord);
  ASSERT_TRUE(WIFSIGNALED(WStatus));

  // Restart the coordinator on the same journal with the surviving worker
  // (and degraded-local as the backstop): the shards wholly inside the
  // journaled prefix are recovered, and the rest run again.
  uint64_t AlreadyDurable = journalRecords(Journal);
  FleetOptions FO = fleetOptions(Dir, Budget);
  FO.Workers = {{Sock2, 0, "unix:" + Sock2}};
  FO.ShardTimeoutSeconds = 30;
  uint64_t ShardSize = FO.ShardSize;
  FleetReport Rep = FleetCoordinator(std::move(FO)).run();
  ASSERT_EQ(Rep.Status, FleetStatus::Completed) << Rep.Error.Message;
  EXPECT_EQ(Rep.ShardsRecovered, AlreadyDurable / ShardSize);
  EXPECT_LT(Rep.ShardsRecovered, Rep.ShardsTotal)
      << "kill landed after the sweep finished; nothing was exercised";

  // The acceptance bar: byte-identical to the undisturbed single-driver
  // journal, SIGKILLs and all.
  EXPECT_EQ(slurp(Journal), slurp(Ref));

  kill(W2, SIGKILL);
  waitpid(W2, &WStatus, 0);
}

#endif // !_WIN32

} // namespace
