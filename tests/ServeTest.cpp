//===- tests/ServeTest.cpp - the tune serve daemon stack ------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The serve subsystem bottom up: backoff policy determinism, the
// length-prefixed socket transport, the wire protocol round-trips, the
// bounded admission queue, the durable spool, driver-level cooperative
// cancellation, and the daemon end to end — accept/execute/result,
// overload shedding, deadlines, status, graceful drain, and the chaos
// scenario: SIGKILL the daemon mid-request, restart on the same spool,
// and every journaled request completes with results byte-identical to
// an uninterrupted run.
//
//===----------------------------------------------------------------------===//

#include "ToyApps.h"

#include "core/Search.h"
#include "core/SweepDriver.h"
#include "serve/Client.h"
#include "serve/RequestQueue.h"
#include "serve/Server.h"
#include "serve/Shard.h"
#include "serve/Spool.h"
#include "support/Backoff.h"
#include "support/FaultInjection.h"
#include "support/Journal.h"
#include "support/Socket.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#ifndef _WIN32
#include <csignal>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace g80;

namespace {

std::string tmpDir(const char *Name) {
  std::string Path = testing::TempDir() + "g80_serve_" + Name;
  std::filesystem::remove_all(Path);
  return Path;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TuneRequest tinyRequest(uint64_t Seed, bool Wait = false) {
  TuneRequest Req;
  Req.App = "matmul";
  Req.Strategy = "random";
  Req.Budget = 3;
  Req.Seed = Seed;
  Req.Wait = Wait;
  return Req;
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

//===--- Backoff --------------------------------------------------------------//

TEST(BackoffTest, DeterministicExponentialWithCap) {
  BackoffPolicy P;
  // Same (salt, attempt) always yields the same delay.
  EXPECT_DOUBLE_EQ(P.delaySeconds(0, 42), P.delaySeconds(0, 42));
  EXPECT_DOUBLE_EQ(P.delaySeconds(3, 7), P.delaySeconds(3, 7));
  // Grows roughly exponentially until the cap.
  EXPECT_LT(P.delaySeconds(0, 1), P.delaySeconds(2, 1));
  for (unsigned A = 0; A != 16; ++A)
    EXPECT_LE(P.delaySeconds(A, 1), P.MaxSeconds * (1 + P.JitterFraction));
}

TEST(BackoffTest, JitterStaysWithinFraction) {
  BackoffPolicy P;
  for (uint64_t Salt = 0; Salt != 50; ++Salt) {
    // Attempts are 1-based: the first retry waits ~InitialSeconds.
    double D = P.delaySeconds(1, Salt);
    double Base = P.InitialSeconds;
    EXPECT_GE(D, Base * (1 - P.JitterFraction) - 1e-12);
    EXPECT_LE(D, Base * (1 + P.JitterFraction) + 1e-12);
  }
}

TEST(BackoffTest, SaltsDecorrelate) {
  BackoffPolicy P;
  // Not all salts may differ, but across 20 salts at least two delays
  // must (otherwise the jitter is dead code).
  bool AnyDiffer = false;
  double First = P.delaySeconds(1, 0);
  for (uint64_t Salt = 1; Salt != 20; ++Salt)
    AnyDiffer |= P.delaySeconds(1, Salt) != First;
  EXPECT_TRUE(AnyDiffer);
}

//===--- Socket ---------------------------------------------------------------//

TEST(SocketTest, TcpFrameRoundTrip) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  ASSERT_TRUE(L.ok()) << L.diag().Message;
  ASSERT_NE(L->port(), 0);

  Expected<Socket> Client = connectTcp(L->port());
  ASSERT_TRUE(Client.ok()) << Client.diag().Message;
  Expected<Socket> Server = L->acceptFor(5);
  ASSERT_TRUE(Server.ok()) << Server.diag().Message;
  ASSERT_TRUE(Server->valid());

  std::string Msg = "{\"type\":\"ping\",\"blob\":\"\x01\x02\xff wire\"}";
  ASSERT_TRUE(Client->sendFrame(Msg).ok());
  std::string Got;
  ASSERT_EQ(Server->recvFrame(5, Got), Socket::Recv::Frame);
  EXPECT_EQ(Got, Msg);

  // And the other direction on the same connection.
  ASSERT_TRUE(Server->sendFrame("pong").ok());
  ASSERT_EQ(Client->recvFrame(5, Got), Socket::Recv::Frame);
  EXPECT_EQ(Got, "pong");
}

TEST(SocketTest, RecvTimesOutAndConnectionCloseIsClean) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  ASSERT_TRUE(L.ok());
  Expected<Socket> Client = connectTcp(L->port());
  ASSERT_TRUE(Client.ok());
  Expected<Socket> Server = L->acceptFor(5);
  ASSERT_TRUE(Server.ok());

  std::string Got;
  EXPECT_EQ(Server->recvFrame(0.05, Got), Socket::Recv::Timeout);
  Client->close();
  EXPECT_EQ(Server->recvFrame(1, Got), Socket::Recv::Closed);
}

TEST(SocketTest, OversizedSendIsRejected) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  ASSERT_TRUE(L.ok());
  Expected<Socket> Client = connectTcp(L->port());
  ASSERT_TRUE(Client.ok());
  std::string Huge(Socket::MaxFrameBytes + 1, 'x');
  EXPECT_FALSE(Client->sendFrame(Huge).ok());
}

TEST(SocketTest, UnixSocketRoundTripAndStaleReplacement) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  std::string Path = testing::TempDir() + "g80_serve_sock_test";
  {
    Expected<ListenSocket> L = ListenSocket::listenUnix(Path);
    ASSERT_TRUE(L.ok()) << L.diag().Message;
    Expected<Socket> Client = connectUnix(Path);
    ASSERT_TRUE(Client.ok());
    Expected<Socket> Server = L->acceptFor(5);
    ASSERT_TRUE(Server.ok());
    ASSERT_TRUE(Client->sendFrame("hello").ok());
    std::string Got;
    ASSERT_EQ(Server->recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, "hello");
    // Leave the socket file behind deliberately (simulates a crash).
    L->close();
  }
  // A fresh daemon replaces the stale socket file.
  Expected<ListenSocket> L2 = ListenSocket::listenUnix(Path);
  EXPECT_TRUE(L2.ok()) << (L2.ok() ? "" : L2.diag().Message);
}

//===--- Protocol -------------------------------------------------------------//

TEST(ServeProtocolTest, TuneRequestRoundTrip) {
  TuneRequest R;
  R.App = "sad";
  R.Machine = "nextgen";
  R.Strategy = "cluster";
  R.Space = "large";
  R.Seed = 99;
  R.Budget = 7;
  R.FastBw = true;
  R.Lint = true;
  R.DeadlineSeconds = 12.5;
  R.Wait = true;
  // Pinned bytes: a field-order or escaping slip must fail here, not
  // only in a round trip through the same (slipped) code.
  EXPECT_EQ(R.toJson(),
            "{\"type\":\"tune\",\"app\":\"sad\",\"machine\":\"nextgen\","
            "\"strategy\":\"cluster\",\"space\":\"large\",\"seed\":99,"
            "\"budget\":7,\"fastbw\":true,\"lint\":true,\"deadline\":12.5,"
            "\"wait\":true}");
  Expected<TuneRequest> Back = TuneRequest::fromJson(R.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->App, R.App);
  EXPECT_EQ(Back->Machine, R.Machine);
  EXPECT_EQ(Back->Strategy, R.Strategy);
  EXPECT_EQ(Back->Space, R.Space);
  EXPECT_EQ(Back->Seed, R.Seed);
  EXPECT_EQ(Back->Budget, R.Budget);
  EXPECT_EQ(Back->FastBw, R.FastBw);
  EXPECT_EQ(Back->Lint, R.Lint);
  EXPECT_DOUBLE_EQ(Back->DeadlineSeconds, R.DeadlineSeconds);
  EXPECT_EQ(Back->Wait, R.Wait);
  EXPECT_EQ(frameType(R.toJson()), "tune");
}

TEST(ServeProtocolTest, ForeignWhitespaceTolerated) {
  // python's json.dumps and pretty-printers put whitespace between
  // tokens; the parser must not care.
  std::string Json = "{ \"type\" : \"tune\",\n  \"app\" : \"matmul\",\n"
                     "  \"seed\" : 5, \"wait\" : true }";
  EXPECT_EQ(frameType(Json), "tune");
  Expected<TuneRequest> R = TuneRequest::fromJson(Json);
  ASSERT_TRUE(R.ok()) << R.diag().Message;
  EXPECT_EQ(R->App, "matmul");
  EXPECT_EQ(R->Seed, 5u);
  EXPECT_TRUE(R->Wait);
  // ... while whitespace *inside* strings is preserved.
  Expected<TuneRequest> R2 = TuneRequest::fromJson(
      "{\"type\":\"tune\",\"app\":\"mat mul\"}");
  ASSERT_TRUE(R2.ok());
  EXPECT_EQ(R2->App, "mat mul");
}

TEST(ServeProtocolTest, RequestValidation) {
  EXPECT_FALSE(TuneRequest::fromJson("{\"type\":\"tune\"}").ok());
  EXPECT_FALSE(TuneRequest::fromJson(
                   "{\"type\":\"tune\",\"app\":\"matmul\","
                   "\"deadline\":-1}")
                   .ok());
}

TEST(ServeProtocolTest, TuneResultRoundTripIsDeterministic) {
  TuneResult R;
  R.Id = "req-000007";
  R.Req = tinyRequest(3);
  R.Status = "completed";
  R.Valid = 96;
  R.Measured = 3;
  R.Quarantined = 1;
  R.Best = "tile=16 rect=2";
  R.BestTime = 0.0012345678901234567;
  R.TotalMeasuredSeconds = 0.5;
  std::string Json = R.toJson();
  // Serialization is stable: the chaos test byte-compares result files.
  EXPECT_EQ(Json, R.toJson());
  EXPECT_EQ(Json,
            "{\"type\":\"result\",\"id\":\"req-000007\",\"app\":\"matmul\","
            "\"machine\":\"gtx\",\"strategy\":\"random\",\"space\":\"small\","
            "\"seed\":3,\"budget\":3,\"fastbw\":false,\"lint\":false,"
            "\"status\":\"completed\",\"valid\":96,\"measured\":3,"
            "\"quarantined\":1,\"best\":\"tile=16 rect=2\","
            "\"best_time\":0.0012345678901234567,"
            "\"total_measured_seconds\":0.5}");
  Expected<TuneResult> Back = TuneResult::fromJson(Json);
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->Id, R.Id);
  EXPECT_EQ(Back->Status, "completed");
  EXPECT_EQ(Back->Valid, R.Valid);
  EXPECT_EQ(Back->Measured, R.Measured);
  EXPECT_EQ(Back->Quarantined, R.Quarantined);
  EXPECT_EQ(Back->Best, R.Best);
  EXPECT_DOUBLE_EQ(Back->BestTime, R.BestTime);
  EXPECT_EQ(Back->toJson(), Json);

  // The error form adds "error" after "status", escaped.
  TuneResult E;
  E.Id = "req-000008";
  E.Req = tinyRequest(4);
  E.Status = "error";
  E.Error = "deadline \"exceeded\"\n";
  EXPECT_EQ(E.toJson(),
            "{\"type\":\"result\",\"id\":\"req-000008\",\"app\":\"matmul\","
            "\"machine\":\"gtx\",\"strategy\":\"random\",\"space\":\"small\","
            "\"seed\":4,\"budget\":3,\"fastbw\":false,\"lint\":false,"
            "\"status\":\"error\",\"error\":\"deadline \\\"exceeded\\\"\\n\","
            "\"valid\":0,\"measured\":0,\"quarantined\":0,\"best\":\"\","
            "\"best_time\":0,\"total_measured_seconds\":0}");
  Expected<TuneResult> BackE = TuneResult::fromJson(E.toJson());
  ASSERT_TRUE(BackE.ok()) << BackE.diag().Message;
  EXPECT_EQ(BackE->Error, E.Error);
  EXPECT_EQ(BackE->toJson(), E.toJson());
}

TEST(ServeProtocolTest, StatusRoundTrip) {
  ServeStatus S;
  S.QueueDepth = 3;
  S.QueueLimit = 16;
  S.Active = 2;
  S.Completed = 40;
  S.Shed = 5;
  S.Recovered = 1;
  S.CacheHits = 30;
  S.CacheMisses = 10;
  S.UptimeSeconds = 12.25;
  S.Draining = true;
  EXPECT_DOUBLE_EQ(S.cacheHitRate(), 0.75);
  EXPECT_EQ(S.toJson(),
            "{\"type\":\"status\",\"queue_depth\":3,\"queue_limit\":16,"
            "\"active\":2,\"completed\":40,\"shed\":5,\"recovered\":1,"
            "\"cache_hits\":30,\"cache_misses\":10,\"cache_hit_rate\":0.75,"
            "\"shards_served\":0,\"uptime_seconds\":12.25,\"draining\":true}");
  Expected<ServeStatus> Back = ServeStatus::fromJson(S.toJson());
  ASSERT_TRUE(Back.ok()) << Back.diag().Message;
  EXPECT_EQ(Back->QueueDepth, S.QueueDepth);
  EXPECT_EQ(Back->Shed, S.Shed);
  EXPECT_EQ(Back->Recovered, S.Recovered);
  EXPECT_TRUE(Back->Draining);
}

TEST(ServeProtocolTest, CannedFramesArePinned) {
  EXPECT_EQ(acceptedFrame("req-000001"),
            "{\"type\":\"accepted\",\"id\":\"req-000001\"}");
  EXPECT_EQ(overloadedFrame(3, 16),
            "{\"type\":\"overloaded\",\"error\":\"admission queue full\","
            "\"queue_depth\":3,\"queue_limit\":16}");
  EXPECT_EQ(errorFrame("bad \"app\"\tfield"),
            "{\"type\":\"error\",\"error\":\"bad \\\"app\\\"\\tfield\"}");
  EXPECT_EQ(progressFrame("req-000002", 5, 10, 1),
            "{\"type\":\"progress\",\"id\":\"req-000002\",\"done\":5,"
            "\"total\":10,\"quarantined\":1}");
  EXPECT_EQ(okFrame(), "{\"type\":\"ok\"}");
}

TEST(ServeProtocolTest, GarbledNumbersKeepTheirDefaults) {
  // Present-but-garbled fields keep their defaults (Budget 16, Seed 1,
  // FastBw false): a string, a negative, an overflow, a non-integer and
  // a bool with trailing junk are all garbled.
  const TuneRequest Defaults;
  for (const char *Field :
       {"\"budget\":\"16\"", "\"budget\":-1", "\"budget\":32.0",
        "\"seed\":99999999999999999999999", "\"fastbw\":truex"}) {
    std::string Json =
        std::string("{\"type\":\"tune\",\"app\":\"matmul\",") + Field + "}";
    Expected<TuneRequest> R = TuneRequest::fromJson(Json);
    ASSERT_TRUE(R.ok()) << Json << ": " << R.diag().Message;
    EXPECT_EQ(R->Budget, Defaults.Budget) << Json;
    EXPECT_EQ(R->Seed, Defaults.Seed) << Json;
    EXPECT_EQ(R->FastBw, Defaults.FastBw) << Json;
  }

  // Every %.17g value reads back bit for bit, including the extremes.
  for (double V : {0.0, -0.0, std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    TuneResult Res;
    Res.Id = "req-000001";
    Res.Req = tinyRequest(1);
    Res.Status = "completed";
    Res.BestTime = V;
    Expected<TuneResult> Back = TuneResult::fromJson(Res.toJson());
    ASSERT_TRUE(Back.ok()) << Res.toJson();
    uint64_t Want = 0, Got = 0;
    std::memcpy(&Want, &V, sizeof(V));
    std::memcpy(&Got, &Back->BestTime, sizeof(V));
    EXPECT_EQ(Got, Want) << Res.toJson();
  }
}

//===--- RequestQueue ---------------------------------------------------------//

TEST(RequestQueueTest, BoundShedsAndRecoveryBypasses) {
  RequestQueue<int> Q(2);
  EXPECT_TRUE(Q.tryPush(1));
  EXPECT_TRUE(Q.tryPush(2));
  EXPECT_FALSE(Q.tryPush(3)) << "third push must shed at bound 2";
  EXPECT_TRUE(Q.push(3)) << "recovery push bypasses the bound";
  EXPECT_EQ(Q.depth(), 3u);
  EXPECT_EQ(Q.pop(0.1).value(), 1);
  EXPECT_EQ(Q.pop(0.1).value(), 2);
  EXPECT_EQ(Q.pop(0.1).value(), 3);
  EXPECT_FALSE(Q.pop(0.02).has_value());
}

TEST(RequestQueueTest, CloseStopsAdmissionButDrainsItems) {
  RequestQueue<int> Q(4);
  EXPECT_TRUE(Q.tryPush(1));
  Q.close();
  EXPECT_FALSE(Q.tryPush(2));
  EXPECT_FALSE(Q.push(2));
  EXPECT_EQ(Q.pop(0.1).value(), 1);
  EXPECT_FALSE(Q.pop(0.1).has_value());
  EXPECT_TRUE(Q.closed());
}

TEST(RequestQueueTest, PopWakesOnPushFromAnotherThread) {
  RequestQueue<int> Q(4);
  std::thread Producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    Q.tryPush(42);
  });
  std::optional<int> Got = Q.pop(5);
  Producer.join();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(*Got, 42);
}

//===--- Spool ----------------------------------------------------------------//

TEST(SpoolTest, TicketResultAndRecoveryInvariant) {
  std::string Dir = tmpDir("spool");
  Expected<Spool> Sp = Spool::open(Dir);
  ASSERT_TRUE(Sp.ok()) << Sp.diag().Message;

  Expected<std::string> A = Sp->createTicket(tinyRequest(1));
  Expected<std::string> B = Sp->createTicket(tinyRequest(2));
  Expected<std::string> C = Sp->createTicket(tinyRequest(3));
  ASSERT_TRUE(A.ok() && B.ok() && C.ok());
  EXPECT_EQ(*A, "req-000001");
  EXPECT_EQ(*B, "req-000002");
  EXPECT_EQ(*C, "req-000003");

  // Complete B only: recovery must list exactly A and C, in id order.
  ASSERT_TRUE(Sp->writeResult(*B, "{\"type\":\"result\"}").ok());
  Expected<std::string> Read = readFile(Sp->resultPath(*B));
  ASSERT_TRUE(Read.ok());
  EXPECT_NE(Read->find("result"), std::string::npos);

  auto Pending = Sp->recover();
  ASSERT_TRUE(Pending.ok()) << Pending.diag().Message;
  ASSERT_EQ(Pending->size(), 2u);
  EXPECT_EQ((*Pending)[0].first, "req-000001");
  EXPECT_EQ((*Pending)[0].second.Seed, 1u);
  EXPECT_EQ((*Pending)[1].first, "req-000003");
  EXPECT_EQ((*Pending)[1].second.Seed, 3u);

  // Reopening seeds the id counter past existing tickets.
  Expected<Spool> Again = Spool::open(Dir);
  ASSERT_TRUE(Again.ok());
  Expected<std::string> D = Again->createTicket(tinyRequest(4));
  ASSERT_TRUE(D.ok());
  EXPECT_EQ(*D, "req-000004");
}

TEST(SpoolTest, CorruptTicketIsQuarantinedNotFatal) {
  std::string Dir = tmpDir("spool_corrupt");
  Expected<Spool> Sp = Spool::open(Dir);
  ASSERT_TRUE(Sp.ok());
  // One healthy ticket and one torn by a simulated mid-write crash.
  Expected<std::string> A = Sp->createTicket(tinyRequest(1));
  ASSERT_TRUE(A.ok());
  std::ofstream(Dir + "/req-000009.job") << "not json at all";

  // Recovery quarantines the torn ticket (renamed .bad, reported) and
  // still returns every healthy one.
  std::vector<std::string> Quarantined;
  auto Pending = Sp->recover(&Quarantined);
  ASSERT_TRUE(Pending.ok()) << Pending.diag().Message;
  ASSERT_EQ(Pending->size(), 1u);
  EXPECT_EQ((*Pending)[0].first, *A);
  ASSERT_EQ(Quarantined.size(), 1u);
  EXPECT_NE(Quarantined[0].find("req-000009"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(Dir + "/req-000009.job"));
  EXPECT_TRUE(std::filesystem::exists(Dir + "/req-000009.job.bad"));

  // The quarantined id still reserves its slot: a reopened spool must
  // not reissue req-000009 and overwrite the evidence.
  Expected<Spool> Again = Spool::open(Dir);
  ASSERT_TRUE(Again.ok());
  Expected<std::string> B = Again->createTicket(tinyRequest(2));
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(*B, "req-000010");
}

//===--- Driver-level cooperative cancellation --------------------------------//

TEST(SweepDriverTest, ShouldStopCancelsAtRecordBoundary) {
  static ToyApp Toy(20);
  SearchEngine Engine(Toy, MachineModel::geForce8800Gtx());
  std::atomic<int> Committed{0};
  SweepOptions Opts;
  Opts.OnProgress = [&](const SweepProgress &) { ++Committed; };
  Opts.ShouldStop = [&] { return Committed.load() >= 5; };
  SweepReport Rep = SweepDriver(Engine, Opts).run(Engine.planExhaustive());
  EXPECT_EQ(Rep.Status, SweepStatus::Interrupted);
  // Stopped at the next record boundary: far fewer than the 100 planned
  // measurements were committed.
  EXPECT_GE(Committed.load(), 5);
  EXPECT_LT(Committed.load(), 100);
}

//===--- The one request path --------------------------------------------------//

/// Runs \p Req through runRequest with \p Inject armed the way
/// `tune search --inject` arms it, and returns the journal's header line.
std::string requestHeaderLine(const char *Name, const TuneRequest &Req,
                              const std::string &Inject) {
  std::unique_ptr<TunableApp> App = makeServeApp(Req.App);
  FaultPlan Faults;
  if (!Inject.empty()) {
    Expected<FaultPlan> Parsed = parseFaultPlan(Inject);
    EXPECT_TRUE(Parsed.ok()) << Parsed.diag().Message;
    Faults = Parsed.takeValue();
  }
  std::unique_ptr<SearchEngine> Eng =
      makeServeEngine(*App, Req, std::move(Faults));
  SweepOptions Opts;
  Opts.JournalPath = tmpDir(Name);
  Opts.Jobs = 2;
  SweepReport Rep = runRequest(*App, *Eng, Req, Opts, Inject);
  EXPECT_EQ(Rep.Status, SweepStatus::Completed) << Rep.Error.Message;
  std::string Bytes = slurp(Opts.JournalPath);
  return Bytes.substr(0, Bytes.find('\n'));
}

// The literals are `tune search --journal` header lines for the same
// flags, so the CLI, serve and fleet agree with journals already on disk.
// The extra field is the --inject text, then |fastbw, then |lint: for a
// plan "the gate quarantined something", for an adaptive search "the gate
// is armed".
TEST(RequestPathTest, PlanHeadersMatchTuneSearch) {
  TuneRequest Req;
  Req.App = "matmul";
  Req.Strategy = "exhaustive";
  Req.Lint = true;
  EXPECT_EQ(requestHeaderLine("hdr_inject_lint", Req, "lint@5,lint@17"),
            "{\"g80journal\":1,\"crc\":\"05d30503d3cfdc1e\",\"hdr\":{"
            "\"app\":\"matmul\",\"machine\":\"GeForce 8800 GTX\","
            "\"strategy\":\"exhaustive\",\"seed\":1,\"budget\":16,"
            "\"raw\":96,\"space\":\"small\","
            "\"extra\":\"lint@5,lint@17|lint\"}}");
  // The gate armed but nothing quarantined: no |lint.
  EXPECT_EQ(requestHeaderLine("hdr_clean_lint", Req, ""),
            "{\"g80journal\":1,\"crc\":\"e6594ff7ae4bcfa6\",\"hdr\":{"
            "\"app\":\"matmul\",\"machine\":\"GeForce 8800 GTX\","
            "\"strategy\":\"exhaustive\",\"seed\":1,\"budget\":16,"
            "\"raw\":96,\"space\":\"small\",\"extra\":\"\"}}");

  Req = TuneRequest();
  Req.App = "sad";
  Req.FastBw = true;
  EXPECT_EQ(requestHeaderLine("hdr_fastbw", Req, ""),
            "{\"g80journal\":1,\"crc\":\"d50b36504c9b36ee\",\"hdr\":{"
            "\"app\":\"sad\",\"machine\":\"GeForce 8800 GTX\","
            "\"strategy\":\"pareto\",\"seed\":1,\"budget\":16,"
            "\"raw\":1620,\"space\":\"small\",\"extra\":\"|fastbw\"}}");
}

TEST(RequestPathTest, AdaptiveHeaderMatchesTuneSearch) {
  TuneRequest Req;
  Req.App = "matmul";
  Req.Strategy = "greedy";
  Req.Budget = 10;
  Req.Lint = true;
  EXPECT_EQ(requestHeaderLine("hdr_adaptive", Req, "crash@6"),
            "{\"g80journal\":1,\"crc\":\"0f5f034048146172\",\"hdr\":{"
            "\"app\":\"matmul\",\"machine\":\"GeForce 8800 GTX\","
            "\"strategy\":\"greedy\",\"seed\":1,\"budget\":10,"
            "\"raw\":96,\"space\":\"small\",\"extra\":\"crash@6|lint\"}}");
}

} // namespace

//===--- Daemon end to end -----------------------------------------------------//

namespace {

#ifndef _WIN32

TEST(ServeEndToEndTest, AcceptExecuteResultAndStatus) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("e2e");
  SO.TcpPort = 0;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok()) << Client.diag().Message;
  Expected<std::string> Reply = Client->submit(tinyRequest(5, true), 30);
  ASSERT_TRUE(Reply.ok()) << Reply.diag().Message;
  ASSERT_EQ(frameType(*Reply), "accepted");

  Expected<std::string> Result = Client->awaitResult(60);
  ASSERT_TRUE(Result.ok()) << Result.diag().Message;
  ASSERT_EQ(frameType(*Result), "result");
  Expected<TuneResult> Parsed = TuneResult::fromJson(*Result);
  ASSERT_TRUE(Parsed.ok());
  EXPECT_EQ(Parsed->Status, "completed");
  EXPECT_EQ(Parsed->Measured, 3u);
  EXPECT_FALSE(Parsed->Best.empty());

  Expected<ServeStatus> Status = Client->status(10);
  ASSERT_TRUE(Status.ok()) << Status.diag().Message;
  EXPECT_EQ(Status->Completed, 1u);
  EXPECT_EQ(Status->Shed, 0u);
  EXPECT_FALSE(Status->Draining);

  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
}

TEST(ServeEndToEndTest, OverloadShedsWithBackpressureFrame) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("shed");
  SO.TcpPort = 0;
  SO.QueueLimit = 1;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  // Burst faster than one executor can drain a bound-1 queue: some must
  // be accepted, some must be shed with the overloaded frame.
  unsigned Accepted = 0, Shed = 0;
  for (unsigned I = 0; I != 10; ++I) {
    Expected<std::string> Reply = Client->submit(tinyRequest(100 + I), 30);
    ASSERT_TRUE(Reply.ok());
    std::string Type = frameType(*Reply);
    if (Type == "accepted")
      ++Accepted;
    else if (Type == "overloaded")
      ++Shed;
  }
  EXPECT_GE(Accepted, 1u);
  EXPECT_GE(Shed, 1u);

  Expected<ServeStatus> Status = Client->status(10);
  ASSERT_TRUE(Status.ok());
  EXPECT_EQ(Status->Shed, Shed);

  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
  // The protocol-shutdown drain finishes every accepted job: tickets
  // minus results must be empty.
  Expected<Spool> Sp = Spool::open(SO.SpoolDir);
  ASSERT_TRUE(Sp.ok());
  auto Pending = Sp->recover();
  ASSERT_TRUE(Pending.ok());
  EXPECT_TRUE(Pending->empty());
}

TEST(ServeEndToEndTest, DeadlineExceededYieldsDurableError) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("deadline");
  SO.TcpPort = 0;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  TuneRequest Req = tinyRequest(5, /*Wait=*/true);
  Req.DeadlineSeconds = 1e-9; // Expired before the executor gets to it.
  Expected<std::string> Reply = Client->submit(Req, 30);
  ASSERT_TRUE(Reply.ok());
  ASSERT_EQ(frameType(*Reply), "accepted");
  Expected<std::string> Result = Client->awaitResult(30);
  ASSERT_TRUE(Result.ok());
  Expected<TuneResult> Parsed = TuneResult::fromJson(*Result);
  ASSERT_TRUE(Parsed.ok()) << *Result;
  EXPECT_EQ(Parsed->Status, "error");
  EXPECT_NE(Parsed->Error.find("deadline"), std::string::npos);

  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
  // A deadline failure is terminal: it must NOT recover on restart.
  Expected<Spool> Sp = Spool::open(SO.SpoolDir);
  ASSERT_TRUE(Sp.ok());
  auto Pending = Sp->recover();
  ASSERT_TRUE(Pending.ok());
  EXPECT_TRUE(Pending->empty());
}

TEST(ServeEndToEndTest, InvalidRequestsRejectedBeforeTicketing) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("invalid");
  SO.TcpPort = 0;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  TuneRequest Bad = tinyRequest(1);
  Bad.App = "no-such-app";
  Expected<std::string> Reply = Client->submit(Bad, 10);
  ASSERT_TRUE(Reply.ok());
  EXPECT_EQ(frameType(*Reply), "error");

  Bad = tinyRequest(1);
  Bad.Strategy = "hillclimb"; // Unknown strategy name.
  Reply = Client->submit(Bad, 10);
  ASSERT_TRUE(Reply.ok());
  EXPECT_EQ(frameType(*Reply), "error");

  Bad = tinyRequest(1);
  Bad.Space = "huge"; // Unknown space tier.
  Reply = Client->submit(Bad, 10);
  ASSERT_TRUE(Reply.ok());
  EXPECT_EQ(frameType(*Reply), "error");

  Expected<std::string> Unknown =
      Client->roundTrip("{\"type\":\"frobnicate\"}", 10);
  ASSERT_TRUE(Unknown.ok());
  EXPECT_EQ(frameType(*Unknown), "error");

  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
  // Nothing was ticketed: a rejected request must not recover.
  EXPECT_FALSE(
      std::filesystem::exists(SO.SpoolDir + "/req-000001.job"));
}

TEST(ServeEndToEndTest, UnservableRecoveredTicketGetsAnErrorResult) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  // A ticket admission never checked (an older build's, or edited by
  // hand) must end in a durable error, not take the daemon down.
  ServeOptions SO;
  SO.SpoolDir = tmpDir("unservable");
  SO.TcpPort = 0;
  SO.Executors = 1;
  {
    Expected<Spool> Sp = Spool::open(SO.SpoolDir);
    ASSERT_TRUE(Sp.ok());
    TuneRequest Bad = tinyRequest(1);
    Bad.Strategy = "hillclimb";
    ASSERT_TRUE(Sp->createTicket(Bad).ok());
  }
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });
  std::string ResultPath = SO.SpoolDir + "/req-000001.result";
  EXPECT_TRUE(waitFor(30, [&] {
    return std::filesystem::exists(ResultPath);
  }));
  Expected<TuneResult> Res = TuneResult::fromJson(slurp(ResultPath));
  ASSERT_TRUE(Res.ok()) << Res.diag().Message;
  EXPECT_EQ(Res->Status, "error");
  EXPECT_EQ(Res->Error, "unknown strategy 'hillclimb'");

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
}

TEST(ServeEndToEndTest, EngineRegistrySharesAcrossRequests) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("registry");
  SO.TcpPort = 0;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
    Expected<std::string> Reply =
        Client->submit(tinyRequest(Seed, true), 30);
    ASSERT_TRUE(Reply.ok());
    ASSERT_EQ(frameType(*Reply), "accepted");
    Expected<std::string> Result = Client->awaitResult(60);
    ASSERT_TRUE(Result.ok());
    ASSERT_EQ(frameType(*Result), "result");
  }
  Expected<ServeStatus> Status = Client->status(10);
  ASSERT_TRUE(Status.ok());
  // One engine built, two registry hits: the memoized evaluator is
  // shared across same-config requests.
  EXPECT_EQ(Status->CacheMisses, 1u);
  EXPECT_EQ(Status->CacheHits, 2u);
  EXPECT_GT(Status->cacheHitRate(), 0.5);

  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
}

/// Lines in /proc/self/maps, one per mapping; -1 where the file is absent.
long mappingCount() {
  std::ifstream In("/proc/self/maps");
  if (!In)
    return -1;
  long N = 0;
  for (std::string Line; std::getline(In, Line);)
    ++N;
  return N;
}

TEST(ServeEndToEndTest, FinishedSessionsAreReleased) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  if (mappingCount() < 0)
    GTEST_SKIP() << "no /proc/self/maps on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("sessions");
  SO.TcpPort = 0;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  // The fleet monitor's probe pattern: a fresh connection per status
  // round trip.  A session whose client has hung up must not keep its
  // thread stack mapped until the daemon drains.
  long Before = mappingCount();
  for (unsigned I = 0; I != 200; ++I) {
    Expected<ServeClient> Client = ServeClient::connect("", Server.port());
    ASSERT_TRUE(Client.ok()) << Client.diag().Message;
    ASSERT_TRUE(Client->status(10).ok());
  }
  EXPECT_TRUE(waitFor(10, [&] { return mappingCount() - Before < 64; }))
      << mappingCount() - Before << " more mappings after 200 sessions";

  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
}

//===--- Oversized frames, both directions ------------------------------------//

/// Raw loopback TCP connect: the only way to emit a frame prefix the
/// Socket class itself refuses to send.
int rawConnect(uint16_t Port) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

/// 4-byte big-endian prefix announcing MaxFrameBytes + 1.
std::array<unsigned char, 4> oversizedPrefix() {
  uint32_t N = Socket::MaxFrameBytes + 1;
  return {static_cast<unsigned char>(N >> 24),
          static_cast<unsigned char>(N >> 16),
          static_cast<unsigned char>(N >> 8),
          static_cast<unsigned char>(N)};
}

TEST(SocketTest, OversizedInboundPrefixDetectedWithoutReadingPayload) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  ASSERT_TRUE(L.ok());
  int Raw = rawConnect(L->port());
  ASSERT_GE(Raw, 0);
  Expected<Socket> Server = L->acceptFor(5);
  ASSERT_TRUE(Server.ok());

  // Send only the prefix: the receiver must classify it from the header
  // alone, without waiting for a megabyte that will never arrive.
  auto Prefix = oversizedPrefix();
  ASSERT_EQ(::send(Raw, Prefix.data(), Prefix.size(), 0),
            ssize_t(Prefix.size()));
  std::string Got;
  EXPECT_EQ(Server->recvFrame(5, Got), Socket::Recv::Oversized);

  // The stream is still writable: the server can answer before closing.
  EXPECT_TRUE(Server->sendFrame("bye").ok());
  ::close(Raw);
}

TEST(ServeEndToEndTest, OversizedInboundFrameGetsStructuredErrorReply) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  ServeOptions SO;
  SO.SpoolDir = tmpDir("oversized");
  SO.TcpPort = 0;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });

  int Raw = rawConnect(Server.port());
  ASSERT_GE(Raw, 0);
  auto Prefix = oversizedPrefix();
  ASSERT_EQ(::send(Raw, Prefix.data(), Prefix.size(), 0),
            ssize_t(Prefix.size()));

  // The daemon must reply with a framed structured error, then close —
  // not just drop the connection.
  unsigned char Hdr[4];
  size_t HdrGot = 0;
  while (HdrGot < 4) {
    ssize_t N = ::recv(Raw, Hdr + HdrGot, 4 - HdrGot, 0);
    ASSERT_GT(N, 0) << "daemon closed without replying";
    HdrGot += size_t(N);
  }
  uint32_t Len = (uint32_t(Hdr[0]) << 24) | (uint32_t(Hdr[1]) << 16) |
                 (uint32_t(Hdr[2]) << 8) | uint32_t(Hdr[3]);
  ASSERT_LE(Len, Socket::MaxFrameBytes);
  std::string Payload(Len, '\0');
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(Raw, &Payload[Got], Len - Got, 0);
    ASSERT_GT(N, 0);
    Got += size_t(N);
  }
  EXPECT_EQ(frameType(Payload), "error");
  EXPECT_NE(Payload.find("cap"), std::string::npos) << Payload;
  // And then the close.
  char Extra;
  EXPECT_EQ(::recv(Raw, &Extra, 1, 0), 0);
  ::close(Raw);

  Server.requestDrain();
  T.join();
}

TEST(ServeClientTest, OversizedDaemonFrameIsAClientError) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  // A hand-rolled "daemon" that answers any frame with an oversized
  // prefix — the client must fail with a diagnostic, not hang or crash.
  int Listen = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(Listen, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(Listen, reinterpret_cast<sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listen, 1), 0);
  socklen_t AddrLen = sizeof(Addr);
  ASSERT_EQ(::getsockname(Listen, reinterpret_cast<sockaddr *>(&Addr),
                          &AddrLen),
            0);
  uint16_t Port = ntohs(Addr.sin_port);

  std::thread Fake([&] {
    int Conn = ::accept(Listen, nullptr, nullptr);
    if (Conn < 0)
      return;
    char Buf[256];
    ::recv(Conn, Buf, sizeof(Buf), 0); // The client's status frame.
    auto Prefix = oversizedPrefix();
    ::send(Conn, Prefix.data(), Prefix.size(), 0);
    // Hold the connection open so the failure is the cap, not a close.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    ::close(Conn);
  });

  Expected<ServeClient> Client = ServeClient::connect("", Port);
  ASSERT_TRUE(Client.ok());
  Expected<ServeStatus> Status = Client->status(5);
  ASSERT_FALSE(Status.ok());
  EXPECT_NE(Status.diag().Message.find("cap"), std::string::npos)
      << Status.diag().Message;
  Fake.join();
  ::close(Listen);
}

//===--- Socket: resumable receive, no delayed-ACK stall ---------------------//

/// A Socket under test plus a raw descriptor writing into it, over a
/// Unix socketpair or loopback TCP: raw writes split and merge frames
/// in ways sendFrame never does.
struct RawFeed {
  const char *Transport = "";
  Socket Rx;
  int Tx = -1;

  RawFeed() = default;
  RawFeed(RawFeed &&Other) noexcept
      : Transport(Other.Transport), Rx(std::move(Other.Rx)),
        Tx(std::exchange(Other.Tx, -1)) {}
  ~RawFeed() {
    if (Tx >= 0)
      ::close(Tx);
  }

  void write(std::string_view Bytes) const {
    ASSERT_EQ(::send(Tx, Bytes.data(), Bytes.size(), 0),
              ssize_t(Bytes.size()));
  }
};

std::vector<RawFeed> rawFeeds() {
  std::vector<RawFeed> Feeds;
  int Fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds) == 0) {
    RawFeed F;
    F.Transport = "socketpair";
    F.Rx = Socket::fromFd(Fds[0]);
    F.Tx = Fds[1];
    Feeds.push_back(std::move(F));
  }
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  if (L) {
    RawFeed F;
    F.Transport = "tcp";
    F.Tx = rawConnect(L->port());
    Expected<Socket> Rx = L->acceptFor(5);
    if (F.Tx >= 0 && Rx && Rx->valid()) {
      F.Rx = Rx.takeValue();
      Feeds.push_back(std::move(F));
    }
  }
  return Feeds;
}

/// \p Payload with its 4-byte big-endian length prefix.
std::string wireFrame(std::string_view Payload) {
  uint32_t N = uint32_t(Payload.size());
  std::string Wire = {char(N >> 24), char(N >> 16), char(N >> 8), char(N)};
  Wire.append(Payload);
  return Wire;
}

/// 126 payload bytes cycling through the alphabet, so any four of them
/// misread as a length prefix announce far more than MaxFrameBytes.
std::string letterPayload() {
  std::string P;
  for (int I = 0; I != 126; ++I)
    P.push_back(char('a' + I % 26));
  return P;
}

TEST(SocketTest, TimeoutMidFrameKeepsThePartialFrame) {
  std::vector<RawFeed> Feeds = rawFeeds();
  ASSERT_EQ(Feeds.size(), 2u);
  for (RawFeed &F : Feeds) {
    SCOPED_TRACE(F.Transport);
    std::string Wire = wireFrame(letterPayload());
    // Prefix and 10 of 126 payload bytes, then a slice runs out: the
    // bytes already read must not be lost.
    F.write(std::string_view(Wire).substr(0, 14));
    std::string Got;
    EXPECT_EQ(F.Rx.recvFrame(0.05, Got), Socket::Recv::Timeout);
    F.write(std::string_view(Wire).substr(14));
    ASSERT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, letterPayload());
  }
}

TEST(SocketTest, TwoFramesInOneWriteComeOutAsTwo) {
  std::vector<RawFeed> Feeds = rawFeeds();
  ASSERT_EQ(Feeds.size(), 2u);
  for (RawFeed &F : Feeds) {
    SCOPED_TRACE(F.Transport);
    F.write(wireFrame("{\"type\":\"first\"}") + wireFrame("") +
            wireFrame(letterPayload()));
    ::close(std::exchange(F.Tx, -1));
    std::string Got;
    ASSERT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, "{\"type\":\"first\"}");
    ASSERT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, "");
    ASSERT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, letterPayload());
    // The writer closed after the last frame: a clean end, not an error.
    EXPECT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Closed);
  }
}

TEST(SocketTest, PrefixSplitAcrossWritesYieldsOneFrame) {
  std::vector<RawFeed> Feeds = rawFeeds();
  ASSERT_EQ(Feeds.size(), 2u);
  for (RawFeed &F : Feeds) {
    SCOPED_TRACE(F.Transport);
    std::string Wire = wireFrame(letterPayload());
    F.write(std::string_view(Wire).substr(0, 2));
    std::string Got;
    EXPECT_EQ(F.Rx.recvFrame(0.05, Got), Socket::Recv::Timeout);
    F.write(std::string_view(Wire).substr(2));
    ASSERT_EQ(F.Rx.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_EQ(Got, letterPayload());
    EXPECT_EQ(F.Rx.recvFrame(0.05, Got), Socket::Recv::Timeout);
  }
}

/// Median over five trials of how long \p Reader waits for the second
/// of two frames \p Writer sends 5 ms apart.  Each trial starts with a
/// request/reply exchange, which puts the reader's end into delayed-ACK
/// mode; the reader then only reads, so the first frame's ACK is held
/// back, and with Nagle's algorithm on the second frame waits for it.
double secondFrameWaitMs(Socket &Writer, Socket &Reader) {
  std::vector<double> Ms;
  std::string Got;
  for (int Trial = 0; Trial != 5; ++Trial) {
    EXPECT_TRUE(Writer.sendFrame("request").ok());
    EXPECT_EQ(Reader.recvFrame(5, Got), Socket::Recv::Frame);
    EXPECT_TRUE(Reader.sendFrame("reply").ok());
    EXPECT_EQ(Writer.recvFrame(5, Got), Socket::Recv::Frame);

    EXPECT_TRUE(Writer.sendFrame("{\"type\":\"accepted\"}").ok());
    EXPECT_EQ(Reader.recvFrame(5, Got), Socket::Recv::Frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    auto T0 = std::chrono::steady_clock::now();
    EXPECT_TRUE(Writer.sendFrame("{\"type\":\"result\"}").ok());
    EXPECT_EQ(Reader.recvFrame(5, Got), Socket::Recv::Frame);
    Ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - T0)
                     .count());
  }
  std::sort(Ms.begin(), Ms.end());
  return Ms[Ms.size() / 2];
}

TEST(SocketTest, BackToBackFramesAreNotHeldForADelayedAck) {
  if (!socketsSupported())
    GTEST_SKIP() << "no sockets on this platform";
  Expected<ListenSocket> L = ListenSocket::listenTcp(0);
  ASSERT_TRUE(L.ok());
  Expected<Socket> Client = connectTcp(L->port());
  ASSERT_TRUE(Client.ok());
  Expected<Socket> Server = L->acceptFor(5);
  ASSERT_TRUE(Server.ok() && Server->valid());
  // Delayed ACK holds an ACK for ~40 ms on Linux; with TCP_NODELAY the
  // second frame goes out at once and arrives in well under 1 ms.
  EXPECT_LT(secondFrameWaitMs(*Server, *Client), 20.0)
      << "accepted socket to client";
  EXPECT_LT(secondFrameWaitMs(*Client, *Server), 20.0)
      << "client to accepted socket";
}

//===--- Chaos: SIGKILL mid-request, restart, byte-identical results ----------//

/// Runs \p Count sequential tiny requests on a fresh in-process server
/// over \p SpoolDir and returns after all results are durable.
void runCleanServer(const std::string &SpoolDir, unsigned Count) {
  ServeOptions SO;
  SO.SpoolDir = SpoolDir;
  SO.TcpPort = 0;
  SO.Executors = 1;
  TuneServer Server(SO);
  ASSERT_TRUE(Server.start().ok());
  std::thread T([&] { Server.serve(); });
  Expected<ServeClient> Client = ServeClient::connect("", Server.port());
  ASSERT_TRUE(Client.ok());
  for (uint64_t Seed = 1; Seed <= Count; ++Seed) {
    Expected<std::string> Reply =
        Client->submit(tinyRequest(Seed, true), 30);
    ASSERT_TRUE(Reply.ok());
    ASSERT_EQ(frameType(*Reply), "accepted");
    Expected<std::string> Result = Client->awaitResult(120);
    ASSERT_TRUE(Result.ok());
    ASSERT_EQ(frameType(*Result), "result");
  }
  ASSERT_TRUE(Client->shutdown(10).ok());
  T.join();
}

TEST(ServeChaosTest, KillMidRequestRestartCompletesByteIdentical) {
  if (!socketsSupported())
    GTEST_SKIP() << "no fork/sockets on this platform";
  const unsigned Count = 3;
  std::string ChaosSpool = tmpDir("chaos");
  std::string SockPath = testing::TempDir() + "g80_serve_chaos.sock";
  std::remove(SockPath.c_str());

  // Daemon in a child process, so SIGKILL is the real thing.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    ServeOptions SO;
    SO.SpoolDir = ChaosSpool;
    SO.SocketPath = SockPath;
    SO.Executors = 1;
    TuneServer Server(SO);
    if (!Server.start().ok())
      _exit(99);
    Server.serve();
    _exit(0);
  }

  // Submit all requests fire-and-forget, then wait for the first sweep
  // to journal some records so the kill lands mid-request.
  ASSERT_TRUE(waitFor(10, [&] {
    return std::filesystem::exists(SockPath);
  }));
  {
    Expected<ServeClient> Client = ServeClient::connect(SockPath, 0);
    ASSERT_TRUE(Client.ok()) << Client.diag().Message;
    for (uint64_t Seed = 1; Seed <= Count; ++Seed) {
      Expected<std::string> Reply = Client->submit(tinyRequest(Seed), 30);
      ASSERT_TRUE(Reply.ok());
      ASSERT_EQ(frameType(*Reply), "accepted") << *Reply;
    }
  }
  std::string FirstJournal = ChaosSpool + "/req-000001.journal";
  ASSERT_TRUE(waitFor(30, [&] {
    std::error_code Ec;
    return std::filesystem::exists(FirstJournal, Ec) &&
           std::filesystem::file_size(FirstJournal, Ec) > 0;
  })) << "daemon never started journaling the first request";

  ASSERT_EQ(kill(Pid, SIGKILL), 0);
  int WStatus = 0;
  ASSERT_EQ(waitpid(Pid, &WStatus, 0), Pid);
  ASSERT_TRUE(WIFSIGNALED(WStatus));

  // Not every request may have finished — that is the point.  Restart on
  // the same spool: recovery must complete all of them.
  {
    ServeOptions SO;
    SO.SpoolDir = ChaosSpool;
    SO.TcpPort = 0;
    SO.Executors = 1;
    TuneServer Server(SO);
    ASSERT_TRUE(Server.start().ok());
    std::thread T([&] { Server.serve(); });
    ASSERT_TRUE(waitFor(120, [&] {
      for (unsigned I = 1; I <= Count; ++I) {
        char Name[32];
        std::snprintf(Name, sizeof(Name), "/req-%06u.result", I);
        if (!std::filesystem::exists(ChaosSpool + Name))
          return false;
      }
      return true;
    })) << "restart did not complete every journaled request";
    Server.requestDrain();
    T.join();
  }

  // The acceptance bar: results byte-identical to an uninterrupted run.
  std::string CleanSpool = tmpDir("chaos_clean");
  runCleanServer(CleanSpool, Count);
  for (unsigned I = 1; I <= Count; ++I) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "/req-%06u.result", I);
    std::string Chaos = slurp(ChaosSpool + Name);
    std::string Clean = slurp(CleanSpool + Name);
    ASSERT_FALSE(Chaos.empty());
    EXPECT_EQ(Chaos, Clean) << "result " << Name
                            << " diverged after kill+resume";
  }
}

#endif // !_WIN32

} // namespace
