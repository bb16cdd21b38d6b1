//===- serve/Server.cpp ---------------------------------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "core/Search.h"
#include "core/SweepDriver.h"
#include "serve/Shard.h"
#include "support/Trace.h"

#include <filesystem>
#include <iostream>
#include <utility>

using namespace g80;

namespace {

void finishJob(ServeJob &Job, std::string Frame) {
  {
    std::lock_guard<std::mutex> L(Job.M);
    Job.Finished = true;
    Job.ResultJson = std::move(Frame);
  }
  Job.Cv.notify_all();
}

} // namespace

//===--- TuneServer ------------------------------------------------------------//

struct TuneServer::Engine {
  std::unique_ptr<TunableApp> App;
  std::unique_ptr<SearchEngine> Eng;
};

TuneServer::TuneServer(ServeOptions Opts)
    : Opts(std::move(Opts)),
      Queue(std::max<size_t>(1, this->Opts.QueueLimit)) {}

TuneServer::~TuneServer() {
  requestDrain();
  Queue.close();
  for (std::thread &T : Executors)
    if (T.joinable())
      T.join();
  for (Session &S : Sessions)
    if (S.Thread.joinable())
      S.Thread.join();
}

Expected<Unit> TuneServer::start() {
  StartedAt = std::chrono::steady_clock::now();

  Expected<Spool> Sp = Spool::open(Opts.SpoolDir);
  if (!Sp)
    return Sp.takeDiag();
  Requests = Sp.takeValue();

  // Re-admit everything accepted before a crash: each recovered job's
  // journal resumes through the normal fingerprint-checked path, so
  // already-measured configurations are replayed, not re-run.  Tickets
  // torn by the crash are quarantined (renamed .bad), logged, and
  // skipped — they must not block recovery of the healthy ones.
  std::vector<std::string> Quarantined;
  Expected<std::vector<std::pair<std::string, TuneRequest>>> Pending =
      Requests.recover(&Quarantined);
  if (!Pending)
    return Pending.takeDiag();
  for (const std::string &Note : Quarantined) {
    std::cerr << "serve: " << Note << "\n";
    traceCount("serve.quarantined_tickets");
  }
  for (auto &P : *Pending) {
    auto Job = std::make_shared<ServeJob>();
    Job->Id = P.first;
    Job->Req = std::move(P.second);
    Job->AdmittedAt = StartedAt; // Deadlines restart with the daemon.
    Queue.push(Job);
    Recovered.fetch_add(1, std::memory_order_relaxed);
    traceCount("serve.recovered");
  }

  Expected<ListenSocket> L = Opts.SocketPath.empty()
                                 ? ListenSocket::listenTcp(Opts.TcpPort)
                                 : ListenSocket::listenUnix(Opts.SocketPath);
  if (!L)
    return L.takeDiag();
  Listener = L.takeValue();

  unsigned N = std::max(1u, Opts.Executors);
  Executors.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Executors.emplace_back(&TuneServer::executorLoop, this);
  return Unit{};
}

ServeExit TuneServer::serve() {
  while (!Draining.load(std::memory_order_acquire) &&
         !sweepInterruptRequested()) {
    // Sessions whose clients hung up are joined within an accept slice.
    std::erase_if(Sessions, [](Session &S) {
      if (!S.Done.load(std::memory_order_acquire))
        return false;
      S.Thread.join();
      return true;
    });
    Expected<Socket> Conn = Listener.acceptFor(0.1);
    if (!Conn)
      break; // Hard accept error: drain what was admitted and exit.
    if (!Conn->valid())
      continue; // Timeout slice; re-check the shutdown conditions.
    TraceSpan Span("serve.accept");
    traceCount("serve.connections");
    Session &S = Sessions.emplace_back();
    S.Thread = std::thread([this, &S, C = std::move(*Conn)]() mutable {
      sessionLoop(std::move(C));
      S.Done.store(true, std::memory_order_release);
    });
  }

  // Drain: stop admitting (listener down, queue closed), let executors
  // finish (protocol shutdown) or checkpoint (signal) what was admitted,
  // then let every session observe its job's terminal state and exit.
  Draining.store(true, std::memory_order_release);
  Listener.close();
  Queue.close();
  for (std::thread &T : Executors)
    T.join();
  Executors.clear();
  for (Session &S : Sessions)
    S.Thread.join();
  Sessions.clear();
  return sweepForceQuitRequested() ? ServeExit::Forced : ServeExit::Drained;
}

ServeStatus TuneServer::status() const {
  ServeStatus S;
  S.QueueDepth = Queue.depth();
  S.QueueLimit = Queue.limit();
  S.Active = Active.load(std::memory_order_relaxed);
  S.Completed = Completed.load(std::memory_order_relaxed);
  S.Shed = Shed.load(std::memory_order_relaxed);
  S.Recovered = Recovered.load(std::memory_order_relaxed);
  S.CacheHits = EngineHits.load(std::memory_order_relaxed);
  S.CacheMisses = EngineMisses.load(std::memory_order_relaxed);
  S.ShardsServed = ShardsServed.load(std::memory_order_relaxed);
  S.UptimeSeconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - StartedAt)
                        .count();
  S.Draining = Draining.load(std::memory_order_relaxed);
  return S;
}

std::shared_ptr<TuneServer::Engine>
TuneServer::engineFor(const TuneRequest &Req, std::string &Error) {
  // Recovered tickets were never admitted by this build: check them too.
  if (!validateServeRequest(Req, Error))
    return nullptr;
  std::string Key = Req.App + "|" + Req.Machine + "|" + Req.Space +
                    (Req.FastBw ? "|fastbw" : "") +
                    (Req.Lint ? "|lint" : "");
  std::lock_guard<std::mutex> L(EngineM);
  auto It = EngineRegistry.find(Key);
  if (It != EngineRegistry.end()) {
    EngineHits.fetch_add(1, std::memory_order_relaxed);
    traceCount("serve.engine_hits");
    return It->second;
  }
  EngineMisses.fetch_add(1, std::memory_order_relaxed);
  traceCount("serve.engine_misses");
  auto E = std::make_shared<Engine>();
  SpaceTier Tier = SpaceTier::Small;
  (void)parseSpaceTier(Req.Space, Tier); // Validated above.
  E->App = makeServeApp(Req.App, Tier);
  E->Eng = makeServeEngine(*E->App, Req);
  EngineRegistry[Key] = E;
  return E;
}

std::string TuneServer::admit(const TuneRequest &Req,
                              std::shared_ptr<ServeJob> &Out) {
  TraceSpan Span("serve.admit");
  if (Draining.load(std::memory_order_acquire) || sweepInterruptRequested())
    return errorFrame("daemon is draining; not accepting new requests");
  std::string Error;
  if (!validateServeRequest(Req, Error))
    return errorFrame(Error);

  // AdmitM serializes the capacity check with ticket creation, so the
  // ticket for an admitted request always lands in the queue: depth can
  // only shrink (executors pop) while we hold the lock.
  std::lock_guard<std::mutex> L(AdmitM);
  if (Queue.depth() >= Queue.limit()) {
    Shed.fetch_add(1, std::memory_order_relaxed);
    traceCount("serve.shed");
    return overloadedFrame(Queue.depth(), Queue.limit());
  }
  Expected<std::string> Id = Requests.createTicket(Req);
  if (!Id)
    return errorFrame("spool failure: " + Id.diag().Message);

  auto Job = std::make_shared<ServeJob>();
  Job->Id = *Id;
  Job->Req = Req;
  Job->AdmittedAt = std::chrono::steady_clock::now();
  if (!Queue.tryPush(Job)) {
    // Drain began between the check above and here: un-spool the ticket
    // (the client is getting an error, not an "accepted").
    std::error_code Ec;
    std::filesystem::remove(Requests.ticketPath(*Id), Ec);
    return errorFrame("daemon is draining; not accepting new requests");
  }
  traceCount("serve.admitted");
  Out = Job;
  return acceptedFrame(*Id);
}

void TuneServer::runJob(const std::shared_ptr<ServeJob> &Job) {
  TraceSpan Span("serve.execute");
  const TuneRequest &Req = Job->Req;

  auto Expired = [Job, Deadline = Req.DeadlineSeconds] {
    return Deadline > 0 &&
           std::chrono::steady_clock::now() - Job->AdmittedAt >
               std::chrono::duration<double>(Deadline);
  };

  // Terminal error outcomes are durable: without a result file the
  // ticket would recover (and fail identically) on every restart.
  auto FailDurable = [&](const std::string &Why) {
    TuneResult Res;
    Res.Id = Job->Id;
    Res.Req = Req;
    Res.Status = "error";
    Res.Error = Why;
    std::string Json = Res.toJson();
    // Best effort: even if the spool write fails the client still hears
    // the error; the ticket then recovers (and fails again) on restart.
    (void)Requests.writeResult(Job->Id, Json);
    Completed.fetch_add(1, std::memory_order_relaxed);
    finishJob(*Job, Json);
  };

  std::string Error;
  std::shared_ptr<Engine> E = engineFor(Req, Error);
  if (!E)
    return FailDurable(Error);
  if (Expired())
    return FailDurable("deadline exceeded before execution");

  SweepOptions SOpts;
  SOpts.JournalPath = Requests.journalPath(Job->Id);
  SOpts.Resume = std::filesystem::exists(SOpts.JournalPath);
  SOpts.Jobs = Opts.Jobs;
  SOpts.OnProgress = [Job](const SweepProgress &P) {
    Job->Done.store(P.Done, std::memory_order_relaxed);
    Job->Total.store(P.Total, std::memory_order_relaxed);
    Job->Quarantined.store(P.Quarantined, std::memory_order_relaxed);
  };
  // Deadlines and force-quit cancel at record boundaries; a plain
  // graceful drain reaches the driver through the global interrupt flag
  // instead, checkpointing the sweep resumably.
  SOpts.ShouldStop = [&Expired] {
    return Expired() || sweepForceQuitRequested();
  };
  SweepReport Rep = runRequest(*E->App, *E->Eng, Req, std::move(SOpts));

  if (Rep.Status == SweepStatus::Error)
    return FailDurable(Rep.Error.Message);
  if (Rep.Status == SweepStatus::Interrupted) {
    if (Expired())
      return FailDurable("deadline exceeded");
    // Checkpointed by a drain: no durable result — the ticket plus the
    // journal recover this job on the next start.
    traceCount("serve.checkpointed");
    finishJob(*Job,
              errorFrame("daemon draining; request checkpointed and will "
                         "resume on restart"));
    return;
  }

  TraceSpan CommitSpan("serve.commit");
  const SearchOutcome &Out = Rep.Outcome;
  TuneResult Res;
  Res.Id = Job->Id;
  Res.Req = Req;
  Res.Status = "completed";
  Res.Valid = Out.ValidCount;
  Res.Measured = Out.Candidates.size();
  Res.Quarantined = Out.Quarantined.size();
  if (Out.hasBest()) {
    Res.Best = E->App->space().describe(Out.Evals[Out.BestIndex].Point);
    Res.BestTime = Out.BestTime;
  }
  Res.TotalMeasuredSeconds = Out.TotalMeasuredSeconds;
  std::string Json = Res.toJson();
  Expected<Unit> W = Requests.writeResult(Job->Id, Json);
  if (!W)
    return FailDurable("cannot write result: " + W.diag().Message);
  Completed.fetch_add(1, std::memory_order_relaxed);
  traceCount("serve.completed");
  finishJob(*Job, Json);
}

std::string TuneServer::runShard(const ShardRequest &SReq) {
  TraceSpan Span("serve.shard");
  if (Draining.load(std::memory_order_acquire) || sweepInterruptRequested())
    return errorFrame("daemon is draining; not accepting new requests");
  std::string Error;
  std::shared_ptr<Engine> E = engineFor(SReq.Tune, Error);
  if (!E)
    return errorFrame(Error);

  // Shards run synchronously on the session thread: the coordinator owns
  // scheduling and dispatches at most one shard per connection, so the
  // admission queue (sized for fire-and-forget tune requests) is not
  // involved.  The per-shard journal makes a re-dispatched shard resume
  // rather than re-measure.
  Active.fetch_add(1, std::memory_order_relaxed);
  ShardResult Res = executeShard(
      *E->Eng, *E->App, SReq, Requests.dir(), Opts.Jobs, [this] {
        return Draining.load(std::memory_order_acquire) ||
               sweepInterruptRequested() || sweepForceQuitRequested();
      });
  Active.fetch_sub(1, std::memory_order_relaxed);
  if (Res.completed()) {
    ShardsServed.fetch_add(1, std::memory_order_relaxed);
    traceCount("serve.shards");
  }
  return Res.toJson();
}

void TuneServer::executorLoop() {
  for (;;) {
    if (sweepForceQuitRequested())
      return;
    std::optional<std::shared_ptr<ServeJob>> Job = Queue.pop(0.05);
    if (!Job) {
      if (Queue.closed())
        return; // Closed and drained.
      continue;
    }
    if (sweepInterruptRequested()) {
      // Signal-initiated drain: leave queued-but-unstarted jobs spooled
      // for restart recovery instead of starting doomed sweeps.
      finishJob(**Job, errorFrame("daemon draining; request will resume "
                                  "on restart"));
      continue;
    }
    Active.fetch_add(1, std::memory_order_relaxed);
    runJob(*Job);
    Active.fetch_sub(1, std::memory_order_relaxed);
  }
}

void TuneServer::sessionLoop(Socket Conn) {
  std::string Payload;
  for (;;) {
    if (sweepForceQuitRequested())
      return;
    Socket::Recv R = Conn.recvFrame(0.25, Payload);
    if (R == Socket::Recv::Closed || R == Socket::Recv::Error)
      return;
    if (R == Socket::Recv::Oversized) {
      // The peer announced a frame beyond the cap.  Its payload was
      // never read, so the stream is still writable: tell it why before
      // hanging up instead of silently dropping the session.
      (void)Conn.sendFrame(errorFrame(
          "frame exceeds the " + std::to_string(Socket::MaxFrameBytes) +
          "-byte cap"));
      return;
    }
    if (R == Socket::Recv::Timeout) {
      if (Draining.load(std::memory_order_acquire) ||
          sweepInterruptRequested())
        return; // Idle connection during a drain: hang up.
      continue;
    }

    std::string Type = frameType(Payload);
    if (Type == "tune") {
      Expected<TuneRequest> Req = TuneRequest::fromJson(Payload);
      if (!Req) {
        if (!Conn.sendFrame(errorFrame(Req.diag().Message)))
          return;
        continue;
      }
      std::shared_ptr<ServeJob> Job;
      std::string Reply = admit(*Req, Job);
      if (!Conn.sendFrame(Reply))
        return;
      if (!Job || !Req->Wait)
        continue;
      // Wait mode: stream progress until the job's terminal frame.  The
      // job itself is fire-and-forget durable — a send failure here only
      // ends the session, never the sweep.
      uint64_t LastDone = ~uint64_t(0);
      for (;;) {
        std::string Result = Job->waitResult(0.1);
        if (!Result.empty()) {
          if (!Conn.sendFrame(Result))
            return;
          break;
        }
        if (sweepForceQuitRequested())
          return;
        uint64_t Done = Job->Done.load(std::memory_order_relaxed);
        if (Done != LastDone) {
          LastDone = Done;
          if (!Conn.sendFrame(progressFrame(
                  Job->Id, Done,
                  Job->Total.load(std::memory_order_relaxed),
                  Job->Quarantined.load(std::memory_order_relaxed))))
            return;
        }
      }
    } else if (Type == "shard") {
      Expected<ShardRequest> SReq = ShardRequest::fromJson(Payload);
      if (!Conn.sendFrame(SReq ? runShard(*SReq)
                               : errorFrame(SReq.diag().Message)))
        return;
    } else if (Type == "status" || Type == "health") {
      if (!Conn.sendFrame(status().toJson()))
        return;
    } else if (Type == "shutdown") {
      (void)Conn.sendFrame(okFrame()); // Draining anyway if this fails.
      requestDrain();
      return;
    } else {
      if (!Conn.sendFrame(errorFrame("unknown request type '" + Type +
                                     "'")))
        return;
    }
  }
}
