//===- serve/Server.h - The tune serve daemon -----------------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-tolerant autotuning daemon behind `tune serve`.  One
/// TuneServer owns:
///
///  - a listener (Unix-domain or loopback TCP, support/Socket.h) and one
///    short-lived session thread per connection, released when its
///    client hangs up;
///  - a bounded admission queue (RequestQueue.h) — full queue means the
///    session answers "overloaded" instead of queueing unboundedly;
///  - a pool of executor threads, each draining the queue through the
///    durable SweepDriver with a per-request spool journal;
///  - an engine registry sharing one SearchEngine (and its metric/kernel
///    memo caches) across every request for the same
///    app|machine|fastbw|lint combination;
///  - the spool (Spool.h), which makes every accepted request durable
///    before the client hears "accepted" and every result atomic.
///
/// Shutdown semantics (see DESIGN.md §12):
///  - a protocol "shutdown" frame finishes running AND queued jobs, then
///    exits (ServeExit::Drained) — the clean-run path;
///  - the first SIGINT/SIGTERM stops admitting and *checkpoints* running
///    jobs at their next record boundary (journals flushed, no results
///    written; they recover on restart), then exits Drained;
///  - a second signal is a force-quit: sessions hang up without waiting
///    for their jobs' terminal frames and the daemon exits
///    ServeExit::Forced as fast as the record in flight allows.  SIGKILL
///    needs no handling at all — that is what the spool protocol is for.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SERVE_SERVER_H
#define G80TUNE_SERVE_SERVER_H

#include "serve/Protocol.h"
#include "serve/RequestQueue.h"
#include "serve/Spool.h"
#include "support/Socket.h"
#include "support/Status.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace g80 {

class SearchEngine;
class TunableApp;

/// How the daemon listens and executes.
struct ServeOptions {
  /// Unix-domain socket path; empty selects TCP.
  std::string SocketPath;
  /// Loopback TCP port when SocketPath is empty (0 = ephemeral; the
  /// bound port is reported by port()).
  uint16_t TcpPort = 0;
  /// Spool directory for tickets, journals, and results.
  std::string SpoolDir;
  /// Admission-queue bound: requests beyond it are shed.
  size_t QueueLimit = 16;
  /// Executor threads (concurrent sweeps).
  unsigned Executors = 2;
  /// In-process measurement threads per sweep (SweepOptions::Jobs).
  unsigned Jobs = 1;
};

/// How serve() ended.
enum class ServeExit : uint8_t {
  Drained, ///< Graceful: admitted work finished or checkpointed.
  Forced,  ///< Second signal: exited with work still checkpointable.
  Error,   ///< Setup failure (bind, spool); see the returned diagnostic.
};

/// One admitted request's in-memory state, shared between the executor
/// running it and any session streaming its progress.
struct ServeJob {
  std::string Id;
  TuneRequest Req;
  std::chrono::steady_clock::time_point AdmittedAt;

  std::atomic<uint64_t> Done{0};
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> Quarantined{0};

  std::mutex M;
  std::condition_variable Cv;
  bool Finished = false;    ///< Guarded by M.
  std::string ResultJson;   ///< Guarded by M; set when Finished.

  /// Blocks until the job finishes or \p TimeoutSeconds passes; returns
  /// the result JSON or empty on timeout.
  std::string waitResult(double TimeoutSeconds) {
    std::unique_lock<std::mutex> L(M);
    Cv.wait_for(L, std::chrono::duration<double>(TimeoutSeconds),
                [this] { return Finished; });
    return Finished ? ResultJson : std::string();
  }
};

class TuneServer {
public:
  explicit TuneServer(ServeOptions Opts);
  ~TuneServer();
  TuneServer(const TuneServer &) = delete;
  TuneServer &operator=(const TuneServer &) = delete;

  /// Binds the listener, opens the spool, and re-admits every recovered
  /// (accepted-but-unfinished) request.  Must succeed before serve().
  Expected<Unit> start();

  /// The bound TCP port after start() (TCP mode only).
  uint16_t port() const { return Listener.port(); }

  /// Runs the accept loop until a shutdown request or signal; returns
  /// how it ended.  start() must have succeeded.
  ServeExit serve();

  /// Asks the accept loop to drain and exit (what a protocol "shutdown"
  /// frame calls; also usable from tests).
  void requestDrain() { Draining.store(true, std::memory_order_release); }

  /// A stats snapshot for status/health frames.
  ServeStatus status() const;

private:
  struct Engine; ///< Registry entry: app + engine, keyed by config.

  void sessionLoop(Socket Conn);
  void executorLoop();
  void runJob(const std::shared_ptr<ServeJob> &Job);
  std::shared_ptr<Engine> engineFor(const TuneRequest &Req,
                                    std::string &Error);
  /// Handles one parsed "tune" frame; returns the immediate reply and,
  /// when admitted, the job for wait-mode streaming.
  std::string admit(const TuneRequest &Req, std::shared_ptr<ServeJob> &Out);
  /// Handles one parsed "shard" frame synchronously on the session
  /// thread (fleet coordinators own shard scheduling); returns the
  /// shard_result or error reply.
  std::string runShard(const ShardRequest &Req);

  ServeOptions Opts;
  ListenSocket Listener;
  Spool Requests;
  RequestQueue<std::shared_ptr<ServeJob>> Queue;
  std::vector<std::thread> Executors;
  /// One connection's thread.  Done is its last act, so the accept loop
  /// can join a finished session and release its stack before drain.
  struct Session {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Session> Sessions; ///< Nodes stay put: threads hold &Done.
  std::chrono::steady_clock::time_point StartedAt;

  std::atomic<bool> Draining{false};
  std::atomic<uint64_t> Active{0};
  std::atomic<uint64_t> Completed{0};
  std::atomic<uint64_t> Shed{0};
  std::atomic<uint64_t> Recovered{0};
  std::atomic<uint64_t> EngineHits{0};
  std::atomic<uint64_t> EngineMisses{0};
  std::atomic<uint64_t> ShardsServed{0};

  std::mutex AdmitM;   ///< Serializes ticket creation + enqueue.
  std::mutex EngineM;  ///< Guards the engine registry.
  std::map<std::string, std::shared_ptr<Engine>> EngineRegistry;
};

} // namespace g80

#endif // G80TUNE_SERVE_SERVER_H
