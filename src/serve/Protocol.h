//===- serve/Protocol.h - Serve daemon wire protocol ----------------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve daemon's message vocabulary.  One JSON object per frame
/// (support/Socket.h), encoded and parsed with support/Json.h, the module
/// the journal uses too — no external JSON dependency, and the durable
/// result format is deliberately deterministic: two runs of the same request
/// (uninterrupted, or killed and recovered any number of times) produce
/// byte-identical result files, which is what the chaos test asserts.
///
/// Client -> server frames (by "type"):
///   tune      one tuning request (app/machine/strategy/seed/budget/
///             fastbw/lint/deadline; "wait" streams progress + result
///             back on this connection)
///   shard     one fleet shard: candidates [begin,end) of a plan the
///             worker re-derives deterministically and cross-checks by
///             fingerprint (serve/Shard.h)
///   status    queue depth, active jobs, cache hit rate, uptime, ...
///   health    liveness probe (subset of status)
///   shutdown  graceful drain: finish running jobs, then exit
///
/// Server -> client frames:
///   accepted      {"type":"accepted","id":"req-000001"}
///   overloaded    admission queue full — the 429: try again later
///   error         malformed/unsupported request, or draining
///   progress      {"type":"progress","id":...,"done":N,"total":N,...}
///   result        terminal per-request outcome (also the durable spool
///                 record)
///   shard_result  the shard's journal record payloads, in candidate
///                 order — what the coordinator applies to its plan's
///                 slots for its SweepDriver to journal
///   status        the stats snapshot
///   ok            acknowledgement (shutdown)
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SERVE_PROTOCOL_H
#define G80TUNE_SERVE_PROTOCOL_H

#include "support/Status.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace g80 {

/// One tuning request: which app/space to tune and how.  Also the ticket
/// format spooled to disk, so a killed daemon can re-admit it on restart.
struct TuneRequest {
  std::string App;               ///< matmul | cp | sad | mri.
  std::string Machine = "gtx";   ///< gtx | nextgen.
  std::string Strategy = "pareto"; ///< Any strategyName(); adaptive ones
                                   ///< (greedy/anneal/genetic) are whole-
                                   ///< job only — shards refuse them.
  std::string Space = "small";   ///< small | large (config-space tier).
  uint64_t Seed = 1;
  uint64_t Budget = 16;
  bool FastBw = false;
  bool Lint = false;
  /// Wall-clock budget from admission; 0 = none.  An expired request is
  /// cancelled at the next record boundary and answered with a
  /// deadline-exceeded result.
  double DeadlineSeconds = 0;
  /// Stream progress frames and the final result on this connection.
  /// Without it the reply is just "accepted" — results always land in
  /// the spool either way (fire-and-forget durability).
  bool Wait = false;

  std::string toJson() const;
  static Expected<TuneRequest> fromJson(std::string_view Json);
};

/// A terminal request outcome — the wire "result" frame and the durable
/// .result spool file.  Every field is deterministic for a given request:
/// no timestamps, no retry/resume counts, so recovered runs are
/// byte-identical to uninterrupted ones.
struct TuneResult {
  std::string Id;
  TuneRequest Req;
  std::string Status;  ///< "completed" | "error".
  std::string Error;   ///< Failure detail when Status == "error".
  uint64_t Valid = 0;
  uint64_t Measured = 0;
  uint64_t Quarantined = 0;
  std::string Best;    ///< describe() of the best config; empty if none.
  double BestTime = 0;
  double TotalMeasuredSeconds = 0;

  std::string toJson() const;
  static Expected<TuneResult> fromJson(std::string_view Json);
};

/// One fleet shard assignment: candidates [Begin, End) of the sweep plan
/// the request's tune fields deterministically re-derive.  PlanFp is the
/// coordinator's fingerprint of that plan (serve/Shard.h); a worker whose
/// re-derived plan disagrees refuses the shard, which catches version or
/// configuration skew before it can corrupt the fleet's journal.
struct ShardRequest {
  TuneRequest Tune;        ///< Wait/DeadlineSeconds are ignored.
  uint64_t PlanFp = 0;
  uint64_t ShardIndex = 0;
  uint64_t Begin = 0;      ///< First candidate position (inclusive).
  uint64_t End = 0;        ///< One past the last candidate position.

  std::string toJson() const;
  static Expected<ShardRequest> fromJson(std::string_view Json);
};

/// A shard's terminal outcome: on success, exactly End-Begin journal
/// record payloads in candidate order, byte-identical to what a local
/// single-daemon sweep would have appended for those candidates.
struct ShardResult {
  uint64_t ShardIndex = 0;
  uint64_t PlanFp = 0;
  uint64_t Begin = 0;
  uint64_t End = 0;
  std::string Status;      ///< "completed" | "error".
  std::string Error;       ///< Failure detail when Status == "error".
  std::vector<std::string> Records;

  bool completed() const { return Status == "completed"; }

  std::string toJson() const;
  static Expected<ShardResult> fromJson(std::string_view Json);
};

/// The status/health snapshot frame.
struct ServeStatus {
  uint64_t QueueDepth = 0;
  uint64_t QueueLimit = 0;
  uint64_t Active = 0;
  uint64_t Completed = 0;
  uint64_t Shed = 0;
  uint64_t Recovered = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t ShardsServed = 0;
  double UptimeSeconds = 0;
  bool Draining = false;

  /// Engine-registry hit rate in [0, 1]; 0 when nothing was requested.
  double cacheHitRate() const {
    uint64_t Total = CacheHits + CacheMisses;
    return Total == 0 ? 0.0 : double(CacheHits) / double(Total);
  }

  std::string toJson() const;
  static Expected<ServeStatus> fromJson(std::string_view Json);
};

/// Extracts the "type" discriminator from a request/response frame.
/// Empty string when absent.
std::string frameType(std::string_view Json);

/// Canned small frames.
std::string acceptedFrame(const std::string &Id);
std::string overloadedFrame(uint64_t QueueDepth, uint64_t QueueLimit);
std::string errorFrame(const std::string &Message);
std::string progressFrame(const std::string &Id, uint64_t Done,
                          uint64_t Total, uint64_t Quarantined);
std::string okFrame();

} // namespace g80

#endif // G80TUNE_SERVE_PROTOCOL_H
