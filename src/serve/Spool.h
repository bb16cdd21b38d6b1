//===- serve/Spool.h - Durable per-request spool directory ----------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's crash-safety substrate: one directory holding, per
/// request id (req-000001, req-000002, ...):
///
///   <id>.job      the admission ticket (TuneRequest JSON) — written
///                 durably *before* the client hears "accepted"
///   <id>.journal  the request's SweepDriver write-ahead journal
///   <id>.result   the terminal TuneResult JSON — written durably via
///                 tmp-file + rename, so it either exists completely or
///                 not at all
///
/// The recovery invariant follows directly: after any number of SIGKILLs,
/// `tickets minus results` is exactly the set of accepted-but-unfinished
/// requests.  On restart the daemon re-admits them; each one's journal
/// resumes via the normal fingerprint-checked --resume path, so work
/// completed before the kill is never re-measured and the eventual
/// result file is byte-identical to an uninterrupted run's.
///
/// Tickets and results are written with support/Journal's
/// writeFileDurable: fsync the file, then fsync the parent directory so
/// the *name* survives too, and fail when either sync fails.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SERVE_SPOOL_H
#define G80TUNE_SERVE_SPOOL_H

#include "serve/Protocol.h"
#include "support/Status.h"

#include <string>
#include <utility>
#include <vector>

namespace g80 {

class Spool {
public:
  /// Opens (creating if needed) the spool directory and seeds the id
  /// counter past any existing tickets.
  static Expected<Spool> open(const std::string &Dir);

  Spool() = default;

  const std::string &dir() const { return Dir; }

  /// Durably writes the admission ticket for \p Req and returns the new
  /// request id.  Once this succeeds the request is owed a result.
  Expected<std::string> createTicket(const TuneRequest &Req);

  /// Durably writes the terminal result for \p Id (tmp + rename + fsync).
  Expected<Unit> writeResult(const std::string &Id,
                             const std::string &ResultJson);

  /// Accepted-but-unfinished requests (ticket without result), ordered by
  /// id — the restart-recovery work list.  A truncated or corrupt ticket
  /// (a crash can tear the write on filesystems without atomic rename
  /// durability) is quarantined — renamed to `<id>.job.bad` — and
  /// reported via \p Quarantined rather than aborting recovery of the
  /// remaining tickets.
  Expected<std::vector<std::pair<std::string, TuneRequest>>>
  recover(std::vector<std::string> *Quarantined = nullptr) const;

  std::string ticketPath(const std::string &Id) const {
    return Dir + "/" + Id + ".job";
  }
  std::string journalPath(const std::string &Id) const {
    return Dir + "/" + Id + ".journal";
  }
  std::string resultPath(const std::string &Id) const {
    return Dir + "/" + Id + ".result";
  }
  /// Per-shard journal used when serving fleet shard requests; keyed by
  /// the plan fingerprint and shard index so re-dispatched shards resume
  /// instead of re-measuring.
  std::string shardJournalPath(uint64_t PlanFp, uint64_t ShardIndex) const;

private:
  std::string Dir;
  uint64_t NextId = 1;
};

} // namespace g80

#endif // G80TUNE_SERVE_SPOOL_H
