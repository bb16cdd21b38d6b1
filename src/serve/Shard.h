//===- serve/Shard.h - One request path for every front end ---------------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one request path: `tune search`, the serve executor, a worker
/// serving "shard" frames, and the fleet coordinator (planning the
/// partition, and running shards in-process when every worker is gone)
/// derive *exactly* the same engine, sweep plan, journal header and plan
/// fingerprint from a TuneRequest here.  That is what makes a request's
/// journal the same bytes on every front end, shards idempotent, and the
/// merged journal byte-identical to a single-daemon run.
///
/// The plan fingerprint hashes the journal header together with the
/// ordered candidate flat indices, so any skew in app space, machine
/// model, pruning, or sampling between coordinator and worker is caught
/// as a refused shard instead of a silently corrupted merge.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_SERVE_SHARD_H
#define G80TUNE_SERVE_SHARD_H

#include "core/Search.h"
#include "core/SearchStrategy.h"
#include "serve/Protocol.h"
#include "support/Journal.h"

#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace g80 {

/// The daemon's app registry: bench-sized problems only, so every worker
/// in a fleet tunes the same space.  Null for unknown names.
std::unique_ptr<TunableApp> makeServeApp(const std::string &Name,
                                         SpaceTier Tier = SpaceTier::Small);

/// gtx (default) | nextgen; any other name is the GTX.
MachineModel makeServeMachine(const std::string &Name);

/// Whether \p Name is gtx or nextgen.
bool isServeMachine(std::string_view Name);

/// Whether \p Req names a servable app/machine/strategy/space; on failure
/// \p Error says which field is wrong.
bool validateServeRequest(const TuneRequest &Req, std::string &Error);

/// The engine \p Req asks for over \p App: its machine, fast path and
/// lint gate.  \p Faults and \p SimO's engine choice come from `tune
/// search --inject` and `--sim-engine`; the wire carries neither.
std::unique_ptr<SearchEngine> makeServeEngine(const TunableApp &App,
                                              const TuneRequest &Req,
                                              FaultPlan Faults = {},
                                              SimOptions SimO = {});

/// Whether \p Req's strategy has an up-front candidate plan.  Adaptive
/// strategies (greedy/anneal/genetic) run as whole jobs through
/// runRequest and can never be sharded.
bool serveStrategyIsPlannable(const TuneRequest &Req);

/// Re-derives the deterministic plan \p Req names.  Identical for any
/// \p Jobs value (parallelism only speeds up the static phase).  Callers
/// must validate the request first; non-plannable strategies fall back to
/// pareto.
SweepPlan planForRequest(const SearchEngine &Eng, const TuneRequest &Req,
                         unsigned Jobs);

/// The request's seed/budget/jobs repackaged for the strategy registry.
StrategyOptions strategyOptionsForRequest(const TuneRequest &Req,
                                          unsigned Jobs);

/// The journal header for \p Req's plan.  Its extra field is \p InjectSpec
/// (`tune search --inject`), "|fastbw" for the fast path, then "|lint" if
/// the lint gate quarantined something: a clean plan ignores the gate.
JournalHeader fingerprintForRequest(const TunableApp &App,
                                    const SearchEngine &Eng,
                                    const SweepPlan &Plan,
                                    const TuneRequest &Req,
                                    std::string_view InjectSpec = {});

/// Runs a valid \p Req on \p Eng, the path of every whole-request front
/// end: plans it (with \p Opts.Jobs threads) or builds its adaptive
/// cursor, fills \p Opts.Fingerprint, and drives the SweepDriver.  An
/// adaptive header carries "|lint" whenever the gate is armed.
SweepReport runRequest(const TunableApp &App, const SearchEngine &Eng,
                       const TuneRequest &Req, SweepOptions Opts,
                       std::string_view InjectSpec = {});

/// Order-sensitive FNV-1a-64 over the header JSON plus every candidate
/// flat index — the shard idempotency key's plan half.
uint64_t planFingerprint(const JournalHeader &Header, const SweepPlan &Plan);

/// Executes candidates [Req.Begin, Req.End) of the plan \p Req.Tune
/// re-derives, journaled durably at \p JournalPath (resumed when the
/// file already exists, so a re-dispatched shard replays instead of
/// re-measuring).  Never fails out-of-band: refusals (fingerprint or
/// range mismatch) and sweep errors come back as Status == "error".
/// On success Records holds exactly End-Begin journal record payloads in
/// candidate order — byte-identical to the records a single-daemon sweep
/// would have appended for those candidates.
ShardResult executeShard(const SearchEngine &Eng, const TunableApp &App,
                         const ShardRequest &Req,
                         const std::string &JournalPath, unsigned Jobs,
                         const std::function<bool()> &ShouldStop);

} // namespace g80

#endif // G80TUNE_SERVE_SHARD_H
