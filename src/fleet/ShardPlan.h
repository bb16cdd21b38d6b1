//===- fleet/ShardPlan.h - Deterministic sweep-plan partitioning ----------===//
//
// Part of g80tune.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The coordinator's shard map: a sweep plan's candidate list cut into
/// contiguous fixed-size ranges.  The partition is a pure function of
/// (candidate count, shard size), and each shard's work is identified by
/// (plan fingerprint, candidate range) — the idempotency key that lets
/// the fleet re-dispatch, hedge, and resume shards freely, under any
/// shard size: any two executions of the same key produce byte-identical
/// journal records, so first-result-wins is safe.
///
//===----------------------------------------------------------------------===//

#ifndef G80TUNE_FLEET_SHARDPLAN_H
#define G80TUNE_FLEET_SHARDPLAN_H

#include <cstdint>
#include <vector>

namespace g80 {

/// Candidate positions [Begin, End) of the sweep plan.
struct ShardRange {
  uint64_t Index = 0;
  uint64_t Begin = 0;
  uint64_t End = 0;

  uint64_t size() const { return End - Begin; }
};

/// The full partition of one plan.
struct ShardPlan {
  uint64_t PlanFp = 0;      ///< serve/Shard.h planFingerprint().
  uint64_t Candidates = 0;  ///< Total candidate count partitioned.
  uint64_t ShardSize = 0;   ///< Effective (clamped) shard size.
  std::vector<ShardRange> Shards;

  /// Cuts \p Candidates positions into ceil(Candidates/ShardSize)
  /// contiguous shards.  \p ShardSize is clamped to [1, 1024]: the upper
  /// bound keeps a shard_result reply (one journal record per candidate)
  /// comfortably under the 1 MiB frame cap.
  static ShardPlan partition(uint64_t Candidates, uint64_t PlanFp,
                             uint64_t ShardSize);
};

} // namespace g80

#endif // G80TUNE_FLEET_SHARDPLAN_H
