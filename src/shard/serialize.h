// Shard-plan persistence: one file per shard plus a CRC manifest.
//
// A partitioned 10M+-node graph is expensive to re-plan, so the plan is
// persisted as tensor/serialize.h file frames: each shard's owned/halo maps
// and CSR slice go through the shared sparse/serialize CSR codec into
// `<prefix>.shard<k>`, and `<prefix>.manifest` records the global shape,
// partition options, cut statistics, and the CRC-32 of every shard payload.
// Load cross-checks each shard file against both its own frame and the
// manifest entry, so a truncated, bit-flipped, or mixed-generation shard set
// fails with a clean IOError (a foreign format version with
// FailedPrecondition) instead of silently mis-propagating.

#ifndef SGNN_SHARD_SERIALIZE_H_
#define SGNN_SHARD_SERIALIZE_H_

#include <string>

#include "shard/plan.h"
#include "tensor/status.h"

namespace sgnn::shard {

/// Returns the path of shard `s` under `prefix` ("<prefix>.shard<s>").
std::string ShardFilePath(const std::string& prefix, int s);

/// Returns the manifest path under `prefix` ("<prefix>.manifest").
std::string ManifestPath(const std::string& prefix);

/// Writes `<prefix>.manifest` and one `<prefix>.shard<k>` per shard
/// (atomically, write-then-rename per file).
[[nodiscard]] Status SaveShardPlan(const ShardPlan& plan,
                                   const std::string& prefix);

/// Restores a plan written by SaveShardPlan. Validates each frame, the
/// manifest's per-shard CRC table, and plan invariants (every node owned
/// exactly once).
[[nodiscard]] Status LoadShardPlan(const std::string& prefix, ShardPlan* plan);

}  // namespace sgnn::shard

#endif  // SGNN_SHARD_SERIALIZE_H_
