//===- concurrent/ShardRouter.h - Hash routing across shards ----*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides which shard of a ConcurrentRelation owns a tuple: one
/// designated shard column is hashed to a shard index, so every full
/// tuple has exactly one home and any operation whose pattern binds
/// the shard column touches exactly one shard. The default shard
/// column is the first column of the decomposition root's key — the
/// key columns of the root's first outgoing map edge — which is the
/// column the representation itself partitions by first, so routed
/// operations land on the shard whose containers they would have
/// probed anyway.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_SHARDROUTER_H
#define RELC_CONCURRENT_SHARDROUTER_H

#include "decomp/Decomposition.h"
#include "rel/Tuple.h"

namespace relc {

/// Shard counts run from 1 to MaxShards: each shard costs a sub-
/// instance plus a padded stripe and epoch gate. relc's `concurrency
/// sharded N` directive and `--shards` flag, and relserved's `--shards`
/// flag, all check against this bound.
inline constexpr unsigned MaxShards = 4096;

class ShardRouter {
public:
  ShardRouter(ColumnId ShardCol, unsigned NumShards)
      : Col(ShardCol), Count(NumShards) {
    assert(NumShards > 0 && "router needs at least one shard");
  }

  /// The first column of \p D's root key: the key columns of the
  /// root's first outgoing map edge. Falls back to column 0 for
  /// decompositions whose root is a bare unit (no outgoing edges).
  static ColumnId defaultShardColumn(const Decomposition &D);

  ColumnId shardColumn() const { return Col; }
  unsigned numShards() const { return Count; }

  /// True if an operation with pattern columns \p Pattern routes to a
  /// single shard (the pattern binds the shard column).
  bool routes(ColumnSet Pattern) const { return Pattern.contains(Col); }

  /// The shard owning shard-column value \p V. Value::hash already
  /// avalanches (hashMix64), so reduction by modulo is unbiased even
  /// for sequential integer keys.
  unsigned shardOf(const Value &V) const {
    return static_cast<unsigned>(V.hash() % Count);
  }

  /// The shard owning \p T; requires the shard column bound.
  unsigned shardOf(const Tuple &T) const {
    assert(T.has(Col) && "tuple does not bind the shard column");
    return shardOf(T.get(Col));
  }

private:
  ColumnId Col;
  unsigned Count;
};

} // namespace relc

#endif // RELC_CONCURRENT_SHARDROUTER_H
