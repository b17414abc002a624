//===- relbench/Ladder.h - Per-layer replay of a seeded stream --*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's ladder: the head of the run's seeded request stream
/// replayed into the public entry points of one serving-path layer at a
/// time, each rung on a fresh instance seeded in-process without
/// timing. Every number is a count or a timing of a call made from this
/// directory; spans go to the run's Trace, one per rung with its ops
/// nested under it.
///
///   codec       ByteWriter/ByteReader request encode + decode
///   runtime     SynthesizedRelation::transact / query (one unsharded
///               instance), reply encode, remove + reinsert pairs
///   concurrent  ConcurrentRelation::transact / query, bulk load, and a
///               snapshot every 2,000 writes with the first (copy-on-
///               write) write to each pinned shard timed apart
///   commit      GroupCommit over ConcurrentRelation and a Wal, the
///               commit hook wired as RelServer::start wires it, 32
///               submissions outstanding
///   wal         the commit rung's redo payloads appended and synced in
///               the group sizes seen there, then Wal::replay
///
/// Allocations are counted per thread by this binary's operator new and
/// read only around single-threaded calls.
///
//===----------------------------------------------------------------------===//

#ifndef RELBENCH_LADDER_H
#define RELBENCH_LADDER_H

#include "Report.h"
#include "Workload.h"

namespace relbench {

/// Global operator new calls made by the calling thread so far.
uint64_t threadAllocs();

/// Runs every rung over \p Ops and adds the per-layer metrics to \p R.
/// Op I must come from connection I % NumConns, whose model predicted
/// its answer. \p Dir holds the rungs' log files. False with \p Err when
/// a layer answers differently from the model.
bool runLadder(const Workload &W, const std::vector<BenchOp> &Ops,
               const std::string &Dir, Report &R, Trace &T,
               std::string *Err);

} // namespace relbench

#endif // RELBENCH_LADDER_H
