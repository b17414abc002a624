//===- relbench/Workload.h - relbench workloads and models ------*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four relbench workloads. Each defines a relation (spec plus the
/// decomposition it is served with), its initial rows, and one
/// deterministic request stream per load connection, all derived from
/// the command-line seed: the program under test only ever sees the
/// generated requests.
///
/// Connection C owns the keys whose owner column (account owner, edge
/// source, tile id) is congruent to C mod NumConns, and only ever
/// writes those. The server applies one connection's mutations in the
/// order it sent them (one connection thread, a FIFO committer), so
/// each stream can carry its own model of the rows it owns: it
/// predicts every write's outcome (commit or floor-guard abort) and
/// every read's answer at generation time. A read whose keys have no
/// write in flight when it is sent must see exactly the predicted rows.
///
//===----------------------------------------------------------------------===//

#ifndef RELBENCH_WORKLOAD_H
#define RELBENCH_WORKLOAD_H

#include "decomp/Decomposition.h"
#include "rel/RelSpec.h"
#include "rel/Tuple.h"
#include "runtime/Transaction.h"
#include "server/Wire.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace relbench {

constexpr unsigned NumConns = 2;

/// One generated request, in the wire's vocabulary.
struct BenchOp {
  /// Query, Insert, Remove, Update or Transact.
  relc::wire::Op Kind = relc::wire::Op::Query;
  /// A read whose pattern misses the shard column (every shard runs).
  bool FanOut = false;
  /// Query pattern, Insert tuple, Remove pattern or Update key.
  relc::Tuple A;
  /// Update changes.
  relc::Tuple B;
  /// Transact batch.
  std::vector<relc::wire::WireTxOp> Tx;
  /// The model's prediction for a write: a floor-guard abort.
  bool ExpectAbort = false;
  /// Model keys the op reads or writes (the in-flight write tracking).
  std::vector<int64_t> Keys;
  /// Reads: the rows of the answer this connection owns, per the model.
  std::vector<relc::Tuple> Expected;

  bool isRead() const { return Kind == relc::wire::Op::Query; }
};

/// The request payload of \p Op (what follows opcode and request id).
std::vector<uint8_t> encodePayload(const BenchOp &Op, relc::ColumnSet All);

/// A whole request frame body: `u8 opcode | u64 reqId | payload`.
std::vector<uint8_t> encodeRequest(const BenchOp &Op, uint64_t ReqId,
                                   relc::ColumnSet All);

/// The engine ops a write becomes on the server, with the same
/// floor-guarded upsert RelServer::toTxOp builds for a wire `add`.
std::vector<relc::TxOp> toTxOps(const BenchOp &Op);

/// One connection's deterministic request stream plus the model of the
/// rows that connection owns.
class OpStream {
public:
  virtual ~OpStream() = default;
  /// The next request; advances the model past it.
  virtual BenchOp next() = 0;
  /// Calls \p Fn with every row of the model (rows this stream owns).
  virtual void forEachRow(
      const std::function<void(const relc::Tuple &)> &Fn) const = 0;
};

/// Order-independent digest of a set of int-valued rows: a row count,
/// a sum of per-row 64-bit mixes, and the sum of one conserved column.
struct Fingerprint {
  uint64_t Rows = 0;
  uint64_t Mix = 0;
  int64_t Conserved = 0;

  void add(const relc::Value *Vals, unsigned Arity, int ConservedCol);
  bool operator==(const Fingerprint &O) const {
    return Rows == O.Rows && Mix == O.Mix && Conserved == O.Conserved;
  }
  bool operator!=(const Fingerprint &O) const { return !(*this == O); }
};

class Workload {
public:
  virtual ~Workload() = default;

  /// The run's seed: initial rows and streams derive from it.
  uint64_t Seed = 0;
  relc::RelSpecRef Spec;
  /// Total open-loop request rate over all connections, per second.
  double OpenRate = 2000;
  /// Server auto-checkpoint cadence in commits (0 = none).
  uint64_t CheckpointEvery = 0;
  /// Rows loaded before the run.
  size_t InitialRows = 0;
  /// The relation's key columns (ladder remove+reinsert pairs).
  relc::ColumnSet KeyCols;
  /// Shard column; its value mod NumConns names the owning connection.
  relc::ColumnId OwnerCol = 0;
  /// Column whose total every commit preserves, or -1.
  int ConservedCol = -1;
  int64_t ConservedTotal = 0;

  virtual relc::Decomposition decomp() const = 0;
  virtual relc::Tuple initialRow(size_t I) const = 0;
  virtual std::unique_ptr<OpStream> stream(unsigned Conn) const = 0;
  /// A read that fans out to every shard, for workloads whose stream
  /// has none.
  virtual relc::Tuple fanoutPattern(int64_t K) const = 0;
  /// Per-row invariant of served rows (no negative balance).
  virtual bool rowValid(const relc::Tuple &) const { return true; }

  unsigned owner(const relc::Tuple &Row) const;
  /// Digest of the union of both connections' models.
  Fingerprint modelFingerprint(const std::vector<const OpStream *> &S) const;
};

/// transfer, lookup, graph_ckpt or tiles; nullptr for another name.
/// \p Quick divides the data by ten (the smoke tests).
std::unique_ptr<Workload> makeWorkload(std::string_view Name, uint64_t Seed,
                                       bool Quick);

} // namespace relbench

#endif // RELBENCH_WORKLOAD_H
