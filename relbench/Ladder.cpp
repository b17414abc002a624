//===- relbench/Ladder.cpp - Per-layer replay of a seeded stream ----------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "Ladder.h"

#include "concurrent/ConcurrentRelation.h"
#include "runtime/SynthesizedRelation.h"
#include "server/GroupCommit.h"
#include "server/Wal.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

using namespace relc;

//===----------------------------------------------------------------------===//
// Allocation counting: a thread-local counter, so the hook adds no
// shared atomic to the load threads of the untraced run.
//===----------------------------------------------------------------------===//

static thread_local uint64_t ThreadAllocCount = 0;

static void *countedAlloc(size_t Sz) {
  ++ThreadAllocCount;
  if (void *P = std::malloc(Sz ? Sz : 1))
    return P;
  throw std::bad_alloc();
}

static void *countedAlignedAlloc(size_t Sz, std::align_val_t Al) {
  ++ThreadAllocCount;
  size_t Align = static_cast<size_t>(Al);
  // aligned_alloc requires the size to be a multiple of the alignment.
  size_t Rounded = (Sz + Align - 1) / Align * Align;
  if (void *P = std::aligned_alloc(Align, Rounded ? Rounded : Align))
    return P;
  throw std::bad_alloc();
}

void *operator new(size_t Sz) { return countedAlloc(Sz); }
void *operator new[](size_t Sz) { return countedAlloc(Sz); }
void *operator new(size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void *operator new[](size_t Sz, std::align_val_t Al) {
  return countedAlignedAlloc(Sz, Al);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }

namespace relbench {

uint64_t threadAllocs() { return ThreadAllocCount; }

namespace {

constexpr int LadderTid = 100;
/// Per-op child spans written per rung (the rest only count toward
/// self time), which keeps trace files small.
constexpr unsigned MaxOpSpans = 2000;
constexpr unsigned LadderShards = 16;
constexpr unsigned SnapshotEvery = 2000;
constexpr unsigned CommitWindow = 32;
constexpr size_t RemoveInsertPairs = 2000;
constexpr int64_t FanoutScans = 8;

double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}

/// One rung's span; ops nest under it and its self time is what they
/// leave uncovered.
class Rung {
public:
  Rung(Trace &T, std::string Name)
      : T(T), Name(std::move(Name)), Start(Clock::now()) {}
  ~Rung() {
    Clock::time_point End = Clock::now();
    progress("rung %s: %.3f s", Name.c_str(), secondsBetween(Start, End));
    T.span("rung." + Name, LadderTid, Start, End);
    T.selfTime(Name, (nsBetween(Start, End) - ChildNs) / 1e6);
  }

  void op(const char *What, Clock::time_point A, Clock::time_point B) {
    ChildNs += nsBetween(A, B);
    if (Spans++ < MaxOpSpans)
      T.span(What, LadderTid, A, B);
  }

private:
  Trace &T;
  std::string Name;
  Clock::time_point Start;
  double ChildNs = 0;
  unsigned Spans = 0;
};

/// The rows of \p Rows \p W's connection \p Conn owns, sorted.
std::vector<Tuple> ownRows(const Workload &W, unsigned Conn,
                           std::vector<Tuple> Rows) {
  Rows.erase(std::remove_if(Rows.begin(), Rows.end(),
                            [&](const Tuple &T) { return W.owner(T) != Conn; }),
             Rows.end());
  std::sort(Rows.begin(), Rows.end());
  return Rows;
}

/// Checks a read's answer against the model; ops alternate connections.
bool answerMatches(const Workload &W, const BenchOp &Op, size_t Index,
                   const std::vector<Tuple> &Rows) {
  std::vector<Tuple> Want = Op.Expected;
  std::sort(Want.begin(), Want.end());
  return ownRows(W, static_cast<unsigned>(Index % NumConns), Rows) == Want;
}

/// Decodes a request body the way RelServer::handleFrame does.
bool decodeRequest(const std::vector<uint8_t> &Body, unsigned Arity) {
  wire::ByteReader R(Body);
  uint8_t Op;
  uint64_t Id, Mask;
  uint32_t N;
  Tuple A, B;
  if (!R.u8(Op) || !R.u64(Id))
    return false;
  switch (static_cast<wire::Op>(Op)) {
  case wire::Op::Query:
    return R.tuple(A, Arity) && R.u64(Mask) && R.remaining() == 0;
  case wire::Op::Insert:
  case wire::Op::Remove:
    return R.tuple(A, Arity) && R.remaining() == 0;
  case wire::Op::Update:
    return R.tuple(A, Arity) && R.tuple(B, Arity) && R.remaining() == 0;
  case wire::Op::Transact:
    if (!R.u32(N))
      return false;
    for (uint32_t I = 0; I != N; ++I) {
      wire::WireTxOp T;
      if (!R.txOp(T, Arity))
        return false;
    }
    return R.remaining() == 0;
  default:
    return false;
  }
}

std::vector<uint8_t> encodeReply(uint64_t Id, const TxResult *Res,
                                 const std::vector<Tuple> *Rows) {
  wire::ByteWriter W;
  if (Rows) {
    W.u8(static_cast<uint8_t>(wire::Status::Ok));
    W.u64(Id);
    W.u32(static_cast<uint32_t>(Rows->size()));
    for (const Tuple &T : *Rows)
      W.tuple(T);
  } else if (Res->Committed) {
    W.u8(static_cast<uint8_t>(wire::Status::Ok));
    W.u64(Id);
    W.u64(Res->Ticket);
  } else {
    W.u8(static_cast<uint8_t>(wire::Status::Aborted));
    W.u64(Id);
    W.u32(static_cast<uint32_t>(Res->FailedOp));
  }
  return W.take();
}

struct Ladder {
  const Workload &W;
  const std::vector<BenchOp> &Ops;
  const std::string &Dir;
  Report &R;
  Trace &T;
  ColumnSet All;
  std::string Error;

  bool wrong(std::string Msg) {
    if (Error.empty())
      Error = std::move(Msg);
    return false;
  }

  bool codec() {
    Rung Span(T, "codec");
    std::vector<double> EncNs, DecNs, Bytes;
    for (size_t I = 0; I != Ops.size(); ++I) {
      Clock::time_point T0 = Clock::now();
      std::vector<uint8_t> Body = encodeRequest(Ops[I], I + 1, All);
      Clock::time_point T1 = Clock::now();
      bool Ok = decodeRequest(Body, All.size());
      Clock::time_point T2 = Clock::now();
      Span.op("encode", T0, T1);
      Span.op("decode", T1, T2);
      if (!Ok)
        return wrong("codec: request " + std::to_string(I) +
                     " does not decode");
      EncNs.push_back(nsBetween(T0, T1));
      DecNs.push_back(nsBetween(T1, T2));
      Bytes.push_back(4.0 + Body.size()); // plus the length prefix
    }
    R.metric("wire.encode_ns", "ns", batchMedian(EncNs));
    R.metric("wire.decode_ns", "ns", batchMedian(DecNs));
    R.metric("wire.req_bytes", "B", mean(Bytes));
    return true;
  }

  bool runtime() {
    SynthesizedRelation Rel(W.decomp());
    for (size_t I = 0; I != W.InitialRows; ++I)
      Rel.insert(W.initialRow(I));
    Rung Span(T, "runtime");
    std::vector<double> QueryNs, TxNs, ReplyNs, ReplyBytes, ReadAllocs,
        WriteAllocs, PairNs;
    for (size_t I = 0; I != Ops.size(); ++I) {
      const BenchOp &Op = Ops[I];
      std::vector<Tuple> Rows;
      TxResult Res;
      uint64_t A0 = threadAllocs();
      Clock::time_point T0 = Clock::now();
      if (Op.isRead()) {
        Rows = Rel.query(Op.A, All);
      } else {
        std::vector<TxOp> Tx = toTxOps(Op);
        A0 = threadAllocs();
        T0 = Clock::now();
        Res = Rel.transact(Tx);
      }
      Clock::time_point T1 = Clock::now();
      double Allocs = static_cast<double>(threadAllocs() - A0);
      std::vector<uint8_t> Reply =
          encodeReply(I + 1, &Res, Op.isRead() ? &Rows : nullptr);
      Clock::time_point T2 = Clock::now();
      Span.op(Op.isRead() ? "query" : "transact", T0, T1);
      Span.op("reply_encode", T1, T2);
      ReplyNs.push_back(nsBetween(T1, T2));
      ReplyBytes.push_back(4.0 + Reply.size());
      if (Op.isRead()) {
        if (!answerMatches(W, Op, I, Rows))
          return wrong("runtime: query " + std::to_string(I) +
                       " differs from the model");
        QueryNs.push_back(nsBetween(T0, T1));
        ReadAllocs.push_back(Allocs);
      } else {
        if (Res.Committed == Op.ExpectAbort)
          return wrong("runtime: transact " + std::to_string(I) +
                       " outcome differs from the model");
        TxNs.push_back(nsBetween(T0, T1));
        WriteAllocs.push_back(Allocs);
      }
    }
    // Remove + reinsert at steady-state size, as bench_hotpath's
    // remove_insert loop does, over rows spread through the relation.
    std::vector<Tuple> Sample;
    size_t Stride = std::max<size_t>(1, Rel.size() / RemoveInsertPairs);
    size_t Seen = 0;
    Rel.scan(Tuple(), All, [&](const Tuple &Row) {
      if (Seen++ % Stride == 0)
        Sample.push_back(Row);
      return Sample.size() < RemoveInsertPairs;
    });
    for (const Tuple &Row : Sample) {
      Tuple Key = Row.project(W.KeyCols);
      Clock::time_point T0 = Clock::now();
      size_t Removed = Rel.remove(Key);
      bool Inserted = Rel.insert(Row);
      Clock::time_point T1 = Clock::now();
      Span.op("remove_insert", T0, T1);
      if (Removed != 1 || !Inserted)
        return wrong("runtime: remove + reinsert lost a row");
      PairNs.push_back(nsBetween(T0, T1));
    }
    R.metric("wire.reply_encode_ns", "ns", batchMedian(ReplyNs));
    R.metric("wire.reply_bytes", "B", mean(ReplyBytes));
    R.metric("runtime.query_ns", "ns", batchMedian(QueryNs));
    R.metric("runtime.allocs_per_read", "count", mean(ReadAllocs));
    R.metric("runtime.transact_ns", "ns", batchMedian(TxNs));
    R.metric("runtime.allocs_per_write", "count", mean(WriteAllocs));
    R.metric("runtime.remove_insert_ns", "ns", batchMedian(PairNs));
    return true;
  }

  ConcurrentOptions shardOptions() const {
    ConcurrentOptions O;
    O.NumShards = LadderShards;
    O.ShardColumn = W.OwnerCol;
    return O;
  }

  bool concurrent() {
    ConcurrentRelation Rel(W.decomp(), shardOptions());
    Rung Span(T, "concurrent");
    Clock::time_point L0 = Clock::now();
    for (size_t I = 0; I != W.InitialRows; ++I)
      Rel.insert(W.initialRow(I));
    Clock::time_point L1 = Clock::now();
    Span.op("bulk_load", L0, L1);

    std::vector<double> QueryNs, FanoutNs, TxNs, ReadAllocs, WriteAllocs,
        SnapUs, CowUs, CowAllocs;
    ConcurrentRelation::Snapshot Snap;
    std::vector<bool> Cloned(LadderShards, false);
    size_t Writes = 0;
    for (size_t I = 0; I != Ops.size(); ++I) {
      const BenchOp &Op = Ops[I];
      if (Op.isRead()) {
        uint64_t A0 = threadAllocs();
        Clock::time_point T0 = Clock::now();
        std::vector<Tuple> Rows = Rel.query(Op.A, All);
        Clock::time_point T1 = Clock::now();
        ReadAllocs.push_back(static_cast<double>(threadAllocs() - A0));
        Span.op(Op.FanOut ? "fanout_query" : "query", T0, T1);
        (Op.FanOut ? FanoutNs : QueryNs).push_back(nsBetween(T0, T1));
        if (!answerMatches(W, Op, I, Rows))
          return wrong("concurrent: query " + std::to_string(I) +
                       " differs from the model");
        continue;
      }
      if (Writes++ % SnapshotEvery == 0) {
        Clock::time_point T0 = Clock::now();
        Snap = Rel.snapshot();
        Clock::time_point T1 = Clock::now();
        Span.op("snapshot", T0, T1);
        SnapUs.push_back(nsBetween(T0, T1) / 1e3);
        Cloned.assign(LadderShards, false);
      }
      std::vector<TxOp> Tx = toTxOps(Op);
      // The first write to a shard the snapshot pins clones it.
      bool Cow = false;
      for (unsigned S : Rel.transactLockPlan(Tx).Stripes) {
        Cow |= !Cloned[S];
        Cloned[S] = true;
      }
      uint64_t A0 = threadAllocs();
      Clock::time_point T0 = Clock::now();
      TxResult Res = Rel.transact(Tx);
      Clock::time_point T1 = Clock::now();
      double Allocs = static_cast<double>(threadAllocs() - A0);
      Span.op(Cow ? "cow_transact" : "transact", T0, T1);
      if (Res.Committed == Op.ExpectAbort)
        return wrong("concurrent: transact " + std::to_string(I) +
                     " outcome differs from the model");
      if (Cow) {
        CowUs.push_back(nsBetween(T0, T1) / 1e3);
        CowAllocs.push_back(Allocs);
      } else {
        TxNs.push_back(nsBetween(T0, T1));
        WriteAllocs.push_back(Allocs);
      }
    }
    Snap = ConcurrentRelation::Snapshot();
    // Streams without a fan-out read get a few full fan-out scans.
    bool StreamFansOut = !FanoutNs.empty();
    for (int64_t K = 0; !StreamFansOut && K != FanoutScans; ++K) {
      Clock::time_point T0 = Clock::now();
      std::vector<Tuple> Rows = Rel.query(W.fanoutPattern(K), All);
      Clock::time_point T1 = Clock::now();
      Span.op("fanout_query", T0, T1);
      FanoutNs.push_back(nsBetween(T0, T1));
    }
    double Load = nsBetween(L0, L1) / 1e3 / std::max<size_t>(1, W.InitialRows);
    R.metric("concurrent.bulk_load_us_per_row", "us", Load);
    R.metric("concurrent.query_ns", "ns", batchMedian(QueryNs));
    R.metric("concurrent.query_p99_ns", "ns", percentile(QueryNs, 99));
    R.metric("concurrent.fanout_query_ns", "ns", batchMedian(FanoutNs));
    R.metric("concurrent.allocs_per_read", "count", mean(ReadAllocs));
    R.metric("concurrent.transact_ns", "ns", batchMedian(TxNs));
    R.metric("concurrent.transact_p99_ns", "ns", percentile(TxNs, 99));
    R.metric("concurrent.allocs_per_write", "count", mean(WriteAllocs));
    R.metric("concurrent.snapshot_us", "us", percentile(SnapUs, 50));
    R.metric("concurrent.cow_write_us", "us", percentile(CowUs, 50));
    R.metric("concurrent.cow_write_max_us", "us", percentile(CowUs, 100));
    R.metric("concurrent.cow_allocs", "count", mean(CowAllocs));
    return true;
  }

  /// Redo payloads the commit rung logged, with its group sizes.
  struct Logged {
    uint64_t Ticket;
    std::vector<uint8_t> Payload;
  };
  std::vector<Logged> Payloads;
  std::vector<size_t> GroupSizes;

  bool commit() {
    ConcurrentRelation Rel(W.decomp(), shardOptions());
    for (size_t I = 0; I != W.InitialRows; ++I)
      Rel.insert(W.initialRow(I));
    std::string Path = Dir + "/ladder-commit.wal";
    Wal Log(Path);
    std::string Err;
    if (!Log.open(&Err))
      return wrong("commit: " + Err);
    Rung Span(T, "commit");

    // The hook and the completions both run on the committer thread: a
    // hook call after a completion starts a new group.
    std::vector<double> AppendNs;
    bool AfterDone = true;
    Rel.setCommitHook([&](uint64_t Ticket, const std::vector<TxOp> &Redo) {
      Clock::time_point T0 = Clock::now();
      std::vector<uint8_t> P = wire::encodeRedo(Redo);
      Log.append(Ticket, P.data(), P.size());
      AppendNs.push_back(nsBetween(T0, Clock::now()));
      if (AfterDone)
        GroupSizes.push_back(0);
      ++GroupSizes.back();
      AfterDone = false;
      Payloads.push_back({Ticket, std::move(P)});
    });

    std::vector<size_t> Writes;
    double RequestBytes = 0;
    for (size_t I = 0; I != Ops.size(); ++I)
      if (!Ops[I].isRead()) {
        Writes.push_back(I);
        RequestBytes += encodePayload(Ops[I], All).size();
      }
    std::vector<double> CommitUs(Writes.size());
    std::vector<char> Right(Writes.size(), 0);
    std::mutex Mu;
    std::condition_variable Cv;
    size_t Outstanding = 0;
    GroupCommit GC(Rel, &Log, GroupCommit::Options{64});
    GC.start();
    for (size_t K = 0; K != Writes.size(); ++K) {
      {
        std::unique_lock<std::mutex> Lock(Mu);
        Cv.wait(Lock, [&] { return Outstanding < CommitWindow; });
        ++Outstanding;
      }
      const BenchOp &Op = Ops[Writes[K]];
      Clock::time_point Submit = Clock::now();
      GC.submit(toTxOps(Op), [&, K, Submit,
                              Expect = Op.ExpectAbort](const TxResult &Res,
                                                       bool Durable) {
        CommitUs[K] = nsBetween(Submit, Clock::now()) / 1e3;
        Right[K] = Durable && Res.Committed != Expect;
        AfterDone = true;
        std::lock_guard<std::mutex> Lock(Mu);
        --Outstanding;
        Cv.notify_all();
      });
    }
    GC.stop();
    GroupCommitStats S = GC.stats();
    size_t LogBytes = Log.writtenBytes() - Wal::MagicLen;
    Log.close();
    Rel.setCommitHook(nullptr);
    if (std::count(Right.begin(), Right.end(), 0) != 0)
      return wrong("commit: a group-commit outcome differs from the model");
    double Txns = static_cast<double>(S.Committed + S.Aborted);
    double Groups = static_cast<double>(std::max<uint64_t>(S.Groups, 1));
    double Committed = static_cast<double>(std::max<uint64_t>(S.Committed, 1));
    R.metric("groupcommit.commit_us", "us", percentile(CommitUs, 50));
    R.metric("groupcommit.commit_p99_us", "us", percentile(CommitUs, 99));
    R.metric("groupcommit.txns_per_group", "ratio", Txns / Groups);
    R.metric("groupcommit.multi_tx_group_frac", "ratio",
             static_cast<double>(S.MultiTxGroups) / Groups);
    R.metric("groupcommit.syncs_per_txn", "ratio",
             static_cast<double>(S.Syncs) / Committed);
    R.metric("wal.append_ns", "ns", batchMedian(AppendNs));
    R.metric("wal.bytes_per_txn", "B",
             static_cast<double>(LogBytes) / Committed);
    R.metric("wal.write_amp", "ratio",
             static_cast<double>(LogBytes) / std::max(RequestBytes, 1.0));
    return true;
  }

  bool wal() {
    std::string Path = Dir + "/ladder-replay.wal";
    Wal Log(Path);
    std::string Err;
    if (!Log.open(&Err))
      return wrong("wal: " + Err);
    std::vector<double> SyncUs;
    {
      Rung Span(T, "wal");
      size_t Next = 0;
      for (size_t Size : GroupSizes) {
        Clock::time_point T0 = Clock::now();
        for (size_t K = 0; K != Size; ++K, ++Next)
          Log.append(Payloads[Next].Ticket, Payloads[Next].Payload.data(),
                     Payloads[Next].Payload.size());
        Clock::time_point T1 = Clock::now();
        bool Synced = Log.sync();
        Clock::time_point T2 = Clock::now();
        Span.op("append", T0, T1);
        Span.op("sync", T1, T2);
        if (!Synced)
          return wrong("wal: sync failed");
        SyncUs.push_back(nsBetween(T1, T2) / 1e3);
      }
      Log.close();

      size_t Records = 0;
      bool Decoded = true;
      Clock::time_point T0 = Clock::now();
      bool Ok = Wal::replay(
          Path,
          [&](const Wal::Record &Rec) {
            std::vector<TxOp> Redo;
            Decoded &= wire::decodeRedo(Rec.Payload.data(), Rec.Payload.size(),
                                        All.size(), Redo);
            ++Records;
          },
          &Err);
      Clock::time_point T1 = Clock::now();
      Span.op("replay", T0, T1);
      if (!Ok || !Decoded || Records != Payloads.size())
        return wrong("wal: replay does not return the appended records");
      R.metric("wal.replay_us_per_record", "us",
               nsBetween(T0, T1) / 1e3 / std::max<size_t>(Records, 1));
    }
    R.metric("wal.sync_us", "us", percentile(SyncUs, 50));
    R.metric("wal.sync_p99_us", "us", percentile(SyncUs, 99));
    std::remove(Path.c_str());
    std::remove((Dir + "/ladder-commit.wal").c_str());
    return true;
  }
};

} // namespace

bool runLadder(const Workload &W, const std::vector<BenchOp> &Ops,
               const std::string &Dir, Report &R, Trace &T,
               std::string *Err) {
  Ladder L{W, Ops, Dir, R, T, W.Spec->columns(), {}, {}, {}};
  bool Ok = L.codec() && L.runtime() && L.concurrent() && L.commit() &&
            L.wal();
  if (!Ok && Err)
    *Err = L.Error;
  return Ok;
}

} // namespace relbench
