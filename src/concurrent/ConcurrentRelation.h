//===- concurrent/ConcurrentRelation.h - Sharded thread-safe facade -*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe facade over the synthesized relations of the paper:
/// the relation is hash-partitioned across N independent
/// SynthesizedRelation sub-instances by one shard column, with one
/// reader-writer lock per shard (StripedLock.h). Readers of any shards
/// run concurrently; writers serialize only within the shard they
/// touch. Operations whose pattern binds the shard column route to
/// exactly one shard; the rest fan out — reads shard-by-shard,
/// mutations atomically under all writer locks in ascending order
/// (docs/CONCURRENCY.md has the full design, lock order, and
/// visibility guarantees).
///
/// The protocol itself — stripes, the epoch-first read path, write
/// scopes with their fences, copy-on-write snapshots, the size counter
/// and the pooled parallel scan — is ShardedCore<SynthesizedRelation>
/// (concurrent/ShardedCore.h), the same core relc-generated facades
/// run on. This class adds routing, FD-probe routing, and the
/// transaction layer: two-phase locking for transact, undo logs,
/// redo derivation for the commit hook, and commit tickets.
///
/// Correctness: every full tuple is owned by exactly one shard (the
/// hash of its shard-column value), so the represented relation is the
/// disjoint union of the shard relations and every Section 2 operation
/// decomposes into per-shard operations on it. The one non-local case
/// is an update that rewrites the shard column itself, which migrates
/// the tuple between shards (remove + reinsert) under all writer
/// locks. The per-shard zero-allocation query invariants of the
/// sequential engine survive unchanged: scanFrames lends each shard's
/// stack frame to the callback exactly as the sequential engine does.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_CONCURRENTRELATION_H
#define RELC_CONCURRENT_CONCURRENTRELATION_H

#include "concurrent/ShardRouter.h"
#include "concurrent/ShardedCore.h"
#include "runtime/SynthesizedRelation.h"

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace relc {

/// ShardedCore's copy-on-write hooks for interpreted shards. Every
/// instance runs with concurrent reads and epoch-deferred reclamation
/// enabled (freed node memory outlives the grace period, so a reader
/// racing ahead of its gate check never touches unmapped memory).
template <> struct ShardHooks<SynthesizedRelation> {
  static std::shared_ptr<SynthesizedRelation> make(const Decomposition &D);
  static std::shared_ptr<SynthesizedRelation>
  emptyLike(const SynthesizedRelation &Like) {
    return make(Like.decomp());
  }
  /// Re-inserts every row into a fresh instance.
  static std::shared_ptr<SynthesizedRelation>
  clone(const SynthesizedRelation &Cur);
  /// In-flight epoch hand-backs from earlier mutations must not land in
  /// the frozen arena's pending stack (no writer drains it again);
  /// detaching bumps the generation so they drop instead.
  static void retire(SynthesizedRelation &Old) { Old.freezeArena(); }
};

struct ConcurrentOptions {
  /// Number of sub-relations, in [1, MaxShards]. More shards = more
  /// writer parallelism and more fan-out work for non-routed
  /// operations; powers of two around 2x the expected writer count
  /// work well.
  unsigned NumShards = 8;
  /// Column to partition by; defaults to the first column of the
  /// decomposition root's key (ShardRouter::defaultShardColumn).
  std::optional<ColumnId> ShardColumn;
  /// Slots in the bounded merge queue of parallel fan-out scans; the
  /// bound backpressures shard workers against a slow consumer.
  size_t ScanQueueCapacity = 1024;
};

class ConcurrentRelation {
public:
  /// Builds \p Opts.NumShards copies of the decomposition, one
  /// SynthesizedRelation per shard (each with concurrent reads
  /// enabled). \p D must be adequate, as for SynthesizedRelation.
  explicit ConcurrentRelation(const Decomposition &D,
                              ConcurrentOptions Opts = ConcurrentOptions());

  // Read the facade's own immutable copy of the decomposition, not
  // shard(0): shard pointers are COW-swapped by writers holding
  // only their own stripe, so an unlocked read of a shard slot races.
  const RelSpecRef &spec() const { return Proto.spec(); }
  const Catalog &catalog() const { return Proto.catalog(); }
  const Decomposition &decomp() const { return Proto; }

  unsigned numShards() const { return Router.numShards(); }
  ColumnId shardColumn() const { return Router.shardColumn(); }

  //===--------------------------------------------------------------------===
  // The relational interface (Section 2), thread-safe.
  //===--------------------------------------------------------------------===

  /// insert r t. Routes to the owning shard (full tuples always bind
  /// the shard column) under its writer lock.
  bool insert(const Tuple &T);

  /// remove r s. One shard if the pattern binds the shard column;
  /// otherwise all shards under all writer locks (atomic fan-out).
  size_t remove(const Tuple &Pattern);

  /// update r s u, with the sequential engine's preconditions (the
  /// pattern is a key, changes disjoint from it). If the changes
  /// rewrite the shard column the tuple migrates shards under all
  /// writer locks; otherwise the update stays inside one shard.
  size_t update(const Tuple &Pattern, const Tuple &Changes);

  /// Atomic read-modify-write (see SynthesizedRelation::upsert for the
  /// callback contract). When \p Key binds the shard column this takes
  /// exactly ONE shard writer lock — the whole point of the primitive:
  /// concurrent writers to different keys of one shard linearize their
  /// read-modify-write cycles without external ownership partitioning.
  /// Otherwise every writer lock is taken and, if the new values
  /// rewrite the shard column, the tuple migrates shards. \p Fn must
  /// not operate on this relation. \returns true if a tuple was newly
  /// inserted.
  bool upsert(const Tuple &Key,
              function_ref<void(const BindingFrame *, Tuple &)> Fn);

  /// transact: the batch \p Ops as one atomic, serializable unit under
  /// two-phase locking. The touched shard set is computed from the
  /// ops' shard-column bindings (transactLockPlan); when every op
  /// routes, exactly those stripes are acquired in ascending index
  /// order — a transfer between two routed keys locks two stripes,
  /// never all — and the batch degrades to all stripes only when some
  /// op cannot be confined to one shard (its pattern misses the shard
  /// column, it may rewrite the shard column, or an FD probe spans
  /// shards). All locks precede the first mutation and are released
  /// together after the last, so every execution is conflict-
  /// serializable; the returned Ticket orders conflicting commits.
  /// Aborts (FD conflict, upsert conditional abort) roll the touched
  /// shards back via inverse ops — all-or-nothing, exactly as the
  /// sequential SynthesizedRelation::transact.
  TxResult transact(const std::vector<TxOp> &Ops);

  /// As above, with the batch assembled by \p Build (see TxBatch).
  TxResult transact(function_ref<void(TxBatch &)> Build);

  /// One key's slice of a transactKeys batch: what the callback reads
  /// and writes.
  struct TxKeyView {
    /// In: did a tuple matching the key exist?
    bool Found = false;
    /// In: the existing tuple's non-key values (empty when !Found).
    /// Out: the values to write back. Leaving a Found view's values
    /// unchanged writes nothing for that key; an absent key must come
    /// back with every non-key column bound, or the batch aborts (the
    /// same conditional-abort convention as TxOp::upsert).
    Tuple Values;
  };

  /// The interpreted mirror of the generated facades' `transaction
  /// cols x N` form (relc `transactN_by_<key>` methods): an atomic
  /// read-modify-write over \p Keys, all bound over the same key
  /// columns (which must form a key of the relation). Under the same
  /// two-phase locking as transact — exactly the owning stripes,
  /// ascending, when the key columns route; every stripe otherwise —
  /// the current values of every key are read, \p Fn mutates the views
  /// (returning false aborts with nothing applied), and the write-back
  /// runs as one batch: updates for found keys whose values changed,
  /// inserts for absent keys. FD conflicts roll back all-or-nothing
  /// exactly as transact. On a callback abort the returned FailedOp is
  /// Keys.size(); on an FD abort it is the index of the offending
  /// write-back op.
  TxResult transactKeys(const std::vector<Tuple> &Keys,
                        function_ref<bool(std::vector<TxKeyView> &)> Fn);

  /// The stripes transact(\p Ops) would lock: either the exact
  /// ascending routed set, or every stripe (AllShards). Exposed so
  /// tests and capacity planning can see the lock footprint without
  /// running the batch.
  struct TxLockPlan {
    /// True when some op forces the all-stripes fan-out.
    bool AllShards = false;
    /// Ascending, deduplicated stripe indices when !AllShards.
    std::vector<unsigned> Stripes;
  };
  TxLockPlan transactLockPlan(const std::vector<TxOp> &Ops) const;

  //===--------------------------------------------------------------------===
  // Durability and group commit (src/server/).
  //===--------------------------------------------------------------------===

  /// Ticket-ordered commit hook for durability layers (the server's
  /// write-ahead log): called once per committed transact batch, at
  /// the linearization point — every touched stripe is still held —
  /// with the commit ticket and the batch's REDO ops. Redo ops are the
  /// concrete effects of the batch (upsert callbacks resolved to the
  /// exact insert/remove/update they performed), so they serialize
  /// without code and replaying committed batches in ticket order
  /// through a fresh relation reproduces the represented relation
  /// exactly. Ticket draw and hook invocation are atomic under one
  /// mutex, so the hook observes strictly increasing tickets: an
  /// append-only log fed by this hook is in ticket order by
  /// construction. The hook must not call back into this relation and
  /// should be fast (an in-memory append; defer fsync to group
  /// commit). Install before any concurrent use; installing while
  /// writers run is a race. Batches whose net effect is empty are not
  /// reported.
  using CommitHook =
      std::function<void(uint64_t Ticket, const std::vector<TxOp> &Redo)>;
  void setCommitHook(CommitHook H) { Hook = std::move(H); }

  /// Recovery support: restarts the commit-ticket counter at \p Next,
  /// so tickets stay monotone across a WAL replay (replayed history
  /// consumed tickets up to Next-1). Call before any concurrent use.
  void seedTickets(uint64_t Next) {
    TxTickets.store(Next, std::memory_order_relaxed);
  }

  /// Group-commit support: acquires exactly the stripes of \p Plan
  /// (exclusive, ascending, with the epoch writer fence raised on the
  /// matching gates), runs \p Body, then releases. \p Body typically
  /// applies several compatible transactions via transactPreLocked —
  /// one stripe acquisition amortized over the group.
  void withTxLocks(const TxLockPlan &Plan, function_ref<void()> Body);

  /// Applies \p Ops as one transaction with locking delegated to the
  /// caller: called from withTxLocks' Body, whose scope already holds
  /// every stripe in \p Scope (which must cover transactLockPlan(Ops))
  /// and moves the size counter when it ends. Same semantics and
  /// results as transact, including the commit hook.
  TxResult transactPreLocked(const std::vector<TxOp> &Ops,
                             const std::vector<unsigned> &Scope) {
    return transactLocked(Ops, Scope);
  }

  /// query r s C, deduplicated across shards.
  std::vector<Tuple> query(const Tuple &Pattern, ColumnSet OutputCols) const;

  /// Streaming scan; like the sequential engine, no deduplication.
  /// Fan-out scans visit shards in index order under successive reader
  /// locks: each shard's results are a consistent snapshot, but a
  /// writer may commit between shards (see docs/CONCURRENCY.md).
  void scan(const Tuple &Pattern, ColumnSet OutputCols,
            function_ref<bool(const Tuple &)> Fn) const;

  /// As scan, delivering borrowed BindingFrames (zero-allocation path;
  /// the frame is the visited shard's stack frame).
  void scanFrames(const Tuple &Pattern, ColumnSet OutputCols,
                  function_ref<bool(const BindingFrame &)> Fn) const;

  /// Parallel fan-out scan: one task per shard runs on the persistent
  /// scan worker pool (concurrent/ScanPool.h — no per-call thread
  /// spawn), scans under its shard's reader lock, and feeds row chunks
  /// into a bounded merge queue (ConcurrentOptions::ScanQueueCapacity
  /// rows); \p Fn runs on the calling thread and sees the same
  /// multiset of frames as the sequential fan-out, in arbitrary
  /// per-shard-chunked order. Routed patterns (which touch one shard)
  /// degrade to the sequential path. Like scanFrames, \p Fn must not
  /// call back into this relation — a mutation would deadlock against
  /// a queue-blocked shard task.
  void scanFramesParallel(const Tuple &Pattern, ColumnSet OutputCols,
                          function_ref<bool(const BindingFrame &)> Fn) const;

  /// As scanFramesParallel, delivering materialized tuples.
  void scanParallel(const Tuple &Pattern, ColumnSet OutputCols,
                    function_ref<bool(const Tuple &)> Fn) const;

  /// True if some tuple extends \p Pattern.
  bool contains(const Tuple &Pattern) const;

  /// Lock-free; exact whenever it does not race a mutation.
  size_t size() const { return Core.size(); }
  bool empty() const { return size() == 0; }

  /// Empties every shard (all writer locks).
  void clear();

  //===--------------------------------------------------------------------===
  // Consistent snapshots (COW shard state + RCU reclamation).
  //===--------------------------------------------------------------------===

  /// A refcounted, immutable, globally consistent view of the whole
  /// relation, acquired by snapshot() in O(shards) with no data copy:
  /// ShardedCore's pin-counted handle (writers that later touch a
  /// pinned shard clone it copy-on-write, so the handle keeps reading
  /// frozen state, lock-free, for as long as it lives) plus the commit
  /// ticket cut at the same point. Copyable and movable; a default-
  /// constructed handle is empty (valid() == false).
  class Snapshot : public ShardedCore<SynthesizedRelation>::Snapshot {
  public:
    Snapshot() = default;

    /// Newest commit ticket included in this snapshot: every commit
    /// with ticket <= ticket() is visible, none above it.
    uint64_t ticket() const { return Ticket; }

    /// Streaming scan over the snapshot — the sequential fan-out shape
    /// of ConcurrentRelation::scanFrames, but lock-free and immune to
    /// concurrent writers.
    void scanFrames(const Tuple &Pattern, ColumnSet OutputCols,
                    function_ref<bool(const BindingFrame &)> Fn) const;

    /// α of the snapshot: the union of the pinned shard relations.
    Relation toRelation() const;

    /// Live NodeInstances across the pinned shards.
    size_t liveInstances() const;

  private:
    friend class ConcurrentRelation;
    using Base = ShardedCore<SynthesizedRelation>::Snapshot;
    Snapshot(Base Pinned, uint64_t Ticket)
        : Base(std::move(Pinned)), Ticket(Ticket) {}
    uint64_t Ticket = 0;
  };

  /// Acquires a consistent snapshot: one brief all-stripe SHARED
  /// acquisition (writers excluded, readers admitted) covers pinning
  /// the N shards, the commit ticket, and the size — O(shards) work,
  /// no per-tuple work under any lock. The returned handle is
  /// self-contained; serialization/extraction happens against it with
  /// no facade locks held, while commits keep flowing (the first write
  /// to each pinned shard pays a one-time COW clone of that shard).
  Snapshot snapshot() const;

  //===--------------------------------------------------------------------===
  // Introspection (tests, benches).
  //===--------------------------------------------------------------------===

  /// α(d): the union of the shard relations — a globally consistent
  /// snapshot even while writers run. Implemented as snapshot()
  /// followed by lock-free extraction from the pinned handle, so the
  /// stripes are held only for the O(shards) pointer grab, not the
  /// O(n) extraction.
  Relation toRelation() const;

  /// Live NodeInstances across shards (leak checks).
  size_t liveInstances() const;

  /// Allocator counters of shard \p I's private slab arena, read
  /// through the shard's guarded read path (the shard pointer itself is
  /// COW-swapped by writers). ArenaStats fields are relaxed atomics
  /// underneath, so the numbers are a moving target; quiesce for
  /// exactness.
  ArenaStats shardArenaStats(unsigned I) const {
    assert(I < numShards() && "shard index out of range");
    return Core.read(I, [](const SynthesizedRelation &Sh) {
      return Sh.arenaStats();
    });
  }

  /// Sum of every shard's arena counters (server stats / memory
  /// accounting). Same consistency caveat as shardArenaStats.
  ArenaStats arenaStats() const {
    ArenaStats Total;
    for (unsigned I = 0; I != numShards(); ++I) {
      ArenaStats A = shardArenaStats(I);
      Total.Slabs += A.Slabs;
      Total.Bytes += A.Bytes;
      Total.Live += A.Live;
      Total.Recycled += A.Recycled;
    }
    return Total;
  }

  /// Profiling-guided replanning of every shard against its own live
  /// fanouts, under all writer locks (no reader may hold a plan).
  void reoptimize();

  /// True if the decomposition has a query plan for this shape (every
  /// shard plans alike). Checked inside shard 0's guarded read, so it
  /// never races a writer swapping that shard.
  bool hasPlanFor(ColumnSet InputCols, ColumnSet OutputCols) const;

  /// Direct shard access for tests and benches. The caller is
  /// responsible for exclusion (e.g. after joining all worker
  /// threads); the facade's locks are not taken.
  const SynthesizedRelation &shard(unsigned I) const { return Core.shard(I); }

private:
  size_t updateRehoming(const Tuple &Pattern, const Tuple &Changes);

  /// Applies \p Values to \p Old, the tuple of shard \p Owner matching
  /// key pattern \p Key, inside an all-stripe write scope: in place
  /// when the merged tuple stays home, else migrated to its new owner
  /// (remove + reinsert). Returns the number of tuples changed.
  size_t rehome(unsigned Owner, const Tuple &Key, const Tuple &Old,
                const Tuple &Values);

  /// Body() inside the write scope \p Plan names: every stripe, or
  /// exactly Plan.Stripes.
  template <typename BodyT>
  decltype(auto) underPlan(const TxLockPlan &Plan, BodyT &&Body);

  /// The single shard a transact op touches, or nullopt when it must
  /// run under every stripe: its pattern misses the shard column, it
  /// may rewrite the shard column (migration), or — for insert-like
  /// ops — an FD's left-hand side misses the shard column, so the
  /// conflict probe itself cannot be confined to one shard.
  std::optional<unsigned> txRoutedShard(const TxOp &Op) const;

  /// Applies the batch inside a write scope holding every stripe in
  /// \p Scope exclusively (Scope lists all stripes for fan-out
  /// batches) and stamps the commit ticket; the scope moves the size
  /// counter.
  TxResult transactLocked(const std::vector<TxOp> &Ops,
                          const std::vector<unsigned> &Scope);

  ShardRouter Router;
  /// The facade's own immutable copy of the decomposition: the source
  /// for spec()/catalog()/decomp(), readable without any lock.
  Decomposition Proto;
  ShardedCore<SynthesizedRelation> Core;
  /// Monotone commit tickets for transact (see TxResult::Ticket).
  std::atomic<uint64_t> TxTickets{1};
  /// Durability hook (setCommitHook) and the mutex making ticket draw
  /// + hook call one atomic step, so hook order == ticket order.
  CommitHook Hook;
  std::mutex HookMu;
  /// True if every FD's left-hand side contains the shard column, so
  /// every conflict probe for a tuple lands in that tuple's own shard
  /// and routed transact ops can validate FDs shard-locally.
  bool FdProbesRoute;
};

} // namespace relc

#endif // RELC_CONCURRENT_CONCURRENTRELATION_H
