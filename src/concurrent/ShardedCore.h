//===- concurrent/ShardedCore.h - The sharding protocol, once ---*- C++ -*-===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ShardedCore<ShardT>: the sharding protocol both thread-safe facades
/// run on — the interpreted ConcurrentRelation (ShardT =
/// SynthesizedRelation) and every relc-generated `<Class>_concurrent`
/// (ShardT = the generated class). It is perfbook's partitioning-plus-
/// RCU recipe: N shard instances, one reader-writer stripe per shard
/// (StripedLock.h), one epoch gate per shard (Epoch.h), a pin counter
/// per shard-state generation for copy-on-write snapshots, and the
/// relation-wide size counter. Facades add only routing (which shards
/// an operation touches) and the typed per-method bodies.
///
///  - read(S, Body): runs Body on shard S inside an epoch section
///    tagged with S's gate — wait-free, no shared read-modify-write —
///    unless a writer holds that gate; then under the stripe's reader
///    lock. Body must not block or call back into the facade.
///  - writeOne / writeSet / writeAll: take one stripe, an ascending
///    stripe set, or every stripe exclusively, raise the matching
///    fence (which drains overlapping wait-free readers), run Body, and
///    move the size counter by the covered shards' net size change —
///    all before the stripes are released, so snapshot() never sees
///    the shards and the counter disagree. Inside a write scope,
///    writable(S) is the only mutable path to a covered shard and
///    shard(S) reads it.
///  - writable(S): the copy-on-write gate. An unpinned shard is
///    mutated in place; a shard pinned by a Snapshot is cloned through
///    ShardHooks<ShardT>::clone, and the frozen original is retired
///    through the process EpochManager.
///  - snapshot(): a consistent, immutable view in O(shards) under one
///    brief all-stripe shared hold; clear(): empties every shard,
///    replacing (not resetting) pinned ones.
///  - scanParallel: the pooled fan-out scan — one ScanPool task per
///    shard under its reader lock, rows crossing a bounded merge queue
///    in chunks.
///
/// docs/CONCURRENCY.md has the lock order and visibility guarantees.
/// Header-only and C++17, so relc-generated headers compile standalone.
///
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_SHARDEDCORE_H
#define RELC_CONCURRENT_SHARDEDCORE_H

#include "concurrent/BoundedQueue.h"
#include "concurrent/Epoch.h"
#include "concurrent/ScanPool.h"
#include "concurrent/StripedLock.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace relc {

/// The per-shard-type hooks of ShardedCore's copy-on-write slow paths.
/// The primary template fits relc-generated shard classes: default-
/// constructible, with scanRows/insert over every column in ascending
/// order. ConcurrentRelation.h specializes it for SynthesizedRelation.
template <typename ShardT> struct ShardHooks {
  /// A fresh, empty instance of the relation the argument holds.
  static std::shared_ptr<ShardT> emptyLike(const ShardT &) {
    return std::make_shared<ShardT>();
  }
  /// A fresh instance holding \p Cur's tuples (the one-time cost of
  /// the first write to a pinned shard).
  static std::shared_ptr<ShardT> clone(const ShardT &Cur) {
    std::shared_ptr<ShardT> Fresh = emptyLike(Cur);
    Cur.scanRows([&](auto... Row) { Fresh->insert(Row...); });
    return Fresh;
  }
  /// Called on a frozen generation as it is swapped out and retired.
  static void retire(ShardT &) {}
};

template <typename ShardT> class ShardedCore {
  /// One shard-state generation: the instance and the count of
  /// Snapshot handles pinning it. A COW swap installs a fresh pair, so
  /// handles keep the counter of the generation they pinned. The
  /// counter rides a shared_ptr because handles may outlive the core.
  template <typename T> struct Generation {
    std::shared_ptr<T> State;
    std::shared_ptr<std::atomic<size_t>> Pins;
  };

public:
  /// Merge-queue capacity (rows) of scanParallel unless overridden.
  static constexpr size_t DefaultScanQueueRows = 1024;

  /// A refcounted, immutable, globally consistent view of every shard,
  /// acquired by snapshot() in O(shards) with no data copy. Reads
  /// against it take no locks. Copies share the pinned generations;
  /// dropping the last handle releases them (the core already retired
  /// its own references at clone time). A default-constructed handle
  /// is empty (valid() == false).
  class Snapshot {
  public:
    Snapshot() = default;
    /// A copy pins what its source pins. Only snapshot() moves a count
    /// from 0 to 1 (under the all-stripe shared hold writers are
    /// excluded by); a copy increments a count its source keeps >= 1,
    /// so relaxed suffices.
    Snapshot(const Snapshot &O) : Pinned(O.Pinned), Count(O.Count) {
      for (const Generation<const ShardT> &G : Pinned)
        G.Pins->fetch_add(1, std::memory_order_relaxed);
    }
    Snapshot &operator=(const Snapshot &O) {
      if (this != &O) {
        Snapshot Tmp(O);
        *this = std::move(Tmp);
      }
      return *this;
    }
    /// Vector moves leave the source empty: a moved-from handle holds
    /// no pins and its destructor is a no-op.
    Snapshot(Snapshot &&O) noexcept = default;
    Snapshot &operator=(Snapshot &&O) noexcept {
      if (this != &O) {
        unpinAll();
        Pinned = std::move(O.Pinned);
        Count = O.Count;
        O.Pinned.clear();
      }
      return *this;
    }
    ~Snapshot() { unpinAll(); }

    bool valid() const { return !Pinned.empty(); }
    unsigned numShards() const {
      return static_cast<unsigned>(Pinned.size());
    }
    /// Tuples across the pinned shards, exact: counted under the same
    /// hold that pinned them.
    size_t size() const { return Count; }
    bool empty() const { return Count == 0; }
    /// Pinned shard \p I: immutable, readable from any thread.
    const ShardT &shard(unsigned I) const {
      assert(I < Pinned.size() && "shard index out of range");
      return *Pinned[I].State;
    }
    /// Visits every row (ascending column order), shard by shard — for
    /// shard types with scanRows (relc-generated classes).
    template <typename FnT> void scanRows(FnT &&Emit) const {
      for (const Generation<const ShardT> &G : Pinned)
        G.State->scanRows(Emit);
    }

  private:
    friend class ShardedCore;
    /// Release decrements pair with writable()'s acquire probe: a
    /// writer that reads zero happens-after every read this handle
    /// made of the pinned state.
    void unpinAll() {
      for (const Generation<const ShardT> &G : Pinned)
        G.Pins->fetch_sub(1, std::memory_order_release);
    }
    std::vector<Generation<const ShardT>> Pinned;
    size_t Count = 0;
  };

  /// \p NumShards default-constructed shards (relc-generated types).
  explicit ShardedCore(unsigned NumShards)
      : ShardedCore(NumShards, [] { return std::make_shared<ShardT>(); }) {}

  /// \p NumShards shards, each from Make() (a shared_ptr<ShardT>).
  /// \p ScanQueueRows bounds scanParallel's merge queue in rows.
  template <typename MakeT>
  ShardedCore(unsigned NumShards, MakeT &&Make,
              size_t ScanQueueRows = DefaultScanQueueRows)
      : Locks(NumShards), Gates(std::make_unique<EpochGate[]>(NumShards)),
        AllIdx(NumShards), ScanQueueRows(ScanQueueRows) {
    Live.reserve(NumShards);
    for (unsigned S = 0; S != NumShards; ++S) {
      AllIdx[S] = S;
      Live.push_back({Make(), std::make_shared<std::atomic<size_t>>(0)});
    }
  }

  ShardedCore(const ShardedCore &) = delete;
  ShardedCore &operator=(const ShardedCore &) = delete;

  unsigned numShards() const { return static_cast<unsigned>(Live.size()); }

  /// Lock-free; exact whenever it does not race a mutation.
  size_t size() const { return Count.load(std::memory_order_relaxed); }

  /// The live instance of shard \p S, unsynchronized: valid inside a
  /// write scope covering S, or when the caller excludes writers some
  /// other way (tests and benches, after joining their threads).
  const ShardT &shard(unsigned S) const { return *Live[S].State; }

  //===--------------------------------------------------------------------===
  // Reads.
  //===--------------------------------------------------------------------===

  /// Runs Body(const ShardT &) on shard \p S and returns its result:
  /// inside an epoch section tagged with S's gate when no writer holds
  /// the gate, else under S's reader lock. The epoch attempt is
  /// abandoned before Body starts, so Body runs exactly once.
  template <typename BodyT>
  decltype(auto) read(unsigned S, BodyT &&Body) const {
    {
      EpochGuard Guard(&Gates[S]);
      if (!Gates[S].writerActive())
        return Body(shard(S));
    }
    auto Lock = Locks.shared(S);
    return Body(shard(S));
  }

  /// The pooled parallel fan-out scan. One ScanPool task per shard
  /// calls ScanShard(const ShardT &, Push) under that shard's reader
  /// lock — not an epoch section: a task blocks on queue backpressure,
  /// which a read-side section must never do. Push(RowT) queues a row
  /// and returns false once the consumer stopped. Rows cross the
  /// bounded merge queue in chunks (one mutex round trip per chunk, not
  /// per row); Sink(const RowT &) runs on the calling thread and
  /// returns false to stop. Sink must not call back into the facade.
  template <typename RowT, typename ScanT, typename SinkT>
  void scanParallel(ScanT &&ScanShard, SinkT &&Sink) const {
    using Chunk = std::vector<RowT>;
    constexpr size_t ChunkRows = 128;
    BoundedQueue<Chunk> Queue(std::max<size_t>(ScanQueueRows / ChunkRows, 2),
                              numShards());
    ScanPool::TaskGroup Tasks(ScanPool::global());
    for (unsigned S = 0; S != numShards(); ++S)
      Tasks.submit([&, S] {
        Chunk C;
        C.reserve(ChunkRows);
        bool Open = true;
        {
          auto Lock = Locks.shared(S);
          ScanShard(shard(S), [&](auto &&Row) {
            C.push_back(std::forward<decltype(Row)>(Row));
            if (C.size() == ChunkRows) {
              // push fails only after close(): the consumer stopped.
              Open = Queue.push(std::move(C));
              C.clear();
              C.reserve(ChunkRows);
            }
            return Open;
          });
        }
        if (Open && !C.empty())
          Queue.push(std::move(C));
        Queue.producerDone();
      });
    Chunk Rows;
    bool Stopped = false;
    while (!Stopped && Queue.pop(Rows)) {
      for (const RowT &Row : Rows) {
        if (!Sink(Row)) {
          Stopped = true;
          Queue.close();
          break;
        }
      }
    }
    // Tasks reference Queue and the caller's captures: they must
    // finish before this frame unwinds.
    Tasks.wait();
  }

  //===--------------------------------------------------------------------===
  // Write scopes. Each returns Body's result.
  //===--------------------------------------------------------------------===

  /// Body() under stripe \p S alone.
  template <typename BodyT>
  decltype(auto) writeOne(unsigned S, BodyT &&Body) {
    auto Lock = Locks.exclusive(S);
    EpochWriterFence Fence(Gates[S]);
    SizeTally Tally(*this, &S, 1);
    return Body();
  }

  /// Body() under the stripes in \p Stripes (any order, duplicates
  /// allowed), acquired ascending — the growing phase of two-phase
  /// locking.
  template <typename BodyT>
  decltype(auto) writeSet(std::vector<unsigned> Stripes, BodyT &&Body) {
    ShardSetGuard Guard(Locks, std::move(Stripes));
    const std::vector<unsigned> &Held = Guard.stripes();
    EpochWriterFence Fence(Gates.get(), Held.data(), Held.size());
    SizeTally Tally(*this, Held.data(), Held.size());
    return Body();
  }

  /// Body() under every stripe (fan-out mutations).
  template <typename BodyT> decltype(auto) writeAll(BodyT &&Body) {
    AllShardsGuard Guard(Locks);
    EpochWriterFence Fence(Gates.get(), AllIdx.data(), AllIdx.size());
    SizeTally Tally(*this, AllIdx.data(), AllIdx.size());
    return Body();
  }

  /// The copy-on-write gate every mutation goes through; the caller is
  /// inside a write scope covering \p S. With no snapshot pinning the
  /// live generation this is the live instance — the steady-state fast
  /// path. Otherwise the instance is cloned, the frozen original
  /// retired, and the clone swapped in with a fresh pin counter.
  /// The probe is sound and race-free: the 0 -> 1 transition happens
  /// only under snapshot()'s all-stripe shared hold (excluded by our
  /// exclusive stripe), copies increment counts their source keeps
  /// >= 1, and drops decrement with release order — so the acquire
  /// load reading zero happens-after every read a dropped handle made
  /// (an edge a relaxed shared_ptr::use_count probe would not give). A
  /// drop racing the load at worst costs a spurious clone.
  ShardT &writable(unsigned S) {
    Generation<ShardT> &G = Live[S];
    if (G.Pins->load(std::memory_order_acquire) != 0)
      replace(S, ShardHooks<ShardT>::clone(*G.State));
    return *G.State;
  }

  /// Empties every shard under every stripe. Pinned shards need no
  /// O(shard) clone: the post-clear state is empty, so a fresh
  /// instance replaces them directly.
  void clear() {
    writeAll([&] {
      for (unsigned S = 0; S != numShards(); ++S) {
        Generation<ShardT> &G = Live[S];
        if (G.Pins->load(std::memory_order_acquire) == 0)
          G.State->clear();
        else
          replace(S, ShardHooks<ShardT>::emptyLike(*G.State));
      }
    });
  }

  //===--------------------------------------------------------------------===
  // Snapshots.
  //===--------------------------------------------------------------------===

  /// Acquires a consistent snapshot: under one brief all-stripe SHARED
  /// hold (writers excluded, readers admitted) the live generations are
  /// pinned, the size read, and \p UnderHold() run — for facade state
  /// that must be cut at the same point, such as a commit ticket. No
  /// per-tuple work happens under the locks; the first write to each
  /// pinned shard afterwards pays its one-time clone.
  template <typename UnderHoldT>
  Snapshot snapshot(UnderHoldT &&UnderHold) const {
    AllShardsGuard Guard(Locks, AllShardsGuard::Shared);
    Snapshot Snap;
    Snap.Pinned.reserve(Live.size());
    for (const Generation<ShardT> &G : Live) {
      // The only 0 -> 1 transition: writers are excluded by the shared
      // hold, so relaxed suffices — the edge writers need comes from
      // the handle's release decrement.
      G.Pins->fetch_add(1, std::memory_order_relaxed);
      Snap.Pinned.push_back({G.State, G.Pins});
    }
    Snap.Count = size();
    UnderHold();
    return Snap;
  }
  Snapshot snapshot() const {
    return snapshot([] {});
  }

private:
  /// Moves Count by the net size change of shards Idx[0..N) between
  /// construction and destruction. Declared inside each write scope,
  /// so it settles while the stripes are still held. A COW swap in
  /// between is invisible to it: a clone has its original's size.
  class SizeTally {
  public:
    SizeTally(ShardedCore &C, const unsigned *Idx, size_t N)
        : C(C), Idx(Idx), N(N), Before(sum()) {}
    ~SizeTally() {
      size_t After = sum();
      if (After > Before)
        C.Count.fetch_add(After - Before, std::memory_order_relaxed);
      else if (After < Before)
        C.Count.fetch_sub(Before - After, std::memory_order_relaxed);
    }
    SizeTally(const SizeTally &) = delete;
    SizeTally &operator=(const SizeTally &) = delete;

  private:
    size_t sum() const {
      size_t Sum = 0;
      for (size_t I = 0; I != N; ++I)
        Sum += C.shard(Idx[I]).size();
      return Sum;
    }
    ShardedCore &C;
    const unsigned *Idx;
    size_t N;
    size_t Before;
  };

  /// Swaps \p Fresh into slot \p S as a new, unpinned generation and
  /// retires the old one: its state is destroyed once the epoch grace
  /// period has passed AND the last snapshot handle pinning it drops.
  void replace(unsigned S, std::shared_ptr<ShardT> Fresh) {
    Generation<ShardT> &G = Live[S];
    ShardHooks<ShardT>::retire(*G.State);
    EpochManager::global().retireObject(
        new std::shared_ptr<ShardT>(std::move(G.State)));
    G.State = std::move(Fresh);
    G.Pins = std::make_shared<std::atomic<size_t>>(0);
  }

  StripedLockSet Locks;
  /// One writer gate per shard for the epoch read path.
  std::unique_ptr<EpochGate[]> Gates;
  /// 0..NumShards-1: the all-stripe fence's gate indices.
  std::vector<unsigned> AllIdx;
  /// The live generations. Each slot is read or written only under its
  /// stripe / gate discipline, never concurrently with its swap.
  std::vector<Generation<ShardT>> Live;
  std::atomic<size_t> Count{0};
  size_t ScanQueueRows;
};

} // namespace relc

#endif // RELC_CONCURRENT_SHARDEDCORE_H
