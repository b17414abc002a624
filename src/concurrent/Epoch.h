//===- concurrent/Epoch.h - Epoch-based read-side protection ------*- C++ -*-=//
//
// Epoch-based reclamation (EBR) in the classic three-epoch scheme
// (Fraser; McKenney's RCU recipes): readers enter a cheap read-side
// critical section by publishing "active at epoch E" into a
// cache-line-padded per-thread participant slot; writers either wait
// for the read-side sections that overlap a mutation (EpochWriterFence)
// or hand replaced nodes to a retire list that defers destruction until
// every participant has advanced at least two epochs past the retiring
// one.
//
// The read path does no shared read-modify-write: entering a section is
// one seq_cst store to the thread's own slot plus one seq_cst load of
// the writer gate. The store-load pairing with the writer's seq_cst
// gate-store / slot-load (a Dekker handshake) guarantees that in every
// execution either the writer observes the reader's section and waits
// for it to exit, or the reader observes the writer's gate and falls
// back to the stripe lock. Both outcomes carry a happens-before edge
// (release slot-store -> acquire slot-load, or the mutex handoff), so
// the protocol is clean under ThreadSanitizer as well as the memory
// model.
//
// Guard discipline (see docs/CONCURRENCY.md):
//  - EpochGuard sections must not block on locks, queue backpressure,
//    or I/O: a stalled section stalls every writer fence that covers
//    its tag.
//  - A thread must not mutate a relation from inside its own section
//    covering that relation's gate (the writer fence would wait for the
//    thread's own slot: self-deadlock). Nested *read* sections are
//    allowed; a nested section with a different tag widens the slot to
//    the wildcard so every fence waits for it.
//
//===----------------------------------------------------------------------===//

#ifndef RELC_CONCURRENT_EPOCH_H
#define RELC_CONCURRENT_EPOCH_H

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace relc {

/// Per-shard writer gate. Readers poll `writerActive()` right after
/// entering their section; writers raise it (under the exclusive
/// stripe lock) for the duration of a mutation via EpochWriterFence.
/// alignas keeps gates of adjacent shards off each other's cache line.
struct alignas(64) EpochGate {
  std::atomic<uint32_t> Writer{0};

  /// seq_cst: the load half of the Dekker handshake with the writer's
  /// gate store (see the file comment).
  bool writerActive() const {
    return Writer.load(std::memory_order_seq_cst) != 0;
  }
};

/// Process-wide epoch state: the participant slot table, the global
/// epoch counter, and the retire lists. One instance per process
/// (`EpochManager::global()`); every ConcurrentRelation and every
/// generated facade shares it, which is what lets a single writer
/// fence drain readers of any relation by tag.
class EpochManager {
public:
  /// Participant slots are claimed per thread on first use and
  /// released (for reuse by later threads) at thread exit.
  static constexpr size_t MaxParticipants = 1024;

  static EpochManager &global();

  /// Sentinel tag: a section entered with the wildcard (or widened to
  /// it by mismatched nesting) is waited on by every writer fence.
  static const void *wildcardTag() { return &WildcardByte; }

  /// Enter/exit a read-side critical section on the calling thread.
  /// Tag identifies what the section reads (the address of the shard's
  /// EpochGate by convention); nullptr means wildcard. Sections nest.
  void enter(const void *Tag);
  void exit();

  /// True while the calling thread is inside a section (any depth).
  bool inSection() const;

  /// Wait until no participant is inside a read-side section that (a)
  /// was entered before this call and (b) has a tag matching one of
  /// Tags or the wildcard. NumTags == 0 waits for every active
  /// section. Callers must hold whatever lock prevents *new* matching
  /// sections from doing harm (the exclusive stripe lock: new sections
  /// see the raised gate and fall back to that same lock).
  void synchronize(const void *const *Tags, size_t NumTags);
  void synchronizeAll() { synchronize(nullptr, 0); }

  /// Defer `Del(P)` until every participant has moved two epochs past
  /// the current one. Safe to call from any thread, inside or outside
  /// a section. Periodically advances the epoch and reclaims as a side
  /// effect, so callers need no explicit collection loop.
  void retire(void *P, void (*Del)(void *));

  template <class T> static void deleteErased(void *P) {
    delete static_cast<T *>(P);
  }
  template <class T> void retireObject(T *P) {
    retire(P, &deleteErased<T>);
  }

  uint64_t globalEpoch() const {
    return GlobalEpoch.load(std::memory_order_acquire);
  }

  /// Advance the global epoch if every active participant has observed
  /// the current one. Returns true on advance.
  bool tryAdvance();

  /// Free every retired entry whose grace period has elapsed (calling
  /// thread's list plus orphans from exited threads). Returns the
  /// number destroyed.
  size_t reclaim();

  /// Test/shutdown helper: advance + reclaim until nothing reclaimable
  /// remains. With no active sections this frees everything retired.
  void flush();

  /// Approximate count of retired-but-not-yet-destroyed entries across
  /// all lists (test hook; racy by nature).
  size_t pendingRetired() const;

  /// Number of participant slots ever claimed (test hook).
  size_t participantHighWater() const {
    return HighWater.load(std::memory_order_acquire);
  }

  /// Per-thread state (slot index, nesting depth, retire list).
  /// Defined in Epoch.cpp; public only so the thread_local instance
  /// can be defined at namespace scope there.
  struct Handle;

private:
  EpochManager();
  ~EpochManager();
  EpochManager(const EpochManager &) = delete;
  EpochManager &operator=(const EpochManager &) = delete;

  struct alignas(64) Slot {
    /// (sequence << 1) | active. The sequence distinguishes successive
    /// sections so a fence can wait "for this section to end" without
    /// missing an exit-and-reenter.
    std::atomic<uint64_t> State{0};
    /// Epoch the section pinned at entry (valid while active).
    std::atomic<uint64_t> Epoch{0};
    /// Tag of the (outermost) section; wildcardTag() when widened.
    std::atomic<const void *> Tag{nullptr};
    /// Slot ownership: claimed by a live thread.
    std::atomic<uint32_t> Claimed{0};
  };

  struct Retired {
    void *Ptr;
    void (*Del)(void *);
    uint64_t Epoch;
    Retired *Next;
  };

  /// Per-thread retire list: FIFO so a parent retired before its
  /// children is also destroyed before them (NodeInstance destructors
  /// unlink child hooks, so child memory must outlive the parent's
  /// destructor call).
  struct RetireList {
    Retired *Head = nullptr;
    Retired **Tail = &Head;
    size_t Count = 0;
  };

  friend struct Handle;

  Handle &handle();
  Slot &claimSlot(Handle &H);
  void releaseSlot(Handle &H);
  size_t reclaimList(RetireList &L, uint64_t SafeEpoch);
  void adoptOrphan(RetireList &&L);

  static const char WildcardByte;

  Slot Slots[MaxParticipants];
  std::atomic<uint64_t> GlobalEpoch{2};
  std::atomic<size_t> HighWater{0};
  /// Orphaned retire lists from exited threads, spliced under a mutex
  /// in the .cpp (kept opaque here to avoid a <mutex> include in this
  /// widely-included header).
  void *OrphansOpaque = nullptr;
};

/// RAII read-side critical section on the global manager.
class EpochGuard {
public:
  explicit EpochGuard(const void *Tag = nullptr) {
    EpochManager::global().enter(Tag);
  }
  ~EpochGuard() { EpochManager::global().exit(); }
  EpochGuard(const EpochGuard &) = delete;
  EpochGuard &operator=(const EpochGuard &) = delete;
};

/// RAII writer-side fence over one or more gates. Construction raises
/// each gate (seq_cst) and then waits out every read-side section
/// tagged with one of the gates (or the wildcard); destruction lowers
/// the gates with release stores so the next wait-free reader observes
/// the mutation. Must be constructed with the corresponding exclusive
/// stripe lock(s) already held — the lock is what new readers fall
/// back to, and it is also what serializes fences on the same gate.
class EpochWriterFence {
public:
  /// Up to this many gates the fence waits only for sections tagged
  /// with one of them; a wider fence waits out every active section.
  static constexpr size_t MaxGates = 64;

  explicit EpochWriterFence(EpochGate &G) : EpochWriterFence(&G, OneIdx, 1) {}
  /// Gates[Idx[0..N)], any N. \p Idx must outlive the fence: the
  /// destructor lowers the same gates.
  EpochWriterFence(EpochGate *Gates, const unsigned *Idx, size_t N);
  ~EpochWriterFence();
  EpochWriterFence(const EpochWriterFence &) = delete;
  EpochWriterFence &operator=(const EpochWriterFence &) = delete;

private:
  static const unsigned OneIdx[1];
  EpochGate *Gates;
  const unsigned *Idx;
  size_t N;
};

} // namespace relc

#endif // RELC_CONCURRENT_EPOCH_H
