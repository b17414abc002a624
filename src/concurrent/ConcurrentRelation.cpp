//===- concurrent/ConcurrentRelation.cpp - Sharded thread-safe facade --------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "concurrent/ConcurrentRelation.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

using namespace relc;

std::shared_ptr<SynthesizedRelation>
ShardHooks<SynthesizedRelation>::make(const Decomposition &D) {
  auto S = std::make_shared<SynthesizedRelation>(Decomposition(D));
  S->enableConcurrentReads();
  S->enableDeferredReclamation();
  return S;
}

std::shared_ptr<SynthesizedRelation>
ShardHooks<SynthesizedRelation>::clone(const SynthesizedRelation &Cur) {
  std::shared_ptr<SynthesizedRelation> Fresh = emptyLike(Cur);
  ColumnSet All = Cur.catalog().allColumns();
  Cur.scanFrames(Tuple(), All, [&](const BindingFrame &F) {
    [[maybe_unused]] bool Ins = Fresh->insert(F.toTuple(All));
    assert(Ins && "shard clone re-inserted a duplicate");
    return true;
  });
  return Fresh;
}

ConcurrentRelation::ConcurrentRelation(const Decomposition &D,
                                       ConcurrentOptions Opts)
    : Router(Opts.ShardColumn ? *Opts.ShardColumn
                              : ShardRouter::defaultShardColumn(D),
             Opts.NumShards),
      Proto(D),
      Core(
          Opts.NumShards,
          [&] { return ShardHooks<SynthesizedRelation>::make(Proto); },
          Opts.ScanQueueCapacity) {
  assert(Router.shardColumn() < D.catalog().size() &&
         "shard column is not a column of the relation");
  FdProbesRoute = true;
  for (const FuncDep &Fd : D.spec()->fds().deps())
    FdProbesRoute &= Fd.Lhs.contains(Router.shardColumn());
}

template <typename BodyT>
decltype(auto) ConcurrentRelation::underPlan(const TxLockPlan &Plan,
                                             BodyT &&Body) {
  // The all-stripes and stripe-set scopes share the ascending
  // acquisition order, so mixed transactions cannot deadlock.
  if (Plan.AllShards)
    return Core.writeAll(Body);
  return Core.writeSet(Plan.Stripes, Body);
}

bool ConcurrentRelation::insert(const Tuple &T) {
  unsigned S = Router.shardOf(T);
  return Core.writeOne(S, [&] { return Core.writable(S).insert(T); });
}

size_t ConcurrentRelation::remove(const Tuple &Pattern) {
  // Each shard is probed before the COW gate: a miss must not clone a
  // pinned shard.
  if (Router.routes(Pattern.columns())) {
    unsigned S = Router.shardOf(Pattern);
    return Core.writeOne(S, [&]() -> size_t {
      return Core.shard(S).contains(Pattern) ? Core.writable(S).remove(Pattern)
                                             : 0;
    });
  }
  return Core.writeAll([&] {
    size_t Removed = 0;
    for (unsigned S = 0; S != numShards(); ++S)
      if (Core.shard(S).contains(Pattern))
        Removed += Core.writable(S).remove(Pattern);
    return Removed;
  });
}

size_t ConcurrentRelation::update(const Tuple &Pattern, const Tuple &Changes) {
  assert(!Pattern.columns().intersects(Changes.columns()) &&
         "update changes must be disjoint from the pattern");
  if (Changes.has(Router.shardColumn()))
    return updateRehoming(Pattern, Changes);
  if (Router.routes(Pattern.columns())) {
    unsigned S = Router.shardOf(Pattern);
    return Core.writeOne(S, [&]() -> size_t {
      return Core.shard(S).contains(Pattern)
                 ? Core.writable(S).update(Pattern, Changes)
                 : 0;
    });
  }
  // The pattern is a key, so at most one shard holds a match — but
  // without the shard column which one is unknown: take every writer
  // lock (ascending, per the lock order) and try each shard in turn.
  return Core.writeAll([&]() -> size_t {
    for (unsigned S = 0; S != numShards(); ++S) {
      if (!Core.shard(S).contains(Pattern))
        continue;
      if (size_t Updated = Core.writable(S).update(Pattern, Changes))
        return Updated;
    }
    return 0;
  });
}

size_t ConcurrentRelation::rehome(unsigned Owner, const Tuple &Key,
                                  const Tuple &Old, const Tuple &Values) {
  Tuple Merged = Old.merge(Values);
  unsigned Target = Router.shardOf(Merged);
  if (Target == Owner)
    return Core.writable(Owner).update(Key, Values);
  [[maybe_unused]] size_t Removed = Core.writable(Owner).remove(Old);
  assert(Removed == 1 && "matched tuple vanished during migration");
  // An FD-violating input can collide with a tuple already in the
  // target shard and make this insert a no-op; the write scope's size
  // tally follows the shards regardless.
  Core.writable(Target).insert(Merged);
  return 1;
}

size_t ConcurrentRelation::updateRehoming(const Tuple &Pattern,
                                          const Tuple &Changes) {
  // The changes rewrite the shard column (so, by disjointness, the
  // pattern does not bind it) and the tuple may change owners: locate
  // the matching tuple, then either update in place (same owner) or
  // migrate it (remove + reinsert), all under every writer lock.
  return Core.writeAll([&]() -> size_t {
    ColumnSet All = catalog().allColumns();
    for (unsigned I = 0; I != numShards(); ++I) {
      Tuple Old;
      bool Found = false;
      Core.shard(I).scanFrames(Pattern, All, [&](const BindingFrame &F) {
        Old = F.toTuple(All);
        Found = true;
        return false; // the pattern is a key: at most one match
      });
      if (Found)
        return rehome(I, Pattern, Old, Changes);
    }
    return 0;
  });
}

bool ConcurrentRelation::upsert(
    const Tuple &Key, function_ref<void(const BindingFrame *, Tuple &)> Fn) {
  // The routed path re-checks this inside SynthesizedRelation::upsert;
  // assert here too so the fan-out path catches non-key patterns.
  assert(spec()->fds().isKey(Key.columns(), spec()->columns()) &&
         "upsert pattern must be a key");
  if (Router.routes(Key.columns())) {
    // The common case the primitive exists for: the key owns its shard
    // (and, being disjoint from the key, the new values cannot rewrite
    // the shard column), so one writer lock linearizes the whole
    // read-modify-write cycle.
    unsigned S = Router.shardOf(Key);
    return Core.writeOne(S, [&] { return Core.writable(S).upsert(Key, Fn); });
  }
  // The key misses the shard column: the owner is unknown and the new
  // values may rewrite the shard column, migrating the tuple — the
  // same all-writer-locks discipline as updateRehoming.
  return Core.writeAll([&] {
    ColumnSet All = catalog().allColumns();
    ColumnSet Rest = All.minus(Key.columns());
    for (unsigned I = 0; I != numShards(); ++I) {
      Tuple Old, Values;
      bool Found = false;
      Core.shard(I).scanFrames(Key, Rest, [&](const BindingFrame &F) {
        Found = true;
        Old = F.toTuple(All);
        Fn(&F, Values);
        return false; // the pattern is a key: at most one match
      });
      if (!Found)
        continue;
      assert(Values.columns().subsetOf(Rest) &&
             "upsert values must not rebind key columns");
      if (!Values.empty())
        rehome(I, Key, Old, Values);
      return false;
    }
    Tuple Values;
    Fn(nullptr, Values);
    assert(Values.columns() == Rest &&
           "upsert must bind every non-key column when inserting");
    Tuple Full = Key.merge(Values);
    Core.writable(Router.shardOf(Full)).insert(Full);
    return true;
  });
}

std::optional<unsigned> ConcurrentRelation::txRoutedShard(const TxOp &Op) const {
  switch (Op.Op) {
  case TxOp::Insert:
    // Full tuples always bind the shard column; the op still fans out
    // when an FD probe cannot be confined to the owning shard.
    return FdProbesRoute ? std::optional<unsigned>(Router.shardOf(Op.A))
                         : std::nullopt;
  case TxOp::Remove:
    // Removal needs no FD probes: routable whenever the pattern is.
    if (Router.routes(Op.A.columns()))
      return Router.shardOf(Op.A);
    return std::nullopt;
  case TxOp::Update:
    if (Op.B.has(Router.shardColumn()))
      return std::nullopt; // may migrate the tuple between shards
    if (!Router.routes(Op.A.columns()) || !FdProbesRoute)
      return std::nullopt;
    return Router.shardOf(Op.A);
  case TxOp::Upsert:
    // A routed key contains the shard column, and upsert values are
    // disjoint from the key, so the new values cannot rewrite it.
    if (!Router.routes(Op.A.columns()) || !FdProbesRoute)
      return std::nullopt;
    return Router.shardOf(Op.A);
  }
  assert(false && "unknown TxOp kind");
  return std::nullopt;
}

ConcurrentRelation::TxLockPlan
ConcurrentRelation::transactLockPlan(const std::vector<TxOp> &Ops) const {
  TxLockPlan Plan;
  for (const TxOp &Op : Ops) {
    std::optional<unsigned> S = txRoutedShard(Op);
    if (!S) {
      Plan.AllShards = true;
      Plan.Stripes.clear();
      for (unsigned I = 0; I != Router.numShards(); ++I)
        Plan.Stripes.push_back(I);
      return Plan;
    }
    Plan.Stripes.push_back(*S);
  }
  std::sort(Plan.Stripes.begin(), Plan.Stripes.end());
  Plan.Stripes.erase(std::unique(Plan.Stripes.begin(), Plan.Stripes.end()),
                     Plan.Stripes.end());
  return Plan;
}

TxResult ConcurrentRelation::transact(const std::vector<TxOp> &Ops) {
  TxLockPlan Plan = transactLockPlan(Ops);
  return underPlan(Plan, [&] { return transactLocked(Ops, Plan.Stripes); });
}

TxResult ConcurrentRelation::transact(function_ref<void(TxBatch &)> Build) {
  TxBatch Tx;
  Build(Tx);
  return transact(Tx.ops());
}

TxResult ConcurrentRelation::transactKeys(
    const std::vector<Tuple> &Keys,
    function_ref<bool(std::vector<TxKeyView> &)> Fn) {
  assert(!Keys.empty() && "transactKeys needs at least one key");
  ColumnSet KeyCols = Keys.front().columns();
  assert(spec()->fds().isKey(KeyCols, spec()->columns()) &&
         "transactKeys patterns must form a key");
  for ([[maybe_unused]] const Tuple &K : Keys)
    assert(K.columns() == KeyCols &&
           "every transactKeys key must bind the same columns");
  ColumnSet Rest = catalog().allColumns().minus(KeyCols);

  // Lock footprint from upsert-shaped pseudo-ops: each key's eventual
  // write-back (update in place, or insert of key+values) routes to
  // the key's shard exactly when an upsert of that key would, so the
  // upsert plan covers every op transactLocked will see below.
  std::vector<TxOp> Pseudo;
  Pseudo.reserve(Keys.size());
  for (const Tuple &K : Keys)
    Pseudo.push_back(TxOp::upsert(K, [](const BindingFrame *, Tuple &) {}));
  TxLockPlan Plan = transactLockPlan(Pseudo);

  return underPlan(Plan, [&]() -> TxResult {
    // Phase 1 (read, all stripes held): resolve every key's current
    // values. Routed keys probe their owning shard; otherwise every
    // stripe is in Scope and all shards are searched.
    std::vector<TxKeyView> Views(Keys.size());
    for (size_t I = 0; I != Keys.size(); ++I) {
      TxKeyView &V = Views[I];
      auto Probe = [&](unsigned S) {
        Core.shard(S).scanFrames(Keys[I], Rest, [&](const BindingFrame &F) {
          V.Found = true;
          V.Values = F.toTuple(Rest);
          return false; // the pattern is a key: at most one match
        });
        return V.Found;
      };
      if (Router.routes(KeyCols)) {
        Probe(Router.shardOf(Keys[I]));
      } else {
        for (unsigned S = 0; S != numShards() && !Probe(S); ++S) {
        }
      }
    }

    // Phase 2: one callback over all views — the N-key read-modify-
    // write the generated transactN_by_<key> methods compile.
    std::vector<Tuple> Before;
    Before.reserve(Views.size());
    for (const TxKeyView &V : Views)
      Before.push_back(V.Values);
    if (!Fn(Views))
      return TxResult{false, Keys.size(), 0};

    // Phase 3 (write-back): one op per key that changed. Absent keys
    // must come back fully bound (conditional abort otherwise, as for
    // TxOp::upsert), found keys write a delta update.
    std::vector<TxOp> Ops;
    std::vector<size_t> OpKey; // op index -> key index, for FailedOp
    for (size_t I = 0; I != Keys.size(); ++I) {
      TxKeyView &V = Views[I];
      if (!V.Found) {
        if (V.Values.columns() != Rest)
          return TxResult{false, I, 0}; // under-bound insert: abort
        Ops.push_back(TxOp::insert(Keys[I].merge(V.Values)));
        OpKey.push_back(I);
        continue;
      }
      assert(V.Values.columns().subsetOf(Rest) &&
             "transactKeys values must not rebind key columns");
      if (V.Values == Before[I])
        continue; // untouched: no write for this key
      Ops.push_back(TxOp::update(Keys[I], V.Values));
      OpKey.push_back(I);
    }
    if (Ops.empty())
      // Read-only batch: nothing to apply, but still a committed unit;
      // draw its ticket while the stripes are held.
      return TxResult{true, 0,
                      TxTickets.fetch_add(1, std::memory_order_relaxed)};
    TxResult R = transactLocked(Ops, Plan.Stripes);
    if (!R.Committed)
      R.FailedOp = OpKey[R.FailedOp];
    return R;
  });
}

TxResult ConcurrentRelation::transactLocked(const std::vector<TxOp> &Ops,
                                            const std::vector<unsigned> &Scope) {
  ColumnSet All = catalog().allColumns();
  auto ScopeSize = [&] {
    size_t N = 0;
    for (unsigned S : Scope)
      N += Core.shard(S).size();
    return N;
  };
  [[maybe_unused]] size_t Before = ScopeSize();

  // One undo log across shards: (shard, inverse op), applied in
  // reverse on abort.
  std::vector<std::pair<unsigned, TxOp>> Undo;
  std::vector<TxOp> Tmp;

  // When a durability hook is armed, every applied op also derives its
  // REDO: the concrete state change, read off the undo delta the op
  // just produced (an inverse remove marks an insert of exactly that
  // tuple; an inverse insert marks a removal; an inverse update marks
  // an update whose new values are re-read from the live tuple). The
  // redo ops carry no callbacks — upserts resolve to the write they
  // performed — so they serialize byte-for-byte, and replaying them in
  // ticket order reproduces every intermediate state of the original
  // execution (which is why recovery replay can never abort).
  const bool HookArmed = static_cast<bool>(Hook);
  std::vector<TxOp> Redo;
  auto DeriveRedo = [&](const TxOp &Op, size_t UndoStart) {
    if (!HookArmed)
      return;
    for (size_t J = UndoStart; J != Undo.size(); ++J) {
      unsigned S = Undo[J].first;
      const TxOp &U = Undo[J].second;
      switch (U.Op) {
      case TxOp::Remove: // inverse of an insert of exactly U.A
        Redo.push_back(TxOp::insert(U.A));
        break;
      case TxOp::Insert: // inverse of a removal of exactly U.A
        Redo.push_back(TxOp::remove(U.A));
        break;
      case TxOp::Update: {
        // Inverse update: re-read the tuple for the values just
        // written (U.B holds the old ones over the same columns).
        Tuple Now;
        [[maybe_unused]] bool Found = false;
        Core.shard(S).scanFrames(Op.A, All, [&](const BindingFrame &F) {
          Now = F.toTuple(All);
          Found = true;
          return false; // the pattern is a key: at most one match
        });
        assert(Found && "updated tuple vanished before redo derivation");
        Redo.push_back(TxOp::update(Op.A, Now.project(U.B.columns())));
        break;
      }
      case TxOp::Upsert:
        assert(false && "upserts never appear in undo logs");
        break;
      }
    }
  };
  auto ApplyOn = [&](unsigned S, const TxOp &Op) {
    Tmp.clear();
    bool Ok = Core.writable(S).applyTxOp(Op, Tmp);
    for (TxOp &U : Tmp)
      Undo.emplace_back(S, std::move(U));
    return Ok;
  };
  // Cross-shard FD conflict check for the fan-out path. When probes
  // route, the owning shard sees every possible witness; otherwise
  // every stripe is held (fan-out mode) and all shards are consulted.
  auto Conflicts = [&](const Tuple &T, const Tuple *Exclude) {
    if (FdProbesRoute)
      return Core.shard(Router.shardOf(T)).insertConflictsFds(T, Exclude);
    for (unsigned S = 0; S != numShards(); ++S)
      if (Core.shard(S).insertConflictsFds(T, Exclude))
        return true;
    return false;
  };

  size_t Failed = Ops.size();
  for (size_t I = 0; I != Ops.size() && Failed == Ops.size(); ++I) {
    const TxOp &Op = Ops[I];
    size_t UndoStart = Undo.size();
    if (std::optional<unsigned> S = txRoutedShard(Op)) {
      // Routed: ownership confines matches — and, via FdProbesRoute,
      // conflict witnesses — to one shard, so the sequential engine's
      // per-shard apply is the whole story.
      if (!ApplyOn(*S, Op))
        Failed = I;
      else
        DeriveRedo(Op, UndoStart);
      continue;
    }
    // Fan-out: every stripe is held (the lock plan degraded to
    // AllShards the moment any op could not route).
    switch (Op.Op) {
    case TxOp::Insert: {
      assert(Op.A.columns() == All && "insert must bind every column");
      if (Conflicts(Op.A, nullptr)) {
        Failed = I;
        break;
      }
      // The global check already validated the FDs: mutate directly
      // rather than through applyTxOp, whose local re-check would
      // repeat every probe while all writer stripes are held.
      unsigned S = Router.shardOf(Op.A);
      if (Core.writable(S).insert(Op.A))
        Undo.emplace_back(S, TxOp::remove(Op.A));
      break;
    }
    case TxOp::Remove: {
      if (Router.routes(Op.A.columns())) {
        ApplyOn(Router.shardOf(Op.A), Op);
        break;
      }
      for (unsigned S = 0; S != numShards(); ++S)
        if (Core.shard(S).contains(Op.A)) // don't COW-clone a missed shard
          ApplyOn(S, Op);
      break;
    }
    case TxOp::Update: {
      assert(!Op.A.columns().intersects(Op.B.columns()) &&
             "update changes must be disjoint from the pattern");
      // The pattern is a key: at most one shard holds the match.
      Tuple Old;
      unsigned Owner = ~0u;
      for (unsigned S = 0; S != numShards() && Owner == ~0u; ++S)
        Core.shard(S).scanFrames(Op.A, All, [&](const BindingFrame &F) {
          Old = F.toTuple(All);
          Owner = S;
          return false;
        });
      if (Owner == ~0u)
        break; // no match: a committed no-op
      Tuple Merged = Old.merge(Op.B);
      if (Merged == Old)
        break;
      if (Conflicts(Merged, &Old)) {
        Failed = I;
        break;
      }
      unsigned Target = Router.shardOf(Merged);
      if (Target == Owner) {
        // Validated above; update in place without applyTxOp's
        // redundant re-scan and re-probe.
        [[maybe_unused]] size_t N = Core.writable(Owner).update(Op.A, Op.B);
        assert(N == 1 && "matched tuple vanished during update");
        Undo.emplace_back(Owner,
                          TxOp::update(Op.A, Old.project(Op.B.columns())));
        break;
      }
      // Migration inside the batch: remove + reinsert, two inverse
      // ops (reverse application restores the old home first... last).
      [[maybe_unused]] size_t Removed = Core.writable(Owner).remove(Old);
      assert(Removed == 1 && "matched tuple vanished during migration");
      Undo.emplace_back(Owner, TxOp::insert(Old));
      [[maybe_unused]] bool Ins = Core.writable(Target).insert(Merged);
      assert(Ins && "conflict-free migration insert must change");
      Undo.emplace_back(Target, TxOp::remove(std::move(Merged)));
      break;
    }
    case TxOp::Upsert: {
      assert((Op.Fn || Op.FnChecked) && "upsert op needs a callback");
      ColumnSet Rest = All.minus(Op.A.columns());
      Tuple Old, Values;
      unsigned Owner = ~0u;
      bool Vetoed = false;
      // The callback runs exactly once: inside the owner's scan (the
      // frame is live there), or on nullptr after every shard missed.
      for (unsigned S = 0; S != numShards() && Owner == ~0u; ++S)
        Core.shard(S).scanFrames(Op.A, Rest, [&](const BindingFrame &F) {
          Owner = S;
          Old = F.toTuple(All);
          Vetoed = !Op.runUpsertFn(&F, Values);
          return false;
        });
      if (Vetoed) {
        Failed = I; // checked callback refused: a defined abort
        break;
      }
      if (Owner == ~0u) {
        if (!Op.runUpsertFn(nullptr, Values)) {
          Failed = I;
          break;
        }
        if (Values.columns() != Rest) {
          Failed = I; // conditional abort: see TxOp::Fn
          break;
        }
        Tuple Full = Op.A.merge(Values);
        if (Conflicts(Full, nullptr)) {
          Failed = I;
          break;
        }
        unsigned Target = Router.shardOf(Full);
        [[maybe_unused]] bool Ins = Core.writable(Target).insert(Full);
        assert(Ins && "conflict-free upsert insert must change");
        Undo.emplace_back(Target, TxOp::remove(std::move(Full)));
        break;
      }
      assert(Values.columns().subsetOf(Rest) &&
             "upsert values must not rebind key columns");
      if (Values.empty())
        break;
      Tuple Merged = Old.merge(Values);
      if (Merged == Old)
        break;
      if (Conflicts(Merged, &Old)) {
        Failed = I;
        break;
      }
      unsigned Target = Router.shardOf(Merged);
      if (Target == Owner) {
        [[maybe_unused]] size_t N = Core.writable(Owner).update(Op.A, Values);
        assert(N == 1 && "matched tuple vanished during upsert");
        Undo.emplace_back(Owner,
                          TxOp::update(Op.A,
                                       Old.project(Values.columns())));
        break;
      }
      [[maybe_unused]] size_t Removed = Core.writable(Owner).remove(Old);
      assert(Removed == 1 && "matched tuple vanished during migration");
      Undo.emplace_back(Owner, TxOp::insert(Old));
      [[maybe_unused]] bool Ins = Core.writable(Target).insert(Merged);
      assert(Ins && "conflict-free migration insert must change");
      Undo.emplace_back(Target, TxOp::remove(std::move(Merged)));
      break;
    }
    }
    if (Failed == Ops.size())
      DeriveRedo(Op, UndoStart);
  }

  if (Failed != Ops.size()) {
    // Every undo entry names a shard the forward pass just mutated, so
    // writable() is a no-op pin check here — no clone can occur.
    for (size_t J = Undo.size(); J != 0; --J)
      Core.writable(Undo[J - 1].first).applyTxUndo(Undo[J - 1].second);
    assert(ScopeSize() == Before && "rollback did not restore the sizes");
    return TxResult{false, Failed, 0};
  }
  // The ticket is drawn while every touched stripe is still held (the
  // linearization point), so conflicting transactions — whose stripe
  // sets intersect — are ticketed in their serialization order. With a
  // durability hook armed, the draw and the hook call are one atomic
  // step under the hook mutex: even transactions on DISJOINT stripes
  // (which no lock orders) reach the log in ticket order.
  uint64_t Ticket;
  if (HookArmed && !Redo.empty()) {
    std::lock_guard<std::mutex> HookLock(HookMu);
    Ticket = TxTickets.fetch_add(1, std::memory_order_relaxed);
    Hook(Ticket, Redo);
  } else {
    Ticket = TxTickets.fetch_add(1, std::memory_order_relaxed);
  }
  return TxResult{true, 0, Ticket};
}

void ConcurrentRelation::withTxLocks(const TxLockPlan &Plan,
                                     function_ref<void()> Body) {
  underPlan(Plan, Body);
}

std::vector<Tuple> ConcurrentRelation::query(const Tuple &Pattern,
                                             ColumnSet OutputCols) const {
  std::vector<Tuple> Result;
  std::unordered_set<Tuple> Seen;
  // One Seen set across every shard: a projection that drops the shard
  // column can surface the same result tuple from several shards, and
  // query's contract is set semantics.
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    Tuple Projected = F.toTuple(OutputCols);
    if (Seen.insert(Projected).second)
      Result.push_back(std::move(Projected));
    return true;
  });
  return Result;
}

void ConcurrentRelation::scan(const Tuple &Pattern, ColumnSet OutputCols,
                              function_ref<bool(const Tuple &)> Fn) const {
  scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
    return Fn(F.toTuple(F.bound()));
  });
}

void ConcurrentRelation::scanFrames(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  // NOTE: the callback runs inside a shard's epoch section (or under
  // its reader lock on the fallback path), so unlike the sequential
  // engine's reentrant scans it must not issue operations on this
  // ConcurrentRelation (a nested mutation deadlocks against its own
  // section or lock), and it must not block indefinitely (a stalled
  // section stalls writer fences).
  if (Router.routes(Pattern.columns())) {
    Core.read(Router.shardOf(Pattern), [&](const SynthesizedRelation &Sh) {
      Sh.scanFrames(Pattern, OutputCols, Fn);
    });
    return;
  }
  bool Stopped = false;
  for (unsigned I = 0; I != numShards() && !Stopped; ++I)
    Core.read(I, [&](const SynthesizedRelation &Sh) {
      Sh.scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
        Stopped = !Fn(F);
        return !Stopped;
      });
    });
}

void ConcurrentRelation::scanFramesParallel(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  // Routed patterns touch one shard: nothing to fan out.
  if (Router.routes(Pattern.columns())) {
    scanFrames(Pattern, OutputCols, Fn);
    return;
  }
  // Frames are copied into the merge queue — the price of crossing
  // threads. The borrowed-frame zero-allocation contract still holds
  // per shard, and frames over catalogs within
  // BindingFrame::InlineColumns copy without heap traffic.
  Core.scanParallel<BindingFrame>(
      [&](const SynthesizedRelation &Sh, auto &&Push) {
        Sh.scanFrames(Pattern, OutputCols,
                      [&](const BindingFrame &F) { return Push(F); });
      },
      Fn);
}

void ConcurrentRelation::scanParallel(const Tuple &Pattern,
                                      ColumnSet OutputCols,
                                      function_ref<bool(const Tuple &)> Fn) const {
  scanFramesParallel(Pattern, OutputCols, [&](const BindingFrame &F) {
    return Fn(F.toTuple(F.bound()));
  });
}

bool ConcurrentRelation::contains(const Tuple &Pattern) const {
  bool Found = false;
  scanFrames(Pattern, ColumnSet(), [&](const BindingFrame &) {
    Found = true;
    return false;
  });
  return Found;
}

void ConcurrentRelation::clear() { Core.clear(); }

ConcurrentRelation::Snapshot ConcurrentRelation::snapshot() const {
  // The ticket is cut under the same all-stripe shared hold that pins
  // the shards: writers draw tickets while holding their stripes.
  uint64_t Ticket = 0;
  ShardedCore<SynthesizedRelation>::Snapshot Pinned = Core.snapshot(
      [&] { Ticket = TxTickets.load(std::memory_order_relaxed) - 1; });
  return Snapshot(std::move(Pinned), Ticket);
}

void ConcurrentRelation::Snapshot::scanFrames(
    const Tuple &Pattern, ColumnSet OutputCols,
    function_ref<bool(const BindingFrame &)> Fn) const {
  bool Stopped = false;
  for (unsigned I = 0; I != numShards() && !Stopped; ++I)
    shard(I).scanFrames(Pattern, OutputCols, [&](const BindingFrame &F) {
      Stopped = !Fn(F);
      return !Stopped;
    });
}

Relation ConcurrentRelation::Snapshot::toRelation() const {
  assert(valid() && "toRelation on an empty snapshot handle");
  Relation Result(shard(0).catalog().allColumns());
  for (unsigned I = 0; I != numShards(); ++I)
    Result = Relation::unionWith(Result, shard(I).toRelation());
  return Result;
}

size_t ConcurrentRelation::Snapshot::liveInstances() const {
  size_t Live = 0;
  for (unsigned I = 0; I != numShards(); ++I)
    Live += shard(I).liveInstances();
  return Live;
}

Relation ConcurrentRelation::toRelation() const {
  // The stripes are held only for snapshot()'s O(shards) pointer grab;
  // the O(n) extraction runs against the pinned handle, lock-free.
  return snapshot().toRelation();
}

size_t ConcurrentRelation::liveInstances() const {
  return snapshot().liveInstances();
}

void ConcurrentRelation::reoptimize() {
  // The write scope's fence also drains wait-free readers, who may hold
  // pointers into the plan caches this replaces; snapshot-pinned
  // shards are COW-cloned first (their plan caches are shared with the
  // handles).
  Core.writeAll([&] {
    for (unsigned S = 0; S != numShards(); ++S)
      Core.writable(S).reoptimize();
  });
}

bool ConcurrentRelation::hasPlanFor(ColumnSet InputCols,
                                    ColumnSet OutputCols) const {
  return Core.read(0, [&](const SynthesizedRelation &Sh) {
    return Sh.planFor(InputCols, OutputCols) != nullptr;
  });
}
