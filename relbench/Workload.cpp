//===- relbench/Workload.cpp - relbench workloads and models --------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "decomp/Builder.h"
#include "support/Hashing.h"
#include "workloads/Rng.h"

#include <limits>
#include <unordered_map>

using namespace relc;

namespace relbench {

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

static void writePayload(wire::ByteWriter &W, const BenchOp &Op,
                         ColumnSet All) {
  switch (Op.Kind) {
  case wire::Op::Query:
    W.tuple(Op.A);
    W.u64(All.mask());
    return;
  case wire::Op::Insert:
  case wire::Op::Remove:
    W.tuple(Op.A);
    return;
  case wire::Op::Update:
    W.tuple(Op.A);
    W.tuple(Op.B);
    return;
  case wire::Op::Transact:
    W.u32(static_cast<uint32_t>(Op.Tx.size()));
    for (const wire::WireTxOp &T : Op.Tx)
      W.txOp(T);
    return;
  default:
    return;
  }
}

std::vector<uint8_t> encodePayload(const BenchOp &Op, ColumnSet All) {
  wire::ByteWriter W;
  writePayload(W, Op, All);
  return W.take();
}

std::vector<uint8_t> encodeRequest(const BenchOp &Op, uint64_t ReqId,
                                   ColumnSet All) {
  wire::ByteWriter W;
  W.u8(static_cast<uint8_t>(Op.Kind));
  W.u64(ReqId);
  writePayload(W, Op, All);
  return W.take();
}

static TxOp toTxOp(const wire::WireTxOp &W) {
  switch (W.K) {
  case wire::WireTxOp::Remove:
    return TxOp::remove(W.A);
  case wire::WireTxOp::Update:
    return TxOp::update(W.A, W.B);
  case wire::WireTxOp::Add: {
    ColumnId Col = W.Col;
    int64_t Delta = W.Delta, Floor = W.Floor;
    return TxOp::upsertChecked(
        W.A, [Col, Delta, Floor](const BindingFrame *F, Tuple &V) {
          if (!F)
            return false;
          const Value &Cur = F->get(Col);
          if (!Cur.isInt())
            return false;
          int64_t Next = Cur.asInt() + Delta;
          if (Floor != std::numeric_limits<int64_t>::min() && Next < Floor)
            return false;
          V.set(Col, Value::ofInt(Next));
          return true;
        });
  }
  default:
    return TxOp::insert(W.A);
  }
}

std::vector<TxOp> toTxOps(const BenchOp &Op) {
  std::vector<TxOp> Ops;
  switch (Op.Kind) {
  case wire::Op::Insert:
    Ops.push_back(TxOp::insert(Op.A));
    break;
  case wire::Op::Remove:
    Ops.push_back(TxOp::remove(Op.A));
    break;
  case wire::Op::Update:
    Ops.push_back(TxOp::update(Op.A, Op.B));
    break;
  case wire::Op::Transact:
    for (const wire::WireTxOp &W : Op.Tx)
      Ops.push_back(toTxOp(W));
    break;
  default:
    break;
  }
  return Ops;
}

//===----------------------------------------------------------------------===//
// Models
//===----------------------------------------------------------------------===//

void Fingerprint::add(const Value *Vals, unsigned Arity, int ConservedCol) {
  uint64_t H = hashMix64(Arity);
  for (unsigned C = 0; C != Arity; ++C)
    H = hashMix64(H ^ (static_cast<uint64_t>(Vals[C].asInt()) +
                       0x9e3779b97f4a7c15ULL * (C + 1)));
  ++Rows;
  Mix += H;
  if (ConservedCol >= 0)
    Conserved += Vals[ConservedCol].asInt();
}

unsigned Workload::owner(const Tuple &Row) const {
  return static_cast<unsigned>(
      static_cast<uint64_t>(Row.get(OwnerCol).asInt()) % NumConns);
}

Fingerprint
Workload::modelFingerprint(const std::vector<const OpStream *> &S) const {
  Fingerprint F;
  for (const OpStream *Str : S)
    Str->forEachRow([&](const Tuple &T) {
      F.add(T.data(), T.size(), ConservedCol);
    });
  return F;
}

namespace {

uint64_t streamSeed(uint64_t Seed, unsigned Conn) {
  return hashMix64(Seed * 0x9e3779b97f4a7c15ULL + Conn + 1);
}

Tuple row(std::initializer_list<std::pair<ColumnId, int64_t>> Cols) {
  Tuple T;
  for (const auto &[C, V] : Cols)
    T.set(C, Value::ofInt(V));
  return T;
}

//===----------------------------------------------------------------------===//
// transfer / lookup: account(owner, acct -> balance), as relserved serves
// it. Account I is (owner I/4, acct I%4); every account starts at 1000.
//===----------------------------------------------------------------------===//

constexpr int64_t InitialBalance = 1000;

class Accounts final : public Workload {
public:
  Accounts(size_t N, double PointShare, double OwnerShare)
      : PointShare(PointShare), OwnerShare(OwnerShare) {
    Spec = RelSpec::make("account", {"owner", "acct", "balance"},
                         {{"owner, acct", "balance"}});
    const Catalog &Cat = Spec->catalog();
    Owner = Cat.get("owner");
    Acct = Cat.get("acct");
    Bal = Cat.get("balance");
    InitialRows = N;
    KeyCols = ColumnSet({Owner, Acct});
    OwnerCol = Owner;
    ConservedCol = static_cast<int>(Bal);
    ConservedTotal = static_cast<int64_t>(N) * InitialBalance;
  }

  Decomposition decomp() const override {
    DecompBuilder B(Spec);
    NodeId U = B.addNode("u", "owner, acct", B.unit("balance"));
    NodeId Y = B.addNode("y", "owner", B.map("acct", DsKind::HashTable, U));
    B.addNode("x", "", B.map("owner", DsKind::HashTable, Y));
    return B.build();
  }

  Tuple key(int64_t A) const { return row({{Owner, A / 4}, {Acct, A % 4}}); }
  Tuple account(int64_t A, int64_t Balance) const {
    return row({{Owner, A / 4}, {Acct, A % 4}, {Bal, Balance}});
  }

  Tuple initialRow(size_t I) const override {
    return account(static_cast<int64_t>(I), InitialBalance);
  }
  std::unique_ptr<OpStream> stream(unsigned Conn) const override;
  Tuple fanoutPattern(int64_t K) const override {
    return row({{Acct, K % 4}});
  }
  bool rowValid(const Tuple &T) const override {
    return T.has(Bal) && T.get(Bal).asInt() >= 0;
  }

  double PointShare, OwnerShare;
  ColumnId Owner, Acct, Bal;
};

class AccountStream final : public OpStream {
public:
  AccountStream(const Accounts &W, unsigned Conn, uint64_t Seed)
      : W(W), Conn(Conn), R(streamSeed(Seed, Conn)),
        Bal(W.InitialRows / NumConns, InitialBalance) {}

  BenchOp next() override {
    double U = R.unit();
    if (U < W.PointShare)
      return pointRead(R.below(Bal.size()));
    if (U < W.PointShare + W.OwnerShare)
      return ownerRead(R.below(Bal.size() / 4));
    return transfer();
  }

  void forEachRow(const std::function<void(const Tuple &)> &Fn) const override {
    for (size_t I = 0; I != Bal.size(); ++I)
      Fn(W.account(account(I), Bal[I]));
  }

private:
  /// Own account I: the I%4-th account of this connection's I/4-th owner.
  int64_t account(size_t I) const {
    return static_cast<int64_t>(NumConns * (I / 4) + Conn) * 4 +
           static_cast<int64_t>(I % 4);
  }

  BenchOp pointRead(size_t I) {
    BenchOp Op;
    Op.A = W.key(account(I));
    Op.Keys = {account(I)};
    Op.Expected = {W.account(account(I), Bal[I])};
    return Op;
  }

  BenchOp ownerRead(size_t J) {
    BenchOp Op;
    Op.A = row({{W.Owner, account(4 * J) / 4}});
    for (size_t I = 4 * J; I != 4 * J + 4; ++I) {
      Op.Keys.push_back(account(I));
      Op.Expected.push_back(W.account(account(I), Bal[I]));
    }
    return Op;
  }

  /// A floor-guarded two-`add` transfer between two own accounts; the
  /// model predicts the guard's verdict.
  BenchOp transfer() {
    size_t From = R.below(Bal.size());
    size_t To = R.below(Bal.size() - 1);
    if (To >= From)
      ++To;
    int64_t Amt = 1 + static_cast<int64_t>(R.below(100));
    BenchOp Op;
    Op.Kind = wire::Op::Transact;
    Op.Tx.push_back(wire::WireTxOp::add(W.key(account(From)), W.Bal, -Amt, 0));
    Op.Tx.push_back(wire::WireTxOp::add(W.key(account(To)), W.Bal, Amt));
    Op.Keys = {account(From), account(To)};
    Op.ExpectAbort = Bal[From] < Amt;
    if (!Op.ExpectAbort) {
      Bal[From] -= Amt;
      Bal[To] += Amt;
    }
    return Op;
  }

  const Accounts &W;
  unsigned Conn;
  Rng R;
  std::vector<int64_t> Bal;
};

std::unique_ptr<OpStream> Accounts::stream(unsigned Conn) const {
  return std::make_unique<AccountStream>(*this, Conn, Seed);
}

//===----------------------------------------------------------------------===//
// graph_ckpt: edges(src, dst -> weight) in the paper's shared
// bidirectional decomposition; EdgesPerSrc distinct random successors
// per source, weights 1..100.
//===----------------------------------------------------------------------===//

constexpr unsigned EdgesPerSrc = 10;

struct Edge {
  int64_t Dst;
  int64_t Weight;
};

class Graph final : public Workload {
public:
  explicit Graph(size_t Sources) : Sources(static_cast<int64_t>(Sources)) {
    Spec = RelSpec::make("edges", {"src", "dst", "weight"},
                         {{"src, dst", "weight"}});
    const Catalog &Cat = Spec->catalog();
    Src = Cat.get("src");
    Dst = Cat.get("dst");
    Weight = Cat.get("weight");
    InitialRows = Sources * EdgesPerSrc;
    KeyCols = ColumnSet({Src, Dst});
    OwnerCol = Src;
  }

  Decomposition decomp() const override {
    DecompBuilder B(Spec);
    NodeId W = B.addNode("w", "src, dst", B.unit("weight"));
    NodeId Y = B.addNode("y", "src", B.map("dst", DsKind::ITree, W));
    NodeId Z = B.addNode("z", "dst", B.map("src", DsKind::ITree, W));
    B.addNode("x", "",
              B.join(B.map("src", DsKind::HashTable, Y),
                     B.map("dst", DsKind::HashTable, Z)));
    return B.build();
  }

  std::vector<Edge> edgesOf(int64_t S) const {
    Rng G(hashMix64(Seed ^
                    (static_cast<uint64_t>(S) + 1) * 0xa24baed4963ee407ULL));
    std::vector<Edge> Out;
    while (Out.size() != EdgesPerSrc) {
      int64_t D = static_cast<int64_t>(G.below(static_cast<uint64_t>(Sources)));
      bool Dup = false;
      for (const Edge &E : Out)
        Dup |= E.Dst == D;
      if (!Dup)
        Out.push_back({D, 1 + static_cast<int64_t>(G.below(100))});
    }
    return Out;
  }

  Tuple edge(int64_t S, const Edge &E) const {
    return row({{Src, S}, {Dst, E.Dst}, {Weight, E.Weight}});
  }

  Tuple initialRow(size_t I) const override {
    int64_t S = static_cast<int64_t>(I / EdgesPerSrc);
    return edge(S, edgesOf(S)[I % EdgesPerSrc]);
  }
  std::unique_ptr<OpStream> stream(unsigned Conn) const override;
  Tuple fanoutPattern(int64_t K) const override {
    return row({{Dst, K % Sources}});
  }

  int64_t Sources;
  ColumnId Src, Dst, Weight;
};

class GraphStream final : public OpStream {
public:
  GraphStream(const Graph &W, unsigned Conn, uint64_t Seed)
      : W(W), Conn(Conn), R(streamSeed(Seed, Conn)),
        Out(static_cast<size_t>(W.Sources) / NumConns),
        In(static_cast<size_t>(W.Sources)) {
    for (size_t J = 0; J != Out.size(); ++J) {
      Out[J] = W.edgesOf(src(J));
      for (const Edge &E : Out[J])
        In[static_cast<size_t>(E.Dst)].push_back(src(J));
    }
  }

  BenchOp next() override {
    double U = R.unit();
    if (U < 0.4)
      return successors(R.below(Out.size()));
    if (U < 0.6)
      return predecessors(static_cast<int64_t>(
          R.below(static_cast<uint64_t>(W.Sources))));
    if (U < 0.8)
      return addWeight();
    if (U < 0.9)
      return insertEdge();
    return removeEdge();
  }

  void forEachRow(const std::function<void(const Tuple &)> &Fn) const override {
    for (size_t J = 0; J != Out.size(); ++J)
      for (const Edge &E : Out[J])
        Fn(W.edge(src(J), E));
  }

private:
  int64_t src(size_t J) const {
    return static_cast<int64_t>(NumConns * J + Conn);
  }
  size_t index(int64_t S) const { return static_cast<size_t>(S) / NumConns; }
  /// Model key of a destination: past every source key.
  int64_t dstKey(int64_t D) const { return W.Sources + D; }

  BenchOp successors(size_t J) {
    BenchOp Op;
    Op.A = row({{W.Src, src(J)}});
    Op.Keys = {src(J)};
    for (const Edge &E : Out[J])
      Op.Expected.push_back(W.edge(src(J), E));
    return Op;
  }

  BenchOp predecessors(int64_t D) {
    BenchOp Op;
    Op.FanOut = true;
    Op.A = row({{W.Dst, D}});
    Op.Keys = {dstKey(D)};
    for (int64_t S : In[static_cast<size_t>(D)])
      for (const Edge &E : Out[index(S)])
        if (E.Dst == D)
          Op.Expected.push_back(W.edge(S, E));
    return Op;
  }

  size_t nonEmptySource() {
    for (;;) {
      size_t J = R.below(Out.size());
      if (!Out[J].empty())
        return J;
    }
  }

  BenchOp addWeight() {
    size_t J = nonEmptySource();
    Edge &E = Out[J][R.below(Out[J].size())];
    int64_t Delta = R.range(-5, 5);
    if (Delta == 0)
      Delta = 1;
    BenchOp Op;
    Op.Kind = wire::Op::Transact;
    Op.Tx.push_back(wire::WireTxOp::add(
        row({{W.Src, src(J)}, {W.Dst, E.Dst}}), W.Weight, Delta));
    Op.Keys = {src(J), dstKey(E.Dst)};
    E.Weight += Delta;
    return Op;
  }

  BenchOp insertEdge() {
    size_t J = R.below(Out.size());
    int64_t D;
    for (;;) {
      D = static_cast<int64_t>(R.below(static_cast<uint64_t>(W.Sources)));
      bool Dup = false;
      for (const Edge &E : Out[J])
        Dup |= E.Dst == D;
      if (!Dup)
        break;
    }
    Edge E{D, 1 + static_cast<int64_t>(R.below(100))};
    BenchOp Op;
    Op.Kind = wire::Op::Insert;
    Op.A = W.edge(src(J), E);
    Op.Keys = {src(J), dstKey(D)};
    Out[J].push_back(E);
    In[static_cast<size_t>(D)].push_back(src(J));
    return Op;
  }

  BenchOp removeEdge() {
    size_t J = nonEmptySource();
    size_t K = R.below(Out[J].size());
    int64_t D = Out[J][K].Dst;
    BenchOp Op;
    Op.Kind = wire::Op::Remove;
    Op.A = row({{W.Src, src(J)}, {W.Dst, D}});
    Op.Keys = {src(J), dstKey(D)};
    Out[J][K] = Out[J].back();
    Out[J].pop_back();
    std::vector<int64_t> &Preds = In[static_cast<size_t>(D)];
    for (size_t I = 0; I != Preds.size(); ++I)
      if (Preds[I] == src(J)) {
        Preds[I] = Preds.back();
        Preds.pop_back();
        break;
      }
    return Op;
  }

  const Graph &W;
  unsigned Conn;
  Rng R;
  /// Out-edges of own source J (source NumConns * J + Conn).
  std::vector<std::vector<Edge>> Out;
  /// Own sources with an edge into each destination.
  std::vector<std::vector<int64_t>> In;
};

std::unique_ptr<OpStream> Graph::stream(unsigned Conn) const {
  return std::make_unique<GraphStream>(*this, Conn, Seed);
}

//===----------------------------------------------------------------------===//
// tiles: tiles(tile -> state, size, stamp) in the ztopo decomposition
// (tile hash joined with per-state intrusive lists over shared nodes).
//===----------------------------------------------------------------------===//

constexpr int64_t NumStates = 4;

class Tiles final : public Workload {
public:
  explicit Tiles(size_t N) {
    Spec = RelSpec::make("tiles", {"tile", "state", "size", "stamp"},
                         {{"tile", "state, size, stamp"}});
    const Catalog &Cat = Spec->catalog();
    Tile = Cat.get("tile");
    State = Cat.get("state");
    Size = Cat.get("size");
    Stamp = Cat.get("stamp");
    InitialRows = N;
    KeyCols = ColumnSet({Tile});
    OwnerCol = Tile;
  }

  Decomposition decomp() const override {
    DecompBuilder B(Spec);
    NodeId W = B.addNode("w", "tile, state", B.unit("size, stamp"));
    NodeId Y = B.addNode("y", "tile", B.map("state", DsKind::DList, W));
    NodeId Z = B.addNode("z", "state", B.map("tile", DsKind::IList, W));
    B.addNode("x", "",
              B.join(B.map("tile", DsKind::HashTable, Y),
                     B.map("state", DsKind::Vector, Z)));
    return B.build();
  }

  Tuple tile(int64_t T, int64_t St, int64_t Sz, int64_t Sp) const {
    return row({{Tile, T}, {State, St}, {Size, Sz}, {Stamp, Sp}});
  }

  Tuple initialRow(size_t I) const override {
    Rng G(hashMix64(Seed ^ (I + 1) * 0xa24baed4963ee407ULL));
    int64_t St = static_cast<int64_t>(G.below(NumStates));
    return tile(static_cast<int64_t>(I), St,
                1 + static_cast<int64_t>(G.below(64)),
                static_cast<int64_t>(I));
  }
  std::unique_ptr<OpStream> stream(unsigned Conn) const override;
  Tuple fanoutPattern(int64_t K) const override {
    return row({{State, K % NumStates}});
  }

  ColumnId Tile, State, Size, Stamp;
};

class TileStream final : public OpStream {
public:
  TileStream(const Tiles &W, unsigned Conn, uint64_t Seed)
      : W(W), R(streamSeed(Seed, Conn)) {
    int64_t N = static_cast<int64_t>(W.InitialRows);
    for (int64_t T = Conn; T < N; T += NumConns) {
      Tuple Init = W.initialRow(static_cast<size_t>(T));
      add(T, {Init.get(W.State).asInt(), Init.get(W.Size).asInt(),
              Init.get(W.Stamp).asInt(), 0});
    }
    NextTile = (N + NumConns - 1) / NumConns * NumConns + Conn;
    Clock = N;
  }

  BenchOp next() override {
    double U = R.unit();
    int64_t T = Live[R.below(Live.size())];
    if (U < 0.65)
      return read(T);
    if (U < 0.9)
      return changeState(T);
    return evictLoad(T);
  }

  void forEachRow(const std::function<void(const Tuple &)> &Fn) const override {
    for (int64_t T : Live)
      Fn(rowOf(T));
  }

private:
  struct Row {
    int64_t State, Size, Stamp;
    size_t Pos;
  };

  Tuple rowOf(int64_t T) const {
    const Row &Rw = Rows.at(T);
    return W.tile(T, Rw.State, Rw.Size, Rw.Stamp);
  }
  Tuple key(int64_t T) const { return row({{W.Tile, T}}); }

  void add(int64_t T, Row Rw) {
    Rw.Pos = Live.size();
    Live.push_back(T);
    Rows[T] = Rw;
  }

  BenchOp read(int64_t T) {
    BenchOp Op;
    Op.A = key(T);
    Op.Keys = {T};
    Op.Expected = {rowOf(T)};
    return Op;
  }

  /// Moves the tile to another state's list.
  BenchOp changeState(int64_t T) {
    Row &Rw = Rows.at(T);
    Rw.State = (Rw.State + 1 + static_cast<int64_t>(R.below(NumStates - 1))) %
               NumStates;
    Rw.Stamp = ++Clock;
    BenchOp Op;
    Op.Kind = wire::Op::Update;
    Op.A = key(T);
    Op.B = row({{W.State, Rw.State}, {W.Stamp, Rw.Stamp}});
    Op.Keys = {T};
    return Op;
  }

  /// Evicts one tile and loads a new one in the same transaction.
  BenchOp evictLoad(int64_t T) {
    int64_t New = NextTile;
    NextTile += NumConns;
    Row Loaded{static_cast<int64_t>(R.below(NumStates)),
               1 + static_cast<int64_t>(R.below(64)), ++Clock, 0};
    BenchOp Op;
    Op.Kind = wire::Op::Transact;
    Op.Tx.push_back(wire::WireTxOp::remove(key(T)));
    Op.Tx.push_back(wire::WireTxOp::insert(
        W.tile(New, Loaded.State, Loaded.Size, Loaded.Stamp)));
    Op.Keys = {T, New};
    size_t Pos = Rows.at(T).Pos;
    Live[Pos] = Live.back();
    Rows.at(Live[Pos]).Pos = Pos;
    Live.pop_back();
    Rows.erase(T);
    add(New, Loaded);
    return Op;
  }

  const Tiles &W;
  Rng R;
  std::vector<int64_t> Live;
  std::unordered_map<int64_t, Row> Rows;
  int64_t NextTile;
  int64_t Clock;
};

std::unique_ptr<OpStream> Tiles::stream(unsigned Conn) const {
  return std::make_unique<TileStream>(*this, Conn, Seed);
}

} // namespace

std::unique_ptr<Workload> makeWorkload(std::string_view Name, uint64_t Seed,
                                       bool Quick) {
  size_t Scale = Quick ? 10 : 1;
  std::unique_ptr<Workload> W;
  if (Name == "transfer") {
    W = std::make_unique<Accounts>(100000 / Scale, 0.25, 0.0);
    W->OpenRate = 3000;
  } else if (Name == "lookup") {
    W = std::make_unique<Accounts>(400000 / Scale, 0.75, 0.10);
    W->OpenRate = 3000;
  } else if (Name == "graph_ckpt") {
    W = std::make_unique<Graph>(2000 / Scale);
    W->CheckpointEvery = 2000 / Scale;
  } else if (Name == "tiles") {
    W = std::make_unique<Tiles>(20000 / Scale);
    W->OpenRate = 3000;
  } else {
    return nullptr;
  }
  W->Seed = Seed;
  return W;
}

} // namespace relbench
