//===- codegen/backend/CppBackend.cpp - C++ header backend --------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//
//
// The static mirror of the dynamic engine: node structs instead of
// NodeInstance, concrete ds/ container members instead of EdgeMap
// virtual dispatch, and query/removal code specialized from the
// planner's chosen plans instead of the CPS interpreter in Exec.cpp.
//
// This backend is a visitor over ir::Module::Ops. It chooses syntax
// only: the op list is final (lowering + MethodDedup +
// DeadIndexElimination decided it) and every facade op arrives with a
// LockPlan (LockPlanPrecompute decided routing and stripe bounds).
// Nothing in here may invent a method or re-derive a routing decision.
//
//===----------------------------------------------------------------------===//

#include "codegen/backend/CppBackend.h"

#include <cassert>
#include <cctype>
#include <cstdio>
#include <functional>
#include <map>
#include <string>

using namespace relc;
using namespace relc::ir;

namespace {

/// Appends lines with block indentation.
class CodeWriter {
public:
  void line(const std::string &Text = "") {
    if (!Text.empty())
      for (unsigned I = 0; I != Indent; ++I)
        Out += "  ";
    Out += Text;
    Out += "\n";
  }
  void open(const std::string &Text) {
    line(Text);
    ++Indent;
  }
  void close(const std::string &Text = "}") {
    assert(Indent > 0 && "unbalanced close");
    --Indent;
    line(Text);
  }
  /// close-and-reopen for "} else {" style continuations.
  void chain(const std::string &Text) {
    close(Text);
    ++Indent;
  }

  std::string take() { return std::move(Out); }

private:
  std::string Out;
  unsigned Indent = 0;
};

class CppEmitter {
public:
  explicit CppEmitter(const ir::Module &M)
      : M(M), D(*M.Decomp), Cat(D.catalog()) {
    for (NodeId Id = 0; Id != D.numNodes(); ++Id)
      for (PrimId U : D.unitsOf(Id))
        UnitOwner[U] = Id;
  }

  std::string run() {
    prologue();
    for (NodeId Id = 0; Id != D.numNodes(); ++Id)
      emitNodeStruct(Id);
    emitMakers();
    emitDestroys();
    emitLifecycle();
    for (const MethodOp &Op : M.Ops)
      if (Op.Where == Layer::Sequential)
        emitSequentialOp(Op);
    if (M.RowScanPlan)
      emitScanRows();
    closeClass();
    if (M.hasFacade())
      emitConcurrentFacade();
    if (M.WireDispatch)
      emitWireDispatch();
    closeFile();
    return W.take();
  }

private:
  void emitSequentialOp(const MethodOp &Op) {
    assert(Op.Lock.Mode == LockPlan::None &&
           "sequential op with a facade lock plan");
    switch (Op.Kind) {
    case OpKind::Insert:
      emitInsert();
      return;
    case OpKind::Query:
      emitQuery(Op);
      return;
    case OpKind::RemoveBy:
      emitRemove(Op);
      return;
    case OpKind::UpdateBy:
      emitUpdate(Op.Key);
      return;
    case OpKind::LookupBy:
      emitLookup(Op);
      return;
    case OpKind::UpsertBy:
      emitUpsert(Op.Key);
      return;
    case OpKind::ParallelScan:
    case OpKind::TransactBy:
    case OpKind::Clear:
      break;
    }
    assert(false && "op kind is facade-only");
  }

  //===------------------------------------------------------------------===
  // Naming helpers.
  //===------------------------------------------------------------------===

  std::string nodeType(NodeId Id) const { return "Node_" + D.node(Id).Name; }

  std::string colList(ColumnSet Cols, const std::string &Prefix) const {
    std::string Out;
    for (ColumnId C : Cols) {
      if (!Out.empty())
        Out += ", ";
      Out += Prefix + Cat.name(C);
    }
    return Out;
  }

  std::string colsSuffix(ColumnSet Cols) const {
    std::string Out;
    for (ColumnId C : Cols) {
      if (!Out.empty())
        Out += "_";
      Out += Cat.name(C);
    }
    return Out;
  }

  std::string params(ColumnSet Cols, const std::string &Prefix) const {
    std::string Out;
    for (ColumnId C : Cols) {
      if (!Out.empty())
        Out += ", ";
      Out += "int64_t " + Prefix + Cat.name(C);
    }
    return Out;
  }

  /// The C++ key type of edge \p E (vectors index by size_t directly).
  std::string keyType(const MapEdge &E) const {
    if (E.Ds == DsKind::Vector)
      return "size_t";
    if (E.KeyCols.size() == 1)
      return "int64_t";
    return "std::array<int64_t, " + std::to_string(E.KeyCols.size()) + ">";
  }

  /// A key expression for edge \p E from per-column expressions.
  std::string keyExpr(const MapEdge &E,
                      const std::map<ColumnId, std::string> &Env) const {
    if (E.KeyCols.size() == 1) {
      const std::string &V = Env.at(E.KeyCols.first());
      return E.Ds == DsKind::Vector ? "toIndex(" + V + ")" : V;
    }
    std::string Out = keyType(E) + "{";
    bool First = true;
    for (ColumnId C : E.KeyCols) {
      if (!First)
        Out += ", ";
      Out += Env.at(C);
      First = false;
    }
    return Out + "}";
  }

  std::string edgeMember(EdgeId E) const { return "e" + std::to_string(E); }

  /// Cell-per-entry containers allocate through the class arena
  /// (intrusive kinds store no cells; vectors use amortized
  /// std::vector storage).
  static bool dsUsesArenaCells(DsKind K) {
    return K == DsKind::DList || K == DsKind::HashTable || K == DsKind::Btree;
  }

  /// The call that allocates and wires up a fresh instance of \p Id
  /// (see emitMakers).
  std::string makeNodeCall(NodeId Id) const {
    return "make" + nodeType(Id) + "()";
  }

  std::string unitField(PrimId U, ColumnId C) const {
    return "u" + std::to_string(U) + "_" + Cat.name(C);
  }

  std::string containerType(EdgeId Id) const {
    const MapEdge &E = D.edge(Id);
    std::string Traits = "TraitsE" + std::to_string(Id);
    switch (E.Ds) {
    case DsKind::DList:
      return "relc::DListMap<" + Traits + ">";
    case DsKind::HashTable:
      return "relc::HashMap<" + Traits + ">";
    case DsKind::Btree:
      return "relc::AvlMap<" + Traits + ">";
    case DsKind::Vector:
      return "relc::VectorMap<" + nodeType(E.To) + ">";
    case DsKind::IList:
      return "relc::IntrusiveList<" + Traits + ">";
    case DsKind::ITree:
      return "relc::IntrusiveAvl<" + Traits + ">";
    }
    assert(false && "unknown DsKind");
    return "";
  }

  static std::string upper(std::string S) {
    for (char &C : S)
      C = static_cast<char>(std::toupper(static_cast<unsigned char>(C)));
    return S;
  }

  /// The incoming edge of \p Id with the cheapest point lookup (the
  /// existence probe in the generated insert).
  EdgeId cheapestIncomingEdge(NodeId Id) const {
    auto Rank = [](DsKind K) {
      switch (K) {
      case DsKind::Vector:
      case DsKind::HashTable:
        return 0;
      case DsKind::Btree:
      case DsKind::ITree:
        return 1;
      case DsKind::DList:
      case DsKind::IList:
        return 2;
      }
      return 3;
    };
    EdgeId Best = D.incoming(Id).front();
    for (EdgeId E : D.incoming(Id))
      if (Rank(D.edge(E).Ds) < Rank(D.edge(Best).Ds))
        Best = E;
    return Best;
  }

  //===------------------------------------------------------------------===
  // Skeleton.
  //===------------------------------------------------------------------===

  void prologue() {
    W.line("// Generated by RELC for specification " + D.spec()->str());
    W.line("// Decomposition: " + D.canonicalString(/*IncludeDs=*/true));
    W.line("// Do not edit.");
    W.line("#ifndef RELCGEN_" + upper(M.ClassName) + "_H");
    W.line("#define RELCGEN_" + upper(M.ClassName) + "_H");
    W.line();
    W.line("#include \"ds/AvlMap.h\"");
    W.line("#include \"ds/DListMap.h\"");
    W.line("#include \"ds/HashMap.h\"");
    W.line("#include \"ds/IntrusiveAvl.h\"");
    W.line("#include \"ds/IntrusiveList.h\"");
    W.line("#include \"ds/VectorMap.h\"");
    W.line("#include \"support/Arena.h\"");
    if (M.hasFacade())
      W.line("#include \"concurrent/ShardedCore.h\"");
    W.line("#include \"support/Hashing.h\"");
    W.line();
    W.line("#include <array>");
    W.line("#include <cassert>");
    W.line("#include <cstddef>");
    W.line("#include <cstdint>");
    if (M.hasTransactions())
      W.line("#include <type_traits>");
    W.line("#include <vector>");
    W.line();
    W.open("namespace " + M.Namespace + " {");
    W.line();
    W.open("class " + M.ClassName + " {");
    W.line("public:");
    W.line("  " + M.ClassName + "(const " + M.ClassName + " &) = delete;");
    W.line("  " + M.ClassName + " &operator=(const " + M.ClassName +
           " &) = delete;");
    W.line("  size_t size() const { return Size; }");
    W.line("  bool empty() const { return Size == 0; }");
    W.line();
    W.line("private:");
    W.open("  static size_t toIndex(int64_t V) {");
    W.line("assert(V >= 0 && \"vector-mapped keys must be non-negative\");");
    W.line("return static_cast<size_t>(V);");
    W.close("}");
    W.line("  static size_t hashKey(int64_t K) {");
    W.line("    return relc::hashMix64(static_cast<uint64_t>(K));");
    W.line("  }");
    W.line("  template <size_t N>");
    W.open("  static size_t hashKey(const std::array<int64_t, N> &K) {");
    W.line("size_t H = 0;");
    W.line("for (int64_t V : K)");
    W.line("  H = relc::hashCombine(H, "
           "relc::hashMix64(static_cast<uint64_t>(V)));");
    W.line("return H;");
    W.close("}");
  }

  void closeClass() {
    W.line();
    W.line("  /// Backs every node and container cell of this instance;");
    W.line("  /// one arena per instance keeps shard allocation private");
    W.line("  /// (see support/Arena.h).");
    W.line("  relc::SlabArena Arena;");
    W.line("  " + nodeType(D.root()) + " *Root;");
    W.line("  size_t Size = 0;");
    W.close("};");
  }

  void closeFile() {
    W.line();
    W.close("} // namespace " + M.Namespace);
    W.line();
    W.line("#endif");
  }

  void emitNodeStruct(NodeId Id) {
    W.line();
    // Traits for each outgoing edge; target node types are complete
    // here because children precede parents in let order.
    for (EdgeId E : D.outgoing(Id)) {
      const MapEdge &Edge = D.edge(E);
      if (Edge.Ds == DsKind::Vector)
        continue;
      W.open("  struct TraitsE" + std::to_string(E) + " {");
      W.line("using KeyT = " + keyType(Edge) + ";");
      W.line("using NodeT = " + nodeType(Edge.To) + ";");
      W.line("static bool equal(const KeyT &A, const KeyT &B) "
             "{ return A == B; }");
      W.line("static bool less(const KeyT &A, const KeyT &B) "
             "{ return A < B; }");
      W.line("static size_t hash(const KeyT &K) { return hashKey(K); }");
      if (dsSupportsEraseByNode(Edge.Ds))
        W.line("static relc::MapHook<NodeT, KeyT> &hook(NodeT *N, unsigned) "
               "{ return N->h" +
               std::to_string(Edge.HookSlot) + "; }");
      W.close("};");
    }

    W.open("  struct " + nodeType(Id) + " {");
    // The bound valuation, as NodeInstance stores it: read by unit
    // steps (the extended (QUNIT) rule) and kept for symmetry with the
    // dynamic engine.
    for (ColumnId C : D.node(Id).Bound)
      W.line("int64_t b_" + Cat.name(C) + ";");
    for (PrimId U : D.unitsOf(Id))
      for (ColumnId C : D.prim(U).Cols)
        W.line("int64_t " + unitField(U, C) + ";");
    for (EdgeId E : D.incoming(Id)) {
      const MapEdge &Edge = D.edge(E);
      if (!dsSupportsEraseByNode(Edge.Ds))
        continue;
      W.line("relc::MapHook<" + nodeType(Id) + ", " + keyType(Edge) + "> h" +
             std::to_string(Edge.HookSlot) + ";");
    }
    for (EdgeId E : D.outgoing(Id)) {
      const MapEdge &Edge = D.edge(E);
      std::string Init;
      if (dsSupportsEraseByNode(Edge.Ds))
        Init = "{" + std::to_string(Edge.HookSlot) + "}";
      W.line(containerType(E) + " " + edgeMember(E) + Init + ";");
    }
    W.line("unsigned Ref = 0;");
    // Hooked nodes reset (not destroy) their hooks: an arena-reset
    // sweep may destroy this node before the parent whose intrusive
    // container unlinks through these hooks, and the unlink must land
    // on a valid empty hook.
    std::string HookResets;
    for (EdgeId E : D.incoming(Id)) {
      const MapEdge &Edge = D.edge(E);
      if (!dsSupportsEraseByNode(Edge.Ds))
        continue;
      std::string H = "h" + std::to_string(Edge.HookSlot);
      HookResets += " " + H + " = decltype(" + H + ")();";
    }
    if (!HookResets.empty())
      W.line("~" + nodeType(Id) + "() {" + HookResets + " }");
    W.close("};");
  }

  /// One maker per node type: arena-allocates the instance and binds
  /// its cell-based containers to the class arena.
  void emitMakers() {
    for (NodeId Id = 0; Id != D.numNodes(); ++Id) {
      W.line();
      W.open("  " + nodeType(Id) + " *make" + nodeType(Id) + "() {");
      W.line("auto *N = Arena.create<" + nodeType(Id) + ">();");
      for (EdgeId E : D.outgoing(Id))
        if (dsUsesArenaCells(D.edge(E).Ds))
          W.line("N->" + edgeMember(E) + ".setArena(relc::ArenaRef(&Arena));");
      W.line("return N;");
      W.close("}");
    }
  }

  void emitDestroys() {
    // In-class member bodies may call members defined later, so the
    // destroy/release pairs can be emitted in any order.
    for (NodeId Id = 0; Id != D.numNodes(); ++Id) {
      W.line();
      W.open("  void destroy(" + nodeType(Id) + " *N) {");
      if (D.outgoing(Id).empty()) {
        W.line("Arena.destroy(N);");
        W.close("}");
      } else {
        // Collect children before the containers (whose destructors
        // unlink intrusive hooks) die, then release them after N is
        // gone — mirroring InstanceGraph::destroy.
        for (EdgeId E : D.outgoing(Id)) {
          const MapEdge &Edge = D.edge(E);
          std::string CT = nodeType(Edge.To);
          W.line("std::vector<" + CT + " *> c" + std::to_string(E) + ";");
          W.open("N->" + edgeMember(E) + ".forEach([&](const auto &, " + CT +
                 " *Child) {");
          W.line("c" + std::to_string(E) + ".push_back(Child);");
          W.line("return true;");
          W.close("});");
        }
        W.line("Arena.destroy(N);");
        for (EdgeId E : D.outgoing(Id)) {
          W.line("for (auto *Child : c" + std::to_string(E) + ")");
          W.line("  release(Child);");
        }
        W.close("}");
      }
      W.line("  void release(" + nodeType(Id) +
             " *N) { if (--N->Ref == 0) destroy(N); }");
    }
  }

  void emitLifecycle() {
    W.line();
    W.line("public:");
    W.line("  " + M.ClassName + "() { Root = " + makeNodeCall(D.root()) +
           "; Root->Ref = 1; }");
    // Teardown and clear are O(slabs): one arena sweep destroys every
    // live node (hook resets keep the sweep order-independent) and
    // rewinds the slabs, instead of a refcount-driven graph cascade.
    W.line("  ~" + M.ClassName + "() { Arena.reset(); }");
    W.open("  void clear() {");
    W.line("Arena.reset();");
    W.line("Root = " + makeNodeCall(D.root()) + ";");
    W.line("Root->Ref = 1;");
    W.line("Size = 0;");
    W.close("}");
    W.line("  /// Allocator counters of this instance's private arena.");
    W.line("  relc::ArenaStats arenaStats() const { return Arena.stats(); }");
  }

  //===------------------------------------------------------------------===
  // insert (Section 4.4, specialized).
  //===------------------------------------------------------------------===

  void emitInsert() {
    ColumnSet All = D.spec()->columns();
    W.line();
    W.line("  /// insert r t; returns true if the relation changed.");
    W.open("  bool insert(" + params(All, "v_") + ") {");
    std::map<ColumnId, std::string> Env;
    for (ColumnId C : All)
      Env[C] = "v_" + Cat.name(C);

    W.line("bool Changed = false;");
    for (NodeId Id : D.topoOrder()) {
      std::string Var = "n_" + D.node(Id).Name;
      if (Id == D.root()) {
        W.line(nodeType(Id) + " *" + Var + " = Root;");
        continue;
      }
      // One probe on the cheapest incoming edge decides existence
      // (well-formedness keeps all incoming containers in lockstep; a
      // fresh parent's empty container gives the same verdict — see
      // dinsert in runtime/Mutators.cpp).
      EdgeId ProbeE = cheapestIncomingEdge(Id);
      const MapEdge &Probe = D.edge(ProbeE);
      W.line(nodeType(Id) + " *" + Var + " = n_" +
             D.node(Probe.From).Name + "->" + edgeMember(ProbeE) +
             ".lookup(" + keyExpr(Probe, Env) + ");");
      W.open("if (!" + Var + ") {");
      W.line(Var + " = " + makeNodeCall(Id) + ";");
      for (ColumnId C : D.node(Id).Bound)
        W.line(Var + "->b_" + Cat.name(C) + " = " + Env.at(C) + ";");
      for (PrimId U : D.unitsOf(Id))
        for (ColumnId C : D.prim(U).Cols)
          W.line(Var + "->" + unitField(U, C) + " = " + Env.at(C) + ";");
      for (EdgeId E : D.incoming(Id)) {
        const MapEdge &Edge = D.edge(E);
        std::string Parent = "n_" + D.node(Edge.From).Name;
        W.line(Parent + "->" + edgeMember(E) + ".insert(" +
               keyExpr(Edge, Env) + ", " + Var + ");");
        W.line("++" + Var + "->Ref;");
      }
      W.line("Changed = true;");
      if (!D.unitsOf(Id).empty()) {
        W.chain("} else {");
        // Lemma 4(a)'s precondition: an existing instance must already
        // carry exactly these unit values.
        for (PrimId U : D.unitsOf(Id))
          for (ColumnId C : D.prim(U).Cols)
            W.line("assert(" + Var + "->" + unitField(U, C) + " == " +
                   Env.at(C) +
                   " && \"insert violates the functional dependencies\");");
        W.close("}");
      } else {
        W.close("}");
      }
    }
    W.line("if (Changed) ++Size;");
    W.line("return Changed;");
    W.close("}");
  }

  //===------------------------------------------------------------------===
  // Query emission: CPS over plan steps, the static twin of Exec.cpp.
  //===------------------------------------------------------------------===

  using Env = std::map<ColumnId, std::string>;
  using Cont = std::function<void(const Env &)>;

  void emitQuery(const MethodOp &Q) {
    assert(Q.Plan && "query op lowered without a plan");
    const QueryPlan &Plan = *Q.Plan;
    W.line();
    W.line("  /// " + Q.Name + ": plan " + Plan.str());
    std::string Params = params(Q.InputCols, "q_");
    if (!Params.empty())
      Params += ", ";
    W.open("  template <typename FnT> void " + Q.Name + "(" + Params +
           "FnT &&Emit) const {");
    Env E;
    for (ColumnId C : Q.InputCols)
      E[C] = "q_" + Cat.name(C);
    emitStep(Plan, Plan.Root, "Root", E, [&](const Env &Final) {
      std::string Args;
      for (ColumnId C : Q.OutputCols) {
        if (!Args.empty())
          Args += ", ";
        Args += Final.at(C);
      }
      W.line("Emit(" + Args + ");");
    });
    W.close("}");
  }

  void emitStep(const QueryPlan &Plan, PlanStepId Id,
                const std::string &NodeVar, const Env &E, const Cont &K) {
    const PlanStep &S = Plan.Steps[Id];
    switch (S.Kind) {
    case PlanKind::Unit: {
      // Filter unit and bound columns already fixed by the binding;
      // bind the rest (the extended (QUNIT) rule — bound fields serve
      // columns not on the traversed path, e.g. `state` via Fig. 2's
      // left path).
      Env E2 = E;
      std::string Guard;
      auto handleColumn = [&](ColumnId C, const std::string &Field) {
        auto It = E.find(C);
        if (It != E.end()) {
          if (!Guard.empty())
            Guard += " && ";
          Guard += Field + " == " + It->second;
        } else if (!E2.count(C)) {
          E2[C] = Field;
        }
      };
      NodeId Owner = UnitOwner.at(S.Prim);
      for (ColumnId C : D.node(Owner).Bound)
        handleColumn(C, NodeVar + "->b_" + Cat.name(C));
      for (ColumnId C : D.prim(S.Prim).Cols)
        handleColumn(C, NodeVar + "->" + unitField(S.Prim, C));
      if (Guard.empty()) {
        K(E2);
        return;
      }
      W.open("if (" + Guard + ") {");
      K(E2);
      W.close("}");
      return;
    }
    case PlanKind::Lookup: {
      EdgeId Eg = D.prim(S.Prim).Edge;
      const MapEdge &Edge = D.edge(Eg);
      std::string Var = "n" + std::to_string(Id);
      W.line("auto *" + Var + " = " + NodeVar + "->" + edgeMember(Eg) +
             ".lookup(" + keyExpr(Edge, E) + ");");
      W.open("if (" + Var + ") {");
      emitStep(Plan, S.Child0, Var, E, K);
      W.close("}");
      return;
    }
    case PlanKind::Scan: {
      EdgeId Eg = D.prim(S.Prim).Edge;
      const MapEdge &Edge = D.edge(Eg);
      std::string KeyVar = "k" + std::to_string(Id);
      std::string Var = "n" + std::to_string(Id);
      W.open(NodeVar + "->" + edgeMember(Eg) + ".forEach([&](const auto &" +
             KeyVar + ", " + nodeType(Edge.To) + " *" + Var + ") {");
      // Subplans over empty units never touch the child node.
      W.line("(void)" + Var + ";");
      // Bind fresh key columns; filter ones the binding already fixes
      // (this is what keeps joins and A ⊆ B queries faithful, Lemma 2).
      Env E2 = E;
      std::string Guard;
      unsigned Index = 0;
      for (ColumnId C : Edge.KeyCols) {
        std::string Expr;
        if (Edge.Ds == DsKind::Vector)
          Expr = "static_cast<int64_t>(" + KeyVar + ")";
        else if (Edge.KeyCols.size() == 1)
          Expr = KeyVar;
        else
          Expr = KeyVar + "[" + std::to_string(Index) + "]";
        auto It = E.find(C);
        if (It != E.end()) {
          if (!Guard.empty())
            Guard += " && ";
          Guard += Expr + " == " + It->second;
        } else {
          E2[C] = Expr;
        }
        ++Index;
      }
      if (!Guard.empty())
        W.open("if (" + Guard + ") {");
      emitStep(Plan, S.Child0, Var, E2, K);
      if (!Guard.empty())
        W.close("}");
      W.line("return true;");
      W.close("});");
      return;
    }
    case PlanKind::Lr:
      emitStep(Plan, S.Child0, NodeVar, E, K);
      return;
    case PlanKind::Join:
      // Nested execution: the second query runs once per binding the
      // first produces.
      emitStep(Plan, S.Child0, NodeVar, E, [&](const Env &E1) {
        emitStep(Plan, S.Child1, NodeVar, E1, K);
      });
      return;
    }
    assert(false && "unknown PlanKind");
  }

  /// The full-row scan behind the facade's snapshot machinery: emitted
  /// from the Module-level RowScanPlan (never a MethodOp, so it exists
  /// identically under --no-opt), used by the COW clone in writable()
  /// and by Snapshot::scanRows.
  void emitScanRows() {
    assert(M.RowScanPlan && "scanRows without a lowered row-scan plan");
    const QueryPlan &Plan = *M.RowScanPlan;
    ColumnSet All = D.spec()->columns();
    W.line();
    W.line("  /// Visits every row once, all columns in ascending order; the");
    W.line("  /// concurrent facade's snapshot machinery clones shards");
    W.line("  /// through this scan. Plan " + Plan.str());
    W.open("  template <typename FnT> void scanRows(FnT &&Emit) const {");
    emitStep(Plan, Plan.Root, "Root", Env(), [&](const Env &Final) {
      std::string Args;
      for (ColumnId C : All) {
        if (!Args.empty())
          Args += ", ";
        Args += Final.at(C);
      }
      W.line("Emit(" + Args + ");");
    });
    W.close("}");
  }

  //===------------------------------------------------------------------===
  // remove_by_<key> / update_by_<key> (Section 4.5, specialized).
  //===------------------------------------------------------------------===

  void emitRemove(const MethodOp &Op) {
    ColumnSet Key = Op.Key;
    ColumnSet All = D.spec()->columns();
    assert(Op.Plan && Op.RemoveCut &&
           "remove op lowered without a plan and cut");
    const QueryPlan &Plan = *Op.Plan;
    const Cut &C = *Op.RemoveCut;

    W.line();
    W.line("  /// remove r s for key pattern {" + colsSuffix(Key) +
           "}; returns true if a tuple was removed.");
    W.open("  bool remove_by_" + colsSuffix(Key) + "(" + params(Key, "q_") +
           ") {");

    // 1. Resolve the full tuple (the pattern is a key: at most one).
    W.line("bool Found = false;");
    for (ColumnId Col : All.minus(Key))
      W.line("int64_t c_" + Cat.name(Col) + " = 0;");
    Env E;
    for (ColumnId Col : Key)
      E[Col] = "q_" + Cat.name(Col);
    emitStep(Plan, Plan.Root, "Root", E, [&](const Env &Final) {
      W.line("Found = true;");
      for (ColumnId Col : All.minus(Key))
        W.line("c_" + Cat.name(Col) + " = " + Final.at(Col) + ";");
    });
    W.line("if (!Found) return false;");
    // Columns resolved for navigation may go unused when every edge on
    // the removal path is keyed by the pattern itself.
    for (ColumnId Col : All.minus(Key))
      W.line("(void)c_" + Cat.name(Col) + ";");

    Env Full;
    for (ColumnId Col : Key)
      Full[Col] = "q_" + Cat.name(Col);
    for (ColumnId Col : All.minus(Key))
      Full[Col] = "c_" + Cat.name(Col);

    // 2. Navigate the X instances along the tuple's path (Fig. 10).
    for (NodeId Id : D.topoOrder()) {
      if (C.inY(Id))
        continue;
      std::string Var = "x_" + D.node(Id).Name;
      if (Id == D.root()) {
        W.line(nodeType(Id) + " *" + Var + " = Root;");
        continue;
      }
      W.line(nodeType(Id) + " *" + Var + " = nullptr;");
      for (EdgeId Eg : D.incoming(Id)) {
        const MapEdge &Edge = D.edge(Eg);
        W.line("if (!" + Var + ") " + Var + " = x_" +
               D.node(Edge.From).Name + "->" + edgeMember(Eg) + ".lookup(" +
               keyExpr(Edge, Full) + ");");
      }
      W.line("assert(" + Var + " && \"X instance missing\");");
    }

    // 3. Break the crossing edges; the first break per Y node resolves
    //    the child, later breaks reuse it (eraseNode when intrusive).
    std::map<NodeId, bool> YResolved;
    for (EdgeId Eg : C.CrossingEdges) {
      const MapEdge &Edge = D.edge(Eg);
      std::string Child = "y_" + D.node(Edge.To).Name;
      std::string From = "x_" + D.node(Edge.From).Name;
      if (!YResolved[Edge.To]) {
        W.line(nodeType(Edge.To) + " *" + Child + " = " + From + "->" +
               edgeMember(Eg) + ".erase(" + keyExpr(Edge, Full) + ");");
        W.line("assert(" + Child + " && \"crossing entry missing\");");
        YResolved[Edge.To] = true;
      } else if (dsSupportsEraseByNode(Edge.Ds)) {
        W.line(From + "->" + edgeMember(Eg) + ".eraseNode(" + Child + ");");
      } else {
        W.line(From + "->" + edgeMember(Eg) + ".erase(" +
               keyExpr(Edge, Full) + ");");
      }
      W.line("release(" + Child + ");");
    }

    // 4. Clean up interior X nodes now devoid of children (children
    //    first; the root always stays).
    for (NodeId Id = 0; Id + 1 < D.numNodes(); ++Id) {
      if (C.inY(Id) || D.outgoing(Id).empty())
        continue;
      std::string Var = "x_" + D.node(Id).Name;
      std::string EmptyCheck;
      for (EdgeId Eg : D.outgoing(Id)) {
        if (!EmptyCheck.empty())
          EmptyCheck += " || ";
        EmptyCheck += Var + "->" + edgeMember(Eg) + ".empty()";
      }
      W.open("if (" + EmptyCheck + ") {");
      for (EdgeId Eg : D.incoming(Id)) {
        const MapEdge &Edge = D.edge(Eg);
        std::string From = "x_" + D.node(Edge.From).Name;
        if (dsSupportsEraseByNode(Edge.Ds))
          W.line(From + "->" + edgeMember(Eg) + ".eraseNode(" + Var + ");");
        else
          W.line(From + "->" + edgeMember(Eg) + ".erase(" +
                 keyExpr(Edge, Full) + ");");
        W.line("release(" + Var + ");");
      }
      W.close("}");
    }

    W.line("--Size;");
    W.line("return true;");
    W.close("}");
  }

  void emitUpdate(ColumnSet Key) {
    ColumnSet All = D.spec()->columns();
    ColumnSet Rest = All.minus(Key);
    W.line();
    W.line("  /// update r s u for key pattern {" + colsSuffix(Key) +
           "}, replacing every non-key column (remove + reinsert,");
    W.line("  /// semantically equal per Section 4.5); returns true if a");
    W.line("  /// tuple matched.");
    std::string Params = params(Key, "q_");
    if (!Rest.empty())
      Params += ", " + params(Rest, "v_");
    W.open("  bool update_by_" + colsSuffix(Key) + "(" + Params + ") {");
    W.line("if (!remove_by_" + colsSuffix(Key) + "(" + colList(Key, "q_") +
           ")) return false;");
    W.line("insert(" + mixedArgs(Key, "q_", "v_") + ");");
    W.line("return true;");
    W.close("}");
  }

  //===------------------------------------------------------------------===
  // lookup_by_<key> / upsert_by_<key>: the atomic read-modify-write
  // primitive, specialized (the static twin of
  // SynthesizedRelation::upsert).
  //===------------------------------------------------------------------===

  /// "int64_t &p_a, int64_t &p_b" over \p Cols.
  std::string refParams(ColumnSet Cols, const std::string &Prefix) const {
    std::string Out;
    for (ColumnId C : Cols) {
      if (!Out.empty())
        Out += ", ";
      Out += "int64_t &" + Prefix + Cat.name(C);
    }
    return Out;
  }

  /// Full-tuple argument list in column order: key columns through
  /// \p KeyPrefix, the rest through \p RestPrefix.
  std::string mixedArgs(ColumnSet Key, const std::string &KeyPrefix,
                        const std::string &RestPrefix) const {
    std::string Out;
    for (ColumnId C : D.spec()->columns()) {
      if (!Out.empty())
        Out += ", ";
      Out += (Key.contains(C) ? KeyPrefix : RestPrefix) + Cat.name(C);
    }
    return Out;
  }

  void emitLookup(const MethodOp &Op) {
    ColumnSet Key = Op.Key;
    ColumnSet All = D.spec()->columns();
    ColumnSet Rest = All.minus(Key);
    assert(Op.Plan && "lookup op lowered without a plan");
    const QueryPlan &Plan = *Op.Plan;

    W.line();
    W.line("  /// Resolves the non-key columns of the tuple matching key");
    W.line("  /// pattern {" + colsSuffix(Key) +
           "} into the out-params (ascending column");
    W.line("  /// order); returns false (out-params untouched) if none.");
    std::string Params = params(Key, "q_");
    if (!Rest.empty())
      Params += ", " + refParams(Rest, "c_");
    W.open("  bool lookup_by_" + colsSuffix(Key) + "(" + Params +
           ") const {");
    W.line("bool Found = false;");
    Env E;
    for (ColumnId Col : Key)
      E[Col] = "q_" + Cat.name(Col);
    emitStep(Plan, Plan.Root, "Root", E, [&](const Env &Final) {
      W.line("Found = true;");
      for (ColumnId Col : Rest)
        W.line("c_" + Cat.name(Col) + " = " + Final.at(Col) + ";");
    });
    W.line("return Found;");
    W.close("}");
  }

  void emitUpsert(ColumnSet Key) {
    ColumnSet All = D.spec()->columns();
    ColumnSet Rest = All.minus(Key);
    W.line();
    W.line("  /// Atomic read-modify-write for key pattern {" +
           colsSuffix(Key) + "}: calls");
    W.line("  /// Fn(bool Found, int64_t &...) with the current non-key "
           "values in");
    W.line("  /// ascending column order (zeros when absent, Found == "
           "false); Fn");
    W.line("  /// mutates them and the tuple is reinserted (or inserted "
           "fresh).");
    W.line("  /// Returns true if a new tuple was inserted.");
    W.open("  template <typename FnT> bool upsert_by_" + colsSuffix(Key) +
           "(" + params(Key, "q_") + ", FnT &&Fn) {");
    for (ColumnId C : Rest)
      W.line("int64_t c_" + Cat.name(C) + " = 0;");
    std::string LookupArgs = colList(Key, "q_");
    if (!Rest.empty())
      LookupArgs += ", " + colList(Rest, "c_");
    W.line("bool Found = lookup_by_" + colsSuffix(Key) + "(" + LookupArgs +
           ");");
    std::string FnArgs = "Found";
    if (!Rest.empty())
      FnArgs += ", " + colList(Rest, "c_");
    W.line("Fn(" + FnArgs + ");");
    W.line("if (Found)");
    W.line("  remove_by_" + colsSuffix(Key) + "(" + colList(Key, "q_") +
           ");");
    W.line("insert(" + mixedArgs(Key, "q_", "c_") + ");");
    W.line("return !Found;");
    W.close("}");
  }

  //===------------------------------------------------------------------===
  // The sharded concurrent facade: routing and typed per-method bodies
  // over relc::ShardedCore (src/concurrent/ShardedCore.h), the runtime
  // the interpreted ConcurrentRelation shares — the protocol itself is
  // never emitted. See docs/CONCURRENCY.md.
  //===------------------------------------------------------------------===

  void emitConcurrentFacade() {
    ColumnSet All = D.spec()->columns();
    ColumnId SC = M.ShardColumn;
    assert(SC < Cat.size() && "shard column is not a column");
    std::string SCName = Cat.name(SC);
    std::string Seq = M.ClassName;
    std::string Fac = M.ClassName + "_concurrent";

    W.line();
    W.line("/// Sharded thread-safe facade over " + Seq + ": the relation "
           "is hash-");
    W.line("/// partitioned across NumShards " + Seq +
           " sub-instances by column");
    W.line("/// '" + SCName + "'. Operations whose pattern binds the shard "
           "column touch");
    W.line("/// one shard; the rest fan out (reads shard by shard, "
           "mutations under");
    W.line("/// every writer stripe). Stripes, wait-free epoch reads, "
           "copy-on-write");
    W.line("/// snapshots and the size counter are relc::ShardedCore, the "
           "runtime the");
    W.line("/// interpreted relc::ConcurrentRelation shares "
           "(docs/CONCURRENCY.md);");
    W.line("/// this class routes and supplies the typed bodies. Callbacks "
           "must not");
    W.line("/// call back into the facade.");
    W.open("class " + Fac + " {");
    W.line("public:");
    W.line("  static constexpr unsigned NumShards = " +
           std::to_string(M.Shards) + ";");
    W.line("  /// A consistent point-in-time view of the whole relation; "
           "reads");
    W.line("  /// against it take no locks (see relc::ShardedCore).");
    W.line("  using Snapshot = relc::ShardedCore<" + Seq + ">::Snapshot;");
    W.line("  " + Fac + "() = default;");
    W.line("  " + Fac + "(const " + Fac + " &) = delete;");
    W.line("  " + Fac + " &operator=(const " + Fac + " &) = delete;");
    W.line("  /// Lock-free; exact whenever it does not race a mutation.");
    W.line("  size_t size() const { return Core.size(); }");
    W.line("  bool empty() const { return size() == 0; }");
    W.line("  /// Direct shard access for tests and benches; the caller is");
    W.line("  /// responsible for exclusion.");
    W.line("  const " + Seq + " &shard(unsigned I) const "
           "{ return Core.shard(I); }");

    for (const MethodOp &Op : M.Ops) {
      if (Op.Where != Layer::Facade)
        continue;
      assert(Op.Lock.Mode != LockPlan::Unset &&
             "facade op without a lock plan — run the pass pipeline");
      switch (Op.Kind) {
      case OpKind::Insert:
        // insert: full tuples always bind the shard column.
        W.line();
        W.line("  /// insert r t, routed to the owning shard under its "
               "writer lock.");
        W.open("  bool insert(" + params(All, "v_") + ") {");
        emitWriteOne("v_" + SCName, "insert(" + colList(All, "v_") + ")");
        W.close("}");
        break;
      case OpKind::Query:
        emitFacadeQuery(Op, SCName);
        break;
      case OpKind::ParallelScan:
        emitFacadeParallel(Op);
        break;
      case OpKind::RemoveBy:
        emitFacadeRemove(Op, SCName);
        break;
      case OpKind::UpdateBy:
        emitFacadeUpdate(Op, SCName);
        break;
      case OpKind::UpsertBy:
        emitFacadeUpsert(Op, SCName);
        break;
      case OpKind::TransactBy:
        emitFacadeTransact(Op, SCName);
        break;
      case OpKind::Clear:
        W.line();
        W.line("  /// Empties every shard (all writer locks). Shards pinned "
               "by a");
        W.line("  /// snapshot handle are replaced fresh and retired, not "
               "reset");
        W.line("  /// in place.");
        W.line("  void clear() { Core.clear(); }");
        break;
      case OpKind::LookupBy:
        assert(false && "lookup_by_* is never a facade op");
        break;
      }
    }

    W.line();
    W.line("  /// O(NumShards), no per-tuple work: pins the live shards "
           "under a");
    W.line("  /// brief all-stripe shared hold; writers clone a pinned "
           "shard before");
    W.line("  /// touching it, so the view never moves.");
    W.line("  Snapshot snapshot() const { return Core.snapshot(); }");
    W.line();
    W.line("private:");
    W.open("  static unsigned shardOf(int64_t V) {");
    W.line("return static_cast<unsigned>(relc::hashMix64("
           "static_cast<uint64_t>(V)) % NumShards);");
    W.close("}");
    W.line("  relc::ShardedCore<" + Seq + "> Core{NumShards};");
    W.close("};");
  }

  /// The body of a routed single-shard write: \p Call on the writable
  /// shard owning shard-column value \p ShardVal, inside the core's
  /// one-stripe write scope.
  void emitWriteOne(const std::string &ShardVal, const std::string &Call) {
    W.line("unsigned S = shardOf(" + ShardVal + ");");
    W.line("return Core.writeOne(S, [&] { return Core.writable(S)." + Call +
           "; });");
  }

  //===------------------------------------------------------------------===
  // The wire dispatch table (the spec's `wire` directive): a constexpr
  // opcode -> facade-method mapping matching the relserved protocol
  // (src/server/Wire.h), so a server shim over the generated facade
  // dispatches without hand-maintaining the table. One row per
  // wire-addressable facade op; upserts, parallel scans, and clear are
  // reachable only through other opcodes (Transact / Query) or not
  // wire-exposed at all, so they get no row.
  //===------------------------------------------------------------------===

  void emitWireDispatch() {
    assert(M.hasFacade() && "wire dispatch without a facade");
    struct Row {
      unsigned Opcode;
      std::string Method;
      unsigned Arity;
    };
    // Opcode values mirror wire::Op (kept numeric here so generated
    // headers stay standalone).
    std::vector<Row> Rows;
    for (const MethodOp &Op : M.Ops) {
      if (Op.Where != Layer::Facade)
        continue;
      switch (Op.Kind) {
      case OpKind::Insert:
        Rows.push_back({0x02, "insert", 0});
        break;
      case OpKind::RemoveBy:
        Rows.push_back({0x03, Op.Name, 0});
        break;
      case OpKind::UpdateBy:
        Rows.push_back({0x04, Op.Name, 0});
        break;
      case OpKind::Query:
        Rows.push_back({0x05, Op.Name, 0});
        break;
      case OpKind::TransactBy:
        Rows.push_back({0x06, Op.Name, Op.Arity});
        break;
      case OpKind::ParallelScan:
      case OpKind::UpsertBy:
      case OpKind::LookupBy:
      case OpKind::Clear:
        break;
      }
    }
    // size() exists on every facade.
    Rows.push_back({0x07, "size", 0});

    std::string Fac = M.ClassName + "_concurrent";
    W.line();
    W.line("/// Wire dispatch table for " + Fac + ": one row per wire-");
    W.line("/// addressable facade method, opcode values matching the "
           "relserved");
    W.line("/// binary protocol. An opcode with several specialized "
           "methods (e.g.");
    W.line("/// one Query per query directive) gets one row per method; "
           "lookup()");
    W.line("/// returns the first.");
    W.open("struct " + M.ClassName + "_wire {");
    W.open("struct Entry {");
    W.line("unsigned char Opcode;");
    W.line("const char *Method;");
    W.line("/// Key tuples of a transact row; 0 elsewhere.");
    W.line("unsigned Arity;");
    W.close("};");
    W.line("static constexpr unsigned NumEntries = " +
           std::to_string(Rows.size()) + ";");
    W.open("static constexpr Entry Table[NumEntries] = {");
    for (const Row &R : Rows) {
      char Op[8];
      std::snprintf(Op, sizeof(Op), "0x%02X", R.Opcode);
      W.line("{" + std::string(Op) + ", \"" + R.Method + "\", " +
             std::to_string(R.Arity) + "},");
    }
    W.close("};");
    W.open("static constexpr const Entry *lookup(unsigned char Op) {");
    W.line("for (unsigned I = 0; I != NumEntries; ++I)");
    W.line("  if (Table[I].Opcode == Op)");
    W.line("    return &Table[I];");
    W.line("return nullptr;");
    W.close("}");
    W.close("};");
  }

  void emitFacadeQuery(const MethodOp &Q, const std::string &SCName) {
    bool Routed = Q.Lock.Routed;
    // The epoch read path is a lock-plan decision, not a backend one:
    // LockPlanPrecompute stamps WaitFree on every plain shared query
    // (and leaves it off ParallelScan, whose pooled workers may block).
    assert(Q.Lock.WaitFree &&
           "facade query without the wait-free read plan — run the pass "
           "pipeline");
    std::string Params = params(Q.InputCols, "q_");
    if (!Params.empty())
      Params += ", ";
    std::string FwdArgs = colList(Q.InputCols, "q_");
    if (!FwdArgs.empty())
      FwdArgs += ", ";
    std::string Read = "[&](const " + M.ClassName + " &Sh) { Sh." + Q.Name +
                       "(" + FwdArgs + "Emit); });";

    W.line();
    if (Routed) {
      W.line("  /// " + Q.Name + ": routed (the inputs bind '" + SCName +
             "'), one shard,");
      W.line("  /// wait-free (reader lock only while a writer holds the "
             "shard).");
      W.open("  template <typename FnT> void " + Q.Name + "(" + Params +
             "FnT &&Emit) const {");
      W.line("Core.read(shardOf(q_" + SCName + "), " + Read);
      W.close("}");
      return;
    }

    W.line("  /// " + Q.Name + ": fan-out, each shard in turn "
           "(per-shard-consistent,");
    W.line("  /// not a global snapshot).");
    W.open("  template <typename FnT> void " + Q.Name + "(" + Params +
           "FnT &&Emit) const {");
    W.line("for (unsigned S = 0; S != NumShards; ++S)");
    W.line("  Core.read(S, " + Read);
    W.close("}");
  }

  /// The parallel variant of a fan-out query: one worker per shard,
  /// bounded merge queue. Lowered as its own op directly after the
  /// base query; LockPlanPrecompute already erased the routed and
  /// zero-output cases, so no blank line is emitted here — the comment
  /// block abuts the base query exactly as it always has.
  void emitFacadeParallel(const MethodOp &Op) {
    unsigned K = Op.OutputCols.size();
    assert(K > 0 && !Op.Lock.Routed &&
           "parallel scan survived lock-plan precompute it should not");
    assert(!Op.Lock.WaitFree &&
           "pooled scan workers block on the merge queue; they must hold "
           "reader locks, not epoch sections");
    std::string Params = params(Op.InputCols, "q_");
    if (!Params.empty())
      Params += ", ";
    std::string FwdArgs = colList(Op.InputCols, "q_");
    if (!FwdArgs.empty())
      FwdArgs += ", ";
    std::string LambdaParams, RowInit, EmitArgs;
    for (unsigned I = 0; I != K; ++I) {
      if (I) {
        LambdaParams += ", ";
        RowInit += ", ";
        EmitArgs += ", ";
      }
      LambdaParams += "int64_t r" + std::to_string(I);
      RowInit += "r" + std::to_string(I);
      EmitArgs += "Row[" + std::to_string(I) + "]";
    }
    W.line("  /// As " + Op.Callee + ", scanned by one pooled worker per "
           "shard under");
    W.line("  /// its reader lock (relc::ShardedCore::scanParallel): the "
           "same");
    W.line("  /// multiset of rows, in arbitrary interleaved order. Emit "
           "runs on the");
    W.line("  /// calling thread.");
    W.open("  template <typename FnT> void " + Op.Name + "(" + Params +
           "FnT &&Emit) const {");
    W.line("using RowT = std::array<int64_t, " + std::to_string(K) + ">;");
    W.line("Core.scanParallel<RowT>(");
    W.line("    [&](const " + M.ClassName + " &Sh, auto &&Push) {");
    W.line("      Sh." + Op.Callee + "(" + FwdArgs + "[&](" + LambdaParams +
           ") { Push(RowT{" + RowInit + "}); });");
    W.line("    },");
    W.line("    [&](const RowT &Row) {");
    W.line("      Emit(" + EmitArgs + ");");
    W.line("      return true;");
    W.line("    });");
    W.close("}");
  }

  void emitFacadeRemove(const MethodOp &Op, const std::string &SCName) {
    ColumnSet Key = Op.Key;
    std::string Name = "remove_by_" + colsSuffix(Key);
    W.line();
    if (Op.Lock.Routed) {
      W.line("  /// " + Name + ": routed, one shard under its writer "
             "lock.");
      W.open("  bool " + Name + "(" + params(Key, "q_") + ") {");
      emitWriteOne("q_" + SCName, Name + "(" + colList(Key, "q_") + ")");
      W.close("}");
      return;
    }
    W.line("  /// " + Name + ": the key misses '" + SCName +
           "', so the owner is");
    W.line("  /// unknown — all writer locks, try each shard (at most one "
           "match).");
    W.open("  bool " + Name + "(" + params(Key, "q_") + ") {");
    W.open("return Core.writeAll([&] {");
    W.line("for (unsigned S = 0; S != NumShards; ++S)");
    W.line("  if (Core.writable(S)." + Name + "(" + colList(Key, "q_") + "))");
    W.line("    return true;");
    W.line("return false;");
    W.close("});");
    W.close("}");
  }

  void emitFacadeUpdate(const MethodOp &Op, const std::string &SCName) {
    ColumnSet Key = Op.Key;
    ColumnSet Rest = D.spec()->columns().minus(Key);
    std::string Name = "update_by_" + colsSuffix(Key);
    std::string Params = params(Key, "q_");
    if (!Rest.empty())
      Params += ", " + params(Rest, "v_");
    W.line();
    if (Op.Lock.Routed) {
      W.line("  /// " + Name + ": routed (the key binds '" + SCName +
             "' and the new");
      W.line("  /// values cannot rewrite it), one shard under its writer "
             "lock.");
      W.open("  bool " + Name + "(" + Params + ") {");
      emitWriteOne("q_" + SCName,
                   Name + "(" + mixedArgs(Key, "q_", "v_") + ")");
      W.close("}");
      return;
    }
    W.line("  /// " + Name + ": rewrites every non-key column including "
           "'" + SCName + "',");
    W.line("  /// so the tuple may change owners — all writer locks, "
           "remove from");
    W.line("  /// the current owner, reinsert into the new one "
           "(migration).");
    W.open("  bool " + Name + "(" + Params + ") {");
    W.open("return Core.writeAll([&] {");
    W.open("for (unsigned S = 0; S != NumShards; ++S) {");
    W.open("if (Core.writable(S).remove_by_" + colsSuffix(Key) + "(" +
           colList(Key, "q_") + ")) {");
    W.line("Core.writable(shardOf(v_" + SCName + ")).insert(" +
           mixedArgs(Key, "q_", "v_") + ");");
    W.line("return true;");
    W.close("}");
    W.close("}");
    W.line("return false;");
    W.close("});");
    W.close("}");
  }

  void emitFacadeUpsert(const MethodOp &Op, const std::string &SCName) {
    ColumnSet Key = Op.Key;
    ColumnSet Rest = D.spec()->columns().minus(Key);
    std::string Name = "upsert_by_" + colsSuffix(Key);
    W.line();
    if (Op.Lock.Routed) {
      W.line("  /// " + Name + ": the atomic read-modify-write, routed — "
             "ONE shard");
      W.line("  /// writer lock linearizes the whole cycle (see the "
             "sequential");
      W.line("  /// upsert_by_" + colsSuffix(Key) +
             " for the callback contract).");
      W.open("  template <typename FnT> bool " + Name + "(" +
             params(Key, "q_") + ", FnT &&Fn) {");
      emitWriteOne("q_" + SCName, Name + "(" + colList(Key, "q_") + ", Fn)");
      W.close("}");
      return;
    }
    std::string FnArgs = "Found";
    if (!Rest.empty())
      FnArgs += ", " + colList(Rest, "c_");
    W.line("  /// " + Name + ": the key misses '" + SCName +
           "' — all writer locks;");
    W.line("  /// the new values may rewrite the shard column, migrating "
           "the");
    W.line("  /// tuple to its new owner.");
    W.open("  template <typename FnT> bool " + Name + "(" +
           params(Key, "q_") + ", FnT &&Fn) {");
    W.open("return Core.writeAll([&] {");
    for (ColumnId C : Rest)
      W.line("int64_t c_" + Cat.name(C) + " = 0;");
    emitFindOwner(Key, "c_");
    W.line("bool Found = Owner != NumShards;");
    W.line("Fn(" + FnArgs + ");");
    W.line("if (Found)");
    W.line("  Core.writable(Owner).remove_by_" + colsSuffix(Key) + "(" +
           colList(Key, "q_") + ");");
    // SC is a non-key column here, so the new owner comes from c_<SC>.
    W.line("Core.writable(shardOf(c_" + SCName + ")).insert(" +
           mixedArgs(Key, "q_", "c_") + ");");
    W.line("return !Found;");
    W.close("});");
    W.close("}");
  }

  /// Fan-out owner search: Owner = the shard holding key q_<Key>
  /// (NumShards if none), its non-key values read into <ValPrefix>*.
  void emitFindOwner(ColumnSet Key, const std::string &ValPrefix) {
    ColumnSet Rest = D.spec()->columns().minus(Key);
    W.line("unsigned Owner = NumShards;");
    W.line("for (unsigned S = 0; S != NumShards && Owner == NumShards; "
           "++S)");
    W.line("  if (Core.shard(S).lookup_by_" + colsSuffix(Key) + "(" +
           join({colList(Key, "q_"), colList(Rest, ValPrefix)}) + "))");
    W.line("    Owner = S;");
  }

  /// Joins non-empty argument-list fragments with ", ".
  static std::string join(std::initializer_list<std::string> Parts) {
    std::string Out;
    for (const std::string &P : Parts) {
      if (P.empty())
        continue;
      if (!Out.empty())
        Out += ", ";
      Out += P;
    }
    return Out;
  }

  //===------------------------------------------------------------------===
  // transact*_by_<key>: the atomic N-key read-modify-write. Routed keys
  // lock their owning stripe set through the core's writeSet scope,
  // which sorts, dedups, and acquires ascending — the same total order
  // as every other multi-stripe acquisition.
  //===------------------------------------------------------------------===

  /// Per-side naming: sides are a_, b_, c_, ... with FoundA/FoundB/...
  /// flags and SA/SB/... shard indices.
  static std::string sidePrefix(unsigned I) {
    return std::string(1, char('a' + I)) + "_";
  }
  static std::string sideLetter(unsigned I) {
    return std::string(1, char('A' + I));
  }

  void emitFacadeTransact(const MethodOp &Op, const std::string &SCName) {
    ColumnSet Key = Op.Key;
    ColumnSet Rest = D.spec()->columns().minus(Key);
    unsigned N = Op.Arity;
    assert(N >= 2 && "transact op with a degenerate arity");
    bool Routed = Op.Lock.Routed;
    std::string Suffix = colsSuffix(Key);
    std::string Name = Op.Name;
    std::string Apply =
        N == 2 ? "tx_apply_by_" + Suffix
               : "tx_apply" + std::to_string(N) + "_by_" + Suffix;
    // Fn(bool FoundA, int64_t &a_<rest>..., bool FoundB, ...): one
    // (flag, values) group per side.
    std::string FnArgs;
    for (unsigned I = 0; I != N; ++I)
      FnArgs = join({FnArgs, "Found" + sideLetter(I),
                     colList(Rest, sidePrefix(I))});
    std::string Params;
    for (unsigned I = 0; I != N; ++I)
      Params = join({Params, params(Key, sidePrefix(I))});
    Params = join({Params, "FnT &&Fn"});

    W.line();
    if (N == 2) {
      W.line("  /// " + Name + ": atomic two-key read-modify-write "
             "(transfer-style");
      W.line("  /// transaction) over key pattern {" + Suffix +
             "}. Resolves both tuples,");
      W.line("  /// calls Fn(bool FoundA, int64_t &a_..., bool FoundB, "
             "int64_t &b_...)");
      W.line("  /// exactly once with the pre-transaction non-key values "
             "(zeros when");
      W.line("  /// absent), then writes both sides back — an absent side "
             "is inserted");
      W.line("  /// with whatever values Fn leaves. Fn may return false to "
             "abort");
      W.line("  /// (nothing is written); a void Fn always commits. "
             "Returns true if");
      W.line("  /// the transaction committed.");
    } else {
      W.line("  /// " + Name + ": atomic " + std::to_string(N) +
             "-key read-modify-write over key pattern");
      W.line("  /// {" + Suffix + "}. Resolves all " + std::to_string(N) +
             " tuples, calls Fn(bool FoundA, int64_t &a_...,");
      W.line("  /// ..., bool Found" + sideLetter(N - 1) + ", int64_t &" +
             sidePrefix(N - 1) + "...) exactly once with the "
             "pre-transaction");
      W.line("  /// non-key values (zeros when absent), then writes every "
             "side back —");
      W.line("  /// an absent side is inserted with whatever values Fn "
             "leaves. Fn may");
      W.line("  /// return false to abort (nothing is written); a void Fn "
             "always");
      W.line("  /// commits. Returns true if the transaction committed.");
    }
    std::string Scope = "Core.writeAll([&] {";
    if (Routed) {
      W.line("  /// Locking: exactly the owning shard stripes — " +
             (N == 2 ? std::string("one or two") :
                       "at most " + std::to_string(N)) +
             ", never all —");
      W.line("  /// acquired in ascending index order (two-phase locking, "
             "the same");
      W.line("  /// total order as every other multi-stripe "
             "acquisition).");
      W.open("  template <typename FnT> bool " + Name + "(" + Params +
             ") {");
      std::string StripeList;
      for (unsigned I = 0; I != N; ++I) {
        W.line("unsigned S" + sideLetter(I) + " = shardOf(" +
               sidePrefix(I) + SCName + ");");
        StripeList = join({StripeList, "S" + sideLetter(I)});
      }
      Scope = "Core.writeSet({" + StripeList + "}, [&] {";
    } else {
      W.line("  /// Locking: the key misses '" + SCName +
             "', so the owners are unknown");
      W.line("  /// and the write-back may migrate tuples — every "
             "writer stripe, in");
      W.line("  /// ascending order.");
      W.open("  template <typename FnT> bool " + Name + "(" + Params +
             ") {");
    }
    W.open("return " + Scope);
    for (ColumnId C : Rest)
      for (unsigned I = 0; I != N; ++I)
        W.line("int64_t " + sidePrefix(I) + Cat.name(C) + " = 0;");
    for (unsigned I = 0; I != N; ++I) {
      std::string Side = sideLetter(I);
      std::string Lookup = "lookup_by_" + Suffix + "(" +
                           join({colList(Key, sidePrefix(I)),
                                 colList(Rest, sidePrefix(I))}) +
                           ");";
      if (Routed) {
        W.line("bool Found" + Side + " = Core.shard(S" + Side + ")." +
               Lookup);
      } else {
        W.line("bool Found" + Side + " = false;");
        W.line("for (unsigned S = 0; S != NumShards && !Found" + Side +
               "; ++S)");
        W.line("  Found" + Side + " = Core.shard(S)." + Lookup);
      }
    }
    W.line("bool Commit = true;");
    W.line("if constexpr (std::is_void_v<decltype(Fn(" + FnArgs + "))>)");
    W.line("  Fn(" + FnArgs + ");");
    W.line("else");
    W.line("  Commit = Fn(" + FnArgs + ");");
    W.line("if (!Commit)");
    W.line("  return false;");
    for (unsigned I = 0; I != N; ++I) {
      std::string Shard = Routed ? "S" + sideLetter(I) : "";
      W.line(Apply + "(" +
             join({Shard, colList(Key, sidePrefix(I)),
                   colList(Rest, sidePrefix(I))}) + ");");
    }
    W.line("return true;");
    W.close("});");
    W.close("}");

    // The write-back half, shared by all sides; private.
    W.line();
    W.line("private:");
    std::string ApplyParams =
        join({Routed ? "unsigned S" : "", params(Key, "q_"),
              params(Rest, "c_")});
    if (Routed) {
      W.line("  /// Write-back half of " + Name + ": upserts the key to "
             "the given");
      W.line("  /// values on shard S, inside the caller's write scope.");
      W.open("  void " + Apply + "(" + ApplyParams + ") {");
      W.open("Core.writable(S).upsert_by_" + Suffix + "(" +
             join({colList(Key, "q_"),
                   "[&](" + join({"bool", refParams(Rest, "r_")}) + ") {"}));
      for (ColumnId C : Rest)
        W.line("r_" + Cat.name(C) + " = c_" + Cat.name(C) + ";");
      W.close("});");
      W.close("}");
    } else {
      W.line("  /// Write-back half of " + Name + " inside the caller's "
             "all-stripe");
      W.line("  /// write scope: upserts the key to the given values, "
             "migrating the");
      W.line("  /// tuple to the shard of the new '" + SCName +
             "' value.");
      W.open("  void " + Apply + "(" + ApplyParams + ") {");
      for (ColumnId C : Rest)
        W.line("int64_t o_" + Cat.name(C) + " = 0;");
      emitFindOwner(Key, "o_");
      W.line("if (Owner != NumShards)");
      W.line("  Core.writable(Owner).remove_by_" + Suffix + "(" +
             colList(Key, "q_") + ");");
      W.line("Core.writable(shardOf(c_" + SCName + ")).insert(" +
             mixedArgs(Key, "q_", "c_") + ");");
      W.close("}");
    }
    W.line();
    W.line("public:");
  }

  const ir::Module &M;
  const Decomposition &D;
  const Catalog &Cat;
  CodeWriter W;
  std::map<PrimId, NodeId> UnitOwner;
};

class CppBackend : public Backend {
public:
  std::string_view name() const override { return "cpp"; }
  std::string emit(const ir::Module &M) override {
    assert(M.Decomp && "module with no decomposition");
    return CppEmitter(M).run();
  }
};

} // namespace

std::unique_ptr<Backend> relc::createCppBackend() {
  return std::make_unique<CppBackend>();
}
