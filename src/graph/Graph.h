//===- graph/Graph.h - Tensor computation graph IR --------------*- C++ -*-===//
///
/// \file
/// The operator-graph IR that DLCB's rewriting pass runs on: a DAG of
/// single-result operator nodes over the same Signature the patterns were
/// compiled against. Nodes carry operator-specific attributes (stride,
/// value_u6, …) and a tensor type (dtype + dims) filled in by shape
/// inference; the node↔term adapter exposes rooted subgraphs to the matcher
/// as terms (see TermView.h).
///
/// Mutation model: rewriting is destructive (§2.4) — a fired rule builds
/// replacement nodes, then commitRewrite() redirects all uses of the
/// matched root and sweeps the dead interior nodes, returning the commit's
/// footprint. Node ids are stable; dead nodes stay allocated but are
/// skipped by traversals. Speculation (cost-directed search) applies a
/// rewrite inside an undo scope — checkpoint() ... rollback() — which
/// restores the graph exactly instead of cloning it.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_GRAPH_GRAPH_H
#define PYPM_GRAPH_GRAPH_H

#include "support/Diagnostics.h"
#include "term/DType.h"
#include "term/Term.h"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pypm::graph {

using NodeId = uint32_t;
constexpr NodeId InvalidNode = ~0u;

/// Tensor value type: element dtype plus dimensions. Empty dims = scalar.
struct TensorType {
  term::DType Dtype = term::DType::F32;
  std::vector<int64_t> Dims;

  unsigned rank() const { return static_cast<unsigned>(Dims.size()); }
  int64_t numElements() const {
    int64_t N = 1;
    for (int64_t D : Dims)
      N *= D;
    return N;
  }
  int64_t bytes() const { return numElements() * term::dtypeBytes(Dtype); }

  friend bool operator==(const TensorType &A, const TensorType &B) {
    return A.Dtype == B.Dtype && A.Dims == B.Dims;
  }

  std::string str() const;

  static TensorType make(term::DType Dtype, std::initializer_list<int64_t> Dims) {
    TensorType T;
    T.Dtype = Dtype;
    T.Dims.assign(Dims.begin(), Dims.end());
    return T;
  }
};

struct Node {
  term::OpId Op;
  std::vector<NodeId> Inputs;
  std::vector<term::Attr> Attrs;
  TensorType Type;
  bool Dead = false;
};

/// What one committed rewrite touched: the single input every cache
/// downstream of a fire invalidates from (term view, parallel-commit dirty
/// bits, search cost deltas). See DESIGN.md §"Commit footprint".
struct CommitFootprint {
  /// The matched root whose uses were redirected.
  NodeId Root = InvalidNode;
  /// The transitive users of Root that the commit's descend predicate
  /// admitted, taken before the redirect. The full closure is exactly the
  /// set of nodes whose tree unrollings the commit changes (plus,
  /// harmlessly, the replacement nodes that keep referring to Root); the
  /// walk stops at a rejected user, so a predicate that is closed under
  /// users-of-rejected (e.g. "converted in a downward-closed memo") cuts
  /// it to exactly the admitted part. Each id once, in discovery order.
  std::vector<NodeId> Closure;
  /// Ids this commit swept, ascending (previously dead nodes excluded).
  std::vector<NodeId> Swept;
  /// [NewBegin, NewEnd): the nodes appended since the replacement build
  /// started (replacement nodes and failed-rule orphans alike).
  NodeId NewBegin = 0;
  NodeId NewEnd = 0;
  /// Nodes the sweep examined: worklist pops for a local sweep, every
  /// node slot for a global one.
  uint64_t SweepVisits = 0;

  /// Closure plus swept ids: the footprint's size in the work bounds.
  size_t size() const { return Closure.size() + Swept.size(); }
};

/// The journal of an open undo scope (Graph::checkpoint): the scalar state
/// at the checkpoint plus the first-touch pre-image of every list the scope
/// changed. Owned by the caller and reusable — its buffers keep their
/// capacity across scopes, so a speculation loop allocates nothing in the
/// steady state.
class UndoLog {
  friend class Graph;
  struct SavedList {
    NodeId Node;
    bool Inputs; ///< the node's input list, else its user list
    uint32_t Begin, Size; ///< the pre-image: Pool[Begin, Begin + Size)
  };
  size_t NumNodes = 0;
  uint64_t ApproxBytes = 0;
  bool SweptClean = false;
  NodeId SweptUpTo = 0;
  std::vector<NodeId> Outputs, SweptOutputs;
  std::vector<SavedList> Lists;
  std::vector<NodeId> Pool;
  /// Pre-checkpoint nodes the scope killed.
  std::vector<NodeId> Killed;
  /// First-touch marks per pre-checkpoint node: equal to Epoch once the
  /// node's user (input) list has been saved in this scope.
  std::vector<uint32_t> UsersMark, InputsMark;
  uint32_t Epoch = 0;
};

/// A tensor computation graph over a Signature.
class Graph {
public:
  explicit Graph(term::Signature &Sig) : Sig(Sig) {}
  /// Copies and moves carry the graph state; an open undo scope stays with
  /// the source (see ScopeRef).
  Graph(const Graph &) = default;
  Graph(Graph &&) = default;

  term::Signature &signature() { return Sig; }
  const term::Signature &signature() const { return Sig; }

  /// Creates a node. Input count must match the operator's declared arity.
  NodeId addNode(term::OpId Op, std::span<const NodeId> Inputs,
                 std::vector<term::Attr> Attrs = {});
  NodeId addNode(term::OpId Op, std::initializer_list<NodeId> Inputs,
                 std::vector<term::Attr> Attrs = {}) {
    return addNode(Op, std::span<const NodeId>(Inputs.begin(), Inputs.size()),
                   std::move(Attrs));
  }

  /// Creates a leaf node by operator name (declares arity-0 ops on demand):
  /// convenience for model builders ("Input", "Weight", …).
  NodeId addLeaf(std::string_view OpName, TensorType Type,
                 std::vector<term::Attr> Attrs = {});

  /// Creates a scalar constant: a `Const` leaf whose value_u6 attribute is
  /// round(Value * 1e6), matching the DSL's literal patterns.
  NodeId addConst(double Value, term::DType Dtype = term::DType::F32);

  const Node &node(NodeId N) const {
    assert(N < Nodes.size());
    return Nodes[N];
  }
  term::OpId op(NodeId N) const { return node(N).Op; }
  std::span<const NodeId> inputs(NodeId N) const { return node(N).Inputs; }
  const TensorType &type(NodeId N) const { return node(N).Type; }
  std::span<const term::Attr> attrs(NodeId N) const { return node(N).Attrs; }
  bool isDead(NodeId N) const { return node(N).Dead; }
  std::optional<int64_t> attr(NodeId N, Symbol Key) const;

  void setType(NodeId N, TensorType Type) {
    assert((!Scope.Log || N >= Scope.Log->NumNodes) &&
           "an undo scope only types the nodes it appended");
    Nodes[N].Type = std::move(Type);
  }

  /// Users of \p N (with multiplicity), maintained incrementally.
  std::span<const NodeId> users(NodeId N) const { return Users[N]; }

  /// Redirects every use of \p From (including graph outputs) to \p To.
  /// Users with id >= \p SkipUsersFrom are left untouched: a rewrite passes
  /// the id of its first replacement node here so that uses of the matched
  /// root *inside* the replacement keep referring to the original value
  /// (and no cycle can form).
  void replaceAllUses(NodeId From, NodeId To,
                      NodeId SkipUsersFrom = InvalidNode);

  /// Commits a built rewrite: collects \p Root's users-closure, redirects
  /// every use of \p Root to \p Replacement (uses by nodes with id >=
  /// \p FirstNew — the replacement itself — are kept, as in
  /// replaceAllUses), and sweeps what became unreachable. Returns the
  /// commit's footprint; \p FirstNew must be numNodes() as it was before
  /// the replacement build started.
  ///
  /// \p Descend (a `bool(NodeId)` callable) cuts the closure walk: a user
  /// it rejects is neither recorded nor climbed through. The term view
  /// passes "memoized", speculation whose footprint is discarded passes
  /// "never"; the overload without it walks the full closure.
  ///
  /// The sweep is local when the graph is known to be fully swept (the
  /// last mutation other than appends was a sweep, and the outputs are
  /// unchanged since): it walks down from \p Root and from the
  /// unreferenced nodes appended since that sweep, killing a node when its
  /// live-user count reaches zero and pruning only the user lists it
  /// touches. Otherwise — in particular on a graph never swept — it falls
  /// back to removeUnreachable. Either way the swept set equals what
  /// removeUnreachable would sweep.
  template <typename DescendFn>
  CommitFootprint commitRewrite(NodeId Root, NodeId Replacement,
                                NodeId FirstNew, DescendFn Descend);
  CommitFootprint commitRewrite(NodeId Root, NodeId Replacement,
                                NodeId FirstNew) {
    return commitRewrite(Root, Replacement, FirstNew,
                         [](NodeId) { return true; });
  }

  std::vector<NodeId> &outputs() { return Outputs; }
  const std::vector<NodeId> &outputs() const { return Outputs; }
  void addOutput(NodeId N) { Outputs.push_back(N); }

  /// Total allocated node slots (dead included); node ids are < numNodes().
  size_t numNodes() const { return Nodes.size(); }
  size_t numLiveNodes() const;

  /// Monotone estimate of the bytes this graph has allocated (dead nodes
  /// included — they stay allocated). A deterministic function of the node
  /// sequence built so far; the rewrite engine polls it against
  /// BudgetLimits::MaxMemoryBytes.
  uint64_t approxMemoryBytes() const { return ApproxBytes; }

  /// Marks every node unreachable from the outputs as dead; returns the
  /// count swept. \p SweptIds, when non-null, receives the ids swept by
  /// THIS call (previously dead nodes are not re-reported) in ascending
  /// order — the search loop prices exactly the newly dead nodes when
  /// delta-costing a commit (sim::CostModel::commitDelta).
  size_t removeUnreachable(std::vector<NodeId> *SweptIds = nullptr);

  /// True when every live node is reachable from the outputs as of the
  /// last sweep, so commitRewrite may sweep locally (see there).
  bool sweptClean() const { return SweptClean && Outputs == SweptOutputs; }

  /// Records the graph as fully swept when a sweep would change nothing —
  /// every live node is reachable from the outputs and no user list names
  /// a dead node — so the next commitRewrite may sweep locally. Returns
  /// whether it did; a graph with orphans is left untouched. Bookkeeping
  /// only: removeUnreachable on such a graph edits nothing either. Not
  /// inside an undo scope.
  bool noteSweptIfClean();

  /// Opens an exact undo scope journaling into \p Log (scopes do not
  /// nest). Until rollback(), every mutation — addNode, replaceAllUses,
  /// commitRewrite (redirect and local sweep), removeUnreachable, output
  /// edits — records the first-touch pre-image of what it changes.
  void checkpoint(UndoLog &Log);

  /// Restores the state at checkpoint() and closes the scope: the appended
  /// nodes are truncated, killed nodes revive, and every touched user and
  /// input list, the outputs, the sweep bookkeeping and the allocation
  /// estimate are put back. Afterwards the graph cannot be told apart from
  /// before — the same ids, user-list order, approxMemoryBytes() and
  /// sweptClean(), hence the same next commit footprint.
  void rollback();

  bool inUndoScope() const { return Scope.Log != nullptr; }

  /// Live nodes, inputs before users. Deterministic.
  std::vector<NodeId> topoOrder() const;

  /// Structural invariants: arities match, inputs exist and precede no one
  /// (acyclic), live nodes reference live nodes, outputs live.
  bool verify(DiagnosticEngine &Diags) const;

  /// Counts live nodes with the given operator (test/bench convenience).
  size_t countOps(term::OpId Op) const;
  size_t countOps(std::string_view OpName) const;

private:
  term::Signature &Sig;
  std::vector<Node> Nodes;
  std::vector<std::vector<NodeId>> Users;
  std::vector<NodeId> Outputs;
  uint64_t ApproxBytes = 0;
  /// Local-sweep bookkeeping: SweptClean holds once a sweep made every
  /// live node reachable and no out-of-band redirect happened since;
  /// SweptOutputs is the output list that sweep saw; nodes with ids >=
  /// SweptUpTo were appended after it and may be unreferenced.
  bool SweptClean = false;
  std::vector<NodeId> SweptOutputs;
  NodeId SweptUpTo = 0;
  /// The open undo scope's journal (null when none). Copying or moving a
  /// graph never carries the scope along: the copy starts with none.
  struct ScopeRef {
    UndoLog *Log = nullptr;
    ScopeRef() = default;
    ScopeRef(const ScopeRef &) noexcept {}
    ScopeRef &operator=(const ScopeRef &) = delete;
  };
  /// Mutators test it once per list they touch.
  ScopeRef Scope;
  /// commitRewrite's reusable walk scratch: visit marks (a node is seen
  /// in the current closure walk iff its mark equals WalkEpoch) and one
  /// stack shared by the closure walk and the local sweep's worklist.
  std::vector<uint32_t> WalkMark;
  std::vector<NodeId> WalkStack;
  uint32_t WalkEpoch = 0;

  void saveUsers(NodeId N) {
    if (Scope.Log && N < Scope.Log->NumNodes)
      saveList(N, /*Inputs=*/false);
  }
  void saveInputs(NodeId N) {
    if (Scope.Log && N < Scope.Log->NumNodes)
      saveList(N, /*Inputs=*/true);
  }
  void saveList(NodeId N, bool Inputs);
  void kill(NodeId N) {
    Nodes[N].Dead = true;
    if (Scope.Log && N < Scope.Log->NumNodes)
      Scope.Log->Killed.push_back(N);
  }
  void redirectUses(NodeId From, NodeId To, NodeId SkipUsersFrom);
  bool isOutput(NodeId N) const;
  /// Per node slot: 1 when reachable from the outputs.
  std::vector<char> reachableFromOutputs() const;
  void noteSwept();
  /// Opens a fresh closure walk: every mark reads "unseen".
  void beginWalk();
  /// commitRewrite after the closure walk: redirect, then sweep.
  void redirectAndSweep(CommitFootprint &F, NodeId Replacement);
};

template <typename DescendFn>
CommitFootprint Graph::commitRewrite(NodeId Root, NodeId Replacement,
                                     NodeId FirstNew, DescendFn Descend) {
  CommitFootprint F;
  F.Root = Root;
  F.NewBegin = FirstNew;
  F.NewEnd = static_cast<NodeId>(Nodes.size());
  // Users-closure before the redirect: afterwards Root's old users hang
  // off Replacement and the walk could no longer find them from Root.
  beginWalk();
  WalkStack.assign(1, Root);
  while (!WalkStack.empty()) {
    NodeId Cur = WalkStack.back();
    WalkStack.pop_back();
    for (NodeId U : Users[Cur]) {
      if (WalkMark[U] == WalkEpoch)
        continue;
      WalkMark[U] = WalkEpoch;
      if (!Descend(U))
        continue;
      F.Closure.push_back(U);
      WalkStack.push_back(U);
    }
  }
  redirectAndSweep(F, Replacement);
  return F;
}

} // namespace pypm::graph

#endif // PYPM_GRAPH_GRAPH_H
