//===- graph/TermView.cpp - Graph ↔ term adapter -----------------------------===//

#include "graph/TermView.h"

#include <algorithm>

using namespace pypm;
using namespace pypm::graph;

term::TermRef TermView::termFor(NodeId N) {
  assert(!G.isDead(N) && "term view of a dead node");
  if (memoized(N))
    return NodeToTerm[N];

  // Each input's term is pushed once its own conversion has returned, so
  // N's children end up contiguous above Base.
  std::span<const NodeId> Ins = G.inputs(N);
  const size_t Base = ChildScratch.size();
  for (NodeId In : Ins) {
    term::TermRef C = termFor(In);
    ChildScratch.push_back(C);
  }

  // Tensor-type attributes first, then the node's own operator attributes.
  static const Symbol EltType = Symbol::intern("elt_type");
  static const Symbol Rank = Symbol::intern("rank");
  static const Symbol DimKeys[8] = {
      Symbol::intern("dim0"), Symbol::intern("dim1"), Symbol::intern("dim2"),
      Symbol::intern("dim3"), Symbol::intern("dim4"), Symbol::intern("dim5"),
      Symbol::intern("dim6"), Symbol::intern("dim7")};

  const TensorType &Ty = G.type(N);
  std::span<const term::Attr> OpAttrs = G.attrs(N);
  const unsigned Dims = std::min(Ty.rank(), 8u);
  AttrScratch.clear();
  AttrScratch.push_back({EltType, static_cast<int64_t>(Ty.Dtype)});
  AttrScratch.push_back({Rank, static_cast<int64_t>(Ty.rank())});
  for (unsigned I = 0; I < Dims; ++I)
    AttrScratch.push_back({DimKeys[I], Ty.Dims[I]});
  AttrScratch.insert(AttrScratch.end(), OpAttrs.begin(), OpAttrs.end());

  term::TermRef T = Arena.make(
      G.op(N),
      std::span<const term::TermRef>(ChildScratch.data() + Base, Ins.size()),
      AttrScratch);
  ChildScratch.resize(Base);
  ++Conversions;
  if (NodeToTerm.size() <= N)
    NodeToTerm.resize(G.numNodes(), nullptr);
  NodeToTerm[N] = T;
  if (RepOf.size() <= T->index())
    RepOf.resize(Arena.numTerms());
  // Keep the first-converted representative; later nodes with the same
  // term queue up behind it.
  RepEntry &E = RepOf[T->index()];
  if (E.Rep == InvalidNode) {
    E.Rep = E.Last = N;
  } else {
    if (NextTwin.size() < G.numNodes())
      NextTwin.resize(G.numNodes(), InvalidNode);
    NextTwin[E.Last] = N;
    E.Last = N;
  }
  return T;
}

void TermView::dropNode(NodeId N) {
  if (!memoized(N))
    return;
  term::TermRef T = NodeToTerm[N];
  NodeToTerm[N] = nullptr;
  RepEntry &E = RepOf[T->index()];
  assert(E.Rep != InvalidNode && "memoized term without representative");
  if (E.Rep == N) {
    // The representative goes: the next-converted survivor, if any, takes
    // over.
    if (E.Last == N)
      E = RepEntry();
    else
      E.Rep = NextTwin[N];
    return;
  }
  // A shadowed twin: unlink it from its term's chain.
  NodeId Prev = E.Rep;
  while (NextTwin[Prev] != N)
    Prev = NextTwin[Prev];
  NextTwin[Prev] = NextTwin[N];
  if (E.Last == N)
    E.Last = Prev;
}

void TermView::invalidate() {
  for (term::TermRef T : NodeToTerm)
    if (T)
      RepOf[T->index()] = RepEntry();
  NodeToTerm.clear();
}

void TermView::invalidateNodes(const CommitFootprint &F) {
  if (NodeToTerm.empty())
    return;
  for (NodeId N : F.Closure)
    dropNode(N);
  for (NodeId N : F.Swept)
    dropNode(N);
}

NodeId TermView::nodeFor(term::TermRef T) const {
  if (T->index() >= RepOf.size())
    return InvalidNode;
  NodeId Rep = RepOf[T->index()].Rep;
  return Rep != InvalidNode && NodeToTerm[Rep] == T ? Rep : InvalidNode;
}

NodeId TermView::nodeFor(term::TermRef T, NodeId Root) const {
  NodeId Rep = nodeFor(T);
  if (Rep == InvalidNode || RepOf[T->index()].Last == Rep)
    return Rep;
  // Twins: walk Root's cone in DFS preorder (inputs left to right). The
  // first node reached with term T is also the first one a post-order
  // conversion finishes: every node finished before it was reached first,
  // and none of its own descendants can carry T (a term is no strict
  // subterm of itself). A node whose term is no deeper than T cannot have
  // T strictly below it, so its cone is skipped.
  std::vector<uint8_t> Seen(G.numNodes(), 0);
  std::vector<NodeId> Stack{Root};
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    if (Seen[N])
      continue;
    Seen[N] = 1;
    if (!memoized(N)) {
      assert(false && "rooted resolution outside the memo");
      return InvalidNode;
    }
    if (NodeToTerm[N] == T)
      return N;
    if (NodeToTerm[N]->depth() <= T->depth())
      continue;
    auto Ins = G.inputs(N);
    for (size_t I = Ins.size(); I-- != 0;)
      Stack.push_back(Ins[I]);
  }
  return InvalidNode;
}
