//===- graph/TermView.cpp - Graph ↔ term adapter -----------------------------===//

#include "graph/TermView.h"

#include <algorithm>

using namespace pypm;
using namespace pypm::graph;

term::TermRef TermView::termFor(NodeId N) {
  assert(!G.isDead(N) && "term view of a dead node");
  if (memoized(N))
    return NodeToTerm[N];

  std::vector<term::TermRef> Children;
  Children.reserve(G.inputs(N).size());
  for (NodeId In : G.inputs(N))
    Children.push_back(termFor(In));

  // Tensor-type attributes first, then the node's own operator attributes.
  static const Symbol EltType = Symbol::intern("elt_type");
  static const Symbol Rank = Symbol::intern("rank");
  static const Symbol DimKeys[8] = {
      Symbol::intern("dim0"), Symbol::intern("dim1"), Symbol::intern("dim2"),
      Symbol::intern("dim3"), Symbol::intern("dim4"), Symbol::intern("dim5"),
      Symbol::intern("dim6"), Symbol::intern("dim7")};

  const TensorType &Ty = G.type(N);
  std::vector<term::Attr> Attrs;
  Attrs.reserve(Ty.rank() + 2 + G.attrs(N).size());
  Attrs.push_back({EltType, static_cast<int64_t>(Ty.Dtype)});
  Attrs.push_back({Rank, static_cast<int64_t>(Ty.rank())});
  for (unsigned I = 0; I < Ty.rank() && I < 8; ++I)
    Attrs.push_back({DimKeys[I], Ty.Dims[I]});
  for (const term::Attr &A : G.attrs(N))
    Attrs.push_back(A);

  term::TermRef T =
      Arena.make(G.op(N), std::span<const term::TermRef>(Children), Attrs);
  ++Conversions;
  if (NodeToTerm.size() <= N)
    NodeToTerm.resize(G.numNodes(), nullptr);
  NodeToTerm[N] = T;
  // Keep the first-converted representative; later nodes with the same
  // term queue up behind it.
  if (!TermToNode.emplace(T, N).second)
    Shadowed[T].push_back(N);
  return T;
}

void TermView::dropNode(NodeId N) {
  if (!memoized(N))
    return;
  term::TermRef T = NodeToTerm[N];
  NodeToTerm[N] = nullptr;
  auto Sh = Shadowed.find(T);
  auto Rep = TermToNode.find(T);
  assert(Rep != TermToNode.end() && "memoized term without representative");
  if (Rep->second != N) {
    // A shadowed node: just leave the queue.
    auto &Q = Sh->second;
    Q.erase(std::find(Q.begin(), Q.end(), N));
    if (Q.empty())
      Shadowed.erase(Sh);
    return;
  }
  if (Sh == Shadowed.end()) {
    TermToNode.erase(Rep);
    return;
  }
  // The representative goes: the next-converted survivor takes over.
  Rep->second = Sh->second.front();
  Sh->second.erase(Sh->second.begin());
  if (Sh->second.empty())
    Shadowed.erase(Sh);
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
  auto It = TermToNode.find(T);
  return It == TermToNode.end() ? InvalidNode : It->second;
}

NodeId TermView::nodeFor(term::TermRef T, NodeId Root) const {
  if (!Shadowed.count(T))
    return nodeFor(T);
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
