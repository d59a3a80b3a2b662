//===- tests/test_termview.cpp - Graph ↔ term adapter --------------------------===//

#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "models/Transformers.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;

namespace {

class TermViewTest : public ::testing::Test {
protected:
  TermViewTest() : G(Sig), Arena(Sig), View(G, Arena) {
    models::declareModelOps(Sig);
  }

  NodeId input(std::initializer_list<int64_t> Dims) {
    TensorType T;
    T.Dims.assign(Dims.begin(), Dims.end());
    return G.addLeaf("Input", std::move(T));
  }

  term::Signature Sig;
  Graph G;
  term::TermArena Arena;
  TermView View;
  ShapeInference SI;
};

} // namespace

TEST_F(TermViewTest, TermCarriesTensorAttributes) {
  NodeId A = input({8, 128});
  term::TermRef T = View.termFor(A);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("rank")), 2);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("dim0")), 8);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("dim1")), 128);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("elt_type")),
            static_cast<int64_t>(term::DType::F32));
}

TEST_F(TermViewTest, TermCarriesOperatorAttributes) {
  NodeId A = input({1, 3, 8, 8});
  NodeId W = input({4, 3, 3, 3});
  NodeId C = G.addNode(Sig.lookup("Conv2D"), {A, W},
                       {{Symbol::intern("stride"), 2}});
  SI.inferAll(G);
  term::TermRef T = View.termFor(C);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("stride")), 2);
}

TEST_F(TermViewTest, MemoizationSharesConversion) {
  NodeId A = input({4, 4});
  NodeId M = G.addNode(Sig.lookup("MatMul"), {A, A});
  SI.inferAll(G);
  term::TermRef T1 = View.termFor(M);
  term::TermRef T2 = View.termFor(M);
  EXPECT_EQ(T1, T2);
  // Shared node converts to shared subterm.
  EXPECT_EQ(T1->child(0), T1->child(1));
}

TEST_F(TermViewTest, DistinctLeavesStayDistinctTerms) {
  // Two Input leaves with identical types are different values; the uid
  // attribute keeps their terms apart.
  NodeId A = input({4, 4});
  NodeId B = input({4, 4});
  EXPECT_NE(View.termFor(A), View.termFor(B));
}

TEST_F(TermViewTest, EqualConstsShareTerms) {
  NodeId C1 = G.addConst(2.0);
  NodeId C2 = G.addConst(2.0);
  EXPECT_EQ(View.termFor(C1), View.termFor(C2));
  NodeId C3 = G.addConst(3.0);
  EXPECT_NE(View.termFor(C1), View.termFor(C3));
}

TEST_F(TermViewTest, NodeForInvertsTermFor) {
  NodeId A = input({4, 4});
  NodeId M = G.addNode(Sig.lookup("MatMul"), {A, A});
  SI.inferAll(G);
  term::TermRef T = View.termFor(M);
  EXPECT_EQ(View.nodeFor(T), M);
  EXPECT_EQ(View.nodeFor(T->child(0)), A);
}

TEST_F(TermViewTest, NodeForUnknownTermIsInvalid) {
  term::TermRef Foreign = Arena.leaf(Sig.getOrAddOp("Ghost", 0));
  EXPECT_EQ(View.nodeFor(Foreign), InvalidNode);
}

TEST_F(TermViewTest, InvalidateDropsMemo) {
  NodeId A = input({4, 4});
  term::TermRef T1 = View.termFor(A);
  View.invalidate();
  EXPECT_EQ(View.nodeFor(T1), InvalidNode);
  // Re-conversion produces the same (hash-consed) term again.
  EXPECT_EQ(View.termFor(A), T1);
}

TEST_F(TermViewTest, DifferentShapesDifferentTerms) {
  // Shape participates in identity: same op, different dims → different
  // terms (what nonlinear patterns should see).
  NodeId A = input({4, 4});
  NodeId B = input({4, 8});
  NodeId RA = G.addNode(Sig.lookup("Relu"), {A});
  NodeId RB = G.addNode(Sig.lookup("Relu"), {B});
  SI.inferAll(G);
  EXPECT_NE(View.termFor(RA), View.termFor(RB));
}

// Partial invalidation: a committed rewrite drops exactly its footprint
// (users-closure + swept nodes) and keeps every other conversion.
TEST_F(TermViewTest, InvalidateNodesDropsOnlyTheFootprint) {
  NodeId A = input({4, 4});
  NodeId R1 = G.addNode(Sig.lookup("Relu"), {A});
  NodeId R2 = G.addNode(Sig.lookup("Relu"), {R1});
  NodeId T = G.addNode(Sig.lookup("Tanh"), {R2});
  G.addOutput(T);
  SI.inferAll(G);
  term::TermRef TA = View.termFor(A);
  View.termFor(T);
  EXPECT_EQ(View.conversions(), 4u);
  // Relu(Relu(a)) -> Relu(a): a fresh Relu replaces R2.
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId New = G.addNode(Sig.lookup("Relu"), {A});
  SI.inferNode(G, New);
  CommitFootprint F = G.commitRewrite(R2, New, FirstNew);
  EXPECT_EQ(F.Closure, std::vector<NodeId>{T});
  EXPECT_EQ(F.Swept, (std::vector<NodeId>{R1, R2}));
  View.invalidateNodes(F);
  // A survives untouched (memo hit, no conversion); T re-converts against
  // its new input, and New shares R1's old term, so only T and New count.
  EXPECT_EQ(View.nodeFor(TA), A);
  EXPECT_EQ(View.termFor(A), TA);
  View.termFor(T);
  EXPECT_EQ(View.conversions(), 6u);
  EXPECT_EQ(View.nodeFor(View.termFor(T)->child(0)), New);
}

// The representative subtlety: two structurally equal Const-rooted
// subgraphs hash-cons to one term; the first-converted node represents
// it. Sweeping the representative must promote the surviving twin —
// never leave nodeFor pointing at a dead node, and never drop the term
// while a live memoized node still has it.
TEST_F(TermViewTest, DroppingTheRepresentativePromotesTheLiveTwin) {
  NodeId C1 = G.addConst(2.0);
  NodeId N1 = G.addNode(Sig.lookup("Neg"), {C1});
  NodeId C2 = G.addConst(2.0);
  NodeId N2 = G.addNode(Sig.lookup("Neg"), {C2});
  NodeId R = G.addNode(Sig.lookup("Relu"), {N1});
  NodeId T = G.addNode(Sig.lookup("Tanh"), {N2});
  G.addOutput(R);
  G.addOutput(T);
  SI.inferAll(G);
  term::TermRef TR = View.termFor(R);
  View.termFor(T);
  term::TermRef TNeg = TR->child(0);
  term::TermRef TConst = TNeg->child(0);
  ASSERT_EQ(View.termFor(N2), TNeg);
  EXPECT_EQ(View.nodeFor(TNeg), N1); // first converted, not lowest id
  EXPECT_EQ(View.nodeFor(TConst), C1);
  // Replace R by a fresh Sigmoid of an input: R, N1 and C1 all die.
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId X = input({});
  NodeId S = G.addNode(Sig.lookup("Sigmoid"), {X});
  SI.inferAll(G);
  CommitFootprint F = G.commitRewrite(R, S, FirstNew);
  EXPECT_EQ(F.Swept, (std::vector<NodeId>{C1, N1, R}));
  View.invalidateNodes(F);
  EXPECT_EQ(View.nodeFor(TNeg), N2);
  EXPECT_EQ(View.nodeFor(TConst), C2);
  EXPECT_EQ(View.nodeFor(TR), InvalidNode);
  // Dropping the promoted twin too leaves the term unmapped.
  CommitFootprint Twin;
  Twin.Swept = {C2, N2};
  View.invalidateNodes(Twin);
  EXPECT_EQ(View.nodeFor(TNeg), InvalidNode);
  EXPECT_EQ(View.nodeFor(TConst), InvalidNode);
}

// A shadowed twin (converted second) can go without disturbing the
// representative.
TEST_F(TermViewTest, DroppingAShadowedTwinKeepsTheRepresentative) {
  NodeId C1 = G.addConst(2.0);
  NodeId C2 = G.addConst(2.0);
  term::TermRef TC = View.termFor(C2);
  ASSERT_EQ(View.termFor(C1), TC);
  EXPECT_EQ(View.nodeFor(TC), C2);
  CommitFootprint F;
  F.Closure = {C1};
  View.invalidateNodes(F);
  EXPECT_EQ(View.nodeFor(TC), C2);
  // C1 re-converts (a memo miss) and queues behind C2 again.
  EXPECT_EQ(View.termFor(C1), TC);
  EXPECT_EQ(View.conversions(), 3u);
  EXPECT_EQ(View.nodeFor(TC), C2);
}

// A term from another arena may share an index() with one of this view's
// terms; neither lookup may answer with the local node that has it.
TEST_F(TermViewTest, TermFromAnotherArenaResolvesToInvalidNode) {
  NodeId C1 = G.addConst(2.0);
  NodeId C2 = G.addConst(2.0);
  NodeId N = G.addNode(Sig.lookup("Add"), {C1, C2});
  G.addOutput(N);
  SI.inferAll(G);
  term::TermRef Local = View.termFor(N);
  term::TermRef LocalConst = Local->child(0);
  ASSERT_EQ(LocalConst->index(), 0u); // the view converted C1 first

  term::TermArena Other(Sig);
  TermView OtherView(G, Other);
  term::TermRef Foreign = OtherView.termFor(N);
  term::TermRef ForeignConst = Foreign->child(0);
  ASSERT_EQ(ForeignConst->index(), LocalConst->index());
  ASSERT_NE(ForeignConst, LocalConst);
  EXPECT_EQ(View.nodeFor(ForeignConst), InvalidNode);
  EXPECT_EQ(View.nodeFor(Foreign), InvalidNode);
  // C1 and C2 are twins, so the rooted lookup of the local term walks;
  // the foreign one must not.
  EXPECT_EQ(View.nodeFor(LocalConst, N), C1);
  EXPECT_EQ(View.nodeFor(ForeignConst, N), InvalidNode);
  EXPECT_EQ(View.nodeFor(Foreign, N), InvalidNode);
  // An index past everything this view converted answers InvalidNode too.
  term::TermRef Unseen = Other.make(Sig.lookup("Relu"), {Foreign});
  EXPECT_EQ(View.nodeFor(Unseen), InvalidNode);
  EXPECT_EQ(View.nodeFor(Unseen, N), InvalidNode);
}

// Three twins queue in conversion order: the representative's drop
// promotes the next survivor, a dropped node re-queues at the back, and
// invalidate() forgets the whole queue.
TEST_F(TermViewTest, TwinQueueFollowsConversionOrder) {
  NodeId C1 = G.addConst(3.0);
  NodeId C2 = G.addConst(3.0);
  NodeId C3 = G.addConst(3.0);
  term::TermRef TC = View.termFor(C2);
  ASSERT_EQ(View.termFor(C3), TC);
  ASSERT_EQ(View.termFor(C1), TC);
  EXPECT_EQ(View.nodeFor(TC), C2);
  // Drop the middle of the queue, then the representative.
  CommitFootprint Mid;
  Mid.Closure = {C3};
  View.invalidateNodes(Mid);
  EXPECT_EQ(View.nodeFor(TC), C2);
  CommitFootprint Head;
  Head.Closure = {C2};
  View.invalidateNodes(Head);
  EXPECT_EQ(View.nodeFor(TC), C1);
  // Both re-convert behind C1, in their new conversion order.
  View.termFor(C2);
  View.termFor(C3);
  CommitFootprint Next;
  Next.Swept = {C1};
  View.invalidateNodes(Next);
  EXPECT_EQ(View.nodeFor(TC), C2);
  Next.Swept = {C2};
  View.invalidateNodes(Next);
  EXPECT_EQ(View.nodeFor(TC), C3);
  EXPECT_EQ(View.nodeFor(TC, C3), C3);
  Next.Swept = {C3};
  View.invalidateNodes(Next);
  EXPECT_EQ(View.nodeFor(TC), InvalidNode);
  // After invalidate() the first conversion represents again.
  View.termFor(C3);
  View.termFor(C1);
  View.invalidate();
  EXPECT_EQ(View.nodeFor(TC), InvalidNode);
  View.termFor(C1);
  View.termFor(C2);
  EXPECT_EQ(View.nodeFor(TC), C1);
}

// Representatives are per view: two views over one arena (and one graph)
// each keep the node they converted first, and a drop in one leaves the
// other alone.
TEST_F(TermViewTest, ViewsSharingAnArenaKeepTheirOwnRepresentatives) {
  NodeId C1 = G.addConst(4.0);
  NodeId C2 = G.addConst(4.0);
  NodeId R = G.addNode(Sig.lookup("Relu"), {C1});
  G.addOutput(R);
  SI.inferAll(G);
  TermView Second(G, Arena);
  term::TermRef TC = View.termFor(C1);
  ASSERT_EQ(Second.termFor(C2), TC);
  EXPECT_EQ(View.nodeFor(TC), C1);
  EXPECT_EQ(Second.nodeFor(TC), C2);
  // R converts in View only: Second has never seen its term.
  term::TermRef TR = View.termFor(R);
  EXPECT_EQ(View.nodeFor(TR), R);
  EXPECT_EQ(Second.nodeFor(TR), InvalidNode);
  CommitFootprint F;
  F.Closure = {C1, R};
  View.invalidateNodes(F);
  EXPECT_EQ(View.nodeFor(TC), InvalidNode);
  EXPECT_EQ(Second.nodeFor(TC), C2);
  Second.invalidate();
  EXPECT_EQ(View.termFor(C2), TC);
  EXPECT_EQ(View.nodeFor(TC), C2);
  EXPECT_EQ(Second.nodeFor(TC), InvalidNode);
}

// Wide nodes (arity 11, up to 21 attributes) convert to the same terms
// as narrow ones: every child in order, every attribute stored.
TEST_F(TermViewTest, WideNodesConvert) {
  constexpr unsigned Wide = 11;
  term::OpId WideOp = Sig.addOp("WideConcat", Wide);
  std::vector<NodeId> Ins;
  for (unsigned I = 0; I != Wide; ++I)
    Ins.push_back(input({2, 3, 4, 5, 6, 7, 8, 9}));
  std::vector<term::Attr> Attrs;
  for (unsigned I = 0; I != 10; ++I)
    Attrs.push_back({Symbol::intern("opt" + std::to_string(I)), I});
  NodeId N = G.addNode(WideOp, Ins, Attrs);
  NodeId M = G.addNode(WideOp, Ins, Attrs);
  term::TermRef T = View.termFor(N);
  ASSERT_EQ(T->arity(), Wide);
  for (unsigned I = 0; I != Wide; ++I)
    EXPECT_EQ(T->child(I), View.termFor(Ins[I]));
  EXPECT_EQ(T->child(0)->storedAttr(Symbol::intern("dim7")), 9);
  // 2 + rank 0 + 10 operator attributes on the wide node itself.
  EXPECT_EQ(T->attrs().size(), 12u);
  EXPECT_EQ(T->storedAttr(Symbol::intern("opt9")), 9);
  EXPECT_EQ(View.termFor(M), T);
  EXPECT_EQ(View.nodeFor(T), N);
  // A leaf with 2 + 8 dims + its operator attributes (the 10 above, plus
  // the uid addLeaf gives every leaf).
  NodeId Leaf = G.addLeaf("Input", TensorType::make(term::DType::F32,
                                                   {1, 2, 3, 4, 5, 6, 7, 8}),
                          Attrs);
  term::TermRef TL = View.termFor(Leaf);
  ASSERT_GE(G.attrs(Leaf).size(), 10u);
  EXPECT_EQ(TL->attrs().size(), 10u + G.attrs(Leaf).size());
  EXPECT_EQ(TL->storedAttr(Symbol::intern("dim0")), 1);
  EXPECT_EQ(TL->storedAttr(Symbol::intern("opt0")), 0);
  EXPECT_EQ(View.nodeFor(TL), Leaf);
}
