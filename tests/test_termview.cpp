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
