//===- tests/test_graph.cpp - Computation graph IR -----------------------------===//

#include "graph/Dot.h"
#include "graph/Graph.h"
#include "graph/TermView.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace pypm;
using namespace pypm::graph;

namespace {

class GraphTest : public ::testing::Test {
protected:
  GraphTest() : G(Sig) {
    MatMul = Sig.addOp("MatMul", 2);
    Relu = Sig.addOp("Relu", 1);
  }

  NodeId leaf(std::initializer_list<int64_t> Dims) {
    TensorType T;
    T.Dims.assign(Dims.begin(), Dims.end());
    return G.addLeaf("Input", std::move(T));
  }

  term::Signature Sig;
  Graph G;
  term::OpId MatMul, Relu;
};

} // namespace

TEST_F(GraphTest, TensorTypeBasics) {
  TensorType T = TensorType::make(term::DType::F32, {8, 128, 768});
  EXPECT_EQ(T.rank(), 3u);
  EXPECT_EQ(T.numElements(), 8 * 128 * 768);
  EXPECT_EQ(T.bytes(), 8 * 128 * 768 * 4);
  EXPECT_EQ(T.str(), "f32[8x128x768]");
  EXPECT_EQ(T, TensorType::make(term::DType::F32, {8, 128, 768}));
  EXPECT_FALSE(T == TensorType::make(term::DType::F16, {8, 128, 768}));
}

TEST_F(GraphTest, AddNodeTracksUsers) {
  NodeId A = leaf({4, 4});
  NodeId B = leaf({4, 4});
  NodeId M = G.addNode(MatMul, {A, B});
  NodeId R = G.addNode(Relu, {M});
  EXPECT_EQ(G.users(A).size(), 1u);
  EXPECT_EQ(G.users(M).size(), 1u);
  EXPECT_EQ(G.users(M)[0], R);
  EXPECT_EQ(G.inputs(M)[0], A);
  EXPECT_EQ(G.numLiveNodes(), 4u);
}

TEST_F(GraphTest, UsersHaveMultiplicity) {
  NodeId A = leaf({4, 4});
  NodeId M = G.addNode(MatMul, {A, A});
  EXPECT_EQ(G.users(A).size(), 2u);
  EXPECT_EQ(G.users(A)[0], M);
}

TEST_F(GraphTest, ReplaceAllUsesRedirects) {
  NodeId A = leaf({4, 4});
  NodeId B = leaf({4, 4});
  NodeId M = G.addNode(MatMul, {A, B});
  NodeId R = G.addNode(Relu, {M});
  G.addOutput(R);
  NodeId M2 = G.addNode(MatMul, {B, A});
  G.replaceAllUses(M, M2);
  EXPECT_EQ(G.inputs(R)[0], M2);
  EXPECT_TRUE(G.users(M).empty());
  EXPECT_EQ(G.users(M2).size(), 1u);
}

TEST_F(GraphTest, ReplaceAllUsesUpdatesOutputs) {
  NodeId A = leaf({4});
  NodeId R = G.addNode(Relu, {A});
  G.addOutput(R);
  NodeId R2 = G.addNode(Relu, {A});
  G.replaceAllUses(R, R2);
  EXPECT_EQ(G.outputs()[0], R2);
}

TEST_F(GraphTest, ReplaceAllUsesSkipsReplacementNodes) {
  // A replacement that references the replaced value must keep that
  // reference (no self-loop).
  NodeId A = leaf({4});
  NodeId R = G.addNode(Relu, {A});
  G.addOutput(R);
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId Wrap = G.addNode(Relu, {R}); // the "replacement" uses R
  G.replaceAllUses(R, Wrap, FirstNew);
  EXPECT_EQ(G.inputs(Wrap)[0], R); // untouched
  EXPECT_EQ(G.outputs()[0], Wrap);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

TEST_F(GraphTest, RemoveUnreachableSweeps) {
  NodeId A = leaf({4});
  NodeId Dead1 = G.addNode(Relu, {A});
  NodeId Dead2 = G.addNode(Relu, {Dead1});
  NodeId Live = G.addNode(Relu, {A});
  G.addOutput(Live);
  size_t Swept = G.removeUnreachable();
  EXPECT_EQ(Swept, 2u);
  EXPECT_TRUE(G.isDead(Dead1));
  EXPECT_TRUE(G.isDead(Dead2));
  EXPECT_FALSE(G.isDead(A));
  EXPECT_FALSE(G.isDead(Live));
  // A's use list no longer mentions the dead user.
  EXPECT_EQ(G.users(A).size(), 1u);
}

TEST_F(GraphTest, TopoOrderAfterRewiring) {
  // replaceAllUses can point low-id nodes at high-id nodes; topoOrder must
  // still put inputs first.
  NodeId A = leaf({4});
  NodeId R1 = G.addNode(Relu, {A});
  NodeId R2 = G.addNode(Relu, {R1});
  G.addOutput(R2);
  NodeId R3 = G.addNode(Relu, {A}); // replacement for R1
  G.replaceAllUses(R1, R3);
  G.removeUnreachable();
  std::vector<NodeId> Order = G.topoOrder();
  std::vector<size_t> Pos(G.numNodes(), ~size_t(0));
  for (size_t I = 0; I != Order.size(); ++I)
    Pos[Order[I]] = I;
  EXPECT_LT(Pos[R3], Pos[R2]);
  EXPECT_LT(Pos[A], Pos[R3]);
}

TEST_F(GraphTest, VerifyAcceptsWellFormedGraph) {
  NodeId A = leaf({4, 4});
  NodeId M = G.addNode(MatMul, {A, A});
  G.addOutput(M);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

TEST_F(GraphTest, VerifyFlagsDeadOutput) {
  NodeId A = leaf({4});
  NodeId R = G.addNode(Relu, {A});
  G.addOutput(R);
  NodeId R2 = G.addNode(Relu, {A});
  G.replaceAllUses(R, R2);
  G.removeUnreachable();
  // Force a dead output.
  G.outputs()[0] = R;
  DiagnosticEngine Diags;
  EXPECT_FALSE(G.verify(Diags));
  EXPECT_NE(Diags.renderAll().find("is dead"), std::string::npos);
}

TEST_F(GraphTest, AttrsAreSortedAndQueryable) {
  term::OpId Conv = Sig.addOp("Conv2D", 1);
  NodeId A = leaf({1, 3, 8, 8});
  NodeId C = G.addNode(Conv, {A},
                       {{Symbol::intern("stride"), 2},
                        {Symbol::intern("pad"), 1}});
  EXPECT_EQ(G.attr(C, Symbol::intern("stride")), 2);
  EXPECT_EQ(G.attr(C, Symbol::intern("pad")), 1);
  EXPECT_FALSE(G.attr(C, Symbol::intern("nope")));
}

TEST_F(GraphTest, AddConstStoresMicroValue) {
  NodeId C = G.addConst(0.5);
  EXPECT_EQ(G.attr(C, Symbol::intern("value_u6")), 500000);
  EXPECT_EQ(Sig.name(G.op(C)).str(), "Const");
  NodeId C2 = G.addConst(-1.25);
  EXPECT_EQ(G.attr(C2, Symbol::intern("value_u6")), -1250000);
}

TEST_F(GraphTest, LeavesGetUniqueIds) {
  NodeId A = leaf({4, 4});
  NodeId B = leaf({4, 4});
  EXPECT_NE(G.attr(A, Symbol::intern("uid")),
            G.attr(B, Symbol::intern("uid")));
}

TEST_F(GraphTest, CountOps) {
  NodeId A = leaf({4});
  NodeId R1 = G.addNode(Relu, {A});
  G.addNode(Relu, {R1});
  EXPECT_EQ(G.countOps("Relu"), 2u);
  EXPECT_EQ(G.countOps("MatMul"), 0u);
  EXPECT_EQ(G.countOps("NoSuchOp"), 0u);
}

TEST_F(GraphTest, DotExportContainsNodesAndEdges) {
  NodeId A = leaf({4, 4});
  NodeId M = G.addNode(MatMul, {A, A});
  G.addOutput(M);
  std::string Dot = toDot(G, "test");
  EXPECT_NE(Dot.find("digraph \"test\""), std::string::npos);
  EXPECT_NE(Dot.find("MatMul"), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
}

// commitRewrite's footprint: the users-closure is taken before the
// redirect, and the swept ids come back ascending.
TEST_F(GraphTest, CommitRewriteReportsItsFootprint) {
  NodeId A = leaf({4});
  NodeId R1 = G.addNode(Relu, {A});
  NodeId R2 = G.addNode(Relu, {R1});
  NodeId R3 = G.addNode(Relu, {R2});
  G.addOutput(R3);
  G.removeUnreachable();
  ASSERT_TRUE(G.sweptClean());
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId New = G.addNode(Relu, {A});
  CommitFootprint F = G.commitRewrite(R2, New, FirstNew);
  EXPECT_EQ(F.Root, R2);
  EXPECT_EQ(F.Closure, std::vector<NodeId>{R3});
  EXPECT_EQ(F.Swept, (std::vector<NodeId>{R1, R2}));
  EXPECT_EQ(F.NewBegin, FirstNew);
  EXPECT_EQ(F.NewEnd, FirstNew + 1);
  EXPECT_EQ(G.inputs(R3)[0], New);
  EXPECT_EQ(G.users(A).size(), 1u);
  // A local sweep visits the dead region and its frontier, not the graph.
  EXPECT_LE(F.SweepVisits, 4u);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

// An out-of-band redirect or output edit makes the graph unswept again:
// the next commit must fall back to the global sweep, which also catches
// what the out-of-band edit stranded.
TEST_F(GraphTest, OutOfBandEditsForceAGlobalSweep) {
  NodeId A = leaf({4});
  NodeId R1 = G.addNode(Relu, {A});
  NodeId R2 = G.addNode(Relu, {A});
  NodeId R3 = G.addNode(Relu, {R2});
  G.addOutput(R1);
  G.addOutput(R3);
  EXPECT_FALSE(G.sweptClean()); // never swept
  G.removeUnreachable();
  EXPECT_TRUE(G.sweptClean());
  G.outputs().pop_back(); // strands R3 and R2
  EXPECT_FALSE(G.sweptClean());
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId New = G.addNode(Relu, {A});
  CommitFootprint F = G.commitRewrite(R1, New, FirstNew);
  EXPECT_EQ(F.Swept, (std::vector<NodeId>{R1, R2, R3}));
  EXPECT_TRUE(G.sweptClean());
  // A public redirect of an interior node strands it without touching the
  // outputs.
  NodeId Top = G.addNode(Relu, {New});
  G.replaceAllUses(New, Top, Top);
  G.removeUnreachable();
  ASSERT_TRUE(G.sweptClean());
  G.replaceAllUses(New, A); // Top now reads A; New is stranded
  EXPECT_FALSE(G.sweptClean());
  FirstNew = static_cast<NodeId>(G.numNodes());
  NodeId New2 = G.addNode(Relu, {A});
  F = G.commitRewrite(Top, New2, FirstNew);
  EXPECT_EQ(F.Swept, (std::vector<NodeId>{New, Top}));
}

namespace {

/// Random DAG with some nodes unreachable from the start.
void buildRandomDag(Rng &R, Graph &G, term::OpId Un, term::OpId Bin) {
  std::vector<NodeId> Nodes;
  for (int I = 0; I != 3; ++I)
    Nodes.push_back(G.addLeaf("Input", TensorType::make(term::DType::F32,
                                                        {4})));
  int NumOps = static_cast<int>(R.range(10, 40));
  for (int I = 0; I != NumOps; ++I) {
    if (R.chance(1, 2))
      Nodes.push_back(G.addNode(Un, {Nodes[R.below(Nodes.size())]}));
    else
      Nodes.push_back(G.addNode(Bin, {Nodes[R.below(Nodes.size())],
                                      Nodes[R.below(Nodes.size())]}));
  }
  G.addOutput(Nodes.back());
  G.addOutput(Nodes[R.below(Nodes.size())]);
}

} // namespace

// The local sweep against its oracle: over random DAGs and random commit
// sequences (replacements wired to the matched root or one of its inputs;
// failed-build orphans sprinkled in), commitRewrite must sweep
// exactly the ids a redirect plus global removeUnreachable sweeps, and
// leave identical user lists and outputs behind. (The first commit on
// each fresh graph takes the global path; the rest are local.)
TEST(GraphCommitOracle, LocalSweepEqualsGlobalSweep) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    term::Signature Sig;
    term::OpId Un = Sig.addOp("Relu", 1), Bin = Sig.addOp("Add", 2);
    Rng R(Seed * 7919 + 1);
    Graph Local(Sig);
    buildRandomDag(R, Local, Un, Bin);
    Graph Oracle = Local;
    for (int Step = 0; Step != 12; ++Step) {
      std::vector<NodeId> Live;
      for (NodeId N = 0; N != Local.numNodes(); ++N)
        if (!Local.isDead(N))
          Live.push_back(N);
      NodeId Root = Live[R.below(Live.size())];
      auto Ins = Local.inputs(Root);
      NodeId FirstNew = static_cast<NodeId>(Local.numNodes());
      // The inputs of the appended Relus: first the orphans (a failed
      // rule's partial build, referenced by nobody), last the replacement.
      std::vector<NodeId> Appended;
      for (uint64_t I = R.below(3); I != 0; --I)
        Appended.push_back(Live[R.below(Live.size())]);
      Appended.push_back(Ins.empty() || R.chance(1, 3)
                             ? Root
                             : Ins[R.below(Ins.size())]);
      NodeId Rep = InvalidNode;
      for (Graph *G : {&Local, &Oracle})
        for (NodeId In : Appended)
          Rep = G->addNode(Un, {In});
      CommitFootprint F = Local.commitRewrite(Root, Rep, FirstNew);
      std::vector<NodeId> Expect;
      Oracle.replaceAllUses(Root, Rep, FirstNew);
      Oracle.removeUnreachable(&Expect);
      ASSERT_EQ(F.Swept, Expect) << "step " << Step;
      ASSERT_EQ(Local.outputs(), Oracle.outputs());
      for (NodeId N = 0; N != Local.numNodes(); ++N) {
        ASSERT_EQ(Local.isDead(N), Oracle.isDead(N)) << N;
        auto UL = Local.users(N), UO = Oracle.users(N);
        ASSERT_EQ(std::vector<NodeId>(UL.begin(), UL.end()),
                  std::vector<NodeId>(UO.begin(), UO.end()))
            << N;
      }
    }
  }
}

// The closure cut against the full closure: over the oracle's random DAGs
// and commits, one graph copy commits with its closure walk cut to its
// view's memo, the other walks the full closure, and each view is
// invalidated by its own footprint. Between commits both views convert
// the same random subset of live roots. The full closure must equal the
// transitive users found by a plain search, and the cut one exactly
// their memoized part — so the two views agree on every memo entry, and
// on nodeFor for every memoized term.
TEST(PrunedClosureOracle, CutFootprintInvalidatesLikeTheFullOne) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    term::Signature Sig;
    term::OpId Un = Sig.addOp("Relu", 1), Bin = Sig.addOp("Add", 2);
    Rng R(Seed * 7919 + 1);
    Graph Cut(Sig);
    buildRandomDag(R, Cut, Un, Bin);
    Graph Full = Cut;
    term::TermArena Arena(Sig); // shared: equal unrollings, equal refs
    TermView CutView(Cut, Arena), FullView(Full, Arena);
    for (int Step = 0; Step != 12; ++Step) {
      SCOPED_TRACE("step " + std::to_string(Step));
      std::vector<NodeId> Live;
      for (NodeId N = 0; N != Cut.numNodes(); ++N)
        if (!Cut.isDead(N))
          Live.push_back(N);
      for (NodeId N : Live) {
        if (R.chance(1, 3)) {
          ASSERT_EQ(CutView.termFor(N), FullView.termFor(N));
        }
      }
      std::vector<uint8_t> Memoized(Cut.numNodes());
      for (NodeId N = 0; N != Cut.numNodes(); ++N)
        Memoized[N] = CutView.memoized(N);

      NodeId Root = Live[R.below(Live.size())];
      auto Ins = Cut.inputs(Root);
      NodeId FirstNew = static_cast<NodeId>(Cut.numNodes());
      std::vector<NodeId> Appended;
      for (uint64_t I = R.below(3); I != 0; --I)
        Appended.push_back(Live[R.below(Live.size())]);
      Appended.push_back(Ins.empty() || R.chance(1, 3)
                             ? Root
                             : Ins[R.below(Ins.size())]);
      NodeId Rep = InvalidNode;
      for (Graph *G : {&Cut, &Full})
        for (NodeId In : Appended)
          Rep = G->addNode(Un, {In});
      // The oracle closure: every transitive user of Root before the
      // redirect, the appended nodes that use Root included.
      std::vector<NodeId> Closure;
      {
        std::vector<uint8_t> Seen(Cut.numNodes());
        std::vector<NodeId> Stack{Root};
        while (!Stack.empty()) {
          NodeId N = Stack.back();
          Stack.pop_back();
          for (NodeId U : Cut.users(N))
            if (!Seen[U]) {
              Seen[U] = 1;
              Closure.push_back(U);
              Stack.push_back(U);
            }
        }
      }
      std::sort(Closure.begin(), Closure.end());
      CommitFootprint FC = Cut.commitRewrite(
          Root, Rep, FirstNew,
          [&](NodeId U) { return CutView.memoized(U); });
      CommitFootprint FF = Full.commitRewrite(Root, Rep, FirstNew);

      std::vector<NodeId> Expect;
      for (NodeId U : Closure)
        if (U < Memoized.size() && Memoized[U])
          Expect.push_back(U);
      std::sort(FF.Closure.begin(), FF.Closure.end());
      ASSERT_EQ(FF.Closure, Closure);
      std::sort(FC.Closure.begin(), FC.Closure.end());
      ASSERT_EQ(FC.Closure, Expect);
      ASSERT_EQ(FC.Swept, FF.Swept);
      CutView.invalidateNodes(FC);
      FullView.invalidateNodes(FF);

      const uint64_t Conversions = CutView.conversions();
      for (NodeId N = 0; N != Cut.numNodes(); ++N) {
        ASSERT_EQ(CutView.memoized(N), FullView.memoized(N)) << N;
        if (!CutView.memoized(N))
          continue;
        term::TermRef T = CutView.termFor(N); // memo hits only
        ASSERT_EQ(T, FullView.termFor(N)) << N;
        ASSERT_EQ(CutView.nodeFor(T), FullView.nodeFor(T)) << N;
        ASSERT_NE(CutView.nodeFor(T), InvalidNode) << N;
      }
      ASSERT_EQ(CutView.conversions(), Conversions);
    }
  }
}

//===----------------------------------------------------------------------===//
// Exact undo scopes
//===----------------------------------------------------------------------===//

namespace {

/// Everything observable about a graph's state: every node slot (op,
/// inputs, attributes, type, liveness), every user list in order, the
/// outputs, the allocation estimate and the sweep bookkeeping.
void expectSameState(const Graph &A, const Graph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  EXPECT_EQ(A.outputs(), B.outputs());
  EXPECT_EQ(A.approxMemoryBytes(), B.approxMemoryBytes());
  EXPECT_EQ(A.sweptClean(), B.sweptClean());
  for (NodeId N = 0; N != A.numNodes(); ++N) {
    SCOPED_TRACE("node " + std::to_string(N));
    EXPECT_EQ(A.op(N), B.op(N));
    EXPECT_EQ(A.isDead(N), B.isDead(N));
    EXPECT_EQ(A.type(N), B.type(N));
    auto IA = A.inputs(N), IB = B.inputs(N);
    EXPECT_EQ(std::vector<NodeId>(IA.begin(), IA.end()),
              std::vector<NodeId>(IB.begin(), IB.end()));
    auto AA = A.attrs(N), AB = B.attrs(N);
    EXPECT_EQ(std::vector<term::Attr>(AA.begin(), AA.end()),
              std::vector<term::Attr>(AB.begin(), AB.end()));
    auto UA = A.users(N), UB = B.users(N);
    EXPECT_EQ(std::vector<NodeId>(UA.begin(), UA.end()),
              std::vector<NodeId>(UB.begin(), UB.end()));
  }
}

/// One random commit in the shape GraphCommitOracle draws: failed-build
/// orphans, then a replacement wired to the root or one of its inputs.
CommitFootprint randomCommit(Rng &R, Graph &G, term::OpId Un) {
  std::vector<NodeId> Live;
  for (NodeId N = 0; N != G.numNodes(); ++N)
    if (!G.isDead(N))
      Live.push_back(N);
  NodeId Root = Live[R.below(Live.size())];
  auto Ins = G.inputs(Root);
  NodeId FirstNew = static_cast<NodeId>(G.numNodes());
  std::vector<NodeId> Appended;
  for (uint64_t I = R.below(3); I != 0; --I)
    Appended.push_back(Live[R.below(Live.size())]);
  Appended.push_back(Ins.empty() || R.chance(1, 3) ? Root
                                                   : Ins[R.below(Ins.size())]);
  NodeId Rep = InvalidNode;
  for (NodeId In : Appended)
    Rep = G.addNode(Un, {In});
  return G.commitRewrite(Root, Rep, FirstNew);
}

void expectSameFootprint(const CommitFootprint &A, const CommitFootprint &B) {
  EXPECT_EQ(A.Root, B.Root);
  EXPECT_EQ(A.Closure, B.Closure);
  EXPECT_EQ(A.Swept, B.Swept);
  EXPECT_EQ(A.NewBegin, B.NewBegin);
  EXPECT_EQ(A.NewEnd, B.NewEnd);
  EXPECT_EQ(A.SweepVisits, B.SweepVisits);
}

} // namespace

// Rollback against an untouched copy: over random DAGs, each step opens a
// scope, makes one to three random commits inside it (the first step of
// every seed runs on a never-swept graph, so its first commit takes the
// global-sweep branch), sometimes an out-of-band redirect, output edit and
// global sweep too, and rolls back. The state must equal the copy's, and
// the next real commit must produce the same footprint on both. One
// journal serves every scope of a seed, so its reuse is covered as well.
TEST(GraphUndo, RollbackRestoresExactStateOverRandomCommits) {
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    term::Signature Sig;
    term::OpId Un = Sig.addOp("Relu", 1), Bin = Sig.addOp("Add", 2);
    Rng R(Seed * 6113 + 5);
    Graph G(Sig);
    buildRandomDag(R, G, Un, Bin);
    UndoLog Log;
    for (int Step = 0; Step != 8; ++Step) {
      SCOPED_TRACE("step " + std::to_string(Step));
      Graph Untouched = G;
      G.checkpoint(Log);
      EXPECT_TRUE(G.inUndoScope());
      EXPECT_FALSE(Graph(G).inUndoScope()); // a copy leaves the scope behind
      for (uint64_t I = 1 + R.below(3); I != 0; --I)
        randomCommit(R, G, Un);
      if (R.chance(1, 3)) {
        NodeId A = static_cast<NodeId>(R.below(G.numNodes()));
        if (!G.isDead(A)) {
          NodeId B = G.addNode(Un, {A});
          G.replaceAllUses(A, B, B);
          G.addOutput(B);
        }
        G.removeUnreachable();
      }
      G.rollback();
      EXPECT_FALSE(G.inUndoScope());
      expectSameState(G, Untouched);
      uint64_t NextSeed = R.below(1u << 30);
      Rng RA(NextSeed), RB(NextSeed);
      expectSameFootprint(randomCommit(RA, G, Un),
                          randomCommit(RB, Untouched, Un));
      expectSameState(G, Untouched);
    }
  }
}

// A copy or a move is a graph of its own: neither carries the source's
// open scope, so mutating it journals nothing into the source's log.
TEST(GraphUndo, CopiesAndMovesStartWithoutAScope) {
  term::Signature Sig;
  term::OpId Un = Sig.addOp("Relu", 1), Bin = Sig.addOp("Add", 2);
  Rng R(7);
  Graph G(Sig);
  buildRandomDag(R, G, Un, Bin);
  Graph Untouched = G;
  UndoLog Log;
  G.checkpoint(Log);
  Graph Copy(G);
  Graph Moved(std::move(Copy));
  EXPECT_FALSE(Moved.inUndoScope());
  Moved.addNode(Un, {0});
  Moved.removeUnreachable();
  EXPECT_TRUE(G.inUndoScope());
  G.rollback();
  expectSameState(G, Untouched);
}

TEST(GraphUndo, RollbackWithNothingChangedIsANoOp) {
  term::Signature Sig;
  term::OpId Un = Sig.addOp("Relu", 1), Bin = Sig.addOp("Add", 2);
  Rng R(11);
  Graph G(Sig);
  buildRandomDag(R, G, Un, Bin);
  G.removeUnreachable();
  Graph Untouched = G;
  UndoLog Log;
  G.checkpoint(Log);
  G.rollback();
  expectSameState(G, Untouched);
  EXPECT_TRUE(G.sweptClean());
}
