//===- tests/test_rewrite.cpp - Greedy fixpoint rewrite engine -----------------===//

#include "NaiveEngine.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/TermView.h"
#include "models/Transformers.h"
#include "rewrite/RewriteEngine.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;
using namespace pypm::rewrite;

namespace {

class RewriteTest : public ::testing::Test {
protected:
  RewriteTest() : G(Sig) { models::declareModelOps(Sig); }

  NodeId input(std::initializer_list<int64_t> Dims,
               term::DType D = term::DType::F32) {
    TensorType T;
    T.Dtype = D;
    T.Dims.assign(Dims.begin(), Dims.end());
    return G.addLeaf("Input", std::move(T));
  }

  NodeId node(std::string_view Op, std::initializer_list<NodeId> In) {
    NodeId N = G.addNode(Sig.lookup(Op), In);
    SI.inferNode(G, N);
    return N;
  }

  std::unique_ptr<pattern::Library> lib(std::string_view Src) {
    return dsl::compileOrDie(Src, Sig);
  }

  term::Signature Sig;
  Graph G;
  ShapeInference SI;
};

constexpr const char *CublasSrc = R"(
  pattern MMxyT(x, y) {
    assert x.shape.rank == 2;
    assert y.shape.rank == 2;
    return MatMul(x, Trans(y));
  }
  rule cublasrule for MMxyT(x, y) {
    if x.eltType == f32 && y.eltType == f32 {
      return cublasMM_xyT_f32(x, y);
    } elif x.eltType == i8 && y.eltType == i8 {
      return cublasMM_xyT_i8(x, y);
    }
  }
)";

} // namespace

TEST_F(RewriteTest, FiresMatchingRuleAndRewrites) {
  auto Lib = lib(CublasSrc);
  NodeId A = input({64, 128});
  NodeId B = input({32, 128});
  NodeId M = node("MatMul", {A, node("Trans", {B})});
  G.addOutput(M);

  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(Stats.TotalFired, 1u);
  EXPECT_EQ(G.countOps("cublasMM_xyT_f32"), 1u);
  EXPECT_EQ(G.countOps("MatMul"), 0u);
  EXPECT_EQ(G.countOps("Trans"), 0u); // dead transpose swept
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
  // Replacement is shape-inferred: x·yᵀ with x [64,128], y [32,128].
  EXPECT_EQ(G.type(G.outputs()[0]).Dims, (std::vector<int64_t>{64, 32}));
}

TEST_F(RewriteTest, RuleDispatchByGuardPicksI8Kernel) {
  auto Lib = lib(CublasSrc);
  NodeId A = input({64, 128}, term::DType::I8);
  NodeId B = input({32, 128}, term::DType::I8);
  NodeId M = node("MatMul", {A, node("Trans", {B})});
  G.addOutput(M);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("cublasMM_xyT_i8"), 1u);
  EXPECT_EQ(G.countOps("cublasMM_xyT_f32"), 0u);
}

TEST_F(RewriteTest, MatchWithoutPassingGuardDoesNotFire) {
  auto Lib = lib(CublasSrc);
  // f16 inputs: pattern matches but neither rule guard passes.
  NodeId A = input({64, 128}, term::DType::F16);
  NodeId B = input({32, 128}, term::DType::F16);
  NodeId M = node("MatMul", {A, node("Trans", {B})});
  G.addOutput(M);
  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(Stats.TotalMatches, 1u);
  EXPECT_EQ(Stats.TotalFired, 0u);
  EXPECT_EQ(Stats.PerPattern.at("MMxyT").GuardRejects, 1u);
  EXPECT_EQ(G.countOps("MatMul"), 1u); // untouched
}

TEST_F(RewriteTest, GreedyRunsToFixpointThroughCascades) {
  // Relu-chain collapse: IdemChain rewrites towers to one application;
  // repeated passes reach the single-Relu fixpoint.
  auto Lib = lib(R"(
    pattern UnaryChain(x, f) { return f(UnaryChain(x, f)); }
    pattern UnaryChain(x, f) { return f(x); }
    pattern IdemChain(x, f) {
      assert f.op_id == op("Relu");
      return f(UnaryChain(x, f));
    }
    rule collapse for IdemChain(x, f) { return f(x); }
  )");
  NodeId X = input({16});
  NodeId Cur = X;
  for (int I = 0; I != 6; ++I)
    Cur = node("Relu", {Cur});
  G.addOutput(Cur);
  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("Relu"), 1u);
  EXPECT_GE(Stats.TotalFired, 1u);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

TEST_F(RewriteTest, FirstRuleWins) {
  // Two rules for one pattern, both guards pass: definition order decides.
  auto Lib = lib(R"(
    pattern AnyRelu(x) { return Relu(x); }
    rule first for AnyRelu(x) { return Tanh(x); }
    rule second for AnyRelu(x) { return Sigmoid(x); }
  )");
  NodeId R = node("Relu", {input({4})});
  G.addOutput(R);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("Tanh"), 1u);
  EXPECT_EQ(G.countOps("Sigmoid"), 0u);
}

TEST_F(RewriteTest, PatternsTriedInLibraryOrder) {
  // Both patterns match the same node; the first-listed wins at the node.
  auto Lib = lib(R"(
    pattern P1(x) { return Relu(x); }
    rule r1 for P1(x) { return Tanh(x); }
    pattern P2(x) { return Relu(x); }
    rule r2 for P2(x) { return Sigmoid(x); }
  )");
  NodeId R = node("Relu", {input({4})});
  G.addOutput(R);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("Tanh"), 1u);
  EXPECT_EQ(G.countOps("Sigmoid"), 0u);
}

TEST_F(RewriteTest, SharedOperandsSurviveRewrite) {
  // The matched subgraph's operand is used elsewhere; it must survive.
  auto Lib = lib(R"(
    pattern AnyRelu(x) { return Relu(x); }
    rule r for AnyRelu(x) { return Tanh(x); }
  )");
  NodeId X = input({4});
  NodeId R = node("Relu", {X});
  NodeId Other = node("Sigmoid", {X});
  NodeId Sum = node("Add", {R, Other});
  G.addOutput(Sum);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("Sigmoid"), 1u);
  EXPECT_EQ(G.countOps("Tanh"), 1u);
  EXPECT_FALSE(G.isDead(X));
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

TEST_F(RewriteTest, RootIndexAblationGivesSameResult) {
  // MMxyT has the concrete root operator MatMul, so the prefilter can
  // skip every non-MatMul node without starting the machine. (Patterns
  // rooted at a function variable, like IdemChain, have no usable root
  // filter — rootOps is "any" — which bench_ablation quantifies.)
  auto Lib = lib(CublasSrc);
  auto Build = [&](Graph &Gr) {
    NodeId A = Gr.addLeaf("Input", TensorType::make(term::DType::F32, {8, 8}));
    NodeId B = Gr.addLeaf("Input", TensorType::make(term::DType::F32, {8, 8}));
    NodeId T = Gr.addNode(Sig.lookup("Trans"), {B});
    NodeId M = Gr.addNode(Sig.lookup("MatMul"), {A, T});
    NodeId R = Gr.addNode(Sig.lookup("Relu"), {M});
    Gr.addOutput(R);
    ShapeInference().inferAll(Gr);
  };
  RuleSet RS;
  RS.addLibrary(*Lib);

  Graph G1(Sig), G2(Sig);
  Build(G1);
  Build(G2);
  RewriteOptions WithIndex, WithoutIndex;
  WithoutIndex.UseRootIndex = false;
  RewriteStats S1 = rewriteToFixpoint(G1, RS, SI, WithIndex);
  RewriteStats S2 = rewriteToFixpoint(G2, RS, SI, WithoutIndex);
  EXPECT_EQ(S1.TotalFired, S2.TotalFired);
  EXPECT_EQ(G1.countOps("cublasMM_xyT_f32"), 1u);
  EXPECT_EQ(G2.countOps("cublasMM_xyT_f32"), 1u);
  // The index skips non-MatMul-rooted nodes without starting the machine.
  EXPECT_LT(S1.PerPattern.at("MMxyT").Attempts,
            S2.PerPattern.at("MMxyT").Attempts);
  EXPECT_GT(S1.PerPattern.at("MMxyT").RootSkips, 0u);
}

TEST_F(RewriteTest, MemoAblationGivesSameResult) {
  auto Lib = lib(CublasSrc);
  auto Build = [&](Graph &Gr) {
    NodeId A = Gr.addLeaf("Input", TensorType::make(term::DType::F32, {8, 8}));
    NodeId B = Gr.addLeaf("Input", TensorType::make(term::DType::F32, {8, 8}));
    NodeId T = Gr.addNode(Sig.lookup("Trans"), {B});
    NodeId M = Gr.addNode(Sig.lookup("MatMul"), {A, T});
    Gr.addOutput(M);
    ShapeInference().inferAll(Gr);
  };
  RuleSet RS;
  RS.addLibrary(*Lib);
  Graph G1(Sig), G2(Sig);
  Build(G1);
  Build(G2);
  RewriteOptions NoMemo;
  NoMemo.MemoizeTermView = false;
  RewriteStats S1 = rewriteToFixpoint(G1, RS, SI);
  RewriteStats S2 = rewriteToFixpoint(G2, RS, SI, NoMemo);
  EXPECT_EQ(S1.TotalFired, S2.TotalFired);
  EXPECT_EQ(G1.countOps("cublasMM_xyT_f32"), 1u);
  EXPECT_EQ(G2.countOps("cublasMM_xyT_f32"), 1u);
}

TEST_F(RewriteTest, MatchAllCountsWithoutMutating) {
  auto Lib = lib(CublasSrc);
  NodeId A = input({64, 128});
  NodeId B = input({32, 128});
  NodeId M = node("MatMul", {A, node("Trans", {B})});
  G.addOutput(M);
  size_t NodesBefore = G.numLiveNodes();
  RuleSet RS;
  RS.addLibrary(*Lib, /*RulesOnly=*/false);
  RewriteStats Stats = matchAll(G, RS);
  EXPECT_EQ(Stats.TotalMatches, 1u);
  EXPECT_EQ(Stats.TotalFired, 0u);
  EXPECT_EQ(G.numLiveNodes(), NodesBefore);
  EXPECT_EQ(G.countOps("MatMul"), 1u);
}

TEST_F(RewriteTest, RewriteLimitStopsEngine) {
  // An A→B, B→A rule pair ping-pongs forever; MaxRewrites bounds it.
  auto Lib = lib(R"(
    pattern IsRelu(x) { return Relu(x); }
    rule toTanh for IsRelu(x) { return Tanh(x); }
    pattern IsTanh(x) { return Tanh(x); }
    rule toRelu for IsTanh(x) { return Relu(x); }
  )");
  NodeId R = node("Relu", {input({4})});
  G.addOutput(R);
  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteOptions Opts;
  Opts.MaxRewrites = 10;
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI, Opts);
  EXPECT_TRUE(Stats.hitRewriteLimit());
  EXPECT_EQ(Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Stats.Status.Reason, BudgetReason::Rewrites);
  EXPECT_EQ(Stats.TotalFired, 10u);
  DiagnosticEngine Diags;
  EXPECT_TRUE(G.verify(Diags)) << Diags.renderAll();
}

TEST_F(RewriteTest, RhsFunVarApplicationBuildsMatchedOperator) {
  auto Lib = lib(R"(
    pattern Wrapped(x, f) {
      assert f.op_class == opclass("unary_pointwise");
      return f(f(x));
    }
    rule once for Wrapped(x, f) { return f(x); }
  )");
  NodeId T = node("Tanh", {node("Tanh", {input({4})})});
  G.addOutput(T);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(G.countOps("Tanh"), 1u);
}

TEST_F(RewriteTest, RhsAttrTemplateRecordsFunVarOp) {
  auto Lib = lib(R"(
    pattern GemmAct2(a, b, f) {
      assert f.op_class == opclass("unary_pointwise");
      return f(MatMul(a, b));
    }
    rule fuse2 for GemmAct2(a, b, f) {
      return GemmEpilog[act = f.op_id](a, b);
    }
  )");
  NodeId M = node("MatMul", {input({8, 8}), input({8, 8})});
  NodeId R = node("Gelu", {M});
  G.addOutput(R);
  RuleSet RS;
  RS.addLibrary(*Lib);
  rewriteToFixpoint(G, RS, SI);
  ASSERT_EQ(G.countOps("GemmEpilog"), 1u);
  NodeId Fused = G.outputs()[0];
  EXPECT_EQ(G.attr(Fused, Symbol::intern("act")),
            static_cast<int64_t>(Sig.lookup("Gelu").index()));
}

TEST_F(RewriteTest, StatsSummaryMentionsPatterns) {
  auto Lib = lib(CublasSrc);
  NodeId M = node("MatMul", {input({8, 8}), node("Trans", {input({8, 8})})});
  G.addOutput(M);
  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  std::string S = Stats.summary();
  EXPECT_NE(S.find("MMxyT"), std::string::npos);
  EXPECT_NE(S.find("fired=1"), std::string::npos);
}

TEST_F(RewriteTest, RootsFirstReachesTheSameFixpointOnChains) {
  auto Lib = lib(R"(
    pattern UnaryChain2(x, f) { return f(UnaryChain2(x, f)); }
    pattern UnaryChain2(x, f) { return f(x); }
    pattern IdemChain2(x, f) {
      assert f.op_id == op("Relu");
      return f(UnaryChain2(x, f));
    }
    rule collapse2 for IdemChain2(x, f) { return f(x); }
  )");
  RuleSet RS;
  RS.addLibrary(*Lib);
  for (auto Order : {Traversal::OperandsFirst, Traversal::RootsFirst}) {
    Graph G2(Sig);
    NodeId X = G2.addLeaf("Input",
                          TensorType::make(term::DType::F32, {16}));
    NodeId Cur = X;
    for (int I = 0; I != 5; ++I)
      Cur = G2.addNode(Sig.lookup("Relu"), {Cur});
    G2.addOutput(Cur);
    ShapeInference().inferAll(G2);
    RewriteOptions Opts;
    Opts.Order = Order;
    rewriteToFixpoint(G2, RS, SI, Opts);
    EXPECT_EQ(G2.countOps("Relu"), 1u);
    DiagnosticEngine Diags;
    EXPECT_TRUE(G2.verify(Diags)) << Diags.renderAll();
  }
}

TEST_F(RewriteTest, RootsFirstFiresFewerRulesOnNestedMatches) {
  // OperandsFirst visits the innermost 2-Relu tower first and collapses
  // incrementally; RootsFirst claims the whole tower at the top in one
  // firing.
  auto Lib = lib(R"(
    pattern UC3(x, f) { return f(UC3(x, f)); }
    pattern UC3(x, f) { return f(x); }
    pattern IC3(x, f) {
      assert f.op_id == op("Relu");
      return f(UC3(x, f));
    }
    rule c3 for IC3(x, f) { return f(x); }
  )");
  RuleSet RS;
  RS.addLibrary(*Lib);
  uint64_t Fired[2];
  int I = 0;
  for (auto Order : {Traversal::OperandsFirst, Traversal::RootsFirst}) {
    Graph G2(Sig);
    NodeId X = G2.addLeaf("Input",
                          TensorType::make(term::DType::F32, {16}));
    NodeId Cur = X;
    for (int K = 0; K != 6; ++K)
      Cur = G2.addNode(Sig.lookup("Relu"), {Cur});
    G2.addOutput(Cur);
    ShapeInference().inferAll(G2);
    RewriteOptions Opts;
    Opts.Order = Order;
    Fired[I++] = rewriteToFixpoint(G2, RS, SI, Opts).TotalFired;
  }
  EXPECT_EQ(Fired[1], 1u);       // RootsFirst: one shot at the top
  EXPECT_GT(Fired[0], Fired[1]); // OperandsFirst cascades bottom-up
}

TEST_F(RewriteTest, EmptyRuleSetIsANoop) {
  NodeId R = node("Relu", {input({4})});
  G.addOutput(R);
  RuleSet RS;
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  EXPECT_EQ(Stats.TotalFired, 0u);
  EXPECT_EQ(Stats.Passes, 1u);
  EXPECT_EQ(G.countOps("Relu"), 1u);
}

TEST_F(RewriteTest, SummaryReportsCountersAndTimes) {
  auto Lib = lib(CublasSrc);
  NodeId A = input({64, 128});
  NodeId B = input({32, 128});
  G.addOutput(node("MatMul", {A, node("Trans", {B})}));
  RuleSet RS;
  RS.addLibrary(*Lib);
  RewriteStats Stats = rewriteToFixpoint(G, RS, SI);
  std::string S = Stats.summary();
  // Header line carries the engine-level counters…
  EXPECT_NE(S.find("passes=" + std::to_string(Stats.Passes)),
            std::string::npos) << S;
  EXPECT_NE(S.find("matches=" + std::to_string(Stats.TotalMatches)),
            std::string::npos) << S;
  EXPECT_NE(S.find("fired=1"), std::string::npos) << S;
  EXPECT_NE(S.find("matchTime="), std::string::npos) << S;
  EXPECT_NE(S.find("discoveryTime="), std::string::npos) << S;
  EXPECT_NE(S.find("totalTime="), std::string::npos) << S;
  // …and every pattern gets its own row.
  EXPECT_NE(S.find("MMxyT"), std::string::npos) << S;
  EXPECT_NE(S.find("attempts="), std::string::npos) << S;
}

TEST_F(RewriteTest, MatchSecondsBoundedByTotalSeconds) {
  // Regression for the Seconds accounting: matching wall-clock is a set of
  // disjoint subintervals of the run in both engines, so the inequality
  // must hold by construction — even under the parallel engine, where the
  // per-worker CPU sums (PatternStats::Seconds) may legitimately exceed
  // wall-clock.
  auto Lib = lib(R"(
    pattern RR(x) { return Relu(Relu(x)); }
    rule rr for RR(x) { return Relu(x); }
  )");
  RuleSet RS;
  RS.addLibrary(*Lib);
  for (unsigned Threads : {0u, 1u, 4u}) {
    Graph G2(Sig);
    NodeId Cur = G2.addLeaf("Input",
                            TensorType::make(term::DType::F32, {16}));
    // A tall Relu tower forces several passes, so both the multi-pass
    // accumulation and the per-pass discovery accounting are exercised.
    for (int K = 0; K != 32; ++K)
      Cur = G2.addNode(Sig.lookup("Relu"), {Cur});
    G2.addOutput(Cur);
    ShapeInference().inferAll(G2);
    RewriteOptions Opts;
    Opts.NumThreads = Threads;
    RewriteStats Stats = rewriteToFixpoint(G2, RS, SI, Opts);
    EXPECT_GT(Stats.Passes, 1u) << Threads;
    EXPECT_GE(Stats.MatchSeconds, 0.0) << Threads;
    EXPECT_LE(Stats.MatchSeconds, Stats.TotalSeconds) << Threads;
    EXPECT_GE(Stats.DiscoverySeconds, 0.0) << Threads;
    EXPECT_LE(Stats.DiscoverySeconds, Stats.MatchSeconds) << Threads;
  }
}

// The representative subtlety end to end. Const(2) and Neg(Const(2))
// exist twice; the view's representative for each term is the
// first-converted twin (the one under r, attempted first). The first fire
// (at u) sweeps that representative; the second (at w) binds x to
// Neg(Const(2)) and must wire its replacement to the surviving twin n2 —
// exactly what the naive reference, rebuilding its view from scratch,
// does. A view that merely erased the dropped representative would make
// the RHS unbuildable here; one that kept it would wire a dead node.
TEST_F(RewriteTest, SweptRepresentativeResolvesToTheLiveTwin) {
  auto Lib = lib(R"(
    pattern RR(x) { return Relu(Relu(x)); }
    rule rr for RR(x) { return Relu(x); }
    pattern SRN(x) { return Sigmoid(Relu(Neg(x))); }
    rule srn for SRN(x) { return Gelu(x); }
    pattern TT(x) { return Tanh(Tanh(x)); }
    rule tt for TT(x) { return Sigmoid(x); }
  )");
  RuleSet RS;
  RS.addLibrary(*Lib);
  auto Build = [&](Graph &Gr) {
    NodeId C1 = Gr.addConst(2.0);
    NodeId N1 = Gr.addNode(Sig.lookup("Neg"), {C1});
    NodeId C2 = Gr.addConst(2.0);
    NodeId N2 = Gr.addNode(Sig.lookup("Neg"), {C2});
    NodeId R = Gr.addNode(Sig.lookup("Relu"), {N1});
    NodeId P = Gr.addNode(Sig.lookup("Tanh"), {N2});
    Gr.addOutput(Gr.addNode(Sig.lookup("Sigmoid"), {R}));
    Gr.addOutput(Gr.addNode(Sig.lookup("Tanh"), {P}));
    SI.inferAll(Gr);
  };
  Graph Ref(Sig);
  Build(Ref);
  RewriteStats RefStats = pypm::testing::naiveRewrite(Ref, RS, SI);
  ASSERT_EQ(RefStats.TotalFired, 2u);
  // n2 (id 3) survives and feeds the Sigmoid the second fire built.
  EXPECT_FALSE(Ref.isDead(3));
  EXPECT_EQ(Ref.countOps("Sigmoid"), 1u);
  const std::string Expected = writeGraphText(Ref);
  for (unsigned Threads : {0u, 1u, 2u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    Graph Gr(Sig);
    Build(Gr);
    RewriteOptions O;
    O.NumThreads = Threads;
    RewriteStats S = rewriteToFixpoint(Gr, RS, SI, O);
    EXPECT_EQ(writeGraphText(Gr), Expected);
    EXPECT_EQ(S.TotalFired, RefStats.TotalFired);
    EXPECT_EQ(S.NodesSwept, RefStats.NodesSwept);
    ASSERT_EQ(S.PerPattern.size(), RefStats.PerPattern.size());
    for (auto [Name, PS] : S.PerPattern) {
      PatternStats Want = RefStats.PerPattern.at(Name);
      PS.Seconds = Want.Seconds = 0.0;
      EXPECT_EQ(PS, Want) << Name;
    }
    DiagnosticEngine Diags;
    EXPECT_TRUE(Gr.verify(Diags)) << Diags.renderAll();
  }
}
