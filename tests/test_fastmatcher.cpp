//===- tests/test_fastmatcher.cpp - Optimized matcher ≡ reference machine ------===//
///
/// FastMatcher is the "production C++ matcher" of the paper's narrative;
/// the reference Machine is the idealized semantics of Figs. 17–18. These
/// tests pin their equivalence: identical terminal status, identical first
/// witness, identical resume() streams — on the paper's feature patterns
/// and on thousands of random (pattern, term) pairs spanning the whole
/// core calculus. Since the Machine is differentially tested against the
/// declarative semantics, equivalence transfers Theorem 2 to FastMatcher.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"

#include "dsl/Sema.h"
#include "match/FastMatcher.h"
#include "models/Transformers.h"
#include "opt/StdPatterns.h"
#include "rewrite/RewriteEngine.h"
#include "support/Random.h"

#include <functional>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using pypm::testing::CoreFixture;

namespace {

bool isUserVisibleSym(Symbol S) {
  return S.str().find('$') == std::string_view::npos;
}

/// Restriction used where μ-unfold freshening makes binder names differ
/// between the two engines' memoization strategies (FastMatcher reuses the
/// first unfold's names on retries; the reference machine freshens per
/// retry — user-visible bindings are unaffected).
Witness restrictVisible(const Witness &W) {
  Witness Out;
  for (const auto &[K, V] : W.Theta)
    if (isUserVisibleSym(K))
      Out.Theta.bind(K, V);
  for (const auto &[K, V] : W.Phi)
    if (isUserVisibleSym(K))
      Out.Phi.bind(K, V);
  return Out;
}

class FastMatcherTest : public CoreFixture {
protected:
  void expectAgree(const Pattern *P, term::TermRef T) {
    MatchResult Ref = matchPattern(P, T, Arena);
    MatchResult Fast = FastMatcher::run(P, T, Arena);
    ASSERT_EQ(Fast.Status, Ref.Status)
        << P->toString(Sig) << " vs " << Arena.toString(T);
    if (Ref.Status == MachineStatus::Success) {
      EXPECT_EQ(Fast.W, Ref.W)
          << P->toString(Sig) << " vs " << Arena.toString(T) << "\n  ref  "
          << toString(Ref.W, Sig) << "\n  fast " << toString(Fast.W, Sig);
    }
  }
};

} // namespace

TEST_F(FastMatcherTest, AgreesOnBasicForms) {
  expectAgree(v("x"), t("F(C, D)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, C)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, D)"));
  expectAgree(app("Trans", {v("x")}), t("Softmax1(A)"));
}

TEST_F(FastMatcherTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  const Pattern *P =
      PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")}));
  expectAgree(P, t("A[rank=2]"));
  expectAgree(P, t("Trans(B[rank=7])"));
  expectAgree(P, t("C"));
}

TEST_F(FastMatcherTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  const Pattern *P = PA.exists(
      Y, PA.matchConstraint(PA.var(X), app("Trans", {PA.var(Y)}), X));
  expectAgree(P, t("Trans(B)"));
  expectAgree(P, t("Softmax1(B)"));
}

TEST_F(FastMatcherTest, AgreesOnRecursionIncludingFuelExhaustion) {
  Symbol U = Symbol::intern("U"), X = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body = PA.alt(PA.funVarApp(F, {PA.recCall(U, {X, F})}),
                               PA.funVarApp(F, {PA.var(X)}));
  const Pattern *Chain = PA.mu(U, {X, F}, {X, F}, Body);
  expectAgree(Chain, t("Relu(Relu(Relu(C)))"));
  expectAgree(Chain, t("Relu(Tanh(C))"));
  expectAgree(Chain, t("C"));

  Symbol P = Symbol::intern("P");
  const Pattern *Diverge = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  Machine::Options Tight;
  Tight.MaxMuUnfolds = 32;
  MatchResult Ref = matchPattern(Diverge, t("C"), Arena, Tight);
  MatchResult Fast = FastMatcher::run(Diverge, t("C"), Arena, Tight);
  EXPECT_EQ(Ref.Status, MachineStatus::OutOfFuel);
  EXPECT_EQ(Fast.Status, MachineStatus::OutOfFuel);
}

TEST_F(FastMatcherTest, ResumeStreamsAgree) {
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("y")}),
                            app("Pair", {v("y"), v("x")}));
  term::TermRef T = t("Pair(C1, C2)");
  std::vector<Witness> RefStream = allSolutions(P, T, Arena);
  FastMatcher FM(Arena);
  std::vector<Witness> FastStream;
  MachineStatus S = FM.match(P, T);
  while (S == MachineStatus::Success) {
    FastStream.push_back(FM.witness());
    S = FM.resume();
  }
  ASSERT_EQ(FastStream.size(), RefStream.size());
  for (size_t I = 0; I != RefStream.size(); ++I)
    EXPECT_EQ(FastStream[I], RefStream[I]) << "solution " << I;
}

TEST_F(FastMatcherTest, BacktrackUnwindsTrailExactly) {
  // The left alternate binds x and F before failing; the right alternate
  // must observe a clean state (trail unwinding ≡ snapshot restore).
  Symbol F = Symbol::intern("F");
  op("G", 1);
  const Pattern *Left =
      app("Pair", {PA.funVarApp(F, {v("x")}), app("G", {v("x")})});
  const Pattern *Right = app("Pair", {v("x"), v("y")});
  const Pattern *P = PA.alt(Left, Right);
  term::TermRef T = t("Pair(Relu(C), G(D))");
  expectAgree(P, T);
  MatchResult Fast = FastMatcher::run(P, T, Arena);
  ASSERT_TRUE(Fast.matched());
  // Right branch: x = Relu(C), y = G(D); no φ binding survives.
  EXPECT_EQ(Fast.W.Theta.lookup(Symbol::intern("x")), t("Relu(C)"));
  EXPECT_TRUE(Fast.W.Phi.empty());
}

TEST_F(FastMatcherTest, AgreesOnThePaperLibraries) {
  term::Signature Sig2;
  models::declareModelOps(Sig2);
  auto Fmha = opt::compileFmha(Sig2);
  auto Epilog = opt::compileEpilog(Sig2);
  auto Partition = opt::compilePartition(Sig2);
  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig2, TC);
  term::TermArena Arena2(Sig2);
  graph::TermView View(*G, Arena2);

  std::vector<const Pattern *> Patterns;
  for (const auto *Lib : {Fmha.get(), Epilog.get(), Partition.get()})
    for (const NamedPattern &NP : Lib->PatternDefs)
      Patterns.push_back(NP.Pat);

  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    for (const Pattern *P : Patterns) {
      MatchResult Ref = matchPattern(P, T, Arena2);
      MatchResult Fast = FastMatcher::run(P, T, Arena2);
      ASSERT_EQ(Fast.Status, Ref.Status) << "node " << N;
      if (Ref.matched()) {
        ASSERT_EQ(restrictVisible(Fast.W), restrictVisible(Ref.W))
            << "node " << N;
      }
    }
  }
}

TEST_F(FastMatcherTest, EngineResultsIdenticalUnderBothMatchers) {
  for (auto Config : {opt::OptConfig::FmhaOnly, opt::OptConfig::Both}) {
    term::Signature SigA, SigB;
    models::TransformerConfig TC;
    TC.Name = "t";
    TC.Layers = 2;
    TC.Hidden = 128;
    auto GA = models::buildTransformer(SigA, TC);
    auto GB = models::buildTransformer(SigB, TC);
    opt::Pipeline PA2 = opt::makePipeline(SigA, Config);
    opt::Pipeline PB = opt::makePipeline(SigB, Config);
    rewrite::RewriteOptions FastOpts, RefOpts;
    RefOpts.Matcher = rewrite::MatcherKind::Machine;
    rewrite::RewriteStats SA = rewrite::rewriteToFixpoint(
        *GA, PA2.Rules, graph::ShapeInference(), FastOpts);
    rewrite::RewriteStats SB = rewrite::rewriteToFixpoint(
        *GB, PB.Rules, graph::ShapeInference(), RefOpts);
    EXPECT_EQ(SA.TotalFired, SB.TotalFired);
    EXPECT_EQ(SA.TotalMatches, SB.TotalMatches);
    ASSERT_EQ(GA->numNodes(), GB->numNodes());
    for (graph::NodeId N = 0; N != GA->numNodes(); ++N) {
      EXPECT_EQ(GA->isDead(N), GB->isDead(N));
      if (!GA->isDead(N)) {
        EXPECT_EQ(SigA.name(GA->op(N)), SigB.name(GB->op(N)));
      }
    }
  }
}

TEST_F(FastMatcherTest, StepCountsMatchTheReferenceMachine) {
  // Both engines implement the same transition system; their step counts
  // coincide (one step per action processed).
  const Pattern *P = PA.alt(app("Pair", {v("x"), app("Trans", {v("x")})}),
                            app("Pair", {v("x"), v("y")}));
  term::TermRef T = t("Pair(C, Trans(D))");
  MatchResult Ref = matchPattern(P, T, Arena);
  MatchResult Fast = FastMatcher::run(P, T, Arena);
  EXPECT_EQ(Fast.Stats.Steps, Ref.Stats.Steps);
  EXPECT_EQ(Fast.Stats.Backtracks, Ref.Stats.Backtracks);
  EXPECT_EQ(Fast.Stats.MuUnfolds, Ref.Stats.MuUnfolds);
}

//===----------------------------------------------------------------------===//
// Randomized equivalence
//===----------------------------------------------------------------------===//

namespace {

class FastMatcherRandomTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(FastMatcherRandomTest, RandomPatternsAgree) {
  term::Signature Sig;
  term::TermArena Arena(Sig);
  PatternArena PA;
  Rng R(GetParam() * 6151 + 3);

  term::OpId C0 = Sig.addOp("c0", 0), C1 = Sig.addOp("c1", 0);
  term::OpId U0 = Sig.addOp("u0", 1), B0 = Sig.addOp("b0", 2);

  // Small structural generator (a lighter cousin of the one in
  // test_differential.cpp; μ and ∃F included).
  std::vector<Symbol> Vars{Symbol::intern("x"), Symbol::intern("y")};
  uint64_t Fresh = 0;
  std::function<term::TermRef(unsigned)> GenTerm =
      [&](unsigned Depth) -> term::TermRef {
    if (Depth == 0 || R.chance(1, 3))
      return Arena.leaf(R.chance(1, 2) ? C0 : C1);
    if (R.chance(1, 2))
      return Arena.make(U0, {GenTerm(Depth - 1)});
    return Arena.make(B0, {GenTerm(Depth - 1), GenTerm(Depth - 1)});
  };
  std::function<const Pattern *(unsigned)> GenPat =
      [&](unsigned Depth) -> const Pattern * {
    if (Depth == 0)
      return PA.var(Vars[R.below(2)]);
    switch (R.below(8)) {
    case 0:
      return PA.var(Vars[R.below(2)]);
    case 1:
      return PA.app(U0, {GenPat(Depth - 1)});
    case 2:
      return PA.app(B0, {GenPat(Depth - 1), GenPat(Depth - 1)});
    case 3:
      return PA.alt(GenPat(Depth - 1), GenPat(Depth - 1));
    case 4: {
      Symbol V = Symbol::intern("e" + std::to_string(Fresh++));
      return PA.exists(V, PA.app(U0, {PA.var(V)}));
    }
    case 5: {
      Symbol V = Vars[R.below(2)];
      return PA.matchConstraint(PA.var(V), GenPat(Depth - 1), V);
    }
    case 6: {
      Symbol F = Symbol::intern("F" + std::to_string(Fresh++));
      return PA.existsFun(F, PA.funVarApp(F, {GenPat(Depth - 1)}));
    }
    case 7: {
      Symbol Self = Symbol::intern("P" + std::to_string(Fresh++));
      Symbol Param = Symbol::intern("r" + std::to_string(Fresh++));
      const Pattern *Step = PA.app(U0, {PA.recCall(Self, {Param})});
      return PA.mu(Self, {Param}, {Vars[R.below(2)]},
                   PA.alt(Step, GenPat(Depth - 1)));
    }
    }
    return PA.var(Vars[0]);
  };

  for (int Iter = 0; Iter != 400; ++Iter) {
    term::TermRef T = GenTerm(4);
    const Pattern *P = GenPat(3);
    MatchResult Ref = matchPattern(P, T, Arena);
    MatchResult Fast = FastMatcher::run(P, T, Arena);
    ASSERT_EQ(Fast.Status, Ref.Status)
        << P->toString(Sig) << " against " << Arena.toString(T);
    if (Ref.matched()) {
      // Compare user-visible bindings (μ-retry freshening may differ).
      auto Visible = [](const Witness &W) {
        Witness Out;
        for (const auto &[K, V] : W.Theta)
          if (K.str().find('$') == std::string_view::npos)
            Out.Theta.bind(K, V);
        for (const auto &[K, V] : W.Phi)
          if (K.str().find('$') == std::string_view::npos)
            Out.Phi.bind(K, V);
        return Out;
      };
      ASSERT_EQ(Visible(Fast.W), Visible(Ref.W))
          << P->toString(Sig) << " against " << Arena.toString(T);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastMatcherRandomTest,
                         ::testing::Range<uint64_t>(0, 8));
