//===- tests/test_matchplan.cpp - MatchPlan ≡ FastMatcher ≡ Machine ------------===//
///
/// The MatchPlan subsystem compiles a whole rule set into one shared
/// discrimination-tree bytecode program (plan::Program) executed by
/// plan::Interpreter. These tests pin its equivalence to the two existing
/// matchers at every level:
///
///  - per-attempt: identical terminal status, first witness, resume()
///    stream, and step counters against FastMatcher (and, via
///    test_fastmatcher's equivalence, the reference Machine of
///    Figs. 17-18) — on the paper's feature patterns and on thousands of
///    random (pattern, term) pairs;
///  - prefilter: the discrimination tree's candidate mask is sound (it
///    never prunes an entry that would have matched);
///  - engine: rewriteToFixpoint with Matcher=Plan commits the identical
///    rewrite sequence as the fast matcher on the whole model zoo, at
///    every thread count, and stays bit-identically deterministic across
///    thread counts under budgets, quarantine, and injected faults;
///  - artifact: a .pypmplan round-trip drives the engine to the same
///    result as an in-run compile.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "match/FastMatcher.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "plan/Interpreter.h"
#include "plan/PlanBuilder.h"
#include "plan/PlanSerializer.h"
#include "rewrite/RewriteEngine.h"
#include "support/FaultInjection.h"
#include "support/Random.h"

#include <deque>
#include <functional>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using pypm::testing::CoreFixture;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

bool isUserVisibleSym(Symbol S) {
  return S.str().find('$') == std::string_view::npos;
}

/// Restriction used where μ-unfold freshening makes binder names differ
/// between engines (see test_fastmatcher.cpp). The interpreter shares
/// FastMatcher's memoization, so against FastMatcher we compare whole
/// witnesses; against the reference machine only the visible part.
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

void expectStatsEqual(const MachineStats &A, const MachineStats &B) {
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Backtracks, B.Backtracks);
  EXPECT_EQ(A.MuUnfolds, B.MuUnfolds);
  EXPECT_EQ(A.VarBinds, B.VarBinds);
  EXPECT_EQ(A.GuardEvals, B.GuardEvals);
  EXPECT_EQ(A.GuardStuck, B.GuardStuck);
}

class MatchPlanTest : public CoreFixture {
protected:
  /// Compiles \p P as the sole entry of a program. The NamedPattern and
  /// Program must outlive the interpreter runs, hence the deques.
  const plan::Program &compileSingle(const Pattern *P) {
    Defs.push_back(NamedPattern{Symbol::intern("P"), {}, {}, P});
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    Progs.push_back(plan::PlanBuilder::compile(RS, Sig));
    return Progs.back();
  }

  /// Reference machine vs FastMatcher vs compiled plan, single attempt.
  void expectAgree(const Pattern *P, term::TermRef T,
                   Machine::Options Opts = {}) {
    MatchResult Ref = matchPattern(P, T, Arena, Opts);
    MatchResult Fast = FastMatcher::run(P, T, Arena, Opts);
    const plan::Program &Prog = compileSingle(P);
    MatchResult Plan = plan::Interpreter::run(Prog, 0, T, Arena, Opts);
    ASSERT_EQ(Plan.Status, Ref.Status)
        << P->toString(Sig) << " vs " << Arena.toString(T);
    if (Ref.Status == MachineStatus::Success) {
      // Bit-identical against FastMatcher (shared unfold memoization);
      // visible-restricted against the per-retry-freshening machine.
      EXPECT_EQ(Plan.W, Fast.W)
          << P->toString(Sig) << " vs " << Arena.toString(T) << "\n  fast "
          << toString(Fast.W, Sig) << "\n  plan " << toString(Plan.W, Sig);
      EXPECT_EQ(restrictVisible(Plan.W), restrictVisible(Ref.W));
    }
    expectStatsEqual(Plan.Stats, Fast.Stats);
    // The tree prefilter must never prune an entry that matches.
    std::vector<uint8_t> Mask;
    Prog.candidates(T, Mask);
    ASSERT_EQ(Mask.size(), 1u);
    if (Ref.Status == MachineStatus::Success) {
      EXPECT_TRUE(Mask[0]) << P->toString(Sig) << " pruned against "
                           << Arena.toString(T);
    }
  }

  std::deque<NamedPattern> Defs;
  std::deque<plan::Program> Progs;
};

} // namespace

TEST_F(MatchPlanTest, AgreesOnBasicForms) {
  expectAgree(v("x"), t("F(C, D)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, C)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, D)"));
  expectAgree(app("Trans", {v("x")}), t("Softmax1(A)"));
}

TEST_F(MatchPlanTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  const Pattern *P =
      PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")}));
  expectAgree(P, t("A[rank=2]"));
  expectAgree(P, t("Trans(B[rank=7])"));
  expectAgree(P, t("C"));
}

TEST_F(MatchPlanTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  const Pattern *P = PA.exists(
      Y, PA.matchConstraint(PA.var(X), app("Trans", {PA.var(Y)}), X));
  expectAgree(P, t("Trans(B)"));
  expectAgree(P, t("Softmax1(B)"));
}

TEST_F(MatchPlanTest, AgreesOnRecursionIncludingFuelExhaustion) {
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
  const plan::Program &Prog = compileSingle(Diverge);
  MatchResult Fast = FastMatcher::run(Diverge, t("C"), Arena, Tight);
  MatchResult Plan = plan::Interpreter::run(Prog, 0, t("C"), Arena, Tight);
  EXPECT_EQ(Fast.Status, MachineStatus::OutOfFuel);
  EXPECT_EQ(Plan.Status, MachineStatus::OutOfFuel);
  expectStatsEqual(Plan.Stats, Fast.Stats);
}

TEST_F(MatchPlanTest, ResumeStreamsAgree) {
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("y")}),
                            app("Pair", {v("y"), v("x")}));
  term::TermRef T = t("Pair(C1, C2)");
  std::vector<Witness> RefStream = allSolutions(P, T, Arena);
  const plan::Program &Prog = compileSingle(P);
  plan::Interpreter IP(Prog, Arena);
  std::vector<Witness> PlanStream;
  MachineStatus S = IP.matchEntry(0, T);
  while (S == MachineStatus::Success) {
    PlanStream.push_back(IP.witness());
    S = IP.resume();
  }
  ASSERT_EQ(PlanStream.size(), RefStream.size());
  for (size_t I = 0; I != RefStream.size(); ++I)
    EXPECT_EQ(PlanStream[I], RefStream[I]) << "solution " << I;
}

TEST_F(MatchPlanTest, SharedPrefixIsFactoredInTheTree) {
  // Two patterns share the MatMul root; a third roots at Trans. The tree
  // must discriminate at the root and the mask must reflect it.
  Defs.push_back(NamedPattern{Symbol::intern("A"), {}, {},
                              app("MatMul", {app("Trans", {v("x")}), v("y")})});
  Defs.push_back(NamedPattern{Symbol::intern("B"), {}, {},
                              app("MatMul", {v("x"), v("y")})});
  Defs.push_back(
      NamedPattern{Symbol::intern("C"), {}, {}, app("Trans", {v("x")})});
  rewrite::RuleSet RS;
  for (const NamedPattern &NP : Defs)
    RS.addPattern(NP);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  ASSERT_EQ(Prog.Entries.size(), 3u);
  EXPECT_TRUE(Prog.Wildcards.empty());

  std::vector<uint8_t> Mask;
  Prog.candidates(t("MatMul(Trans(A), B)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{1, 1, 0}));
  Prog.candidates(t("MatMul(A, B)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 1, 0}));
  Prog.candidates(t("Trans(A)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 0, 1}));
  Prog.candidates(t("Softmax1(A)"), Mask);
  EXPECT_EQ(Mask, (std::vector<uint8_t>{0, 0, 0}));

  // The disassembly names every entry (pypmc --emit-plan surface).
  std::string Asm = Prog.disassemble(Sig);
  for (const char *Name : {"A", "B", "C"})
    EXPECT_NE(Asm.find(std::string("(") + Name + ")"), std::string::npos)
        << Asm;
}

TEST_F(MatchPlanTest, CandidateMaskIsSoundOnThePaperLibraries) {
  term::Signature Sig2;
  models::declareModelOps(Sig2);
  auto Fmha = opt::compileFmha(Sig2);
  auto Epilog = opt::compileEpilog(Sig2);
  auto Partition = opt::compilePartition(Sig2);
  rewrite::RuleSet RS;
  for (const auto *Lib : {Fmha.get(), Epilog.get(), Partition.get()})
    RS.addLibrary(*Lib, /*RulesOnly=*/false);
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig2);
  ASSERT_EQ(Prog.Entries.size(), RS.entries().size());

  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(Sig2, TC);
  term::TermArena Arena2(Sig2);
  graph::TermView View(*G, Arena2);

  uint64_t Pruned = 0, Checked = 0;
  std::vector<uint8_t> Mask, GraphMask;
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    Prog.candidates(T, Mask);
    // The graph-walking overload must agree with the term overload.
    Prog.candidates(*G, N, GraphMask);
    EXPECT_EQ(Mask, GraphMask) << "node " << N;
    for (size_t I = 0; I != RS.entries().size(); ++I) {
      ++Checked;
      if (Mask[I])
        continue;
      ++Pruned;
      // Soundness: a pruned entry must not match.
      MatchResult MR =
          FastMatcher::run(RS.entries()[I].Pattern->Pat, T, Arena2);
      EXPECT_NE(MR.Status, MachineStatus::Success)
          << "entry " << I << " pruned but matches at node " << N;
    }
  }
  // The tree must actually prune on a real model (else it is useless).
  EXPECT_GT(Pruned, Checked / 2);
}

//===----------------------------------------------------------------------===//
// Randomized equivalence over the whole core calculus
//===----------------------------------------------------------------------===//

namespace {

class MatchPlanRandomTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

TEST_P(MatchPlanRandomTest, RandomPatternsAgree) {
  term::Signature Sig;
  term::TermArena Arena(Sig);
  PatternArena PA;
  Rng R(GetParam() * 9176 + 11);

  term::OpId C0 = Sig.addOp("c0", 0), C1 = Sig.addOp("c1", 0);
  term::OpId U0 = Sig.addOp("u0", 1), B0 = Sig.addOp("b0", 2);

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

  std::deque<NamedPattern> Defs;
  for (int Iter = 0; Iter != 150; ++Iter) {
    term::TermRef T = GenTerm(4);
    const Pattern *P = GenPat(3);
    Defs.push_back(NamedPattern{Symbol::intern("P"), {}, {}, P});
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);

    MatchResult Fast = FastMatcher::run(P, T, Arena);
    MatchResult Plan = plan::Interpreter::run(Prog, 0, T, Arena);
    ASSERT_EQ(Plan.Status, Fast.Status)
        << P->toString(Sig) << " against " << Arena.toString(T);
    if (Fast.matched()) {
      // μ-unfold binder names come from the process-global fresh counter,
      // which advances between the two runs: compare visible bindings.
      ASSERT_EQ(restrictVisible(Plan.W), restrictVisible(Fast.W))
          << P->toString(Sig) << " against " << Arena.toString(T);
      std::vector<uint8_t> Mask;
      Prog.candidates(T, Mask);
      ASSERT_TRUE(Mask[0]) << P->toString(Sig) << " pruned against "
                           << Arena.toString(T);
    }
    expectStatsEqual(Plan.Stats, Fast.Stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchPlanRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

//===----------------------------------------------------------------------===//
// Engine-level equivalence
//===----------------------------------------------------------------------===//

// Zoo-differential scaffolding shared with test_planprofile.cpp and
// test_naive_reference.cpp.
using pypm::testing::expectFullyEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;

TEST(MatchPlanEngine, ZooRewritesMatchFastMatcherAtEveryThreadCount) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Fast = runModel(Model, {});
      RunResult Plan0 = runModel(Model, planOpts(0));
      expectSameRewrites(Fast, Plan0, Model.Name + " fast vs plan@0");
      for (unsigned Threads : {1u, 2u, 4u, 8u}) {
        RunResult PlanN = runModel(Model, planOpts(Threads));
        expectFullyEqual(Plan0, PlanN,
                         Model.Name + " plan@0 vs plan@" +
                             std::to_string(Threads));
      }
    }
  }
}

TEST(MatchPlanEngine, MuChainPipelineMatchesFast) {
  // UnaryChain adds a μ-pattern (Fig. 3) to the pipeline: the plan lowers
  // it to a MatchMu escape whose unfolds run through the dynamic path.
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Fast = runModel(Suite[I], {}, /*WithUnaryChain=*/true);
    RunResult Plan0 = runModel(Suite[I], planOpts(0), true);
    RunResult Plan4 = runModel(Suite[I], planOpts(4), true);
    expectSameRewrites(Fast, Plan0, Suite[I].Name + " +mu fast vs plan@0");
    expectFullyEqual(Plan0, Plan4, Suite[I].Name + " +mu plan@0 vs plan@4");
  }
}

TEST(MatchPlanEngine, PrecompiledPlanMatchesInRunCompile) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto GA = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);

  rewrite::RewriteOptions Pre = planOpts(0);
  Pre.PrecompiledPlan = &Prog;
  RunResult A;
  A.Stats =
      rewrite::rewriteToFixpoint(*GA, Pipe.Rules, graph::ShapeInference(), Pre);
  A.GraphText = graph::writeGraphText(*GA);
  // The supplied plan was used: nothing was compiled inside the run.
  EXPECT_EQ(A.Stats.PlanCompileSeconds, 0.0);

  RunResult B = runModel(Model, planOpts(0));
  EXPECT_GT(B.Stats.PlanCompileSeconds, 0.0);
  expectFullyEqual(A, B, Model.Name + " precompiled vs in-run");
}

TEST(MatchPlanEngine, MismatchedPrecompiledPlanFallsBackToFreshCompile) {
  // A plan compiled from a different rule set must be rejected (entry
  // names differ) and replaced by an in-run compile, not executed.
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  auto Cublas = opt::compileCublas(Sig);
  rewrite::RuleSet Other;
  Other.addLibrary(*Cublas);
  plan::Program Wrong = plan::PlanBuilder::compile(Other, Sig);

  rewrite::RewriteOptions Opts = planOpts(0);
  Opts.PrecompiledPlan = &Wrong;
  RunResult A;
  A.Stats =
      rewrite::rewriteToFixpoint(*G, Pipe.Rules, graph::ShapeInference(), Opts);
  A.GraphText = graph::writeGraphText(*G);
  EXPECT_GT(A.Stats.PlanCompileSeconds, 0.0); // fell back

  RunResult B = runModel(Model, planOpts(0));
  expectFullyEqual(A, B, Model.Name + " mismatched-precompiled");
}

//===----------------------------------------------------------------------===//
// Governance determinism under the plan matcher
//===----------------------------------------------------------------------===//

namespace {

class MatchPlanGovernanceTest : public ::testing::TestWithParam<unsigned> {};

} // namespace

TEST_P(MatchPlanGovernanceTest, StressRewritesMatchFastAcrossSeeds) {
  // The 50-seed stress zoo: plan@0 and plan@T must commit the same
  // sequence as the fast serial engine. Budgets are generous (no step or
  // fuel ceilings — those diverge across matcher kinds by design), but
  // the rewrite cap must be finite: the stress templates include a
  // ping-pong rule pair that never reaches a fixpoint on its own.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions FastOpts;
    FastOpts.MaxRewrites = 300;
    rewrite::RewriteOptions P0 = planOpts(0);
    P0.MaxRewrites = 300;
    rewrite::RewriteOptions PN = planOpts(Threads);
    PN.MaxRewrites = 300;
    StressOutcome Fast = runStressCase(Seed, FastOpts);
    StressOutcome Plan0 = runStressCase(Seed, P0);
    StressOutcome PlanN = runStressCase(Seed, PN);
    // Committed sequence vs the fast matcher.
    EXPECT_EQ(Fast.GraphText, Plan0.GraphText);
    EXPECT_EQ(Fast.Stats.TotalFired, Plan0.Stats.TotalFired);
    EXPECT_EQ(Fast.Stats.TotalMatches, Plan0.Stats.TotalMatches);
    EXPECT_EQ(Fast.Stats.Status, Plan0.Stats.Status);
    // Full bit-identical determinism across plan thread counts.
    expectOutcomesEqual(Plan0, PlanN, stressRepro(Seed, 0, Threads));
  }
}

TEST_P(MatchPlanGovernanceTest, BudgetExhaustionIsDeterministic) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    // The tree prefilter skips (and so never charges) attempts the root-op
    // index would have started, so plan runs on these seeds charge only a
    // handful of steps total; the ceiling must sit below that to trip.
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget B0(L), BN(L);
    rewrite::RewriteOptions O0 = planOpts(0);
    O0.EngineBudget = &B0;
    rewrite::RewriteOptions ON = planOpts(Threads);
    ON.EngineBudget = &BN;
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "budget"));
    SawExhaustion |=
        S0.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(MatchPlanGovernanceTest, QuarantineIsDeterministic) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions O0 = planOpts(0);
    O0.MachineOpts.MaxSteps = 3;
    O0.QuarantineThreshold = 2;
    rewrite::RewriteOptions ON = O0;
    ON.NumThreads = Threads;
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "quarantine"));
    SawQuarantine |= S0.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

INSTANTIATE_TEST_SUITE_P(Threads, MatchPlanGovernanceTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

namespace {

/// The guard-throwing fixture of test_faults, re-run under the plan
/// matcher: the engine's fault sites fire in committed order, which the
/// matcher kind does not change.
class MatchPlanFaultTest : public ::testing::Test {
protected:
  MatchPlanFaultTest() {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(
        "pattern AG(x, y) { return Add(Relu(x), Relu(y)); }\n"
        "rule ag for AG(x, y) {\n"
        "  assert x.shape.rank == 2;\n"
        "  return Relu(Add(x, y));\n"
        "}\n"
        "pattern RR(x) { return Relu(Relu(x)); }\n"
        "rule rr for RR(x) { return Relu(x); }\n",
        Sig);
    RS.addLibrary(*Lib);
  }

  StressOutcome run(unsigned Threads, FaultInjector &F) {
    graph::Graph G(Sig);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {A}),
                                      G.addNode(Sig.lookup("Relu"), {B})});
    G.addOutput(Root);
    graph::ShapeInference SI;
    SI.inferAll(G);
    rewrite::RewriteOptions Opts = planOpts(Threads);
    Opts.Faults = &F;
    StressOutcome Out;
    Out.Stats = rewrite::rewriteToFixpoint(G, RS, SI, Opts);
    Out.GraphText = graph::writeGraphText(G);
    return Out;
  }

  term::Signature Sig;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
};

} // namespace

TEST_F(MatchPlanFaultTest, GuardFaultQuarantinesDeterministically) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F0(C), F2(C), F4(C);
  StressOutcome S0 = run(0, F0);
  EXPECT_EQ(S0.Stats.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S0.Stats.Status.FaultsAbsorbed, 1u);
  EXPECT_EQ(S0.Stats.Status.QuarantinedPatterns,
            std::vector<std::string>{"AG"});
  expectOutcomesEqual(S0, run(2, F2), "guard-fault threads=0 vs 2");
  expectOutcomesEqual(S0, run(4, F4), "guard-fault threads=0 vs 4");
}

//===----------------------------------------------------------------------===//
// .pypmplan artifact round-trips
//===----------------------------------------------------------------------===//

TEST(MatchPlanSerializer, RoundTripDrivesTheEngineIdentically) {
  // Serialize the epilog library (guards, op-class constraints, function
  // variables), reload it into a fresh signature, and run the engine off
  // the loaded artifact: committed results must equal an in-run compile.
  term::Signature SigA;
  models::declareModelOps(SigA);
  auto LibA = opt::compileEpilog(SigA);
  DiagnosticEngine Diags;
  std::string Bytes = plan::serializePlan(*LibA, SigA, /*RulesOnly=*/true,
                                          Diags);
  ASSERT_FALSE(Bytes.empty()) << Diags.renderAll();

  // Load into a signature that already holds ops at different indices:
  // exercises the operator-renumbering path the loader recompiles around.
  term::Signature SigB;
  SigB.getOrAddOp("zz_unrelated", 3);
  models::declareModelOps(SigB);
  DiagnosticEngine LoadDiags;
  auto LP = plan::deserializePlan(Bytes, SigB, LoadDiags);
  ASSERT_NE(LP, nullptr) << LoadDiags.renderAll();
  EXPECT_EQ(LP->Prog.Entries.size(), LP->Rules.entries().size());

  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());

  // Engine run A: off the loaded artifact.
  auto GA = Suite.front().Build(SigB);
  rewrite::RewriteOptions OptsA = planOpts(0);
  OptsA.PrecompiledPlan = &LP->Prog;
  RunResult A;
  A.Stats = rewrite::rewriteToFixpoint(*GA, LP->Rules,
                                       graph::ShapeInference(), OptsA);
  A.GraphText = graph::writeGraphText(*GA);
  EXPECT_EQ(A.Stats.PlanCompileSeconds, 0.0);

  // Engine run B: original library, in-run compile. The signature must be
  // laid out like SigB — rule RHS attributes (e.g. the epilog's act=<op>)
  // record operator ids, which are signature-relative.
  term::Signature SigC;
  SigC.getOrAddOp("zz_unrelated", 3);
  models::declareModelOps(SigC);
  auto LibC = opt::compileEpilog(SigC);
  auto GB = Suite.front().Build(SigC);
  rewrite::RuleSet RulesC;
  RulesC.addLibrary(*LibC);
  RunResult B;
  B.Stats = rewrite::rewriteToFixpoint(*GB, RulesC, graph::ShapeInference(),
                                       planOpts(0));
  B.GraphText = graph::writeGraphText(*GB);

  expectSameRewrites(A, B, "artifact vs in-run compile");
}

TEST(MatchPlanSerializer, MatchOnlyLibrariesRoundTripToo) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = opt::compilePartition(Sig); // match-only patterns
  DiagnosticEngine Diags;
  std::string Bytes =
      plan::serializePlan(*Lib, Sig, /*RulesOnly=*/false, Diags);
  ASSERT_FALSE(Bytes.empty()) << Diags.renderAll();
  term::Signature Sig2;
  DiagnosticEngine LoadDiags;
  auto LP = plan::deserializePlan(Bytes, Sig2, LoadDiags);
  ASSERT_NE(LP, nullptr) << LoadDiags.renderAll();
  EXPECT_EQ(LP->Prog.Entries.size(), Lib->PatternDefs.size());
}
