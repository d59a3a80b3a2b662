//===- tests/test_search.cpp - Cost-directed search: oracle + differential ===//
///
/// The three-way bar locking down src/search/ (see DESIGN.md §"Cost-directed
/// search"):
///
///  (a) DEGENERATE ≡ GREEDY. Every degenerate search configuration
///      (Lookahead == 0 or BeamWidth == 0) dispatches to the greedy engine
///      and must be bit-identical to Search == Greedy — graphs, witness
///      order, every counter — over the model zoo and a 50-seed stress
///      sweep at thread counts 0/1/2/4/8.
///
///  (b) ORACLE SANDWICH. On small seeded graphs the exhaustive enumerator
///      (tests/TestHelpers.h exhaustiveOptimum) computes the true optimum
///      over every commit sequence; the beam's end cost must satisfy
///      optimum <= beam <= greedy, with beam strictly beating greedy on the
///      constructed conflict workload (two fusions competing for one
///      region, canonical order favoring the costlier one).
///
///  (c) COMPOSITION. Search composes with the governance surface — budget
///      ceilings, quarantine, injected faults, HaltOnFault, MaxRewrites —
///      and with precompiled plans, deterministically at every thread
///      count: worker threads
///      only price candidates, hermetically, on private copies, so
///      nothing observable may move.
///
///  (d) NAIVE REFERENCE. At Lookahead 1 the search equals NaiveSearch
///      (tests/NaiveEngine.h) — a full governed re-enumeration and a fresh
///      copy per priced candidate every step — on the zoo and the governed
///      seeds, which pins the per-node enumeration cache and its kept
///      prices to what re-running everything computes.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"
#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "plan/PlanBuilder.h"
#include "search/Search.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <tuple>

using namespace pypm;
using namespace pypm::testing;
using rewrite::RewriteOptions;
using rewrite::RewriteStats;
using rewrite::SearchStrategy;

namespace {

RewriteOptions beamOpts(unsigned Width, unsigned Lookahead,
                        unsigned Threads = 0) {
  RewriteOptions O;
  O.Search = SearchStrategy::Beam;
  O.BeamWidth = Width;
  O.Lookahead = Lookahead;
  O.NumThreads = Threads;
  return O;
}

//===----------------------------------------------------------------------===//
// The conflict fixture: two fusions competing for one region
//===----------------------------------------------------------------------===//

/// Both patterns root at the same Gelu node, and entry order (the greedy
/// tie-break) puts the costlier rewrite first: the epilog fuse strands the
/// Trans as its own kernel, while the full fuse folds it into the cuBLAS
/// call. Firing either destroys the other's match, so greedy commits the
/// bad one and the cost-directed search must not.
constexpr const char *ConflictRules = R"pypm(
pattern EpiGelu(a, b) { return Gelu(MatMul(a, b)); }
rule epi for EpiGelu(a, b) { return GemmEpilog(a, b); }

pattern FullGelu(x, y) {
  yt = Trans(y);
  return Gelu(MatMul(x, yt));
}
rule full for FullGelu(x, y) { return Gelu(cublasMM_xyT_f32(x, y)); }
)pypm";

class SearchConflictTest : public ::testing::Test {
protected:
  SearchConflictTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(ConflictRules, Sig);
    RS.addLibrary(*Lib);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {512, 512}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {512, 512}));
    graph::NodeId T = G.addNode(Sig.lookup("Trans"), {B});
    graph::NodeId M = G.addNode(Sig.lookup("MatMul"), {A, T});
    GeluNode = G.addNode(Sig.lookup("Gelu"), {M});
    G.addOutput(GeluNode);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  /// Rewrites a fresh copy under \p Opts; returns the end-state modeled
  /// cost and (optionally) the run's stats and graph text.
  double endCost(RewriteOptions Opts, RewriteStats *StatsOut = nullptr,
                 std::string *TextOut = nullptr) {
    graph::Graph Copy(G);
    RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, Opts);
    if (StatsOut)
      *StatsOut = S;
    if (TextOut)
      *TextOut = graph::writeGraphText(Copy);
    return CM.graphCost(Copy).Seconds;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
  graph::NodeId GeluNode = graph::InvalidNode;
  std::string PreText;
};

TEST_F(SearchConflictTest, EnumeratorSeesBothCompetingCandidates) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  EXPECT_EQ(Cands[0].Node, GeluNode);
  EXPECT_EQ(Cands[0].Entry, 0u); // EpiGelu, the canonical-order winner
  EXPECT_EQ(Cands[1].Node, GeluNode);
  EXPECT_EQ(Cands[1].Entry, 1u); // FullGelu, the cheaper one
}

TEST_F(SearchConflictTest, GreedyCommitsTheCanonicalCostlierFusion) {
  RewriteStats S;
  std::string Text;
  endCost({}, &S, &Text);
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_NE(Text.find("GemmEpilog"), std::string::npos) << Text;
  EXPECT_NE(Text.find("Trans"), std::string::npos) << Text;
  // Greedy never prices anything, so the search counters stay zero.
  EXPECT_EQ(S.SearchSteps, 0u);
  EXPECT_EQ(S.SearchExpansions, 0u);
  EXPECT_DOUBLE_EQ(S.ModeledCostBefore, 0.0);
}

TEST_F(SearchConflictTest, BeamMatchesExhaustiveOptimumAndBeatsGreedy) {
  double Optimum = exhaustiveOptimum(G, RS, SI, CM);
  double Greedy = endCost({});
  RewriteStats S;
  std::string Text;
  double Beam = endCost(beamOpts(2, 1), &S, &Text);
  // The sandwich: optimum <= beam <= greedy, strict on this conflict.
  EXPECT_NEAR(Beam, Optimum, 1e-12);
  EXPECT_LT(Beam, Greedy);
  EXPECT_LE(Optimum, Greedy);
  // The winner is the full fusion: Trans folded away, Gelu on top.
  EXPECT_NE(Text.find("cublasMM_xyT_f32"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("GemmEpilog"), std::string::npos) << Text;
  EXPECT_EQ(S.TotalFired, 1u);
}

TEST_F(SearchConflictTest, BestOfNAlsoPicksTheCheaperFusion) {
  double Optimum = exhaustiveOptimum(G, RS, SI, CM);
  RewriteOptions O = beamOpts(2, 1);
  O.Search = SearchStrategy::BestOfN;
  EXPECT_NEAR(endCost(O), Optimum, 1e-12);
}

TEST_F(SearchConflictTest, SearchStatsAccountTheRun) {
  RewriteStats S;
  double After = endCost(beamOpts(2, 1), &S);
  // Sweep 1 enumerates the two candidates and commits; sweep 2 proves the
  // fixpoint.
  EXPECT_EQ(S.SearchSteps, 2u);
  EXPECT_EQ(S.Passes, 2u);
  EXPECT_EQ(S.SearchCandidates, 2u);
  EXPECT_EQ(S.SearchExpansions, 2u);
  EXPECT_GT(S.ModeledCostBefore, S.ModeledCostAfter);
  EXPECT_NEAR(S.ModeledCostAfter, After, 1e-12);
  EXPECT_NEAR(S.ModeledCostBefore, CM.graphCost(G).Seconds, 1e-12);
}

TEST_F(SearchConflictTest, LosingCandidatesLeaveTheSubjectGraphUntouched) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 2u);
  std::vector<std::string> Outcomes;
  for (const search::Candidate &C : Cands) {
    graph::Graph Clone(G);
    search::ApplyResult R = search::applyCandidate(Clone, C, RS, SI, CM);
    EXPECT_TRUE(R.Applied);
    EXPECT_LT(R.CostDelta, 0.0); // both fusions shrink the modeled cost
    Outcomes.push_back(graph::writeGraphText(Clone));
  }
  // Speculation ran exclusively on clones: the subject graph is untouched
  // byte for byte, and the two branches really were different futures.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_NE(Outcomes[0], Outcomes[1]);
}

TEST_F(SearchConflictTest, CommitDeltaAgreesWithWholeGraphRecost) {
  double Before = CM.graphCost(G).Seconds;
  for (const search::Candidate &C : search::enumerateCandidates(G, RS)) {
    graph::Graph Clone(G);
    search::ApplyResult R = search::applyCandidate(Clone, C, RS, SI, CM);
    ASSERT_TRUE(R.Applied);
    EXPECT_NEAR(CM.graphCost(Clone).Seconds, Before + R.CostDelta, 1e-12);
  }
}

TEST_F(SearchConflictTest, ThreadsOnlyPriceClonesNothingObservableMoves) {
  RewriteStats Base;
  std::string BaseText;
  double BaseCost = endCost(beamOpts(2, 2, 0), &Base, &BaseText);
  for (unsigned Threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    RewriteStats S;
    std::string Text;
    double Cost = endCost(beamOpts(2, 2, Threads), &S, &Text);
    EXPECT_EQ(Text, BaseText);
    EXPECT_EQ(Cost, BaseCost);
    EXPECT_EQ(S.TotalFired, Base.TotalFired);
    EXPECT_EQ(S.SearchSteps, Base.SearchSteps);
    EXPECT_EQ(S.SearchCandidates, Base.SearchCandidates);
    EXPECT_EQ(S.SearchExpansions, Base.SearchExpansions);
    EXPECT_EQ(S.ModeledCostBefore, Base.ModeledCostBefore);
    EXPECT_EQ(S.ModeledCostAfter, Base.ModeledCostAfter);
    EXPECT_EQ(S.Status, Base.Status);
  }
}

TEST_F(SearchConflictTest, MatcherKindsAgreeOnTheCommittedResult) {
  std::string FastText;
  double FastCost = endCost(beamOpts(2, 1), nullptr, &FastText);
  for (rewrite::MatcherKind MK :
       {rewrite::MatcherKind::Machine, rewrite::MatcherKind::Plan}) {
    SCOPED_TRACE(static_cast<int>(MK));
    RewriteOptions O = beamOpts(2, 1);
    O.Matcher = MK;
    std::string Text;
    EXPECT_EQ(endCost(O, nullptr, &Text), FastCost);
    EXPECT_EQ(Text, FastText);
  }
}

TEST_F(SearchConflictTest, PrecompiledPlanMatchesFreshCompile) {
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  RewriteOptions Fresh = beamOpts(2, 1);
  Fresh.Matcher = rewrite::MatcherKind::Plan;
  RewriteStats FreshStats;
  std::string FreshText;
  double FreshCost = endCost(Fresh, &FreshStats, &FreshText);
  EXPECT_GT(FreshStats.PlanCompileSeconds, 0.0);

  RewriteOptions Pre = Fresh;
  Pre.PrecompiledPlan = &Prog;
  RewriteStats PreStats;
  std::string PreText2;
  EXPECT_EQ(endCost(Pre, &PreStats, &PreText2), FreshCost);
  EXPECT_EQ(PreText2, FreshText);
  EXPECT_DOUBLE_EQ(PreStats.PlanCompileSeconds, 0.0);
}

//===----------------------------------------------------------------------===//
// Rollback soundness under injected faults
//===----------------------------------------------------------------------===//

/// The assert sits in the RULE body so it lowers to a rule-level guard —
/// the onGuardEval fault site (pattern-level asserts are evaluated inside
/// the match machine instead). The two-node RHS gives the injector a
/// mid-build site.
constexpr const char *GuardedRules = R"pypm(
pattern AG(x, y) { return Add(Relu(x), Relu(y)); }
rule ag for AG(x, y) {
  assert x.shape.rank == 2;
  return Relu(Add(x, y));
}
)pypm";

class SearchFaultTest : public ::testing::Test {
protected:
  SearchFaultTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(GuardedRules, Sig);
    RS.addLibrary(*Lib);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId B = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {A}),
                                      G.addNode(Sig.lookup("Relu"), {B})});
    G.addOutput(Root);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
  std::string PreText;
};

TEST_F(SearchFaultTest, ApplyCandidateRollsBackOnGuardFault) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  EXPECT_THROW(search::applyCandidate(G, Cands[0], RS, SI, CM, {}, &F),
               InjectedFault);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, ApplyCandidateRollsBackMidBuildRhsFault) {
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  // The first replacement node (the Add) is already appended when the
  // injector throws at the second; the rollback sweep must collect it.
  FaultInjector::Config C;
  C.NthRhsBuild = 2;
  FaultInjector F(C);
  EXPECT_THROW(search::applyCandidate(G, Cands[0], RS, SI, CM, {}, &F),
               InjectedFault);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, SearchRunAbsorbsFaultAndQuarantines) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  RewriteOptions O = beamOpts(2, 1);
  O.Faults = &F;
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, O);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.FaultsAbsorbed, 1u);
  EXPECT_EQ(S.Status.QuarantinedPatterns, std::vector<std::string>{"AG"});
  EXPECT_EQ(S.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

TEST_F(SearchFaultTest, SearchRunHaltsOnFaultWhenAsked) {
  FaultInjector::Config C;
  C.NthGuardEval = 1;
  FaultInjector F(C);
  RewriteOptions O = beamOpts(2, 1);
  O.Faults = &F;
  O.HaltOnFault = true;
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, O);
  EXPECT_EQ(S.Status.Code, EngineStatusCode::FaultInjected);
  EXPECT_EQ(S.Status.Reason, BudgetReason::Fault);
  EXPECT_TRUE(S.Status.QuarantinedPatterns.empty());
  EXPECT_EQ(S.TotalFired, 0u);
  EXPECT_EQ(graph::writeGraphText(G), PreText);
}

//===----------------------------------------------------------------------===//
// Rule fall-through: an unbuildable RHS tries the next rule
//===----------------------------------------------------------------------===//

/// The fuse_mha_masked shape: the first rule's RHS references a parameter
/// only the other alternate binds, so its build fails by design and the
/// engine falls through to the next rule. applyCandidate must do the same
/// WITHOUT sweeping or invalidating the term view mid-loop — wiping the
/// term-to-node memo the witness resolves through made every fall-through
/// rule unbuildable, and beam search silently stopped firing MHA on the
/// zoo (candidates priced as unapplicable).
constexpr const char *FallThroughRules = R"pypm(
pattern FT(x, m) { return Relu(Add(Relu(x), m)); }
pattern FT(x, m) { return Relu(Relu(x)); }
rule ft_masked for FT(x, m) { return Add(Relu(x), m); }
rule ft for FT(x, m) { return Relu(x); }
)pypm";

/// Same shape with no fall-back rule: every rule unbuildable. The RHS
/// builds two genuinely new nodes (the Relu^3 tower) before hitting the
/// unbound parameter, so a clean refusal must also sweep the orphans.
constexpr const char *DeadEndRules = R"pypm(
pattern FT2(x, m) { return Relu(Add(Relu(x), m)); }
pattern FT2(x, m) { return Relu(Relu(x)); }
rule ft2 for FT2(x, m) { return Add(Relu(Relu(Relu(Relu(x)))), m); }
)pypm";

class SearchFallThroughTest : public ::testing::Test {
protected:
  SearchFallThroughTest() : G(Sig) {
    models::declareModelOps(Sig);
    graph::NodeId A = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    graph::NodeId Root =
        G.addNode(Sig.lookup("Relu"), {G.addNode(Sig.lookup("Relu"), {A})});
    G.addOutput(Root);
    SI.inferAll(G);
    PreText = graph::writeGraphText(G);
  }

  rewrite::RuleSet load(const char *Src) {
    Lib = dsl::compileOrDie(Src, Sig);
    rewrite::RuleSet RS;
    RS.addLibrary(*Lib);
    return RS;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  sim::CostModel CM;
  std::string PreText;
};

TEST_F(SearchFallThroughTest, ApplyCandidateFallsThroughPastUnbuildableRule) {
  rewrite::RuleSet RS = load(FallThroughRules);
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  EXPECT_EQ(Cands[0].Rule, 0u); // guards pass on the masked rule...
  search::ApplyResult R = search::applyCandidate(G, Cands[0], RS, SI, CM);
  ASSERT_TRUE(R.Applied); // ...but the unmasked one is what fires
  EXPECT_LT(R.CostDelta, 0.0);
  std::string Text = graph::writeGraphText(G);
  EXPECT_EQ(Text.find("Add"), std::string::npos) << Text;
  EXPECT_EQ(G.numLiveNodes(), 2u); // Input + one Relu
}

TEST_F(SearchFallThroughTest, BeamCommitsTheFallThroughRule) {
  rewrite::RuleSet RS = load(FallThroughRules);
  RewriteStats S = rewrite::rewriteToFixpoint(G, RS, SI, beamOpts(2, 2));
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_EQ(graph::writeGraphText(G).find("Add"), std::string::npos);
}

TEST_F(SearchFallThroughTest, AllRulesUnbuildableIsACleanRefusal) {
  rewrite::RuleSet RS = load(DeadEndRules);
  std::vector<search::Candidate> Cands = search::enumerateCandidates(G, RS);
  ASSERT_EQ(Cands.size(), 1u);
  search::ApplyResult R = search::applyCandidate(G, Cands[0], RS, SI, CM);
  EXPECT_FALSE(R.Applied);
  // The partial build's orphan tower was swept: pre-call graph, exactly.
  EXPECT_EQ(graph::writeGraphText(G), PreText);
  EXPECT_EQ(G.numLiveNodes(), 3u);
}

/// The zoo-level symptom the fall-through bug caused: beam refused every
/// MHA candidate (rule 0 unbuildable on unmasked graphs) and fixpointed
/// without the attention fusion, strictly worse than greedy.
TEST(SearchZoo, BeamFiresTheAttentionFusionLikeGreedy) {
  models::ModelEntry Model = models::hfSuite().front(); // bert-tiny
  RunResult Greedy = runModel(Model, {});
  RunResult Beam = runModel(Model, beamOpts(4, 2));
  EXPECT_EQ(Beam.Stats.TotalFired, Greedy.Stats.TotalFired);
  for (const auto &[Name, SP] : Greedy.Stats.PerPattern) {
    if (!SP.RulesFired)
      continue;
    SCOPED_TRACE(Name);
    auto It = Beam.Stats.PerPattern.find(Name);
    ASSERT_NE(It, Beam.Stats.PerPattern.end());
    EXPECT_EQ(It->second.RulesFired, SP.RulesFired);
  }
}

// The committed enumeration applies the greedy engine's prefilter under
// every matcher: under Machine and Fast the root-operator index skips the
// (node, entry) pairs whose root operator the pattern excludes, instead of
// starting the matcher on each. Those attempts could only fail, so the
// search commits the same rewrites — graph bytes and modeled cost — as
// with the index off, where every pair is attempted.
TEST(SearchZoo, RootIndexPrefiltersTheCommittedEnumeration) {
  models::ModelEntry Model = models::hfSuite().front(); // bert-tiny
  auto Sum = [](const RewriteStats &S, uint64_t rewrite::PatternStats::*F) {
    uint64_t Total = 0;
    for (const auto &[Name, PS] : S.PerPattern)
      Total += PS.*F;
    return Total;
  };
  for (rewrite::MatcherKind MK :
       {rewrite::MatcherKind::Machine, rewrite::MatcherKind::Fast}) {
    SCOPED_TRACE(static_cast<int>(MK));
    RewriteOptions On;
    On.Search = SearchStrategy::Beam;
    On.Matcher = MK;
    RewriteOptions Off = On;
    Off.UseRootIndex = false;
    RunResult A = runModel(Model, On), B = runModel(Model, Off);
    expectSameRewrites(A, B, "root index on vs off");
    EXPECT_EQ(A.Stats.SearchSteps, B.Stats.SearchSteps);
    EXPECT_EQ(A.Stats.SearchCandidates, B.Stats.SearchCandidates);
    EXPECT_EQ(std::bit_cast<uint64_t>(A.Stats.ModeledCostAfter),
              std::bit_cast<uint64_t>(B.Stats.ModeledCostAfter));
    const uint64_t Skips = Sum(A.Stats, &rewrite::PatternStats::RootSkips);
    EXPECT_GT(Skips, 0u);
    EXPECT_EQ(Sum(B.Stats, &rewrite::PatternStats::RootSkips), 0u);
    // Every (node, entry) pair is either skipped or attempted.
    EXPECT_EQ(Sum(A.Stats, &rewrite::PatternStats::Attempts) + Skips,
              Sum(B.Stats, &rewrite::PatternStats::Attempts));
  }
}

//===----------------------------------------------------------------------===//
// Governance composition: MaxRewrites, budgets
//===----------------------------------------------------------------------===//

/// Two independent Relu towers: exactly two commits to fixpoint, so the
/// rewrite cap has something deterministic to truncate.
constexpr const char *TowerRules = R"pypm(
pattern RR(x) { return Relu(Relu(x)); }
rule rr for RR(x) { return Relu(x); }
)pypm";

class SearchGovernanceTest : public ::testing::Test {
protected:
  SearchGovernanceTest() : G(Sig) {
    models::declareModelOps(Sig);
    Lib = dsl::compileOrDie(TowerRules, Sig);
    RS.addLibrary(*Lib);
    for (int I = 0; I != 2; ++I) {
      graph::NodeId A = G.addLeaf(
          "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
      graph::NodeId R1 = G.addNode(Sig.lookup("Relu"), {A});
      G.addOutput(G.addNode(Sig.lookup("Relu"), {R1}));
    }
    SI.inferAll(G);
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
};

TEST_F(SearchGovernanceTest, MaxRewritesCapsCommits) {
  {
    graph::Graph Copy(G);
    RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, beamOpts(2, 1));
    ASSERT_EQ(S.TotalFired, 2u);
    ASSERT_TRUE(S.Status.ok());
  }
  graph::Graph Copy(G);
  RewriteOptions O = beamOpts(2, 1);
  O.MaxRewrites = 1;
  RewriteStats S = rewrite::rewriteToFixpoint(Copy, RS, SI, O);
  EXPECT_EQ(S.TotalFired, 1u);
  EXPECT_TRUE(S.hitRewriteLimit());
}

TEST_F(SearchGovernanceTest, StepCeilingExhaustsIdenticallyAcrossThreads) {
  auto Run = [&](unsigned Threads) {
    BudgetLimits L;
    L.MaxTotalSteps = 10; // trips mid-enumeration, in committed order
    Budget B(L);
    graph::Graph Copy(G);
    RewriteOptions O = beamOpts(2, 2, Threads);
    O.EngineBudget = &B;
    StressOutcome Out;
    Out.Stats = rewrite::rewriteToFixpoint(Copy, RS, SI, O);
    Out.GraphText = graph::writeGraphText(Copy);
    return Out;
  };
  StressOutcome Serial = Run(0);
  EXPECT_EQ(Serial.Stats.Status.Code, EngineStatusCode::BudgetExhausted);
  EXPECT_EQ(Serial.Stats.Status.Reason, BudgetReason::Steps);
  for (unsigned Threads : {1u, 2u, 4u, 8u})
    expectOutcomesEqual(Serial, Run(Threads),
                        "step-ceiling threads=0 vs " +
                            std::to_string(Threads));
}

//===----------------------------------------------------------------------===//
// Degenerate configurations are the greedy engine, bit for bit
//===----------------------------------------------------------------------===//

TEST(SearchDegenerate, ZeroLookaheadAndZeroWidthAreGreedyOnTheZoo) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 2u);
  for (size_t I = 0; I != 2; ++I) {
    const models::ModelEntry &Model = Suite[I];
    RunResult Greedy = runModel(Model, {});
    RewriteOptions NoHorizon = beamOpts(4, 0);
    expectFullyEqual(Greedy, runModel(Model, NoHorizon),
                     Model.Name + " beam lookahead=0");
    RewriteOptions NoWidth;
    NoWidth.Search = SearchStrategy::BestOfN;
    NoWidth.BeamWidth = 0;
    NoWidth.Lookahead = 2;
    expectFullyEqual(Greedy, runModel(Model, NoWidth),
                     Model.Name + " best-of-n width=0");
  }
}

TEST(SearchDegenerate, DegenerateConfigsDoNotDispatchToSearch) {
  RewriteOptions O;
  EXPECT_FALSE(search::searchActive(O)); // Greedy strategy
  O.Search = SearchStrategy::Beam;
  EXPECT_TRUE(search::searchActive(O));
  O.Lookahead = 0;
  EXPECT_FALSE(search::searchActive(O));
  O.Lookahead = 1;
  O.BeamWidth = 0;
  EXPECT_FALSE(search::searchActive(O));
}

//===----------------------------------------------------------------------===//
// --search=auto: the confluence certificate picks the engine
//===----------------------------------------------------------------------===//

/// Certified-confluent fixture: Relu(Relu(x)) -> Relu(x) self-overlaps at
/// the Relu^3 tower, every overlap is joinable, and the termination probe
/// passes — so auto must resolve to greedy and spend zero search work.
class SearchAutoCertifiedTest : public ::testing::Test {
protected:
  SearchAutoCertifiedTest() : G(Sig) {
    Lib = dsl::compileOrDie(R"(
op Relu(1);
pattern RR(x) { return Relu(Relu(x)); }
rule rr for RR(x) { return Relu(x); }
)",
                            Sig);
    RS.addLibrary(*Lib);
    graph::NodeId N = G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8}));
    for (int I = 0; I != 5; ++I)
      N = G.addNode(Sig.lookup("Relu"), {N});
    G.addOutput(N);
    SI.inferAll(G);
  }

  RunResult run(rewrite::RewriteOptions Opts) {
    graph::Graph Copy(G);
    RunResult R;
    R.Stats = rewrite::rewriteToFixpoint(Copy, RS, SI, Opts);
    R.GraphText = graph::writeGraphText(Copy);
    return R;
  }

  term::Signature Sig;
  graph::Graph G;
  graph::ShapeInference SI;
  std::unique_ptr<pattern::Library> Lib;
  rewrite::RuleSet RS;
  sim::CostModel CM;
};

TEST_F(SearchAutoCertifiedTest, AutoIsGreedyBitIdenticallyOnACertifiedSet) {
  analysis::critical::ConfluenceReport CR =
      analysis::critical::analyzeConfluence(RS, Sig);
  ASSERT_TRUE(CR.certified()) << CR.render();
  for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
    rewrite::RewriteOptions Greedy;
    Greedy.NumThreads = Threads;
    RunResult A = run(Greedy);

    // Auto with the engine running the analysis itself...
    rewrite::RewriteOptions Auto = Greedy;
    Auto.Search = SearchStrategy::Auto;
    Auto.SearchCost = &CM;
    RunResult B = run(Auto);
    expectFullyEqual(A, B,
                     "auto-vs-greedy threads=" + std::to_string(Threads));
    EXPECT_EQ(B.Stats.SearchSteps, 0u);
    EXPECT_EQ(B.Stats.SearchExpansions, 0u);

    // ...and auto dispatching from a borrowed (plan-embedded) certificate.
    rewrite::RewriteOptions AutoCert = Auto;
    AutoCert.Confluence = &CR;
    expectFullyEqual(
        A, run(AutoCert),
        "auto-with-certificate-vs-greedy threads=" + std::to_string(Threads));
  }
}

TEST_F(SearchConflictTest, AutoIsBeamBitIdenticallyOnAConflictingSet) {
  analysis::critical::ConfluenceReport CR =
      analysis::critical::analyzeConfluence(RS, Sig);
  ASSERT_EQ(CR.Overall, analysis::critical::Verdict::Conflicting)
      << CR.render();
  for (unsigned Threads : {0u, 1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(Threads);
    RewriteStats BeamStats, AutoStats;
    std::string BeamText, AutoText;
    double BeamCost = endCost(beamOpts(4, 1, Threads), &BeamStats, &BeamText);

    rewrite::RewriteOptions Auto = beamOpts(4, 1, Threads);
    Auto.Search = SearchStrategy::Auto;
    double AutoCost = endCost(Auto, &AutoStats, &AutoText);

    EXPECT_EQ(AutoText, BeamText);
    EXPECT_DOUBLE_EQ(AutoCost, BeamCost);
    EXPECT_EQ(AutoStats.TotalFired, BeamStats.TotalFired);
    EXPECT_EQ(AutoStats.SearchSteps, BeamStats.SearchSteps);
    EXPECT_EQ(AutoStats.SearchExpansions, BeamStats.SearchExpansions);
    EXPECT_GT(AutoStats.SearchSteps, 0u)
        << "auto on a conflicting set must actually search";

    // Borrowed certificate: same dispatch without re-analysis.
    rewrite::RewriteOptions AutoCert = Auto;
    AutoCert.Confluence = &CR;
    std::string CertText;
    double CertCost = endCost(AutoCert, nullptr, &CertText);
    EXPECT_EQ(CertText, BeamText);
    EXPECT_DOUBLE_EQ(CertCost, BeamCost);
  }
}

//===----------------------------------------------------------------------===//
// Apply-and-roll-back speculation against the fresh-clone oracle
//===----------------------------------------------------------------------===//

/// Drives the search's own primitives step by step on \p G: one run-long
/// view, kept current by commit footprints. At every step each candidate
/// is priced by speculateCandidate on G itself and, as the oracle, by the
/// public applyCandidate on a fresh copy with a cold view; Applied,
/// Replacement, Swept and the bits of CostDelta must agree, and G must be
/// left byte for byte as it was. Then candidate (step mod count) commits.
///
/// It also checks the price-reuse rule. Each price read through a local
/// sweep is kept with its sweep frontier (speculateCandidate's Reads),
/// keyed by (node, entry, witness) and the node's term, and after every
/// commit the nodes search::forEachUseChanged names are stamped. A kept
/// price whose node's term is unchanged and whose frontier no later
/// commit stamped stands, and must equal the fresh copy's price too.
struct SpeculationChecks {
  size_t Compared = 0; ///< candidates priced both ways
  size_t Stood = 0;    ///< kept prices that stood and were compared
};

SpeculationChecks checkSpeculationAgainstClones(graph::Graph &G,
                                                const rewrite::RuleSet &RS,
                                                const graph::ShapeInference &SI,
                                                unsigned MaxSteps) {
  struct Kept {
    term::TermRef Term;
    search::ApplyResult R;
    std::vector<graph::NodeId> Reads;
    uint64_t At;
  };
  sim::CostModel CM;
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  graph::UndoLog Log;
  std::map<std::tuple<graph::NodeId, uint32_t, uint32_t>, Kept> Prices;
  std::vector<uint64_t> ChangedAt;
  SpeculationChecks Out;
  for (uint64_t Step = 1; Step <= MaxSteps; ++Step) {
    SCOPED_TRACE("step " + std::to_string(Step));
    std::vector<search::Candidate> Cands;
    std::vector<match::Witness> Wits;
    search::enumerateCandidates(View, RS, {}, Cands, Wits);
    if (Cands.empty())
      break;
    const std::string Before = graph::writeGraphText(G);
    const uint64_t Bytes = G.approxMemoryBytes();
    const size_t Slots = G.numNodes();
    for (size_t K = 0; K != Cands.size(); ++K) {
      SCOPED_TRACE("candidate " + std::to_string(K));
      const search::Candidate &C = Cands[K];
      const bool Local = G.sweptClean();
      std::vector<graph::NodeId> Reads;
      search::ApplyResult Spec = search::speculateCandidate(
          G, Log, View, C, Wits[K], RS, SI, CM, Local ? &Reads : nullptr);
      graph::Graph Clone(G);
      search::ApplyResult Ref = search::applyCandidate(Clone, C, RS, SI, CM);
      EXPECT_EQ(Spec.Applied, Ref.Applied);
      EXPECT_EQ(Spec.Replacement, Ref.Replacement);
      EXPECT_EQ(Spec.Swept, Ref.Swept);
      EXPECT_EQ(std::bit_cast<uint64_t>(Spec.CostDelta),
                std::bit_cast<uint64_t>(Ref.CostDelta));
      EXPECT_EQ(G.numNodes(), Slots);
      EXPECT_EQ(G.approxMemoryBytes(), Bytes);
      ++Out.Compared;

      auto Key = std::make_tuple(C.Node, C.Entry, C.WitnessIdx);
      auto It = Prices.find(Key);
      bool Stands =
          It != Prices.end() && It->second.Term == View.termFor(C.Node);
      if (Stands)
        for (graph::NodeId N : It->second.Reads)
          Stands &= N >= ChangedAt.size() || ChangedAt[N] < It->second.At;
      if (Stands) {
        EXPECT_EQ(It->second.R.Applied, Ref.Applied);
        EXPECT_EQ(It->second.R.Swept, Ref.Swept);
        EXPECT_EQ(std::bit_cast<uint64_t>(It->second.R.CostDelta),
                  std::bit_cast<uint64_t>(Ref.CostDelta));
        ++Out.Stood;
      } else if (Local && Spec.Applied) {
        Prices[Key] = {View.termFor(C.Node), Spec, std::move(Reads), Step};
      } else {
        Prices.erase(Key);
      }
    }
    EXPECT_EQ(graph::writeGraphText(G), Before);
    size_t Pick = Step % Cands.size();
    graph::CommitFootprint F;
    search::ApplyResult R = search::fireCandidate(
        G, View, Cands[Pick], Wits[Pick], RS, SI, CM, nullptr, &F);
    if (!R.Applied) {
      G.removeUnreachable();
      View.invalidate();
      Prices.clear();
      continue;
    }
    View.invalidateNodes(F);
    ChangedAt.resize(G.numNodes(), 0);
    search::forEachUseChanged(G, F, R.Replacement,
                              [&](graph::NodeId N) { ChangedAt[N] = Step; });
  }
  return Out;
}

TEST(SearchSpeculation, RollbackPricingMatchesFreshClonesOnZooSteps) {
  std::vector<models::ModelEntry> Models = {models::hfSuite()[0],
                                            models::hfSuite()[1],
                                            models::tvSuite()[0]};
  size_t Stood = 0;
  for (const models::ModelEntry &M : Models)
    for (opt::OptConfig OC : {opt::OptConfig::FmhaOnly,
                              opt::OptConfig::EpilogOnly,
                              opt::OptConfig::Both}) {
      SCOPED_TRACE(M.Name + " " + std::string(opt::optConfigName(OC)));
      term::Signature Sig;
      auto G = M.Build(Sig);
      opt::Pipeline Pipe = opt::makePipeline(Sig, OC);
      graph::ShapeInference SI;
      Stood += checkSpeculationAgainstClones(*G, Pipe.Rules, SI, 64).Stood;
    }
  EXPECT_GT(Stood, 50u); // the reuse rule was exercised
}

/// Two `Const` leaves of one value are one term, and the run-long view
/// (converting in ascending id order) makes the lower id the term's
/// representative. The match at Root reaches the higher-id twin first, so
/// a view converted cold from Root — what the clone path always used —
/// resolves the RHS's `c` to the higher id. Rooted resolution must agree:
/// the Relu(c_hi) branch dies but c_hi survives inside the replacement,
/// and c_lo keeps its own user.
constexpr const char *TwinRules = R"pypm(
pattern TW(x, c) { return Add(Relu(c), x); }
rule tw for TW(x, c) { return Mul(x, c); }
)pypm";

TEST(SearchSpeculation, ConstTwinResolvesToTheTwinTheRootReachesFirst) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = dsl::compileOrDie(TwinRules, Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  graph::Graph G(Sig);
  graph::NodeId In =
      G.addLeaf("Input", graph::TensorType::make(term::DType::F32, {}));
  graph::NodeId CLo = G.addConst(0.5);
  graph::NodeId CHi = G.addConst(0.5);
  graph::NodeId M = G.addNode(Sig.lookup("Mul"), {In, CLo});
  graph::NodeId Root =
      G.addNode(Sig.lookup("Add"), {G.addNode(Sig.lookup("Relu"), {CHi}), M});
  G.addOutput(Root);
  graph::ShapeInference SI;
  SI.inferAll(G);

  // The view's representative is the low twin; rooted resolution is not.
  term::TermArena Arena(Sig);
  graph::TermView View(G, Arena);
  for (graph::NodeId N = 0; N != G.numNodes(); ++N)
    View.termFor(N);
  term::TermRef C = View.termFor(CLo);
  ASSERT_EQ(View.termFor(CHi), C);
  EXPECT_EQ(View.nodeFor(C), CLo);
  EXPECT_EQ(View.nodeFor(C, Root), CHi);
  EXPECT_EQ(View.nodeFor(C, M), CLo);

  graph::Graph Stepped(G);
  EXPECT_GT(checkSpeculationAgainstClones(Stepped, RS, SI, 4).Compared, 0u);
  // Lookahead 2 also builds the survivor's branch through the view.
  for (unsigned Config = 0; Config != 4; ++Config) {
    unsigned Lookahead = 1 + Config / 2, Threads = 2 * (Config % 2);
    SCOPED_TRACE("lookahead=" + std::to_string(Lookahead) +
                 " threads=" + std::to_string(Threads));
    graph::Graph Copy(G);
    RewriteStats S = rewrite::rewriteToFixpoint(
        Copy, RS, SI, beamOpts(2, Lookahead, Threads));
    EXPECT_EQ(S.TotalFired, 1u);
    EXPECT_FALSE(Copy.isDead(CHi));
    EXPECT_FALSE(Copy.isDead(CLo));
    graph::NodeId Out = Copy.outputs().front();
    EXPECT_EQ(Copy.inputs(Out)[1], CHi);
  }
}

//===----------------------------------------------------------------------===//
// Work gate: no per-candidate graph copies, no per-step views
//===----------------------------------------------------------------------===//

// Exact counters, not wall-clock. At Lookahead 1 the search copies no
// graph at all, serially or threaded: every candidate is applied and
// rolled back on the subject. The run keeps one view, so ViewConversions is bounded the same way as
// the greedy engine's: each node's first conversion plus re-conversions
// of what some footprint dropped. A fresh view per step would convert
// about SearchSteps x live nodes, which the gate checks lies far above
// the bound, so the gate cannot go vacuous.
TEST(SearchWorkGate, BertBaseBeamCopiesNoGraphPerCandidate) {
  const models::ModelEntry *Bert = nullptr;
  std::vector<models::ModelEntry> Suite = models::hfSuite();
  for (const models::ModelEntry &E : Suite)
    if (E.Name == "bert-base")
      Bert = &E;
  ASSERT_NE(Bert, nullptr);
  auto Run = [&](unsigned Threads, size_t *Slots, size_t *Live) {
    RewriteOptions O;
    O.Search = SearchStrategy::Beam;
    O.NumThreads = Threads;
    term::Signature Sig;
    auto G = Bert->Build(Sig);
    *Live = G->numLiveNodes();
    opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    graph::ShapeInference SI;
    RunResult R;
    R.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules, SI, O);
    R.GraphText = graph::writeGraphText(*G);
    *Slots = G->numNodes();
    return R;
  };
  size_t N = 0, Live = 0;
  RunResult Serial = Run(0, &N, &Live);
  const RewriteStats &S = Serial.Stats;
  ASSERT_GT(S.TotalFired, 10u);
  EXPECT_EQ(S.SearchGraphCopies, 0u);
  EXPECT_GT(S.SearchExpansions, S.SearchSteps);
  EXPECT_LE(S.ViewConversions, N + S.FootprintNodes);
  EXPECT_GT(S.SearchSteps * Live / 2, N + S.FootprintNodes);

  size_t N2 = 0, Live2 = 0;
  RunResult Threaded = Run(2, &N2, &Live2);
  expectSameRewrites(Serial, Threaded, "threads=2");
  EXPECT_EQ(Threaded.Stats.SearchExpansions, S.SearchExpansions);
  EXPECT_EQ(Threaded.Stats.ViewConversions, S.ViewConversions);
  EXPECT_EQ(Threaded.Stats.SearchGraphCopies, 0u);
}

/// The committed enumeration re-enumerates only what a commit changed: the
/// first step every live node, each later step the previous commit's full
/// users-closure and appended nodes — against 103,465 visits when every
/// step re-enumerated every live node. Speculation re-prices, after the
/// first step, only candidates at such nodes: every other price stands
/// unless the commit moved uses across the candidate's sweep frontier. The
/// naive reference counts the candidates at nodes whose unrolling changed.
TEST(SearchWorkGate, Gpt2LargeBeamEnumeratesOnlyDirtyNodes) {
  const models::ModelEntry *Gpt2 = nullptr;
  std::vector<models::ModelEntry> Suite = models::hfSuite();
  for (const models::ModelEntry &E : Suite)
    if (E.Name == "gpt2-large")
      Gpt2 = &E;
  ASSERT_NE(Gpt2, nullptr);
  RewriteOptions O;
  O.Search = SearchStrategy::Beam;
  O.Matcher = rewrite::MatcherKind::Plan;
  term::Signature Sig;
  auto G = Gpt2->Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  graph::ShapeInference SI;
  graph::Graph Reference(*G);
  const size_t Live = G->numLiveNodes(), Slots = G->numNodes();
  RewriteStats S = rewrite::rewriteToFixpoint(*G, Pipe.Rules, SI, O);
  ASSERT_GT(S.TotalFired, 100u);
  const uint64_t Closures = S.FootprintNodes - S.NodesSwept;
  const uint64_t Appended = G->numNodes() - Slots;
  EXPECT_LE(S.NodesVisited, Live + Closures + Appended);
  EXPECT_LT(S.NodesVisited, 103465u / 2);
  EXPECT_GT(S.SearchSteps * Live / 2, Live + Closures + Appended);

  NaiveSearch Naive(Reference, Pipe.Rules, SI, O);
  RewriteStats N = Naive.run();
  ASSERT_EQ(N.TotalFired, S.TotalFired);
  const uint64_t Fresh =
      Naive.firstStepCandidates() + Naive.dirtyNodeCandidates();
  EXPECT_EQ(S.SearchExpansions, Fresh + Naive.stalePriceCandidates());
  EXPECT_LE(Naive.stalePriceCandidates(), S.TotalFired);
  EXPECT_LT(Fresh + Naive.stalePriceCandidates(), S.SearchCandidates * 2 / 3);
}

/// Lookahead 2 copies only the survivors of depth 1, at most BeamWidth per
/// step, and commits the same rewrites — with the same copy count —
/// serially and threaded.
TEST(SearchWorkGate, LookaheadTwoCopiesOnlySurvivors) {
  models::ModelEntry Model = models::hfSuite().front();
  RunResult Serial = runModel(Model, beamOpts(2, 2));
  EXPECT_GT(Serial.Stats.SearchGraphCopies, 0u);
  EXPECT_LE(Serial.Stats.SearchGraphCopies, 2 * Serial.Stats.SearchSteps);
  RunResult Threaded = runModel(Model, beamOpts(2, 2, 4));
  expectSameRewrites(Serial, Threaded, "threads=4");
  EXPECT_EQ(Threaded.Stats.SearchGraphCopies, Serial.Stats.SearchGraphCopies);
}

//===----------------------------------------------------------------------===//
// The naive reference search: ground truth for the per-node cache
//===----------------------------------------------------------------------===//

/// Everything the search must share with the naive reference (NaiveSearch
/// in tests/NaiveEngine.h): graph bytes, the step and fire counts, the
/// bits of both modeled costs, the status and every per-pattern counter
/// but Seconds. The work counters describe how each got there and are
/// left out.
void expectSameAsNaive(const StressOutcome &S, const StressOutcome &N,
                       const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(S.GraphText, N.GraphText);
  EXPECT_EQ(S.Stats.Passes, N.Stats.Passes);
  EXPECT_EQ(S.Stats.SearchSteps, N.Stats.SearchSteps);
  EXPECT_EQ(S.Stats.SearchCandidates, N.Stats.SearchCandidates);
  EXPECT_EQ(S.Stats.TotalMatches, N.Stats.TotalMatches);
  EXPECT_EQ(S.Stats.TotalFired, N.Stats.TotalFired);
  EXPECT_EQ(S.Stats.NodesSwept, N.Stats.NodesSwept);
  EXPECT_EQ(std::bit_cast<uint64_t>(S.Stats.ModeledCostBefore),
            std::bit_cast<uint64_t>(N.Stats.ModeledCostBefore));
  EXPECT_EQ(std::bit_cast<uint64_t>(S.Stats.ModeledCostAfter),
            std::bit_cast<uint64_t>(N.Stats.ModeledCostAfter));
  EXPECT_EQ(S.Stats.Status, N.Stats.Status);
  ASSERT_EQ(S.Stats.PerPattern.size(), N.Stats.PerPattern.size());
  for (const auto &[Name, SP] : S.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = N.Stats.PerPattern.find(Name);
    ASSERT_NE(It, N.Stats.PerPattern.end());
    rewrite::PatternStats X = SP, Y = It->second;
    X.Seconds = Y.Seconds = 0.0;
    EXPECT_EQ(X, Y);
  }
}

std::vector<models::ModelEntry> zooModels() {
  std::vector<models::ModelEntry> Zoo = models::hfSuite();
  for (const models::ModelEntry &E : models::tvSuite())
    Zoo.push_back(E);
  return Zoo;
}

constexpr rewrite::MatcherKind AllMatchers[] = {
    rewrite::MatcherKind::Machine, rewrite::MatcherKind::Fast,
    rewrite::MatcherKind::Plan};

class SearchNaiveReference : public ::testing::TestWithParam<size_t> {};

/// One zoo model under FMHA, Epilog and both, every matcher, Beam and
/// BestOfN at Lookahead 1: the search equals the naive reference.
TEST_P(SearchNaiveReference, ZooModelMatchesTheNaiveSearch) {
  const models::ModelEntry Model = zooModels()[GetParam()];
  for (opt::OptConfig OC : {opt::OptConfig::FmhaOnly,
                            opt::OptConfig::EpilogOnly, opt::OptConfig::Both})
    for (rewrite::MatcherKind MK : AllMatchers)
      for (SearchStrategy SS : {SearchStrategy::Beam, SearchStrategy::BestOfN}) {
        RewriteOptions O;
        O.Search = SS;
        O.Matcher = MK;
        StressOutcome Out[2];
        for (int Naive = 0; Naive != 2; ++Naive) {
          term::Signature Sig;
          auto G = Model.Build(Sig);
          opt::Pipeline Pipe = opt::makePipeline(Sig, OC);
          graph::ShapeInference SI;
          Out[Naive].Stats =
              Naive ? naiveSearchRewrite(*G, Pipe.Rules, SI, O)
                    : rewrite::rewriteToFixpoint(*G, Pipe.Rules, SI, O);
          Out[Naive].GraphText = graph::writeGraphText(*G);
        }
        EXPECT_GT(Out[0].Stats.SearchSteps, 0u);
        expectSameAsNaive(Out[0], Out[1],
                          std::string(opt::optConfigName(OC)) + " matcher " +
                              std::to_string(static_cast<int>(MK)) +
                              (SS == SearchStrategy::Beam ? " beam"
                                                          : " best-of-n"));
      }
}

INSTANTIATE_TEST_SUITE_P(Zoo, SearchNaiveReference,
                         ::testing::Range<size_t>(0, zooModels().size()),
                         [](const auto &Info) {
                           std::string Name = zooModels()[Info.param].Name;
                           std::replace(Name.begin(), Name.end(), '-', '_');
                           return Name;
                         });

/// A rule with guarded paths, so the committed enumeration evaluates rule
/// guards (the stress templates guard patterns only): on the stress
/// graphs' rank-2 tensors the first path's guard fails, the second passes.
constexpr const char *GuardedRuleTemplate = R"pypm(
pattern TS(x) { return Tanh(Sigmoid(x)); }
rule ts for TS(x) {
  if x.shape.rank == 3 {
    return Tanh(x);
  } elif x.shape.rank == 2 {
    return Sigmoid(x);
  }
}
)pypm";

/// The 50 stress seeds (their rules plus GuardedRuleTemplate) under
/// governance: step and μ ceilings that trip mid-enumeration, site faults
/// (absorbed into quarantine, or halting), counter faults on guard
/// evaluations, budget charges and RHS builds, and fuel starvation that
/// quarantines on the committed path.
TEST(SearchNaiveReferenceSeeds, GovernedSeedsMatchTheNaiveSearch) {
  unsigned Faulted = 0, GuardFaulted = 0, Quarantined = 0, Exhausted = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed)
    for (unsigned Variant = 0; Variant != 7; ++Variant)
      for (rewrite::MatcherKind MK : AllMatchers) {
        StressOutcome Out[2];
        for (int Naive = 0; Naive != 2; ++Naive) {
          RewriteOptions O;
          O.Search = Variant % 2 ? SearchStrategy::BestOfN
                                 : SearchStrategy::Beam;
          O.BeamWidth = 2;
          O.MaxRewrites = 40;
          O.Matcher = MK;
          BudgetLimits L;
          FaultInjector::Config FC;
          switch (Variant) {
          case 1:
            L.MaxTotalSteps = 10 + Seed * 7;
            break;
          case 2:
            L.MaxTotalSteps = 400;
            L.MaxTotalMuUnfolds = 1 + Seed % 5;
            break;
          case 3:
            FC.SiteSeed = Seed * 31 + 7;
            FC.SitePeriod = 7;
            break;
          case 4:
            FC.SiteSeed = Seed * 31 + 7;
            FC.SitePeriod = 5;
            O.HaltOnFault = true;
            break;
          case 5:
            FC.NthGuardEval = 1 + Seed % 6;
            FC.NthBudgetCharge = Seed % 3 ? 0 : 9;
            FC.NthRhsBuild = Seed % 5 == 1 ? 2 : 0;
            break;
          case 6:
            O.QuarantineThreshold = 1 + Seed % 2;
            O.MachineOpts.MaxSteps = 3 + Seed % 5;
            break;
          }
          Budget B(L);
          if (L.MaxTotalSteps)
            O.EngineBudget = &B;
          FaultInjector F(FC);
          if (Variant >= 3 && Variant <= 5)
            O.Faults = &F;
          term::Signature Sig;
          models::declareModelOps(Sig);
          auto Lib = dsl::compileOrDie(
              stressRuleSource(Seed) + GuardedRuleTemplate, Sig);
          graph::Graph G(Sig);
          buildStressGraph(Seed, G, Sig);
          graph::ShapeInference SI;
          SI.inferAll(G);
          rewrite::RuleSet RS;
          RS.addLibrary(*Lib);
          Out[Naive].Stats = Naive ? naiveSearchRewrite(G, RS, SI, O)
                                   : rewrite::rewriteToFixpoint(G, RS, SI, O);
          Out[Naive].GraphText = graph::writeGraphText(G);
        }
        const EngineStatus &St = Out[0].Stats.Status;
        Faulted += St.FaultsAbsorbed > 0;
        GuardFaulted += Variant == 5 && St.FaultsAbsorbed > 0;
        Quarantined += St.quarantined();
        Exhausted += St.Code == EngineStatusCode::BudgetExhausted;
        expectSameAsNaive(Out[0], Out[1],
                          stressRepro(Seed, "variant " +
                                                std::to_string(Variant) +
                                                " matcher " +
                                                std::to_string(
                                                    static_cast<int>(MK))));
      }
  // Every governance path fires somewhere in the sweep.
  EXPECT_GT(Faulted, 100u);
  EXPECT_GT(GuardFaulted, 50u);
  EXPECT_GT(Quarantined, 100u);
  EXPECT_GT(Exhausted, 50u);
}

/// A commit that returns a bound variable moves its root's uses onto that
/// variable's node, which no swept or appended node need touch. Here the
/// first commit (NN at n2) returns v, so v becomes an output; priced before
/// it, the candidate at n1 sweeps n1 and v, priced after it only n1. The
/// frontier {v, a} of n1's price meets only the replacement, so the
/// replacement must void the price (search::forEachUseChanged).
constexpr const char *ReturnedVarRules = R"pypm(
pattern NR(y) { return Neg(Relu(y)); }
rule nr for NR(y) { return Tanh(y); }
pattern NN(x) { return Neg(Neg(x)); }
rule nn for NN(x) { return x; }
)pypm";

TEST(SearchSpeculation, UsesMovedOntoAReturnedVariableVoidThePrice) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = dsl::compileOrDie(ReturnedVarRules, Sig);
  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  graph::Graph G(Sig);
  graph::NodeId A =
      G.addLeaf("Input", graph::TensorType::make(term::DType::F32, {8, 8}));
  graph::NodeId V = G.addNode(Sig.lookup("Relu"), {A});
  graph::NodeId N1 = G.addNode(Sig.lookup("Neg"), {V});
  graph::NodeId N2 = G.addNode(Sig.lookup("Neg"), {N1});
  G.addOutput(N1);
  G.addOutput(N2);
  graph::ShapeInference SI;
  SI.inferAll(G);
  // Step 1 commits its second candidate (NN at n2); step 2 re-prices NR at
  // n1, whose kept price would otherwise stand and differ from the clone.
  graph::Graph Stepped(G);
  Stepped.removeUnreachable(); // swept: step 1's prices are kept
  EXPECT_EQ(checkSpeculationAgainstClones(Stepped, RS, SI, 4).Stood, 0u);
  EXPECT_NE(std::find(Stepped.outputs().begin(), Stepped.outputs().end(), V),
            Stepped.outputs().end());
  for (SearchStrategy SS : {SearchStrategy::Beam, SearchStrategy::BestOfN}) {
    RewriteOptions O;
    O.Search = SS;
    StressOutcome Out[2];
    for (int Naive = 0; Naive != 2; ++Naive) {
      graph::Graph Copy(G);
      Out[Naive].Stats = Naive ? naiveSearchRewrite(Copy, RS, SI, O)
                               : rewrite::rewriteToFixpoint(Copy, RS, SI, O);
      Out[Naive].GraphText = graph::writeGraphText(Copy);
    }
    expectSameAsNaive(Out[0], Out[1], "returned variable");
  }
}

//===----------------------------------------------------------------------===//
// Stress sweeps (nightly tier: suite names carry "Stress")
//===----------------------------------------------------------------------===//

class SearchStressDegenerate : public ::testing::TestWithParam<unsigned> {};

/// 50 seeds: every degenerate beam run must be bit-identical to greedy at
/// the same thread count — same engine, same everything.
TEST_P(SearchStressDegenerate, BeamLookaheadZeroEqualsGreedy) {
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    RewriteOptions Plain;
    Plain.MaxRewrites = 100;
    Plain.NumThreads = Threads;
    StressOutcome Greedy = runStressCase(Seed, Plain);

    RewriteOptions Degenerate = Plain;
    Degenerate.Search = SearchStrategy::Beam;
    Degenerate.BeamWidth = 4;
    Degenerate.Lookahead = 0;
    expectOutcomesEqual(Greedy, runStressCase(Seed, Degenerate),
                        stressRepro(Seed, "degenerate-beam threads=" +
                                              std::to_string(Threads)));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SearchStressDegenerate,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

/// Real beam runs must be thread-invariant: workers only price candidates
/// on private copies, so every observable — graph, counters, governance —
/// is pinned to the serial run.
TEST(SearchStressThreads, BeamIsThreadInvariantAcrossSeeds) {
  for (uint64_t Seed = 0; Seed != 12; ++Seed) {
    RewriteOptions Base;
    Base.Search = SearchStrategy::Beam;
    Base.BeamWidth = 2;
    Base.Lookahead = 2;
    Base.MaxRewrites = 16;
    StressOutcome Serial = runStressCase(Seed, Base);
    for (unsigned Threads : {1u, 2u, 4u, 8u}) {
      RewriteOptions O = Base;
      O.NumThreads = Threads;
      expectOutcomesEqual(Serial, runStressCase(Seed, O),
                          stressRepro(Seed, 0, Threads, "beam"));
    }
  }
}

/// Site-scheduled faults land on the committed enumeration path, which is
/// serial in canonical order — so a faulting beam run is bit-identical at
/// every thread count too.
TEST(SearchStressFaults, SiteScheduleIsThreadInvariantUnderBeam) {
  for (uint64_t Seed : {1u, 4u, 9u}) {
    auto Run = [&](unsigned Threads) {
      FaultInjector::Config C;
      C.SiteSeed = Seed * 31 + 7;
      C.SitePeriod = 13;
      FaultInjector F(C);
      RewriteOptions O;
      O.Search = SearchStrategy::Beam;
      O.BeamWidth = 2;
      O.Lookahead = 1;
      O.MaxRewrites = 16;
      O.NumThreads = Threads;
      O.Faults = &F;
      return runStressCase(Seed, O);
    };
    StressOutcome Serial = Run(0);
    for (unsigned Threads : {1u, 4u})
      expectOutcomesEqual(Serial, Run(Threads),
                          stressRepro(Seed, 0, Threads, "beam site-faults"));
  }
}

/// Fuel-starved attempts quarantine on the committed path; the quarantine
/// decisions — and the run that completes around them — are identical at
/// every thread count.
TEST(SearchStressCompose, QuarantineUnderFuelStarvationIsDeterministic) {
  for (uint64_t Seed : {3u, 11u}) {
    auto Run = [&](unsigned Threads) {
      RewriteOptions O;
      O.Search = SearchStrategy::Beam;
      O.BeamWidth = 2;
      O.Lookahead = 1;
      O.MaxRewrites = 16;
      O.NumThreads = Threads;
      O.QuarantineThreshold = 2;
      O.MachineOpts.MaxSteps = 12; // starve the deeper patterns
      return runStressCase(Seed, O);
    };
    StressOutcome Serial = Run(0);
    for (unsigned Threads : {2u, 8u})
      expectOutcomesEqual(Serial, Run(Threads),
                          stressRepro(Seed, 0, Threads, "beam fuel-starved"));
  }
}

/// 50 seeds of the stress zoo: the price-reuse oracle of SearchSpeculation
/// on random DAGs, where shared inputs and bound-variable returns make
/// commits move uses onto and off the frontier of other candidates. Each
/// seed's rules run over four of its graphs side by side, so a commit in
/// one leaves prices standing in the others.
TEST(SearchStressSpeculation, ReusedPricesMatchFreshClonesOnSeeds) {
  size_t Stood = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    term::Signature Sig;
    models::declareModelOps(Sig);
    auto Lib = dsl::compileOrDie(stressRuleSource(Seed), Sig);
    graph::Graph G(Sig);
    for (uint64_t Part = 0; Part != 4; ++Part)
      buildStressGraph(Seed + 1000 * Part, G, Sig);
    graph::ShapeInference SI;
    SI.inferAll(G);
    rewrite::RuleSet RS;
    RS.addLibrary(*Lib);
    Stood += checkSpeculationAgainstClones(G, RS, SI, 24).Stood;
  }
  EXPECT_GT(Stood, 50u);
}

/// 50 seeds of the stress zoo: the same speculation-vs-clone oracle as
/// SearchSpeculation, on random DAGs with ping-pong pairs, shape guards
/// and bound-variable returns.
TEST(SearchStressSpeculation, RollbackPricingMatchesFreshClonesOnSeeds) {
  size_t Compared = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    term::Signature Sig;
    models::declareModelOps(Sig);
    auto Lib = dsl::compileOrDie(stressRuleSource(Seed), Sig);
    graph::Graph G(Sig);
    buildStressGraph(Seed, G, Sig);
    graph::ShapeInference SI;
    SI.inferAll(G);
    rewrite::RuleSet RS;
    RS.addLibrary(*Lib);
    Compared += checkSpeculationAgainstClones(G, RS, SI, 12).Compared;
  }
  EXPECT_GT(Compared, 100u);
}

} // namespace
