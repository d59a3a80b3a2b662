//===- tests/TestHelpers.h - Shared test fixtures ---------------*- C++ -*-===//
///
/// \file
/// Conveniences shared across the test suite: a fixture owning a Signature
/// + TermArena + PatternArena, term parsing shorthands, witness helpers,
/// and the zoo-differential scaffolding (runModel + the two engine-run
/// equality bars) shared by the MatchPlan / PlanProfile / naive-reference
/// suites.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_TESTS_TESTHELPERS_H
#define PYPM_TESTS_TESTHELPERS_H

#include "NaiveEngine.h"

#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "match/Declarative.h"
#include "match/Machine.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "pattern/Pattern.h"
#include "rewrite/RewriteEngine.h"
#include "search/Search.h"
#include "sim/CostModel.h"
#include "term/TermParser.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>

namespace pypm::testing {

/// A fixture with one signature/arena pair, term parsing, and a small
/// pattern-construction toolkit.
class CoreFixture : public ::testing::Test {
protected:
  CoreFixture() : Arena(Sig) {}

  term::TermRef t(std::string_view Text) {
    return term::parseTermOrDie(Text, Sig, Arena);
  }

  term::OpId op(std::string_view Name, unsigned Arity) {
    return Sig.getOrAddOp(Name, Arity);
  }

  const pattern::Pattern *v(std::string_view Name) { return PA.var(Name); }

  const pattern::Pattern *app(std::string_view Name,
                              std::vector<const pattern::Pattern *> Children) {
    term::OpId Op = op(Name, static_cast<unsigned>(Children.size()));
    return PA.app(Op, std::move(Children));
  }

  match::MatchResult matchP(const pattern::Pattern *P, term::TermRef T) {
    return match::matchPattern(P, T, Arena);
  }

  /// θ(x) as a term, or nullptr.
  term::TermRef bound(const match::Witness &W, std::string_view Var) {
    return W.Theta.lookup(Symbol::intern(Var)).value_or(nullptr);
  }

  term::Signature Sig;
  term::TermArena Arena;
  pattern::PatternArena PA;
};

//===----------------------------------------------------------------------===//
// Zoo-differential scaffolding (engine-level equivalence suites)
//===----------------------------------------------------------------------===//

/// One engine run's observables: the committed graph plus the stats.
struct RunResult {
  std::string GraphText;
  rewrite::RewriteStats Stats;
};

/// Builds \p Model fresh and rewrites it to fixpoint under \p Opts with
/// the standard pipeline (\p WithUnaryChain additionally loads the
/// μ-recursive unary-chain library, the stress rule for deep unfolds).
/// \p Naive runs the naive reference engine (NaiveEngine.h) instead.
inline RunResult runModel(const models::ModelEntry &Model,
                          rewrite::RewriteOptions Opts,
                          bool WithUnaryChain = false, bool Naive = false) {
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  if (WithUnaryChain) {
    Pipe.Libs.push_back(opt::compileUnaryChain(Sig));
    Pipe.Rules.addLibrary(*Pipe.Libs.back());
  }
  RunResult R;
  graph::ShapeInference SI;
  R.Stats = Naive ? naiveRewrite(*G, Pipe.Rules, SI, Opts)
                  : rewrite::rewriteToFixpoint(*G, Pipe.Rules, SI, Opts);
  R.GraphText = graph::writeGraphText(*G);
  return R;
}

/// What MUST agree across matcher kinds: the committed rewrite sequence
/// and everything derived from it. Attempt-shaped counters (Attempts,
/// RootSkips, MachineSteps, Backtracks, FuelExhausted) legitimately differ
/// — the tree prefilter skips attempts the root-op index would have
/// started (see DESIGN.md §"MatchPlan").
inline void expectSameRewrites(const RunResult &A, const RunResult &B,
                               const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.GraphText, B.GraphText);
  EXPECT_EQ(A.Stats.Passes, B.Stats.Passes);
  EXPECT_EQ(A.Stats.NodesVisited, B.Stats.NodesVisited);
  EXPECT_EQ(A.Stats.TotalMatches, B.Stats.TotalMatches);
  EXPECT_EQ(A.Stats.TotalFired, B.Stats.TotalFired);
  EXPECT_EQ(A.Stats.NodesSwept, B.Stats.NodesSwept);
  EXPECT_EQ(A.Stats.Status, B.Stats.Status);
  ASSERT_EQ(A.Stats.PerPattern.size(), B.Stats.PerPattern.size());
  for (const auto &[Name, SP] : A.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = B.Stats.PerPattern.find(Name);
    ASSERT_NE(It, B.Stats.PerPattern.end());
    EXPECT_EQ(SP.Matches, It->second.Matches);
    EXPECT_EQ(SP.RulesFired, It->second.RulesFired);
    EXPECT_EQ(SP.GuardRejects, It->second.GuardRejects);
  }
}

/// What must agree between two runs of the *same* matcher kind (across
/// thread counts or profiled orderings): every observable except
/// wall-clock and the mode-descriptive work counters (ViewConversions,
/// SweepVisits, FootprintNodes).
inline void expectFullyEqual(const RunResult &A, const RunResult &B,
                             const std::string &Label) {
  SCOPED_TRACE(Label);
  EXPECT_EQ(A.GraphText, B.GraphText);
  EXPECT_EQ(A.Stats.Passes, B.Stats.Passes);
  EXPECT_EQ(A.Stats.NodesVisited, B.Stats.NodesVisited);
  EXPECT_EQ(A.Stats.TotalMatches, B.Stats.TotalMatches);
  EXPECT_EQ(A.Stats.TotalFired, B.Stats.TotalFired);
  EXPECT_EQ(A.Stats.NodesSwept, B.Stats.NodesSwept);
  EXPECT_EQ(A.Stats.Status, B.Stats.Status);
  ASSERT_EQ(A.Stats.PerPattern.size(), B.Stats.PerPattern.size());
  for (const auto &[Name, SP] : A.Stats.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = B.Stats.PerPattern.find(Name);
    ASSERT_NE(It, B.Stats.PerPattern.end());
    rewrite::PatternStats X = SP, Y = It->second;
    X.Seconds = Y.Seconds = 0.0;
    EXPECT_EQ(X, Y);
  }
}

/// Plan-matcher options at \p Threads worker threads.
inline rewrite::RewriteOptions planOpts(unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::Plan;
  O.NumThreads = Threads;
  return O;
}

//===----------------------------------------------------------------------===//
// Exhaustive small-graph search oracle
//===----------------------------------------------------------------------===//

/// The true optimum the beam search approximates: exhaustively explores
/// EVERY commit sequence reachable from \p G — using the search's own move
/// generator (search::enumerateCandidates) and transition function
/// (search::applyCandidate), so oracle and subject agree exactly on what a
/// "move" is — and returns the cheapest modeled cost over all reachable
/// fixpoints. States are deduplicated by their printed graph (different
/// commit orders reaching the same graph are explored once).
///
/// Exponential by design: only for seeded graphs of a few nodes. \p
/// MaxStates / \p MaxDepth are safety valves for accidental blowups or
/// non-terminating rule sets (a ping-pong pair never reaches a fixpoint);
/// a depth-capped branch prices its current state as if terminal, keeping
/// the result a valid upper bound on the optimum either way.
inline double exhaustiveOptimum(const graph::Graph &G,
                                const rewrite::RuleSet &Rules,
                                const graph::ShapeInference &SI,
                                const sim::CostModel &CM,
                                unsigned MaxWitnesses = 4,
                                size_t MaxStates = 20000,
                                unsigned MaxDepth = 32) {
  search::EnumOptions EO;
  EO.MaxWitnesses = MaxWitnesses;
  struct State {
    std::unique_ptr<graph::Graph> G;
    unsigned Depth = 0;
  };
  std::vector<State> Stack;
  Stack.push_back({std::make_unique<graph::Graph>(G), 0});
  std::set<std::string> Seen{graph::writeGraphText(G)};
  double Best = std::numeric_limits<double>::infinity();
  size_t Explored = 0;
  while (!Stack.empty() && Explored < MaxStates) {
    State S = std::move(Stack.back());
    Stack.pop_back();
    ++Explored;
    std::vector<search::Candidate> Cands =
        search::enumerateCandidates(*S.G, Rules, EO);
    bool Expanded = false;
    if (S.Depth < MaxDepth)
      for (const search::Candidate &C : Cands) {
        auto GC = std::make_unique<graph::Graph>(*S.G);
        search::ApplyResult R = search::applyCandidate(*GC, C, Rules, SI, CM);
        if (!R.Applied)
          continue;
        std::string Key = graph::writeGraphText(*GC);
        if (!Seen.insert(std::move(Key)).second)
          continue;
        Stack.push_back({std::move(GC), S.Depth + 1});
        Expanded = true;
      }
    if (!Expanded)
      Best = std::min(Best, CM.graphCost(*S.G).Seconds);
  }
  return Best;
}

} // namespace pypm::testing

#endif // PYPM_TESTS_TESTHELPERS_H
