//===- tests/StressHarness.h - Seeded stress graphs + rule zoos -*- C++ -*-===//
///
/// \file
/// The seeded rule-zoo / random-DAG generator shared by the robustness
/// suites (test_budget, test_faults). Mirrors the generator proven
/// serial/parallel-equivalent in test_properties: every artifact is a pure
/// function of the seed, so any two runs of the same seed — at any thread
/// count, under any budget or fault schedule — start from identical
/// inputs.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_TESTS_STRESSHARNESS_H
#define PYPM_TESTS_STRESSHARNESS_H

#include "NaiveEngine.h"

#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "models/Transformers.h"
#include "rewrite/RewriteEngine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <string>

namespace pypm::testing {

/// Rule templates exercising every commit path: plain collapses, a rule
/// returning a bound variable, a shape-guarded rule, a ping-pong pair that
/// only terminates via the rewrite limit, and a match-only pattern.
inline const char *const StressTemplates[] = {
    "pattern RR(x) { return Relu(Relu(x)); }\n"
    "rule rr for RR(x) { return Relu(x); }\n",
    "pattern TT(x) { return Tanh(Tanh(x)); }\n"
    "rule tt for TT(x) { return Tanh(x); }\n",
    "pattern SR(x) { return Sigmoid(Relu(x)); }\n"
    "rule sr for SR(x) { return Gelu(x); }\n",
    "pattern NN(x) { return Neg(Neg(x)); }\n"
    "rule nn for NN(x) { return x; }\n",
    "pattern RS(x) { return Relu(Sigmoid(x)); }\n"
    "rule rs for RS(x) { return Sigmoid(Relu(x)); }\n",
    "pattern SRflip(x) { return Sigmoid(Relu(x)); }\n"
    "rule srflip for SRflip(x) { return Relu(Sigmoid(x)); }\n",
    "pattern AG(x, y) {\n"
    "  assert x.shape.rank == 2;\n"
    "  return Add(Relu(x), Relu(y));\n"
    "}\n"
    "rule ag for AG(x, y) { return Relu(Add(x, y)); }\n",
    "pattern MO(x, y) { return Mul(Tanh(x), y); }\n",
};
inline constexpr size_t NumStressTemplates =
    sizeof(StressTemplates) / sizeof(StressTemplates[0]);

/// Deterministically derives a DSL source from the seed: each template
/// joins with probability 1/2 (at least one always does).
inline std::string stressRuleSource(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b9u + 3);
  std::string Src;
  for (size_t I = 0; I != NumStressTemplates; ++I)
    if (R.chance(1, 2))
      Src += StressTemplates[I];
  if (Src.empty())
    Src = StressTemplates[Seed % NumStressTemplates];
  return Src;
}

/// Deterministically builds a random DAG over the ops the templates
/// mention. Uniform {8, 8} f32 shapes keep every guard satisfiable.
inline void buildStressGraph(uint64_t Seed, graph::Graph &G,
                             const term::Signature &Sig) {
  Rng R(Seed * 0x51ed2701u + 9);
  const char *Unary[] = {"Relu", "Tanh", "Sigmoid", "Neg"};
  const char *Binary[] = {"Add", "Mul"};
  std::vector<graph::NodeId> Nodes;
  int NumInputs = static_cast<int>(R.range(2, 4));
  for (int I = 0; I != NumInputs; ++I)
    Nodes.push_back(G.addLeaf(
        "Input", graph::TensorType::make(term::DType::F32, {8, 8})));
  int NumOps = static_cast<int>(R.range(20, 60));
  for (int I = 0; I != NumOps; ++I) {
    if (R.chance(2, 3)) {
      term::OpId Op = Sig.lookup(Unary[R.below(4)]);
      Nodes.push_back(G.addNode(Op, {Nodes[R.below(Nodes.size())]}));
    } else {
      term::OpId Op = Sig.lookup(Binary[R.below(2)]);
      Nodes.push_back(G.addNode(Op, {Nodes[R.below(Nodes.size())],
                                     Nodes[R.below(Nodes.size())]}));
    }
  }
  // A couple of outputs so sweeping keeps a non-trivial live set.
  G.addOutput(Nodes.back());
  G.addOutput(Nodes[Nodes.size() / 2]);
}

struct StressOutcome {
  std::string GraphText;
  rewrite::RewriteStats Stats;
};

/// Builds the seed's graph + rules and runs rewriteToFixpoint with \p
/// Opts. Opts carries everything the robustness tests vary: thread count,
/// budget, quarantine threshold, fault injector, HaltOnFault. \p Naive
/// runs the naive reference engine (NaiveEngine.h) instead.
inline StressOutcome runStressCase(uint64_t Seed,
                                   const rewrite::RewriteOptions &Opts,
                                   bool Naive = false) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  auto Lib = dsl::compileOrDie(stressRuleSource(Seed), Sig);
  graph::Graph G(Sig);
  buildStressGraph(Seed, G, Sig);
  graph::ShapeInference SI;
  SI.inferAll(G);

  rewrite::RuleSet RS;
  RS.addLibrary(*Lib);
  StressOutcome Out;
  Out.Stats = Naive ? naiveRewrite(G, RS, SI, Opts)
                    : rewrite::rewriteToFixpoint(G, RS, SI, Opts);
  Out.GraphText = graph::writeGraphText(G);
  return Out;
}

/// One-line repro label for a stress comparison: names the seed and the
/// thread counts (or any other varied knob) so a red assertion in a
/// 50-seed × 5-thread-count sweep prints exactly which case to re-run,
/// not just a pair of mismatched numbers.
inline std::string stressRepro(uint64_t Seed, const std::string &What) {
  return "seed=" + std::to_string(Seed) + " " + What;
}
inline std::string stressRepro(uint64_t Seed, unsigned ThreadsA,
                               unsigned ThreadsB,
                               const std::string &What = "") {
  std::string R = "seed=" + std::to_string(Seed) +
                  " threads=" + std::to_string(ThreadsA) + " vs " +
                  std::to_string(ThreadsB);
  if (!What.empty())
    R += " " + What;
  return R;
}

/// Everything observable must agree except wall-clock fields (and the
/// parallel-only Discovery map). Status carries the whole failure taxonomy — code, reason,
/// quarantine list, absorbed-fault count — so equality here is the
/// bit-identical-governance claim. \p Repro, when non-empty, scopes every
/// assertion with the failing case's seed and thread count (see
/// stressRepro) so sweep failures identify themselves.
inline void expectOutcomesEqual(const StressOutcome &A,
                                const StressOutcome &B,
                                const std::string &Repro = "") {
  SCOPED_TRACE(Repro.empty() ? "stress-case" : Repro);
  EXPECT_EQ(A.GraphText, B.GraphText);
  const rewrite::RewriteStats &S = A.Stats, &P = B.Stats;
  EXPECT_EQ(S.Passes, P.Passes);
  EXPECT_EQ(S.NodesVisited, P.NodesVisited);
  EXPECT_EQ(S.TotalMatches, P.TotalMatches);
  EXPECT_EQ(S.TotalFired, P.TotalFired);
  EXPECT_EQ(S.NodesSwept, P.NodesSwept);
  EXPECT_EQ(S.Status, P.Status);
  ASSERT_EQ(S.PerPattern.size(), P.PerPattern.size());
  for (const auto &[Name, SP] : S.PerPattern) {
    SCOPED_TRACE(Name);
    auto It = P.PerPattern.find(Name);
    ASSERT_NE(It, P.PerPattern.end());
    rewrite::PatternStats X = SP, Y = It->second;
    X.Seconds = Y.Seconds = 0.0;
    EXPECT_EQ(X, Y);
  }
}

} // namespace pypm::testing

#endif // PYPM_TESTS_STRESSHARNESS_H
