//===- e2ebench/Inputs.h - Requests, expected outputs, checks ---*- C++ -*-===//
///
/// \file
/// Everything the benchmark derives from its inputs before it measures:
/// the rule-set payloads (a Σ prelude generated from
/// models::declareModelOps followed by the paper's FMHA and Epilog DSL
/// sources), the zoo graphs as text, the in-process reference rewrite
/// each reply is compared with, and the output checks that do not rely on
/// the code under test (op histograms counted from the text, fire counts
/// against the configured layer count of each HF model).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_E2EBENCH_INPUTS_H
#define PYPM_E2EBENCH_INPUTS_H

#include "rewrite/RewriteEngine.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// Deterministic generator for everything a seed decides (SplitMix64, so
/// the stream does not depend on the standard library's distributions).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next();
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }

private:
  uint64_t State;
};

/// One zoo model, shipped to the server as graph text.
struct ZooModel {
  std::string Name;
  bool Hf = false;
  std::string GraphText;
  size_t Nodes = 0;
  double CostBefore = 0; ///< sim::CostModel seconds before any rewrite
};

/// Builds the HF (Hf = true) or TV suite, keeping models of at most
/// \p MaxNodes live nodes.
std::vector<ZooModel> zooModels(bool Hf, size_t MaxNodes);

/// The three hot rule sets of the paper's pipeline.
enum class RuleSetKind : uint8_t { Both, FmhaOnly, EpilogOnly };
inline constexpr RuleSetKind AllRuleSetKinds[] = {
    RuleSetKind::Both, RuleSetKind::FmhaOnly, RuleSetKind::EpilogOnly};

/// The inline .pypm payload for \p K: a Σ prelude generated from
/// models::declareModelOps, then the DSL sources.
std::string payload(RuleSetKind K);

/// A never-matching rule appended to a payload: a content-distinct rule
/// set (it declares a fresh operator no zoo graph uses) whose rewrite
/// output equals the base payload's.
std::string freshRule(std::string_view Id);

/// Renaming-invariant description of one rewritten graph.
struct GraphSummary {
  std::string Text;
  double Cost = 0;
  uint64_t LiveNodes = 0;
  std::map<std::string, unsigned> Ops;

  /// Equal up to node numbering: cost (to a relative 1e-9, the sum runs
  /// in node order), live nodes, and op histogram.
  bool sameUpToRenaming(const GraphSummary &O) const;
};

/// Operator histogram counted from graph text by the benchmark itself.
std::map<std::string, unsigned> opHistogram(std::string_view GraphText);

/// Parses \p GraphText against a fresh zoo signature and summarizes it;
/// false when it does not parse.
bool summarize(const std::string &GraphText, GraphSummary &Out);

/// The in-process reference for one request: opt::makePipeline(K) plus
/// rewriteToFixpoint with default options (greedy), on the same text.
struct Reference {
  GraphSummary Out;
  pypm::rewrite::RewriteStats Stats;
};
Reference referenceRewrite(const std::string &GraphText, RuleSetKind K);

/// Checks that MHA, GemmAct/GemmBiasAct and (on GELU models)
/// GeluExpanded each fired exactly once per configured layer of HF model
/// \p Model, and that the output holds one fused attention and one fused
/// GEMM epilog per layer. The layer counts are the benchmark's own table
/// (Inputs.cpp), not read from the zoo. Returns an empty string when the check passes.
std::string checkLayerFires(const std::string &Model,
                            const pypm::rewrite::RewriteStats &Stats,
                            const std::map<std::string, unsigned> &Ops);

} // namespace e2e

#endif // PYPM_E2EBENCH_INPUTS_H
