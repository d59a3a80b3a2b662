//===- e2ebench/Inputs.cpp - Requests, expected outputs, checks -----------===//

#include "Inputs.h"

#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "sim/CostModel.h"

#include <algorithm>
#include <cctype>
#include <cmath>

using namespace pypm;

namespace e2e {

uint64_t Rng::next() {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

std::vector<ZooModel> zooModels(bool Hf, size_t MaxNodes) {
  std::vector<ZooModel> Out;
  sim::CostModel CM;
  for (const models::ModelEntry &E :
       Hf ? models::hfSuite() : models::tvSuite()) {
    term::Signature Sig;
    std::unique_ptr<graph::Graph> G = E.Build(Sig);
    if (G->numLiveNodes() > MaxNodes)
      continue;
    ZooModel M;
    M.Name = E.Name;
    M.Hf = Hf;
    M.GraphText = graph::writeGraphText(*G);
    M.Nodes = G->numLiveNodes();
    M.CostBefore = CM.graphCost(*G).Seconds;
    Out.push_back(std::move(M));
  }
  return Out;
}

static opt::OptConfig optConfig(RuleSetKind K) {
  switch (K) {
  case RuleSetKind::Both:
    return opt::OptConfig::Both;
  case RuleSetKind::FmhaOnly:
    return opt::OptConfig::FmhaOnly;
  case RuleSetKind::EpilogOnly:
    return opt::OptConfig::EpilogOnly;
  }
  return opt::OptConfig::Both;
}

/// `op` declarations for every operator models::declareModelOps declares,
/// in its declaration order, so operator ids (and with them the `act`
/// attributes the Epilog rules write) match the C++-built signature.
static std::string sigmaPrelude() {
  term::Signature Sig;
  models::declareModelOps(Sig);
  std::string Out = "// Operator signature generated from "
                    "models::declareModelOps.\n";
  for (const term::OpInfo &I : Sig.ops()) {
    Out += "op " + std::string(I.Name.str()) + "(" +
           std::to_string(I.Arity) + ")";
    if (I.Results != 1)
      Out += " -> " + std::to_string(I.Results);
    if (I.OpClass.isValid())
      Out += " class(\"" + std::string(I.OpClass.str()) + "\")";
    if (!I.AttrNames.empty()) {
      Out += " attrs(";
      for (size_t A = 0; A != I.AttrNames.size(); ++A)
        Out += (A ? ", " : "") + std::string(I.AttrNames[A].str());
      Out += ")";
    }
    Out += ";\n";
  }
  return Out;
}

std::string payload(RuleSetKind K) {
  std::string Out = sigmaPrelude();
  if (K != RuleSetKind::EpilogOnly)
    Out += opt::fmhaSource();
  if (K != RuleSetKind::FmhaOnly)
    Out += opt::epilogSource();
  return Out;
}

std::string freshRule(std::string_view Id) {
  std::string I(Id);
  return "\nop BenchFresh" + I + "(1);\npattern BenchFreshP" + I +
         "(x) { return BenchFresh" + I + "(x); }\nrule bench_fresh_" + I +
         " for BenchFreshP" + I + "(x) { return x; }\n";
}

bool GraphSummary::sameUpToRenaming(const GraphSummary &O) const {
  double Scale = std::max(std::fabs(Cost), std::fabs(O.Cost));
  return LiveNodes == O.LiveNodes && Ops == O.Ops &&
         std::fabs(Cost - O.Cost) <= 1e-9 * Scale;
}

std::map<std::string, unsigned> opHistogram(std::string_view Text) {
  // Node lines read `<name> = <Op>[attrs](<inputs>) : <type>`.
  std::map<std::string, unsigned> Ops;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t Eq = Line.find(" = ");
    if (Line.empty() || Line[0] == '#' || Eq == std::string_view::npos)
      continue;
    size_t B = Eq + 3, E = B;
    while (E < Line.size() &&
           (std::isalnum(static_cast<unsigned char>(Line[E])) ||
            Line[E] == '_'))
      ++E;
    ++Ops[std::string(Line.substr(B, E - B))];
  }
  return Ops;
}

static GraphSummary summaryOf(const graph::Graph &G, std::string Text) {
  GraphSummary S;
  S.Cost = sim::CostModel().graphCost(G).Seconds;
  S.LiveNodes = G.numLiveNodes();
  S.Ops = opHistogram(Text);
  S.Text = std::move(Text);
  return S;
}

bool summarize(const std::string &GraphText, GraphSummary &Out) {
  term::Signature Sig;
  models::declareModelOps(Sig);
  DiagnosticEngine Diags;
  std::unique_ptr<graph::Graph> G = graph::parseGraphText(GraphText, Sig, Diags);
  if (!G)
    return false;
  Out = summaryOf(*G, GraphText);
  return true;
}

Reference referenceRewrite(const std::string &GraphText, RuleSetKind K) {
  term::Signature Sig;
  opt::Pipeline P = opt::makePipeline(Sig, optConfig(K));
  DiagnosticEngine Diags;
  std::unique_ptr<graph::Graph> G = graph::parseGraphText(GraphText, Sig, Diags);
  Reference R;
  if (!G)
    return R;
  R.Stats = rewrite::rewriteToFixpoint(*G, P.Rules, graph::ShapeInference(),
                                       rewrite::RewriteOptions());
  R.Out = summaryOf(*G, graph::writeGraphText(*G));
  return R;
}

namespace {
/// Configured encoder layers and FFN activation of each HF suite model,
/// transcribed from the suite's definition (src/models/Zoo.cpp) so the
/// fire-count check does not take its expectation from the code it checks.
struct LayerSpec {
  const char *Name;
  unsigned Layers;
  bool Gelu;
};
constexpr LayerSpec HfLayers[] = {
    {"bert-tiny", 2, true},          {"bert-mini", 4, true},
    {"bert-small", 4, true},         {"bert-medium", 8, true},
    {"bert-base", 12, true},         {"bert-large", 24, true},
    {"roberta-base", 12, true},      {"roberta-large", 24, true},
    {"distilbert", 6, true},         {"distilroberta", 6, true},
    {"gpt2-small", 12, true},        {"gpt2-medium", 24, true},
    {"gpt2-large", 36, true},        {"electra-small", 12, true},
    {"electra-base", 12, true},      {"albert-base", 12, true},
    {"vanilla-relu-small", 6, false}, {"vanilla-relu-base", 12, false},
    {"t5ish-relu", 12, false},       {"bert-base-512", 12, true},
    {"roberta-base-512", 12, true},  {"gpt2-small-1k", 12, true},
    {"ffn-heavy-base", 12, true},    {"ffn-heavy-relu", 12, false},
    {"bert-base-masked", 12, true},  {"gpt2-small-causal", 12, true},
    {"vit-tiny", 4, true},           {"vit-small", 8, true},
};
} // namespace

std::string checkLayerFires(const std::string &Model,
                            const rewrite::RewriteStats &Stats,
                            const std::map<std::string, unsigned> &Ops) {
  const LayerSpec *Spec = nullptr;
  for (const LayerSpec &S : HfLayers)
    if (Model == S.Name)
      Spec = &S;
  if (!Spec)
    return "no configured layer count for HF model '" + Model + "'";
  auto Fired = [&](const char *Pattern) -> uint64_t {
    auto It = Stats.PerPattern.find(Pattern);
    return It == Stats.PerPattern.end() ? 0 : It->second.RulesFired;
  };
  auto Count = [&](const char *Op) -> uint64_t {
    auto It = Ops.find(Op);
    return It == Ops.end() ? 0 : It->second;
  };
  const uint64_t L = Spec->Layers;
  std::string Err;
  auto Expect = [&](const char *What, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Err += std::string(Err.empty() ? "" : "; ") + What + " " +
             std::to_string(Got) + " != " + std::to_string(Want);
  };
  Expect("MHA fires", Fired("MHA"), L);
  Expect("GemmAct+GemmBiasAct fires", Fired("GemmAct") + Fired("GemmBiasAct"),
         L);
  Expect("GeluExpanded fires", Fired("GeluExpanded"), Spec->Gelu ? L : 0);
  Expect("FMHA+FMHAMasked ops", Count("FMHA") + Count("FMHAMasked"), L);
  Expect("GemmEpilog+GemmBiasEpilog ops",
         Count("GemmEpilog") + Count("GemmBiasEpilog"), L);
  Expect("Erf ops left", Count("Erf"), 0);
  return Err.empty() ? Err : Model + ": " + Err;
}

} // namespace e2e
