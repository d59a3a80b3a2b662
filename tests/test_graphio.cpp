//===- tests/test_graphio.cpp - Textual graph serialization ---------------------===//

#include "graph/GraphIO.h"
#include "models/Zoo.h"

#include <gtest/gtest.h>

using namespace pypm;
using namespace pypm::graph;

namespace {

std::unique_ptr<Graph> parseOk(std::string_view Text, term::Signature &Sig) {
  DiagnosticEngine Diags;
  auto G = parseGraphText(Text, Sig, Diags);
  EXPECT_TRUE(G != nullptr) << Diags.renderAll();
  return G;
}

std::string parseErr(std::string_view Text) {
  term::Signature Sig;
  DiagnosticEngine Diags;
  auto G = parseGraphText(Text, Sig, Diags);
  EXPECT_EQ(G, nullptr) << "parse unexpectedly succeeded";
  return Diags.renderAll();
}

} // namespace

TEST(GraphIO, ParsesBasicGraph) {
  term::Signature Sig;
  auto G = parseOk(R"(
    # A · Bᵀ
    a = Input[uid=0]() : f32[64x128]
    b = Input[uid=1]() : f32[32x128]
    t = Trans(b) : f32[128x32]
    m = MatMul(a, t) : f32[64x32]
    output m
  )",
                   Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->numLiveNodes(), 4u);
  EXPECT_EQ(G->outputs().size(), 1u);
  EXPECT_EQ(G->type(G->outputs()[0]).Dims, (std::vector<int64_t>{64, 32}));
  EXPECT_EQ(G->attr(0, Symbol::intern("uid")), 0);
}

TEST(GraphIO, ScalarTypesAndAttrs) {
  term::Signature Sig;
  auto G = parseOk("c = Const[value_u6=500000]() : f32[]\noutput c\n", Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->type(0).rank(), 0u);
  EXPECT_EQ(G->attr(0, Symbol::intern("value_u6")), 500000);
}

TEST(GraphIO, RoundTripsEverySuiteModel) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &E : Suite) {
      term::Signature Sig;
      auto G = E.Build(Sig);
      std::string Text = writeGraphText(*G);
      term::Signature Sig2;
      DiagnosticEngine Diags;
      auto G2 = parseGraphText(Text, Sig2, Diags);
      ASSERT_TRUE(G2 != nullptr) << E.Name << ": " << Diags.renderAll();
      ASSERT_EQ(G2->numLiveNodes(), G->numLiveNodes()) << E.Name;
      // Re-serialization is a fixpoint (canonical form).
      ASSERT_EQ(writeGraphText(*G2), Text) << E.Name;
      DiagnosticEngine VDiags;
      ASSERT_TRUE(G2->verify(VDiags)) << E.Name << ": "
                                      << VDiags.renderAll();
    }
  }
}

TEST(GraphIO, ErrorUnknownInput) {
  std::string E = parseErr("m = Relu(ghost) : f32[4]\n");
  EXPECT_NE(E.find("unknown input node 'ghost'"), std::string::npos);
  EXPECT_NE(E.find("1:"), std::string::npos); // line-located
}

TEST(GraphIO, ErrorRedefinition) {
  std::string E = parseErr(
      "a = Input() : f32[4]\na = Input() : f32[4]\n");
  EXPECT_NE(E.find("redefined"), std::string::npos);
}

TEST(GraphIO, ErrorBadDtype) {
  std::string E = parseErr("a = Input() : f99[4]\n");
  EXPECT_NE(E.find("unknown dtype"), std::string::npos);
}

TEST(GraphIO, ErrorArityMismatchAgainstDeclaredOp) {
  std::string E = parseErr(
      "a = Input() : f32[4]\nb = Relu(a) : f32[4]\nc = Relu(a, b) : "
      "f32[4]\n");
  EXPECT_NE(E.find("expects 1 inputs"), std::string::npos);
}

TEST(GraphIO, ErrorTrailingGarbage) {
  std::string E = parseErr("a = Input() : f32[4] huh\n");
  EXPECT_NE(E.find("trailing characters"), std::string::npos);
}

TEST(GraphIO, ErrorUnknownOutput) {
  std::string E = parseErr("a = Input() : f32[4]\noutput nope\n");
  EXPECT_NE(E.find("unknown node"), std::string::npos);
}

TEST(GraphIO, WarnsOnMissingOutputs) {
  term::Signature Sig;
  DiagnosticEngine Diags;
  auto G = parseGraphText("a = Input() : f32[4]\n", Sig, Diags);
  ASSERT_TRUE(G != nullptr);
  bool Warned = false;
  for (const Diagnostic &D : Diags.diagnostics())
    Warned |= D.Sev == Severity::Warning;
  EXPECT_TRUE(Warned);
}

TEST(GraphIO, CommentsAndBlankLinesIgnored) {
  term::Signature Sig;
  auto G = parseOk("\n# header\n\na = Input() : f32[4]\noutput a\n", Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->numLiveNodes(), 1u);
}

// A sign needs a digit after it: a lone '-' or '+' once parsed as 0
// (`f32[-]` read as `f32[0]`, `Input[k=-]` as k=0).
TEST(GraphIO, ErrorLoneSignIsNoInteger) {
  for (const char *Text : {"a = Input() : f32[-]\n", "a = Input() : f32[+]\n",
                           "a = Input() : f32[+x4]\n",
                           "a = Input() : f32[4x-]\n"}) {
    SCOPED_TRACE(Text);
    EXPECT_NE(parseErr(Text).find("expected dimension"), std::string::npos);
  }
  for (const char *Text : {"a = Input[k=-]() : f32[4]\n",
                           "a = Input[k=+]() : f32[4]\n",
                           "a = Input[k=+-5]() : f32[4]\n"}) {
    SCOPED_TRACE(Text);
    EXPECT_NE(parseErr(Text).find("malformed attribute"), std::string::npos);
  }
}

TEST(GraphIO, SignedIntegersAndRangeLimits) {
  term::Signature Sig;
  auto G = parseOk("a = Input[k=-7,j=+3,m=-9223372036854775808]() : "
                   "f32[+4x0]\noutput a\n",
                   Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->attr(0, Symbol::intern("k")), -7);
  EXPECT_EQ(G->attr(0, Symbol::intern("j")), 3);
  EXPECT_EQ(G->attr(0, Symbol::intern("m")), INT64_MIN);
  EXPECT_EQ(G->type(0).Dims, (std::vector<int64_t>{4, 0}));
  EXPECT_NE(parseErr("a = Input[k=9223372036854775808]() : f32[4]\n")
                .find("malformed attribute"),
            std::string::npos);
  EXPECT_NE(parseErr("a = Input() : f32[-3]\n").find("negative dimension -3"),
            std::string::npos);
}

// Names past the name table's initial size: the table grows, and names
// defined before the growth still resolve, as do redefinitions.
TEST(GraphIO, ResolvesNamesAcrossNameTableGrowth) {
  constexpr int Count = 10000;
  std::string Text = "x0 = Input[uid=0]() : f32[4]\n";
  for (int I = 1; I != Count; ++I)
    Text += "x" + std::to_string(I) + " = Add(x" + std::to_string(I - 1) +
            ", x0) : f32[4]\n";
  Text += "output x" + std::to_string(Count - 1) + "\n";
  term::Signature Sig;
  auto G = parseOk(Text, Sig);
  ASSERT_TRUE(G != nullptr);
  EXPECT_EQ(G->numLiveNodes(), size_t(Count));
  auto Ins = G->inputs(Count - 1);
  EXPECT_EQ(std::vector<NodeId>(Ins.begin(), Ins.end()),
            (std::vector<NodeId>{Count - 2, 0}));
  EXPECT_NE(parseErr(Text + "x17 = Input() : f32[4]\n").find("'x17' redefined"),
            std::string::npos);
}
