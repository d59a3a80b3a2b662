//===- tests/test_term.cpp - Signatures, hash-consed terms, parser ------------===//

#include "TestHelpers.h"

#include "term/DType.h"

#include <algorithm>
#include <string>
#include <vector>

using namespace pypm;
using namespace pypm::term;
using pypm::testing::CoreFixture;

class TermTest : public CoreFixture {};

TEST_F(TermTest, SignatureDeclareAndLookup) {
  OpId MM = Sig.addOp("MatMul", 2);
  EXPECT_EQ(Sig.lookup("MatMul"), MM);
  EXPECT_EQ(Sig.arity(MM), 2u);
  EXPECT_EQ(Sig.name(MM).str(), "MatMul");
  EXPECT_FALSE(Sig.lookup("Nope").isValid());
}

TEST_F(TermTest, SignatureGetOrAddIsIdempotent) {
  OpId A = Sig.getOrAddOp("Relu", 1, 1, "unary_pointwise");
  OpId B = Sig.getOrAddOp("Relu", 1);
  EXPECT_EQ(A, B);
  EXPECT_EQ(Sig.opClass(A).str(), "unary_pointwise");
}

TEST_F(TermTest, SignatureOpsOfClass) {
  Sig.addOp("Relu", 1, 1, "unary_pointwise");
  Sig.addOp("Tanh", 1, 1, "unary_pointwise");
  Sig.addOp("Add", 2, 1, "binary_pointwise");
  auto Ops = Sig.opsOfClass(Symbol::intern("unary_pointwise"));
  ASSERT_EQ(Ops.size(), 2u);
  EXPECT_EQ(Sig.name(Ops[0]).str(), "Relu");
  EXPECT_EQ(Sig.name(Ops[1]).str(), "Tanh");
}

TEST_F(TermTest, HashConsingSharesEqualTerms) {
  TermRef A = t("F(C, C)");
  TermRef B = t("F(C, C)");
  EXPECT_EQ(A, B); // pointer identity == structural equality
}

TEST_F(TermTest, DistinctStructureDistinctTerms) {
  EXPECT_NE(t("F(C, D)"), t("F(D, C)"));
  EXPECT_NE(t("G1(C)"), t("G2(C)"));
}

TEST_F(TermTest, AttributesParticipateInIdentity) {
  TermRef A = t("X[rank=2]");
  TermRef B = t("X[rank=3]");
  TermRef C = t("X[rank=2]");
  EXPECT_NE(A, B);
  EXPECT_EQ(A, C);
}

TEST_F(TermTest, AttributeOrderIsNormalized) {
  TermRef A = t("X[rank=2,elt_type=3]");
  TermRef B = t("X[elt_type=3,rank=2]");
  EXPECT_EQ(A, B);
}

TEST_F(TermTest, SharedSubtermsCountedPerOccurrenceInSize) {
  TermRef Shared = t("F(G(C), G(C))");
  EXPECT_EQ(Shared->size(), 5u); // F, G, C, G, C as a tree
  EXPECT_EQ(Shared->depth(), 3u);
  // But in memory G(C) exists once.
  EXPECT_EQ(Shared->child(0), Shared->child(1));
}

TEST_F(TermTest, BuiltinAttributes) {
  TermRef T = t("F(G(C), C)");
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("arity")), 2);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("size")), 4);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("depth")), 3);
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("op_id")),
            static_cast<int64_t>(T->op().index()));
  EXPECT_FALSE(Arena.attribute(T, Symbol::intern("no_such_attr")));
}

TEST_F(TermTest, StoredAttributesShadowNothingButAreFound) {
  TermRef T = t("X[rank=2,dim0=64,dim1=32]");
  EXPECT_EQ(T->storedAttr(Symbol::intern("rank")), 2);
  EXPECT_EQ(T->storedAttr(Symbol::intern("dim1")), 32);
  EXPECT_FALSE(T->storedAttr(Symbol::intern("dim2")));
  EXPECT_EQ(Arena.attribute(T, Symbol::intern("rank")), 2);
}

TEST_F(TermTest, SubtermsDeduplicated) {
  TermRef T = t("F(G(C), G(C))");
  std::vector<TermRef> Subs = TermArena::subterms(T);
  EXPECT_EQ(Subs.size(), 3u); // F(...), G(C), C
}

TEST_F(TermTest, ToStringRoundTripsThroughParser) {
  const char *Cases[] = {
      "C",
      "F(C, D)",
      "MatMul(Trans(A[rank=2]), B[elt_type=3,rank=2])",
      "Op[a=1,b=2](Leaf)",
  };
  for (const char *Text : Cases) {
    TermRef T1 = t(Text);
    std::string Printed = Arena.toString(T1);
    TermRef T2 = t(Printed);
    EXPECT_EQ(T1, T2) << Text << " vs " << Printed;
  }
}

TEST_F(TermTest, ParserReportsArityMismatch) {
  (void)t("F(C, D)"); // declares F/2
  TermParseResult R = parseTerm("F(C)", Sig, Arena);
  ASSERT_TRUE(std::holds_alternative<TermParseError>(R));
  EXPECT_NE(std::get<TermParseError>(R).Message.find("expects 2"),
            std::string::npos);
}

TEST_F(TermTest, ParserRejectsTrailingGarbage) {
  TermParseResult R = parseTerm("C extra", Sig, Arena);
  ASSERT_TRUE(std::holds_alternative<TermParseError>(R));
}

TEST_F(TermTest, ParserRejectsMalformedAttr) {
  TermParseResult R = parseTerm("X[rank]", Sig, Arena);
  ASSERT_TRUE(std::holds_alternative<TermParseError>(R));
}

TEST_F(TermTest, ParserRejectsUnknownOpWithoutAutoDeclare) {
  TermParseResult R =
      parseTerm("Mystery(C)", Sig, Arena, /*AutoDeclare=*/false);
  ASSERT_TRUE(std::holds_alternative<TermParseError>(R));
}

TEST_F(TermTest, ParserNegativeAttrValues) {
  TermRef T = t("X[bias=-5]");
  EXPECT_EQ(T->storedAttr(Symbol::intern("bias")), -5);
}

TEST_F(TermTest, ArenaCountsDistinctTerms) {
  size_t Before = Arena.numTerms();
  (void)t("F(C, C)"); // F(C,C), C → 2 new
  (void)t("F(C, C)"); // shared, 0 new
  EXPECT_EQ(Arena.numTerms(), Before + 2);
}

TEST_F(TermTest, DTypeHelpers) {
  EXPECT_EQ(dtypeBytes(DType::F32), 4u);
  EXPECT_EQ(dtypeBytes(DType::I8), 1u);
  EXPECT_EQ(dtypeBytes(DType::F64), 8u);
  EXPECT_EQ(dtypeName(DType::BF16), "bf16");
  EXPECT_EQ(dtypeFromName("f32"), DType::F32);
  EXPECT_EQ(dtypeFromName("i32"), DType::I32);
  EXPECT_FALSE(dtypeFromName("f8").has_value());
}

//===----------------------------------------------------------------------===//
// Arena storage: slabs, dense indices, inline operands
//===----------------------------------------------------------------------===//

// Far more terms than one slab holds: every re-make returns the first
// pointer, and each term's inline operands read back intact.
TEST_F(TermTest, HashConsingHoldsAcrossSlabs) {
  OpId Leaf = op("Leaf", 0);
  OpId Pair = op("Pair", 2);
  const Symbol V = Symbol::intern("v");
  constexpr int64_t NumLeaves = 100000;
  std::vector<TermRef> Leaves, Pairs;
  for (int64_t I = 0; I != NumLeaves; ++I)
    Leaves.push_back(Arena.make(Leaf, {}, {{V, I}}));
  for (int64_t I = 0; I + 1 < NumLeaves; I += 2)
    Pairs.push_back(Arena.make(Pair, {Leaves[I], Leaves[I + 1]}));
  EXPECT_EQ(Arena.numTerms(), Leaves.size() + Pairs.size());
  for (int64_t I = 0; I != NumLeaves; ++I) {
    ASSERT_EQ(Arena.make(Leaf, {}, {{V, I}}), Leaves[I]);
    ASSERT_EQ(Leaves[I]->storedAttr(V), I);
  }
  for (size_t P = 0; P != Pairs.size(); ++P) {
    ASSERT_EQ(Arena.make(Pair, {Leaves[2 * P], Leaves[2 * P + 1]}), Pairs[P]);
    ASSERT_EQ(Pairs[P]->child(0), Leaves[2 * P]);
    ASSERT_EQ(Pairs[P]->child(1), Leaves[2 * P + 1]);
    ASSERT_TRUE(Pairs[P]->attrs().empty());
  }
  EXPECT_EQ(Arena.numTerms(), Leaves.size() + Pairs.size());
}

TEST_F(TermTest, IndexIsDenseInCreationOrder) {
  TermArena Fresh(Sig);
  OpId C = op("C", 0);
  OpId F = op("F", 2);
  TermRef A = Fresh.make(C, {}, {{Symbol::intern("v"), 1}});
  TermRef B = Fresh.make(C, {}, {{Symbol::intern("v"), 2}});
  TermRef FAB = Fresh.make(F, {A, B});
  EXPECT_EQ(A->index(), 0u);
  EXPECT_EQ(B->index(), 1u);
  EXPECT_EQ(FAB->index(), 2u);
  // A hit creates nothing and numbers nothing.
  EXPECT_EQ(Fresh.make(F, {A, B}), FAB);
  TermRef FBA = Fresh.make(F, {B, A});
  EXPECT_EQ(FBA->index(), 3u);
  EXPECT_EQ(Fresh.numTerms(), 4u);
  // Indices are per arena: the fixture's arena numbers its own terms.
  TermRef Lone = t("Lone");
  EXPECT_EQ(Lone->index(), Arena.numTerms() - 1);
}

// Attributes normalize to key order whatever the input order and length.
TEST_F(TermTest, UnsortedAttributesNormalizeToKeyOrder) {
  OpId X = op("X", 0);
  for (size_t N : {size_t(3), size_t(16), size_t(17), size_t(40)}) {
    SCOPED_TRACE(N);
    std::vector<Attr> Ascending;
    for (size_t I = 0; I != N; ++I)
      Ascending.push_back({Symbol::intern("key" + std::to_string(I)),
                           static_cast<int64_t>(I * 7)});
    std::sort(Ascending.begin(), Ascending.end(),
              [](const Attr &A, const Attr &B) {
                return A.Key.rawId() < B.Key.rawId();
              });
    std::vector<Attr> Descending(Ascending.rbegin(), Ascending.rend());
    std::vector<Attr> Interleaved;
    for (size_t I = 0; I < N; I += 2)
      Interleaved.push_back(Ascending[I]);
    for (size_t I = 1; I < N; I += 2)
      Interleaved.push_back(Ascending[I]);
    TermRef T = Arena.make(X, {}, Ascending);
    EXPECT_EQ(Arena.make(X, {}, Descending), T);
    EXPECT_EQ(Arena.make(X, {}, Interleaved), T);
    ASSERT_EQ(T->attrs().size(), N);
    EXPECT_TRUE(std::equal(Ascending.begin(), Ascending.end(),
                           T->attrs().begin()));
    for (const Attr &A : Ascending)
      EXPECT_EQ(T->storedAttr(A.Key), A.Value);
  }
}

// A wide term keeps all its children inline, in order.
TEST_F(TermTest, WideTermsKeepTheirChildrenInline) {
  constexpr unsigned Wide = 12;
  OpId W = op("Wide", Wide);
  std::vector<TermRef> Kids;
  for (unsigned I = 0; I != Wide; ++I)
    Kids.push_back(t("K[i=" + std::to_string(I) + "]"));
  const Attr Rank[] = {{Symbol::intern("rank"), 2}};
  TermRef T = Arena.make(W, Kids, Rank);
  ASSERT_EQ(T->arity(), Wide);
  EXPECT_TRUE(std::equal(Kids.begin(), Kids.end(), T->children().begin()));
  EXPECT_EQ(T->storedAttr(Symbol::intern("rank")), 2);
  EXPECT_EQ(T->size(), 1u + Wide);
  EXPECT_EQ(T->depth(), 2u);
  EXPECT_EQ(Arena.make(W, Kids, Rank), T);
  std::swap(Kids[0], Kids[Wide - 1]);
  EXPECT_NE(Arena.make(W, Kids, Rank), T);
}
