//===- tests/test_alloc_gate.cpp - Heap allocations of term conversion ----===//
//
// A deterministic allocation gate for graph→term conversion: this
// executable replaces the global operator new with a counting one, so it
// runs apart from pypm_tests. On gpt2-large it pins that
//  - re-converting every live node after TermView::invalidate() — every
//    term already interned, every table already grown — allocates nothing;
//  - a cold conversion allocates per slab and per table or scratch-vector
//    growth, not per term: fewer than conversions()/8 allocations in all.
//    (Storing each term's operands in vectors and its node in a hash map
//    cost at least 3 per conversion.)
//
//===----------------------------------------------------------------------===//

#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "models/Zoo.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> Allocations{0};
} // namespace

void *operator new(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// Out of line, so the compiler does not see free() meet operator new's
// result and warn of a mismatch.
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace pypm;

namespace {

/// Heap allocations \p Body makes.
template <typename Fn> uint64_t allocationsOf(Fn Body) {
  Allocations = 0;
  Counting = true;
  Body();
  Counting = false;
  return Allocations.load();
}

class AllocationGate : public ::testing::Test {
protected:
  void SetUp() override {
    for (const models::ModelEntry &E : models::hfSuite())
      if (E.Name == "gpt2-large")
        G = E.Build(Sig);
    ASSERT_NE(G, nullptr);
    graph::ShapeInference().inferAll(*G);
  }

  void convertAll(graph::TermView &View) {
    for (graph::NodeId N = 0; N != G->numNodes(); ++N)
      if (!G->isDead(N))
        View.termFor(N);
  }

  term::Signature Sig;
  std::unique_ptr<graph::Graph> G;
};

} // namespace

TEST_F(AllocationGate, Gpt2LargeReconversionAllocatesNothing) {
  term::TermArena Arena(Sig);
  graph::TermView View(*G, Arena);
  convertAll(View);
  const uint64_t Cold = View.conversions();
  ASSERT_GT(Cold, 1000u);
  View.invalidate();
  const uint64_t Allocs = allocationsOf([&] { convertAll(View); });
  EXPECT_EQ(View.conversions(), 2 * Cold);
  EXPECT_EQ(Allocs, 0u);
}

TEST_F(AllocationGate, Gpt2LargeColdConversionAllocatesPerSlab) {
  // Warm the process-wide statics (interned attribute keys) first: they
  // are paid once per process, not per conversion.
  {
    term::TermArena Warm(Sig);
    graph::TermView(*G, Warm).termFor(G->outputs().front());
  }
  term::TermArena Arena(Sig);
  graph::TermView View(*G, Arena);
  const uint64_t Allocs = allocationsOf([&] { convertAll(View); });
  ASSERT_GT(View.conversions(), 1000u);
  EXPECT_LT(Allocs, View.conversions() / 8);
}
