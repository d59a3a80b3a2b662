//===- tests/test_naive_reference.cpp - Optimized modes vs naive oracle ---===//
///
/// Every matcher at every thread count checked against the naive reference
/// (NaiveEngine.h), which rebuilds its term view and sweeps the whole
/// graph after every fire. The engine instead invalidates by each commit's
/// footprint, sweeps locally and discovers in parallel; none of that may
/// change a rewritten graph or a counter. The Fast and Machine modes must
/// agree with the reference on every RewriteStats counter (attempt-shaped
/// ones included, since the reference uses the same root-operator
/// prefilter and bit-identical matchers); the Plan mode agrees on the
/// committed rewrites (its tree prefilter legitimately skips more attempts
/// — see expectSameRewrites) and, at every thread count, on every counter
/// with its own serial run. Over the zoo, the names of the removed
/// discovery modes (the Incremental and Batch options) are checked too:
/// the engine ignores them, so each must give its matcher's run exactly.
///
//===----------------------------------------------------------------------===//

#include "NaiveEngine.h"
#include "StressHarness.h"
#include "TestHelpers.h"

#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <functional>
#include <optional>

using namespace pypm;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::expectSameRewrites;
using pypm::testing::runModel;
using pypm::testing::runStressCase;
using pypm::testing::RunResult;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

/// The matchers under test, each at every thread count. Plain is the
/// default (Fast) engine. Incremental, Batch and IncrementalBatch set the
/// removed modes' options on the matcher they ran with: Fast for
/// Incremental, Plan for the batched ones. The enumerator values are part
/// of the instantiated test names (GetParam() prints them), so new modes
/// go at the end.
enum class Mode { Plain, Incremental, Batch, IncrementalBatch, Machine, Plan };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Plain:
    return "plain";
  case Mode::Machine:
    return "machine";
  case Mode::Plan:
    return "plan";
  case Mode::Incremental:
    return "incremental";
  case Mode::Batch:
    return "batch";
  case Mode::IncrementalBatch:
    return "incremental+batch";
  }
  return "?";
}

/// Engine options for \p M at \p Threads on top of \p Base.
rewrite::RewriteOptions modeOpts(Mode M, unsigned Threads,
                                 rewrite::RewriteOptions Base = {}) {
  Base.NumThreads = Threads;
  Base.Incremental = M == Mode::Incremental || M == Mode::IncrementalBatch;
  Base.Batch = M == Mode::Batch || M == Mode::IncrementalBatch;
  if (M == Mode::Machine)
    Base.Matcher = rewrite::MatcherKind::Machine;
  else if (M == Mode::Plan || Base.Batch)
    Base.Matcher = rewrite::MatcherKind::Plan;
  return Base;
}

bool planMode(Mode M) {
  return M == Mode::Plan || M == Mode::Batch || M == Mode::IncrementalBatch;
}

constexpr Mode AllModes[] = {Mode::Plain, Mode::Machine, Mode::Plan};
/// The zoo also runs the removed modes' names; the stress sweeps below
/// keep to the matchers.
constexpr Mode ZooModes[] = {Mode::Plain,       Mode::Machine,
                             Mode::Plan,        Mode::Incremental,
                             Mode::Batch,       Mode::IncrementalBatch};
constexpr unsigned AllThreads[] = {0, 1, 2, 4, 8};

//===----------------------------------------------------------------------===//
// Zoo: every HF and TV model under the full FMHA + Epilog pipeline
//===----------------------------------------------------------------------===//

class NaiveReferenceZoo
    : public ::testing::TestWithParam<std::tuple<unsigned, Mode>> {};

TEST_P(NaiveReferenceZoo, EveryModelMatchesTheReference) {
  auto [Threads, M] = GetParam();
  std::vector<models::ModelEntry> Zoo = models::hfSuite();
  for (const models::ModelEntry &E : models::tvSuite())
    Zoo.push_back(E);
  for (const models::ModelEntry &Model : Zoo) {
    RunResult Ref = runModel(Model, {}, false, /*Naive=*/true);
    RunResult Got = runModel(Model, modeOpts(M, Threads));
    std::string Label = Model.Name + " " + modeName(M) + " @" +
                        std::to_string(Threads);
    if (!planMode(M)) {
      expectFullyEqual(Ref, Got, Label);
      continue;
    }
    expectSameRewrites(Ref, Got, Label);
    if (Threads != 0 || M != Mode::Plan)
      expectFullyEqual(runModel(Model, modeOpts(Mode::Plan, 0)), Got,
                       Label + " vs plan @0");
  }
}

// RootsFirst and the machine matcher on a slice of the zoo: the reference
// follows both, so the commit path is checked under the other traversal
// and with the reference matcher too.
TEST(NaiveReferenceZooSlice, RootsFirstAndMachineMatchTheReference) {
  auto Suite = models::hfSuite();
  for (size_t I = 0; I != 4 && I != Suite.size(); ++I) {
    for (bool Roots : {false, true}) {
      rewrite::RewriteOptions O;
      O.Matcher = rewrite::MatcherKind::Machine;
      if (Roots)
        O.Order = rewrite::Traversal::RootsFirst;
      RunResult Ref = runModel(Suite[I], O, false, /*Naive=*/true);
      for (unsigned Threads : {0u, 2u}) {
        O.NumThreads = Threads;
        expectFullyEqual(Ref, runModel(Suite[I], O),
                         Suite[I].Name + (Roots ? " roots-first" : "") +
                             " machine @" + std::to_string(Threads));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, NaiveReferenceZoo,
    ::testing::Combine(::testing::ValuesIn(AllThreads),
                       ::testing::ValuesIn(ZooModes)),
    [](const auto &Info) {
      std::string Name = modeName(std::get<1>(Info.param));
      for (char &C : Name)
        if (C == '+')
          C = '_';
      return Name + "_T" + std::to_string(std::get<0>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Work gate: the commit path's cost is linear in the commit footprints
//===----------------------------------------------------------------------===//

// Exact counters, not wall-clock. Every term conversion is either a
// node's first (at most N, the node slots ever allocated) or a
// re-conversion of a memo entry some footprint dropped (at most
// Σ|footprint|), so ViewConversions <= N + Σ|footprint| holds with c = 1.
// Every sweep visit is one node slot of the two global sweeps (the first
// commit on a never-swept graph and the final one) or a worklist pop of a
// local sweep — its root, a swept node, or an output whose last user the
// sweep removed — so SweepVisits <= 2N + Σ|footprint|. The naive
// reference — a full view rebuild and a global sweep per fire, which is
// what the engine did before commit footprints — fails both bounds; that
// is checked too, so the gate cannot go vacuous.
TEST(CommitFootprintGate, Gpt2LargeWorkIsBoundedByTheFootprints) {
  const models::ModelEntry *Gpt2 = nullptr;
  std::vector<models::ModelEntry> Suite = models::hfSuite();
  for (const models::ModelEntry &E : Suite)
    if (E.Name == "gpt2-large")
      Gpt2 = &E;
  ASSERT_NE(Gpt2, nullptr);
  auto Run = [&](bool Naive) {
    term::Signature Sig;
    auto G = Gpt2->Build(Sig);
    opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    graph::ShapeInference SI;
    rewrite::RewriteStats S =
        Naive ? pypm::testing::naiveRewrite(*G, Pipe.Rules, SI)
              : rewrite::rewriteToFixpoint(*G, Pipe.Rules, SI);
    return std::make_pair(S, G->numNodes());
  };
  auto [S, N] = Run(false);
  ASSERT_GT(S.TotalFired, 100u);
  const uint64_t Footprint = S.FootprintNodes;
  // The closure walk stops at nodes the view never converted, so the
  // footprints themselves stay linear: a full users-closure per fire sums
  // to about 28N here (a transformer's residual stream makes every later
  // layer a transitive user).
  EXPECT_LE(Footprint, N);
  EXPECT_LE(S.ViewConversions, N + Footprint);
  EXPECT_LE(S.SweepVisits, 2 * N + Footprint);

  auto [Ref, RefN] = Run(true);
  ASSERT_EQ(RefN, N);
  EXPECT_GT(Ref.ViewConversions, N + Footprint);
  EXPECT_GT(Ref.SweepVisits, 2 * N + Footprint);
}

//===----------------------------------------------------------------------===//
// 50 seeds: random DAGs and rule zoos, plain and governed
//===----------------------------------------------------------------------===//

class NaiveReferenceStressTest : public ::testing::TestWithParam<uint64_t> {};

/// Committed machine steps the budget leg allows: low enough that many
/// seeds exhaust it (GovernedLegsExerciseTheirPaths checks).
constexpr uint64_t StressStepCeiling = 40;

/// Runs \p Base through the reference and through every mode × thread
/// count, comparing each against the reference — the Plan mode on its
/// committed rewrites in the plain leg, and in every leg on every counter
/// against its own serial run. \p Fresh, when set, prepares per-run state
/// the options borrow (a budget, a fault injector) so every run starts
/// from the same governance state.
void checkAllModes(uint64_t Seed, rewrite::RewriteOptions Base,
                   const std::string &Leg,
                   const std::function<void(rewrite::RewriteOptions &)>
                       &Fresh = nullptr) {
  rewrite::RewriteOptions RefOpts = Base;
  if (Fresh)
    Fresh(RefOpts);
  StressOutcome Ref = runStressCase(Seed, RefOpts, /*Naive=*/true);
  std::optional<StressOutcome> Plan0;
  for (Mode M : AllModes)
    for (unsigned Threads : AllThreads) {
      rewrite::RewriteOptions O = modeOpts(M, Threads, Base);
      if (Fresh)
        Fresh(O);
      StressOutcome Got = runStressCase(Seed, O);
      std::string What = Leg + " " + modeName(M);
      if (M != Mode::Plan) {
        expectOutcomesEqual(Ref, Got, stressRepro(Seed, 0, Threads, What));
        continue;
      }
      // Plan-matcher attempts differ from the reference's, so budget and
      // fuel charges land elsewhere: only the plain leg compares plan runs
      // with the reference; every leg compares them with plan @0.
      if (Leg == "plain") {
        SCOPED_TRACE(stressRepro(Seed, 0, Threads, What));
        EXPECT_EQ(Ref.GraphText, Got.GraphText);
        EXPECT_EQ(Ref.Stats.TotalFired, Got.Stats.TotalFired);
        EXPECT_EQ(Ref.Stats.NodesSwept, Got.Stats.NodesSwept);
        EXPECT_EQ(Ref.Stats.Status, Got.Stats.Status);
      }
      if (Threads == 0)
        Plan0 = Got;
      else
        expectOutcomesEqual(*Plan0, Got,
                            stressRepro(Seed, 0, Threads, What + " vs @0"));
    }
}

TEST_P(NaiveReferenceStressTest, PlainRunsMatchTheReference) {
  rewrite::RewriteOptions O;
  O.MaxRewrites = 100; // bounds the ping-pong pair
  checkAllModes(GetParam(), O, "plain");
}

TEST_P(NaiveReferenceStressTest, GovernedRunsMatchTheReference) {
  uint64_t Seed = GetParam();
  rewrite::RewriteOptions O;
  O.MaxRewrites = 100;
  // Budget: a committed-step ceiling.
  std::optional<Budget> B;
  checkAllModes(Seed, O, "budget", [&](rewrite::RewriteOptions &R) {
    BudgetLimits L;
    L.MaxTotalSteps = StressStepCeiling;
    B.emplace(L);
    R.EngineBudget = &*B;
  });
  // Quarantine: starved attempts exhaust their fuel constantly.
  rewrite::RewriteOptions Q = O;
  Q.MachineOpts.MaxSteps = 3;
  Q.QuarantineThreshold = 2;
  checkAllModes(Seed, Q, "quarantine");
  // Faults: the stateless site schedule, plus an RHS-build fault whose
  // rollback (a global sweep) the later local sweeps must build on.
  FaultInjector Sites(FaultInjector::Config{.SiteSeed = Seed * 1000 + 7,
                                            .SitePeriod = 23});
  rewrite::RewriteOptions S = O;
  S.Faults = &Sites;
  checkAllModes(Seed, S, "site-faults");
  std::optional<FaultInjector> Rhs;
  checkAllModes(Seed, O, "rhs-fault", [&](rewrite::RewriteOptions &R) {
    Rhs.emplace(FaultInjector::Config{.NthRhsBuild = 2});
    R.Faults = &*Rhs;
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaiveReferenceStressTest,
                         ::testing::Range<uint64_t>(0, 50));

// The governed legs must actually govern: across the seeds, the reference
// itself trips the step ceiling, quarantines, and absorbs both kinds of
// injected fault (so the comparisons above are not all plain runs).
TEST(NaiveReferenceStress, GovernedLegsExerciseTheirPaths) {
  size_t Exhausted = 0, Quarantined = 0, SiteFaults = 0, RhsFaults = 0;
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    rewrite::RewriteOptions O;
    O.MaxRewrites = 100;
    Budget B(BudgetLimits{.MaxTotalSteps = StressStepCeiling});
    rewrite::RewriteOptions BO = O;
    BO.EngineBudget = &B;
    Exhausted += runStressCase(Seed, BO, true).Stats.Status.Reason ==
                 BudgetReason::Steps;
    rewrite::RewriteOptions Q = O;
    Q.MachineOpts.MaxSteps = 3;
    Q.QuarantineThreshold = 2;
    Quarantined += runStressCase(Seed, Q, true).Stats.Status.quarantined();
    FaultInjector Sites(FaultInjector::Config{.SiteSeed = Seed * 1000 + 7,
                                              .SitePeriod = 23});
    rewrite::RewriteOptions S = O;
    S.Faults = &Sites;
    SiteFaults += runStressCase(Seed, S, true).Stats.Status.FaultsAbsorbed > 0;
    FaultInjector Rhs(FaultInjector::Config{.NthRhsBuild = 2});
    rewrite::RewriteOptions R = O;
    R.Faults = &Rhs;
    RhsFaults += runStressCase(Seed, R, true).Stats.Status.FaultsAbsorbed > 0;
  }
  EXPECT_GT(Exhausted, 10u);
  EXPECT_GT(Quarantined, 10u);
  EXPECT_GT(SiteFaults, 10u);
  EXPECT_GT(RhsFaults, 10u);
}

} // namespace
