//===- tests/test_compat.cpp - Names of removed mechanisms stay inert ----===//
///
/// The threaded and emitted-.so plan executors, incremental re-discovery
/// and batched discovery were removed; every plan-family attempt now runs
/// on plan::Interpreter through one per-node visit. What stays is their
/// names, and this suite pins that each one is inert:
///
///  - engine: RewriteOptions::Matcher = PlanThreaded / PlanAot, Incremental
///    and Batch give the Plan run's graph and every counter;
///  - wire: pypmd frames with Matcher 3/4/5 or the Incremental/Batch flag
///    bits still decode, and their replies are byte-identical to
///    Matcher = 0 once Seq is normalized; Matcher 6 and flag bit 4 are
///    still rejected;
///  - cache: a plan-cache directory holding a stale .pypmso artifact of
///    the old fourth tier serves normally and leaves the file alone;
///  - stress tier: over randomized rule zoos at every thread count, and
///    under budget exhaustion, quarantine and injected faults, setting
///    Incremental/Batch or naming PlanThreaded changes no committed
///    observable.
///
/// The removed CLI flags are pinned by the pypm_removed_flags_exit_usage
/// ctest (tools/CMakeLists.txt).
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "models/Transformers.h"
#include "opt/StdPatterns.h"
#include "pattern/Serializer.h"
#include "server/PlanCache.h"
#include "server/Protocol.h"
#include "server/Server.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unistd.h>

using namespace pypm;
using namespace pypm::server;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

/// The daemon requests the wire checks replay: the paper's FMHA library
/// as a .pypmbin against two transformers, and three randomized rule zoos
/// with their stress graphs (StressHarness.h).
std::vector<RewriteRequest> compatRequests() {
  std::vector<RewriteRequest> Out;
  {
    term::Signature Sig;
    std::string Fmha = pattern::serializeLibrary(*opt::compileFmha(Sig), Sig);
    auto Hf = models::hfSuite();
    for (size_t I = 0; I != 2 && I != Hf.size(); ++I) {
      term::Signature GSig;
      RewriteRequest R;
      R.RuleSet = Fmha;
      R.GraphText = graph::writeGraphText(*Hf[I].Build(GSig));
      Out.push_back(std::move(R));
    }
  }
  for (uint64_t Seed : {1u, 4u, 9u}) {
    term::Signature Sig;
    models::declareModelOps(Sig);
    graph::Graph G(Sig);
    pypm::testing::buildStressGraph(Seed, G, Sig);
    graph::ShapeInference().inferAll(G);
    RewriteRequest R;
    R.RuleSet = "op Relu(1);\nop Tanh(1);\nop Sigmoid(1);\nop Neg(1);\n"
                "op Gelu(1);\nop Add(2);\nop Mul(2);\n" +
                pypm::testing::stressRuleSource(Seed);
    R.GraphText = graph::writeGraphText(G);
    R.MaxRewrites = 8000; // bounds the ping-pong template pair
    Out.push_back(std::move(R));
  }
  return Out;
}

/// Encodes \p R, decodes it back (the wire path), serves it, and returns
/// the reply with Seq zeroed.
RewriteReply serveOverTheWire(Server &Srv, const RewriteRequest &R) {
  RewriteRequest Decoded;
  std::string Err;
  EXPECT_TRUE(decodeRewriteRequest(encodeRewriteRequest(R), Decoded, Err))
      << Err;
  RewriteReply Rep = Srv.handle(Decoded);
  EXPECT_EQ(Rep.Status, ServerStatus::Ok) << Rep.Message;
  Rep.Seq = 0;
  return Rep;
}

struct TempDir {
  std::string Path;
  TempDir() {
    char Tmpl[] = "/tmp/pypm_compat_test_XXXXXX";
    Path = ::mkdtemp(Tmpl);
  }
  ~TempDir() {
    std::string Cmd = "rm -rf '" + Path + "'";
    [[maybe_unused]] int RC = std::system(Cmd.c_str());
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace

TEST(RemovedMechanismsCompat, EngineNamesRunThePlanInterpreter) {
  auto Hf = models::hfSuite();
  auto Tv = models::tvSuite();
  std::vector<models::ModelEntry> Models = {Hf[0], Hf[1], Tv[0]};
  for (const models::ModelEntry &Model : Models)
    for (unsigned Threads : {0u, 2u}) {
      RunResult Plan = runModel(Model, planOpts(Threads));
      for (rewrite::MatcherKind MK :
           {rewrite::MatcherKind::Plan, rewrite::MatcherKind::PlanThreaded,
            rewrite::MatcherKind::PlanAot}) {
        rewrite::RewriteOptions O = planOpts(Threads);
        O.Matcher = MK;
        O.Incremental = true;
        O.Batch = true;
        EXPECT_EQ(O.matcher(), rewrite::MatcherKind::Plan);
        expectFullyEqual(Plan, runModel(Model, O),
                         Model.Name + " matcher " +
                             std::to_string(static_cast<int>(MK)) + " @" +
                             std::to_string(Threads));
      }
    }
}

TEST(RemovedMechanismsCompat, WireAliasesServeThePlanBytes) {
  Server Srv{ServerOptions{}};
  for (const RewriteRequest &Base : compatRequests())
    for (uint32_t Threads : {0u, 2u}) {
      RewriteRequest R = Base;
      R.Threads = Threads;
      serveOverTheWire(Srv, R); // warm: every reply below is a memory hit
      const std::string Want = encodeRewriteReply(serveOverTheWire(Srv, R));
      for (uint8_t Matcher : {0, 3, 4, 5})
        for (int Flags = 0; Flags != 4; ++Flags) {
          SCOPED_TRACE("matcher=" + std::to_string(Matcher) +
                       " flags=" + std::to_string(Flags) +
                       " threads=" + std::to_string(Threads));
          RewriteRequest Alias = R;
          Alias.Seq = 1000 + Matcher * 4 + Flags;
          Alias.Matcher = Matcher;
          Alias.Incremental = (Flags & 1) != 0;
          Alias.Batch = (Flags & 2) != 0;
          EXPECT_TRUE(encodeRewriteReply(serveOverTheWire(Srv, Alias)) ==
                      Want);
        }
    }
}

TEST(RemovedMechanismsCompat, OutOfRangeMatcherAndFlagBitsStayRejected) {
  RewriteRequest R;
  R.RuleSet = "op A(1);\n";
  R.GraphText = "x = A() : f32[]\noutput x\n";
  RewriteRequest Out;
  std::string Err;
  R.Matcher = 6;
  EXPECT_FALSE(decodeRewriteRequest(encodeRewriteRequest(R), Out, Err));

  // The flag byte follows the matcher byte; find it by encoding two
  // requests that differ only in Matcher.
  R.Matcher = 1;
  std::string One = encodeRewriteRequest(R);
  R.Matcher = 2;
  std::string Two = encodeRewriteRequest(R);
  ASSERT_EQ(One.size(), Two.size());
  size_t MatcherAt = 0;
  while (MatcherAt != One.size() && One[MatcherAt] == Two[MatcherAt])
    ++MatcherAt;
  ASSERT_LT(MatcherAt + 1, One.size());
  const size_t FlagsAt = MatcherAt + 1;
  for (int Flags = 0; Flags != 8; ++Flags) {
    SCOPED_TRACE("flags=" + std::to_string(Flags));
    std::string Body = One;
    Body[FlagsAt] = static_cast<char>(Flags);
    EXPECT_EQ(decodeRewriteRequest(Body, Out, Err), Flags < 4) << Err;
  }
}

TEST(RemovedMechanismsCompat, StaleSharedObjectInTheCacheDirIsIgnored) {
  TempDir Dir;
  RewriteRequest R = compatRequests().front();
  RewriteReply Want;
  uint64_t Key = 0;
  {
    ServerOptions SO;
    SO.Cache.Dir = Dir.Path;
    Server Srv(SO);
    Want = serveOverTheWire(Srv, R);
    DiagnosticEngine Diags;
    CacheSource Src;
    auto E = Srv.cache().acquire(R.RuleSet, Diags, Src);
    ASSERT_TRUE(E) << Diags.renderAll();
    Key = E->Key;
    EXPECT_EQ(E->threaded(), nullptr);
    EXPECT_EQ(E->aotLib(), nullptr);
  }
  // An emitted library the old fourth tier would have kept next to the
  // entry's .pypmplan.
  char Name[32];
  std::snprintf(Name, sizeof(Name), "/%016llx.pypmso",
                static_cast<unsigned long long>(Key));
  const std::string SoPath = Dir.Path + Name;
  const std::string Stale = "not a shared object";
  std::ofstream(SoPath, std::ios::binary) << Stale;

  ServerOptions SO;
  SO.Cache.Dir = Dir.Path;
  Server Cold(SO);
  RewriteReply Got = serveOverTheWire(Cold, R);
  EXPECT_EQ(Got.Cache, CacheSource::Disk);
  Got.Cache = Want.Cache;
  EXPECT_TRUE(Got == Want);
  EXPECT_EQ(Cold.cache().stats().DiskHits, 1u);
  EXPECT_EQ(Cold.cache().stats().CorruptDiskEntries, 0u);
  EXPECT_EQ(slurp(SoPath), Stale) << "the stale artifact must be left alone";
}

//===----------------------------------------------------------------------===//
// Stress tier: the removed discovery modes' flags over randomized commits
//===----------------------------------------------------------------------===//

namespace {

class IncrementalStressTest : public ::testing::TestWithParam<unsigned> {};

rewrite::RewriteOptions stressPlan(unsigned Threads, bool Incremental,
                                   bool Batch, uint64_t MaxRewrites = 300) {
  rewrite::RewriteOptions O = planOpts(Threads);
  O.Incremental = Incremental;
  O.Batch = Batch;
  O.MaxRewrites = MaxRewrites;
  return O;
}

} // namespace

TEST_P(IncrementalStressTest, RandomCommitSequencesBitIdentical) {
  // Randomized rule zoos + DAGs whose ping-pong rule pair keeps commits
  // flowing every pass: over 50 seeds the Incremental and Batch flags must
  // leave every committed observable of the Plan run unchanged.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    StressOutcome Full = runStressCase(Seed, stressPlan(Threads, 0, 0));
    StressOutcome Inc = runStressCase(Seed, stressPlan(Threads, 1, 0));
    StressOutcome Batch = runStressCase(Seed, stressPlan(Threads, 0, 1));
    StressOutcome Both = runStressCase(Seed, stressPlan(Threads, 1, 1));
    std::string At = " @threads=" + std::to_string(Threads);
    expectOutcomesEqual(Full, Inc, stressRepro(Seed, "incremental" + At));
    expectOutcomesEqual(Full, Batch, stressRepro(Seed, "batched" + At));
    expectOutcomesEqual(Full, Both, stressRepro(Seed, "batched+inc" + At));
    // Cross-matcher: the committed sequence still matches the fast serial
    // engine (attempt-shaped counters legitimately differ; see DESIGN.md).
    rewrite::RewriteOptions FastOpts;
    FastOpts.MaxRewrites = 300;
    FastOpts.Incremental = true;
    StressOutcome FastInc = runStressCase(Seed, FastOpts);
    SCOPED_TRACE(stressRepro(Seed, "fast-incremental vs plan"));
    EXPECT_EQ(FastInc.GraphText, Inc.GraphText);
    EXPECT_EQ(FastInc.Stats.TotalFired, Inc.Stats.TotalFired);
    EXPECT_EQ(FastInc.Stats.TotalMatches, Inc.Stats.TotalMatches);
    EXPECT_EQ(FastInc.Stats.Status, Inc.Stats.Status);
  }
}

TEST_P(IncrementalStressTest, CommitPrefixesBitIdentical) {
  // Truncating the run after K commits stops mid-churn: the committed
  // prefix must be bit-identical with the flags on, for every length.
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 15; ++Seed) {
    for (uint64_t K : {1u, 3u, 7u, 20u}) {
      StressOutcome Full = runStressCase(Seed, stressPlan(Threads, 0, 0, K));
      StressOutcome Both = runStressCase(Seed, stressPlan(Threads, 1, 1, K));
      expectOutcomesEqual(Full, Both,
                          stressRepro(Seed, "prefix K=" + std::to_string(K) +
                                                " @threads=" +
                                                std::to_string(Threads)));
    }
  }
}

TEST_P(IncrementalStressTest, BudgetExhaustionBitIdentical) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget BF(L), BB(L);
    rewrite::RewriteOptions Full = stressPlan(Threads, 0, 0);
    Full.EngineBudget = &BF;
    rewrite::RewriteOptions Both = stressPlan(Threads, 1, 1);
    Both.EngineBudget = &BB;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Both);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "budget @threads=" + std::to_string(Threads)));
    SawExhaustion |= SF.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(IncrementalStressTest, QuarantineBitIdentical) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    rewrite::RewriteOptions Full = stressPlan(Threads, 0, 0);
    Full.MachineOpts.MaxSteps = 3;
    Full.QuarantineThreshold = 2;
    rewrite::RewriteOptions Both = Full;
    Both.Incremental = true;
    Both.Batch = true;
    StressOutcome SF = runStressCase(Seed, Full);
    StressOutcome SB = runStressCase(Seed, Both);
    expectOutcomesEqual(
        SF, SB,
        stressRepro(Seed, "quarantine @threads=" + std::to_string(Threads)));
    SawQuarantine |= SF.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

TEST_P(IncrementalStressTest, SiteFaultsBitIdentical) {
  // Site-scheduled faults re-arm per (pass, node, entry), so faulted runs
  // must stay bit-identical with the flags on.
  unsigned Threads = GetParam();
  size_t RunsWithFaults = 0;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    // Denser than the fast-matcher suite's 1/23: the plan's tree
    // prefilter skips most attempts, and sites are consulted per
    // *attempted* entry, so a sparse schedule can miss entirely.
    C.SitePeriod = 5;
    FaultInjector F(C);
    auto Run = [&](bool Incremental, bool Batch) {
      rewrite::RewriteOptions O = stressPlan(Threads, Incremental, Batch, 100);
      O.Faults = &F;
      return runStressCase(Seed, O);
    };
    std::string At = " @threads=" + std::to_string(Threads);
    StressOutcome Full = Run(false, false);
    expectOutcomesEqual(Full, Run(true, false),
                        stressRepro(Seed, "fault inc" + At));
    expectOutcomesEqual(Full, Run(false, true),
                        stressRepro(Seed, "fault batch" + At));
    expectOutcomesEqual(Full, Run(true, true),
                        stressRepro(Seed, "fault both" + At));
    RunsWithFaults += Full.Stats.Status.FaultsAbsorbed != 0;
  }
  // The schedule must actually inject, else the differential is vacuous.
  EXPECT_GT(RunsWithFaults, 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalStressTest,
                         ::testing::Values(0u, 1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });

//===----------------------------------------------------------------------===//
// Stress tier: the removed threaded executor's name under governance
//===----------------------------------------------------------------------===//

namespace {

class AotGovernanceStressTest : public ::testing::TestWithParam<unsigned> {};

/// MatcherKind::PlanThreaded engine options at \p Threads workers.
rewrite::RewriteOptions thrOpts(unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::PlanThreaded;
  O.NumThreads = Threads;
  return O;
}

} // namespace

TEST_P(AotGovernanceStressTest, StressRewritesMatchInterpreterAcrossSeeds) {
  unsigned Threads = GetParam();
  for (uint64_t Seed = 0; Seed != 50; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions P0 = planOpts(0);
    P0.MaxRewrites = 300;
    rewrite::RewriteOptions T0 = thrOpts(0);
    T0.MaxRewrites = 300;
    rewrite::RewriteOptions TN = thrOpts(Threads);
    TN.MaxRewrites = 300;
    StressOutcome Plan0 = runStressCase(Seed, P0);
    StressOutcome Thr0 = runStressCase(Seed, T0);
    StressOutcome ThrN = runStressCase(Seed, TN);
    expectOutcomesEqual(Plan0, Thr0, stressRepro(Seed, "plan@0 vs thr@0"));
    expectOutcomesEqual(Thr0, ThrN, stressRepro(Seed, 0, Threads, "thr"));
  }
}

TEST_P(AotGovernanceStressTest, BudgetExhaustionMatchesInterpreter) {
  unsigned Threads = GetParam();
  bool SawExhaustion = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    BudgetLimits L;
    L.MaxTotalSteps = 2;
    Budget BP(L), B0(L), BN(L);
    rewrite::RewriteOptions OP = planOpts(0);
    OP.EngineBudget = &BP;
    rewrite::RewriteOptions O0 = thrOpts(0);
    O0.EngineBudget = &B0;
    rewrite::RewriteOptions ON = thrOpts(Threads);
    ON.EngineBudget = &BN;
    StressOutcome SP = runStressCase(Seed, OP);
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(SP, S0, stressRepro(Seed, "budget plan vs thr"));
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "budget thr"));
    SawExhaustion |=
        S0.Stats.Status.Code == EngineStatusCode::BudgetExhausted;
  }
  EXPECT_TRUE(SawExhaustion);
}

TEST_P(AotGovernanceStressTest, QuarantineMatchesInterpreter) {
  unsigned Threads = GetParam();
  bool SawQuarantine = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    rewrite::RewriteOptions OP = planOpts(0);
    OP.MachineOpts.MaxSteps = 3;
    OP.QuarantineThreshold = 2;
    rewrite::RewriteOptions O0 = thrOpts(0);
    O0.MachineOpts.MaxSteps = 3;
    O0.QuarantineThreshold = 2;
    rewrite::RewriteOptions ON = O0;
    ON.NumThreads = Threads;
    StressOutcome SP = runStressCase(Seed, OP);
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(SP, S0, stressRepro(Seed, "quarantine plan vs thr"));
    expectOutcomesEqual(S0, SN,
                        stressRepro(Seed, 0, Threads, "quarantine thr"));
    SawQuarantine |= S0.Stats.Status.quarantined();
  }
  EXPECT_TRUE(SawQuarantine);
}

TEST_P(AotGovernanceStressTest, InjectedFaultsLandIdentically) {
  unsigned Threads = GetParam();
  bool SawFault = false;
  for (uint64_t Seed = 0; Seed != 10; ++Seed) {
    SCOPED_TRACE("seed=" + std::to_string(Seed));
    FaultInjector::Config C;
    C.SiteSeed = Seed * 1000 + 7;
    // Dense schedule: the plan prefilter skips most attempts and sites are
    // consulted per *attempted* entry.
    C.SitePeriod = 5;
    FaultInjector FP(C), F0(C), FN(C);
    rewrite::RewriteOptions OP = planOpts(0);
    OP.MaxRewrites = 300;
    OP.Faults = &FP;
    rewrite::RewriteOptions O0 = thrOpts(0);
    O0.MaxRewrites = 300;
    O0.Faults = &F0;
    rewrite::RewriteOptions ON = thrOpts(Threads);
    ON.MaxRewrites = 300;
    ON.Faults = &FN;
    StressOutcome SP = runStressCase(Seed, OP);
    StressOutcome S0 = runStressCase(Seed, O0);
    StressOutcome SN = runStressCase(Seed, ON);
    expectOutcomesEqual(SP, S0, stressRepro(Seed, "faults plan vs thr"));
    expectOutcomesEqual(S0, SN, stressRepro(Seed, 0, Threads, "faults thr"));
    SawFault |= S0.Stats.Status.FaultsAbsorbed != 0;
  }
  EXPECT_TRUE(SawFault);
}

INSTANTIATE_TEST_SUITE_P(Threads, AotGovernanceStressTest,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &Info) {
                           return "T" + std::to_string(Info.param);
                         });
