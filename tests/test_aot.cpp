//===- tests/test_aot.cpp - AOT plan backends ≡ plan::Interpreter -------------===//
///
/// The AOT subsystem (src/plan/aot/) executes a compiled plan::Program
/// through two tiers — the toolchain-free threaded-code backend and the
/// emitted-C++ .so backend — that must be *bit-identical* to the
/// interpreter: same statuses, witnesses, resume() streams, MachineStats,
/// budget charging in committed attempt order, and quarantine/fault
/// interaction. These tests pin it at every level:
///
///  - lowering: the shared aot::lower() pass preserves PCs and resolves
///    every operand to exactly the side-table value the interpreter would
///    re-resolve per step; abiFingerprint distinguishes plans the
///    op-id-independent CanonicalSig deliberately conflates;
///  - per-attempt: ThreadedExec (fresh and reused) against the
///    interpreter and FastMatcher on the feature forms and on thousands
///    of random (pattern, term) pairs;
///  - engine: Matcher=PlanThreaded commits bit-identical runs to
///    Matcher=Plan on the whole model zoo at every thread count, in
///    batched and incremental modes, and across the 50-seed stress zoo
///    under budgets, quarantine, and injected faults;
///  - emitted tier (auto-skipped when the host has no C++ compiler): the
///    built .so through PlanLibrary → SoExec agrees per attempt and at
///    engine level, and the embedded ABI declarations match the host's;
///  - fallback: Matcher=PlanAot without a (valid) library warns and runs
///    the interpreter — results identical to Matcher=Plan, graph safe.
///
//===----------------------------------------------------------------------===//

#include "StressHarness.h"
#include "TestHelpers.h"

#include "graph/GraphIO.h"
#include "match/FastMatcher.h"
#include "models/Transformers.h"
#include "models/Zoo.h"
#include "opt/StdPatterns.h"
#include "plan/Interpreter.h"
#include "plan/PlanBuilder.h"
#include "plan/aot/Emitter.h"
#include "plan/aot/Library.h"
#include "plan/aot/Lowering.h"
#include "plan/aot/Threaded.h"
#include "rewrite/RewriteEngine.h"
#include "support/FaultInjection.h"
#include "support/Random.h"

#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <unistd.h>

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;
using namespace pypm::plan;
using pypm::testing::CoreFixture;
using pypm::testing::expectFullyEqual;
using pypm::testing::expectOutcomesEqual;
using pypm::testing::planOpts;
using pypm::testing::runModel;
using pypm::testing::RunResult;
using pypm::testing::runStressCase;
using pypm::testing::StressOutcome;
using pypm::testing::stressRepro;

namespace {

bool isUserVisibleSym(Symbol S) {
  return S.str().find('$') == std::string_view::npos;
}

/// μ-unfold binder freshening draws on a process-global counter, so two
/// separate executor runs can differ in invisible $-binder names; visible
/// bindings must still agree exactly (same policy as test_matchplan.cpp).
Witness restrictVisible(const Witness &W) {
  Witness Out;
  for (const auto &[K, V] : W.Theta)
    if (isUserVisibleSym(K))
      Out.Theta.bind(K, V);
  for (const auto &[K, V] : W.Phi)
    if (isUserVisibleSym(K))
      Out.Phi.bind(K, V);
  return Out;
}

void expectStatsEqual(const MachineStats &A, const MachineStats &B) {
  EXPECT_EQ(A.Steps, B.Steps);
  EXPECT_EQ(A.Backtracks, B.Backtracks);
  EXPECT_EQ(A.MuUnfolds, B.MuUnfolds);
  EXPECT_EQ(A.VarBinds, B.VarBinds);
  EXPECT_EQ(A.GuardEvals, B.GuardEvals);
  EXPECT_EQ(A.GuardStuck, B.GuardStuck);
}

/// PlanThreaded engine options at \p Threads workers.
rewrite::RewriteOptions thrOpts(unsigned Threads) {
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::PlanThreaded;
  O.NumThreads = Threads;
  return O;
}

/// The standard pipeline rule set compiled into one Program (the shape
/// most plans have in production: multiple libraries, guards, fun-vars).
struct CompiledPipeline {
  term::Signature Sig;
  opt::Pipeline Pipe;
  plan::Program Prog;

  CompiledPipeline() {
    models::declareModelOps(Sig);
    Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
    Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Lowering and fingerprints
//===----------------------------------------------------------------------===//

TEST(AotLowering, StreamPreservesPCsAndResolvesOperands) {
  CompiledPipeline CP;
  const plan::Program &P = CP.Prog;
  aot::LoweredProgram L = aot::lower(P);
  ASSERT_EQ(L.Code.size(), P.Code.size());
  ASSERT_EQ(L.Roots.size(), P.Entries.size());
  for (size_t I = 0; I != P.Entries.size(); ++I)
    EXPECT_EQ(L.Roots[I], P.Entries[I].RootPC);

  for (uint32_t PC = 0; PC != P.Code.size(); ++PC) {
    SCOPED_TRACE("pc=" + std::to_string(PC));
    const plan::Instr &I = P.Code[PC];
    const aot::LInstr &LI = L.Code[PC];
    ASSERT_EQ(LI.Op, I.Op);
    switch (I.Op) {
    case OpCode::MatchVar:
      EXPECT_EQ(LI.Sym, P.Syms[I.A]);
      break;
    case OpCode::MatchApp:
      EXPECT_EQ(LI.OpId, term::OpId(I.A));
      EXPECT_EQ(LI.NumChildren, I.NumChildren);
      if (I.NumChildren)
        EXPECT_EQ(LI.Children, &P.ChildPCs[I.FirstChild]);
      break;
    case OpCode::MatchFunVarApp:
      EXPECT_EQ(LI.Sym, P.Syms[I.A]);
      EXPECT_EQ(LI.NumChildren, I.NumChildren);
      if (I.NumChildren)
        EXPECT_EQ(LI.Children, &P.ChildPCs[I.FirstChild]);
      break;
    case OpCode::MatchAlt:
      EXPECT_EQ(LI.A, I.A);
      EXPECT_EQ(LI.B, I.B);
      break;
    case OpCode::MatchGuarded:
      EXPECT_EQ(LI.A, I.A);
      EXPECT_EQ(LI.Guard, P.Guards[I.B]);
      break;
    case OpCode::MatchExists:
    case OpCode::MatchExistsFun:
      EXPECT_EQ(LI.A, I.A);
      EXPECT_EQ(LI.Sym, P.Syms[I.B]);
      break;
    case OpCode::MatchConstraint:
      EXPECT_EQ(LI.A, I.A);
      EXPECT_EQ(LI.B, I.B);
      EXPECT_EQ(LI.Sym, P.Syms[I.C]);
      break;
    case OpCode::MatchMu:
      EXPECT_EQ(LI.Mu, P.Mus[I.A]);
      break;
    case OpCode::Fail:
      break;
    }
  }
}

TEST(AotLowering, FingerprintIsStableAndOpIdSensitive) {
  // Same rule set, same signature layout → same fingerprint.
  CompiledPipeline A, B;
  EXPECT_EQ(aot::abiFingerprint(A.Prog), aot::abiFingerprint(B.Prog));
  EXPECT_EQ(A.Prog.CanonicalSig, B.Prog.CanonicalSig);

  // Same rule set compiled against a *renumbered* signature: the
  // op-id-independent CanonicalSig is unchanged by design (profiles
  // survive renumbering), but the emitted-artifact fingerprint — which
  // bakes concrete operator ids — must differ.
  term::Signature SigC;
  SigC.getOrAddOp("zz_renumbering_pad", 3);
  models::declareModelOps(SigC);
  opt::Pipeline PipeC = opt::makePipeline(SigC, opt::OptConfig::Both);
  plan::Program ProgC = plan::PlanBuilder::compile(PipeC.Rules, SigC);
  EXPECT_EQ(ProgC.CanonicalSig, A.Prog.CanonicalSig);
  EXPECT_NE(aot::abiFingerprint(ProgC), aot::abiFingerprint(A.Prog));

  // A different rule set differs in both.
  term::Signature SigD;
  models::declareModelOps(SigD);
  auto Cublas = opt::compileCublas(SigD);
  rewrite::RuleSet RSD;
  RSD.addLibrary(*Cublas);
  plan::Program ProgD = plan::PlanBuilder::compile(RSD, SigD);
  EXPECT_NE(aot::abiFingerprint(ProgD), aot::abiFingerprint(A.Prog));
}

TEST(AotLowering, MarkerNamesBothFingerprints) {
  CompiledPipeline CP;
  std::string M = aot::AotEmitter::markerFor(CP.Prog);
  EXPECT_EQ(M.find(aot::kAotMarkerPrefix), 0u) << M;
  // prefix + 16 hex + ':' + 16 hex + ';'
  EXPECT_EQ(M.size(), std::string(aot::kAotMarkerPrefix).size() + 34) << M;
  EXPECT_EQ(M.back(), ';');
}

//===----------------------------------------------------------------------===//
// Threaded tier: per-attempt differential
//===----------------------------------------------------------------------===//

class AotThreadedTest : public CoreFixture {
protected:
  const plan::Program &compileSingle(const Pattern *P) {
    Defs.push_back(NamedPattern{Symbol::intern("P"), {}, {}, P});
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    Progs.push_back(plan::PlanBuilder::compile(RS, Sig));
    return Progs.back();
  }

  /// Interpreter vs fresh ThreadedExec vs FastMatcher, single attempt.
  void expectAgree(const Pattern *P, term::TermRef T,
                   Machine::Options Opts = {}) {
    MatchResult Fast = FastMatcher::run(P, T, Arena, Opts);
    const plan::Program &Prog = compileSingle(P);
    MatchResult Interp = plan::Interpreter::run(Prog, 0, T, Arena, Opts);
    aot::ThreadedProgram TP = aot::ThreadedProgram::decode(Prog);
    MatchResult Thr = aot::ThreadedExec::run(TP, 0, T, Arena, Opts);
    ASSERT_EQ(Thr.Status, Interp.Status)
        << P->toString(Sig) << " vs " << Arena.toString(T);
    ASSERT_EQ(Thr.Status, Fast.Status)
        << P->toString(Sig) << " vs " << Arena.toString(T);
    if (Interp.Status == MachineStatus::Success)
      EXPECT_EQ(Thr.W, Interp.W)
          << P->toString(Sig) << " vs " << Arena.toString(T) << "\n  interp "
          << toString(Interp.W, Sig) << "\n  threaded " << toString(Thr.W, Sig);
    expectStatsEqual(Thr.Stats, Interp.Stats);
    expectStatsEqual(Thr.Stats, Fast.Stats);
  }

  std::deque<NamedPattern> Defs;
  std::deque<plan::Program> Progs;
};

TEST_F(AotThreadedTest, AgreesOnBasicForms) {
  expectAgree(v("x"), t("F(C, D)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, C)"));
  expectAgree(app("Pair", {v("x"), v("x")}), t("Pair(C, D)"));
  expectAgree(app("Trans", {v("x")}), t("Softmax1(A)"));
}

TEST_F(AotThreadedTest, AgreesOnAlternatesAndGuards) {
  const GuardExpr *RankIs2 = PA.binary(
      GuardKind::Eq, PA.attr(Symbol::intern("x"), Symbol::intern("rank")),
      PA.intLit(2));
  const Pattern *P =
      PA.alt(PA.guarded(v("x"), RankIs2), app("Trans", {v("y")}));
  expectAgree(P, t("A[rank=2]"));
  expectAgree(P, t("Trans(B[rank=7])"));
  expectAgree(P, t("C"));
}

TEST_F(AotThreadedTest, AgreesOnExistsAndConstraints) {
  Symbol X = Symbol::intern("x"), Y = Symbol::intern("y");
  const Pattern *P = PA.exists(
      Y, PA.matchConstraint(PA.var(X), app("Trans", {PA.var(Y)}), X));
  expectAgree(P, t("Trans(B)"));
  expectAgree(P, t("Softmax1(B)"));
}

TEST_F(AotThreadedTest, AgreesOnRecursionIncludingFuelExhaustion) {
  Symbol U = Symbol::intern("U"), X = Symbol::intern("x"),
         F = Symbol::intern("f");
  const Pattern *Body = PA.alt(PA.funVarApp(F, {PA.recCall(U, {X, F})}),
                               PA.funVarApp(F, {PA.var(X)}));
  const Pattern *Chain = PA.mu(U, {X, F}, {X, F}, Body);
  expectAgree(Chain, t("Relu(Relu(Relu(C)))"));
  expectAgree(Chain, t("Relu(Tanh(C))"));
  expectAgree(Chain, t("C"));

  Symbol P = Symbol::intern("P");
  const Pattern *Diverge = PA.mu(P, {X}, {X}, PA.recCall(P, {X}));
  Machine::Options Tight;
  Tight.MaxMuUnfolds = 32;
  const plan::Program &Prog = compileSingle(Diverge);
  aot::ThreadedProgram TP = aot::ThreadedProgram::decode(Prog);
  MatchResult Interp = plan::Interpreter::run(Prog, 0, t("C"), Arena, Tight);
  MatchResult Thr = aot::ThreadedExec::run(TP, 0, t("C"), Arena, Tight);
  EXPECT_EQ(Interp.Status, MachineStatus::OutOfFuel);
  EXPECT_EQ(Thr.Status, MachineStatus::OutOfFuel);
  expectStatsEqual(Thr.Stats, Interp.Stats);
}

TEST_F(AotThreadedTest, ResumeStreamsAgree) {
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("y")}),
                            app("Pair", {v("y"), v("x")}));
  term::TermRef T = t("Pair(C1, C2)");
  const plan::Program &Prog = compileSingle(P);
  aot::ThreadedProgram TP = aot::ThreadedProgram::decode(Prog);

  plan::Interpreter IP(Prog, Arena);
  aot::ThreadedExec TE(TP, Arena);
  MachineStatus SI = IP.matchEntry(0, T);
  MachineStatus ST = TE.matchEntry(0, T);
  size_t Solutions = 0;
  while (SI == MachineStatus::Success || ST == MachineStatus::Success) {
    ASSERT_EQ(ST, SI) << "solution " << Solutions;
    EXPECT_EQ(TE.witness(), IP.witness()) << "solution " << Solutions;
    ++Solutions;
    SI = IP.resume();
    ST = TE.resume();
  }
  EXPECT_EQ(ST, SI);
  EXPECT_EQ(Solutions, 2u);
}

TEST_F(AotThreadedTest, ReusedExecutorMatchesFreshPerAttempt) {
  // One ThreadedExec serving many attempts (the engine's reuse mode) must
  // be per-attempt identical to a fresh executor — and to the interpreter.
  const Pattern *P = PA.alt(app("Pair", {v("x"), v("x")}),
                            app("Trans", {v("y")}));
  const plan::Program &Prog = compileSingle(P);
  aot::ThreadedProgram TP = aot::ThreadedProgram::decode(Prog);
  aot::ThreadedExec Reused(TP, Arena);
  for (const char *Text :
       {"Pair(C, C)", "Pair(C, D)", "Trans(A)", "C", "Pair(C, C)"}) {
    SCOPED_TRACE(Text);
    term::TermRef T = t(Text);
    MatchResult R = Reused.matchOne(0, T);
    MatchResult F = aot::ThreadedExec::run(TP, 0, T, Arena);
    MatchResult I = plan::Interpreter::run(Prog, 0, T, Arena);
    ASSERT_EQ(R.Status, I.Status);
    ASSERT_EQ(F.Status, I.Status);
    if (I.Status == MachineStatus::Success) {
      EXPECT_EQ(R.W, I.W);
      EXPECT_EQ(F.W, I.W);
    }
    expectStatsEqual(R.Stats, I.Stats);
    expectStatsEqual(F.Stats, I.Stats);
  }
}

TEST_F(AotThreadedTest, PipelineProgramAgreesOnEveryEntryAndNode) {
  // The full pipeline plan over a real model: every (entry, node) attempt
  // must agree — the multi-entry, shared-side-table case.
  CompiledPipeline CP;
  aot::ThreadedProgram TP = aot::ThreadedProgram::decode(CP.Prog);
  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(CP.Sig, TC);
  term::TermArena A2(CP.Sig);
  graph::TermView View(*G, A2);
  aot::ThreadedExec Reused(TP, A2);
  plan::Interpreter Interp(CP.Prog, A2);
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    for (size_t E = 0; E != CP.Prog.Entries.size(); ++E) {
      MatchResult RI = Interp.matchOne(E, T);
      MatchResult RT = Reused.matchOne(E, T);
      ASSERT_EQ(RT.Status, RI.Status) << "node " << N << " entry " << E;
      if (RI.Status == MachineStatus::Success)
        EXPECT_EQ(RT.W, RI.W) << "node " << N << " entry " << E;
      expectStatsEqual(RT.Stats, RI.Stats);
    }
  }
}

//===----------------------------------------------------------------------===//
// Threaded tier: randomized per-attempt differential
//===----------------------------------------------------------------------===//

class AotThreadedRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AotThreadedRandomTest, RandomPatternsAgree) {
  term::Signature Sig;
  term::TermArena Arena(Sig);
  PatternArena PA;
  Rng R(GetParam() * 7411 + 3);

  term::OpId C0 = Sig.addOp("c0", 0), C1 = Sig.addOp("c1", 0);
  term::OpId U0 = Sig.addOp("u0", 1), B0 = Sig.addOp("b0", 2);

  std::vector<Symbol> Vars{Symbol::intern("x"), Symbol::intern("y")};
  uint64_t Fresh = 0;
  std::function<term::TermRef(unsigned)> GenTerm =
      [&](unsigned Depth) -> term::TermRef {
    if (Depth == 0 || R.chance(1, 3))
      return Arena.leaf(R.chance(1, 2) ? C0 : C1);
    if (R.chance(1, 2))
      return Arena.make(U0, {GenTerm(Depth - 1)});
    return Arena.make(B0, {GenTerm(Depth - 1), GenTerm(Depth - 1)});
  };
  std::function<const Pattern *(unsigned)> GenPat =
      [&](unsigned Depth) -> const Pattern * {
    if (Depth == 0)
      return PA.var(Vars[R.below(2)]);
    switch (R.below(8)) {
    case 0:
      return PA.var(Vars[R.below(2)]);
    case 1:
      return PA.app(U0, {GenPat(Depth - 1)});
    case 2:
      return PA.app(B0, {GenPat(Depth - 1), GenPat(Depth - 1)});
    case 3:
      return PA.alt(GenPat(Depth - 1), GenPat(Depth - 1));
    case 4: {
      Symbol V = Symbol::intern("e" + std::to_string(Fresh++));
      return PA.exists(V, PA.app(U0, {PA.var(V)}));
    }
    case 5: {
      Symbol V = Vars[R.below(2)];
      return PA.matchConstraint(PA.var(V), GenPat(Depth - 1), V);
    }
    case 6: {
      Symbol F = Symbol::intern("F" + std::to_string(Fresh++));
      return PA.existsFun(F, PA.funVarApp(F, {GenPat(Depth - 1)}));
    }
    case 7: {
      Symbol Self = Symbol::intern("P" + std::to_string(Fresh++));
      Symbol Param = Symbol::intern("r" + std::to_string(Fresh++));
      const Pattern *Step = PA.app(U0, {PA.recCall(Self, {Param})});
      return PA.mu(Self, {Param}, {Vars[R.below(2)]},
                   PA.alt(Step, GenPat(Depth - 1)));
    }
    }
    return PA.var(Vars[0]);
  };

  std::deque<NamedPattern> Defs;
  for (int Iter = 0; Iter != 150; ++Iter) {
    term::TermRef T = GenTerm(4);
    const Pattern *P = GenPat(3);
    Defs.push_back(NamedPattern{Symbol::intern("P"), {}, {}, P});
    rewrite::RuleSet RS;
    RS.addPattern(Defs.back());
    plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
    aot::ThreadedProgram TP = aot::ThreadedProgram::decode(Prog);

    MatchResult Interp = plan::Interpreter::run(Prog, 0, T, Arena);
    MatchResult Thr = aot::ThreadedExec::run(TP, 0, T, Arena);
    ASSERT_EQ(Thr.Status, Interp.Status)
        << P->toString(Sig) << " against " << Arena.toString(T);
    if (Interp.matched())
      ASSERT_EQ(restrictVisible(Thr.W), restrictVisible(Interp.W))
          << P->toString(Sig) << " against " << Arena.toString(T);
    expectStatsEqual(Thr.Stats, Interp.Stats);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AotThreadedRandomTest,
                         ::testing::Range<uint64_t>(0, 50));

//===----------------------------------------------------------------------===//
// Threaded tier: engine-level equivalence
//===----------------------------------------------------------------------===//

TEST(AotEngine, ThreadedZooMatchesPlanAtEveryThreadCount) {
  for (const auto &Suite : {models::hfSuite(), models::tvSuite()}) {
    for (const models::ModelEntry &Model : Suite) {
      RunResult Plan0 = runModel(Model, planOpts(0));
      RunResult Thr0 = runModel(Model, thrOpts(0));
      // Same plan family, same prefilter: every counter must match, not
      // just the committed rewrites.
      expectFullyEqual(Plan0, Thr0, Model.Name + " plan@0 vs threaded@0");
      for (unsigned Threads : {1u, 2u, 4u, 8u}) {
        RunResult ThrN = runModel(Model, thrOpts(Threads));
        expectFullyEqual(Thr0, ThrN,
                         Model.Name + " threaded@0 vs threaded@" +
                             std::to_string(Threads));
      }
    }
  }
}

TEST(AotEngine, MuChainPipelineMatchesPlan) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Plan0 = runModel(Suite[I], planOpts(0), /*WithUnaryChain=*/true);
    RunResult Thr0 = runModel(Suite[I], thrOpts(0), true);
    RunResult Thr4 = runModel(Suite[I], thrOpts(4), true);
    expectFullyEqual(Plan0, Thr0, Suite[I].Name + " +mu plan@0 vs thr@0");
    expectFullyEqual(Thr0, Thr4, Suite[I].Name + " +mu thr@0 vs thr@4");
  }
}

TEST(AotEngine, BatchedAndIncrementalModesAgree) {
  auto Suite = models::hfSuite();
  ASSERT_GE(Suite.size(), 3u);
  for (size_t I = 0; I != 3; ++I) {
    RunResult Base = runModel(Suite[I], thrOpts(0));
    for (unsigned Threads : {0u, 4u}) {
      rewrite::RewriteOptions Batched = thrOpts(Threads);
      Batched.Batch = true;
      expectFullyEqual(Base, runModel(Suite[I], Batched),
                       Suite[I].Name + " threaded batch@" +
                           std::to_string(Threads));
      rewrite::RewriteOptions Incr = thrOpts(Threads);
      Incr.Incremental = true;
      expectFullyEqual(Base, runModel(Suite[I], Incr),
                       Suite[I].Name + " threaded incremental@" +
                           std::to_string(Threads));
    }
  }
}

TEST(AotEngine, PrecompiledPlanDrivesThreadedRuns) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto GA = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);

  rewrite::RewriteOptions Pre = thrOpts(0);
  Pre.PrecompiledPlan = &Prog;
  RunResult A;
  A.Stats =
      rewrite::rewriteToFixpoint(*GA, Pipe.Rules, graph::ShapeInference(), Pre);
  A.GraphText = graph::writeGraphText(*GA);
  EXPECT_EQ(A.Stats.PlanCompileSeconds, 0.0);

  RunResult B = runModel(Model, thrOpts(0));
  EXPECT_GT(B.Stats.PlanCompileSeconds, 0.0);
  expectFullyEqual(A, B, Model.Name + " threaded precompiled vs in-run");
}

//===----------------------------------------------------------------------===//
// Threaded tier: governance determinism (stress tier)
//===----------------------------------------------------------------------===//

namespace {

class AotGovernanceStressTest : public ::testing::TestWithParam<unsigned> {};

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
    // consulted per *attempted* entry (see test_incremental's fault sweep).
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

//===----------------------------------------------------------------------===//
// Emitted tier (compiler-gated)
//===----------------------------------------------------------------------===//

namespace {

/// Skips the calling test when the host has no C++ compiler; otherwise
/// builds \p P into a .so under the test temp dir and loads it.
#define BUILD_OR_SKIP(Lib, P, Name)                                            \
  if (aot::AotEmitter::findCompiler().empty())                                 \
    GTEST_SKIP() << "no C++ compiler on this host; emitted tier untestable";   \
  std::string SoPath = ::testing::TempDir() + (Name);                          \
  {                                                                            \
    std::string Err;                                                           \
    ASSERT_TRUE(aot::AotEmitter::buildSharedObject((P), SoPath, Err)) << Err;  \
  }                                                                            \
  aot::AotLoadStatus LoadSt = aot::AotLoadStatus::Ok;                          \
  auto Lib = aot::PlanLibrary::load(SoPath, (P), nullptr, LoadSt);             \
  ASSERT_NE(Lib, nullptr) << aot::aotLoadStatusMessage(LoadSt);                \
  ASSERT_EQ(LoadSt, aot::AotLoadStatus::Ok)

} // namespace

TEST(AotEmitted, EmbeddedAbiDeclsPinTheHostHeader) {
  // The emitted TU embeds a copy of AotAbi.h's declarations so artifacts
  // build standalone; this pins the copy to the host header's constants.
  CompiledPipeline CP;
  std::string Src = aot::AotEmitter::emitCpp(CP.Prog);
  EXPECT_NE(Src.find("0x31544f414d505950ull"), std::string::npos);
  static_assert(PYPM_AOT_MAGIC == 0x31544f414d505950ull);
  static_assert(PYPM_AOT_ABI_VERSION == 1u);
  static_assert(PYPM_AOT_RUNNING == 0 && PYPM_AOT_SUCCESS == 1 &&
                PYPM_AOT_FAILURE == 2 && PYPM_AOT_OUT_OF_FUEL == 3);
  static_assert(PYPM_AOT_ACT_GUARD == 1u && PYPM_AOT_ACT_CHECK_NAME == 2u &&
                PYPM_AOT_ACT_CHECK_FUNNAME == 3u &&
                PYPM_AOT_ACT_MATCH_CONSTR == 4u);
  // The ABI statuses are the MachineStatus values (the step function's
  // return travels through a static_cast both ways).
  static_assert(PYPM_AOT_RUNNING ==
                static_cast<int>(MachineStatus::Running));
  static_assert(PYPM_AOT_SUCCESS ==
                static_cast<int>(MachineStatus::Success));
  static_assert(PYPM_AOT_FAILURE ==
                static_cast<int>(MachineStatus::Failure));
  static_assert(PYPM_AOT_OUT_OF_FUEL ==
                static_cast<int>(MachineStatus::OutOfFuel));
  // ... and the ActionKinds match the host enum the callbacks decode into.
  static_assert(PYPM_AOT_ACT_GUARD ==
                static_cast<uint32_t>(ActionKind::Guard));
  static_assert(PYPM_AOT_ACT_CHECK_NAME ==
                static_cast<uint32_t>(ActionKind::CheckName));
  static_assert(PYPM_AOT_ACT_CHECK_FUNNAME ==
                static_cast<uint32_t>(ActionKind::CheckFunName));
  static_assert(PYPM_AOT_ACT_MATCH_CONSTR ==
                static_cast<uint32_t>(ActionKind::MatchConstr));
  EXPECT_NE(Src.find(aot::AotEmitter::markerFor(CP.Prog)),
            std::string::npos);
  EXPECT_NE(Src.find("pypm_aot_plan_v1"), std::string::npos);
}

TEST(AotEmitted, PerAttemptMatchesInterpreterOnAModel) {
  CompiledPipeline CP;
  BUILD_OR_SKIP(Lib, CP.Prog, "pypm_aot_perattempt.so");

  models::TransformerConfig TC;
  TC.Name = "t";
  TC.Layers = 1;
  TC.Hidden = 64;
  auto G = models::buildTransformer(CP.Sig, TC);
  term::TermArena A2(CP.Sig);
  graph::TermView View(*G, A2);
  aot::SoExec Reused(CP.Prog, *Lib, A2);
  plan::Interpreter Interp(CP.Prog, A2);
  for (graph::NodeId N : G->topoOrder()) {
    term::TermRef T = View.termFor(N);
    for (size_t E = 0; E != CP.Prog.Entries.size(); ++E) {
      MatchResult RI = Interp.matchOne(E, T);
      MatchResult RS = Reused.matchOne(E, T);
      ASSERT_EQ(RS.Status, RI.Status) << "node " << N << " entry " << E;
      if (RI.Status == MachineStatus::Success)
        EXPECT_EQ(RS.W, RI.W) << "node " << N << " entry " << E;
      expectStatsEqual(RS.Stats, RI.Stats);
    }
  }
}

TEST(AotEmitted, ResumeStreamAgreesWithInterpreter) {
  term::Signature Sig;
  term::TermArena Arena(Sig);
  PatternArena PA;
  term::OpId Pair = Sig.addOp("Pair", 2);
  std::deque<NamedPattern> Defs;
  const Pattern *P =
      PA.alt(PA.app(Pair, {PA.var("x"), PA.var("y")}),
             PA.app(Pair, {PA.var("y"), PA.var("x")}));
  Defs.push_back(NamedPattern{Symbol::intern("P"), {}, {}, P});
  rewrite::RuleSet RS;
  RS.addPattern(Defs.back());
  plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
  BUILD_OR_SKIP(Lib, Prog, "pypm_aot_resume.so");

  term::OpId C1 = Sig.addOp("C1", 0), C2 = Sig.addOp("C2", 0);
  term::TermRef T =
      Arena.make(Pair, {Arena.leaf(C1), Arena.leaf(C2)});
  plan::Interpreter IP(Prog, Arena);
  aot::SoExec SE(Prog, *Lib, Arena);
  MachineStatus SI = IP.matchEntry(0, T);
  MachineStatus SS = SE.matchEntry(0, T);
  size_t Solutions = 0;
  while (SI == MachineStatus::Success || SS == MachineStatus::Success) {
    ASSERT_EQ(SS, SI) << "solution " << Solutions;
    EXPECT_EQ(SE.witness(), IP.witness()) << "solution " << Solutions;
    ++Solutions;
    SI = IP.resume();
    SS = SE.resume();
  }
  EXPECT_EQ(SS, SI);
  EXPECT_EQ(Solutions, 2u);
}

TEST(AotEmitted, EngineRunMatchesPlanMatcher) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto GA = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  plan::Program Prog = plan::PlanBuilder::compile(Pipe.Rules, Sig);
  BUILD_OR_SKIP(Lib, Prog, "pypm_aot_engine.so");

  for (unsigned Threads : {0u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    // Same signature layout as the .so's plan: rebuild against Sig.
    auto GRun = Model.Build(Sig);
    rewrite::RewriteOptions AotO;
    AotO.Matcher = rewrite::MatcherKind::PlanAot;
    AotO.NumThreads = Threads;
    AotO.PrecompiledPlan = &Prog;
    AotO.AotLib = Lib.get();
    RunResult A;
    A.Stats = rewrite::rewriteToFixpoint(*GRun, Pipe.Rules,
                                         graph::ShapeInference(), AotO);
    A.GraphText = graph::writeGraphText(*GRun);

    auto GPlan = Model.Build(Sig);
    rewrite::RewriteOptions PlanO = planOpts(Threads);
    PlanO.PrecompiledPlan = &Prog;
    RunResult B;
    B.Stats = rewrite::rewriteToFixpoint(*GPlan, Pipe.Rules,
                                         graph::ShapeInference(), PlanO);
    B.GraphText = graph::writeGraphText(*GPlan);
    expectFullyEqual(A, B, Model.Name + " aot vs plan");
  }
}

TEST(AotEmitted, LoaderRejectsArtifactFromForeignPlan) {
  CompiledPipeline CP;
  BUILD_OR_SKIP(Lib, CP.Prog, "pypm_aot_foreign.so");

  // The same artifact validated against a *different* plan must be
  // refused at the pre-dlopen marker rung with a machine-readable code.
  term::Signature SigD;
  models::declareModelOps(SigD);
  auto Cublas = opt::compileCublas(SigD);
  rewrite::RuleSet RSD;
  RSD.addLibrary(*Cublas);
  plan::Program Other = plan::PlanBuilder::compile(RSD, SigD);
  DiagnosticEngine Diags;
  aot::AotLoadStatus St = aot::AotLoadStatus::Ok;
  auto Rejected = aot::PlanLibrary::load(SoPath, Other, &Diags, St);
  EXPECT_EQ(Rejected, nullptr);
  EXPECT_EQ(St, aot::AotLoadStatus::MarkerMismatch);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].Code, "aot.stale");
}

// A bare file name ("both.so") names a file in the working directory for
// the marker scan, but dlopen would search the library path for it; the
// loader must scan and map the same file — the one in the working
// directory — and record its absolute path.
TEST(AotEmitted, BareFileNameLoadsFromTheWorkingDirectory) {
  CompiledPipeline CP;
  if (aot::AotEmitter::findCompiler().empty())
    GTEST_SKIP() << "no C++ compiler on this host; emitted tier untestable";
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(::testing::TempDir()) /
                       ("pypm_aot_bare_" + std::to_string(::getpid()));
  fs::create_directories(Dir);
  std::string Err;
  ASSERT_TRUE(aot::AotEmitter::buildSharedObject(
      CP.Prog, (Dir / "both.so").string(), Err))
      << Err;
  const fs::path Saved = fs::current_path();
  fs::current_path(Dir);
  DiagnosticEngine Diags;
  aot::AotLoadStatus St = aot::AotLoadStatus::Unreadable;
  auto Lib = aot::PlanLibrary::load("both.so", CP.Prog, &Diags, St);
  fs::current_path(Saved);
  EXPECT_EQ(St, aot::AotLoadStatus::Ok) << Diags.renderAll();
  ASSERT_NE(Lib, nullptr);
  EXPECT_EQ(fs::path(Lib->path()), Dir / "both.so");
  EXPECT_TRUE(Lib->matches(CP.Prog));
  Lib.reset();
  fs::remove_all(Dir);
}

TEST(AotEmitted, MismatchedLibraryFallsBackToInterpreter) {
  // Engine-level: a library valid for plan A handed to a run over rules B
  // must demote to the interpreter with a warning, results ≡ Plan.
  CompiledPipeline CP;
  BUILD_OR_SKIP(Lib, CP.Prog, "pypm_aot_mismatch.so");

  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();
  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  auto Cublas = opt::compileCublas(Sig);
  rewrite::RuleSet Other;
  Other.addLibrary(*Cublas);

  DiagnosticEngine Diags;
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::PlanAot;
  O.AotLib = Lib.get(); // built from the pipeline plan, not Other
  O.Diags = &Diags;
  RunResult A;
  A.Stats = rewrite::rewriteToFixpoint(*G, Other, graph::ShapeInference(), O);
  A.GraphText = graph::writeGraphText(*G);

  bool SawFallback = false;
  for (const Diagnostic &D : Diags.diagnostics())
    SawFallback |= D.Code == "aot.fallback";
  EXPECT_TRUE(SawFallback);

  auto GB = Model.Build(Sig);
  RunResult B;
  B.Stats = rewrite::rewriteToFixpoint(*GB, Other, graph::ShapeInference(),
                                       planOpts(0));
  B.GraphText = graph::writeGraphText(*GB);
  expectFullyEqual(A, B, "mismatched-lib fallback vs plan");
}

//===----------------------------------------------------------------------===//
// Fallback and loader rejection (no compiler required)
//===----------------------------------------------------------------------===//

TEST(AotEngine, MissingLibraryFallsBackToInterpreterWithWarning) {
  auto Suite = models::hfSuite();
  ASSERT_FALSE(Suite.empty());
  const models::ModelEntry &Model = Suite.front();

  term::Signature Sig;
  auto G = Model.Build(Sig);
  opt::Pipeline Pipe = opt::makePipeline(Sig, opt::OptConfig::Both);
  DiagnosticEngine Diags;
  rewrite::RewriteOptions O;
  O.Matcher = rewrite::MatcherKind::PlanAot; // no AotLib supplied
  O.Diags = &Diags;
  RunResult A;
  A.Stats = rewrite::rewriteToFixpoint(*G, Pipe.Rules,
                                       graph::ShapeInference(), O);
  A.GraphText = graph::writeGraphText(*G);

  bool SawFallback = false;
  for (const Diagnostic &D : Diags.diagnostics())
    SawFallback |= D.Code == "aot.fallback";
  EXPECT_TRUE(SawFallback);

  RunResult B = runModel(Model, planOpts(0));
  expectFullyEqual(A, B, Model.Name + " missing-lib fallback vs plan");
}

TEST(AotLoader, RejectsMissingAndGarbageFiles) {
  CompiledPipeline CP;
  DiagnosticEngine Diags;
  aot::AotLoadStatus St = aot::AotLoadStatus::Ok;
  auto Missing = aot::PlanLibrary::load(
      ::testing::TempDir() + "pypm_aot_nonexistent.so", CP.Prog, &Diags, St);
  EXPECT_EQ(Missing, nullptr);
  EXPECT_EQ(St, aot::AotLoadStatus::Unreadable);
  ASSERT_FALSE(Diags.diagnostics().empty());
  EXPECT_EQ(Diags.diagnostics()[0].Code, "aot.unreadable");

  std::string Garbage = ::testing::TempDir() + "pypm_aot_garbage.so";
  {
    std::ofstream OS(Garbage, std::ios::binary | std::ios::trunc);
    OS << "this is not an emitted plan artifact at all\n";
  }
  auto NotArtifact = aot::PlanLibrary::load(Garbage, CP.Prog, nullptr, St);
  EXPECT_EQ(NotArtifact, nullptr);
  EXPECT_EQ(St, aot::AotLoadStatus::NoMarker);
  std::remove(Garbage.c_str());
}
