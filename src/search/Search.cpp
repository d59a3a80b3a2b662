//===- search/Search.cpp - Cost-directed rewrite search -----------------------===//
//
// Structure of one search step (searchRewrite's outer loop):
//
//  1. COMMITTED ENUMERATION (serial, canonical order): walk the live nodes
//     ascending, try every non-quarantined entry — through the greedy
//     engine's prefilter: the plan's discrimination tree under the Plan
//     matcher, the root-operator index otherwise — and enumerate up to
//     SearchWitnesses witnesses per match via resume. Every witness with
//     a passing rule guard is one Candidate; its witness is kept for the
//     phases below.
//     This phase carries ALL governed state: budget step/μ charges,
//     quarantine counts, fault sites, per-pattern counters. It is
//     bit-identical at any NumThreads because it never runs on a worker.
//     It matches against the run's one incremental term view, which every
//     commit's footprint keeps current.
//
//  2. SPECULATIVE EXPANSION (hermetic): apply each expanded candidate to
//     the subject graph inside an exact undo scope (Graph::checkpoint),
//     delta-cost it with sim::CostModel, and roll it back — serially, at
//     any NumThreads: measured on the zoo, pool workers each applying on a
//     private copy per step were slower than this. The witness's variables
//     resolve through the view's rooted resolution (TermView::nodeFor(t,
//     root)) — the node a view converted cold from the candidate's root
//     would answer — and the view and its arena are only read. BestOfN
//     expands the first BeamWidth candidates and rolls each forward
//     greedily; Beam expands all candidates and keeps the BeamWidth
//     cheapest partial sequences per depth. With Lookahead >= 2 the
//     survivors of a depth (at most BeamWidth) are materialized as private
//     copies with their own view, and their moves are applied and rolled
//     back on those, one survivor per pool task under NumThreads. Results
//     land in index-addressed slots, and ranking is a stable sort on cost
//     — ties resolve to the canonical enumeration order. No budget
//     charges, no fault-injector consultation: governance outcomes cannot
//     depend on how branches were explored.
//
//  3. COMMIT (serial): fire the winning first step on the subject graph
//     under its witness, with the fault injector armed (guard evals and RHS
//     builds hit the same hooks greedy fires do), and invalidate the view
//     by the commit's footprint. An absorbed fault rolls back to the last
//     committed state and quarantines or halts, exactly like the greedy
//     engine's transactional commit.
//
// Rollback invariant: after Graph::rollback the subject is
// indistinguishable from its state before the speculative apply — node
// ids, user-list order, the allocation estimate and the sweep bookkeeping
// (hence the next commit's footprint) — so a rejected branch leaves
// nothing behind, and the shared view's memo stays valid untouched.
//
//===----------------------------------------------------------------------===//

#include "search/Search.h"

#include "graph/TermView.h"
#include "match/FastMatcher.h"
#include "plan/PlanBuilder.h"
#include "plan/Program.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <memory>

using namespace pypm;
using namespace pypm::search;
using namespace pypm::rewrite;
using graph::Graph;
using graph::NodeId;
using match::MachineStatus;

namespace {

double nowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::string entryName(const RewriteEntry &E) {
  return std::string(E.Pattern->Name.str());
}

/// First rule of \p E (starting at \p From) whose guard passes under \p W,
/// or -1. \p OnGuardEval, when non-null, runs before each evaluation (the
/// committed path hooks the fault injector here); exceptions propagate.
int firstPassingRule(const RewriteEntry &E, const match::Witness &W,
                     const term::TermArena &Arena, size_t From,
                     FaultInjector *Faults) {
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  for (size_t RI = From; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard) {
      if (Faults)
        Faults->onGuardEval();
      if (!R->Guard->evalBool(Env).truthy())
        continue;
    }
    return static_cast<int>(RI);
  }
  return -1;
}

} // namespace

std::vector<Candidate>
pypm::search::enumerateCandidates(const Graph &G, const RuleSet &Rules,
                                  const EnumOptions &EO) {
  std::vector<Candidate> Out;
  std::vector<match::Witness> Wits;
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  enumerateCandidates(View, Rules, EO, Out, Wits);
  return Out;
}

void pypm::search::enumerateCandidates(graph::TermView &View,
                                       const RuleSet &Rules,
                                       const EnumOptions &EO,
                                       std::vector<Candidate> &Out,
                                       std::vector<match::Witness> &Wits) {
  const Graph &G = View.graph();
  const auto &Entries = Rules.entries();
  for (NodeId N = 0; N < G.numNodes(); ++N) {
    if (G.isDead(N))
      continue;
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (EO.SkipEntry && I < EO.SkipEntry->size() && (*EO.SkipEntry)[I])
        continue;
      const RewriteEntry &E = Entries[I];
      if (E.Rules.empty())
        continue; // match-only: nothing can fire
      match::FastMatcher M(View.arena(), EO.MachineOpts);
      MachineStatus S;
      try {
        S = M.match(E.Pattern->Pat, View.termFor(N));
      } catch (...) {
        continue; // hermetic: a throwing attempt yields no candidates
      }
      for (unsigned WI = 0; S == MachineStatus::Success; ++WI) {
        match::Witness W = M.witness();
        int RI;
        try {
          RI = firstPassingRule(E, W, View.arena(), 0, nullptr);
        } catch (...) {
          break; // hermetic: a throwing guard ends this entry's witnesses
        }
        if (RI >= 0) {
          Out.push_back(Candidate{N, static_cast<uint32_t>(I), WI,
                                  static_cast<uint32_t>(RI)});
          Wits.push_back(std::move(W));
        }
        if (WI + 1 >= EO.MaxWitnesses)
          break;
        try {
          S = M.resume();
        } catch (...) {
          break;
        }
      }
    }
  }
}

ApplyResult pypm::search::fireCandidate(Graph &G, const graph::TermView &View,
                                        const Candidate &C,
                                        const match::Witness &W,
                                        const RuleSet &Rules,
                                        const graph::ShapeInference &SI,
                                        const sim::CostModel &CM,
                                        FaultInjector *Faults,
                                        graph::CommitFootprint *Footprint) {
  ApplyResult Res;
  const RewriteEntry &E = Rules.entries()[C.Entry];
  match::SubstEnv Env(W.Theta, W.Phi, View.arena());
  // Nodes appended from here on were never part of the base cost. A rule
  // whose RHS fails to build (an unbound fall-through parameter, e.g.
  // fuse_mha_masked on an unmasked graph) may strand orphan nodes; they
  // stay in place while later rules build — the greedy engine's failure
  // path leaves orphans for the same reason.
  const NodeId Base = static_cast<NodeId>(G.numNodes());
  for (size_t RI = C.Rule; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard) {
      if (Faults)
        Faults->onGuardEval();
      if (!R->Guard->evalBool(Env).truthy())
        continue; // cannot happen at RI == C.Rule (guards are pure)
    }
    NodeId Rep = rewrite::buildRhs(G, View, R->Rhs, W, SI, Faults, C.Node);
    if (Rep == graph::InvalidNode)
      continue; // RHS build failed (unbound var); try next rule
    // A kept footprint feeds View's invalidation, so its closure walk
    // stops at nodes View never converted (TermView.h); a discarded one
    // needs no closure at all.
    graph::CommitFootprint F =
        Footprint ? G.commitRewrite(
                        C.Node, Rep, Base,
                        [&View](NodeId U) { return View.memoized(U); })
                  : G.commitRewrite(C.Node, Rep, Base,
                                    [](NodeId) { return false; });
    Res.Swept = F.Swept.size();
    // Delta-cost the commit: appended-and-live nodes minus previously-live
    // swept nodes (ids >= Base — replacement nodes and failed-rule orphans
    // alike — were never part of the base cost). The footprint's swept ids
    // are ascending, so the priced sum runs in the same order as ever.
    std::vector<NodeId> Added;
    for (NodeId N = F.NewBegin; N < F.NewEnd; ++N)
      if (!G.isDead(N))
        Added.push_back(N);
    auto Priced = std::lower_bound(F.Swept.begin(), F.Swept.end(), Base);
    Res.CostDelta = CM.commitDelta(
        G, Added,
        std::span<const NodeId>(F.Swept.data(), Priced - F.Swept.begin()));
    Res.Applied = true;
    Res.Replacement = Rep;
    if (Footprint)
      *Footprint = std::move(F);
    return Res;
  }
  return Res;
}

ApplyResult pypm::search::speculateCandidate(Graph &G, graph::UndoLog &Log,
                                             const graph::TermView &View,
                                             const Candidate &C,
                                             const match::Witness &W,
                                             const RuleSet &Rules,
                                             const graph::ShapeInference &SI,
                                             const sim::CostModel &CM) {
  ApplyResult R;
  G.checkpoint(Log);
  try {
    R = fireCandidate(G, View, C, W, Rules, SI, CM);
  } catch (...) {
    R = ApplyResult(); // speculative fault: branch dropped
  }
  G.rollback();
  return R;
}

ApplyResult pypm::search::applyCandidate(Graph &G, const Candidate &C,
                                         const RuleSet &Rules,
                                         const graph::ShapeInference &SI,
                                         const sim::CostModel &CM,
                                         const match::Machine::Options &MO,
                                         FaultInjector *Faults) {
  const RewriteEntry &E = Rules.entries()[C.Entry];
  term::TermArena Arena(G.signature());
  graph::TermView View(G, Arena);
  match::FastMatcher M(Arena, MO);
  MachineStatus S = M.match(E.Pattern->Pat, View.termFor(C.Node));
  for (uint32_t WI = 0; S == MachineStatus::Success && WI < C.WitnessIdx; ++WI)
    S = M.resume();
  if (S != MachineStatus::Success)
    return {}; // not reachable on a faithful clone; refuse rather than UB
  ApplyResult Res;
  try {
    Res = fireCandidate(G, View, C, M.witness(), Rules, SI, CM, Faults);
  } catch (...) {
    // Transactional: the partial build only appended unreferenced nodes;
    // sweep them so the caller sees the pre-call graph.
    G.removeUnreachable();
    throw;
  }
  if (!Res.Applied)
    G.removeUnreachable(); // every rule failed: drop any stranded orphans
  return Res;
}

namespace {

/// A materialized speculative graph state (Lookahead >= 2 only): a
/// private copy with its own arena and view, on which the next depth's
/// moves are enumerated, applied and rolled back.
struct Branch {
  Graph G;
  term::TermArena Arena;
  graph::TermView View;
  graph::UndoLog Undo;
  explicit Branch(const Graph &From)
      : G(From), Arena(G.signature()), View(G, Arena) {}
};

/// A branch's moves at one depth: the candidates enumerated on it, their
/// witnesses, and the priced outcome of the ones expanded.
struct Moves {
  std::vector<Candidate> Cands;
  std::vector<match::Witness> Wits;
  std::vector<ApplyResult> Results;
};

/// One partial commit sequence under exploration: the level-0 candidate it
/// started from (all that matters for the receding-horizon commit), its
/// accumulated modeled cost, and — when it must be expanded further — its
/// materialized graph state. A freshly priced child names its parent state
/// and move until it is materialized.
struct BeamState {
  std::unique_ptr<Branch> B;
  uint32_t FirstCand = 0; ///< index into the sweep's candidate vector
  double Cost = 0.0;
  bool Terminal = false; ///< no further candidates on this branch
  uint32_t Parent = 0, Move = 0;
};

class SearchLoop {
public:
  SearchLoop(Graph &G, const RuleSet &Rules, const graph::ShapeInference &SI,
             const RewriteOptions &Opts)
      : G(G), Rules(Rules), SI(SI), Opts(Opts),
        CM(Opts.SearchCost ? *Opts.SearchCost : OwnedCM), Arena(G.signature()),
        View(G, Arena) {
    const size_t NumEntries = Rules.entries().size();
    Quarantined.assign(NumEntries, 0);
    FuelExhausts.assign(NumEntries, 0);
    StatsSlots.assign(NumEntries, nullptr);
    if (Opts.PreQuarantined)
      for (const std::string &Name : *Opts.PreQuarantined)
        for (size_t I = 0; I != NumEntries; ++I)
          if (entryName(Rules.entries()[I]) == Name)
            Quarantined[I] = 1;
    // The prefilter is the greedy engine's: the Plan matcher contributes
    // its discrimination tree, the others the root-operator index.
    // Attempts themselves run FastMatcher — per-attempt observable
    // behavior is identical across matcher kinds, so candidates are too.
    if (Opts.UseRootIndex && Opts.matcher() != MatcherKind::Plan)
      RootFilters = rootOpFilters(Rules);
    if (Opts.matcher() == MatcherKind::Plan && Opts.UseRootIndex) {
      if (Opts.PrecompiledPlan && planMatchesRules(*Opts.PrecompiledPlan)) {
        Plan = Opts.PrecompiledPlan;
      } else {
        double C0 = nowSeconds();
        OwnedPlan = std::make_unique<plan::Program>(
            plan::PlanBuilder::compile(Rules, G.signature()));
        Stats.PlanCompileSeconds = nowSeconds() - C0;
        Plan = OwnedPlan.get();
      }
    }
    MachineOpts = Opts.MachineOpts;
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      // Matchers — committed and speculative alike — poll the deadline and
      // cancellation cooperatively; step/μ ceilings stay commit-order-only.
      MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
    if (Opts.NumThreads >= 1)
      Pool = std::make_unique<ThreadPool>(Opts.NumThreads);
  }

  RewriteStats run() {
    double Start = nowSeconds();
    Stats.ModeledCostBefore = CM.graphCost(G).Seconds;
    RunningCost = Stats.ModeledCostBefore;
    while (!halted()) {
      ++Stats.Passes;
      ++Stats.SearchSteps;
      std::vector<Candidate> Cands;
      std::vector<match::Witness> Wits;
      enumerateCommitted(Cands, Wits);
      if (halted() || Cands.empty())
        break;
      // An absorbed attempt fault may have dropped the view mid-sweep, and
      // speculation reads it without converting: re-memoize every
      // candidate's cone (a memo hit per candidate otherwise). Conversion
      // is hash-consed in the run's arena, so the witnesses' terms stay
      // valid.
      for (const Candidate &C : Cands)
        View.termFor(C.Node);
      double S0 = nowSeconds();
      std::optional<uint32_t> Choice = selectCandidate(Cands, Wits);
      Stats.SearchSeconds += nowSeconds() - S0;
      if (!Choice) {
        // Pathological: nothing in the expansion set could build. Fall
        // back to the greedy step over the full candidate list so search
        // never reaches a worse fixpoint than greedy on buildability.
        if (!commitFirstBuildable(Cands, Wits))
          break;
        continue;
      }
      if (!commit(Cands[*Choice], Wits[*Choice]))
        continue; // absorbed fault: state rolled back, re-enumerate
      if (Stats.TotalFired >= Opts.MaxRewrites) {
        halt(BudgetReason::Rewrites);
        break;
      }
    }
    Stats.ModeledCostAfter = CM.graphCost(G).Seconds;
    Stats.ViewConversions = View.conversions();
    Stats.TotalSeconds = nowSeconds() - Start;
    Stats.DiscoverySeconds = Stats.MatchSeconds;
    return std::move(Stats);
  }

private:
  Graph &G;
  const RuleSet &Rules;
  const graph::ShapeInference &SI;
  const RewriteOptions &Opts;
  sim::CostModel OwnedCM;
  const sim::CostModel &CM;
  RewriteStats Stats;
  match::Machine::Options MachineOpts;
  Budget *Bgt = nullptr;
  FaultInjector *Faults = nullptr;
  const plan::Program *Plan = nullptr;
  std::unique_ptr<plan::Program> OwnedPlan;
  /// The root-operator prefilter (Machine and Fast matchers with the root
  /// index on; empty otherwise).
  std::vector<RootOps> RootFilters;
  std::unique_ptr<ThreadPool> Pool;
  /// The run's one incremental term view (and its arena): committed
  /// enumeration converts through it, commits invalidate it by footprint,
  /// speculation only reads it.
  term::TermArena Arena;
  graph::TermView View;
  graph::UndoLog Undo; ///< level-1 speculation's journal on the subject
  std::vector<uint8_t> Quarantined;
  std::vector<uint32_t> FuelExhausts;
  /// Per-entry Stats.PerPattern slot, looked up on first use (statsFor).
  std::vector<PatternStats *> StatsSlots;
  BudgetReason Stop = BudgetReason::None;
  double RunningCost = 0.0;

  bool planMatchesRules(const plan::Program &P) const {
    const auto &Entries = Rules.entries();
    if (P.Entries.size() != Entries.size())
      return false;
    for (size_t I = 0; I != Entries.size(); ++I)
      if (P.Entries[I].PatternName != Entries[I].Pattern->Name)
        return false;
    return true;
  }

  bool halted() const { return Stop != BudgetReason::None; }

  void halt(BudgetReason R) {
    if (halted())
      return;
    Stop = R;
    EngineStatusCode C = EngineStatusCode::BudgetExhausted;
    if (R == BudgetReason::Cancelled)
      C = EngineStatusCode::Cancelled;
    else if (R == BudgetReason::Fault)
      C = EngineStatusCode::FaultInjected;
    Stats.Status.raise(C, R);
  }

  bool shouldStop() {
    if (halted())
      return true;
    if (!Bgt)
      return false;
    BudgetReason R = Bgt->poll(G.approxMemoryBytes());
    if (R != BudgetReason::None)
      halt(R);
    return halted();
  }

  void chargeAttempt(uint64_t Steps, uint64_t MuUnfolds) {
    if (Faults && Faults->onBudgetCharge()) {
      ++Stats.Status.FaultsAbsorbed;
      halt(BudgetReason::Steps);
      return;
    }
    if (!Bgt)
      return;
    Bgt->chargeSteps(Steps);
    Bgt->chargeMuUnfolds(MuUnfolds);
    BudgetReason R = Bgt->exceededCeiling();
    if (R != BudgetReason::None)
      halt(R);
  }

  void quarantineEntry(size_t I, const std::string &Why) {
    if (Quarantined[I])
      return;
    Quarantined[I] = 1;
    std::string Name = entryName(Rules.entries()[I]);
    Stats.Status.QuarantinedPatterns.push_back(Name);
    Stats.Status.raise(EngineStatusCode::PatternQuarantined);
    if (Opts.Diags)
      Opts.Diags->warning({}, "pattern '" + Name + "' quarantined (" + Why +
                                  "); disabled for the rest of the run");
  }

  void noteFuelExhaust(size_t I) {
    if (Opts.QuarantineThreshold == 0)
      return;
    if (++FuelExhausts[I] >= Opts.QuarantineThreshold)
      quarantineEntry(I, "fuel exhausted " + std::to_string(FuelExhausts[I]) +
                             " times");
  }

  void onAttemptFault(size_t I, const char *What) {
    ++Stats.Status.FaultsAbsorbed;
    Stats.Status.raise(EngineStatusCode::FaultInjected);
    if (Opts.Diags)
      Opts.Diags->warning({}, "fault absorbed in pattern '" +
                                  entryName(Rules.entries()[I]) +
                                  "': " + What);
    if (Opts.HaltOnFault)
      halt(BudgetReason::Fault);
    else
      quarantineEntry(I, "fault");
  }

  /// Entry \p I's PerPattern counters, created on first use and cached
  /// (std::map nodes do not move).
  PatternStats &statsFor(size_t I) {
    PatternStats *&Slot = StatsSlots[I];
    if (!Slot)
      Slot = &Stats.PerPattern[entryName(Rules.entries()[I])];
    return *Slot;
  }

  /// Phase 1: the governed enumeration sweep (see file header). Appends
  /// each candidate to \p Out and its witness to \p Wits.
  void enumerateCommitted(std::vector<Candidate> &Out,
                          std::vector<match::Witness> &Wits) {
    const auto &Entries = Rules.entries();
    const uint64_t Sweep = Stats.SearchSteps - 1; // fault-site "pass" id

    std::vector<uint8_t> Mask;
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      if (G.isDead(N))
        continue;
      if (shouldStop())
        return;
      ++Stats.NodesVisited;
      const uint8_t *Cand = nullptr;
      if (Plan) {
        Plan->candidates(G, N, Mask);
        Cand = Mask.data();
      }
      for (size_t I = 0; I != Entries.size(); ++I) {
        if (halted())
          return;
        if (Quarantined[I])
          continue;
        const RewriteEntry &E = Entries[I];
        PatternStats &PS = statsFor(I);
        if (Cand ? !Cand[I]
                 : !RootFilters.empty() &&
                       rootFilteredOut(RootFilters[I], G.op(N))) {
          ++PS.RootSkips;
          continue;
        }
        double T0 = nowSeconds();
        match::FastMatcher M(Arena, MachineOpts);
        MachineStatus S;
        try {
          if (Faults && Faults->atAttemptSite(Sweep, N, I))
            throw InjectedFault("injected fault: attempt site");
          S = M.match(E.Pattern->Pat, View.termFor(N));
        } catch (const std::exception &Ex) {
          View.invalidate();
          onAttemptFault(I, Ex.what());
          continue;
        } catch (...) {
          View.invalidate();
          onAttemptFault(I, "unknown exception");
          continue;
        }
        ++PS.Attempts;
        uint64_t SeenSteps = M.stats().Steps;
        uint64_t SeenMu = M.stats().MuUnfolds;
        PS.MachineSteps += SeenSteps;
        PS.Backtracks += M.stats().Backtracks;
        double Elapsed = nowSeconds() - T0;
        PS.Seconds += Elapsed;
        Stats.MatchSeconds += Elapsed;
        chargeAttempt(SeenSteps, SeenMu);
        if (halted())
          return;
        if (S != MachineStatus::Success) {
          if (S == MachineStatus::OutOfFuel) {
            ++PS.FuelExhausted;
            noteFuelExhaust(I);
          }
          continue;
        }
        ++PS.Matches;
        ++Stats.TotalMatches;
        if (E.Rules.empty())
          continue; // match-only entry
        // Witness loop: enumerate up to SearchWitnesses witnesses; every
        // witness with a passing rule guard is one candidate.
        const unsigned MaxW = std::max(1u, Opts.SearchWitnesses);
        for (unsigned WI = 0;; ++WI) {
          match::Witness W = M.witness();
          int RI;
          try {
            RI = firstPassingRule(E, W, Arena, 0, Faults);
          } catch (const std::exception &Ex) {
            onAttemptFault(I, Ex.what());
            break;
          } catch (...) {
            onAttemptFault(I, "unknown exception");
            break;
          }
          if (RI >= 0) {
            Out.push_back(Candidate{N, static_cast<uint32_t>(I), WI,
                                    static_cast<uint32_t>(RI)});
            Wits.push_back(std::move(W));
            ++Stats.SearchCandidates;
          } else {
            ++PS.GuardRejects;
          }
          if (WI + 1 >= MaxW || halted())
            break;
          double R0 = nowSeconds();
          try {
            S = M.resume();
          } catch (const std::exception &Ex) {
            View.invalidate();
            onAttemptFault(I, Ex.what());
            break;
          } catch (...) {
            View.invalidate();
            onAttemptFault(I, "unknown exception");
            break;
          }
          // Resume stats are cumulative; charge the increment only.
          uint64_t DSteps = M.stats().Steps - SeenSteps;
          uint64_t DMu = M.stats().MuUnfolds - SeenMu;
          SeenSteps = M.stats().Steps;
          SeenMu = M.stats().MuUnfolds;
          PS.MachineSteps += DSteps;
          double RElapsed = nowSeconds() - R0;
          PS.Seconds += RElapsed;
          Stats.MatchSeconds += RElapsed;
          chargeAttempt(DSteps, DMu);
          if (S != MachineStatus::Success) {
            if (S == MachineStatus::OutOfFuel) {
              ++PS.FuelExhausted;
              noteFuelExhaust(I);
            }
            break;
          }
        }
      }
    }
  }

  /// Phase 2: speculative expansion + ranking. Returns the index of the
  /// level-0 candidate to commit, or nullopt when nothing could build.
  std::optional<uint32_t>
  selectCandidate(const std::vector<Candidate> &L0,
                  const std::vector<match::Witness> &W0) {
    const bool Beam = Opts.Search == SearchStrategy::Beam;
    const size_t ExpandN =
        Beam ? L0.size() : std::min<size_t>(Opts.BeamWidth, L0.size());

    // Level 1: apply, price and roll back each expanded candidate on the
    // subject.
    std::vector<BeamState> States;
    for (size_t K = 0; K != ExpandN; ++K) {
      ApplyResult R =
          speculateCandidate(G, Undo, View, L0[K], W0[K], Rules, SI, CM);
      if (!R.Applied)
        continue;
      BeamState S;
      S.FirstCand = static_cast<uint32_t>(K);
      S.Cost = RunningCost + R.CostDelta;
      States.push_back(std::move(S));
    }
    Stats.SearchExpansions += ExpandN;
    if (States.empty())
      return std::nullopt;
    prune(States);
    if (Opts.Lookahead >= 2)
      materialize(States, [&](const BeamState &S) {
        return branchOf(G, View, L0[S.FirstCand], W0[S.FirstCand]);
      });

    // Depths 2..Lookahead: BestOfN rolls each survivor forward greedily
    // (its canonical-first candidate); Beam expands every candidate of
    // every survivor and keeps the BeamWidth cheapest sequences. A branch
    // is never shared between tasks: each task owns one state's moves.
    EnumOptions EO;
    EO.MachineOpts = MachineOpts;
    EO.MaxWitnesses = std::max(1u, Opts.SearchWitnesses);
    EO.SkipEntry = &Quarantined;
    for (unsigned Depth = 2; Depth <= Opts.Lookahead; ++Depth) {
      if (std::all_of(States.begin(), States.end(),
                      [](const BeamState &S) { return S.Terminal; }))
        break;
      std::vector<Moves> M(States.size());
      forEach(States.size(), [&](size_t K) {
        if (States[K].Terminal)
          return;
        Branch &B = *States[K].B;
        enumerateCandidates(B.View, Rules, EO, M[K].Cands, M[K].Wits);
        size_t Take = Beam ? M[K].Cands.size()
                           : std::min<size_t>(1, M[K].Cands.size());
        M[K].Results.resize(Take);
        for (size_t J = 0; J != Take; ++J)
          M[K].Results[J] = speculateCandidate(
              B.G, B.Undo, B.View, M[K].Cands[J], M[K].Wits[J], Rules, SI, CM);
      });
      size_t Jobs = 0;
      for (const Moves &Mv : M)
        Jobs += Mv.Results.size();
      if (Jobs == 0)
        break;
      Stats.SearchExpansions += Jobs;

      // Children in (state, move) order — the stable sort below preserves
      // this as the cost tie-break; terminal states carry forward.
      std::vector<BeamState> Next;
      for (size_t K = 0; K != States.size(); ++K)
        for (size_t J = 0; J != M[K].Results.size(); ++J) {
          if (!M[K].Results[J].Applied)
            continue;
          BeamState S;
          S.FirstCand = States[K].FirstCand;
          S.Cost = States[K].Cost + M[K].Results[J].CostDelta;
          S.Parent = static_cast<uint32_t>(K);
          S.Move = static_cast<uint32_t>(J);
          Next.push_back(std::move(S));
        }
      std::vector<uint8_t> Progressed(States.size(), 0);
      for (const BeamState &S : Next)
        Progressed[S.Parent] = 1;
      for (size_t K = 0; K != States.size(); ++K)
        if (!Progressed[K]) {
          // A carried state is never expanded again: its branch can go.
          BeamState S;
          S.FirstCand = States[K].FirstCand;
          S.Cost = States[K].Cost;
          S.Terminal = true;
          Next.push_back(std::move(S));
        }
      prune(Next);
      if (Depth < Opts.Lookahead)
        materialize(Next, [&](const BeamState &S) {
          const Branch &P = *States[S.Parent].B;
          const Moves &Mv = M[S.Parent];
          return branchOf(P.G, P.View, Mv.Cands[S.Move], Mv.Wits[S.Move]);
        });
      States = std::move(Next);
    }
    return States.front().FirstCand;
  }

  /// A branch extending \p From (whose ids \p V resolves) by \p C. The
  /// move was just applied and rolled back on an identical state, and
  /// applying is deterministic, so it applies again.
  std::unique_ptr<Branch> branchOf(const Graph &From, const graph::TermView &V,
                                   const Candidate &C,
                                   const match::Witness &W) {
    auto B = std::make_unique<Branch>(From);
    [[maybe_unused]] const bool Applied =
        fireCandidate(B->G, V, C, W, Rules, SI, CM).Applied;
    assert(Applied && "a priced move re-applies on its branch");
    return B;
  }

  /// Gives every non-terminal state of \p States the branch \p Make
  /// builds for it (one graph copy each).
  template <typename MakeFn>
  void materialize(std::vector<BeamState> &States, MakeFn Make) {
    forEach(States.size(), [&](size_t K) {
      if (!States[K].Terminal)
        States[K].B = Make(States[K]);
    });
    for (const BeamState &S : States)
      Stats.SearchGraphCopies += !S.Terminal;
  }

  /// Stable sort on cost (ties keep canonical generation order), then
  /// keep the BeamWidth cheapest.
  void prune(std::vector<BeamState> &States) {
    std::stable_sort(States.begin(), States.end(),
                     [](const BeamState &A, const BeamState &B) {
                       return A.Cost < B.Cost;
                     });
    if (States.size() > Opts.BeamWidth)
      States.resize(Opts.BeamWidth);
  }

  /// Index-slotted parallel map (deterministic merge by construction);
  /// serial when no pool. Body exceptions are the body's responsibility —
  /// callers catch per index.
  void forEach(size_t N, const std::function<void(size_t)> &Body) {
    if (Pool && N > 1)
      Pool->parallelFor(N, [&](size_t I, unsigned) { Body(I); });
    else
      for (size_t I = 0; I != N; ++I)
        Body(I);
  }

  /// Phase 3: fire \p C under \p W on the subject graph, fault injector
  /// armed, and invalidate the view by the commit's footprint. Returns
  /// false when nothing committed — an absorbed fault or no buildable rule
  /// — after rolling back to the last committed state.
  bool commit(const Candidate &C, const match::Witness &W) {
    View.termFor(C.Node); // a memo hit unless a rollback dropped the view
    ApplyResult R;
    graph::CommitFootprint F;
    try {
      R = fireCandidate(G, View, C, W, Rules, SI, CM, Faults, &F);
    } catch (const std::exception &Ex) {
      rollbackPartialBuild();
      onAttemptFault(C.Entry, Ex.what());
      return false;
    } catch (...) {
      rollbackPartialBuild();
      onAttemptFault(C.Entry, "unknown exception");
      return false;
    }
    if (!R.Applied) {
      rollbackPartialBuild(); // every rule failed: drop stranded orphans
      return false;
    }
    Stats.SweepVisits += F.SweepVisits;
    Stats.FootprintNodes += F.size();
    View.invalidateNodes(F);
    noteCommit(C, R);
    return true;
  }

  /// Transactional rollback of a failed commit: the partial build only
  /// appended nodes nothing references, so a global sweep restores the
  /// last committed state. The sweep may kill memoized nodes, so the view
  /// is dropped.
  void rollbackPartialBuild() {
    G.removeUnreachable();
    Stats.SweepVisits += G.numNodes();
    View.invalidate();
  }

  /// Greedy fallback when no scored candidate could build: fire the first
  /// candidate (canonical order) that applies. Returns false at fixpoint.
  bool commitFirstBuildable(const std::vector<Candidate> &Cands,
                            const std::vector<match::Witness> &Wits) {
    for (size_t I = 0; I != Cands.size(); ++I) {
      if (halted())
        return false;
      if (commit(Cands[I], Wits[I]))
        return true;
      if (halted())
        return false;
    }
    return false;
  }

  void noteCommit(const Candidate &C, const ApplyResult &R) {
    PatternStats &PS = statsFor(C.Entry);
    ++PS.RulesFired;
    ++Stats.TotalFired;
    Stats.NodesSwept += R.Swept;
    RunningCost += R.CostDelta;
  }
};

} // namespace

RewriteStats pypm::search::searchRewrite(Graph &G, const RuleSet &Rules,
                                         const graph::ShapeInference &SI,
                                         const RewriteOptions &Opts) {
  return SearchLoop(G, Rules, SI, Opts).run();
}
