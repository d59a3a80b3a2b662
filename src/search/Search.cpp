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
//     commit's footprint keeps current, and only at the nodes the last
//     commit changed: every other node replays its recorded enumeration
//     through the governed state (see "Phase 1" in SearchLoop).
//
//  2. SPECULATIVE EXPANSION (hermetic): apply each expanded candidate to
//     the subject graph inside an exact undo scope (Graph::checkpoint),
//     delta-cost it with sim::CostModel, and roll it back — unless its
//     level-1 price from an earlier step still stands (price()) — serially, at
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
#include <optional>

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

/// First rule of \p E whose guard passes under \p W, or -1. \p GuardEvals,
/// when non-null, counts the guard evaluations started (a throwing one
/// included) — the committed path replays that many fault-injector guard
/// hooks. Exceptions propagate.
int firstPassingRule(const RewriteEntry &E, const match::Witness &W,
                     const term::TermArena &Arena,
                     uint32_t *GuardEvals = nullptr) {
  match::SubstEnv Env(W.Theta, W.Phi, Arena);
  for (size_t RI = 0; RI != E.Rules.size(); ++RI) {
    const pattern::RewriteRule *R = E.Rules[RI];
    if (R->Guard) {
      if (GuardEvals)
        ++*GuardEvals;
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
          RI = firstPassingRule(E, W, View.arena());
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
                                        graph::CommitFootprint *Footprint,
                                        std::vector<NodeId> *Reads) {
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
    // A kept footprint dirties the committed enumeration's per-node cache,
    // which holds prefilter outcomes of nodes View never converted, so it
    // walks the full closure; a discarded one needs no closure at all.
    graph::CommitFootprint F =
        Footprint ? G.commitRewrite(C.Node, Rep, Base)
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
    if (Reads) // the sweep frontier: see Search.h
      for (NodeId N : F.Swept)
        for (NodeId In : G.inputs(N))
          if (In < Base)
            Reads->push_back(In);
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
                                             const sim::CostModel &CM,
                                             std::vector<NodeId> *Reads) {
  ApplyResult R;
  G.checkpoint(Log);
  try {
    R = fireCandidate(G, View, C, W, Rules, SI, CM, nullptr, nullptr, Reads);
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
                                         FaultInjector *Faults,
                                         std::vector<NodeId> *Reads) {
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
    Res = fireCandidate(G, View, C, M.witness(), Rules, SI, CM, Faults,
                        nullptr, Reads);
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
    Matcher.emplace(Arena, MachineOpts);
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
    if (Opts.NumThreads >= 1)
      Pool = std::make_unique<ThreadPool>(Opts.NumThreads);
  }

  RewriteStats run() {
    double Start = nowSeconds();
    // A graph with no orphans is fully swept already: noting so lets the
    // first step's fires sweep locally, and so keep their prices, instead
    // of each falling back to a whole-graph sweep.
    G.noteSweptIfClean();
    Stats.ModeledCostBefore = CM.graphCost(G).Seconds;
    RunningCost = Stats.ModeledCostBefore;
    while (!halted()) {
      ++Stats.Passes;
      ++Stats.SearchSteps;
      Cands.clear();
      Wits.clear();
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
      if (!commit(Cands[*Choice], Wits[*Choice]->W))
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

  //===--- Phase 1: the committed enumeration -----------------------------===//
  //
  // Two halves. RECORD (re)enumerates the dirty nodes — the last commit's
  // full users-closure and appended nodes, every live node on the first
  // step and after a global sweep — hermetically: prefilter, matcher runs,
  // witness resumes and guard scans, with no budget charge, hook or stats
  // update. Every other node's unrolling and prefilter outcome are
  // unchanged since it was recorded, so its record stands. REPLAY then
  // walks the live nodes in canonical order and replays each record
  // through the governed state exactly as matching the node again would
  // run it: the per-node poll, the attempt site, each charge, each guard
  // hook, fuel quarantine and absorbed faults, at the same points.
  // Its cost is the live nodes plus the recorded attempts and witnesses;
  // root skips are settled per entry at the end of the step.

  static constexpr uint32_t NoError = ~0u;

  /// One witness of a recorded attempt: its guard scan, then the resume
  /// that followed it, if any.
  struct WitnessRec {
    uint32_t GuardEvals = 0; ///< guard evaluations the scan started
    int32_t Rule = -1;       ///< first passing rule; -1 = guard-rejected
    uint32_t GuardError = NoError; ///< the scan's last evaluation threw
    uint32_t Cand = 0;             ///< NodeRec::Cands slot (Rule >= 0)
    bool Resumed = false;
    MachineStatus ResumeStatus = MachineStatus::Failure;
    uint32_t ResumeError = NoError;
    uint64_t DSteps = 0, DMu = 0; ///< the resume's increments
  };

  /// One (node, entry) pair the prefilter admitted.
  struct AttemptRec {
    uint32_t Entry = 0;
    MachineStatus Status = MachineStatus::Failure;
    uint32_t Error = NoError; ///< the match threw
    uint64_t Steps = 0, MuUnfolds = 0, Backtracks = 0;
    double Seconds = 0.0;
    uint32_t WitBegin = 0, WitEnd = 0; ///< into NodeRec::Wits
  };

  /// A recorded candidate: its witness and, once priced at level 1, its
  /// priced outcome with its sweep frontier (fireCandidate's Reads). The
  /// price stands while no commit since PricedAt changed a frontier node
  /// (priceStands).
  struct CandRec {
    match::Witness W;
    ApplyResult Price;
    uint64_t PricedAt = 0; ///< the pricing step; 0 = not priced
    std::vector<NodeId> Reads;
  };

  /// A live node's recorded enumeration. Its buffers keep their capacity
  /// when the node is re-recorded.
  struct NodeRec {
    std::vector<AttemptRec> Atts;
    std::vector<WitnessRec> Wits;
    std::vector<CandRec> Cands;
    uint64_t RecordedAt = 0; ///< the SearchSteps value of the recording
  };

  /// Indexed by NodeId; valid for every live node after refreshRecords.
  std::vector<NodeRec> Recs;
  /// Nodes to re-record (or, when dead, to free) at the next enumeration.
  std::vector<NodeId> Dirty;
  bool AllDirty = true;
  /// Exception texts of recorded throws (the replay's fault messages).
  std::vector<std::string> Errors;
  std::vector<uint8_t> PrefilterMask;
  /// The recording matcher, reused across attempts (match() resets it).
  std::optional<match::FastMatcher> Matcher;
  /// Per-step root-skip settlement: admitted pairs replayed per entry,
  /// and whether the entry's skips are settled (or it is quarantined).
  std::vector<uint64_t> Passed;
  std::vector<uint8_t> Settled;
  uint64_t ReplayVisited = 0; ///< live nodes the current replay reached
  /// Per node: the step of the last commit that changed its user list or
  /// output status (forEachUseChanged; 0 = none).
  std::vector<uint64_t> ChangedAt;
  /// The step's committed candidates and their records (which live in the
  /// per-node cache); buffers reused across steps.
  std::vector<Candidate> Cands;
  std::vector<CandRec *> Wits;

  uint32_t noteError(const char *What) {
    Errors.emplace_back(What);
    return static_cast<uint32_t>(Errors.size() - 1);
  }

  /// The text of the exception in flight.
  static const char *inFlight() {
    try {
      throw;
    } catch (const std::exception &Ex) {
      return Ex.what();
    } catch (...) {
      return "unknown exception";
    }
  }

  /// Records node \p N's enumeration (see above). Converts through the
  /// run's view; a throwing matcher drops the view, which a conversion in
  /// flight may have left partial.
  void recordNode(NodeId N) {
    NodeRec &R = Recs[N];
    R.Atts.clear();
    R.Wits.clear();
    R.Cands.clear();
    R.RecordedAt = Stats.SearchSteps;
    ++Stats.NodesVisited;
    const auto &Entries = Rules.entries();
    const uint8_t *Cand = nullptr;
    if (Plan) {
      Plan->candidates(G, N, PrefilterMask);
      Cand = PrefilterMask.data();
    }
    const unsigned MaxW = std::max(1u, Opts.SearchWitnesses);
    for (size_t I = 0; I != Entries.size(); ++I) {
      // Quarantine is monotone: an entry quarantined now is never
      // replayed again.
      if (Quarantined[I])
        continue;
      if (Cand ? !Cand[I]
               : !RootFilters.empty() &&
                     rootFilteredOut(RootFilters[I], G.op(N)))
        continue;
      const RewriteEntry &E = Entries[I];
      AttemptRec &A = R.Atts.emplace_back();
      A.Entry = static_cast<uint32_t>(I);
      A.WitBegin = A.WitEnd = static_cast<uint32_t>(R.Wits.size());
      double T0 = nowSeconds();
      match::FastMatcher &M = *Matcher;
      try {
        A.Status = M.match(E.Pattern->Pat, View.termFor(N));
      } catch (...) {
        View.invalidate();
        A.Error = noteError(inFlight());
        continue;
      }
      A.Steps = M.stats().Steps;
      A.MuUnfolds = M.stats().MuUnfolds;
      A.Backtracks = M.stats().Backtracks;
      if (A.Status == MachineStatus::Success && !E.Rules.empty())
        for (unsigned WI = 0;; ++WI) {
          WitnessRec &W = R.Wits.emplace_back();
          match::Witness Wit = M.witness();
          try {
            W.Rule = firstPassingRule(E, Wit, Arena, &W.GuardEvals);
          } catch (...) {
            W.GuardError = noteError(inFlight());
            break;
          }
          if (W.Rule >= 0) {
            W.Cand = static_cast<uint32_t>(R.Cands.size());
            R.Cands.emplace_back().W = std::move(Wit);
          }
          if (WI + 1 >= MaxW)
            break;
          W.Resumed = true;
          const uint64_t Steps0 = M.stats().Steps, Mu0 = M.stats().MuUnfolds;
          try {
            W.ResumeStatus = M.resume();
          } catch (...) {
            View.invalidate();
            W.ResumeError = noteError(inFlight());
            break;
          }
          W.DSteps = M.stats().Steps - Steps0;
          W.DMu = M.stats().MuUnfolds - Mu0;
          if (W.ResumeStatus != MachineStatus::Success)
            break;
        }
      A.WitEnd = static_cast<uint32_t>(R.Wits.size());
      A.Seconds = nowSeconds() - T0;
      Stats.MatchSeconds += A.Seconds;
    }
  }

  /// RECORD: brings every live node's record up to date.
  void refreshRecords() {
    if (AllDirty) {
      Recs.clear();
      Dirty.clear();
      for (NodeId N = 0; N < G.numNodes(); ++N)
        if (!G.isDead(N))
          Dirty.push_back(N);
      AllDirty = false;
    }
    Recs.resize(G.numNodes());
    std::sort(Dirty.begin(), Dirty.end());
    Dirty.erase(std::unique(Dirty.begin(), Dirty.end()), Dirty.end());
    for (NodeId N : Dirty) {
      if (G.isDead(N))
        Recs[N] = NodeRec(); // swept: never replayed again
      else
        recordNode(N);
    }
    Dirty.clear();
  }

  /// Adds the root skips of entry \p I over the \p Visited replayed nodes
  /// that reached it while it was live (each was either skipped or one of
  /// the Passed[I] replayed attempts) and closes its settlement for this
  /// step. A PerPattern slot is made only for an entry some node reached.
  void settleRootSkips(size_t I, uint64_t Visited) {
    Settled[I] = 1;
    if (Visited)
      statsFor(I).RootSkips += Visited - Passed[I];
  }

  /// REPLAY of node \p N's record (see above); appends its candidates.
  /// Returns the entry being replayed when the run halted inside the node,
  /// or the entry count when the node completed.
  size_t replayNode(NodeId N, uint64_t Sweep, std::vector<Candidate> &Out,
                    std::vector<CandRec *> &Wits) {
    const auto &Entries = Rules.entries();
    NodeRec &R = Recs[N];
    const bool Fresh = R.RecordedAt == Stats.SearchSteps;
    for (const AttemptRec &A : R.Atts) {
      const size_t I = A.Entry;
      if (Quarantined[I])
        continue;
      replayAttempt(N, A, R, Fresh, Sweep, Out, Wits);
      if (Quarantined[I] && !Settled[I])
        settleRootSkips(I, ReplayVisited);
      if (halted()) // halts happen inside attempts only
        return I;
    }
    return Entries.size();
  }

  /// Replays one recorded attempt of node \p N: the body of the
  /// enumeration's per-entry loop, with the record standing in for the
  /// matcher, the witnesses' guard scans and the resumes.
  void replayAttempt(NodeId N, const AttemptRec &A, NodeRec &R, bool Fresh,
                     uint64_t Sweep, std::vector<Candidate> &Out,
                     std::vector<CandRec *> &Wits) {
    const size_t I = A.Entry;
    ++Passed[I];
    PatternStats &PS = statsFor(I);
    // Nothing converts during a replay, so a fault here leaves the view
    // intact (a recorded throw already dropped it when it happened).
    if (Faults && Faults->atAttemptSite(Sweep, N, I)) {
      onAttemptFault(I, "injected fault: attempt site");
      return;
    }
    if (A.Error != NoError) {
      onAttemptFault(I, Errors[A.Error].c_str());
      return;
    }
    ++PS.Attempts;
    PS.MachineSteps += A.Steps;
    PS.Backtracks += A.Backtracks;
    if (Fresh)
      PS.Seconds += A.Seconds;
    chargeAttempt(A.Steps, A.MuUnfolds);
    if (halted())
      return;
    if (A.Status != MachineStatus::Success) {
      if (A.Status == MachineStatus::OutOfFuel) {
        ++PS.FuelExhausted;
        noteFuelExhaust(I);
      }
      return;
    }
    ++PS.Matches;
    ++Stats.TotalMatches;
    for (uint32_t K = A.WitBegin; K != A.WitEnd; ++K) {
      const WitnessRec &W = R.Wits[K];
      if (Faults) {
        try {
          for (uint32_t GI = 0; GI != W.GuardEvals; ++GI)
            Faults->onGuardEval();
        } catch (...) {
          onAttemptFault(I, inFlight());
          return;
        }
      }
      if (W.GuardError != NoError) {
        onAttemptFault(I, Errors[W.GuardError].c_str());
        return;
      }
      if (W.Rule >= 0) {
        Out.push_back(Candidate{N, static_cast<uint32_t>(I), K - A.WitBegin,
                                static_cast<uint32_t>(W.Rule)});
        Wits.push_back(&R.Cands[W.Cand]);
        ++Stats.SearchCandidates;
      } else {
        ++PS.GuardRejects;
      }
      if (!W.Resumed || halted())
        return;
      if (W.ResumeError != NoError) {
        onAttemptFault(I, Errors[W.ResumeError].c_str());
        return;
      }
      PS.MachineSteps += W.DSteps;
      chargeAttempt(W.DSteps, W.DMu);
      if (W.ResumeStatus != MachineStatus::Success) {
        if (W.ResumeStatus == MachineStatus::OutOfFuel) {
          ++PS.FuelExhausted;
          noteFuelExhaust(I);
        }
        return;
      }
    }
  }

  /// Phase 1 (see file header): the committed candidates of this step, in
  /// canonical order, with their witnesses.
  void enumerateCommitted(std::vector<Candidate> &Out,
                          std::vector<CandRec *> &Wits) {
    refreshRecords();
    const size_t NumEntries = Rules.entries().size();
    const uint64_t Sweep = Stats.SearchSteps - 1; // fault-site "pass" id
    Passed.assign(NumEntries, 0);
    Settled.assign(Quarantined.begin(), Quarantined.end());
    ReplayVisited = 0;
    size_t HaltEntry = NumEntries;
    for (NodeId N = 0; N < G.numNodes(); ++N) {
      if (G.isDead(N))
        continue;
      if (shouldStop())
        break;
      ++ReplayVisited;
      HaltEntry = replayNode(N, Sweep, Out, Wits);
      if (HaltEntry != NumEntries)
        break;
    }
    // A halt inside a node stopped it after entry HaltEntry: later entries
    // never reached that node.
    for (size_t I = 0; I != NumEntries; ++I)
      if (!Settled[I])
        settleRootSkips(I, ReplayVisited - (I > HaltEntry));
  }

  /// Phase 2: speculative expansion + ranking. Returns the index of the
  /// level-0 candidate to commit, or nullopt when nothing could build.
  std::optional<uint32_t> selectCandidate(const std::vector<Candidate> &L0,
                                          const std::vector<CandRec *> &W0) {
    const bool Beam = Opts.Search == SearchStrategy::Beam;
    const size_t ExpandN =
        Beam ? L0.size() : std::min<size_t>(Opts.BeamWidth, L0.size());

    // Level 1: apply, price and roll back each expanded candidate on the
    // subject.
    std::vector<BeamState> States;
    for (size_t K = 0; K != ExpandN; ++K) {
      const ApplyResult &R = price(L0[K], *W0[K]);
      if (!R.Applied)
        continue;
      BeamState S;
      S.FirstCand = static_cast<uint32_t>(K);
      S.Cost = RunningCost + R.CostDelta;
      States.push_back(std::move(S));
    }
    if (States.empty())
      return std::nullopt;
    prune(States);
    if (Opts.Lookahead >= 2)
      materialize(States, [&](const BeamState &S) {
        return branchOf(G, View, L0[S.FirstCand], W0[S.FirstCand]->W);
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

  /// Level-1 price of candidate \p C: the recorded one while it stands,
  /// else a speculative fire on the subject, recorded with what it read.
  /// Only a fire whose sweep was local is recorded (a global sweep reads
  /// every node).
  const ApplyResult &price(const Candidate &C, CandRec &CR) {
    if (CR.PricedAt && priceStands(CR))
      return CR.Price;
    const bool Local = G.sweptClean();
    CR.Reads.clear();
    CR.Price = speculateCandidate(G, Undo, View, C, CR.W, Rules, SI, CM,
                                  Local ? &CR.Reads : nullptr);
    CR.PricedAt = Local && CR.Price.Applied ? Stats.SearchSteps : 0;
    ++Stats.SearchExpansions;
    return CR.Price;
  }

  /// A price recorded at step t stands while no commit of step t or later
  /// changed a node it read (see DESIGN.md §"Cost-directed search").
  bool priceStands(const CandRec &CR) const {
    for (NodeId N : CR.Reads)
      if (N < ChangedAt.size() && ChangedAt[N] >= CR.PricedAt)
        return false;
    return true;
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
    // The nodes whose records the commit made stale: the closure (changed
    // unrollings), the appended nodes (no record yet) and the swept ones
    // (freed at the next enumeration).
    Dirty.insert(Dirty.end(), F.Closure.begin(), F.Closure.end());
    for (NodeId N = F.NewBegin; N < F.NewEnd; ++N)
      Dirty.push_back(N);
    Dirty.insert(Dirty.end(), F.Swept.begin(), F.Swept.end());
    ChangedAt.resize(G.numNodes(), 0);
    forEachUseChanged(G, F, R.Replacement,
                      [&](NodeId N) { ChangedAt[N] = Stats.SearchSteps; });
    noteCommit(C, R);
    return true;
  }

  /// Transactional rollback of a failed commit: the partial build only
  /// appended nodes nothing references, so a global sweep restores the
  /// last committed state. The sweep may kill memoized nodes, so the view
  /// is dropped, and every record is redone at the next enumeration (not
  /// here: the step's witnesses live in the records).
  void rollbackPartialBuild() {
    G.removeUnreachable();
    Stats.SweepVisits += G.numNodes();
    View.invalidate();
    AllDirty = true;
  }

  /// Greedy fallback when no scored candidate could build: fire the first
  /// candidate (canonical order) that applies. Returns false at fixpoint.
  bool commitFirstBuildable(const std::vector<Candidate> &Cands,
                            const std::vector<CandRec *> &Wits) {
    for (size_t I = 0; I != Cands.size(); ++I) {
      if (halted())
        return false;
      if (commit(Cands[I], Wits[I]->W))
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
