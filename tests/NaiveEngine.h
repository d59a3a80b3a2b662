//===- tests/NaiveEngine.h - Naive reference rewriter -----------*- C++ -*-===//
///
/// \file
/// A deliberately naive greedy rewriter built only from public API — the
/// ground truth the optimized engine modes are differentially checked
/// against. It follows §2.4 literally: visit the live nodes in canonical
/// order, try the patterns in order, fire the first rule whose guard
/// passes. After every fire it redirects with Graph::replaceAllUses, runs
/// the global Graph::removeUnreachable sweep and drops the whole term view
/// (TermView::invalidate), so nothing it computes can be stale. No commit
/// footprint, no parallel discovery.
///
/// It reproduces the engine's governance contract (budget charging,
/// quarantine, absorbed faults, MaxRewrites) so governed runs are
/// comparable too, and it uses the same matchers per attempt (FastMatcher
/// behind the root-operator prefilter, or the reference Machine), so every
/// RewriteStats counter is comparable with the engine's Fast and Machine
/// modes — attempt-shaped counters included. Plan-family modes compare on
/// the committed rewrites only (see expectSameRewrites). Its
/// ViewConversions and SweepVisits are the naive costs the engine's work
/// gates are measured against.
///
/// NaiveSearch is the same kind of reference for the cost-directed search
/// at Lookahead 1: a full governed enumeration every step and a fresh
/// copy per priced candidate. Both share NaiveGovernance.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_TESTS_NAIVEENGINE_H
#define PYPM_TESTS_NAIVEENGINE_H

#include "graph/Graph.h"
#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "match/FastMatcher.h"
#include "match/Machine.h"
#include "match/Subst.h"
#include "pattern/Pattern.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "search/Search.h"
#include "sim/CostModel.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace pypm::testing {

/// The governance contract both naive references keep, as the engine
/// and the search do: pre-quarantined entries, the budget's per-node poll
/// and per-attempt charges (the injector may trip a charge), fuel
/// quarantine, and absorbed faults that quarantine or halt.
class NaiveGovernance {
public:
  /// Possible root operators of a pattern; nullopt = any.
  static std::optional<std::set<term::OpId>>
  rootOps(const pattern::Pattern *P) {
    using namespace pattern;
    switch (P->kind()) {
    case PatternKind::App:
      return std::set<term::OpId>{cast<AppPattern>(P)->op()};
    case PatternKind::Alt: {
      auto L = rootOps(cast<AltPattern>(P)->left());
      auto R = rootOps(cast<AltPattern>(P)->right());
      if (!L || !R)
        return std::nullopt;
      L->insert(R->begin(), R->end());
      return L;
    }
    case PatternKind::Guarded:
      return rootOps(cast<GuardedPattern>(P)->sub());
    case PatternKind::Exists:
      return rootOps(cast<ExistsPattern>(P)->sub());
    case PatternKind::ExistsFun:
      return rootOps(cast<ExistsFunPattern>(P)->sub());
    case PatternKind::MatchConstraint:
      return rootOps(cast<MatchConstraintPattern>(P)->sub());
    case PatternKind::Mu:
      return rootOps(cast<MuPattern>(P)->body());
    default:
      return std::nullopt;
    }
  }

protected:
  NaiveGovernance(graph::Graph &G, const rewrite::RuleSet &Rules,
                  rewrite::RewriteOptions Opts)
      : G(G), Rules(Rules), Opts(Opts) {}

  graph::Graph &G;
  const rewrite::RuleSet &Rules;
  rewrite::RewriteOptions Opts;
  rewrite::RewriteStats Stats;
  Budget *Bgt = nullptr;
  FaultInjector *Faults = nullptr;
  BudgetReason Stop = BudgetReason::None;
  std::vector<uint8_t> Quarantined;
  std::vector<uint32_t> FuelExhausts;

  /// Applies PreQuarantined, starts the budget (handing it to the
  /// matchers for deadline polls) and picks the fault injector.
  void startGovernance() {
    const auto &Entries = Rules.entries();
    Quarantined.assign(Entries.size(), 0);
    FuelExhausts.assign(Entries.size(), 0);
    if (Opts.PreQuarantined)
      for (const std::string &Name : *Opts.PreQuarantined)
        for (size_t I = 0; I != Entries.size(); ++I)
          if (entryName(I) == Name)
            Quarantined[I] = 1;
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      Opts.MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();
  }

  std::string entryName(size_t I) const {
    return std::string(Rules.entries()[I].Pattern->Name.str());
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
    if (Bgt) {
      BudgetReason R = Bgt->poll(G.approxMemoryBytes());
      if (R != BudgetReason::None)
        halt(R);
    }
    return halted();
  }

  void charge(uint64_t Steps, uint64_t MuUnfolds) {
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

  void quarantine(size_t I) {
    if (Quarantined[I])
      return;
    Quarantined[I] = 1;
    Stats.Status.QuarantinedPatterns.push_back(entryName(I));
    Stats.Status.raise(EngineStatusCode::PatternQuarantined);
  }

  void absorbFault(size_t I) {
    ++Stats.Status.FaultsAbsorbed;
    Stats.Status.raise(EngineStatusCode::FaultInjected);
    if (Opts.HaltOnFault)
      halt(BudgetReason::Fault);
    else
      quarantine(I);
  }

  void noteOutOfFuel(size_t I, rewrite::PatternStats &PS) {
    ++PS.FuelExhausted;
    if (Opts.QuarantineThreshold &&
        ++FuelExhausts[I] >= Opts.QuarantineThreshold)
      quarantine(I);
  }
};

class NaiveEngine : NaiveGovernance {
public:
  /// \p Opts: honors MaxPasses, MaxRewrites, UseRootIndex, Order,
  /// MachineOpts, EngineBudget, QuarantineThreshold, Faults, HaltOnFault,
  /// PreQuarantined, and the Machine/Fast matcher choice. Plan-family
  /// matchers run as Fast; everything else is ignored.
  NaiveEngine(graph::Graph &G, const rewrite::RuleSet &Rules,
              const graph::ShapeInference &SI, rewrite::RewriteOptions Opts)
      : NaiveGovernance(G, Rules, Opts), SI(SI), Arena(G.signature()),
        View(G, Arena) {}

  rewrite::RewriteStats run() {
    startGovernance();
    for (const rewrite::RewriteEntry &E : Rules.entries())
      RootOps.push_back(rootOps(E.Pattern->Pat));

    bool Changed = true;
    while (Changed && Stats.Passes < Opts.MaxPasses && !halted()) {
      Changed = false;
      ++Stats.Passes;
      std::vector<graph::NodeId> Order;
      if (Opts.Order == rewrite::Traversal::RootsFirst) {
        Order = G.topoOrder();
        std::reverse(Order.begin(), Order.end());
      }
      const bool Ascending = Opts.Order == rewrite::Traversal::OperandsFirst;
      // Ascending ids pick up nodes appended mid-pass; RootsFirst walks
      // its pass-start snapshot.
      for (size_t K = 0; K < (Ascending ? G.numNodes() : Order.size());
           ++K) {
        graph::NodeId N = Ascending ? static_cast<graph::NodeId>(K)
                                    : Order[K];
        if (G.isDead(N))
          continue;
        if (shouldStop())
          break;
        ++Stats.NodesVisited;
        if (visit(N))
          Changed = true;
      }
    }
    resync();
    Stats.ViewConversions = View.conversions();
    return std::move(Stats);
  }

private:
  const graph::ShapeInference &SI;
  term::TermArena Arena;
  graph::TermView View;
  std::vector<std::optional<std::set<term::OpId>>> RootOps;

  /// Full rebuild after any mutation: global sweep, empty view.
  void resync() {
    Stats.NodesSwept += G.removeUnreachable();
    Stats.SweepVisits += G.numNodes();
    View.invalidate();
  }

  match::MatchResult attempt(size_t I, graph::NodeId N) {
    const pattern::Pattern *P = Rules.entries()[I].Pattern->Pat;
    if (Faults && Faults->atAttemptSite(Stats.Passes, N, I))
      throw InjectedFault("injected fault: attempt site");
    term::TermRef T = View.termFor(N);
    if (Opts.matcher() == rewrite::MatcherKind::Machine)
      return match::matchPattern(P, T, Arena, Opts.MachineOpts);
    return match::FastMatcher::run(P, T, Arena, Opts.MachineOpts);
  }

  bool visit(graph::NodeId N) {
    const auto &Entries = Rules.entries();
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (halted())
        return false;
      if (Quarantined[I])
        continue;
      const rewrite::RewriteEntry &E = Entries[I];
      rewrite::PatternStats &PS = Stats.PerPattern[entryName(I)];
      if (Opts.UseRootIndex && RootOps[I] && !RootOps[I]->count(G.op(N))) {
        ++PS.RootSkips;
        continue;
      }
      match::MatchResult MR{};
      try {
        MR = attempt(I, N);
      } catch (...) {
        View.invalidate();
        absorbFault(I);
        continue;
      }
      ++PS.Attempts;
      PS.MachineSteps += MR.Stats.Steps;
      PS.Backtracks += MR.Stats.Backtracks;
      charge(MR.Stats.Steps, MR.Stats.MuUnfolds);
      if (MR.Status != match::MachineStatus::Success) {
        if (MR.Status == match::MachineStatus::OutOfFuel)
          noteOutOfFuel(I, PS);
        continue;
      }
      ++PS.Matches;
      ++Stats.TotalMatches;
      if (E.Rules.empty())
        continue;
      if (halted())
        return false;
      bool Fired;
      try {
        Fired = fire(N, E, MR.W);
      } catch (...) {
        resync();
        absorbFault(I);
        continue;
      }
      if (Fired) {
        ++PS.RulesFired;
        ++Stats.TotalFired;
        if (Stats.TotalFired >= Opts.MaxRewrites)
          halt(BudgetReason::Rewrites);
        return true;
      }
      ++PS.GuardRejects;
    }
    return false;
  }

  bool fire(graph::NodeId N, const rewrite::RewriteEntry &E,
            const match::Witness &W) {
    match::SubstEnv Env(W.Theta, W.Phi, Arena);
    for (const pattern::RewriteRule *R : E.Rules) {
      if (R->Guard) {
        if (Faults)
          Faults->onGuardEval();
        if (!R->Guard->evalBool(Env).truthy())
          continue;
      }
      graph::NodeId FirstNew = static_cast<graph::NodeId>(G.numNodes());
      graph::NodeId Rep =
          rewrite::buildRhs(G, View, R->Rhs, W, SI, Faults);
      if (Rep == graph::InvalidNode)
        continue;
      G.replaceAllUses(N, Rep, FirstNew);
      resync();
      return true;
    }
    return false;
  }
};

/// A deliberately naive Lookahead-1 cost-directed search — the ground truth
/// for search::searchRewrite's Beam and BestOfN at Lookahead 1. Every step
/// it re-enumerates every live node from a fresh term view, under the
/// search's governance contract (per-node poll, attempt sites, budget
/// charges per attempt and per resume, guard hooks per guard evaluation,
/// fuel quarantine, absorbed faults), with the search's prefilter (the
/// plan's discrimination tree under Plan, the root-operator sets
/// otherwise). It prices each expanded candidate with search::applyCandidate
/// on a fresh copy of the graph, picks the cheapest by a stable sort
/// (ties keep canonical order), and commits it with applyCandidate on the
/// graph itself, faults armed. Nothing carries over between steps but the
/// graph and the governed state, so every RewriteStats counter except the
/// work counters (NodesVisited, ViewConversions, SweepVisits,
/// FootprintNodes, SearchExpansions, SearchGraphCopies) and timings is
/// comparable with the search's.
class NaiveSearch : NaiveGovernance {
public:
  NaiveSearch(graph::Graph &G, const rewrite::RuleSet &Rules,
              const graph::ShapeInference &SI, rewrite::RewriteOptions Opts)
      : NaiveGovernance(G, Rules, Opts), SI(SI),
        CM(Opts.SearchCost ? *Opts.SearchCost : OwnedCM) {}

  /// Candidates of the first step, and of the later steps those at a node
  /// whose unrolling changed since the previous step (or that is new) —
  /// the candidates an enumeration that re-matches only what each commit
  /// changed finds afresh.
  uint64_t firstStepCandidates() const { return FirstStepCandidates; }
  uint64_t dirtyNodeCandidates() const { return DirtyNodeCandidates; }
  /// Expanded candidates of the later steps at an unchanged node whose
  /// price cannot be reused: never priced, priced through a global sweep
  /// or unbuildable, or a commit since its pricing changed the user list
  /// or output status of a node on its sweep frontier (search::
  /// applyCandidate's Reads). Touched nodes are read off the graph before
  /// and after each commit: its root and replacement, and the inputs of
  /// the nodes it swept and appended.
  uint64_t stalePriceCandidates() const { return StalePriceCandidates; }

  rewrite::RewriteStats run() {
    startGovernance();
    if (Opts.UseRootIndex) {
      if (Opts.matcher() == rewrite::MatcherKind::Plan)
        Plan = plan::PlanBuilder::compile(Rules, G.signature());
      else
        for (const rewrite::RewriteEntry &E : Rules.entries())
          RootOps.push_back(rootOps(E.Pattern->Pat));
    }

    StartsOrphanFree = orphanFree();
    Stats.ModeledCostBefore = CM.graphCost(G).Seconds;
    double RunningCost = Stats.ModeledCostBefore;
    while (!halted()) {
      ++Stats.Passes;
      ++Stats.SearchSteps;
      std::vector<search::Candidate> Cands = enumerate();
      if (halted() || Cands.empty())
        break;
      const uint64_t Step = Stats.SearchSteps;
      DirtyAt.resize(G.numNodes(), 0);
      for (graph::NodeId N = 0; N != Terms.size(); ++N)
        if (Terms[N] && (N >= PrevTerms.size() || PrevTerms[N] != Terms[N]))
          DirtyAt[N] = Step;
      PrevTerms = Terms;
      if (Step == 1)
        FirstStepCandidates = Cands.size();
      else
        for (const search::Candidate &C : Cands)
          DirtyNodeCandidates += DirtyAt[C.Node] == Step;
      // Price the expanded candidates, each on its own fresh copy.
      const size_t ExpandN =
          Opts.Search == rewrite::SearchStrategy::Beam
              ? Cands.size()
              : std::min<size_t>(Opts.BeamWidth, Cands.size());
      std::vector<std::pair<double, size_t>> Priced;
      for (size_t K = 0; K != ExpandN; ++K) {
        graph::Graph Copy(G);
        // The search starts from a graph it knows is fully swept when a
        // sweep would change nothing, so step-1 fires sweep locally there.
        // From the first commit on, every graph has just been swept.
        const bool Local =
            Copy.sweptClean() || (Step == 1 && StartsOrphanFree);
        std::vector<graph::NodeId> Reads;
        search::ApplyResult R;
        try {
          R = search::applyCandidate(Copy, Cands[K], Rules, SI, CM,
                                     Opts.MachineOpts, nullptr,
                                     Local ? &Reads : nullptr);
        } catch (...) {
        }
        notePrice(Cands[K], Local && R.Applied, std::move(Reads));
        if (R.Applied)
          Priced.push_back({RunningCost + R.CostDelta, K});
      }
      std::stable_sort(Priced.begin(), Priced.end(),
                       [](const auto &A, const auto &B) {
                         return A.first < B.first;
                       });
      if (Priced.empty()) {
        // Nothing priced could build: the first buildable candidate in
        // canonical order commits instead.
        bool Committed = false;
        for (const search::Candidate &C : Cands) {
          if (halted())
            break;
          if (commit(C, RunningCost)) {
            Committed = true;
            break;
          }
          if (halted())
            break;
        }
        if (!Committed)
          break;
        continue;
      }
      if (!commit(Cands[Priced.front().second], RunningCost))
        continue;
      if (Stats.TotalFired >= Opts.MaxRewrites) {
        halt(BudgetReason::Rewrites);
        break;
      }
    }
    Stats.ModeledCostAfter = CM.graphCost(G).Seconds;
    return std::move(Stats);
  }

private:
  const graph::ShapeInference &SI;
  sim::CostModel OwnedCM;
  const sim::CostModel &CM;
  std::optional<plan::Program> Plan;
  std::vector<std::optional<std::set<term::OpId>>> RootOps;
  /// One arena for the whole run, so a node's term from one step's view
  /// compares with the next step's; Terms is the step's node → term (null
  /// where nothing was attempted).
  std::optional<term::TermArena> Arena;
  std::vector<term::TermRef> Terms, PrevTerms;
  /// Per node: the last step its term changed at, and the last step a
  /// commit touched its user list or output status.
  std::vector<uint64_t> DirtyAt, TouchedAt;
  struct KeptPrice {
    uint64_t At;
    std::vector<graph::NodeId> Reads;
  };
  std::map<std::tuple<graph::NodeId, uint32_t, uint32_t>, KeptPrice> Kept;
  uint64_t FirstStepCandidates = 0, DirtyNodeCandidates = 0,
           StalePriceCandidates = 0;
  bool StartsOrphanFree = false;

  /// True when a sweep of G would change nothing: every live node is
  /// reachable from the outputs and no user list names a dead node.
  bool orphanFree() const {
    std::vector<uint8_t> Reached(G.numNodes(), 0);
    std::vector<graph::NodeId> Stack(G.outputs().begin(), G.outputs().end());
    while (!Stack.empty()) {
      graph::NodeId N = Stack.back();
      Stack.pop_back();
      if (!Reached[N]) {
        Reached[N] = 1;
        Stack.insert(Stack.end(), G.inputs(N).begin(), G.inputs(N).end());
      }
    }
    for (graph::NodeId N = 0; N != G.numNodes(); ++N) {
      if (!G.isDead(N) && !Reached[N])
        return false;
      for (graph::NodeId U : G.users(N))
        if (G.isDead(U))
          return false;
    }
    return true;
  }

  /// Classifies the pricing of \p C at this step (see
  /// stalePriceCandidates) and keeps a keepable price.
  void notePrice(const search::Candidate &C, bool Keepable,
                 std::vector<graph::NodeId> Reads) {
    const uint64_t Step = Stats.SearchSteps;
    auto Key = std::make_tuple(C.Node, C.Entry, C.WitnessIdx);
    auto It = Kept.find(Key);
    bool Stands = It != Kept.end() && DirtyAt[C.Node] <= It->second.At;
    if (Stands)
      for (graph::NodeId N : It->second.Reads)
        Stands &= N >= TouchedAt.size() || TouchedAt[N] < It->second.At;
    if (Stands)
      return;
    if (Step > 1 && DirtyAt[C.Node] != Step)
      ++StalePriceCandidates;
    if (Keepable)
      Kept[Key] = {Step, std::move(Reads)};
    else
      Kept.erase(Key);
  }

  bool prefilteredOut(size_t I, graph::NodeId N,
                      const std::vector<uint8_t> &Mask) const {
    if (Plan)
      return !Mask[I];
    return !RootOps.empty() && RootOps[I] && !RootOps[I]->count(G.op(N));
  }

  /// One governed enumeration over every live node, from a fresh view.
  std::vector<search::Candidate> enumerate() {
    std::vector<search::Candidate> Out;
    const auto &Entries = Rules.entries();
    const uint64_t Sweep = Stats.SearchSteps - 1;
    if (!Arena)
      Arena.emplace(G.signature());
    graph::TermView View(G, *Arena);
    Terms.assign(G.numNodes(), nullptr);
    std::vector<uint8_t> Mask;
    for (graph::NodeId N = 0; N < G.numNodes(); ++N) {
      if (G.isDead(N))
        continue;
      if (shouldStop())
        return Out;
      if (Plan)
        Plan->candidates(G, N, Mask);
      for (size_t I = 0; I != Entries.size(); ++I) {
        if (halted())
          return Out;
        if (Quarantined[I])
          continue;
        const rewrite::RewriteEntry &E = Entries[I];
        rewrite::PatternStats &PS = Stats.PerPattern[entryName(I)];
        if (prefilteredOut(I, N, Mask)) {
          ++PS.RootSkips;
          continue;
        }
        match::FastMatcher M(*Arena, Opts.MachineOpts);
        match::MachineStatus S;
        try {
          if (Faults && Faults->atAttemptSite(Sweep, N, I))
            throw InjectedFault("injected fault: attempt site");
          Terms[N] = View.termFor(N);
          S = M.match(E.Pattern->Pat, Terms[N]);
        } catch (...) {
          absorbFault(I);
          continue;
        }
        ++PS.Attempts;
        uint64_t Steps = M.stats().Steps, Mu = M.stats().MuUnfolds;
        PS.MachineSteps += Steps;
        PS.Backtracks += M.stats().Backtracks;
        charge(Steps, Mu);
        if (halted())
          return Out;
        if (S != match::MachineStatus::Success) {
          if (S == match::MachineStatus::OutOfFuel)
            noteOutOfFuel(I, PS);
          continue;
        }
        ++PS.Matches;
        ++Stats.TotalMatches;
        if (E.Rules.empty())
          continue;
        const unsigned MaxW = std::max(1u, Opts.SearchWitnesses);
        for (unsigned WI = 0;; ++WI) {
          match::Witness W = M.witness();
          int Rule = -1;
          try {
            match::SubstEnv Env(W.Theta, W.Phi, *Arena);
            for (size_t RI = 0; RI != E.Rules.size() && Rule < 0; ++RI) {
              const pattern::GuardExpr *Gd = E.Rules[RI]->Guard;
              if (Gd) {
                if (Faults)
                  Faults->onGuardEval();
                if (!Gd->evalBool(Env).truthy())
                  continue;
              }
              Rule = static_cast<int>(RI);
            }
          } catch (...) {
            absorbFault(I);
            break;
          }
          if (Rule >= 0) {
            Out.push_back(search::Candidate{N, static_cast<uint32_t>(I), WI,
                                            static_cast<uint32_t>(Rule)});
            ++Stats.SearchCandidates;
          } else {
            ++PS.GuardRejects;
          }
          if (WI + 1 >= MaxW || halted())
            break;
          try {
            S = M.resume();
          } catch (...) {
            absorbFault(I);
            break;
          }
          uint64_t DSteps = M.stats().Steps - Steps;
          uint64_t DMu = M.stats().MuUnfolds - Mu;
          Steps = M.stats().Steps;
          Mu = M.stats().MuUnfolds;
          PS.MachineSteps += DSteps;
          charge(DSteps, DMu);
          if (S != match::MachineStatus::Success) {
            if (S == match::MachineStatus::OutOfFuel)
              noteOutOfFuel(I, PS);
            break;
          }
        }
      }
    }
    return Out;
  }

  /// Fires \p C on the graph itself, faults armed; a throwing or
  /// unbuildable fire leaves the graph as it was.
  bool commit(const search::Candidate &C, double &RunningCost) {
    std::vector<uint8_t> LiveBefore(G.numNodes());
    for (graph::NodeId N = 0; N != G.numNodes(); ++N)
      LiveBefore[N] = !G.isDead(N);
    const graph::NodeId Slots = static_cast<graph::NodeId>(G.numNodes());
    search::ApplyResult R;
    try {
      R = search::applyCandidate(G, C, Rules, SI, CM, Opts.MachineOpts,
                                 Faults);
    } catch (...) {
      absorbFault(C.Entry);
      return false;
    }
    if (!R.Applied)
      return false;
    TouchedAt.resize(G.numNodes(), 0);
    TouchedAt[C.Node] = TouchedAt[R.Replacement] = Stats.SearchSteps;
    for (graph::NodeId N = 0; N != G.numNodes(); ++N)
      if (N >= Slots || (LiveBefore[N] && G.isDead(N)))
        for (graph::NodeId In : G.inputs(N))
          TouchedAt[In] = Stats.SearchSteps;
    ++Stats.PerPattern[entryName(C.Entry)].RulesFired;
    ++Stats.TotalFired;
    Stats.NodesSwept += R.Swept;
    RunningCost += R.CostDelta;
    return true;
  }
};

/// Runs the naive reference search over \p G (see NaiveSearch).
inline rewrite::RewriteStats naiveSearchRewrite(
    graph::Graph &G, const rewrite::RuleSet &Rules,
    const graph::ShapeInference &SI, rewrite::RewriteOptions Opts = {}) {
  return NaiveSearch(G, Rules, SI, Opts).run();
}

/// Runs the naive reference over \p G (see NaiveEngine).
inline rewrite::RewriteStats naiveRewrite(graph::Graph &G,
                                          const rewrite::RuleSet &Rules,
                                          const graph::ShapeInference &SI,
                                          rewrite::RewriteOptions Opts = {}) {
  return NaiveEngine(G, Rules, SI, Opts).run();
}

} // namespace pypm::testing

#endif // PYPM_TESTS_NAIVEENGINE_H
