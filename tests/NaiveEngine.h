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
#include "rewrite/RewriteEngine.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pypm::testing {

class NaiveEngine {
public:
  /// \p Opts: honors MaxPasses, MaxRewrites, UseRootIndex, Order,
  /// MachineOpts, EngineBudget, QuarantineThreshold, Faults, HaltOnFault,
  /// PreQuarantined, and the Machine/Fast matcher choice. Plan-family
  /// matchers run as Fast; everything else is ignored.
  NaiveEngine(graph::Graph &G, const rewrite::RuleSet &Rules,
              const graph::ShapeInference &SI, rewrite::RewriteOptions Opts)
      : G(G), Rules(Rules), SI(SI), Opts(Opts), Arena(G.signature()),
        View(G, Arena) {}

  rewrite::RewriteStats run() {
    const auto &Entries = Rules.entries();
    Quarantined.assign(Entries.size(), 0);
    FuelExhausts.assign(Entries.size(), 0);
    if (Opts.PreQuarantined)
      for (const std::string &Name : *Opts.PreQuarantined)
        for (size_t I = 0; I != Entries.size(); ++I)
          if (entryName(I) == Name)
            Quarantined[I] = 1;
    for (const rewrite::RewriteEntry &E : Entries)
      RootOps.push_back(rootOps(E.Pattern->Pat));
    Bgt = Opts.EngineBudget;
    if (Bgt) {
      Bgt->start();
      Opts.MachineOpts.EngineBudget = Bgt;
    }
    Faults = Opts.Faults ? Opts.Faults : FaultInjector::global();

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
  graph::Graph &G;
  const rewrite::RuleSet &Rules;
  const graph::ShapeInference &SI;
  rewrite::RewriteOptions Opts;
  term::TermArena Arena;
  graph::TermView View;
  rewrite::RewriteStats Stats;
  Budget *Bgt = nullptr;
  FaultInjector *Faults = nullptr;
  BudgetReason Stop = BudgetReason::None;
  std::vector<uint8_t> Quarantined;
  std::vector<uint32_t> FuelExhausts;
  std::vector<std::optional<std::set<term::OpId>>> RootOps;

  std::string entryName(size_t I) const {
    return std::string(Rules.entries()[I].Pattern->Name.str());
  }

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
        if (MR.Status == match::MachineStatus::OutOfFuel) {
          ++PS.FuelExhausted;
          if (Opts.QuarantineThreshold &&
              ++FuelExhausts[I] >= Opts.QuarantineThreshold)
            quarantine(I);
        }
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

/// Runs the naive reference over \p G (see NaiveEngine).
inline rewrite::RewriteStats naiveRewrite(graph::Graph &G,
                                          const rewrite::RuleSet &Rules,
                                          const graph::ShapeInference &SI,
                                          rewrite::RewriteOptions Opts = {}) {
  return NaiveEngine(G, Rules, SI, Opts).run();
}

} // namespace pypm::testing

#endif // PYPM_TESTS_NAIVEENGINE_H
