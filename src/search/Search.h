//===- search/Search.h - Cost-directed rewrite search -----------*- C++ -*-===//
///
/// \file
/// Cost-directed commit selection: instead of firing the first witness in
/// canonical order (§2.4's greedy strategy), enumerate every fireable
/// candidate per sweep — competing matches over overlapping regions,
/// including alternate witnesses of the same pattern via the resume
/// machinery — price each candidate commit sequence with sim::CostModel,
/// and commit the sequence the model prefers. This generalizes the
/// paper's §4.2 partitioning use case (price alternatives, pick the
/// cheapest) into a rewrite strategy: pass selection over a graph is
/// itself an optimization problem (PassNet), and fused-kernel candidates
/// are competing artifacts to be scored, not applied in discovery order
/// (FACT).
///
/// Two strategies over one machinery (RewriteOptions::Search):
///  - BestOfN: per step, score the first BeamWidth candidates (each
///    rolled forward Lookahead-1 greedy steps) and commit the cheapest;
///  - Beam: keep the BeamWidth cheapest partial commit sequences, expand
///    to depth Lookahead, commit the winner's first step (receding
///    horizon), re-enumerate, repeat.
///
/// Speculation is apply-and-roll-back: a candidate is priced by firing it
/// on the subject graph inside an exact undo scope (Graph::checkpoint /
/// rollback) and rolling it back — no graph is cloned per candidate. The
/// run keeps one incremental term view: commits invalidate it by
/// footprint, and speculation only reads it, resolving each witness
/// through the view's rooted resolution (TermView::nodeFor(t, root)),
/// which answers exactly what a view converted cold from the candidate's
/// root would. Each step re-enumerates only the nodes the last commit
/// changed and replays every other node's recorded enumeration through
/// the governed state; a level-1 price is reused while no commit touches
/// its sweep frontier. Determinism at any NumThreads: the committed path
/// (enumeration, budget charges, quarantine counts, fault sites, the
/// commits themselves) and level-1 pricing on the subject are strictly
/// serial in canonical candidate order; pool workers only expand the
/// Lookahead >= 2 survivors — each on its own copy — and their results
/// merge by state index. See DESIGN.md §"Cost-directed search".
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SEARCH_SEARCH_H
#define PYPM_SEARCH_SEARCH_H

#include "graph/Graph.h"
#include "graph/ShapeInference.h"
#include "graph/TermView.h"
#include "match/Machine.h"
#include "rewrite/RewriteEngine.h"
#include "rewrite/Rule.h"
#include "sim/CostModel.h"

#include <vector>

namespace pypm::search {

/// One fireable rewrite on a specific graph state, identified positionally
/// so it can be re-derived on any structurally identical graph (a copy):
/// match entry \p Entry at node \p Node, resume to witness \p WitnessIdx,
/// fire rule \p Rule (the first of the entry's rules whose guard passes
/// under that witness). Candidates are enumerated — and therefore ranked
/// on cost ties — in the canonical order (Node asc, Entry asc, WitnessIdx
/// asc), which makes every selection deterministic.
struct Candidate {
  graph::NodeId Node = graph::InvalidNode;
  uint32_t Entry = 0;
  uint32_t WitnessIdx = 0;
  uint32_t Rule = 0;
};

/// Knobs for the hermetic enumerator (the committed-path enumeration
/// inside searchRewrite carries budget/fault/quarantine state instead).
struct EnumOptions {
  match::Machine::Options MachineOpts;
  /// Witnesses tried per (node, entry) via resume; greedy sees only 0.
  unsigned MaxWitnesses = 4;
  /// Per-entry skip mask (quarantine view); null skips nothing.
  const std::vector<uint8_t> *SkipEntry = nullptr;
};

/// Enumerates every fireable candidate on \p G in canonical order.
/// Hermetic: no budget charges, no fault-injector consultation, no stats
/// — safe for speculative rollouts and for the exhaustive test oracle
/// (tests/TestHelpers.h exhaustiveOptimum) to share the engine's exact
/// notion of "available move". Guards that throw discard that rule.
std::vector<Candidate> enumerateCandidates(const graph::Graph &G,
                                           const rewrite::RuleSet &Rules,
                                           const EnumOptions &EO = {});

/// The same enumeration on View's graph through \p View (converting as
/// needed), appending each candidate to \p Out and its witness — terms of
/// View's arena — to \p Wits, for fireCandidate/speculateCandidate.
void enumerateCandidates(graph::TermView &View, const rewrite::RuleSet &Rules,
                         const EnumOptions &EO, std::vector<Candidate> &Out,
                         std::vector<match::Witness> &Wits);

struct ApplyResult {
  bool Applied = false;
  /// sim::CostModel::commitDelta of this commit (Seconds added minus
  /// Seconds freed); graphCost(after) == graphCost(before) + CostDelta.
  double CostDelta = 0.0;
  uint64_t Swept = 0;
  graph::NodeId Replacement = graph::InvalidNode;
};

/// Re-derives \p C's witness on \p G — which must be structurally
/// identical to the graph it was enumerated on, e.g. a copy — and fires
/// it: build the RHS, redirect uses, sweep, delta-cost. Self-contained
/// (private arena/view/matcher), so concurrent calls on distinct graphs
/// are safe; the search loop does not use it (critical-pair analysis and
/// the test oracles do). \p Faults is consulted per guard evaluation and
/// per RHS node built (the committed path passes the run's injector;
/// speculation passes nullptr — speculation is hermetic by contract).
/// Exceptions from guards/builders propagate to the caller AFTER the
/// partial build has been rolled back (the graph is back to its pre-call
/// state). \p Reads as in fireCandidate.
ApplyResult applyCandidate(graph::Graph &G, const Candidate &C,
                           const rewrite::RuleSet &Rules,
                           const graph::ShapeInference &SI,
                           const sim::CostModel &CM,
                           const match::Machine::Options &MO = {},
                           FaultInjector *Faults = nullptr,
                           std::vector<graph::NodeId> *Reads = nullptr);

/// Fires \p C under its witness \p W (from enumerateCandidates(View, …))
/// on \p G: build the RHS, commit, delta-cost. Witness variables resolve
/// through \p View's rooted resolution at C.Node; the view may belong to
/// G or to a graph G copies (the ids agree), and is only read, so
/// concurrent calls on distinct graphs may share it. When no rule builds,
/// or a guard or builder throws, the partial build and any failed-rule
/// orphans stay in G — the caller rolls back. \p Footprint, when
/// non-null, receives the commit's footprint with its full users-closure.
/// Without it the commit walks no closure. \p Faults as in applyCandidate.
/// \p Reads, when non-null and the fire applies, receives its sweep
/// frontier: the pre-existing inputs of the nodes it swept. Those are the
/// only pre-existing nodes whose mutable state — user list, output status
/// — the priced outcome depends on; see DESIGN.md §"Cost-directed search"
/// for why the search may reuse the price while no commit changes them.
ApplyResult fireCandidate(graph::Graph &G, const graph::TermView &View,
                          const Candidate &C, const match::Witness &W,
                          const rewrite::RuleSet &Rules,
                          const graph::ShapeInference &SI,
                          const sim::CostModel &CM,
                          FaultInjector *Faults = nullptr,
                          graph::CommitFootprint *Footprint = nullptr,
                          std::vector<graph::NodeId> *Reads = nullptr);

/// The search's speculation primitive: fireCandidate (no faults) inside
/// an undo scope journaled in \p Log, then rollback. Returns the priced
/// outcome — equal to applyCandidate's on a fresh copy of G — and leaves
/// G exactly as it was. A throwing guard or builder yields !Applied.
/// \p Reads as in fireCandidate.
ApplyResult speculateCandidate(graph::Graph &G, graph::UndoLog &Log,
                               const graph::TermView &View,
                               const Candidate &C, const match::Witness &W,
                               const rewrite::RuleSet &Rules,
                               const graph::ShapeInference &SI,
                               const sim::CostModel &CM,
                               std::vector<graph::NodeId> *Reads = nullptr);

/// Calls \p Visit on every node whose user list or output status the
/// committed fire with footprint \p F and replacement \p Replacement
/// changed (ids may repeat): the root and the replacement, between which
/// uses and outputs moved, and the inputs of the swept nodes (users lost)
/// and of the appended ones (users gained). A price whose Reads
/// (fireCandidate) miss all of them stands after the commit.
template <typename VisitFn>
void forEachUseChanged(const graph::Graph &G, const graph::CommitFootprint &F,
                       graph::NodeId Replacement, VisitFn Visit) {
  Visit(F.Root);
  Visit(Replacement);
  for (graph::NodeId N : F.Swept)
    for (graph::NodeId In : G.inputs(N))
      Visit(In);
  for (graph::NodeId N = F.NewBegin; N < F.NewEnd; ++N)
    for (graph::NodeId In : G.inputs(N))
      Visit(In);
}

/// The cost-directed rewrite loop. rewriteToFixpoint dispatches here when
/// Opts.Search != Greedy and Lookahead >= 1 and BeamWidth >= 1 (the
/// degenerate configurations run the greedy engine — see
/// RewriteOptions::Search). Honors the engine's governance contract:
/// budget step/μ ceilings charged in committed enumeration order,
/// quarantine counted on the committed path, faults absorbed
/// transactionally, MaxRewrites capping commits.
rewrite::RewriteStats searchRewrite(graph::Graph &G,
                                    const rewrite::RuleSet &Rules,
                                    const graph::ShapeInference &SI,
                                    const rewrite::RewriteOptions &Opts);

/// True when \p Opts selects a non-degenerate cost-directed search (the
/// condition under which rewriteToFixpoint dispatches to searchRewrite).
inline bool searchActive(const rewrite::RewriteOptions &Opts) {
  return Opts.Search != rewrite::SearchStrategy::Greedy &&
         Opts.Lookahead >= 1 && Opts.BeamWidth >= 1;
}

} // namespace pypm::search

#endif // PYPM_SEARCH_SEARCH_H
