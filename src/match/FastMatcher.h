//===- match/FastMatcher.h - Production backtracking matcher ----*- C++ -*-===//
///
/// \file
/// The paper's story runs from a "large and unwieldy" production C++
/// matcher *down* to the idealized machine of Figs. 17–18; this library
/// runs it back up: FastMatcher is an optimized engine proven equivalent
/// to the reference Machine by differential testing
/// (tests/test_fastmatcher.cpp) and used by the rewrite engine by default.
///
/// Where the reference machine snapshots the whole substitution and
/// continuation at every choice point (a faithful rendering of
/// ST-Match-Alt's (θ, φ, k) :: stk), FastMatcher makes choice points O(1):
///
///  - the continuation is a *persistent* cons-list; saving it is copying
///    one pointer, and popped prefixes stay reachable from saved choice
///    points;
///  - θ and φ are hash maps plus an undo *trail*; a choice point records
///    the trail depths, and backtracking unbinds in LIFO order;
///  - μ-unfold results are memoized per (μ-node) *only* for the
///    first unfolding of each distinct node — repeated retries of the same
///    choice reuse the clone instead of re-freshening.
///
/// The search order is bit-for-bit the reference machine's: same
/// left-eager alternate order, same action sequence, so the first witness
/// (and the whole resume() stream) agrees with the idealized semantics —
/// and therefore, by Theorem 2, with the declarative relation.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_MATCH_FASTMATCHER_H
#define PYPM_MATCH_FASTMATCHER_H

#include "match/Machine.h"

#include <deque>
#include <unordered_map>

namespace pypm::match {

/// Optimized matcher with the same observable behavior as Machine.
class FastMatcher {
public:
  explicit FastMatcher(const term::TermArena &Arena)
      : FastMatcher(Arena, Machine::Options()) {}
  FastMatcher(const term::TermArena &Arena, Machine::Options Opts)
      : Arena(Arena), Opts(Opts) {}

  /// Matches \p P against \p T from the empty substitution; returns the
  /// terminal status.
  MachineStatus match(const pattern::Pattern *P, term::TermRef T);

  /// Continues the search past the previous success (the resume() of the
  /// reference machine).
  MachineStatus resume();

  MachineStatus status() const { return Status; }
  /// The current witness, materialized as value-semantic substitutions.
  Witness witness() const;
  const MachineStats &stats() const { return Stats; }

  /// One-call convenience mirroring matchPattern().
  static MatchResult run(const pattern::Pattern *P, term::TermRef T,
                         const term::TermArena &Arena,
                         Machine::Options Opts = Machine::Options());

private:
  /// Persistent continuation cell. Cells are arena-allocated and never
  /// mutated, so saving a continuation is saving one pointer.
  struct Cell {
    Action A;
    const Cell *Next;
  };

  struct ChoicePoint {
    const Cell *Cont;      ///< continuation to resume with
    size_t ThetaTrailLen;  ///< unbind θ down to this depth
    size_t PhiTrailLen;    ///< unbind φ down to this depth
  };

  const Cell *cons(Action A, const Cell *Next) {
    Cells.push_back(Cell{std::move(A), Next});
    return &Cells.back();
  }

  MachineStatus runLoop();
  MachineStatus backtrack();
  bool bindVar(Symbol X, term::TermRef T);
  bool bindFunVar(Symbol F, term::OpId Op);
  MachineStatus stepMatch(const pattern::Pattern *P, term::TermRef T);

  const term::TermArena &Arena;
  Machine::Options Opts;

  pattern::PatternArena Scratch;
  std::deque<Cell> Cells;

  // In-place substitutions with undo trails.
  std::unordered_map<Symbol, term::TermRef> Theta;
  std::unordered_map<Symbol, term::OpId> Phi;
  std::vector<Symbol> ThetaTrail;
  std::vector<Symbol> PhiTrail;

  std::vector<ChoicePoint> Choices;
  const Cell *Cont = nullptr;
  uint64_t MuBudget = 0;
  MachineStatus Status = MachineStatus::Failure;
  MachineStats Stats;

  // First-unfold memo: retrying the same μ node along a different branch
  // reuses the clone (freshened names are reused too, which is safe: the
  // trail unbinds them on backtrack, exactly as the reference machine's
  // snapshot restore forgets them).
  std::unordered_map<const pattern::Pattern *, const pattern::Pattern *>
      UnfoldMemo;
};

} // namespace pypm::match

#endif // PYPM_MATCH_FASTMATCHER_H
