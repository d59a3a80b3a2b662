//===- plan/Interpreter.h - Bytecode executor for MatchPlans ----*- C++ -*-===//
///
/// \file
/// Executes one entry of a plan::Program with FastMatcher's trail and
/// choice-point machinery — persistent cons-list continuation, O(1) choice
/// points, θ/φ hash maps with undo trails, first-unfold μ memoization.
/// Control flow is table-driven (program counters instead of pattern-AST
/// pointers) except where the machines themselves go dynamic: μ-unfold
/// results are fresh pattern nodes that exist only at run time, so their
/// match continues over the pattern AST with the exact FastMatcher step
/// (an "escape" back to the uncompiled representation).
///
/// All mutable state — and the cell-dispatch loop itself — lives in
/// plan::ExecState; this class supplies only the compiled-Match step
/// (stepExec, a switch over the instruction table).
///
/// The step sequence — and with it every counter in MachineStats, the
/// first witness, and the whole resume() stream — is bit-for-bit
/// FastMatcher's, which is bit-for-bit the reference Machine's. The
/// differential suite (tests/test_matchplan.cpp) pins them all together.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PLAN_INTERPRETER_H
#define PYPM_PLAN_INTERPRETER_H

#include "plan/ExecState.h"
#include "plan/Profile.h"

namespace pypm::plan {

class Interpreter {
public:
  Interpreter(const Program &Prog, const term::TermArena &Arena,
              match::Machine::Options Opts = match::Machine::Options())
      : Prog(Prog), Arena(Arena), Opts(Opts) {}

  /// Profiling mode: when set, matchEntry() records one committed attempt
  /// (and, on success, one match) per call into the profile's per-entry
  /// counters. Observation only — no step, counter, or witness changes.
  /// The caller owns the profile and its thread-safety: the engine arms
  /// this on committed-order runs only, never on speculative discovery
  /// workers (see DESIGN.md §"Profile-guided ordering").
  void setProfile(Profile *P) { Prof = P; }

  /// Matches entry \p EntryIdx of the program against \p T from the empty
  /// substitution; returns the terminal status.
  match::MachineStatus matchEntry(size_t EntryIdx, term::TermRef T);

  /// Continues the search past the previous success.
  match::MachineStatus resume();

  match::MachineStatus status() const { return St.Status; }
  match::Witness witness() const { return St.witness(); }
  const match::MachineStats &stats() const { return St.Stats; }

  /// One-call convenience mirroring FastMatcher::run for one entry.
  /// \p Prof, when non-null, receives the per-entry attempt/match counters
  /// of this one call (profiling mode; see setProfile).
  static match::MatchResult
  run(const Program &Prog, size_t EntryIdx, term::TermRef T,
      const term::TermArena &Arena,
      match::Machine::Options Opts = match::Machine::Options(),
      Profile *Prof = nullptr);

private:
  match::MachineStatus runLoop();
  match::MachineStatus stepExec(uint32_t PC, term::TermRef T);

  const Program &Prog;
  const term::TermArena &Arena;
  match::Machine::Options Opts;
  Profile *Prof = nullptr;
  ExecState St;
};

} // namespace pypm::plan

#endif // PYPM_PLAN_INTERPRETER_H
