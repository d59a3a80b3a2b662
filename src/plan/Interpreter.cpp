//===- plan/Interpreter.cpp - Bytecode executor for MatchPlans ------------===//
//
// stepExec shadows the corresponding FastMatcher step over the compiled
// instruction table; when editing, keep match/FastMatcher.cpp (and
// plan/ExecState.cpp, which owns the dynamic escape) open next to this
// file. The differential suites pin this executor, the FastMatcher, and the
// reference Machine to identical statuses, witnesses, resume() streams, and
// step counters.
//
//===----------------------------------------------------------------------===//

#include "plan/Interpreter.h"

#include "support/Budget.h"

using namespace pypm;
using namespace pypm::plan;
using namespace pypm::match;
using namespace pypm::pattern;

MachineStatus Interpreter::matchEntry(size_t EntryIdx, term::TermRef T) {
  assert(EntryIdx < Prog.Entries.size() && "entry index out of range");
  St.resetAttempt(Opts.MaxMuUnfolds);
  St.Cont = St.consMatch(Prog.Entries[EntryIdx].RootPC, T, nullptr);
  // Profiling is observation-only: counters after the run, never a branch
  // inside it. Only the first terminal counts as the attempt's outcome;
  // resume() continuations are part of the same attempt.
  if (Prof)
    Prof->noteAttempt(EntryIdx);
  MachineStatus S = runLoop();
  if (Prof && S == MachineStatus::Success)
    Prof->noteMatch(EntryIdx);
  return S;
}

MachineStatus Interpreter::resume() {
  if (St.Status != MachineStatus::Success)
    return St.Status;
  St.Status = MachineStatus::Running;
  if (St.backtrack() != MachineStatus::Running)
    return St.Status;
  return runLoop();
}

MachineStatus Interpreter::runLoop() {
  ExecGuardEnv Env(St, Arena);
  return runExecLoop(St, Opts, Env, [this](uint32_t PC, term::TermRef T) {
    return stepExec(PC, T);
  });
}

MachineStatus Interpreter::stepExec(uint32_t PC, term::TermRef T) {
  const Instr &I = Prog.Code[PC];
  switch (I.Op) {
  case OpCode::MatchVar:
    if (St.bindVar(Prog.Syms[I.A], T))
      return MachineStatus::Running;
    return St.backtrack();

  case OpCode::MatchApp: {
    if (term::OpId(I.A) != T->op())
      return St.backtrack();
    for (uint32_t C = I.NumChildren; C-- > 0;)
      St.Cont =
          St.consMatch(Prog.ChildPCs[I.FirstChild + C], T->child(C), St.Cont);
    return MachineStatus::Running;
  }

  case OpCode::MatchFunVarApp: {
    if (I.NumChildren != T->arity())
      return St.backtrack();
    if (!St.bindFunVar(Prog.Syms[I.A], T->op()))
      return St.backtrack();
    for (uint32_t C = I.NumChildren; C-- > 0;)
      St.Cont =
          St.consMatch(Prog.ChildPCs[I.FirstChild + C], T->child(C), St.Cont);
    return MachineStatus::Running;
  }

  case OpCode::MatchAlt: {
    St.pushChoice(St.consMatch(I.B, T, St.Cont));
    St.Cont = St.consMatch(I.A, T, St.Cont);
    return MachineStatus::Running;
  }

  case OpCode::MatchGuarded: {
    ExecState::Cell G;
    G.Kind = ActionKind::Guard;
    G.Guard = Prog.Guards[I.B];
    G.Next = St.Cont;
    St.Cont = St.consMatch(I.A, T, St.push(std::move(G)));
    return MachineStatus::Running;
  }

  case OpCode::MatchExists: {
    ExecState::Cell C;
    C.Kind = ActionKind::CheckName;
    C.Var = Prog.Syms[I.B];
    C.Next = St.Cont;
    St.Cont = St.consMatch(I.A, T, St.push(std::move(C)));
    return MachineStatus::Running;
  }

  case OpCode::MatchExistsFun: {
    ExecState::Cell C;
    C.Kind = ActionKind::CheckFunName;
    C.Var = Prog.Syms[I.B];
    C.Next = St.Cont;
    St.Cont = St.consMatch(I.A, T, St.push(std::move(C)));
    return MachineStatus::Running;
  }

  case OpCode::MatchConstraint: {
    ExecState::Cell C;
    C.Kind = ActionKind::MatchConstr;
    C.PC = I.B;
    C.Var = Prog.Syms[I.C];
    C.Next = St.Cont;
    St.Cont = St.consMatch(I.A, T, St.push(std::move(C)));
    return MachineStatus::Running;
  }

  case OpCode::MatchMu:
    return St.unfoldMu(Prog.Mus[I.A], T);

  case OpCode::Fail:
    return St.backtrack();
  }
  assert(false && "unknown opcode");
  return MachineStatus::Failure;
}

MatchResult Interpreter::run(const Program &Prog, size_t EntryIdx,
                             term::TermRef T, const term::TermArena &Arena,
                             Machine::Options Opts, Profile *Prof) {
  Interpreter M(Prog, Arena, Opts);
  M.setProfile(Prof);
  MachineStatus S = M.matchEntry(EntryIdx, T);
  MatchResult R;
  R.Status = S;
  if (S == MachineStatus::Success)
    R.W = M.witness();
  R.Stats = M.stats();
  return R;
}
