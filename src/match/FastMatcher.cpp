//===- match/FastMatcher.cpp - Production backtracking matcher -----------------===//

#include "match/FastMatcher.h"

#include "support/Budget.h"

using namespace pypm;
using namespace pypm::match;
using namespace pypm::pattern;

MachineStatus FastMatcher::match(const Pattern *P, term::TermRef T) {
  // Cells from a previous attempt are unreachable once Cont and Choices
  // reset below; dropping them keeps a reused (batch-mode) matcher's
  // footprint proportional to one attempt, not the whole batch.
  Cells.clear();
  Theta.clear();
  Phi.clear();
  ThetaTrail.clear();
  PhiTrail.clear();
  Choices.clear();
  Stats = MachineStats();
  MuBudget = Opts.MaxMuUnfolds;
  Cont = cons(Action::match(P, T), nullptr);
  Status = MachineStatus::Running;
  return runLoop();
}

MachineStatus FastMatcher::resume() {
  if (Status != MachineStatus::Success)
    return Status;
  Status = MachineStatus::Running;
  if (backtrack() != MachineStatus::Running)
    return Status;
  return runLoop();
}

Witness FastMatcher::witness() const {
  Witness W;
  for (const auto &[K, V] : Theta)
    W.Theta.bind(K, V);
  for (const auto &[K, V] : Phi)
    W.Phi.bind(K, V);
  return W;
}

MachineStatus FastMatcher::backtrack() {
  ++Stats.Backtracks;
  if (Choices.empty()) {
    Status = MachineStatus::Failure;
    return Status;
  }
  ChoicePoint CP = Choices.back();
  Choices.pop_back();
  while (ThetaTrail.size() > CP.ThetaTrailLen) {
    Theta.erase(ThetaTrail.back());
    ThetaTrail.pop_back();
  }
  while (PhiTrail.size() > CP.PhiTrailLen) {
    Phi.erase(PhiTrail.back());
    PhiTrail.pop_back();
  }
  Cont = CP.Cont;
  Status = MachineStatus::Running;
  return Status;
}

bool FastMatcher::bindVar(Symbol X, term::TermRef T) {
  auto [It, Inserted] = Theta.emplace(X, T);
  if (!Inserted)
    return It->second == T; // already bound: equal or conflict
  ThetaTrail.push_back(X);
  ++Stats.VarBinds;
  return true;
}

bool FastMatcher::bindFunVar(Symbol F, term::OpId Op) {
  auto [It, Inserted] = Phi.emplace(F, Op);
  if (!Inserted)
    return It->second == Op;
  PhiTrail.push_back(F);
  return true;
}

MachineStatus FastMatcher::runLoop() {
  // A GuardEnv view over the in-place hash maps.
  struct MapEnv final : public GuardEnv {
    const FastMatcher &M;
    explicit MapEnv(const FastMatcher &M) : M(M) {}
    std::optional<term::TermRef> lookupVar(Symbol Var) const override {
      auto It = M.Theta.find(Var);
      if (It == M.Theta.end())
        return std::nullopt;
      return It->second;
    }
    std::optional<term::OpId> lookupFunVar(Symbol FunVar) const override {
      auto It = M.Phi.find(FunVar);
      if (It == M.Phi.end())
        return std::nullopt;
      return It->second;
    }
    const term::TermArena &arena() const override { return M.Arena; }
  };
  MapEnv Env(*this);

  while (Status == MachineStatus::Running) {
    if (++Stats.Steps > Opts.MaxSteps) {
      Status = MachineStatus::OutOfFuel;
      break;
    }
    if (Opts.EngineBudget && (Stats.Steps & 1023u) == 0 &&
        Opts.EngineBudget->interrupted()) {
      Status = MachineStatus::OutOfFuel;
      break;
    }
    if (!Cont) {
      Status = MachineStatus::Success;
      break;
    }
    const Action &A = Cont->A;
    const Cell *Rest = Cont->Next;
    switch (A.Kind) {
    case ActionKind::Match: {
      Cont = Rest;
      MachineStatus S = stepMatch(A.Pat, A.T);
      if (S != MachineStatus::Running)
        Status = S;
      break;
    }
    case ActionKind::Guard: {
      ++Stats.GuardEvals;
      GuardEval E = A.Guard->evalBool(Env);
      if (!E.ok())
        ++Stats.GuardStuck;
      if (E.truthy())
        Cont = Rest;
      else
        backtrack();
      break;
    }
    case ActionKind::CheckName:
      if (Theta.count(A.Var))
        Cont = Rest;
      else
        backtrack();
      break;
    case ActionKind::CheckFunName:
      if (Phi.count(A.Var))
        Cont = Rest;
      else
        backtrack();
      break;
    case ActionKind::MatchConstr: {
      auto It = Theta.find(A.Var);
      if (It == Theta.end()) {
        backtrack();
        break;
      }
      Cont = cons(Action::match(A.Pat, It->second), Rest);
      break;
    }
    }
  }
  return Status;
}

MachineStatus FastMatcher::stepMatch(const Pattern *P, term::TermRef T) {
  switch (P->kind()) {
  case PatternKind::Var:
    if (bindVar(cast<VarPattern>(P)->name(), T))
      return MachineStatus::Running;
    return backtrack();

  case PatternKind::App: {
    const auto *AP = cast<AppPattern>(P);
    if (AP->op() != T->op())
      return backtrack();
    for (unsigned I = AP->arity(); I-- > 0;)
      Cont = cons(Action::match(AP->children()[I], T->child(I)), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::FunVarApp: {
    const auto *FP = cast<FunVarAppPattern>(P);
    if (FP->arity() != T->arity())
      return backtrack();
    if (!bindFunVar(FP->funVar(), T->op()))
      return backtrack();
    for (unsigned I = FP->arity(); I-- > 0;)
      Cont = cons(Action::match(FP->children()[I], T->child(I)), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::Alt: {
    const auto *AP = cast<AltPattern>(P);
    // O(1) choice point: the alternative continuation shares the current
    // list; θ/φ restoration is the trail marks.
    Choices.push_back(ChoicePoint{
        cons(Action::match(AP->right(), T), Cont), ThetaTrail.size(),
        PhiTrail.size()});
    Stats.MaxStackDepth = std::max(Stats.MaxStackDepth, Choices.size());
    Cont = cons(Action::match(AP->left(), T), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::Guarded: {
    const auto *GP = cast<GuardedPattern>(P);
    Cont = cons(Action::match(GP->sub(), T),
                cons(Action::guard(GP->guard()), Cont));
    return MachineStatus::Running;
  }

  case PatternKind::Exists: {
    const auto *EP = cast<ExistsPattern>(P);
    Cont = cons(Action::match(EP->sub(), T),
                cons(Action::checkName(EP->var()), Cont));
    return MachineStatus::Running;
  }

  case PatternKind::ExistsFun: {
    const auto *EP = cast<ExistsFunPattern>(P);
    Cont = cons(Action::match(EP->sub(), T),
                cons(Action::checkFunName(EP->funVar()), Cont));
    return MachineStatus::Running;
  }

  case PatternKind::MatchConstraint: {
    const auto *MP = cast<MatchConstraintPattern>(P);
    Cont = cons(Action::match(MP->sub(), T),
                cons(Action::matchConstr(MP->constraint(), MP->var()),
                     Cont));
    return MachineStatus::Running;
  }

  case PatternKind::Mu: {
    if (MuBudget == 0) {
      Status = MachineStatus::OutOfFuel;
      return Status;
    }
    --MuBudget;
    ++Stats.MuUnfolds;
    const Pattern *&Slot = UnfoldMemo[P];
    if (!Slot)
      Slot = Scratch.unfoldMu(cast<MuPattern>(P));
    Cont = cons(Action::match(Slot, T), Cont);
    return MachineStatus::Running;
  }

  case PatternKind::RecCall:
    assert(false && "RecCall reached the matcher (ill-formed pattern)");
    return backtrack();
  }
  assert(false && "unknown pattern kind");
  return MachineStatus::Failure;
}

MatchResult FastMatcher::run(const Pattern *P, term::TermRef T,
                             const term::TermArena &Arena,
                             Machine::Options Opts) {
  FastMatcher M(Arena, Opts);
  MachineStatus S = M.match(P, T);
  MatchResult R;
  R.Status = S;
  if (S == MachineStatus::Success)
    R.W = M.witness();
  R.Stats = M.stats();
  return R;
}
