//===- frontend/Builder.cpp - Fluent C++ pattern/rule builder ----------------===//

#include "frontend/Builder.h"

#include "pattern/WellFormed.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace pypm;
using namespace pypm::frontend;
using namespace pypm::pattern;

//===----------------------------------------------------------------------===//
// GExpr operators
//===----------------------------------------------------------------------===//

static GExpr binG(GuardKind K, GExpr A, GExpr B) {
  assert(A.Arena && A.Arena == B.Arena && "mixing builders");
  return GExpr{A.Arena->binary(K, A.G, B.G), A.Arena};
}
static GExpr binI(GuardKind K, GExpr A, int64_t B) {
  assert(A.Arena);
  return GExpr{A.Arena->binary(K, A.G, A.Arena->intLit(B)), A.Arena};
}

namespace pypm::frontend {
GExpr operator+(GExpr A, GExpr B) { return binG(GuardKind::Add, A, B); }
GExpr operator-(GExpr A, GExpr B) { return binG(GuardKind::Sub, A, B); }
GExpr operator*(GExpr A, GExpr B) { return binG(GuardKind::Mul, A, B); }
GExpr operator/(GExpr A, GExpr B) { return binG(GuardKind::Div, A, B); }
GExpr operator%(GExpr A, GExpr B) { return binG(GuardKind::Mod, A, B); }
GExpr operator==(GExpr A, GExpr B) { return binG(GuardKind::Eq, A, B); }
GExpr operator!=(GExpr A, GExpr B) { return binG(GuardKind::Ne, A, B); }
GExpr operator<(GExpr A, GExpr B) { return binG(GuardKind::Lt, A, B); }
GExpr operator<=(GExpr A, GExpr B) { return binG(GuardKind::Le, A, B); }
GExpr operator>(GExpr A, GExpr B) { return binG(GuardKind::Gt, A, B); }
GExpr operator>=(GExpr A, GExpr B) { return binG(GuardKind::Ge, A, B); }
GExpr operator&&(GExpr A, GExpr B) { return binG(GuardKind::And, A, B); }
GExpr operator||(GExpr A, GExpr B) { return binG(GuardKind::Or, A, B); }
GExpr operator!(GExpr A) {
  assert(A.Arena);
  return GExpr{A.Arena->notExpr(A.G), A.Arena};
}
GExpr operator==(GExpr A, int64_t B) { return binI(GuardKind::Eq, A, B); }
GExpr operator!=(GExpr A, int64_t B) { return binI(GuardKind::Ne, A, B); }
GExpr operator<(GExpr A, int64_t B) { return binI(GuardKind::Lt, A, B); }
GExpr operator<=(GExpr A, int64_t B) { return binI(GuardKind::Le, A, B); }
GExpr operator>(GExpr A, int64_t B) { return binI(GuardKind::Gt, A, B); }
GExpr operator>=(GExpr A, int64_t B) { return binI(GuardKind::Ge, A, B); }
} // namespace pypm::frontend

//===----------------------------------------------------------------------===//
// VarHandle / OpHandle
//===----------------------------------------------------------------------===//

GExpr VarHandle::operator[](std::string_view Attr) const {
  Symbol Key = Symbol::intern(Attr);
  if (IsFun)
    return GExpr{Arena->funAttr(Name, Key), Arena};
  return GExpr{Arena->attr(Name, Key), Arena};
}

VarHandle::operator PExpr() const {
  assert(!IsFun && "function variable used in term position");
  return PExpr{Arena->var(Name)};
}

RExpr VarHandle::rhs() const {
  assert(!IsFun && "function variable cannot be a bare RHS");
  return RExpr{Arena->rhsVar(Name)};
}

PExpr OpHandle::operator()(std::initializer_list<PExpr> Args) const {
  assert(Arena && "default-constructed OpHandle");
  std::vector<const Pattern *> Children;
  Children.reserve(Args.size());
  for (const PExpr &A : Args)
    Children.push_back(A.P);
  return PExpr{Arena->app(Op, std::move(Children))};
}

RExpr OpHandle::rhs(std::initializer_list<RExpr> Args,
                    std::vector<RhsExpr::AttrTemplate> Attrs) const {
  assert(Arena && "default-constructed OpHandle");
  std::vector<const RhsExpr *> Children;
  Children.reserve(Args.size());
  for (const RExpr &A : Args)
    Children.push_back(A.R);
  return RExpr{Arena->rhsApp(Op, std::move(Children), std::move(Attrs))};
}

//===----------------------------------------------------------------------===//
// ModuleBuilder
//===----------------------------------------------------------------------===//

ModuleBuilder::ModuleBuilder(term::Signature &Sig)
    : Sig(Sig), Lib(std::make_unique<Library>()) {}

OpHandle ModuleBuilder::op(std::string_view Name, unsigned Arity,
                           std::string_view OpClass) {
  term::OpId Op = Sig.getOrAddOp(Name, Arity, 1, OpClass);
  return OpHandle(Op, Lib->Arena);
}

ModuleBuilder::Group &ModuleBuilder::groupFor(Symbol Name,
                                              const std::vector<Symbol> &Params) {
  for (Group &G : Groups)
    if (G.Name == Name) {
      assert(G.Params == Params &&
             "alternates of a pattern must share the parameter list");
      return G;
    }
  Groups.push_back(Group());
  Groups.back().Name = Name;
  Groups.back().Params = Params;
  return Groups.back();
}

PatternBuilder ModuleBuilder::pattern(
    std::string_view Name, std::initializer_list<std::string_view> Params) {
  std::vector<Symbol> Syms;
  for (std::string_view P : Params)
    Syms.push_back(Symbol::intern(P));
  return PatternBuilder(*this, Symbol::intern(Name), std::move(Syms));
}

RuleBuilder ModuleBuilder::rule(std::string_view Name,
                                std::string_view PatternName) {
  return RuleBuilder(*this, Symbol::intern(Name),
                     Symbol::intern(PatternName));
}

std::unique_ptr<Library> ModuleBuilder::finish() {
  for (Group &G : Groups) {
    assert(!G.Alts.empty() && "pattern with no committed alternates");
    const Pattern *Combined = Lib->Arena.altList(G.Alts);
    if (G.SelfRecursive)
      Combined = Lib->Arena.mu(G.Name, G.Params, G.Params, Combined);
    NamedPattern NP;
    NP.Name = G.Name;
    NP.Params = G.Params;
    NP.FunParams = G.FunParams;
    NP.Pat = Combined;
    Lib->PatternDefs.push_back(std::move(NP));
  }
  DiagnosticEngine Diags;
  if (!checkWellFormed(*Lib, Sig, Diags)) {
    std::fprintf(stderr, "ModuleBuilder::finish: %s",
                 Diags.renderAll().c_str());
    return nullptr;
  }
  return std::move(Lib);
}

//===----------------------------------------------------------------------===//
// PatternBuilder
//===----------------------------------------------------------------------===//

PatternBuilder::PatternBuilder(ModuleBuilder &M, Symbol Name,
                               std::vector<Symbol> Params)
    : M(M), Name(Name), Params(std::move(Params)) {
  // Validates/creates the group up front so parameter mismatches fail fast.
  M.groupFor(Name, this->Params);
}

VarHandle PatternBuilder::arg(std::string_view Name) {
  Symbol S = Symbol::intern(Name);
  assert(std::find(Params.begin(), Params.end(), S) != Params.end() &&
         "arg() of a name that is not a parameter");
  ModuleBuilder::Group &G = M.groupFor(this->Name, Params);
  bool IsFun = std::find(G.FunParams.begin(), G.FunParams.end(), S) !=
               G.FunParams.end();
  return VarHandle(S, M.arena(), IsFun);
}

VarHandle PatternBuilder::funParam(std::string_view Name) {
  Symbol S = Symbol::intern(Name);
  assert(std::find(Params.begin(), Params.end(), S) != Params.end() &&
         "funParam() of a name that is not a parameter");
  ModuleBuilder::Group &G = M.groupFor(this->Name, Params);
  if (std::find(G.FunParams.begin(), G.FunParams.end(), S) ==
      G.FunParams.end())
    G.FunParams.push_back(S);
  return VarHandle(S, M.arena(), /*IsFun=*/true);
}

VarHandle PatternBuilder::var(std::string_view Name) {
  Symbol S = Symbol::intern(Name);
  Wrappers.push_back({Wrapper::Kind::Exists, nullptr, S, nullptr});
  return VarHandle(S, M.arena(), /*IsFun=*/false);
}

VarHandle PatternBuilder::opvar(std::string_view Name) {
  Symbol S = Symbol::intern(Name);
  Wrappers.push_back({Wrapper::Kind::ExistsFun, nullptr, S, nullptr});
  return VarHandle(S, M.arena(), /*IsFun=*/true);
}

PatternBuilder &PatternBuilder::require(GExpr G) {
  Wrappers.push_back({Wrapper::Kind::Guard, G.G, Symbol(), nullptr});
  return *this;
}

PatternBuilder &PatternBuilder::constrain(VarHandle X, PExpr P) {
  assert(!X.isFunVar() && "match constraint on a function variable");
  Wrappers.push_back({Wrapper::Kind::Constraint, nullptr, X.name(), P.P});
  return *this;
}

PExpr PatternBuilder::fcall(VarHandle F,
                            std::initializer_list<PExpr> Args) {
  assert(F.isFunVar() && "fcall head must be a function variable");
  std::vector<const Pattern *> Children;
  for (const PExpr &A : Args)
    Children.push_back(A.P);
  return PExpr{M.arena().funVarApp(F.name(), std::move(Children))};
}

PExpr PatternBuilder::self(std::initializer_list<VarHandle> Args) {
  UsedSelf = true;
  std::vector<Symbol> Syms;
  for (const VarHandle &A : Args)
    Syms.push_back(A.name());
  assert(Syms.size() == Params.size() &&
         "recursive call arity must match the parameter list");
  return PExpr{M.arena().recCall(Name, std::move(Syms))};
}

PExpr PatternBuilder::lit(double Value) {
  PatternArena &A = M.arena();
  // Matches the DSL's literal lowering: a fresh ∃-bound Const node with the
  // micro-scaled value.
  M.signature().getOrAddOp("Const", 0, 1, "const");
  Symbol C = M.Names.next("lit");
  int64_t Micro = static_cast<int64_t>(std::llround(Value * 1e6));
  const GuardExpr *Both = A.binary(
      GuardKind::And,
      A.binary(GuardKind::Eq, A.attr(C, Symbol::intern("op_id")),
               A.opRef(Symbol::intern("Const"))),
      A.binary(GuardKind::Eq, A.attr(C, Symbol::intern("value_u6")),
               A.intLit(Micro)));
  return PExpr{A.exists(C, A.guarded(A.var(C), Both))};
}

GExpr PatternBuilder::intLit(int64_t Value) {
  return GExpr{M.arena().intLit(Value), &M.arena()};
}

GExpr PatternBuilder::opclass(std::string_view Name) {
  return GExpr{M.arena().opClassRef(Symbol::intern(Name)), &M.arena()};
}

PatternBuilder &PatternBuilder::ret(PExpr P) {
  assert(!Body && "ret() called twice in one alternate");
  Body = P.P;
  return *this;
}

void PatternBuilder::done() {
  assert(!Committed && "done() called twice");
  assert(Body && "alternate committed without ret()");
  Committed = true;
  const Pattern *P = Body;
  PatternArena &A = M.arena();
  for (size_t I = Wrappers.size(); I-- > 0;) {
    const Wrapper &W = Wrappers[I];
    switch (W.K) {
    case Wrapper::Kind::Guard:
      P = A.guarded(P, W.G);
      break;
    case Wrapper::Kind::Constraint:
      P = A.matchConstraint(P, W.ConstraintPat, W.Var);
      break;
    case Wrapper::Kind::Exists:
      P = A.exists(W.Var, P);
      break;
    case Wrapper::Kind::ExistsFun:
      P = A.existsFun(W.Var, P);
      break;
    }
  }
  ModuleBuilder::Group &G = M.groupFor(Name, Params);
  G.Alts.push_back(P);
  G.SelfRecursive |= UsedSelf;
}

//===----------------------------------------------------------------------===//
// RuleBuilder
//===----------------------------------------------------------------------===//

RuleBuilder::RuleBuilder(ModuleBuilder &M, Symbol Name, Symbol PatternName)
    : M(M), Name(Name), PatternName(PatternName) {}

VarHandle RuleBuilder::arg(std::string_view Name) {
  Symbol S = Symbol::intern(Name);
  for (const ModuleBuilder::Group &G : M.Groups)
    if (G.Name == PatternName) {
      bool IsFun = std::find(G.FunParams.begin(), G.FunParams.end(), S) !=
                   G.FunParams.end();
      return VarHandle(S, M.arena(), IsFun);
    }
  assert(false && "rule() for an unknown pattern");
  return VarHandle(S, M.arena(), false);
}

RuleBuilder &RuleBuilder::require(GExpr G) {
  Guards.push_back(G.G);
  return *this;
}

RExpr RuleBuilder::fcallRhs(VarHandle F, std::initializer_list<RExpr> Args,
                            std::vector<RhsExpr::AttrTemplate> Attrs) {
  assert(F.isFunVar());
  std::vector<const RhsExpr *> Children;
  for (const RExpr &A : Args)
    Children.push_back(A.R);
  return RExpr{M.arena().rhsFunVarApp(F.name(), std::move(Children),
                                      std::move(Attrs))};
}

GExpr RuleBuilder::intLit(int64_t Value) {
  return GExpr{M.arena().intLit(Value), &M.arena()};
}

void RuleBuilder::ret(RExpr R) {
  assert(!Committed && "ret() called twice on a rule");
  Committed = true;
  RewriteRule Rule;
  Rule.Name = Name;
  Rule.PatternName = PatternName;
  const GuardExpr *Conj = nullptr;
  for (const GuardExpr *G : Guards)
    Conj = Conj ? M.arena().binary(GuardKind::And, Conj, G) : G;
  Rule.Guard = Conj;
  Rule.Rhs = R.R;
  M.Lib->Rules.push_back(Rule);
}
