//===- pattern/Pattern.cpp - CorePyPM pattern AST --------------------------===//

#include "pattern/Pattern.h"

#include <unordered_map>

using namespace pypm;
using namespace pypm::pattern;

template <typename T, typename... Args>
T *PatternArena::create(Args &&...CtorArgs) {
  auto Node = std::shared_ptr<T>(new T(std::forward<Args>(CtorArgs)...));
  T *Raw = Node.get();
  PatternStorage.emplace_back(std::move(Node));
  Patterns.push_back(Raw);
  return Raw;
}

const Pattern *PatternArena::var(Symbol Name) {
  return create<VarPattern>(Name);
}

const Pattern *PatternArena::app(term::OpId Op,
                                 std::vector<const Pattern *> Children) {
  assert(Op.isValid() && "app pattern with invalid op");
  return create<AppPattern>(Op, std::move(Children));
}

const Pattern *
PatternArena::funVarApp(Symbol FunVar, std::vector<const Pattern *> Children) {
  return create<FunVarAppPattern>(FunVar, std::move(Children));
}

const Pattern *PatternArena::alt(const Pattern *Left, const Pattern *Right) {
  return create<AltPattern>(Left, Right);
}

const Pattern *PatternArena::altList(std::span<const Pattern *const> Alts) {
  assert(!Alts.empty() && "altList of zero alternates");
  const Pattern *Acc = Alts.back();
  for (size_t I = Alts.size() - 1; I-- > 0;)
    Acc = alt(Alts[I], Acc);
  return Acc;
}

const Pattern *PatternArena::guarded(const Pattern *Sub,
                                     const GuardExpr *Guard) {
  assert(isBoolKind(Guard->kind()) && "guard must be boolean");
  return create<GuardedPattern>(Sub, Guard);
}

const Pattern *PatternArena::exists(Symbol Var, const Pattern *Sub) {
  return create<ExistsPattern>(Var, Sub);
}

const Pattern *PatternArena::existsFun(Symbol FunVar, const Pattern *Sub) {
  return create<ExistsFunPattern>(FunVar, Sub);
}

const Pattern *PatternArena::matchConstraint(const Pattern *Sub,
                                             const Pattern *Constraint,
                                             Symbol Var) {
  return create<MatchConstraintPattern>(Sub, Constraint, Var);
}

const Pattern *PatternArena::mu(Symbol Self, std::vector<Symbol> Params,
                                std::vector<Symbol> Args,
                                const Pattern *Body) {
  return create<MuPattern>(Self, std::move(Params), std::move(Args), Body);
}

const Pattern *PatternArena::recCall(Symbol Self, std::vector<Symbol> Args) {
  return create<RecCallPattern>(Self, std::move(Args));
}

//===----------------------------------------------------------------------===//
// Guard constructors
//===----------------------------------------------------------------------===//

const GuardExpr *PatternArena::intLit(int64_t Value) {
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::IntLit;
  Node->Value = Value;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::attr(Symbol Var, Symbol Attr) {
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::Attr;
  Node->Name = Var;
  Node->AttrSym = Attr;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::funAttr(Symbol FunVar, Symbol Attr) {
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::FunAttr;
  Node->Name = FunVar;
  Node->AttrSym = Attr;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::opClassRef(Symbol ClassName) {
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::OpClassRef;
  Node->Name = ClassName;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::opRef(Symbol OpName) {
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::OpRef;
  Node->Name = OpName;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::binary(GuardKind Kind, const GuardExpr *Lhs,
                                      const GuardExpr *Rhs) {
  assert(Kind != GuardKind::Not && "use notExpr for negation");
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = Kind;
  Node->Lhs = Lhs;
  Node->Rhs = Rhs;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

const GuardExpr *PatternArena::notExpr(const GuardExpr *Sub) {
  assert(isBoolKind(Sub->kind()) && "negation of arithmetic expression");
  auto Node = std::unique_ptr<GuardExpr>(new GuardExpr());
  Node->Kind = GuardKind::Not;
  Node->Lhs = Sub;
  GuardStorage.emplace_back(std::move(Node));
  return GuardStorage.back().get();
}

//===----------------------------------------------------------------------===//
// RHS constructors
//===----------------------------------------------------------------------===//

const RhsExpr *PatternArena::rhsVar(Symbol Name) {
  auto Node = std::unique_ptr<RhsExpr>(new RhsExpr());
  Node->Kind = RhsKind::VarRef;
  Node->Name = Name;
  RhsStorage.emplace_back(std::move(Node));
  return RhsStorage.back().get();
}

const RhsExpr *PatternArena::rhsApp(term::OpId Op,
                                    std::vector<const RhsExpr *> Children,
                                    std::vector<RhsExpr::AttrTemplate> Attrs) {
  assert(Op.isValid() && "rhs app with invalid op");
  auto Node = std::unique_ptr<RhsExpr>(new RhsExpr());
  Node->Kind = RhsKind::App;
  Node->Op = Op;
  Node->Children = std::move(Children);
  Node->Attrs = std::move(Attrs);
  RhsStorage.emplace_back(std::move(Node));
  return RhsStorage.back().get();
}

const RhsExpr *
PatternArena::rhsFunVarApp(Symbol FunVar,
                           std::vector<const RhsExpr *> Children,
                           std::vector<RhsExpr::AttrTemplate> Attrs) {
  auto Node = std::unique_ptr<RhsExpr>(new RhsExpr());
  Node->Kind = RhsKind::FunVarApp;
  Node->Name = FunVar;
  Node->Children = std::move(Children);
  Node->Attrs = std::move(Attrs);
  RhsStorage.emplace_back(std::move(Node));
  return RhsStorage.back().get();
}

//===----------------------------------------------------------------------===//
// μ unfolding (capture-avoiding one-step substitution)
//===----------------------------------------------------------------------===//

struct PatternArena::CloneEnv {
  /// Active variable renames: μ params → args, freshened ∃ binders.
  std::unordered_map<Symbol, Symbol> Rename;
  /// The μ being unfolded; recursive calls to this name get rewrapped.
  Symbol Self;
  const MuPattern *Mu = nullptr;
  /// The compile's binder minter (instantiate); null freshens with
  /// Symbol::fresh (μ unfolding).
  FreshNames *Names = nullptr;

  Symbol fresh(Symbol S) const {
    return Names ? Names->next(S.str()) : Symbol::fresh(S.str());
  }

  Symbol renamed(Symbol S) const {
    auto It = Rename.find(S);
    return It == Rename.end() ? S : It->second;
  }
};

const GuardExpr *PatternArena::cloneGuard(const GuardExpr *G,
                                          const CloneEnv &Env) {
  switch (G->kind()) {
  case GuardKind::IntLit:
  case GuardKind::OpClassRef:
  case GuardKind::OpRef:
    return G; // closed leaves can be shared
  case GuardKind::Attr: {
    Symbol V = Env.renamed(G->varName());
    if (V == G->varName())
      return G;
    return attr(V, G->attrName());
  }
  case GuardKind::FunAttr: {
    Symbol V = Env.renamed(G->varName());
    if (V == G->varName())
      return G;
    return funAttr(V, G->attrName());
  }
  case GuardKind::Not: {
    const GuardExpr *Sub = cloneGuard(G->lhs(), Env);
    return Sub == G->lhs() ? G : notExpr(Sub);
  }
  default: {
    const GuardExpr *L = cloneGuard(G->lhs(), Env);
    const GuardExpr *R = cloneGuard(G->rhs(), Env);
    return (L == G->lhs() && R == G->rhs()) ? G : binary(G->kind(), L, R);
  }
  }
}

const Pattern *PatternArena::clone(const Pattern *P, CloneEnv &Env) {
  switch (P->kind()) {
  case PatternKind::Var: {
    const auto *VP = cast<VarPattern>(P);
    Symbol V = Env.renamed(VP->name());
    return V == VP->name() ? P : var(V);
  }
  case PatternKind::App: {
    const auto *AP = cast<AppPattern>(P);
    std::vector<const Pattern *> Children;
    Children.reserve(AP->arity());
    for (const Pattern *C : AP->children())
      Children.push_back(clone(C, Env));
    return app(AP->op(), std::move(Children));
  }
  case PatternKind::FunVarApp: {
    const auto *FP = cast<FunVarAppPattern>(P);
    std::vector<const Pattern *> Children;
    Children.reserve(FP->arity());
    for (const Pattern *C : FP->children())
      Children.push_back(clone(C, Env));
    return funVarApp(Env.renamed(FP->funVar()), std::move(Children));
  }
  case PatternKind::Alt: {
    const auto *AP = cast<AltPattern>(P);
    return alt(clone(AP->left(), Env), clone(AP->right(), Env));
  }
  case PatternKind::Guarded: {
    const auto *GP = cast<GuardedPattern>(P);
    return guarded(clone(GP->sub(), Env), cloneGuard(GP->guard(), Env));
  }
  case PatternKind::Exists: {
    // Freshen the binder so that repeated unfoldings of the surrounding μ
    // do not collide on the same local-variable name, and so that an
    // incoming rename target cannot be captured.
    const auto *EP = cast<ExistsPattern>(P);
    Symbol Fresh = Env.fresh(EP->var());
    CloneEnv Inner = Env;
    Inner.Rename[EP->var()] = Fresh;
    return exists(Fresh, clone(EP->sub(), Inner));
  }
  case PatternKind::ExistsFun: {
    const auto *EP = cast<ExistsFunPattern>(P);
    Symbol Fresh = Env.fresh(EP->funVar());
    CloneEnv Inner = Env;
    Inner.Rename[EP->funVar()] = Fresh;
    return existsFun(Fresh, clone(EP->sub(), Inner));
  }
  case PatternKind::MatchConstraint: {
    const auto *MP = cast<MatchConstraintPattern>(P);
    return matchConstraint(clone(MP->sub(), Env),
                           clone(MP->constraint(), Env),
                           Env.renamed(MP->var()));
  }
  case PatternKind::Mu: {
    // A *different* μ nested inside the one being unfolded. Its params stay
    // (they are bound, globally unique, and never reach θ — they are always
    // renamed away at that μ's own unfold); its args are uses in the
    // current scope and get renamed; its body is cloned so free outer
    // variables inside it are renamed.
    const auto *MP = cast<MuPattern>(P);
    std::vector<Symbol> Args;
    Args.reserve(MP->args().size());
    for (Symbol A : MP->args())
      Args.push_back(Env.renamed(A));
    return mu(MP->self(),
              std::vector<Symbol>(MP->params().begin(), MP->params().end()),
              std::move(Args), clone(MP->body(), Env));
  }
  case PatternKind::RecCall: {
    const auto *RP = cast<RecCallPattern>(P);
    std::vector<Symbol> Args;
    Args.reserve(RP->args().size());
    for (Symbol A : RP->args())
      Args.push_back(Env.renamed(A));
    if (RP->self() == Env.Self) {
      // Rewrap: P(z̄) ↦ μP(x̄)[z̄].p — sharing the original body; its
      // binders are freshened lazily at its own unfold.
      return mu(Env.Self,
                std::vector<Symbol>(Env.Mu->params().begin(),
                                    Env.Mu->params().end()),
                std::move(Args), Env.Mu->body());
    }
    return recCall(RP->self(), std::move(Args));
  }
  }
  assert(false && "unknown pattern kind");
  return nullptr;
}

const GuardExpr *
PatternArena::importGuard(const GuardExpr *G,
                          const std::function<bool(Symbol)> &IsFunVar) {
  switch (G->kind()) {
  case GuardKind::IntLit:
    return intLit(G->intValue());
  case GuardKind::OpClassRef:
    return opClassRef(G->refName());
  case GuardKind::OpRef:
    return opRef(G->refName());
  case GuardKind::Attr:
  case GuardKind::FunAttr:
    if (IsFunVar(G->varName()))
      return funAttr(G->varName(), G->attrName());
    return attr(G->varName(), G->attrName());
  case GuardKind::Not:
    return notExpr(importGuard(G->lhs(), IsFunVar));
  default:
    return binary(G->kind(), importGuard(G->lhs(), IsFunVar),
                  importGuard(G->rhs(), IsFunVar));
  }
}

const Pattern *
PatternArena::instantiate(const Pattern *P,
                          const std::unordered_map<Symbol, Symbol> &Renames,
                          FreshNames &Names) {
  CloneEnv Env;
  Env.Rename = Renames;
  Env.Names = &Names;
  // Env.Self stays invalid: recursive calls inside P (to *other* μs) pass
  // through untouched; ∃ binders are freshened by clone().
  return clone(P, Env);
}

const Pattern *PatternArena::unfoldMu(const MuPattern *Mu) {
  CloneEnv Env;
  Env.Self = Mu->self();
  Env.Mu = Mu;
  auto Params = Mu->params();
  auto Args = Mu->args();
  for (size_t I = 0; I != Params.size(); ++I)
    if (Params[I] != Args[I])
      Env.Rename[Params[I]] = Args[I];
  return clone(Mu->body(), Env);
}
