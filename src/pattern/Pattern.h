//===- pattern/Pattern.h - CorePyPM pattern AST -----------------*- C++ -*-===//
///
/// \file
/// The full CorePyPM pattern grammar (paper Fig. 15):
///
///   p ::= x                               Var
///       | f(p1, …, pn)                    App           (arity f = n)
///       | p ‖ p'                          Alt
///       | p ; guard(g)                    Guarded
///       | ∃x. p                           Exists
///       | p ; (p' ≈ x)                    MatchConstraint
///       | F(p1, …, pn)                    FunVarApp
///       | μP(x1,…,xn)[y1,…,yn]. p         Mu
///       | P(y1, …, yn)                    RecCall
///
/// plus the replacement templates (RhsExpr) used by rewrite rules and the
/// arena that owns all three node families (patterns, guards, RHS).
///
/// All nodes are immutable and allocated in a PatternArena; they are shared
/// freely (a pattern is a DAG in memory even though it denotes a tree).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_PATTERN_PATTERN_H
#define PYPM_PATTERN_PATTERN_H

#include "pattern/Guard.h"
#include "support/Diagnostics.h"
#include "term/Signature.h"

#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace pypm::pattern {

class PatternArena;

enum class PatternKind : uint8_t {
  Var,
  App,
  FunVarApp,
  Alt,
  Guarded,
  Exists,
  ExistsFun,
  MatchConstraint,
  Mu,
  RecCall,
};

/// Base class for pattern nodes. Kind-discriminated (LLVM-style); no RTTI.
class Pattern {
public:
  PatternKind kind() const { return Kind; }
  std::string toString(const term::Signature &Sig) const;

protected:
  explicit Pattern(PatternKind Kind) : Kind(Kind) {}
  ~Pattern() = default;

private:
  PatternKind Kind;
};

/// LLVM-ish cast helpers (no vtables; kinds checked with classof).
template <typename T> bool isa(const Pattern *P) { return T::classof(P); }
template <typename T> const T *cast(const Pattern *P) {
  assert(T::classof(P) && "bad pattern cast");
  return static_cast<const T *>(P);
}
template <typename T> const T *dyn_cast(const Pattern *P) {
  return T::classof(P) ? static_cast<const T *>(P) : nullptr;
}

/// x — a pattern variable.
class VarPattern final : public Pattern {
public:
  Symbol name() const { return Name; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::Var;
  }

private:
  friend class PatternArena;
  explicit VarPattern(Symbol Name) : Pattern(PatternKind::Var), Name(Name) {}
  Symbol Name;
};

/// f(p1, …, pn) — application of a concrete operator.
class AppPattern final : public Pattern {
public:
  term::OpId op() const { return Op; }
  std::span<const Pattern *const> children() const { return Children; }
  unsigned arity() const { return static_cast<unsigned>(Children.size()); }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::App;
  }

private:
  friend class PatternArena;
  AppPattern(term::OpId Op, std::vector<const Pattern *> Children)
      : Pattern(PatternKind::App), Op(Op), Children(std::move(Children)) {}
  term::OpId Op;
  std::vector<const Pattern *> Children;
};

/// F(p1, …, pn) — application of a function variable (§3.4).
class FunVarAppPattern final : public Pattern {
public:
  Symbol funVar() const { return FunVar; }
  std::span<const Pattern *const> children() const { return Children; }
  unsigned arity() const { return static_cast<unsigned>(Children.size()); }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::FunVarApp;
  }

private:
  friend class PatternArena;
  FunVarAppPattern(Symbol FunVar, std::vector<const Pattern *> Children)
      : Pattern(PatternKind::FunVarApp), FunVar(FunVar),
        Children(std::move(Children)) {}
  Symbol FunVar;
  std::vector<const Pattern *> Children;
};

/// p ‖ p' — pattern alternate; left tried first (§2.1, §3.1).
class AltPattern final : public Pattern {
public:
  const Pattern *left() const { return Left; }
  const Pattern *right() const { return Right; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::Alt;
  }

private:
  friend class PatternArena;
  AltPattern(const Pattern *Left, const Pattern *Right)
      : Pattern(PatternKind::Alt), Left(Left), Right(Right) {}
  const Pattern *Left, *Right;
};

/// p ; guard(g) — guarded pattern (§3.2).
class GuardedPattern final : public Pattern {
public:
  const Pattern *sub() const { return Sub; }
  const GuardExpr *guard() const { return Guard; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::Guarded;
  }

private:
  friend class PatternArena;
  GuardedPattern(const Pattern *Sub, const GuardExpr *Guard)
      : Pattern(PatternKind::Guarded), Sub(Sub), Guard(Guard) {}
  const Pattern *Sub;
  const GuardExpr *Guard;
};

/// ∃x. p — existential (PyPM's var(), §3.3). For the overall match to
/// succeed, x must end up bound (the VM's checkName action).
class ExistsPattern final : public Pattern {
public:
  Symbol var() const { return Var; }
  const Pattern *sub() const { return Sub; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::Exists;
  }

private:
  friend class PatternArena;
  ExistsPattern(Symbol Var, const Pattern *Sub)
      : Pattern(PatternKind::Exists), Var(Var), Sub(Sub) {}
  Symbol Var;
  const Pattern *Sub;
};

/// ∃F. p over a *function* variable — PyPM's local `F = Op(n, m)`
/// declaration (Fig. 14). The Python frontend creates a fresh function
/// variable on every (re-)execution of a pattern body, so a recursive
/// pattern's local operator variables must be freshened per unfolding;
/// making the binder explicit in the core calculus gives μ-unfolding the
/// hook to do that. Semantics mirror ∃x.p with φ in place of θ.
class ExistsFunPattern final : public Pattern {
public:
  Symbol funVar() const { return FunVar; }
  const Pattern *sub() const { return Sub; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::ExistsFun;
  }

private:
  friend class PatternArena;
  ExistsFunPattern(Symbol FunVar, const Pattern *Sub)
      : Pattern(PatternKind::ExistsFun), FunVar(FunVar), Sub(Sub) {}
  Symbol FunVar;
  const Pattern *Sub;
};

/// p ; (p' ≈ x) — match constraint (PyPM's `x <= p'`, §3.3): after p
/// matches, the term bound to x must itself match p'.
class MatchConstraintPattern final : public Pattern {
public:
  const Pattern *sub() const { return Sub; }
  const Pattern *constraint() const { return Constraint; }
  Symbol var() const { return Var; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::MatchConstraint;
  }

private:
  friend class PatternArena;
  MatchConstraintPattern(const Pattern *Sub, const Pattern *Constraint,
                         Symbol Var)
      : Pattern(PatternKind::MatchConstraint), Sub(Sub),
        Constraint(Constraint), Var(Var) {}
  const Pattern *Sub;
  const Pattern *Constraint;
  Symbol Var;
};

/// μP(x1,…,xn)[y1,…,yn]. p — recursive pattern (§3.5). Params are the
/// formal names used inside the body; Args are the names they are
/// instantiated with at this use. Matching unfolds one step:
/// p[μP(x̄)/P][yᵢ/xᵢ], freshening ∃-binders in the copy (capture-avoiding
/// substitution; see PatternArena::unfoldMu).
class MuPattern final : public Pattern {
public:
  Symbol self() const { return Self; }
  std::span<const Symbol> params() const { return Params; }
  std::span<const Symbol> args() const { return Args; }
  const Pattern *body() const { return Body; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::Mu;
  }

private:
  friend class PatternArena;
  MuPattern(Symbol Self, std::vector<Symbol> Params, std::vector<Symbol> Args,
            const Pattern *Body)
      : Pattern(PatternKind::Mu), Self(Self), Params(std::move(Params)),
        Args(std::move(Args)), Body(Body) {
    assert(this->Params.size() == this->Args.size());
  }
  Symbol Self;
  std::vector<Symbol> Params;
  std::vector<Symbol> Args;
  const Pattern *Body;
};

/// P(y1, …, yn) — recursive pattern call, valid only inside the body of the
/// μ that binds P.
class RecCallPattern final : public Pattern {
public:
  Symbol self() const { return Self; }
  std::span<const Symbol> args() const { return Args; }
  static bool classof(const Pattern *P) {
    return P->kind() == PatternKind::RecCall;
  }

private:
  friend class PatternArena;
  RecCallPattern(Symbol Self, std::vector<Symbol> Args)
      : Pattern(PatternKind::RecCall), Self(Self), Args(std::move(Args)) {}
  Symbol Self;
  std::vector<Symbol> Args;
};

//===----------------------------------------------------------------------===//
// Replacement templates (rule right-hand sides)
//===----------------------------------------------------------------------===//

enum class RhsKind : uint8_t { VarRef, App, FunVarApp };

/// A replacement template: the "return expression" of an @rule body. Built
/// into a concrete term/graph under a match substitution ⟨θ, φ⟩. Node
/// attributes are arithmetic guard expressions evaluated under the same
/// substitution (so a rule can, e.g., copy `x.stride` onto the fused node or
/// record `F.op_id` as the epilog selector).
class RhsExpr {
public:
  RhsKind kind() const { return Kind; }

  Symbol var() const {
    assert(Kind == RhsKind::VarRef);
    return Name;
  }
  Symbol funVar() const {
    assert(Kind == RhsKind::FunVarApp);
    return Name;
  }
  term::OpId op() const {
    assert(Kind == RhsKind::App);
    return Op;
  }
  std::span<const RhsExpr *const> children() const { return Children; }

  struct AttrTemplate {
    Symbol Key;
    const GuardExpr *Value;
  };
  std::span<const AttrTemplate> attrTemplates() const { return Attrs; }

  std::string toString(const term::Signature &Sig) const;

private:
  friend class PatternArena;
  RhsExpr() = default;

  RhsKind Kind = RhsKind::VarRef;
  Symbol Name;
  term::OpId Op;
  std::vector<const RhsExpr *> Children;
  std::vector<AttrTemplate> Attrs;
};

//===----------------------------------------------------------------------===//
// Arena
//===----------------------------------------------------------------------===//

/// Owns pattern, guard, and RHS nodes. Nodes live as long as the arena.
class PatternArena {
public:
  PatternArena() = default;
  PatternArena(const PatternArena &) = delete;
  PatternArena &operator=(const PatternArena &) = delete;
  PatternArena(PatternArena &&) = default;
  PatternArena &operator=(PatternArena &&) = default;

  // --- Pattern constructors ---
  const Pattern *var(Symbol Name);
  const Pattern *var(std::string_view Name) {
    return var(Symbol::intern(Name));
  }
  const Pattern *app(term::OpId Op, std::vector<const Pattern *> Children);
  const Pattern *funVarApp(Symbol FunVar,
                           std::vector<const Pattern *> Children);
  const Pattern *alt(const Pattern *Left, const Pattern *Right);
  /// Folds a list of alternates right-associatively; requires nonempty.
  const Pattern *altList(std::span<const Pattern *const> Alts);
  const Pattern *guarded(const Pattern *Sub, const GuardExpr *Guard);
  const Pattern *exists(Symbol Var, const Pattern *Sub);
  const Pattern *existsFun(Symbol FunVar, const Pattern *Sub);
  const Pattern *matchConstraint(const Pattern *Sub, const Pattern *Constraint,
                                 Symbol Var);
  const Pattern *mu(Symbol Self, std::vector<Symbol> Params,
                    std::vector<Symbol> Args, const Pattern *Body);
  const Pattern *recCall(Symbol Self, std::vector<Symbol> Args);

  // --- Guard constructors ---
  const GuardExpr *intLit(int64_t Value);
  const GuardExpr *attr(Symbol Var, Symbol Attr);
  const GuardExpr *funAttr(Symbol FunVar, Symbol Attr);
  const GuardExpr *opClassRef(Symbol ClassName);
  const GuardExpr *opRef(Symbol OpName);
  const GuardExpr *binary(GuardKind Kind, const GuardExpr *Lhs,
                          const GuardExpr *Rhs);
  const GuardExpr *notExpr(const GuardExpr *Sub);

  // --- RHS constructors ---
  const RhsExpr *rhsVar(Symbol Name);
  const RhsExpr *rhsApp(term::OpId Op, std::vector<const RhsExpr *> Children,
                        std::vector<RhsExpr::AttrTemplate> Attrs = {});
  const RhsExpr *rhsFunVarApp(Symbol FunVar,
                              std::vector<const RhsExpr *> Children,
                              std::vector<RhsExpr::AttrTemplate> Attrs = {});

  /// Clones \p G into this arena, rewriting term-attribute accesses `v.α`
  /// into function-attribute accesses when \p IsFunVar(v) holds. Used by
  /// the DSL frontend, which cannot classify identifiers while parsing.
  const GuardExpr *importGuard(const GuardExpr *G,
                               const std::function<bool(Symbol)> &IsFunVar);

  /// Clones \p P into this arena applying the variable/function-variable
  /// renames in \p Renames and freshening every ∃ binder in the copy
  /// with a name from \p Names (the compile's minter).
  /// This is the instantiation step used when a pattern definition is
  /// inlined at a reference site (DSL lowering).
  const Pattern *instantiate(const Pattern *P,
                             const std::unordered_map<Symbol, Symbol> &Renames,
                             FreshNames &Names);

  /// One-step unfolding of a μ pattern (ST-Match-Mu / P-Mu):
  ///   p' = p[μP(x̄)/P][yᵢ/xᵢ]
  /// implemented as a capture-avoiding clone: parameter occurrences are
  /// renamed to the μ's args, recursive calls P(z̄) are rewrapped as
  /// μP(x̄)[z̄].p sharing the original body, and every ∃-binder in the copy
  /// is freshened (Symbol::fresh) so repeated unfoldings of patterns like
  /// Fig. 4's do not collide on their local variables.
  const Pattern *unfoldMu(const MuPattern *Mu);

  size_t numPatternNodes() const { return Patterns.size(); }

private:
  template <typename T, typename... Args> T *create(Args &&...CtorArgs);

  struct CloneEnv;
  const Pattern *clone(const Pattern *P, CloneEnv &Env);
  const GuardExpr *cloneGuard(const GuardExpr *G, const CloneEnv &Env);

  // shared_ptr<void> captures each node's concrete deleter, so the
  // protected non-virtual base destructor is never used for deletion.
  std::deque<std::shared_ptr<void>> PatternStorage;
  std::deque<std::unique_ptr<GuardExpr>> GuardStorage;
  std::deque<std::unique_ptr<RhsExpr>> RhsStorage;
  std::vector<const Pattern *> Patterns; // for numPatternNodes
};

//===----------------------------------------------------------------------===//
// Library: a compiled PyPM program fragment
//===----------------------------------------------------------------------===//

/// A named, compiled pattern (the result of lowering all same-named
/// @pattern alternates into one core pattern).
struct NamedPattern {
  Symbol Name;
  /// The user-visible parameters (the match's reported bindings).
  std::vector<Symbol> Params;
  /// Function-variable parameters (subset of semantics: params declared as
  /// `opvar` in the DSL). Kept for rule binding and reporting.
  std::vector<Symbol> FunParams;
  const Pattern *Pat = nullptr;
  /// DSL location of the first @pattern alternate, when compiled from
  /// source. Invalid (Line 0) for builder-API patterns — diagnostics then
  /// fall back to the pattern name.
  SourceLoc Loc;
  /// Per-alternate DSL locations, parallel to the top-level ‖-list of Pat
  /// (empty for builder-API patterns or single-alternate groups compiled
  /// before locations existed).
  std::vector<SourceLoc> AltLocs;
};

/// A compiled rewrite rule: when `PatternName` matches with ⟨θ, φ⟩ and
/// Guard (if any) evaluates true, replace the matched root by Rhs[θ, φ].
struct RewriteRule {
  Symbol Name;
  Symbol PatternName;
  const GuardExpr *Guard = nullptr; ///< nullable
  const RhsExpr *Rhs = nullptr;
  /// DSL location of the rule path's `return` (or the @rule header for
  /// single-path rules). Invalid for builder-API rules.
  SourceLoc Loc;
};

/// A compiled PyPM "pattern binary" in memory: owns the nodes of its
/// patterns and rules. Operators live in an external Signature that the
/// library was compiled against.
struct Library {
  PatternArena Arena;
  std::vector<NamedPattern> PatternDefs;
  std::vector<RewriteRule> Rules;

  const NamedPattern *findPattern(Symbol Name) const {
    for (const NamedPattern &NP : PatternDefs)
      if (NP.Name == Name)
        return &NP;
    return nullptr;
  }
  const NamedPattern *findPattern(std::string_view Name) const {
    return findPattern(Symbol::intern(Name));
  }
  /// Rules for a given pattern, in definition order (the engine fires the
  /// first whose guard passes, §2).
  std::vector<const RewriteRule *> rulesFor(Symbol PatternName) const {
    std::vector<const RewriteRule *> Out;
    for (const RewriteRule &R : Rules)
      if (R.PatternName == PatternName)
        Out.push_back(&R);
    return Out;
  }
};

} // namespace pypm::pattern

#endif // PYPM_PATTERN_PATTERN_H
