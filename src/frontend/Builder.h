//===- frontend/Builder.h - Fluent C++ pattern/rule builder -----*- C++ -*-===//
///
/// \file
/// A programmatic counterpart of the PyPM decorators (§2): where a Python
/// user writes
///
///   @pattern
///   def MMxyT(x, y):
///     assert x.shape.rank == 2
///     yt = Trans(y)
///     return MatMul(x, yt)
///
/// a C++ user writes
///
///   ModuleBuilder B(Sig);
///   auto MatMul = B.op("MatMul", 2);
///   auto Trans = B.op("Trans", 1);
///   auto P = B.pattern("MMxyT", {"x", "y"});
///   P.require(P.arg("x")["rank"] == 2);
///   P.ret(MatMul(P.arg("x"), Trans(P.arg("y"))));
///   P.done();
///
/// Alternates are added by calling pattern() again with the same name;
/// recursion uses PatternBuilder::self(). Rules attach guards and an RHS
/// template. The builder produces exactly the same core-calculus Library
/// the DSL frontend produces (tests check the two agree on the paper's
/// figures).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_FRONTEND_BUILDER_H
#define PYPM_FRONTEND_BUILDER_H

#include "pattern/Pattern.h"

#include <memory>
#include <string_view>
#include <vector>

namespace pypm::frontend {

class ModuleBuilder;
class PatternBuilder;
class RuleBuilder;

/// A pattern-position expression under construction.
struct PExpr {
  const pattern::Pattern *P = nullptr;
};

/// A guard (or arithmetic) expression under construction. Overloaded
/// operators build the Fig. 8 grammar.
struct GExpr {
  const pattern::GuardExpr *G = nullptr;
  pattern::PatternArena *Arena = nullptr;

  friend GExpr operator+(GExpr A, GExpr B);
  friend GExpr operator-(GExpr A, GExpr B);
  friend GExpr operator*(GExpr A, GExpr B);
  friend GExpr operator/(GExpr A, GExpr B);
  friend GExpr operator%(GExpr A, GExpr B);
  friend GExpr operator==(GExpr A, GExpr B);
  friend GExpr operator!=(GExpr A, GExpr B);
  friend GExpr operator<(GExpr A, GExpr B);
  friend GExpr operator<=(GExpr A, GExpr B);
  friend GExpr operator>(GExpr A, GExpr B);
  friend GExpr operator>=(GExpr A, GExpr B);
  friend GExpr operator&&(GExpr A, GExpr B);
  friend GExpr operator||(GExpr A, GExpr B);
  friend GExpr operator!(GExpr A);

  // Mixed int forms.
  friend GExpr operator==(GExpr A, int64_t B);
  friend GExpr operator!=(GExpr A, int64_t B);
  friend GExpr operator<(GExpr A, int64_t B);
  friend GExpr operator<=(GExpr A, int64_t B);
  friend GExpr operator>(GExpr A, int64_t B);
  friend GExpr operator>=(GExpr A, int64_t B);
};

/// An RHS-position expression under construction.
struct RExpr {
  const pattern::RhsExpr *R = nullptr;
};

/// A term variable handle. `X["rank"]` is the guard expression x.rank;
/// implicit conversion yields the variable pattern.
class VarHandle {
public:
  VarHandle(Symbol Name, pattern::PatternArena &Arena, bool IsFun)
      : Name(Name), Arena(&Arena), IsFun(IsFun) {}

  Symbol name() const { return Name; }
  bool isFunVar() const { return IsFun; }

  /// Attribute access: x["rank"], F["op_class"].
  GExpr operator[](std::string_view Attr) const;

  /// The variable as a pattern (term variables only).
  operator PExpr() const;

  /// The variable as a rule RHS (term variables only).
  RExpr rhs() const;

private:
  Symbol Name;
  pattern::PatternArena *Arena;
  bool IsFun;
};

/// An operator handle; calling it builds App patterns / RHS applications.
class OpHandle {
public:
  OpHandle() = default;
  OpHandle(term::OpId Op, pattern::PatternArena &Arena)
      : Op(Op), Arena(&Arena) {}

  term::OpId id() const { return Op; }

  PExpr operator()(std::initializer_list<PExpr> Args) const;
  PExpr operator()() const { return (*this)({}); }
  PExpr operator()(PExpr A) const { return (*this)({A}); }
  PExpr operator()(PExpr A, PExpr B) const { return (*this)({A, B}); }
  PExpr operator()(PExpr A, PExpr B, PExpr C) const {
    return (*this)({A, B, C});
  }

  /// RHS application, with optional attribute templates.
  RExpr rhs(std::initializer_list<RExpr> Args,
            std::vector<pattern::RhsExpr::AttrTemplate> Attrs = {}) const;

private:
  term::OpId Op;
  pattern::PatternArena *Arena = nullptr;
};

/// Builds one alternate of a named pattern. Statements mirror the Python
/// body: fresh local variables (var()), function variables, match
/// constraints (<=), assertions, and the final return. done() commits the
/// alternate into the module.
class PatternBuilder {
public:
  /// The named parameter (term variable by default; funParam() promotes).
  VarHandle arg(std::string_view Name);
  /// Marks a parameter as a function variable (used in function position).
  VarHandle funParam(std::string_view Name);

  /// y = var()
  VarHandle var(std::string_view Name);
  /// F = opvar(arity)
  VarHandle opvar(std::string_view Name);

  /// assert g
  PatternBuilder &require(GExpr G);
  /// x <= p
  PatternBuilder &constrain(VarHandle X, PExpr P);
  /// f(args…) for a function variable f.
  PExpr fcall(VarHandle F, std::initializer_list<PExpr> Args);
  /// Recursive reference to this pattern: Self(args…).
  PExpr self(std::initializer_list<VarHandle> Args);
  /// A scalar-constant pattern (matches Const nodes with this value).
  PExpr lit(double Value);
  /// An integer guard literal.
  GExpr intLit(int64_t Value);
  /// opclass("…") guard literal.
  GExpr opclass(std::string_view Name);

  /// return p — records the alternate's body.
  PatternBuilder &ret(PExpr P);

  /// Commits this alternate. Must be the last call.
  void done();

private:
  friend class ModuleBuilder;
  PatternBuilder(ModuleBuilder &M, Symbol Name,
                 std::vector<Symbol> Params);

  struct Wrapper {
    enum class Kind { Guard, Constraint, Exists, ExistsFun } K;
    const pattern::GuardExpr *G = nullptr;
    Symbol Var;
    const pattern::Pattern *ConstraintPat = nullptr;
  };

  ModuleBuilder &M;
  Symbol Name;
  std::vector<Symbol> Params;
  std::vector<Wrapper> Wrappers;
  const pattern::Pattern *Body = nullptr;
  bool UsedSelf = false;
  bool Committed = false;
};

/// Builds one rule for a pattern.
class RuleBuilder {
public:
  VarHandle arg(std::string_view Name);
  RuleBuilder &require(GExpr G);
  /// Finishes the rule with the given replacement.
  void ret(RExpr R);

  /// F(args…) on the RHS for a matched function variable.
  RExpr fcallRhs(VarHandle F, std::initializer_list<RExpr> Args,
                 std::vector<pattern::RhsExpr::AttrTemplate> Attrs = {});
  GExpr intLit(int64_t Value);

private:
  friend class ModuleBuilder;
  RuleBuilder(ModuleBuilder &M, Symbol Name, Symbol PatternName);

  ModuleBuilder &M;
  Symbol Name;
  Symbol PatternName;
  std::vector<const pattern::GuardExpr *> Guards;
  bool Committed = false;
};

/// Owns the Library being built and the op declarations.
class ModuleBuilder {
public:
  explicit ModuleBuilder(term::Signature &Sig);

  term::Signature &signature() { return Sig; }
  pattern::PatternArena &arena() { return Lib->Arena; }

  /// Declares (or looks up) an operator.
  OpHandle op(std::string_view Name, unsigned Arity,
              std::string_view OpClass = {});

  /// Starts an alternate of pattern \p Name. All alternates of one name
  /// must pass the same parameter list.
  PatternBuilder pattern(std::string_view Name,
                         std::initializer_list<std::string_view> Params);

  /// Starts a rule for \p PatternName.
  RuleBuilder rule(std::string_view Name, std::string_view PatternName);

  /// Finalizes: folds alternates (wrapping self-recursive groups in μ),
  /// runs the well-formedness checker, and returns the Library. Aborts on
  /// builder misuse (assert) and returns nullptr on WF errors (rendered to
  /// stderr).
  std::unique_ptr<pattern::Library> finish();

private:
  friend class PatternBuilder;
  friend class RuleBuilder;

  struct Group {
    Symbol Name;
    std::vector<Symbol> Params;
    std::vector<Symbol> FunParams;
    std::vector<const pattern::Pattern *> Alts;
    bool SelfRecursive = false;
  };
  Group &groupFor(Symbol Name, const std::vector<Symbol> &Params);

  term::Signature &Sig;
  std::unique_ptr<pattern::Library> Lib;
  std::vector<Group> Groups;
  /// Binder names for literals (FreshNames).
  FreshNames Names;
};

} // namespace pypm::frontend

#endif // PYPM_FRONTEND_BUILDER_H
