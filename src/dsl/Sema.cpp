//===- dsl/Sema.cpp - DSL semantic analysis and lowering --------------------===//

#include "dsl/Sema.h"

#include "pattern/WellFormed.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <unordered_set>
#include <unordered_map>
#include <unordered_set>

using namespace pypm;
using namespace pypm::dsl;
using namespace pypm::pattern;

namespace {

/// Depth-first include resolution with include-once semantics. Included
/// modules are parsed, their own includes resolved, and their declarations
/// merged *before* the includer's (so an includer can reference included
/// patterns). The included ModuleAsts are adopted by \p Root so merged AST
/// pointers stay valid.
bool resolveIncludes(ModuleAst &Root, const CompileOptions &Opts,
                     DiagnosticEngine &Diags,
                     std::unordered_set<std::string> &Seen) {
  if (Root.Includes.empty())
    return true;
  std::vector<OpDeclAst> MergedOps;
  std::vector<PatternDefAst> MergedPatterns;
  std::vector<RuleDefAst> MergedRules;
  for (const IncludeAst &Inc : Root.Includes) {
    if (!Seen.insert(Inc.Path).second)
      continue; // include-once
    if (!Opts.Resolver) {
      Diags.error(Inc.Loc, "sema.include", "includes are not available in this context "
                           "(no resolver configured)");
      return false;
    }
    std::optional<std::string> Source = Opts.Resolver(Inc.Path);
    if (!Source) {
      Diags.error(Inc.Loc, "sema", "cannot resolve include \"" + Inc.Path + "\"");
      return false;
    }
    std::unique_ptr<ModuleAst> Sub = parseModule(*Source, Diags);
    if (!Sub) {
      Diags.note(Inc.Loc, "while processing include \"" + Inc.Path + "\"");
      return false;
    }
    if (!resolveIncludes(*Sub, Opts, Diags, Seen))
      return false;
    MergedOps.insert(MergedOps.end(), Sub->Ops.begin(), Sub->Ops.end());
    MergedPatterns.insert(MergedPatterns.end(), Sub->Patterns.begin(),
                          Sub->Patterns.end());
    MergedRules.insert(MergedRules.end(), Sub->Rules.begin(),
                       Sub->Rules.end());
    Root.Included.push_back(std::move(Sub));
  }
  MergedOps.insert(MergedOps.end(), Root.Ops.begin(), Root.Ops.end());
  MergedPatterns.insert(MergedPatterns.end(), Root.Patterns.begin(),
                        Root.Patterns.end());
  MergedRules.insert(MergedRules.end(), Root.Rules.begin(),
                     Root.Rules.end());
  Root.Ops = std::move(MergedOps);
  Root.Patterns = std::move(MergedPatterns);
  Root.Rules = std::move(MergedRules);
  Root.Includes.clear();
  return true;
}

class SemaImpl {
public:
  SemaImpl(const ModuleAst &M, term::Signature &Sig, DiagnosticEngine &Diags)
      : M(M), Sig(Sig), Diags(Diags) {}

  std::unique_ptr<Library> run() {
    Lib = std::make_unique<Library>();
    declareOps();
    groupPatterns();
    for (size_t I = 0; I != Groups.size(); ++I)
      compileGroup(Groups[I]);
    for (const RuleDefAst &R : M.Rules)
      lowerRule(R);
    if (Diags.hasErrors())
      return nullptr;
    if (!checkWellFormed(*Lib, Sig, Diags))
      return nullptr;
    return std::move(Lib);
  }

private:
  const ModuleAst &M;
  term::Signature &Sig;
  DiagnosticEngine &Diags;
  std::unique_ptr<Library> Lib;
  /// Binder names for literals and inlined parameters (FreshNames).
  FreshNames Names;

  struct Group {
    Symbol Name;
    std::vector<const PatternDefAst *> Defs;
    std::vector<Symbol> Params;
    std::unordered_set<Symbol> FunParams;
    bool SelfRecursive = false;
    bool Compiling = false;
    bool Compiled = false;
    /// Owned compiled result; Result points here (stable across the
    /// Library's own PatternDefs vector growing).
    NamedPattern OwnNP;
    const NamedPattern *Result = nullptr;
  };
  std::vector<Group> Groups;
  std::unordered_map<Symbol, size_t> GroupIndex;

  void error(SourceLoc Loc, std::string Msg) {
    Diags.error(Loc, std::move(Msg));
  }
  void error(SourceLoc Loc, std::string Code, std::string Msg) {
    Diags.error(Loc, std::move(Code), std::move(Msg));
  }

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  void declareOps() {
    for (const OpDeclAst &D : M.Ops) {
      term::OpId Existing = Sig.lookup(D.Name);
      if (Existing.isValid()) {
        if (Sig.arity(Existing) != D.Arity)
          error(D.Loc, "sema.operator", "operator '" + std::string(D.Name.str()) +
                           "' already declared with arity " +
                           std::to_string(Sig.arity(Existing)));
        continue;
      }
      Sig.addOp(D.Name.str(), D.Arity, D.Results,
                D.OpClass.isValid() ? D.OpClass.str() : std::string_view(),
                D.AttrNames);
    }
  }

  term::OpId constOp() {
    term::OpId Op = Sig.lookup("Const");
    if (!Op.isValid())
      Op = Sig.addOp("Const", 0, 1, "const",
                     {Symbol::intern("value_u6")});
    return Op;
  }

  void groupPatterns() {
    for (const PatternDefAst &D : M.Patterns) {
      auto It = GroupIndex.find(D.Name);
      if (It == GroupIndex.end()) {
        GroupIndex.emplace(D.Name, Groups.size());
        Groups.push_back(Group());
        Groups.back().Name = D.Name;
        Groups.back().Params = D.Params;
        Groups.back().Defs.push_back(&D);
        if (Sig.lookup(D.Name).isValid())
          error(D.Loc, "sema.pattern", "pattern '" + std::string(D.Name.str()) +
                           "' shadows an operator of the same name");
        continue;
      }
      Group &G = Groups[It->second];
      if (D.Params != G.Params)
        error(D.Loc, "sema.pattern", "alternate of pattern '" + std::string(D.Name.str()) +
                         "' has a different parameter list than the first "
                         "definition");
      G.Defs.push_back(&D);
    }
  }

  //===------------------------------------------------------------------===//
  // Per-definition lowering environment
  //===------------------------------------------------------------------===//

  struct LocalInfo {
    enum class Kind : uint8_t { Param, LocalVar, LocalOpVar, Alias };
    Kind K = Kind::Param;
    unsigned OpVarArity = 0;
    const Expr *AliasExpr = nullptr;
  };

  struct DefEnv {
    Group *G = nullptr;
    std::unordered_map<Symbol, LocalInfo> Locals;

    const LocalInfo *lookup(Symbol S) const {
      auto It = Locals.find(S);
      return It == Locals.end() ? nullptr : &It->second;
    }
    bool isFunVar(Symbol S) const {
      if (G->FunParams.count(S))
        return true;
      const LocalInfo *L = lookup(S);
      return L && L->K == LocalInfo::Kind::LocalOpVar;
    }
    bool isTermVar(Symbol S) const {
      if (G->FunParams.count(S))
        return false;
      const LocalInfo *L = lookup(S);
      if (!L)
        return false;
      return L->K == LocalInfo::Kind::Param ||
             L->K == LocalInfo::Kind::LocalVar;
    }
  };

  const GuardExpr *importGuard(const GuardExpr *G, const DefEnv &Env) {
    return Lib->Arena.importGuard(
        G, [&Env](Symbol S) { return Env.isFunVar(S); });
  }

  //===------------------------------------------------------------------===//
  // Function-variable classification
  //===------------------------------------------------------------------===//

  /// A parameter is a function variable if any alternate applies it like an
  /// operator, or passes it into a function-variable parameter position of
  /// a referenced (or the self) pattern. Iterated to a fixpoint within the
  /// group; referenced groups are compiled first, so their classification
  /// is final.
  void classifyFunParams(Group &G) {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const PatternDefAst *D : G.Defs) {
        std::unordered_set<Symbol> LocalOpVars;
        for (const Stmt *S : D->Body)
          if (S->K == Stmt::Kind::OpVarDecl)
            LocalOpVars.insert(S->Name);
        for (const Stmt *S : D->Body)
          Changed |= scanStmtForFunUses(G, *D, S, LocalOpVars);
      }
    }
  }

  bool scanStmtForFunUses(Group &G, const PatternDefAst &D, const Stmt *S,
                          const std::unordered_set<Symbol> &LocalOpVars) {
    bool Changed = false;
    if (S->E)
      Changed |= scanExprForFunUses(G, S->E, LocalOpVars);
    for (const Stmt *Sub : S->Then)
      Changed |= scanStmtForFunUses(G, D, Sub, LocalOpVars);
    for (const Stmt *Sub : S->Else)
      Changed |= scanStmtForFunUses(G, D, Sub, LocalOpVars);
    return Changed;
  }

  bool isParam(const Group &G, Symbol S) {
    for (Symbol P : G.Params)
      if (P == S)
        return true;
    return false;
  }

  bool markFunParam(Group &G, Symbol S) {
    if (!isParam(G, S))
      return false;
    return G.FunParams.insert(S).second;
  }

  bool scanExprForFunUses(Group &G, const Expr *E,
                          const std::unordered_set<Symbol> &LocalOpVars) {
    if (E->K != Expr::Kind::Call)
      return false;
    bool Changed = false;
    Symbol Head = E->Name;
    bool HeadIsOp = Sig.lookup(Head).isValid();
    bool HeadIsPattern = GroupIndex.count(Head) != 0;
    if (!HeadIsOp && !HeadIsPattern && !LocalOpVars.count(Head))
      Changed |= markFunParam(G, Head);
    // Propagate through pattern calls: an argument in a fun-param position
    // must itself be a function variable.
    if (HeadIsPattern) {
      const Group &Target = Groups[GroupIndex.at(Head)];
      const std::unordered_set<Symbol> &TargetFun =
          Target.Name == G.Name ? G.FunParams : Target.FunParams;
      for (size_t I = 0;
           I < E->Args.size() && I < Target.Params.size(); ++I) {
        const Expr *Arg = E->Args[I];
        if (TargetFun.count(Target.Params[I]) && Arg->K == Expr::Kind::Ref)
          Changed |= markFunParam(G, Arg->Name);
      }
    }
    for (const Expr *Arg : E->Args)
      Changed |= scanExprForFunUses(G, Arg, LocalOpVars);
    return Changed;
  }

  //===------------------------------------------------------------------===//
  // Pattern group compilation
  //===------------------------------------------------------------------===//

  const NamedPattern *compileGroup(Group &G) {
    if (G.Compiled)
      return G.Result;
    if (G.Compiling) {
      error(G.Defs.front()->Loc, "sema.recursion",
            "mutual recursion between named patterns is not supported "
            "(pattern '" +
                std::string(G.Name.str()) +
                "' participates in a reference cycle); only direct "
                "self-recursion lowers to a mu pattern");
      G.Compiled = true;
      return nullptr;
    }
    G.Compiling = true;

    // Compile every referenced group first (so classification and inlining
    // see final results); detect self-recursion on the way.
    for (const PatternDefAst *D : G.Defs)
      for (const Stmt *S : D->Body)
        visitRefs(G, S);

    classifyFunParams(G);

    std::vector<const Pattern *> Alts;
    std::vector<SourceLoc> AltLocs;
    for (const PatternDefAst *D : G.Defs)
      if (const Pattern *P = lowerDef(G, *D)) {
        Alts.push_back(P);
        AltLocs.push_back(D->Loc);
      }
    G.Compiling = false;
    G.Compiled = true;
    if (Alts.empty() || Diags.hasErrors())
      return nullptr;

    const Pattern *Combined = Lib->Arena.altList(Alts);
    if (G.SelfRecursive) {
      std::vector<Symbol> Params(G.Params.begin(), G.Params.end());
      Combined = Lib->Arena.mu(G.Name, Params, Params, Combined);
    }

    G.OwnNP.Name = G.Name;
    G.OwnNP.Params = G.Params;
    for (Symbol P : G.Params)
      if (G.FunParams.count(P))
        G.OwnNP.FunParams.push_back(P);
    G.OwnNP.Pat = Combined;
    G.OwnNP.Loc = G.Defs.front()->Loc;
    G.OwnNP.AltLocs = std::move(AltLocs);
    Lib->PatternDefs.push_back(G.OwnNP);
    G.Result = &G.OwnNP;
    return G.Result;
  }

  void visitRefs(Group &G, const Stmt *S) {
    if (S->E)
      visitRefs(G, S->E);
    for (const Stmt *Sub : S->Then)
      visitRefs(G, Sub);
    for (const Stmt *Sub : S->Else)
      visitRefs(G, Sub);
  }

  void visitRefs(Group &G, const Expr *E) {
    if (E->K == Expr::Kind::Call || E->K == Expr::Kind::Ref) {
      auto It = GroupIndex.find(E->Name);
      if (It != GroupIndex.end()) {
        Group &Target = Groups[It->second];
        if (Target.Name == G.Name)
          G.SelfRecursive = true;
        else
          compileGroup(Target);
      }
    }
    for (const Expr *Arg : E->Args)
      visitRefs(G, Arg);
  }

  //===------------------------------------------------------------------===//
  // Body lowering
  //===------------------------------------------------------------------===//

  const Pattern *lowerDef(Group &G, const PatternDefAst &D) {
    DefEnv Env;
    Env.G = &G;
    for (Symbol P : D.Params)
      Env.Locals[P] = LocalInfo{LocalInfo::Kind::Param, 0, nullptr};

    struct Wrapper {
      enum class Kind { Guard, Constraint, Exists, ExistsFun } K;
      const GuardExpr *G = nullptr;
      Symbol Var;
      const Pattern *ConstraintPat = nullptr;
    };
    std::vector<Wrapper> Wrappers;
    const Expr *ReturnExpr = nullptr;

    for (const Stmt *S : D.Body) {
      if (ReturnExpr) {
        error(S->Loc, "sema.body", "statement after 'return' in pattern body");
        break;
      }
      switch (S->K) {
      case Stmt::Kind::Assert:
        Wrappers.push_back(
            {Wrapper::Kind::Guard, importGuard(S->Guard, Env), Symbol(),
             nullptr});
        break;
      case Stmt::Kind::VarDecl:
        if (Env.lookup(S->Name))
          error(S->Loc, "sema.redeclaration", "redeclaration of '" + std::string(S->Name.str()) +
                            "'");
        Env.Locals[S->Name] = LocalInfo{LocalInfo::Kind::LocalVar, 0, nullptr};
        Wrappers.push_back(
            {Wrapper::Kind::Exists, nullptr, S->Name, nullptr});
        break;
      case Stmt::Kind::OpVarDecl:
        if (Env.lookup(S->Name))
          error(S->Loc, "sema.redeclaration", "redeclaration of '" + std::string(S->Name.str()) +
                            "'");
        Env.Locals[S->Name] =
            LocalInfo{LocalInfo::Kind::LocalOpVar, S->Arity, nullptr};
        Wrappers.push_back(
            {Wrapper::Kind::ExistsFun, nullptr, S->Name, nullptr});
        break;
      case Stmt::Kind::Alias:
        if (Env.lookup(S->Name))
          error(S->Loc, "sema.redeclaration", "redeclaration of '" + std::string(S->Name.str()) +
                            "'");
        Env.Locals[S->Name] =
            LocalInfo{LocalInfo::Kind::Alias, 0, S->E};
        break;
      case Stmt::Kind::Constraint: {
        if (!Env.isTermVar(S->Name)) {
          error(S->Loc, "sema.constraint", "match constraint target '" +
                            std::string(S->Name.str()) +
                            "' is not a pattern variable");
          break;
        }
        const Pattern *CP = lowerExpr(G, Env, S->E);
        if (CP)
          Wrappers.push_back(
              {Wrapper::Kind::Constraint, nullptr, S->Name, CP});
        break;
      }
      case Stmt::Kind::Return:
        ReturnExpr = S->E;
        break;
      case Stmt::Kind::If:
        error(S->Loc, "sema.body", "'if' is not allowed in pattern bodies");
        break;
      }
    }

    if (!ReturnExpr) {
      error(D.Loc, "sema", "pattern body must end with 'return'");
      return nullptr;
    }
    const Pattern *P = lowerExpr(G, Env, ReturnExpr);
    if (!P)
      return nullptr;

    // Wrap in reverse statement order so earlier statements end up
    // *outermost*: an ∃ from `v = var()` then encloses every later
    // constraint and guard that uses v (Fig. 4 depends on this — the
    // machine's checkName(v) must run after the match constraint that
    // binds v). Guards are conjunctive, so their relative evaluation
    // order does not change the relation.
    for (size_t I = Wrappers.size(); I-- > 0;) {
      const Wrapper &W = Wrappers[I];
      switch (W.K) {
      case Wrapper::Kind::Guard:
        P = Lib->Arena.guarded(P, W.G);
        break;
      case Wrapper::Kind::Constraint:
        P = Lib->Arena.matchConstraint(P, W.ConstraintPat, W.Var);
        break;
      case Wrapper::Kind::Exists:
        P = Lib->Arena.exists(W.Var, P);
        break;
      case Wrapper::Kind::ExistsFun:
        P = Lib->Arena.existsFun(W.Var, P);
        break;
      }
    }
    return P;
  }

  /// Lowers a numeric literal to a Const-matching pattern:
  ///   ∃c. (c ; guard(c.op_id == op("Const") && c.value_u6 == V))
  const Pattern *lowerLiteral(int64_t MicroValue) {
    term::OpId Const = constOp();
    (void)Const;
    Symbol C = Names.next("lit");
    const GuardExpr *IsConst = Lib->Arena.binary(
        GuardKind::Eq, Lib->Arena.attr(C, Symbol::intern("op_id")),
        Lib->Arena.opRef(Symbol::intern("Const")));
    const GuardExpr *HasValue = Lib->Arena.binary(
        GuardKind::Eq, Lib->Arena.attr(C, Symbol::intern("value_u6")),
        Lib->Arena.intLit(MicroValue));
    const GuardExpr *Both =
        Lib->Arena.binary(GuardKind::And, IsConst, HasValue);
    return Lib->Arena.exists(C,
                             Lib->Arena.guarded(Lib->Arena.var(C), Both));
  }

  const Pattern *lowerExpr(Group &G, DefEnv &Env, const Expr *E) {
    switch (E->K) {
    case Expr::Kind::Literal:
      return lowerLiteral(E->Value);

    case Expr::Kind::Ref: {
      if (const LocalInfo *L = Env.lookup(E->Name)) {
        switch (L->K) {
        case LocalInfo::Kind::Param:
        case LocalInfo::Kind::LocalVar:
          if (Env.isFunVar(E->Name)) {
            error(E->Loc, "sema.funvar", "function variable '" + std::string(E->Name.str()) +
                              "' used in term position");
            return nullptr;
          }
          return Lib->Arena.var(E->Name);
        case LocalInfo::Kind::LocalOpVar:
          error(E->Loc, "sema.funvar", "function variable '" + std::string(E->Name.str()) +
                            "' used in term position");
          return nullptr;
        case LocalInfo::Kind::Alias:
          return lowerExpr(G, Env, L->AliasExpr);
        }
      }
      if (term::OpId Op = Sig.lookup(E->Name); Op.isValid()) {
        if (Sig.arity(Op) != 0) {
          error(E->Loc, "sema.operator", "operator '" + std::string(E->Name.str()) +
                            "' requires arguments");
          return nullptr;
        }
        return Lib->Arena.app(Op, {});
      }
      if (GroupIndex.count(E->Name))
        return lowerPatternCall(G, Env, E);
      error(E->Loc, "sema.unknown-identifier", "unknown identifier '" + std::string(E->Name.str()) +
                        "' (parameters and var() locals are the only free "
                        "variables)");
      return nullptr;
    }

    case Expr::Kind::Call: {
      Symbol Head = E->Name;
      if (term::OpId Op = Sig.lookup(Head); Op.isValid()) {
        if (Sig.arity(Op) != E->Args.size()) {
          error(E->Loc, "sema.operator", "operator '" + std::string(Head.str()) +
                            "' expects " + std::to_string(Sig.arity(Op)) +
                            " arguments, got " +
                            std::to_string(E->Args.size()));
          return nullptr;
        }
        std::vector<const Pattern *> Children;
        for (const Expr *Arg : E->Args) {
          const Pattern *C = lowerExpr(G, Env, Arg);
          if (!C)
            return nullptr;
          Children.push_back(C);
        }
        return Lib->Arena.app(Op, std::move(Children));
      }
      if (GroupIndex.count(Head))
        return lowerPatternCall(G, Env, E);
      if (Env.isFunVar(Head)) {
        if (const LocalInfo *L = Env.lookup(Head);
            L && L->K == LocalInfo::Kind::LocalOpVar &&
            L->OpVarArity != E->Args.size()) {
          error(E->Loc, "sema.funvar", "function variable '" + std::string(Head.str()) +
                            "' declared with arity " +
                            std::to_string(L->OpVarArity) + ", applied to " +
                            std::to_string(E->Args.size()) + " arguments");
          return nullptr;
        }
        std::vector<const Pattern *> Children;
        for (const Expr *Arg : E->Args) {
          const Pattern *C = lowerExpr(G, Env, Arg);
          if (!C)
            return nullptr;
          Children.push_back(C);
        }
        return Lib->Arena.funVarApp(Head, std::move(Children));
      }
      error(E->Loc, "sema.unknown-identifier", "unknown operator or pattern '" +
                        std::string(Head.str()) + "'");
      return nullptr;
    }
    }
    return nullptr;
  }

  /// Lowers a reference to a named pattern: self-references become
  /// recursive calls; others are inlined via instantiation.
  const Pattern *lowerPatternCall(Group &G, DefEnv &Env, const Expr *E) {
    Group &Target = Groups[GroupIndex.at(E->Name)];
    bool IsSelf = Target.Name == G.Name;

    const std::vector<Symbol> &TargetParams = Target.Params;
    if (E->Args.size() != TargetParams.size()) {
      error(E->Loc, "sema.pattern", "pattern '" + std::string(E->Name.str()) + "' expects " +
                        std::to_string(TargetParams.size()) +
                        " arguments, got " + std::to_string(E->Args.size()));
      return nullptr;
    }

    if (IsSelf) {
      // Recursive call: arguments must be plain variables (as in every
      // example in the paper); complex arguments would require a pattern-
      // for-variable substitution the core calculus does not have.
      std::vector<Symbol> Args;
      for (const Expr *Arg : E->Args) {
        if (Arg->K != Expr::Kind::Ref || !Env.lookup(Arg->Name)) {
          error(Arg->Loc, "sema",
                "recursive pattern call arguments must be variables");
          return nullptr;
        }
        Args.push_back(Arg->Name);
      }
      return Lib->Arena.recCall(G.Name, std::move(Args));
    }

    const NamedPattern *NP = compileGroup(Target);
    if (!NP)
      return nullptr;

    std::unordered_map<Symbol, Symbol> Renames;
    struct ComplexArg {
      Symbol Fresh;
      const Pattern *Pat;
    };
    std::vector<ComplexArg> ComplexArgs;
    std::vector<const GuardExpr *> FunGuards;

    for (size_t I = 0; I != TargetParams.size(); ++I) {
      Symbol Param = TargetParams[I];
      const Expr *Arg = E->Args[I];
      bool ParamIsFun = Target.FunParams.count(Param) != 0;
      if (ParamIsFun) {
        if (Arg->K == Expr::Kind::Ref && Env.isFunVar(Arg->Name)) {
          Renames[Param] = Arg->Name;
          continue;
        }
        if (Arg->K == Expr::Kind::Ref && Sig.lookup(Arg->Name).isValid()) {
          // Concrete operator passed for a function parameter: synthesize a
          // fresh function variable pinned to that operator by a guard.
          Symbol F = Names.next(Arg->Name.str());
          Renames[Param] = F;
          FunGuards.push_back(Lib->Arena.binary(
              GuardKind::Eq,
              Lib->Arena.funAttr(F, Symbol::intern("op_id")),
              Lib->Arena.opRef(Arg->Name)));
          continue;
        }
        error(Arg->Loc, "sema.funvar", "argument for function parameter '" +
                            std::string(Param.str()) +
                            "' must be a function variable or operator name");
        return nullptr;
      }
      if (Arg->K == Expr::Kind::Ref && Env.isTermVar(Arg->Name)) {
        Renames[Param] = Arg->Name;
        continue;
      }
      // Complex argument: ∃w. (inlinee[param↦w] ; (w <= arg)).
      const Pattern *ArgPat = lowerExpr(G, Env, Arg);
      if (!ArgPat)
        return nullptr;
      Symbol Fresh = Names.next(Param.str());
      Renames[Param] = Fresh;
      ComplexArgs.push_back({Fresh, ArgPat});
    }

    const Pattern *Inst = Lib->Arena.instantiate(NP->Pat, Renames, Names);
    for (const GuardExpr *FG : FunGuards)
      Inst = Lib->Arena.guarded(Inst, FG);
    for (const ComplexArg &CA : ComplexArgs)
      Inst = Lib->Arena.exists(
          CA.Fresh, Lib->Arena.matchConstraint(Inst, CA.Pat, CA.Fresh));
    return Inst;
  }

  //===------------------------------------------------------------------===//
  // Rule lowering
  //===------------------------------------------------------------------===//

  void lowerRule(const RuleDefAst &R) {
    auto It = GroupIndex.find(R.PatternName);
    if (It == GroupIndex.end()) {
      error(R.Loc, "sema.rule", "rule '" + std::string(R.Name.str()) +
                       "' references unknown pattern '" +
                       std::string(R.PatternName.str()) + "'");
      return;
    }
    Group &G = Groups[It->second];
    if (!compileGroup(G))
      return;
    if (R.Params != G.Params) {
      error(R.Loc, "sema.rule", "rule '" + std::string(R.Name.str()) +
                       "' must bind exactly the pattern's parameters (in "
                       "order)");
      return;
    }

    DefEnv Env;
    Env.G = &G;
    for (Symbol P : R.Params)
      Env.Locals[P] = LocalInfo{LocalInfo::Kind::Param, 0, nullptr};

    unsigned EmittedRules = 0;
    std::vector<const GuardExpr *> Conj;
    std::unordered_map<Symbol, const Expr *> Aliases;
    lowerRulePath(R, G, Env, std::span<Stmt *const>(R.Body), Conj, Aliases,
                  EmittedRules);
    if (EmittedRules == 0)
      error(R.Loc, "sema.rule", "rule '" + std::string(R.Name.str()) +
                       "' has no reachable 'return'");
  }

  void lowerRulePath(const RuleDefAst &R, Group &G, DefEnv &Env,
                     std::span<Stmt *const> Stmts,
                     std::vector<const GuardExpr *> Conj,
                     std::unordered_map<Symbol, const Expr *> Aliases,
                     unsigned &EmittedRules) {
    for (size_t I = 0; I != Stmts.size(); ++I) {
      const Stmt *S = Stmts[I];
      switch (S->K) {
      case Stmt::Kind::Assert:
        Conj.push_back(importGuard(S->Guard, Env));
        continue;
      case Stmt::Kind::Alias:
        Aliases[S->Name] = S->E;
        continue;
      case Stmt::Kind::Return: {
        const RhsExpr *Rhs = lowerRhs(G, Env, Aliases, S->E);
        if (!Rhs)
          return;
        RewriteRule Rule;
        Rule.Name = EmittedRules == 0
                        ? R.Name
                        : Symbol::intern(std::string(R.Name.str()) + "#" +
                                         std::to_string(EmittedRules));
        Rule.PatternName = R.PatternName;
        Rule.Guard = foldConj(Conj);
        Rule.Rhs = Rhs;
        Rule.Loc = S->Loc.isValid() ? S->Loc : R.Loc;
        Lib->Rules.push_back(Rule);
        ++EmittedRules;
        return; // statements after return are unreachable on this path
      }
      case Stmt::Kind::If: {
        std::span<Stmt *const> Rest = Stmts.subspan(I + 1);
        // then-path: condition holds.
        {
          std::vector<const GuardExpr *> ThenConj = Conj;
          ThenConj.push_back(importGuard(S->Guard, Env));
          std::vector<Stmt *> ThenStmts(S->Then.begin(), S->Then.end());
          ThenStmts.insert(ThenStmts.end(), Rest.begin(), Rest.end());
          lowerRulePath(R, G, Env, ThenStmts, std::move(ThenConj), Aliases,
                        EmittedRules);
        }
        // else-path: condition fails.
        {
          std::vector<const GuardExpr *> ElseConj = std::move(Conj);
          ElseConj.push_back(
              Lib->Arena.notExpr(importGuard(S->Guard, Env)));
          std::vector<Stmt *> ElseStmts(S->Else.begin(), S->Else.end());
          ElseStmts.insert(ElseStmts.end(), Rest.begin(), Rest.end());
          lowerRulePath(R, G, Env, ElseStmts, std::move(ElseConj),
                        std::move(Aliases), EmittedRules);
        }
        return;
      }
      case Stmt::Kind::VarDecl:
      case Stmt::Kind::OpVarDecl:
      case Stmt::Kind::Constraint:
        error(S->Loc, "sema.body", "this statement is not allowed in a rule body");
        return;
      }
    }
    // Path without a return: no rule fires on it (legal: "if no rule can
    // apply, then none fires").
  }

  const GuardExpr *foldConj(const std::vector<const GuardExpr *> &Conj) {
    if (Conj.empty())
      return nullptr;
    const GuardExpr *Acc = Conj.front();
    for (size_t I = 1; I != Conj.size(); ++I)
      Acc = Lib->Arena.binary(GuardKind::And, Acc, Conj[I]);
    return Acc;
  }

  const RhsExpr *lowerRhs(Group &G, DefEnv &Env,
                          std::unordered_map<Symbol, const Expr *> &Aliases,
                          const Expr *E) {
    switch (E->K) {
    case Expr::Kind::Literal: {
      term::OpId Const = constOp();
      std::vector<RhsExpr::AttrTemplate> Attrs{
          {Symbol::intern("value_u6"), Lib->Arena.intLit(E->Value)}};
      return Lib->Arena.rhsApp(Const, {}, std::move(Attrs));
    }
    case Expr::Kind::Ref: {
      if (auto It = Aliases.find(E->Name); It != Aliases.end())
        return lowerRhs(G, Env, Aliases, It->second);
      if (Env.lookup(E->Name)) {
        if (Env.isFunVar(E->Name)) {
          error(E->Loc, "sema.funvar", "function variable '" + std::string(E->Name.str()) +
                            "' cannot be returned bare from a rule");
          return nullptr;
        }
        return Lib->Arena.rhsVar(E->Name);
      }
      if (term::OpId Op = Sig.lookup(E->Name);
          Op.isValid() && Sig.arity(Op) == 0)
        return Lib->Arena.rhsApp(Op, {});
      error(E->Loc, "sema.unknown-identifier", "unknown identifier '" + std::string(E->Name.str()) +
                        "' in rule right-hand side");
      return nullptr;
    }
    case Expr::Kind::Call: {
      std::vector<RhsExpr::AttrTemplate> Attrs;
      for (const auto &[Key, Val] : E->Attrs)
        Attrs.push_back({Key, importGuard(Val, Env)});
      std::vector<const RhsExpr *> Children;
      for (const Expr *Arg : E->Args) {
        const RhsExpr *C = lowerRhs(G, Env, Aliases, Arg);
        if (!C)
          return nullptr;
        Children.push_back(C);
      }
      if (term::OpId Op = Sig.lookup(E->Name); Op.isValid()) {
        if (Sig.arity(Op) != Children.size()) {
          error(E->Loc, "sema.operator", "operator '" + std::string(E->Name.str()) +
                            "' expects " + std::to_string(Sig.arity(Op)) +
                            " arguments, got " +
                            std::to_string(Children.size()));
          return nullptr;
        }
        return Lib->Arena.rhsApp(Op, std::move(Children), std::move(Attrs));
      }
      if (Env.isFunVar(E->Name))
        return Lib->Arena.rhsFunVarApp(E->Name, std::move(Children),
                                       std::move(Attrs));
      error(E->Loc, "sema.rule", "rule right-hand sides must apply operators or matched "
                    "function variables; '" +
                        std::string(E->Name.str()) + "' is neither");
      return nullptr;
    }
    }
    return nullptr;
  }
};

} // namespace

std::unique_ptr<pattern::Library>
pypm::dsl::compile(std::string_view Source, term::Signature &Sig,
                   DiagnosticEngine &Diags, const CompileOptions &Opts) {
  std::unique_ptr<ModuleAst> M = parseModule(Source, Diags);
  if (!M)
    return nullptr;
  std::unordered_set<std::string> Seen;
  if (!Opts.RootName.empty())
    Seen.insert(Opts.RootName);
  if (!resolveIncludes(*M, Opts, Diags, Seen))
    return nullptr;
  return SemaImpl(*M, Sig, Diags).run();
}

std::unique_ptr<pattern::Library>
pypm::dsl::compileFile(const std::string &Path, term::Signature &Sig,
                       DiagnosticEngine &Diags) {
  auto ReadFile = [](const std::string &P) -> std::optional<std::string> {
    std::ifstream In(P, std::ios::binary);
    if (!In)
      return std::nullopt;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  };
  std::optional<std::string> Source = ReadFile(Path);
  if (!Source) {
    Diags.error(SourceLoc(), "sema.io", "cannot open '" + Path + "'");
    return nullptr;
  }
  std::string Dir;
  if (size_t Slash = Path.find_last_of('/'); Slash != std::string::npos)
    Dir = Path.substr(0, Slash + 1);
  CompileOptions Opts;
  Opts.Resolver = [Dir, ReadFile](const std::string &Inc) {
    return ReadFile(Dir + Inc);
  };
  Opts.RootName = Path.substr(Dir.size());
  return compile(*Source, Sig, Diags, Opts);
}

std::unique_ptr<pattern::Library>
pypm::dsl::compileOrDie(std::string_view Source, term::Signature &Sig) {
  DiagnosticEngine Diags;
  std::unique_ptr<pattern::Library> Lib = compile(Source, Sig, Diags);
  if (!Lib) {
    std::fprintf(stderr, "pypm::dsl::compileOrDie failed:\n%s",
                 Diags.renderAll().c_str());
    std::abort();
  }
  return Lib;
}
