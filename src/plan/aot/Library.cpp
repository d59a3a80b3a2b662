//===- plan/aot/Library.cpp - dlopen loader + executor for emitted plans --===//

#include "plan/aot/Library.h"

#include "plan/aot/Emitter.h"
#include "plan/aot/Lowering.h"

#include <cstring>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace pypm;
using namespace pypm::plan;
using namespace pypm::plan::aot;
using namespace pypm::match;

const char *aot::aotLoadStatusCode(AotLoadStatus S) {
  switch (S) {
  case AotLoadStatus::Ok:
    return "aot.ok";
  case AotLoadStatus::Unreadable:
    return "aot.unreadable";
  case AotLoadStatus::NoMarker:
    return "aot.not-an-artifact";
  case AotLoadStatus::MarkerMismatch:
    return "aot.stale";
  case AotLoadStatus::NotLoadable:
    return "aot.not-loadable";
  case AotLoadStatus::NoEntrySymbol:
    return "aot.no-entry-symbol";
  case AotLoadStatus::BadMagic:
    return "aot.bad-magic";
  case AotLoadStatus::AbiVersionMismatch:
    return "aot.abi-version";
  case AotLoadStatus::PlanMismatch:
    return "aot.plan-mismatch";
  }
  return "aot.unknown";
}

const char *aot::aotLoadStatusMessage(AotLoadStatus S) {
  switch (S) {
  case AotLoadStatus::Ok:
    return "emitted plan loaded";
  case AotLoadStatus::Unreadable:
    return "emitted plan file is unreadable";
  case AotLoadStatus::NoMarker:
    return "file carries no AOT marker (truncated, corrupted, or not an "
           "emitted plan)";
  case AotLoadStatus::MarkerMismatch:
    return "emitted plan was built from a different match plan (stale or "
           "foreign artifact)";
  case AotLoadStatus::NotLoadable:
    return "dynamic linker rejected the emitted plan image";
  case AotLoadStatus::NoEntrySymbol:
    return "emitted plan exports no pypm_aot_plan_v1 entry";
  case AotLoadStatus::BadMagic:
    return "emitted plan entry struct has a wrong magic";
  case AotLoadStatus::AbiVersionMismatch:
    return "emitted plan was built against a different AOT ABI version";
  case AotLoadStatus::PlanMismatch:
    return "emitted plan entry struct disagrees with the match plan "
           "(fingerprint or table-size mismatch)";
  }
  return "emitted plan load failed";
}

PlanLibrary::~PlanLibrary() {
  if (Handle)
    ::dlclose(Handle);
}

bool PlanLibrary::matches(const Program &P) const {
  return Plan && Plan->CanonicalSig == P.CanonicalSig &&
         Plan->TableFingerprint == abiFingerprint(P) &&
         Plan->NumEntries == P.Entries.size() &&
         Plan->NumInstrs == P.Code.size();
}

std::unique_ptr<PlanLibrary> PlanLibrary::load(const std::string &SoPath,
                                               const Program &P,
                                               DiagnosticEngine *Diags,
                                               AotLoadStatus &St) {
  auto Fail = [&](AotLoadStatus S,
                  const std::string &Extra = "") -> std::unique_ptr<PlanLibrary> {
    St = S;
    if (Diags)
      Diags->warning({}, aotLoadStatusCode(S),
                     std::string(aotLoadStatusMessage(S)) + ": " + SoPath +
                         (Extra.empty() ? "" : " (" + Extra + ")"));
    return nullptr;
  };

  // One absolute path serves both the scan and the mapping. dlopen
  // searches the library path for a name without a slash, so a bare
  // "both.so" would be scanned in the working directory but mapped from
  // wherever the search finds one (or nowhere).
  std::error_code EC;
  const std::string Path = std::filesystem::absolute(SoPath, EC).string();
  if (EC)
    return Fail(AotLoadStatus::Unreadable, EC.message());

  // Rung 1: the raw-bytes marker scan. Decides stale/foreign/corrupt
  // BEFORE the dynamic linker maps any code from the artifact.
  std::string Bytes;
  {
    std::ifstream IS(Path, std::ios::binary);
    if (!IS)
      return Fail(AotLoadStatus::Unreadable);
    std::ostringstream OS;
    OS << IS.rdbuf();
    Bytes = OS.str();
  }
  size_t Mark = Bytes.find(kAotMarkerPrefix);
  if (Mark == std::string::npos)
    return Fail(AotLoadStatus::NoMarker);
  std::string Expect = AotEmitter::markerFor(P);
  if (Bytes.compare(Mark, Expect.size(), Expect) != 0)
    return Fail(AotLoadStatus::MarkerMismatch);

  // Rung 2: map it. RTLD_LOCAL keeps the artifact's symbols out of the
  // global namespace; RTLD_NOW surfaces a torn image here, not mid-match.
  void *H = ::dlopen(Path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!H) {
    const char *E = ::dlerror();
    return Fail(AotLoadStatus::NotLoadable, E ? E : "dlopen failed");
  }
  auto Lib = std::unique_ptr<PlanLibrary>(new PlanLibrary());
  Lib->Handle = H;
  Lib->Path = Path;

  auto Entry = reinterpret_cast<PypmAotPlanEntryFn>(
      ::dlsym(H, kAotEntrySymbol));
  const PypmAotPlanV1 *Plan = Entry ? Entry() : nullptr;
  if (!Plan)
    return Fail(AotLoadStatus::NoEntrySymbol);

  // Rung 3: the versioned struct, re-checked against the plan in hand
  // (the marker already matched, but the marker is data — the struct is
  // what the step function was actually compiled against).
  if (Plan->Magic != PYPM_AOT_MAGIC)
    return Fail(AotLoadStatus::BadMagic);
  if (Plan->AbiVersion != PYPM_AOT_ABI_VERSION)
    return Fail(AotLoadStatus::AbiVersionMismatch);
  Lib->Plan = Plan;
  if (!Lib->matches(P))
    return Fail(AotLoadStatus::PlanMismatch);
  if (!Plan->Step)
    return Fail(AotLoadStatus::NoEntrySymbol);

  St = AotLoadStatus::Ok;
  return Lib;
}

//===----------------------------------------------------------------------===//
// SoExec: the host side of the ABI.
//===----------------------------------------------------------------------===//

namespace {

/// What the callbacks see as Ctx: the shared executor state plus the side
/// tables the artifact's baked indices resolve against.
struct HostCtx {
  ExecState *St;
  const Program *Prog;
};

uint32_t cbTermOp(const void *T) {
  return static_cast<term::TermRef>(T)->op().index();
}
uint32_t cbTermArity(const void *T) {
  return static_cast<term::TermRef>(T)->arity();
}
const void *cbTermChild(const void *T, uint32_t I) {
  return static_cast<term::TermRef>(T)->child(I);
}
int cbBindVar(void *Ctx, uint32_t SymIdx, const void *T) {
  auto *C = static_cast<HostCtx *>(Ctx);
  return C->St->bindVar(C->Prog->Syms[SymIdx],
                        static_cast<term::TermRef>(T))
             ? 1
             : 0;
}
int cbBindFunVar(void *Ctx, uint32_t SymIdx, uint32_t Op) {
  auto *C = static_cast<HostCtx *>(Ctx);
  return C->St->bindFunVar(C->Prog->Syms[SymIdx], term::OpId(Op)) ? 1 : 0;
}
int cbBacktrack(void *Ctx) {
  return static_cast<int>(static_cast<HostCtx *>(Ctx)->St->backtrack());
}
void cbPushMatch(void *Ctx, uint32_t PC, const void *T) {
  ExecState *St = static_cast<HostCtx *>(Ctx)->St;
  St->Cont = St->consMatch(PC, static_cast<term::TermRef>(T), St->Cont);
}
void cbPushChoice(void *Ctx, uint32_t AltPC, const void *T) {
  ExecState *St = static_cast<HostCtx *>(Ctx)->St;
  St->pushChoice(St->consMatch(AltPC, static_cast<term::TermRef>(T),
                               St->Cont));
}
void cbPushAction(void *Ctx, uint32_t Kind, uint32_t Aux, uint32_t SymIdx) {
  auto *C = static_cast<HostCtx *>(Ctx);
  ExecState::Cell Cell;
  Cell.Kind = static_cast<ActionKind>(Kind);
  switch (Cell.Kind) {
  case ActionKind::Guard:
    Cell.Guard = C->Prog->Guards[Aux];
    break;
  case ActionKind::CheckName:
  case ActionKind::CheckFunName:
    Cell.Var = C->Prog->Syms[SymIdx];
    break;
  case ActionKind::MatchConstr:
    Cell.PC = Aux;
    Cell.Var = C->Prog->Syms[SymIdx];
    break;
  case ActionKind::Match:
    assert(false && "push_action cannot push a Match cell");
    break;
  }
  // The action chains on the old continuation and becomes the new one; a
  // push_match that follows then threads its cell in front of it —
  // exactly Interpreter::stepExec's push(action) + consMatch composition.
  Cell.Next = C->St->Cont;
  C->St->Cont = C->St->push(std::move(Cell));
}
int cbMuUnfold(void *Ctx, uint32_t MuIdx, const void *T) {
  auto *C = static_cast<HostCtx *>(Ctx);
  return static_cast<int>(C->St->unfoldMu(C->Prog->Mus[MuIdx],
                                          static_cast<term::TermRef>(T)));
}

constexpr PypmAotOpsV1 kHostOps = {
    &cbTermOp,    &cbTermArity, &cbTermChild,  &cbBindVar,  &cbBindFunVar,
    &cbBacktrack, &cbPushMatch, &cbPushChoice, &cbPushAction, &cbMuUnfold,
};

} // namespace

MachineStatus SoExec::matchEntry(size_t EntryIdx, term::TermRef T) {
  assert(EntryIdx < Prog.Entries.size() && "entry index out of range");
  St.resetAttempt(Opts.MaxMuUnfolds);
  St.Cont = St.consMatch(Prog.Entries[EntryIdx].RootPC, T, nullptr);
  if (Prof)
    Prof->noteAttempt(EntryIdx);
  MachineStatus S = runLoop();
  if (Prof && S == MachineStatus::Success)
    Prof->noteMatch(EntryIdx);
  return S;
}

MachineStatus SoExec::resume() {
  if (St.Status != MachineStatus::Success)
    return St.Status;
  St.Status = MachineStatus::Running;
  if (St.backtrack() != MachineStatus::Running)
    return St.Status;
  return runLoop();
}

MachineStatus SoExec::runLoop() {
  ExecGuardEnv Env(St, Arena);
  HostCtx Ctx{&St, &Prog};
  auto *Step = Lib.plan()->Step;
  return runExecLoop(St, Opts, Env,
                     [&Ctx, Step](uint32_t PC, term::TermRef T) {
                       return static_cast<MachineStatus>(
                           Step(&Ctx, &kHostOps, PC, T));
                     });
}

MatchResult SoExec::matchOne(size_t EntryIdx, term::TermRef T) {
  MachineStatus S = matchEntry(EntryIdx, T);
  MatchResult R;
  R.Status = S;
  if (S == MachineStatus::Success)
    R.W = witness();
  R.Stats = stats();
  return R;
}

MatchResult SoExec::run(const Program &Prog, const PlanLibrary &Lib,
                        size_t EntryIdx, term::TermRef T,
                        const term::TermArena &Arena, Machine::Options Opts,
                        Profile *Prof) {
  SoExec M(Prog, Lib, Arena, Opts);
  M.setProfile(Prof);
  MachineStatus S = M.matchEntry(EntryIdx, T);
  MatchResult R;
  R.Status = S;
  if (S == MachineStatus::Success)
    R.W = M.witness();
  R.Stats = M.stats();
  return R;
}
