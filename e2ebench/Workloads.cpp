//===- e2ebench/Workloads.cpp - Benchmark workloads -----------------------===//

#include "Workloads.h"

#include "Inputs.h"

#include "analysis/Analysis.h"
#include "analysis/CriticalPairs.h"
#include "dsl/Sema.h"
#include "graph/GraphIO.h"
#include "graph/ShapeInference.h"
#include "models/Transformers.h"
#include "plan/PlanBuilder.h"
#include "rewrite/RewriteEngine.h"
#include "server/Server.h"
#include "support/Budget.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace pypm;
using server::CacheSource;
using server::RewriteReply;
using server::RewriteRequest;

namespace e2e {

void RunResult::problem(std::string Msg) {
  Correct = false;
  if (Problems.size() < 8)
    Problems.push_back(std::move(Msg));
}

bool knownWorkload(std::string_view Name) {
  return Name == "hf_fixpoint" || Name == "daemon_mixed" ||
         Name == "auto_search";
}

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Spans recorded around calls into the library, kept in memory and
/// written out when the run ends. Spans of one request share its id;
/// Parent indexes the enclosing span (-1 for a root).
class Tracer {
public:
  struct Span {
    const char *Name;
    uint32_t Request;
    int32_t Parent;
    Clock::time_point Begin, End;
  };

  Tracer() { Spans.reserve(1u << 16); }

  int32_t begin(const char *Name, uint32_t Request, int32_t Parent) {
    Spans.push_back({Name, Request, Parent, Clock::now(), {}});
    return static_cast<int32_t>(Spans.size() - 1);
  }
  void end(int32_t Id) { Spans[Id].End = Clock::now(); }
  double ms(int32_t Id) const { return msBetween(Spans[Id].Begin, Spans[Id].End); }

  /// Self time per span name: each span's duration minus the part its
  /// children cover (children run one after another on one thread).
  std::map<std::string, double> selfMs() const {
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[S.Parent] += msBetween(S.Begin, S.End);
    std::map<std::string, double> Self;
    for (size_t I = 0; I != Spans.size(); ++I)
      Self[Spans[I].Name] += msBetween(Spans[I].Begin, Spans[I].End) - Child[I];
    return Self;
  }

  /// One JSON object per span: name, request, parent, start and end in
  /// microseconds since the first span.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path, std::ios::trunc);
    if (!Out)
      return false;
    Clock::time_point Origin = Spans.empty() ? Clock::now() : Spans[0].Begin;
    auto Us = [&](Clock::time_point T) {
      return std::chrono::duration<double, std::micro>(T - Origin).count();
    };
    char Buf[256];
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "{\"id\":%zu,\"name\":\"%s\",\"request\":%u,\"parent\":%d,"
                    "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                    I, S.Name, S.Request, S.Parent, Us(S.Begin), Us(S.End));
      Out << Buf;
    }
    return static_cast<bool>(Out);
  }

private:
  std::vector<Span> Spans;
};

class Scope {
public:
  Scope(Tracer &T, const char *Name, uint32_t Request, int32_t Parent)
      : T(T), Id(T.begin(Name, Request, Parent)) {}
  ~Scope() { T.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  int32_t id() const { return Id; }

private:
  Tracer &T;
  int32_t Id;
};

//===----------------------------------------------------------------------===//
// The request unit, decomposed
//===----------------------------------------------------------------------===//

struct TracedReply {
  RewriteReply Reply;
  rewrite::RewriteStats Stats;
  double AcquireMs = 0;
  double FixpointMs = 0;
};

/// Server::handle for an inline rule set under default ServerOptions,
/// spelled out as the public calls it makes — PlanCache::acquire,
/// graph::parseGraphText, rewrite::rewriteToFixpoint,
/// graph::writeGraphText — in its order and with the options it derives,
/// each call inside a span under \p Parent. The traced run compares every
/// reply with the untraced one, so any drift from Server::handle fails
/// the run instead of silently measuring a different program.
TracedReply tracedHandle(server::PlanCache &Cache, const RewriteRequest &R,
                         Tracer &T, uint32_t Req, int32_t Parent) {
  TracedReply Out;
  RewriteReply &Rep = Out.Reply;
  Rep.Seq = R.Seq;

  std::shared_ptr<const server::CachedRuleSet> E;
  CacheSource Src = CacheSource::Memory;
  DiagnosticEngine LoadDiags;
  int32_t Acq = T.begin("server.acquire", Req, Parent);
  E = Cache.acquire(R.RuleSet, LoadDiags, Src);
  T.end(Acq);
  Out.AcquireMs = T.ms(Acq);
  if (!E) {
    Rep.Status = server::ServerStatus::RuleSetMalformed;
    Rep.Message = LoadDiags.renderAll();
    return Out;
  }
  Rep.Cache = Src;
  if (!E->Lint.clean()) {
    Rep.Status = server::ServerStatus::LintRejected;
    Rep.Message = E->Lint.renderAll();
    return Out;
  }

  term::Signature Sig = E->Sig;
  DiagnosticEngine Diags;
  std::unique_ptr<graph::Graph> G;
  {
    Scope S(T, "graph.parse", Req, Parent);
    G = graph::parseGraphText(R.GraphText, Sig, Diags);
  }
  if (!G) {
    Rep.Status = server::ServerStatus::GraphMalformed;
    Rep.Message = Diags.renderAll();
    return Out;
  }

  rewrite::RewriteOptions EOpts;
  EOpts.NumThreads = R.Threads;
  switch (R.Matcher) {
  case 1:
    EOpts.Matcher = rewrite::MatcherKind::Machine;
    break;
  case 2:
    EOpts.Matcher = rewrite::MatcherKind::Fast;
    break;
  case 4:
    EOpts.Matcher = rewrite::MatcherKind::PlanThreaded;
    break;
  case 5:
    EOpts.Matcher = rewrite::MatcherKind::PlanAot;
    break;
  default:
    EOpts.Matcher = rewrite::MatcherKind::Plan;
    break;
  }
  if (rewrite::planFamily(EOpts.matcher())) {
    EOpts.PrecompiledPlan = &E->prog();
    EOpts.PrecompiledThreaded = E->threaded();
    EOpts.AotLib = E->aotLib();
  }
  EOpts.Incremental = R.Incremental;
  EOpts.Batch = R.Batch;
  if (R.MaxRewrites)
    EOpts.MaxRewrites = R.MaxRewrites;
  EOpts.Search = static_cast<rewrite::SearchStrategy>(R.Search);
  if (R.BeamWidth)
    EOpts.BeamWidth = R.BeamWidth;
  if (R.Lookahead)
    EOpts.Lookahead = R.Lookahead;
  if (R.SearchWitnesses)
    EOpts.SearchWitnesses = R.SearchWitnesses;
  EOpts.Diags = &Diags;

  CancellationToken Cancel;
  BudgetLimits Limits;
  Limits.DeadlineSeconds = static_cast<double>(R.DeadlineMicros) / 1e6;
  Limits.MaxTotalSteps = R.MaxSteps;
  Limits.MaxTotalMuUnfolds = R.MaxMuUnfolds;
  Limits.Cancel = &Cancel;
  Budget Bgt(Limits);
  EOpts.EngineBudget = &Bgt;

  FaultInjector::Config FC;
  FC.SiteSeed = R.FaultSiteSeed;
  FC.SitePeriod = R.FaultSitePeriod;
  FaultInjector FI(FC);
  if (R.FaultSitePeriod != 0)
    EOpts.Faults = &FI;

  int32_t Fix = T.begin("rewrite.fixpoint", Req, Parent);
  Out.Stats = rewrite::rewriteToFixpoint(*G, E->rules(),
                                         graph::ShapeInference(), EOpts);
  T.end(Fix);
  Out.FixpointMs = T.ms(Fix);

  Rep.Status = server::ServerStatus::Ok;
  Rep.EngineCode = static_cast<uint8_t>(Out.Stats.Status.Code);
  Rep.Reason = static_cast<uint8_t>(Out.Stats.Status.Reason);
  Rep.FaultsAbsorbed = Out.Stats.Status.FaultsAbsorbed;
  Rep.Quarantined = Out.Stats.Status.QuarantinedPatterns;
  Rep.Passes = Out.Stats.Passes;
  Rep.Fired = Out.Stats.TotalFired;
  Rep.Matches = Out.Stats.TotalMatches;
  Rep.LiveNodes = G->numLiveNodes();
  Rep.Message = Diags.renderAll();
  {
    Scope S(T, "graph.write", Req, Parent);
    Rep.GraphText = graph::writeGraphText(*G);
  }
  return Out;
}

/// Encoded reply bytes with the fields that describe the server rather
/// than the answer normalized: Seq always, Cache when \p WithCache is off
/// (two interleaved daemon clients see different cache states).
std::string replyBytes(RewriteReply R, bool WithCache) {
  R.Seq = 0;
  if (!WithCache)
    R.Cache = CacheSource::Memory;
  return server::encodeRewriteReply(R);
}

bool sameAnswer(const RewriteReply &A, const RewriteReply &B, bool WithCache) {
  return A.Status == B.Status && A.EngineCode == B.EngineCode &&
         A.Reason == B.Reason && (!WithCache || A.Cache == B.Cache) &&
         A.FaultsAbsorbed == B.FaultsAbsorbed &&
         A.Quarantined == B.Quarantined && A.Passes == B.Passes &&
         A.Fired == B.Fired && A.Matches == B.Matches &&
         A.LiveNodes == B.LiveNodes && A.Message == B.Message &&
         A.GraphText == B.GraphText;
}

//===----------------------------------------------------------------------===//
// Workload state
//===----------------------------------------------------------------------===//

/// What one request carries, enough to rebuild its exact bytes.
struct RequestSpec {
  uint32_t Model = 0;
  RuleSetKind Kind = RuleSetKind::Both;
  /// 0: the hot payload; 1: content-distinct fresh rule set (must
  /// compile); 2: comment-only variant (canonical-content tier).
  uint8_t Fresh = 0;
  uint64_t Id = 0;
};

/// Reply and stats are deterministic per (model, rule set kind, whether
/// the rule set carries the extra fresh rule).
uint32_t keyOf(const RequestSpec &S) {
  return (S.Model * 3 + static_cast<uint32_t>(S.Kind)) * 2 +
         (S.Fresh == 1 ? 1 : 0);
}
uint32_t modelOf(uint32_t Key) { return Key / 6; }

struct Completed {
  RequestSpec Spec;
  uint32_t Key = 0;
  double Ms = 0;
  Clock::time_point At;
  CacheSource Cache = CacheSource::Memory;
  uint32_t Segment = 0; ///< index of the load segment it completed in
};

/// Capacity reserved for a client's completion records: reserved address
/// space is not resident until written, so the record grows the peak RSS
/// linearly instead of in capacity doublings.
constexpr size_t CompletionCapacity = size_t(1) << 20;

struct State {
  std::string Workload;
  std::vector<ZooModel> Models;
  std::vector<RuleSetKind> Kinds;
  std::string Payloads[3];
  /// Reference per Model * 3 + Kind (only the workload's kinds are set).
  std::vector<Reference> Expected;
  uint8_t Search = 0;
  std::unique_ptr<server::Server> Srv;
  /// First reply seen per key; every later reply must give the same answer.
  std::map<uint32_t, RewriteReply> Replies;
  /// auto_search: reply texts already shown equal to greedy's end state
  /// up to renaming, per model.
  std::vector<std::vector<std::string>> Verified;

  const Reference &expected(const RequestSpec &S) const {
    return Expected[S.Model * 3 + static_cast<uint32_t>(S.Kind)];
  }

  std::string ruleSetBytes(const RequestSpec &S) const {
    std::string Bytes = Payloads[static_cast<int>(S.Kind)];
    if (S.Fresh == 1)
      Bytes += freshRule(std::to_string(S.Id));
    else if (S.Fresh == 2)
      Bytes += "\n// variant " + std::to_string(S.Id) + "\n";
    return Bytes;
  }

  RewriteRequest request(const RequestSpec &S, uint64_t Seq) const {
    RewriteRequest R;
    R.Seq = Seq;
    R.RuleSet = ruleSetBytes(S);
    R.GraphText = Models[S.Model].GraphText;
    R.Search = Search;
    return R;
  }
};

constexpr size_t SmallModelNodes = 273;

/// Checks one reply against the expected output; empty when it passes.
/// Greedy workloads need the exact bytes of the in-process reference;
/// auto_search needs greedy's end state up to node renaming (beam reaches
/// it with different numbering) and greedy's fire count.
std::string checkReply(State &S, const RequestSpec &Spec,
                       const RewriteReply &Rep) {
  const ZooModel &M = S.Models[Spec.Model];
  if (Rep.Status != server::ServerStatus::Ok)
    return M.Name + ": status " +
           std::string(server::serverStatusName(Rep.Status)) + ": " +
           Rep.Message;
  if (Rep.EngineCode != static_cast<uint8_t>(EngineStatusCode::Completed))
    return M.Name + ": engine status " + std::to_string(Rep.EngineCode);
  const Reference &Ref = S.expected(Spec);
  if (S.Search == 0)
    return Rep.GraphText == Ref.Out.Text
               ? std::string()
               : M.Name + ": reply differs from the in-process reference";
  if (Rep.Fired != Ref.Stats.TotalFired || Rep.LiveNodes != Ref.Out.LiveNodes)
    return M.Name + ": fires/live nodes differ from greedy";
  std::vector<std::string> &Seen = S.Verified[Spec.Model];
  if (std::find(Seen.begin(), Seen.end(), Rep.GraphText) != Seen.end())
    return {};
  GraphSummary Sum;
  if (!summarize(Rep.GraphText, Sum) || !Sum.sameUpToRenaming(Ref.Out))
    return M.Name + ": end state differs from greedy's up to renaming";
  Seen.push_back(Rep.GraphText);
  return {};
}

/// Stores the first reply per key and compares later ones with it.
std::string checkRepeat(State &S, uint32_t Key, const RewriteReply &Rep,
                        bool WithCache) {
  auto [It, New] = S.Replies.try_emplace(Key, Rep);
  if (New || sameAnswer(It->second, Rep, WithCache))
    return {};
  return S.Models[modelOf(Key)].Name +
         ": reply differs from an earlier identical request";
}

/// Generates inputs and expected outputs, constructs the server, and warms
/// its cache with one request per (model, rule set): the set-up that
/// setup_s times. Every warm reply is checked like a measured one.
std::unique_ptr<State> setUp(const std::string &Workload, RunResult &Res) {
  auto S = std::make_unique<State>();
  S->Workload = Workload;
  if (Workload == "hf_fixpoint") {
    S->Models = zooModels(true, SIZE_MAX);
    S->Kinds = {RuleSetKind::Both};
  } else if (Workload == "auto_search") {
    S->Models = zooModels(true, SmallModelNodes);
    S->Kinds = {RuleSetKind::Both};
    S->Search = 3;
  } else {
    S->Models = zooModels(true, SmallModelNodes);
    for (ZooModel &M : zooModels(false, SmallModelNodes))
      S->Models.push_back(std::move(M));
    S->Kinds = {RuleSetKind::Both, RuleSetKind::FmhaOnly,
                RuleSetKind::EpilogOnly};
  }
  for (RuleSetKind K : S->Kinds)
    S->Payloads[static_cast<int>(K)] = payload(K);
  S->Expected.resize(S->Models.size() * 3);
  S->Verified.resize(S->Models.size());
  for (uint32_t M = 0; M != S->Models.size(); ++M)
    for (RuleSetKind K : S->Kinds) {
      Reference &R = S->Expected[M * 3 + static_cast<uint32_t>(K)];
      R = referenceRewrite(S->Models[M].GraphText, K);
      if (R.Out.Text.empty())
        Res.problem(S->Models[M].Name + ": reference rewrite failed");
      else if (K == RuleSetKind::Both && S->Models[M].Hf) {
        std::string Err = checkLayerFires(S->Models[M].Name, R.Stats, R.Out.Ops);
        if (!Err.empty())
          Res.problem(Err);
      }
    }

  S->Srv = std::make_unique<server::Server>(server::ServerOptions{});
  for (uint32_t M = 0; M != S->Models.size(); ++M)
    for (RuleSetKind K : S->Kinds) {
      RequestSpec Spec{M, K, 0, 0};
      RewriteReply Rep = S->Srv->handle(S->request(Spec, 0));
      std::string Err = checkReply(*S, Spec, Rep);
      if (!Err.empty())
        Res.problem("warm-up: " + Err);
    }
  return S;
}

/// The payload check: for every zoo model, the generated prelude plus
/// FMHA+Epilog text served by a fresh Server must rewrite byte-identically
/// to the in-process opt::makePipeline(Both). Also pins the prelude's
/// operator table to models::declareModelOps entry by entry, so a drifted
/// prelude fails here by name instead of silently matching nothing.
void payloadCheck(RunResult &Res) {
  std::string Bytes = payload(RuleSetKind::Both);
  {
    term::Signature Want, Got;
    models::declareModelOps(Want);
    DiagnosticEngine Diags;
    if (!dsl::compile(Bytes, Got, Diags)) {
      Res.problem("payload does not compile:\n" + Diags.renderAll());
      return;
    }
    for (size_t I = 0; I != Want.size(); ++I) {
      const term::OpInfo &W = Want.ops()[I];
      if (I >= Got.size() || Got.ops()[I].Name != W.Name ||
          Got.ops()[I].Arity != W.Arity || Got.ops()[I].OpClass != W.OpClass ||
          Got.ops()[I].AttrNames != W.AttrNames)
        Res.problem("prelude drifted from declareModelOps at operator " +
                    std::string(W.Name.str()));
    }
  }
  server::Server Srv{server::ServerOptions{}};
  unsigned Checked = 0, Mismatches = 0;
  for (bool Hf : {true, false})
    for (const ZooModel &M : zooModels(Hf, SIZE_MAX)) {
      Reference Ref = referenceRewrite(M.GraphText, RuleSetKind::Both);
      RewriteRequest R;
      R.RuleSet = Bytes;
      R.GraphText = M.GraphText;
      RewriteReply Rep = Srv.handle(R);
      ++Checked;
      if (Rep.Status != server::ServerStatus::Ok ||
          Rep.GraphText != Ref.Out.Text) {
        ++Mismatches;
        Res.problem("payload check: " + M.Name +
                    ": served payload differs from in-process makePipeline");
      }
      if (Hf) {
        std::string Err = checkLayerFires(M.Name, Ref.Stats, Ref.Out.Ops);
        if (!Err.empty())
          Res.problem("payload check: " + Err);
      }
    }
  Res.Notes.push_back("{\"payload_check\": {\"models\": " +
                      std::to_string(Checked) + ", \"mismatches\": " +
                      std::to_string(Mismatches) + "}}");
}

//===----------------------------------------------------------------------===//
// Host-speed calibration
//===----------------------------------------------------------------------===//

/// A fixed kernel in the benchmark's own code (hash-table inserts, a sort
/// and a pointer chase over 0.6 MB), timed while no request is in flight.
/// The benchmark's host is shared, and its speed drifts by up to a third
/// over tens of seconds, alike for the program and for this kernel: the
/// same single-client loop ran at 245 rps in one minute and 395 in
/// another, and over 150 s of hf_fixpoint the log of 4 s throughput fell
/// with the log of the kernel's time at slope -1.0 (correlation -0.93).
/// Timings are reported at the reference speed. The kernel touches only
/// memory it allocated at construction, so the program's heap does not
/// change its speed.
class HostClock {
public:
  /// The kernel's time on an unloaded 4-vCPU Xeon (Sapphire Rapids) KVM
  /// guest.
  static constexpr double ReferenceMs = 1.4;

  HostClock() : Table(TableSize), Keys(NumKeys), Work(NumKeys), Next(Chase) {
    Rng R(0x5eed);
    for (uint32_t &K : Keys)
      K = static_cast<uint32_t>(R.next() | 1);
    // Sattolo's shuffle: one cycle through every slot.
    for (uint32_t I = 0; I != Chase; ++I)
      Next[I] = I;
    for (uint32_t I = Chase - 1; I > 0; --I)
      std::swap(Next[I], Next[R.below(I)]);
  }

  /// Median of three timings of the kernel, in ms.
  double measure() {
    double Ms[3];
    for (double &M : Ms)
      M = runOnce();
    std::sort(std::begin(Ms), std::end(Ms));
    return Ms[1];
  }

  /// \p Ms of wall time at the host speed \p KernelMs reports, in ms at the
  /// reference speed.
  static double atReference(double Ms, double KernelMs) {
    return Ms * ReferenceMs / KernelMs;
  }

private:
  static constexpr uint32_t TableSize = 1u << 16, NumKeys = 1u << 14,
                            Chase = 1u << 16;

  double runOnce() {
    Clock::time_point T0 = Clock::now();
    std::fill(Table.begin(), Table.end(), 0u);
    for (uint32_t K : Keys) {
      uint32_t H = (K * 0x9E3779B1u) >> 16;
      while (Table[H] != 0 && Table[H] != K)
        H = (H + 1) & (TableSize - 1);
      Table[H] = K;
    }
    std::copy(Keys.begin(), Keys.end(), Work.begin());
    std::sort(Work.begin(), Work.end());
    uint32_t P = 0;
    uint64_t Sum = 0;
    for (uint32_t I = 0; I != Chase; ++I)
      Sum += P = Next[P];
    Sink = Sum + Work[NumKeys / 2] + Table[Sum & (TableSize - 1)];
    return msBetween(T0, Clock::now());
  }

  std::vector<uint32_t> Table, Keys, Work, Next;
  volatile uint64_t Sink = 0;
};

/// Time under load, as measured and at the reference host speed.
struct LoadTime {
  double Seconds = 0, RefSeconds = 0;
  std::vector<double> KernelMs;
  /// Per segment, reference time over measured time.
  std::vector<double> Scale;
};

constexpr double SegmentSeconds = 0.5;

/// Runs \p Segment(End, Index) back to back until \p Seconds of load have
/// passed or a segment returns false. The host clock is read before the first segment and after each;
/// a segment's times are scaled by the mean of the readings around it.
template <typename SegmentFn>
LoadTime runSegments(HostClock &HC, double Seconds, SegmentFn Segment) {
  LoadTime L;
  double Before = HC.measure();
  L.KernelMs.push_back(Before);
  for (bool More = true; More && L.Seconds < Seconds;) {
    Clock::time_point T0 = Clock::now();
    More = Segment(T0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(
                         std::min(SegmentSeconds, Seconds - L.Seconds))),
            static_cast<uint32_t>(L.Scale.size()));
    double Ms = msBetween(T0, Clock::now());
    double After = HC.measure();
    L.KernelMs.push_back(After);
    L.Scale.push_back(HostClock::atReference(1, (Before + After) / 2));
    L.Seconds += Ms / 1e3;
    L.RefSeconds += Ms * L.Scale.back() / 1e3;
    Before = After;
  }
  return L;
}

//===----------------------------------------------------------------------===//
// Untraced closed loops
//===----------------------------------------------------------------------===//

/// One client calling Server::handle back to back, cycling through the
/// models in a seeded order, until \p Seconds of load have passed.
std::vector<Completed> handleLoop(State &S, RunResult &Res, uint64_t Seed,
                                  double Seconds, HostClock &HC,
                                  LoadTime &Load) {
  std::vector<uint32_t> Order(S.Models.size());
  for (uint32_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  Rng R(Seed);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[R.below(I)]);
  std::vector<RewriteRequest> Reqs;
  for (uint32_t M = 0; M != S.Models.size(); ++M)
    Reqs.push_back(S.request({M, RuleSetKind::Both, 0, 0}, M + 1));

  std::vector<Completed> Done;
  Done.reserve(CompletionCapacity);
  size_t I = 0;
  Load = runSegments(HC, Seconds, [&](Clock::time_point End, uint32_t Seg) {
    for (Clock::time_point T1; T1 < End; ++I) {
      RequestSpec Spec{Order[I % Order.size()], RuleSetKind::Both, 0, 0};
      Clock::time_point T0 = Clock::now();
      RewriteReply Rep = S.Srv->handle(Reqs[Spec.Model]);
      T1 = Clock::now();
      Completed C{Spec, keyOf(Spec), msBetween(T0, T1), T1, Rep.Cache, Seg};
      ++Res.Attempted;
      std::string Err = checkReply(S, Spec, Rep);
      if (Err.empty())
        Err = checkRepeat(S, C.Key, Rep, /*WithCache=*/true);
      if (!Err.empty()) {
        ++Res.Failed;
        Res.problem(Err);
      }
      Done.push_back(C);
    }
    return true;
  });
  return Done;
}

/// The daemon_mixed request stream of one client: uniform over the small
/// models; 70% one of the three hot rule sets, 15% a content-distinct
/// fresh rule set, 15% a comment-only variant of a hot one.
class MixedStream {
public:
  MixedStream() : MixedStream(0, 0, 1) {}
  MixedStream(uint64_t Seed, unsigned Client, size_t Models)
      : R(Seed * 0x100000001b3ull + Client + 1), Client(Client),
        Models(Models) {}
  RequestSpec next() {
    RequestSpec S;
    S.Model = static_cast<uint32_t>(R.below(Models));
    S.Kind = AllRuleSetKinds[R.below(3)];
    uint64_t P = R.below(100);
    S.Fresh = P < 70 ? 0 : P < 85 ? 1 : 2;
    S.Id = (uint64_t(Client) << 40) | N++;
    return S;
  }

private:
  Rng R;
  unsigned Client;
  size_t Models;
  uint64_t N = 0;
};

constexpr unsigned DaemonClients = 2;

/// Two closed-loop clients, each on its own socketpair connection served
/// by Server::serve, until \p Seconds of load have passed. The clients
/// run one thread each per segment; the connections and their serve()
/// threads last the whole run.
std::vector<Completed> daemonLoop(State &S, RunResult &Res, uint64_t Seed,
                                  double Seconds, HostClock &HC,
                                  LoadTime &Load) {
  struct Client {
    Client() = default;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;
    ~Client() {
      for (int F : Fd)
        if (F >= 0)
          ::close(F);
    }
    int Fd[2] = {-1, -1}; ///< [0] client end, [1] server end
    MixedStream Stream;
    uint64_t Sent = 0;
    bool Broken = false;
    std::vector<Completed> Done;
    std::vector<std::string> Errors;
    uint64_t Failed = 0;
  };
  Client Cl[DaemonClients];
  std::mutex CheckMu; // guards State's reply store and Verified lists
  for (unsigned I = 0; I != DaemonClients; ++I) {
    Client &C = Cl[I];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, C.Fd) != 0) {
      Res.problem("socketpair failed");
      return {};
    }
    C.Stream = MixedStream(Seed, I, S.Models.size());
    C.Done.reserve(CompletionCapacity);
  }

  std::vector<std::thread> Servers;
  for (Client &C : Cl)
    Servers.emplace_back([&S, &C] { S.Srv->serve(C.Fd[1], C.Fd[1]); });

  auto ClientSegment = [&](unsigned I, Clock::time_point End, uint32_t Seg) {
    Client &C = Cl[I];
    for (Clock::time_point T1; !C.Broken && T1 < End;) {
      RequestSpec Spec = C.Stream.next();
      RewriteRequest Req = S.request(Spec, (uint64_t(I) << 48) | ++C.Sent);
      Clock::time_point T0 = Clock::now();
      std::string Body;
      RewriteReply Rep;
      std::string Err;
      bool Ok = server::writeFrame(C.Fd[0], true,
                                   server::encodeRewriteRequest(Req)) &&
                server::readFrame(C.Fd[0], false, Body) ==
                    server::FrameStatus::Ok &&
                server::decodeRewriteReply(Body, Rep, Err);
      T1 = Clock::now();
      Completed Rec{Spec,      keyOf(Spec), msBetween(T0, T1),
                    T1,        Rep.Cache,   Seg};
      if (!Ok)
        Err = "frame exchange failed: " + Err;
      else if (Rep.Seq != Req.Seq)
        Err = "reply sequence number mismatch";
      else {
        std::lock_guard<std::mutex> Lock(CheckMu);
        Err = checkReply(S, Spec, Rep);
        if (Err.empty())
          Err = checkRepeat(S, Rec.Key, Rep, /*WithCache=*/false);
      }
      if (!Err.empty()) {
        ++C.Failed;
        if (C.Errors.size() < 4)
          C.Errors.push_back(Err);
      }
      C.Done.push_back(Rec);
      C.Broken = !Ok;
    }
  };
  Load = runSegments(HC, Seconds, [&](Clock::time_point End, uint32_t Seg) {
    std::vector<std::thread> Clients;
    for (unsigned I = 0; I != DaemonClients; ++I)
      Clients.emplace_back(ClientSegment, I, End, Seg);
    for (std::thread &T : Clients)
      T.join();
    return std::none_of(std::begin(Cl), std::end(Cl),
                        [](const Client &C) { return C.Broken; });
  });
  for (Client &C : Cl)
    ::shutdown(C.Fd[0], SHUT_WR); // EOF: serve() drains and returns
  for (std::thread &T : Servers)
    T.join();

  std::vector<Completed> Done;
  Done.reserve(Cl[0].Done.size() + Cl[1].Done.size());
  for (Client &C : Cl) {
    Res.Attempted += C.Done.size();
    Res.Failed += C.Failed;
    for (std::string &E : C.Errors)
      Res.problem(std::move(E));
    Done.insert(Done.end(), C.Done.begin(), C.Done.end());
  }
  std::sort(Done.begin(), Done.end(),
            [](const Completed &A, const Completed &B) { return A.At < B.At; });
  return Done;
}

//===----------------------------------------------------------------------===//
// End-to-end metrics
//===----------------------------------------------------------------------===//

struct Latency {
  double P50 = 0, Tail = 0, TailPct = 0;
};

/// Median client-side latency over the run, and the tail: the latency at
/// the highest percentile with at least ten samples beyond it, capped at
/// p99.9. Above p99.9 the two-client daemon's figure follows host stalls
/// in thread wake-ups rather than the program, and spread twice as much
/// from run to run. Pooled over the whole run: medians over sub-windows of
/// a run spread more from run to run on a host whose speed drifts over
/// seconds.
Latency latencyOf(const std::vector<Completed> &Done,
                  const std::vector<double> &Scale) {
  std::vector<double> Ms;
  for (const Completed &C : Done)
    Ms.push_back(C.Ms * Scale[C.Segment]);
  std::sort(Ms.begin(), Ms.end());
  Latency L;
  if (Ms.empty())
    return L;
  L.P50 = median(Ms);
  // Index I has Ms.size() - 1 - I samples beyond it.
  size_t Idx = Ms.size() > 10 ? Ms.size() - 11 : Ms.size() - 1;
  Idx = std::min(Idx, size_t(0.999 * double(Ms.size())));
  L.Tail = Ms[Idx];
  L.TailPct = 100.0 * double(Idx) / double(Ms.size());
  return L;
}

/// Geometric mean over the workload's distinct requests (each model under
/// each hot rule set) of modeled time before over after. Replies that
/// passed their check equal the reference's end state (exactly, or up to
/// renaming for auto_search), so the reference's cost is the reply's.
double modeledSpeedup(const State &S) {
  double LogSum = 0;
  unsigned N = 0;
  for (uint32_t M = 0; M != S.Models.size(); ++M)
    for (RuleSetKind K : S.Kinds) {
      double After = S.Expected[M * 3 + static_cast<uint32_t>(K)].Out.Cost;
      if (After > 0) {
        LogSum += std::log(S.Models[M].CostBefore / After);
        ++N;
      }
    }
  return N ? std::exp(LogSum / N) : 0;
}

/// VmHWM from /proc/self/status. Not getrusage's ru_maxrss: Linux carries
/// that across execve, so it would report the launcher's footprint.
double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

/// Per-key rewrite counters, taken from the first traced request of the
/// key; later requests of the key must repeat them exactly.
struct KeyStats {
  rewrite::RewriteStats Stats;
  std::vector<double> FixpointMs, MatchMs;
};

struct Probe {
  unsigned Probes = 0;
  uint64_t Pairs = 0, UnknownPairs = 0;
};

constexpr unsigned ProbeRepeats = 5;

/// Times the compile-path layers on each distinct rule set, ProbeRepeats
/// times: dsl::compile, analysis::lintLibrary, plan::PlanBuilder::compile
/// and analysis::critical::analyzeConfluence on the same bytes the
/// requests carry. Pairs are counted once per hot rule set, so they repeat
/// exactly run to run.
Probe probeRuleSets(const std::vector<std::pair<std::string, bool>> &Sets,
                    Tracer &T, RunResult &Res) {
  Probe P;
  uint32_t Id = 0;
  for (unsigned Rep = 0; Rep != ProbeRepeats; ++Rep) {
    for (const auto &[Bytes, Hot] : Sets) {
      Scope Root(T, "ruleset", Id, -1);
      term::Signature Sig;
      DiagnosticEngine Diags;
      std::unique_ptr<pattern::Library> Lib;
      {
        Scope S(T, "dsl.compile", Id, Root.id());
        Lib = dsl::compile(Bytes, Sig, Diags);
      }
      if (!Lib) {
        Res.problem("rule set probe: compile failed:\n" + Diags.renderAll());
        continue;
      }
      {
        Scope S(T, "analysis.lint", Id, Root.id());
        analysis::LintReport L = analysis::lintLibrary(*Lib, Sig);
        if (!L.clean())
          Res.problem("rule set probe: lint errors");
      }
      rewrite::RuleSet RS;
      RS.addLibrary(*Lib);
      {
        Scope S(T, "plan.compile", Id, Root.id());
        plan::Program Prog = plan::PlanBuilder::compile(RS, Sig);
        (void)Prog;
      }
      analysis::critical::ConfluenceReport C;
      {
        Scope S(T, "analysis.confluence", Id, Root.id());
        C = analysis::critical::analyzeConfluence(RS, Sig);
      }
      if (Hot && Rep == 0) {
        P.Pairs += C.PairsExamined;
        P.UnknownPairs += C.PairsUnknown;
      }
      ++P.Probes;
      ++Id;
    }
  }
  return P;
}

/// Least-squares slope of log(y) against log(x).
double logLogSlope(const std::vector<std::pair<double, double>> &XY) {
  double N = 0, Sx = 0, Sy = 0, Sxx = 0, Sxy = 0;
  for (auto [X, Y] : XY) {
    if (X <= 0 || Y <= 0)
      continue;
    double LX = std::log(X), LY = std::log(Y);
    N += 1;
    Sx += LX;
    Sy += LY;
    Sxx += LX * LX;
    Sxy += LX * LY;
  }
  double D = N * Sxx - Sx * Sx;
  return N >= 2 && D != 0 ? (N * Sxy - Sx * Sy) / D : 0;
}

bool sameCounters(const rewrite::RewriteStats &A,
                  const rewrite::RewriteStats &B) {
  return A.Passes == B.Passes && A.NodesVisited == B.NodesVisited &&
         A.TotalMatches == B.TotalMatches && A.TotalFired == B.TotalFired &&
         A.NodesSwept == B.NodesSwept && A.SearchSteps == B.SearchSteps &&
         A.SearchCandidates == B.SearchCandidates &&
         A.SearchExpansions == B.SearchExpansions &&
         A.PerPattern.size() == B.PerPattern.size() &&
         std::equal(A.PerPattern.begin(), A.PerPattern.end(),
                    B.PerPattern.begin(), [](const auto &X, const auto &Y) {
                      const rewrite::PatternStats &P = X.second, &Q = Y.second;
                      // Fresh rule sets name their extra pattern uniquely.
                      bool SameName =
                          X.first == Y.first ||
                          (X.first.starts_with("BenchFreshP") &&
                           Y.first.starts_with("BenchFreshP"));
                      return SameName && P.Attempts == Q.Attempts &&
                             P.RootSkips == Q.RootSkips &&
                             P.Matches == Q.Matches &&
                             P.RulesFired == Q.RulesFired &&
                             P.MachineSteps == Q.MachineSteps;
                    });
}

struct PatternTotals {
  uint64_t Attempts = 0, RootSkips = 0, Matches = 0, MachineSteps = 0;
};
PatternTotals patternTotals(const rewrite::RewriteStats &S) {
  PatternTotals T;
  for (const auto &[Name, P] : S.PerPattern) {
    T.Attempts += P.Attempts;
    T.RootSkips += P.RootSkips;
    T.Matches += P.Matches;
    T.MachineSteps += P.MachineSteps;
  }
  return T;
}

/// Encodes and frames \p Q, then decodes the body back, each step in a
/// protocol span under \p Parent.
RewriteRequest frameRequest(Tracer &T, uint32_t I, int32_t Parent,
                            const RewriteRequest &Q, RunResult &Res) {
  std::string Body, Frame;
  {
    Scope E(T, "protocol.encode", I, Parent);
    Body = server::encodeRewriteRequest(Q);
    Frame = server::frameBytes(true, Body);
  }
  RewriteRequest Out;
  std::string Err;
  bool Ok;
  {
    Scope D(T, "protocol.decode", I, Parent);
    Ok = server::decodeRewriteRequest(Body, Out, Err);
  }
  if (!Ok)
    Res.problem("traced replay: request does not decode: " + Err);
  return Out;
}

RewriteReply frameReply(Tracer &T, uint32_t I, int32_t Parent,
                        const RewriteReply &P, RunResult &Res) {
  std::string Body, Frame;
  {
    Scope E(T, "protocol.encode", I, Parent);
    Body = server::encodeRewriteReply(P);
    Frame = server::frameBytes(false, Body);
  }
  RewriteReply Out;
  std::string Err;
  bool Ok;
  {
    Scope D(T, "protocol.decode", I, Parent);
    Ok = server::decodeRewriteReply(Body, Out, Err);
  }
  if (!Ok)
    Res.problem("traced replay: reply does not decode: " + Err);
  return Out;
}

/// Replays \p Done through tracedHandle on a second server warmed like the
/// first, and turns the spans and stats into the per-layer metrics.
void tracedReplay(State &S, RunResult &Res, const std::vector<Completed> &Done,
                  double UntracedMeanMs) {
  const bool Framed = S.Workload == "daemon_mixed";
  server::Server TSrv{server::ServerOptions{}};

  Tracer T;
  std::map<uint32_t, KeyStats> Keys;
  // Acquire samples by CacheSource: memory (raw or content tier) and
  // compiled. The traced server's warm-up acquires are the compiles on
  // workloads whose requests never compile.
  std::vector<double> AcquireHitMs, AcquireCompileMs;
  for (RuleSetKind K : S.Kinds) {
    DiagnosticEngine Diags;
    CacheSource Src;
    int32_t W = T.begin("server.warmup_acquire", 0, -1);
    (void)TSrv.cache().acquire(S.Payloads[static_cast<int>(K)], Diags, Src);
    T.end(W);
    AcquireCompileMs.push_back(T.ms(W));
  }
  double RequestMs = 0, SearchS = 0, FixpointS = 0, MatchMs = 0;
  uint64_t Mismatches = 0;
  for (uint32_t I = 0; I != Done.size(); ++I) {
    const Completed &C = Done[I];
    RewriteRequest Req = S.request(C.Spec, I + 1);
    TracedReply TR;
    RewriteReply Rep;
    int32_t Root = T.begin("server.request", I, -1);
    if (Framed) {
      RewriteRequest In = frameRequest(T, I, Root, Req, Res);
      TR = tracedHandle(TSrv.cache(), In, T, I, Root);
      Rep = frameReply(T, I, Root, TR.Reply, Res);
    } else {
      TR = tracedHandle(TSrv.cache(), Req, T, I, Root);
      Rep = TR.Reply;
    }
    T.end(Root);
    RequestMs += T.ms(Root);
    if (!Framed) {
      // Framing is not on this workload's request path; the request and
      // its reply are framed once outside the request span, so the
      // protocol's cost at this workload's sizes stays visible.
      (void)frameRequest(T, I, -1, Req, Res);
      (void)frameReply(T, I, -1, Rep, Res);
    }
    // Faithfulness: the decomposed reply must be the untraced reply, byte
    // for byte (up to Seq, and Cache under two interleaved clients).
    auto It = S.Replies.find(C.Key);
    if (It == S.Replies.end() ||
        replyBytes(Rep, !Framed) != replyBytes(It->second, !Framed)) {
      ++Mismatches;
      Res.problem("traced replay: decomposed reply differs from Server::handle "
                  "for " + S.Models[C.Spec.Model].Name);
    }
    if (S.Models[C.Spec.Model].Hf && C.Spec.Kind == RuleSetKind::Both) {
      std::string Err = checkLayerFires(S.Models[C.Spec.Model].Name, TR.Stats,
                                        S.expected(C.Spec).Out.Ops);
      if (!Err.empty())
        Res.problem("traced replay: " + Err);
    }
    auto [KIt, New] = Keys.try_emplace(C.Key);
    if (New)
      KIt->second.Stats = TR.Stats;
    else if (!sameCounters(KIt->second.Stats, TR.Stats))
      Res.problem("traced replay: rewrite counters did not repeat for " +
                  S.Models[C.Spec.Model].Name);
    KIt->second.FixpointMs.push_back(TR.FixpointMs);
    KIt->second.MatchMs.push_back(TR.Stats.MatchSeconds * 1e3);
    (TR.Reply.Cache == CacheSource::Compiled ? AcquireCompileMs : AcquireHitMs)
        .push_back(TR.AcquireMs);
    SearchS += TR.Stats.SearchSeconds;
    FixpointS += TR.FixpointMs / 1e3;
    MatchMs += TR.Stats.MatchSeconds * 1e3;
  }

  // Counters are summed over the workload's canonical request set (every
  // model under every hot rule set, no fresh rule), so they repeat exactly
  // whatever mix of requests the untraced run happened to complete. A key
  // the replay never carried is run once more, untimed.
  rewrite::RewriteStats Sum;
  PatternTotals PT;
  std::vector<std::pair<double, double>> SizeMs;
  std::map<uint32_t, std::vector<double>> ModelMs;
  for (uint32_t M = 0; M != S.Models.size(); ++M)
    for (RuleSetKind K : S.Kinds) {
      RequestSpec Spec{M, K, 0, 0};
      auto KIt = Keys.find(keyOf(Spec));
      if (KIt == Keys.end()) {
        Tracer Scratch;
        TracedReply TR =
            tracedHandle(TSrv.cache(), S.request(Spec, 0), Scratch, 0, -1);
        KIt = Keys.emplace(keyOf(Spec), KeyStats{TR.Stats, {}, {}}).first;
      }
      const rewrite::RewriteStats &St = KIt->second.Stats;
      Sum.Passes += St.Passes;
      Sum.NodesVisited += St.NodesVisited;
      Sum.TotalMatches += St.TotalMatches;
      Sum.TotalFired += St.TotalFired;
      Sum.NodesSwept += St.NodesSwept;
      Sum.SearchSteps += St.SearchSteps;
      Sum.SearchCandidates += St.SearchCandidates;
      Sum.SearchExpansions += St.SearchExpansions;
      PatternTotals P = patternTotals(St);
      PT.Attempts += P.Attempts;
      PT.RootSkips += P.RootSkips;
      PT.Matches += P.Matches;
      PT.MachineSteps += P.MachineSteps;
    }
  for (const auto &[Key, KS] : Keys)
    for (double Ms : KS.FixpointMs)
      ModelMs[modelOf(Key)].push_back(Ms);
  for (const auto &[M, Ms] : ModelMs)
    SizeMs.push_back({double(S.Models[M].Nodes), median(Ms)});

  // Per-model rows behind rewrite.size_exponent.
  if (S.Workload == "hf_fixpoint")
    for (uint32_t M = 0; M != S.Models.size(); ++M) {
      auto KIt = Keys.find(keyOf({M, RuleSetKind::Both, 0, 0}));
      const KeyStats &KS = KIt->second;
      const rewrite::RewriteStats &St = KS.Stats;
      PatternTotals P = patternTotals(St);
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "{\"model\": \"%s\", \"nodes\": %zu, \"requests\": %zu, "
          "\"fixpoint_ms\": %.4f, \"match_ms\": %.4f, \"passes\": %u, "
          "\"nodes_visited\": %llu, \"attempts\": %llu, \"root_skips\": %llu, "
          "\"matches\": %llu, \"fired\": %llu, \"swept\": %llu, "
          "\"machine_steps\": %llu}",
          S.Models[M].Name.c_str(), S.Models[M].Nodes, KS.FixpointMs.size(),
          median(KS.FixpointMs), median(KS.MatchMs), St.Passes,
          (unsigned long long)St.NodesVisited, (unsigned long long)P.Attempts,
          (unsigned long long)P.RootSkips, (unsigned long long)P.Matches,
          (unsigned long long)St.TotalFired, (unsigned long long)St.NodesSwept,
          (unsigned long long)P.MachineSteps);
      Res.Notes.push_back(Buf);
    }

  // Compile-path layers, once per distinct rule set: the hot sets, plus
  // the first few fresh ones the replay carried.
  std::vector<std::pair<std::string, bool>> Sets;
  for (RuleSetKind K : S.Kinds)
    Sets.push_back({S.Payloads[static_cast<int>(K)], true});
  for (const Completed &C : Done)
    if (C.Spec.Fresh == 1 && Sets.size() < S.Kinds.size() + 8)
      Sets.push_back({S.ruleSetBytes(C.Spec), false});
  Probe P = probeRuleSets(Sets, T, Res);

  std::map<std::string, double> Self = T.selfMs();
  const double N = Done.empty() ? 1 : double(Done.size());
  const double NSets = P.Probes ? double(P.Probes) : 1;
  Res.metric("graph.parse_ms", Self["graph.parse"] / N, "ms");
  Res.metric("graph.write_ms", Self["graph.write"] / N, "ms");
  Res.metric("rewrite.fixpoint_ms", Self["rewrite.fixpoint"] / N, "ms");
  Res.metric("rewrite.match_ms", MatchMs / N, "ms");
  Res.metric("rewrite.passes", Sum.Passes, "count");
  Res.metric("rewrite.nodes_visited", Sum.NodesVisited, "count");
  Res.metric("rewrite.attempts", PT.Attempts, "count");
  Res.metric("rewrite.root_skips", PT.RootSkips, "count");
  Res.metric("rewrite.matches", Sum.TotalMatches, "count");
  Res.metric("rewrite.fired", Sum.TotalFired, "count");
  Res.metric("rewrite.swept", Sum.NodesSwept, "count");
  Res.metric("rewrite.machine_steps", PT.MachineSteps, "count");
  Res.metric("rewrite.match_yield",
             PT.Attempts ? double(PT.Matches) / double(PT.Attempts) : 0,
             "ratio");
  Res.metric("rewrite.size_exponent", logLogSlope(SizeMs), "slope");
  Res.metric("search.share", FixpointS > 0 ? SearchS / FixpointS : 0,
             "ratio");
  Res.metric("search.steps", Sum.SearchSteps, "count");
  Res.metric("search.candidates", Sum.SearchCandidates, "count");
  Res.metric("search.expansions", Sum.SearchExpansions, "count");
  Res.metric("analysis.confluence_ms", Self["analysis.confluence"] / NSets, "ms");
  Res.metric("analysis.pairs", P.Pairs, "count");
  Res.metric("analysis.unknown_pairs", P.UnknownPairs, "count");
  Res.metric("analysis.lint_ms", Self["analysis.lint"] / NSets, "ms");
  Res.metric("dsl.compile_ms", Self["dsl.compile"] / NSets, "ms");
  Res.metric("plan.compile_ms", Self["plan.compile"] / NSets, "ms");
  Res.metric("server.acquire_ms", Self["server.acquire"] / N, "ms");
  Res.metric("server.acquire_hit_ms", median(AcquireHitMs), "ms");
  Res.metric("server.acquire_compile_ms", median(AcquireCompileMs), "ms");
  Res.metric("server.handle_self_ms", Self["server.request"] / N, "ms");
  Res.metric("server.roundtrip_ms", RequestMs / N, "ms");
  Res.metric("protocol.encode_ms", Self["protocol.encode"] / N, "ms");
  Res.metric("protocol.decode_ms", Self["protocol.decode"] / N, "ms");
  Res.metric("trace.requests", N, "count");
  Res.metric("trace.mismatches", double(Mismatches), "count");
  Res.metric("trace.overhead_ms", RequestMs / N - UntracedMeanMs, "ms");
  Res.metric("trace.overhead_pct",
             UntracedMeanMs > 0
                 ? 100.0 * (RequestMs / N - UntracedMeanMs) / UntracedMeanMs
                 : 0,
             "%");

  // One file per workload, overwritten by the next traced run.
  ::mkdir(".bench_out", 0777);
  std::string Path = ".bench_out/" + S.Workload + ".spans.jsonl";
  if (!T.write(Path))
    std::fprintf(stderr, "e2ebench: could not write %s\n", Path.c_str());
}

} // namespace

RunResult runWorkload(const RunOptions &O) {
  RunResult Res;

  // Set-up is timed SetUpsBefore times before the measured loop (the last
  // one is measured) and SetUpsAfter times after it, so its samples span
  // the run like the other metrics do; setup_s is the median of their
  // times at the reference host speed.
  const int SetUpsBefore = O.Trace ? 1 : 4, SetUpsAfter = O.Trace ? 0 : 5;
  HostClock HC;
  std::vector<double> SetupS, SetupRefS;
  auto TimedSetUp = [&] {
    double Before = HC.measure();
    Clock::time_point T0 = Clock::now();
    std::unique_ptr<State> New = setUp(O.Workload, Res);
    double Ms = msBetween(T0, Clock::now());
    double After = HC.measure();
    SetupS.push_back(Ms / 1e3);
    SetupRefS.push_back(HostClock::atReference(Ms, (Before + After) / 2) /
                        1e3);
    return New;
  };
  std::unique_ptr<State> S;
  for (int I = 0; I != SetUpsBefore; ++I) {
    S.reset();
    S = TimedSetUp();
  }
  payloadCheck(Res);
  if (!Res.Correct)
    return Res;

  const server::PlanCache::Stats Before = S->Srv->cache().stats();
  LoadTime Load;
  std::vector<Completed> Done =
      S->Workload == "daemon_mixed"
          ? daemonLoop(*S, Res, O.Seed, O.Seconds, HC, Load)
          : handleLoop(*S, Res, O.Seed, O.Seconds, HC, Load);
  const server::PlanCache::Stats After = S->Srv->cache().stats();
  Latency L = latencyOf(Done, Load.Scale);
  Latency RawL =
      latencyOf(Done, std::vector<double>(Load.Scale.size(), 1.0));
  // Closed-loop throughput: completions per second of load, as measured
  // and at the reference host speed.
  const double RawRps = double(Done.size()) / Load.Seconds;
  const double Rps = double(Done.size()) / Load.RefSeconds;
  const double KernelMs = median(Load.KernelMs);

  // Mix accounting from the cache's own counters, cross-checked against
  // each reply's Cache field.
  uint64_t Raw = After.RawHits - Before.RawHits;
  uint64_t Content = After.ContentHits - Before.ContentHits;
  uint64_t Compiles = After.Compiles - Before.Compiles;
  uint64_t Flushes = After.Flushes - Before.Flushes;
  uint64_t ReplyCompiled = 0;
  for (const Completed &C : Done)
    ReplyCompiled += C.Cache == CacheSource::Compiled;
  if (ReplyCompiled != Compiles || Raw + Content + Compiles != Done.size())
    Res.problem("cache counters disagree with the replies' Cache fields");
  const double NDone = Done.empty() ? 1 : double(Done.size());
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"requests\": %zu, \"latency_samples\": %zu, "
                "\"latency_p50_ms\": %.4f, \"latency_tail_ms\": %.4f, "
                "\"latency_tail_percentile\": %.3f, \"error_rate\": %.6f, "
                "\"cache\": {\"raw_hit_share\": %.4f, \"content_hit_share\": "
                "%.4f, \"compile_share\": %.4f, \"flushes\": %llu}}",
                Done.size(), Done.size(), L.P50, L.Tail, L.TailPct,
                Res.Attempted ? double(Res.Failed) / double(Res.Attempted) : 0,
                double(Raw) / NDone, double(Content) / NDone,
                double(Compiles) / NDone, (unsigned long long)Flushes);
  Res.Notes.push_back(Buf);

  if (!O.Trace) {
    const double Speedup = modeledSpeedup(*S);
    S.reset();
    for (int I = 0; I != SetUpsAfter; ++I)
      TimedSetUp();
    std::snprintf(Buf, sizeof(Buf),
                  "{\"host\": {\"kernel_ms\": %.4f, \"reference_ms\": %.4f, "
                  "\"raw_throughput_rps\": %.3f, \"raw_latency_p50_ms\": "
                  "%.4f, \"raw_latency_tail_ms\": %.4f, \"raw_setup_s\": "
                  "%.4f, \"load_s\": %.3f}}",
                  KernelMs, HostClock::ReferenceMs, RawRps, RawL.P50,
                  RawL.Tail, median(SetupS), Load.Seconds);
    Res.Notes.push_back(Buf);
    Res.metric("throughput_rps", Rps, "1/s");
    Res.metric("modeled_speedup", Speedup, "x");
    Res.metric("peak_rss_mb", peakRssMb(), "MB");
    Res.metric("setup_s", median(SetupRefS), "s");
    return Res;
  }

  double MeanMs = 0;
  for (const Completed &C : Done)
    MeanMs += C.Ms / NDone;
  Res.metric("error_rate",
             Res.Attempted ? double(Res.Failed) / double(Res.Attempted) : 0,
             "ratio");
  Res.metric("latency_p50_ms", L.P50, "ms");
  Res.metric("latency_tail_ms", L.Tail, "ms");
  Res.metric("latency_samples", NDone, "count");
  Res.metric("latency_tail_pct", L.TailPct, "%");
  Res.metric("server.cache_raw_hits", double(Raw), "count");
  Res.metric("server.cache_content_hits", double(Content), "count");
  Res.metric("server.cache_compiles", double(Compiles), "count");
  Res.metric("server.cache_flushes", double(Flushes), "count");
  Res.metric("server.cache_hit_ratio", double(Raw + Content) / NDone, "ratio");
  Res.metric("server.cache_compile_share", double(Compiles) / NDone, "ratio");
  Res.metric("host.kernel_ms", KernelMs, "ms");
  Res.metric("host.raw_throughput_rps", RawRps, "1/s");
  tracedReplay(*S, Res, Done, MeanMs);
  return Res;
}

} // namespace e2e
