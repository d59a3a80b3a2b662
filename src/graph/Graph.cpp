//===- graph/Graph.cpp - Tensor computation graph IR -------------------------===//

#include "graph/Graph.h"

#include <algorithm>
#include <cmath>

using namespace pypm;
using namespace pypm::graph;

std::string TensorType::str() const {
  std::string Out(term::dtypeName(Dtype));
  Out += '[';
  for (size_t I = 0; I != Dims.size(); ++I) {
    if (I)
      Out += 'x';
    Out += std::to_string(Dims[I]);
  }
  Out += ']';
  return Out;
}

NodeId Graph::addNode(term::OpId Op, std::span<const NodeId> Inputs,
                      std::vector<term::Attr> Attrs) {
  assert(Op.isValid() && "node with invalid op");
  assert(Inputs.size() == Sig.arity(Op) &&
         "input count does not match declared arity");
  Node N;
  N.Op = Op;
  N.Inputs.assign(Inputs.begin(), Inputs.end());
  N.Attrs = std::move(Attrs);
  std::sort(N.Attrs.begin(), N.Attrs.end(),
            [](const term::Attr &A, const term::Attr &B) {
              return A.Key.rawId() < B.Key.rawId();
            });
  NodeId Id = static_cast<NodeId>(Nodes.size());
  for (NodeId In : Inputs) {
    assert(In < Id && "forward reference: inputs must already exist");
    assert(!Nodes[In].Dead && "using a dead node as input");
    saveUsers(In);
    Users[In].push_back(Id);
  }
  // Monotone allocation estimate: node ids are stable and dead nodes stay
  // allocated, so nothing is ever subtracted. Counted here — in the single
  // mutation path — so it is a pure function of the committed node
  // sequence, independent of matcher thread count.
  ApproxBytes += sizeof(Node) + sizeof(std::vector<NodeId>) +
                 N.Inputs.size() * 2 * sizeof(NodeId) +
                 N.Attrs.size() * sizeof(term::Attr);
  Nodes.push_back(std::move(N));
  Users.emplace_back();
  return Id;
}

NodeId Graph::addLeaf(std::string_view OpName, TensorType Type,
                      std::vector<term::Attr> Attrs) {
  term::OpId Op = Sig.getOrAddOp(OpName, 0, 1, "leaf");
  // Distinct leaves are distinct *values* even when their shapes coincide
  // (two Weight[768,768] tensors hold different data). A unique id
  // attribute keeps hash-consing from conflating them in the term view;
  // Const leaves, by contrast, are identified by their value and share.
  static const Symbol UidKey = Symbol::intern("uid");
  Attrs.push_back({UidKey, static_cast<int64_t>(Nodes.size())});
  NodeId N = addNode(Op, std::span<const NodeId>(), std::move(Attrs));
  setType(N, std::move(Type));
  return N;
}

NodeId Graph::addConst(double Value, term::DType Dtype) {
  term::OpId Op = Sig.lookup("Const");
  if (!Op.isValid())
    Op = Sig.addOp("Const", 0, 1, "const", {Symbol::intern("value_u6")});
  std::vector<term::Attr> Attrs{
      {Symbol::intern("value_u6"),
       static_cast<int64_t>(std::llround(Value * 1e6))}};
  NodeId N = addNode(Op, std::span<const NodeId>(), std::move(Attrs));
  TensorType T;
  T.Dtype = Dtype;
  setType(N, std::move(T));
  return N;
}

std::optional<int64_t> Graph::attr(NodeId N, Symbol Key) const {
  for (const term::Attr &A : node(N).Attrs)
    if (A.Key == Key)
      return A.Value;
  return std::nullopt;
}

void Graph::replaceAllUses(NodeId From, NodeId To, NodeId SkipUsersFrom) {
  redirectUses(From, To, SkipUsersFrom);
  // An out-of-band redirect may strand anything below From; only a global
  // sweep can tell.
  SweptClean = false;
}

void Graph::redirectUses(NodeId From, NodeId To, NodeId SkipUsersFrom) {
  assert(From < Nodes.size() && To < Nodes.size());
  if (From == To)
    return;
  saveUsers(From);
  std::vector<NodeId> Kept;
  for (NodeId User : Users[From]) {
    if (User >= SkipUsersFrom) {
      Kept.push_back(User);
      continue;
    }
    saveInputs(User);
    for (NodeId &In : Nodes[User].Inputs)
      if (In == From)
        In = To;
    saveUsers(To);
    Users[To].push_back(User);
  }
  Users[From] = std::move(Kept);
  for (NodeId &Out : Outputs)
    if (Out == From)
      Out = To;
}

bool Graph::isOutput(NodeId N) const {
  return std::find(Outputs.begin(), Outputs.end(), N) != Outputs.end();
}

void Graph::noteSwept() {
  SweptClean = true;
  SweptOutputs = Outputs;
  SweptUpTo = static_cast<NodeId>(Nodes.size());
}

void Graph::beginWalk() {
  if (WalkMark.size() < Nodes.size())
    WalkMark.resize(Nodes.size(), 0);
  // A fresh epoch unmarks every node at once; on the (astronomically
  // rare) wrap the marks are cleared for real.
  if (++WalkEpoch == 0) {
    std::fill(WalkMark.begin(), WalkMark.end(), 0);
    WalkEpoch = 1;
  }
}

void Graph::redirectAndSweep(CommitFootprint &F, NodeId Replacement) {
  const NodeId Root = F.Root;
  const bool Local = sweptClean();
  redirectUses(Root, Replacement, F.NewBegin);
  if (!Local) {
    removeUnreachable(&F.Swept);
    F.SweepVisits = Nodes.size();
    return;
  }
  // Local sweep. Every live node was reachable after the last sweep, and
  // since then only Root lost users (the redirect) and nodes were
  // appended; so the newly unreachable nodes are exactly those whose
  // live-user count drops to zero starting from Root and the unreferenced
  // appended nodes — a Kahn-style peel of the dead region.
  std::vector<NodeId> &Work = WalkStack;
  Work.assign(1, Root);
  for (NodeId N = SweptUpTo; N < Nodes.size(); ++N)
    if (Users[N].empty())
      Work.push_back(N);
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    ++F.SweepVisits;
    if (Nodes[N].Dead || !Users[N].empty() || isOutput(N))
      continue;
    kill(N);
    F.Swept.push_back(N);
    for (NodeId In : Nodes[N].Inputs) {
      auto &U = Users[In];
      auto It = std::find(U.begin(), U.end(), N);
      if (It == U.end())
        continue; // a repeated input: already pruned
      saveUsers(In);
      U.erase(std::remove(It, U.end(), N), U.end());
      if (U.empty())
        Work.push_back(In);
    }
  }
  std::sort(F.Swept.begin(), F.Swept.end());
  noteSwept();
}

size_t Graph::numLiveNodes() const {
  size_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead)
      ++Count;
  return Count;
}

std::vector<char> Graph::reachableFromOutputs() const {
  std::vector<char> Reachable(Nodes.size(), 0);
  std::vector<NodeId> Stack(Outputs.begin(), Outputs.end());
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    if (Reachable[N])
      continue;
    Reachable[N] = 1;
    for (NodeId In : Nodes[N].Inputs)
      Stack.push_back(In);
  }
  return Reachable;
}

bool Graph::noteSweptIfClean() {
  assert(!Scope.Log && "sweep bookkeeping outside undo scopes only");
  std::vector<char> Reachable = reachableFromOutputs();
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    if (!Nodes[N].Dead && !Reachable[N])
      return false; // removeUnreachable would kill N
    for (NodeId User : Users[N])
      if (Nodes[User].Dead)
        return false; // ... or prune N's user list
  }
  noteSwept();
  return true;
}

size_t Graph::removeUnreachable(std::vector<NodeId> *SweptIds) {
  std::vector<char> Reachable = reachableFromOutputs();
  size_t Swept = 0;
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    if (Reachable[N] || Nodes[N].Dead)
      continue;
    kill(N);
    if (!Users[N].empty()) {
      saveUsers(N);
      Users[N].clear();
    }
    if (SweptIds)
      SweptIds->push_back(N);
    ++Swept;
  }
  // Prune dead users from remaining use lists.
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    auto &U = Users[N];
    auto IsDead = [&](NodeId User) { return Nodes[User].Dead; };
    auto It = std::find_if(U.begin(), U.end(), IsDead);
    if (It == U.end())
      continue;
    saveUsers(N);
    U.erase(std::remove_if(It, U.end(), IsDead), U.end());
  }
  noteSwept();
  return Swept;
}

void Graph::checkpoint(UndoLog &L) {
  assert(!Scope.Log && "undo scopes do not nest");
  L.NumNodes = Nodes.size();
  L.ApproxBytes = ApproxBytes;
  L.SweptClean = SweptClean;
  L.SweptUpTo = SweptUpTo;
  L.Outputs = Outputs;
  L.SweptOutputs = SweptOutputs;
  L.Lists.clear();
  L.Pool.clear();
  L.Killed.clear();
  // A fresh epoch invalidates every first-touch mark at once; on the
  // (astronomically rare) wrap the marks are cleared for real.
  if (++L.Epoch == 0) {
    std::fill(L.UsersMark.begin(), L.UsersMark.end(), 0);
    std::fill(L.InputsMark.begin(), L.InputsMark.end(), 0);
    L.Epoch = 1;
  }
  if (L.UsersMark.size() < Nodes.size()) {
    L.UsersMark.resize(Nodes.size(), 0);
    L.InputsMark.resize(Nodes.size(), 0);
  }
  Scope.Log = &L;
}

void Graph::saveList(NodeId N, bool Inputs) {
  UndoLog &L = *Scope.Log;
  uint32_t &Mark = (Inputs ? L.InputsMark : L.UsersMark)[N];
  if (Mark == L.Epoch)
    return;
  Mark = L.Epoch;
  const std::vector<NodeId> &List = Inputs ? Nodes[N].Inputs : Users[N];
  L.Lists.push_back({N, Inputs, static_cast<uint32_t>(L.Pool.size()),
                     static_cast<uint32_t>(List.size())});
  L.Pool.insert(L.Pool.end(), List.begin(), List.end());
}

void Graph::rollback() {
  assert(Scope.Log && "rollback without checkpoint");
  UndoLog &L = *Scope.Log;
  Scope.Log = nullptr;
  Nodes.erase(Nodes.begin() + L.NumNodes, Nodes.end());
  Users.erase(Users.begin() + L.NumNodes, Users.end());
  for (const UndoLog::SavedList &S : L.Lists) {
    std::vector<NodeId> &List = S.Inputs ? Nodes[S.Node].Inputs : Users[S.Node];
    List.assign(L.Pool.begin() + S.Begin, L.Pool.begin() + S.Begin + S.Size);
  }
  for (NodeId N : L.Killed)
    Nodes[N].Dead = false;
  Outputs = L.Outputs;
  SweptOutputs = L.SweptOutputs;
  ApproxBytes = L.ApproxBytes;
  SweptClean = L.SweptClean;
  SweptUpTo = L.SweptUpTo;
}

std::vector<NodeId> Graph::topoOrder() const {
  // Rewrites redirect uses across node-id order, so a real DFS postorder
  // is required (ids alone are not topological after replaceAllUses).
  std::vector<NodeId> Order;
  Order.reserve(Nodes.size());
  std::vector<uint8_t> State(Nodes.size(), 0); // 0 new, 1 visiting, 2 done
  std::vector<std::pair<NodeId, size_t>> Stack;
  for (NodeId Root = 0; Root != Nodes.size(); ++Root) {
    if (Nodes[Root].Dead || State[Root] == 2)
      continue;
    Stack.emplace_back(Root, 0);
    State[Root] = 1;
    while (!Stack.empty()) {
      auto &[N, NextInput] = Stack.back();
      if (NextInput < Nodes[N].Inputs.size()) {
        NodeId In = Nodes[N].Inputs[NextInput++];
        if (State[In] == 0) {
          State[In] = 1;
          Stack.emplace_back(In, 0);
        }
        continue;
      }
      State[N] = 2;
      Order.push_back(N);
      Stack.pop_back();
    }
  }
  return Order;
}

bool Graph::verify(DiagnosticEngine &Diags) const {
  bool Ok = true;
  for (NodeId N = 0; N != Nodes.size(); ++N) {
    const Node &Nd = Nodes[N];
    if (Nd.Dead)
      continue;
    if (Nd.Inputs.size() != Sig.arity(Nd.Op)) {
      Diags.error(SourceLoc(),
                  "node " + std::to_string(N) + " arity mismatch for op '" +
                      std::string(Sig.name(Nd.Op).str()) + "'");
      Ok = false;
    }
    for (NodeId In : Nd.Inputs) {
      if (In >= Nodes.size()) {
        Diags.error(SourceLoc(), "node " + std::to_string(N) +
                                     " has out-of-range input " +
                                     std::to_string(In));
        Ok = false;
      } else if (Nodes[In].Dead) {
        Diags.error(SourceLoc(), "node " + std::to_string(N) +
                                     " uses dead node " + std::to_string(In));
        Ok = false;
      }
    }
  }
  // Acyclicity: every live node must appear in a completed topological
  // order after all its inputs.
  {
    std::vector<NodeId> Order = topoOrder();
    std::vector<size_t> Position(Nodes.size(), ~size_t(0));
    for (size_t I = 0; I != Order.size(); ++I)
      Position[Order[I]] = I;
    for (NodeId N : Order)
      for (NodeId In : Nodes[N].Inputs)
        if (Position[In] == ~size_t(0) || Position[In] > Position[N]) {
          Diags.error(SourceLoc(), "cycle through node " + std::to_string(N));
          Ok = false;
        }
  }
  for (NodeId Out : Outputs)
    if (Out >= Nodes.size() || Nodes[Out].Dead) {
      Diags.error(SourceLoc(),
                  "graph output " + std::to_string(Out) + " is dead");
      Ok = false;
    }
  return Ok;
}

size_t Graph::countOps(term::OpId Op) const {
  size_t Count = 0;
  for (const Node &N : Nodes)
    if (!N.Dead && N.Op == Op)
      ++Count;
  return Count;
}

size_t Graph::countOps(std::string_view OpName) const {
  term::OpId Op = Sig.lookup(OpName);
  if (!Op.isValid())
    return 0;
  return countOps(Op);
}
