//===- graph/GraphIO.cpp - Textual computation-graph format --------------------===//

#include "graph/GraphIO.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <functional>

using namespace pypm;
using namespace pypm::graph;

std::string pypm::graph::writeGraphText(const Graph &G) {
  std::string Out;
  const term::Signature &Sig = G.signature();
  for (NodeId N : G.topoOrder()) {
    Out += 'n';
    Out += std::to_string(N);
    Out += " = ";
    Out += Sig.name(G.op(N)).str();
    if (!G.attrs(N).empty()) {
      Out += '[';
      bool First = true;
      for (const term::Attr &A : G.attrs(N)) {
        if (!First)
          Out += ',';
        First = false;
        Out += A.Key.str();
        Out += '=';
        Out += std::to_string(A.Value);
      }
      Out += ']';
    }
    Out += '(';
    bool First = true;
    for (NodeId In : G.inputs(N)) {
      if (!First)
        Out += ", ";
      First = false;
      Out += 'n';
      Out += std::to_string(In);
    }
    Out += ") : ";
    Out += term::dtypeName(G.type(N).Dtype);
    Out += '[';
    for (size_t I = 0; I != G.type(N).Dims.size(); ++I) {
      if (I)
        Out += 'x';
      Out += std::to_string(G.type(N).Dims[I]);
    }
    Out += "]\n";
  }
  for (NodeId Output : G.outputs()) {
    Out += "output n";
    Out += std::to_string(Output);
    Out += '\n';
  }
  return Out;
}

namespace {

/// Single-line cursor with character-level helpers.
class LineParser {
public:
  LineParser(std::string_view Line, uint32_t LineNo, DiagnosticEngine &Diags)
      : Line(Line), LineNo(LineNo), Diags(Diags) {}

  void skipWs() {
    while (Pos < Line.size() &&
           std::isspace(static_cast<unsigned char>(Line[Pos])))
      ++Pos;
  }

  bool atEnd() {
    skipWs();
    return Pos == Line.size();
  }

  bool eat(char C) {
    skipWs();
    if (Pos < Line.size() && Line[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool expect(char C) {
    if (eat(C))
      return true;
    error(std::string("expected '") + C + "'");
    return false;
  }

  std::string_view ident() {
    skipWs();
    size_t Start = Pos;
    while (Pos < Line.size() &&
           (std::isalnum(static_cast<unsigned char>(Line[Pos])) ||
            Line[Pos] == '_'))
      ++Pos;
    return Line.substr(Start, Pos - Start);
  }

  /// An optionally signed decimal. A sign needs at least one digit after
  /// it; out-of-range values fail rather than clamp.
  bool integer(int64_t &Out) {
    skipWs();
    size_t Digits = Pos;
    if (Digits < Line.size() && (Line[Digits] == '-' || Line[Digits] == '+'))
      ++Digits;
    size_t End = Digits;
    while (End < Line.size() &&
           std::isdigit(static_cast<unsigned char>(Line[End])))
      ++End;
    if (End == Digits)
      return false;
    // from_chars takes a '-' but not a '+'.
    const char *First = Line.data() + (Line[Pos] == '+' ? Digits : Pos);
    auto [Ptr, Ec] = std::from_chars(First, Line.data() + End, Out);
    Pos = End;
    return Ec == std::errc();
  }

  void error(std::string Msg) {
    Diags.error(SourceLoc{LineNo, static_cast<uint32_t>(Pos + 1)},
                std::move(Msg));
  }

private:
  std::string_view Line;
  uint32_t LineNo;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
};

/// The node names of one parse: an open-addressing table of views into
/// the request text, kept at most half full by doubling. Defining a name
/// allocates nothing unless the table grows.
class NameTable {
public:
  /// Sized for \p Expected names without a rehash.
  explicit NameTable(size_t Expected)
      : Slots(std::bit_ceil(2 * Expected + 2)) {}

  /// The node \p Name defines, or InvalidNode.
  NodeId lookup(std::string_view Name) const { return Slots[probe(Name)].Id; }

  /// Defines \p Name, which must be undefined.
  void define(std::string_view Name, NodeId Id) {
    if (2 * (Count + 1) > Slots.size())
      grow();
    Slots[probe(Name)] = {Name, Id};
    ++Count;
  }

private:
  struct Slot {
    std::string_view Name;
    NodeId Id = InvalidNode; ///< InvalidNode: the slot is empty
  };
  std::vector<Slot> Slots;
  size_t Count = 0;

  /// \p Name's slot if it is defined, else the empty slot it would take.
  size_t probe(std::string_view Name) const {
    const size_t Mask = Slots.size() - 1;
    size_t I = std::hash<std::string_view>()(Name) & Mask;
    while (Slots[I].Id != InvalidNode && Slots[I].Name != Name)
      I = (I + 1) & Mask;
    return I;
  }

  void grow() {
    std::vector<Slot> Old(Slots.size() * 2);
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Id != InvalidNode)
        Slots[probe(S.Name)] = S;
  }
};

} // namespace

std::unique_ptr<Graph> pypm::graph::parseGraphText(std::string_view Text,
                                                   term::Signature &Sig,
                                                   DiagnosticEngine &Diags) {
  auto G = std::make_unique<Graph>(Sig);
  // A line defines at most one name. The cap keeps a text of empty lines
  // from reserving much; larger graphs grow the table instead.
  NameTable Names(
      std::min<size_t>(std::count(Text.begin(), Text.end(), '\n') + 1, 4096));
  std::vector<NodeId> Inputs; // one line's inputs, reused
  uint32_t LineNo = 0;
  size_t Pos = 0;

  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    std::string_view Line = Text.substr(
        Pos, End == std::string_view::npos ? std::string_view::npos
                                           : End - Pos);
    Pos = End == std::string_view::npos ? Text.size() + 1 : End + 1;
    ++LineNo;

    LineParser LP(Line, LineNo, Diags);
    if (LP.atEnd() || LP.eat('#'))
      continue;

    std::string_view First = LP.ident();
    if (First == "output") {
      std::string_view Ref = LP.ident();
      NodeId Out = Names.lookup(Ref);
      if (Out == InvalidNode) {
        LP.error("output references unknown node '" + std::string(Ref) + "'");
        return nullptr;
      }
      G->addOutput(Out);
      continue;
    }
    if (First.empty()) {
      LP.error("expected node definition or 'output'");
      return nullptr;
    }

    std::string_view Name = First;
    if (Names.lookup(Name) != InvalidNode) {
      LP.error("node '" + std::string(Name) + "' redefined");
      return nullptr;
    }
    if (!LP.expect('='))
      return nullptr;
    std::string_view OpName = LP.ident();
    if (OpName.empty()) {
      LP.error("expected operator name");
      return nullptr;
    }

    std::vector<term::Attr> Attrs;
    if (LP.eat('[')) {
      if (!LP.eat(']')) {
        do {
          std::string_view Key = LP.ident();
          int64_t V = 0;
          if (Key.empty() || !LP.expect('=') || !LP.integer(V)) {
            LP.error("malformed attribute");
            return nullptr;
          }
          Attrs.push_back({Symbol::intern(Key), V});
        } while (LP.eat(','));
        if (!LP.expect(']'))
          return nullptr;
      }
    }

    Inputs.clear();
    if (!LP.expect('('))
      return nullptr;
    if (!LP.eat(')')) {
      do {
        std::string_view Ref = LP.ident();
        NodeId In = Names.lookup(Ref);
        if (In == InvalidNode) {
          LP.error("unknown input node '" + std::string(Ref) + "'");
          return nullptr;
        }
        Inputs.push_back(In);
      } while (LP.eat(','));
      if (!LP.expect(')'))
        return nullptr;
    }

    if (!LP.expect(':'))
      return nullptr;
    std::string_view DtypeName = LP.ident();
    std::optional<term::DType> Dtype = term::dtypeFromName(DtypeName);
    if (!Dtype) {
      LP.error("unknown dtype '" + std::string(DtypeName) + "'");
      return nullptr;
    }
    TensorType Type;
    Type.Dtype = *Dtype;
    if (!LP.expect('['))
      return nullptr;
    if (!LP.eat(']')) {
      int64_t D = 0;
      if (!LP.integer(D)) {
        LP.error("expected dimension");
        return nullptr;
      }
      if (D < 0) {
        LP.error("negative dimension " + std::to_string(D));
        return nullptr;
      }
      Type.Dims.push_back(D);
      while (LP.eat('x')) {
        if (!LP.integer(D)) {
          LP.error("expected dimension");
          return nullptr;
        }
        if (D < 0) {
          LP.error("negative dimension " + std::to_string(D));
          return nullptr;
        }
        Type.Dims.push_back(D);
      }
      if (!LP.expect(']'))
        return nullptr;
    }
    if (!LP.atEnd()) {
      LP.error("trailing characters");
      return nullptr;
    }

    term::OpId Op = Sig.lookup(OpName);
    if (!Op.isValid()) {
      Op = Sig.addOp(OpName, static_cast<unsigned>(Inputs.size()));
    } else if (Sig.arity(Op) != Inputs.size()) {
      LP.error("operator '" + std::string(OpName) + "' expects " +
               std::to_string(Sig.arity(Op)) + " inputs, got " +
               std::to_string(Inputs.size()));
      return nullptr;
    }
    NodeId N = G->addNode(Op, std::span<const NodeId>(Inputs),
                          std::move(Attrs));
    G->setType(N, std::move(Type));
    Names.define(Name, N);
  }

  if (G->outputs().empty() && G->numNodes() != 0)
    Diags.warning(SourceLoc{LineNo, 1}, "graph has no outputs");
  return G;
}
