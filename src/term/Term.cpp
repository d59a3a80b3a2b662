//===- term/Term.cpp - Hash-consed ground terms ---------------------------===//

#include "term/Term.h"

#include "support/Hash.h"

#include <algorithm>
#include <memory>
#include <new>
#include <unordered_map>

using namespace pypm;
using namespace pypm::term;

namespace {
constexpr size_t FirstSlabBytes = 4096;
constexpr size_t MaxSlabBytes = 64 * 1024;
constexpr unsigned InitialTableLog2 = 6;

bool attrKeyLess(const Attr &A, const Attr &B) {
  return A.Key.rawId() < B.Key.rawId();
}
} // namespace

std::optional<int64_t> Term::storedAttr(Symbol Key) const {
  // Attrs is sorted by raw id; binary search.
  std::span<const Attr> As = attrs();
  auto It = std::lower_bound(
      As.begin(), As.end(), Key,
      [](const Attr &A, Symbol K) { return A.Key.rawId() < K.rawId(); });
  if (It != As.end() && It->Key == Key)
    return It->Value;
  return std::nullopt;
}

TermArena::TermArena(const Signature &Sig)
    : Sig(Sig), NextSlabBytes(FirstSlabBytes),
      Table(size_t(1) << InitialTableLog2, nullptr),
      TableShift(64 - InitialTableLog2) {}

uint64_t TermArena::hashKey(OpId Op, std::span<const TermRef> Children,
                            std::span<const Attr> Attrs) {
  uint64_t H = hashCombine(0x517cc1b727220a95ULL, Op.index());
  for (TermRef C : Children)
    H = hashCombine(H, C->HashValue);
  for (const Attr &A : Attrs) {
    H = hashCombine(H, A.Key.rawId());
    H = hashCombine(H, static_cast<uint64_t>(A.Value));
  }
  return H;
}

bool TermArena::keyEquals(const Term *T, OpId Op,
                          std::span<const TermRef> Children,
                          std::span<const Attr> Attrs) {
  if (T->Op != Op || T->NumChildren != Children.size() ||
      T->NumAttrs != Attrs.size())
    return false;
  if (!std::equal(Children.begin(), Children.end(), T->childData()))
    return false;
  return std::equal(Attrs.begin(), Attrs.end(), T->attrData());
}

void *TermArena::allocate(size_t Bytes) {
  if (static_cast<size_t>(SlabEnd - SlabCur) < Bytes) {
    size_t SlabBytes = std::max(NextSlabBytes, Bytes);
    NextSlabBytes = std::min(NextSlabBytes * 2, MaxSlabBytes);
    Slabs.push_back(std::make_unique_for_overwrite<std::byte[]>(SlabBytes));
    SlabCur = Slabs.back().get();
    SlabEnd = SlabCur + SlabBytes;
  }
  void *P = SlabCur;
  SlabCur += Bytes;
  return P;
}

void TermArena::growTable() {
  std::vector<Term *> Old(Table.size() * 2, nullptr);
  Old.swap(Table);
  --TableShift;
  const size_t Mask = Table.size() - 1;
  for (Term *T : Old) {
    if (!T)
      continue;
    size_t I = slotFor(T->HashValue);
    while (Table[I])
      I = (I + 1) & Mask;
    Table[I] = T;
  }
}

TermRef TermArena::make(OpId Op, std::span<const TermRef> Children,
                        std::span<const Attr> Attrs) {
  assert(Op.isValid() && "making term with invalid op");
  assert(Children.size() == Sig.arity(Op) &&
         "child count does not match declared arity");

  // Normalize attributes: sort by key.
  SortScratch.assign(Attrs.begin(), Attrs.end());
  std::sort(SortScratch.begin(), SortScratch.end(), attrKeyLess);
  std::span<const Attr> Sorted = SortScratch;
#ifndef NDEBUG
  for (size_t I = 1; I < Sorted.size(); ++I)
    assert(Sorted[I - 1].Key != Sorted[I].Key && "duplicate attribute key");
#endif

  const uint64_t H = hashKey(Op, Children, Sorted);
  const size_t Mask = Table.size() - 1;
  size_t Slot = slotFor(H);
  for (; Table[Slot]; Slot = (Slot + 1) & Mask)
    if (Table[Slot]->HashValue == H &&
        keyEquals(Table[Slot], Op, Children, Sorted))
      return Table[Slot];

  const size_t Bytes = sizeof(Term) + Children.size() * sizeof(TermRef) +
                       Sorted.size() * sizeof(Attr);
  Term *T = new (allocate(Bytes)) Term();
  T->Op = Op;
  T->HashValue = H;
  T->Index = NumTerms++;
  T->NumChildren = static_cast<uint32_t>(Children.size());
  T->NumAttrs = static_cast<uint32_t>(Sorted.size());
  auto *ChildOut = reinterpret_cast<TermRef *>(T + 1);
  std::uninitialized_copy(Children.begin(), Children.end(), ChildOut);
  std::uninitialized_copy(Sorted.begin(), Sorted.end(),
                          reinterpret_cast<Attr *>(ChildOut + Children.size()));
  uint64_t Size = 1;
  uint32_t Depth = 0;
  for (TermRef C : Children) {
    Size += C->TreeSize;
    Depth = std::max(Depth, C->TreeDepth);
  }
  T->TreeSize = Size;
  T->TreeDepth = Depth + 1;

  Table[Slot] = T;
  if (2 * static_cast<size_t>(NumTerms) > Table.size())
    growTable();
  return T;
}

TermRef TermArena::make(OpId Op, std::initializer_list<TermRef> Children,
                        std::initializer_list<Attr> Attrs) {
  return make(Op, std::span<const TermRef>(Children.begin(), Children.size()),
              std::span<const Attr>(Attrs.begin(), Attrs.size()));
}

TermRef TermArena::leaf(OpId Op, std::initializer_list<Attr> Attrs) {
  return make(Op, std::span<const TermRef>(),
              std::span<const Attr>(Attrs.begin(), Attrs.size()));
}

std::optional<int64_t> TermArena::attribute(TermRef T, Symbol Key) const {
  if (std::optional<int64_t> Stored = T->storedAttr(Key))
    return Stored;
  static const Symbol ArityKey = Symbol::intern("arity");
  static const Symbol SizeKey = Symbol::intern("size");
  static const Symbol DepthKey = Symbol::intern("depth");
  static const Symbol OpIdKey = Symbol::intern("op_id");
  if (Key == ArityKey)
    return static_cast<int64_t>(T->arity());
  if (Key == SizeKey)
    return static_cast<int64_t>(T->size());
  if (Key == DepthKey)
    return static_cast<int64_t>(T->depth());
  if (Key == OpIdKey)
    return static_cast<int64_t>(T->op().index());
  return std::nullopt;
}

std::vector<TermRef> TermArena::subterms(TermRef T) {
  std::vector<TermRef> Order;
  std::vector<TermRef> Stack{T};
  std::unordered_map<TermRef, bool> Seen;
  while (!Stack.empty()) {
    TermRef Cur = Stack.back();
    Stack.pop_back();
    if (Seen[Cur])
      continue;
    Seen[Cur] = true;
    Order.push_back(Cur);
    for (TermRef C : Cur->children())
      Stack.push_back(C);
  }
  return Order;
}

std::string TermArena::toString(TermRef T, const Signature &Sig) {
  std::string Out(Sig.name(T->op()).str());
  if (!T->attrs().empty()) {
    Out += '[';
    bool First = true;
    for (const Attr &A : T->attrs()) {
      if (!First)
        Out += ',';
      First = false;
      Out += A.Key.str();
      Out += '=';
      Out += std::to_string(A.Value);
    }
    Out += ']';
  }
  if (T->arity() != 0) {
    Out += '(';
    bool First = true;
    for (TermRef C : T->children()) {
      if (!First)
        Out += ", ";
      First = false;
      Out += toString(C, Sig);
    }
    Out += ')';
  }
  return Out;
}
