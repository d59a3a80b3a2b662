//===- term/Term.h - Hash-consed ground terms ------------------*- C++ -*-===//
///
/// \file
/// Ground terms t ::= f(t1, …, tn) (paper Fig. 5), hash-consed in an arena.
///
/// Hash-consing gives O(1) structural equality (pointer identity), which is
/// exactly the term equality the algorithmic semantics consults in
/// ST-Match-Var-Conflict for nonlinear patterns.
///
/// Terms additionally carry an *attribute list*: sorted (Symbol, int64)
/// pairs. CorePyPM requires a fixed attribute set A with an interpretation
/// ⟦·⟧ : A → Term → ℤ (§3.2); we realize ⟦α⟧(t) as lookup in t's stored
/// attributes, falling back to a small set of built-ins (arity, size,
/// depth). Tensor-specific attributes (rank, dim0…, elt_type) are stored by
/// the graph→term adapter. Attributes participate in term identity: two
/// Add nodes with different shapes are different terms.
///
/// Layout. A term is one block in a bump-allocated slab owned by its
/// arena: a fixed header, then its children (`const Term *`), then its
/// sorted attributes, inline and contiguous. Term is trivially
/// destructible, so an arena's teardown frees only its slabs. Interning a
/// term costs one probe of an open-addressed table of `Term *` keyed by
/// the term's stored hash; a miss bump-allocates the block. Each term also
/// has a dense per-arena index() — 0, 1, 2, … in creation order — so a
/// client can keep per-term side tables as plain vectors (the graph view's
/// representative table does).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_TERM_TERM_H
#define PYPM_TERM_TERM_H

#include "term/Signature.h"

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace pypm::term {

class TermArena;

/// One (Symbol, value) attribute pair.
struct Attr {
  Symbol Key;
  int64_t Value;

  friend bool operator==(const Attr &A, const Attr &B) {
    return A.Key == B.Key && A.Value == B.Value;
  }
};

/// An immutable, interned term. Created only by TermArena; compare with
/// pointer equality. Its children and attributes live inline after it.
class Term {
public:
  OpId op() const { return Op; }
  std::span<const Term *const> children() const {
    return {childData(), NumChildren};
  }
  unsigned arity() const { return NumChildren; }
  const Term *child(unsigned I) const {
    assert(I < NumChildren && "child index out of range");
    return childData()[I];
  }

  std::span<const Attr> attrs() const { return {attrData(), NumAttrs}; }

  /// Stored attribute lookup (no built-ins). See TermArena::attribute for
  /// the full ⟦α⟧ including built-ins.
  std::optional<int64_t> storedAttr(Symbol Key) const;

  /// Number of nodes in this term (counting shared subterms once per
  /// occurrence, i.e. tree size).
  uint64_t size() const { return TreeSize; }
  /// Height of the tree; leaves have depth 1.
  uint32_t depth() const { return TreeDepth; }

  /// Dense per-arena index: the arena's terms are numbered 0, 1, 2, … in
  /// creation order.
  uint32_t index() const { return Index; }

  /// A term is only meaningful in place: its operands follow it.
  Term(const Term &) = delete;
  Term &operator=(const Term &) = delete;

private:
  friend class TermArena;
  Term() = default;

  const Term *const *childData() const {
    return reinterpret_cast<const Term *const *>(this + 1);
  }
  const Attr *attrData() const {
    return reinterpret_cast<const Attr *>(childData() + NumChildren);
  }

  uint64_t HashValue = 0;
  uint64_t TreeSize = 1;
  OpId Op;
  uint32_t TreeDepth = 1;
  uint32_t Index = 0;
  uint32_t NumChildren = 0;
  uint32_t NumAttrs = 0;
};

static_assert(std::is_trivially_destructible_v<Term>,
              "arena teardown frees slabs without running destructors");
static_assert(sizeof(Term) % alignof(const Term *) == 0 &&
                  alignof(const Term *) % alignof(Attr) == 0 &&
                  alignof(Attr) <= alignof(Term),
              "inline children and attributes must be aligned after Term");

using TermRef = const Term *;

/// Owns and interns terms. All TermRefs remain valid for the arena's
/// lifetime.
class TermArena {
public:
  explicit TermArena(const Signature &Sig);
  TermArena(const TermArena &) = delete;
  TermArena &operator=(const TermArena &) = delete;

  const Signature &signature() const { return Sig; }

  /// Interns f(Children) with the given attributes. Children size must equal
  /// the declared arity of \p Op. Attrs may be in any order; they are
  /// normalized (sorted by key). Duplicate keys are a programmer error.
  TermRef make(OpId Op, std::span<const TermRef> Children,
               std::span<const Attr> Attrs = {});

  /// Convenience overloads.
  TermRef make(OpId Op, std::initializer_list<TermRef> Children,
               std::initializer_list<Attr> Attrs = {});
  TermRef leaf(OpId Op, std::initializer_list<Attr> Attrs = {});

  /// The interpretation ⟦α⟧(t): stored attribute if present, else built-ins:
  ///   "arity" → number of children, "size" → tree size, "depth" → height,
  ///   "op_id" → raw operator index.
  /// Returns nullopt for unknown attributes.
  std::optional<int64_t> attribute(TermRef T, Symbol Key) const;

  /// Number of distinct interned terms; also the next term's index().
  size_t numTerms() const { return NumTerms; }

  /// Collects T and all transitive subterms, deduplicated, in a
  /// deterministic (post-)order. Useful for declarative-search candidate
  /// sets.
  static std::vector<TermRef> subterms(TermRef T);

  /// Renders a term as `Op[attr=v,…](children…)`; inverse of TermParser.
  static std::string toString(TermRef T, const Signature &Sig);
  std::string toString(TermRef T) const { return toString(T, Sig); }

private:
  static uint64_t hashKey(OpId Op, std::span<const TermRef> Children,
                          std::span<const Attr> Attrs);
  static bool keyEquals(const Term *T, OpId Op,
                        std::span<const TermRef> Children,
                        std::span<const Attr> Attrs);
  /// Table slot for hash \p H (Fibonacci hashing on the high bits).
  size_t slotFor(uint64_t H) const {
    return static_cast<size_t>((H * 0x9e3779b97f4a7c15ULL) >> TableShift);
  }
  /// Bump-allocates \p Bytes (a multiple of alignof(Term)) from the
  /// current slab, starting a new slab when it does not fit.
  void *allocate(size_t Bytes);
  /// Doubles the intern table and reinserts every term by its stored hash.
  void growTable();

  const Signature &Sig;
  /// Term storage. Slabs double in size up to a cap; a term larger than
  /// the cap gets a slab of its own.
  std::vector<std::unique_ptr<std::byte[]>> Slabs;
  std::byte *SlabCur = nullptr;
  std::byte *SlabEnd = nullptr;
  size_t NextSlabBytes;
  /// Open-addressed intern table (linear probing, power-of-two size,
  /// null = empty slot), grown at half load.
  std::vector<Term *> Table;
  unsigned TableShift;
  /// make()'s sorted copy of the attributes, reused across calls.
  std::vector<Attr> SortScratch;
  uint32_t NumTerms = 0;
};

} // namespace pypm::term

#endif // PYPM_TERM_TERM_H
