//===- graph/TermView.h - Graph ↔ term adapter ------------------*- C++ -*-===//
///
/// \file
/// CorePyPM abstracts computation graphs as syntax trees (§3): the matcher
/// matches the *tree unrolling* of the subgraph rooted at a node. TermView
/// provides that view: termFor(n) converts the DAG rooted at n into a
/// hash-consed term (conversion is memoized per node, so shared subgraphs
/// convert once and sharing survives as hash-consing sharing — the
/// conversion is linear in the number of live nodes, not in tree size).
///
/// Term attributes are assembled from the node: `elt_type`, `rank`,
/// `dim0…dim7` from the inferred tensor type, plus the node's own operator
/// attributes (stride, value_u6, …). Because attributes participate in term
/// identity, structurally equal subgraphs with different shapes are
/// distinct terms — which is what nonlinear patterns should see.
///
/// nodeFor(t) maps a matched term back to a *representative* node (needed
/// to build rule replacements); when hash-consing merged several
/// structurally identical nodes, any representative is semantically
/// interchangeable (pure dataflow). The representative is the
/// first-converted memoized node with that term — not the lowest id: the
/// conversion order follows the traversal, and after rewrites node ids are
/// no longer topological.
///
/// nodeFor(t, root) is the rooted resolution a rewrite of the match at
/// `root` uses: the first node with term t in a post-order DFS from root —
/// exactly the representative a view converted cold from root would
/// answer. When t has a single memoized node that is the plain
/// representative; when hash-consing merged twins (two `Const` leaves of
/// the same value, say), the lookup walks the memoized cone of root. That
/// walk is exact because the memo is downward closed: invalidation drops
/// users-closures and dead nodes only, so a memoized node's whole cone is
/// memoized. The resolution is const and keeps no per-call state in the
/// view, so concurrent speculation may share one view read-only.
///
/// After a graph mutation the memo must be told what changed: a committed
/// rewrite passes its footprint to invalidateNodes(), which drops exactly
/// the conversions the commit made stale (the memoized part of the
/// redirected root's users-closure, and the swept nodes) and keeps the
/// rest. Any other mutation calls invalidate(), which drops everything.
/// Dropping a representative promotes the next-converted surviving node
/// with the same term, so nodeFor never answers with a dead node or one
/// whose unrolling changed.
///
/// Tables. All three are plain vectors, so a conversion, a drop and both
/// nodeFor lookups hash nothing and, once the vectors have grown, allocate
/// nothing: NodeToTerm is indexed by NodeId; RepOf by Term::index() holds
/// each term's representative and its last-converted memoized node; and
/// NextTwin, by NodeId, chains a term's memoized nodes in conversion
/// order. A term has twins exactly when its representative is not also its
/// last node — the one check the rare twin paths (unlinking a shadowed
/// node, promotion, the rooted walk) hide behind. A term from another
/// arena can share an index() with one of this view's terms, so every
/// lookup confirms NodeToTerm[Rep] == T and answers InvalidNode otherwise.
///
/// The committer may cut the closure walk to memoized() nodes
/// (Graph::commitRewrite's descend predicate): because the memo is
/// downward closed, a user that is not memoized has no memoized user, so
/// the cut walk reaches every memoized node of the full closure and
/// nothing else. A fire then costs the conversions it invalidates, not
/// the size of its closure.
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_GRAPH_TERMVIEW_H
#define PYPM_GRAPH_TERMVIEW_H

#include "graph/Graph.h"
#include "term/Term.h"

#include <span>
#include <vector>

namespace pypm::graph {

class TermView {
public:
  TermView(const Graph &G, term::TermArena &Arena) : G(G), Arena(Arena) {}

  /// The term unrolling of the subgraph rooted at \p N.
  term::TermRef termFor(NodeId N);

  /// A live node whose unrolling equals \p T, or InvalidNode. Only terms
  /// previously produced by termFor (or their subterms) are mapped.
  NodeId nodeFor(term::TermRef T) const;

  /// The first node with term \p T in a post-order DFS from \p Root, or
  /// InvalidNode (see the file comment). \p Root must be memoized.
  NodeId nodeFor(term::TermRef T, NodeId Root) const;

  /// True when \p N's conversion is memoized.
  bool memoized(NodeId N) const {
    return N < NodeToTerm.size() && NodeToTerm[N] != nullptr;
  }

  /// Drops all memoized conversions (after a mutation other than a
  /// committed rewrite).
  void invalidate();

  /// Drops the conversions a committed rewrite made stale: its
  /// users-closure (full, or cut to memoized() nodes) and its swept
  /// nodes. Every other memoized node's unrolling is unchanged by the
  /// commit, so its conversion stays.
  void invalidateNodes(const CommitFootprint &F);

  /// Nodes actually converted (memo misses) over the view's lifetime.
  uint64_t conversions() const { return Conversions; }

  const Graph &graph() const { return G; }
  term::TermArena &arena() { return Arena; }
  const term::TermArena &arena() const { return Arena; }

private:
  /// A term's memoized nodes in conversion order: Rep first, Last last,
  /// linked through NextTwin. Both InvalidNode when none is memoized.
  struct RepEntry {
    NodeId Rep = InvalidNode;
    NodeId Last = InvalidNode;
  };

  void dropNode(NodeId N);

  const Graph &G;
  term::TermArena &Arena;
  /// Node -> its memoized term, or null; indexed by NodeId and grown on
  /// conversion.
  std::vector<term::TermRef> NodeToTerm;
  /// Term::index() -> the term's representative (its first-converted
  /// memoized node) and last-converted memoized node.
  std::vector<RepEntry> RepOf;
  /// Node -> the next-converted memoized node with the same term; read only
  /// for nodes that are not their term's Last.
  std::vector<NodeId> NextTwin;
  /// Conversion scratch, reused across calls: termFor stacks each node's
  /// children in ChildScratch and assembles its attributes in AttrScratch.
  std::vector<term::TermRef> ChildScratch;
  std::vector<term::Attr> AttrScratch;
  uint64_t Conversions = 0;
};

} // namespace pypm::graph

#endif // PYPM_GRAPH_TERMVIEW_H
