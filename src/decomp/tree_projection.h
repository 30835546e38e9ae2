#ifndef SHARPCQ_DECOMP_TREE_PROJECTION_H_
#define SHARPCQ_DECOMP_TREE_PROJECTION_H_

#include <functional>
#include <optional>
#include <vector>

#include "decomp/views.h"
#include "hypergraph/tree_shape.h"
#include "util/id_set.h"

namespace sharpcq {

// A decomposition tree: bags (the chi labels, equivalently the hyperedges of
// the sandwich hypergraph Ha) arranged in a join tree, each guarded by a
// view. Produced by FindTreeProjection; consumed by the counting pipelines.
struct BagTree {
  TreeShape shape;
  std::vector<IdSet> bags;
  std::vector<int> view_ids;  // guard view per bag (index into the ViewSet)

  // Decomposition width: the largest guard size over bags (1 for abstract
  // views).
  int Width(const ViewSet& views) const;
};

struct TreeProjectionOptions {
  // Optional per-bag cost; the search minimizes the total cost over bags.
  // Costs must be nonnegative (infinity marks an unusable bag). Default:
  // pure existence (all bags cost 1, minimizing vertex count). Used by the
  // D-optimal weighted decompositions of Theorem C.5 and by the planner's
  // data-weighted #-hypertree choice (engine/planner.cc).
  std::function<double(const IdSet& bag, int view_id)> bag_cost;

  // When true, candidate bags range over *all* subsets of
  // view ∩ (component ∪ connector) instead of only the maximal one.
  // Exponentially slower; used as the completeness reference in tests.
  bool exhaustive_bags = false;
};

struct TreeProjectionResult {
  BagTree tree;
  double total_cost = 0.0;
};

// Searches for a tree projection: an acyclic hypergraph Ha (the bags) with
// cover_edges <= Ha <= views (Section 2, "Tree Projections"). The search is
// the normal-form recursive decomposition over [bag]-components with
// memoization (det-k-decomp style): candidate bags are
// view ∩ (component ∪ connector). This is sound unconditionally and
// complete for decompositions in normal form; see DESIGN.md ("Key design
// decisions") for the relation to exact GHD search, which is NP-hard.
//
// Empty cover edges are ignored. Returns nullopt when no (normal-form) tree
// projection exists — in particular whenever some cover edge is not
// contained in any view.
std::optional<TreeProjectionResult> FindTreeProjection(
    const std::vector<IdSet>& cover_edges, const ViewSet& views,
    const TreeProjectionOptions& options = {});

// Validates that `tree` is an acyclic sandwich for (cover_edges, views):
// bags form a join tree, every cover edge is inside some bag, and every bag
// is inside its guard view. Used by tests and internal CHECKs.
bool IsTreeProjection(const BagTree& tree,
                      const std::vector<IdSet>& cover_edges,
                      const ViewSet& views);

}  // namespace sharpcq

#endif  // SHARPCQ_DECOMP_TREE_PROJECTION_H_
