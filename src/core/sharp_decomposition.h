#ifndef SHARPCQ_CORE_SHARP_DECOMPOSITION_H_
#define SHARPCQ_CORE_SHARP_DECOMPOSITION_H_

#include <functional>
#include <optional>
#include <vector>

#include "decomp/tree_projection.h"
#include "decomp/views.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The paper's primary structural notion.
//
// A #-decomposition of Q w.r.t. a view set V (Definition 1.4) is a tree
// projection Ha with HQ' <= Ha <= HV that also covers the frontier
// hypergraph FH(Q', free(Q)), where Q' is *some* core of color(Q).
// A #-hypertree decomposition of width k (Definition 1.2) is the special
// case V = V^k_Q.

// The combined hypergraph H' of Theorem 3.6: the hyperedges of the core's
// hypergraph, the frontier hyperedges FH(core, w), and a singleton {X} for
// every X in w (the color atoms' edges). Covering H' is equivalent to
// covering both HQ' and the frontier hypergraph.
std::vector<IdSet> SharpCoverEdges(const ConjunctiveQuery& core,
                                   const IdSet& w);

struct SharpDecomposition {
  // The uncolored core Q' of color(Q) that the decomposition is based on.
  ConjunctiveQuery core;
  // The tree projection (bags + guard views) covering HQ' and FH.
  BagTree tree;
  // The views used; guards index into the *original* query's atoms.
  ViewSet views;
  // max guard size (= k for V^k views; 1 for abstract views).
  int width = 0;
};

// Definition 1.4 / Theorem 3.6: #-decomposition w.r.t. an arbitrary view
// set. Different substructure cores behave differently w.r.t. views
// (Example 3.5), so up to `max_cores` cores are tried. Returns nullopt if
// no tried core admits a tree projection. `options` go to every core's
// FindTreeProjection: with a bag_cost the decomposition of the first core
// that admits one is the cheapest for that core, otherwise it has the
// fewest bags.
std::optional<SharpDecomposition> FindSharpDecomposition(
    const ConjunctiveQuery& q, const ViewSet& views,
    std::size_t max_cores = 8, const TreeProjectionOptions& options = {});

// A per-bag cost over V^k_Q views, given the bag and its view's guard (the
// indices of the query atoms whose join defines the view). Nonnegative.
using GuardedBagCost =
    std::function<double(const IdSet& bag, const std::vector<int>& guard)>;

// Definition 1.2: width-k #-hypertree decomposition (views V^k_Q). With
// `bag_cost`, the decomposition of least total cost; without, one with the
// fewest bags.
std::optional<SharpDecomposition> FindSharpHypertreeDecomposition(
    const ConjunctiveQuery& q, int k, std::size_t max_cores = 8,
    const GuardedBagCost& bag_cost = nullptr);

// The #-hypertree width search: the smallest k <= k_max admitting a width-k
// #-hypertree decomposition, and the decomposition found at that k (the
// cheapest under `bag_cost` when given). nullopt if no k within the budget
// admits one. Width is measured in the normal-form search of
// decomp/tree_projection.h.
struct SharpWidthSearch {
  int k = 0;
  SharpDecomposition decomposition;
};
std::optional<SharpWidthSearch> SearchSharpHypertreeWidth(
    const ConjunctiveQuery& q, int k_max, std::size_t max_cores = 8,
    const GuardedBagCost& bag_cost = nullptr);

// The #-hypertree width of q, searched up to k_max; the k of
// SearchSharpHypertreeWidth.
std::optional<int> SharpHypertreeWidth(const ConjunctiveQuery& q, int k_max);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_SHARP_DECOMPOSITION_H_
