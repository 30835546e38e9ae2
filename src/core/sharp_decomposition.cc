#include "core/sharp_decomposition.h"

#include "hypergraph/hypergraph.h"
#include "solver/core.h"

namespace sharpcq {

std::vector<IdSet> SharpCoverEdges(const ConjunctiveQuery& core,
                                   const IdSet& w) {
  Hypergraph hq = core.BuildHypergraph();
  Hypergraph fh = FrontierHypergraph(hq, w);

  Hypergraph combined = hq;
  for (const IdSet& e : fh.edges()) combined.AddEdge(e);
  // The color atoms of the colored core contribute singleton edges {X} for
  // every colored variable; they guarantee every output variable occurs in
  // some bag.
  for (std::uint32_t x : w) combined.AddEdge(IdSet{x});
  combined.DedupEdges();
  return combined.edges();
}

namespace {

std::optional<SharpDecomposition> TryCore(
    ConjunctiveQuery core, const IdSet& free, const ViewSet& views,
    const TreeProjectionOptions& options) {
  std::vector<IdSet> cover = SharpCoverEdges(core, free);
  auto projection = FindTreeProjection(cover, views, options);
  if (!projection.has_value()) return std::nullopt;
  SharpDecomposition d;
  d.core = std::move(core);
  d.tree = std::move(projection->tree);
  d.views = views;
  d.width = d.tree.Width(views);
  return d;
}

}  // namespace

std::optional<SharpDecomposition> FindSharpDecomposition(
    const ConjunctiveQuery& q, const ViewSet& views, std::size_t max_cores,
    const TreeProjectionOptions& options) {
  // Fast path: the greedy core usually works; full core enumeration (which
  // is exponential in the query) only runs when the first core fails
  // against the views (Example 3.5).
  std::optional<SharpDecomposition> first =
      TryCore(ComputeColoredCore(q), q.free_vars(), views, options);
  if (first.has_value() || max_cores <= 1) return first;

  bool skipped_first = false;
  for (ConjunctiveQuery& core : EnumerateColoredCores(q, max_cores)) {
    if (!skipped_first) {
      // The first enumerated core is the greedy one, already tried.
      skipped_first = true;
      continue;
    }
    std::optional<SharpDecomposition> d =
        TryCore(std::move(core), q.free_vars(), views, options);
    if (d.has_value()) return d;
  }
  return std::nullopt;
}

std::optional<SharpDecomposition> FindSharpHypertreeDecomposition(
    const ConjunctiveQuery& q, int k, std::size_t max_cores,
    const GuardedBagCost& bag_cost) {
  const ViewSet views = BuildVk(q, k);
  TreeProjectionOptions options;
  if (bag_cost) {
    options.bag_cost = [&](const IdSet& bag, int view_id) {
      return bag_cost(bag, views.guards[static_cast<std::size_t>(view_id)]);
    };
  }
  return FindSharpDecomposition(q, views, max_cores, options);
}

std::optional<SharpWidthSearch> SearchSharpHypertreeWidth(
    const ConjunctiveQuery& q, int k_max, std::size_t max_cores,
    const GuardedBagCost& bag_cost) {
  for (int k = 1; k <= k_max; ++k) {
    std::optional<SharpDecomposition> d =
        FindSharpHypertreeDecomposition(q, k, max_cores, bag_cost);
    if (d.has_value()) return SharpWidthSearch{k, std::move(*d)};
  }
  return std::nullopt;
}

std::optional<int> SharpHypertreeWidth(const ConjunctiveQuery& q, int k_max) {
  std::optional<SharpWidthSearch> search = SearchSharpHypertreeWidth(q, k_max);
  if (!search.has_value()) return std::nullopt;
  return search->k;
}

}  // namespace sharpcq
