#include "decomp/tree_projection.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "hypergraph/acyclic.h"
#include "util/check.h"

namespace sharpcq {

int BagTree::Width(const ViewSet& views) const {
  std::size_t w = 0;
  for (int v : view_ids) {
    w = std::max(w, std::max<std::size_t>(
                        std::size_t{1},
                        views.guards[static_cast<std::size_t>(v)].size()));
  }
  return static_cast<int>(w);
}

namespace {

constexpr double kInfeasible = std::numeric_limits<double>::infinity();

// Normal-form recursive decomposition with memoization over
// (component, connector) pairs. See tree_projection.h for the contract.
class TreeProjector {
 public:
  TreeProjector(const std::vector<IdSet>& cover_edges, const ViewSet& views,
                const TreeProjectionOptions& options)
      : views_(views), options_(options) {
    for (const IdSet& e : cover_edges) {
      if (!e.empty()) edges_.push_back(e);
    }
    for (const IdSet& e : edges_) all_vars_ = Union(all_vars_, e);
  }

  std::optional<TreeProjectionResult> Run() {
    TreeProjectionResult result;
    if (edges_.empty()) return result;  // nothing to cover: empty tree

    std::vector<IdSet> roots = ComponentsWithin(all_vars_, IdSet{});
    std::vector<Key> root_keys;
    for (const IdSet& c : roots) {
      Key key{c, IdSet{}};
      const Entry& e = Solve(key);
      if (e.cost == kInfeasible) return std::nullopt;
      result.total_cost += e.cost;
      root_keys.push_back(std::move(key));
    }

    // Emit nodes; stitch multiple component roots under the first root.
    std::vector<int> parent;
    for (std::size_t i = 0; i < root_keys.size(); ++i) {
      Emit(root_keys[i], i == 0 ? -1 : 0, &result.tree, &parent);
    }
    result.tree.shape = TreeShape::FromParents(std::move(parent));
    SHARPCQ_DCHECK(IsTreeProjection(result.tree, edges_, views_));
    return result;
  }

 private:
  using Key = std::pair<IdSet, IdSet>;  // (component, connector)

  struct Entry {
    double cost = kInfeasible;
    IdSet bag;
    int view_id = -1;
    std::vector<Key> child_keys;
  };

  // Connected components of `region` \ `bag`, where two variables are
  // adjacent if a cover edge meeting `region` contains both outside `bag`.
  std::vector<IdSet> ComponentsWithin(const IdSet& region,
                                      const IdSet& bag) const {
    // Union-find over the remaining variables.
    std::unordered_map<std::uint32_t, std::uint32_t> parent;
    std::function<std::uint32_t(std::uint32_t)> find =
        [&](std::uint32_t x) -> std::uint32_t {
      auto it = parent.find(x);
      if (it == parent.end()) {
        parent.emplace(x, x);
        return x;
      }
      if (it->second == x) return x;
      std::uint32_t root = find(it->second);
      parent[x] = root;
      return root;
    };
    IdSet remaining = Difference(region, bag);
    for (std::uint32_t v : remaining) find(v);
    for (const IdSet& e : edges_) {
      if (!e.Intersects(region)) continue;
      IdSet rest = Difference(e, bag);
      for (std::size_t i = 1; i < rest.size(); ++i) {
        parent[find(rest[0])] = find(rest[i]);
      }
    }
    std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> groups;
    for (std::uint32_t v : remaining) groups[find(v)].push_back(v);
    std::vector<IdSet> components;
    components.reserve(groups.size());
    for (auto& [root, members] : groups) {
      components.push_back(IdSet::FromVector(std::move(members)));
    }
    std::sort(components.begin(), components.end());
    return components;
  }

  // Connector of a child component: bag variables touched by its edges.
  IdSet ConnectorOf(const IdSet& component, const IdSet& bag) const {
    IdSet touched;
    for (const IdSet& e : edges_) {
      if (e.Intersects(component)) touched = Union(touched, e);
    }
    return Intersect(bag, touched);
  }

  // Decomposes (component \ bag) below candidate bag `bag`; returns the
  // children's summed cost and their keys, or infeasible. The children
  // depend on the bag alone, not on the view guarding it.
  double SolveChildren(const IdSet& component, const IdSet& bag,
                       std::vector<Key>* child_keys) {
    double cost = 0.0;
    for (IdSet& child : ComponentsWithin(component, bag)) {
      IdSet connector = ConnectorOf(child, bag);
      Key key{std::move(child), std::move(connector)};
      SHARPCQ_CHECK(!key.first.empty());
      const Entry& e = Solve(key);
      if (e.cost == kInfeasible) return kInfeasible;
      cost += e.cost;
      child_keys->push_back(std::move(key));
    }
    return cost;
  }

  const Entry& Solve(const Key& key) {
    auto it = memo_.find(key);
    if (it != memo_.end()) return it->second;
    // Insert a placeholder first so recursive self-lookups (impossible by
    // strict component shrinkage, but cheap to guard) see "infeasible".
    Entry& entry = memo_.emplace(key, Entry{}).first->second;

    const IdSet& component = key.first;
    const IdSet& conn = key.second;
    IdSet scope = Union(component, conn);

    // A bag reached from several views is decomposed once; each view then
    // adds only its own bag cost.
    struct Children {
      double cost = 0.0;
      std::vector<Key> keys;
    };
    std::unordered_map<IdSet, Children, IdSetHash> children_of;
    for (std::size_t v = 0; v < views_.size(); ++v) {
      IdSet maximal = Intersect(views_.vars[v], scope);
      if (!conn.IsSubsetOf(maximal)) continue;
      if (!maximal.Intersects(component)) continue;

      std::vector<IdSet> candidates;
      if (!options_.exhaustive_bags) {
        candidates.push_back(std::move(maximal));
      } else {
        // All subsets of (maximal \ conn) joined with conn, intersecting
        // the component. Reference mode for tests; sizes stay small there.
        IdSet optional_vars = Difference(maximal, conn);
        SHARPCQ_CHECK_MSG(optional_vars.size() <= 20,
                          "exhaustive_bags on too large a view");
        const std::size_t n = optional_vars.size();
        for (std::size_t mask = 1; mask < (std::size_t{1} << n); ++mask) {
          IdSet bag = conn;
          for (std::size_t b = 0; b < n; ++b) {
            if (mask & (std::size_t{1} << b)) bag.Insert(optional_vars[b]);
          }
          if (bag.Intersects(component)) candidates.push_back(std::move(bag));
        }
      }

      for (IdSet& bag : candidates) {
        const double own = options_.bag_cost
                               ? options_.bag_cost(bag, static_cast<int>(v))
                               : 1.0;
        // Costs are nonnegative: a bag that alone reaches the best total
        // cannot improve on it, whatever its children.
        if (own >= entry.cost) continue;
        auto [it, fresh] = children_of.try_emplace(bag);
        if (fresh) {
          it->second.cost = SolveChildren(component, bag, &it->second.keys);
        }
        const double cost = own + it->second.cost;
        if (cost < entry.cost) {
          entry.cost = cost;
          entry.bag = std::move(bag);
          entry.view_id = static_cast<int>(v);
          entry.child_keys = it->second.keys;
        }
      }
    }
    return entry;
  }

  // Appends the subtree for `key` to the output tree; returns nothing, the
  // node ids are implicit in emission order.
  void Emit(const Key& key, int parent_id, BagTree* tree,
            std::vector<int>* parent) {
    const Entry& e = memo_.at(key);
    SHARPCQ_CHECK(e.cost != kInfeasible);
    int id = static_cast<int>(tree->bags.size());
    tree->bags.push_back(e.bag);
    tree->view_ids.push_back(e.view_id);
    parent->push_back(parent_id);
    for (const Key& child : e.child_keys) Emit(child, id, tree, parent);
  }

  const ViewSet& views_;
  const TreeProjectionOptions& options_;
  std::vector<IdSet> edges_;
  IdSet all_vars_;
  std::unordered_map<Key, Entry, IdSetPairHash> memo_;
};

}  // namespace

std::optional<TreeProjectionResult> FindTreeProjection(
    const std::vector<IdSet>& cover_edges, const ViewSet& views,
    const TreeProjectionOptions& options) {
  TreeProjector projector(cover_edges, views, options);
  return projector.Run();
}

bool IsTreeProjection(const BagTree& tree,
                      const std::vector<IdSet>& cover_edges,
                      const ViewSet& views) {
  if (tree.bags.size() != tree.shape.size() ||
      tree.view_ids.size() != tree.bags.size()) {
    return false;
  }
  for (std::size_t i = 0; i < tree.bags.size(); ++i) {
    int v = tree.view_ids[i];
    if (v < 0 || static_cast<std::size_t>(v) >= views.size()) return false;
    if (!tree.bags[i].IsSubsetOf(views.vars[static_cast<std::size_t>(v)])) {
      return false;
    }
  }
  for (const IdSet& e : cover_edges) {
    if (e.empty()) continue;
    if (!CoveredBySome(tree.bags, e)) return false;
  }
  return SatisfiesRunningIntersection(tree.bags, tree.shape);
}

}  // namespace sharpcq
