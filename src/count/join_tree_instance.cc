#include "count/join_tree_instance.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>

#include "algebra/exec_policy.h"
#include "util/check.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

// Summed child-side row counts of the tree rooted at `root`, writing the
// orientation into *parent (-1 for the root). BFS over the undirected
// adjacency; the shape is always connected (TopoOrder asserts it), so every
// vertex is reached.
//
// Why the child side: FullReduce charges an edge (p, c) roughly
// size(p) upward probes + size(c) child index build + size(c) downward
// probes.  Summed over all edges, the size(p) + size(c) part is the same
// for every orientation, so rootings differ only in the extra size(child)
// term — the best root keeps big relations on the parent (probe) side and
// small ones on the child (build) side.
std::uint64_t RootingCost(const std::vector<std::vector<int>>& adj,
                          std::span<const std::uint64_t> sizes, int root,
                          std::vector<int>* parent) {
  parent->assign(sizes.size(), -2);
  (*parent)[static_cast<std::size_t>(root)] = -1;
  std::vector<int> queue{root};
  std::uint64_t cost = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const int v = queue[i];
    for (int u : adj[static_cast<std::size_t>(v)]) {
      if ((*parent)[static_cast<std::size_t>(u)] != -2) continue;
      (*parent)[static_cast<std::size_t>(u)] = v;
      cost += sizes[static_cast<std::size_t>(u)];
      queue.push_back(u);
    }
  }
  return cost;
}

}  // namespace

std::vector<int> CostModelRooting(const TreeShape& shape,
                                  std::span<const std::uint64_t> sizes) {
  const std::size_t n = shape.size();
  SHARPCQ_CHECK(sizes.size() == n);
  std::vector<std::vector<int>> adj(n);
  for (std::size_t v = 0; v < n; ++v) {
    const int p = shape.parent[v];
    if (p < 0) continue;
    adj[v].push_back(p);
    adj[static_cast<std::size_t>(p)].push_back(static_cast<int>(v));
  }
  // Exact best rooting, seeded with the current root so ties never move
  // anything (deterministic, and a uniform instance stays untouched).
  std::vector<int> parent;
  std::vector<int> best_parent;
  std::uint64_t best_cost = RootingCost(adj, sizes, shape.root, &best_parent);
  for (std::size_t r = 0; r < n; ++r) {
    if (static_cast<int>(r) == shape.root) continue;
    const std::uint64_t cost =
        RootingCost(adj, sizes, static_cast<int>(r), &parent);
    if (cost < best_cost) {
      best_cost = cost;
      best_parent = parent;
    }
  }
  return best_parent;
}

void OptimizeInstanceOrder(JoinTreeInstance* instance) {
  const ExecPolicy* policy = CurrentExecPolicy();
  if (policy == nullptr || !policy->cost_model) return;
  const std::size_t n = instance->nodes.size();
  if (n < 2) return;

  std::vector<std::uint64_t> sizes;
  sizes.reserve(n);
  for (const Rel& node : instance->nodes) sizes.push_back(node.size());
  std::vector<int> parent = CostModelRooting(instance->shape, sizes);
  bool changed = parent != instance->shape.parent;
  if (changed) instance->shape = TreeShape::FromParents(std::move(parent));

  // Most-selective child first: ascending estimated shared-key distinct
  // count, child index breaking ties (FromParents emits ascending index
  // order, so the comparison below is stable across runs).
  std::vector<std::pair<std::uint64_t, int>> keyed;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<int>& kids = instance->shape.children[v];
    if (kids.size() < 2) continue;
    keyed.clear();
    for (int c : kids) {
      const Rel& child = instance->nodes[static_cast<std::size_t>(c)];
      const IdSet shared = Intersect(instance->nodes[v].vars(), child.vars());
      keyed.emplace_back(EstimatedDistinctCount(child, shared), c);
    }
    std::sort(keyed.begin(), keyed.end());
    for (std::size_t i = 0; i < kids.size(); ++i) {
      if (kids[i] != keyed[i].second) changed = true;
      kids[i] = keyed[i].second;
    }
  }

  if (changed) {
    if (ExecStats* stats = CurrentExecStats()) {
      stats->cost_reorders.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool FullReduce(JoinTreeInstance* instance) {
  TraceSpan span("full_reduce");
  span.NoteCount("nodes", instance->nodes.size());
  std::vector<int> order = instance->shape.TopoOrder();
  // Upward pass: parents semijoined with children, leaves first. The
  // per-node checkpoint covers deadline expiry on trees whose individual
  // semijoins are below the morsel threshold.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t v = static_cast<std::size_t>(*it);
    CheckExecInterrupt();
    for (int c : instance->shape.children[v]) {
      instance->nodes[v] = Semijoin(instance->nodes[v],
                                    instance->nodes[static_cast<std::size_t>(c)]);
    }
    if (instance->nodes[v].empty()) return false;
  }
  // Downward pass: children semijoined with parents, root first.
  for (int v : order) {
    CheckExecInterrupt();
    for (int c : instance->shape.children[static_cast<std::size_t>(v)]) {
      instance->nodes[static_cast<std::size_t>(c)] =
          Semijoin(instance->nodes[static_cast<std::size_t>(c)],
                   instance->nodes[static_cast<std::size_t>(v)]);
      if (instance->nodes[static_cast<std::size_t>(c)].empty()) return false;
    }
  }
  return true;
}

CountInt CountFullJoin(const JoinTreeInstance& instance) {
  TraceSpan span("count_full_join");
  span.NoteCount("nodes", instance.nodes.size());
  if (instance.nodes.empty()) return 1;  // the empty join has one solution

  std::vector<int> order = instance.shape.TopoOrder();
  // weights[v][row] = number of distinct extensions of that row to the
  // variables occurring strictly below v. Rows with no extension carry
  // weight 0, which is why the instance does not need a FullReduce first:
  // dangling tuples contribute nothing to any sum.
  std::vector<std::vector<CountInt>> weights(instance.nodes.size());

  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::size_t v = static_cast<std::size_t>(*it);
    const Rel& rel = instance.nodes[v];
    std::vector<CountInt>& w = weights[v];
    w.assign(rel.size(), CountInt{1});

    for (int child : instance.shape.children[v]) {
      std::size_t c = static_cast<std::size_t>(child);
      const Rel& crel = instance.nodes[c];
      IdSet shared = Intersect(rel.vars(), crel.vars());

      // Aggregate child weights per shared-key via the child's cached
      // index: each parent row probes one packed word, and large parent
      // sides are morselized (each morsel writes disjoint w[row] slots, so
      // the only shared state is read-only).
      std::shared_ptr<const TableIndex> index =
          crel.table()->IndexOn(ColumnsOf(crel, shared));
      std::vector<int> parent_cols = ColumnsOf(rel, shared);
      const Table& parent_table = *rel.table();
      const std::vector<CountInt>& cw = weights[c];

      MorselPlan plan = PlanMorsels(rel.size(), index->num_groups());
      RunMorsels(plan, rel.size(), [&](std::size_t, std::size_t begin,
                                       std::size_t end) {
        ForEachProbeGroupUnless(
            *index, parent_table, parent_cols, begin, end,
            // Rows an earlier child already zeroed skip the probe itself —
            // on unreduced instances (the FullReduce-skip path) most rows
            // of a selective chain die at the first child.
            [&](std::size_t row) { return w[row] == 0; },
            [&](std::size_t row, std::uint32_t group) {
              if (group == TableIndex::kNoGroup) {
                w[row] = 0;
                return;
              }
              CountInt sum = 0;
              for (std::uint32_t crow : index->group_rows(group)) {
                sum += cw[crow];
              }
              w[row] *= sum;
            });
      });
      weights[c].clear();  // release
      weights[c].shrink_to_fit();
    }
  }

  CountInt total = 0;
  std::size_t root = static_cast<std::size_t>(instance.shape.root);
  for (CountInt w : weights[root]) total += w;
  return total;
}

JoinTreeInstance RestrictToVars(const JoinTreeInstance& instance,
                                const IdSet& keep) {
  JoinTreeInstance out;
  out.shape = instance.shape;
  out.nodes.reserve(instance.nodes.size());
  for (const Rel& n : instance.nodes) {
    out.nodes.push_back(Project(n, Intersect(n.vars(), keep)));
  }
  return out;
}

}  // namespace sharpcq
