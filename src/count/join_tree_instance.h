#ifndef SHARPCQ_COUNT_JOIN_TREE_INSTANCE_H_
#define SHARPCQ_COUNT_JOIN_TREE_INSTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algebra/rel.h"
#include "hypergraph/tree_shape.h"
#include "util/count_int.h"
#include "util/id_set.h"

namespace sharpcq {

// A materialized acyclic instance: a join tree whose vertices carry bag
// relations. All counting engines in this library operate on this shape —
// the structural (Thm 3.7), degree-bounded (Thm 6.2), and hybrid (Thm 6.6)
// pipelines differ only in how they produce one.
//
// Bags are kernel Rel handles (algebra/rel.h): copies share tuple storage,
// and the full reducer's semijoins reuse each bag's cached hash indexes
// instead of rebuilding them per pass.
struct JoinTreeInstance {
  TreeShape shape;
  std::vector<Rel> nodes;

  // The union of all bag variable sets.
  IdSet AllVars() const {
    IdSet all;
    for (const Rel& n : nodes) all = Union(all, n.vars());
    return all;
  }
};

// Statistics-driven scheduling pass, run before FullReduce / CountFullJoin
// when the current ExecPolicy carries cost_model (no-op otherwise, and on
// instances of < 2 nodes). Two rewrites, both pure re-orderings of the
// same undirected join tree, so every consumer's count is unchanged —
// FullReduce, CountFullJoin, and Ps13Count are exact for ANY rooting and
// child order of a valid join tree:
//
//   1. Re-root at the orientation minimizing the summed parent-side row
//      counts over all tree edges (exact O(n^2) scan) — parent rows are
//      what the per-edge semijoin/aggregation probes iterate, so a huge
//      relation should hang below small ones, not above them.
//   2. Sort every node's children by ascending estimated distinct count on
//      the shared variables (EstimatedDistinctCount): the most selective
//      child is semijoined/probed first, so later, more expensive children
//      see an already-shrunken parent (CountFullJoin additionally skips
//      zero-weight parent rows per child).
//
// Tallies one ExecStats::cost_reorders when anything actually changed.
void OptimizeInstanceOrder(JoinTreeInstance* instance);

// Rewrite 1 above on its own: the parent array of `shape` re-rooted at the
// vertex minimizing the summed child-side `sizes` (one per vertex), the
// current root winning ties. The planner's PS13 estimate calls it with
// estimated atom sizes, so it costs the tree the executor will run.
std::vector<int> CostModelRooting(const TreeShape& shape,
                                  std::span<const std::uint64_t> sizes);

// Yannakakis' full reducer: one upward and one downward semijoin pass.
// Afterwards the relations are pairwise consistent along tree edges, which
// on acyclic instances equals global consistency (Beeri–Fagin–Maier–
// Yannakakis): every remaining tuple participates in some solution of the
// acyclic join. Returns false iff some relation became empty.
bool FullReduce(JoinTreeInstance* instance);

// The number of solutions of the full acyclic join (distinct assignments to
// all variables), by dynamic programming over the tree: no solution is ever
// materialized. Bag relations must be deduplicated (the kernel invariant
// guarantees this). The instance does NOT need to be full-reduced first:
// rows without an extension below carry weight 0 and contribute nothing,
// so root-count-only callers skip the FullReduce semijoin
// materializations entirely. Run FullReduce only when the reduced
// relations themselves are consumed afterwards (projection pipelines, the
// PS13 partition, enumeration).
CountInt CountFullJoin(const JoinTreeInstance& instance);

// Projects every bag onto bag ∩ keep (deduplicating). The tree shape is
// preserved; running intersection survives uniform variable removal.
JoinTreeInstance RestrictToVars(const JoinTreeInstance& instance,
                                const IdSet& keep);

}  // namespace sharpcq

#endif  // SHARPCQ_COUNT_JOIN_TREE_INSTANCE_H_
