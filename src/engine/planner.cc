#include "engine/planner.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "algebra/stats.h"
#include "count/join_tree_instance.h"
#include "hypergraph/acyclic.h"
#include "util/check.h"
#include "util/clock.h"

namespace sharpcq {

namespace {

// Degree above which PS13's 4^h blowup is judged worse than the hybrid #b
// route's per-database decomposition search. 256 = 4 histogram doublings
// past the "uniformly small groups" regime; well clear of the key-like
// degrees (1..8) that dominate benign instances.
constexpr std::uint64_t kDegreeSteerThreshold = 256;

// The largest per-column group size the profile reports across the query's
// relations — the profile's upper bound on the instance degree h that
// drives PS13's cost. Absent relations report 0 and never steer.
std::uint64_t MaxQueryDegree(const ConjunctiveQuery& q,
                             const DataProfile& profile) {
  std::uint64_t degree = 0;
  for (const Atom& atom : q.atoms()) {
    const RelationProfile* rel = profile.Find(atom.relation);
    if (rel == nullptr) continue;
    for (const ColumnStats& col : rel->stats->columns) {
      degree = std::max(degree, col.max_group);
    }
  }
  return degree;
}

// Eligibility for counting over the query's own join tree: every atom must
// contribute a non-empty hyperedge and every free variable must occur in
// some atom, so the materialized instance carries all output columns.
bool AcyclicPs13Eligible(const ConjunctiveQuery& q, const QueryAnalysis& a) {
  if (!a.is_acyclic || q.NumAtoms() == 0) return false;
  for (const Atom& atom : q.atoms()) {
    if (atom.Vars().empty()) return false;
  }
  return q.free_vars().IsSubsetOf(q.AllVars());
}

CostEstimate EstimateCost(const CountingPlan& plan) {
  CostEstimate cost;
  cost.query_factor = static_cast<double>(plan.query.NumAtoms());
  switch (plan.strategy) {
    case PlanStrategy::kSharpHypertree:
      // Theorem 3.7: materialize V^k views (m^k), join-tree passes.
      cost.db_exponent = static_cast<double>(plan.width_budget) + 1.0;
      break;
    case PlanStrategy::kAcyclicPs13:
      cost.db_exponent = 2.0;
      cost.note = "x 4^h in the instance degree bound h (Theorem 6.2)";
      break;
    case PlanStrategy::kSharpB:
      cost.db_exponent = static_cast<double>(plan.options.max_width) + 1.0;
      cost.note = "x 4^b in the achieved degree b, plus the per-database "
                  "#b-decomposition search (Theorem 6.7)";
      break;
    case PlanStrategy::kBacktracking:
      // One witness search per candidate answer; worst case exponential in
      // the number of variables.
      cost.db_exponent = static_cast<double>(plan.analysis.num_free);
      cost.note = "x witness search over existential variables";
      break;
  }
  return cost;
}

// --- Data-aware candidate estimates ------------------------------------------
//
// With a data profile the planner estimates the wall time of each exact
// candidate and runs the cheaper one. The estimates read only what
// DataProfile::Fingerprint classes (rows, per-column distinct counts; the
// degree steer above reads max_group), so a plan cached under a fingerprint
// was costed on data of the same class.
//
// Three kinds of work, each with its own weight:
//   - probe: a row read by an index build, a semijoin probe or a scan —
//     both strategies pay it for every input row they touch;
//   - materialize: a row of a multi-atom guard join ⋈λ written out by the
//     #-hypertree's bag materialization (out-of-cache, 4-8 columns wide);
//   - set op: one PS13 #-set membership test — a child #-set stamped
//     against every row of the parent's #-relation, in cache.
//
// Calibration (bench_strategy_choice's cases, serve_hot's shapes and
// count_heavy's q0, optimized build, 4-vCPU Xeon with 2 MiB L2): the skewed
// star's #-hypertree spends 8.7 ms semijoining five atoms into its
// 200K-row bag (~9 ns a probed row); the 2000/700 chain's fewest-bags
// decomposition, two 4M-row cross-product bags, took 593 ms, of which
// ~450 ms was writing them (~60 ns a row); PS13's #-set work runs 2-3 ns a
// membership test on the 3000/1500 path and stars. Estimated vs measured
// ms (#-hypertree | PS13; "fewest bags" is the decomposition the search
// returns without a profile):
//
//   chain4 2000/700         349 vs 290-330    |  12.0 vs 33-53
//   path2 3000/1500         0.60 vs 0.40-0.65 |  11.6 vs 11-17
//   star3 3000/1500         0.18 vs 0.17-0.29 |  53.7 vs 36-58
//   path4 3000/1500         0.24 vs 0.63-1.2  |  11.7 vs 7.4-9.0
//   star3_leaves 3000/1500  1.92 vs 1.0-1.9   |  23.5 vs 17-28
//   skewed star 200K        10.8 vs 8.8-12.8  |  4.50 vs 0.8-1.8
//   cycle4 2500/150         7.26 vs 12-16     |  (cyclic)
//     fewest bags           656 vs 440-465    |
//   q0 (count_heavy's)      1.14 vs 1.9-2.4   |  (cyclic)
//     fewest bags           403 vs 440-540    |
//
// The estimates land within 2-4x of the measured times, so the planner
// leaves the structural choice (#-hypertree) alone unless PS13 is
// predicted at least kSteerMargin times cheaper. The model has no per-call
// fixed costs, which dominate below ~0.1 ms, so a predicted saving under
// kMinSavingMs never moves the choice either. kBagMs is the per-bag share
// of those fixed costs, in the decomposition search only a tie-breaker.
constexpr double kProbeNs = 9.0;
constexpr double kMaterializeNs = 60.0;
constexpr double kSetOpNs = 3.0;
constexpr double kBagMs = 0.005;
constexpr double kSteerMargin = 2.0;
constexpr double kMinSavingMs = 0.1;

// An atom (or a join of atoms) as the estimates see it: its estimated row
// count and, per variable, its estimated number of distinct values.
struct RelEstimate {
  double rows = 0.0;
  std::map<VarId, double> distinct;
};

// Rows of the atom's relation that pass its constant positions, and each
// variable's distinct count (EstimatedDistinctCount on its column, the
// smallest one for a repeated variable). Absent relations have no rows.
RelEstimate EstimateAtom(const Atom& atom, const DataProfile& profile) {
  RelEstimate out;
  const RelationProfile* rel = profile.Find(atom.relation);
  if (rel == nullptr) return out;
  const TableStats& stats = *rel->stats;
  auto column_distinct = [&](std::size_t c) -> double {
    // An atom whose arity disagrees with the relation is refused by the
    // atom bridge; until then its extra columns count as keys.
    if (c >= stats.columns.size()) return static_cast<double>(stats.rows);
    const int col[] = {static_cast<int>(c)};
    return static_cast<double>(EstimatedDistinctCount(stats, col));
  };
  out.rows = static_cast<double>(stats.rows);
  for (std::size_t c = 0; c < atom.terms.size(); ++c) {
    const Term& t = atom.terms[c];
    if (!t.is_var()) {
      out.rows /= std::max(1.0, column_distinct(c));
      continue;
    }
    const double d = column_distinct(c);
    auto [it, inserted] = out.distinct.emplace(t.var, d);
    if (!inserted) it->second = std::min(it->second, d);
  }
  for (auto& [var, d] : out.distinct) d = std::min(d, out.rows);
  return out;
}

// rdf3x-style join cardinality: the product of the row counts over, per
// shared variable, the larger distinct count (no shared variable: a cross
// product).
RelEstimate EstimateJoin(const RelEstimate& a, const RelEstimate& b) {
  RelEstimate out;
  out.rows = a.rows * b.rows;
  out.distinct = a.distinct;
  for (const auto& [var, d] : b.distinct) {
    auto [it, inserted] = out.distinct.emplace(var, d);
    if (inserted) continue;
    out.rows /= std::max({1.0, it->second, d});
    it->second = std::min(it->second, d);
  }
  for (auto& [var, d] : out.distinct) d = std::min(d, out.rows);
  return out;
}

// The #-hypertree's per-bag cost (Theorem 3.7 pipeline), which is both
// the objective of the planner's decomposition search and, summed over the
// chosen bags, its est_sharp: one estimator, so the estimate the strategy
// choice reads is exactly what the search minimized. A bag costs
//   - its guard join ⋈λ: every intermediate of a multi-atom guard is
//     materialized (kMaterializeNs a row; a pair of atoms sharing no
//     variable is a cross product, which is what the search steers away
//     from);
//   - its probes: the projection onto the bag and the full reducer read
//     every guard row once, and every query atom inside the bag is
//     semijoined into it (kProbeNs a row each). The executor semijoins an
//     atom only into the first bag that covers it, and only core atoms,
//     so this is an upper bound where bags overlap or the core is smaller;
//   - a fixed kBagMs, so that between equally cheap decompositions the
//     search still prefers fewer bags.
// Guard estimates are memoized: the width searches ask about the same
// guards once per (component, connector) pair they try.
class SharpBagCost {
 public:
  SharpBagCost(const ConjunctiveQuery& q, const DataProfile& profile) {
    atoms_.reserve(q.NumAtoms());
    atom_vars_.reserve(q.NumAtoms());
    for (const Atom& atom : q.atoms()) {
      atoms_.push_back(EstimateAtom(atom, profile));
      atom_vars_.push_back(atom.Vars());
    }
  }

  // Estimated rows of the guard's join.
  double GuardRows(const std::vector<int>& guard) {
    return Guard(guard).rows;
  }

  // Estimated ms to materialize `bag` from its guard (a GuardedBagCost).
  double BagMs(const IdSet& bag, const std::vector<int>& guard) {
    const GuardEstimate& g = Guard(guard);
    double probes_per_row = 1.0;
    for (const IdSet& vars : atom_vars_) {
      if (vars.IsSubsetOf(bag)) probes_per_row += 1.0;
    }
    return kBagMs + (kMaterializeNs * g.materialized +
                     kProbeNs * g.rows * probes_per_row) /
                        1e6;
  }

 private:
  struct GuardEstimate {
    double rows = 0.0;          // the guard join's rows
    double materialized = 0.0;  // rows of every multi-atom intermediate
  };

  const GuardEstimate& Guard(const std::vector<int>& guard) {
    auto [it, fresh] = guards_.try_emplace(guard);
    if (!fresh) return it->second;
    // V^k views are always guard-defined: atoms of q, joined in order.
    SHARPCQ_DCHECK(!guard.empty());
    RelEstimate joined = atoms_[static_cast<std::size_t>(guard[0])];
    for (std::size_t g = 1; g < guard.size(); ++g) {
      joined =
          EstimateJoin(joined, atoms_[static_cast<std::size_t>(guard[g])]);
      it->second.materialized += joined.rows;
    }
    it->second.rows = joined.rows;
    return it->second;
  }

  std::vector<RelEstimate> atoms_;
  std::vector<IdSet> atom_vars_;
  std::map<std::vector<int>, GuardEstimate> guards_;
};

// est_sharp: the search objective summed over `d`'s bags. Fills
// `bag_rows` (when non-null) with each bag's estimated guard rows.
double SharpMs(const SharpDecomposition& d, SharpBagCost* model,
               std::vector<double>* bag_rows) {
  double ms = 0.0;
  for (std::size_t v = 0; v < d.tree.bags.size(); ++v) {
    const std::vector<int>& guard =
        d.views.guards[static_cast<std::size_t>(d.tree.view_ids[v])];
    ms += model->BagMs(d.tree.bags[v], guard);
    if (bag_rows != nullptr) bag_rows->push_back(model->GuardRows(guard));
  }
  return ms;
}

// PS13 over the query's own join tree, rooted as the executor's cost model
// will root it. Full reduction probes every atom once; afterwards a
// variable keeps at most the distinct values of its most selective atom,
// which scales every atom down to its semijoin-reduced row count. Ps13Count
// then stamps each child #-set against the parent's rows. A vertex's
// #-sets are at most its free-variable partition times its children's
// #-sets, and at most the distinct free-variable assignments of its
// subtree.
double EstimatePs13Ms(const ConjunctiveQuery& q, const DataProfile& profile) {
  const std::size_t n = q.NumAtoms();
  std::vector<RelEstimate> atoms;
  std::vector<IdSet> edges;
  atoms.reserve(n);
  edges.reserve(n);
  std::map<VarId, double> distinct;
  double probes = 0.0;
  for (const Atom& atom : q.atoms()) {
    atoms.push_back(EstimateAtom(atom, profile));
    edges.push_back(atom.Vars());
    probes += atoms.back().rows;
    for (const auto& [var, d] : atoms.back().distinct) {
      auto [it, inserted] = distinct.emplace(var, d);
      if (!inserted) it->second = std::min(it->second, d);
    }
  }
  std::optional<TreeShape> shape = BuildJoinTree(edges);
  SHARPCQ_CHECK_MSG(shape.has_value(), "PS13 estimate needs an acyclic query");

  std::vector<double> reduced(n);
  std::vector<std::uint64_t> sizes(n);
  for (std::size_t a = 0; a < n; ++a) {
    reduced[a] = atoms[a].rows;
    for (const auto& [var, d] : atoms[a].distinct) {
      if (d > 0.0) reduced[a] *= distinct[var] / d;
    }
    sizes[a] = static_cast<std::uint64_t>(atoms[a].rows + 0.5);
  }
  auto assignments = [&distinct](const IdSet& vars) {
    double product = 1.0;
    for (VarId v : vars) product *= distinct[v];
    return product;
  };

  const TreeShape rooted =
      TreeShape::FromParents(CostModelRooting(*shape, sizes));
  const std::vector<int> order = rooted.TopoOrder();
  std::vector<double> sets(n, 1.0);
  std::vector<IdSet> subtree_free(n);
  double set_ops = 0.0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t p = static_cast<std::size_t>(*it);
    IdSet free = Intersect(edges[p], q.free_vars());
    double partition = std::min(reduced[p], assignments(free));
    for (int child : rooted.children[p]) {
      const std::size_t c = static_cast<std::size_t>(child);
      set_ops += sets[c] * reduced[p];
      partition *= sets[c];
      free = Union(free, subtree_free[c]);
    }
    sets[p] = std::max(1.0, std::min(partition, assignments(free)));
    subtree_free[p] = std::move(free);
  }
  return (kProbeNs * probes + kSetOpNs * set_ops) / 1e6;
}

}  // namespace

double EstimateSharpMs(const SharpDecomposition& d, const ConjunctiveQuery& q,
                       const DataProfile& profile) {
  SharpBagCost model(q, profile);
  return SharpMs(d, &model, nullptr);
}

CountingPlan MakePlan(const ConjunctiveQuery& q, const PlannerOptions& options,
                      const DataProfile* profile) {
  const MonotonicClock::time_point start = MonotonicNow();

  CountingPlan plan;
  plan.query = q;
  plan.options = options;

  // With a profile the #-hypertree search weights every bag by its
  // estimated cost, so among the minimal-width decompositions it returns
  // the one the data makes cheapest; without one it returns one with the
  // fewest bags.
  std::optional<SharpBagCost> model;
  GuardedBagCost bag_cost;
  if (profile != nullptr) {
    model.emplace(q, *profile);
    bag_cost = [&model](const IdSet& bag, const std::vector<int>& guard) {
      return model->BagMs(bag, guard);
    };
  }
  std::optional<SharpDecomposition> sharp;
  if (options.full_profile) {
    AnalysisArtifacts artifacts;
    plan.analysis = AnalyzeQuery(q, options.max_width, options.max_cores,
                                 &artifacts, bag_cost);
    plan.colored_core = std::move(artifacts.colored_core);
    sharp = std::move(artifacts.sharp);
  } else {
    // Minimal classification: only what the policy below consumes.
    plan.analysis.num_atoms = q.NumAtoms();
    plan.analysis.num_vars = q.AllVars().size();
    plan.analysis.num_free = q.free_vars().size();
    plan.analysis.is_acyclic = IsAcyclic(q.BuildHypergraph());
    std::optional<SharpWidthSearch> search = SearchSharpHypertreeWidth(
        q, options.max_width, options.max_cores, bag_cost);
    if (search.has_value()) {
      plan.analysis.sharp_hypertree_width = search->k;
      sharp = std::move(search->decomposition);
    }
  }

  const bool ps13_eligible =
      options.enable_acyclic_ps13 && AcyclicPs13Eligible(q, plan.analysis);
  std::vector<double> bag_rows;
  if (profile != nullptr) {
    if (sharp.has_value()) {
      plan.cost.sharp_ms = SharpMs(*sharp, &*model, &bag_rows);
    }
    if (ps13_eligible) plan.cost.ps13_ms = EstimatePs13Ms(q, *profile);
  }
  // The structural default is the #-hypertree decomposition; the estimates
  // override it only when PS13 is predicted clearly cheaper.
  const bool ps13_cheaper =
      plan.cost.sharp_ms.has_value() && plan.cost.ps13_ms.has_value() &&
      *plan.cost.ps13_ms * kSteerMargin < *plan.cost.sharp_ms &&
      *plan.cost.sharp_ms - *plan.cost.ps13_ms >= kMinSavingMs;

  if (sharp.has_value() && !ps13_cheaper) {
    plan.strategy = PlanStrategy::kSharpHypertree;
    plan.sharp = std::move(sharp);
    plan.width_budget = plan.analysis.sharp_hypertree_width.value_or(0);
    plan.cost.bag_rows = std::move(bag_rows);
  } else if (ps13_eligible) {
    plan.strategy = PlanStrategy::kAcyclicPs13;
    plan.cost_model_steered = ps13_cheaper;
    // Degree steer: when the profile shows a relation with groups past the
    // degree threshold and the hybrid gate is open, route to #b — its cost
    // grows with the achieved degree b of a fresh decomposition, not with
    // the instance's raw degree bound h.
    if (profile != nullptr && options.enable_hybrid &&
        options.max_width >= 2 &&
        MaxQueryDegree(q, *profile) > kDegreeSteerThreshold) {
      plan.strategy = PlanStrategy::kSharpB;
      plan.cost_model_steered = true;
    }
  } else if (options.enable_hybrid && options.max_width >= 2) {
    plan.strategy = PlanStrategy::kSharpB;
  } else {
    plan.strategy = PlanStrategy::kBacktracking;
  }
  if (!plan.cost.sharp_ms.has_value() && !plan.cost.ps13_ms.has_value()) {
    plan.cost = EstimateCost(plan);
  }

  plan.planning_ms = ElapsedMs(start);
  return plan;
}

}  // namespace sharpcq
