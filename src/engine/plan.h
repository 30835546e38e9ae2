#ifndef SHARPCQ_ENGINE_PLAN_H_
#define SHARPCQ_ENGINE_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "core/analyze.h"
#include "core/sharp_decomposition.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The strategies of the paper's tractability landscape, in the order the
// default policy prefers them.
enum class PlanStrategy {
  // Theorem 1.3: width-k #-hypertree decomposition found; counting is
  // polynomial in the database for the fixed width.
  kSharpHypertree,
  // PS13 / Theorem 6.2 on the query's own join tree: exact for every
  // acyclic query, cost exponential only in the instance's degree bound.
  kAcyclicPs13,
  // Theorems 6.6/6.7: hybrid #b-generalized hypertree decompositions. The
  // decomposition search is database-dependent and therefore runs at
  // execution time; the executor falls back to backtracking when no
  // pseudo-free set qualifies.
  kSharpB,
  // The GS13 enumerate-with-projection baseline; always applicable.
  kBacktracking,
};

const char* PlanStrategyName(PlanStrategy strategy);

// Planner policy knobs. All query-only; part of the plan-cache key.
struct PlannerOptions {
  int max_width = 3;          // largest width attempted (#-htw and #b)
  std::size_t max_cores = 8;  // substructure cores tried per width
  // Strategy gates.
  bool enable_acyclic_ps13 = true;
  bool enable_hybrid = true;
  // With full_profile the plan carries the complete QueryAnalysis (htw,
  // star size, core/frontier shape) for diagnostics. Without it planning
  // computes only what strategy selection needs — acyclicity and the
  // #-hypertree search — which keeps one-shot cold planning (e.g.
  // enumeration) cheap.
  bool full_profile = true;
  // Pass-through for the hybrid search (hybrid/sharp_b.h).
  std::size_t hybrid_max_b = static_cast<std::size_t>(-1);
  std::size_t hybrid_max_subsets = 4096;

  // Deterministic rendering of every field, appended to the canonical query
  // key so plans are cached per (query shape, policy).
  std::string CacheFingerprint() const;
};

// How the planner costed its choice. With a data profile (the engine's
// default, EngineOptions::enable_cost_model) it estimates the wall time of
// each exact candidate from the profile's row and distinct counts: the
// #-hypertree's guard-join sizes against PS13's reduced rows and #-set
// work (engine/planner.cc documents the model and its calibration). These
// are cardinality estimates; they pick the #-hypertree decomposition (the
// cheapest of minimal width) and the strategy. Without a profile,
// or when no candidate has an estimate, only the query-only sketch is
// filled: the count runs in roughly
// O(query_factor * m^db_exponent * strategy-specific blowup), m the largest
// relation.
struct CostEstimate {
  std::optional<double> sharp_ms;  // the #-hypertree candidate, if found
  std::optional<double> ps13_ms;   // the PS13 candidate, if eligible
  // With sharp_ms, when the plan runs the #-hypertree: each bag's
  // estimated guard-join rows, parallel to CountingPlan::sharp's bags.
  std::vector<double> bag_rows;

  double db_exponent = 0.0;
  double query_factor = 0.0;
  std::string note;  // e.g. "x 4^h in the degree bound h"
};

// The output of planning: everything about counting that depends on the
// query alone, computed once and reusable against any database.
struct CountingPlan {
  // The (canonicalized, when produced via the engine) query the artifacts
  // below refer to. Executing the plan counts THIS query; by construction
  // its count equals the original query's on every database.
  ConjunctiveQuery query;

  PlanStrategy strategy = PlanStrategy::kBacktracking;
  PlannerOptions options;

  // Structural profile (core size, widths, star size, frontier shape).
  QueryAnalysis analysis;

  // The paper's Q' — reused by diagnostics; also embedded in `sharp`.
  ConjunctiveQuery colored_core;

  // kSharpHypertree: the witness decomposition and the width budget k at
  // which the search succeeded (the method string reports k; the tree's own
  // width may be smaller).
  std::optional<SharpDecomposition> sharp;
  int width_budget = 0;

  CostEstimate cost;
  double planning_ms = 0.0;  // wall time MakePlan spent building this plan

  // True when the data profile handed to MakePlan moved the strategy away
  // from the structural default: the estimates picked PS13 over a found
  // #-hypertree decomposition, or the degree steer sent PS13 to #b. Purely
  // provenance — every strategy is exact.
  bool cost_model_steered = false;

  std::string DebugString() const;
};

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_PLAN_H_
