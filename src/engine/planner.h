#ifndef SHARPCQ_ENGINE_PLANNER_H_
#define SHARPCQ_ENGINE_PLANNER_H_

#include "engine/plan.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// The planner. Runs the structural classification (AnalyzeQuery —
// acyclicity, cores, htw, #-htw, star size) and the width searches exactly
// once, then selects a strategy by an explicit policy:
//
//   1. kSharpHypertree  if some k <= max_width admits a width-k
//                       #-hypertree decomposition (Theorem 1.3);
//   2. kAcyclicPs13     if enabled and HQ is acyclic with every free
//                       variable occurring in some atom (Theorem 6.2 on the
//                       query's own join tree);
//   3. kSharpB          if enabled and max_width >= 2 (Theorems 6.6/6.7;
//                       the database-dependent decomposition search runs at
//                       execution time);
//   4. kBacktracking    otherwise.
//
// Without a profile this order is the whole policy, and the plan is valid
// for every database. MakePlan touches no shared state (concurrent calls
// are safe, even on the same query); a finished plan is immutable —
// published as shared_ptr<const CountingPlan> and safe to execute from any
// thread.
//
// `profile` (optional) is the current generation's data statistics
// (algebra/stats.h); with it both the decomposition and the choice between
// the exact strategies are cost-based, because which one is cheaper depends
// on the data as well as the query (the #-hypertree pays for m^k-sized
// bags, PS13 for the instance's degree):
//   - the #-hypertree search weights every bag by the estimated cost of
//     materializing it (its guard join's rows, from the profile's row and
//     distinct counts), so among the minimal-width decompositions it
//     returns the cheapest for the data, e.g. two joined bags instead of
//     one cross-product bag; without a profile it returns one with the
//     fewest bags;
//   - when both a #-hypertree decomposition and PS13 are candidates, each
//     gets an estimated wall time from the profile's row and distinct
//     counts — the sizes of the bags' guard joins against PS13's reduced
//     rows and #-set work (CostEstimate) — and PS13 replaces the
//     structural choice when it is predicted clearly cheaper;
//   - when PS13 is chosen and a relation's largest group passes the degree
//     threshold, the hybrid #b route replaces it, since PS13's 4^h factor is
//     exponential in the degree bound while #b re-decomposes around it.
// Either override sets cost_model_steered. A plan built with a profile is
// only valid for databases in the same profile class, which is why the
// engine folds the profile fingerprint into its cache key; the estimates
// read only the statistics the fingerprint classes.
struct DataProfile;
CountingPlan MakePlan(const ConjunctiveQuery& q,
                      const PlannerOptions& options = {},
                      const DataProfile* profile = nullptr);

// The planner's estimate, in ms, of counting q through decomposition `d` on
// data of `profile`'s class: the per-bag cost its #-hypertree search
// minimizes, summed over d's bags. A profiled plan's est_sharp is this
// value for its own decomposition.
double EstimateSharpMs(const SharpDecomposition& d, const ConjunctiveQuery& q,
                       const DataProfile& profile);

}  // namespace sharpcq

#endif  // SHARPCQ_ENGINE_PLANNER_H_
