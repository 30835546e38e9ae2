#ifndef SHARPCQ_CORE_ANALYZE_H_
#define SHARPCQ_CORE_ANALYZE_H_

#include <optional>
#include <string>

#include "core/sharp_decomposition.h"
#include "query/conjunctive_query.h"

namespace sharpcq {

// A one-call structural profile of a query: every parameter the paper's
// tractability landscape speaks about, for diagnostics and planning.
struct QueryAnalysis {
  std::size_t num_atoms = 0;
  std::size_t num_vars = 0;
  std::size_t num_free = 0;
  bool is_simple = false;       // distinct relation symbols (Section 2)
  bool is_acyclic = false;      // alpha-acyclicity of HQ
  std::size_t core_atoms = 0;   // size of the colored core Q'
  bool core_is_acyclic = false;
  int quantified_star_size = 0;                 // DM15 (Appendix A)
  std::optional<int> hypertree_width;           // htw(HQ), up to k_max
  std::optional<int> sharp_hypertree_width;     // Definition 1.2, up to k_max
  std::size_t frontier_edges = 0;  // hyperedges of FH(Q', free(Q))
  std::size_t max_frontier_size = 0;

  // A short multi-line report.
  std::string ToString() const;
};

// Reusable by-products of the analysis: the expensive query-only artifacts
// the profile was computed from, handed to callers (the engine planner) so
// width searches and core computation run exactly once per query shape.
struct AnalysisArtifacts {
  // The paper's Q': a core of color(Q) with the colors stripped.
  ConjunctiveQuery colored_core;
  // The width-minimal #-hypertree decomposition found within the budget
  // (the k achieving sharp_hypertree_width), if any: the cheapest at that
  // width under the analysis' bag cost when one is given, otherwise one
  // with the fewest bags.
  std::optional<SharpDecomposition> sharp;
};

// Computes the profile, searching widths up to `k_max`. Cost is FPT in the
// query (core computation + width searches); the database is not involved.
QueryAnalysis AnalyzeQuery(const ConjunctiveQuery& q, int k_max = 4);

// Same, with `max_cores` substructure cores tried per width and the
// artifacts exported (pass nullptr to discard them). `sharp_bag_cost`
// weights the bags of the #-hypertree search (the planner's data-derived
// cost); it changes which minimal-width decomposition is kept, never the
// width or any other field of the profile.
QueryAnalysis AnalyzeQuery(const ConjunctiveQuery& q, int k_max,
                           std::size_t max_cores, AnalysisArtifacts* artifacts,
                           const GuardedBagCost& sharp_bag_cost = nullptr);

}  // namespace sharpcq

#endif  // SHARPCQ_CORE_ANALYZE_H_
