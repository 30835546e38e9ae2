#ifndef SHARPCQ_TESTS_TEST_UTIL_H_
#define SHARPCQ_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <initializer_list>
#include <string>
#include <vector>

#include "algebra/rel.h"
#include "data/database.h"
#include "engine/plan.h"
#include "query/conjunctive_query.h"
#include "util/id_set.h"

namespace sharpcq {

// The variable set {names...} resolved against q's name table.
inline IdSet VarsOf(const ConjunctiveQuery& q,
                    std::initializer_list<const char*> names) {
  IdSet out;
  for (const char* n : names) out.Insert(q.VarByName(n));
  return out;
}

// Sorted copy of an edge list, for order-insensitive comparison.
inline std::vector<IdSet> SortedEdges(std::vector<IdSet> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

// True if `edges` contains `edge`.
inline bool HasEdge(const std::vector<IdSet>& edges, const IdSet& edge) {
  return std::find(edges.begin(), edges.end(), edge) != edges.end();
}

// A kernel relation over `vars` holding `rows` (deduplicated by Build).
inline Rel MakeRel(IdSet vars, const std::vector<std::vector<Value>>& rows) {
  TableBuilder builder(static_cast<int>(vars.size()));
  for (const auto& row : rows) builder.AddRow(row);
  return Rel(std::move(vars), std::move(builder).Build());
}

// The structural-first planner policy: #-hypertree widths 1..max_width,
// then (with `hybrid`) #b widths 2..max_width, then backtracking; acyclic
// PS13 off and no diagnostic profile. Tests that pin the method strings of
// that search order count with it.
inline PlannerOptions StructuralFirstOptions(bool hybrid, int max_width = 3) {
  PlannerOptions options;
  options.max_width = max_width;
  options.enable_acyclic_ps13 = false;
  options.enable_hybrid = hybrid;
  options.full_profile = false;
  return options;
}

}  // namespace sharpcq

#endif  // SHARPCQ_TESTS_TEST_UTIL_H_
