#ifndef PERFBENCH_HARNESS_ORACLE_H_
#define PERFBENCH_HARNESS_ORACLE_H_

// The correctness gate: expected answer counts for every (query,
// generation) a run may observe, computed before timing starts by a route
// independent of the one the engine's `auto` strategy runs.
//
// The primary route is a join-project evaluator over the generated rows
// themselves (it shares no code with sharpcq: it never sees the CSV parser,
// the columnar kernel or the planner). When one of its intermediates would
// exceed the row cap, the gate falls back to running sharpcq's forced
// strategies and requires two with different methods to agree.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "inputs.h"

namespace perfbench {

class Expected {
 public:
  // Generation 0 means "every generation" (the query does not read the
  // ingested relation).
  void Set(int query, std::uint64_t generation, std::string count);
  const std::string* Find(int query, std::uint64_t generation) const;
  void Merge(const Expected& other);

  bool Save(const std::string& path, std::string* error) const;
  bool Load(const std::string& path, std::string* error);

 private:
  std::map<std::pair<int, std::uint64_t>, std::string> counts_;
};

// Distinct answers of `q` over `relations`, or nullopt when an
// intermediate result would exceed `max_rows` rows.
std::optional<std::uint64_t> EvaluateCount(
    const Query& q, const std::vector<Relation>& relations,
    std::size_t max_rows);

// Computes every expected count the run described by `inputs` may need.
bool ComputeExpected(const Inputs& inputs, Expected* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_ORACLE_H_
