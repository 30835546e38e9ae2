#ifndef SHARPCQ_ALGEBRA_REL_H_
#define SHARPCQ_ALGEBRA_REL_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/table.h"
#include "util/count_int.h"
#include "util/id_set.h"

namespace sharpcq {

// The kernel's variable-bound relation handle (the set-of-substitutions
// view of Section 2, "Relational Algebra"): an IdSet schema (columns in
// ascending variable id, which makes joins positional) over an immutable
// shared Table. Copying a Rel copies a shared_ptr, never tuple data;
// operators that keep every row (e.g. a semijoin that removes nothing)
// return a handle to the *same* table, preserving its cached indexes. This
// is the storage layer under every counting strategy.
//
// Invariant: the table is always a set of rows (deduplicated); every
// kernel operator preserves it.
class Rel {
 public:
  Rel() : table_(Table::Empty(0)) {}
  explicit Rel(IdSet vars)
      : vars_(std::move(vars)),
        table_(Table::Empty(static_cast<int>(vars_.size()))) {}
  Rel(IdSet vars, std::shared_ptr<const Table> table)
      : vars_(std::move(vars)), table_(std::move(table)) {
    SHARPCQ_CHECK(table_ != nullptr &&
                  table_->arity() == static_cast<int>(vars_.size()));
  }
  // The substitution with empty domain: the identity for Join.
  static Rel Unit();

  const IdSet& vars() const { return vars_; }
  const std::shared_ptr<const Table>& table() const { return table_; }
  std::size_t size() const { return table_->rows(); }
  bool empty() const { return table_->empty(); }

  // Column position of `var`, which must be in vars().
  int ColumnOf(std::uint32_t var) const;

  // Value of `var` in row `row_id`.
  Value At(std::size_t row_id, std::uint32_t var) const {
    return table_->at(row_id, ColumnOf(var));
  }

  std::string DebugString() const;

 private:
  IdSet vars_;
  std::shared_ptr<const Table> table_;
};

// Column positions in `r` of the variables in `vars` (all must be present,
// ascending var order — the canonical key order the index cache is keyed by).
std::vector<int> ColumnsOf(const Rel& r, const IdSet& vars);

// pi_onto(r). `onto` must be a subset of r.vars(). Deduplicated via the
// index cache (hash grouping), first-occurrence row order.
Rel Project(const Rel& r, const IdSet& onto);

// Natural join r1 |><| r2 on the shared variables, probing b's cached index
// with one packed key word per probe row (see KeyPacking). Large probe
// sides morselize onto the current ExecScope's pool (algebra/
// exec_policy.h); the output is materialized column-wise from the matched
// (a-row, b-row) id pairs in probe order, so parallel and sequential runs
// produce identical tables.
Rel Join(const Rel& a, const Rel& b);

// Semijoin a |>< b: the rows of `a` that join with at least one row of `b`.
// Sets *changed (if non-null) when rows were removed. When nothing is
// removed, returns a handle to a's table itself (no copy, cached indexes
// preserved) — the fixpoint loops in solver/ and count/ rely on this.
// Probes are packed-word lookups; large probe sides morselize like Join,
// writing per-morsel selection vectors gathered once.
Rel Semijoin(const Rel& a, const Rel& b, bool* changed = nullptr);

// sigma_{var=value}(r), via the cached single-column index.
Rel SelectEqual(const Rel& r, std::uint32_t var, Value value);

// Set equality (schemas must match).
bool SameRel(const Rel& a, const Rel& b);

// Counted projection (group-by-count): the distinct keys of pi_onto(r)
// with the number of source rows each key collapses, computed from the
// index groups without materializing a deduplicated intermediate.
struct CountedProjection {
  Rel keys;                      // schema = onto, one row per distinct key
  std::vector<CountInt> counts;  // parallel to keys' rows
};
CountedProjection ProjectCounted(const Rel& r, const IdSet& onto);

// |pi_onto(r)| without materializing the projection.
std::size_t DistinctCount(const Rel& r, const IdSet& onto);

// The degree of r w.r.t. the key variables `onto` ∩ vars(r): the largest
// number of rows agreeing on the key (Definition 6.1), streamed from the
// index groups.
std::size_t MaxGroupSize(const Rel& r, const IdSet& onto);

// Cheap estimate of |pi_{onto ∩ vars(r)}(r)| for scheduling decisions:
// the product of the per-column distinct counts from the table's cached
// stats (capped at the row count), or simply the row count when no stats
// are present. Never builds an index and never touches tuple data — unlike
// DistinctCount, which is exact but pays a grouping pass.
std::size_t EstimatedDistinctCount(const Rel& r, const IdSet& onto);

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_REL_H_
