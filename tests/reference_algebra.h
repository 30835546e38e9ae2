#ifndef SHARPCQ_TESTS_REFERENCE_ALGEBRA_H_
#define SHARPCQ_TESTS_REFERENCE_ALGEBRA_H_

// A by-value relational algebra over variable-bound relations: the
// reference the kernel's differential tests (algebra_kernel_test) judge
// algebra/rel.h against. Test-only and deliberately naive, so it shares no
// code or data structure with the kernel: rows are plain vectors, joins
// group the right-hand side in a std::map, and every operator returns its
// rows sorted and distinct.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "algebra/rel.h"
#include "data/value.h"
#include "util/check.h"
#include "util/id_set.h"

namespace sharpcq::reference {

// The set-of-substitutions view of Section 2: one column per variable, in
// ascending variable id.
struct VarRelation {
  IdSet vars;
  std::vector<std::vector<Value>> rows;

  VarRelation() = default;
  explicit VarRelation(IdSet v) : vars(std::move(v)) {}

  std::size_t size() const { return rows.size(); }
  bool empty() const { return rows.empty(); }

  int ColumnOf(std::uint32_t var) const {
    const auto& ids = vars.ids();
    auto it = std::lower_bound(ids.begin(), ids.end(), var);
    SHARPCQ_CHECK_MSG(it != ids.end() && *it == var,
                      "variable not in relation schema");
    return static_cast<int>(it - ids.begin());
  }
  Value At(std::size_t row, std::uint32_t var) const {
    return rows[row][static_cast<std::size_t>(ColumnOf(var))];
  }
};

inline void SortDistinct(VarRelation* r) {
  std::sort(r->rows.begin(), r->rows.end());
  r->rows.erase(std::unique(r->rows.begin(), r->rows.end()), r->rows.end());
}

inline VarRelation MakeVarRelation(IdSet vars,
                                   std::vector<std::vector<Value>> rows) {
  VarRelation r(std::move(vars));
  r.rows = std::move(rows);
  for (const auto& row : r.rows) SHARPCQ_CHECK(row.size() == r.vars.size());
  SortDistinct(&r);
  return r;
}

// The values of `row` (over r's schema) at the variables `key_vars`.
inline std::vector<Value> KeyOf(const VarRelation& r,
                                const std::vector<Value>& row,
                                const IdSet& key_vars) {
  std::vector<Value> key;
  key.reserve(key_vars.size());
  for (std::uint32_t v : key_vars) {
    key.push_back(row[static_cast<std::size_t>(r.ColumnOf(v))]);
  }
  return key;
}

// pi_onto(r); `onto` must be a subset of r.vars.
inline VarRelation Project(const VarRelation& r, const IdSet& onto) {
  SHARPCQ_CHECK(onto.IsSubsetOf(r.vars));
  VarRelation out(onto);
  for (const auto& row : r.rows) out.rows.push_back(KeyOf(r, row, onto));
  SortDistinct(&out);
  return out;
}

// Natural join on the shared variables.
inline VarRelation Join(const VarRelation& a, const VarRelation& b) {
  const IdSet shared = Intersect(a.vars, b.vars);
  std::map<std::vector<Value>, std::vector<const std::vector<Value>*>> by_key;
  for (const auto& row : b.rows) {
    by_key[KeyOf(b, row, shared)].push_back(&row);
  }
  VarRelation out(Union(a.vars, b.vars));
  for (const auto& ra : a.rows) {
    auto it = by_key.find(KeyOf(a, ra, shared));
    if (it == by_key.end()) continue;
    for (const std::vector<Value>* rb : it->second) {
      std::vector<Value> row;
      row.reserve(out.vars.size());
      for (std::uint32_t v : out.vars) {
        row.push_back(a.vars.Contains(v)
                          ? ra[static_cast<std::size_t>(a.ColumnOf(v))]
                          : (*rb)[static_cast<std::size_t>(b.ColumnOf(v))]);
      }
      out.rows.push_back(std::move(row));
    }
  }
  SortDistinct(&out);
  return out;
}

// The rows of `a` that join with some row of `b`; *changed (if non-null)
// reports whether any row was dropped.
inline VarRelation Semijoin(const VarRelation& a, const VarRelation& b,
                            bool* changed = nullptr) {
  const IdSet shared = Intersect(a.vars, b.vars);
  std::map<std::vector<Value>, bool> keys;
  for (const auto& row : b.rows) keys[KeyOf(b, row, shared)] = true;
  VarRelation out(a.vars);
  for (const auto& row : a.rows) {
    if (keys.count(KeyOf(a, row, shared)) > 0) out.rows.push_back(row);
  }
  if (changed != nullptr) *changed = out.size() != a.size();
  return out;
}

// sigma_{var=value}(r).
inline VarRelation SelectEqual(const VarRelation& r, std::uint32_t var,
                               Value value) {
  VarRelation out(r.vars);
  const std::size_t col = static_cast<std::size_t>(r.ColumnOf(var));
  for (const auto& row : r.rows) {
    if (row[col] == value) out.rows.push_back(row);
  }
  return out;
}

inline bool SameVarRelation(VarRelation a, VarRelation b) {
  SortDistinct(&a);
  SortDistinct(&b);
  return a.vars == b.vars && a.rows == b.rows;
}

// Bridges to and from the kernel, for setting up differential rounds.
inline Rel ToRel(const VarRelation& r) {
  TableBuilder builder(static_cast<int>(r.vars.size()));
  for (const auto& row : r.rows) builder.AddRow(row);
  return Rel(r.vars, std::move(builder).Build());
}

inline VarRelation FromRel(const Rel& r) {
  VarRelation out(r.vars());
  const Table& table = *r.table();
  for (std::size_t i = 0; i < table.rows(); ++i) {
    std::vector<Value>& row = out.rows.emplace_back();
    for (int c = 0; c < table.arity(); ++c) row.push_back(table.at(i, c));
  }
  SortDistinct(&out);
  return out;
}

}  // namespace sharpcq::reference

#endif  // SHARPCQ_TESTS_REFERENCE_ALGEBRA_H_
