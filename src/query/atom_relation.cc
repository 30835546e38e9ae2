#include "query/atom_relation.h"

#include "algebra/stats.h"
#include "algebra/table.h"
#include "util/check.h"

namespace sharpcq {

namespace {

// Column layout of an atom's output relation: the output columns are the
// atom's variables in ascending id order; first_pos[c] is the first atom
// position holding output column c's variable, col_of_pos[p] the output
// column of position p (-1 for constants).
struct AtomLayout {
  std::vector<int> first_pos;
  std::vector<int> col_of_pos;
  bool plain = true;  // no constants, no repeated variables
};

AtomLayout LayoutOf(const Atom& atom, const IdSet& vars) {
  AtomLayout layout;
  layout.first_pos.assign(vars.size(), -1);
  layout.col_of_pos.assign(atom.terms.size(), -1);
  std::size_t c = 0;
  for (VarId v : vars) {
    for (std::size_t p = 0; p < atom.terms.size(); ++p) {
      if (atom.terms[p].is_var() && atom.terms[p].var == v) {
        if (layout.first_pos[c] == -1) {
          layout.first_pos[c] = static_cast<int>(p);
        } else {
          layout.plain = false;  // repeated variable
        }
        layout.col_of_pos[p] = static_cast<int>(c);
      }
    }
    ++c;
  }
  for (const Term& t : atom.terms) {
    if (!t.is_var()) layout.plain = false;  // constant position
  }
  return layout;
}

// Emits the variable-projected row of every tuple of `stored` that
// satisfies the atom's constant and repeated-variable constraints.
template <typename Emit>
void ForEachSatisfyingRow(const Atom& atom, const Table& stored,
                          Emit&& emit) {
  SHARPCQ_CHECK_MSG(stored.arity() == atom.arity(), atom.relation.c_str());
  const AtomLayout layout = LayoutOf(atom, atom.Vars());
  auto at = [&stored](std::size_t i, std::size_t p) {
    return stored.at(i, static_cast<int>(p));
  };
  std::vector<Value> row(layout.first_pos.size());
  for (std::size_t i = 0; i < stored.rows(); ++i) {
    bool ok = true;
    for (std::size_t p = 0; p < atom.terms.size() && ok; ++p) {
      const Term& t = atom.terms[p];
      if (!t.is_var()) {
        ok = at(i, p) == t.value;
      } else {
        // Repeated-variable consistency against the first occurrence.
        std::size_t c = static_cast<std::size_t>(layout.col_of_pos[p]);
        std::size_t first = static_cast<std::size_t>(layout.first_pos[c]);
        ok = at(i, first) == at(i, p);
      }
    }
    if (!ok) continue;
    for (std::size_t c = 0; c < row.size(); ++c) {
      row[c] = at(i, static_cast<std::size_t>(layout.first_pos[c]));
    }
    emit(std::span<const Value>(row));
  }
}

}  // namespace

Rel AtomToRel(const Atom& atom, const Database& db) {
  IdSet vars = atom.Vars();
  std::shared_ptr<const Table> stored = db.table(atom.relation);
  SHARPCQ_CHECK_MSG(stored->arity() == atom.arity(), atom.relation.c_str());
  AtomLayout layout = LayoutOf(atom, vars);
  if (layout.plain) {
    bool identity = true;
    for (std::size_t c = 0; c < layout.first_pos.size(); ++c) {
      if (layout.first_pos[c] != static_cast<int>(c)) {
        identity = false;
        break;
      }
    }
    if (identity) {
      // The variable order already matches the stored column order: share
      // the stored table itself rather than an alias. The stored table
      // outlives any single count, so indexes built while probing it stay
      // cached across queries — this turns the per-count index build (the
      // dominant cost of semijoins against large relations) into a
      // one-time cost.
      return Rel(std::move(vars), std::move(stored));
    }
    // Every tuple satisfies a plain atom and the projection onto vars is a
    // column permutation, so alias the stored columns directly: the
    // returned relation shares the stored table's memory (zero copy), and
    // the permutation of a row set is still a row set.
    std::vector<std::span<const Value>> cols;
    cols.reserve(vars.size());
    for (int p : layout.first_pos) cols.push_back(stored->Column(p));
    std::shared_ptr<const Table> aliased =
        Table::FromExternal(std::move(cols), stored->rows(), stored);
    // The alias is a column permutation, so the stored table's cached stats
    // carry over verbatim (permuted) — the cost model sees base relation
    // statistics without ever recomputing them per query.
    if (std::shared_ptr<const TableStats> stats = stored->StatsIfPresent()) {
      aliased->InstallStats(PermuteStats(*stats, layout.first_pos));
    }
    return Rel(std::move(vars), std::move(aliased));
  }
  TableBuilder builder(static_cast<int>(vars.size()));
  builder.ReserveRows(stored->rows());
  ForEachSatisfyingRow(atom, *stored, [&builder](std::span<const Value> row) {
    builder.AddRow(row);
  });
  return Rel(std::move(vars), std::move(builder).Build());
}

std::size_t AppendAtomRows(const Atom& atom, const Database& db,
                           std::vector<Value>* out) {
  std::size_t rows = 0;
  ForEachSatisfyingRow(atom, *db.table(atom.relation),
                       [out, &rows](std::span<const Value> row) {
                         out->insert(out->end(), row.begin(), row.end());
                         ++rows;
                       });
  return rows;
}

}  // namespace sharpcq
