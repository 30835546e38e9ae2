// Section 3's general tree-projection framework: counting through *solved
// subproblems* (named views) instead of structural V^k resources.
//
// A data engineer has already materialized four subquery results over the
// workforce database of Example 1.1 — exactly the view hypergraph HV0 of
// Figure 4. The library decides that Q0 is #-covered w.r.t. those views
// (Definition 1.4), picks the core that the views can support (the
// F-branch; Example 3.5 shows the symmetric G-branch core fails), and
// counts through the stored views alone (Corollary 3.8).

#include <cstdio>

#include "core/legality.h"
#include "core/sharp_counting.h"
#include "count/enumeration.h"
#include "gen/paper_queries.h"
#include "query/atom_relation.h"

namespace {

using sharpcq::Atom;
using sharpcq::ConjunctiveQuery;
using sharpcq::Database;
using sharpcq::IdSet;
using sharpcq::Join;
using sharpcq::Project;
using sharpcq::Rel;
// Intersect/Union are friend functions of IdSet, found via ADL.

// Materializes the join of all atoms touching `vars`, projected onto
// `vars`, as the stored relation `name` (columns in ascending VarId order).
void StoreSubqueryView(const ConjunctiveQuery& q, Database* db,
                       const std::string& name, const IdSet& vars) {
  Rel acc = Rel::Unit();
  for (const Atom& a : q.atoms()) {
    if (a.Vars().Intersects(vars)) acc = Join(acc, AtomToRel(a, *db));
  }
  Rel projected = Project(acc, Intersect(acc.vars(), vars));
  db->SetTable(name, projected.table());
  std::printf("  stored view %-7s over %-9s (%zu tuples)\n", name.c_str(),
              vars.ToString([&q](std::uint32_t v) { return q.VarName(v); })
                  .c_str(),
              projected.size());
}

}  // namespace

int main() {
  ConjunctiveQuery q0 = sharpcq::MakeQ0();
  sharpcq::Q0DatabaseParams params;
  params.seed = 2026;
  Database db = sharpcq::MakeQ0Database(params);

  auto vars = [&q0](std::initializer_list<const char*> names) {
    IdSet out;
    for (const char* n : names) out.Insert(q0.VarByName(n));
    return out;
  };

  std::printf("materializing the views of Figure 4 (HV0):\n");
  std::vector<std::pair<std::string, IdSet>> named = {
      {"v_abi", vars({"A", "B", "I"})},
      {"v_be", vars({"B", "E"})},
      {"v_bcd", vars({"B", "C", "D"})},
      {"v_dfh", vars({"D", "F", "H"})}};
  for (const auto& [name, view_vars] : named) {
    StoreSubqueryView(q0, &db, name, view_vars);
  }
  sharpcq::ViewSet views = sharpcq::ViewsFromNamedRelations(named);

  std::string why;
  std::printf("\nlegality check: %s\n",
              sharpcq::IsLegalViewDatabase(q0, views, db, &why)
                  ? "views are legal w.r.t. Q0"
                  : ("ILLEGAL: " + why).c_str());

  auto d = sharpcq::FindSharpDecomposition(q0, views);
  if (!d.has_value()) {
    std::fprintf(stderr, "Q0 unexpectedly not #-covered w.r.t. V0\n");
    return 1;
  }
  std::printf("Q0 is #-covered w.r.t. V0; chosen core keeps %s\n",
              d->core.AllVars().Contains(q0.VarByName("F")) ? "F (as in the "
                                                              "paper)"
                                                            : "G");

  sharpcq::CountResult result = sharpcq::CountViaSharpDecomposition(q0, db, *d);
  sharpcq::CountInt brute = sharpcq::CountByBacktracking(q0, db);
  std::printf("answers via stored views: %s   brute force: %s   (%s)\n",
              sharpcq::CountToString(result.count).c_str(),
              sharpcq::CountToString(brute).c_str(),
              result.count == brute ? "match" : "MISMATCH");
  return result.count == brute ? 0 : 1;
}
