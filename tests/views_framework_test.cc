// The general tree-projection framework of Section 3 with *named* views:
// view relations stored in the database, legality checking, and the
// Corollary 3.8 pipeline (decide #-decomposition w.r.t. V, then count).

#include <gtest/gtest.h>

#include "core/legality.h"
#include "core/materialize.h"
#include "core/sharp_counting.h"
#include "count/enumeration.h"
#include "gen/paper_queries.h"
#include "query/atom_relation.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

// Materializes the join of the atoms covering `vars` into a database
// relation named `name` (columns in ascending VarId order) — a "solved
// subproblem" in the sense of Section 3.
void StoreSubqueryView(const ConjunctiveQuery& q, Database* db,
                       const std::string& name, const IdSet& vars) {
  Rel acc = Rel::Unit();
  bool first = true;
  for (const Atom& a : q.atoms()) {
    if (!a.Vars().Intersects(vars)) continue;
    acc = Join(acc, AtomToRel(a, *db));
    first = false;
  }
  ASSERT_FALSE(first);
  db->SetTable(name, Project(acc, Intersect(acc.vars(), vars)).table());
}

// The V0 view set of Example 3.5 / Figure 7(d), materialized as named
// relations over a Q0 database.
struct V0Fixture {
  ConjunctiveQuery q = MakeQ0();
  Database db;
  ViewSet views;

  explicit V0Fixture(std::uint64_t seed) {
    Q0DatabaseParams params;
    params.seed = seed;
    db = MakeQ0Database(params);
    std::vector<std::pair<std::string, IdSet>> named = {
        {"v_abi", VarsOf(q, {"A", "B", "I"})},
        {"v_be", VarsOf(q, {"B", "E"})},
        {"v_bcd", VarsOf(q, {"B", "C", "D"})},
        {"v_dfh", VarsOf(q, {"D", "F", "H"})}};
    for (const auto& [name, vars] : named) {
      StoreSubqueryView(q, &db, name, vars);
    }
    views = ViewsFromNamedRelations(named);
  }
};

TEST(ViewsFrameworkTest, SubqueryViewsAreLegal) {
  V0Fixture f(3);
  std::string why;
  EXPECT_TRUE(IsLegalViewDatabase(f.q, f.views, f.db, &why)) << why;
}

TEST(ViewsFrameworkTest, OverRestrictiveViewDetected) {
  V0Fixture f(3);
  // Empty out one view: clearly more restrictive than the query (unless
  // the query itself has no answers on this database).
  if (CountByBacktracking(f.q, f.db) == 0) GTEST_SKIP();
  f.db.SetTable("v_bcd", Table::Empty(3));
  std::string why;
  EXPECT_FALSE(IsLegalViewDatabase(f.q, f.views, f.db, &why));
  EXPECT_FALSE(why.empty());
}

TEST(ViewsFrameworkTest, Corollary38CountThroughNamedViews) {
  // Decide #-coveredness w.r.t. V0 and count through the named views only:
  // the Theorem 3.7 pipeline never joins more than one stored relation per
  // bag.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    V0Fixture f(seed);
    auto d = FindSharpDecomposition(f.q, f.views);
    ASSERT_TRUE(d.has_value()) << "seed " << seed;
    EXPECT_EQ(d->width, 1);  // every bag is guarded by one view
    CountResult result = CountViaSharpDecomposition(f.q, f.db, *d);
    EXPECT_EQ(result.count, CountByBacktracking(f.q, f.db))
        << "seed " << seed;
  }
}

TEST(ViewsFrameworkTest, MissingViewMakesQueryUncovered) {
  // Without the {B,C,D} view nothing covers the frontier edge {B,C}.
  ConjunctiveQuery q = MakeQ0();
  std::vector<std::pair<std::string, IdSet>> named = {
      {"v_abi", VarsOf(q, {"A", "B", "I"})},
      {"v_be", VarsOf(q, {"B", "E"})},
      {"v_dfh", VarsOf(q, {"D", "F", "H"})},
      {"v_cd", VarsOf(q, {"C", "D"})},
      {"v_bd", VarsOf(q, {"B", "D"})}};
  EXPECT_FALSE(
      FindSharpDecomposition(q, ViewsFromNamedRelations(named)).has_value());
}

TEST(ViewsFrameworkTest, MaterializeNamedViewReadsStoredRelation) {
  V0Fixture f(7);
  Rel rel = MaterializeViewRel(f.views, 1, f.q, f.db);  // v_be
  EXPECT_EQ(rel.vars(), VarsOf(f.q, {"B", "E"}));
  // wi has one info per worker, filtered by the semijoin structure of the
  // subquery join; at minimum the view is non-trivial.
  EXPECT_GT(rel.size(), 0u);
}

TEST(ViewsFrameworkTest, NamedViewArityMismatchAborts) {
  V0Fixture f(7);
  EXPECT_DEATH(
      {
        ViewSet bad = ViewsFromNamedRelations(
            {{"v_be", VarsOf(f.q, {"B", "E", "I"})}});
        MaterializeViewRel(bad, 0, f.q, f.db);
      },
      "arity mismatch");
}

}  // namespace
}  // namespace sharpcq
