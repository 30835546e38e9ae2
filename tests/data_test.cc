#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "algebra/rel.h"
#include "algebra/table.h"
#include "data/csv.h"
#include "data/database.h"
#include "data/value.h"
#include "engine/engine.h"
#include "query/atom_relation.h"
#include "query/parser.h"
#include "tests/reference_algebra.h"

namespace sharpcq {
namespace {

TEST(ValueDictTest, InternAndLookup) {
  ValueDict dict;
  Value a = dict.Intern("alice");
  Value b = dict.Intern("bob");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("alice"), a);
  EXPECT_EQ(dict.NameOf(a), "alice");
  EXPECT_EQ(dict.Find("bob"), b);
  EXPECT_FALSE(dict.Find("carol").has_value());
  EXPECT_EQ(dict.NameOf(999), "999");  // un-interned falls back to decimal
}

TEST(ValueDictTest, HeterogeneousLookupAvoidsCopies) {
  ValueDict dict;
  std::string line = "alice,bob,alice";
  // Probing with views into a larger buffer must not require std::string.
  std::string_view alice = std::string_view(line).substr(0, 5);
  std::string_view bob = std::string_view(line).substr(6, 3);
  Value a = dict.Intern(alice);
  Value b = dict.Intern(bob);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern(std::string_view(line).substr(10, 5)), a);
  EXPECT_EQ(dict.Find(alice), a);
  EXPECT_EQ(dict.Find("bob"), b);
  EXPECT_FALSE(dict.Find(std::string_view("carol")).has_value());
  // Stored names are owned copies, independent of the probe buffer.
  line.assign(line.size(), 'x');
  EXPECT_EQ(dict.NameOf(a), "alice");
  EXPECT_EQ(dict.NameOf(b), "bob");
}

// --- the stored relation form: an immutable, deduplicated Table -------------

std::shared_ptr<const Table> MakeTable(
    int arity, const std::vector<std::vector<Value>>& rows) {
  TableBuilder builder(arity);
  for (const auto& row : rows) builder.AddRow(row);
  return std::move(builder).Build();
}

TEST(RelationTest, AddAndRead) {
  auto t = MakeTable(2, {{1, 2}, {3, 4}});
  ASSERT_EQ(t->rows(), 2u);
  EXPECT_EQ(t->arity(), 2);
  EXPECT_EQ(t->at(0, 0), 1);
  EXPECT_EQ(t->at(1, 1), 4);
}

TEST(RelationTest, DedupRemovesDuplicates) {
  auto t = MakeTable(2, {{1, 2}, {1, 2}, {0, 9}});
  EXPECT_EQ(t->rows(), 2u);
  EXPECT_TRUE(t->ContainsRow(std::vector<Value>{1, 2}));
  EXPECT_TRUE(t->ContainsRow(std::vector<Value>{0, 9}));
  EXPECT_FALSE(t->ContainsRow(std::vector<Value>{2, 1}));
}

TEST(RelationTest, ZeroArityMultiplicity) {
  EXPECT_TRUE(MakeTable(0, {})->empty());
  // The empty tuple added twice is one row of a set: the arity-0 relation
  // is "true" once, whatever the input multiplicity.
  TableBuilder builder(0);
  builder.AddRow(std::span<const Value>{});
  builder.AddRow(std::span<const Value>{});
  EXPECT_EQ(builder.rows(), 2u);
  EXPECT_EQ(std::move(builder).Build()->rows(), 1u);
}

TEST(RelationTest, SameRowSetIgnoresOrderAndDuplicates) {
  const IdSet vars{0};
  Rel a(vars, MakeTable(1, {{1}, {2}}));
  Rel b(vars, MakeTable(1, {{2}, {1}, {1}}));
  EXPECT_TRUE(SameRel(a, b));
  Rel c(vars, MakeTable(1, {{2}, {1}, {1}, {3}}));
  EXPECT_FALSE(SameRel(a, c));
}

TEST(RowIndexTest, LookupByKeyColumns) {
  auto t = MakeTable(3, {{1, 10, 100}, {1, 20, 200}, {2, 10, 300}});
  auto index = t->IndexOn({0});
  std::vector<Value> key{1};
  EXPECT_EQ(index->Lookup(key).size(), 2u);
  for (std::uint32_t row : index->Lookup(key)) EXPECT_EQ(t->at(row, 0), 1);
  key[0] = 7;
  EXPECT_TRUE(index->Lookup(key).empty());
}

TEST(RowIndexTest, EmptyKeyMatchesAllRows) {
  auto t = MakeTable(2, {{1, 2}, {3, 4}});
  auto index = t->IndexOn({});
  EXPECT_EQ(index->Lookup(std::span<const Value>{}).size(), 2u);
}

// --- the by-value reference algebra (tests/reference_algebra.h) ------------
//
// Each operator is checked on a hand-computed answer, for the reference the
// kernel's differential suites judge against and for the kernel itself.

using reference::MakeVarRelation;
using reference::VarRelation;

VarRelation Kernel(const Rel& r) { return reference::FromRel(r); }

TEST(VarRelationTest, ColumnOfFollowsSortedVarOrder) {
  VarRelation r(IdSet{7, 2, 5});
  EXPECT_EQ(r.ColumnOf(2), 0);
  EXPECT_EQ(r.ColumnOf(5), 1);
  EXPECT_EQ(r.ColumnOf(7), 2);
  Rel k(IdSet{7, 2, 5});
  EXPECT_EQ(k.ColumnOf(2), 0);
  EXPECT_EQ(k.ColumnOf(5), 1);
  EXPECT_EQ(k.ColumnOf(7), 2);
}

TEST(VarRelationTest, ProjectDedups) {
  VarRelation r = MakeVarRelation(IdSet{0, 1}, {{1, 10}, {1, 20}, {2, 10}});
  const VarRelation expected = MakeVarRelation(IdSet{0}, {{1}, {2}});
  EXPECT_TRUE(SameVarRelation(Project(r, IdSet{0}), expected));
  EXPECT_TRUE(SameVarRelation(Kernel(Project(reference::ToRel(r), IdSet{0})),
                              expected));
}

TEST(VarRelationTest, NaturalJoinOnSharedVar) {
  VarRelation a = MakeVarRelation(IdSet{0, 1}, {{1, 10}, {2, 20}});
  VarRelation b =
      MakeVarRelation(IdSet{1, 2}, {{10, 100}, {10, 101}, {30, 300}});
  const VarRelation expected =
      MakeVarRelation(IdSet{0, 1, 2}, {{1, 10, 100}, {1, 10, 101}});
  VarRelation j = Join(a, b);
  EXPECT_EQ(j.vars, (IdSet{0, 1, 2}));
  EXPECT_TRUE(SameVarRelation(j, expected));
  EXPECT_TRUE(SameVarRelation(
      Kernel(Join(reference::ToRel(a), reference::ToRel(b))), expected));
}

TEST(VarRelationTest, JoinWithDisjointVarsIsCartesian) {
  VarRelation a = MakeVarRelation(IdSet{0}, {{1}, {2}});
  VarRelation b = MakeVarRelation(IdSet{1}, {{10}, {20}, {30}});
  EXPECT_EQ(Join(a, b).size(), 6u);
  EXPECT_EQ(Join(reference::ToRel(a), reference::ToRel(b)).size(), 6u);
}

TEST(VarRelationTest, JoinWithUnitIsIdentity) {
  VarRelation a = MakeVarRelation(IdSet{0, 3}, {{1, 2}, {4, 5}});
  VarRelation unit =
      MakeVarRelation(IdSet{}, std::vector<std::vector<Value>>(1));  // {()}
  EXPECT_TRUE(SameVarRelation(Join(unit, a), a));
  EXPECT_TRUE(
      SameVarRelation(Kernel(Join(Rel::Unit(), reference::ToRel(a))), a));
}

TEST(VarRelationTest, SemijoinFiltersAndReportsChange) {
  VarRelation a = MakeVarRelation(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  VarRelation b = MakeVarRelation(IdSet{1}, {{10}, {30}});
  bool changed = false;
  VarRelation s = Semijoin(a, b, &changed);
  EXPECT_TRUE(changed);
  EXPECT_EQ(s.size(), 2u);
  changed = true;
  VarRelation s2 = Semijoin(s, b, &changed);
  EXPECT_FALSE(changed);
  EXPECT_EQ(s2.size(), 2u);

  bool kernel_changed = false;
  Rel ks = Semijoin(reference::ToRel(a), reference::ToRel(b), &kernel_changed);
  EXPECT_TRUE(kernel_changed);
  EXPECT_TRUE(SameVarRelation(Kernel(ks), s));
  kernel_changed = true;
  Rel ks2 = Semijoin(ks, reference::ToRel(b), &kernel_changed);
  EXPECT_FALSE(kernel_changed);
  EXPECT_EQ(ks2.table(), ks.table());  // nothing removed: same table
}

TEST(VarRelationTest, SemijoinOnDisjointVarsKeepsAllWhenNonEmpty) {
  VarRelation a = MakeVarRelation(IdSet{0}, {{1}, {2}});
  VarRelation b = MakeVarRelation(IdSet{5}, {{7}});
  VarRelation empty(IdSet{5});
  EXPECT_EQ(Semijoin(a, b).size(), 2u);
  EXPECT_EQ(Semijoin(a, empty).size(), 0u);
  EXPECT_EQ(Semijoin(reference::ToRel(a), reference::ToRel(b)).size(), 2u);
  EXPECT_EQ(Semijoin(reference::ToRel(a), Rel(IdSet{5})).size(), 0u);
}

TEST(VarRelationTest, SelectEqual) {
  VarRelation a = MakeVarRelation(IdSet{0, 1}, {{1, 10}, {2, 20}, {1, 30}});
  const VarRelation expected =
      MakeVarRelation(IdSet{0, 1}, {{1, 10}, {1, 30}});
  EXPECT_TRUE(SameVarRelation(SelectEqual(a, 0, 1), expected));
  EXPECT_TRUE(SameVarRelation(Kernel(SelectEqual(reference::ToRel(a), 0, 1)),
                              expected));
}

// --- one physical form: every relation is a deduplicated Table -------------

TEST(DatabaseTest, DeclareAndAdd) {
  DatabaseBuilder builder;
  builder.AddTuple("r", {1, 2});
  builder.AddTuple("r", {3, 4});
  builder.AddTuple("s", {5});
  const Database db = std::move(builder).Build();
  EXPECT_TRUE(db.HasRelation("r"));
  EXPECT_FALSE(db.HasRelation("t"));
  EXPECT_EQ(db.table("r")->rows(), 2u);
  EXPECT_EQ(db.table("s")->arity(), 1);
  EXPECT_EQ(db.TotalTuples(), 3u);
  EXPECT_EQ(db.SortedRelationNames(), (std::vector<std::string>{"r", "s"}));
}

TEST(DatabaseTest, DedupAll) {
  DatabaseBuilder builder;
  builder.AddTuple("r", {1, 2});
  builder.AddTuple("r", {1, 2});
  const Database db = std::move(builder).Build();
  EXPECT_EQ(db.table("r")->rows(), 1u);
  EXPECT_EQ(db.TotalTuples(), 1u);
}

constexpr const char* kStrategies[] = {"auto", "backtracking", "sharp",
                                       "ps13", "hybrid"};

// Counts `q` on `db` under every forced strategy.
std::vector<CountInt> CountsUnderEveryStrategy(const std::string& q,
                                               const Database& db) {
  auto query = ParseQuery(q);
  EXPECT_TRUE(query.has_value()) << q;
  CountingEngine engine;
  std::vector<CountInt> counts;
  for (const char* strategy : kStrategies) {
    auto options = PlannerOptionsForStrategy(strategy);
    EXPECT_TRUE(options.has_value()) << strategy;
    CountResult result = engine.Count(*query, db, *options);
    EXPECT_TRUE(result.ok()) << strategy;
    counts.push_back(result.count);
  }
  return counts;
}

TEST(DatabaseBuilderTest, DuplicateRowsCountLikeTheirDeduplicatedForm) {
  // r holds every pair twice, s one pair three times; the deduplicated
  // form holds each once.
  DatabaseBuilder with_dups;
  DatabaseBuilder distinct;
  std::string r_csv;
  for (Value a = 0; a < 6; ++a) {
    for (Value b = 0; b < 6; ++b) {
      if ((a + b) % 3 != 0) continue;
      for (int copy = 0; copy < 2; ++copy) {
        with_dups.AddTuple("r", {a, b});
        r_csv += std::to_string(a) + "," + std::to_string(b) + "\n";
      }
      distinct.AddTuple("r", {a, b});
    }
  }
  for (int copy = 0; copy < 3; ++copy) with_dups.AddTuple("s", {1, 2});
  distinct.AddTuple("s", {1, 2});
  const Database built = std::move(with_dups).Build();
  const Database expected = std::move(distinct).Build();

  Database loaded;
  std::istringstream r_in(r_csv);
  ASSERT_TRUE(LoadRelationCsv(r_in, "r", &loaded).ok());
  std::istringstream s_in("1,2\n1,2\n1,2\n");
  ASSERT_TRUE(LoadRelationCsv(s_in, "s", &loaded).ok());

  EXPECT_EQ(built.TotalTuples(), expected.TotalTuples());
  EXPECT_EQ(loaded.TotalTuples(), expected.TotalTuples());
  EXPECT_EQ(expected.TotalTuples(), 13u);  // 12 distinct r rows + 1 s row

  for (const char* q : {"Q(X) <- r(X,Y), r(Y,Z)", "Q(X,Z) <- r(X,Y), r(Y,Z)",
                        "Q(X) <- r(X,Y), s(Y,Z)", "Q() <- r(X,X)"}) {
    const std::vector<CountInt> truth = CountsUnderEveryStrategy(q, expected);
    EXPECT_EQ(CountsUnderEveryStrategy(q, built), truth) << q;
    EXPECT_EQ(CountsUnderEveryStrategy(q, loaded), truth) << q;
  }
}

TEST(DatabaseBuilderTest, DeclaredRelationWithoutTuplesIsEmpty) {
  DatabaseBuilder builder;
  builder.DeclareRelation("r", 3);
  const Database db = std::move(builder).Build();
  ASSERT_TRUE(db.HasRelation("r"));
  EXPECT_EQ(db.table("r")->arity(), 3);
  EXPECT_EQ(db.table("r")->rows(), 0u);
  EXPECT_FALSE(db.HasRelation("s"));
}

TEST(DatabaseBuilderTest, CopiesShareTables) {
  DatabaseBuilder builder;
  builder.AddTuple("r", {1, 2});
  const Database db = std::move(builder).Build();
  const Database copy = db;
  EXPECT_EQ(copy.table("r"), db.table("r"));  // one table, two handles
}

TEST(DatabaseBuilderTest, IdentityAtomSharesTheCsvBuiltTableAcrossCounts) {
  // A CSV-built (not snapshot-loaded) database: an atom whose variables
  // follow the stored column order shares the stored table, so an index
  // built during one count is still cached for the next.
  std::string csv;
  for (int i = 0; i < 50; ++i) {
    csv += std::to_string(i) + "," + std::to_string((i * 7) % 50) + "\n";
  }
  Database db;
  std::istringstream in(csv);
  ASSERT_TRUE(LoadRelationCsv(in, "r", &db).ok());
  const std::shared_ptr<const Table> stored = db.table("r");

  auto q = ParseQuery("Q(X,Z) <- r(X,Y), r(Y,Z)");
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(AtomToRel(q->atoms()[0], db).table(), stored);
  EXPECT_EQ(stored->CachedIndexCount(), 0u);

  CountingEngine engine;
  const CountResult first = engine.Count(*q, db);
  ASSERT_TRUE(first.ok());
  const std::size_t cached = stored->CachedIndexCount();
  EXPECT_GT(cached, 0u);
  const std::shared_ptr<const TableIndex> index = stored->IndexOn({0});
  const CountResult second = engine.Count(*q, db);
  EXPECT_EQ(second.count, first.count);
  EXPECT_EQ(stored->CachedIndexCount(), cached);  // nothing rebuilt
  EXPECT_EQ(stored->IndexOn({0}), index);
  EXPECT_EQ(db.table("r"), stored);
}

}  // namespace
}  // namespace sharpcq
