// Lemma 5.10's counting slice reduction, executed: recovering colored
// counts from a plain #CQ oracle.

#include <gtest/gtest.h>

#include <random>

#include "count/enumeration.h"
#include "gen/random_gen.h"
#include "query/conjunctive_query.h"
#include "reductions/color_elimination.h"
#include "solver/core.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

CountOracle BacktrackingOracle() {
  return [](const ConjunctiveQuery& q, const Database& db) {
    return CountByBacktracking(q, db);
  };
}

// Adds a color relation for every variable of q, restricting it to `dom`.
void AddUniformColors(const ConjunctiveQuery& q, const std::vector<Value>& dom,
                      DatabaseBuilder* db) {
  for (VarId v : q.AllVars()) {
    std::string rel = ConjunctiveQuery::ColorRelationName(q.VarName(v));
    for (Value value : dom) db->AddTuple(rel, {value});
  }
}

TEST(AutomorphismTest, AsymmetricPathHasOneRestriction) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"Y", "Z"});
  q.SetFreeByName({"X", "Z"});
  EXPECT_EQ(CountFreeAutomorphismRestrictions(q), 1u);
}

TEST(AutomorphismTest, TwoCycleHasSwap) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"Y", "X"});
  q.SetFreeByName({"X", "Y"});
  EXPECT_EQ(CountFreeAutomorphismRestrictions(q), 2u);  // identity and swap
}

TEST(ColorEliminationTest, DirectedPathAgainstDirect) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"Y", "Z"});
  q.SetFreeByName({"X", "Z"});

  DatabaseBuilder b_builder;
  // A small digraph.
  for (auto [s, t] : std::vector<std::pair<Value, Value>>{
           {0, 1}, {1, 2}, {2, 0}, {1, 3}, {3, 3}}) {
    b_builder.AddTuple("e", {s, t});
  }
  AddUniformColors(q, {0, 1, 2, 3}, &b_builder);
  const Database b = std::move(b_builder).Build();

  auto via = CountFullColorViaOracle(q, b, BacktrackingOracle());
  ASSERT_TRUE(via.has_value());
  EXPECT_EQ(*via, CountFullColorDirect(q, b));
}

TEST(ColorEliminationTest, RestrictiveDomainsChangeTheCount) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.SetFreeByName({"X"});
  DatabaseBuilder b_builder;
  b_builder.AddTuple("e", {0, 1});
  b_builder.AddTuple("e", {1, 2});
  b_builder.AddTuple("e", {2, 0});
  // X restricted to {0,1}, Y unrestricted.
  b_builder.AddTuple(ConjunctiveQuery::ColorRelationName("X"), {0});
  b_builder.AddTuple(ConjunctiveQuery::ColorRelationName("X"), {1});
  for (Value v : {0, 1, 2}) {
    b_builder.AddTuple(ConjunctiveQuery::ColorRelationName("Y"), {v});
  }
  const Database b = std::move(b_builder).Build();
  auto via = CountFullColorViaOracle(q, b, BacktrackingOracle());
  ASSERT_TRUE(via.has_value());
  EXPECT_EQ(*via, CountInt{2});
  EXPECT_EQ(*via, CountFullColorDirect(q, b));
}

TEST(ColorEliminationTest, SymmetricTwoCycleDividesByAutomorphisms) {
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"Y", "X"});
  q.SetFreeByName({"X", "Y"});
  DatabaseBuilder b_builder;
  b_builder.AddTuple("e", {0, 1});
  b_builder.AddTuple("e", {1, 0});
  b_builder.AddTuple("e", {2, 2});
  AddUniformColors(q, {0, 1, 2}, &b_builder);
  const Database b = std::move(b_builder).Build();
  auto via = CountFullColorViaOracle(q, b, BacktrackingOracle());
  ASSERT_TRUE(via.has_value());
  // Answers: (0,1), (1,0), (2,2).
  EXPECT_EQ(*via, CountInt{3});
  EXPECT_EQ(*via, CountFullColorDirect(q, b));
}

TEST(ColorEliminationTest, NonCoreColoringRejected) {
  // color(Q) is not a core: the doubled edge folds.
  ConjunctiveQuery q;
  q.AddAtomVars("e", {"X", "Y"});
  q.AddAtomVars("e", {"X", "Z"});
  q.SetFreeByName({"X"});
  DatabaseBuilder b_builder;
  b_builder.AddTuple("e", {0, 1});
  AddUniformColors(q, {0, 1}, &b_builder);
  const Database b = std::move(b_builder).Build();
  EXPECT_FALSE(
      CountFullColorViaOracle(q, b, BacktrackingOracle()).has_value());
}

TEST(ColorEliminationTest, ConstantsRejected) {
  ConjunctiveQuery q;
  VarId x = q.InternVar("X");
  q.AddAtom("e", {Term::Var(x), Term::Const(7)});
  q.SetFree(IdSet{x});
  DatabaseBuilder b_builder;
  b_builder.AddTuple("e", {0, 7});
  AddUniformColors(q, {0, 7}, &b_builder);
  const Database b = std::move(b_builder).Build();
  EXPECT_FALSE(
      CountFullColorViaOracle(q, b, BacktrackingOracle()).has_value());
}

TEST(ColorEliminationTest, RandomInstancesAgreeWithDirect) {
  std::mt19937_64 rng(99);
  int validated = 0;
  for (std::uint64_t seed = 1; seed <= 40 && validated < 12; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 4;
    qp.num_atoms = 3;
    qp.max_arity = 2;
    qp.num_free = 2;
    qp.num_relations = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    // The reduction needs color(Q) to be a core; skip instances that fold.
    ConjunctiveQuery colored = q.Colored();
    if (ComputeCoreSubquery(colored).NumAtoms() != colored.NumAtoms()) {
      continue;
    }
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 6;
    dp.seed = seed * 17;
    Database b = MakeRandomDatabase(q, dp);
    // Random per-variable domains (non-empty).
    DatabaseBuilder colors;
    for (VarId v : q.AllVars()) {
      std::string rel = ConjunctiveQuery::ColorRelationName(q.VarName(v));
      colors.AddTuple(rel, {static_cast<Value>(rng() % 3)});
      if (rng() % 2 == 0) {
        colors.AddTuple(rel, {static_cast<Value>(rng() % 3)});
      }
      colors.AddTuple(rel, {static_cast<Value>(2)});
    }
    const Database color_db = std::move(colors).Build();
    for (const std::string& rel : color_db.SortedRelationNames()) {
      b.SetTable(rel, color_db.table(rel));
    }
    auto via = CountFullColorViaOracle(q, b, BacktrackingOracle());
    ASSERT_TRUE(via.has_value()) << "seed " << seed;
    EXPECT_EQ(*via, CountFullColorDirect(q, b)) << "seed " << seed;
    ++validated;
  }
  EXPECT_GE(validated, 8);
}

}  // namespace
}  // namespace sharpcq
