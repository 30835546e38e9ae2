// Deeper invariants: facts the theory guarantees across *choices* the
// implementation makes (which core, which decomposition, which engine), and
// edge cases around the query language.

#include <gtest/gtest.h>

#include "core/materialize.h"
#include "core/sharp_counting.h"
#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "hybrid/degree.h"
#include "solver/core.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

// Every substructure core must lead to the same count (they are all
// equivalent to Q); Example 3.5's point is that some cores fail against
// restricted views, not that they disagree.
TEST(CrossCoreInvariantTest, AllQ0CoresCountTheSame) {
  ConjunctiveQuery q = MakeQ0();
  ViewSet views = BuildVk(q, 2);
  for (std::uint64_t seed : {1u, 4u, 9u}) {
    Q0DatabaseParams params;
    params.seed = seed;
    Database db = MakeQ0Database(params);
    CountInt expected = CountByBacktracking(q, db);
    int cores_tried = 0;
    for (const ConjunctiveQuery& core : EnumerateColoredCores(q, 8)) {
      std::vector<IdSet> cover = SharpCoverEdges(core, q.free_vars());
      auto projection = FindTreeProjection(cover, views);
      ASSERT_TRUE(projection.has_value());
      SharpDecomposition d;
      d.core = core;
      d.tree = projection->tree;
      d.views = views;
      d.width = d.tree.Width(views);
      EXPECT_EQ(CountViaSharpDecomposition(q, db, d).count, expected)
          << "core " << cores_tried << " seed " << seed;
      ++cores_tried;
    }
    EXPECT_EQ(cores_tried, 2);
  }
}

TEST(CrossCoreInvariantTest, RandomQueriesAllCoresCountTheSame) {
  int families = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 5;
    qp.num_atoms = 5;
    qp.max_arity = 2;
    qp.num_free = 2;
    qp.num_relations = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    std::vector<ConjunctiveQuery> cores = EnumerateColoredCores(q, 4);
    if (cores.size() < 2) continue;
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8;
    dp.seed = seed * 11;
    Database db = MakeRandomDatabase(q, dp);
    CountInt expected = CountByBacktracking(q, db);
    ViewSet views = BuildVk(q, 3);
    bool counted_some = false;
    for (const ConjunctiveQuery& core : cores) {
      std::vector<IdSet> cover = SharpCoverEdges(core, q.free_vars());
      auto projection = FindTreeProjection(cover, views);
      if (!projection.has_value()) continue;
      SharpDecomposition d;
      d.core = core;
      d.tree = projection->tree;
      d.views = views;
      d.width = d.tree.Width(views);
      EXPECT_EQ(CountViaSharpDecomposition(q, db, d).count, expected)
          << "seed " << seed;
      counted_some = true;
    }
    families += counted_some ? 1 : 0;
  }
  EXPECT_GT(families, 2);
}

// pi_free(core) == pi_free(Q) on every database — the colored-core
// guarantee (GS13) the whole pipeline rests on.
TEST(CrossCoreInvariantTest, CorePreservesAnswers) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 5;
    qp.num_atoms = 5;
    qp.max_arity = 2;
    qp.num_free = 2;
    qp.num_relations = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    ConjunctiveQuery core = ComputeColoredCore(q);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 9;
    dp.seed = seed * 101;
    Database db = MakeRandomDatabase(q, dp);
    EXPECT_EQ(CountByBacktracking(core, db), CountByBacktracking(q, db))
        << "seed " << seed << " core " << core.DebugString();
  }
}

// The Theorem 6.2 stats invariant: after materializing any complete
// decomposition, PS13's set sizes stay within the degree bound.
TEST(DegreeInvariantTest, BoundDominatesAnswerMultiplicity) {
  for (int h : {2, 3, 4}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    Hypertree merged = MakeQh2MergedHypertree(q, h);
    JoinTreeInstance instance = MaterializeHypertree(q, db, merged);
    // bound = 1 means every answer has a unique witness: the full join and
    // the answer count coincide.
    ASSERT_EQ(BoundOfInstance(instance, q.free_vars()), 1u);
    ASSERT_TRUE(FullReduce(&instance));
    EXPECT_EQ(CountFullJoin(RestrictToVars(instance, instance.AllVars())),
              CountFullJoin(instance));
  }
}

// --- language edge cases ------------------------------------------------------

TEST(EdgeCaseTest, FreeVariableInSingleUnaryAtom) {
  ConjunctiveQuery q;
  q.AddAtomVars("u", {"X"});
  q.AddAtomVars("r", {"X", "Y"});
  q.SetFreeByName({"X"});
  DatabaseBuilder builder;
  builder.AddTuple("u", {1});
  builder.AddTuple("u", {2});
  builder.AddTuple("u", {3});
  builder.AddTuple("r", {1, 5});
  builder.AddTuple("r", {3, 6});
  const Database db = std::move(builder).Build();
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{2});
}

TEST(EdgeCaseTest, DuplicateAtomsCollapseInCore) {
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.AddAtomVars("r", {"X", "Y"});
  q.SetFreeByName({"X"});
  ConjunctiveQuery core = ComputeColoredCore(q);
  EXPECT_EQ(core.NumAtoms(), 1u);
  DatabaseBuilder builder;
  builder.AddTuple("r", {1, 2});
  builder.AddTuple("r", {4, 2});
  const Database db = std::move(builder).Build();
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{2});
}

TEST(EdgeCaseTest, NegativeValuesFlowThrough) {
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.AddAtomVars("s", {"Y"});
  q.SetFreeByName({"X"});
  DatabaseBuilder builder;
  builder.AddTuple("r", {-5, -6});
  builder.AddTuple("r", {-5, 7});
  builder.AddTuple("r", {8, -6});
  builder.AddTuple("s", {-6});
  const Database db = std::move(builder).Build();
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{2});  // X in {-5, 8}
  EXPECT_EQ(result->count, CountByBacktracking(q, db));
}

TEST(EdgeCaseTest, AllVariablesFreeReducesToFullCount) {
  // No existential variables: FH adds only edges inside free(Q);
  // counting equals the plain join count.
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.AddAtomVars("r", {"Y", "Z"});
  q.SetFreeByName({"X", "Y", "Z"});
  Database db = MakeQn1CycleDatabase(7);
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{7});
}

TEST(EdgeCaseTest, CartesianProductQueries) {
  // Two disconnected components multiply.
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X"});
  q.AddAtomVars("s", {"Y"});
  q.SetFreeByName({"X", "Y"});
  DatabaseBuilder builder;
  builder.AddTuple("r", {1});
  builder.AddTuple("r", {2});
  builder.AddTuple("s", {10});
  builder.AddTuple("s", {20});
  builder.AddTuple("s", {30});
  const Database db = std::move(builder).Build();
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{6});
  // And with one side existential, only the nonempty check remains.
  ConjunctiveQuery q2 = q.WithFree(VarsOf(q, {"X"}));
  auto result2 = CountBySharpHypertree(q2, db, 1);
  ASSERT_TRUE(result2.has_value());
  EXPECT_EQ(result2->count, CountInt{2});
}

TEST(EdgeCaseTest, WideAtomsCountedThroughWidthOne) {
  // A single 5-ary atom with mixed free/existential variables.
  ConjunctiveQuery q;
  q.AddAtomVars("w", {"A", "B", "C", "D", "E"});
  q.SetFreeByName({"A", "C"});
  DatabaseBuilder builder;
  builder.AddTuple("w", {1, 2, 3, 4, 5});
  builder.AddTuple("w", {1, 9, 3, 8, 7});
  builder.AddTuple("w", {1, 2, 4, 4, 5});
  const Database db = std::move(builder).Build();
  auto result = CountBySharpHypertree(q, db, 1);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->count, CountInt{2});  // (1,3) and (1,4)
}

}  // namespace
}  // namespace sharpcq
