#include <gtest/gtest.h>

#include "count/enumeration.h"
#include "count/join_tree_instance.h"
#include "count/ps13.h"
#include "count/starsize.h"
#include "gen/paper_queries.h"
#include "gen/random_gen.h"
#include "tests/test_util.h"

namespace sharpcq {
namespace {

// A two-node chain instance: {X,Y} - {Y,Z}.
JoinTreeInstance ChainInstance() {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(
      MakeRel(IdSet{0, 1}, {{1, 10}, {2, 20}, {3, 30}}));
  instance.nodes.push_back(
      MakeRel(IdSet{1, 2}, {{10, 100}, {10, 101}, {20, 200}, {99, 999}}));
  return instance;
}

TEST(FullReduceTest, RemovesDanglingTuples) {
  JoinTreeInstance instance = ChainInstance();
  ASSERT_TRUE(FullReduce(&instance));
  // (3,30) has no child match; (99,999) has no parent match.
  EXPECT_EQ(instance.nodes[0].size(), 2u);
  EXPECT_EQ(instance.nodes[1].size(), 3u);
}

TEST(FullReduceTest, DetectsEmptyJoin) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(MakeRel(IdSet{0}, {{1}}));
  instance.nodes.push_back(MakeRel(IdSet{0}, {{2}}));
  EXPECT_FALSE(FullReduce(&instance));
}

TEST(CountFullJoinTest, ChainCount) {
  JoinTreeInstance instance = ChainInstance();
  // Solutions: (1,10,100), (1,10,101), (2,20,200).
  EXPECT_EQ(CountFullJoin(instance), CountInt{3});
}

TEST(CountFullJoinTest, EmptyInstanceCountsOne) {
  EXPECT_EQ(CountFullJoin(JoinTreeInstance{}), CountInt{1});
}

TEST(CountFullJoinTest, ZeroAritySolutionsMultiply) {
  // Two independent bags: 2 x 3 = 6 full solutions.
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1, 0});
  instance.nodes.push_back(MakeRel(IdSet{0}, {{1}, {2}}));
  instance.nodes.push_back(MakeRel(IdSet{1}, {{5}, {6}, {7}}));
  EXPECT_EQ(CountFullJoin(instance), CountInt{6});
}

TEST(RestrictToVarsTest, ProjectsAndDedups) {
  JoinTreeInstance instance = ChainInstance();
  JoinTreeInstance restricted = RestrictToVars(instance, IdSet{1});
  EXPECT_EQ(restricted.nodes[0].vars(), (IdSet{1}));
  EXPECT_EQ(restricted.nodes[0].size(), 3u);  // {10,20,30}
  EXPECT_EQ(restricted.nodes[1].size(), 3u);  // {10,20,99}
}

// --- PS13 (Figure 13) -------------------------------------------------------

TEST(Ps13Test, SingleNodeCountsDistinctFreeProjections) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(
      MakeRel(IdSet{0, 1}, {{1, 10}, {1, 20}, {2, 10}}));
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{2});
  EXPECT_EQ(Ps13Count(instance, IdSet{0, 1}), CountInt{3});
  EXPECT_EQ(Ps13Count(instance, IdSet{}), CountInt{1});
}

TEST(Ps13Test, EmptyRelationCountsZero) {
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(Rel(IdSet{0}));
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{0});
}

TEST(Ps13Test, ChainWithProjection) {
  // free = {X} (variable 0): answers are X values extendable down the
  // chain: X=1, X=2.
  JoinTreeInstance instance = ChainInstance();
  EXPECT_EQ(Ps13Count(instance, IdSet{0}), CountInt{2});
  // free = {Z} (variable 2): Z in {100, 101, 200}.
  EXPECT_EQ(Ps13Count(instance, IdSet{2}), CountInt{3});
  // free = {X, Z}: (1,100), (1,101), (2,200).
  EXPECT_EQ(Ps13Count(instance, IdSet{0, 2}), CountInt{3});
}

TEST(Ps13Test, MatchesFullJoinCountWhenAllVarsFree) {
  JoinTreeInstance instance = ChainInstance();
  EXPECT_EQ(Ps13Count(instance, instance.AllVars()),
            CountFullJoin(instance));
}

TEST(Ps13Test, StatsReflectDegreeBlowup) {
  // Bag {X, Y} with one X extended by 4 Y values: the #-relation of the
  // root has one set of size 4 when X is quantified away below a free
  // parent... here we just sanity check the stats plumbing.
  JoinTreeInstance instance;
  instance.shape = TreeShape::FromParents({-1});
  instance.nodes.push_back(
      MakeRel(IdSet{0, 1}, {{1, 10}, {1, 11}, {1, 12}, {1, 13}}));
  Ps13Stats stats;
  EXPECT_EQ(Ps13Count(instance, IdSet{0}, &stats), CountInt{1});
  EXPECT_EQ(stats.max_sets, 1u);
  EXPECT_EQ(stats.max_set_size, 4u);
}

// PS13 on materialized acyclic instances must agree with brute force.
TEST(Ps13Test, AgreesWithBruteForceOnRandomAcyclicInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 7;
    qp.num_atoms = 5;
    qp.max_arity = 3;
    qp.num_free = 3;
    qp.force_acyclic = true;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);

    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 10;
    dp.seed = seed * 131;
    Database db = MakeRandomDatabase(q, dp);

    CountInt brute = CountByJoinProject(q, db);
    EXPECT_EQ(CountByBacktracking(q, db), brute) << "seed " << seed;
  }
}

// --- baselines --------------------------------------------------------------

TEST(EnumerationTest, JoinProjectOnQ1) {
  ConjunctiveQuery q = MakeQ1();
  Database db = MakeQ1Database(5, 10, 42);
  EXPECT_EQ(CountByJoinProject(q, db), CountByBacktracking(q, db));
}

TEST(EnumerationTest, BooleanQueryCountsZeroOrOne) {
  ConjunctiveQuery q = MakeQn2(2);
  DatabaseBuilder builder;
  builder.AddTuple("r", {1, 2});
  const Database db = std::move(builder).Build();
  EXPECT_EQ(CountByJoinProject(q, db), CountInt{1});
  EXPECT_EQ(CountByBacktracking(q, db), CountInt{1});
  Database empty;
  empty.SetTable("r", Table::Empty(2));
  EXPECT_EQ(CountByJoinProject(q, empty), CountInt{0});
  EXPECT_EQ(CountByBacktracking(q, empty), CountInt{0});
}

TEST(EnumerationTest, Qh2DatabaseHasExactlyMAnswers) {
  // Example C.1: |answers| = m = 2^h on D_2.
  for (int h : {1, 2, 3, 4}) {
    ConjunctiveQuery q = MakeQh2(h);
    Database db = MakeQh2Database(h);
    EXPECT_EQ(CountByBacktracking(q, db), CountInt{1} << h) << "h=" << h;
  }
}

TEST(EnumerationTest, Qn1CycleDatabaseCountsD) {
  // On the d-cycle, Q^n_1 has exactly d answers.
  for (int n : {2, 3}) {
    for (int d : {3, 5, 8}) {
      ConjunctiveQuery q = MakeQn1(n);
      Database db = MakeQn1CycleDatabase(d);
      EXPECT_EQ(CountByBacktracking(q, db), static_cast<CountInt>(d))
          << "n=" << n << " d=" << d;
    }
  }
}

// --- quantified star size ----------------------------------------------------

TEST(StarSizeTest, Qn1StarSizeIsCeilHalfN) {
  // Example A.2: the quantified star size of Q^n_1 is ceil(n/2).
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(2)), 1);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(3)), 2);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(4)), 2);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(5)), 3);
  EXPECT_EQ(QuantifiedStarSize(MakeQn1(6)), 3);
}

TEST(StarSizeTest, Q0StarSize) {
  // Q0's frontiers are {A,B}, {B}, {B,C}: A,B adjacent (mw) and B,C not
  // adjacent but {B,C} has independent set {C}... the max independent set
  // within any single frontier is 1 ({A,B} induces an edge; {B,C} has no
  // edge between B and C, so the independent set {B,C} has size 2).
  EXPECT_EQ(QuantifiedStarSize(MakeQ0()), 2);
}

TEST(StarSizeTest, QuantifierFreeQueryHasStarSizeZero) {
  ConjunctiveQuery q;
  q.AddAtomVars("r", {"X", "Y"});
  q.SetFreeByName({"X", "Y"});
  EXPECT_EQ(QuantifiedStarSize(q), 0);
}

TEST(StarSizeTest, FrontierMaterializationMatchesBruteForce) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 6;
    qp.num_atoms = 4;
    qp.max_arity = 3;
    qp.num_free = 2;
    qp.seed = seed;
    ConjunctiveQuery q = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = 3;
    dp.tuples_per_relation = 8;
    dp.seed = seed * 977;
    Database db = MakeRandomDatabase(q, dp);
    EXPECT_EQ(CountByFrontierMaterialization(q, db),
              CountByBacktracking(q, db))
        << "seed " << seed;
  }
}

TEST(StarSizeTest, FrontierMaterializationOnQn1) {
  ConjunctiveQuery q = MakeQn1(3);
  Database db = MakeQn1RandomDatabase(6, 14, 5);
  EXPECT_EQ(CountByFrontierMaterialization(q, db), CountByBacktracking(q, db));
}

}  // namespace
}  // namespace sharpcq
