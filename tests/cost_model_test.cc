// The statistics-driven cost model (ISSUE 8): estimator units, fingerprint
// stability, and — the load-bearing property — scheduling neutrality: every
// count with the cost model on must equal the same count with it off,
// because the model only reorders exact algorithms. The differential suite
// here runs 200+ random instances (including skewed/heavy-tail data and
// columnar snapshot-backed databases) through both settings.
//
// The strategy-choice suite pins the data-aware planner: which exact
// strategy `auto` runs on the shapes whose best strategy depends on the
// data, and a differential over acyclic instances from both regimes
// (auto == forced #-hypertree == forced PS13 == backtracking). The
// decomposition-choice suite pins which #-hypertree decomposition a
// profile selects (no cross-product bag on the 4-cycle and Q0) and checks
// on cyclic instances that it counts the same as the fewest-bags one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "algebra/rel.h"
#include "algebra/stats.h"
#include "algebra/table.h"
#include "count/enumeration.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "gen/random_gen.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"
#include "util/trace.h"

namespace sharpcq {
namespace {

std::string MakeScratchDir() {
  std::string tmpl = ::testing::TempDir() + "sharpcq_cost_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* dir = ::mkdtemp(buf.data());
  EXPECT_NE(dir, nullptr);
  return dir;
}

std::shared_ptr<const Table> BuildTable(
    const std::vector<std::vector<Value>>& rows) {
  TableBuilder builder(rows.empty() ? 0 : static_cast<int>(rows[0].size()));
  for (const auto& row : rows) builder.AddRow(row);
  return std::move(builder).Build();
}

// --- estimator units -------------------------------------------------------

TEST(CostModelUnitTest, DegreeBucketIsLogTwoClamped) {
  EXPECT_EQ(DegreeBucket(1), 0u);
  EXPECT_EQ(DegreeBucket(2), 1u);
  EXPECT_EQ(DegreeBucket(3), 1u);
  EXPECT_EQ(DegreeBucket(4), 2u);
  EXPECT_EQ(DegreeBucket(7), 2u);
  EXPECT_EQ(DegreeBucket(8), 3u);
  EXPECT_EQ(DegreeBucket(1u << 15), 15u);
  // Everything past the last bucket boundary is absorbed by bucket 15.
  EXPECT_EQ(DegreeBucket(std::uint64_t{1} << 40), kDegreeHistogramBuckets - 1);
}

TEST(CostModelUnitTest, SizeClassIsBitWidth) {
  EXPECT_EQ(SizeClass(0), 0u);
  EXPECT_EQ(SizeClass(1), 1u);
  EXPECT_EQ(SizeClass(2), 2u);
  EXPECT_EQ(SizeClass(3), 2u);
  EXPECT_EQ(SizeClass(4), 3u);
  EXPECT_EQ(SizeClass(1023), 10u);
  EXPECT_EQ(SizeClass(1024), 11u);
}

TEST(CostModelUnitTest, ComputeTableStatsMatchesHandCount) {
  // Column 0: values {1 x3, 2 x1} -> distinct 2, max_group 3.
  // Column 1: values {10, 20, 30, 40} -> distinct 4, max_group 1.
  auto table = BuildTable({{1, 10}, {1, 20}, {1, 30}, {2, 40}});
  TableStats stats = ComputeTableStats(*table);
  ASSERT_EQ(stats.rows, 4u);
  ASSERT_EQ(stats.columns.size(), 2u);
  EXPECT_EQ(stats.columns[0].distinct, 2u);
  EXPECT_EQ(stats.columns[0].max_group, 3u);
  // Groups of size 3 land in bucket 1 ([2,4)), size 1 in bucket 0.
  EXPECT_EQ(stats.columns[0].histogram[0], 1u);
  EXPECT_EQ(stats.columns[0].histogram[1], 1u);
  EXPECT_EQ(stats.columns[1].distinct, 4u);
  EXPECT_EQ(stats.columns[1].max_group, 1u);
  EXPECT_EQ(stats.columns[1].histogram[0], 4u);
  EXPECT_DOUBLE_EQ(stats.columns[0].AvgGroup(stats.rows), 2.0);

  // The lazy per-table cache returns the same statistics, and installs win
  // only once.
  auto cached = table->Stats();
  ASSERT_NE(cached, nullptr);
  EXPECT_EQ(*cached, stats);
  EXPECT_EQ(table->StatsIfPresent().get(), cached.get());
}

TEST(CostModelUnitTest, PermuteStatsReordersColumns) {
  auto table = BuildTable({{1, 10}, {1, 20}, {2, 30}});
  TableStats stats = ComputeTableStats(*table);
  const std::vector<int> perm = {1, 0};
  auto permuted = PermuteStats(stats, perm);
  ASSERT_NE(permuted, nullptr);
  EXPECT_EQ(permuted->rows, stats.rows);
  ASSERT_EQ(permuted->columns.size(), 2u);
  EXPECT_EQ(permuted->columns[0], stats.columns[1]);
  EXPECT_EQ(permuted->columns[1], stats.columns[0]);
}

TEST(CostModelUnitTest, EstimatedDistinctCountUsesStatsAndCaps) {
  // 8 rows, column 0 has 4 distinct values, column 1 has 8.
  std::vector<std::vector<Value>> rows;
  for (Value i = 0; i < 8; ++i) rows.push_back({i % 4, i});
  auto table = BuildTable(rows);
  Rel rel(IdSet{3, 7}, table);

  // No stats cached yet: falls back to the row count.
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3}), 8u);

  table->Stats();  // prime the cache
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3}), 4u);
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{7}), 8u);
  // The product 4 * 8 exceeds the row count, so the estimate caps at rows
  // (a relation never has more distinct keys than rows).
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3, 7}), 8u);
  // Variables outside the relation's schema do not constrain it.
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{99}), 1u);
  EXPECT_EQ(EstimatedDistinctCount(rel, IdSet{3, 99}), 4u);
}

// --- fingerprints ----------------------------------------------------------

TEST(CostModelUnitTest, FingerprintIsRowOrderInsensitive) {
  DatabaseBuilder forward_builder;
  DatabaseBuilder shuffled_builder;
  forward_builder.AddTuple("r", {1, 2});
  forward_builder.AddTuple("r", {3, 4});
  forward_builder.AddTuple("s", {7});
  shuffled_builder.AddTuple("s", {7});
  shuffled_builder.AddTuple("r", {3, 4});
  shuffled_builder.AddTuple("r", {1, 2});
  const Database forward = std::move(forward_builder).Build();
  const Database shuffled = std::move(shuffled_builder).Build();

  const std::string dir = MakeScratchDir();
  Status error;
  ASSERT_TRUE(WriteSnapshot(forward, nullptr, dir + "/a.sharpcq", &error)
                  .has_value())
      << error;
  ASSERT_TRUE(WriteSnapshot(shuffled, nullptr, dir + "/b.sharpcq", &error)
                  .has_value())
      << error;
  auto a = LoadSnapshot(dir + "/a.sharpcq", SnapshotLoadMode::kMapped, &error);
  auto b = LoadSnapshot(dir + "/b.sharpcq", SnapshotLoadMode::kOwned, &error);
  ASSERT_TRUE(a.has_value() && b.has_value()) << error;
  EXPECT_EQ(BuildDataProfile(a->db).Fingerprint(),
            BuildDataProfile(b->db).Fingerprint());
  EXPECT_FALSE(BuildDataProfile(a->db).Fingerprint().empty());
}

TEST(CostModelUnitTest, FingerprintTracksSizeClassNotExactCounts) {
  // Within one log2 class the fingerprint is stable; crossing a class
  // boundary (2 rows -> 4 rows) moves it.
  auto profile_of = [](int rows) {
    DatabaseBuilder builder;
    for (int i = 0; i < rows; ++i) builder.AddTuple("e", {i, i + 100});
    const Database db = std::move(builder).Build();
    const std::string dir = MakeScratchDir();
    Status error;
    EXPECT_TRUE(
        WriteSnapshot(db, nullptr, dir + "/p.sharpcq", &error).has_value());
    auto loaded =
        LoadSnapshot(dir + "/p.sharpcq", SnapshotLoadMode::kMapped, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return BuildDataProfile(loaded->db).Fingerprint();
  };
  EXPECT_EQ(profile_of(2), profile_of(3));    // both class bit_width=2
  EXPECT_NE(profile_of(2), profile_of(4));    // class 2 vs class 3
  EXPECT_NE(profile_of(4), profile_of(100));  // order of magnitude apart
}

// --- persisted stats == computed stats -------------------------------------

TEST(CostModelUnitTest, SnapshotPersistedStatsEqualLazyComputation) {
  DatabaseBuilder builder;
  for (int i = 0; i < 50; ++i) {
    builder.AddTuple("skew", {i % 5, i});  // col 0 heavy, col 1 unique
  }
  const Database db = std::move(builder).Build();
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/stats.sharpcq";
  Status error;
  ASSERT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;

  for (SnapshotLoadMode mode :
       {SnapshotLoadMode::kOwned, SnapshotLoadMode::kMapped}) {
    auto loaded = LoadSnapshot(path, mode, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    const std::shared_ptr<const Table>& backing = loaded->db.table("skew");
    // v2 loads install the persisted stats without a computation pass...
    auto persisted = backing->StatsIfPresent();
    ASSERT_NE(persisted, nullptr);
    // ...and they match what a from-scratch pass over the data produces.
    EXPECT_EQ(*persisted, ComputeTableStats(*backing));
    EXPECT_EQ(persisted->columns[0].distinct, 5u);
    EXPECT_EQ(persisted->columns[0].max_group, 10u);
    EXPECT_EQ(persisted->columns[1].distinct, 50u);
  }
}

// --- plan cache keying -----------------------------------------------------

TEST(CostModelCacheTest, ProfileClassChangeReplansSameClassStaysWarm) {
  const std::string dir = MakeScratchDir();
  Status error;
  auto snapshot_db = [&](const std::string& name, int rows) {
    DatabaseBuilder builder;
    for (int i = 0; i < rows; ++i) builder.AddTuple("e", {i, i + 1});
    const Database db = std::move(builder).Build();
    const std::string path = dir + "/" + name + ".sharpcq";
    EXPECT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
    auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
    EXPECT_TRUE(loaded.has_value()) << error;
    return std::move(loaded->db);
  };
  Database small = snapshot_db("small", 6);        // rows class 3
  Database small2 = snapshot_db("small2", 7);      // same class
  Database large = snapshot_db("large", 400);      // different class

  auto q = ParseQuery("Q(X,Z) <- e(X,Y), e(Y,Z)");
  ASSERT_TRUE(q.has_value());

  CountingEngine engine;  // cost model on by default
  EXPECT_FALSE(engine.Count(*q, small).cache_hit);
  // Same shape, same profile class: the cached plan is reused.
  EXPECT_TRUE(engine.Count(*q, small2).cache_hit);
  // Same shape, different data class: the fingerprinted key forces a
  // re-plan ("same shape + same data profile => same plan").
  EXPECT_FALSE(engine.Count(*q, large).cache_hit);
  // And the large class is now warm too.
  EXPECT_TRUE(engine.Count(*q, large).cache_hit);

  // With the cost model off the key has no profile component, so every
  // database shares one cached plan per shape.
  EngineOptions off;
  off.enable_cost_model = false;
  CountingEngine blind(off);
  EXPECT_FALSE(blind.Count(*q, small).cache_hit);
  EXPECT_TRUE(blind.Count(*q, large).cache_hit);
}

// --- differential: cost model on == cost model off -------------------------

struct DiffCase {
  ConjunctiveQuery query;
  Database db;
  std::uint64_t seed = 0;
};

std::vector<DiffCase> MakeDiffCases(std::uint64_t first_seed,
                                    std::uint64_t last_seed, bool skewed) {
  std::vector<DiffCase> cases;
  for (std::uint64_t seed = first_seed; seed <= last_seed; ++seed) {
    RandomQueryParams qp;
    qp.num_vars = 4 + static_cast<int>(seed % 3);
    qp.num_atoms = 3 + static_cast<int>(seed % 3);
    qp.max_arity = 2 + static_cast<int>(seed % 2);
    qp.num_free = 1 + static_cast<int>(seed % 3);
    qp.num_relations = 2 + static_cast<int>(seed % 3);
    qp.force_acyclic = (seed % 2 == 0);
    qp.seed = seed;
    DiffCase c;
    c.query = MakeRandomQuery(qp);
    RandomDatabaseParams dp;
    dp.domain = skewed ? 6 : 3;
    dp.tuples_per_relation = 8 + static_cast<int>(seed % 5);
    dp.seed = seed * 0x9e3779b97f4a7c15ULL + 17;
    c.db = MakeRandomDatabase(c.query, dp);
    if (skewed) {
      // Heavy-tail the data: pile extra tuples onto one hot value per
      // relation so per-column max_group dwarfs the average (the regime the
      // degree-steer threshold and worklist priority react to).
      for (const Atom& atom : c.query.atoms()) {
        TableBuilder builder(atom.arity());
        builder.AddTable(*c.db.table(atom.relation));
        for (int i = 0; i < 12; ++i) {
          std::vector<Value> row(static_cast<std::size_t>(atom.arity()), 0);
          row.back() = i % 6;
          builder.AddRow(row);
        }
        c.db.SetTable(atom.relation, std::move(builder).Build());
      }
    }
    c.seed = seed;
    cases.push_back(std::move(c));
  }
  return cases;
}

void RunDifferential(const std::vector<DiffCase>& cases, bool via_snapshot) {
  CountingEngine on;  // default: cost model enabled
  EngineOptions off_options;
  off_options.enable_cost_model = false;
  CountingEngine off(off_options);

  const std::string dir = via_snapshot ? MakeScratchDir() : "";
  for (const DiffCase& c : cases) {
    const Database* db = &c.db;
    Database columnar;
    if (via_snapshot) {
      // Round-trip through a v2 snapshot: the cost-model engine then runs
      // on columnar tables with persisted stats installed (the production
      // serving shape).
      const std::string path =
          dir + "/case_" + std::to_string(c.seed) + ".sharpcq";
      Status error;
      ASSERT_TRUE(WriteSnapshot(c.db, nullptr, path, &error).has_value())
          << error;
      auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
      ASSERT_TRUE(loaded.has_value()) << error;
      columnar = std::move(loaded->db);
      db = &columnar;
    }
    const CountInt expected = off.Count(c.query, *db).count;
    EXPECT_EQ(CountByBacktracking(c.query, *db), expected)
        << "seed " << c.seed;
    CountResult steered = on.Count(c.query, *db);
    EXPECT_EQ(steered.count, expected)
        << "seed " << c.seed << " via " << steered.method;
    // And under every named strategy the two engines still agree.
    for (const char* strategy : {"sharp", "ps13", "hybrid"}) {
      auto options = PlannerOptionsForStrategy(strategy, PlannerOptions{});
      ASSERT_TRUE(options.has_value());
      EXPECT_EQ(on.Count(c.query, *db, *options).count,
                off.Count(c.query, *db, *options).count)
          << "seed " << c.seed << " strategy " << strategy;
    }
  }
}

TEST(CostModelDifferentialTest, UniformRandomInstancesAgree) {
  RunDifferential(MakeDiffCases(1, 120, /*skewed=*/false),
                  /*via_snapshot=*/false);
}

TEST(CostModelDifferentialTest, SkewedHeavyTailInstancesAgree) {
  RunDifferential(MakeDiffCases(301, 360, /*skewed=*/true),
                  /*via_snapshot=*/false);
}

TEST(CostModelDifferentialTest, ColumnarSnapshotBackedInstancesAgree) {
  // Through the snapshot the tables carry persisted stats, so every
  // cost-model consult actually fires (StatsIfPresent is non-null).
  RunDifferential(MakeDiffCases(401, 430, /*skewed=*/true),
                  /*via_snapshot=*/true);
}

TEST(CostModelDifferentialTest, MorselForcedCostModelAgrees) {
  // Cost model on with morsels forced tiny: the build-size-aware threshold
  // path and the reordered executions must still match the sequential
  // cost-model-off engine.
  EngineOptions on_options;
  on_options.batch_threads = 3;
  on_options.morsel_rows = 2;
  on_options.morsel_row_threshold = 1;
  CountingEngine on(on_options);
  EngineOptions off_options;
  off_options.enable_cost_model = false;
  off_options.enable_morsel_parallelism = false;
  CountingEngine off(off_options);

  for (const DiffCase& c : MakeDiffCases(501, 540, /*skewed=*/true)) {
    EXPECT_EQ(on.Count(c.query, c.db).count, off.Count(c.query, c.db).count)
        << "seed " << c.seed;
  }
}

// --- strategy choice -------------------------------------------------------

// splitmix64: the data below is a pure function of the seed.
std::uint64_t NextRandom(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// `rows` distinct pairs drawn uniformly from [0,domain) x [0,domain).
void AddRandomPairs(DatabaseBuilder* db, const std::string& name, int rows,
                    int domain, std::uint64_t* state) {
  std::set<std::pair<Value, Value>> seen;
  while (static_cast<int>(seen.size()) < rows) {
    const Value a = static_cast<Value>(NextRandom(state) % domain);
    const Value b = static_cast<Value>(NextRandom(state) % domain);
    if (seen.emplace(a, b).second) db->AddTuple(name, {a, b});
  }
}

// The mapped load of a v2 snapshot of `db`: columnar tables with persisted
// stats, the shape a catalog serves.
Database ViaSnapshot(const Database& db) {
  const std::string path = MakeScratchDir() + "/db.sharpcq";
  Status error;
  EXPECT_TRUE(WriteSnapshot(db, nullptr, path, &error).has_value()) << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  EXPECT_TRUE(loaded.has_value()) << error;
  return std::move(loaded->db);
}

ConjunctiveQuery ParseOrDie(const std::string& text) {
  auto q = ParseQuery(text);
  EXPECT_TRUE(q.has_value()) << text;
  return *q;
}

CountingPlan PlanWithProfile(const std::string& query, const Database& db) {
  const DataProfile profile = BuildDataProfile(db);
  return MakePlan(ParseOrDie(query), PlannerOptions{}, &profile);
}

constexpr const char* kChain4 = "Q(A,E) <- ca(A,B), cb(B,C), cc(C,D), cd(D,E)";
constexpr const char* kSkewedStar =
    "Q(X) <- center(X,P), la(X), lb(X), lc(X), sel(X)";

// The 4-chain: each relation `rows` pairs over a `domain`-value domain.
Database ChainDatabase(int rows, int domain) {
  std::uint64_t state = 1;
  DatabaseBuilder db;
  for (const char* name : {"ca", "cb", "cc", "cd"}) {
    AddRandomPairs(&db, name, rows, domain, &state);
  }
  return ViaSnapshot(std::move(db).Build());
}

// serve_hot's relations: s1..s4, 3000 pairs over 1500 values.
Database ServeDatabase() {
  std::uint64_t state = 2;
  DatabaseBuilder db;
  for (const char* name : {"s1", "s2", "s3", "s4"}) {
    AddRandomPairs(&db, name, 3000, 1500, &state);
  }
  return ViaSnapshot(std::move(db).Build());
}

// bench_cost_model's skewed star at a quarter of its size: a center with two
// rows per X, three leaves covering every X, and a 10-row filter.
Database SkewedStarDatabase() {
  constexpr int kDomain = 25000;
  DatabaseBuilder db;
  for (int i = 0; i < 2 * kDomain; ++i) db.AddTuple("center", {i % kDomain, i});
  for (int x = 0; x < kDomain; ++x) {
    db.AddTuple("la", {x});
    db.AddTuple("lb", {x});
    db.AddTuple("lc", {x});
  }
  for (int s = 0; s < 10; ++s) db.AddTuple("sel", {s * (kDomain / 10)});
  return ViaSnapshot(std::move(db).Build());
}

TEST(StrategyChoiceTest, CrossProductChainRunsPs13) {
  // Both width-2 bags are guarded by atom pairs that share no variable:
  // each guard join is a 4M-row cross product, PS13 does ~4M set tests.
  const Database db = ChainDatabase(2000, 700);
  const CountingPlan plan = PlanWithProfile(kChain4, db);
  EXPECT_EQ(plan.strategy, PlanStrategy::kAcyclicPs13);
  EXPECT_TRUE(plan.cost_model_steered);
  ASSERT_TRUE(plan.cost.sharp_ms.has_value());
  ASSERT_TRUE(plan.cost.ps13_ms.has_value());
  EXPECT_GT(*plan.cost.sharp_ms, 10.0 * *plan.cost.ps13_ms);
}

TEST(StrategyChoiceTest, ServeShapesKeepTheSharpHypertree) {
  // Small guard joins against PS13 #-sets in the thousands: the
  // #-hypertree is 6x-150x faster on these, and must stay the choice.
  const Database db = ServeDatabase();
  for (const char* query : {
           "Q(A,B,C) <- s1(X,A), s2(X,B), s3(X,C)",     // star3_leaves
           "Q(A) <- s1(A,B), s2(B,C), s3(C,D), s4(D,E)",  // path4
           "Q(A,C) <- s1(A,B), s2(B,C)",                  // path2
           "Q(X,A,B,C) <- s1(X,A), s2(X,B), s3(X,C)",     // star3
       }) {
    const CountingPlan plan = PlanWithProfile(query, db);
    EXPECT_EQ(plan.strategy, PlanStrategy::kSharpHypertree) << query;
    EXPECT_FALSE(plan.cost_model_steered) << query;
    EXPECT_TRUE(plan.cost.sharp_ms.has_value()) << query;
    EXPECT_TRUE(plan.cost.ps13_ms.has_value()) << query;
  }
}

TEST(StrategyChoiceTest, SkewedStarRunsPs13) {
  // The width-1 bag is the whole center, semijoined with all five atoms;
  // PS13 reduces everything to sel's 10 values first.
  const Database db = SkewedStarDatabase();
  const CountingPlan plan = PlanWithProfile(kSkewedStar, db);
  EXPECT_EQ(plan.strategy, PlanStrategy::kAcyclicPs13);
  EXPECT_TRUE(plan.cost_model_steered);

  CountingEngine engine;
  const CountResult result = engine.Count(ParseOrDie(kSkewedStar), db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.method, "acyclic-ps13");
  EXPECT_EQ(result.count, CountInt{10});
}

TEST(StrategyChoiceTest, NoProfileKeepsTheStructuralChoice) {
  for (const char* query : {kChain4, kSkewedStar}) {
    const CountingPlan plan = MakePlan(ParseOrDie(query));
    EXPECT_EQ(plan.strategy, PlanStrategy::kSharpHypertree) << query;
    EXPECT_FALSE(plan.cost_model_steered) << query;
    EXPECT_FALSE(plan.cost.sharp_ms.has_value()) << query;
    EXPECT_FALSE(plan.cost.ps13_ms.has_value()) << query;
    EXPECT_GT(plan.cost.db_exponent, 0.0) << query;
  }
  // The engine with its cost model off plans without a profile.
  EngineOptions off;
  off.enable_cost_model = false;
  CountingEngine blind(off);
  EXPECT_EQ(blind.Plan(ParseOrDie(kChain4)).plan->strategy,
            PlanStrategy::kSharpHypertree);
}

const TraceNode* FindSpan(const TraceNode& node, const std::string& name) {
  for (const auto& child : node.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

const std::string* FindSpanNote(const TraceNode& node, const std::string& key) {
  for (const auto& [k, v] : node.notes) {
    if (k == key) return &v;
  }
  return nullptr;
}

TEST(StrategyChoiceTest, PlanSpanAndDebugStringExplainTheChoice) {
  const Database chain = ChainDatabase(2000, 700);
  CountingEngine engine;
  Trace trace;
  const CountResult steered = engine.Count(ParseOrDie(kChain4), chain,
                                           PlannerOptions{}, nullptr, &trace);
  ASSERT_TRUE(steered.ok());
  EXPECT_EQ(steered.method, "acyclic-ps13");
  EXPECT_TRUE(steered.cost_model_steered);
  const TraceNode* plan = FindSpan(trace.root(), "plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(FindSpanNote(*plan, "strategy"), nullptr);
  EXPECT_EQ(*FindSpanNote(*plan, "strategy"), "acyclic-ps13");
  ASSERT_NE(FindSpanNote(*plan, "est_sharp"), nullptr);
  ASSERT_NE(FindSpanNote(*plan, "est_ps13"), nullptr);
  EXPECT_GT(std::stod(*FindSpanNote(*plan, "est_sharp")),
            std::stod(*FindSpanNote(*plan, "est_ps13")));
  ASSERT_NE(FindSpanNote(*plan, "cost_model"), nullptr);
  EXPECT_EQ(*FindSpanNote(*plan, "cost_model"), "steered");

  const std::string debug = PlanWithProfile(kChain4, chain).DebugString();
  EXPECT_NE(debug.find("strategy: acyclic-ps13"), std::string::npos) << debug;
  EXPECT_NE(debug.find("est_sharp="), std::string::npos) << debug;
  EXPECT_NE(debug.find("est_ps13="), std::string::npos) << debug;
  EXPECT_NE(debug.find("(steered)"), std::string::npos) << debug;

  // The structural choice standing: both estimates noted, nothing steered.
  const Database serve = ServeDatabase();
  const char* path4 = "Q(A) <- s1(A,B), s2(B,C), s3(C,D), s4(D,E)";
  Trace kept;
  ASSERT_TRUE(engine
                  .Count(ParseOrDie(path4), serve, PlannerOptions{}, nullptr,
                         &kept)
                  .ok());
  plan = FindSpan(kept.root(), "plan");
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(*FindSpanNote(*plan, "strategy"), "sharp-hypertree");
  EXPECT_NE(FindSpanNote(*plan, "est_sharp"), nullptr);
  EXPECT_NE(FindSpanNote(*plan, "est_ps13"), nullptr);
  EXPECT_EQ(FindSpanNote(*plan, "cost_model"), nullptr);
  const std::string kept_debug = PlanWithProfile(path4, serve).DebugString();
  EXPECT_NE(kept_debug.find("est_ps13="), std::string::npos) << kept_debug;
  EXPECT_EQ(kept_debug.find("(steered)"), std::string::npos) << kept_debug;
}

// An acyclic instance from one of four families: chains with both ends
// free (cross-product guards: the PS13 regime), stars with free leaves and
// an existential center, stars and paths whose free variables sit in
// single atoms (the #-hypertree regime), and random acyclic queries.
struct ChoiceCase {
  ConjunctiveQuery query;
  Database db;
};

ChoiceCase MakeChoiceCase(std::uint64_t seed) {
  std::uint64_t state = seed * 0x2545F4914F6CDD1Dull + 7;
  const int domain = 8 + static_cast<int>(NextRandom(&state) % 40);
  int rows = std::min(30 + static_cast<int>(NextRandom(&state) % 90),
                      domain * domain / 2);
  const int length = 3 + static_cast<int>(NextRandom(&state) % 3);
  std::string text;
  std::vector<std::string> relations;
  switch (seed % 4) {
    case 0: {  // chain, both ends free
      std::string body;
      for (int i = 0; i < length; ++i) {
        relations.push_back("r" + std::to_string(i));
        body += (i > 0 ? ", " : "") + relations.back() + "(X" +
                std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
      }
      text = "Q(X0,X" + std::to_string(length) + ") <- " + body;
      break;
    }
    case 1: {  // star, three free leaves, existential center
      // Backtracking visits every answer, and answers grow as degree^3
      // here: keep the relations small.
      rows = std::min(rows, 50);
      std::string head;
      std::string body;
      for (int i = 0; i < 3; ++i) {
        relations.push_back("r" + std::to_string(i));
        head += (i > 0 ? "," : "") + std::string("L") + std::to_string(i);
        body += (i > 0 ? ", " : "") + relations.back() + "(C,L" +
                std::to_string(i) + ")";
      }
      text = "Q(" + head + ") <- " + body;
      break;
    }
    case 2: {  // path with one free end
      std::string body;
      for (int i = 0; i < length; ++i) {
        relations.push_back("r" + std::to_string(i));
        body += (i > 0 ? ", " : "") + relations.back() + "(X" +
                std::to_string(i) + ",X" + std::to_string(i + 1) + ")";
      }
      text = "Q(X0) <- " + body;
      break;
    }
    default: {
      RandomQueryParams qp;
      qp.num_vars = 4 + static_cast<int>(seed % 3);
      qp.num_atoms = 3 + static_cast<int>(seed % 3);
      qp.max_arity = 2;
      qp.num_free = 1 + static_cast<int>(seed % 3);
      qp.num_relations = 3;
      qp.force_acyclic = true;
      qp.seed = seed;
      ChoiceCase c;
      c.query = MakeRandomQuery(qp);
      RandomDatabaseParams dp;
      dp.domain = domain;
      dp.tuples_per_relation = rows;
      dp.seed = seed;
      c.db = MakeRandomDatabase(c.query, dp);
      return c;
    }
  }
  ChoiceCase c;
  c.query = ParseOrDie(text);
  DatabaseBuilder builder;
  for (const std::string& name : relations) {
    AddRandomPairs(&builder, name, rows, domain, &state);
  }
  c.db = std::move(builder).Build();
  return c;
}

TEST(StrategyChoiceDifferentialTest, AutoAgreesWithEveryForcedStrategy) {
  CountingEngine engine;  // cost model on: `auto` reads the data profile
  const auto sharp = PlannerOptionsForStrategy("sharp", PlannerOptions{});
  const auto ps13 = PlannerOptionsForStrategy("ps13", PlannerOptions{});
  ASSERT_TRUE(sharp.has_value() && ps13.has_value());
  int auto_ps13 = 0;
  int auto_sharp = 0;
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    ChoiceCase c = MakeChoiceCase(seed);
    // Half the instances carry persisted column stats, half are built in
    // memory (stats computed on first profile).
    const Database db = seed % 2 == 0 ? ViaSnapshot(c.db) : std::move(c.db);
    const CountResult chosen = engine.Count(c.query, db);
    ASSERT_TRUE(chosen.ok()) << "seed " << seed;
    const CountInt expected = CountByBacktracking(c.query, db);
    EXPECT_EQ(chosen.count, expected)
        << "seed " << seed << " via " << chosen.method;
    EXPECT_EQ(engine.Count(c.query, db, *sharp).count, expected)
        << "seed " << seed;
    EXPECT_EQ(engine.Count(c.query, db, *ps13).count, expected)
        << "seed " << seed;
    if (chosen.method == "acyclic-ps13") ++auto_ps13;
    if (chosen.method.rfind("#-hypertree", 0) == 0) ++auto_sharp;
  }
  // Both regimes are exercised: the estimates moved some instances off the
  // structural choice and left others on it.
  EXPECT_GE(auto_ps13, 30);
  EXPECT_GE(auto_sharp, 30);
}

// --- decomposition choice --------------------------------------------------
//
// With a profile the #-hypertree search weights each bag by its estimated
// materialization cost, so among the minimal-width decompositions it picks
// the one the data makes cheapest (count_heavy's cycle4 and q0 ran one
// cross-product bag before: 6.25M rows where two joined bags of ~42K do
// the same job).

constexpr const char* kCycle4 = "Q(A,C) <- y1(A,B), y2(B,C), y3(C,D), y4(D,A)";
constexpr const char* kQ0 =
    "Q(A,B,C) <- mw(A,B,I), wt(B,D), wi(B,E), pt(C,D), st(D,F), st(D,G), "
    "rr(G,H), rr(F,H), rr(D,H)";

// The 4-cycle's relations: 600 pairs over 40 values each.
Database Cycle4Database() {
  std::uint64_t state = 4;
  DatabaseBuilder db;
  for (const char* name : {"y1", "y2", "y3", "y4"}) {
    AddRandomPairs(&db, name, 600, 40, &state);
  }
  return ViaSnapshot(std::move(db).Build());
}

// `rows` distinct pairs over [base1, base1+n1) x [base2, base2+n2).
void AddShiftedPairs(DatabaseBuilder* db, const std::string& name, int rows,
                     Value base1, int n1, Value base2, int n2,
                     std::uint64_t* state) {
  std::set<std::pair<Value, Value>> seen;
  while (static_cast<int>(seen.size()) < rows) {
    const Value a = base1 + static_cast<Value>(NextRandom(state) % n1);
    const Value b = base2 + static_cast<Value>(NextRandom(state) % n2);
    if (seen.emplace(a, b).second) db->AddTuple(name, {a, b});
  }
}

// The paper's workforce schema for Q0 (Example 1.1) at a reduced scale,
// entity ids in disjoint ranges; rr's first column ranges over tasks and
// subtasks, so rr(D,H) and rr(F,H) both join.
Database Q0Database() {
  constexpr int kMachines = 20, kWorkers = 40, kTasks = 30, kProjects = 10,
                kSubtasks = 30, kResources = 20;
  constexpr Value kM = 1000000, kW = 2000000, kT = 3000000, kP = 4000000,
                  kS = 5000000, kR = 6000000, kI = 7000000;
  std::uint64_t state = 5;
  DatabaseBuilder db;
  std::set<std::pair<Value, Value>> seen;
  while (seen.size() < 200) {
    const Value m = kM + static_cast<Value>(NextRandom(&state) % kMachines);
    const Value w = kW + static_cast<Value>(NextRandom(&state) % kWorkers);
    if (seen.emplace(m, w).second) {
      db.AddTuple("mw", {m, w, 1 + static_cast<Value>(NextRandom(&state) % 40)});
    }
  }
  for (Value w = 0; w < kWorkers; ++w) db.AddTuple("wi", {kW + w, kI + w});
  AddShiftedPairs(&db, "wt", 200, kW, kWorkers, kT, kTasks, &state);
  AddShiftedPairs(&db, "pt", 80, kP, kProjects, kT, kTasks, &state);
  AddShiftedPairs(&db, "st", 200, kT, kTasks, kS, kSubtasks, &state);
  std::set<std::pair<Value, Value>> rr;
  while (rr.size() < 300) {
    const Value i =
        static_cast<Value>(NextRandom(&state) % (kTasks + kSubtasks));
    const Value task = i < kTasks ? kT + i : kS + (i - kTasks);
    const Value r = kR + static_cast<Value>(NextRandom(&state) % kResources);
    if (rr.emplace(task, r).second) db.AddTuple("rr", {task, r});
  }
  return ViaSnapshot(std::move(db).Build());
}

// True when the guard's atoms are connected through shared variables, i.e.
// its join is not (in part) a cross product.
bool GuardIsConnected(const ConjunctiveQuery& q, const std::vector<int>& guard) {
  IdSet reached = q.atoms()[static_cast<std::size_t>(guard[0])].Vars();
  std::vector<bool> joined(guard.size(), false);
  joined[0] = true;
  for (bool grew = true; grew;) {
    grew = false;
    for (std::size_t g = 1; g < guard.size(); ++g) {
      const IdSet vars = q.atoms()[static_cast<std::size_t>(guard[g])].Vars();
      if (joined[g] || !vars.Intersects(reached)) continue;
      joined[g] = grew = true;
      reached = Union(reached, vars);
    }
  }
  return std::find(joined.begin(), joined.end(), false) == joined.end();
}

bool SameDecomposition(const SharpDecomposition& a,
                       const SharpDecomposition& b) {
  return a.tree.bags == b.tree.bags && a.tree.view_ids == b.tree.view_ids;
}

// The profiled plan avoids cross-product guards, has at least two bags,
// and its est_sharp (the search objective) beats the fewest-bags
// decomposition's estimate under the same profile.
void ExpectCheaperThanFewestBags(const char* query, const Database& db) {
  const ConjunctiveQuery q = ParseOrDie(query);
  const DataProfile profile = BuildDataProfile(db);
  const CountingPlan plan = MakePlan(q, PlannerOptions{}, &profile);
  const CountingPlan fewest = MakePlan(q);
  ASSERT_EQ(plan.strategy, PlanStrategy::kSharpHypertree) << query;
  ASSERT_TRUE(plan.sharp.has_value() && fewest.sharp.has_value());
  EXPECT_EQ(plan.width_budget, 2) << query;
  EXPECT_EQ(plan.width_budget, fewest.width_budget) << query;
  const std::string debug = plan.DebugString();
  EXPECT_GE(plan.sharp->tree.bags.size(), 2u) << debug;
  for (int view : plan.sharp->tree.view_ids) {
    const std::vector<int>& guard =
        plan.sharp->views.guards[static_cast<std::size_t>(view)];
    EXPECT_TRUE(GuardIsConnected(q, guard)) << debug;
  }
  ASSERT_TRUE(plan.cost.sharp_ms.has_value());
  EXPECT_DOUBLE_EQ(*plan.cost.sharp_ms,
                   EstimateSharpMs(*plan.sharp, q, profile));
  const double fewest_ms = EstimateSharpMs(*fewest.sharp, q, profile);
  EXPECT_LT(*plan.cost.sharp_ms, fewest_ms) << debug;
  EXPECT_EQ(plan.cost.bag_rows.size(), plan.sharp->tree.bags.size());

  // Both decompositions count the same.
  CountingEngine engine;
  const CountResult result = engine.Count(q, db);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.method, "#-hypertree(k=2)");
  EXPECT_EQ(result.count, CountByBacktracking(q, db)) << query;
}

TEST(DecompositionChoiceTest, CycleAvoidsTheCrossProductBag) {
  ExpectCheaperThanFewestBags(kCycle4, Cycle4Database());
}

TEST(DecompositionChoiceTest, Q0AvoidsTheCrossProductBag) {
  ExpectCheaperThanFewestBags(kQ0, Q0Database());
}

TEST(DecompositionChoiceTest, NoProfileKeepsTheFewestBags) {
  for (const char* query : {kCycle4, kQ0}) {
    const ConjunctiveQuery q = ParseOrDie(query);
    const CountingPlan plan = MakePlan(q);
    ASSERT_TRUE(plan.sharp.has_value()) << query;
    EXPECT_TRUE(plan.cost.bag_rows.empty()) << query;
    // The structural search, unweighted: bag count is its objective.
    const auto structural = FindSharpHypertreeDecomposition(q, 2);
    ASSERT_TRUE(structural.has_value()) << query;
    EXPECT_TRUE(SameDecomposition(*plan.sharp, *structural))
        << plan.DebugString();
    // Without full_profile the planner takes the same decomposition.
    PlannerOptions minimal;
    minimal.full_profile = false;
    const CountingPlan minimal_plan = MakePlan(q, minimal);
    ASSERT_TRUE(minimal_plan.sharp.has_value()) << query;
    EXPECT_TRUE(SameDecomposition(*minimal_plan.sharp, *structural)) << query;
  }
}

TEST(DecompositionChoiceTest, PlanSpanAndDebugStringShowTheBags) {
  const Database db = Cycle4Database();
  CountingEngine engine;
  Trace trace;
  ASSERT_TRUE(engine
                  .Count(ParseOrDie(kCycle4), db, PlannerOptions{}, nullptr,
                         &trace)
                  .ok());
  const TraceNode* plan = FindSpan(trace.root(), "plan");
  ASSERT_NE(plan, nullptr);
  ASSERT_NE(FindSpanNote(*plan, "bags"), nullptr);
  EXPECT_EQ(*FindSpanNote(*plan, "bags"), "2");

  const std::string debug = PlanWithProfile(kCycle4, db).DebugString();
  EXPECT_NE(debug.find("decomposition: 2 bags"), std::string::npos) << debug;
  EXPECT_NE(debug.find("bag 0 {"), std::string::npos) << debug;
  EXPECT_NE(debug.find("guard y"), std::string::npos) << debug;
  EXPECT_NE(debug.find("est_rows="), std::string::npos) << debug;
  // Without a profile the bags are listed, with no estimates.
  const std::string blind = MakePlan(ParseOrDie(kCycle4)).DebugString();
  EXPECT_NE(blind.find("decomposition: 1 bag"), std::string::npos) << blind;
  EXPECT_EQ(blind.find("est_rows="), std::string::npos) << blind;
}

// A cyclic instance: a 4- or 5-cycle with a random free set, a triangle
// with pendant atoms, or a Q0-shaped query (self-joins included), over
// uniform or skewed data.
struct CyclicCase {
  ConjunctiveQuery query;
  Database db;
};

CyclicCase MakeCyclicCase(std::uint64_t seed) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ull + 11;
  const int domain = 4 + static_cast<int>(NextRandom(&state) % 9);
  const int rows = std::min(8 + static_cast<int>(NextRandom(&state) % 30),
                            domain * domain / 2);
  // Skewed instances pile extra rows onto one hot value per relation.
  const bool skewed = seed % 3 == 0;
  std::vector<std::string> atoms;  // "r(X,Y)" strings
  std::vector<std::string> vars;
  switch (seed % 4) {
    case 0:
    case 1: {  // 4- or 5-cycle
      const int length = seed % 4 == 0 ? 4 : 5;
      for (int i = 0; i < length; ++i) vars.push_back("X" + std::to_string(i));
      for (int i = 0; i < length; ++i) {
        atoms.push_back("r" + std::to_string(i) + "(" + vars[i] + "," +
                        vars[(i + 1) % length] + ")");
      }
      break;
    }
    case 2: {  // triangle with one or two pendant atoms
      vars = {"A", "B", "C", "P", "R"};
      atoms = {"r0(A,B)", "r1(B,C)", "r2(C,A)", "r3(A,P)"};
      if (NextRandom(&state) % 2 == 0) atoms.push_back("r4(C,R)");
      else vars.pop_back();
      break;
    }
    default: {  // Q0-shaped
      vars = {"A", "B", "C", "D", "E", "F", "G", "H", "I"};
      atoms = {"mw(A,B,I)", "wt(B,D)", "wi(B,E)", "pt(C,D)", "st(D,F)",
               "st(D,G)", "rr(G,H)", "rr(F,H)", "rr(D,H)"};
      break;
    }
  }
  std::string head;
  for (const std::string& v : vars) {
    if (NextRandom(&state) % 2 != 0) continue;
    head += (head.empty() ? "" : ",") + v;
  }
  std::string body;
  for (const std::string& a : atoms) body += (body.empty() ? "" : ", ") + a;
  CyclicCase c;
  c.query = ParseOrDie("Q(" + head + ") <- " + body);
  DatabaseBuilder builder;
  std::set<std::string> declared;
  for (const Atom& atom : c.query.atoms()) {
    if (!declared.insert(atom.relation).second) continue;
    const std::size_t arity = atom.terms.size();
    std::set<std::vector<Value>> seen;
    while (static_cast<int>(seen.size()) < rows) {
      std::vector<Value> row(arity);
      for (Value& v : row) v = static_cast<Value>(NextRandom(&state) % domain);
      if (seen.insert(row).second) builder.AddTuple(atom.relation, row);
    }
    for (int i = 0; skewed && i < rows / 2; ++i) {
      std::vector<Value> row(arity, 0);
      row.back() = static_cast<Value>(i % domain);
      if (seen.insert(row).second) builder.AddTuple(atom.relation, row);
    }
  }
  c.db = std::move(builder).Build();
  return c;
}

TEST(DecompositionChoiceDifferentialTest, CostGuidedAgreesWithFewestBags) {
  CountingEngine guided;  // cost model on: the profile weights the bags
  EngineOptions off;
  off.enable_cost_model = false;
  CountingEngine blind(off);
  const auto sharp = PlannerOptionsForStrategy("sharp", PlannerOptions{});
  ASSERT_TRUE(sharp.has_value());
  int changed = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    CyclicCase c = MakeCyclicCase(seed);
    // Half the instances carry persisted column stats, half are built in
    // memory (stats computed on first profile).
    const Database db = seed % 2 == 0 ? ViaSnapshot(c.db) : std::move(c.db);
    const CountResult chosen = guided.Count(c.query, db);
    ASSERT_TRUE(chosen.ok()) << "seed " << seed;
    const CountInt expected = CountByBacktracking(c.query, db);
    EXPECT_EQ(chosen.count, expected)
        << "seed " << seed << " via " << chosen.method;
    EXPECT_EQ(blind.Count(c.query, db, *sharp).count, expected)
        << "seed " << seed;

    const DataProfile profile = BuildDataProfile(db);
    const CountingPlan weighted = MakePlan(c.query, PlannerOptions{}, &profile);
    const CountingPlan fewest = MakePlan(c.query);
    ASSERT_EQ(weighted.sharp.has_value(), fewest.sharp.has_value())
        << "seed " << seed;
    if (weighted.sharp.has_value() &&
        !SameDecomposition(*weighted.sharp, *fewest.sharp)) {
      ++changed;
      EXPECT_LE(*weighted.cost.sharp_ms,
                EstimateSharpMs(*fewest.sharp, c.query, profile))
          << "seed " << seed;
    }
  }
  // The weighting actually moved a good share of the instances.
  EXPECT_GE(changed, 30);
}

// --- concurrency -----------------------------------------------------------

TEST(CostModelConcurrencyTest, ConcurrentLazyStatsComputeOnce) {
  // Many threads racing the double-checked lazy Stats() computation: the
  // sanitizer CI legs run this test, so a data race in the compute-outside-
  // the-lock/first-install-wins protocol would trip TSan here.
  std::vector<std::vector<Value>> rows;
  for (Value i = 0; i < 512; ++i) rows.push_back({i % 17, i % 3, i});
  auto table = BuildTable(rows);

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const TableStats>> seen(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &seen, t] { seen[t] = table->Stats(); });
  }
  for (std::thread& thread : threads) thread.join();

  // Whoever computed, exactly one result was installed and everyone agrees
  // with the ground truth.
  const TableStats expected = ComputeTableStats(*table);
  for (const auto& stats : seen) {
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(*stats, expected);
    EXPECT_EQ(stats.get(), table->StatsIfPresent().get());
  }
  EXPECT_EQ(expected.columns[0].distinct, 17u);
  EXPECT_EQ(expected.columns[2].distinct, 512u);
}

TEST(CostModelConcurrencyTest, ConcurrentCountsWithCostModelOn) {
  // Batch counting over a snapshot-backed database with the cost model on:
  // concurrent jobs consult shared stats, reorder join trees, and run the
  // priority worklist under TSan.
  DatabaseBuilder builder;
  for (int i = 0; i < 200; ++i) {
    builder.AddTuple("e", {i % 20, (i * 3) % 40});
    builder.AddTuple("f", {(i * 5) % 40, i % 10});
  }
  const Database source = std::move(builder).Build();
  const std::string dir = MakeScratchDir();
  const std::string path = dir + "/batch.sharpcq";
  Status error;
  ASSERT_TRUE(WriteSnapshot(source, nullptr, path, &error).has_value())
      << error;
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  ASSERT_TRUE(loaded.has_value()) << error;

  auto q = ParseQuery("Q(X,Z) <- e(X,Y), f(Y,Z)");
  ASSERT_TRUE(q.has_value());
  EngineOptions options;
  options.batch_threads = 4;
  CountingEngine engine(options);
  const CountInt expected = engine.Count(*q, loaded->db).count;

  std::vector<CountJob> jobs(16, CountJob{*q, &loaded->db});
  for (const CountResult& result : engine.CountBatch(jobs)) {
    EXPECT_EQ(result.count, expected);
  }
}

}  // namespace
}  // namespace sharpcq
