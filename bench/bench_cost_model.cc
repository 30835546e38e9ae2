// The statistics-driven cost model on its pessimal inputs (ISSUE 8): data
// whose textual atom order is exactly wrong for the fixed schedulers, so
// every win has to come from the persisted data profile.
//
//   - BM_SkewedStar_CostOn/Off: a 5-atom acyclic star whose single
//     selective filter atom is listed LAST. The cost-model run reorders the
//     join-tree children so the selective semijoin shrinks the 200k-row
//     center before the three unselective leaves probe it; the cost-off run
//     probes the full center three times first. CI gates the Off/On ratio
//     at >= 1.3x (best of 3 repetitions).
//   - BM_ReversedChain_CostOn/Off: a 3-atom chain whose tiny end relation
//     is listed last — GYO roots the tree at the middle atom, and the
//     cost model hoists the tiny child ahead of the 200k-row sibling so
//     the root shrinks before the expensive probe. Informational, not
//     gated.
//
// Both databases round-trip through a v2 snapshot before counting, so the
// engines run on columnar tables with persisted stats (the production
// serving shape; the cost model consults stats without a computation pass).
//
// Baseline snapshot: BENCH_cost_model.json at the repository root
// (regenerate with --benchmark_format=json from an optimized build).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstdio>
#include <string>
#include <unistd.h>

#include "engine/engine.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "util/check.h"

namespace sharpcq {
namespace {

constexpr int kDomain = 100000;   // X values
constexpr int kCenterRows = 200000;
constexpr int kSelective = 10;    // rows in the filter atom

// Round-trips `db` through a temporary v2 snapshot and returns the mapped
// (columnar, stats-installed) load — the shape a catalog serves.
Database SnapshotRoundTrip(const Database& db, const char* tag) {
  std::string path = "/tmp/sharpcq_bench_cost_" + std::string(tag) + "_" +
                     std::to_string(::getpid()) + ".sharpcq";
  Status error;
  auto stats = WriteSnapshot(db, nullptr, path, &error);
  SHARPCQ_CHECK_MSG(stats.has_value(), error.message().c_str());
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  SHARPCQ_CHECK_MSG(loaded.has_value(), error.message().c_str());
  ::unlink(path.c_str());  // the mapping keeps the pages alive
  return std::move(loaded->db);
}

// Star: center(X,P) with 200k rows over a 100k X-domain, three unselective
// leaves covering the whole domain, and a 10-row filter atom. The filter is
// the LAST atom textually, so the default child order runs it last.
const Database& StarDb() {
  static const Database db = [] {
    DatabaseBuilder raw;
    for (int i = 0; i < kCenterRows; ++i) {
      raw.AddTuple("center", {i % kDomain, i});
    }
    for (int x = 0; x < kDomain; ++x) {
      raw.AddTuple("leaf_a", {x});
      raw.AddTuple("leaf_b", {x});
      raw.AddTuple("leaf_c", {x});
    }
    for (int s = 0; s < kSelective; ++s) {
      raw.AddTuple("sel", {s * (kDomain / kSelective)});
    }
    return SnapshotRoundTrip(std::move(raw).Build(), "star");
  }();
  return db;
}

// Chain: r1 and r2 carry 200k rows, r3 ends in a 10-row relation. GYO
// roots the join tree at the middle atom r2; the default child order
// visits the 200k-row r1 before the 10-row r3.
const Database& ChainDb() {
  static const Database db = [] {
    DatabaseBuilder raw;
    for (int i = 0; i < kCenterRows; ++i) {
      raw.AddTuple("r1", {i % kDomain, (i * 7) % kDomain});
      raw.AddTuple("r2", {(i * 7) % kDomain, (i * 13) % kDomain});
    }
    for (int s = 0; s < kSelective; ++s) {
      raw.AddTuple("r3", {(s * 13) % kDomain, s});
    }
    return SnapshotRoundTrip(std::move(raw).Build(), "chain");
  }();
  return db;
}

ConjunctiveQuery StarQuery() {
  auto q = ParseQuery(
      "Q(X) <- center(X,P), leaf_a(X), leaf_b(X), leaf_c(X), sel(X)");
  SHARPCQ_CHECK(q.has_value());
  return *q;
}

ConjunctiveQuery ChainQuery() {
  auto q = ParseQuery("Q(A) <- r1(A,B), r2(B,C), r3(C,D)");
  SHARPCQ_CHECK(q.has_value());
  return *q;
}

CountingEngine& Engine(bool cost_model) {
  static CountingEngine on;  // default options: cost model enabled
  static CountingEngine off([] {
    EngineOptions options;
    options.enable_cost_model = false;
    return options;
  }());
  return cost_model ? on : off;
}

void RunCountLoop(benchmark::State& state, const ConjunctiveQuery& q,
                  const Database& db, bool cost_model, bool expect_steered) {
  CountingEngine& engine = Engine(cost_model);
  // Strategy pinned to the acyclic PS13 path: both settings execute the
  // same exact algorithm over the same join tree; only the scheduling
  // (rooting, child order, worklist, morsels) may differ.
  auto options = PlannerOptionsForStrategy("ps13", engine.options().planner);
  SHARPCQ_CHECK(options.has_value());
  CountInt answers = 0;
  for (auto _ : state) {
    CountResult result = engine.Count(q, db, *options);
    SHARPCQ_CHECK(result.method == "acyclic-ps13");
    SHARPCQ_CHECK(result.cost_model_steered == expect_steered);
    answers = result.count;
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_SkewedStar_CostOn(benchmark::State& state) {
  RunCountLoop(state, StarQuery(), StarDb(), /*cost_model=*/true,
               /*expect_steered=*/true);
}
BENCHMARK(BM_SkewedStar_CostOn);

void BM_SkewedStar_CostOff(benchmark::State& state) {
  RunCountLoop(state, StarQuery(), StarDb(), /*cost_model=*/false,
               /*expect_steered=*/false);
}
BENCHMARK(BM_SkewedStar_CostOff);

void BM_ReversedChain_CostOn(benchmark::State& state) {
  RunCountLoop(state, ChainQuery(), ChainDb(), /*cost_model=*/true,
               /*expect_steered=*/true);
}
BENCHMARK(BM_ReversedChain_CostOn);

void BM_ReversedChain_CostOff(benchmark::State& state) {
  RunCountLoop(state, ChainQuery(), ChainDb(), /*cost_model=*/false,
               /*expect_steered=*/false);
}
BENCHMARK(BM_ReversedChain_CostOff);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
