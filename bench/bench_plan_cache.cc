// Plan-cache throughput: the engine's pitch is that structural
// classification (core computation + width searches) is query-only and
// cacheable, so a service answering repeated query shapes pays it once.
// This benchmark measures that directly on the paper's queries:
//
//   - BM_Plan_Cold/*       planning with the cache cleared every iteration
//                          (the per-count cost without a plan cache);
//   - BM_Plan_Cached/*     planning against a warm cache (canonicalize +
//                          lookup only);
//   - BM_Count_Cold/*      full plan+execute with a cold cache;
//   - BM_Count_Cached/*    steady-state serving: execute with a cached plan.
//
// Baseline snapshot: BENCH_plan_cache.json at the repository root
// (regenerate with --benchmark_format=json).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "util/check.h"

namespace sharpcq {
namespace {

// The repeated-shape workload: each paper query family member by name.
ConjunctiveQuery QueryByIndex(int index) {
  switch (index) {
    case 0:
      return MakeQ0();  // cyclic, #-htw 2
    case 1:
      return MakeQ1();  // square, #-htw 2
    case 2:
      return MakeQn1(5);  // chain family, #-htw 1, big colored core
    default:
      return MakeQh2(3);  // acyclic, #-htw 4 (width search fails at 3)
  }
}

Database DatabaseByIndex(int index) {
  switch (index) {
    case 0: {
      Q0DatabaseParams params;
      params.seed = 7;
      return MakeQ0Database(params);
    }
    case 1:
      return MakeQ1Database(8, 24, 7);
    case 2:
      return MakeQn1RandomDatabase(10, 30, 7);
    default:
      return MakeQh2Database(3);
  }
}

void BM_Plan_Cold(benchmark::State& state) {
  ConjunctiveQuery q = QueryByIndex(static_cast<int>(state.range(0)));
  CountingEngine engine;
  for (auto _ : state) {
    engine.ClearCache();
    CountingEngine::Planned planned = engine.Plan(q);
    SHARPCQ_CHECK(!planned.cache_hit);
    benchmark::DoNotOptimize(planned);
  }
}
BENCHMARK(BM_Plan_Cold)->DenseRange(0, 3);

void BM_Plan_Cached(benchmark::State& state) {
  ConjunctiveQuery q = QueryByIndex(static_cast<int>(state.range(0)));
  CountingEngine engine;
  engine.Plan(q);  // warm
  for (auto _ : state) {
    CountingEngine::Planned planned = engine.Plan(q);
    SHARPCQ_CHECK(planned.cache_hit);
    benchmark::DoNotOptimize(planned);
  }
  state.counters["cache_hits"] =
      static_cast<double>(engine.cache_stats().hits);
}
BENCHMARK(BM_Plan_Cached)->DenseRange(0, 3);

void BM_Count_Cold(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  ConjunctiveQuery q = QueryByIndex(index);
  Database db = DatabaseByIndex(index);
  CountingEngine engine;
  CountInt answers = 0;
  for (auto _ : state) {
    engine.ClearCache();
    CountResult result = engine.Count(q, db);
    answers = result.count;
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Count_Cold)->DenseRange(0, 3);

void BM_Count_Cached(benchmark::State& state) {
  const int index = static_cast<int>(state.range(0));
  ConjunctiveQuery q = QueryByIndex(index);
  Database db = DatabaseByIndex(index);
  CountingEngine engine;
  engine.Count(q, db);  // warm
  CountInt answers = 0;
  for (auto _ : state) {
    CountResult result = engine.Count(q, db);
    SHARPCQ_CHECK(result.cache_hit);
    answers = result.count;
    benchmark::DoNotOptimize(result);
  }
  state.counters["answers"] = static_cast<double>(answers);
}
BENCHMARK(BM_Count_Cached)->DenseRange(0, 3);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
