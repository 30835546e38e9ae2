// Data-aware strategy choice: on shapes whose best exact strategy depends
// on the data, `auto` (the engine's default planner, cost model on) must
// run within 1.5x of the best strategy forced by name.
//
//   - chain4 at 2000/700 and 6000/2000 rows/domain: both width-2 bags are
//     guarded by atom pairs that share no variable, so the #-hypertree
//     materializes cross products (4M and 36M rows); PS13 wins.
//   - star3_leaves and path4 at 3000/1500 (serve_hot's shapes): small
//     guard joins against thousands of PS13 #-sets; the #-hypertree wins.
//   - skewed_star (bench_cost_model's data): the #-hypertree semijoins five
//     atoms into its 200K-row bag, PS13 first reduces to the filter's 10
//     values; PS13 wins.
//   - triangle_control: cyclic, so PS13 is not a candidate and `auto` must
//     keep the #-hypertree.
//   - cycle4_2500x150 (count_heavy's cycle4): cyclic, so the choice is
//     among width-2 #-hypertree decompositions (and #b). The fewest-bags
//     one is a single bag guarded by a 6.25M-row cross product; the
//     profile picks two joined bags of ~42K rows each.
//
// Each case registers BM_StrategyChoice/<case>/auto and one benchmark per
// strategy forced by name ("sharp", "ps13", "hybrid") whose plan differs
// from the forced strategies before it; plans that fall back to
// backtracking are left out. Forced strategies still plan with the data
// profile, so a forced #-hypertree uses the decomposition the profile
// makes cheapest. Every engine runs under a 1 GiB per-query budget, which
// refuses (reports as an error) any run that would allocate past it. The
// forced #-hypertree on the larger chain fits: its {A,E} bag still needs
// the 36M-row ca x cd cross product, but its other bag is a join, and the
// run completes in about 2 s. The `answers` counter carries each run's
// count; auto's runs also report the planner's estimates (est_sharp_ms,
// est_ps13_ms). CI asserts auto <= 1.5x the fastest forced strategy on
// every case, with equal answers.
//
// All databases round-trip through a v2 snapshot (columnar tables with
// persisted stats, the shape a catalog serves).
//
// Baseline snapshot: BENCH_strategy_choice.json at the repository root
// (regenerate with --benchmark_format=json --benchmark_repetitions=3 from
// an optimized build).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstdint>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include "algebra/stats.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "util/check.h"

namespace sharpcq {
namespace {

constexpr std::uint64_t kQueryBudgetBytes = std::uint64_t{1} << 30;

// Round-trips `db` through a temporary v2 snapshot and returns the mapped
// load.
Database SnapshotRoundTrip(const Database& db, const std::string& tag) {
  const std::string path = "/tmp/sharpcq_bench_choice_" + tag + "_" +
                           std::to_string(::getpid()) + ".sharpcq";
  Status error;
  SHARPCQ_CHECK_MSG(WriteSnapshot(db, nullptr, path, &error).has_value(),
                    error.message().c_str());
  auto loaded = LoadSnapshot(path, SnapshotLoadMode::kMapped, &error);
  SHARPCQ_CHECK_MSG(loaded.has_value(), error.message().c_str());
  ::unlink(path.c_str());  // the mapping keeps the pages alive
  return std::move(loaded->db);
}

// splitmix64: every database is a pure function of its seed.
std::uint64_t NextRandom(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// One relation per name, each `rows` distinct pairs drawn uniformly from
// [0,domain) x [0,domain).
Database RandomPairs(const std::vector<std::string>& names, int rows,
                     int domain, std::uint64_t seed) {
  DatabaseBuilder db;
  std::uint64_t state = seed;
  for (const std::string& name : names) {
    std::set<std::pair<Value, Value>> seen;
    while (static_cast<int>(seen.size()) < rows) {
      const Value a = static_cast<Value>(NextRandom(&state) % domain);
      const Value b = static_cast<Value>(NextRandom(&state) % domain);
      if (seen.emplace(a, b).second) db.AddTuple(name, {a, b});
    }
  }
  return std::move(db).Build();
}

Database SkewedStar() {
  constexpr int kDomain = 100000;
  DatabaseBuilder db;
  for (int i = 0; i < 2 * kDomain; ++i) db.AddTuple("center", {i % kDomain, i});
  for (int x = 0; x < kDomain; ++x) {
    db.AddTuple("la", {x});
    db.AddTuple("lb", {x});
    db.AddTuple("lc", {x});
  }
  for (int s = 0; s < 10; ++s) db.AddTuple("sel", {s * (kDomain / 10)});
  return std::move(db).Build();
}

struct Case {
  std::string name;
  std::string query;
  Database db;
};

std::vector<Case>& Cases() {
  static std::vector<Case>* cases = [] {
    const std::vector<std::string> chain = {"ca", "cb", "cc", "cd"};
    const std::vector<std::string> serve = {"s1", "s2", "s3", "s4"};
    const std::string chain4 = "Q(A,E) <- ca(A,B), cb(B,C), cc(C,D), cd(D,E)";
    auto* out = new std::vector<Case>();
    out->push_back({"chain4_2000x700", chain4,
                    SnapshotRoundTrip(RandomPairs(chain, 2000, 700, 1), "c1")});
    out->push_back(
        {"chain4_6000x2000", chain4,
         SnapshotRoundTrip(RandomPairs(chain, 6000, 2000, 2), "c2")});
    out->push_back({"star3_leaves_3000x1500",
                    "Q(A,B,C) <- s1(X,A), s2(X,B), s3(X,C)",
                    SnapshotRoundTrip(RandomPairs(serve, 3000, 1500, 3), "s")});
    out->push_back({"path4_3000x1500",
                    "Q(A) <- s1(A,B), s2(B,C), s3(C,D), s4(D,E)",
                    SnapshotRoundTrip(RandomPairs(serve, 3000, 1500, 3), "p")});
    out->push_back({"skewed_star",
                    "Q(X) <- center(X,P), la(X), lb(X), lc(X), sel(X)",
                    SnapshotRoundTrip(SkewedStar(), "star")});
    out->push_back({"triangle_control", "Q(A) <- s1(A,B), s2(B,C), s3(C,A)",
                    SnapshotRoundTrip(RandomPairs(serve, 3000, 1500, 3), "t")});
    out->push_back(
        {"cycle4_2500x150", "Q(A,C) <- y1(A,B), y2(B,C), y3(C,D), y4(D,A)",
         SnapshotRoundTrip(RandomPairs({"y1", "y2", "y3", "y4"}, 2500, 150, 4),
                           "y")});
    return out;
  }();
  return *cases;
}

EngineOptions BudgetedOptions() {
  EngineOptions options;
  options.max_query_bytes = kQueryBudgetBytes;
  return options;
}

ConjunctiveQuery ParseOrDie(const std::string& text) {
  auto q = ParseQuery(text);
  SHARPCQ_CHECK(q.has_value());
  return *q;
}

void RunCase(benchmark::State& state, const Case& c,
             const std::string& strategy) {
  const ConjunctiveQuery q = ParseOrDie(c.query);
  const auto options = PlannerOptionsForStrategy(strategy, PlannerOptions{});
  SHARPCQ_CHECK(options.has_value());
  CountingEngine engine(BudgetedOptions());
  // Warm-up: plan, and build the index caches every later count reuses
  // (they live on the shared tables, so the first benchmark of a case
  // would otherwise pay them for the rest).
  CountResult result = engine.Count(q, c.db, *options);
  for (auto _ : state) {
    if (!result.ok()) {
      state.SkipWithError(CountStatusName(result.status));
      break;
    }
    result = engine.Count(q, c.db, *options);
    benchmark::DoNotOptimize(result);
  }
  if (!result.ok()) return;
  state.counters["answers"] = static_cast<double>(result.count);
  state.SetLabel(result.method);
  if (strategy == "auto") {
    const DataProfile profile = BuildDataProfile(c.db);
    const auto plan = engine.Plan(q, *options, &profile).plan;
    if (plan->cost.sharp_ms.has_value()) {
      state.counters["est_sharp_ms"] = *plan->cost.sharp_ms;
    }
    if (plan->cost.ps13_ms.has_value()) {
      state.counters["est_ps13_ms"] = *plan->cost.ps13_ms;
    }
  }
}

// auto plus every named strategy whose plan (on this case's data) differs
// from the named strategies registered before it.
void RegisterCases() {
  for (const Case& c : Cases()) {
    const ConjunctiveQuery q = ParseOrDie(c.query);
    const DataProfile profile = BuildDataProfile(c.db);
    CountingEngine planner;
    std::set<PlanStrategy> forced;
    std::vector<std::string> strategies = {"auto"};
    for (const char* name : {"sharp", "ps13", "hybrid"}) {
      const auto options = PlannerOptionsForStrategy(name, PlannerOptions{});
      SHARPCQ_CHECK(options.has_value());
      const PlanStrategy kind =
          planner.Plan(q, *options, &profile).plan->strategy;
      if (kind == PlanStrategy::kBacktracking) continue;
      if (forced.insert(kind).second) strategies.push_back(name);
    }
    for (const std::string& strategy : strategies) {
      benchmark::RegisterBenchmark(
          ("BM_StrategyChoice/" + c.name + "/" + strategy).c_str(),
          [&c, strategy](benchmark::State& state) {
            RunCase(state, c, strategy);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
    }
  }
}

}  // namespace
}  // namespace sharpcq

// SHARPCQ_BENCH_MAIN's entry point, after registering the cases (their
// strategy lists depend on the data, so they are registered at run time).
int main(int argc, char** argv) {
  sharpcq::RegisterCases();
  return ::sharpcq::bench_internal::RunBenchmarks(argc, argv);
}
