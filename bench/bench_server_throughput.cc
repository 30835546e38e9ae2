// Daemon serving throughput: concurrent socket clients hammering one
// sharpcqd Daemon with count requests vs the same workload issued
// in-process through CountBatch — the cost of the wire (framing, parsing,
// admission control, provenance serialization) on top of the engine.
//
//   - BM_Server_Socket/threads:C   C persistent-connection clients, each
//                                  issuing count requests round-robin over
//                                  the query mix; requests/sec is the
//                                  figure of merit, with p50/p95/p99
//                                  round-trip latency (log-histogram bucket
//                                  bounds, averaged across client threads)
//                                  reported alongside.
//   - BM_InProcess_CountBatch/C    the same mix as CountJobs on a C-thread
//                                  batch pool — the no-network ceiling.
//   - BM_InProcess_Sequential      plain Count loop, single thread.
//
// One daemon serves the whole binary (started on first use, ephemeral
// port); clients connect once per benchmark thread outside the timed
// region, so the loop measures steady-state request/response round-trips,
// not connection setup.
//
// Baseline snapshot: BENCH_server_throughput.json at the repository root
// (regenerate with --benchmark_format=json).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "query/parser.h"
#include "server/client.h"
#include "server/daemon.h"
#include "util/check.h"
#include "util/clock.h"
#include "util/metrics.h"

namespace sharpcq {
namespace {

// The query mix: a width-1 path, a width-2 square, and a single-atom
// projection — every strategy tier the planner picks for binary relations,
// all against one database so plan-cache and catalog lookups stay warm.
const char* const kQueryTexts[] = {
    "Q(X,Z) <- r(X,Y), s(Y,Z)",
    "Q(A,C) <- r(A,B), s(B,C), r(C,D), s(D,A)",
    "Q(X,Y) <- r(X,Y)",
};
constexpr std::size_t kQueryCount = sizeof(kQueryTexts) / sizeof(kQueryTexts[0]);

Database MakeBenchDatabase() {
  DatabaseBuilder db;
  for (Value i = 0; i < 40; ++i) {
    for (Value j = 0; j < 40; ++j) {
      if ((i + 3 * j) % 7 == 0) db.AddTuple("r", {i, j});
      if ((2 * i + j) % 5 == 0) db.AddTuple("s", {i, j});
    }
  }
  return std::move(db).Build();
}

// One daemon for the whole binary, torn down at exit.
class DaemonHarness {
 public:
  DaemonHarness() {
    namespace fs = std::filesystem;
    root_ = (fs::temp_directory_path() / "sharpcq_bench_serverXXXXXX").string();
    SHARPCQ_CHECK(::mkdtemp(root_.data()) != nullptr);
    {
      Catalog catalog(root_);
      Status error;
      SHARPCQ_CHECK(
          catalog.Ingest("bench", MakeBenchDatabase(), nullptr, &error)
              .has_value());
    }
    DaemonOptions options;
    options.catalog_root = root_;
    options.max_inflight = 16;
    options.max_queued = 64;
    daemon_ = std::make_unique<Daemon>(std::move(options));
    std::string error;
    SHARPCQ_CHECK(daemon_->Start(&error));
  }

  ~DaemonHarness() {
    daemon_->Stop();
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  int port() const { return daemon_->port(); }

 private:
  std::string root_;
  std::unique_ptr<Daemon> daemon_;
};

DaemonHarness& SharedDaemon() {
  static DaemonHarness harness;
  return harness;
}

Request CountRequest(std::size_t query_index) {
  Request request;
  request.command = "count";
  request.args = {{"db", "bench"}};
  request.body = std::string(kQueryTexts[query_index % kQueryCount]) + "\n";
  return request;
}

void BM_Server_Socket(benchmark::State& state) {
  const int port = SharedDaemon().port();
  Client client;
  std::string error;
  SHARPCQ_CHECK(client.Connect("127.0.0.1", port, &error));
  // Warm the daemon's plan cache for every shape before timing.
  for (std::size_t q = 0; q < kQueryCount; ++q) {
    auto response = client.Call(CountRequest(q), &error);
    SHARPCQ_CHECK(response.has_value() && response->ok);
  }
  std::size_t sent = static_cast<std::size_t>(state.thread_index());
  // Per-thread round-trip latency tail, recorded into a private log
  // histogram (util/metrics.h) so the timed loop adds one clock read and
  // one relaxed increment per request.
  Histogram latency;
  for (auto _ : state) {
    const MonotonicClock::time_point start = MonotonicNow();
    auto response = client.Call(CountRequest(sent++), &error);
    latency.Record(ElapsedMs(start));
    SHARPCQ_CHECK(response.has_value());
    SHARPCQ_CHECK(response->ok);
    benchmark::DoNotOptimize(response->fields);
  }
  state.SetItemsProcessed(state.iterations());
  const Histogram::Snapshot snap = latency.snapshot();
  // Bucket upper bounds (within 2x of the true value), averaged across the
  // client threads of the run.
  state.counters["p50_ms"] =
      benchmark::Counter(snap.PercentileMs(50), benchmark::Counter::kAvgThreads);
  state.counters["p95_ms"] =
      benchmark::Counter(snap.PercentileMs(95), benchmark::Counter::kAvgThreads);
  state.counters["p99_ms"] =
      benchmark::Counter(snap.PercentileMs(99), benchmark::Counter::kAvgThreads);
}
BENCHMARK(BM_Server_Socket)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_InProcess_CountBatch(benchmark::State& state) {
  Database db = MakeBenchDatabase();
  std::vector<ConjunctiveQuery> queries;
  for (std::size_t q = 0; q < kQueryCount; ++q) {
    std::string error;
    auto parsed = ParseQuery(kQueryTexts[q], nullptr, &error);
    SHARPCQ_CHECK(parsed.has_value());
    queries.push_back(*parsed);
  }
  EngineOptions options;
  options.batch_threads = static_cast<std::size_t>(state.range(0));
  CountingEngine engine(options);
  // A batch the size of one socket benchmark's round: 64 jobs round-robin
  // over the mix.
  std::vector<CountJob> jobs;
  for (int i = 0; i < 64; ++i) {
    jobs.push_back({queries[static_cast<std::size_t>(i) % kQueryCount], &db});
  }
  engine.CountBatch(jobs);  // warm plans + pool
  for (auto _ : state) {
    std::vector<CountResult> results = engine.CountBatch(jobs);
    SHARPCQ_CHECK(results.size() == jobs.size());
    benchmark::DoNotOptimize(results);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(jobs.size()));
  state.counters["batch_threads"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_InProcess_CountBatch)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_InProcess_Sequential(benchmark::State& state) {
  Database db = MakeBenchDatabase();
  std::vector<ConjunctiveQuery> queries;
  for (std::size_t q = 0; q < kQueryCount; ++q) {
    std::string error;
    auto parsed = ParseQuery(kQueryTexts[q], nullptr, &error);
    SHARPCQ_CHECK(parsed.has_value());
    queries.push_back(*parsed);
  }
  CountingEngine engine;
  for (const ConjunctiveQuery& q : queries) engine.Count(q, db);  // warm
  std::size_t i = 0;
  for (auto _ : state) {
    CountResult result = engine.Count(queries[i++ % kQueryCount], db);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_InProcess_Sequential)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
