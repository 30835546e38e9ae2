// Cold-start cost of the three ways to get a database into a process
// (ISSUE 4): re-ingesting CSV, loading an owned snapshot (copy + verify
// checksums), and mapping a snapshot zero-copy. The snapshot's pitch is
// that cold-start becomes proportional to mmap cost instead of parse cost,
// so the CI gate asserts mapped load >= 5x faster than CSV ingest
// (.github/workflows/ci.yml).
//
//   - BM_ColdStart_CsvIngest      parse + intern + dedup from CSV text
//   - BM_ColdStart_OwnedSnapshot  LoadSnapshot(kOwned): checksum + copy
//   - BM_ColdStart_MmapSnapshot   LoadSnapshot(kMapped): O(header)
//   - BM_FirstCount_*             cold start + one Q1 count, end to end
//
// Baseline snapshot: BENCH_snapshot_load.json at the repository root
// (regenerate with --benchmark_format=json).

#include <benchmark/benchmark.h>

#include "bench/bench_main.h"

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "data/csv.h"
#include "engine/engine.h"
#include "gen/paper_queries.h"
#include "query/parser.h"
#include "storage/snapshot.h"
#include "util/check.h"

namespace sharpcq {
namespace {

// The workload: the square query Q1's four binary relations at a size
// where parsing dominates (64k tuples each, 256k total). The domain
// matches the tuple count so the average degree stays ~1 and the
// BM_FirstCount_* join sizes stay linear — cold-start is the subject here,
// not join blowup.
constexpr int kDomain = 65536;
constexpr int kTuplesPerRelation = 65536;

const std::vector<std::string>& RelationNames() {
  static const std::vector<std::string> names = {"s1", "s2", "s3", "s4"};
  return names;
}

Database MakeWorkload() {
  return MakeQ1Database(kDomain, kTuplesPerRelation, /*seed=*/7);
}

// One scratch setup shared by every benchmark: the CSV texts (in memory —
// the parse cost is what matters, not disk) and a snapshot file on disk.
struct Scratch {
  std::vector<std::string> csv_texts;
  std::string snapshot_path;

  Scratch() {
    Database db = MakeWorkload();
    for (const std::string& name : RelationNames()) {
      std::ostringstream out;
      WriteRelationCsv(db, name, out);
      csv_texts.push_back(out.str());
    }
    snapshot_path = "/tmp/sharpcq_bench_snapshot_" +
                    std::to_string(::getpid()) + ".sharpcq";
    Status error;
    auto stats = WriteSnapshot(db, nullptr, snapshot_path, &error);
    SHARPCQ_CHECK_MSG(stats.has_value(), error.message().c_str());
  }
  ~Scratch() { std::remove(snapshot_path.c_str()); }
};

Scratch& GetScratch() {
  static Scratch scratch;
  return scratch;
}

void BM_ColdStart_CsvIngest(benchmark::State& state) {
  Scratch& scratch = GetScratch();
  std::size_t tuples = 0;
  for (auto _ : state) {
    Database db;
    for (std::size_t i = 0; i < scratch.csv_texts.size(); ++i) {
      std::istringstream in(scratch.csv_texts[i]);
      CsvResult result = LoadRelationCsv(in, RelationNames()[i], &db);
      SHARPCQ_CHECK(result.ok());
    }
    tuples = db.TotalTuples();
    benchmark::DoNotOptimize(db);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
}

void BM_ColdStart_OwnedSnapshot(benchmark::State& state) {
  Scratch& scratch = GetScratch();
  Status error;
  for (auto _ : state) {
    auto loaded =
        LoadSnapshot(scratch.snapshot_path, SnapshotLoadMode::kOwned, &error);
    SHARPCQ_CHECK_MSG(loaded.has_value(), error.message().c_str());
    benchmark::DoNotOptimize(loaded);
  }
}

void BM_ColdStart_MmapSnapshot(benchmark::State& state) {
  Scratch& scratch = GetScratch();
  Status error;
  for (auto _ : state) {
    auto loaded =
        LoadSnapshot(scratch.snapshot_path, SnapshotLoadMode::kMapped, &error);
    SHARPCQ_CHECK_MSG(loaded.has_value(), error.message().c_str());
    benchmark::DoNotOptimize(loaded);
  }
}

// End to end: cold start plus the first count, the latency a freshly
// spawned worker pays before its first answer. The query is the acyclic
// two-hop path over the loaded relations — linear in the data, so the
// measurement stays dominated by the load path under comparison (the full
// square query is O(m^2) under its width-2 decomposition and would bury
// the load cost).
void FirstCount(SnapshotLoadMode mode) {
  Scratch& scratch = GetScratch();
  Status error;
  auto loaded = LoadSnapshot(scratch.snapshot_path, mode, &error);
  SHARPCQ_CHECK_MSG(loaded.has_value(), error.message().c_str());
  CountingEngine engine;
  auto path = ParseQuery("Q(A,C) <- s1(A,B), s2(B,C)");
  SHARPCQ_CHECK(path.has_value());
  CountResult result = engine.Count(*path, loaded->db);
  benchmark::DoNotOptimize(result);
}

void BM_FirstCount_Owned(benchmark::State& state) {
  for (auto _ : state) FirstCount(SnapshotLoadMode::kOwned);
}

void BM_FirstCount_Mmap(benchmark::State& state) {
  for (auto _ : state) FirstCount(SnapshotLoadMode::kMapped);
}

BENCHMARK(BM_ColdStart_CsvIngest)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStart_OwnedSnapshot)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdStart_MmapSnapshot)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FirstCount_Owned)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FirstCount_Mmap)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sharpcq

SHARPCQ_BENCH_MAIN();
