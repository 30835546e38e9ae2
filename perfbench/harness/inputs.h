#ifndef PERFBENCH_HARNESS_INPUTS_H_
#define PERFBENCH_HARNESS_INPUTS_H_

// Seeded workload inputs: relations (rendered as CSV text for the system
// under test), query texts, the never-seen query shapes the serving
// workloads send, the rows each served ingest appends, and the request
// schedule. Everything here is a pure function of (workload, seed, run
// length, trace flag), so the oracle process and the measuring process
// build identical inputs independently. Nothing here calls into sharpcq:
// the program only ever sees the generated CSV and query text.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// SplitMix64: the same seed gives the same stream on every platform and
// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next();
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

struct Relation {
  std::string name;
  int arity = 0;
  std::vector<std::int64_t> rows;  // row-major, `arity` values per row
  std::size_t size() const { return arity == 0 ? 0 : rows.size() / arity; }
};

std::string ToCsv(const Relation& relation);

struct Atom {
  std::string relation;
  std::vector<std::string> vars;
};

struct Query {
  std::string name;
  std::vector<Atom> atoms;
  std::vector<std::string> free;
  int repeat = 1;  // count_heavy: calls per round, so light queries get
                   // as many samples as their noise needs
  std::string Text() const;  // "Q(A,C) <- r(A,B), s(B,C)"
};

enum class Workload { kServeHot, kServeIngest, kCountHeavy };
std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
inline bool IsServe(Workload w) { return w != Workload::kCountHeavy; }

// One request of an open-loop phase. `query` indexes Inputs::queries.
struct ScheduledRequest {
  int query = 0;
  bool one_shot = false;  // sent on a fresh connection, closed after
  double due_ms = 0.0;    // offset from the phase start
};

struct Phase {
  std::string name;  // "base", "untraced", "traced", "ladder"
  double rate = 0.0;       // count requests per second
  double duration_ms = 0.0;
  bool traced = false;
  std::vector<ScheduledRequest> requests;
  std::vector<double> ingest_due_ms;  // serve_ingest only
};

struct Inputs {
  Workload workload = Workload::kServeHot;
  std::vector<Relation> relations;
  // queries[0, fixed) are the hot shapes (serve_*) or the heavy set
  // (count_heavy); the rest are never-seen shapes, each sent once.
  std::vector<Query> queries;
  std::size_t fixed = 0;
  std::string ingest_relation;            // serve_ingest
  std::vector<Relation> ingest_batches;   // one per scheduled ingest
  std::vector<Phase> phases;              // empty for count_heavy
};

// Serving constants shared by the schedule and the reports. sharpcq has no
// recorded production traffic, so these are design choices, not a model of
// observed load; perfbench/README.md ("Traffic parameters") gives the basis
// of each.
//
// Count requests / s: 7-11% of serve_hot's max_rps (1800-3000/s on a
// 4-vCPU Xeon, lower when other tenants steal CPU), so requests rarely
// queue and count_p50_ms reads per-request cost; capacity is max_rps's job.
inline constexpr double kBaseRate = 200.0;
inline constexpr double kLadderStepMs = 1000.0;
inline constexpr double kLadderRates[] = {300,  600,  1200, 1800, 2400,
                                          3000, 4000, 5000, 6000};
// p99 limit for max_rps and the most the open-loop generator may be late.
inline constexpr double kLatencyLimitMs = 25.0;
// Ingests / s, each appending kIngestRows rows to s1 (3000 rows at
// generation 1): a 20 s run makes 80 generations and more than doubles s1,
// so its size class moves and counts re-plan within every run.
inline constexpr double kIngestRate = 4.0;
inline constexpr int kIngestRows = 40;
inline constexpr int kServeConnections = 4;
inline constexpr char kDbName[] = "bench";

Inputs MakeInputs(Workload workload, std::uint64_t seed, int seconds,
                  bool trace);

// The database every ingest in generation `generation` has produced:
// generation 1 is the set-up ingest; generation g > 1 adds the first g-1
// ingest batches to the ingest relation.
std::vector<Relation> RelationsAtGeneration(const Inputs& inputs,
                                            std::uint64_t generation);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_INPUTS_H_
