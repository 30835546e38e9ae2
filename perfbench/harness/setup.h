#ifndef PERFBENCH_HARNESS_SETUP_H_
#define PERFBENCH_HARNESS_SETUP_H_

// Pieces every workload shares: the raw-result JSON writer, the clock,
// /proc/self sampling, host facts, span-tree flattening, the per-count
// record and its writer, the common set-up (CSV -> Database -> catalog
// generation, plus the mmap load count_heavy counts on), and the storage
// probes of traced runs, each step timed around its public call.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/database.h"
#include "inputs.h"
#include "oracle.h"
#include "storage/snapshot.h"
#include "util/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// One progress line on stderr, stamped with seconds since process start.
void Progress(const std::string& message);

class JsonWriter {
 public:
  void BeginObject() { Open('{'); }
  void EndObject() { Close('}'); }
  void BeginArray() { Open('['); }
  void EndArray() { Close(']'); }
  void Key(std::string_view key);
  void Value(double v);
  void Value(std::int64_t v);
  void Value(std::uint64_t v);
  void Value(int v) { Value(static_cast<std::int64_t>(v)); }
  void Value(bool v);
  void Value(std::string_view v);
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(const std::string& v) { Value(std::string_view(v)); }
  template <typename T>
  void Field(std::string_view key, const T& v) {
    Key(key);
    Value(v);
  }
  template <typename T>
  void Array(std::string_view key, const std::vector<T>& values) {
    Key(key);
    BeginArray();
    for (const T& v : values) Value(v);
    EndArray();
  }
  const std::string& str() const { return out_; }

 private:
  void Open(char c);
  void Close(char c);
  void Separate();
  void Quote(std::string_view v);
  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

struct HostFacts {
  unsigned cpus = 0;
  std::string cpu_model;
  std::uint64_t l2_bytes = 0;
  std::uint64_t llc_bytes = 0;
  bool optimized = false;
};
HostFacts ReadHostFacts();
void WriteHostFacts(const HostFacts& host, JsonWriter* json);

struct ProcCounts {
  int threads = 0;
  int fds = 0;
  double vmsize_mb = 0.0;
  double vmhwm_mb = 0.0;  // peak resident set so far
};
ProcCounts ReadProc();

// System-wide CPU ticks from /proc/stat: how much time the hypervisor
// stole over a run tells a noisy host from a slow program.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks();

// Samples /proc/self every few milliseconds until stopped; keeps peaks.
class ProcSampler {
 public:
  ProcSampler();
  ~ProcSampler();
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;
  ProcCounts Stop();

 private:
  std::atomic<bool> stop_{false};
  ProcCounts peak_;
  std::thread thread_;
};

// Sum of every sample of a Prometheus counter family in a metrics body.
double ScrapeValue(const std::string& body, std::string_view family);

// One span of a flattened trace tree; `parent` indexes the same vector
// (-1 for the root).
struct SpanRecord {
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
  int parent = -1;
};
std::vector<SpanRecord> FlattenTrace(const sharpcq::TraceNode& root);
void WriteSpans(const std::vector<SpanRecord>& spans, JsonWriter* json);

// One count: a served request (serve_*) or an engine call (count_heavy).
struct CountRecord {
  int query = 0;
  bool one_shot = false;  // serve_*: sent on a one-request connection
  double due_ms = 0.0;    // when it was due (count_heavy: when called)
  double sent_ms = 0.0;   // serve_*: when the request went out, after any
                          // connect
  double done_ms = 0.0;
  double connect_ms = -1.0;  // serve_*: Client::Connect of a one-shot
  bool ok = false;
  bool wrong = false;
  std::string code;  // status or wire code, TRANSPORT, CONNECT, WRONG_COUNT
  std::string method;
  double planner_ms = 0.0;
  double execute_ms = 0.0;
  bool cache_hit = false;
  std::uint64_t generation = 0;
  std::uint64_t filter_hits = 0;
  std::uint64_t filter_passes = 0;
  std::uint64_t morsels = 0;
  std::vector<SpanRecord> spans;
};

// Writes the "counts" object, one array per field. `serving` adds the
// fields only served requests have; `traced` adds the span trees.
void WriteCounts(const std::vector<CountRecord>& counts, bool serving,
                 bool traced, JsonWriter* json);

// What one common set-up leaves behind.
struct CommonSetup {
  Inputs inputs;
  std::string dir;           // this set-up's directory (removed by caller)
  std::string catalog_root;  // catalog holding generation 1
  std::optional<sharpcq::LoadedSnapshot> mapped;  // count_heavy: generation
                                                  // 1, mmap-loaded
  double gen_ms = 0.0;
  double csv_parse_ms = 0.0;
  double catalog_ingest_ms = 0.0;
  double mmap_load_ms = 0.0;
  std::uint64_t csv_bytes = 0;
  std::uint64_t snapshot_bytes = 0;  // generation 1's file
};
// Everything set-up time pays for before the daemon or engine starts.
bool RunCommonSetup(Workload workload, std::uint64_t seed, int seconds,
                    bool trace, const std::string& dir, CommonSetup* out,
                    std::string* error);
void WriteSetupTimes(const CommonSetup& setup, double start_ms,
                     double warmup_ms, double total_ms, JsonWriter* json);

// Storage-layer probes of a traced run, made after the measured phases so
// none of their work lands in set-up time or beside measured requests:
// cold Catalog::Open of the current generation (manifest, checksum pass,
// mapped load), WriteSnapshot of its database (with fsync), and
// LoadSnapshot mapped of its file, each kStorageProbeRepeats times.
// Writes the "storage" object.
bool RunStorageProbes(const CommonSetup& setup, JsonWriter* json,
                      std::string* error);

struct RunOptions {
  Workload workload = Workload::kServeHot;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;
  const Expected* expected = nullptr;
};

// Set-ups repeated per run; setup_s reports their median. A run sets up
// at least kMinSetups times, and keeps on until kMinSetupMs of set-up time
// is spent, so a set-up of tens of milliseconds gets a median over dozens.
inline constexpr int kMinSetups = 5;
inline constexpr double kMinSetupMs = 2000.0;
inline bool MoreSetups(int done, double spent_ms) {
  return done < kMinSetups || spent_ms < kMinSetupMs;
}
inline constexpr int kStorageProbeRepeats = 3;

// In-process probes of single layers on the served database: parse,
// canonicalize, plan hit/miss, protocol encode/decode, auto against every
// forced strategy, and bytes charged under a budget that never binds.
// Writes the "probes" object.
void RunProbes(const Inputs& inputs, const sharpcq::Database& db,
               JsonWriter* json);

// Each writes its workload's keys into the open raw-result object.
bool RunServe(const RunOptions& options, JsonWriter* json, std::string* error);
bool RunHeavy(const RunOptions& options, JsonWriter* json, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_SETUP_H_
