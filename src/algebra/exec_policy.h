#ifndef SHARPCQ_ALGEBRA_EXEC_POLICY_H_
#define SHARPCQ_ALGEBRA_EXEC_POLICY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "util/cancel.h"
#include "util/mem_budget.h"

namespace sharpcq {

class ThreadPool;

// Intra-query execution policy for the kernel's large probe loops. The
// engine threads this through EngineOptions and installs it around
// ExecutePlan via an ExecScope; kernel operators (Semijoin, Join, the
// CountFullJoin aggregation loop) consult the current thread's policy when
// a probe side is large enough to morselize. With no scope installed every
// operator runs sequentially, so library users who never touch the engine
// see no threads.
// Morsel tuning defaults, shared with EngineOptions so the engine path and
// direct ExecScope users (tests, embedders) cannot drift apart.
inline constexpr std::size_t kDefaultMorselRows = 4096;
inline constexpr std::size_t kDefaultMorselRowThreshold = 16384;

// Per-execution outcome counters, owned by whoever installs the ExecScope
// (the engine allocates one per Count call). Atomics because morsel workers
// tally concurrently; probe drivers accumulate locally and add once per
// block, so the atomics are off the per-row path.
struct ExecStats {
  std::atomic<std::uint64_t> filter_hits{0};
  std::atomic<std::uint64_t> filter_passes{0};
  // Scheduling decisions the cost model changed: join-tree re-rootings /
  // child reorderings (OptimizeInstanceOrder) and priority-ordered
  // consistency worklists that deviated from FIFO. Provenance only.
  std::atomic<std::uint64_t> cost_reorders{0};
  // Morsel chunks dispatched by RunMorsels for this execution (counted only
  // when a loop actually chunked, so small sequential probes stay free).
  std::atomic<std::uint64_t> morsels{0};
  // Semijoin relaxations run by the pairwise-consistency worklist (cyclic
  // schemas only; the acyclic downgrade's two-pass reducer reports 0).
  std::atomic<std::uint64_t> worklist_iterations{0};
};

struct ExecPolicy {
  // Called (at most once per operator invocation) only when a probe loop
  // crosses row_threshold, so engines can create their pool lazily. A null
  // provider, or a provider returning null, means sequential execution.
  std::function<ThreadPool*()> pool;
  // Rows per morsel: the unit of work a probe loop hands to the pool.
  std::size_t morsel_rows = kDefaultMorselRows;
  // Probe loops below this many rows never dispatch (morsel setup costs
  // more than it saves on small inputs).
  std::size_t row_threshold = kDefaultMorselRowThreshold;
  // Cooperative stop signal for this execution, or null (never stops).
  // RunMorsels checks it once per morsel claim — workers stop claiming and
  // the calling thread raises ExecInterrupted once the loop drains — and
  // strategy code polls it at checkpoint sites via CheckExecInterrupt().
  // When a token is set, large loops are chunked into morsels even without
  // a pool, so single-threaded executions get the same check granularity.
  const CancelToken* cancel = nullptr;
  // Per-execution tally sink for probe-filter outcomes, or null (tallies
  // fall through to the process-wide counters). RunMorsels re-installs the
  // sink on pool workers around each claimed morsel, so tallies from
  // parallel probes land in their own query's stats — concurrent
  // executions never pollute each other's provenance.
  ExecStats* stats = nullptr;
  // Statistics-driven scheduling: join-tree rooting/child ordering, the
  // consistency worklist priority, and the build-size-aware morsel
  // threshold consult data stats when set. Scheduling only — counts are
  // identical either way (the differential suite runs both settings).
  bool cost_model = false;
  // Memory budgets for this execution, or null (unlimited). The same
  // thread-local channel the CancelToken uses: allocation sites on the
  // driving thread call ChargeExecMemory, which charges `query_memory`
  // (bytes allocated by this execution) and `process_memory` (bytes held
  // by all in-flight executions, shared daemon-wide). Pool workers run
  // scope-free and charge nothing — their buffers are morsel-bounded.
  MemoryBudget* query_memory = nullptr;
  MemoryBudget* process_memory = nullptr;
};

// Installs `policy` as the current thread's execution policy for the
// lifetime of the scope (scopes nest; destruction restores the previous
// policy). The policy applies only to operators invoked on this thread —
// morsel tasks themselves run scope-free, so a worker executing a morsel
// never re-dispatches.
class ExecScope {
 public:
  explicit ExecScope(ExecPolicy policy);
  ~ExecScope();

  ExecScope(const ExecScope&) = delete;
  ExecScope& operator=(const ExecScope&) = delete;

 private:
  const ExecPolicy* previous_;
  ExecStats* previous_stats_;
  ExecPolicy policy_;
};

// The policy installed on this thread, or nullptr (sequential).
const ExecPolicy* CurrentExecPolicy();

// The per-execution stats sink visible to this thread, or nullptr. Set by
// ExecScope (from ExecPolicy::stats) and re-installed on pool workers by
// RunMorsels for the duration of each morsel, so probe drivers can tally
// from any thread participating in the execution.
ExecStats* CurrentExecStats();

// Raised when an execution observes its CancelToken stopped: the strategy
// stack unwinds to CountingEngine::Count, which maps the reason onto
// CountResult::status. Never thrown from pool workers (morsel bodies must
// not throw) — only from checkpoints on the thread driving the execution.
struct ExecInterrupted {
  CancelToken::StopReason reason = CancelToken::StopReason::kCancelled;
};

// Checkpoint: throws ExecInterrupted if the current thread's policy carries
// a stopped token. Cheap when no token is installed (one thread-local
// read). Strategy loops outside the morselized kernel paths — the
// consistency worklist, the backtracking counter, the width searches —
// call this so deadline expiry surfaces even on small-table executions.
void CheckExecInterrupt();

// Raised by ChargeExecMemory when an execution's budget refuses a charge:
// unwinds like ExecInterrupted, and the engine maps it to
// CountResult::status == kResourceExhausted. Thrown only on the driving
// thread (workers never charge).
struct ExecResourceExhausted {
  std::uint64_t requested_bytes = 0;
};

// Charges `bytes` of table/index memory against the current thread's
// budgets (see ExecPolicy::query_memory). A no-op without an installed
// policy or budgets; throws ExecResourceExhausted when a budget refuses.
// Call at allocation granularity — one call per table/index/hash buffer,
// never per row.
void ChargeExecMemory(std::uint64_t bytes);

// Chunking decision for a probe loop over `rows` rows under the current
// thread's policy.
struct MorselPlan {
  std::size_t chunks = 1;        // number of morsels
  std::size_t rows_per_chunk = 0;  // == rows when chunks == 1
  bool parallel = false;           // whether RunMorsels may use the pool

  // Row range of morsel `chunk` (chunks partition [0, rows)).
  std::size_t ChunkBegin(std::size_t chunk) const {
    return chunk * rows_per_chunk;
  }
  std::size_t ChunkEnd(std::size_t chunk, std::size_t rows) const {
    std::size_t end = (chunk + 1) * rows_per_chunk;
    return end < rows ? end : rows;
  }
};
MorselPlan PlanMorsels(std::size_t rows);

// Build-side-aware variant: `build_groups` is the probed index's group
// count. Under a cost-model policy, probes into an index too big for the
// L2 cache morselize at a quarter of the usual row threshold — every probe
// is a likely cache miss, so the per-row work is heavy enough to amortize
// morsel setup much earlier. Without a cost-model policy this is exactly
// PlanMorsels(rows).
MorselPlan PlanMorsels(std::size_t rows, std::size_t build_groups);

// Runs body(chunk, begin, end) for every morsel of `plan` over [0, rows).
// Sequential plans run inline. Parallel plans submit runner tasks to the
// policy's pool and the calling thread participates, claiming morsels from
// the same atomic cursor — the loop completes even if every pool worker is
// busy (or the pool never schedules a runner), which is what makes it safe
// to dispatch onto the engine's batch pool from inside a batch job. `body`
// must be safe to invoke concurrently for disjoint chunks and must not
// throw, except std::bad_alloc: a parallel loop stops claiming new work
// after one, and the CALLING thread rethrows it once the loop drains.
//
// Cancellation: the claim loop checks the policy's CancelToken before every
// claim. Once stopped, remaining chunks are claimed but not executed (so
// the completion count still converges), and after the loop drains the
// CALLING thread throws ExecInterrupted — the partially-produced operator
// output never reaches a caller.
void RunMorsels(const MorselPlan& plan, std::size_t rows,
                const std::function<void(std::size_t, std::size_t,
                                         std::size_t)>& body);

}  // namespace sharpcq

#endif  // SHARPCQ_ALGEBRA_EXEC_POLICY_H_
