#include "algebra/exec_policy.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <new>

#include "algebra/simd.h"
#include "util/cpu.h"
#include "util/thread_pool.h"

namespace sharpcq {

namespace {

thread_local const ExecPolicy* current_policy = nullptr;
thread_local ExecStats* current_stats = nullptr;

// Installs a stats sink on a pool worker for the duration of one morsel.
class WorkerStatsScope {
 public:
  explicit WorkerStatsScope(ExecStats* stats) : previous_(current_stats) {
    if (stats != nullptr) current_stats = stats;
  }
  ~WorkerStatsScope() { current_stats = previous_; }

  WorkerStatsScope(const WorkerStatsScope&) = delete;
  WorkerStatsScope& operator=(const WorkerStatsScope&) = delete;

 private:
  ExecStats* previous_;
};

}  // namespace

ExecScope::ExecScope(ExecPolicy policy)
    : previous_(current_policy),
      previous_stats_(current_stats),
      policy_(std::move(policy)) {
  current_policy = &policy_;
  current_stats = policy_.stats;
}

ExecScope::~ExecScope() {
  current_policy = previous_;
  current_stats = previous_stats_;
}

const ExecPolicy* CurrentExecPolicy() { return current_policy; }

ExecStats* CurrentExecStats() { return current_stats; }

void CheckExecInterrupt() {
  const ExecPolicy* policy = current_policy;
  if (policy == nullptr || policy->cancel == nullptr) return;
  const CancelToken::StopReason reason = policy->cancel->ShouldStop();
  if (reason != CancelToken::StopReason::kNone) {
    throw ExecInterrupted{reason};
  }
}

void ChargeExecMemory(std::uint64_t bytes) {
  const ExecPolicy* policy = current_policy;
  if (policy == nullptr || bytes == 0) return;
  if (policy->query_memory != nullptr &&
      !policy->query_memory->TryCharge(bytes)) {
    throw ExecResourceExhausted{bytes};
  }
  if (policy->process_memory != nullptr &&
      !policy->process_memory->TryCharge(bytes)) {
    // Back out the query-side charge so the tracker matches what the
    // engine will release from the process budget at execution end.
    if (policy->query_memory != nullptr) policy->query_memory->Release(bytes);
    throw ExecResourceExhausted{bytes};
  }
}

namespace {

MorselPlan PlanMorselsWithThreshold(std::size_t rows, std::size_t threshold) {
  MorselPlan plan;
  plan.rows_per_chunk = rows;
  const ExecPolicy* policy = current_policy;
  if (policy == nullptr || rows < threshold || policy->morsel_rows == 0) {
    return plan;
  }
  // A cancel token without a pool still chunks: sequential executions then
  // check the token between morsels instead of only before and after one
  // monolithic probe loop.
  const bool has_pool = policy->pool != nullptr;
  if (!has_pool && policy->cancel == nullptr) return plan;
  plan.rows_per_chunk = policy->morsel_rows;
  // Align morsels to whole probe blocks so a morsel boundary never splits
  // a block of the vectorized probe driver into two partial (tail-lane)
  // blocks. Policies tuned below one block — tests forcing tiny morsels —
  // keep their exact size.
  if (plan.rows_per_chunk >= kProbeBlockRows) {
    plan.rows_per_chunk =
        (plan.rows_per_chunk + kProbeBlockRows - 1) / kProbeBlockRows *
        kProbeBlockRows;
  }
  plan.chunks = (rows + plan.rows_per_chunk - 1) / plan.rows_per_chunk;
  plan.parallel = has_pool && plan.chunks > 1;
  if (plan.chunks == 1) plan.rows_per_chunk = rows;
  return plan;
}

}  // namespace

MorselPlan PlanMorsels(std::size_t rows) {
  const ExecPolicy* policy = current_policy;
  return PlanMorselsWithThreshold(
      rows, policy != nullptr ? policy->row_threshold : rows + 1);
}

MorselPlan PlanMorsels(std::size_t rows, std::size_t build_groups) {
  const ExecPolicy* policy = current_policy;
  if (policy == nullptr || !policy->cost_model) return PlanMorsels(rows);
  // ~26 bytes of index structure touched per group on the probe path (slot
  // array at ~50% occupancy plus the group offset pair); once that
  // footprint spills out of L2, each probe is a likely cache miss and the
  // per-row cost is several times the in-cache case, so morselize earlier.
  constexpr std::size_t kApproxIndexBytesPerGroup = 26;
  const bool out_of_cache =
      build_groups > L2CacheBytes() / kApproxIndexBytesPerGroup;
  const std::size_t threshold =
      out_of_cache ? policy->row_threshold / 4 : policy->row_threshold;
  return PlanMorselsWithThreshold(rows, threshold);
}

void RunMorsels(const MorselPlan& plan, std::size_t rows,
                const std::function<void(std::size_t, std::size_t,
                                         std::size_t)>& body) {
  const ExecPolicy* policy = current_policy;
  const CancelToken* cancel = policy != nullptr ? policy->cancel : nullptr;
  if (plan.chunks > 1 && policy != nullptr && policy->stats != nullptr) {
    policy->stats->morsels.fetch_add(plan.chunks, std::memory_order_relaxed);
  }
  if (!plan.parallel) {
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      if (cancel != nullptr && c != 0) CheckExecInterrupt();
      body(c, plan.ChunkBegin(c), plan.ChunkEnd(c, rows));
    }
    if (cancel != nullptr) CheckExecInterrupt();
    return;
  }
  ThreadPool* pool = policy != nullptr && policy->pool != nullptr
                         ? policy->pool()
                         : nullptr;
  if (pool == nullptr) {
    for (std::size_t c = 0; c < plan.chunks; ++c) {
      if (cancel != nullptr && c != 0) CheckExecInterrupt();
      body(c, plan.ChunkBegin(c), plan.ChunkEnd(c, rows));
    }
    if (cancel != nullptr) CheckExecInterrupt();
    return;
  }

  // Shared claim/complete state. Runners and the caller race on `next` to
  // claim chunks; `completed` (mutex-guarded so the caller's wait is
  // race-free under TSan) counts finished chunks. One drain loop serves
  // both: the caller invokes it directly and the pool runners hold it (and
  // the state) via shared_ptr, so a runner the pool only schedules after
  // the operation finished finds no chunk to claim and exits. `body` is
  // captured by pointer into this frame — safe because the caller does not
  // return until `completed == chunks`, i.e. until no claimed chunk can
  // still be executing it, and unclaimed chunks are never started.
  //
  // Once the cancel token trips, drainers keep claiming chunks but skip
  // their bodies — the claim loop converges in a few atomic increments
  // instead of finishing the remaining probe work, and the caller throws
  // below, discarding whatever the executed chunks produced. A body that
  // runs out of memory (std::bad_alloc from an allocation no budget
  // charged) stops the loop the same way: the first failure is kept, and
  // the caller rethrows it once every claimed chunk has finished, so the
  // engine maps it onto one query's RESOURCE_EXHAUSTED instead of the
  // exception escaping a pool worker and terminating the process.
  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> out_of_memory{false};
    std::mutex mu;
    std::condition_variable done_cv;
    std::size_t completed = 0;
  };
  auto state = std::make_shared<State>();
  const std::size_t chunks = plan.chunks;
  ExecStats* stats = policy != nullptr ? policy->stats : nullptr;
  auto drain = [state, plan, rows, body = &body, chunks, cancel, stats] {
    WorkerStatsScope stats_scope(stats);
    for (;;) {
      // Claim before touching `cancel`: a runner the pool schedules only
      // after the caller returned exits on the exhausted cursor without
      // dereferencing caller-owned pointers.
      std::size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if ((cancel == nullptr || !cancel->stop_requested()) &&
          !state->out_of_memory.load(std::memory_order_relaxed)) {
        try {
          (*body)(c, plan.ChunkBegin(c), plan.ChunkEnd(c, rows));
        } catch (const std::bad_alloc&) {
          state->out_of_memory.store(true, std::memory_order_relaxed);
        }
      }
      std::lock_guard<std::mutex> lock(state->mu);
      if (++state->completed == chunks) state->done_cv.notify_one();
    }
  };
  const std::size_t runners =
      chunks - 1 < pool->num_threads() ? chunks - 1 : pool->num_threads();
  try {
    for (std::size_t r = 0; r < runners; ++r) pool->Submit(drain);
  } catch (const std::bad_alloc&) {
    // Runners already queued may still hold `body`: drain and wait as
    // usual (every body is skipped now), then rethrow below.
    state->out_of_memory.store(true, std::memory_order_relaxed);
  }
  drain();  // the caller claims chunks too: progress never depends on the pool
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] { return state->completed == chunks; });
  lock.unlock();
  if (state->out_of_memory.load(std::memory_order_relaxed)) {
    throw std::bad_alloc();
  }
  if (cancel != nullptr) CheckExecInterrupt();
}

}  // namespace sharpcq
