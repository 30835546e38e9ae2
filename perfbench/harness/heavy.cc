// count_heavy: one caller runs CountingEngine::Count over the mmap-loaded
// snapshot, one query at a time, round after round over the heavy set; the
// engine's own pool (at most 4 threads) runs the morsels.

#include <filesystem>

#include "engine/engine.h"
#include "query/parser.h"
#include "setup.h"
#include "util/count_int.h"
#include "util/metrics.h"

namespace perfbench {

namespace {

double IndexBuilds() {
  return ScrapeValue(sharpcq::MetricsRegistry::Instance().RenderPrometheus(),
                     "sharpcq_index_builds_total");
}

struct Heavy {
  std::unique_ptr<CommonSetup> setup;
  std::unique_ptr<sharpcq::CountingEngine> engine;
  std::vector<sharpcq::ConjunctiveQuery> queries;
};

CountRecord CountOnce(Heavy& h, const Expected& expected, int q,
                      Clock::time_point origin, bool traced) {
  CountRecord rec;
  rec.query = q;
  std::optional<sharpcq::Trace> trace;
  if (traced) trace.emplace();
  rec.due_ms = MsSince(origin);
  auto result = h.engine->Count(h.queries[q], h.setup->mapped->db,
                                h.engine->options().planner, nullptr,
                                traced ? &*trace : nullptr);
  rec.done_ms = MsSince(origin);
  rec.method = result.method;
  if (!result.ok()) {
    rec.code = "STATUS_" + std::to_string(static_cast<int>(result.status));
  } else {
    const std::string* want = expected.Find(q, 1);
    rec.wrong =
        want == nullptr || sharpcq::CountToString(result.count) != *want;
    rec.ok = !rec.wrong;
    if (rec.wrong) rec.code = "WRONG_COUNT";
  }
  rec.planner_ms = result.planner_ms;
  rec.execute_ms = result.execute_ms;
  rec.cache_hit = result.cache_hit;
  rec.filter_hits = result.filter_hits;
  rec.filter_passes = result.filter_passes;
  rec.morsels = result.morsels;
  if (traced) rec.spans = FlattenTrace(trace->root());
  return rec;
}

void WritePhase(const std::string& name, bool traced, double wall_ms,
                double index_builds, const std::vector<CountRecord>& counts,
                JsonWriter* json) {
  json->BeginObject();
  json->Field("name", name);
  json->Field("traced", traced);
  json->Field("wall_ms", wall_ms);
  json->Field("index_builds", index_builds);
  WriteCounts(counts, /*serving=*/false, traced, json);
  json->EndObject();
}

}  // namespace

bool RunHeavy(const RunOptions& options, JsonWriter* json,
              std::string* error) {
  Heavy h;
  json->Key("setups");
  json->BeginArray();
  double setup_ms = 0.0;
  for (int i = 0; MoreSetups(i, setup_ms); ++i) {
    h.engine.reset();
    h.queries.clear();
    if (h.setup != nullptr) {
      std::string old = h.setup->dir;
      h.setup.reset();  // unmaps the snapshot before its file goes
      std::filesystem::remove_all(old);
    }
    h.setup = std::make_unique<CommonSetup>();
    Clock::time_point t = Clock::now();
    if (!RunCommonSetup(options.workload, options.seed, options.seconds,
                        options.trace,
                        options.workdir + "/setup" + std::to_string(i),
                        h.setup.get(), error)) {
      return false;
    }
    Clock::time_point started = Clock::now();
    sharpcq::EngineOptions engine_options;
    engine_options.batch_threads =
        std::min(4u, std::thread::hardware_concurrency());
    h.engine = std::make_unique<sharpcq::CountingEngine>(engine_options);
    for (std::size_t q = 0; q < h.setup->inputs.fixed; ++q) {
      std::string parse_error;
      auto parsed = sharpcq::ParseQuery(h.setup->inputs.queries[q].Text(),
                                        nullptr, &parse_error);
      if (!parsed.has_value()) {
        *error = "ParseQuery: " + parse_error;
        return false;
      }
      h.queries.push_back(*parsed);
    }
    double start_ms = MsSince(started);
    // Warm-up: every query once, so plans and index caches are in place.
    Clock::time_point warm = Clock::now();
    for (std::size_t q = 0; q < h.queries.size(); ++q) {
      CountRecord rec = CountOnce(h, *options.expected, static_cast<int>(q),
                                  warm, false);
      if (!rec.ok) {
        *error = "warm-up " + h.setup->inputs.queries[q].name + ": " + rec.code;
        return false;
      }
    }
    double warmup_ms = MsSince(warm);
    const double total_ms = MsSince(t);
    setup_ms += total_ms;
    WriteSetupTimes(*h.setup, start_ms, warmup_ms, total_ms, json);
    Progress("set-up " + std::to_string(i + 1) + " done");
  }
  json->EndArray();

  json->Key("queries");
  json->BeginArray();
  for (std::size_t q = 0; q < h.setup->inputs.fixed; ++q)
    json->Value(h.setup->inputs.queries[q].name);
  json->EndArray();

  std::optional<ProcSampler> sampler;
  if (options.trace) sampler.emplace();
  struct PhaseSpec {
    const char* name;
    bool traced;
    double budget_ms;
  };
  std::vector<PhaseSpec> specs;
  if (options.trace) {
    specs = {{"untraced", false, options.seconds * 500.0},
             {"traced", true, options.seconds * 500.0}};
  } else {
    specs = {{"base", false, options.seconds * 1000.0}};
  }
  json->Key("phases");
  json->BeginArray();
  for (const PhaseSpec& spec : specs) {
    std::vector<CountRecord> counts;
    const double builds_before = IndexBuilds();
    Clock::time_point origin = Clock::now();
    // Whole rounds until the phase's time is spent (at least one); a round
    // interleaves the queries, light ones `repeat` times.
    int max_repeat = 1;
    for (const Query& q : h.setup->inputs.queries)
      max_repeat = std::max(max_repeat, q.repeat);
    do {
      for (int r = 0; r < max_repeat; ++r)
        for (std::size_t q = 0; q < h.queries.size(); ++q)
          if (r < h.setup->inputs.queries[q].repeat)
            counts.push_back(CountOnce(h, *options.expected,
                                       static_cast<int>(q), origin,
                                       spec.traced));
    } while (MsSince(origin) < spec.budget_ms);
    WritePhase(spec.name, spec.traced, MsSince(origin),
               IndexBuilds() - builds_before, counts, json);
    Progress(std::string("phase ") + spec.name + " done");
  }
  json->EndArray();

  if (options.trace) {
    ProcCounts peak = sampler->Stop();
    json->Key("proc");
    json->BeginObject();
    json->Field("threads_peak", peak.threads);
    json->Field("fds_peak", peak.fds);
    json->Field("vmsize_peak_mb", peak.vmsize_mb);
    json->EndObject();
    if (!RunStorageProbes(*h.setup, json, error)) return false;
    RunProbes(h.setup->inputs, h.setup->mapped->db, json);
    Progress("probes done");
  }
  h.engine.reset();
  std::string dir = h.setup->dir;
  h.setup.reset();
  std::filesystem::remove_all(dir);
  return true;
}

}  // namespace perfbench
