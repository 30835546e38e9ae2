#include <algorithm>
#include <set>

#include "engine/engine.h"
#include "query/canonical.h"
#include "query/parser.h"
#include "server/protocol.h"
#include "setup.h"
#include "util/cancel.h"

namespace perfbench {

namespace {

constexpr int kLoop = 300;  // calls per query for the microsecond probes

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

sharpcq::EngineOptions ProbeEngineOptions() {
  sharpcq::EngineOptions options;
  options.batch_threads = std::min(4u, std::thread::hardware_concurrency());
  // A budget that never binds, so every execution reports its charges.
  options.max_query_bytes = std::uint64_t{1} << 60;
  return options;
}

// A count reply carrying the fields the daemon sends.
sharpcq::Response SampleCountResponse() {
  sharpcq::Response r = sharpcq::OkResponse();
  for (const char* key :
       {"count", "db", "generation", "method", "width", "cache", "cache_shard",
        "cache_shard_hits", "cache_shard_misses", "filter_hits",
        "filter_passes", "planner_ms", "execute_ms", "cost_model",
        "cost_reorders", "morsels", "worklist_iterations"}) {
    r.Add(key, "123456");
  }
  return r;
}

}  // namespace

void RunProbes(const Inputs& inputs, const sharpcq::Database& db,
               JsonWriter* json) {
  std::vector<sharpcq::ConjunctiveQuery> parsed;
  for (std::size_t i = 0; i < inputs.fixed; ++i)
    parsed.push_back(*sharpcq::ParseQuery(inputs.queries[i].Text()));
  const double calls = static_cast<double>(kLoop * inputs.fixed);

  json->Key("probes");
  json->BeginObject();

  Clock::time_point t = Clock::now();
  for (int i = 0; i < kLoop; ++i)
    for (std::size_t q = 0; q < inputs.fixed; ++q)
      sharpcq::ParseQuery(inputs.queries[q].Text());
  json->Field("parse_us", MsSince(t) * 1000.0 / calls);

  t = Clock::now();
  for (int i = 0; i < kLoop; ++i)
    for (const auto& q : parsed) sharpcq::CanonicalizeQuery(q);
  json->Field("canonicalize_us", MsSince(t) * 1000.0 / calls);

  {
    sharpcq::CountingEngine engine(ProbeEngineOptions());
    for (const auto& q : parsed) engine.Plan(q);
    t = Clock::now();
    for (int i = 0; i < kLoop; ++i)
      for (const auto& q : parsed) engine.Plan(q);
    json->Field("plan_hit_us", MsSince(t) * 1000.0 / calls);

    // Misses: the fixed shapes plus up to 32 never-seen ones, cache cleared
    // before each.
    std::vector<sharpcq::ConjunctiveQuery> shapes = parsed;
    for (std::size_t i = inputs.fixed;
         i < inputs.queries.size() && shapes.size() < inputs.fixed + 32; ++i)
      shapes.push_back(*sharpcq::ParseQuery(inputs.queries[i].Text()));
    std::vector<double> miss_ms;
    for (int round = 0; round < 3; ++round) {
      for (const auto& q : shapes) {
        engine.ClearCache();
        t = Clock::now();
        engine.Plan(q);
        miss_ms.push_back(MsSince(t));
      }
    }
    json->Field("plan_miss_ms", Median(miss_ms));
  }

  {
    const sharpcq::Response response = SampleCountResponse();
    std::string error;
    t = Clock::now();
    for (int i = 0; i < kLoop; ++i) {
      for (std::size_t q = 0; q < inputs.fixed; ++q) {
        sharpcq::Request request;
        request.command = "count";
        request.args = {{"db", kDbName}};
        request.body = inputs.queries[q].Text();
        std::string wire = sharpcq::SerializeRequest(request);
        sharpcq::ParseRequest(wire, &error);
        std::string reply = sharpcq::SerializeResponse(response);
        sharpcq::ParseResponse(reply, &error);
      }
    }
    json->Field("encode_us", MsSince(t) * 1000.0 / calls);
  }

  // auto against every forced strategy with a distinct plan: one warm run
  // and one timed run each; a forced run past 3x auto's time is abandoned.
  // Plans that fall back to backtracking are skipped: backtracking checks
  // its cancel token too rarely for the deadline to bound it.
  double mem_charged = 0.0;
  json->Key("strategies");
  json->BeginArray();
  for (std::size_t qi = 0; qi < parsed.size(); ++qi) {
    const auto& q = parsed[qi];
    json->BeginObject();
    json->Field("query", inputs.queries[qi].name);
    double auto_ms = 0.0;
    std::set<int> planned;
    for (const char* strategy : {"auto", "ps13", "sharp", "hybrid"}) {
      sharpcq::CountingEngine engine(ProbeEngineOptions());
      auto options = sharpcq::PlannerOptionsForStrategy(strategy);
      const bool is_auto = std::string(strategy) == "auto";
      auto kind = engine.Plan(q, *options).plan->strategy;
      if (!is_auto && (kind == sharpcq::PlanStrategy::kBacktracking ||
                       !planned.insert(static_cast<int>(kind)).second)) {
        continue;
      }
      planned.insert(static_cast<int>(kind));
      double ms = -1.0;
      std::string method;
      for (int run = 0; run < 2; ++run) {
        sharpcq::CancelToken token;
        if (!is_auto)
          token.SetDeadlineAfter(std::chrono::microseconds(
              static_cast<std::int64_t>((3.0 * auto_ms + 50.0) * 1000.0)));
        t = Clock::now();
        auto result = engine.Count(q, db, *options, &token);
        double elapsed = MsSince(t);
        if (!result.ok()) {
          ms = -1.0;
          break;
        }
        ms = elapsed;
        method = result.method;
        if (is_auto)
          mem_charged = std::max(
              mem_charged, static_cast<double>(result.mem_charged_bytes));
      }
      if (is_auto) auto_ms = ms;
      json->Key(strategy);
      json->BeginObject();
      json->Field("ms", ms);
      json->Field("method", method);
      json->EndObject();
    }
    json->EndObject();
  }
  json->EndArray();
  json->Field("mem_charged_mb", mem_charged / (1024.0 * 1024.0));
  json->EndObject();
}

}  // namespace perfbench
