// serve_hot and serve_ingest: an in-process sharpcqd Daemon serving the
// catalog, driven by an open-loop generator over kServeConnections
// persistent connections plus one-request connections; serve_ingest adds an
// open-loop ingest stream on its own connection.

#include <condition_variable>
#include <deque>
#include <filesystem>
#include <mutex>

#include "server/client.h"
#include "server/daemon.h"
#include "server/protocol.h"
#include "setup.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace perfbench {

namespace {

constexpr char kHost[] = "127.0.0.1";

struct IngestRecord {
  double due_ms = 0.0;
  double done_ms = 0.0;
  bool ok = false;
  std::string code;
  std::uint64_t generation = 0;
  std::uint64_t csv_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
};

struct PhaseResult {
  const Phase* phase = nullptr;
  std::vector<CountRecord> counts;
  std::vector<IngestRecord> ingests;
  std::vector<double> gen_late_ms;
  double wall_ms = 0.0;
  double index_builds = 0.0;
};

std::uint64_t FieldU64(const sharpcq::Response& r, std::string_view key) {
  const std::string* v = r.Field(key);
  return v == nullptr ? 0 : std::strtoull(v->c_str(), nullptr, 10);
}

double FieldMs(const sharpcq::Response& r, std::string_view key) {
  const std::string* v = r.Field(key);
  return v == nullptr ? 0.0 : std::strtod(v->c_str(), nullptr);
}

class Server {
 public:
  Server(const RunOptions& options, const CommonSetup& setup)
      : options_(options),
        setup_(setup),
        daemon_(DaemonOptionsFor(setup.catalog_root)),
        catalog_(setup.catalog_root) {
    for (const Query& q : setup.inputs.queries) texts_.push_back(q.Text());
  }
  ~Server() {
    for (sharpcq::Client& c : clients_) c.Close();
    ingest_client_.Close();
    daemon_.Stop();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  bool Start(std::string* error) {
    if (!daemon_.Start(error)) return false;
    clients_.resize(kServeConnections);
    for (sharpcq::Client& c : clients_)
      if (!c.Connect(kHost, daemon_.port(), error)) return false;
    return ingest_client_.Connect(kHost, daemon_.port(), error);
  }

  // Each fixed shape once: opens the generation, fills the plan cache and
  // builds the indexes the hot shapes probe.
  bool WarmUp(std::string* error) {
    for (std::size_t q = 0; q < setup_.inputs.fixed; ++q) {
      CountRecord rec;
      rec.query = static_cast<int>(q);
      Send(&clients_[q % clients_.size()], false, &rec, Clock::now());
      if (!rec.ok) {
        *error = "warm-up " + setup_.inputs.queries[q].name + ": " + rec.code;
        return false;
      }
    }
    return true;
  }

  double Scrape(double* scrape_ms) {
    sharpcq::Request request;
    request.command = "metrics";
    std::string error;
    Clock::time_point t = Clock::now();
    auto response = clients_[0].Call(request, &error);
    if (scrape_ms != nullptr) *scrape_ms = MsSince(t);
    if (!response.has_value() || !response->ok) return -1.0;
    return ScrapeValue(response->body, "sharpcq_index_builds_total");
  }

  PhaseResult RunPhase(const Phase& phase) {
    PhaseResult out;
    out.phase = &phase;
    out.counts.resize(phase.requests.size());
    out.ingests.resize(phase.ingest_due_ms.size());
    const double builds_before = Scrape(nullptr);

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::size_t> ready;
    bool finished = false;
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);

    std::vector<std::thread> workers;
    for (sharpcq::Client& client : clients_) {
      workers.emplace_back([&, client_ptr = &client] {
        for (;;) {
          std::size_t i = 0;
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return finished || !ready.empty(); });
            if (ready.empty()) return;
            i = ready.front();
            ready.pop_front();
          }
          const ScheduledRequest& req = phase.requests[i];
          CountRecord& rec = out.counts[i];
          rec.query = req.query;
          rec.one_shot = req.one_shot;
          rec.due_ms = req.due_ms;
          Send(client_ptr, req.one_shot, &rec, start, phase.traced);
        }
      });
    }
    std::thread ingester;
    if (!phase.ingest_due_ms.empty()) {
      ingester = std::thread([&] {
        for (std::size_t i = 0; i < phase.ingest_due_ms.size(); ++i) {
          std::this_thread::sleep_until(
              start + std::chrono::microseconds(static_cast<std::int64_t>(
                          phase.ingest_due_ms[i] * 1000.0)));
          Ingest(&out.ingests[i], phase.ingest_due_ms[i], start);
        }
      });
    }

    out.gen_late_ms.reserve(phase.requests.size());
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(static_cast<std::int64_t>(
                      phase.requests[i].due_ms * 1000.0)));
      {
        std::lock_guard<std::mutex> lock(mu);
        ready.push_back(i);
      }
      cv.notify_one();
      out.gen_late_ms.push_back(MsSince(start) - phase.requests[i].due_ms);
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      finished = true;
    }
    cv.notify_all();
    for (std::thread& w : workers) w.join();
    if (ingester.joinable()) ingester.join();
    out.wall_ms = MsSince(start);
    out.index_builds = Scrape(nullptr) - builds_before;
    return out;
  }

  sharpcq::Catalog& catalog() { return catalog_; }

 private:
  static sharpcq::DaemonOptions DaemonOptionsFor(const std::string& root) {
    sharpcq::DaemonOptions options;
    options.catalog_root = root;
    options.port = 0;
    options.max_inflight = kServeConnections;
    options.catalog.engine.batch_threads =
        std::min(4u, std::thread::hardware_concurrency());
    return options;
  }

  void Send(sharpcq::Client* persistent, bool one_shot, CountRecord* rec,
            Clock::time_point start, bool traced = false) {
    sharpcq::Request request;
    request.command = "count";
    request.args = {{"db", kDbName}};
    if (traced) request.args.emplace_back("trace", "1");
    request.body = texts_[rec->query];
    std::string error;
    sharpcq::Client fresh;
    sharpcq::Client* client = persistent;
    if (one_shot) {
      Clock::time_point t = Clock::now();
      bool connected = fresh.Connect(kHost, daemon_.port(), &error);
      rec->connect_ms = MsSince(t);
      if (!connected) {
        rec->done_ms = MsSince(start);
        rec->code = "CONNECT";
        return;
      }
      client = &fresh;
    }
    rec->sent_ms = MsSince(start);
    auto response = client->Call(request, &error);
    rec->done_ms = MsSince(start);
    if (!response.has_value()) {
      rec->code = "TRANSPORT";
      client->Close();
      if (!one_shot) client->Connect(kHost, daemon_.port(), &error);
      return;
    }
    if (!response->ok) {
      rec->code = response->code;
      return;
    }
    rec->generation = FieldU64(*response, "generation");
    const std::string* count = response->Field("count");
    const std::string* expected =
        options_.expected->Find(rec->query, rec->generation);
    rec->wrong = count == nullptr || expected == nullptr || *count != *expected;
    rec->ok = !rec->wrong;
    if (rec->wrong) rec->code = "WRONG_COUNT";
    if (const std::string* method = response->Field("method"))
      rec->method = *method;
    rec->planner_ms = FieldMs(*response, "planner_ms");
    rec->execute_ms = FieldMs(*response, "execute_ms");
    const std::string* cache = response->Field("cache");
    rec->cache_hit = cache != nullptr && *cache == "hit";
    rec->filter_hits = FieldU64(*response, "filter_hits");
    rec->filter_passes = FieldU64(*response, "filter_passes");
    rec->morsels = FieldU64(*response, "morsels");
    if (traced) {
      auto root = sharpcq::ParseTraceNode(response->body, &error);
      if (root != nullptr) rec->spans = FlattenTrace(*root);
    }
  }

  void Ingest(IngestRecord* rec, double due_ms, Clock::time_point start) {
    const Relation& batch = setup_.inputs.ingest_batches[next_batch_++];
    sharpcq::Request request;
    request.command = "ingest";
    request.args = {{"db", kDbName}, {"relation", batch.name}};
    request.body = ToCsv(batch);
    rec->due_ms = due_ms;
    rec->csv_bytes = request.body.size();
    std::string error;
    auto response = ingest_client_.Call(request, &error);
    rec->done_ms = MsSince(start);
    if (!response.has_value()) {
      rec->code = "TRANSPORT";
      return;
    }
    if (!response->ok) {
      rec->code = response->code;
      return;
    }
    rec->ok = true;
    rec->generation = FieldU64(*response, "generation");
    std::error_code ec;
    rec->snapshot_bytes = std::filesystem::file_size(
        catalog_.SnapshotPath(kDbName, rec->generation), ec);
  }

  const RunOptions& options_;
  const CommonSetup& setup_;
  sharpcq::Daemon daemon_;
  sharpcq::Catalog catalog_;  // the harness's own view, for file sizes
  std::vector<std::string> texts_;
  std::vector<sharpcq::Client> clients_;
  sharpcq::Client ingest_client_;
  std::size_t next_batch_ = 0;
};

void WritePhase(const PhaseResult& r, JsonWriter* json) {
  json->BeginObject();
  json->Field("name", r.phase->name);
  json->Field("rate", r.phase->rate);
  json->Field("duration_ms", r.phase->duration_ms);
  json->Field("traced", r.phase->traced);
  json->Field("wall_ms", r.wall_ms);
  json->Field("index_builds", r.index_builds);
  json->Array("gen_late_ms", r.gen_late_ms);

  WriteCounts(r.counts, /*serving=*/true, r.phase->traced, json);

  auto ingest_column = [&](std::string_view key, auto get) {
    json->Key(key);
    json->BeginArray();
    for (const IngestRecord& i : r.ingests) json->Value(get(i));
    json->EndArray();
  };
  json->Key("ingests");
  json->BeginObject();
  ingest_column("due_ms", [](const IngestRecord& i) { return i.due_ms; });
  ingest_column("done_ms", [](const IngestRecord& i) { return i.done_ms; });
  ingest_column("ok", [](const IngestRecord& i) { return i.ok; });
  ingest_column("code", [](const IngestRecord& i) { return i.code; });
  ingest_column("generation",
                [](const IngestRecord& i) { return i.generation; });
  ingest_column("csv_bytes", [](const IngestRecord& i) { return i.csv_bytes; });
  ingest_column("snapshot_bytes",
                [](const IngestRecord& i) { return i.snapshot_bytes; });
  json->EndObject();
  json->EndObject();
}

}  // namespace

bool RunServe(const RunOptions& options, JsonWriter* json,
              std::string* error) {
  // The last set-up stays up for measurement.
  std::unique_ptr<CommonSetup> setup;
  std::unique_ptr<Server> server;
  json->Key("setups");
  json->BeginArray();
  double setup_ms = 0.0;
  for (int i = 0; MoreSetups(i, setup_ms); ++i) {
    server.reset();
    if (setup != nullptr) std::filesystem::remove_all(setup->dir);
    setup = std::make_unique<CommonSetup>();
    Clock::time_point t = Clock::now();
    if (!RunCommonSetup(options.workload, options.seed, options.seconds,
                        options.trace,
                        options.workdir + "/setup" + std::to_string(i),
                        setup.get(), error)) {
      return false;
    }
    Clock::time_point started = Clock::now();
    server = std::make_unique<Server>(options, *setup);
    if (!server->Start(error)) return false;
    double start_ms = MsSince(started);
    Clock::time_point warm = Clock::now();
    if (!server->WarmUp(error)) return false;
    double warmup_ms = MsSince(warm);
    const double total_ms = MsSince(t);
    setup_ms += total_ms;
    WriteSetupTimes(*setup, start_ms, warmup_ms, total_ms, json);
    Progress("set-up " + std::to_string(i + 1) + " done");
  }
  json->EndArray();

  json->Key("queries");
  json->BeginArray();
  for (std::size_t q = 0; q < setup->inputs.fixed; ++q)
    json->Value(setup->inputs.queries[q].name);
  json->EndArray();

  std::optional<ProcSampler> sampler;
  if (options.trace) sampler.emplace();
  std::vector<PhaseResult> results;
  for (const Phase& phase : setup->inputs.phases) {
    results.push_back(server->RunPhase(phase));
    Progress("phase " + phase.name + " done");
    const PhaseResult& r = results.back();
    // Ladder: stop once a step's backlog outlasts the step by a second.
    if (phase.name == "ladder" && r.wall_ms > phase.duration_ms + 1000.0)
      break;
    if (phase.name == "ladder")
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  json->Key("phases");
  json->BeginArray();
  for (const PhaseResult& r : results) WritePhase(r, json);
  json->EndArray();

  if (options.trace) {
    ProcCounts peak = sampler->Stop();
    json->Key("proc");
    json->BeginObject();
    json->Field("threads_peak", peak.threads);
    json->Field("fds_peak", peak.fds);
    json->Field("vmsize_peak_mb", peak.vmsize_mb);
    json->EndObject();
    double scrape_ms = 0.0;
    server->Scrape(&scrape_ms);
    json->Field("scrape_ms", scrape_ms);
    if (!RunStorageProbes(*setup, json, error)) return false;
    sharpcq::Status status;
    auto entry = server->catalog().Open(kDbName, &status);
    if (entry == nullptr) {
      *error = "Catalog::Open after the run: " + status.message();
      return false;
    }
    RunProbes(setup->inputs, *entry->db, json);
    Progress("probes done");
  }
  server.reset();
  std::filesystem::remove_all(setup->dir);
  return true;
}

}  // namespace perfbench
