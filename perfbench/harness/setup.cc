#include "setup.h"

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "data/csv.h"
#include "data/database.h"
#include "data/value.h"
#include "storage/catalog.h"
#include "util/status.h"
#include "util/string_util.h"

namespace perfbench {

void Progress(const std::string& message) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[perfbench +%.1fs] %s\n", MsSince(start) / 1000.0,
               message.c_str());
}

// --- JSON --------------------------------------------------------------------

void JsonWriter::Separate() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
}

void JsonWriter::Open(char c) {
  Separate();
  out_ += c;
  first_.push_back(true);
}

void JsonWriter::Close(char c) {
  out_ += c;
  first_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  Separate();
  Quote(key);
  out_ += ':';
  after_key_ = true;
}

void JsonWriter::Value(double v) {
  Separate();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.9g", v);
  out_ += buffer;
}

void JsonWriter::Value(std::int64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Value(std::uint64_t v) {
  Separate();
  out_ += std::to_string(v);
}

void JsonWriter::Value(bool v) {
  Separate();
  out_ += v ? "true" : "false";
}

void JsonWriter::Value(std::string_view v) {
  Separate();
  Quote(v);
}

void JsonWriter::Quote(std::string_view v) {
  out_ += '"';
  sharpcq::AppendJsonEscaped(&out_, v);
  out_ += '"';
}

// --- host and /proc ----------------------------------------------------------

namespace {

std::uint64_t CacheBytesFromSysfs(int level) {
  for (int index = 0; index < 8; ++index) {
    std::string base =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    std::ifstream level_file(base + "/level");
    int l = 0;
    if (!(level_file >> l) || l != level) continue;
    std::ifstream size_file(base + "/size");
    std::uint64_t kb = 0;
    if (size_file >> kb) return kb * 1024;
  }
  return 0;
}

std::uint64_t CacheBytes(int name, int level) {
  long v = ::sysconf(name);
  return v > 0 ? static_cast<std::uint64_t>(v) : CacheBytesFromSysfs(level);
}

}  // namespace

HostFacts ReadHostFacts() {
  HostFacts host;
  host.cpus = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      std::size_t colon = line.find(':');
      host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  host.l2_bytes = CacheBytes(_SC_LEVEL2_CACHE_SIZE, 2);
  host.llc_bytes = CacheBytes(_SC_LEVEL3_CACHE_SIZE, 3);
  if (host.llc_bytes == 0) host.llc_bytes = host.l2_bytes;
#ifdef NDEBUG
  host.optimized = true;
#endif
  return host;
}

void WriteHostFacts(const HostFacts& host, JsonWriter* json) {
  json->Key("host");
  json->BeginObject();
  json->Field("cpus", static_cast<std::uint64_t>(host.cpus));
  json->Field("cpu_model", host.cpu_model);
  json->Field("l2_bytes", host.l2_bytes);
  json->Field("llc_bytes", host.llc_bytes);
  json->Field("build_type", host.optimized ? "optimized" : "debug");
  json->EndObject();
}

ProcCounts ReadProc() {
  ProcCounts counts;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      status >> counts.threads;
    } else if (key == "VmSize:") {
      double kb = 0;
      status >> kb;
      counts.vmsize_mb = kb / 1024.0;
    } else if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      counts.vmhwm_mb = kb / 1024.0;
    }
  }
  std::error_code ec;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++counts.fds;
  }
  return counts;
}

CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    double v = 0.0;
    if (!(stat >> v)) break;
    ticks.total += v;
    if (field == 7) ticks.steal = v;
  }
  return ticks;
}

ProcSampler::ProcSampler()
    : thread_([this] {
        while (!stop_.load()) {
          ProcCounts now = ReadProc();
          peak_.threads = std::max(peak_.threads, now.threads);
          peak_.fds = std::max(peak_.fds, now.fds);
          peak_.vmsize_mb = std::max(peak_.vmsize_mb, now.vmsize_mb);
          peak_.vmhwm_mb = std::max(peak_.vmhwm_mb, now.vmhwm_mb);
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
      }) {}

ProcSampler::~ProcSampler() { Stop(); }

ProcCounts ProcSampler::Stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  return peak_;
}

double ScrapeValue(const std::string& body, std::string_view family) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::size_t end = body.find('\n', pos);
    if (end == std::string::npos) end = body.size();
    std::string_view line(body.data() + pos, end - pos);
    if (line.rfind(family, 0) == 0 && line.size() > family.size() &&
        (line[family.size()] == ' ' || line[family.size()] == '{')) {
      std::size_t space = line.rfind(' ');
      total += std::strtod(std::string(line.substr(space + 1)).c_str(),
                           nullptr);
    }
    pos = end + 1;
  }
  return total;
}

// --- spans -------------------------------------------------------------------

std::vector<SpanRecord> FlattenTrace(const sharpcq::TraceNode& root) {
  std::vector<SpanRecord> out;
  std::function<void(const sharpcq::TraceNode&, int)> visit =
      [&](const sharpcq::TraceNode& node, int parent) {
        out.push_back({node.name, node.start_ms, node.duration_ms, parent});
        int self = static_cast<int>(out.size()) - 1;
        for (const auto& child : node.children) visit(*child, self);
      };
  visit(root, -1);
  return out;
}

void WriteSpans(const std::vector<SpanRecord>& spans, JsonWriter* json) {
  json->BeginArray();
  for (const SpanRecord& s : spans) {
    json->BeginArray();
    json->Value(s.name);
    json->Value(s.start_ms);
    json->Value(s.duration_ms);
    json->Value(s.parent);
    json->EndArray();
  }
  json->EndArray();
}

void WriteCounts(const std::vector<CountRecord>& counts, bool serving,
                 bool traced, JsonWriter* json) {
  auto column = [&](std::string_view key, auto get) {
    json->Key(key);
    json->BeginArray();
    for (const CountRecord& c : counts) json->Value(get(c));
    json->EndArray();
  };
  json->Key("counts");
  json->BeginObject();
  column("query", [](const CountRecord& c) { return c.query; });
  column("due_ms", [](const CountRecord& c) { return c.due_ms; });
  column("done_ms", [](const CountRecord& c) { return c.done_ms; });
  column("ok", [](const CountRecord& c) { return c.ok; });
  column("wrong", [](const CountRecord& c) { return c.wrong; });
  column("code", [](const CountRecord& c) { return c.code; });
  column("method", [](const CountRecord& c) { return c.method; });
  column("planner_ms", [](const CountRecord& c) { return c.planner_ms; });
  column("execute_ms", [](const CountRecord& c) { return c.execute_ms; });
  column("cache_hit", [](const CountRecord& c) { return c.cache_hit; });
  column("filter_hits", [](const CountRecord& c) { return c.filter_hits; });
  column("filter_passes",
         [](const CountRecord& c) { return c.filter_passes; });
  column("morsels", [](const CountRecord& c) { return c.morsels; });
  if (serving) {
    column("one_shot", [](const CountRecord& c) { return c.one_shot; });
    column("sent_ms", [](const CountRecord& c) { return c.sent_ms; });
    column("connect_ms", [](const CountRecord& c) { return c.connect_ms; });
    column("generation", [](const CountRecord& c) { return c.generation; });
  }
  if (traced) {
    json->Key("spans");
    json->BeginArray();
    for (const CountRecord& c : counts) WriteSpans(c.spans, json);
    json->EndArray();
  }
  json->EndObject();
}

// --- common set-up -----------------------------------------------------------

bool RunCommonSetup(Workload workload, std::uint64_t seed, int seconds,
                    bool trace, const std::string& dir, CommonSetup* out,
                    std::string* error) {
  Clock::time_point t = Clock::now();
  out->inputs = MakeInputs(workload, seed, seconds, trace);
  std::vector<std::string> csv;
  for (const Relation& r : out->inputs.relations) {
    csv.push_back(ToCsv(r));
    out->csv_bytes += csv.back().size();
  }
  out->gen_ms = MsSince(t);

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  out->dir = dir;
  out->catalog_root = dir + "/catalog";

  sharpcq::Database db;
  sharpcq::ValueDict dict;
  t = Clock::now();
  for (std::size_t i = 0; i < csv.size(); ++i) {
    std::istringstream in(csv[i]);
    auto loaded =
        sharpcq::LoadRelationCsv(in, out->inputs.relations[i].name, &db, &dict);
    if (!loaded.ok()) {
      *error = "csv " + out->inputs.relations[i].name + ": " + loaded.message;
      return false;
    }
  }
  out->csv_parse_ms = MsSince(t);

  sharpcq::Status status;
  sharpcq::Catalog catalog(out->catalog_root);
  t = Clock::now();
  auto generation = catalog.Ingest(kDbName, db, &dict, &status);
  out->catalog_ingest_ms = MsSince(t);
  if (!generation.has_value()) {
    *error = "Catalog::Ingest: " + status.message();
    return false;
  }
  const std::string snapshot = catalog.SnapshotPath(kDbName, *generation);
  out->snapshot_bytes = std::filesystem::file_size(snapshot, ec);
  if (IsServe(workload)) return true;  // the daemon opens the catalog

  t = Clock::now();
  out->mapped = sharpcq::LoadSnapshot(
      snapshot, sharpcq::SnapshotLoadMode::kMapped, &status);
  out->mmap_load_ms = MsSince(t);
  if (!out->mapped.has_value()) {
    *error = "LoadSnapshot: " + status.message();
    return false;
  }
  return true;
}

void WriteSetupTimes(const CommonSetup& s, double start_ms, double warmup_ms,
                     double total_ms, JsonWriter* json) {
  json->BeginObject();
  json->Field("total_ms", total_ms);
  json->Field("gen_ms", s.gen_ms);
  json->Field("csv_parse_ms", s.csv_parse_ms);
  json->Field("catalog_ingest_ms", s.catalog_ingest_ms);
  json->Field("mmap_load_ms", s.mmap_load_ms);
  json->Field("start_ms", start_ms);
  json->Field("warmup_ms", warmup_ms);
  json->Field("csv_bytes", s.csv_bytes);
  json->Field("snapshot_bytes", s.snapshot_bytes);
  json->EndObject();
}

bool RunStorageProbes(const CommonSetup& setup, JsonWriter* json,
                      std::string* error) {
  std::vector<double> open_ms, write_ms, load_ms;
  const std::string probe_path = setup.dir + "/probe.sharpcq";
  for (int i = 0; i < kStorageProbeRepeats; ++i) {
    sharpcq::Status status;
    sharpcq::Catalog cold(setup.catalog_root);
    Clock::time_point t = Clock::now();
    auto entry = cold.Open(kDbName, &status);
    open_ms.push_back(MsSince(t));
    if (entry == nullptr) {
      *error = "Catalog::Open: " + status.message();
      return false;
    }
    t = Clock::now();
    auto written = sharpcq::WriteSnapshot(*entry->db, entry->dict.get(),
                                          probe_path, &status);
    write_ms.push_back(MsSince(t));
    if (!written.has_value()) {
      *error = "WriteSnapshot: " + status.message();
      return false;
    }
    t = Clock::now();
    auto loaded = sharpcq::LoadSnapshot(
        cold.SnapshotPath(kDbName, entry->generation),
        sharpcq::SnapshotLoadMode::kMapped, &status);
    load_ms.push_back(MsSince(t));
    if (!loaded.has_value()) {
      *error = "LoadSnapshot: " + status.message();
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::remove(probe_path, ec);
  json->Key("storage");
  json->BeginObject();
  json->Array("catalog_open_ms", open_ms);
  json->Array("snapshot_write_ms", write_ms);
  json->Array("mmap_load_ms", load_ms);
  json->EndObject();
  return true;
}

}  // namespace perfbench
