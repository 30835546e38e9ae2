#include "server/daemon.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <utility>

#include "data/csv.h"
#include "engine/engine.h"
#include "query/parser.h"
#include "util/count_int.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace sharpcq {

namespace {

// Database names become directory names under the catalog root, so they
// are restricted to a filesystem-safe alphabet (and cannot start with '.',
// which also rules out traversal).
bool ValidDbName(const std::string& name) {
  if (name.empty() || name[0] == '.') return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string FormatMs(double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", ms);
  return buffer;
}

// Maps a storage-layer Status onto the wire's error codes. Most codes
// mirror StatusCodeName 1:1 (the taxonomy was designed for that); the two
// exceptions keep historical client expectations stable.
Response CatalogError(const Status& status) {
  const char* code = wire::kInternal;
  switch (status.code()) {
    case StatusCode::kNotFound:
      code = wire::kNotFound;
      break;
    case StatusCode::kInvalidArgument:
      code = wire::kBadRequest;
      break;
    case StatusCode::kCorruptData:
      code = wire::kCorruptData;
      break;
    case StatusCode::kIoError:
      code = wire::kIoError;
      break;
    default:
      break;
  }
  return ErrorResponse(code, status.message());
}

// Installs the daemon-level memory budgets into the engine options every
// per-database engine is built from: the per-query cap rides as a plain
// limit, the daemon-wide cap as one shared MemoryBudget (all engines
// charge the same pool).
DaemonOptions ApplyMemoryBudgets(DaemonOptions options) {
  options.catalog.engine.max_query_bytes = options.max_query_bytes;
  if (options.max_total_bytes > 0) {
    options.catalog.engine.total_budget =
        std::make_shared<MemoryBudget>(options.max_total_bytes);
  }
  return options;
}

// Admission-gated commands: the ones that can run long.
bool IsGated(const std::string& command) {
  return command == "count" || command == "ingest";
}

}  // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(ApplyMemoryBudgets(std::move(options))),
      catalog_(options_.catalog_root, options_.catalog) {}

Daemon::~Daemon() { Stop(); }

bool Daemon::Start(std::string* error) {
  auto fail = [&](std::string message) {
    if (error != nullptr) *error = std::move(message);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return fail(std::string("socket: ") + std::strerror(errno));
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return fail("bad listen address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) != 0) {
    return fail(std::string("listen: ") + std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = static_cast<int>(ntohs(bound.sin_port));
  // Nonblocking, so the loop drains the accept queue without stalling.
  ::fcntl(listen_fd_, F_SETFL, ::fcntl(listen_fd_, F_GETFL) | O_NONBLOCK);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) return fail(std::string("eventfd: ") + std::strerror(errno));

  start_time_ = MonotonicNow();
  started_at_ = WallTimestamp();
  workers_ = std::make_unique<ThreadPool>(options_.max_inflight + 1);
  loop_thread_ = std::thread([this] { Loop(); });
  return true;
}

void Daemon::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Daemon::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
  }
  if (stopping_.exchange(true) || !loop_thread_.joinable()) return;
  Wake();
  loop_thread_.join();
  ::close(wake_fd_);
}

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Daemon::Bump(std::uint64_t DaemonStats::*counter) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(stats_.*counter);
}

void Daemon::Loop() {
  std::vector<pollfd> polled;
  while (!stopping_.load()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.connections_open = connections_.size();
      stats_.inflight = inflight_;
      stats_.queued = queue_.size();
    }
    polled.clear();
    polled.push_back({wake_fd_, POLLIN, 0});
    // Out of fds, the listener stays readable: it is retried every 100 ms
    // instead of polled (and spun on).
    polled.push_back({listen_fd_, short(accept_paused_ ? 0 : POLLIN), 0});
    for (const auto& [fd, conn] : connections_) {
      // A busy connection is watched for the hang-up alone: the protocol
      // is request-response, so bytes arriving mid-request wait their turn.
      if (!conn.busy) {
        polled.push_back({fd, POLLIN, 0});
      } else if (!conn.hung_up) {
        polled.push_back({fd, POLLRDHUP, 0});
      }
    }
    // EINTR leaves every revents zero: the pass below is a no-op.
    if (::poll(polled.data(), polled.size(), accept_paused_ ? 100 : -1) < 0 &&
        errno != EINTR) {
      break;
    }
    // Connections first: Reap and Accept may close and reuse fds.
    for (std::size_t i = 2; i < polled.size(); ++i) {
      if (polled[i].revents == 0) continue;
      Connection& conn = connections_.at(polled[i].fd);
      if (conn.busy) {
        conn.hung_up = true;
        conn.token->Cancel();
      } else {
        Receive(conn);
      }
    }
    if (polled[0].revents != 0) Reap();
    if (polled[1].revents != 0 || accept_paused_) Accept();
  }
  // Stopping: cancel what waits or runs, kick workers out of send, and let
  // every request already handed out run to its (cancelled) end.
  for (auto& [fd, conn] : connections_) {
    if (conn.busy) conn.token->Cancel();
    ::shutdown(fd, SHUT_RDWR);
  }
  workers_.reset();
  for (auto& [fd, conn] : connections_) ::close(fd);
  ::close(listen_fd_);
}

void Daemon::Accept() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0 && (errno == EINTR || errno == ECONNABORTED)) continue;
    // Anything but a drained queue (EMFILE, ENFILE, ENOBUFS, ...) pauses.
    accept_paused_ = fd < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
    if (fd < 0) return;
    if (SHARPCQ_FAILPOINT("daemon.accept") != FailpointAction::kNone) {
      ::close(fd);  // injected accept failure: drop, keep listening
      continue;
    }
    // Request/response round trips are latency-bound; without this, Nagle
    // can couple small frames to the peer's delayed ACK.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_[fd].fd = fd;
    Bump(&DaemonStats::connections_accepted);
  }
}

void Daemon::Receive(Connection& conn) {
  char chunk[64 << 10];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), MSG_DONTWAIT);
  if (n > 0) {
    conn.in.append(chunk, static_cast<std::size_t>(n));
    NextFrame(conn);
  } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                        errno != EINTR)) {
    CloseConnection(conn.fd);  // EOF, mid-frame or not, or a socket error
  }
}

void Daemon::NextFrame(Connection& conn) {
  const std::optional<std::uint32_t> size = FrameHeaderSize(conn.in);
  if (!size.has_value()) return;
  const std::size_t frame_bytes = kFrameHeaderBytes + *size;
  Job job;
  job.conn = &conn;
  if (*size > options_.max_frame_bytes) {
    job.too_large = true;
    job.error = FrameTooLargeError(*size, options_.max_frame_bytes);
  } else if (conn.in.size() < frame_bytes) {
    conn.in.reserve(frame_bytes);
    return;
  } else {
    job.request = ParseRequest(
        std::string_view(conn.in).substr(kFrameHeaderBytes, *size), &job.error);
    conn.in.erase(0, frame_bytes);
  }
  conn.busy = true;
  conn.token.emplace();
  if (job.request.has_value() && IsGated(job.request->command)) {
    if (inflight_ < options_.max_inflight) {
      ++inflight_;
      conn.admitted = true;
    } else if (queue_.size() < options_.max_queued) {
      queue_.push_back(std::move(job));
      return;
    } else {
      job.overloaded = true;
    }
  }
  Submit(std::move(job));
}

void Daemon::Submit(Job job) {
  workers_->Submit([this, job = std::move(job)]() mutable {
    Serve(std::move(job));
  });
}

void Daemon::Reap() {
  std::uint64_t wakeups;  // a failed read leaves the eventfd readable
  if (::read(wake_fd_, &wakeups, sizeof(wakeups)) < 0) return;
  std::vector<Connection*> done;
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done.swap(done_);
  }
  for (Connection* conn : done) {
    if (conn->admitted && !queue_.empty()) {
      // The freed slot passes straight to the oldest waiting request.
      queue_.front().conn->admitted = true;
      Submit(std::move(queue_.front()));
      queue_.pop_front();
    } else if (conn->admitted) {
      --inflight_;
    }
    conn->busy = conn->admitted = false;
    if (conn->drop || conn->hung_up) {
      CloseConnection(conn->fd);
    } else {
      NextFrame(*conn);  // a frame may already be buffered
    }
  }
}

void Daemon::CloseConnection(int fd) {
  connections_.erase(fd);
  ::close(fd);
}

void Daemon::Wake() {
  const std::uint64_t one = 1;
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
}

void Daemon::Serve(Job job) {
  Connection& conn = *job.conn;
  conn.drop = true;  // unless a response goes out below
  if (SHARPCQ_FAILPOINT("daemon.recv") == FailpointAction::kNone) {
    const bool parsed = job.request.has_value();
    const Response response =
        job.too_large ? ErrorResponse(wire::kFrameTooLarge, job.error)
        : parsed ? Dispatch(*job.request, job.overloaded, &*conn.token)
                 : ErrorResponse(wire::kBadRequest, job.error);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job.too_large) {
        ++stats_.frames_too_large;
      } else if (!parsed) {
        ++stats_.requests;
        ++stats_.malformed_requests;
      }
      ++(response.ok ? stats_.responses_ok : stats_.responses_error);
    }
    const bool sent =
        SHARPCQ_FAILPOINT("daemon.send") == FailpointAction::kNone &&
        SendFrame(conn.fd, SerializeResponse(response), nullptr);
    conn.drop = !sent || job.too_large;
    if (sent && parsed && job.request->command == "shutdown") {
      // Keep serving: Stop() itself must come from the Wait() caller.
      std::lock_guard<std::mutex> lock(mu_);
      stop_requested_ = true;
      stop_cv_.notify_all();
    }
  }
  {
    std::lock_guard<std::mutex> lock(done_mu_);
    done_.push_back(&conn);
  }
  Wake();
}

Response Daemon::Dispatch(const Request& request, bool overloaded,
                          CancelToken* token) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.requests;
    if (request.command == "count") ++stats_.cmd_count;
    else if (request.command == "ingest") ++stats_.cmd_ingest;
    else if (request.command == "status") ++stats_.cmd_status;
    else if (request.command == "inspect") ++stats_.cmd_inspect;
    else if (request.command == "metrics") ++stats_.cmd_metrics;
    else if (request.command == "shutdown") ++stats_.cmd_shutdown;
  }
  // status/inspect/metrics/shutdown bypass admission: health checks and
  // scrapes must answer even when every count slot is busy.
  if (request.command == "status") return HandleStatus();
  if (request.command == "inspect") return HandleInspect(request);
  if (request.command == "metrics") return HandleMetrics();
  if (request.command == "shutdown") return OkResponse();
  if (IsGated(request.command)) {
    if (overloaded) {
      Bump(&DaemonStats::rejected_overload);
      return ErrorResponse(
          wire::kOverloaded,
          "admission queue full (" + std::to_string(options_.max_inflight) +
              " inflight, " + std::to_string(options_.max_queued) +
              " queued)");
    }
    const MonotonicClock::time_point start = MonotonicNow();
    Response response = request.command == "count"
                            ? HandleCount(request, token)
                            : HandleIngest(request);
    (request.command == "count" ? count_latency_ : ingest_latency_)
        .Record(ElapsedMs(start));
    return response;
  }
  return ErrorResponse(wire::kUnknownCommand,
                       "unknown command: " + request.command);
}

Response Daemon::HandleCount(const Request& request, CancelToken* token) {
  const std::string* db_name = request.Arg("db");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "count requires db=<name>");
  }
  if (request.body.empty()) {
    return ErrorResponse(wire::kBadRequest,
                         "count requires the query text as the request body");
  }
  std::string error;
  Status open_status;
  std::shared_ptr<const Catalog::Entry> entry =
      catalog_.Open(*db_name, &open_status);
  if (entry == nullptr) return CatalogError(open_status);

  const std::string* strategy = request.Arg("strategy");
  std::optional<PlannerOptions> planner = PlannerOptionsForStrategy(
      strategy != nullptr ? *strategy : "auto", entry->engine->options().planner);
  if (!planner.has_value()) {
    return ErrorResponse(wire::kBadRequest, "unknown strategy: " + *strategy);
  }

  // Query constants may intern names the snapshot dictionary lacks, so the
  // parse works on a private copy; the underlying data never changes.
  ValueDict parse_dict = *entry->dict;
  std::optional<ConjunctiveQuery> query =
      ParseQuery(request.body, &parse_dict, &error);
  if (!query.has_value()) return ErrorResponse(wire::kParseError, error);

  std::chrono::milliseconds deadline = options_.default_deadline;
  if (const std::string* arg = request.Arg("deadline_ms"); arg != nullptr) {
    char* end = nullptr;
    long long ms = std::strtoll(arg->c_str(), &end, 10);
    if (end != arg->c_str() + arg->size() || ms < 0) {
      return ErrorResponse(wire::kBadRequest, "bad deadline_ms: " + *arg);
    }
    deadline = std::chrono::milliseconds(ms);
  }
  if (deadline.count() > 0) token->SetDeadlineAfter(deadline);

  // trace=1: record the span tree and return it as the response body.
  std::optional<Trace> trace;
  if (const std::string* arg = request.Arg("trace");
      arg != nullptr && *arg == "1") {
    trace.emplace();
  }

  CountResult result =
      entry->engine->Count(*query, *entry->db, *planner, token,
                           trace.has_value() ? &*trace : nullptr);

  Response response;
  if (result.status == CountStatus::kDeadlineExceeded) {
    Bump(&DaemonStats::deadline_exceeded);
    response = ErrorResponse(wire::kDeadlineExceeded,
                             "deadline of " + std::to_string(deadline.count()) +
                                 "ms expired during execution");
  } else if (result.status == CountStatus::kCancelled) {
    Bump(&DaemonStats::cancelled_disconnect);
    response = ErrorResponse(wire::kCancelled, "request cancelled");
  } else if (result.status == CountStatus::kResourceExhausted) {
    Bump(&DaemonStats::resource_exhausted);
    response = ErrorResponse(
        wire::kResourceExhausted,
        "memory budget exhausted (" +
            RefusedAllocationText(result.mem_refused_bytes) + ")");
  } else {
    response = OkResponse();
    response.Add("count", CountToString(result.count));
  }

  // Provenance travels on every outcome — an expired request still tells
  // the operator which strategy and cache shard it was on.
  response.Add("db", entry->name);
  response.Add("generation", std::to_string(entry->generation));
  response.Add("method", result.method);
  response.Add("width", std::to_string(result.width));
  response.Add("cache", result.cache_hit ? "hit" : "miss");
  response.Add("cache_shard", std::to_string(result.cache_shard));
  response.Add("cache_shard_hits", std::to_string(result.cache_shard_hits));
  response.Add("cache_shard_misses",
               std::to_string(result.cache_shard_misses));
  response.Add("filter_hits", std::to_string(result.filter_hits));
  response.Add("filter_passes", std::to_string(result.filter_passes));
  response.Add("planner_ms", FormatMs(result.planner_ms));
  response.Add("execute_ms", FormatMs(result.execute_ms));
  response.Add("cost_model", result.cost_model_steered ? "steered" : "off-path");
  response.Add("cost_reorders", std::to_string(result.cost_reorders));
  response.Add("morsels", std::to_string(result.morsels));
  response.Add("worklist_iterations",
               std::to_string(result.worklist_iterations));
  if (trace.has_value()) {
    response.body = SerializeTraceNode(trace->root());
  }
  return response;
}

Response Daemon::HandleIngest(const Request& request) {
  const std::string* db_name = request.Arg("db");
  const std::string* relation = request.Arg("relation");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "ingest requires db=<name>");
  }
  if (relation == nullptr || relation->empty()) {
    return ErrorResponse(wire::kBadRequest, "ingest requires relation=<name>");
  }

  // Read-copy-swap under the ingest lock: counts keep serving the pinned
  // old generation throughout (ingest-while-serving).
  std::lock_guard<std::mutex> ingest_lock(ingest_mu_);
  Status status;
  Database db;
  ValueDict dict;
  if (catalog_.CurrentGeneration(*db_name, &status).has_value()) {
    std::shared_ptr<const Catalog::Entry> entry =
        catalog_.Open(*db_name, &status);
    if (entry == nullptr) return CatalogError(status);
    db = *entry->db;
    dict = *entry->dict;
  }

  std::istringstream body(request.body);
  CsvResult loaded = LoadRelationCsv(body, *relation, &db, &dict);
  if (!loaded.ok()) {
    return ErrorResponse(wire::kParseError,
                         "relation " + *relation + ": " + loaded.message);
  }
  std::optional<std::uint64_t> generation =
      catalog_.Ingest(*db_name, db, &dict, &status);
  if (!generation.has_value()) {
    return CatalogError(status);
  }
  Response response = OkResponse();
  response.Add("db", *db_name);
  response.Add("generation", std::to_string(*generation));
  response.Add("relation", *relation);
  response.Add("tuples", std::to_string(loaded.tuples));
  return response;
}

Response Daemon::HandleStatus() {
  Response response = OkResponse();
  const DaemonStats s = stats();
  for (const auto& [key, value] :
       std::initializer_list<std::pair<const char*, std::uint64_t>>{
           {"connections_accepted", s.connections_accepted},
           {"requests", s.requests},
           {"responses_ok", s.responses_ok},
           {"responses_error", s.responses_error},
           {"rejected_overload", s.rejected_overload},
           {"deadline_exceeded", s.deadline_exceeded},
           {"cancelled_disconnect", s.cancelled_disconnect},
           {"resource_exhausted", s.resource_exhausted},
           {"frames_too_large", s.frames_too_large},
           {"malformed_requests", s.malformed_requests},
           {"cmd_count", s.cmd_count},
           {"cmd_ingest", s.cmd_ingest},
           {"cmd_status", s.cmd_status},
           {"cmd_inspect", s.cmd_inspect},
           {"cmd_metrics", s.cmd_metrics},
           {"cmd_shutdown", s.cmd_shutdown},
           {"connections_open", s.connections_open},
           {"inflight", s.inflight},
           {"queued", s.queued}}) {
    response.Add(key, std::to_string(value));
  }
  response.Add("uptime_s",
               FormatMs(ElapsedMs(start_time_) / 1000.0));
  response.Add("started_at", started_at_);
#ifdef NDEBUG
  response.Add("build_type", "optimized");
#else
  response.Add("build_type", "debug");
#endif
  response.Add("cost_model",
               options_.catalog.engine.enable_cost_model ? "on" : "off");
  response.Add("max_query_bytes", std::to_string(options_.max_query_bytes));
  response.Add("max_total_bytes", std::to_string(options_.max_total_bytes));
  if (const MemoryBudget* budget =
          options_.catalog.engine.total_budget.get();
      budget != nullptr) {
    response.Add("mem_inflight_bytes", std::to_string(budget->used()));
  }
  std::vector<std::string> names = catalog_.ListDatabases();
  response.Add("databases", JoinStrings(names, ","));
  return response;
}

Response Daemon::HandleMetrics() {
  Response response = OkResponse();
  // Process-wide families first (engine counts, plan cache, probe filters,
  // index builds), then this daemon instance's own sharpcqd_* section.
  std::string body = MetricsRegistry::Instance().RenderPrometheus();
  const DaemonStats s = stats();
  auto family = [&body](const char* name, const char* type) {
    body += std::string("# TYPE ") + name + " " + type + "\n";
  };
  auto single = [&](const char* name, const char* type, auto value) {
    family(name, type);
    AppendPrometheusLine(&body, name, "", value);
  };
  single("sharpcqd_uptime_seconds", "gauge", ElapsedMs(start_time_) / 1000.0);
  single("sharpcqd_connections_total", "counter", s.connections_accepted);
  single("sharpcqd_connections_open", "gauge", s.connections_open);
  family("sharpcqd_requests_total", "counter");
  for (const auto& [command, n] :
       std::initializer_list<std::pair<const char*, std::uint64_t>>{
           {"count", s.cmd_count},
           {"ingest", s.cmd_ingest},
           {"inspect", s.cmd_inspect},
           {"metrics", s.cmd_metrics},
           {"status", s.cmd_status},
           {"shutdown", s.cmd_shutdown}}) {
    AppendPrometheusLine(&body, "sharpcqd_requests_total",
                         std::string("{command=\"") + command + "\"}", n);
  }
  family("sharpcqd_responses_total", "counter");
  AppendPrometheusLine(&body, "sharpcqd_responses_total", "{result=\"ok\"}",
                       s.responses_ok);
  AppendPrometheusLine(&body, "sharpcqd_responses_total",
                       "{result=\"error\"}", s.responses_error);
  single("sharpcqd_rejected_overload_total", "counter", s.rejected_overload);
  single("sharpcqd_deadline_exceeded_total", "counter", s.deadline_exceeded);
  single("sharpcqd_cancelled_disconnect_total", "counter",
         s.cancelled_disconnect);
  single("sharpcqd_resource_exhausted_total", "counter", s.resource_exhausted);
  if (const MemoryBudget* budget =
          options_.catalog.engine.total_budget.get();
      budget != nullptr) {
    single("sharpcqd_memory_budget_bytes", "gauge", budget->limit());
    single("sharpcqd_memory_inflight_bytes", "gauge", budget->used());
  }
  single("sharpcqd_frames_too_large_total", "counter", s.frames_too_large);
  single("sharpcqd_malformed_requests_total", "counter", s.malformed_requests);
  single("sharpcqd_inflight_requests", "gauge", s.inflight);
  single("sharpcqd_queued_requests", "gauge", s.queued);
  body += "# TYPE sharpcqd_request_latency_ms histogram\n";
  count_latency_.snapshot().AppendPrometheus(
      &body, "sharpcqd_request_latency_ms", "{command=\"count\"}");
  ingest_latency_.snapshot().AppendPrometheus(
      &body, "sharpcqd_request_latency_ms", "{command=\"ingest\"}");
  response.body = std::move(body);
  return response;
}

Response Daemon::HandleInspect(const Request& request) {
  const std::string* db_name = request.Arg("db");
  if (db_name == nullptr || !ValidDbName(*db_name)) {
    return ErrorResponse(wire::kBadRequest, "inspect requires db=<name>");
  }
  Status open_status;
  std::shared_ptr<const Catalog::Entry> entry =
      catalog_.Open(*db_name, &open_status);
  if (entry == nullptr) return CatalogError(open_status);
  Response response = OkResponse();
  response.Add("db", entry->name);
  response.Add("generation", std::to_string(entry->generation));
  response.Add("relations", std::to_string(entry->info.relations.size()));
  response.Add("tuples", std::to_string(entry->info.TotalTuples()));
  response.Add("profile", entry->profile.Fingerprint());
  // Body: one "name arity rows [colN=distinct/max-group...]" line per
  // relation; the per-column profile is present for v2 snapshots (and for
  // v1 generations, whose stats were computed lazily at open).
  for (const SnapshotRelationInfo& rel : entry->info.relations) {
    response.body += rel.name + " " + std::to_string(rel.arity) + " " +
                     std::to_string(rel.rows);
    if (const RelationProfile* profile = entry->profile.Find(rel.name);
        profile != nullptr) {
      for (std::size_t c = 0; c < profile->stats->columns.size(); ++c) {
        const ColumnStats& stats = profile->stats->columns[c];
        response.body += " col" + std::to_string(c) + "=" +
                         std::to_string(stats.distinct) + "/" +
                         std::to_string(stats.max_group);
      }
    }
    response.body += "\n";
  }
  // slowlog=1: append the engine's slow-query ring, oldest first. Each
  // entry is one "slow ..." header line; a traced entry's span tree
  // follows, indented by two spaces per depth starting at one level deep
  // (so headers remain greppable at column zero).
  if (const std::string* arg = request.Arg("slowlog");
      arg != nullptr && *arg == "1") {
    SlowQueryLog& log = entry->engine->slow_query_log();
    std::vector<SlowQueryEntry> entries = log.Entries();
    response.Add("slow_total", std::to_string(log.total_slow()));
    response.Add("slow_threshold_ms", FormatMs(log.threshold_ms()));
    response.Add("slow_entries", std::to_string(entries.size()));
    for (const SlowQueryEntry& e : entries) {
      response.body += "slow " + std::to_string(e.sequence) + " [" +
                       e.wall_time + "] planner_ms=" + FormatMs(e.planner_ms) +
                       " execute_ms=" + FormatMs(e.execute_ms) +
                       " method=" + e.method + " query=" + e.query + "\n";
      if (!e.trace.empty()) {
        std::istringstream lines(e.trace);
        std::string line;
        while (std::getline(lines, line)) {
          response.body += "  " + line + "\n";
        }
      }
    }
  }
  return response;
}

}  // namespace sharpcq
