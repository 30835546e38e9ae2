#ifndef SHARPCQ_SERVER_DAEMON_H_
#define SHARPCQ_SERVER_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "server/protocol.h"
#include "storage/catalog.h"
#include "util/cancel.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace sharpcq {

// Cumulative daemon counters plus the serving loop's current gauges,
// readable while serving (`status` returns them over the wire; tests poll
// them in-process).
struct DaemonStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t responses_error = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled_disconnect = 0;
  std::uint64_t resource_exhausted = 0;
  std::uint64_t frames_too_large = 0;
  std::uint64_t malformed_requests = 0;
  // Per-command request totals (unknown commands count toward none).
  std::uint64_t cmd_count = 0;
  std::uint64_t cmd_ingest = 0;
  std::uint64_t cmd_status = 0;
  std::uint64_t cmd_inspect = 0;
  std::uint64_t cmd_metrics = 0;
  std::uint64_t cmd_shutdown = 0;
  // Gauges, published by the serving loop once per wakeup.
  std::uint64_t connections_open = 0;
  std::uint64_t inflight = 0;
  std::uint64_t queued = 0;
};

struct DaemonOptions {
  // Catalog root directory; created by Catalog::Ingest on first write.
  std::string catalog_root;
  std::string host = "127.0.0.1";
  int port = 0;  // 0 = ephemeral; the bound port is Daemon::port()
  // Admission control: at most max_inflight count/ingest requests execute
  // concurrently; up to max_queued more wait for a slot; anything beyond
  // that is rejected immediately with OVERLOADED. Cheap commands (status,
  // inspect, shutdown) bypass the gate so health checks work under load.
  std::size_t max_inflight = 4;
  std::size_t max_queued = 16;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Applied to count requests that carry no deadline_ms argument; zero
  // means no deadline.
  std::chrono::milliseconds default_deadline{0};
  // Memory budgets (graceful degradation): max_query_bytes caps what one
  // count may allocate; max_total_bytes caps the sum across all in-flight
  // counts over every database (one shared MemoryBudget installed into
  // each per-database engine). An over-budget count gets a
  // RESOURCE_EXHAUSTED response; the daemon keeps serving. 0 = unlimited.
  std::uint64_t max_query_bytes = 0;
  std::uint64_t max_total_bytes = 0;
  Catalog::Options catalog;
};

// The sharpcqd network daemon: serves a Catalog of durable databases over
// TCP with the length-framed protocol of server/protocol.h.
//
//   count   db=<name> [strategy=<s>] [deadline_ms=<n>] [trace=1]
//                                                        body: query text
//                                                        (trace=1: response
//                                                        body carries the
//                                                        serialized span
//                                                        tree)
//   ingest  db=<name> relation=<rel>                     body: CSV rows
//   status                                               counters + db list
//   inspect db=<name> [slowlog=1]                        schema + sizes
//                                                        (+ slow-query ring)
//   metrics                                              Prometheus text
//   shutdown                                             ack, then Wait() returns
//
// Serving: one poll(2) loop thread owns the listener and every connection.
// It accepts, assembles frames without blocking (a slow sender stalls only
// itself), and applies admission: a count/ingest takes one of max_inflight
// slots, waits in a FIFO of at most max_queued, or is answered OVERLOADED.
// Requests run on max_inflight + 1 pool workers (the spare keeps status,
// inspect, metrics and shutdown answering while every count slot is busy);
// a worker sends the response and hands the connection back to the loop.
// So after Start the daemon's own threads are fixed, however many clients
// come and go. While a request waits or runs, a hang-up on its socket
// cancels its CancelToken, which also carries the deadline and is checked
// once per morsel in the kernel (algebra/exec_policy.h): an expired or
// abandoned count stops within one morsel and answers DEADLINE_EXCEEDED
// (or CANCELLED) instead of hanging. Stop() (or `shutdown` followed by
// Stop()) stops the loop, cancels every request, shuts down every socket
// and drains the workers; the destructor calls Stop().
class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Binds, listens, and starts the serving loop and its workers. False
  // with *error set if the address cannot be bound.
  bool Start(std::string* error);

  // The bound port (valid after Start; useful with options.port == 0).
  int port() const { return port_; }

  // Blocks until Stop() is called or a client sends `shutdown`.
  void Wait();

  // Idempotent full shutdown: stop accepting, cancel and drain inflight
  // requests, join all threads.
  void Stop();

  DaemonStats stats() const;

 private:
  // One client socket, owned by the loop. While `busy`, a worker holds it
  // for the connection's one outstanding request and may set only `drop`.
  struct Connection {
    int fd = -1;
    std::string in;          // received bytes not yet consumed as a frame
    bool busy = false;       // a request is queued or running
    bool hung_up = false;    // peer gone while busy: stop polling it
    bool admitted = false;   // the request holds a max_inflight slot
    bool drop = false;       // close on hand-back
    std::optional<CancelToken> token;
  };

  // One complete frame, as the loop hands it to a worker.
  struct Job {
    Connection* conn = nullptr;
    std::optional<Request> request;  // nullopt: malformed or too large
    std::string error;               // why request is nullopt
    bool too_large = false;   // answer, then drop: the payload is unread
    bool overloaded = false;  // count/ingest refused admission
  };

  // Loop thread only.
  void Loop();
  void Accept();
  void Receive(Connection& conn);
  // Takes up the frame buffered at the front of conn.in, if complete:
  // parses it, applies admission, and hands it to a worker.
  void NextFrame(Connection& conn);
  void Submit(Job job);
  void Reap();
  void CloseConnection(int fd);

  // Worker side: answers one job and hands its connection back.
  void Serve(Job job);
  void Wake();

  void Bump(std::uint64_t DaemonStats::*counter);
  Response Dispatch(const Request& request, bool overloaded,
                    CancelToken* token);
  Response HandleCount(const Request& request, CancelToken* token);
  Response HandleIngest(const Request& request);
  Response HandleStatus();
  Response HandleInspect(const Request& request);
  Response HandleMetrics();

  DaemonOptions options_;
  Catalog catalog_;
  int listen_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: hand-backs and Stop wake the loop
  int port_ = 0;

  // Uptime anchor (steady) and human start time (wall, log/status only),
  // both stamped in Start().
  MonotonicClock::time_point start_time_{};
  std::string started_at_;

  // Per-instance request latency histograms: tests run several daemons in
  // one process, and each must see exactly its own requests (the
  // process-wide registry would conflate them).
  Histogram count_latency_;
  Histogram ingest_latency_;

  std::atomic<bool> stopping_{false};
  std::thread loop_thread_;
  std::unique_ptr<ThreadPool> workers_;

  // Loop-local state.
  std::unordered_map<int, Connection> connections_;
  bool accept_paused_ = false;  // accept failed for lack of resources
  std::size_t inflight_ = 0;
  std::deque<Job> queue_;  // admitted to wait, at most max_queued

  std::mutex done_mu_;
  std::vector<Connection*> done_;  // handed back by workers

  mutable std::mutex mu_;  // stats, stop signal
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  DaemonStats stats_;

  // Serializes ingest's read-copy-swap against concurrent ingests of the
  // same catalog; counts are unaffected (they pin their generation).
  std::mutex ingest_mu_;
};

}  // namespace sharpcq

#endif  // SHARPCQ_SERVER_DAEMON_H_
