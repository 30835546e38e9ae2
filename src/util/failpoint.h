#ifndef SHARPCQ_UTIL_FAILPOINT_H_
#define SHARPCQ_UTIL_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace sharpcq {

// Fault-injection sites. Production code marks its failure-prone steps with
//
//   switch (SHARPCQ_FAILPOINT("storage.write")) { ... }
//
// and tests (or the SHARPCQ_FAILPOINTS environment variable) program a site
// to fire on its Nth hit with an injected error, a simulated crash, a short
// write, or a delay. When nothing is armed anywhere in the process — the
// only state production ever runs in — the macro is one relaxed atomic load
// and an untaken branch, cheap enough to leave compiled into release
// binaries (CI gates the hot path at <= 1.03x).
//
// Wired sites:
//   storage.tmp_open       AtomicFileWriter: O_EXCL open of the .tmp file
//   storage.write          AtomicFileWriter: each Append (honors short-write)
//   storage.fsync          AtomicFileWriter: the pre-rename fsync
//   storage.rename         AtomicFileWriter: the tmp -> final rename
//   catalog.manifest_swap  Catalog::Ingest: before the manifest rewrite
//   csv.open               CSV ingest: file open
//   csv.row                CSV ingest: once per parsed row
//   index.build            TableIndex build (fires as allocation failure)
//   daemon.accept          Daemon serving loop: each accepted connection
//   daemon.recv            Daemon worker: each request frame it takes up
//   daemon.send            Daemon worker: each response write
enum class FailpointAction : std::uint8_t {
  kNone = 0,
  kError,       // the site should fail with an injected error
  kCrash,       // handled inside Hit(): _exit(kFailpointCrashExit), no cleanup
  kShortWrite,  // write sites persist a prefix then fail; others treat as kError
  kDelay,       // handled inside Hit(): sleep, then proceed normally
};

// Exit code of a kCrash firing; crash-matrix tests assert it from waitpid
// to prove the injected site actually fired in the forked child.
inline constexpr int kFailpointCrashExit = 134;

namespace failpoint {

// What an armed site does. Fires on hits (after_hits, after_hits +
// fire_count]; fire_count -1 means every hit from there on.
struct Trigger {
  FailpointAction action = FailpointAction::kNone;
  std::uint64_t after_hits = 0;  // skip this many hits before firing
  std::int64_t fire_count = -1;  // firings before auto-disarm (-1 = forever)
  std::uint32_t delay_ms = 0;    // kDelay sleep duration
};

namespace internal {
extern std::atomic<int> armed_sites;
// Slow path: registry lookup, hit accounting, crash/delay handling.
FailpointAction Hit(const char* site);
}  // namespace internal

inline bool AnyArmed() {
  return internal::armed_sites.load(std::memory_order_relaxed) != 0;
}

void Arm(const std::string& site, Trigger trigger);
void Disarm(const std::string& site);
void DisarmAll();

// Hits observed at `site` since it was armed (0 if never armed).
std::uint64_t HitCount(const std::string& site);

// Parses and arms a spec: `site=action[@N][xM][:DELAYms]` joined by ';'
// or ','. `action` is error|crash|short-write|delay; `@N` skips the first
// N hits (fire on hit N+1); `xM` limits firings to M. Examples:
//   storage.fsync=error            every fsync fails
//   storage.rename=crash@1         crash on the second rename
//   daemon.recv=delay:50ms x1      (spaces not allowed; shown split only)
// Returns false with a reason in *error on a malformed spec.
bool ArmFromSpec(const std::string& spec, std::string* error);

// Arms from $SHARPCQ_FAILPOINTS when set (malformed specs are reported on
// stderr and skipped). Called by the daemon and CLI mains so operators can
// inject faults into a live binary without a test harness.
void ArmFromEnv();

}  // namespace failpoint
}  // namespace sharpcq

#define SHARPCQ_FAILPOINT(site)                            \
  (__builtin_expect(sharpcq::failpoint::AnyArmed(), 0)     \
       ? sharpcq::failpoint::internal::Hit(site)           \
       : sharpcq::FailpointAction::kNone)

#endif  // SHARPCQ_UTIL_FAILPOINT_H_
