// Shared benchmark entry point with build-type hygiene.
//
// The packaged Google Benchmark library reports ITS OWN build type in the
// JSON context ("library_build_type"), not ours — a Debug sharpcq linked
// against a Release libbenchmark happily writes baselines that look
// legitimate but measure assertion-laden code. SHARPCQ_BENCH_MAIN() closes
// that hole by keying off this translation unit's NDEBUG:
//
//   - every run stamps "sharpcq_build_type" (and the host's "cpu_model")
//     into the benchmark context, so committed BENCH_*.json files carry the
//     truth about the binary and the machine that produced them;
//   - a Debug binary prints a prominent warning banner, and REFUSES to run
//     when asked for machine-readable output (--benchmark_format=json or
//     --benchmark_out=...) — numbers from an unoptimized build must never
//     become a baseline or feed a CI ratio gate.
//
// Every bench/*.cc uses SHARPCQ_BENCH_MAIN() instead of BENCHMARK_MAIN().

#ifndef SHARPCQ_BENCH_BENCH_MAIN_H_
#define SHARPCQ_BENCH_BENCH_MAIN_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace sharpcq {
namespace bench_internal {

#ifdef NDEBUG
inline constexpr bool kOptimizedBuild = true;
#else
inline constexpr bool kOptimizedBuild = false;
#endif

inline bool WantsMachineOutput(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_format=", 19) == 0 &&
        std::strcmp(argv[i] + 19, "console") != 0) {
      return true;
    }
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) return true;
  }
  return false;
}

// The "model name" line of /proc/cpuinfo; "unknown" where there is none.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

inline int RunBenchmarks(int argc, char** argv) {
  benchmark::AddCustomContext("sharpcq_build_type",
                              kOptimizedBuild ? "optimized" : "debug");
  benchmark::AddCustomContext("cpu_model", CpuModel());
  if (!kOptimizedBuild) {
    if (WantsMachineOutput(argc, argv)) {
      std::fprintf(stderr,
                   "sharpcq bench: refusing to emit JSON/file output from a "
                   "Debug (assertions-on) build.\n"
                   "Baselines and CI gates must come from an optimized build "
                   "(RelWithDebInfo or Release).\n");
      return 1;
    }
    std::fprintf(stderr,
                 "*** WARNING: Debug (assertions-on) sharpcq build — timings "
                 "below are meaningless. ***\n");
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace bench_internal
}  // namespace sharpcq

#define SHARPCQ_BENCH_MAIN()                                     \
  int main(int argc, char** argv) {                              \
    return ::sharpcq::bench_internal::RunBenchmarks(argc, argv); \
  }                                                              \
  static_assert(true, "require a trailing semicolon")

#endif  // SHARPCQ_BENCH_BENCH_MAIN_H_
