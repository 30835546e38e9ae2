// sharpcq_perfbench: the measuring half of the end-to-end benchmark
// (perfbench/run.py drives it and turns its raw output into metrics).
//
//   sharpcq_perfbench oracle --workload W --seed N --seconds S --trace T
//                            --out EXPECTED
//   sharpcq_perfbench run    --workload W --seed N --seconds S --trace T
//                            --workdir DIR --expected EXPECTED --out RAW
//
// `oracle` computes every expected count of the run (its own process, so
// the oracle's memory never shows in the run's peak RSS); `run` sets up,
// measures, checks every count against EXPECTED and writes the raw
// samples as JSON. Exit status: 0 ok, 1 failure, 2 usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "setup.h"

namespace perfbench {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sharpcq_perfbench oracle|run --workload W --seed N "
               "--seconds S --trace 0|1 --out FILE [--workdir DIR] "
               "[--expected FILE]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  auto workload = ParseWorkload(args["--workload"]);
  if ((mode != "oracle" && mode != "run") || !workload.has_value() ||
      args["--seed"].empty() || args["--seconds"].empty() ||
      args["--out"].empty()) {
    return Usage();
  }
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["--seconds"].c_str());
  const bool trace = args["--trace"] == "1";
  std::string error;
  Progress(mode + " " + WorkloadName(*workload));

  if (mode == "oracle") {
    Inputs inputs = MakeInputs(*workload, seed, seconds, trace);
    Expected expected;
    Progress("oracle: " + std::to_string(inputs.queries.size()) + " queries");
    if (!ComputeExpected(inputs, &expected, &error) ||
        !expected.Save(args["--out"], &error)) {
      std::fprintf(stderr, "sharpcq_perfbench: %s\n", error.c_str());
      return 1;
    }
    Progress("oracle done");
    return 0;
  }

  const HostFacts host = ReadHostFacts();
  if (!host.optimized) {
    std::fprintf(stderr,
                 "sharpcq_perfbench: refusing to measure a debug build "
                 "(assertions on); configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 1;
  }
  Expected expected;
  if (!expected.Load(args["--expected"], &error)) {
    std::fprintf(stderr, "sharpcq_perfbench: %s\n", error.c_str());
    return 1;
  }
  RunOptions options;
  options.workload = *workload;
  options.seed = seed;
  options.seconds = seconds;
  options.trace = trace;
  options.workdir = args["--workdir"].empty() ? "." : args["--workdir"];
  options.expected = &expected;

  JsonWriter json;
  json.BeginObject();
  json.Field("workload", WorkloadName(*workload));
  json.Field("seed", seed);
  json.Field("seconds", seconds);
  json.Field("trace", trace);
  json.Field("latency_limit_ms", kLatencyLimitMs);
  WriteHostFacts(host, &json);
  const CpuTicks before = ReadCpuTicks();
  bool ok = IsServe(*workload) ? RunServe(options, &json, &error)
                               : RunHeavy(options, &json, &error);
  if (!ok) {
    std::fprintf(stderr, "sharpcq_perfbench: %s\n", error.c_str());
    return 1;
  }
  const CpuTicks after = ReadCpuTicks();
  json.Field("steal_pct", 100.0 * (after.steal - before.steal) /
                              std::max(1.0, after.total - before.total));
  json.Field("vmhwm_mb", ReadProc().vmhwm_mb);
  json.EndObject();
  std::ofstream out(args["--out"]);
  out << json.str() << '\n';
  out.close();
  if (!out) {
    std::fprintf(stderr, "sharpcq_perfbench: cannot write %s\n",
                 args["--out"].c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
