#!/usr/bin/env python3
"""End-to-end benchmark for sharpcq.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 \
        --trace 0 [--out RESULTS_DIR]

Run from the repository root. It builds the harness (perfbench/harness,
linked against the library in src/) in Release mode under $CARGO_TARGET_DIR
or .bench_build, runs the benchmark's self-tests, computes every expected
count in a separate oracle process, then runs the measuring process and
turns its raw samples into metrics. With --trace 0 it reports the
end-to-end metrics, with --trace 1 the per-layer ones (a separate, traced
run). The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--workload all runs serve_hot, serve_ingest and count_heavy in turn (one
result line each; exit status 1 if any is not correct). --out DIR also
writes the full result (host facts, stolen CPU share, per-query detail,
every metric) to DIR/<workload>-seed<N>-trace<T>.json for perfbench/diff.py.
Workloads and metrics are described in perfbench/README.md.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402

WORKLOADS = ("serve_hot", "serve_ingest", "count_heavy")

# Span name -> per-layer metric (self time per traced count).
SPAN_METRICS = {
    "profile": "exec.profile_ms",
    "plan": "exec.plan_ms",
    "materialize_bags": "exec.materialize_bags_ms",
    "materialize_atoms": "exec.materialize_atoms_ms",
    "full_reduce": "exec.full_reduce_ms",
    "pairwise_consistency": "exec.pairwise_consistency_ms",
    "restrict_to_free_vars": "exec.restrict_ms",
    "restrict_to_s_bar": "exec.restrict_ms",
    "count_full_join": "exec.count_full_join_ms",
    "ps13_count": "exec.ps13_count_ms",
    "sharp_b_search": "exec.sharp_b_search_ms",
    "sharp_b_width": "exec.sharp_b_search_ms",
    "backtracking": "exec.backtracking_ms",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(root, build_dir):
    source = os.path.join(root, "perfbench")
    binary_dir = os.path.join(build_dir, "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", source, "-B", binary_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", binary_dir, "--target",
              "sharpcq_perfbench", "-j", jobs]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(binary_dir, "sharpcq_perfbench")


def self_test():
    suite = unittest.defaultTestLoader.loadTestsFromName("test_stats")
    result = unittest.TextTestRunner(stream=sys.stderr, verbosity=0).run(suite)
    if not result.wasSuccessful():
        fail("self-tests of the benchmark arithmetic failed")


# --- metrics ------------------------------------------------------------------


def latencies(counts):
    return [d - s for s, d in zip(counts["due_ms"], counts["done_ms"])]


def sent_ms(counts):
    """When each request went out: after any connect when served, at the
    call otherwise."""
    return counts.get("sent_ms", counts["due_ms"])


def per_query_medians(raw, phase, from_sent=False):
    """Median latency per fixed query, from due time (or from sending)."""
    counts = phase["counts"]
    starts = sent_ms(counts) if from_sent else counts["due_ms"]
    by_query = {}
    for q, start, done in zip(counts["query"], starts, counts["done_ms"]):
        if q < len(raw["queries"]):
            by_query.setdefault(q, []).append(done - start)
    return {raw["queries"][q]: stats.median(v) for q, v in by_query.items()}


def phases(raw, *names):
    return [p for p in raw["phases"] if p["name"] in names]


def failures(raw):
    attempted = failed = 0
    for p in raw["phases"]:
        attempted += len(p["counts"]["ok"])
        failed += sum(1 for ok in p["counts"]["ok"] if not ok)
        ingests = p.get("ingests", {"ok": []})
        attempted += len(ingests["ok"])
        failed += sum(1 for ok in ingests["ok"] if not ok)
    return attempted, failed


def generator_late_p99(phase):
    late = phase.get("gen_late_ms") or []
    return stats.tail_percentile(late, 99)[0] if late else 0.0


def generator_late_worst(raw):
    """The latest the open-loop generator sent, at p99, over the phases
    that feed the reported latencies (every phase but the ladder, whose
    steps are checked one by one in max_rps)."""
    return max([generator_late_p99(p) for p in raw["phases"]
                if p["name"] != "ladder"] or [0.0])


def count_percentiles(raw, phase):
    """(p50, p99) count latency of one phase."""
    if raw["workload"] == "count_heavy":
        # Each query is one mode of the latency mixture, sampled a few times
        # a run: report the median query's and the slowest query's median
        # (the highest percentile those samples support).
        medians = list(per_query_medians(raw, phase).values())
        return stats.median(medians), max(medians)
    lat = latencies(phase["counts"])
    return stats.median(lat), stats.tail_percentile(lat, 99)[0]


def end_to_end(raw):
    base = raw["phases"][0]
    medians = per_query_medians(raw, base)
    return {
        "setup_s": stats.median([s["total_ms"] for s in raw["setups"]]) / 1e3,
        "count_p50_ms": count_percentiles(raw, base)[0],
        "query_geomean_ms": stats.geomean(list(medians.values())),
        "query_total_s": sum(medians.values()) / 1e3,
        "rss_peak_mb": raw["vmhwm_mb"],
    }


def max_rps(raw):
    """Highest ladder rate held: p99 under the latency limit, no failure,
    and a generator on time (a late generator did not offer the rate)."""
    limit = raw["latency_limit_ms"]
    best = 0.0
    for step in phases(raw, "ladder"):
        counts = step["counts"]
        p99 = stats.tail_percentile(latencies(counts), 99)[0]
        if (p99 > limit or not all(counts["ok"]) or
                generator_late_p99(step) > limit):
            break
        best = step["rate"]
    return best


def per_layer(raw):
    setups = raw["setups"]
    measured = phases(raw, "untraced", "traced")
    untraced = phases(raw, "untraced")[0]
    traced = phases(raw, "traced")[0]
    probes = raw["probes"]
    fixed = len(raw["queries"])
    m = {}

    def setup_median(key):
        return stats.median([s[key] for s in setups])

    m["data.csv_parse_ms"] = setup_median("csv_parse_ms")
    m["storage.catalog_ingest_ms"] = setup_median("catalog_ingest_ms")
    storage = raw["storage"]
    m["storage.snapshot_write_ms"] = stats.median(
        storage["snapshot_write_ms"])
    m["storage.catalog_open_ms"] = stats.median(storage["catalog_open_ms"])
    m["storage.mmap_load_ms"] = stats.median(storage["mmap_load_ms"])

    ing = {k: [x for p in measured for x in p.get("ingests", {}).get(k, [])]
           for k in ("ok", "csv_bytes", "snapshot_bytes")}
    n_ingests = len(ing["ok"])
    if n_ingests:
        m["storage.write_amp"] = (sum(ing["snapshot_bytes"]) /
                                  max(1, sum(ing["csv_bytes"])))
    else:
        m["storage.write_amp"] = stats.median(
            [s["snapshot_bytes"] / s["csv_bytes"] for s in setups])
    m["algebra.index_builds"] = (sum(p["index_builds"] for p in measured) /
                                 max(1, n_ingests))
    misses = sum(1 for p in measured
                 for q, hit in zip(p["counts"]["query"],
                                   p["counts"]["cache_hit"])
                 if q < fixed and not hit)
    m["engine.replans_per_ingest"] = misses / max(1, n_ingests)

    m["query.parse_us"] = probes["parse_us"]
    m["query.canonicalize_us"] = probes["canonicalize_us"]
    m["engine.plan_hit_us"] = probes["plan_hit_us"]
    m["engine.plan_miss_ms"] = probes["plan_miss_ms"]
    m["server.encode_us"] = probes["encode_us"]
    m["algebra.mem_charged_mb"] = probes["mem_charged_mb"]

    uc = untraced["counts"]
    m["engine.plan_cache_hit_ratio"] = (sum(1 for h in uc["cache_hit"] if h) /
                                        max(1, len(uc["cache_hit"])))
    connects = [c for p in measured for c in p["counts"].get("connect_ms", [])
                if c >= 0]
    m["server.connect_ms"] = stats.median(connects) if connects else 0.0
    # Persistent-connection requests only: a one-request connection's first
    # call also waits for the daemon to accept it and start its thread,
    # which server.connect_ms already covers.
    overhead = [d - s - pl - ex for s, d, pl, ex, ok, one_shot in zip(
        sent_ms(uc), uc["done_ms"], uc["planner_ms"], uc["execute_ms"],
        uc["ok"], uc.get("one_shot", [False] * len(uc["ok"])))
        if ok and not one_shot]
    m["server.roundtrip_overhead_p50_ms"] = stats.median(overhead)
    m["server.roundtrip_overhead_p99_ms"] = stats.tail_percentile(
        overhead, 99)[0]
    m["server.overloaded"] = sum(1 for p in raw["phases"]
                                 for c in p["counts"]["code"]
                                 if c == "OVERLOADED")
    m["server.threads_peak"] = raw["proc"]["threads_peak"]
    m["server.fds_peak"] = raw["proc"]["fds_peak"]
    m["server.vmsize_peak_mb"] = raw["proc"]["vmsize_peak_mb"]
    m["server.scrape_ms"] = raw.get("scrape_ms", 0.0)

    ratios = []
    for entry in probes["strategies"]:
        times = [v["ms"] for k, v in entry.items()
                 if k != "query" and v["ms"] > 0]
        if entry["auto"]["ms"] > 0 and times:
            ratios.append(entry["auto"]["ms"] / min(times))
    m["engine.auto_over_best"] = stats.geomean(ratios) if ratios else 0.0
    m["engine.auto_over_best_max"] = max(ratios) if ratios else 0.0

    span_totals = {name: 0.0 for name in set(SPAN_METRICS.values())}
    spans = traced["counts"]["spans"]
    for tree in spans:
        for name, ms in stats.self_times(tree).items():
            if name in SPAN_METRICS:
                span_totals[SPAN_METRICS[name]] += ms
    for name, total in span_totals.items():
        m[name] = total / max(1, len(spans))

    hits, passes = sum(uc["filter_hits"]), sum(uc["filter_passes"])
    m["algebra.filter_hit_ratio"] = hits / max(1, hits + passes)
    m["algebra.morsels"] = sum(uc["morsels"]) / max(1, len(uc["morsels"]))

    untraced_q = per_query_medians(raw, untraced, from_sent=True)
    traced_q = per_query_medians(raw, traced, from_sent=True)
    common = [q for q in untraced_q if q in traced_q]
    m["harness.trace_overhead"] = (sum(traced_q[q] for q in common) /
                                   sum(untraced_q[q] for q in common))
    m["harness.gen_late_p99_ms"] = generator_late_worst(raw)

    m["count_p99_ms"] = count_percentiles(raw, untraced)[1]
    m["max_rps"] = max_rps(raw)
    ingest_lat = [d - s for p in measured for s, d in zip(
        p.get("ingests", {}).get("due_ms", []),
        p.get("ingests", {}).get("done_ms", []))]
    m["ingest_p50_ms"] = stats.median(ingest_lat) if ingest_lat else 0.0
    m["ingest_p95_ms"] = (stats.tail_percentile(ingest_lat, 95)[0]
                          if ingest_lat else 0.0)
    attempted, failed = failures(raw)
    m["fail_ratio"] = failed / max(1, attempted)
    return m


def summary(raw, metrics):
    host = raw["host"]
    print("host: %d CPUs, %s, L2 %d KiB, LLC %d KiB, build %s, "
          "%.1f%% of CPU time stolen during the run" % (
              host["cpus"], host["cpu_model"], host["l2_bytes"] // 1024,
              host["llc_bytes"] // 1024, host["build_type"],
              raw["steal_pct"]))
    print("setups (ms): " + ", ".join(
        "%.1f" % s["total_ms"] for s in raw["setups"]))
    for p in raw["phases"]:
        counts = p["counts"]
        lat = latencies(counts)
        if not lat:
            continue
        tail, used = stats.tail_percentile(lat, 99)
        print("phase %-8s rate %-6s n %-6d p50 %.3f ms  p%g %.3f ms  "
              "failed %d" % (p["name"], p.get("rate", "-"), len(lat),
                             stats.median(lat), used, tail,
                             sum(1 for ok in counts["ok"] if not ok)))
    first = raw["phases"][0]
    for name, ms in sorted(per_query_medians(raw, first).items()):
        print("  query %-14s median %.3f ms" % (name, ms))
    for entry in raw.get("probes", {}).get("strategies", []):
        print("  strategies %-14s " % entry["query"] + "  ".join(
            "%s=%s" % (k, "%.1fms" % v["ms"] if v["ms"] > 0 else "n/a")
            for k, v in entry.items() if k != "query"))
    for name, value in metrics.items():
        print("metric %-36s %s" % (name, value["value"]))


def measure(args, workload, benchmark, binary, build_dir):
    """One workload: oracle, measuring process, metrics. Prints the summary
    and the result line; returns whether the run was correct."""
    workdir = os.path.join(build_dir, "runs", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    common = ["--workload", workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = os.path.join(workdir, "expected.txt")
    raw_path = os.path.join(workdir, "raw.json")
    try:
        steps = [([binary, "oracle"] + common + ["--out", expected], 30),
                 ([binary, "run"] + common + [
                     "--workdir", workdir, "--expected", expected,
                     "--out", raw_path], 140)]
        for cmd, timeout_s in steps:
            try:
                code = subprocess.run(cmd, stdout=sys.stderr,
                                      timeout=timeout_s).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
            if code != 0:
                fail("%s %s failed (%s)" % (os.path.basename(binary), cmd[1],
                                            code))
        with open(raw_path) as f:
            raw = json.load(f)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = failures(raw)
    values = per_layer(raw) if args.trace else end_to_end(raw)
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in benchmark[section]}
    missing = set(units) - set(values)
    if missing:
        fail("metrics not measured: " + ", ".join(sorted(missing)))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, value in metrics.items():
        if not math.isfinite(value["value"]):
            fail("metric %s is not finite" % name)

    late = generator_late_worst(raw)
    valid = late <= raw["latency_limit_ms"]
    if not valid:
        print("invalid run: the open-loop generator fell behind "
              "(p99 %.1f ms late)" % late, file=sys.stderr)
    correct = (valid and failed == 0 and
               raw["host"]["build_type"] == "optimized")

    summary(raw, metrics)
    print("operations: %d attempted, %d failed (fail_ratio %g)%s" % (
        attempted, failed, failed / attempted,
        "" if valid else ", INVALID: generator fell behind"))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {"workload": workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "host": raw["host"], "steal_pct": raw["steal_pct"],
                  "valid": valid, "correct": correct,
                  "attempted": attempted, "failed": failed,
                  "query_medians_ms": per_query_medians(
                      raw, raw["phases"][0]),
                  "strategies": raw.get("probes", {}).get("strategies", []),
                  "metrics": metrics}
        name = "%s-seed%d-trace%d.json" % (workload, args.seed, args.trace)
        with open(os.path.join(args.out, name), "w") as f:
            json.dump(record, f, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the full result JSON")
    args = parser.parse_args()

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    build_dir = os.path.abspath(os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
    binary = build(root, build_dir)
    self_test()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = [measure(args, w, benchmark, binary, build_dir)
               for w in workloads]
    if args.workload == "all" and not all(correct):
        sys.exit(1)


if __name__ == "__main__":
    main()
