#!/usr/bin/env python3
"""Compare two result sets of the end-to-end benchmark.

    python3 perfbench/diff.py BASE_DIR CHANGE_DIR

Each directory holds the full results `perfbench/run.py --out DIR` writes,
one JSON file per run (several seeds per workload). For every workload and
metric it prints each side's median and quartiles, the change's delta as a
share of the base median (positive = worse), and a verdict:

  end-to-end metrics, against the bound in BENCHMARK.json:
    same / improved / regressed   medians within / beyond the bound
    unresolved                    a side's quartile spread exceeds the
                                  bound, so the runs cannot tell
    better                        spread too wide, but every change run
                                  beats every base run
  per-layer metrics carry no bound and are reported as "info".

Exit status 1 when any end-to-end metric regressed, else 0.
"""

import glob
import json
import os
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import stats  # noqa: E402


def load(directory):
    """{(workload, metric): [values]} over every result file."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            record = json.load(f)
        if "metrics" not in record or "workload" not in record:
            continue
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(
                metric["value"])
    return out


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    spec.update({m["name"]: m for m in benchmark["per_layer"]})
    base, change = load(sys.argv[1]), load(sys.argv[2])

    regressed = False
    header = "%-13s %-34s %-28s %-28s %8s  %s" % (
        "workload", "metric", "base median [q1, q3]",
        "change median [q1, q3]", "delta", "verdict")
    print(header)
    for key in sorted(set(base) & set(change)):
        workload, name = key
        if name not in spec:
            continue
        b, c = base[key], change[key]
        better = spec[name]["better"]
        bound = spec[name].get("bound")
        if bound is not None:
            verdict, worse = stats.compare(b, c, bound, better)
            regressed |= verdict == "regressed"
        else:
            _, worse = stats.compare(b, c, float("inf"), better)
            verdict = "info"

        def cell(values):
            q1, q2, q3 = stats.quartiles(values)
            return "%.4g [%.4g, %.4g]" % (q2, q1, q3)

        print("%-13s %-34s %-28s %-28s %+7.1f%%  %s" % (
            workload, name, cell(b), cell(c), 100.0 * worse, verdict))
    for key in sorted(set(base) ^ set(change)):
        side = "base" if key in base else "change"
        print("%-13s %-34s only in %s" % (key[0], key[1], side))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
