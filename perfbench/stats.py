"""The benchmark's arithmetic: percentiles, geometric means, span self
times, quartile spreads and the rule that compares two result sets.

Kept free of I/O so test_stats.py can check every function on hand-made
inputs.
"""

import math
import statistics

# A tail percentile is only reported when at least this many samples lie
# beyond it (choosing-metrics guide, section 1).
TAIL_SAMPLES = 10


def percentile(values, p):
    """The p-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def supported_percentile(n, p):
    """The highest percentile <= p with TAIL_SAMPLES samples beyond it.

    With n samples, n * (1 - q/100) >= TAIL_SAMPLES holds for
    q <= 100 * (1 - TAIL_SAMPLES / n). Never below the median.
    """
    if n <= 0:
        raise ValueError("no samples")
    return max(50.0, min(p, 100.0 * (1.0 - TAIL_SAMPLES / n)))


def tail_percentile(values, p):
    """(value, percentile used): p if the sample supports it, else the
    highest percentile that has TAIL_SAMPLES samples beyond it."""
    q = supported_percentile(len(values), p)
    return percentile(values, q), q


def median(values):
    return percentile(values, 50.0)


def geomean(values):
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """Self time per span name, summed over same-named spans.

    `spans` is a flattened tree: [name, start_ms, duration_ms, parent]
    rows, parent an index into the list (-1 for the root). A span's self
    time is its duration minus the part of its interval that the union of
    its children's intervals covers.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = {}
    for i, (name, start, duration, _) in enumerate(spans):
        end = start + duration
        intervals = sorted(
            (max(start, spans[c][1]), min(end, spans[c][1] + spans[c][2]))
            for c in children[i])
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[name] = out.get(name, 0.0) + max(0.0, duration - covered)
    return out


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def compare(base, change, bound, better):
    """Verdict for one metric on one workload (choosing-metrics guide
    sections 6.5 and 8).

    Returns (verdict, worse_share): worse_share is how much worse the
    change's median is than the base's, as a share of the base median
    (negative when better). Verdicts:
      "unresolved"  a side's quartile spread exceeds the bound, and not
                    every change run beats every base run;
      "better"      spread too wide, but every change run beats every
                    base run;
      "regressed"   worse by more than the bound;
      "improved"    better by more than the bound;
      "same"        within the bound.
    """
    sign = 1.0 if better == "lower" else -1.0
    mb, mc = median(base), median(change)
    worse_share = sign * (mc - mb) / abs(mb) if mb != 0 else (
        0.0 if mc == mb else sign * math.inf)
    if spread(base) > bound or spread(change) > bound:
        if all(sign * (c - b) < 0 for c in change for b in base):
            return "better", worse_share
        return "unresolved", worse_share
    if worse_share > bound:
        return "regressed", worse_share
    if worse_share < -bound:
        return "improved", worse_share
    return "same", worse_share
