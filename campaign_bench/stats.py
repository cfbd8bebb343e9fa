"""Statistics of the campaign benchmark: medians, quartiles, tail
percentiles and throughput. Self-tests are in test_bench.py."""

import math
import statistics


def median(values):
    """Median of a non-empty sample."""
    return statistics.median(values)


def quartiles(values):
    """(q1, q2, q3) as statistics.quantiles(values, n=4) gives them;
    a single sample is its own quartiles."""
    if len(values) < 2:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """Distance between the first and third quartile, as a share of
    the median (0 when the median is 0)."""
    q1, _, q3 = quartiles(values)
    m = median(values)
    return (q3 - q1) / abs(m) if m else 0.0


def tail_percentile(values, pct, min_beyond=10):
    """Nearest-rank pct-th percentile, or None unless at least
    min_beyond samples lie beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    if len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def kips(runs, wall_s):
    """Committed instructions of freshly simulated runs, warm-up
    included, per wall second, in thousands. Cache hits simulated
    nothing and count zero."""
    insts = sum(r["warmup"] + r["insts"] for r in runs if not r["cached"])
    return insts / wall_s / 1000.0
