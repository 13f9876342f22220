"""Order statistics and metric-name rules shared by the benchmark's scripts."""
from __future__ import annotations

import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TAIL_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the highest sample with ten samples beyond it.

    The percentile is the share of samples at or below the value, so 100
    samples give p90 and 1000 give p99. With 21 samples or fewer that
    sample would lie at or below the median, which is no tail, so the
    maximum is reported, as p100.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("tail of no samples")
    n = len(ordered)
    i = n - 1 - TAIL_BEYOND
    if i <= (n - 1) / 2:
        i = n - 1
    return float(ordered[i]), 100.0 * (i + 1) / n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")
