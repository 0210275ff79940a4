"""Order statistics and log-log growth fits for the benchmark."""

from __future__ import annotations

import math
from statistics import median

# Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 <= p <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(n: int, p: float) -> int:
    """Number of samples of ``n`` that lie strictly above percentile ``p``."""
    return n - math.ceil(n * p / 100.0)


def tail(values: list[float], preferred: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the tail latency.

    Each workload fixes ``preferred``: the highest candidate percentile
    that leaves at least TAIL_BEYOND samples beyond it in a run at the
    commit that added the benchmark, with room to spare, so that the
    percentile does not switch between runs.  A run with too few samples
    for it falls back to the highest candidate that has enough.
    """
    n = len(values)
    for p in TAIL_CANDIDATES:
        if p <= preferred and beyond(n, p) >= TAIL_BEYOND:
            return p, percentile(values, p), beyond(n, p)
    return 50.0, median(values), beyond(n, 50.0)


def growth_exponent(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log(time) against log(size).

    ``points`` are (size, seconds) pairs; pairs with a non-positive size
    or time are skipped.  None when fewer than two distinct sizes remain.
    """
    xs, ys = [], []
    for size, seconds in points:
        if size > 0 and seconds > 0:
            xs.append(math.log(size))
            ys.append(math.log(seconds))
    if len(set(xs)) < 2:
        return None
    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / sxx
