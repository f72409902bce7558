"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# percentiles the report may quote as a latency tail, highest first
LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10


def rank(n_samples: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n_samples values."""
    return max(1, math.ceil(n_samples * p / 100.0))


def supported_percentile(n_samples: int, wanted: int = 90) -> int:
    """Highest ladder percentile <= wanted with at least MIN_BEYOND samples beyond it.

    Falls back to the median (50) when even the median has fewer than
    MIN_BEYOND samples beyond it; the median is always reported.
    """
    for p in LADDER:
        if p <= wanted and n_samples - rank(n_samples, p) >= MIN_BEYOND:
            return p
    return 50


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def median(values) -> float:
    return statistics.median(values)
