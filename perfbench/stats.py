"""Order statistics for the benchmark's timing samples."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: A tail percentile is only reported when at least this many samples lie
#: strictly beyond its rank; fewer make the tail a handful of outliers.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The requested percentile has fewer than MIN_BEYOND samples past it."""


def samples_beyond(count: int, percentile: float) -> int:
    """How many of ``count`` sorted samples lie past the percentile rank."""
    return count - math.ceil(count * percentile / 100.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile (nearest rank) of ``values``.

    Refuses (``TooFewSamples``) unless at least ``MIN_BEYOND`` samples lie
    beyond the rank, so that p99 needs 1000 samples.  The median (50) is
    held to the same rule, which any run of 20 or more samples meets.
    """
    if not 0.0 < pct < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    count = len(values)
    beyond = samples_beyond(count, pct)
    if beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{pct:g} of {count} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}")
    ordered = sorted(values)
    return float(ordered[max(math.ceil(count * pct / 100.0) - 1, 0)])


def median(values: Sequence[float]) -> float:
    """The median of a non-empty sample (any size)."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """Q1, median, Q3 as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return [float(values[0])] * 3
    return statistics.quantiles(values, n=4)
