"""Order statistics the benchmark reports: medians, quartiles, the
ten-beyond tail rule and geometric means."""

from __future__ import annotations

import math
import statistics

#: A tail percentile is reported only with this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = median(values)
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], beyond: int = TAIL_BEYOND
         ) -> tuple[float, float] | None:
    """``(percentile, value)`` of the highest percentile that has at
    least ``beyond`` samples above it, or ``None`` when there are too
    few samples to have one.

    With ``n`` samples sorted ascending, the sample of rank
    ``k = n - beyond`` (1-based) has exactly ``beyond`` samples after it;
    its percentile is ``100 * k / n``.
    """
    n = len(values)
    rank = n - beyond
    if rank < 1:
        return None
    return 100.0 * rank / n, sorted(values)[rank - 1]


def geomean(values: list[float]) -> float:
    if not values or any(value <= 0 for value in values):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(value) for value in values) / len(values))
