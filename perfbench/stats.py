"""Robust summary statistics: medians, quartiles and per-segment throughput.

No min-of-N anywhere: a per-operation time is the median over iterations
(reported with its interquartile range) and a throughput is the median
over equal segments of the timed phase.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (``0 <= q <= 1``) by linear interpolation between
    closest ranks (NumPy's default ``"linear"`` method)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must lie in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, IQR and sample count of ``values``."""
    q1, q3 = percentile(values, 0.25), percentile(values, 0.75)
    return {
        "median": percentile(values, 0.5),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "n": len(values),
    }


def segment_rates(
    events: Iterable[Tuple[int, float, float]], segments: Sequence[Tuple[float, float]]
) -> List[float]:
    """Work per second in each timed segment.

    ``events`` are ``(segment index, completion time, amount of work)``;
    ``segments`` are ``(start, stop)``.  Work sent in a segment counts in
    it even if it completes after ``stop``, and the segment then lasts
    until its last completion.
    """
    if not segments or any(stop <= start for start, stop in segments):
        raise ValueError("need at least one segment of positive length")
    totals = [0.0] * len(segments)
    ends = [stop for _, stop in segments]
    for index, finished, amount in events:
        totals[index] += amount
        ends[index] = max(ends[index], finished)
    return [total / (end - start) for total, end, (start, _) in zip(totals, ends, segments)]
