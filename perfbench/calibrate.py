"""Host-speed calibration: a fixed reference computation timed next to the
program's operations.

On a shared virtual machine the speed of a virtual CPU drifts by up to
±20 % over minutes, and the process's CPU time drifts with it (a busy
neighbour on the same physical core slows every instruction; nothing is
stolen), so no clock of the program alone tells a slower program from a
slower host.  The reference computation here uses only NumPy and the
interpreter, never the library, so its time follows the host and not the
code under test.  Timing it next to an operation, on the same CPU, and
scaling the operation's time by ``REFERENCE_MS / reference time`` reports
the operation in milliseconds of a host running at the reference speed:
host drift cancels, a change to the program does not.
"""

from __future__ import annotations

import itertools
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Typical time of :meth:`Reference.seconds` on the host the bounds were set
#: on (2 vCPU Intel Xeon KVM guest, Python 3.11, NumPy 2.4), in ms.  Only a
#: fixed scale: it makes normalised times read close to raw ones there.
REFERENCE_MS = 36.0

#: Bits of the reference cube: the release workload's dense cube shape.
CUBE_BITS = 16

#: Reductions to 3-way marginals per reference run.
REDUCTIONS = 48

#: Dictionary updates of the interpreter-bound part per reference run.
LOOP_STEPS = 100_000


class Reference:
    """The reference computation: NumPy reductions of a fixed 2^16 cube to
    3-way marginals plus an interpreter-bound dictionary loop, the same mix
    of array and bookkeeping work as the benchmark's operations.

    Every run's time is kept in :attr:`runs`.
    """

    def __init__(self) -> None:
        self._cube = np.random.default_rng(0).random((2,) * CUBE_BITS)
        triples = itertools.islice(itertools.combinations(range(CUBE_BITS), 3), REDUCTIONS)
        self._axes = [
            tuple(axis for axis in range(CUBE_BITS) if axis not in kept) for kept in triples
        ]
        self.runs: List[float] = []

    def seconds(self) -> float:
        """Wall time of one run of the reference computation."""
        start = time.perf_counter()
        for axes in self._axes:
            self._cube.sum(axis=axes).tolist()
        table: dict = {}
        for step in range(LOOP_STEPS):
            table[step & 1023] = table.get(step & 1023, 0) + step
        elapsed = time.perf_counter() - start
        self.runs.append(elapsed)
        return elapsed

    def scale(self) -> float:
        """:func:`scale` of the mean of every run so far.

        The mean, not the median: the host switches between a fast and a
        slow speed within a second, and the mean weighs the two by the time
        spent in each, as the measured work experienced them.
        """
        return scale(statistics.mean(self.runs))


def scale(reference_seconds: float) -> float:
    """Factor that turns a time measured next to ``reference_seconds`` of the
    reference computation into a time at the reference speed."""
    return REFERENCE_MS / (reference_seconds * 1e3)


def median_bracketed(measure: Callable[[], float], repeats: int) -> Tuple[float, float]:
    """Median of ``repeats`` calls of ``measure()`` (seconds), raw and at the
    reference speed; every call is bracketed by reference runs."""
    reference = Reference()
    raws = []
    for _ in range(repeats):
        reference.seconds()
        raws.append(measure())
        reference.seconds()
    raw = statistics.median(raws)
    return raw, raw * reference.scale()
