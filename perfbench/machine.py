"""Machine shape and noise diagnostics recorded with every run.

A shared virtual machine can lose CPU time to its neighbours: the steal
share of ``/proc/stat`` and the load average of ``/proc/loadavg`` over the
timed phase say whether a slow run was the program or the host.

Neighbour contention comes in stretches of minutes that slow a saturating
workload by up to half, far beyond any per-run sampling noise, so before
timing a run keeps the workload's own warm-up going until the host is quiet
(:func:`settle`), for a bounded time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np


def cpu_times() -> Optional[Tuple[int, int]]:
    """``(steal jiffies, total jiffies)`` of the aggregate ``cpu`` line."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    counts = [int(value) for value in fields[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already folded into user/nice, so stop at steal.
    steal = counts[7] if len(counts) > 7 else 0
    return steal, sum(counts[:8])


def _load_average() -> Optional[float]:
    try:
        with open("/proc/loadavg") as handle:
            return float(handle.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def steal_share(
    before: Optional[Tuple[int, int]], after: Optional[Tuple[int, int]]
) -> Optional[float]:
    """Share of CPU time the hypervisor gave to other guests in between."""
    if before is None or after is None:
        return None
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def span_steal(
    samples: Sequence[Tuple[float, Optional[Tuple[int, int]]]], low: float, high: float
) -> Optional[float]:
    """Steal share over ``[low, high)`` from ``(time, cpu_times())`` samples:
    from the last sample at or before ``low`` to the first at or after
    ``high``."""
    before = [cpu for when, cpu in samples if when <= low]
    after = [cpu for when, cpu in samples if when >= high]
    return steal_share(before[-1], after[0]) if before and after else None


#: Steal share under the workload's own load below which the host is quiet.
QUIET_STEAL = 0.02

#: Shortest stretch of load one quiet check judges (a jiffy is 10 ms).
SETTLE_STRETCH_SECONDS = 1.0


def settle(step: Callable[[], object], cap_seconds: float) -> Dict[str, Optional[float]]:
    """Repeat ``step`` (warm-up work of the workload itself) until a stretch
    of at least :data:`SETTLE_STRETCH_SECONDS` sees a steal share below
    :data:`QUIET_STEAL`, or until ``cap_seconds`` have passed.

    Returns the time spent and the steal share of the last stretch.
    """
    began = time.perf_counter()
    while True:
        stretch_began = time.perf_counter()
        before = cpu_times()
        while time.perf_counter() - stretch_began < SETTLE_STRETCH_SECONDS:
            step()
        share = steal_share(before, cpu_times())
        waited = time.perf_counter() - began
        if share is None or share < QUIET_STEAL or waited >= cap_seconds:
            return {"settle_s": waited, "settle_steal": share}


class RotatingAffinity:
    """Moves the calling thread to the next CPU on every :meth:`next`.

    On a shared host one virtual CPU can run 15-20 % slower than the other
    for minutes, so a single-threaded operation's speed depends on where the
    scheduler happened to leave it.  Rotating gives every run an equal share
    of each CPU.  Only the calling thread moves (Linux affinity is per
    thread); worker threads keep the mask they were created with.
    """

    def __init__(self) -> None:
        self._original = os.sched_getaffinity(0)
        self._cpus = sorted(self._original)
        self._turn = 0

    def next(self) -> None:
        os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
        self._turn += 1

    def __enter__(self) -> "RotatingAffinity":
        return self

    def __exit__(self, *exc_info: object) -> None:
        os.sched_setaffinity(0, self._original)


class NoiseProbe:
    """CPU steal share and load average between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self._before: Optional[Tuple[int, int]] = None
        self._load_before: Optional[float] = None
        self.steal_share: Optional[float] = None
        self.load_average: Optional[float] = None

    def start(self) -> None:
        self._before = cpu_times()
        self._load_before = _load_average()

    def stop(self) -> None:
        self.steal_share = steal_share(self._before, cpu_times())
        load_after = _load_average()
        if self._load_before is not None and load_after is not None:
            self.load_average = (self._load_before + load_after) / 2.0

    def to_dict(self) -> Dict[str, Optional[float]]:
        return {"steal_share": self.steal_share, "load_average": self.load_average}


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        target = root / ".git" / ref[5:]
        if target.exists():
            return target.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """sha256 over the library sources, identifying the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_shape(root: Path) -> Dict[str, object]:
    """Cores, interpreter, NumPy and code identity of this run."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
    }
