"""Shared worker pools for sharded sources, and the shard reduction on them.

Sources are created per release (``as_count_source`` resolves the engine's
data input on every call), so giving each source its own executor would leak
a thread/process pool per release.  This registry shares one executor per
``(kind, workers)`` pair across the process, creates it lazily on first
parallel dispatch, and shuts everything down at interpreter exit.

Pool choice:

* ``"thread"`` (default) — zero serialisation cost; NumPy's ufunc inner
  loops release the GIL, so the projection passes of the shard kernel run
  genuinely in parallel.
* ``"process"`` — full parallelism for every pass (including the weighted
  bincounts, which hold the GIL) at the price of pickling each shard's
  arrays per dispatch.  Opt-in for workloads where the bincount share of the
  kernel dominates.

Failure handling: a process pool whose worker dies (OOM-killed, segfaulted)
is permanently broken — every queued and future submission fails with
:class:`~concurrent.futures.process.BrokenProcessPool`.  :func:`rebuild_pool`
evicts the broken executor from the registry and builds a fresh one so the
dispatch layer can replay the affected shards once; :func:`shard_error`
turns pool-layer failures into a targeted
:class:`~repro.exceptions.ShardError` naming the configuration and the
thread-pool escape hatch.  :func:`reduce_shards` is the one dispatch loop
that runs a shard kernel over every shard of a
:class:`~repro.sources.record.RecordSource` and applies all of this.
"""

from __future__ import annotations

import atexit
import pickle
import threading
import time
from collections import deque
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Deque, Dict, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError, ShardError
from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.resilience.retry import RetryPolicy

#: A plan's ``(root, members)`` batches, as dispatched to every shard.
Worklist = Sequence[Tuple[int, Sequence[int]]]

#: A shard task: ``kernel(shard, codes, weights, work)`` returning the
#: shard's marginal per requested mask.  Module-level functions only, so
#: process pools can pickle it.
ShardKernel = Callable[[int, np.ndarray, np.ndarray, Worklist], Dict[int, np.ndarray]]

#: The accepted executor kinds.
EXECUTOR_KINDS = ("thread", "process")

_POOLS: Dict[Tuple[str, int], Executor] = {}
_LOCK = threading.Lock()


def check_executor_kind(kind: str) -> str:
    """Validate an executor kind string."""
    if kind not in EXECUTOR_KINDS:
        raise DataError(
            f"unknown executor kind {kind!r}; choose one of {EXECUTOR_KINDS}"
        )
    return kind


def get_pool(kind: str, workers: int) -> Executor:
    """The shared executor for ``(kind, workers)``, created on first use."""
    check_executor_kind(kind)
    workers = int(workers)
    if workers < 1:
        raise DataError(f"worker count must be at least 1, got {workers}")
    key = (kind, workers)
    with _LOCK:
        pool = _POOLS.get(key)
        if pool is None:
            if kind == "thread":
                pool = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-shard"
                )
            else:
                pool = ProcessPoolExecutor(max_workers=workers)
            _POOLS[key] = pool
        return pool


def rebuild_pool(kind: str, workers: int) -> Executor:
    """Replace the shared executor for ``(kind, workers)`` with a fresh one.

    Called by the dispatch layer after a
    :class:`~concurrent.futures.process.BrokenProcessPool`: the old executor
    can never run another task, so it is evicted from the registry, shut down
    without waiting (its futures are already dead), and rebuilt lazily via
    :func:`get_pool`.
    """
    check_executor_kind(kind)
    key = (kind, int(workers))
    with _LOCK:
        broken = _POOLS.pop(key, None)
    if broken is not None:
        broken.shutdown(wait=False)
    return get_pool(kind, workers)


#: Pool-layer failures that are about the *pool configuration*, not the
#: shard data: worker death and shard-pickling problems.
POOL_FAILURES = (BrokenProcessPool, pickle.PicklingError)


def shard_error(
    error: BaseException,
    *,
    kind: str,
    workers: int,
    shard: int,
    attempts: int = 0,
) -> ShardError:
    """Wrap a pool-layer failure into a targeted :class:`ShardError`.

    The message names the active ``kind=``/``workers=`` configuration and
    points at the thread-pool escape hatch — a thread pool shares memory, so
    neither worker death by re-pickling nor pickling failures exist there.
    """
    if isinstance(error, BrokenProcessPool):
        detail = (
            "a pool worker died (killed or crashed) and the pool stayed "
            "broken after one rebuild"
        )
    elif isinstance(error, pickle.PicklingError):
        detail = f"the shard payload could not be pickled to a worker ({error})"
    else:
        detail = (
            f"the shard task kept failing after {max(attempts, 1)} attempt(s) "
            f"({type(error).__name__}: {error})"
        )
    return ShardError(
        f"sharded measurement failed on shard {shard} with "
        f"kind={kind!r}, workers={workers}: {detail}; if this persists, "
        "switch the backend to the thread pool (kind='thread'), which "
        "shares memory and needs no pickling"
    )


def reduce_shards(
    shards: Sequence[Tuple[np.ndarray, np.ndarray]],
    work: Worklist,
    kernel: ShardKernel,
    *,
    workers: int,
    kind: str,
    policy: RetryPolicy,
) -> Dict[int, np.ndarray]:
    """Run ``kernel`` on every shard and sum the results per mask.

    Shard results are consumed **in ascending shard order** — exactly the
    summation order of a gather-then-sum — so the totals are bitwise
    identical for any worker count.  At most ``workers + 1`` shard results
    are in flight at once (a bounded submission window, not a full gather),
    so reducing a wide marginal across many shards holds a couple of
    result-sized arrays, never one per shard.  ``workers <= 1`` (or a single
    shard) runs the shards serially on the calling thread.

    Failure handling, all value-preserving because shard kernels are pure
    and the sum order is fixed:

    * a shard task failing with a transient error (injected
      :class:`~repro.exceptions.TransientFault` or real ``OSError``) is
      resubmitted under ``policy``;
    * a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
      died) rebuilds the shared pool **once** and replays every in-flight
      shard on the fresh pool;
    * anything past those budgets is a targeted
      :class:`~repro.exceptions.ShardError` naming the ``workers=`` /
      ``kind=`` configuration.
    """
    totals: Dict[int, np.ndarray] = {}

    def accumulate(result: Dict[int, np.ndarray]) -> None:
        for mask, value in result.items():
            held = totals.get(mask)
            if held is None:
                totals[mask] = value
            else:
                np.add(held, value, out=held)

    if _obs.ENABLED:
        _obs.counter_inc("shards.tasks", len(shards))
        _obs.gauge_set("shards.workers", workers)
        _obs.gauge_set("shards.count", len(shards))
    with _obs.trace_span(
        "shards.dispatch",
        shards=len(shards),
        workers=workers,
        executor=kind,
        batches=len(work),
    ):
        if workers <= 1 or len(shards) <= 1:
            for index, (codes, weights) in enumerate(shards):
                try:
                    result = policy.run(
                        kernel, index, codes, weights, work, what=f"shard {index}"
                    )
                except BaseException as error:  # noqa: BLE001 - classified below
                    if not policy.is_retryable(error):
                        raise
                    raise shard_error(
                        error,
                        kind=kind,
                        workers=workers,
                        shard=index,
                        attempts=policy.max_attempts,
                    ) from error
                accumulate(result)
            return totals

        pool = get_pool(kind, workers)
        rebuilds_left = 1  # a pool that breaks twice is a real fault
        pending: Deque[Tuple[int, Future]] = deque()

        def submit(index: int) -> Future:
            """Submit one shard task, mapping submit-time pool failures (e.g.
            an unpicklable payload) to a targeted :class:`ShardError`."""
            codes, weights = shards[index]
            try:
                return pool.submit(kernel, index, codes, weights, work)
            except POOL_FAILURES as error:
                raise shard_error(error, kind=kind, workers=workers, shard=index) from error

        def collect(index: int, future: Future) -> Dict[int, np.ndarray]:
            """Resolve one in-flight shard, retrying transients and rebuilding
            a broken pool (once) with the whole pending window replayed."""
            nonlocal pool, rebuilds_left
            attempts = 1
            while True:
                try:
                    if _faults.ENABLED:
                        _faults.fire("pool.worker", shard=index)
                    return future.result()
                except BrokenProcessPool as error:
                    if rebuilds_left <= 0:
                        raise shard_error(
                            error, kind=kind, workers=workers, shard=index
                        ) from error
                    rebuilds_left -= 1
                    if _obs.ENABLED:
                        _obs.counter_inc("resilience.pool_rebuilds")
                    pool = rebuild_pool(kind, workers)
                    future = submit(index)
                    # A broken pool killed every in-flight future with it;
                    # replay the pending window on the fresh pool, in order.
                    replayed = [(held, submit(held)) for held, _dead in pending]
                    pending.clear()
                    pending.extend(replayed)
                except BaseException as error:  # noqa: BLE001 - classified below
                    if not policy.is_retryable(error):
                        raise
                    if attempts >= policy.max_attempts:
                        raise shard_error(
                            error,
                            kind=kind,
                            workers=workers,
                            shard=index,
                            attempts=attempts,
                        ) from error
                    if _obs.ENABLED:
                        _obs.counter_inc("resilience.retries")
                    pause = policy.delay(attempts)
                    if pause > 0:
                        time.sleep(pause)
                    attempts += 1
                    future = submit(index)

        window = workers + 1
        for index in range(len(shards)):
            pending.append((index, submit(index)))
            if len(pending) >= window:
                accumulate(collect(*pending.popleft()))
        while pending:
            accumulate(collect(*pending.popleft()))
    return totals


def shutdown_pools() -> None:
    """Shut down every shared pool (registered at interpreter exit; also
    handy for tests that want a clean slate)."""
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)
