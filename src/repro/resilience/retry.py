"""Deterministic retry policies for transient failures.

A :class:`RetryPolicy` is a small immutable value: how many attempts a unit
of work gets, which exception classes count as *transient* (and are
therefore worth retrying), and a deterministic backoff schedule.  It is
applied at the shard-pool dispatch layer
(:func:`~repro.shards.pool.reduce_shards` resubmits failed shard tasks),
on :func:`~repro.store.encoded.open_source` shard verification, and
anywhere else a pure computation can simply be re-run.

Retrying is only sound because the retried units are **pure**: a shard
kernel is a function of ``(codes, weights, work)``, a store read is a
function of the file bytes, and the reduction consumes results in fixed
shard order — so a retried run is bitwise identical to one that never
failed.  Anything stateful (the noise draw, ledger charges) lives outside
the retry boundary.

The default transient classes are :class:`~repro.exceptions.TransientFault`
(raised only by fault injection) and :class:`OSError` (real transient I/O).
Everything else — a genuine bug in a kernel, a pickling failure — fails
fast on the first attempt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type, TypeVar

from repro.exceptions import ResilienceError, TransientFault
from repro.obs import runtime as _obs

T = TypeVar("T")

#: Exception classes retried by default: injected transients and real I/O.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (TransientFault, OSError)


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and after which failures, a pure unit of work is re-run.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (``1`` disables retrying).
    backoff_base:
        Delay before the first retry, in seconds.  ``0.0`` retries
        immediately (the right choice for in-process kernels and tests).
    backoff_factor:
        Multiplier applied per further retry — the schedule is the
        deterministic ``base * factor**(attempt - 1)``, no jitter, so a
        retried run's timing is reproducible.
    retryable:
        Exception classes considered transient.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE

    def __post_init__(self) -> None:
        if int(self.max_attempts) < 1:
            raise ResilienceError(
                f"retry policy needs at least one attempt, got {self.max_attempts}"
            )
        if float(self.backoff_base) < 0 or float(self.backoff_factor) < 0:
            raise ResilienceError("retry backoff must be non-negative")

    def is_retryable(self, error: BaseException) -> bool:
        """``True`` when ``error`` is transient under this policy."""
        return isinstance(error, self.retryable)

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        return float(self.backoff_base) * float(self.backoff_factor) ** (attempt - 1)

    def delays(self) -> Tuple[float, ...]:
        """The full deterministic backoff schedule."""
        return tuple(self.delay(a) for a in range(1, int(self.max_attempts)))

    def run(
        self,
        fn: Callable[..., T],
        *args: object,
        what: str = "task",
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
    ) -> T:
        """Call ``fn(*args)``, re-running it on transient failures.

        Non-retryable errors propagate immediately; a transient error on the
        final attempt propagates as-is (callers wrap it into their targeted
        error).  ``on_retry(attempt, error)`` is invoked before each re-run.
        """
        attempts = int(self.max_attempts)
        for attempt in range(1, attempts + 1):
            try:
                return fn(*args)
            except BaseException as error:  # noqa: BLE001 - classified below
                if attempt >= attempts or not self.is_retryable(error):
                    raise
                if _obs.ENABLED:
                    _obs.counter_inc("resilience.retries")
                if on_retry is not None:
                    on_retry(attempt, error)
                pause = self.delay(attempt)
                if pause > 0:
                    time.sleep(pause)
        raise AssertionError("unreachable")  # pragma: no cover


#: The library-wide default: three immediate attempts.  Backoff stays zero
#: because every retried unit is an in-process pure computation — sleeping
#: would only stretch the recovery path.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Fail-fast policy for callers that want the raw first error.
NO_RETRY = RetryPolicy(max_attempts=1)
