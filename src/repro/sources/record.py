"""The record-native backend: marginals straight from encoded record arrays.

A :class:`RecordSource` holds deduplicated ``(codes, weights)`` arrays —
``codes[i]`` is the packed domain index of one distinct record and
``weights[i]`` how many tuples carry it — as one or more shards.  Any cuboid
marginal ``C^alpha x`` is computed as a weighted ``numpy.bincount`` of the
codes projected onto the bits of ``alpha`` (the production idiom of
workload-marginal libraries: project + bincount), costing ``O(k n + 2**k)``
for ``n`` distinct records and a ``k``-way marginal — completely independent
of the ambient ``2**d``.

The layout is read off the shard arrays; nothing else configures it:

* **one in-memory shard** (the default) counts on the calling thread;
* **several shards** (``shards=S``) are the stable-hash partition of
  :func:`~repro.shards.partition.partition_codes`.  Each shard runs the same
  kernel as one task on a shared worker pool
  (:func:`~repro.shards.pool.reduce_shards`), and the per-shard results are
  summed in fixed shard order;
* **memory-mapped shards** (``np.memmap`` arrays, as
  :func:`repro.store.encoded.open_source` maps them) also return each
  shard's pages to the OS after its kernel, fire the ``store.read`` fault
  site instead of ``shards.task``, price the I/O in :meth:`marginal_cost`
  and refuse process pools, which would pickle (fully materialise) them.

The count weights are integers, and float64 addition of integers below
``2**53`` is exact in any order, so these marginals are bitwise identical to
the dense cube reductions for every shard count, worker count and layout;
seeded releases therefore reproduce exactly across backends.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DataError
from repro.fourier.index import project_indices
from repro.obs import runtime as _obs
from repro.obs.cachestats import CacheStats
from repro.resilience import faults as _faults
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.sources.base import (
    DENSE_LIMIT_BITS,
    CountSource,
    ensure_dense_allowed,
    exact_integer_counts,
    validate_count_vector,
)
from repro.utils.bits import bit_indices, hamming_weight

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.schema import Schema
    from repro.shards.pool import Worklist

#: Widest supported domain: codes are int64, so bit 62 is the last usable one.
MAX_RECORD_BITS = 62

#: Default capacity of the per-source marginal memo (see :class:`MarginalMemo`).
DEFAULT_MARGINAL_CACHE = 64

#: Default total-cell budget of the memo: 2**21 float64 cells is 16 MiB.
#: Bounds memory on long-lived cached sources even when wide batch-root
#: marginals (up to the dense limit, 512 MiB each) pass through.
DEFAULT_MARGINAL_CACHE_CELLS = 1 << 21

#: Transient cell budget of the plane-sharing batch kernel: at most 2**23
#: int64 plane cells (64 MiB) held at once per kernel invocation.
PLANE_CELL_BUDGET = 1 << 23

#: Rough per-task dispatch overhead of the worker pool, in kernel cost units
#: (cells touched).  Used only by the planner's cost model.
DISPATCH_OVERHEAD = 256.0

#: Cost-model weight of streaming one mapped record entry from disk relative
#: to touching it in memory.  Page-cache reads are cheap but not free, and a
#: cold scan pays real I/O; the planner uses this to price direct member
#: scans (each a full pass over the mapped files) against one shared
#: batch-root scan refined in memory.
IO_COST_FACTOR = 4.0


class MarginalMemo:
    """A small LRU of computed marginals, keyed by cuboid mask.

    Consistency and recovery paths re-request the same cuboids (and serving
    re-reads them per query); without the memo every repeat re-projects the
    full code array.  The memo stores its own private arrays and the sources
    copy on the way out, so the :meth:`CountSource.marginal` contract — the
    caller owns the returned array and may mutate it — still holds.

    Bounded twice: at most ``maxsize`` entries AND at most ``max_cells``
    total cells (an array larger than the whole budget is never stored, so
    one wide batch-root marginal cannot pin hundreds of MiB on a cached
    source).  A ``maxsize`` of 0 disables caching entirely.
    """

    __slots__ = ("_entries", "_maxsize", "_max_cells", "_cells", "stats")

    def __init__(
        self,
        maxsize: int = DEFAULT_MARGINAL_CACHE,
        max_cells: int = DEFAULT_MARGINAL_CACHE_CELLS,
    ):
        self._entries: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._maxsize = int(maxsize)
        self._max_cells = int(max_cells)
        self._cells = 0
        self.stats = CacheStats(metric_prefix="record.memo")

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self._maxsize > 0

    @property
    def cells(self) -> int:
        """Total cells currently held."""
        return self._cells

    def get(self, mask: int) -> Optional[np.ndarray]:
        value = self._entries.get(mask)
        if value is None:
            self.stats.record_miss()
            return None
        self._entries.move_to_end(mask)
        self.stats.record_hit()
        return value

    def put(self, mask: int, value: np.ndarray) -> bool:
        """Store ``value``; returns whether it was cached (too-large arrays
        are not, and the caller then keeps sole ownership — no copy needed)."""
        if self._maxsize <= 0 or value.size > self._max_cells:
            return False
        previous = self._entries.pop(mask, None)
        if previous is not None:
            self._cells -= previous.size
        self._entries[mask] = value
        self._cells += value.size
        while len(self._entries) > self._maxsize or self._cells > self._max_cells:
            _, evicted = self._entries.popitem(last=False)
            self._cells -= evicted.size
            self.stats.record_eviction()
        return True


def projected_marginals(
    codes: np.ndarray,
    weights: np.ndarray,
    root: int,
    members: Iterable[int],
) -> Dict[int, np.ndarray]:
    """Weighted-bincount marginals of several masks sharing one batch root.

    The naive loop projects the full code array from scratch for every
    member: four ufunc passes per mask bit (shift, and, shift, or).  Masks
    sharing a batch ``root`` can instead hoist the per-bit bookkeeping: each
    bit of the root is extracted into a 0/1 plane **once**, and every
    member's compact codes are assembled from the shared planes with two
    passes per bit.  The compact integers are identical either way, so the
    bincounts — and therefore seeded releases — are bitwise unchanged.

    A single member (or a root whose plane arrays would exceed the transient
    memory budget) falls back to the plain per-mask projection; both paths
    produce the same values.
    """
    member_list = [int(member) for member in members]
    out: Dict[int, np.ndarray] = {}
    root_bits = bit_indices(root)
    # Plane arrays are held simultaneously (one codes-sized int64 array per
    # root bit, possibly on several pool workers at once): cap the transient
    # footprint instead of letting wide roots over huge code arrays multiply.
    share_planes = (
        len(member_list) >= 2
        and len(root_bits) * codes.shape[0] <= PLANE_CELL_BUDGET
    )
    planes: Dict[int, np.ndarray] = {}
    if share_planes:
        for bit in root_bits:
            planes[bit] = (codes >> np.int64(bit)) & np.int64(1)
    for member in member_list:
        if member in out:
            continue
        k = hamming_weight(member)
        if share_planes and member & ~root == 0:
            compact = np.zeros_like(codes)
            for j, bit in enumerate(bit_indices(member)):
                compact |= planes[bit] << np.int64(j)
        else:
            compact = project_indices(codes, member)
        # astype: bincount of an *empty* weighted input yields int64 zeros;
        # the source contract (and dense-backend parity) is float64.
        out[member] = np.bincount(
            compact, weights=weights, minlength=1 << k
        ).astype(np.float64, copy=False)
    return out


def _check_dimension(dimension: int) -> int:
    d = int(dimension)
    if not (1 <= d <= MAX_RECORD_BITS):
        raise DataError(
            f"record sources support 1..{MAX_RECORD_BITS} binary attributes, got {d}"
        )
    return d


def _batch_marginals(
    codes: np.ndarray,
    weights: np.ndarray,
    work: "Worklist",
    *,
    observe: bool = False,
) -> Dict[int, np.ndarray]:
    """Every requested marginal of one ``(codes, weights)`` shard.

    ``work`` lists ``(root, members)`` batches whose members are distinct
    across the list; each batch shares one set of projected bit planes (see
    :func:`projected_marginals`).  ``observe`` records every batch as a
    ``source.batch`` span.
    """
    out: Dict[int, np.ndarray] = {}
    for root, members in work:
        if observe:
            started = time.perf_counter()
            with _obs.trace_span("source.batch", root=f"{root:#x}", members=len(members)):
                out.update(projected_marginals(codes, weights, root, members))
            _obs.observe("source.batch_seconds", time.perf_counter() - started)
            _obs.counter_inc("source.batches")
        else:
            out.update(projected_marginals(codes, weights, root, members))
    return out


def _shard_kernel(
    shard: int, codes: np.ndarray, weights: np.ndarray, work: "Worklist"
) -> Dict[int, np.ndarray]:
    """One pool task: every requested marginal of one shard.

    Module-level so process pools can pickle it.  In a process-pool child
    the observability flag is off (it is process-local), so the span
    degrades to the shared no-op there; thread pools record real per-shard
    spans on their worker threads.

    A memory-mapped shard fires ``store.read`` (a transient I/O error
    faulting in a cold page) where an in-memory one fires ``shards.task``;
    the dispatch layer's retry policy re-runs the shard either way, and the
    kernel is pure, so recovered totals are bitwise identical.  After the
    scan the shard's pages go back to the OS, which keeps RSS flat across a
    multi-shard scan: peak residency is the largest shard times the worker
    count.  The page cache may keep the pages, so warm re-scans stay fast.
    """
    mapped = isinstance(codes, np.memmap)
    if _faults.ENABLED:
        _faults.fire("store.read" if mapped else "shards.task", shard=shard)
    if _obs.ENABLED:
        with _obs.trace_span("shards.kernel", shard=shard, records=int(codes.shape[0])):
            out = _batch_marginals(codes, weights, work)
        if mapped:
            _obs.counter_inc("store.bytes_read", float(codes.nbytes + weights.nbytes))
    else:
        out = _batch_marginals(codes, weights, work)
    if mapped:
        # Imported here: the repro.store package imports this module.
        from repro.store.layout import release_pages

        release_pages(codes)
        release_pages(weights)
    return out


class RecordSource(CountSource):
    """Count source over deduplicated encoded records, in one or more shards.

    Parameters
    ----------
    codes:
        1-D integer array of packed domain indices (one per record, or one
        per *distinct* record when ``weights`` carries multiplicities).
    weights:
        Optional per-code weights (tuple counts); defaults to all ones.
    dimension:
        Number of binary attributes ``d`` of the domain the codes index.
    schema:
        Optional schema carried along for introspection.
    deduplicate:
        Collapse duplicate codes into one entry with summed weights
        (default).  Pass ``False`` when the caller already aggregated.
    limit_bits:
        Per-cuboid dense limit (defaults to
        :data:`~repro.sources.base.DENSE_LIMIT_BITS`): requesting a marginal
        or dense vector wider than this raises :class:`DataError`.
    marginal_cache_size:
        Capacity of the per-source marginal memo (repeat requests for the
        same cuboid are served from cache, as fresh copies); 0 disables it.
    shards:
        Number of stable-hash partitions ``S`` (default 1, unsharded).
    workers:
        Worker pool size; defaults to ``min(shards, cores)``.  ``1`` runs
        the shards serially (still sharded, still bitwise identical).
    executor:
        ``"thread"`` (default) or ``"process"`` — see :mod:`repro.shards.pool`.
    retry_policy:
        :class:`~repro.resilience.retry.RetryPolicy` applied per shard task
        at the dispatch layer (default: three immediate attempts on
        transient failures).  Retried tasks are pure and results are summed
        in fixed shard order, so recovered runs stay bitwise identical.

    :meth:`from_shards` adopts already-partitioned arrays instead, such as
    the memory-mapped shard files of an encoded source.
    """

    def __init__(
        self,
        codes: Union[np.ndarray, Sequence[int]],
        weights: Optional[Union[np.ndarray, Sequence[float]]] = None,
        *,
        dimension: int,
        schema: Optional["Schema"] = None,
        deduplicate: bool = True,
        limit_bits: Optional[int] = None,
        marginal_cache_size: int = DEFAULT_MARGINAL_CACHE,
        shards: int = 1,
        workers: Optional[int] = None,
        executor: str = "thread",
        retry_policy: Optional[RetryPolicy] = None,
    ):
        d = _check_dimension(dimension)
        code_array = np.asarray(codes, dtype=np.int64).reshape(-1)
        if code_array.size and (
            int(code_array.min()) < 0 or int(code_array.max()) >= (1 << d)
        ):
            raise DataError(f"record codes fall outside the {d}-bit domain")
        if weights is None:
            weight_array = np.ones(code_array.shape[0], dtype=np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weight_array.shape != code_array.shape:
                raise DataError(
                    f"got {weight_array.shape[0]} weights for {code_array.shape[0]} codes"
                )
            if not np.isfinite(weight_array).all():
                raise DataError("record weights must be finite")
        if deduplicate and code_array.size:
            unique, inverse = np.unique(code_array, return_inverse=True)
            weight_array = np.bincount(
                inverse.reshape(-1), weights=weight_array, minlength=unique.shape[0]
            )
            code_array = unique
        shard_count = int(shards)
        if shard_count < 1:
            raise DataError(f"shard count must be at least 1, got {shards}")
        if shard_count == 1:
            parts = [(code_array, weight_array)]
        else:
            # Imported here: the repro.shards package imports this module.
            from repro.shards.partition import partition_codes

            parts = partition_codes(code_array, weight_array, shard_count)
        self._adopt(
            parts,
            d,
            schema=schema,
            limit_bits=limit_bits,
            memo=MarginalMemo(marginal_cache_size),
            workers=workers,
            executor=executor,
            retry_policy=retry_policy,
        )

    def _adopt(
        self,
        parts: Sequence[Tuple[np.ndarray, np.ndarray]],
        dimension: int,
        *,
        schema: Optional["Schema"],
        limit_bits: Optional[int],
        memo: MarginalMemo,
        workers: Optional[int],
        executor: str,
        retry_policy: Optional[RetryPolicy],
        total_weight: Optional[float] = None,
        memory_budget: Optional[int] = None,
    ) -> None:
        """Bind validated shard arrays and the dispatch configuration."""
        # Imported here: the repro.shards package imports this module.
        from repro.shards.partition import resolve_worker_count
        from repro.shards.pool import check_executor_kind

        self._shards: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(
            (codes, weights) for codes, weights in parts
        )
        self._mapped = all(isinstance(codes, np.memmap) for codes, _ in self._shards)
        self._executor_kind = check_executor_kind(executor)
        if self._mapped and self._executor_kind != "thread":
            raise DataError(
                "mapped sources only run on thread executors: a process pool "
                "would pickle (fully materialise) every memmap shard"
            )
        self._d = dimension
        self._schema = schema
        self._limit_bits = DENSE_LIMIT_BITS if limit_bits is None else int(limit_bits)
        self._memo = memo
        self._workers = resolve_worker_count(len(self._shards), workers)
        self._retry = retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY
        self._memory_budget = memory_budget
        self._total = (
            float(total_weight)
            if total_weight is not None
            else float(sum(float(weights.sum()) for _, weights in self._shards))
        )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls,
        schema: "Schema",
        records: Union[np.ndarray, Sequence[Sequence[int]]],
        *,
        limit_bits: Optional[int] = None,
    ) -> "RecordSource":
        """Encode and deduplicate a record matrix over ``schema``."""
        codes = schema.encode_records(np.asarray(records, dtype=np.int64))
        return cls(
            codes, dimension=schema.total_bits, schema=schema, limit_bits=limit_bits
        )

    @classmethod
    def from_vector(
        cls,
        vector: np.ndarray,
        dimension: Optional[int] = None,
        *,
        schema: Optional["Schema"] = None,
        limit_bits: Optional[int] = None,
        shards: int = 1,
        workers: Optional[int] = None,
    ) -> "RecordSource":
        """Build a record source from the non-zero cells of a dense vector."""
        array, d = validate_count_vector(vector, dimension)
        codes = np.flatnonzero(array)
        return cls(
            codes,
            array[codes],
            dimension=d,
            schema=schema,
            deduplicate=False,
            limit_bits=limit_bits,
            shards=shards,
            workers=workers,
        )

    @classmethod
    def from_shards(
        cls,
        shard_arrays: Sequence[Tuple[np.ndarray, np.ndarray]],
        *,
        dimension: int,
        schema: Optional["Schema"] = None,
        workers: Optional[int] = None,
        executor: str = "thread",
        limit_bits: Optional[int] = None,
        marginal_cache_size: int = DEFAULT_MARGINAL_CACHE,
        memory_budget: Optional[int] = None,
        total_weight: Optional[float] = None,
    ) -> "RecordSource":
        """Adopt already-partitioned, deduplicated shard arrays as they are.

        Nothing is validated or copied, so mapped arrays are never read
        here.  ``total_weight`` (an encoded source's manifest total) spares
        the pass over the weights.  ``memory_budget`` bounds the resident
        working set: the marginal memo gets a quarter of it, and
        :meth:`max_root_cells` keeps the planner's batch roots inside it.
        """
        parts = list(shard_arrays)
        if not parts:
            raise DataError("a record source needs at least one shard")
        budget = None if memory_budget is None else int(memory_budget)
        # A quarter of the budget for cached marginals (float64 cells); the
        # rest covers mapped pages in flight and kernel transients.
        cells = DEFAULT_MARGINAL_CACHE_CELLS if budget is None else max(1, budget // (8 * 4))
        source = cls.__new__(cls)
        source._adopt(
            parts,
            _check_dimension(dimension),
            schema=schema,
            limit_bits=limit_bits,
            memo=MarginalMemo(marginal_cache_size, cells),
            workers=workers,
            executor=executor,
            retry_policy=None,
            total_weight=total_weight,
            memory_budget=budget,
        )
        return source

    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """``"record"``, ``"sharded-record"`` or ``"mapped-record"``, read
        off the layout."""
        if self._mapped:
            return "mapped-record"
        return "sharded-record" if len(self._shards) > 1 else "record"

    @property
    def dimension(self) -> int:
        return self._d

    @property
    def schema(self) -> Optional["Schema"]:
        """The schema the codes are encoded under, when known."""
        return self._schema

    @property
    def codes(self) -> np.ndarray:
        """Deduplicated packed domain indices, in shard order (read-only)."""
        return self._joined(0)

    @property
    def weights(self) -> np.ndarray:
        """Per-code tuple counts, aligned with :attr:`codes` (read-only)."""
        return self._joined(1)

    def _joined(self, column: int) -> np.ndarray:
        arrays = [part[column] for part in self._shards]
        view = arrays[0].view() if len(arrays) == 1 else np.concatenate(arrays)
        view.setflags(write=False)
        return view

    @property
    def distinct_records(self) -> int:
        """Number of distinct stored records across all shards."""
        return int(sum(codes.shape[0] for codes, _ in self._shards))

    @property
    def limit_bits(self) -> int:
        """Per-cuboid dense limit this source enforces."""
        return self._limit_bits

    @property
    def memo_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the per-source marginal memo."""
        return self._memo.stats

    @property
    def total(self) -> float:
        return self._total

    @property
    def shards(self) -> int:
        """Number of hash partitions."""
        return len(self._shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Distinct record count per shard, in shard order."""
        return tuple(codes.shape[0] for codes, _ in self._shards)

    @property
    def workers(self) -> int:
        """Worker pool size (1 means the shards run serially)."""
        return self._workers

    @property
    def executor_kind(self) -> str:
        """``"thread"`` or ``"process"``."""
        return self._executor_kind

    @property
    def shard_arrays(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Per-shard ``(codes, weights)`` arrays (read-only views)."""
        out = []
        for codes, weights in self._shards:
            code_view = codes.view()
            code_view.setflags(write=False)
            weight_view = weights.view()
            weight_view.setflags(write=False)
            out.append((code_view, weight_view))
        return tuple(out)

    @property
    def bytes_mapped(self) -> int:
        """Bytes of shard files mapped into the address space (0 in memory)."""
        if not self._mapped:
            return 0
        return int(sum(codes.nbytes + weights.nbytes for codes, weights in self._shards))

    def __repr__(self) -> str:
        return (
            f"RecordSource(backend={self.backend!r}, d={self._d}, "
            f"shards={self.shards}, workers={self._workers}, "
            f"distinct={self.distinct_records}, total={self._total:g})"
        )

    def describe_layout(self) -> str:
        """One-line shard layout for ``explain`` output."""
        if self.backend == "record":
            return (
                f"1 shard of {self.distinct_records} distinct records "
                "(unsharded, 1 worker)"
            )
        sizes = self.shard_sizes
        if len(sizes) > 8:
            shown = "/".join(str(s) for s in sizes[:8]) + f"/... ({len(sizes)} shards)"
        else:
            shown = "/".join(str(s) for s in sizes)
        layout = (
            f"{self.shards} shard(s) of {self.distinct_records} distinct records "
            f"(sizes {shown}), {self._workers} {self._executor_kind} worker(s)"
        )
        if self._mapped:
            mib = self.bytes_mapped / float(1 << 20)
            layout += f", memory-mapped ({mib:.1f} MiB on disk)"
        return layout

    # ------------------------------------------------------------------ #
    # counting
    # ------------------------------------------------------------------ #
    def marginal(self, mask: int) -> np.ndarray:
        return self.marginals_for_batches([(mask, (mask,))])[int(mask)]

    def marginals_for_batches(
        self, batches: Sequence[Tuple[int, Sequence[int]]]
    ) -> Dict[int, np.ndarray]:
        values: Dict[int, np.ndarray] = {}
        queued: set = set()
        work: List[Tuple[int, Tuple[int, ...]]] = []
        for root, members in batches:
            root = self.check_mask(int(root))
            needed = []
            for member in members:
                member = self.check_mask(int(member))
                if member in values or member in queued:
                    continue
                ensure_dense_allowed(
                    hamming_weight(member),
                    limit_bits=self._limit_bits,
                    what=f"the cuboid marginal {member:#x}",
                )
                cached = self._memo.get(member)
                if cached is not None:
                    values[member] = cached.copy()
                else:
                    needed.append(member)
                    queued.add(member)
            if needed:
                work.append((root, tuple(needed)))
        if work:
            for member, value in self._count(work).items():
                # The memo keeps its own array; the caller gets a copy.
                values[member] = value.copy() if self._memo.put(member, value) else value
        return values

    def _count(self, work: "Worklist") -> Dict[int, np.ndarray]:
        """Exact marginals of a deduplicated worklist, summed over shards."""
        if len(self._shards) == 1 and not self._mapped:
            codes, weights = self._shards[0]
            return _batch_marginals(codes, weights, work, observe=_obs.ENABLED)
        # Imported here: the repro.shards package imports this module.
        from repro.shards.pool import reduce_shards

        if self._mapped and _obs.ENABLED:
            _obs.gauge_set("store.bytes_mapped", float(self.bytes_mapped))
        return reduce_shards(
            self._shards,
            work,
            _shard_kernel,
            workers=self._workers,
            kind=self._executor_kind,
            policy=self._retry,
        )

    def dense_vector(self) -> np.ndarray:
        ensure_dense_allowed(self._d, limit_bits=self._limit_bits)
        total: Optional[np.ndarray] = None
        for codes, weights in self._shards:
            part = np.bincount(
                codes, weights=weights, minlength=self.domain_size
            ).astype(np.float64, copy=False)
            if total is None:
                total = part
            else:
                total += part
        return total

    def has_exact_integer_counts(self) -> bool:
        """Checked on the per-code weights: every cell count is a sum of
        them, so integer weights with ``sum |w| < 2**53`` bound it."""
        return exact_integer_counts(weights for _, weights in self._shards)

    # ------------------------------------------------------------------ #
    # planner hooks
    # ------------------------------------------------------------------ #
    def prefers_batch_root(self, root_mask: int) -> bool:
        """Refine from a shared root only while the root stays cheap.

        A record-native marginal costs ``O(n + 2**k)``; materialising a root
        wider than the record count and aggregating members from it would be
        slower (and allocate more) than computing each member directly.  A
        root over the memory-budget ceiling (:meth:`max_root_cells`) is
        refused outright.
        """
        root_bits = hamming_weight(root_mask)
        if root_bits > self._limit_bits:
            return False
        ceiling = self.max_root_cells()
        if ceiling is not None and (1 << root_bits) > ceiling:
            return False
        return (1 << root_bits) <= max(self.distinct_records, 1024)

    def marginal_cost(self, mask: int) -> float:
        """Projected-bincount cost: a pass over the largest shard's codes
        (the ``n`` distinct codes split across the parallel workers), the
        ``2**k`` output cells per shard, a flat overhead per pool task, and
        on mapped layouts an I/O term for streaming the shard files — every
        direct scan re-reads them.  One unsharded shard costs ``n + 2**k``,
        independent of ``2**d``."""
        distinct = self.distinct_records
        parallel = max(1, min(self._workers, self.shards))
        serial_records = distinct / parallel if parallel > 1 else distinct
        per_shard_records = max(float(max(self.shard_sizes)), serial_records)
        cells = float(2.0 ** hamming_weight(mask)) * self.shards
        overhead = DISPATCH_OVERHEAD if self._workers > 1 else 0.0
        cost = per_shard_records + cells + overhead
        if self._mapped:
            cost += IO_COST_FACTOR * float(serial_records)
        return cost

    def can_materialise(self, mask: int) -> bool:
        return hamming_weight(mask) <= self._limit_bits

    def max_root_cells(self) -> Optional[int]:
        """Memory ceiling on materialised batch roots under a budget.

        The streamed shard reduction holds the running total plus up to
        ``workers + 1`` in-flight shard results, each of root size; a root
        the planner would pick purely on I/O grounds must not let those few
        vectors outgrow the source's memory budget.  Trivial batches (the
        root *is* the requested marginal) are exempt — the workload demands
        that vector no matter what.
        """
        if self._memory_budget is None:
            return None
        resident = min(self._workers, self.shards) + 2
        return max(1 << 16, self._memory_budget // (8 * resident))

