"""Release workloads: a dense Fourier release and a checkpointed
record-native publication.

``release-fourier`` times one in-process release per iteration; nearly all
of it is the dense source's Fourier coefficients, one cube pass per
marginal, and it never counts records, checkpoints, stores or serves.
``publish-records`` times one publication per iteration: a checkpointed
release from a sharded record source, a store put, and a cold store open
answering one query batch.  Its times follow the host's disk (ext4 with
online discard writes and discards ~10 MB per publication) and varied by
more than 30 % between runs, so ``BENCHMARK.json`` does not gate it; the
traced run of ``serve-hotcold`` reports its layers
(:func:`traced_publications`).
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.engine as engine_module
import repro.sources.resolve as resolve_module
from repro.core.engine import MarginalReleaseEngine
from repro.core.result import ReleaseResult
from repro.plan.executor import Executor
from repro.plan.planner import Planner
from repro.queries import all_k_way
from repro.resilience.checkpoint import ReleaseCheckpoint
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore
from repro.sources.base import CountSource

from perfbench import calibrate, inputs, machine, trace

EPSILON = 1.0

#: Noise seeds of the digest and accuracy check, run on the fixed check data.
CHECK_SEEDS = (0, 1)

#: Releases the publication store keeps; the oldest is deleted after each
#: put, so put cost does not drift with the iteration count.
STORE_KEEP = 3

#: Queries answered by each cold read of a new release.
QUERIES_PER_READ = 50

#: Fewest timed iterations of a run, however long each takes.
MIN_ITERATIONS = 5


@dataclass(frozen=True)
class ReleaseSpec:
    attributes: int
    records: int
    k: int
    strategy: str
    consistency: bool
    publish: bool


SPECS: Dict[str, ReleaseSpec] = {
    # 2**16 cells is below the dense limit: the auto backend builds a dense
    # cube and F answers all 560 3-way marginals from it.
    "release-fourier": ReleaseSpec(16, 200_000, 3, "F", False, False),
    # 28 bits is above the 2**26 dense limit and 200k records are above the
    # auto-shard threshold: a record-native source in 2 shards on 2 threads.
    "publish-records": ReleaseSpec(28, 200_000, 2, "Q", True, True),
}


@dataclass
class Prepared:
    """Everything a run builds before timing: records, engine and source."""

    spec: ReleaseSpec
    records: int
    engine: MarginalReleaseEngine
    source: CountSource
    resolve_s: float


def prepare(spec: ReleaseSpec, seed: int) -> Prepared:
    """Generate the records of ``seed`` and build the engine and source."""
    dataset = inputs.correlated_records(spec.attributes, spec.records, seed)
    workload = all_k_way(dataset.schema, spec.k)
    engine = MarginalReleaseEngine(workload, spec.strategy, consistency=spec.consistency)
    start = time.perf_counter()
    source = resolve_module.as_count_source(dataset, workload)
    resolve_s = time.perf_counter() - start
    return Prepared(spec, spec.records, engine, source, resolve_s)


def cells_per_pass(prepared: Prepared) -> int:
    """Cells one direct marginal reads: the cube, or every record."""
    if prepared.source.backend == "dense":
        return prepared.source.domain_size
    return prepared.records


def valid_release(result: ReleaseResult, prepared: Prepared) -> bool:
    """Shape, finiteness and (for consistent releases) equal totals."""
    width = 1 << prepared.spec.k
    marginals = [np.asarray(m, dtype=np.float64) for m in result.marginals]
    if len(marginals) != len(prepared.engine.workload):
        return False
    if any(m.shape != (width,) or not np.all(np.isfinite(m)) for m in marginals):
        return False
    if not result.consistent:
        return False
    totals = np.array([m.sum() for m in marginals])
    return bool(np.all(np.abs(totals - totals[0]) <= 1e-6 * max(1.0, abs(totals[0]))))


def digest_check(
    prepared: Prepared, check_source: CountSource, exact: Sequence[np.ndarray],
    workdir: Path,
) -> Tuple[float, str]:
    """``(mean squared error, sha256)`` of the releases of every check seed
    on the fixed check data.  Both repeat exactly while the program's
    arithmetic and noise draws are unchanged."""
    digest = hashlib.sha256()
    squared, cells = 0.0, 0
    for seed in CHECK_SEEDS:
        checkpoint = workdir / f"check-{seed}" if prepared.spec.publish else None
        result = prepared.engine.release(check_source, EPSILON, rng=seed, checkpoint=checkpoint)
        if checkpoint is not None:
            shutil.rmtree(checkpoint)
        for released, truth in zip(result.marginals, exact):
            values = np.ascontiguousarray(released, dtype=np.float64)
            digest.update(values.tobytes())
            squared += float(np.sum((values - truth) ** 2))
            cells += values.size
    return squared / cells, digest.hexdigest()


def check_inputs(spec: ReleaseSpec) -> Tuple[CountSource, List[np.ndarray]]:
    """The fixed check data as a source, with its exact marginals."""
    dataset = inputs.correlated_records(spec.attributes, spec.records, inputs.CHECK_DATA_SEED)
    workload = all_k_way(dataset.schema, spec.k)
    source = resolve_module.as_count_source(dataset, workload)
    return source, [source.marginal(mask) for mask in workload.masks]


def _tree_size(directory: Path) -> Tuple[int, int]:
    files = [path for path in directory.rglob("*") if path.is_file()]
    return len(files), sum(path.stat().st_size for path in files)


def _snapshot(clock: Optional[trace.LayerClock]) -> Dict[str, float]:
    return clock.snapshot() if clock is not None else {}


def _since(clock: Optional[trace.LayerClock], before: Dict[str, float]) -> Dict[str, float]:
    return trace.delta(clock.snapshot(), before) if clock is not None else {}


class Publisher:
    """One publication per call into a store that keeps :data:`STORE_KEEP`
    releases."""

    def __init__(self, prepared: Prepared, workdir: Path, seed: int):
        self._prepared = prepared
        self._workdir = workdir
        self.store = ReleaseStore(workdir / "store")
        schema = prepared.engine.workload.schema
        self._queries = inputs.distinct_queries(
            len(schema.attributes), prepared.spec.k, QUERIES_PER_READ, seed
        )

    def publish(
        self, seed: int, clock: Optional[trace.LayerClock] = None
    ) -> Tuple[Dict[str, float], bool]:
        """Release, put and cold-read once; ``(timings and counts, correct)``."""
        prepared = self._prepared
        checkpoint = self._workdir / f"checkpoint-{seed}"
        before = _snapshot(clock)
        start = time.perf_counter()
        result = prepared.engine.release(
            prepared.source, EPSILON, rng=seed, checkpoint=checkpoint
        )
        release_id = self.store.put(result)
        service = QueryService(ReleaseStore(self.store.root, create=False))
        answers = service.query_batch(self._queries, release_id=release_id)
        end = time.perf_counter()
        layers = _since(clock, before)

        put_files, put_bytes = _tree_size(self.store.root / release_id)
        expected = QueryService(result).query_batch(self._queries)
        correct = valid_release(result, prepared) and len(answers) == len(expected) and all(
            np.array_equal(got.values, want.values)
            and got.per_cell_variance == want.per_cell_variance
            for got, want in zip(answers, expected)
        )
        shutil.rmtree(checkpoint)
        for stale in self.store.release_ids()[:-STORE_KEEP]:
            self.store.delete(stale)
        stages = {
            "op": end - start,
            "put_files": float(put_files),
            "put_bytes": float(put_bytes),
            **layers,
        }
        return stages, correct


class Runner:
    """Times iterations of one release workload."""

    def __init__(self, prepared: Prepared, workdir: Path, seed: int):
        self.prepared = prepared
        self._seed = seed
        self._iteration = 0
        self._publisher = Publisher(prepared, workdir, seed) if prepared.spec.publish else None

    def once(
        self, clock: Optional[trace.LayerClock] = None
    ) -> Tuple[Dict[str, float], bool]:
        """One timed iteration with the next noise seed; the layer deltas of
        ``clock`` cover the timed operation only, not its correctness check."""
        seed = self._seed + self._iteration
        self._iteration += 1
        if self._publisher is not None:
            return self._publisher.publish(seed, clock)
        prepared = self.prepared
        before = _snapshot(clock)
        start = time.perf_counter()
        result = prepared.engine.release(prepared.source, EPSILON, rng=seed)
        elapsed = time.perf_counter() - start
        stages = {"op": elapsed, **_since(clock, before)}
        return stages, valid_release(result, prepared)

    def _measured(
        self, clock: Optional[trace.LayerClock] = None
    ) -> Tuple[Dict[str, float], bool]:
        """:meth:`once`, plus the CPU steal share while it ran."""
        before = machine.cpu_times()
        stages, correct = self.once(clock)
        stages["steal"] = machine.steal_share(before, machine.cpu_times()) or 0.0
        return stages, correct

    def timed(
        self, seconds: float, reference: calibrate.Reference
    ) -> Tuple[List[Dict[str, float]], int]:
        """Iterate for ``seconds`` (at least :data:`MIN_ITERATIONS` times),
        each operation bracketed by runs of ``reference`` on its CPU.

        Returns per-iteration stage times, with the operation at the
        reference speed as ``"op_ref"``, and the number of failed iterations.
        """
        rows: List[Dict[str, float]] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        with machine.RotatingAffinity() as rotation:
            while time.perf_counter() < deadline or len(rows) < MIN_ITERATIONS:
                rotation.next()
                before = reference.seconds()
                stages, correct = self._measured()
                stages["reference"] = (before + reference.seconds()) / 2.0
                stages["op_ref"] = stages["op"] * calibrate.scale(stages["reference"])
                rows.append(stages)
                failed += 0 if correct else 1
        return rows, failed

    def paired(
        self, seconds: float, clock: trace.LayerClock
    ) -> Tuple[List[Dict[str, float]], List[Dict[str, float]], int]:
        """Untraced and traced iterations in pairs on the same CPU, the
        first of each pair alternating, so host drift and the order of the
        two cannot pass for tracing overhead.

        Returns ``(untraced rows, traced rows with layer deltas, failed)``.
        """
        untraced: List[Dict[str, float]] = []
        traced: List[Dict[str, float]] = []
        failed = 0
        deadline = time.perf_counter() + seconds
        with machine.RotatingAffinity() as rotation:
            while time.perf_counter() < deadline or len(traced) < MIN_ITERATIONS:
                rotation.next()
                for use_clock in (False, True) if len(traced) % 2 == 0 else (True, False):
                    if use_clock:
                        with install_layer_clock(self.prepared, clock):
                            stages, correct = self._measured(clock)
                        traced.append(stages)
                    else:
                        stages, correct = self._measured()
                        untraced.append(stages)
                    failed += 0 if correct else 1
        return untraced, traced, failed


def install_layer_clock(
    prepared: Prepared, clock: Optional[trace.LayerClock] = None
) -> trace.LayerClock:
    """Wrap the public calls of every layer a release crosses, adding to
    ``clock`` (a new one by default); leaving the clock restores them."""
    clock = clock if clock is not None else trace.LayerClock()
    clock.wrap(MarginalReleaseEngine, "release", "engine.release")
    clock.wrap(Planner, "plan", "plan.plan")
    clock.wrap(Executor, "measure", "plan.measure")
    # Units are direct marginal computations ("passes"): one per marginal
    # call, one per batch member, one per distinct Fourier mask.
    source = prepared.source
    clock.wrap(source, "marginal", "sources.count", lambda args, kwargs, result: 1.0)
    clock.wrap(
        source, "marginals_for_batches", "sources.count",
        lambda args, kwargs, result: float(sum(len(members) for _, members in args[0])),
    )
    clock.wrap(
        source, "fourier_coefficients_for_masks", "sources.count",
        lambda args, kwargs, result: float(len({int(mask) for mask in args[0]})),
    )
    clock.wrap(
        ReleaseCheckpoint, "store", "resilience.checkpoint",
        lambda args, kwargs, result: float(np.asarray(args[1], dtype=np.float64).nbytes),
    )
    clock.wrap(prepared.engine.strategy, "estimate", "strategies.estimate")
    clock.wrap(engine_module, "make_consistent", "recovery.consistency")
    clock.wrap(ReleaseStore, "put", "serving.store.put")
    clock.wrap(ReleaseStore, "__init__", "serving.store.open")
    clock.wrap(QueryService, "query_batch", "serving.query_batch")
    return clock


#: Stages of one iteration that a child layer covers; the rest is ``other``.
COVERED = (
    "plan.plan_s", "plan.measure_s", "strategies.estimate_s",
    "recovery.consistency_s", "serving.store.put_s", "serving.store.open_s",
    "serving.query_batch_s",
)


def layer_metrics(rows: List[Dict[str, float]], prepared: Prepared) -> Dict[str, float]:
    """Per-layer medians over traced iterations, plus the residual ``other``."""

    def median(key: str, scale: float = 1.0) -> float:
        return float(np.median([row.get(key, 0.0) for row in rows])) * scale

    measure_self = [
        row.get("plan.measure_s", 0.0) - row.get("sources.count_s", 0.0)
        - row.get("resilience.checkpoint_s", 0.0)
        for row in rows
    ]
    other = [row["op"] - sum(row.get(key, 0.0) for key in COVERED) for row in rows]
    return {
        "engine.release_s": median("engine.release_s"),
        "sources.count_s": median("sources.count_s"),
        "sources.count_calls": median("sources.count_calls"),
        "sources.cells_read": median("sources.count_units") * cells_per_pass(prepared),
        "plan.plan_s": median("plan.plan_s"),
        "plan.measure_self_s": float(np.median(measure_self)),
        "strategies.estimate_s": median("strategies.estimate_s"),
        "recovery.consistency_s": median("recovery.consistency_s"),
        "resilience.checkpoint_s": median("resilience.checkpoint_s"),
        "resilience.checkpoint_writes": median("resilience.checkpoint_calls"),
        "resilience.checkpoint_bytes": median("resilience.checkpoint_units"),
        "serving.store.put_s": median("serving.store.put_s"),
        "serving.store.put_bytes": median("put_bytes"),
        "serving.store.put_files": median("put_files"),
        "serving.store.open_s": median("serving.store.open_s"),
        "serving.query_batch_ms": median("serving.query_batch_s", 1e3),
        "other_s": float(np.median(other)),
    }


def traced_publications(workdir: Path, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int]:
    """Per-layer metrics of ``publish-records`` publications timed for
    ``seconds`` under the layer clock, with ``(attempted, failed)``."""
    prepared = prepare(SPECS["publish-records"], seed)
    runner = Runner(prepared, workdir / "publish", seed)
    warm = [runner.once()[1] for _ in range(STORE_KEEP)]
    _, rows, failed = runner.paired(seconds, trace.LayerClock())
    metrics = layer_metrics(rows, prepared)
    metrics["sources.resolve_s"] = prepared.resolve_s
    return metrics, len(warm) + len(rows), failed + warm.count(False)
