"""The ``serve-hotcold`` workload: a ``repro serve`` subprocess under a
closed-loop mix of hot single queries and cold batch queries.

Connection A sends single ``POST /v1/query`` requests drawn from a small
hot set; connection B sends ``POST /v1/query/batch`` bodies of distinct
slice queries whose working set is larger than the server's answer cache
and route memo, while the resolved plans still fit.  The micro-batch
window couples the two sides, so a change to caching or batching shows on
one against the other.  All the time goes to the HTTP edge and serving.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import release_marginals
from repro.net.protocol import answer_payload, encode_batch, encode_canonical, parse_query_payload
from repro.queries import all_k_way
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore

from perfbench import calibrate, httpload, inputs, machine, stats

ATTRIBUTES = 24
RECORDS = 100_000
K = 3
EPSILON = 1.0
#: Noise seed of the served release (fixed, with the check data, so the
#: served answers' error repeats exactly across runs).
RELEASE_SEED = 0
RELEASE_ID = "bench"

HOT_SET = 64
HOT_STREAM = 4096
BATCH_SIZE = 50
BATCH_BODIES = 300
#: Batch bodies checked byte for byte against the lockstep reference.
VERIFIED_BATCHES = 20
WARMUP_SECONDS = 1.0
#: Timed segments of the load, with the reference computation run on the
#: server's CPU before the first and after each (see calibrate.py).
SEGMENTS = 10
#: Reference runs in each pause between segments.
REFERENCE_RUNS = 3
#: Share of a served request's time that follows the reference speed; the
#: rest (the 1 ms micro-batch window, loopback wake-ups, the client) does
#: not.  Fitted on three sets of five to ten runs on the host the bounds
#: were set on: scaling the whole time over-corrected, and 0.5 gave the
#: steadiest figures in every set.
CPU_SHARE = 0.5
CPU_SAMPLE_SECONDS = 0.25
SERVER_START_TIMEOUT = 60.0

_CPUS = sorted(os.sched_getaffinity(0))
#: The server runs on the last CPU and the load client on the first, so
#: neither is moved between CPUs in the middle of a request and reference
#: runs on the server's CPU measure the CPU that did the serving.
SERVER_CPU, CLIENT_CPU = _CPUS[-1], _CPUS[0]

_LISTENING = re.compile(r"serving : http://([^:\s]+):(\d+)")


def build_store(root: Path) -> Tuple[Path, Dict[Tuple[str, ...], np.ndarray]]:
    """Release every 3-way marginal of the check data into a new store.

    Returns the store path and the exact marginals by attribute names.
    """
    dataset = inputs.correlated_records(ATTRIBUTES, RECORDS, inputs.CHECK_DATA_SEED)
    workload = all_k_way(dataset.schema, K)
    # 2**24 cells would fit the dense limit; record-native counting builds
    # the 2024 small cuboids without a 128 MiB cube.
    release = release_marginals(
        dataset, workload, budget=EPSILON, strategy="Q", consistency=False,
        backend="record", rng=RELEASE_SEED,
    )
    path = root / "serve-store"
    ReleaseStore(path).put(release, release_id=RELEASE_ID)
    source = dataset.as_source(backend="record")
    exact = {
        dataset.schema.attributes_of_mask(mask): source.marginal(mask)
        for mask in workload.masks
    }
    return path, exact


class Server:
    """A ``python -m repro serve`` subprocess on a free loopback port,
    running on :data:`SERVER_CPU`."""

    def __init__(self, root: Path, store: Path, *, obs: bool):
        command = [
            sys.executable, "-m", "repro", "serve", "--store", str(store),
            "--port", "0",
        ]
        if not obs:
            command.append("--no-obs")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, {SERVER_CPU}),
        )
        try:
            self.host, self.port = self._wait_listening()
        except BaseException:
            self.stop()
            raise
        self.start_seconds = time.perf_counter() - started

    def _wait_listening(self) -> Tuple[str, int]:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        assert self.process.stderr is not None
        while time.monotonic() < deadline:
            line = self.process.stderr.readline()
            if not line:
                break
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError(f"server did not start listening (exit {self.process.poll()})")

    def peak_rss_mib(self) -> float:
        """The server's ``VmHWM``: its peak resident set so far."""
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stderr is not None:
            self.process.stderr.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()


def median_start_seconds(root: Path, store: Path, starts: int) -> Tuple[float, float]:
    """Median of fresh server starts, spawn to listening, raw and at the
    reference speed."""

    def start() -> float:
        with Server(root, store, obs=False) as server:
            return server.start_seconds

    return calibrate.median_bracketed(start, starts)


@dataclass
class Streams:
    """The two request streams, their lockstep checks and the error queries."""

    hot: List[httpload.Job]
    batches: List[httpload.Job]
    batch_queries: List[List[Dict[str, object]]]
    hot_queries: List[Dict[str, object]]


def _batch_job(queries: List[Dict[str, object]], expected: Optional[bytes]) -> httpload.Job:
    body = json.dumps(queries).encode()
    return httpload.Job("batch", httpload.encode_request("/v1/query/batch", body),
                        len(queries), expected)


def _requests(queries: Sequence[Dict[str, object]]) -> list:
    return [parse_query_payload(query)[0] for query in queries]


def make_streams(store: Path, seed: int) -> Streams:
    """Jobs of both connections, each with its expected (uncached) body."""
    reference = QueryService(ReleaseStore(store, create=False), cache_size=0)
    hot_queries = inputs.distinct_queries(ATTRIBUTES, K, HOT_SET, seed)
    hot_bodies = [
        encode_canonical(answer_payload(reference.query_batch(_requests([query]))[0]))
        for query in hot_queries
    ]
    order = np.random.default_rng([seed, 3]).integers(len(hot_queries), size=HOT_STREAM)
    hot = [
        httpload.Job(
            "single",
            httpload.encode_request("/v1/query", json.dumps(hot_queries[i]).encode()),
            1, hot_bodies[i],
        )
        for i in order.tolist()
    ]
    batch_queries = inputs.slice_batches(ATTRIBUTES, BATCH_BODIES, BATCH_SIZE, seed)
    batches = []
    for queries in batch_queries:
        payloads = [answer_payload(a) for a in reference.query_batch(_requests(queries))]
        batches.append(_batch_job(queries, encode_batch(payloads, False)[0]))
    return Streams(hot, batches, batch_queries, hot_queries)


async def _verify(
    host: str, port: int, store: Path, streams: Streams,
    exact: Dict[Tuple[str, ...], np.ndarray],
) -> Tuple[int, int, float]:
    """Byte-for-byte check of HTTP bodies against a lockstep in-process
    service (same call sequence, so even the ``cached`` flags agree), then
    the squared error of every served full 3-way marginal.

    Returns ``(attempted, failed, mean squared error)``.
    """
    reference = QueryService(ReleaseStore(store, create=False))
    connection = await httpload.Connection.open(host, port)
    attempted = failed = 0
    squared, cells = 0.0, 0
    try:
        for query in streams.hot_queries:
            status, _, body = await connection.send(
                httpload.encode_request("/v1/query", json.dumps(query).encode())
            )
            answer = reference.query_batch(_requests([query]))[0]
            attempted += 1
            failed += status != 200 or body != encode_canonical(answer_payload(answer))
        full = inputs.full_marginal_queries(ATTRIBUTES, K)
        chunks = [(full[i:i + BATCH_SIZE], True) for i in range(0, len(full), BATCH_SIZE)]
        slices = [(queries, False) for queries in streams.batch_queries[:VERIFIED_BATCHES]]
        for queries, full_marginals in slices + chunks:
            status, _, body = await connection.send(_batch_job(queries, None).raw)
            answers = reference.query_batch(_requests(queries))
            expected = encode_batch([answer_payload(a) for a in answers], False)[0]
            attempted += 1
            failed += status != 200 or body != expected
            if status == 200 and full_marginals:
                for query, served in zip(queries, json.loads(body)):
                    truth = exact[tuple(query["attributes"])]
                    squared += float(np.sum((np.asarray(served["values"]) - truth) ** 2))
                    cells += truth.size
    finally:
        await connection.close()
    return attempted, failed, squared / max(cells, 1)


async def _get_json(host: str, port: int, path: str) -> dict:
    connection = await httpload.Connection.open(host, port)
    try:
        status, _, body = await connection.send(httpload.encode_get(path))
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return json.loads(body)


@dataclass
class LoadResult:
    samples: List[httpload.Sample]
    #: ``(start, stop)`` of every timed segment.
    segments: List[Tuple[float, float]]
    #: Seconds of every reference run on the server's CPU, before the
    #: first segment and after each.
    references: List[float]
    statsz_before: dict
    statsz_after: dict
    #: ``(time, machine.cpu_times())`` taken through the load.
    cpu: List[tuple]

    def scale(self) -> float:
        """Factor that turns the load's times into times at the reference
        speed (see :meth:`calibrate.Reference.scale`), applied to the
        :data:`CPU_SHARE` of them that follows the CPU."""
        full = calibrate.scale(statistics.mean(self.references))
        return 1.0 - CPU_SHARE + CPU_SHARE * full


async def _sample_cpu(cpu: List[tuple], done: asyncio.Event) -> None:
    while True:
        cpu.append((time.perf_counter(), machine.cpu_times()))
        if done.is_set():
            return
        try:
            await asyncio.wait_for(done.wait(), CPU_SAMPLE_SECONDS)
        except asyncio.TimeoutError:
            pass


async def _load(host: str, port: int, streams: Streams, seconds: float) -> LoadResult:
    before = await _get_json(host, port, "/statsz")
    cpu: List[tuple] = []
    reference = calibrate.Reference()

    def calibrate_server_cpu() -> None:
        """Reference runs on the server's CPU (idle in the pause), then this
        thread goes back to its own CPU."""
        os.sched_setaffinity(0, {SERVER_CPU})
        try:
            for _ in range(REFERENCE_RUNS):
                reference.seconds()
        finally:
            os.sched_setaffinity(0, {CLIENT_CPU})

    done = asyncio.Event()
    sampler = asyncio.create_task(_sample_cpu(cpu, done))
    try:
        samples, segments = await httpload.closed_loop(
            host, port, [streams.hot, streams.batches], seconds, WARMUP_SECONDS,
            segments=SEGMENTS, between=calibrate_server_cpu,
        )
    finally:
        done.set()
        await sampler
    after = await _get_json(host, port, "/statsz")
    return LoadResult(samples, segments, reference.runs, before, after, cpu)


def run_server(
    root: Path, store: Path, streams: Streams, exact: Dict[Tuple[str, ...], np.ndarray],
    seconds: float, settle_cap: float, *, obs: bool,
) -> Tuple[LoadResult, Dict[str, float]]:
    """Start a server, verify it, wait for a quiet host under the same load,
    load it for ``seconds`` and stop it.  The server runs on
    :data:`SERVER_CPU` and this thread on :data:`CLIENT_CPU` meanwhile.

    The second value holds ``attempted``, ``failed``, ``sq_err``, the
    server's ``peak_rss_mib`` and the settle diagnostics.
    """
    warm: List[httpload.Sample] = []

    def burst(host: str, port: int) -> None:
        samples, _ = asyncio.run(httpload.closed_loop(
            host, port, [streams.hot, streams.batches], machine.SETTLE_STRETCH_SECONDS / 4
        ))
        warm.extend(samples)

    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        with Server(root, store, obs=obs) as server:
            attempted, failed, sq_err = asyncio.run(
                _verify(server.host, server.port, store, streams, exact)
            )
            settled = machine.settle(lambda: burst(server.host, server.port), settle_cap)
            load = asyncio.run(_load(server.host, server.port, streams, seconds))
            peak = server.peak_rss_mib()
    finally:
        os.sched_setaffinity(0, affinity)
    attempted += len(warm) + len(load.samples)
    failed += sum(not sample.ok for sample in warm + load.samples)
    return load, {"attempted": attempted, "failed": failed, "sq_err": sq_err,
                  "peak_rss_mib": peak, **settled}


def latencies_ms(load: LoadResult, kind: Optional[str] = None) -> List[float]:
    return [
        (sample.end - sample.start) * 1e3
        for sample in load.samples
        if kind is None or sample.kind == kind
    ]


def segment_qps(load: LoadResult) -> List[float]:
    """Queries answered per second in each timed segment."""
    events = [(s.segment, s.end, s.queries) for s in load.samples if s.ok]
    return stats.segment_rates(events, load.segments)


def segment_steal(load: LoadResult) -> List[Optional[float]]:
    return [machine.span_steal(load.cpu, start, stop) for start, stop in load.segments]


def replay_batches_ms(store: Path, streams: Streams) -> float:
    """Median in-process ``query_batch`` time over connection B's stream,
    on a service warmed by one pass of the same stream."""
    service = QueryService(ReleaseStore(store, create=False))
    requests = [_requests(queries) for queries in streams.batch_queries]
    for batch in requests:
        service.query_batch(batch)
    times = []
    for batch in requests:
        start = time.perf_counter()
        service.query_batch(batch)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def statsz_layers(before: dict, after: dict) -> Dict[str, float]:
    """Serving and edge counters of the timed phase, from two ``/statsz``."""
    old, new = before["server"], after["server"]

    def change(*path: str) -> float:
        a, b = old, new
        for key in path:
            a, b = a[key], b[key]
        return float(b) - float(a)

    def hit_ratio(name: str) -> float:
        hits = change("service", name, "hits")
        return _ratio(hits, hits + change("service", name, "misses"))

    flushes = change("batching", "flushes")
    return {
        "serving.cache_hit_ratio": hit_ratio("cache"),
        "serving.route_memo_hit_ratio": hit_ratio("request_index"),
        "serving.plan_cache_hit_ratio": hit_ratio("plan_cache"),
        "serving.groups_per_query": _ratio(
            change("service", "batch_groups"), change("service", "batched_requests")
        ),
        "net.flushes": flushes,
        "net.mean_flush_size": _ratio(change("batching", "coalesced_requests"), flushes),
        "net.shed": change("admission", "shed"),
    }


def span_means_ms(statsz: dict) -> Dict[str, float]:
    """Mean duration (ms) of the server's own spans, from an obs-on ``/statsz``."""
    durations = statsz.get("span_durations", {})

    def mean(name: str) -> float:
        return float(durations.get(name, {}).get("mean", 0.0)) * 1e3

    return {
        "net.request_ms": mean("net.request"),
        "serving.query_batch_span_ms": mean("serving.query_batch"),
        "serving.batch_aggregate_ms": mean("serving.batch.aggregate"),
    }
