"""Tests of the benchmark's own helpers: statistics, HTTP framing and the
layer clock's wrappers.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import asyncio
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, httpload, release, stats, trace  # noqa: E402


# --------------------------------------------------------------- statistics


@pytest.mark.parametrize("size", [1, 2, 5, 10, 101])
@pytest.mark.parametrize("q", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0])
def test_percentile_matches_numpy_linear(size, q):
    values = np.random.default_rng(size).random(size).tolist()
    assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q * 100))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 1.5)


def test_summary_reports_quartiles_and_iqr():
    result = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert result == {"median": 3.0, "q1": 2.0, "q3": 4.0, "iqr": 2.0, "n": 5}


def test_segment_rates_count_work_in_the_segment_it_was_sent_in():
    events = [(0, 0.5, 1), (0, 1.5, 3), (1, 2.5, 2), (1, 2.9, 4)]
    # Segment 0 runs until its last completion (1.5 s); segment 1 to its stop.
    assert stats.segment_rates(events, [(0.0, 1.0), (2.0, 3.0)]) == [4.0 / 1.5, 6.0]


def test_segment_rates_report_idle_segments_and_reject_empty_ones():
    assert stats.segment_rates([], [(0.0, 2.0)]) == [0.0]
    with pytest.raises(ValueError):
        stats.segment_rates([], [])
    with pytest.raises(ValueError):
        stats.segment_rates([], [(1.0, 1.0)])


# ------------------------------------------------------------- HTTP framing


def test_encode_request_frames_body_with_content_length_and_keep_alive():
    body = b'{"attributes":["a00"]}'
    raw = httpload.encode_request("/v1/query", body)
    head, _, rest = raw.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    assert lines[0] == "POST /v1/query HTTP/1.1"
    headers = dict(line.split(": ", 1) for line in lines[1:])
    assert headers["Content-Length"] == str(len(body))
    assert headers["Connection"] == "keep-alive"
    assert rest == body


def _read(data: bytes, responses: int = 1):
    """Parse ``responses`` responses from ``data`` on a fresh event loop."""

    async def scenario():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return [await httpload.read_response(reader) for _ in range(responses)]

    return asyncio.run(scenario())


def _response(body: bytes, status: int = 200, extra: str = "") -> bytes:
    return (
        f"HTTP/1.1 {status} OK\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


def test_read_response_splits_back_to_back_keep_alive_responses():
    (status1, headers1, body1), (status2, _, body2) = _read(
        _response(b'{"a":1}') + _response(b"[]", 503), responses=2
    )
    assert (status1, body1) == (200, b'{"a":1}')
    assert headers1["content-length"] == "7"
    assert (status2, body2) == (503, b"[]")


@pytest.mark.parametrize(
    "raw",
    [
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 2\r\n\r\n{}",
        b"garbage\r\n\r\n",
        b"",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
    ],
)
def test_read_response_rejects_unframeable_responses(raw):
    with pytest.raises(httpload.FramingError):
        _read(raw)


def test_read_response_rejects_truncated_body():
    with pytest.raises(asyncio.IncompleteReadError):
        _read(_response(b"12345")[:-2])


def test_normalise_cached_clears_every_flag():
    body = b'[{"cached":true,"v":1},{"cached":false},{"cached":true}]'
    assert httpload.normalise_cached(body) == (
        b'[{"cached":false,"v":1},{"cached":false},{"cached":false}]'
    )


def test_closed_loop_keeps_one_request_in_flight_per_connection():
    """An echo server that fails any pipelined request: every response must
    be read before the connection's next request is written."""
    in_flight = {"max": 0, "connections": 0}

    async def handle(reader, writer):
        in_flight["connections"] += 1
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()
                return
            length = int(
                [line for line in head.split(b"\r\n") if line.startswith(b"Content-Length")][0]
                .split(b":")[1]
            )
            body = await reader.readexactly(length)
            # A pipelining client would have the next request buffered already.
            pipelined = len(reader._buffer)  # noqa: SLF001 - test-only peek
            in_flight["max"] = max(in_flight["max"], 1 + (pipelined > 0))
            await asyncio.sleep(0.001)
            writer.write(_response(body))
            await writer.drain()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        jobs_a = [httpload.Job("single", httpload.encode_request("/a", b"A"), 1, b"A")]
        jobs_b = [httpload.Job("batch", httpload.encode_request("/b", b"BB"), 2, b"XX")]
        try:
            return await httpload.closed_loop("127.0.0.1", port, [jobs_a, jobs_b], 0.2, 0.05)
        finally:
            server.close()

    samples, [(start, stop)] = asyncio.run(scenario())
    assert stop - start == pytest.approx(0.2)
    assert in_flight["connections"] == 2
    assert in_flight["max"] == 1
    singles = [s for s in samples if s.kind == "single"]
    batches = [s for s in samples if s.kind == "batch"]
    assert singles and batches
    assert all(s.ok and s.queries == 1 for s in singles)
    # The echoed body differs from the expected one: counted as failed.
    assert not any(s.ok for s in batches)
    for kind in ("single", "batch"):
        mine = sorted((s.start, s.end) for s in samples if s.kind == kind)
        assert all(end <= next_start for (_, end), (next_start, _) in zip(mine, mine[1:]))


def test_closed_loop_runs_between_segments_with_every_connection_idle():
    """``between`` runs before the first segment and after each, never
    inside one, and every sample belongs to the segment it was sent in."""
    state = {"open": 0, "calls": []}

    async def handle(reader, writer):
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, ConnectionError):
                writer.close()
                return
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            body = await reader.readexactly(length)
            state["open"] += 1
            await asyncio.sleep(0.002)
            state["open"] -= 1
            writer.write(_response(body))
            await writer.drain()

    async def scenario():
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        jobs = [httpload.Job("single", httpload.encode_request("/a", b"A"), 1, b"A")]
        try:
            return await httpload.closed_loop(
                "127.0.0.1", port, [jobs, jobs], 0.09, segments=3,
                between=lambda: state["calls"].append((time.perf_counter(), state["open"])),
            )
        finally:
            server.close()

    samples, segments = asyncio.run(scenario())
    assert len(segments) == 3 and len(state["calls"]) == 4
    assert all(in_flight == 0 for _, in_flight in state["calls"])
    marks = [when for when, _ in state["calls"]]
    for index, (start, stop) in enumerate(segments):
        assert marks[index] <= start and stop - start == pytest.approx(0.03)
        mine = [s for s in samples if s.segment == index]
        assert mine and all(start <= s.start < stop and s.end <= marks[index + 1] for s in mine)


# ------------------------------------------------------------- calibration


def test_reference_scale_uses_the_mean_of_every_run():
    reference = calibrate.Reference()
    reference.runs.extend([0.030, 0.050])
    assert reference.scale() == pytest.approx(calibrate.REFERENCE_MS / 40.0)
    assert calibrate.scale(calibrate.REFERENCE_MS / 1e3) == pytest.approx(1.0)
    before = len(reference.runs)
    assert reference.seconds() > 0 and len(reference.runs) == before + 1


def test_median_bracketed_scales_the_raw_median(monkeypatch):
    ticks = iter([0.020, 0.040, 0.020, 0.040, 0.020, 0.040])

    def seconds(self):
        self.runs.append(next(ticks))
        return self.runs[-1]

    monkeypatch.setattr(calibrate.Reference, "seconds", seconds)
    raws = iter([1.0, 3.0, 2.0])
    raw, normalised = calibrate.median_bracketed(lambda: next(raws), 3)
    assert raw == 2.0
    assert normalised == pytest.approx(2.0 * calibrate.REFERENCE_MS / 30.0)


# --------------------------------------------------------------- layer clock


class Base:
    def inherited(self, x):
        return x + 1


class Child(Base):
    def own(self, x):
        return self.nested(x) * 2

    def nested(self, x):
        return x + 10

    def boom(self):
        raise RuntimeError("boom")


def test_wrappers_restore_class_module_and_instance_attributes():
    module = types.ModuleType("fake")
    module.func = lambda x: x * 3
    original_func = module.func
    obj = Child()
    before = dict(vars(Child))
    with trace.LayerClock() as clock:
        clock.wrap(Child, "own", "layer.own")
        clock.wrap(Child, "inherited", "layer.inherited")
        clock.wrap(module, "func", "layer.func")
        clock.wrap(obj, "nested", "layer.nested")
        assert obj.own(1) == 22
        assert obj.inherited(1) == 2
        assert module.func(2) == 6
        assert "inherited" in vars(Child)
    assert dict(vars(Child)) == before
    assert "inherited" not in vars(Child)
    assert module.func is original_func
    assert "nested" not in vars(obj)
    assert clock.calls == {"layer.own": 1, "layer.inherited": 1, "layer.func": 1,
                           "layer.nested": 1}


def test_only_the_outermost_call_of_a_layer_is_timed():
    obj = Child()
    with trace.LayerClock() as clock:
        clock.wrap(Child, "own", "layer")
        clock.wrap(Child, "nested", "layer", lambda args, kwargs, result: float(args[0]))
        obj.own(5)
        obj.nested(7)
    assert clock.calls["layer"] == 2
    # Units count the outermost calls only: own() passes no units hook of
    # its own, so only the direct nested(7) call adds its argument.
    assert clock.units["layer"] == 7.0


def test_wrapper_propagates_exceptions_and_resets_depth():
    obj = Child()
    with trace.LayerClock() as clock:
        clock.wrap(Child, "boom", "layer")
        clock.wrap(Child, "nested", "layer")
        with pytest.raises(RuntimeError):
            obj.boom()
        obj.nested(1)
    assert clock.calls["layer"] == 2


def test_snapshot_delta():
    with trace.LayerClock() as clock:
        clock.wrap(Child, "nested", "layer")
        before = clock.snapshot()
        Child().nested(1)
        change = trace.delta(clock.snapshot(), before)
    assert change["layer_calls"] == 1.0
    assert change["layer_s"] >= 0.0


def _small_prepared(spec: release.ReleaseSpec) -> release.Prepared:
    from repro.core.engine import MarginalReleaseEngine
    from repro.queries import all_k_way
    from repro.sources import as_count_source

    from perfbench import inputs

    dataset = inputs.correlated_records(spec.attributes, spec.records, 3)
    workload = all_k_way(dataset.schema, spec.k)
    engine = MarginalReleaseEngine(workload, spec.strategy, consistency=spec.consistency)
    return release.Prepared(spec, spec.records, engine, as_count_source(dataset, workload), 0.0)


@pytest.mark.parametrize(
    "spec",
    [
        release.ReleaseSpec(8, 2_000, 2, "F", False, False),
        release.ReleaseSpec(8, 2_000, 2, "Q", True, True),
    ],
)
def test_layer_clock_restores_library_and_changes_no_bytes(tmp_path, spec):
    from repro.core import engine as engine_module
    from repro.plan.executor import Executor
    from repro.plan.planner import Planner
    from repro.resilience.checkpoint import ReleaseCheckpoint
    from repro.serving.service import QueryService
    from repro.serving.store import ReleaseStore

    prepared = _small_prepared(spec)
    owners = [engine_module.MarginalReleaseEngine, Planner, Executor, ReleaseCheckpoint,
              ReleaseStore, QueryService, engine_module]
    before = [dict(vars(owner)) for owner in owners]
    wrapped = {"marginal", "marginals_for_batches", "fourier_coefficients_for_masks",
               "estimate"}

    plain = release.Runner(prepared, tmp_path / "plain", 7)
    first, ok = plain.once()
    assert ok
    with release.install_layer_clock(prepared) as clock:
        traced = release.Runner(prepared, tmp_path / "traced", 7)
        row, ok = traced.once(clock)
        assert ok
        assert row["sources.count_calls"] >= 1
        assert row["plan.plan_calls"] == 1
        assert wrapped & set(vars(prepared.source))
    assert [dict(vars(owner)) for owner in owners] == before
    for instance in (prepared.source, prepared.engine.strategy):
        assert not wrapped & set(vars(instance))
    a = prepared.engine.release(prepared.source, 1.0, rng=11)
    with release.install_layer_clock(prepared):
        b = prepared.engine.release(prepared.source, 1.0, rng=11)
    assert all(np.array_equal(x, y) for x, y in zip(a.marginals, b.marginals))


# ------------------------------------------------------------ noise probes


def test_span_steal_spans_the_samples_around_the_span():
    from perfbench import machine

    samples = [(0.0, (0, 0)), (1.0, (10, 100)), (2.0, (10, 200)), (3.0, (40, 300))]
    assert machine.span_steal(samples, 0.0, 1.0) == 0.1
    assert machine.span_steal(samples, 1.0, 2.0) == 0.0
    # [0, 1.5) spans samples 0.0 .. 2.0 and [1.5, 3.0) spans 1.0 .. 3.0.
    assert machine.span_steal(samples, 0.0, 1.5) == 0.05
    assert machine.span_steal(samples, 1.5, 3.0) == 0.15
    assert machine.span_steal(samples[:2], 1.0, 2.0) is None


def test_settle_stops_at_its_cap():
    from perfbench import machine

    steps = []
    result = machine.settle(lambda: steps.append(1), 0.0)
    assert result["settle_s"] >= machine.SETTLE_STRETCH_SECONDS
    assert steps


def test_rotating_affinity_visits_every_cpu_and_restores_the_mask():
    import os

    from perfbench import machine

    original = os.sched_getaffinity(0)
    seen = []
    with machine.RotatingAffinity() as rotation:
        for _ in range(2 * len(original)):
            rotation.next()
            seen.append(os.sched_getaffinity(0))
    assert all(len(mask) == 1 for mask in seen)
    assert set().union(*seen) == original
    assert os.sched_getaffinity(0) == original
