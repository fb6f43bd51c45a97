#!/usr/bin/env python3
"""Run one workload of the repository's benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload release-fourier --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is a separate run that times every layer from outside (wrapping the calls
into its public functions, or reading a server's ``/statsz``) and prints
the per-layer metrics.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds the run's diagnostics: machine shape, CPU steal and load average
over the timed phase, sample counts and quartiles, and release digests.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import calibrate, machine, release, serve, stats, trace  # noqa: E402

#: ``publish-records`` runs but is not in BENCHMARK.json (see release.py).
WORKLOADS = ("release-fourier", "serve-hotcold", "publish-records")

#: Fresh process starts behind each ``setup_s`` and ``setup.import_s``.
FRESH_STARTS = 7

#: Longest wait for a quiet host before timing anyway (see machine.settle).
SETTLE_CAP_SECONDS = 15.0

#: Release digests of the fixed check (records of ``CHECK_DATA_SEED``, noise
#: seeds ``CHECK_SEEDS``); a program that releases other bytes is incorrect.
EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

END_TO_END_UNITS = {
    "setup_s": "s", "op_p50_ms": "ms", "answers_per_s": "1/s",
    "peak_rss_mib": "MiB", "answer_sq_err": "count2",
}
PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "sources.resolve_s": "s",
    "sources.count_s": "s",
    "sources.count_calls": "count",
    "sources.cells_read": "count",
    "plan.plan_s": "s",
    "plan.measure_self_s": "s",
    "strategies.estimate_s": "s",
    "recovery.consistency_s": "s",
    "resilience.checkpoint_s": "s",
    "resilience.checkpoint_writes": "count",
    "resilience.checkpoint_bytes": "B",
    "engine.release_s": "s",
    "serving.store.put_s": "s",
    "serving.store.put_bytes": "B",
    "serving.store.put_files": "count",
    "serving.store.open_s": "s",
    "serving.query_batch_ms": "ms",
    "serving.query_batch_span_ms": "ms",
    "serving.batch_aggregate_ms": "ms",
    "serving.cache_hit_ratio": "ratio",
    "serving.route_memo_hit_ratio": "ratio",
    "serving.plan_cache_hit_ratio": "ratio",
    "serving.groups_per_query": "ratio",
    "serving.single_p50_ms": "ms",
    "serving.single_p90_ms": "ms",
    "serving.batch_p50_ms": "ms",
    "serving.batch_p90_ms": "ms",
    "net.request_ms": "ms",
    "net.overhead_ms": "ms",
    "net.mean_flush_size": "count",
    "net.flushes": "count",
    "net.shed": "count",
    "obs.overhead_ratio": "ratio",
    "other_s": "s",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="build the workload's inputs, print 'ready' and exit (times set-up)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fresh_start_seconds(command: List[str]) -> float:
    """Wall time from spawning ``command`` to its ``ready`` line (or exit)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
    )
    try:
        assert process.stdout is not None
        for line in process.stdout:
            if line.strip() == "ready":
                break
        elapsed = time.perf_counter() - start
        process.stdout.read()
    finally:
        if process.wait(timeout=120) != 0:
            raise RuntimeError(f"{command} exited with {process.returncode}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> Tuple[float, float]:
    """Median of fresh starts (import, inputs, engine and source), raw and
    at the reference speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe"]
    return calibrate.median_bracketed(lambda: _fresh_start_seconds(command), FRESH_STARTS)


def import_seconds() -> float:
    """Median of fresh ``import repro`` processes."""
    command = [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
               "import repro"]
    return statistics.median(_fresh_start_seconds(command) for _ in range(FRESH_STARTS))


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op_summary(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return stats.summary([row["op"] * 1e3 for row in rows])


def run_release(args: argparse.Namespace, workdir: Path) -> Tuple[dict, dict]:
    spec = release.SPECS[args.workload]
    setup_raw_s, setup_s = (
        setup_seconds(args.workload, args.seed) if not args.trace else (None, None)
    )
    import_s = import_seconds() if args.trace else None
    prepared = release.prepare(spec, args.seed)
    check_source, exact = release.check_inputs(spec)
    expected = EXPECTED[args.workload]["sha256"]
    checks: List[Tuple[float, str]] = [
        release.digest_check(prepared, check_source, exact, workdir)
    ]
    runner = release.Runner(prepared, workdir, args.seed)
    # Publications first fill the store to its steady size.
    warm = [runner.once()[1] for _ in range(release.STORE_KEEP if spec.publish else 1)]
    settled = machine.settle(lambda: warm.append(runner.once()[1]), SETTLE_CAP_SECONDS)
    noise = machine.NoiseProbe()
    noise.start()
    if args.trace:
        clock = trace.LayerClock()
        with release.install_layer_clock(prepared, clock):
            checks.append(release.digest_check(prepared, check_source, exact, workdir))
        rows, traced, failed = runner.paired(args.seconds, clock)
    else:
        rows, failed = runner.timed(args.seconds, calibrate.Reference())
    noise.stop()
    checks.append(release.digest_check(prepared, check_source, exact, workdir))
    failed += warm.count(False)
    failed += sum(len(release.CHECK_SEEDS) for _, digest in checks if digest != expected)
    attempted = len(warm) + len(rows) + len(checks) * len(release.CHECK_SEEDS)
    diagnostics = {
        "noise": {**noise.to_dict(), **settled},
        "op_ms": _op_summary(rows),
        "op_steal": [(round(row["op"] * 1e3, 3), round(row["steal"], 4)) for row in rows],
        "check_sha256": sorted({digest for _, digest in checks}),
        "check_sq_err": sorted({sq_err for sq_err, _ in checks}),
    }
    if args.trace:
        attempted += len(traced)
        metrics = release.layer_metrics(traced, prepared)
        traced_op = statistics.median(row["op"] for row in traced)
        metrics["obs.overhead_ratio"] = traced_op / statistics.median(row["op"] for row in rows)
        metrics["sources.resolve_s"] = prepared.resolve_s
        metrics["setup.import_s"] = import_s
        diagnostics["traced_op_ms"] = _op_summary(traced)
        covered = sum(
            metrics[key] for key in (
                "plan.plan_s", "plan.measure_self_s", "sources.count_s",
                "resilience.checkpoint_s", "strategies.estimate_s",
                "recovery.consistency_s", "serving.store.put_s", "serving.store.open_s",
                "other_s",
            )
        ) + metrics["serving.query_batch_ms"] / 1e3
        diagnostics["layers_over_untraced_op"] = covered / statistics.median(
            row["op"] for row in rows
        )
    else:
        diagnostics["op_ref_ms"] = stats.summary([row["op_ref"] * 1e3 for row in rows])
        diagnostics["reference_ms"] = stats.summary([row["reference"] * 1e3 for row in rows])
        diagnostics["setup_raw_s"] = setup_raw_s
        marginals = len(prepared.engine.workload)
        op_ref = statistics.median(row["op_ref"] for row in rows)
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": op_ref * 1e3,
            "answers_per_s": marginals / op_ref,
            "peak_rss_mib": _peak_rss_mib(),
            "answer_sq_err": checks[0][0],
        }
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, diagnostics


def run_serve(args: argparse.Namespace, workdir: Path) -> Tuple[dict, dict]:
    import_s = import_seconds() if args.trace else None
    store, exact = serve.build_store(workdir)
    setup_raw_s, setup_s = (
        serve.median_start_seconds(ROOT, store, FRESH_STARTS)
        if not args.trace else (None, None)
    )
    streams = serve.make_streams(store, args.seed)
    noise = machine.NoiseProbe()
    noise.start()
    seconds = args.seconds / 2 if args.trace else args.seconds
    load, info = serve.run_server(
        ROOT, store, streams, exact, seconds, SETTLE_CAP_SECONDS, obs=False
    )
    if args.trace:
        traced, traced_info = serve.run_server(
            ROOT, store, streams, exact, seconds, SETTLE_CAP_SECONDS, obs=True
        )
    noise.stop()
    everything = serve.latencies_ms(load)
    diagnostics = {
        "noise": {**noise.to_dict(), "settle_s": info["settle_s"],
                  "settle_steal": info["settle_steal"]},
        "request_ms": stats.summary(everything),
        "single_ms": stats.summary(serve.latencies_ms(load, "single")),
        "batch_ms": stats.summary(serve.latencies_ms(load, "batch")),
        "segment_qps": serve.segment_qps(load),
        "segment_steal": serve.segment_steal(load),
        "reference_ms": stats.summary([t * 1e3 for t in load.references]),
        "answer_sq_err": info["sq_err"],
    }
    attempted, failed = info["attempted"], info["failed"]
    if not args.trace:
        diagnostics["setup_raw_s"] = setup_raw_s
        diagnostics["scale"] = load.scale()
        metrics = {
            "setup_s": setup_s,
            "op_p50_ms": stats.percentile(everything, 0.5) * load.scale(),
            "answers_per_s": statistics.median(serve.segment_qps(load)) / load.scale(),
            "peak_rss_mib": info["peak_rss_mib"],
            "answer_sq_err": info["sq_err"],
        }
        return {"attempted": attempted, "failed": failed, "metrics": metrics}, diagnostics

    published, published_attempted, published_failed = release.traced_publications(
        workdir, args.seed, seconds
    )
    attempted += traced_info["attempted"] + published_attempted
    failed += traced_info["failed"] + published_failed
    failed += traced_info["sq_err"] != info["sq_err"]
    single = serve.latencies_ms(load, "single")
    batch = serve.latencies_ms(load, "batch")
    replay_ms = serve.replay_batches_ms(store, streams)
    spans = serve.span_means_ms(traced.statsz_after)
    traced_all = serve.latencies_ms(traced)
    metrics = {
        # The release, checkpoint and store-write layers, from publications.
        **{key: value for key, value in published.items()
           if key not in ("serving.query_batch_ms", "other_s")},
        "setup.import_s": import_s,
        "serving.query_batch_ms": replay_ms,
        "serving.single_p50_ms": stats.percentile(single, 0.5),
        "serving.single_p90_ms": stats.percentile(single, 0.9),
        "serving.batch_p50_ms": stats.percentile(batch, 0.5),
        "serving.batch_p90_ms": stats.percentile(batch, 0.9),
        "net.overhead_ms": stats.percentile(batch, 0.5) - replay_ms,
        "obs.overhead_ratio": stats.percentile(traced_all, 0.5)
        / stats.percentile(everything, 0.5),
        "other_s": (statistics.mean(traced_all) - spans["net.request_ms"]) / 1e3,
        **serve.statsz_layers(load.statsz_before, load.statsz_after),
        **spans,
    }
    diagnostics["traced_request_ms"] = stats.summary(traced_all)
    return {"attempted": attempted, "failed": failed, "metrics": metrics}, diagnostics


def setup_probe(args: argparse.Namespace) -> None:
    """The set-up a fresh start pays before its first timed operation."""
    if args.workload in release.SPECS:
        release.prepare(release.SPECS[args.workload], args.seed)
    print("ready", flush=True)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        runner = run_serve if args.workload == "serve-hotcold" else run_release
        outcome, diagnostics = runner(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still has its directory there
            pass
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    measured = outcome["metrics"]
    metrics = {
        name: {"value": float(measured.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    diagnostics["machine"] = machine.machine_shape(ROOT)
    diagnostics.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print(json.dumps({"diagnostics": diagnostics}, sort_keys=True))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
