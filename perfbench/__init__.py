"""The repository's benchmark: three workloads, untraced end-to-end metrics
and a separate traced run with the per-layer breakdown.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``BENCHMARK.json`` lists the workloads and metrics.
"""
