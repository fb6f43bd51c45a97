"""Sharding machinery and streaming ingestion for record sources.

``repro.shards`` scales the record-native backend (:mod:`repro.sources`)
beyond one core and one memory arena:

* :mod:`repro.shards.pool` holds the shared worker pools (threads by
  default, processes opt-in) and :func:`reduce_shards`, which runs a
  :class:`~repro.sources.record.RecordSource`'s per-shard cuboid marginals
  on them and sums the results in fixed shard order — integer weights make
  the sums exact, so seeded releases stay **bitwise identical** for any
  shard count and any worker count;
* :class:`StreamingSourceBuilder` ingests record batches (or chunked CSV)
  by merging sorted ``(codes, weights)`` runs, building sources for
  datasets far larger than memory without ever materialising the record
  matrix;
* :mod:`repro.shards.partition` supplies the stable SplitMix64 code hash
  and the shard/worker auto-resolution used by
  :func:`repro.sources.resolve.as_count_source`.
"""

from repro.shards.partition import (
    AUTO_SHARD_RECORDS,
    MAX_AUTO_SHARDS,
    mix_codes,
    partition_codes,
    resolve_shard_count,
    resolve_worker_count,
    shard_of_codes,
)
from repro.shards.pool import EXECUTOR_KINDS, get_pool, reduce_shards, shutdown_pools
from repro.shards.streaming import StreamingSourceBuilder

__all__ = [
    "AUTO_SHARD_RECORDS",
    "EXECUTOR_KINDS",
    "MAX_AUTO_SHARDS",
    "StreamingSourceBuilder",
    "get_pool",
    "mix_codes",
    "partition_codes",
    "reduce_shards",
    "resolve_shard_count",
    "resolve_worker_count",
    "shard_of_codes",
    "shutdown_pools",
]
