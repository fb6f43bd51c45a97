"""Out-of-core, zero-copy storage tier.

``repro.store`` keeps datasets and releases on disk in formats the rest of
the pipeline can consume **without copying them back into memory**:

* :mod:`repro.store.encoded` — the encoded-source directory format (raw
  ``.npy`` shard files laid out by the stable-hash partition, plus a
  digest-pinned JSON manifest) with streaming writers and
  :func:`~repro.store.encoded.open_source`, which maps the files into a
  :class:`~repro.sources.record.RecordSource` whose kernels run on
  ``np.memmap`` views with per-shard page release (flat RSS on any dataset
  size);
* :mod:`repro.store.spill` — disk-spilled sorted runs and their
  bounded-memory k-way merge, used by
  :class:`~repro.shards.streaming.StreamingSourceBuilder` under a
  ``memory_budget``;
* :mod:`repro.store.layout` — shared low-level pieces (streaming ``.npy``
  writer, sha256 digests, ``memory_budget`` parsing, atomic directory
  publishes, madvise-based page release).

Everything stays bitwise identical to the in-memory backends: the on-disk
layout *is* the in-memory shard partition, and integer tuple counts sum
exactly in float64, so seeded releases reproduce to the byte no matter
which tier the data lives in.
"""

from repro.store.encoded import (
    SOURCE_FORMAT,
    SOURCE_FORMAT_VERSION,
    EncodedSourceWriter,
    open_source,
    read_manifest,
    resolve_store_shards,
    write_source,
)
from repro.store.layout import (
    NpyStreamWriter,
    parse_memory_budget,
    release_pages,
    sha256_of_array,
)
from repro.store.spill import (
    RunSpiller,
    merge_sorted_runs,
    spill_threshold_entries,
)

__all__ = [
    "SOURCE_FORMAT",
    "SOURCE_FORMAT_VERSION",
    "EncodedSourceWriter",
    "NpyStreamWriter",
    "RunSpiller",
    "merge_sorted_runs",
    "open_source",
    "parse_memory_budget",
    "read_manifest",
    "release_pages",
    "resolve_store_shards",
    "sha256_of_array",
    "spill_threshold_entries",
    "write_source",
]
