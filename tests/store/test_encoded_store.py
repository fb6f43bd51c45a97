"""The on-disk encoded-source format: writers, manifest, open_source."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.domain import Schema
from repro.exceptions import DataError
from repro.shards.partition import shard_of_codes
from repro.sources import RecordSource
from repro.store import (
    EncodedSourceWriter,
    open_source,
    read_manifest,
    resolve_store_shards,
    write_source,
)
from repro.store.encoded import MANIFEST_FILE


@pytest.fixture()
def arrays():
    rng = np.random.default_rng(42)
    codes = rng.integers(0, 1 << 20, 5000, dtype=np.int64)
    weights = rng.integers(1, 4, 5000).astype(np.float64)
    return codes, weights


class TestResolveStoreShards:
    def test_explicit_wins(self):
        assert resolve_store_shards(10, 7) == 7

    def test_auto_scales_with_entries(self):
        assert resolve_store_shards(100) == 1
        assert resolve_store_shards((1 << 20) * 3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(DataError):
            resolve_store_shards(10, 0)


class TestWriteAndOpen:
    def test_round_trip_is_bitwise(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20, shards=4)
        source = open_source(path, verify=True)
        assert isinstance(source, RecordSource)
        assert source.backend == "mapped-record"
        reference = RecordSource(codes, weights, dimension=20)
        assert source.distinct_records == reference.distinct_records
        assert source.total == reference.total
        for mask in (0b1, 0b1010, (1 << 12) - 1, (1 << 20) - 1):
            assert np.array_equal(source.marginal(mask), reference.marginal(mask))

    def test_layout_is_the_stable_hash_partition(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20, shards=3)
        base = RecordSource(codes, weights, dimension=20)
        sharded = RecordSource(
            base.codes, base.weights, dimension=20, deduplicate=False, shards=3, workers=1
        )
        ids = shard_of_codes(base.codes, 3)
        mapped = open_source(path)
        for shard in range(3):
            disk_codes, disk_weights = mapped._shards[shard]
            assert np.array_equal(np.asarray(disk_codes), base.codes[ids == shard])
            assert np.array_equal(np.asarray(disk_weights), base.weights[ids == shard])
        for mask in (0b11, 0b100100):
            assert np.array_equal(mapped.marginal(mask), sharded.marginal(mask))

    def test_schema_round_trips(self, tmp_path):
        schema = Schema.binary(["x", "y", "z"])
        codes = np.array([0, 1, 5, 7], dtype=np.int64)
        path = write_source(tmp_path / "src", codes, dimension=3, schema=schema)
        assert open_source(path).schema == schema

    def test_overwrite_required_to_replace(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20)
        with pytest.raises(DataError, match="overwrite"):
            write_source(path, codes, weights, dimension=20)
        write_source(path, codes[:100], weights[:100], dimension=20, overwrite=True)
        assert open_source(path).distinct_records == np.unique(codes[:100]).shape[0]

    def test_manifest_reports_totals_without_touching_data(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20, shards=2)
        manifest = read_manifest(path)
        reference = RecordSource(codes, weights, dimension=20)
        assert manifest["distinct"] == reference.distinct_records
        assert manifest["total_weight"] == reference.total
        assert manifest["dimension"] == 20
        assert len(manifest["shard_files"]) == 2


class TestWriterValidation:
    def test_rejects_unsorted_chunks(self, tmp_path):
        with EncodedSourceWriter(tmp_path / "s", dimension=8, shards=1) as writer:
            writer.append(np.array([1, 5], dtype=np.int64), np.ones(2))
            with pytest.raises(DataError, match="strictly increasing"):
                writer.append(np.array([4], dtype=np.int64), np.ones(1))
            writer.append(np.array([9], dtype=np.int64), np.ones(1))

    def test_rejects_duplicates_within_chunk(self, tmp_path):
        writer = EncodedSourceWriter(tmp_path / "s", dimension=8, shards=1)
        try:
            with pytest.raises(DataError, match="strictly increasing"):
                writer.append(np.array([2, 2], dtype=np.int64), np.ones(2))
        finally:
            writer.abort()

    def test_rejects_out_of_domain_codes(self, tmp_path):
        writer = EncodedSourceWriter(tmp_path / "s", dimension=4, shards=1)
        try:
            with pytest.raises(DataError, match="domain"):
                writer.append(np.array([99], dtype=np.int64), np.ones(1))
        finally:
            writer.abort()

    def test_abort_leaves_nothing_behind(self, tmp_path):
        writer = EncodedSourceWriter(tmp_path / "s", dimension=8, shards=2)
        writer.append(np.array([3], dtype=np.int64), np.ones(1))
        writer.abort()
        assert not (tmp_path / "s").exists()
        assert list(tmp_path.iterdir()) == []


class TestManifestValidation:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DataError, match="not an encoded source"):
            read_manifest(tmp_path / "empty")

    def test_wrong_format_tag(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20)
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        manifest["format"] = "something/else"
        (path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="format"):
            open_source(path)

    def test_future_version_rejected(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20)
        manifest = json.loads((path / MANIFEST_FILE).read_text())
        manifest["format_version"] = 99
        (path / MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="version"):
            open_source(path)

    def test_missing_shard_file(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20, shards=2)
        (path / "shard-0001.codes.npy").unlink()
        with pytest.raises(DataError, match="missing"):
            open_source(path)

    def test_digest_mismatch_detected_with_verify(self, tmp_path, arrays):
        codes, weights = arrays
        path = write_source(tmp_path / "src", codes, weights, dimension=20, shards=1)
        target = path / "shard-0000.weights.npy"
        data = bytearray(target.read_bytes())
        data[-1] ^= 0xFF  # flip bits in the last weight
        target.write_bytes(bytes(data))
        open_source(path)  # lazy open does not hash
        with pytest.raises(DataError, match="digest"):
            open_source(path, verify=True)
