"""Seeded inputs: correlated binary records and HTTP query streams.

The program sees only what these functions generate; the same seed gives
the same records and the same queries.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List

import numpy as np

from repro.domain import Attribute, Dataset, Schema

#: Seed of the records behind every accuracy and digest check.  It is fixed,
#: not the run's seed, so ``answer_sq_err`` and the release digests repeat
#: exactly across runs.
CHECK_DATA_SEED = 20130408

#: Latent classes of the record model and their population shares.
CLASS_WEIGHTS = (0.5, 0.25, 0.15, 0.1)


def binary_schema(attributes: int) -> Schema:
    return Schema([Attribute(f"a{index:02d}", 2) for index in range(attributes)])


def correlated_records(attributes: int, records: int, seed: int) -> Dataset:
    """Binary records from a latent-class model: each record draws a hidden
    class, then every attribute independently with a class-specific
    probability, which correlates the attributes the way survey data is."""
    generator = np.random.default_rng(seed)
    classes = generator.choice(len(CLASS_WEIGHTS), size=records, p=CLASS_WEIGHTS)
    probabilities = generator.uniform(0.05, 0.95, size=(len(CLASS_WEIGHTS), attributes))
    values = (generator.random((records, attributes)) < probabilities[classes]).astype(np.int64)
    return Dataset(binary_schema(attributes), values, name=f"correlated-{seed}")


def _slice_query(names: List[str], free: int, generator: np.random.Generator) -> Dict[str, object]:
    """A query on the cuboid of ``names``: the first ``free`` of them stay
    free, the rest are pinned to random values."""
    if free == len(names):
        return {"attributes": list(names)}
    return {
        "attributes": names[:free],
        "where": {name: int(generator.integers(2)) for name in names[free:]},
    }


def distinct_queries(
    attributes: int, width: int, count: int, seed: int
) -> List[Dict[str, object]]:
    """``count`` distinct marginal and slice queries on ``width``-way cuboids."""
    generator = np.random.default_rng([seed, 1])
    names = [f"a{index:02d}" for index in range(attributes)]
    chosen: Dict[bytes, Dict[str, object]] = {}
    while len(chosen) < count:
        cuboid = sorted(generator.choice(names, size=width, replace=False).tolist())
        free = int(generator.integers(1, width + 1))
        query = _slice_query(cuboid, free, generator)
        chosen.setdefault(json.dumps(query, sort_keys=True).encode(), query)
    return list(chosen.values())


def slice_batches(
    attributes: int, batches: int, batch_size: int, seed: int
) -> List[List[Dict[str, object]]]:
    """``batches`` bodies of ``batch_size`` distinct slice queries each,
    drawn from every 3-way cuboid with one or two attributes pinned."""
    generator = np.random.default_rng([seed, 2])
    names = [f"a{index:02d}" for index in range(attributes)]
    bodies = []
    for _ in range(batches):
        body: Dict[bytes, Dict[str, object]] = {}
        while len(body) < batch_size:
            cuboid = generator.choice(names, size=3, replace=False).tolist()
            query = _slice_query(cuboid, int(generator.integers(1, 3)), generator)
            body.setdefault(json.dumps(query, sort_keys=True).encode(), query)
        bodies.append(list(body.values()))
    return bodies


def full_marginal_queries(attributes: int, k: int) -> List[Dict[str, object]]:
    """Every ``k``-way marginal, as queries without predicates."""
    names = [f"a{index:02d}" for index in range(attributes)]
    return [{"attributes": list(combo)} for combo in itertools.combinations(names, k)]
