"""The dense backend: a :class:`CountSource` over the full ``2**d`` vector."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.domain.contingency import marginal_from_cube
from repro.sources.base import CountSource, exact_integer_counts, validate_count_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.contingency import ContingencyTable
    from repro.domain.schema import Schema


class DenseCubeSource(CountSource):
    """Wrap a dense count vector (today's representation) as a count source.

    Marginals run on the cached ``(2,) * d`` cube view exactly like
    :class:`~repro.domain.contingency.ContingencyTable` — bit for bit the
    pre-source behaviour.

    Parameters
    ----------
    vector:
        Count vector of length ``2**d`` (converted to float64, not copied
        when already float64).
    dimension:
        Number of binary attributes ``d`` (inferred from the vector length
        when omitted).
    schema:
        Optional schema carried along for introspection.
    """

    backend = "dense"

    def __init__(
        self,
        vector: np.ndarray,
        dimension: Optional[int] = None,
        *,
        schema: Optional["Schema"] = None,
    ):
        array, d = validate_count_vector(vector, dimension)
        self._vector = array
        self._d = d
        self._schema = schema
        self._cube: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @classmethod
    def from_table(cls, table: "ContingencyTable") -> "DenseCubeSource":
        """Wrap a contingency table (shares its count memory)."""
        return cls(table.counts, table.dimension, schema=table.schema)

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return self._d

    @property
    def schema(self) -> Optional["Schema"]:
        """The schema the counts are defined over, when known."""
        return self._schema

    @property
    def total(self) -> float:
        return float(self._vector.sum())

    @property
    def cube(self) -> np.ndarray:
        """The counts reshaped to a ``(2,) * d`` cube (cached view)."""
        if self._cube is None:
            self._cube = self._vector.reshape((2,) * self._d)
        return self._cube

    def __repr__(self) -> str:
        return f"DenseCubeSource(d={self._d}, total={self.total:g})"

    def describe_layout(self) -> str:
        return f"one dense 2**{self._d}-cell count vector"

    # ------------------------------------------------------------------ #
    def marginal(self, mask: int) -> np.ndarray:
        mask = self.check_mask(mask)
        return marginal_from_cube(self.cube, mask, self._d)

    def dense_vector(self) -> np.ndarray:
        return self._vector

    def has_exact_integer_counts(self) -> bool:
        return exact_integer_counts([self._vector])
