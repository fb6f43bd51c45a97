"""Array-native Fourier kernel layer.

The package gathers the performance-critical Walsh–Hadamard machinery in one
place so every Fourier hot path — coefficient measurement, the closed-form
consistency projection, marginal reconstruction, recovery-matrix assembly —
runs on batched NumPy kernels instead of per-cell Python loops:

* :mod:`repro.fourier.kernels` — vectorized in-place butterfly
  (:func:`fwht_inplace`), the orthonormal transform (:func:`fwht` /
  :func:`inverse_fwht`) and the batched same-order transform
  (:func:`fwht_batch`);
* :mod:`repro.fourier.index` — :class:`WorkloadFourierIndex`, the cached
  per-workload gather/scatter maps between compact marginal slots and the
  global coefficient array (including each coefficient's slot in the
  marginal over the union of the query masks, from which
  :meth:`repro.sources.base.CountSource.fourier_coefficients_for_masks`
  gathers the whole support after one butterfly), plus the vectorized
  bit-projection helpers (:func:`project_indices`, :func:`expand_indices`,
  :func:`submasks_array`).

All kernels are bitwise identical to the historical scalar implementations
(same pairwise add/sub associativity), so seeded releases reproduce exactly.
"""

from repro.fourier.index import (
    WorkloadFourierIndex,
    expand_indices,
    project_indices,
    submasks_array,
)
from repro.fourier.kernels import fwht, fwht_batch, fwht_inplace, inverse_fwht

__all__ = [
    "WorkloadFourierIndex",
    "expand_indices",
    "project_indices",
    "submasks_array",
    "fwht",
    "fwht_batch",
    "fwht_inplace",
    "inverse_fwht",
]
