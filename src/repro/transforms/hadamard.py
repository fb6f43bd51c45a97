"""Walsh–Hadamard (Fourier) transform over the Boolean hypercube.

The Fourier basis of Section 4.1 is ``f^alpha_beta = 2**(-d/2) * (-1)**<alpha, beta>``.
The coefficient of ``x`` at ``alpha`` is ``<f^alpha, x>``; the full coefficient
vector is the orthonormal Walsh–Hadamard transform of ``x``.

The heavy lifting lives in :mod:`repro.fourier`: the reshape-based vectorized
butterfly (:func:`repro.fourier.fwht_inplace`, ``O(log n)`` NumPy ops, bitwise
identical to the classic scalar block loop) and the batched / indexed machinery
of :class:`repro.fourier.WorkloadFourierIndex`.  The helpers here keep the
historical dict-based API as thin wrappers over those kernels:

* a marginal ``C^alpha x`` depends only on the ``2**||alpha||`` coefficients at
  masks ``beta ⪯ alpha`` (Theorem 4.1(2)), and those coefficients can be read
  off a *small* Hadamard transform of the exact marginal itself
  (:func:`fourier_coefficients_for_mask`);
* conversely the marginal is recovered from those coefficients by a small
  inverse transform scaled by ``2**(d/2 - ||alpha||)``
  (:func:`marginal_from_fourier`).

Hot loops that reconstruct many marginals (consistency, the Fourier strategy,
the plan executor) skip the dicts entirely and use the index's batched
gather → butterfly → scatter path.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

import numpy as np

from repro.domain.contingency import marginal_from_vector
from repro.fourier.index import submasks_array
from repro.fourier.kernels import fwht, fwht_inplace, inverse_fwht
from repro.utils.bits import hamming_weight, popcount_array

__all__ = [
    "fwht",
    "inverse_fwht",
    "fourier_coefficient",
    "fourier_coefficients_for_mask",
    "fourier_coefficients_for_masks",
    "marginal_from_fourier",
]

# Backwards-compatible alias: the scalar block loop this name used to denote
# was replaced by the vectorized (bitwise-identical) kernel.
_unnormalised_fwht_inplace = fwht_inplace


def fourier_coefficient(x: np.ndarray, mask: int) -> float:
    """Single Fourier coefficient ``<f^mask, x>`` in ``O(N)`` time."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n == 0 or n & (n - 1):
        raise ValueError(f"input length must be a power of two, got {n}")
    d = n.bit_length() - 1
    if not (0 <= mask < n):
        raise ValueError(f"mask {mask} outside a domain of {n} cells")
    # <mask, gamma> only depends on gamma restricted to the bits of ``mask``,
    # so we can first collapse x onto the marginal over ``mask``.
    marginal = marginal_from_vector(x, mask, d)
    parities = popcount_array(np.arange(marginal.shape[0], dtype=np.int64)) & 1
    signs = np.where(parities == 1, -1.0, 1.0)
    return float(np.dot(signs, marginal) / np.sqrt(n))


def fourier_coefficients_for_mask(x: np.ndarray, mask: int, d: int) -> Dict[int, float]:
    """All coefficients ``{beta: <f^beta, x>}`` for ``beta ⪯ mask``.

    Computed as a small Hadamard transform of the exact marginal ``C^mask x``,
    which costs ``O(N + k 2**k)`` for ``k = ||mask||`` instead of ``O(N 2**k)``.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != (1 << d):
        raise ValueError(f"x must have length 2**{d}, got {x.shape[0]}")
    local = marginal_from_vector(x, mask, d)
    fwht_inplace(local)
    local /= 2.0 ** (d / 2.0)
    betas = submasks_array(mask)
    return dict(zip(betas.tolist(), local.tolist()))


def fourier_coefficients_for_masks(
    x: np.ndarray, masks: Iterable[int], d: int
) -> Dict[int, float]:
    """Coefficients for an arbitrary collection of masks (union of supports).

    ``masks`` is typically ``workload.fourier_masks()`` or the workload's
    query masks; in the latter case all dominated coefficients are included.
    Delegates to the dense count source, which runs the one coefficient
    implementation every backend shares
    (:meth:`repro.sources.base.CountSource.fourier_coefficients_for_masks`).
    """
    from repro.sources.dense import DenseCubeSource

    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != (1 << d):
        raise ValueError(f"x must have length 2**{d}, got {x.shape[0]}")
    return DenseCubeSource(x, d).fourier_coefficients_for_masks(masks)


def marginal_from_fourier(
    coefficients: Mapping[int, float], mask: int, d: int
) -> np.ndarray:
    """Reconstruct the marginal ``C^mask x`` from Fourier coefficients.

    ``coefficients`` must contain every ``beta ⪯ mask``; extra entries are
    ignored.  The reconstruction uses Theorem 4.1(2):
    ``(C^mask x)_gamma = 2**(d/2 - ||mask||) * sum_{beta ⪯ mask} x_hat[beta] * (-1)**<beta, gamma>``.
    """
    k = hamming_weight(mask)
    betas = submasks_array(mask).tolist()
    local = np.empty(1 << k, dtype=np.float64)
    for compact, beta in enumerate(betas):
        if beta not in coefficients:
            raise KeyError(
                f"missing Fourier coefficient for mask {beta:#x}, required by marginal {mask:#x}"
            )
        local[compact] = coefficients[beta]
    fwht_inplace(local)
    return local * (2.0 ** (d / 2.0 - k))
