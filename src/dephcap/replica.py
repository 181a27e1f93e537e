"""Input distributions, the Gram kernel and the complementary-output entropy.

The environment output for a diagonal input with weights p is the
coherent-state mixture Omega = sum_m p_m |sqrt(gamma) m><sqrt(gamma) m|.
Its nonzero spectrum equals that of the (N+1)x(N+1) matrix
A[i, j] = e^{-gamma (i-j)^2 / 2} p_j, so the entropy never requires the
large environment space. The independent oracle reads Omega's spectrum
from the environment table fock.environment_amplitudes itself, without
gram_matrix: the squared singular values of the K x (N+1) matrix
C diag(sqrt p), so no K x K matrix is built. The coherent information J
itself is evaluated in optimize; the
textbook H(p) - S(A) here is kept only as an independent reference for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import DephasingParams

SUM_TOL = 1e-12
EIG_CLAMP = -1e-12


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector p_0..p_N over Fock states |0>..|N>; == is identity."""

    p: np.ndarray

    def __post_init__(self):
        w = np.array(self.p, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("p must be a nonempty 1-D vector")
        if not np.isfinite(w).all():
            raise ValueError("p must be finite")
        if w.min() < 0.0:
            raise ValueError(f"p must be nonnegative, min entry {w.min():.3e}")
        if abs(w.sum() - 1.0) > SUM_TOL:
            raise ValueError(f"p must sum to 1 within {SUM_TOL:.0e}, got {w.sum():.15g}")
        w.setflags(write=False)
        object.__setattr__(self, "p", w)

    @property
    def dim(self) -> int:
        return self.p.size

    def mean_energy(self) -> float:
        return float(np.arange(self.dim) @ self.p)


def gram_matrix(params: DephasingParams, indices) -> np.ndarray:
    """Gram kernel e^{-gamma (i-j)^2 / 2} over the given Fock indices."""
    idx = np.asarray(indices, dtype=float)
    d = np.subtract.outer(idx, idx)
    return np.exp(-params.gamma * d ** 2 / 2.0)


def _replica_spectrum(weights: np.ndarray, gamma: float) -> np.ndarray:
    """Eigenvalues of D^{1/2} G D^{1/2}, similar to A on the support of the weights.

    Zero-weight indices are dropped before diagonalizing; the original Fock
    indices are kept so the kernel distances survive the restriction. The
    weights need not sum to 1, so finite differences can probe off the
    simplex. Roundoff eigenvalues in [-1e-12, 0) pass and contribute
    nothing to the entropy; anything lower raises ValueError.
    """
    idx = np.flatnonzero(weights > 0.0)
    sq = np.sqrt(weights[idx])
    a = np.linalg.eigvalsh(sq[:, None] * gram_matrix(DephasingParams(gamma), idx) * sq[None, :])
    if a.size and a.min() < EIG_CLAMP:
        raise ValueError(f"replica spectrum has eigenvalue {a.min():.3e} below clamp")
    return a


def _objective_bits_raw(weights: np.ndarray, gamma: float) -> float:
    """H(p) - S(A(p)) as a smooth function of raw nonnegative weights.

    The two entropies cancel where J is far below 1, so
    optimize.coherent_information_diagonal and the solver use the
    cancellation-free kernel instead.
    This textbook form stays as the independent reference: the finite
    differences of objective_gradient and acceptance criterion 8 use it.
    """
    return fock.shannon_bits(weights) - fock.shannon_bits(_replica_spectrum(weights, gamma))


def entropy_replica(p: InputDistribution, params: DephasingParams) -> float:
    """Entropy of the complementary output in bits, via the replica matrix."""
    return max(fock.shannon_bits(_replica_spectrum(p.p, params.gamma)), 0.0)


def entropy_bruteforce_oracle(p: InputDistribution, params: DephasingParams) -> float:
    """Entropy of Omega = C diag(p) C^T on the truncated environment, in bits.

    C is fock.environment_amplitudes, whose every coherent state misses at
    most fock.DEFAULT_RESIDUAL_BOUND of its mass. Omega's nonzero spectrum
    is the squared singular values of C diag(sqrt p), taken by one thin SVD
    in O(K N^2), independent of gram_matrix.
    """
    c = fock.environment_amplitudes(params, p.dim - 1)
    s = np.linalg.svd(c * np.sqrt(p.p)[None, :], compute_uv=False)
    return max(fock.shannon_bits(s * s), 0.0)


def shannon_entropy(p: InputDistribution) -> float:
    """-sum p log2 p with 0 log 0 = 0, in bits."""
    return fock.shannon_bits(p.p)
