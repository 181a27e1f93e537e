"""Input distributions, the Gram kernel and the brute-force entropy oracle.

The environment output for a diagonal input with weights p is the
coherent-state mixture Omega = sum_m p_m |sqrt(gamma) m><sqrt(gamma) m|.
Its nonzero spectrum equals that of the (N+1)x(N+1) matrix
A[i, j] = e^{-gamma (i-j)^2 / 2} p_j, whose Gram kernel gram_matrix is the
one the solver's J kernel (optimize.coherent_information_diagonal)
diagonalizes. The independent oracle reads Omega's spectrum from the
environment table fock.environment_amplitudes itself, without
gram_matrix: the squared singular values of the K x (N+1) matrix
C diag(sqrt p), so no K x K matrix is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock
from .fock import DephasingParams

SUM_TOL = 1e-12


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


def entropy_bruteforce_oracle(p: InputDistribution, params: DephasingParams) -> float:
    """Entropy of Omega = C diag(p) C^T on the truncated environment, in bits.

    C is fock.environment_amplitudes, whose every coherent state misses at
    most fock.DEFAULT_RESIDUAL_BOUND of its mass; fock.environment_entropy_bits
    takes Omega's spectrum by one thin SVD, independent of gram_matrix.
    """
    return fock.environment_entropy_bits(p.p, params)


def shannon_entropy(p: InputDistribution) -> float:
    """-sum p log2 p with 0 log 0 = 0, in bits."""
    return fock.shannon_bits(p.p)
