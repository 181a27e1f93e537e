"""Reference values and output checks, computed apart from the `dephcap` package.

Nothing here imports `dephcap`. The anchors are:

- `q_inf(gamma)`: the exact unconstrained capacity D(p_gamma || uniform) of
  the bosonic dephasing channel (Lami & Wilde, arXiv:2205.05736), with the
  wrapped-normal density p_gamma summed from its Fourier series in mpmath;
- `two_point(gamma)`: the coherent information 1 - H2((1 +- e^{-gamma/2})/2)
  of the equal mixture of two neighbouring Fock states, in mpmath;
- `objective(p, gamma)`: J(p) = H(p) - S(sqrt(p) G sqrt(p)) with the
  coherent-overlap kernel G[i, j] = e^{-gamma (i-j)^2 / 2};
- `optimality_gap(p, gamma)`: max_m dJ/dp_m - sum_m p_m dJ/dp_m from a
  central-difference gradient. J is concave on the simplex, so the gap
  bounds how far J(p) lies below the truncated capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
import numpy as np

_LN2 = math.log(2.0)

# Stated accuracy of a reported capacity: the certified distance to the
# optimum, in bits.
GAP_TOL = 1e-4
# A reported q_bits must equal J at the reported p_opt to this, in bits.
VALUE_TOL = 1e-9
# q(N, gamma) must not decrease in N by more than this, in bits.
MONOTONE_TOL = 1e-9
# |p_m - p_{N-m}| and |<n> - N/2| limits for the optimal input.
SYMMETRY_TOL = 1e-6
ENERGY_TOL = 1e-3
# Relative slack on the anchor bounds; it absorbs the 12 significant
# digits of the sweep table and nothing more.
BOUND_SLACK = 1e-10
# Relative central-difference step, scaled by each p_m.
FD_REL_STEP = 1e-4

# Tolerances of the validation suites, copied so that the program's own
# constants cannot loosen the check.
SUITE_TOLERANCES = {
    "representation_equivalence": 1e-8,
    "replica_vs_bruteforce": 1e-8,
    "semigroup": 1e-14,
    "covariance": 1e-14,
    "proposition1_dominance": 1e-9,
}


# ---------------------------------------------------------------------------
# anchors in mpmath

@lru_cache(maxsize=None)
def q_inf(gamma: float, dps: int = 30) -> float:
    """D(p_gamma || uniform) in bits, p_gamma the wrapped normal of variance gamma.

    2 pi p_gamma(phi) = 1 + 2 sum_{n>=1} e^{-gamma n^2 / 2} cos(n phi); the
    series is cut where its terms fall below 10^-(dps+10), and the even
    integrand is integrated over [0, pi].
    """
    if not gamma > 0.0:
        raise ValueError("q_inf needs gamma > 0")
    with mpmath.workdps(dps):
        g = mpmath.mpf(gamma)
        cut = mpmath.mpf(10) ** -(dps + 10)
        coeffs = []
        n = 1
        while True:
            c = mpmath.exp(-g * n * n / 2)
            if c < cut:
                break
            coeffs.append(2 * c)
            n += 1

        def f_log_f(phi):
            f = 1 + mpmath.fsum(c * mpmath.cos(k * phi) for k, c in enumerate(coeffs, 1))
            return f * mpmath.log(f)

        # p_gamma concentrates near phi = 0 at small gamma; split there
        nodes = [0, mpmath.pi / 16, mpmath.pi / 4, mpmath.pi]
        value = mpmath.quad(f_log_f, nodes) / mpmath.pi / mpmath.log(2)
        return float(value)


@lru_cache(maxsize=None)
def two_point(gamma: float, dps: int = 50) -> float:
    """1 - H2((1 + e)/2, (1 - e)/2) in bits with e = e^{-gamma/2}."""
    with mpmath.workdps(dps):
        e = mpmath.exp(-mpmath.mpf(gamma) / 2)
        h = mpmath.mpf(0)
        for q in ((1 + e) / 2, (1 - e) / 2):
            if q > 0:
                h -= q * mpmath.log(q, 2)
        return float(1 - h)


# ---------------------------------------------------------------------------
# objective and optimality gap in numpy

def _kernel(dim: int, gamma: float) -> np.ndarray:
    d = np.arange(dim, dtype=float)
    return np.exp(-gamma * np.subtract.outer(d, d) ** 2 / 2.0)


def _j_raw(w: np.ndarray, kernel: np.ndarray) -> float:
    """-sum w ln w + sum a ln a over eigenvalues a of sqrt(w) G sqrt(w), in bits."""
    sq = np.sqrt(w)
    a = np.linalg.eigvalsh(sq[:, None] * kernel * sq[None, :])
    a = a[a > 0.0]
    return float((-(w * np.log(w)).sum() + (a * np.log(a)).sum()) / _LN2)


def objective(p, gamma: float) -> float:
    """J(p) = H(p) - S(sqrt(p) G sqrt(p)) in bits, for strictly positive p."""
    w = np.asarray(p, dtype=float)
    return _j_raw(w, _kernel(w.size, gamma))


def optimality_gap(p, gamma: float) -> float:
    """max_m g_m - p.g with g the central-difference gradient of J at p."""
    w = np.asarray(p, dtype=float)
    kernel = _kernel(w.size, gamma)
    grad = np.empty(w.size)
    for m in range(w.size):
        h = FD_REL_STEP * w[m]
        hi = w.copy()
        lo = w.copy()
        hi[m] += h
        lo[m] -= h
        grad[m] = (_j_raw(hi, kernel) - _j_raw(lo, kernel)) / (2.0 * h)
    return float(grad.max() - w @ grad)


# ---------------------------------------------------------------------------
# checks

@dataclass(frozen=True)
class PointCheck:
    """Verdict on one capacity point; `faults` is empty when it passes."""

    n_max: int
    gamma: float
    q_bits: float
    gap: float
    faults: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.faults


def check_point(n_max: int, gamma: float, q_bits: float, p) -> PointCheck:
    """All single-point checks on a reported (q_bits, p_opt)."""
    faults = []
    w = np.asarray(p, dtype=float)
    if w.size != n_max + 1 or not np.all(np.isfinite(w)) or w.min() <= 0.0:
        return PointCheck(n_max, gamma, q_bits, math.nan, ("p_opt is not a positive vector",))
    if not math.isfinite(q_bits):
        return PointCheck(n_max, gamma, q_bits, math.nan, ("q_bits is not finite",))
    w = w / w.sum()
    lower = two_point(gamma)
    upper = min(q_inf(gamma), math.log2(n_max + 1))
    if q_bits < lower * (1.0 - BOUND_SLACK):
        faults.append(f"q_bits {q_bits:.6e} below two-point bound {lower:.6e}")
    if q_bits > upper * (1.0 + BOUND_SLACK):
        faults.append(f"q_bits {q_bits:.6e} above min(q_inf, log2(N+1)) {upper:.6e}")
    j = objective(w, gamma)
    if abs(q_bits - j) > VALUE_TOL:
        faults.append(f"q_bits {q_bits:.12e} differs from J(p_opt) {j:.12e}")
    gap = optimality_gap(w, gamma)
    if not gap <= GAP_TOL:
        faults.append(f"optimality gap {gap:.3e} above {GAP_TOL:.0e}")
    asym = float(np.abs(w - w[::-1]).max())
    if asym > SYMMETRY_TOL:
        faults.append(f"p_opt asymmetry {asym:.3e} above {SYMMETRY_TOL:.0e}")
    energy = float(np.arange(w.size) @ w)
    if abs(energy - n_max / 2.0) > ENERGY_TOL:
        faults.append(f"mean energy {energy:.6f} not N/2 within {ENERGY_TOL:.0e}")
    return PointCheck(n_max, gamma, q_bits, gap, tuple(faults))


def monotone_faults(points: list[tuple[int, float, float]]) -> dict[tuple[int, float], str]:
    """Points (N, gamma, q) whose q falls below the q of a smaller N at the same gamma."""
    faults = {}
    best: dict[float, tuple[int, float]] = {}
    for n_max, gamma, q in sorted(points):
        prev = best.get(gamma)
        if prev is not None and q < prev[1] - MONOTONE_TOL:
            faults[(n_max, gamma)] = f"q(N={n_max}) {q:.9e} below q(N={prev[0]}) {prev[1]:.9e}"
        if prev is None or q > prev[1]:
            best[gamma] = (n_max, q)
    return faults


def check_suite(name: str, passed: bool, worst: float) -> tuple[str, ...]:
    """A validation suite passes only if it says so and its worst is within our tolerance."""
    tol = SUITE_TOLERANCES.get(name)
    if tol is None:
        return (f"unknown suite {name!r}",)
    faults = []
    if not passed:
        faults.append(f"suite {name} reports failure")
    if not (math.isfinite(worst) and worst <= tol):
        faults.append(f"suite {name} worst {worst:.3e} above {tol:.0e}")
    return tuple(faults)
