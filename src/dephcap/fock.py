"""Bosonic dephasing channel on truncated Fock spaces.

The channel multiplies the Fock-basis matrix element rho[m, n] by
exp(-gamma (m-n)^2 / 2): populations are untouched, coherences decay.
That factor is the overlap of the dilation's coherent environment
states, so gram_matrix is both the closed form and the solver's Gram
kernel; the solver's input type, InputDistribution, sits next to
FockDensityMatrix. Besides the closed form, this module carries every
equivalent representation used for cross-validation: a truncated Kraus sum, the
RK4 propagator of the dephasing master equation (its step count derived
from gamma and the dimension), the complementary channel onto coherent
environment states, and a periodic trapezoid rule for the
phase-randomization integral (its node count derived from gamma and the
dimension). The closed form, the Kraus sum, the master equation, the
dilation and the quadrature all take (rho, params). The Kraus sum
and the complementary channel read one environment table, environment_amplitudes:
the Kraus operators are its rows, the coherent states of the dilation
V|m> = |m> x |sqrt(gamma) m> its columns. Both partial traces of
V rho V^dag are contractions of that table; the joint state is never built.
coherent_information reads the environment's entropy off the same table,
weighted by the populations, by one thin SVD (environment_entropy_bits),
so it builds no K x K state either.
Every state may be a stack: a FockDensityMatrix holds entries of shape
(..., d, d), each row validated as one state, and the closed form, the
Kraus sum, the master equation, the quadrature, the dilation and
coherent_information act on each row as they act on a single state,
bitwise.
The real table is built in one pass from the saddle-point form of the
Poisson weight in row blocks, cached per (gamma, N) and read-only; its
completeness defect stays near 1e-15 at N 128, gamma 1, so its memory,
K (N+1) 8 bytes, not rounding, sets its reach.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

_LN2 = math.log(2.0)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10
DEFAULT_RESIDUAL_BOUND = 1e-12
SUM_TOL = 1e-12


class TruncationError(ValueError):
    """A truncated representation cannot meet the requested accuracy."""


@dataclass(frozen=True)
class DephasingParams:
    """Dephasing rate gamma >= 0 of the channel family N_gamma."""

    gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")

    @property
    def epsilon(self) -> float:
        """e^{-gamma/2}, the small parameter of the large-gamma regime."""
        return math.exp(-self.gamma / 2.0)


@dataclass(frozen=True, eq=False)
class FockDensityMatrix:
    """Density matrix on a Fock space truncated to dimension dim = N+1, or a stack of them.

    entries has shape (d, d) for one state or (..., d, d) for a stack,
    and every d x d row is checked as one state: finiteness, Hermiticity
    (1e-12), unit trace (1e-12) and positivity (eigenvalues >= -1e-10), all
    from one stacked eigvalsh; a bad row raises as a bad single state does.
    Entries are frozen afterwards, float64 for real input and complex128 for
    complex input. The eigenvalues of the positivity check are kept,
    read-only, as spectrum (shape (..., d)), so a state is diagonalized
    once: entropy_bits reads them. == is identity.
    """

    entries: np.ndarray
    spectrum: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.size == 0:
            raise ValueError(f"entries must be a nonempty square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("entries must be finite")
        herm = np.abs(m - m.swapaxes(-1, -2).conj()).max()
        if herm > HERMITICITY_TOL:
            raise ValueError(f"matrix is not Hermitian: max deviation {herm:.3e}")
        tr = m.trace(axis1=-2, axis2=-1)
        off = abs(tr - 1.0)
        if off.max() > TRACE_TOL:
            worst = np.ravel(tr)[off.argmax()]
            raise ValueError(f"trace must be 1 within {TRACE_TOL:.0e}, got {worst:.15g}")
        spectrum = np.linalg.eigvalsh(m)
        lo = spectrum.min()
        if lo < EIGENVALUE_FLOOR:
            raise ValueError(f"matrix is not positive semidefinite: min eigenvalue {lo:.3e}")
        m.setflags(write=False)
        spectrum.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "spectrum", spectrum)

    @property
    def dim(self) -> int:
        return self.entries.shape[-1]

    @property
    def n_max(self) -> int:
        return self.dim - 1

    def diagonal(self) -> np.ndarray:
        """The populations rho[m, m], of shape (..., d)."""
        return self.entries.diagonal(axis1=-2, axis2=-1).real.copy()

    def entropy_bits(self):
        """Von Neumann entropy -Tr[rho log2 rho] of the kept spectrum, clamped at 0.

        A Python float for one state, an array of shape (...) for a stack.
        """
        out = np.maximum(shannon_bits(self.spectrum), 0.0)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """Probability vector p_0..p_N over Fock states |0>..|N>, read-only; == is identity."""

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


# ---------------------------------------------------------------------------
# state constructors

def diagonal_state(weights) -> FockDensityMatrix:
    """Mixture of Fock states with the given probability weights; (..., d) weights give a stack."""
    w = np.asarray(weights, dtype=float)
    if w.ndim == 0:
        raise ValueError("weights must be a vector or a stack of vectors")
    m = np.zeros(w.shape + w.shape[-1:])
    n = np.arange(w.shape[-1])
    m[..., n, n] = w
    return FockDensityMatrix(m)


def _ginibre_entries(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The entries of random_density_matrix(dim, rng), from the same draws, unvalidated.

    Draws made one by one can be stacked and validated as one state.
    """
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = x @ x.conj().T
    return m / m.trace().real


def random_density_matrix(dim: int, rng: np.random.Generator) -> FockDensityMatrix:
    """Full-rank random state from the complex Ginibre ensemble."""
    return FockDensityMatrix(_ginibre_entries(dim, rng))


# ---------------------------------------------------------------------------
# entropy kernel

def shannon_bits(values):
    """-sum x log2 x over the positive entries of values, with 0 log 0 = 0.

    values may be a stack of shape (..., K): the sum runs along the last
    axis, each row's entropy is bitwise that of calling it alone, and a
    single (K,) vector gives a Python float. Entries <= 0 add nothing.
    """
    x = np.asarray(values, dtype=float)
    out = -(x * np.log(x, out=np.zeros_like(x), where=x > 0.0)).sum(axis=-1) / _LN2
    return float(out) if out.ndim == 0 else out


# phi(1 + u) = u^2 sum_k (-u)^k / ((k+1)(k+2)) is summed for |u| below
# _PHI_SERIES_U; 16 terms reach relative 1e-18 there.
_PHI_SERIES_U = 0.1
_PHI_SERIES = 1.0 / ((np.arange(16.0) + 1.0) * (np.arange(16.0) + 2.0))


def phi1p(u) -> np.ndarray:
    """phi(1 + u) = (1 + u) ln(1 + u) - u elementwise for u >= -1, phi(x) = x ln x - x + 1.

    phi >= 0, with phi(1 + u) = 1 at u = -1. Near u = 0, where the two
    terms cancel, the power series is summed instead, by np.polyval's
    Horner recurrence in -u, so an exact u keeps its relative accuracy.
    """
    u = np.asarray(u, dtype=float)
    out = np.log1p(u, out=np.zeros_like(u), where=u > -1.0)
    out *= 1.0 + u
    out -= u
    near = np.abs(u) < _PHI_SERIES_U
    un = u[near]
    out[near] = un * un * np.polyval(_PHI_SERIES[::-1], -un)
    return out


# ---------------------------------------------------------------------------
# channel representations

def gram_matrix(params: DephasingParams, levels) -> np.ndarray:
    """The overlaps <sqrt(gamma) i|sqrt(gamma) j> = e^{-gamma (i-j)^2 / 2} over the given Fock levels.

    These are the dilation's environment states, so this one matrix is the
    closed form of the channel (apply_dephasing) and the Gram kernel G whose
    weighted form sqrt(p_i) G[i, j] sqrt(p_j) the solver diagonalizes.
    """
    idx = np.asarray(levels, dtype=float)
    d = np.subtract.outer(idx, idx)
    return np.exp(-params.gamma * d ** 2 / 2.0)


def apply_dephasing(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Closed form of the channel: rho[m,n] -> e^{-gamma (m-n)^2 / 2} rho[m,n]."""
    return FockDensityMatrix(gram_matrix(params, np.arange(rho.dim)) * rho.entries)


# Stirling series of delta(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 from
# k = _STIRLING_FROM on, where its first omitted term is below 1.2e-16;
# below that delta comes from lgamma.
_STIRLING_FROM = 16
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_delta(k) -> np.ndarray:
    """delta(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 elementwise for integers k >= 1.

    Below _STIRLING_FROM it comes from one math.lgamma call per entry; from
    there on the Stirling series is summed in 1/k^2 by np.polyval.
    """
    k = np.asarray(k, dtype=float)
    out = np.empty_like(k)
    small = k < _STIRLING_FROM
    out[small] = [math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j - _HALF_LN_2PI
                  for j in k[small]]
    x = 1.0 / k[~small]
    out[~small] = x * np.polyval(_STIRLING[::-1], x * x)
    return out


# Rows of the environment table per build block: phi1p's temporaries stay
# near 1 MB at N 128 however many rows the table has.
_TABLE_BLOCK = 1024


# A full validation pass touches 18 (gamma, N) keys, and 32 entries keep
# them all. The bound is also what a long-lived process keeps: 32 tables
# of K (N+1) 8 bytes, 576 MB if all were N 128, gamma 1 (18 MB each).
@functools.lru_cache(maxsize=32)
def environment_amplitudes(params: DephasingParams, n_max: int) -> np.ndarray:
    """The real (K, N+1) environment table <k|sqrt(gamma) m>, k < K, m = 0..N.

    Column m is the coherent environment state the dilation attaches to
    Fock level m. Row k is the diagonal of the Kraus operator
    K_k = e^{-gamma (a^dag a)^2 / 2} (sqrt(gamma) a^dag a)^k / sqrt(k!).
    Entry (k, m) is sqrt(Poisson(k; lam_m)), lam_m = gamma m^2, assembled in
    log space from the saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000)
        log Poisson(k; lam) = -lam phi1p((k - lam) / lam) - ln(2 pi k)/2 - delta(k),
    with delta(k) the Stirling correction of ln k!: no two terms cancel, so
    large k and lam keep their relative accuracy. One pass builds
    K = ceil(lam + 10 sqrt(lam + 1) + 10) + 1 rows, lam = gamma N^2: the
    Poisson(gamma m^2) tail past K is below 1e-21 for lam <= 1e6, so a column
    defect |1 - sum_k <k|.>^2| above DEFAULT_RESIDUAL_BOUND is rounding that
    more rows cannot remove, and raises TruncationError. Below it the Kraus
    sum is trace preserving and the dilation isometric to that accuracy; the
    defect is 2.7e-15 at N 128, gamma 1. The function is its own cache,
    keyed on (params, N), and DephasingParams is frozen, so it hashes by
    gamma: a table is built, and its defect checked, once per key, and
    returned read-only; a build that raises is not cached. A table takes
    K (N+1) 8 bytes: 18 MB at N 128, gamma 1, about 8.7 GB at N 1024; its
    build peaks at about 1.2 times that (about 10.5 GB at N 1024), and at
    most 32 tables are cached, 576 MB if all were N 128, gamma 1.
    """
    lam = params.gamma * n_max ** 2
    j_max = int(math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0))
    lam_m = params.gamma * np.arange(n_max + 1, dtype=float) ** 2
    cols = lam_m > 0.0
    lam_c = lam_m[cols]
    k = np.arange(1.0, j_max + 1.0)
    log_k = 0.5 * np.log(2.0 * math.pi * k) + _stirling_delta(k)
    # 2 log <k|sqrt(lam)> = log Poisson(k; lam): -lam at k = 0, the saddle-point
    # form -lam phi(k / lam) - ln(2 pi k)/2 - delta(k) for k >= 1; a column
    # with lam = 0 is the vacuum. Written in row blocks and exponentiated in
    # place, the build peaks near the table's own size.
    table = np.empty((j_max + 1, n_max + 1))
    table[0] = -lam_m / 2.0
    body = table[1:]
    body[:, ~cols] = -np.inf
    for lo in range(0, j_max, _TABLE_BLOCK):
        rows = slice(lo, lo + _TABLE_BLOCK)
        body[rows, cols] = -0.5 * (lam_c * phi1p((k[rows, None] - lam_c) / lam_c)
                                   + log_k[rows, None])
    np.exp(table, out=table)
    defect = float(np.abs(1.0 - np.einsum("km,km->m", table, table)).max())
    if not defect <= DEFAULT_RESIDUAL_BOUND:  # a nan defect raises too
        raise TruncationError(f"{j_max + 1} table rows miss residual {DEFAULT_RESIDUAL_BOUND:.1e} "
                              f"by rounding: worst defect {defect:.3e}, gamma N^2 = {lam:.6g}")
    table.setflags(write=False)
    return table


def environment_entropy_bits(p, params: DephasingParams):
    """Entropy in bits of the environment output sum_m p_m |sqrt(gamma) m><sqrt(gamma) m|.

    With C = environment_amplitudes, that output is C diag(p) C^T, whose
    nonzero spectrum is the squared singular values of the K x (N+1)
    matrix C diag(sqrt p): one thin SVD in O(K N^2), no K x K matrix.
    Negative rounding in p counts as 0. p may be a stack of shape
    (..., N+1): one stacked SVD takes every row, each row's entropy is
    bitwise that of calling it alone, and a single (N+1,) vector gives a
    Python float.
    """
    w = np.maximum(np.asarray(p, dtype=float), 0.0)
    c = environment_amplitudes(params, w.shape[-1] - 1)
    s = np.linalg.svd(c * np.sqrt(w)[..., None, :], compute_uv=False)
    out = np.maximum(shannon_bits(s * s), 0.0)
    return float(out) if out.ndim == 0 else out


def kraus_apply(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Truncated Kraus sum sum_k K_k rho K_k^dag over the rows of environment_amplitudes.

    The operators are diagonal: the sum is rho times the table's Gram matrix k^T k.
    """
    k = environment_amplitudes(params, rho.n_max)
    return FockDensityMatrix((k.T @ k) * rho.entries)


def _rk4_steps(gamma: float, dim: int) -> int:
    """RK4 step count of evolve_master_equation, targeting global error ~1e-10.

    Conservative count from the RK4 local error model (h L)^5/120 per step
    with L = (dim-1)^2/2 the stiffest decay rate of the truncated generator.
    The step stays inside RK4's real-axis stability interval, h L <= 2.785:
    the error model gives h L = (1.2e-8 / (gamma L))^(1/4), at most 2.785
    from gamma L = 2e-10 on, and below that the 20-step floor keeps h L
    under 1e-11. The count gamma / h = gamma L (gamma L / 1.2e-8)^(1/4) is
    formed from gamma L alone, with no division by it, so a gamma L that
    underflows to 0 gives the floor.
    """
    lam = (dim - 1) ** 2 / 2.0
    if gamma == 0.0 or lam == 0.0:
        return 1
    rate = gamma * lam
    return max(int(math.ceil(rate * (rate / (120.0 * 1e-10)) ** 0.25)), 20)


def evolve_master_equation(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Propagate the dephasing master equation to time gamma by classical RK4 steps.

    Generator: D[n]rho = n rho n - (n^2 rho + rho n^2)/2 with n = a^dag a,
    normalized so that evolving for time gamma reproduces the closed form at
    rate gamma. It acts elementwise, so an RK4 step multiplies every
    entry by the stability polynomial R(h gen), and the steps together by its
    power: the same integration (generator, step size, order-4 error,
    stability region) with no loop and no exp, independent of the closed
    form. The step count comes from gamma and the dimension (_rk4_steps),
    inside the stability interval of the stiffest mode.
    """
    steps = _rk4_steps(params.gamma, rho.dim)
    # elementwise action of the generator: -(j-k)^2 / 2 * rho[j, k]
    n = np.arange(rho.dim)
    z = (params.gamma / steps) * (-0.5 * np.subtract.outer(n, n) ** 2)
    # R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 in Horner form
    r = 1.0 + z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return FockDensityMatrix(r ** steps * rho.entries)


def phase_rotate(rho: FockDensityMatrix, theta: float) -> FockDensityMatrix:
    """Conjugation by U_theta = e^{-i a^dag a theta}: rho[m,n] -> e^{-i theta (m-n)} rho[m,n]."""
    u = np.exp(-1j * theta * np.arange(rho.dim))
    return FockDensityMatrix(u[:, None] * rho.entries * u.conj()[None, :])


# ---------------------------------------------------------------------------
# dilation and complementary channel

def complementary_output(p, params: DephasingParams) -> FockDensityMatrix:
    """Environment output sum_m p_m |sqrt(gamma) m><sqrt(gamma) m|, real symmetric.

    The p-weighted mixture of the columns of environment_amplitudes, as a
    K x K state; coherent_information takes its entropy without building it.
    p of shape (..., N+1) gives a stack of K x K states.
    Not exported by the package: the benchmark's tracer wraps it here by name.
    """
    w = np.asarray(p, dtype=float)
    c = environment_amplitudes(params, w.shape[-1] - 1)
    omega = (c * w[..., None, :]) @ c.T
    return FockDensityMatrix(0.5 * (omega + omega.swapaxes(-1, -2)))


def dilation_oracle(rho: FockDensityMatrix, params: DephasingParams):
    """Both partial traces of V rho V^dag: (system output, environment output).

    The dilation V|m> = |m> x |sqrt(gamma) m> reads the columns of
    environment_amplitudes. Tracing out the environment contracts over
    the table's rows, which is the Kraus sum kraus_apply; tracing out the
    system keeps only the populations rho[m, m], which weight the coherent
    states as in complementary_output.
    Not exported by the package: the benchmark's tracer wraps it here by name.
    """
    return kraus_apply(rho, params), complementary_output(rho.diagonal(), params)


def phase_average_oracle(rho: FockDensityMatrix, params: DephasingParams) -> FockDensityMatrix:
    """Periodic trapezoid rule for the phase randomization integral.

    Averages e^{-i n phi} rho e^{i n phi} over a centered Gaussian phase
    of variance gamma on the circle. gamma = 0 returns rho unchanged (the
    density degenerates to a point mass at phi = 0). Otherwise the rule
    takes M = ceil(N + 1 + sqrt(80) / sigma) nodes phi_j = 2 pi j / M,
    sigma = sqrt(gamma). The integrand is 2 pi-periodic, so by Poisson
    summation the node sum at distance d = |m - n| is e^{-gamma d^2 / 2}
    plus the aliases e^{-gamma (d + r M)^2 / 2}, r != 0, which total at
    most 2 e^{-40} for every d <= N (L. N. Trefethen and J. A. C. Weideman,
    "The exponentially convergent trapezoidal rule", SIAM Review 56, 2014).
    The N(0, gamma) density is summed on the lattice points 2 pi k / M
    within 9 sigma of 0 (the tails past 9 sigma hold 2.3e-19 of the mass),
    each weighted 2 pi / M, and evaluated in units of sigma, so a subnormal
    gamma keeps full precision. While the lattice fits on the circle its
    points are the nodes: 25 of them as gamma N^2 -> 0. For large gamma it
    wraps, and summing the lattice turn by turn folds point k onto node
    k mod M; the rule then holds about 2.9 sigma (N + 2) density values at
    once: 7.4e6 at gamma 1e8, N 256, which trace 177 MB.
    """
    if params.gamma == 0.0:
        return rho
    sigma = math.sqrt(params.gamma)
    m = math.ceil(rho.dim + math.sqrt(80.0) / sigma)
    step = 2.0 * math.pi / m / sigma  # node spacing in units of sigma, finite at any gamma > 0
    k_max = math.floor(9.0 / step)  # the points 2 pi k / M within 9 sigma have |k| <= k_max
    k = np.arange(-k_max, k_max + 1)
    wts = np.exp(-0.5 * (k * step) ** 2) * (step / math.sqrt(2.0 * math.pi))
    if k.size > m:  # the lattice wraps: point k lands on node k mod M
        # zero-padded to whole turns that start at node 0, one turn per row:
        # the column sums add each node's points in the order of k
        lead = -k_max % m
        turns = np.zeros(-(-(lead + k.size) // m) * m)
        turns[lead:lead + k.size] = wts
        wts = turns.reshape(-1, m).sum(axis=0)
        k = np.arange(m)
    # the sine part integrates to zero by symmetry, and the cosine kernel
    # depends on |m - n| only: one value per distance
    n = np.arange(rho.dim)
    kernel = wts @ np.cos(np.multiply.outer(k * (2.0 * math.pi / m), n))
    return FockDensityMatrix(kernel[np.abs(np.subtract.outer(n, n))] * rho.entries)


def coherent_information(rho: FockDensityMatrix, params: DephasingParams) -> float:
    """J(rho) = S(channel output) - S(complementary output), in bits.

    The channel output is the Kraus sum, whose entropy reads the spectrum
    its construction already computed. The environment sees only the
    populations of rho, so its entropy is environment_entropy_bits of
    rho's diagonal: nothing larger than (N+1) x (N+1) is diagonalized.
    A stacked rho gives an array with each row's J, bitwise its single-state
    value; one state gives a Python float.
    """
    return kraus_apply(rho, params).entropy_bits() - environment_entropy_bits(
        rho.diagonal(), params)
