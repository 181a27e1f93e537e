"""Capacity maximization over the input simplex, bounds and asymptotics.

The truncated capacity is the maximum of J(p) = H(p) - S(A(p)) over
probability vectors p on Fock levels 0..N. J is concave (the channel is
degradable), so a single mirror ascent with multiplicative updates from
the symmetric discrete-Gaussian start converges to the global optimum.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fock, replica
from .fock import DephasingParams
from .replica import InputDistribution

_LN2 = math.log(2.0)

GRADIENT_RESIDUAL_TOL = 1e-9
OBJECTIVE_STALL_ITERS = 5
FD_STEP = 1e-6
MAX_BACKTRACKS = 60
_GRADIENT_MODES = ("analytic", "finite_difference")


@dataclass(frozen=True)
class OptimizerConfig:
    objective_tolerance: float = 1e-10
    max_iterations: int = 20000

    def __post_init__(self):
        if not self.objective_tolerance > 0.0:
            raise ValueError("objective_tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class CapacityResult:
    """One optimized point: truncation N, rate gamma and the value in bits."""

    gamma: float
    n_max: int
    q_bits: float
    p_opt: InputDistribution | None
    iterations: int
    converged: bool
    gradient_residual: float
    wall_time: float | None = None

    def __post_init__(self):
        if math.isnan(self.q_bits):
            if self.converged:
                raise ValueError("a converged result cannot carry q_bits = nan")
            return
        if self.q_bits < 0.0:
            raise ValueError(f"q_bits must be >= 0, got {self.q_bits!r}")
        if self.q_bits > math.log2(self.n_max + 1) + 1e-9:
            raise ValueError(f"q_bits {self.q_bits!r} exceeds log2(N+1)")

    def mean_energy(self) -> float:
        if self.p_opt is None:
            return math.nan
        return self.p_opt.mean_energy()


@dataclass(frozen=True)
class DiscreteGaussianAnsatz:
    """p_m proportional to e^{-(m-mu)^2 / (2 sigma^2)} on m = 0..N, mu = N/2."""

    n_max: int
    sigma: float
    mu: float | None = None

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be > 0")
        if self.mu is None:
            object.__setattr__(self, "mu", self.n_max / 2.0)


@dataclass(frozen=True)
class TwoPointBound:
    """Coherent information of the equal mixture of |n> and |n+j>."""

    gamma: float
    j: int
    q_plus: float
    q_minus: float
    value_bits: float


def binary_entropy_bits(q_plus: float, q_minus: float) -> float:
    """H2 of a two-point distribution, with 0 log 0 = 0."""
    return fock.shannon_bits([q_plus, q_minus])


def two_point_lower_bound(params: DephasingParams, j: int) -> TwoPointBound:
    """Lower bound 1 - H2((1 +- e^{-gamma j^2/2})/2); independent of the base level."""
    if j < 1:
        raise ValueError("j must be >= 1")
    e = math.exp(-params.gamma * j ** 2 / 2.0)
    q_plus = (1.0 + e) / 2.0
    q_minus = (1.0 - e) / 2.0
    value = 1.0 - binary_entropy_bits(q_plus, q_minus)
    return TwoPointBound(params.gamma, j, q_plus, q_minus, value)


# ---------------------------------------------------------------------------
# objective and gradient

def _objective_and_gradient_analytic(weights, gamma):
    """(J, unprojected gradient) on levels 0..N, sharing one eigendecomposition.

    dJ/dp_m = -log2 p_m + <c_m| log2 Omega |c_m>; the overlap term comes
    from the eigenpairs of M = D^{1/2} G D^{1/2}: an eigenvector v of M
    with eigenvalue a lifts to the Omega eigenvector C D^{1/2} v / sqrt(a),
    so |<u_i|c_m>|^2 = (V^T D^{1/2} G)[i,m]^2 / a_i.
    """
    g_kernel = replica.gram_matrix(DephasingParams(gamma), np.arange(weights.size))
    sq = np.sqrt(weights)
    m = sq[:, None] * g_kernel * sq[None, :]
    a, v = np.linalg.eigh(m)
    entropy = fock.shannon_bits(a)
    # no 0 log 0 = 0 here: a zero weight makes J nan, which the ascent rejects
    shannon = float(-(weights * np.log(weights)).sum() / _LN2)
    # weights |<u_i|c_m>|^2 are <= 1 and <= a_i/p_m; modes below the relative
    # floor contribute O(a |log a|) and only amplify eigensolver noise
    keep = a > 1e-14 * a.max()
    a_k = a[keep]
    b = v[:, keep].T @ (sq[:, None] * g_kernel)
    proj = np.clip(b ** 2 / a_k[:, None], 0.0, 1.0)
    overlap_term = (np.log2(a_k) @ proj)
    grad = -np.log2(weights) + overlap_term
    return shannon - entropy, grad


def _fd_gradient(weights, gamma, step=FD_STEP):
    """Central differences of the raw objective along each coordinate."""
    grad = np.empty(weights.size)
    for k in range(weights.size):
        hi = weights.copy()
        lo = weights.copy()
        hi[k] += step
        lo[k] -= step
        grad[k] = (
            replica._objective_bits_raw(hi, gamma) - replica._objective_bits_raw(lo, gamma)
        ) / (2.0 * step)
    return grad


def objective_gradient(
    p: InputDistribution, params: DephasingParams, mode: str = "analytic"
) -> np.ndarray:
    """Gradient of J(p) = H(p) - S(A(p)), projected onto the simplex tangent.

    Both modes return the tangent-space projection (component sums vanish),
    which is the quantity that drives simplex ascent and the one on which
    the two modes are comparable; unprojected gradients differ only by the
    constant multiples of the all-ones vector that normalization absorbs.
    The ascent uses the analytic mode; finite differences are a check on it.
    """
    if mode not in _GRADIENT_MODES:
        raise ValueError(f"mode must be one of {_GRADIENT_MODES}")
    if p.p.min() <= 0.0:
        raise ValueError("gradient requires strictly positive p")
    if mode == "analytic":
        _, grad = _objective_and_gradient_analytic(p.p, params.gamma)
    else:
        grad = _fd_gradient(p.p, params.gamma)
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise ValueError(f"non-finite gradient component at index {bad[0]}")
    return grad - grad.mean()


# ---------------------------------------------------------------------------
# mirror ascent

class _AscentOutcome(NamedTuple):
    p: np.ndarray
    value: float
    iterations: int
    converged: bool
    residual: float


def _mirror_ascent(p0: np.ndarray, gamma: float, config: OptimizerConfig) -> _AscentOutcome:
    """Exponentiated-gradient ascent with backtracking step control.

    Multiplicative updates keep the iterate positive and normalized for
    free. A step that underflows a weight to zero has a nan objective and
    is rejected by the backtracking test like any other non-improving step.
    """
    w = p0
    value, grad = _objective_and_gradient_analytic(w, gamma)
    eta = 1.0
    stall = 0
    converged = False
    residual = math.inf
    iterations = 0
    for iterations in range(1, config.max_iterations + 1):
        centred = grad - grad.mean()
        residual = float(np.linalg.norm(centred))
        if residual < GRADIENT_RESIDUAL_TOL:
            converged = True
            break
        accepted = False
        first_try = False
        for attempt in range(MAX_BACKTRACKS):
            x = eta * centred
            x -= x.max()
            w_new = w * np.exp(x)
            w_new /= w_new.sum()
            value_new, grad_new = _objective_and_gradient_analytic(w_new, gamma)
            if value_new >= value:
                accepted = True
                first_try = attempt == 0
                break
            eta *= 0.5
        if not accepted:
            # no step size improves the objective: numerically stationary
            converged = True
            break
        delta = value_new - value
        w, value, grad = w_new, value_new, grad_new
        if first_try:
            eta = min(eta * 1.3, 100.0)
        stall = stall + 1 if delta < config.objective_tolerance else 0
        if stall >= OBJECTIVE_STALL_ITERS:
            converged = True
            break
    centred = grad - grad.mean()
    residual = float(np.linalg.norm(centred))
    return _AscentOutcome(w, value, iterations, converged, residual)


def default_sigma(n_max: int) -> float:
    """Width fit of the optimal discrete Gaussian, sigma = 0.2 N + 0.6."""
    return 0.2 * n_max + 0.6


def _ansatz_weights(n_max: int, sigma: float, mu: float | None = None) -> np.ndarray:
    centre = n_max / 2.0 if mu is None else mu
    m = np.arange(n_max + 1, dtype=float)
    z = -((m - centre) ** 2) / (2.0 * sigma ** 2)
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def ansatz_distribution(ansatz: DiscreteGaussianAnsatz) -> InputDistribution:
    """Normalized discrete Gaussian on 0..N centered at mu (default N/2)."""
    return InputDistribution(_ansatz_weights(ansatz.n_max, ansatz.sigma, ansatz.mu))


def maximize_coherent_information(
    n_max: int, params: DephasingParams, config: OptimizerConfig | None = None
) -> CapacityResult:
    """Maximize J over the simplex on Fock levels 0..N.

    Concavity makes every local maximizer globally optimal, so one ascent
    from the symmetric discrete Gaussian of width default_sigma(N) is run.
    converged means the tangent-projected gradient norm fell below 1e-9
    or the objective change stayed under objective_tolerance.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    cfg = config if config is not None else OptimizerConfig()
    t0 = time.perf_counter()
    p0 = _ansatz_weights(n_max, default_sigma(n_max))
    outcome = _mirror_ascent(p0, params.gamma, cfg)
    q = min(max(outcome.value, 0.0), math.log2(n_max + 1))
    return CapacityResult(
        gamma=params.gamma,
        n_max=n_max,
        q_bits=q,
        p_opt=InputDistribution(outcome.p),
        iterations=outcome.iterations,
        converged=outcome.converged,
        gradient_residual=outcome.residual,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# discrete Gaussian ansatz search

def _golden_section_max(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section search for the maximum of a unimodal f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise ValueError(f"bracket failure: non-finite objective on [{lo}, {hi}]")
    while (b - a) > tol * (1.0 + abs(a) + abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def maximize_over_ansatz(n_max: int, params: DephasingParams):
    """One-dimensional maximization of J over the ansatz width sigma.

    Returns (sigma_opt, q_bits) from a golden-section search on the
    bracket [0.05, 5N].
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")

    def value(sigma: float) -> float:
        return replica._objective_bits_raw(_ansatz_weights(n_max, sigma), params.gamma)

    sigma_opt, q = _golden_section_max(value, 0.05, 5.0 * n_max)
    return sigma_opt, max(q, 0.0)


# ---------------------------------------------------------------------------
# large-gamma asymptotics

def asymptotic_capacity(p: InputDistribution, params: DephasingParams) -> float:
    """Leading large-gamma behavior of the coherent information, in bits.

    e^{-gamma} sum_m p_m p_{m+1} / (p_m - p_{m+1}) log2(p_m / p_{m+1}),
    with the removable singularity at p_m = p_{m+1} replaced by its limit
    p_m / ln 2 and zero-probability terms dropped. Accurate to relative
    order e^{-gamma}; intended for e^{-gamma/2} < 0.1.
    """
    if params.epsilon >= 0.1:
        warnings.warn(
            f"asymptotic formula is reliable for e^(-gamma/2) < 0.1; "
            f"gamma={params.gamma} gives {params.epsilon:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    w = p.p
    total = 0.0
    for m in range(w.size - 1):
        a, b = w[m], w[m + 1]
        if a == 0.0 or b == 0.0:
            continue
        if abs(a - b) < 1e-8 * max(a, b):
            total += a / _LN2
        else:
            total += a * b / (a - b) * math.log2(a / b)
    return math.exp(-params.gamma) * total


# ---------------------------------------------------------------------------
# parameter sweeps

def _sweep_point(n_max: int, gamma: float, config: OptimizerConfig) -> CapacityResult:
    t0 = time.perf_counter()
    try:
        return maximize_coherent_information(n_max, DephasingParams(gamma), config)
    except Exception as exc:  # record the failure, keep sweeping
        warnings.warn(f"sweep point (N={n_max}, gamma={gamma}) failed: {exc}", RuntimeWarning)
        return CapacityResult(
            gamma=gamma,
            n_max=n_max,
            q_bits=math.nan,
            p_opt=None,
            iterations=0,
            converged=False,
            gradient_residual=math.nan,
            wall_time=time.perf_counter() - t0,
        )


def capacity_sweep(
    gammas, n_maxes, config: OptimizerConfig | None = None
) -> list[CapacityResult]:
    """One CapacityResult per (N, gamma) pair, ordered by (N, gamma).

    Points are solved one after another; each result depends only on its
    (N, gamma) and the config, and carries its wall time.
    """
    gamma_grid = [float(g) for g in gammas]
    n_grid = [int(n) for n in n_maxes]
    if not gamma_grid or not n_grid:
        raise ValueError("gamma and N grids must be nonempty")
    cfg = config if config is not None else OptimizerConfig()
    return [_sweep_point(n, g, cfg) for n in sorted(n_grid) for g in sorted(gamma_grid)]
