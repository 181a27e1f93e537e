"""Capacity maximization over the input simplex, bounds and asymptotics.

The truncated capacity is the maximum of J(p) = H(p) - S(A(p)) over
probability vectors p on Fock levels 0..N. J is concave (the channel is
degradable) and its maximizer is a smooth interior point, so a damped
Newton ascent with the exact Hessian reaches the global optimum in a few
steps. It starts at the maximizer p_c of c(p) = lim J(p) e^gamma, the
large-gamma limit in which the capacity decays like e^-gamma
(arXiv 2007.03897). p_c hardly moves with gamma from gamma 1 on, and the
same Newton loop finds it on c in O(N) work per evaluation. Concavity also
bounds the distance to that optimum by the duality gap
max_m dJ/dp_m - p.grad J, and the ascent stops, certified, once the gap is
at most GAP_RTOL of J. J and its gradient are sums of nonnegative terms,
so they keep their relative accuracy where J is far below 1.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from . import fock, replica
from .fock import DephasingParams, InputDistribution

_LN2 = math.log(2.0)

GAP_RTOL = 1e-5
MAX_NEWTON_STEPS = 100
FD_STEP = 1e-6
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CapacityResult:
    """One optimized point: truncation N, rate gamma and the value in bits.

    gap is the duality gap at p_opt in bits, so the true truncated
    capacity lies in [q_bits, q_bits + gap] up to the rounding of J.
    error is the text of the exception that failed a sweep point (whose
    q_bits and gap are then nan), and None for a solved point.
    """

    gamma: float
    n_max: int
    q_bits: float
    p_opt: InputDistribution | None
    iterations: int
    gap: float
    error: str | None = None

    def __post_init__(self):
        if math.isnan(self.q_bits):
            return
        if self.q_bits < 0.0:
            raise ValueError(f"q_bits must be >= 0, got {self.q_bits!r}")
        if self.q_bits > math.log2(self.n_max + 1) + 1e-9:
            raise ValueError(f"q_bits {self.q_bits!r} exceeds log2(N+1)")

    @property
    def converged(self) -> bool:
        """The certificate: gap is at most GAP_RTOL * q_bits and so is J's rounding.

        J's rounding is relative 50 eps e^{gamma/2}, at most GAP_RTOL up to
        gamma 41.24. A nan gap fails the first test, so a failed point never
        converges.
        """
        if not self.gap <= GAP_RTOL * self.q_bits:
            return False
        return 50.0 * _EPS <= GAP_RTOL * math.exp(-self.gamma / 2.0)

    def mean_energy(self) -> float:
        if self.p_opt is None:
            return math.nan
        return self.p_opt.mean_energy()


@dataclass(frozen=True)
class TwoPointBound:
    """Coherent information of the equal mixture of |n> and |n+j>."""

    gamma: float
    j: int
    q_plus: float
    q_minus: float
    value_bits: float


def two_point_lower_bound(params: DephasingParams, j: int) -> TwoPointBound:
    """Lower bound 1 - H2((1 +- e)/2), e = e^{-gamma j^2/2}; independent of the base level.

    In nats the bound is (phi(1 + e) + phi(1 - e)) / 2, two terms of the
    kernel fock.phi1p, which keeps its relative accuracy as e -> 0. gamma j^2 / 2
    is one rounded quotient of exact integers, so a j whose square has no
    float still gives e = 1 at gamma 0, and e = 0 once the exponent overflows.
    j is taken as a Python int (operator.index), so a numpy integer cannot
    wrap around and a float raises TypeError.
    """
    j = operator.index(j)
    if j < 1:
        raise ValueError("j must be >= 1")
    num, den = params.gamma.as_integer_ratio()
    try:
        exponent = num * j ** 2 / (2 * den)
    except OverflowError:
        exponent = math.inf
    e = math.exp(-exponent)
    value = float(fock.phi1p(np.array([e, -e])).sum()) / (2.0 * _LN2)
    return TwoPointBound(params.gamma, j, (1.0 + e) / 2.0, (1.0 - e) / 2.0, value)


# ---------------------------------------------------------------------------
# objective, gradient and Hessian

def _objective_and_gradient(weights, gamma, levels=None):
    """(J, unprojected dJ/dp, a, V) in nats, from one eigendecomposition.

    The weights sit on the Fock levels given, 0..N by default. With
    M = D^{1/2} G D^{1/2} = V diag(a) V^T, M_mm = p_m and V orthogonal
    give dJ/dp_m = sum_l V_ml^2 phi(a_l / p_m) and J = p.grad J, for any
    positive weights, with phi(1 + u) = fock.phi1p(u) taken at the ratio
    u = (a_l - p_m) / p_m. Every term is nonnegative, so nothing cancels
    where J is far below 1. Rounding eigenvalues below 0 are set to 0. A
    zero weight makes J nan, which the ascent rejects.

    weights may be a stack of shape (..., K): one stacked eigh takes every
    row, and J has shape (...), grad (..., K), a (..., K) and V (..., K, K).
    Each row's results are bitwise those of calling it alone; a single
    (K,) vector gives J as a Python float.
    """
    if levels is None:
        levels = np.arange(weights.shape[-1])
    # fock.gram_matrix, reached through replica, where the benchmark traces it
    g_kernel = replica.gram_matrix(DephasingParams(gamma), levels)
    sq = np.sqrt(weights)
    a, v = np.linalg.eigh(sq[..., :, None] * g_kernel * sq[..., None, :])
    a = np.maximum(a, 0.0)
    u = (a[..., None, :] - weights[..., :, None]) / weights[..., :, None]
    grad = (v * v * fock.phi1p(u)).sum(axis=-1)
    # a (1, K) @ (K, 1) product per row rounds as weights @ grad does
    value = (weights[..., None, :] @ grad[..., :, None])[..., 0, 0]
    return (float(value) if value.ndim == 0 else value), grad, a, v


def coherent_information_diagonal(p: InputDistribution, params: DephasingParams) -> float:
    """J(diag p) = H(p) - S(complementary output), in bits.

    Diagonal inputs are channel fixed points, so the channel-output entropy
    is the Shannon entropy of p. The complementary output
    Omega = sum_m p_m |sqrt(gamma) m><sqrt(gamma) m| has the nonzero
    spectrum of M = D^{1/2} G D^{1/2}, G = fock.gram_matrix the overlaps of
    its coherent states, so S is read off M's (N+1) eigenvalues and no
    K x K matrix is built. J is evaluated by the cancellation-free
    kernel on the levels whose weight is above 1e-300, at their own Fock
    indices: below 4e-306, phi1p(u) at u = (a - p) / p overflows, and
    together the dropped levels add less than 1e-290 to J.
    """
    levels = np.flatnonzero(p.p > 1e-300)
    return _objective_and_gradient(p.p[levels], params.gamma, levels)[0] / _LN2


def _log_divided_difference(x, y):
    """L(x, y) = (ln x - ln y) / (x - y) elementwise, with 1/x where x = y, for x, y <= 1.

    With lo <= hi the ordered pair, L = log1p(u) / u / lo at u = (hi - lo) / lo,
    so L(x, y) == L(y, x) bitwise. u >= 0 needs no cancelling log: close
    arguments subtract exactly and log1p of u >= 0 loses nothing. Zeros are
    raised to the smallest normal float, where L stays finite, and so is u,
    where log1p(u) / u rounds to 1; hi <= 1 keeps u finite. Callers weight
    terms at a zero argument by the zero, so they add nothing.
    """
    tiny = np.finfo(float).tiny
    lo = np.maximum(np.minimum(x, y), tiny)
    u = np.maximum((np.maximum(x, y) - lo) / lo, tiny)
    return np.log1p(u) / u / lo


def _c_value(weights):
    """c(p) = sum_m p_m p_{m+1} L(p_m, p_{m+1}), the limit of J(p) e^gamma as gamma -> inf, in nats.

    A term at a zero weight is 0.
    """
    x, y = weights[:-1], weights[1:]
    return float((x * y * _log_divided_difference(x, y)).sum())


def _mirror(x):
    """x at the levels N - s for s = 0..h-1, h = ceil((N+1)/2), along the last axis.

    A centre level (N even) is its own mirror, so its slot holds 0, and
    x[..., :h] + _mirror(x) is the fold P^T x, where P maps the half
    coordinates s onto the levels s and N - s.
    """
    size = x.shape[-1]
    out = np.zeros(x.shape[:-1] + ((size + 1) // 2,))
    out[..., : size // 2] = x[..., ::-1][..., : size // 2]
    return out


def _fold(x):
    """P^T x: each level's value added to its mirror level's, on h slots."""
    return x[..., : (x.shape[-1] + 1) // 2] + _mirror(x)


# entries of one block of pair products in _hessian (256 KB)
_HESSIAN_BLOCK = 2 ** 15


def _hessian(weights, a, v):
    """P^T H P in nats: d^2 J / dp^2 on mirror-symmetric directions d = P s.

    C_km = sqrt(a_k / p_m) V_mk is the overlap of Omega's k-th eigenvector
    with coherent state m, and the full Hessian is
    H = -diag(1/p) + sum_kl L(a_k, a_l) (C_k o C_l)(C_k o C_l)^T
    (Daleckii-Krein); zero eigenvalues have C_k = 0. Folded, each pair
    contributes z z^T with z = P^T (C_k o C_l) = lo_k o lo_l + hi_k o hi_l,
    lo and hi the columns of C at the levels s and N - s. The summand is
    symmetric in (k, l), so each pair k <= l is taken once, in blocks of
    pairs whose products hold at most _HESSIAN_BLOCK entries.
    """
    c = np.sqrt(a)[:, None] * v.T / np.sqrt(weights)[None, :]
    half = (a.size + 1) // 2
    lo, hi = c[:, :half], _mirror(c)
    lam = _log_divided_difference(a[:, None], a[None, :])
    scale = np.sqrt(2.0 * lam)
    np.fill_diagonal(scale, np.sqrt(np.diag(lam)))
    hess = -np.diag(_fold(1.0 / weights))
    ks, ls = np.triu_indices(a.size)
    step = _HESSIAN_BLOCK // half
    for i in range(0, ks.size, step):
        k, l = ks[i : i + step], ls[i : i + step]
        z = lo[k] * lo[l]
        z += hi[k] * hi[l]
        z *= scale[k, l][:, None]
        hess += z.T @ z
    return hess


# Taylor coefficients of g'(1 + u) and g''(1 + u) in u, g(t) = t ln t / (t - 1),
# one row per power of u
_G_SERIES = np.array([[(-1) ** j / (j + 2), -((-1) ** j) * (j + 1) / (j + 3)] for j in range(16)])


def _g_derivatives(u):
    """g'(1 + u) and g''(1 + u) elementwise, for g(t) = t ln t / (t - 1) and u > -1.

    The closed forms g' = (u - log1p u) / u^2 and
    g'' = (u^2 / (1 + u) - 2 (u - log1p u)) / u^3 cancel to a relative
    error of about eps / |u|, so below |u| 0.05 both are the first 16 terms
    of their power series, sum_j (-u)^j / (j + 2) and
    -sum_j (-u)^j (j + 1) / (j + 3), whose tails are below 0.05^16 = 2e-21.
    """
    near = np.abs(u) < 0.05
    v = np.where(near, 1.0, u)
    r = v - np.log1p(v)
    d1 = r / (v * v)
    d2 = (v * v / (1.0 + v) - 2.0 * r) / v ** 3
    d1[near], d2[near] = (np.vander(u[near], len(_G_SERIES), increasing=True) @ _G_SERIES).T
    return d1, d2


def _c_objective_and_gradient(weights):
    """(c, unprojected dc/dp, g'' at each pair's two ratios) in nats, in O(N) work.

    Each neighbour pair (x, y) adds f(x, y) = x y L(x, y) = x g(y / x) to c.
    f is symmetric, so f_y = g'(y / x) and f_x = g'(x / y): dc/dp_m sums
    g'(p_n / p_m) over the neighbours n of m. The ratios enter as
    u = (p_n - p_m) / p_m, in which close neighbours subtract exactly. c is
    homogeneous of degree 1, so c = p.grad c, as J = p.grad J.
    """
    x, y = weights[:-1], weights[1:]
    d1, d2 = _g_derivatives(np.concatenate([(y - x) / x, (x - y) / y]))
    grad = np.zeros(weights.size)
    grad[1:] += d1[: x.size]
    grad[:-1] += d1[x.size :]
    return _c_value(weights), grad, d2


def _c_hessian(weights, d2):
    """P^T H P for c: H is tridiagonal, with f_yy = g''(y / x) / x and f_xx = g''(x / y) / y.

    Each pair's block is negative semidefinite (g'' < 0) and, as f is
    homogeneous of degree 1, annihilates (x, y): f_xy = -y f_yy / x.
    So H p = 0, as for J's Hessian.
    """
    x, y = weights[:-1], weights[1:]
    f_yy = d2[: x.size] / x
    diag = np.zeros(weights.size)
    diag[1:] += f_yy
    diag[:-1] += d2[x.size :] / y
    off = -y * f_yy / x
    hess = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return _fold(_fold(hess).T)


_C_KERNEL = (_c_objective_and_gradient, _c_hessian)


def _fd_gradient(weights, gamma):
    """Central differences of the kernel's J in bits, the check on objective_gradient.

    For any positive weights, on or off the simplex, the kernel's J equals
    H(w) - S(A(w)) (sum_l V_ml^2 a_l = w_m and tr M = sum w), so this
    differences the textbook objective through J's value alone. The result
    is projected onto the simplex tangent, as objective_gradient is. Every
    weight must exceed FD_STEP, so that no probe weight goes negative.
    """
    if weights.min() <= FD_STEP:
        raise ValueError(f"finite-difference gradient requires every p_m > {FD_STEP:g}")
    grad = np.empty(weights.size)
    for k in range(weights.size):
        hi = weights.copy()
        lo = weights.copy()
        hi[k] += FD_STEP
        lo[k] -= FD_STEP
        grad[k] = (
            _objective_and_gradient(hi, gamma)[0] - _objective_and_gradient(lo, gamma)[0]
        ) / (2.0 * FD_STEP * _LN2)
    return grad - grad.mean()


def objective_gradient(p: InputDistribution, params: DephasingParams) -> np.ndarray:
    """Gradient of J(p) = H(p) - S(A(p)) in bits, projected onto the simplex tangent.

    The tangent-space projection (component sums vanish) is the quantity
    that drives simplex ascent; unprojected gradients differ only by the
    constant multiples of the all-ones vector that normalization absorbs.
    It is the solver's analytic gradient; _fd_gradient is the check on it.
    """
    if p.p.min() <= 0.0:
        raise ValueError("gradient requires strictly positive p")
    # a weight below about 4e-306 overflows the kernel's ratios: the check raises
    with np.errstate(over="ignore", invalid="ignore"):
        grad = _objective_and_gradient(p.p, params.gamma)[1] / _LN2
    bad = np.flatnonzero(~np.isfinite(grad))
    if bad.size:
        raise ValueError(f"non-finite gradient component at index {bad[0]}")
    return grad - grad.mean()


# ---------------------------------------------------------------------------
# Newton ascent

def _newton_ascent(w: np.ndarray, kernel):
    """Damped Newton ascent on the simplex with the exact Hessian.

    kernel is the pair (evaluate, hessian) of a concave objective F that is
    homogeneous of degree 1 in the weights: evaluate(w) returns
    (F, unprojected dF/dp, *state) and hessian(w, *state) the folded
    Hessian P^T H P. It is J's, (_objective_and_gradient at one gamma,
    _hessian), or the large-gamma limit c's, _C_KERNEL. Returns
    (p, F, gap, iterations). F is invariant under m -> N - m and the start
    is symmetric, so the Newton direction is mirror-symmetric: each step
    solves the bordered system [P^T H P  e; e^T  0], e = P^T 1, for the half
    coordinates s of the direction d = P s with sum(d) = 0. Its right-hand
    side is -P^T g with g = dF/dp - F, whose maximum is the gap. The border
    absorbs the shift, but without it dF/dp's constant part, of order ln N
    for J, swamps the tangent part in the solve and in the ascent test
    g.d > 0 near the optimum. The move is multiplicative, p o exp(t d / p)
    normalized, so weights stay positive and exact levels such as the
    uniform optimum at gamma = 0 are reached; t starts at
    min(1, 4 / max|d / p|), so no weight changes by more than a factor e^4,
    and halves until F strictly increases.

    The loop stops once the gap max_m dF/dp_m - p.grad F is at most
    GAP_RTOL * F, after MAX_NEWTON_STEPS steps (a safety stop: no J solve
    on N {1, 2, 3, 4, 8, 16, 24, 32, 64, 128} x gamma {0, 0.5, ..., 40}
    takes more than 2, N 2 at gamma 0.5, and no c solve on N 1..399, 512,
    768 or 1024 more than 3), when the bordered system is singular (solve
    raises, or returns a non-finite direction, as at N 43, gamma 150) or d
    is not an ascent direction (the Hessian's tangent part is lost to
    rounding), or when no step that still changes p increases F.
    """
    evaluate, hessian = kernel
    value, grad, *state = evaluate(w)
    half = (w.size + 1) // 2
    kkt = np.zeros((half + 1, half + 1))
    kkt[-1, :-1] = kkt[:-1, -1] = _fold(np.ones(w.size))
    rhs = np.zeros(half + 1)
    iterations = 0
    while (g := grad - value).max() > GAP_RTOL * value and iterations < MAX_NEWTON_STEPS:
        kkt[:-1, :-1] = hessian(w, *state)
        rhs[:-1] = -_fold(g)
        try:
            s = np.linalg.solve(kkt, rhs)[:-1]
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(s).all():  # singular to rounding, though LAPACK did not raise
            break
        d = np.concatenate([s, s[: w.size // 2][::-1]])
        if not g @ d > 0.0:
            break
        rate = d / w
        reach = np.abs(rate).max()
        t = min(1.0, 4.0 / reach)
        while t * reach > _EPS:
            w_new = w * np.exp(t * rate)
            w_new /= w_new.sum()
            trial = evaluate(w_new)
            if trial[0] > value:
                break
            t *= 0.5
        else:
            break
        w, (value, grad, *state) = w_new, trial
        iterations += 1
    return w, value, float(g.max()), iterations


# 64 arrays of N + 1 floats, 0.5 MB if all were N 1024
@functools.lru_cache(maxsize=64)
def _start_weights(n_max: int) -> np.ndarray:
    """The large-gamma optimum p_c = argmax c, read-only, by _newton_ascent on c from sin^2.

    The Newton start is p_m proportional to cos^2(pi (m - N/2) / (N+2)) =
    sin^2(pi (m+1) / (N+2)), the square of the path graph's ground state,
    which nearly maximizes c. The cos^2 form is bitwise mirror-symmetric,
    and uniform at N = 1, so p_c is too.

    The function is its own cache, keyed on N: p_c is solved once per N
    (for the 64 most recently used N) and the same read-only array is
    returned on every later call. Every c solve on N 1..399, 512, 768 and
    1024 certifies in at most 3 steps, so the cached p_c is the certified
    optimum; a solve capped by a patched MAX_NEWTON_STEPS is cached too.
    """
    w = np.cos(math.pi * (np.arange(n_max + 1) - n_max / 2.0) / (n_max + 2)) ** 2
    w = _newton_ascent(w / w.sum(), _C_KERNEL)[0]
    w.setflags(write=False)
    return w


def default_sigma(n_max: int) -> float:
    """The paper's width fit of the optimal discrete Gaussian, sigma = 0.2 N + 0.6.

    Acceptance criterion 8 checks maximize_over_ansatz against it; the
    solver does not start from it.
    """
    return 0.2 * n_max + 0.6


def ansatz_distribution(n_max: int, sigma: float) -> InputDistribution:
    """p_m proportional to e^{-(m - N/2)^2 / (2 sigma^2)} on m = 0..N."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if not sigma > 0.0:
        raise ValueError("sigma must be > 0")
    m = np.arange(n_max + 1, dtype=float)
    z = -((m - n_max / 2.0) ** 2) / (2.0 * sigma ** 2)
    w = np.exp(z - z.max())
    return InputDistribution(w / w.sum())


def maximize_coherent_information(n_max: int, params: DephasingParams) -> CapacityResult:
    """Maximize J over the simplex on Fock levels 0..N.

    Concavity makes every local maximizer globally optimal, so one Newton
    ascent from the large-gamma optimum _start_weights(N), an lru_cache
    that solves it on the first call at each N, is run; iterations counts
    its J steps. converged means the duality gap is
    at most GAP_RTOL of J and J is accurate to GAP_RTOL. From gamma of
    about 30 on, the Hessian's tangent part, of order e^-gamma, falls
    below its rounding error, but there the start is already certified:
    J e^gamma differs from c by O(e^-gamma), and every N up to 128 takes 0
    steps at gamma 16 to 40. eigh resolves the e^{-gamma/2} couplings of M
    to about eps, so J's relative accuracy is about 50 eps e^{gamma/2};
    past gamma 41.24 that exceeds GAP_RTOL and no point is certified,
    whatever its gap.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    kernel = (lambda w: _objective_and_gradient(w, params.gamma), _hessian)
    w, value, gap, iterations = _newton_ascent(_start_weights(n_max), kernel)
    return CapacityResult(
        gamma=params.gamma,
        n_max=n_max,
        q_bits=value / _LN2,
        p_opt=InputDistribution(w),
        iterations=iterations,
        gap=gap / _LN2,
    )


# ---------------------------------------------------------------------------
# discrete Gaussian ansatz search

def _golden_section_max(f, lo: float, hi: float):
    """Golden-section search for the maximum of a unimodal f on [lo, hi], to relative 1e-10."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    if not (math.isfinite(fc) and math.isfinite(fd)):
        raise ValueError(f"bracket failure: non-finite objective on [{lo}, {hi}]")
    while (b - a) > 1e-10 * (1.0 + abs(a) + abs(b)):
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
    return _golden_section_max(
        lambda sigma: coherent_information_diagonal(ansatz_distribution(n_max, sigma), params),
        0.05,
        5.0 * n_max,
    )


# ---------------------------------------------------------------------------
# large-gamma asymptotics

def asymptotic_capacity(p: InputDistribution, params: DephasingParams) -> float:
    """Leading large-gamma behavior of the coherent information, in bits.

    e^{-gamma} sum_m p_m p_{m+1} L(p_m, p_{m+1}) / ln 2 with the log
    divided difference L(x, y) = (ln x - ln y) / (x - y), which is 1/x at
    x = y and leaves zero-probability terms 0. Accurate to relative order
    e^{-gamma}; intended for e^{-gamma/2} < 0.1.
    """
    if params.epsilon >= 0.1:
        warnings.warn(
            f"asymptotic formula is reliable for e^(-gamma/2) < 0.1; "
            f"gamma={params.gamma} gives {params.epsilon:.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return math.exp(-params.gamma) * _c_value(p.p) / _LN2


# ---------------------------------------------------------------------------
# parameter sweeps

def _sweep_point(n_max: int, gamma: float) -> CapacityResult:
    try:
        return maximize_coherent_information(n_max, DephasingParams(gamma))
    except Exception as exc:  # record the failure, keep sweeping
        warnings.warn(f"sweep point (N={n_max}, gamma={gamma}) failed: {exc}", RuntimeWarning)
        return CapacityResult(
            gamma=gamma,
            n_max=n_max,
            q_bits=math.nan,
            p_opt=None,
            iterations=0,
            gap=math.nan,
            error=str(exc),
        )


def capacity_sweep(gammas, n_maxes) -> list[CapacityResult]:
    """One CapacityResult per (N, gamma) pair, ordered by (N, gamma).

    Points are solved one after another, N-outer, and the start p_c is
    solved at most once per distinct N; each result depends only on its
    (N, gamma).
    """
    gamma_grid = [float(g) for g in gammas]
    n_grid = [int(n) for n in n_maxes]
    if not gamma_grid or not n_grid:
        raise ValueError("gamma and N grids must be nonempty")
    return [_sweep_point(n, g) for n in sorted(n_grid) for g in sorted(gamma_grid)]
