import math
import warnings

import numpy as np
import pytest

from dephcap import fock, optimize
from dephcap.fock import DephasingParams, InputDistribution, shannon_bits
from dephcap.optimize import (
    _C_KERNEL,
    _c_hessian,
    _c_objective_and_gradient,
    _fd_gradient,
    _hessian,
    _log_divided_difference,
    _newton_ascent,
    _objective_and_gradient,
    _start_weights,
    CapacityResult,
    ansatz_distribution,
    asymptotic_capacity,
    capacity_sweep,
    coherent_information_diagonal,
    default_sigma,
    maximize_coherent_information,
    maximize_over_ansatz,
    objective_gradient,
    two_point_lower_bound,
)

LN2 = math.log(2.0)


def closed_form_q2(gamma):
    """1 - H2((1 +- e^{-gamma/2})/2), the exact N=1 capacity."""
    e = math.exp(-gamma / 2.0)
    return 1.0 - shannon_bits([(1 + e) / 2.0, (1 - e) / 2.0])


def interior_distribution(rng, dim):
    while True:
        p = rng.dirichlet(np.full(dim, 5.0))
        if p.min() > 1e-3:
            return InputDistribution(p)


def project(v):
    return v - v.mean()


def mp_objective_and_gradient(weights, gamma, dps=80):
    """J and unprojected dJ/dp in nats, from the eigenpairs of M in mpmath.

    J = sum a ln a - sum p ln p and dJ/dp_m = -ln p_m + (M ln M)_mm / p_m,
    the textbook forms whose cancellation the working precision absorbs.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(dps):
        p = [mpmath.mpf(float(x)) for x in weights]
        dim = len(p)
        m = mpmath.matrix(dim, dim)
        for i in range(dim):
            for j in range(dim):
                m[i, j] = mpmath.sqrt(p[i] * p[j]) * mpmath.exp(-mpmath.mpf(gamma) * (i - j) ** 2 / 2)
        a, v = mpmath.eigsy(m)
        a_ln_a = [x * mpmath.log(x) if x > 0 else mpmath.mpf(0) for x in a]
        value = mpmath.fsum(a_ln_a) - mpmath.fsum(x * mpmath.log(x) for x in p)
        grad = [
            -mpmath.log(p[k]) + mpmath.fsum(v[k, l] ** 2 * a_ln_a[l] for l in range(dim)) / p[k]
            for k in range(dim)
        ]
        return float(value), np.array([float(g) for g in grad])


def q_inf_bits(gamma):
    """D(p_gamma || uniform) in bits for gamma >= 0.25, p_gamma the wrapped normal.

    With 2 pi p_gamma = 1 + x, x = 2 sum_n e^{-gamma n^2 / 2} cos(n phi), the
    mean over phi of (1 + x) ln(1 + x) - x = fock.phi1p(x). The terms with
    n <= ceil(sqrt(1490 / gamma)) are kept (the first one cut is below
    e^-745, which underflows), on 4n + 8 trapezoid nodes; on gamma
    0.25..40 this is within 3e-16 of the mpmath quadrature
    bench/reference.q_inf.
    """
    assert gamma >= 0.25
    n = np.arange(1, math.ceil(math.sqrt(1490.0 / gamma)) + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, 4 * n.size + 8, endpoint=False)
    x = 2.0 * np.exp(-gamma * n ** 2 / 2.0) @ np.cos(np.outer(n, phi))
    return float(np.mean(fock.phi1p(x))) / LN2


def j_ascent(n_max, gamma):
    """_newton_ascent on J's own kernel from _start_weights(N), with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kernel = (lambda w: _objective_and_gradient(w, gamma), _hessian)
        return _newton_ascent(_start_weights(n_max), kernel)


class TestTwoPointBound:
    def test_gamma_zero_is_one_bit(self):
        for j in (1, 2, 5):
            assert two_point_lower_bound(DephasingParams(0.0), j).value_bits == 1.0

    def test_unit_gamma_value(self):
        bound = two_point_lower_bound(DephasingParams(1.0), 1)
        assert bound.value_bits == pytest.approx(closed_form_q2(1.0), abs=1e-15)
        assert bound.value_bits == pytest.approx(0.2846508332892783, abs=1e-14)
        assert bound.q_plus + bound.q_minus == 1.0

    def test_decreasing_in_separation(self):
        params = DephasingParams(0.7)
        values = [two_point_lower_bound(params, j).value_bits for j in range(1, 6)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_bad_j(self):
        with pytest.raises(ValueError):
            two_point_lower_bound(DephasingParams(1.0), 0)
        with pytest.raises(TypeError):
            two_point_lower_bound(DephasingParams(1.0), 2.5)

    @pytest.mark.parametrize("j", [np.int32(70000), np.int64(4_000_000_000)])
    def test_numpy_integer_is_exact(self, j):
        # j^2 overflows both widths: the bound must not wrap around
        params = DephasingParams(1e-19)
        assert two_point_lower_bound(params, j) == two_point_lower_bound(params, int(j))

    def test_matches_high_precision_without_cancellation(self):
        mpmath = pytest.importorskip("mpmath")
        gammas = [k * 0.05 for k in range(1201)] + [1e-300, 1e-12, 1e-8, 1e-4]
        with mpmath.workdps(400):
            for gamma in gammas:
                for j in (1, 2, 3):
                    value = two_point_lower_bound(DephasingParams(gamma), j).value_bits
                    e = mpmath.exp(-mpmath.mpf(gamma) * j ** 2 / 2)
                    exact = ((1 + e) * mpmath.log(1 + e) + (1 - e) * mpmath.log(1 - e)
                             if e < 1 else 2 * mpmath.log(2)) / (2 * mpmath.log(2))
                    assert value >= 0.0
                    assert abs(value - exact) <= 1e-12 * exact, (gamma, j)


class TestObjectiveGradient:
    @pytest.mark.parametrize("n_max", [1, 2, 4, 6])
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_analytic_matches_finite_difference(self, n_max, gamma):
        rng = np.random.default_rng(100 * n_max + int(10 * gamma))
        params = DephasingParams(gamma)
        for _ in range(3):
            p = interior_distribution(rng, n_max + 1)
            ga = objective_gradient(p, params)
            gf = _fd_gradient(p.p, gamma)
            assert np.linalg.norm(ga - gf) / np.linalg.norm(gf) < 1e-6

    def test_symmetric_point_is_critical_for_two_levels(self):
        p = InputDistribution(np.array([0.5, 0.5]))
        g = objective_gradient(p, DephasingParams(1.3))
        assert g[0] == pytest.approx(g[1], abs=1e-12)
        assert np.abs(g).max() < 1e-10

    def test_gamma_zero_reduces_to_shannon_gradient(self):
        # the complementary entropy is flat on the simplex at gamma = 0, so
        # the tangent projections of grad J and grad H coincide
        rng = np.random.default_rng(7)
        p = interior_distribution(rng, 5)
        g = objective_gradient(p, DephasingParams(0.0))
        shannon_grad = -np.log2(p.p) - 1.0 / LN2
        assert np.abs(g - project(shannon_grad)).max() < 1e-9

    def test_rejects_boundary_points(self):
        p = InputDistribution(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="strictly positive"):
            objective_gradient(p, DephasingParams(1.0))
        # a weight within FD_STEP of 0 would send the lower probe negative
        p = InputDistribution(np.array([5e-7, 0.5, 0.5 - 5e-7]))
        with pytest.raises(ValueError, match="finite-difference"):
            _fd_gradient(p.p, 1.0)
        # a positive weight below the kernel's reach raises, with no numpy warning
        p = InputDistribution(np.array([0.5, 1e-310, 0.5]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                objective_gradient(p, DephasingParams(1.0))

    @pytest.mark.parametrize("weights", [[0.0, 1.0], [0.5, 0.0, 0.5], [0.3, 0.3, 0.4, 0.0]])
    def test_zero_weight_makes_value_nan(self, weights):
        # the ascent's backtracking rejects a trial step whose J is nan
        with np.errstate(divide="ignore", invalid="ignore"):
            value = _objective_and_gradient(np.array(weights), 1.0)[0]
        assert math.isnan(value)

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(8)
        p = interior_distribution(rng, 4)
        for g in (objective_gradient(p, DephasingParams(0.8)), _fd_gradient(p.p, 0.8)):
            assert abs(g.sum()) < 1e-9


class TestStackedObjective:
    # a (..., K) stack of weights goes through one eigh; each row's J, grad,
    # a and V must be bitwise those of the single-row call

    @pytest.mark.parametrize("n_max", [1, 2, 5, 8, 32, 128])
    @pytest.mark.parametrize("gamma", [0.0, 0.25, 1.0, 16.0, 40.0])
    def test_rows_bitwise_equal_single_calls(self, n_max, gamma):
        rng = np.random.default_rng(n_max)
        stack = rng.dirichlet(np.ones(n_max + 1), size=(2, 3))
        value, grad, a, v = _objective_and_gradient(stack, gamma)
        assert value.shape == (2, 3) and grad.shape == a.shape == (2, 3, n_max + 1)
        assert v.shape == (2, 3, n_max + 1, n_max + 1)
        for idx in np.ndindex(2, 3):
            row = _objective_and_gradient(stack[idx], gamma)
            assert type(row[0]) is float
            assert row[0] == value[idx]
            for single, stacked in zip(row[1:], (grad, a, v)):
                assert np.array_equal(single, stacked[idx])

    def test_single_row_value_is_weights_dot_grad(self):
        # the per-row (1, K) @ (K, 1) product rounds as weights @ grad does
        w = np.random.default_rng(3).dirichlet(np.ones(33))
        value, grad, _, _ = _objective_and_gradient(w, 1.0)
        assert value == float(w @ grad)


def mirror_fold(size):
    """P: the (N+1) x ceil((N+1)/2) 0/1 matrix mapping half coordinate s to levels s and N - s."""
    fold = np.zeros((size, (size + 1) // 2))
    for s in range(fold.shape[1]):
        fold[s, s] = fold[size - 1 - s, s] = 1.0
    return fold


class TestObjectiveHessian:
    def test_matches_finite_difference_of_gradient(self):
        # like acceptance criterion 10, one level up: central differences of
        # the analytic gradient on 50 interior points, folded onto
        # mirror-symmetric directions as P^T FD P, with and without a centre level
        rng = np.random.default_rng(102)
        worst = 0.0
        parities = set()
        for _ in range(50):
            n_max = int(rng.integers(1, 7))
            gamma = float(rng.uniform(0.3, 2.5))
            p = interior_distribution(rng, n_max + 1).p
            _, _, a, v = _objective_and_gradient(p, gamma)
            hess = _hessian(p, a, v)
            fd = np.empty((p.size, p.size))
            for k in range(p.size):
                step = np.zeros(p.size)
                step[k] = 1e-6
                hi = _objective_and_gradient(p + step, gamma)[1]
                lo = _objective_and_gradient(p - step, gamma)[1]
                fd[:, k] = (hi - lo) / 2e-6
            fold = mirror_fold(p.size)
            fd = fold.T @ fd @ fold
            worst = max(worst, float(np.linalg.norm(hess - fd) / np.linalg.norm(fd)))
            parities.add(p.size % 2)
        assert parities == {0, 1}
        assert worst < 1e-6

    @pytest.mark.parametrize("n_max", [12, 13])
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 4.0, 16.0])
    def test_symmetric_and_annihilates_p(self, gamma, n_max):
        # J is homogeneous of degree 1 in the weights, so H p = 0, and p is
        # symmetric, p = P p[:h]; each component of P^T H P p[:h] is -2 (-1
        # at a centre level) from -diag(P^T 1/p) plus terms that cancel it
        p = ansatz_distribution(n_max, 2.0).p
        _, _, a, v = _objective_and_gradient(p, gamma)
        hess = _hessian(p, a, v)
        assert hess.shape == ((n_max + 2) // 2,) * 2
        assert np.array_equal(hess, hess.T)
        assert np.abs(hess @ p[: hess.shape[0]]).max() <= 1e-13


class TestLogDividedDifference:
    def test_matches_high_precision_and_is_symmetric(self):
        # pairs spread over 1e-300..1, close pairs at relative gaps 1e-16..1e-1,
        # equal pairs (1/x) and zeros (raised to the smallest normal float)
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(7)
        spread = 10.0 ** rng.uniform(-300.0, 0.0, (2, 2000))
        base = 10.0 ** rng.uniform(-300.0, 0.0, 2000)
        close = base / (1.0 + 10.0 ** rng.uniform(-16.0, -1.0, 2000))
        equal = 10.0 ** rng.uniform(-300.0, 0.0, 200)
        zeros = np.array([0.0, 0.0, 0.0, 1e-310, np.finfo(float).tiny])
        x = np.concatenate([spread[0], base, equal, zeros])
        y = np.concatenate([spread[1], close, equal, [0.0, 1.0, 1e-300, 0.0, 0.0]])
        got = _log_divided_difference(x, y)
        assert np.array_equal(got, _log_divided_difference(y, x))
        tiny = np.finfo(float).tiny
        with mpmath.workdps(50):
            for xi, yi, value in zip(x, y, got):
                a, b = mpmath.mpf(float(max(xi, tiny))), mpmath.mpf(float(max(yi, tiny)))
                exact = 1 / a if a == b else (mpmath.log(a) - mpmath.log(b)) / (a - b)
                assert abs(value - exact) <= 1e-15 * exact, (xi, yi)


def sin2_weights(n_max):
    """p_m proportional to sin^2(pi (m+1) / (N+2)), the path graph's ground state squared."""
    w = np.sin(np.pi * np.arange(1, n_max + 2) / (n_max + 2)) ** 2
    return w / w.sum()


class TestLargeGammaKernel:
    @pytest.mark.parametrize("ratios", [
        [1.0, 1.3],
        [1.0, 1.03],
        [1.0, 1.0, 1.049, 1.051, 1 / 1.049, 1 / 1.051, 0.5, 2.7],
        [1.0, 1.0 + 1e-9, 1.0, 0.9, 1.12, 1.0, 0.04, 31.0],
    ])
    def test_value_gradient_and_hessian_match_high_precision(self, ratios):
        # c = sum_m f(p_m, p_{m+1}), f(x, y) = x y (ln x - ln y) / (x - y), in
        # 100-digit mpmath, with central differences of step 1e-30; the
        # neighbour ratios include equal pairs and pairs on both sides of the
        # series switch at |p_{m+1} / p_m - 1| = 0.05
        mpmath = pytest.importorskip("mpmath")
        w = np.cumprod(np.concatenate([[0.1], ratios]))
        value, grad, d2 = _c_objective_and_gradient(w)
        hess = _c_hessian(w, d2)
        size = w.size
        with mpmath.workdps(100):
            def c_mp(p):
                return mpmath.fsum(x * y * (mpmath.log(x) - mpmath.log(y)) / (x - y) if x != y
                                   else x for x, y in zip(p[:-1], p[1:]))

            def shifted(*steps):
                p = [mpmath.mpf(float(x)) for x in w]
                for k, sign in steps:
                    p[k] += sign * h
                return c_mp(p)

            h = mpmath.mpf(10) ** -30
            exact_value = float(shifted())
            exact_grad = np.array([float((shifted((k, 1)) - shifted((k, -1))) / (2 * h))
                                   for k in range(size)])
            full = np.array([[float((shifted((k, 1), (l, 1)) - shifted((k, 1), (l, -1))
                                     - shifted((k, -1), (l, 1)) + shifted((k, -1), (l, -1)))
                                    / (4 * h * h)) for l in range(size)] for k in range(size)])
        fold = mirror_fold(size)
        exact_hess = fold.T @ full @ fold
        assert abs(value - exact_value) <= 1e-15 * exact_value
        assert np.abs(grad - exact_grad).max() <= 1e-14 * np.abs(exact_grad).max()
        assert np.abs(hess - exact_hess).max() <= 1e-13 * np.abs(exact_hess).max()

    @pytest.mark.parametrize("n_max", [1, 2, 7, 8, 31, 32, 255, 256])
    def test_optimum_exactly_mirror_symmetric_and_certified(self, n_max):
        p = _start_weights(n_max)
        value, grad, _ = _c_objective_and_gradient(p)
        assert np.array_equal(p, p[::-1])
        assert grad.max() - value <= 1e-5 * value
        assert _newton_ascent(sin2_weights(n_max), _C_KERNEL)[3] <= 3


class TestStartCache:
    @pytest.fixture(autouse=True)
    def cold_cache(self):
        _start_weights.cache_clear()
        yield
        _start_weights.cache_clear()

    def test_every_size_certifies(self):
        # the cache keeps whatever the c solve returns, so every p_c it
        # holds must be certified: gap at most GAP_RTOL * c
        for n_max in range(1, 257):
            value, grad, _ = _c_objective_and_gradient(_start_weights(n_max))
            assert grad.max() - value <= optimize.GAP_RTOL * value, n_max

    def test_start_is_shared_read_only_c_optimum(self):
        # the cos^2 form of the sin^2 profile is the start _start_weights names
        w = np.cos(math.pi * (np.arange(65) - 32.0) / 66) ** 2
        p_c = _start_weights(64)
        assert _start_weights(64) is p_c
        assert p_c.tobytes() == _newton_ascent(w / w.sum(), _C_KERNEL)[0].tobytes()
        with pytest.raises(ValueError):
            p_c[0] = 0.0

    def test_sweep_solves_c_once_per_n(self):
        capacity_sweep([0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 40.0], [16, 4, 8])
        info = _start_weights.cache_info()
        assert (info.misses, info.hits, info.currsize) == (3, 18, 3)

    def test_cache_keeps_the_newest_sizes(self):
        for n in range(1, 70):
            _start_weights(n)
        for n in range(6, 70):
            _start_weights(n)
        info = _start_weights.cache_info()
        assert (info.misses, info.hits, info.currsize) == (69, 64, 64)


class TestObjectiveAgainstHighPrecision:
    @pytest.mark.parametrize("n_max", [1, 2, 8])
    def test_value_and_gradient_over_gamma(self, n_max):
        # eigh resolves the e^{-gamma/2} couplings of M to about eps, so the
        # relative accuracy of J and grad J is about eps e^{gamma/2}
        rng = np.random.default_rng(60 + n_max)
        points = [ansatz_distribution(n_max, default_sigma(n_max)).p,
                  interior_distribution(rng, n_max + 1).p]
        for gamma in [0.0, 0.5, 1.0, 2.0, 4.0] + list(range(8, 61, 4)):
            tol = max(1e-12, 50 * np.finfo(float).eps * math.exp(gamma / 2.0))
            for p in points:
                value, grad, _, _ = _objective_and_gradient(p, gamma)
                exact_value, exact_grad = mp_objective_and_gradient(p, gamma)
                assert abs(value - exact_value) <= tol * exact_value, (gamma, p)
                assert np.abs(grad - exact_grad).max() <= tol * np.abs(exact_grad).max()


class TestMaximizeCoherentInformation:
    def test_two_level_closed_form_across_gammas(self):
        for gamma in np.linspace(0.1, 3.0, 7):
            res = maximize_coherent_information(1, DephasingParams(float(gamma)))
            assert res.q_bits == pytest.approx(closed_form_q2(gamma), abs=1e-8)
            assert res.p_opt.p == pytest.approx([0.5, 0.5], abs=1e-4)
            assert res.converged

    def test_structure_at_n4(self):
        res = maximize_coherent_information(4, DephasingParams(0.5))
        p = res.p_opt.p
        assert p[0] < p[1] < p[2] + 1e-3
        for m in range(5):
            assert p[m] == pytest.approx(p[4 - m], abs=1e-3)
        assert res.mean_energy() == pytest.approx(2.0, abs=1e-3)

    def test_gamma_zero_gives_uniform_and_log2(self):
        res = maximize_coherent_information(3, DephasingParams(0.0))
        assert res.q_bits == pytest.approx(2.0, abs=1e-10)
        assert res.p_opt.p == pytest.approx(0.25, abs=1e-5)

    def test_deterministic_for_fixed_seed(self):
        # the solver has no seed: reruns with the default config are identical
        a = maximize_coherent_information(3, DephasingParams(0.8))
        b = maximize_coherent_information(3, DephasingParams(0.8))
        assert np.array_equal(a.p_opt.p, b.p_opt.p)
        assert a.q_bits == b.q_bits
        assert a.iterations == b.iterations

    def test_result_bounds(self):
        res = maximize_coherent_information(5, DephasingParams(0.3))
        assert 0.0 <= res.q_bits <= math.log2(6)
        assert res.gap >= 0.0

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            maximize_coherent_information(0, DephasingParams(1.0))

    def test_optimum_symmetric_with_mean_energy_half_n(self):
        # regression: best-of-restarts selection once returned an asymmetric
        # optimum here, max|p_m - p_{N-m}| = 1e-4 and <n> = 11.9958
        res = maximize_coherent_information(24, DephasingParams(3.99276))
        p = res.p_opt.p
        assert np.abs(p - p[::-1]).max() <= 1e-9
        assert abs(res.mean_energy() - 12.0) <= 1e-9

    @pytest.mark.parametrize("gamma", [1.0, 16.0])
    @pytest.mark.parametrize("n_max", [1, 2, 7, 8, 31, 32])
    def test_optimum_exactly_mirror_symmetric(self, n_max, gamma):
        # the start is symmetric and every Newton direction is d = P s
        p = maximize_coherent_information(n_max, DephasingParams(gamma)).p_opt.p
        assert np.array_equal(p, p[::-1])

    def test_certifies_every_n_at_gamma_27(self):
        # J e^gamma = c + O(e^-gamma), so the large-gamma optimum p_c is
        # certified as it stands and no Newton step is taken; from gamma 30
        # the Hessian's tangent part is lost to rounding, so none could help
        for gamma in (27.0, 30.0, 36.0, 40.0):
            for n in range(1, 129, 3):
                res = maximize_coherent_information(n, DephasingParams(gamma))
                assert res.converged, (gamma, n)
                assert res.iterations == 0, (gamma, n)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 8.0])
    @pytest.mark.parametrize("n_max", [16, 24, 32])
    def test_converged_means_relative_gap_certified(self, n_max, gamma):
        # J is concave, so max_m dJ/dp_m - p.grad J bounds the distance to the optimum
        res = maximize_coherent_information(n_max, DephasingParams(gamma))
        g = objective_gradient(res.p_opt, DephasingParams(gamma))
        gap = g.max() - res.p_opt.p @ g
        assert res.converged
        assert gap <= 1e-5 * res.q_bits
        assert res.gap == pytest.approx(gap, rel=1e-6, abs=1e-15)

    def test_gamma_sixteen_value_and_gap_match_oracle(self):
        res = maximize_coherent_information(8, DephasingParams(16.0))
        value, grad = mp_objective_and_gradient(res.p_opt.p, 16.0)
        exact_gap = (grad.max() - res.p_opt.p @ grad) / LN2
        assert res.converged
        assert res.q_bits == pytest.approx(value / LN2, rel=1e-12, abs=0.0)
        assert abs(res.gap - exact_gap) <= 1e-12 * res.q_bits
        assert exact_gap <= 1e-5 * res.q_bits

    def test_two_level_value_equals_two_point_bound(self):
        # the N = 1 optimum is (1/2, 1/2), whose J is the two-point bound
        for gamma in np.arange(0.0, 40.25, 0.25):
            res = maximize_coherent_information(1, DephasingParams(gamma))
            bound = two_point_lower_bound(DephasingParams(gamma), 1).value_bits
            tol = 1e-9 if gamma <= 30.0 else 1e-6
            assert res.q_bits == pytest.approx(bound, rel=tol, abs=0.0), gamma

    @pytest.mark.parametrize("gamma, certified", [(40.0, True), (45.0, False), (55.0, False),
                                                  (73.0, False)])
    def test_no_certificate_past_kernel_accuracy(self, gamma, certified):
        # past gamma 41.24 the J kernel's accuracy bound 50 eps e^{gamma/2}
        # exceeds GAP_RTOL, so J certifies nothing there; the solve reports
        # e^-gamma c instead, which certifies, and at N = 1 it is the
        # two-point bound, J(1/2, 1/2), to rounding
        assert optimize._past_j_accuracy(gamma) is not certified
        res = maximize_coherent_information(1, DephasingParams(gamma))
        bound = two_point_lower_bound(DephasingParams(gamma), 1).value_bits
        assert res.converged
        # at gamma 40 the value is J's, accurate to 50 eps e^20 = 5.4e-6
        tol = 1e-5 if certified else 1e-14
        assert res.q_bits == pytest.approx(bound, rel=tol, abs=0.0)

    @pytest.mark.parametrize("gamma", [32.0, 40.0])
    def test_large_gamma_values_lie_between_anchors(self, gamma):
        lower = two_point_lower_bound(DephasingParams(gamma), 1).value_bits
        upper = q_inf_bits(gamma)
        for n_max in (4, 8, 16, 24, 32):
            res = maximize_coherent_information(n_max, DephasingParams(gamma))
            p = res.p_opt.p
            assert lower <= res.q_bits <= upper, n_max
            assert np.abs(p - p[::-1]).max() <= 1e-12

    def test_newton_steps_stay_few_as_n_grows(self):
        # from the large-gamma optimum one step certifies gamma 1
        for n_max in (8, 32, 64, 128):
            res = maximize_coherent_information(n_max, DephasingParams(1.0))
            assert res.converged
            assert res.iterations <= 1, n_max

    def test_n256_certifies(self):
        res = maximize_coherent_information(256, DephasingParams(1.0))
        assert res.converged
        assert res.gap <= 1e-5 * res.q_bits
        assert res.iterations <= 1

    @pytest.mark.parametrize("n_max, c_table", [(1, 0.5), (2, 0.6965903342), (8, 0.9426122908),
                                                (32, 0.9945453010), (128, 0.9996150513),
                                                (256, 0.9999017160)])
    def test_start_and_optimum_in_path_graph_bracket(self, n_max, c_table):
        # J e^gamma -> c(p) = sum_m p_m p_{m+1} L(p_m, p_{m+1}), and L(x, y) <= 1/sqrt(xy)
        # (log mean >= geometric mean) bounds c by the path graph's Rayleigh
        # quotient, so c(p_sin) <= c_N <= cos(pi/(N+2)), all 1/2 at N 1. c_N
        # is read from the c solve; J e^26 matches it up to the series'
        # O(e^-26) tail and J's rounding, which put it 2e-12 below 1/2 at N 1.
        params = DephasingParams(26.0)
        scale = LN2 * math.exp(26.0)
        c_sin = asymptotic_capacity(InputDistribution(sin2_weights(n_max)), params) * scale
        p_c, c_n, _, _ = _newton_ascent(sin2_weights(n_max), _C_KERNEL)
        res = maximize_coherent_information(n_max, params)
        slack = 1.0 + 1e-15
        assert c_sin <= c_n * slack
        assert c_n <= math.cos(math.pi / (n_max + 2)) * slack
        assert c_n == pytest.approx(c_table, rel=1e-10, abs=0.0)
        assert asymptotic_capacity(InputDistribution(p_c), params) * scale == pytest.approx(
            c_n, rel=1e-15, abs=0.0)
        assert res.converged
        assert res.q_bits * scale == pytest.approx(c_n, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_max, gamma", [(3, 300.0), (16, 132.0), (24, 150.0),
                                              (32, 200.0), (64, 300.0)])
    def test_singular_newton_system_ends_uncertified(self, n_max, gamma):
        # far past J's accuracy limit, where the solver runs on c instead,
        # J's folded Hessian loses its tangent part to rounding and the
        # bordered system is singular: the ascent stops there as at a
        # direction that does not ascend, and returns a symmetric point
        w, value, gap, _ = j_ascent(n_max, gamma)
        assert gap > optimize.GAP_RTOL * value
        assert 0.0 <= value <= math.log(n_max + 1)
        assert np.array_equal(w, w[::-1])
        # the solve itself is certified
        assert maximize_coherent_information(n_max, DephasingParams(gamma)).converged

    def test_value_dominates_two_point_bound(self):
        for gamma in (0.25, 1.0, 2.0):
            res = maximize_coherent_information(3, DephasingParams(gamma))
            bound = two_point_lower_bound(DephasingParams(gamma), 1)
            assert res.q_bits >= bound.value_bits - 1e-9

    def test_non_finite_newton_direction_ends_uncertified(self):
        # on J at N 43, gamma 150 the bordered system is finite, but LAPACK's
        # solve returns a non-finite direction on the second step without
        # raising: the ascent stops as at a singular system (j_ascent lets
        # no warning leak)
        w, value, gap, _ = j_ascent(43, 150.0)
        assert gap > optimize.GAP_RTOL * value
        assert 0.0 <= value <= math.log(44)
        assert np.array_equal(w, w[::-1])


class TestLineSearch:
    # from p_c the step is halved only where J is rounding noise, gamma >= 60

    @staticmethod
    def ascent(n_max, gamma):
        """(start weights, result of _newton_ascent, J at every evaluation) on J at gamma."""
        values = []

        def evaluate(w):
            out = _objective_and_gradient(w, gamma)
            values.append(out[0])
            return out

        start = _start_weights(n_max)
        return start, _newton_ascent(start, (evaluate, _hessian)), values

    def test_halves_until_the_objective_increases(self):
        _, (w, value, gap, iterations), values = self.ascent(15, 80.0)
        # one evaluation at the start and one per accepted step: the rest were rejected
        assert len(values) - 1 - iterations > 0
        assert value >= values[0]
        assert np.isfinite(w).all() and math.isfinite(value) and math.isfinite(gap)

    def test_stops_when_no_step_changes_p_upward(self):
        # the direction is rounding-sized: every trial that still moves p
        # lowers J, so the ascent returns its start unchanged
        start, (w, value, _, iterations), values = self.ascent(14, 80.0)
        assert iterations == 0
        assert len(values) > 1
        assert all(v <= values[0] for v in values[1:])
        assert np.array_equal(w, start) and value == values[0]


class TestCapacityResultValidation:
    def test_rejects_negative_q(self):
        with pytest.raises(ValueError):
            CapacityResult(1.0, 1, -0.5, InputDistribution(np.full(2, 0.5)), 1, 0.0)

    def test_rejects_q_above_log2(self):
        with pytest.raises(ValueError):
            CapacityResult(1.0, 1, 1.5, InputDistribution(np.full(2, 0.5)), 1, 0.0)

    def test_nan_only_when_not_converged(self):
        # converged is computed from q_bits and gap, so a nan result cannot claim it
        for gap in (0.0, math.nan):
            res = CapacityResult(1.0, 1, math.nan, None, 0, gap)
            assert res.converged is False
            assert math.isnan(res.mean_energy())


class TestAnsatz:
    def test_normalization_is_tight(self):
        p = ansatz_distribution(6, 1.3)
        assert abs(p.p.sum() - 1.0) < 1e-14

    def test_large_sigma_is_uniform(self):
        p = ansatz_distribution(4, 1e6)
        assert p.p == pytest.approx(0.2, abs=1e-9)

    def test_small_sigma_is_point_mass_even_n(self):
        p = ansatz_distribution(4, 1e-3)
        assert p.p[2] == pytest.approx(1.0, abs=1e-12)

    def test_odd_n_center_pair_equal_and_maximal(self):
        p = ansatz_distribution(5, 0.9).p
        assert p[2] == p[3]
        assert p[2] == p.max()

    def test_symmetry(self):
        p = ansatz_distribution(7, 1.7).p
        assert np.array_equal(p, p[::-1])

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ansatz_distribution(3, 0.0)


class TestMaximizeOverAnsatz:
    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("n_max", [2, 3, 5])
    def test_matches_full_optimum(self, n_max, gamma):
        params = DephasingParams(gamma)
        _, q_ansatz = maximize_over_ansatz(n_max, params)
        q_full = maximize_coherent_information(n_max, params).q_bits
        assert abs(q_full - q_ansatz) < 1e-3
        assert q_ansatz <= q_full + 1e-9

    def test_sigma_near_fit_line(self):
        for n_max in (2, 3, 4, 5):
            sigma, _ = maximize_over_ansatz(n_max, DephasingParams(1.0))
            fit = default_sigma(n_max)
            assert abs(sigma - fit) <= 0.25 * fit

    def test_gamma_zero_runs_to_bracket_top(self):
        # uniform is optimal, reached as sigma -> inf; the search saturates the bracket
        sigma, q = maximize_over_ansatz(3, DephasingParams(0.0))
        assert sigma > 0.99 * 15.0
        assert q == pytest.approx(2.0, abs=1e-4)

    @pytest.mark.parametrize("n_max, sigma", [(4, 0.0522), (4, 0.0533), (5, 0.0636), (64, 0.3)])
    def test_value_finite_where_tail_weights_underflow(self, n_max, sigma):
        # tail weights here are 0 or subnormal, where phi(a / p) overflows to inf or nan
        p = ansatz_distribution(n_max, sigma)
        assert p.p.min() < 1e-300
        value = coherent_information_diagonal(p, DephasingParams(1.0))
        assert math.isfinite(value) and 0.0 <= value <= math.log2(n_max + 1)

    @pytest.mark.parametrize("gamma", [30.0, 40.0])
    @pytest.mark.parametrize("n_max", [4, 8, 9, 16])
    def test_large_gamma_value_between_anchors(self, n_max, gamma):
        # J is of order e^-gamma here, far below the rounding of H(p) - S(A)
        params = DephasingParams(gamma)
        sigma, q = maximize_over_ansatz(n_max, params)
        assert two_point_lower_bound(params, 1).value_bits <= q <= q_inf_bits(gamma)
        fit = default_sigma(n_max)
        assert abs(sigma - fit) <= 0.25 * fit

    @pytest.mark.parametrize("gamma", [60.0, 100.0, 300.0])
    @pytest.mark.parametrize("n_max", [2, 8, 32])
    def test_value_between_anchors_past_kernel_accuracy(self, n_max, gamma):
        # past gamma 41.24 the search maximizes e^-gamma c, as the solver
        # does, so the best Gaussian stays below the certified optimum
        params = DephasingParams(gamma)
        _, q = maximize_over_ansatz(n_max, params)
        res = maximize_coherent_information(n_max, params)
        assert two_point_lower_bound(params, 1).value_bits <= q
        assert q <= min(res.q_bits + res.gap, q_inf_bits(gamma))


class TestOptimumShape:
    # the paper calls the optimum a discrete Gaussian; from N 32 on the
    # parameter-free sin^2 profile, the large-gamma shape, fits it better

    @pytest.mark.parametrize("gamma", [1.0, 16.0])
    def test_spread_tends_to_the_sin2_value(self, gamma):
        # sin^2(pi x) on [0, 1] has variance 1/12 - 1/(2 pi^2); measured
        # +0.56 % at N 128 (+2.0 % at N 32, +5.0 % at N 8)
        n_max = 128
        p = maximize_coherent_information(n_max, DephasingParams(gamma)).p_opt.p
        sd = math.sqrt(p @ (np.arange(n_max + 1) - n_max / 2.0) ** 2)
        continuum = (n_max + 2) * math.sqrt(1.0 / 12.0 - 1.0 / (2.0 * math.pi ** 2))
        assert sd == pytest.approx(continuum, rel=0.01)

    @staticmethod
    def shortfalls(n_max, gamma):
        """(q - J(p)) / q for the best discrete Gaussian and for sin^2."""
        params = DephasingParams(gamma)
        q = maximize_coherent_information(n_max, params).q_bits
        q_sin2 = coherent_information_diagonal(InputDistribution(sin2_weights(n_max)), params)
        q_gauss = maximize_over_ansatz(n_max, params)[1]
        return np.array([q - q_gauss, q - q_sin2]) / q

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 16.0])
    @pytest.mark.parametrize("n_max", [32, 128])
    def test_sin2_falls_shorter_of_q_than_the_best_gaussian(self, n_max, gamma):
        # relative shortfalls below q: sin^2 4.2e-5 to 2.4e-4 at N 32 and
        # 8.4e-7 to 5.1e-6 at N 128, the best Gaussian 7.7e-4 to 8.6e-4 and
        # 1.4e-4 to 2.0e-4; at N 8, gamma 0.25 the Gaussian wins
        gauss, sin2 = self.shortfalls(n_max, gamma)
        assert 0.0 < sin2 < gauss

    @pytest.mark.parametrize("n_max", [8, 32, 128])
    def test_shortfalls_hardly_change_with_gamma(self, n_max):
        # shortfalls at gamma 16 over gamma 1, measured: best Gaussian
        # 0.968, 0.924, 0.909 and sin^2 0.882, 0.874, 0.874 at N 8, 32, 128
        ratios = self.shortfalls(n_max, 16.0) / self.shortfalls(n_max, 1.0)
        assert np.all(np.abs(ratios - 1.0) <= 0.15), ratios


class TestAsymptoticCapacity:
    def test_two_level_limit_value(self):
        p = InputDistribution(np.array([0.5, 0.5]))
        value = asymptotic_capacity(p, DephasingParams(8.0))
        assert value == pytest.approx(math.exp(-8.0) / (2.0 * LN2), rel=1e-12)

    def test_uniform_hits_removable_singularity(self):
        p = InputDistribution(np.full(5, 0.2))
        value = asymptotic_capacity(p, DephasingParams(9.0))
        assert value == pytest.approx(math.exp(-9.0) * 4 * 0.2 / LN2, rel=1e-12)

    def test_zero_probability_terms_dropped(self):
        p = InputDistribution(np.array([0.5, 0.0, 0.5]))
        assert asymptotic_capacity(p, DephasingParams(8.0)) == 0.0

    def test_general_terms(self):
        p = InputDistribution(np.array([0.6, 0.4]))
        expected = math.exp(-7.0) * (0.6 * 0.4 / 0.2) * math.log2(1.5)
        assert asymptotic_capacity(p, DephasingParams(7.0)) == pytest.approx(expected, rel=1e-12)

    def test_matches_two_point_bound_at_large_gamma(self):
        gamma = 8.0
        p = InputDistribution(np.array([0.5, 0.5]))
        asym = asymptotic_capacity(p, DephasingParams(gamma))
        exact = two_point_lower_bound(DephasingParams(gamma), 1).value_bits
        assert abs(exact - asym) / math.exp(-gamma) < 1e-3

    def test_warns_at_small_gamma(self):
        p = InputDistribution(np.array([0.5, 0.5]))
        with pytest.warns(RuntimeWarning, match="reliable"):
            asymptotic_capacity(p, DephasingParams(1.0))

    def test_matches_optimizer_at_large_gamma(self):
        for gamma in (6.0, 8.0):
            for n_max in (1, 2, 3):
                res = maximize_coherent_information(n_max, DephasingParams(gamma))
                asym = asymptotic_capacity(res.p_opt, DephasingParams(gamma))
                assert abs(asym - res.q_bits) / res.q_bits < 0.05


class TestCapacitySweep:
    def test_monotone_decreasing_in_gamma(self):
        results = capacity_sweep([0.25, 0.5, 1.0, 2.0], [3])
        values = [r.q_bits for r in results]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_nondecreasing_in_n(self):
        results = capacity_sweep([1.0], [1, 2, 3, 4])
        values = [r.q_bits for r in results]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_sorted_by_n_then_gamma(self):
        results = capacity_sweep([1.0, 0.25], [2, 1])
        keys = [(r.n_max, r.gamma) for r in results]
        assert keys == [(1, 0.25), (1, 1.0), (2, 0.25), (2, 1.0)]

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            capacity_sweep([], [1])

    def test_point_failure_recorded_and_sweep_continues(self):
        with pytest.warns(RuntimeWarning, match="failed"):
            results = capacity_sweep([-1.0, 0.5], [1])
        assert len(results) == 2
        failed = [r for r in results if math.isnan(r.q_bits)]
        good = [r for r in results if not math.isnan(r.q_bits)]
        assert len(failed) == 1 and not failed[0].converged
        assert len(good) == 1 and good[0].converged


@pytest.mark.parametrize("gamma", [0.0, 0.01, 0.25, 1.0, 4.0, 16.0, 40.0, 60.0, 100.0, 300.0])
def test_north_star_grid(gamma):
    # every point certifies, lies between the two-point bound and the
    # unconstrained capacity q_inf (log2(N+1) below gamma 0.25), grows with
    # N up to the gap, and has a bitwise mirror-symmetric optimum. At N 1
    # q_bits is the two-point bound up to J's rounding (6.8e-8 relative at
    # gamma 40), so the lower check allows the certificate's GAP_RTOL.
    params = DephasingParams(gamma)
    lower = two_point_lower_bound(params, 1).value_bits
    results = [maximize_coherent_information(n, params) for n in (1, 8, 64, 256)]
    for res in results:
        upper = q_inf_bits(gamma) if gamma >= 0.25 else math.log2(res.n_max + 1)
        p = res.p_opt.p
        assert res.converged, res.n_max
        assert lower <= res.q_bits * (1.0 + optimize.GAP_RTOL), res.n_max
        assert res.q_bits <= upper, res.n_max
        assert np.array_equal(p, p[::-1]), res.n_max
    for small, large in zip(results, results[1:]):
        assert small.q_bits <= large.q_bits + large.gap, large.n_max


def test_optimum_is_concave_certificate():
    # at the reported optimum, J dominates nearby feasible points
    params = DephasingParams(0.7)
    res = maximize_coherent_information(4, params)
    rng = np.random.default_rng(12)
    for _ in range(20):
        q = rng.dirichlet(np.ones(5))
        assert coherent_information_diagonal(InputDistribution(q), params) <= res.q_bits + 1e-8


@pytest.mark.parametrize("n_max, gamma", [(16, 1.0), (64, 1.0), (128, 1.0), (40, 4.0)])
def test_no_input_beats_the_certificate(n_max, gamma):
    # Proposition 1 and the duality gap together: no state, coherent or not,
    # has J above q_bits + gap. The mixtures run from a Ginibre state to a
    # point 1e-4 away from the certified diagonal optimum.
    params = DephasingParams(gamma)
    res = maximize_coherent_information(n_max, params)
    assert res.converged
    sigma = fock.random_density_matrix(n_max + 1, np.random.default_rng(n_max)).entries
    for t in (1.0, 0.1, 0.01, 1e-4):
        rho = fock.FockDensityMatrix((1.0 - t) * np.diag(res.p_opt.p) + t * sigma)
        assert fock.coherent_information(rho, params) <= res.q_bits + res.gap, t
