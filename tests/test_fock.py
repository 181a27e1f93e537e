import dataclasses
import inspect
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephcap import fock
from dephcap.fock import (
    DephasingParams,
    FockDensityMatrix,
    TruncationError,
    apply_dephasing,
    complementary_output,
    diagonal_state,
    dilation_oracle,
    environment_amplitudes,
    evolve_master_equation,
    kraus_apply,
    phase_average_oracle,
    phase_rotate,
    random_density_matrix,
)


def plus_state():
    """Uniform superposition of |0> and |1>: all matrix entries 1/2."""
    return FockDensityMatrix(np.full((2, 2), 0.5))


def fock_state(n, dim):
    """|n><n| on a dim-dimensional truncated space."""
    return FockDensityMatrix(np.diag(np.eye(dim)[n]))


def closed_form(rho, gamma):
    """Independent elementwise oracle for the channel action."""
    n = np.arange(rho.dim)
    return np.exp(-gamma * np.subtract.outer(n, n) ** 2 / 2.0) * rho.entries


def compose(g1, g2, rho):
    """(N_g2(N_g1(rho)), N_{g1+g2}(rho)) for the semigroup identity."""
    composed = apply_dephasing(apply_dephasing(rho, DephasingParams(g1)), DephasingParams(g2))
    return composed, apply_dephasing(rho, DephasingParams(g1 + g2))


def assert_valid_state(mat):
    assert abs(np.trace(mat) - 1.0) < 1e-10
    assert np.abs(mat - mat.conj().T).max() < 1e-10
    assert np.linalg.eigvalsh(mat).min() > -1e-10


class TestDomainTypes:
    def test_gamma_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            DephasingParams(-0.1)

    def test_epsilon(self):
        assert DephasingParams(2.0).epsilon == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_density_matrix_rejects_nonhermitian(self):
        m = np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="Hermitian"):
            FockDensityMatrix(m)

    def test_density_matrix_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            FockDensityMatrix(np.eye(2, dtype=complex))

    def test_density_matrix_rejects_negative(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            FockDensityMatrix(m)

    def test_density_matrix_rejects_non_finite(self):
        # every comparison with nan is false, so the other checks pass it
        with pytest.raises(ValueError, match="finite"):
            FockDensityMatrix(np.array([[math.nan, 0.0], [0.0, 1.0]]))

    def test_entries_frozen(self):
        rho = fock_state(0, 3)
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 2.0

    def test_spectrum_is_the_positivity_check_eigenvalues(self):
        rng = np.random.default_rng(9)
        for dim in (1, 2, 5, 9):
            rho = random_density_matrix(dim, rng)
            assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.entries))
            with pytest.raises(ValueError):
                rho.spectrum[0] = 2.0
        # derived from the entries: not an init argument and not part of ==
        with pytest.raises(TypeError):
            FockDensityMatrix(np.eye(1), spectrum=np.ones(1))
        (spectrum,) = [f for f in dataclasses.fields(FockDensityMatrix) if f.name == "spectrum"]
        assert not spectrum.init and not spectrum.compare

    def test_entropy_bits_of_maximally_mixed_state(self):
        rho = FockDensityMatrix(np.eye(4) / 4.0)
        assert rho.entropy_bits() == pytest.approx(2.0, abs=1e-14)
        assert fock_state(2, 4).entropy_bits() == 0.0

    def test_entries_dtype_follows_input(self):
        assert FockDensityMatrix(np.eye(2) / 2).entries.dtype == np.float64
        assert FockDensityMatrix(np.eye(2, dtype=complex) / 2).entries.dtype == np.complex128
        assert FockDensityMatrix([[1]]).entries.dtype == np.float64
        assert FockDensityMatrix([[0.5, 0.5j], [-0.5j, 0.5]]).entries.dtype == np.complex128
        assert diagonal_state([0.25, 0.75]).entries.dtype == np.float64
        assert random_density_matrix(3, np.random.default_rng(0)).entries.dtype == np.complex128

    def test_equality_is_identity(self):
        # a field-wise == would compare ndarrays and raise for any dim > 1
        rng = np.random.default_rng(1)
        a, b = random_density_matrix(3, rng), random_density_matrix(3, rng)
        twin = FockDensityMatrix(a.entries)
        assert a == a and not a == twin and a != b
        assert len({a, twin}) == 2

    def test_coherent_vector_matches_definition(self):
        # column m of the environment table is the real coherent state |sqrt(gamma) m>
        gamma = 0.7
        table = environment_amplitudes(DephasingParams(gamma), 3)
        assert table.dtype == np.float64
        for m in range(4):
            alpha = math.sqrt(gamma) * m
            direct = np.array(
                [
                    math.exp(-gamma * m ** 2 / 2.0) * alpha ** k / math.sqrt(math.factorial(k))
                    for k in range(table.shape[0])
                ]
            )
            assert np.abs(table[:, m] - direct).max() < 1e-14, m


class TestPhi1p:
    # both sides of the series switch at |u| = 0.1, the endpoints, and
    # points where (1 + u) ln(1 + u) and u cancel to all but a few digits
    POINTS = [-1.0, -1.0 + 1e-12, -0.5, 0.0999, -0.0999, 0.1, -0.1, 0.1001, -0.1001,
              1e-8, -1e-8, 1e-300, -1e-300, 1.0, 10.0, 1e6]

    def test_matches_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        values = fock.phi1p(np.array(self.POINTS))
        with mpmath.workdps(80):
            for u, value in zip(self.POINTS, values):
                x = 1 + mpmath.mpf(u)
                exact = float(x * mpmath.log(x) - x + 1 if x > 0 else mpmath.mpf(1))
                # phi(1 +- 1e-300) = 5e-601 rounds to 0.0 in double
                assert abs(value - exact) <= 1e-14 * exact, u


class TestApplyDephasing:
    def test_gamma_zero_is_identity(self):
        rng = np.random.default_rng(0)
        rho = random_density_matrix(5, rng)
        out = apply_dephasing(rho, DephasingParams(0.0))
        assert np.abs(out.entries - rho.entries).max() == 0.0

    def test_diagonal_preserved_exactly(self):
        rng = np.random.default_rng(1)
        for gamma in (0.3, 1.0, 4.0):
            rho = random_density_matrix(6, rng)
            out = apply_dephasing(rho, DephasingParams(gamma))
            assert np.array_equal(out.diagonal(), rho.diagonal())

    def test_plus_state_off_diagonal_factor(self):
        out = apply_dephasing(plus_state(), DephasingParams(1.0))
        expected = 0.5 * math.exp(-0.5)  # = 0.3032653298563167
        assert out.entries[0, 1].real == pytest.approx(expected, abs=1e-15)
        assert out.entries[0, 1].imag == 0.0

    def test_output_is_valid_state(self):
        rng = np.random.default_rng(2)
        out = apply_dephasing(random_density_matrix(6, rng), DephasingParams(0.8))
        assert_valid_state(out.entries)


class TestKraus:
    def test_gamma_zero_operators(self):
        table = environment_amplitudes(DephasingParams(0.0), 3)
        assert np.array_equal(table[0], np.ones(4))
        assert np.abs(table[1:]).max() == 0.0

    def test_adaptive_matches_closed_form(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(4, rng)
        out = kraus_apply(rho, DephasingParams(0.7))
        assert np.abs(out.entries - closed_form(rho, 0.7)).max() < 1e-12

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0])
    @pytest.mark.parametrize("n_max", [1, 3, 5])
    def test_truncation_tail_is_poisson_tail_below_bound(self, n_max, gamma):
        # independent oracle: the upper tail of Poisson(gamma m^2) beyond the
        # table's K rows is the mass column m misses
        rows = environment_amplitudes(DephasingParams(gamma), n_max).shape[0]
        for m in range(n_max + 1):
            lam = gamma * m ** 2
            tail = sum(
                math.exp(-lam + k * math.log(lam) - math.lgamma(k + 1)) if lam > 0 else 0.0
                for k in range(rows, rows + 400)
            )
            assert tail <= 1e-12, m

    def test_explicit_truncation_too_small_raises(self, monkeypatch):
        # at gamma 1, N 32 the rounded completeness sums stay up to 9e-16 from 1,
        # so a 1e-20 bound is never met: the table must refuse rather than
        # return a short Kraus sum
        monkeypatch.setattr(fock, "DEFAULT_RESIDUAL_BOUND", 1e-20)
        environment_amplitudes.cache_clear()
        with pytest.raises(TruncationError, match="residual"):
            environment_amplitudes(DephasingParams(1.0), 32)

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0, 4.0])
    def test_one_pass_row_count(self, gamma):
        n_max = 1
        while gamma * n_max ** 2 <= 1024:
            lam = gamma * n_max ** 2
            j_max = math.ceil(lam + 10.0 * math.sqrt(lam + 1.0) + 10.0)
            assert environment_amplitudes(DephasingParams(gamma), n_max).shape[0] == j_max + 1
            n_max += 1

    def test_magnitudes_match_mpmath_poisson(self):
        # <k|sqrt(gamma) m> = sqrt(Poisson(k; gamma m^2)), in 30-digit arithmetic
        mpmath = pytest.importorskip("mpmath")
        gamma, n_max = 1.0, 32
        mag = np.abs(environment_amplitudes(DephasingParams(gamma), n_max))
        worst = 0.0
        with mpmath.workdps(30):
            for m in range(1, n_max + 1):
                lam = mpmath.mpf(gamma * m ** 2)
                for k in map(int, np.flatnonzero(mag[:, m] > 1e-150)):
                    exact = mpmath.exp((k * mpmath.log(lam) - lam - mpmath.loggamma(k + 1)) / 2)
                    worst = max(worst, float(abs(mag[k, m] / exact - 1)))
        assert worst <= 5e-12

    def test_rounding_failure_raises_at_once(self, monkeypatch):
        # a 1e-20 bound is past the rounding of the gamma N^2 = 6400 table: it
        # must raise after one pass, not grow toward a larger table first, and a
        # failed build is not cached, so every call builds and raises
        monkeypatch.setattr(fock, "DEFAULT_RESIDUAL_BOUND", 1e-20)
        environment_amplitudes.cache_clear()
        tracemalloc.start()
        try:
            for _ in range(2):
                with pytest.raises(TruncationError, match="residual"):
                    environment_amplitudes(DephasingParams(4.0), 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        info = environment_amplitudes.cache_info()
        assert (info.misses, info.currsize) == (2, 0)
        assert peak < 64e6

    def test_build_peak_near_table_size(self):
        # the log magnitudes are written in row blocks and exponentiated in
        # place, so building the 18 MB table at N 128, gamma 1 (uncached)
        # traces little beyond the table itself
        tracemalloc.start()
        try:
            table = environment_amplitudes.__wrapped__(DephasingParams(1.0), 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * table.nbytes

    @pytest.mark.parametrize("gamma, n_max", [(1.0, 32), (1.0, 64), (1.0, 128), (4.0, 40)])
    def test_saddle_point_table_complete_to_rounding(self, gamma, n_max):
        # every column's completeness sum, read off the returned table
        table = environment_amplitudes(DephasingParams(gamma), n_max)
        assert np.abs(1.0 - (table ** 2).sum(axis=0)).max() <= 1e-14

    def test_stirling_delta_matches_mpmath(self):
        # delta(k) = ln k! - (k + 1/2) ln k + k - ln(2 pi)/2 on both sides of
        # the lgamma / series switch at 15 | 16, and far into the series
        mpmath = pytest.importorskip("mpmath")
        ks = [1, 2, 14, 15, 16, 17, 1000, 10000]
        got = fock._stirling_delta(np.array(ks))
        with mpmath.workdps(40):
            for k, value in zip(ks, got):
                exact = mpmath.loggamma(k + 1) - (k + mpmath.mpf(0.5)) * mpmath.log(k) + k \
                    - mpmath.log(2 * mpmath.pi) / 2
                assert abs(value - exact) <= 1e-14, k
                if k >= 16:
                    assert abs(value / exact - 1) <= 1e-13, k

    def test_matches_lgamma_table(self):
        # the table of the direct form -lam + k ln lam - ln k!, which holds
        # its 1e-12 bound up to gamma N^2 of about 2,000
        gamma, n_max = 1.0, 32
        table = environment_amplitudes(DephasingParams(gamma), n_max)
        m = np.arange(n_max + 1, dtype=float)
        k = np.arange(table.shape[0])
        log_fact = np.array([math.lgamma(j + 1.0) for j in k])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_amp = np.where(m > 0.0, np.log(np.sqrt(gamma) * m), -np.inf)
            log_mag = -gamma * m[None, :] ** 2 / 2.0 + k[:, None] * log_amp[None, :] \
                - 0.5 * log_fact[:, None]
        log_mag[0, :] = -gamma * m ** 2 / 2.0
        assert np.abs(table - np.exp(log_mag)).max() <= 1e-13

    def test_nan_table_raises(self):
        # at a subnormal gamma k / lam overflows and phi1p returns nan; the
        # defect check must refuse that table, not pass the nan through
        with np.errstate(all="ignore"), pytest.raises(TruncationError, match="nan"):
            environment_amplitudes(DephasingParams(1e-320), 1)

    def test_table_is_cached_read_only(self):
        params = DephasingParams(0.9)
        table = environment_amplitudes(params, 4)
        assert environment_amplitudes(DephasingParams(0.9), 4) is table
        with pytest.raises(ValueError):
            table[0, 0] = 2.0

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0, 4.0])
    def test_kraus_sum_matches_closed_form_real_and_complex(self, gamma):
        rng = np.random.default_rng(22)
        params = DephasingParams(gamma)
        for dim in (2, 5, 8):
            for rho in (random_density_matrix(dim, rng), diagonal_state(rng.dirichlet(np.ones(dim))),
                        FockDensityMatrix(np.full((dim, dim), 1.0 / dim))):
                out = kraus_apply(rho, params)
                assert out.entries.dtype == rho.entries.dtype
                assert np.abs(out.entries - closed_form(rho, gamma)).max() < 1e-12


class TestMasterEquation:
    def test_fock_states_invariant(self):
        for n in range(4):
            rho = fock_state(n, 4)
            out = evolve_master_equation(rho, DephasingParams(2.5))
            assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_matches_closed_form_at_t_equals_gamma(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(4, rng)
        out = evolve_master_equation(rho, DephasingParams(1.0))
        assert np.abs(out.entries - closed_form(rho, 1.0)).max() < 1e-8

    def test_order_four_convergence(self, monkeypatch):
        rng = np.random.default_rng(6)
        rho = random_density_matrix(4, rng)
        params = DephasingParams(1.0)
        exact = closed_form(rho, 1.0)
        errors = []
        for steps in (24, 48):
            monkeypatch.setattr(fock, "_rk4_steps", lambda gamma, dim: steps)
            errors.append(np.abs(evolve_master_equation(rho, params).entries - exact).max())
        assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.25)

    def test_step_within_stability_limit(self):
        # the derived step never leaves RK4's real-axis stability interval,
        # h L <= 2.785, on the stiffest mode L = (dim - 1)^2 / 2
        for dim in (2, 5, 8, 33, 129):
            for gamma in (1e-14, 1e-6, 0.01, 1.0, 4.0, 50.0, 1e4):
                h = gamma / fock._rk4_steps(gamma, dim)
                assert h * (dim - 1) ** 2 / 2.0 <= 2.785

    @pytest.mark.parametrize("steps", [1, 2, 24, 200])
    def test_matches_explicit_rk4_loop(self, steps, monkeypatch):
        # the four-stage RK4 step loop on the elementwise generator, written out
        rho = random_density_matrix(5, np.random.default_rng(12))
        t, n = 0.25, np.arange(5)
        gen = -0.5 * np.subtract.outer(n, n) ** 2
        h = t / steps
        r = rho.entries
        for _ in range(steps):
            k1 = gen * r
            k2 = gen * (r + 0.5 * h * k1)
            k3 = gen * (r + 0.5 * h * k2)
            k4 = gen * (r + h * k3)
            r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        monkeypatch.setattr(fock, "_rk4_steps", lambda gamma, dim: steps)
        out = evolve_master_equation(rho, DephasingParams(t))
        assert np.abs(out.entries - r).max() <= 1e-14


class TestSemigroupAndCovariance:
    def test_identity_element(self):
        rng = np.random.default_rng(8)
        rho = random_density_matrix(4, rng)
        composed, direct = compose(0.0, 1.3, rho)
        assert np.abs(composed.entries - direct.entries).max() == 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        g1=st.floats(0.0, 4.0, allow_nan=False),
        g2=st.floats(0.0, 4.0, allow_nan=False),
        seed=st.integers(0, 2 ** 16),
    )
    def test_semigroup_property(self, g1, g2, seed):
        rho = random_density_matrix(4, np.random.default_rng(seed))
        composed, direct = compose(g1, g2, rho)
        assert np.abs(composed.entries - direct.entries).max() < 1e-14

    def test_phase_rotate_identity(self):
        rng = np.random.default_rng(10)
        rho = random_density_matrix(4, rng)
        assert np.abs(phase_rotate(rho, 0.0).entries - rho.entries).max() == 0.0

    def test_phase_rotate_pi_flips_off_diagonal(self):
        out = phase_rotate(plus_state(), math.pi)
        assert out.entries[0, 1].real == pytest.approx(-0.5, abs=1e-15)
        assert np.array_equal(out.diagonal(), plus_state().diagonal())


class TestComplementaryOutput:
    def test_gamma_zero_gives_vacuum(self):
        out = complementary_output(np.array([0.2, 0.3, 0.5]), DephasingParams(0.0))
        vac = np.zeros_like(out.entries)
        vac[0, 0] = 1.0
        assert np.abs(out.entries - vac).max() < 1e-14

    def test_point_mass_gives_pure_output(self):
        out = complementary_output(np.array([1.0, 0.0, 0.0]), DephasingParams(1.5))
        assert out.entropy_bits() == pytest.approx(0.0, abs=1e-12)

    def test_two_point_eigenvalues(self):
        # q_pm = (1 +- e^{-gamma/2})/2 for the equal mixture on {|0>,|1>}
        out = complementary_output(np.array([0.5, 0.5]), DephasingParams(1.0))
        lam = np.linalg.eigvalsh(out.entries)
        lam = np.sort(lam[lam > 1e-12])
        expected = np.sort([(1 - math.exp(-0.5)) / 2, (1 + math.exp(-0.5)) / 2])
        assert np.abs(lam - expected).max() < 1e-12


    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0])
    def test_spectrum_matches_phased_table(self, gamma):
        # the phased table <k|-i sqrt(gamma) m> = (-i)^k <k|sqrt(gamma) m> differs
        # by a diagonal unitary, so its complex Omega has the real one's spectrum
        rng = np.random.default_rng(23)
        params = DephasingParams(gamma)
        for n_max in (1, 3, 5):
            p = rng.dirichlet(np.ones(n_max + 1))
            c = environment_amplitudes(params, n_max)
            phased = c * ((-1j) ** np.arange(c.shape[0]))[:, None]
            omega = (phased * p) @ phased.conj().T
            out = complementary_output(p, params)
            assert out.entries.dtype == np.float64
            assert np.abs(out.spectrum - np.linalg.eigvalsh(omega)).max() < 1e-14


class TestDilationOracle:
    def test_system_trace_matches_closed_form(self):
        rng = np.random.default_rng(12)
        for gamma in (0.25, 1.0):
            rho = random_density_matrix(4, rng)
            sys_out, _ = dilation_oracle(rho, DephasingParams(gamma))
            assert np.abs(sys_out.entries - closed_form(rho, gamma)).max() < 1e-10

    def test_environment_spectrum_matches_complementary(self):
        rng = np.random.default_rng(13)
        p = rng.dirichlet(np.ones(4))
        params = DephasingParams(0.8)
        _, env_out = dilation_oracle(diagonal_state(p), params)
        comp = complementary_output(p, params)
        a = np.sort(np.linalg.eigvalsh(env_out.entries))
        b = np.sort(np.linalg.eigvalsh(comp.entries))
        assert np.abs(a - b).max() < 1e-10

    def test_gamma_zero(self):
        rng = np.random.default_rng(14)
        rho = random_density_matrix(3, rng)
        sys_out, env_out = dilation_oracle(rho, DephasingParams(0.0))
        assert np.abs(sys_out.entries - rho.entries).max() < 1e-12
        assert env_out.entries[0, 0].real == pytest.approx(1.0, abs=1e-12)

    def test_matches_partial_traces_of_explicit_isometry(self):
        # V|m> = |m> x c_m, c_m the table's column m; rho has coherences, so
        # the environment output must come out blind to them
        rng = np.random.default_rng(15)
        rho = random_density_matrix(3, rng)
        params = DephasingParams(0.5)
        c = environment_amplitudes(params, 2)
        env_dim = c.shape[0]
        v = np.zeros((3, env_dim, 3), dtype=complex)
        for m in range(3):
            v[m, :, m] = c[:, m]
        v = v.reshape(3 * env_dim, 3)
        assert np.abs(v.conj().T @ v - np.eye(3)).max() < 1e-12
        joint = (v @ rho.entries @ v.conj().T).reshape(3, env_dim, 3, env_dim)
        sys_out, env_out = dilation_oracle(rho, params)
        assert np.abs(sys_out.entries - np.einsum("mknk->mn", joint)).max() < 1e-14
        assert np.abs(env_out.entries - np.einsum("mkml->kl", joint)).max() < 1e-14


class TestPhaseAverageOracle:
    def test_matches_closed_form(self):
        # from a subnormal gamma, where sqrt(80 / gamma) would overflow, to
        # gamma 1e5, where the weights fold many wraps onto each node; a
        # 96-node Gauss-Hermite rule misses by 9.4e-3 at gamma 1, dim 33
        # and by 1.9e-9 at gamma 8, dim 6
        rng = np.random.default_rng(16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for gamma in (5e-324, 1e-12, 1e-3, 0.25, 1.0, 2.0, 8.0, 50.0, 1e5):
                for dim in (2, 6, 33, 257):
                    rho = random_density_matrix(dim, rng)
                    out = phase_average_oracle(rho, DephasingParams(gamma)).entries
                    assert np.abs(out - closed_form(rho, gamma)).max() <= 1e-14, (gamma, dim)

    def test_diagonal_input_exactly_invariant(self):
        p = np.array([0.1, 0.2, 0.3, 0.4])
        rho = diagonal_state(p)
        out = phase_average_oracle(rho, DephasingParams(0.7))
        assert np.abs(out.entries - rho.entries).max() < 1e-15

    def test_gamma_zero_short_circuits(self):
        rng = np.random.default_rng(17)
        rho = random_density_matrix(4, rng)
        assert phase_average_oracle(rho, DephasingParams(0.0)) is rho

    def test_large_gamma_output_is_numerically_diagonal(self):
        rng = np.random.default_rng(18)
        rho = random_density_matrix(3, rng)
        out = phase_average_oracle(rho, DephasingParams(50.0))
        off = out.entries - np.diag(out.entries.diagonal())
        assert np.abs(off).max() < 5e-11  # e^{-50/2} ~ 1.4e-11


class TestRepresentationEquivalence:
    def test_oracles_take_rho_and_params(self):
        # one call shape, f(rho, params), for every representation of the channel
        for f in (apply_dephasing, kraus_apply, evolve_master_equation, phase_average_oracle,
                  dilation_oracle):
            assert list(inspect.signature(f).parameters) == ["rho", "params"], f.__name__

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0])
    def test_all_paths_agree(self, gamma):
        rng = np.random.default_rng(19)
        params = DephasingParams(gamma)
        for dim in (2, 4, 6):
            rho = random_density_matrix(dim, rng)
            reference = closed_form(rho, gamma)
            paths = {
                "closed": apply_dephasing(rho, params).entries,
                "kraus": kraus_apply(rho, params).entries,
                "master": evolve_master_equation(rho, params).entries,
                "dilation": dilation_oracle(rho, params)[0].entries,
                "quadrature": phase_average_oracle(rho, params).entries,
            }
            for name, mat in paths.items():
                assert np.abs(mat - reference).max() < 5e-9, name
                assert_valid_state(mat)


class TestProposition1:
    def test_diagonal_input_dominates(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            dim = int(rng.integers(2, 5))
            rho = random_density_matrix(dim, rng)
            diag = diagonal_state(rho.diagonal())
            for gamma in (0.5, 1.0):
                params = DephasingParams(gamma)
                j_rho = fock.coherent_information(rho, params)
                j_diag = fock.coherent_information(diag, params)
                assert j_rho <= j_diag + 1e-9

    def test_negative_rounding_population_counts_as_zero(self):
        # a state may keep eigenvalues down to EIGENVALUE_FLOOR, so a population
        # can sit just below 0; the environment's SVD must not take its root
        rho = FockDensityMatrix(np.diag([0.5 + 1e-11, 0.5, -1e-11]))
        e = math.exp(-0.5)
        expected = 1.0 + sum(q * math.log2(q) for q in ((1 + e) / 2, (1 - e) / 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = fock.coherent_information(rho, DephasingParams(1.0))
        assert value == pytest.approx(expected, abs=1e-10)

    def test_two_diagonalizations_per_evaluation(self, monkeypatch):
        # the channel output's eigvalsh in its constructor, then one thin SVD of
        # the K x (N+1) environment table for the environment: no K x K matrix
        rho = random_density_matrix(4, np.random.default_rng(21))
        params = DephasingParams(1.0)
        calls = []

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(matrix, *args, **kwargs):
                calls.append((name, matrix.shape))
                return original(matrix, *args, **kwargs)

            return counted

        for name in ("eigh", "eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        fock.coherent_information(rho, params)
        k_rows = fock.environment_amplitudes(params, 3).shape[0]
        assert calls == [("eigvalsh", (4, 4)), ("svd", (k_rows, 4))]
