import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dephcap import fock
from dephcap.fock import DephasingParams, InputDistribution, environment_amplitudes, gram_matrix
from dephcap.optimize import (
    coherent_information_diagonal,
    maximize_coherent_information,
    two_point_lower_bound,
)
from dephcap.replica import entropy_bruteforce_oracle, shannon_entropy


def random_distribution(rng, dim, concentration=1.0):
    return InputDistribution(rng.dirichlet(np.full(dim, concentration)))


def replica_matrix(p, params):
    """A = G diag(p), whose nonzero spectrum is that of the complementary output."""
    return gram_matrix(params, np.arange(p.dim)) * p.p[None, :]


def kernel_entropy(p, params):
    """S(A) in bits as the solver's J kernel gives it: H(p) - J(p)."""
    return shannon_entropy(p) - coherent_information_diagonal(p, params)


def distributions(max_n=7):
    """Hypothesis strategy: normalized weight vectors with strictly positive mass."""
    return (
        st.lists(st.floats(1e-3, 1.0, allow_nan=False), min_size=2, max_size=max_n + 1)
        .map(lambda w: np.asarray(w) / np.sum(w))
        .map(InputDistribution)
    )


class TestInputDistribution:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            InputDistribution(np.array([1.1, -0.1]))

    def test_rejects_non_finite(self):
        # nan fails every comparison, so the sign and sum checks pass it
        with pytest.raises(ValueError, match="finite"):
            InputDistribution(np.array([math.nan, 1.0]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to 1"):
            InputDistribution(np.array([0.4, 0.4]))

    def test_mean_energy(self):
        p = InputDistribution(np.array([0.25, 0.25, 0.5]))
        assert p.mean_energy() == pytest.approx(1.25, abs=1e-15)
        assert p.mean_energy() <= p.dim - 1

    def test_uniform(self):
        p = InputDistribution(np.full(4, 0.25))
        assert p.p == pytest.approx(0.25)

    def test_equality_is_identity(self):
        # a field-wise == would compare ndarrays and raise for any dim > 1
        a, b = InputDistribution([0.5, 0.5]), InputDistribution([0.5, 0.5])
        assert a == a and not a == b and a != b


class TestGramOverlap:
    def test_unit_diagonal(self):
        assert gram_matrix(DephasingParams(1.7), [3])[0, 0] == 1.0

    def test_symmetric(self):
        g = gram_matrix(DephasingParams(0.6), [1, 4])
        assert g[0, 1] == g[1, 0]

    def test_value_and_truncated_inner_product(self):
        # e^{-2} against the overlap <0|2> of the environment table's columns
        params = DephasingParams(1.0)
        value = gram_matrix(params, [2, 0])[0, 1]
        assert value == pytest.approx(math.exp(-2.0), abs=1e-15)
        table = environment_amplitudes(params, 2)
        assert np.vdot(table[:, 0], table[:, 2]) == pytest.approx(value, abs=1e-12)


class TestReplicaMatrix:
    def test_two_level_closed_form(self):
        gamma = 0.8
        p = InputDistribution(np.array([0.5, 0.5]))
        a = replica_matrix(p, DephasingParams(gamma))
        g = math.exp(-gamma / 2.0)
        assert np.abs(a - np.array([[0.5, 0.5 * g], [0.5 * g, 0.5]])).max() < 1e-15
        eig = np.sort(np.linalg.eigvals(a).real)
        assert eig == pytest.approx([(1 - g) / 2, (1 + g) / 2], abs=1e-12)

    def test_large_gamma_is_diagonal(self):
        rng = np.random.default_rng(1)
        p = random_distribution(rng, 4)
        a = replica_matrix(p, DephasingParams(200.0))
        assert np.abs(a - np.diag(p.p)).max() < 1e-15

    def test_gamma_zero_is_rank_one(self):
        p = InputDistribution(np.array([0.3, 0.3, 0.4]))
        a = replica_matrix(p, DephasingParams(0.0))
        assert np.abs(a - np.tile(p.p, (3, 1))).max() < 1e-15
        eig = np.sort(np.linalg.eigvals(a).real)
        assert eig == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)

    def test_eigenvalues_nonnegative_sum_to_one(self):
        rng = np.random.default_rng(2)
        for gamma in (0.25, 1.0, 2.0):
            p = random_distribution(rng, 6)
            a = replica_matrix(p, DephasingParams(gamma))
            eig = np.linalg.eigvals(a)
            assert np.abs(eig.imag).max() < 1e-10
            assert eig.real.min() > -1e-10
            assert eig.real.sum() == pytest.approx(1.0, abs=1e-10)


class TestEntropyReplica:
    # the replica matrix's entropy read off the solver's kernel, S(A) = H(p) - J
    def test_point_mass_is_zero(self):
        p = InputDistribution(np.array([1.0, 0.0, 0.0]))
        assert kernel_entropy(p, DephasingParams(1.0)) == 0.0

    def test_gamma_zero_is_zero(self):
        rng = np.random.default_rng(3)
        p = random_distribution(rng, 5)
        assert kernel_entropy(p, DephasingParams(0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_two_level_binary_entropy(self):
        # independent closed form: H2((1 +- e^{-1/2})/2) = 0.7153491667107217
        p = InputDistribution(np.array([0.5, 0.5]))
        e = math.exp(-0.5)
        qp, qm = (1 + e) / 2, (1 - e) / 2
        expected = -(qp * math.log2(qp) + qm * math.log2(qm))
        assert kernel_entropy(p, DephasingParams(1.0)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.7153491667107217, abs=1e-15)

    def test_zero_weight_levels_dropped(self):
        # support {0, 2} must use the original Fock distances, not {0, 1}
        gamma = 1.0
        p = InputDistribution(np.array([0.5, 0.0, 0.5]))
        e = math.exp(-gamma * 4 / 2.0)  # overlap of levels 0 and 2
        qp, qm = (1 + e) / 2, (1 - e) / 2
        expected = -(qp * math.log2(qp) + qm * math.log2(qm))
        assert kernel_entropy(p, DephasingParams(gamma)) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(p=distributions(), gamma=st.floats(0.0, 3.0, allow_nan=False))
    def test_reversal_invariance(self, p, gamma):
        params = DephasingParams(gamma)
        reversed_p = InputDistribution(p.p[::-1].copy())
        assert kernel_entropy(p, params) == pytest.approx(
            kernel_entropy(reversed_p, params), abs=1e-10
        )

    @settings(max_examples=40, deadline=None)
    @given(p=distributions(), gamma=st.floats(0.0, 3.0, allow_nan=False))
    def test_bounded_by_shannon(self, p, gamma):
        s = kernel_entropy(p, DephasingParams(gamma))
        assert -1e-12 <= s <= shannon_entropy(p) + 1e-9


class TestBruteForceOracle:
    def test_two_level_value(self):
        p = InputDistribution(np.array([0.5, 0.5]))
        e = math.exp(-0.5)
        qp, qm = (1 + e) / 2, (1 - e) / 2
        expected = -(qp * math.log2(qp) + qm * math.log2(qm))
        assert entropy_bruteforce_oracle(p, DephasingParams(1.0)) == pytest.approx(
            expected, abs=1e-10
        )

    def test_point_mass(self):
        p = InputDistribution(np.array([1.0, 0.0]))
        assert entropy_bruteforce_oracle(p, DephasingParams(2.0)) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_spectrum_equivalence_padded(self):
        # eigenvalues of A equal eigenvalues of Omega padded with zeros
        rng = np.random.default_rng(4)
        for n_max in (2, 5):
            p = random_distribution(rng, n_max + 1)
            params = DephasingParams(1.0)
            a = np.sort(np.linalg.eigvals(replica_matrix(p, params)).real)
            from dephcap.fock import complementary_output

            omega = complementary_output(p.p, params)
            lam = np.sort(np.linalg.eigvalsh(omega.entries))[-(n_max + 1):]
            assert np.abs(a - lam).max() < 1e-8

    @pytest.mark.parametrize(
        "n_max, gamma", [(32, 1.0), (24, 2.0), (16, 4.0), (64, 1.0), (128, 1.0)]
    )
    def test_anchors_solver_at_benchmark_size(self, n_max, gamma):
        # the solver's J against H(p) - S(Omega) with Omega's spectrum taken
        # from the full environment table, at the optimum it certifies
        params = DephasingParams(gamma)
        res = maximize_coherent_information(n_max, params)
        slow = shannon_entropy(res.p_opt) - entropy_bruteforce_oracle(res.p_opt, params)
        assert abs(res.q_bits - slow) <= 1e-9

    @pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
    def test_svd_matches_full_environment_state(self, gamma):
        # the thin SVD against the K x K Omega of complementary_output
        rng = np.random.default_rng(int(100 * gamma))
        params = DephasingParams(gamma)
        for n_max in range(1, 9):
            p = random_distribution(rng, n_max + 1)
            full = fock.complementary_output(p.p, params).entropy_bits()
            assert entropy_bruteforce_oracle(p, params) == pytest.approx(full, abs=1e-13)

    def test_one_diagonalization(self, monkeypatch):
        # the entropy is one thin SVD of C diag(sqrt p); no K x K Omega is diagonalized
        p = InputDistribution(np.array([0.2, 0.3, 0.5]))
        params = DephasingParams(1.0)
        calls = []

        def counting(name):
            original = getattr(np.linalg, name)

            def counted(matrix, *args, **kwargs):
                calls.append((name, matrix.shape))
                return original(matrix, *args, **kwargs)

            return counted

        for name in ("eigvalsh", "svd"):
            monkeypatch.setattr(np.linalg, name, counting(name))
        entropy_bruteforce_oracle(p, params)
        assert calls == [("svd", environment_amplitudes(params, 2).shape)]


class TestShannonEntropy:
    def test_uniform(self):
        for dim in (2, 4, 8):
            p = InputDistribution(np.full(dim, 1.0 / dim))
            assert shannon_entropy(p) == pytest.approx(math.log2(dim), abs=1e-12)

    def test_point_mass(self):
        assert shannon_entropy(InputDistribution(np.array([1.0, 0.0]))) == 0.0

    def test_three_quarters(self):
        p = InputDistribution(np.array([0.75, 0.25]))
        assert shannon_entropy(p) == pytest.approx(0.8112781244591328, abs=1e-14)


class TestCoherentInformationDiagonal:
    def test_gamma_zero_uniform(self):
        p = InputDistribution(np.full(4, 0.25))
        assert coherent_information_diagonal(p, DephasingParams(0.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_two_level_closed_form(self):
        p = InputDistribution(np.array([0.5, 0.5]))
        e = math.exp(-0.5)
        qp, qm = (1 + e) / 2, (1 - e) / 2
        expected = 1.0 + qp * math.log2(qp) + qm * math.log2(qm)
        value = coherent_information_diagonal(p, DephasingParams(1.0))
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.2846508332892783, abs=1e-15)
        # J is of order e^-gamma at large gamma, far below the rounding of
        # H(p) - S(A); the kernel keeps relative accuracy about eps e^{gamma/2}
        for gamma in (0.0, 1.0, 8.0, 16.0, 24.0, 32.0, 40.0):
            params = DephasingParams(gamma)
            exact = two_point_lower_bound(params, 1).value_bits
            tol = max(1e-12, 50 * np.finfo(float).eps * math.exp(gamma / 2.0))
            assert abs(coherent_information_diagonal(p, params) - exact) <= tol * exact, gamma

    def test_decays_to_zero_from_above(self):
        rng = np.random.default_rng(5)
        p = random_distribution(rng, 4)
        values = [coherent_information_diagonal(p, DephasingParams(g)) for g in (5.0, 10.0, 20.0)]
        assert values[0] > values[1] > values[2] > 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2 ** 16),
        gamma=st.floats(0.05, 3.0, allow_nan=False),
        t=st.floats(0.05, 0.95, allow_nan=False),
    )
    def test_concavity(self, seed, gamma, t):
        rng = np.random.default_rng(seed)
        params = DephasingParams(gamma)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        mix = InputDistribution(t * p + (1 - t) * q)
        j_mix = coherent_information_diagonal(mix, params)
        j_parts = t * coherent_information_diagonal(
            InputDistribution(p), params
        ) + (1 - t) * coherent_information_diagonal(InputDistribution(q), params)
        assert j_mix >= j_parts - 1e-9
