"""Cross-oracle validation suites behind `dephcap validate` and the acceptance tests.

Each suite exercises one structural guarantee on randomized inputs from
its own fixed seed and reports its worst observed deviation; a nan
deviation makes the worst nan, and the suite fails. quick keeps
everything under a few seconds. full is the acceptance scale:
acceptance criteria 2-5 run these suites at full and assert their own
tolerances on `worst`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fock, optimize
from .fock import DephasingParams

EQUIV_TOL = 1e-8
EXACT_TOL = 1e-14
DOMINANCE_SLACK = 1e-9


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    worst: float
    detail: str


def _at_level(level: str, quick, full):
    """The sample size of a suite at the given level; every suite goes through here."""
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    return full if level == "full" else quick


def _max_diff(a: fock.FockDensityMatrix, b: fock.FockDensityMatrix) -> float:
    return float(np.abs(a.entries - b.entries).max())


def _worst(deviations) -> float:
    """The largest deviation; a nan among them gives nan, which fails every tolerance."""
    return float(np.max(deviations))


def _states_by_dim(dims, rng) -> list[fock.FockDensityMatrix]:
    """random_density_matrix(dim, rng) for each dim in turn, as one stacked state per dimension.

    The draws are those of the one-by-one calls, in the same order; each
    dimension's stack is validated once, in the order dimensions first appear.
    """
    drawn = {}
    for dim in dims:
        drawn.setdefault(dim, []).append(fock._ginibre_entries(dim, rng))
    return [fock.FockDensityMatrix(np.stack(rows)) for rows in drawn.values()]


def suite_representation_equivalence(level: str = "quick") -> SuiteResult:
    """Closed form vs Kraus (the dilation's system output), RK4 and quadrature, pairwise.

    The states are grouped by dimension: each representation runs once per
    (dimension, gamma) on that dimension's stack.
    """
    rng = np.random.default_rng(101)
    n_states, dim_stop = _at_level(level, (6, 6), (20, 7))
    dims = [int(rng.integers(2, dim_stop)) for _ in range(n_states)]
    deviations = []
    for rho in _states_by_dim(dims, rng):
        for gamma in (0.25, 1.0, 2.0):
            params = DephasingParams(gamma)
            outs = [f(rho, params) for f in (fock.apply_dephasing, fock.kraus_apply,
                                             fock.evolve_master_equation,
                                             fock.phase_average_oracle)]
            deviations += [_max_diff(a, b) for i, a in enumerate(outs) for b in outs[i + 1:]]
    worst = _worst(deviations)
    return SuiteResult(
        "representation_equivalence",
        worst < EQUIV_TOL,
        worst,
        f"{n_states} states, pairwise max deviation {worst:.3e} (tol {EQUIV_TOL:.0e})",
    )


def suite_replica_vs_bruteforce(level: str = "quick") -> SuiteResult:
    """The solver's J kernel against H(p) minus the brute-force environment entropy.

    Each (N, gamma) group's draws come from one dirichlet call (the same
    draws as one call per sample) and go through one stacked kernel call
    and one stacked entropy call: one eigh and one SVD per group.
    """
    rng = np.random.default_rng(202)
    n_maxes, samples = _at_level(level, ((1, 3), 10), (range(1, 6), 50))
    deviations = []
    for n_max in n_maxes:
        for gamma in (0.25, 1.0, 2.0):
            params = DephasingParams(gamma)
            p = rng.dirichlet(np.ones(n_max + 1), size=samples)
            kernel = optimize._objective_and_gradient(p, gamma)[0] / optimize._LN2
            slow = fock.shannon_bits(p) - fock.environment_entropy_bits(p, params)
            deviations.append(np.abs(kernel - slow).max())
    worst = _worst(deviations)
    return SuiteResult(
        "replica_vs_bruteforce",
        worst < EQUIV_TOL,
        worst,
        f"max |kernel - bruteforce| {worst:.3e} (tol {EQUIV_TOL:.0e})",
    )


def suite_semigroup(level: str = "quick") -> SuiteResult:
    """N_g2 after N_g1 equals N_{g1+g2} elementwise."""
    rng = np.random.default_rng(303)
    pairs = [(0.0, 0.7), (0.5, 0.5), (2.0, 3.0)]
    pairs += [tuple(rng.uniform(0.0, 3.0, 2)) for _ in range(_at_level(level, 10, 15))]
    deviations = []
    for g1, g2 in pairs:
        rho = fock.random_density_matrix(5, rng)
        first = fock.apply_dephasing(rho, DephasingParams(g1))
        composed = fock.apply_dephasing(first, DephasingParams(g2))
        direct = fock.apply_dephasing(rho, DephasingParams(g1 + g2))
        deviations.append(_max_diff(composed, direct))
    worst = _worst(deviations)
    return SuiteResult(
        "semigroup",
        worst < EXACT_TOL,
        worst,
        f"max composition defect {worst:.3e} (tol {EXACT_TOL:.0e})",
    )


def suite_covariance(level: str = "quick") -> SuiteResult:
    """Channel commutes with phase rotations U_theta."""
    rng = np.random.default_rng(404)
    deviations = []
    for _ in range(_at_level(level, 12, 15)):
        rho = fock.random_density_matrix(int(rng.integers(2, 6)), rng)
        theta = float(rng.uniform(0.0, 2.0 * np.pi))
        params = DephasingParams(float(rng.uniform(0.0, 3.0)))
        a = fock.apply_dephasing(fock.phase_rotate(rho, theta), params)
        b = fock.phase_rotate(fock.apply_dephasing(rho, params), theta)
        deviations.append(_max_diff(a, b))
    worst = _worst(deviations)
    return SuiteResult(
        "covariance",
        worst < EXACT_TOL,
        worst,
        f"max commutation defect {worst:.3e} (tol {EXACT_TOL:.0e})",
    )


def suite_proposition1(level: str = "quick") -> SuiteResult:
    """Dephasing to the diagonal never lowers the coherent information.

    The states are grouped by dimension: J runs once per (dimension, gamma)
    on that dimension's stack and on its stack of diagonals.
    """
    rng = np.random.default_rng(505)
    n_states = _at_level(level, 20, 100)
    deviations = []
    for rho in _states_by_dim([3 + i % 3 for i in range(n_states)], rng):  # N in {2, 3, 4}
        diag = fock.diagonal_state(rho.diagonal())
        for gamma in (0.5, 1.0):
            params = DephasingParams(gamma)
            excess = fock.coherent_information(rho, params) - fock.coherent_information(
                diag, params
            )
            deviations.append(np.max(excess))
    worst = _worst(deviations)
    return SuiteResult(
        "proposition1_dominance",
        worst <= DOMINANCE_SLACK,
        worst,
        f"max J(rho) - J(diag rho) = {worst:.3e} (allowed {DOMINANCE_SLACK:.0e})",
    )


_SUITES = (
    suite_representation_equivalence,
    suite_replica_vs_bruteforce,
    suite_semigroup,
    suite_covariance,
    suite_proposition1,
)


def run_validation(level: str = "quick") -> list[SuiteResult]:
    return [suite(level) for suite in _SUITES]
