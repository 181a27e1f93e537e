"""Self-tests of the benchmark: reference values, checks and printed metric names.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

from dephcap import optimize, replica  # noqa: E402
from dephcap.fock import DephasingParams  # noqa: E402


# ---------------------------------------------------------------------------
# reference values

@pytest.mark.parametrize(
    "gamma, published, half_ulp",
    [(0.1, 2.26536, 5e-6), (1.0, 0.611358, 5e-7), (4.0, 0.0266630, 5e-8)],
)
def test_q_inf_matches_published_values(gamma, published, half_ulp):
    assert abs(reference.q_inf(gamma) - published) <= half_ulp


def test_q_inf_large_gamma_asymptote():
    # (1/2pi) int f ln f = e^{-gamma} (1 + O(e^{-gamma})) nats
    for gamma in (20.0, 40.0):
        assert reference.q_inf(gamma) == pytest.approx(math.exp(-gamma) / math.log(2.0), rel=1e-7)


def test_two_point_closed_forms():
    # e^{-gamma/2} = 1/2 gives 1 - H2(3/4, 1/4) = (3/4) log2 3 - 1
    assert reference.two_point(2.0 * math.log(2.0)) == pytest.approx(0.75 * math.log2(3.0) - 1.0, abs=1e-15)
    assert reference.two_point(1e-12) == pytest.approx(1.0, abs=1e-9)
    # large gamma: 1 - H2((1 +- e)/2) = e^2 / (2 ln 2) (1 + O(e^2))
    assert reference.two_point(40.0) == pytest.approx(math.exp(-40.0) / (2.0 * math.log(2.0)), rel=1e-9)
    for gamma in (0.1, 1.0, 4.0, 16.0):
        assert reference.two_point(gamma) < reference.q_inf(gamma)


@pytest.mark.parametrize("gamma", [0.25, 1.0, 2.0])
def test_objective_matches_bruteforce_entropy(gamma):
    rng = np.random.default_rng(7)
    params = DephasingParams(gamma)
    for n_max in (1, 2, 4):
        for _ in range(5):
            p = replica.InputDistribution(rng.dirichlet(np.ones(n_max + 1)))
            brute = replica.shannon_entropy(p) - replica.entropy_bruteforce_oracle(p, params)
            assert reference.objective(p.p, gamma) == pytest.approx(brute, abs=1e-9)


def test_gap_is_zero_at_the_two_level_optimum_and_positive_elsewhere():
    # at N = 1 symmetry puts the optimum at (1/2, 1/2)
    assert abs(reference.optimality_gap([0.5, 0.5], 1.0)) < 1e-9
    assert reference.optimality_gap([0.9, 0.1], 1.0) > 1e-2


def test_gap_agrees_with_analytic_gradient():
    rng = np.random.default_rng(3)
    for n_max, gamma in ((4, 0.5), (12, 1.0), (24, 4.0)):
        p = replica.InputDistribution(rng.dirichlet(np.full(n_max + 1, 5.0)))
        g = optimize.objective_gradient(p, DephasingParams(gamma))
        assert reference.optimality_gap(p.p, gamma) == pytest.approx(g.max() - p.p @ g, abs=1e-8)


# ---------------------------------------------------------------------------
# wrong answers make checks fail

@pytest.fixture(scope="module")
def solved():
    result = optimize.maximize_coherent_information(8, DephasingParams(1.0))
    return result.q_bits, np.array(result.p_opt.p)


def test_correct_point_passes(solved):
    q, p = solved
    assert reference.check_point(8, 1.0, q, p).passed


def test_value_above_q_inf_fails(solved):
    _, p = solved
    check = reference.check_point(8, 1.0, reference.q_inf(1.0) * 1.01, p)
    assert any("above min(q_inf" in f for f in check.faults)


def test_value_below_two_point_fails(solved):
    _, p = solved
    check = reference.check_point(8, 1.0, 0.5 * reference.two_point(1.0), p)
    assert any("below two-point" in f for f in check.faults)


def test_value_not_matching_p_opt_fails(solved):
    q, p = solved
    check = reference.check_point(8, 1.0, q - 1e-6, p)
    assert any("differs from J(p_opt)" in f for f in check.faults)


def test_large_gap_fails():
    # uniform input at N = 8, gamma = 1 is symmetric with mean N/2 but far from optimal
    p = np.full(9, 1.0 / 9.0)
    check = reference.check_point(8, 1.0, reference.objective(p, 1.0), p)
    assert [f for f in check.faults if "optimality gap" in f] == list(check.faults)


def test_asymmetric_input_fails(solved):
    q, p = solved
    skewed = p * np.linspace(0.99, 1.01, p.size)
    skewed /= skewed.sum()
    check = reference.check_point(8, 1.0, reference.objective(skewed, 1.0), skewed)
    assert any("asymmetry" in f for f in check.faults)


def test_decrease_in_n_fails():
    faults = reference.monotone_faults([(4, 1.0, 0.5), (8, 1.0, 0.5 - 1e-6), (8, 2.0, 0.3)])
    assert list(faults) == [(8, 1.0)]


def test_suite_worst_above_own_tolerance_fails():
    assert reference.check_suite("semigroup", True, 1e-18) == ()
    assert reference.check_suite("semigroup", True, 1e-13)
    assert reference.check_suite("covariance", False, 0.0)


def test_sweep_table_with_a_wrong_row_fails():
    inputs = run.make_inputs("sweep", 0)
    inputs = {**inputs, "ns": [2], "gammas": [1.0]}
    header = "gamma,N,q_bits,converged,iterations,mean_energy,p_0,p_1,p_2"
    row = f"1,2,{reference.q_inf(1.0) * 2:.12g},true,1,1,0.35,0.3,0.35"
    verdicts = run.check_sweep({"exit": 0, "csv": f"{header}\n{row}\n"}, inputs)
    assert len(verdicts) == 1 and verdicts[0][2]
    missing = run.check_sweep({"exit": 0, "csv": header + "\n"}, inputs)
    assert missing[0][2] == ("row missing from the sweep table",)
    assert run.check_sweep({"exit": 3, "csv": ""}, inputs)[0][2]


# ---------------------------------------------------------------------------
# tracing

def test_tracer_splits_solve_time_and_restores_attributes():
    original = optimize.maximize_coherent_information
    tracer = worker.Tracer()
    with tracer.installed():
        optimize.maximize_coherent_information(8, DephasingParams(1.0))
    assert optimize.maximize_coherent_information is original
    layers = tracer.layer_metrics()
    assert layers["optimize.solves"] == 1
    assert layers["linalg.eigh_calls"] == layers["replica.gram_calls"] > 0
    assert layers["linalg.eigh_n3"] == layers["linalg.eigh_calls"] * 9 ** 3
    split = layers["solve.gram_s"] + layers["solve.eig_s"] + layers["optimize.self_s"]
    assert split == pytest.approx(layers["optimize.solve_s"], rel=1e-12)


# ---------------------------------------------------------------------------
# inputs and the printed result

def test_inputs_depend_only_on_seed():
    a, b = run.make_inputs("sweep", 5), run.make_inputs("sweep", 5)
    assert a == b
    assert a != run.make_inputs("sweep", 6)
    for got, base in zip(a["gammas"], run.SWEEP_GAMMAS):
        assert abs(got / base - 1.0) <= run.GAMMA_JITTER
    assert len(a["known_fault_gammas"]) == 1


def _last_json_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "validate", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json_line(proc.stdout)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] % len(reference.SUITE_TOLERANCES) == 0
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
