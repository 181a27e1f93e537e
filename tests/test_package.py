import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dephcap
from dephcap import validate

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    """A module of the benchmark, loaded from its file without putting bench/ on the path.

    It is registered as bench_<name>, which its dataclasses need to resolve
    their own module.
    """
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


def test_all_names_resolve_once():
    names = dephcap.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(dephcap, name)]
    assert not missing, missing


def test_removed_names_stay_removed():
    # one entropy per state (FockDensityMatrix.entropy_bits); states are built directly;
    # the master equation derives its own RK4 step count; the solver's J kernel is
    # the one replica-matrix entropy
    removed = {"vn_entropy_bits", "fock_state", "pure_state", "master_equation_steps",
               "entropy_replica"}
    # the replica-era names and the K x K oracles stay module attributes,
    # which the benchmark reaches, but leave the package API
    removed |= {"gram_matrix", "entropy_bruteforce_oracle", "shannon_entropy",
                "complementary_output", "dilation_oracle"}
    assert not removed & set(dephcap.__all__)
    assert not any(hasattr(dephcap, name) for name in removed)


def test_namespace_is_all_plus_submodules():
    # a name imported into __init__.py but left out of __all__ fails here
    submodules = {"cli", "fock", "optimize", "replica", "validate"}
    public = {name for name in vars(dephcap) if not name.startswith("_")}
    assert public - submodules == set(dephcap.__all__) - {"__version__"}


def test_bench_tracer_targets_resolve():
    # the benchmark worker wraps these attributes by name; a rename must fail here
    worker = load_bench("worker")
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in worker.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, missing
    suites = validate._SUITES
    with worker.Tracer().installed():
        assert len(validate._SUITES) == len(suites)
    assert validate._SUITES == suites


def test_replica_names_are_fock_objects():
    # replica keeps only the names the benchmark reaches: its kernel and input
    # type are fock's own, so the solver's Gram kernel is the closed-form channel
    from dephcap import fock, replica

    assert replica.gram_matrix is fock.gram_matrix
    assert replica.InputDistribution is fock.InputDistribution is dephcap.InputDistribution
    assert not hasattr(fock, "_diff_sq")


def test_bench_suite_names_match_reference():
    # the benchmark checks each validate suite against its own copy of the
    # tolerance, by name; a suite renamed, added or removed must fail here
    pytest.importorskip("mpmath")
    reference = load_bench("reference")
    names = [suite.name for suite in validate.run_validation("quick")]
    assert names == list(reference.SUITE_TOLERANCES)


def test_import_loads_numpy_only():
    # setup_s and the numpy-only dependencies rest on this: importing the CLI,
    # the solver and the validation suites loads no test or optional package
    code = (
        "import sys, dephcap.cli, dephcap.optimize, dephcap.validate\n"
        "print(' '.join(m for m in sys.modules\n"
        "               if m.partition('.')[0] in ('scipy', 'mpmath', 'hypothesis')\n"
        "               or m.startswith('numpy.polynomial')))"
    )
    src = str(Path(dephcap.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
