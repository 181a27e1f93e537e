import importlib
import importlib.util
from pathlib import Path

import dephcap
from dephcap import validate

WORKER = Path(__file__).resolve().parent.parent / "bench" / "worker.py"


def test_all_names_resolve_once():
    names = dephcap.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [name for name in names if not hasattr(dephcap, name)]
    assert not missing, missing


def test_removed_names_stay_removed():
    # one entropy per state (FockDensityMatrix.entropy_bits); states are built directly
    removed = {"vn_entropy_bits", "fock_state", "pure_state"}
    assert not removed & set(dephcap.__all__)
    assert not any(hasattr(dephcap, name) for name in removed)


def test_bench_tracer_targets_resolve():
    # the benchmark worker wraps these attributes by name; a rename must fail here
    spec = importlib.util.spec_from_file_location("bench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
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
