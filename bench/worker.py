"""One benchmark run of one workload, in a fresh single-threaded process.

Usage: python3 bench/worker.py SPEC.json RESULT.json

`bench/run.py` writes SPEC (workload, generated inputs, run length, trace
flag) and starts this process with BLAS/OpenMP threads pinned to 1 and
DEPHCAP_THREADS=1. The worker runs one untimed warm-up pass, then repeats
passes until the run length has elapsed, and writes RESULT: per-pass wall
and CPU seconds, the outputs of every pass (stored once per distinct
output), peak RSS and, when tracing, per-layer figures per traced pass.

Checking the outputs happens in `bench/run.py`, after this process ends,
so neither the checks nor the reference code share this process's time or
memory.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench" / "out"

# Layer wrappers installed for traced passes: (module path, attribute, span name).
WRAPPED = (
    ("numpy.linalg", "eigh", "linalg.eigh"),
    ("numpy.linalg", "eigvalsh", "linalg.eigvalsh"),
    ("dephcap.replica", "gram_matrix", "replica.gram"),
    ("dephcap.replica", "entropy_bruteforce_oracle", "replica.bruteforce"),
    ("dephcap.optimize", "maximize_coherent_information", "optimize.solve"),
    ("dephcap.cli", "capacity_sweep", "optimize.sweep"),
    ("dephcap.cli", "write_sweep_csv", "cli.write"),
    ("dephcap.cli", "main", "cli.main"),
    ("dephcap.fock", "evolve_master_equation", "fock.master_equation"),
    ("dephcap.fock", "dilation_oracle", "fock.dilation"),
    ("dephcap.fock", "complementary_output", "fock.complementary_output"),
    ("dephcap.fock", "phase_average_oracle", "fock.phase_average"),
    ("dephcap.fock", "coherent_information", "fock.coherent_information"),
    ("dephcap.fock", "kraus_apply", "fock.kraus"),
)
EIGEN_SPANS = ("linalg.eigh", "linalg.eigvalsh")
SOLVE_SIZES = (32, 64, 128)

# Per-layer metrics, in the order they are printed, with their units.
PER_LAYER_UNITS = {
    "linalg.eigh_s": "s",
    "linalg.eigh_calls": "count",
    "linalg.eigh_n3": "count",
    "linalg.eigvalsh_s": "s",
    "linalg.eigvalsh_calls": "count",
    "replica.gram_s": "s",
    "replica.gram_calls": "count",
    "replica.bruteforce_s": "s",
    "optimize.solve_s": "s",
    "optimize.solves": "count",
    **{f"optimize.solve_s.n{n}": "s" for n in SOLVE_SIZES},
    "optimize.self_s": "s",
    "optimize.iterations": "count",
    "optimize.eig_per_iteration": "ratio",
    "optimize.sweep_s": "s",
    "cli.write_s": "s",
    "cli.self_s": "s",
    "fock.master_equation_s": "s",
    "fock.dilation_s": "s",
    "fock.complementary_output_s": "s",
    "fock.phase_average_s": "s",
    "fock.coherent_information_s": "s",
    "fock.kraus_s": "s",
    "validate.representation_equivalence_s": "s",
    "validate.replica_vs_bruteforce_s": "s",
    "validate.semigroup_s": "s",
    "validate.covariance_s": "s",
    "validate.proposition1_s": "s",
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# tracing

class _Span:
    __slots__ = ("ident", "name", "parent", "start", "end", "child")

    def __init__(self, ident, name, parent, start):
        self.ident = ident
        self.name = name
        self.parent = parent
        self.start = start
        self.end = 0.0
        self.child = 0.0


class Tracer:
    """Spans and counters at the layer boundaries, kept in memory.

    A span's self time is its duration minus the time of its direct
    traced children. Calls made while an `optimize.solve` span is open are
    also summed separately, so solve time splits exactly into Gram,
    eigensolver and the solver's own time.
    """

    def __init__(self):
        self._stack: list[_Span] = []
        self._next_id = 0
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.reset()

    def reset(self):
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.in_solve_time: dict[str, float] = {}
        self.in_solve_calls: dict[str, int] = {}
        self.eigh_n3 = 0
        self.iterations = 0
        self.solve_by_n: dict[int, float] = {}

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = _Span(self._next_id, name, parent, time.perf_counter())
            self._next_id += 1
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self._record(span, args, result)

        return traced

    def _record(self, span, args, result):
        name = span.name
        dur = span.end - span.start
        if span.parent is not None:
            span.parent.child += dur
        self.time[name] = self.time.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - span.child
        self.calls[name] = self.calls.get(name, 0) + 1
        if any(s.name == "optimize.solve" for s in self._stack):
            self.in_solve_time[name] = self.in_solve_time.get(name, 0.0) + dur
            self.in_solve_calls[name] = self.in_solve_calls.get(name, 0) + 1
        if name == "linalg.eigh":
            shape = getattr(args[0], "shape", (0, 0))
            self.eigh_n3 += math.prod(shape[:-2]) * shape[-1] ** 3
        elif name == "optimize.solve":
            n_max = int(args[0])
            self.solve_by_n[n_max] = self.solve_by_n.get(n_max, 0.0) + dur
            self.iterations += int(getattr(result, "iterations", 0))
        if self.keep_spans:
            parent = span.parent.ident if span.parent is not None else None
            self.spans.append((span.ident, name, parent, span.start, span.end))

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapped attribute for its traced version, and back."""
        import importlib

        from dephcap import validate

        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            suites = validate._SUITES
            saved.append((validate, "_SUITES", suites))
            validate._SUITES = tuple(
                self.wrap("validate." + s.__name__.removeprefix("suite_"), s) for s in suites
            )
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of the passes recorded since the last reset."""
        t, c = self.time, self.calls
        solve_s = t.get("optimize.solve", 0.0)
        iterations = self.iterations
        eig_in_solve = sum(self.in_solve_calls.get(n, 0) for n in EIGEN_SPANS)
        parts = sum(self.in_solve_time.get(n, 0.0) for n in ("replica.gram", *EIGEN_SPANS))
        solve_self = self.self_time.get("optimize.solve", 0.0)
        if abs(parts + solve_self - solve_s) > 1e-9 * max(solve_s, 1.0):
            raise RuntimeError("solve time does not split into Gram, eigensolver and self time")
        out = {
            "linalg.eigh_s": t.get("linalg.eigh", 0.0),
            "linalg.eigh_calls": c.get("linalg.eigh", 0),
            "linalg.eigh_n3": self.eigh_n3,
            "linalg.eigvalsh_s": t.get("linalg.eigvalsh", 0.0),
            "linalg.eigvalsh_calls": c.get("linalg.eigvalsh", 0),
            "replica.gram_s": t.get("replica.gram", 0.0),
            "replica.gram_calls": c.get("replica.gram", 0),
            "replica.bruteforce_s": t.get("replica.bruteforce", 0.0),
            "optimize.solve_s": solve_s,
            "optimize.solves": c.get("optimize.solve", 0),
            **{f"optimize.solve_s.n{n}": self.solve_by_n.get(n, 0.0) for n in SOLVE_SIZES},
            "optimize.self_s": solve_self,
            "optimize.iterations": iterations,
            "optimize.eig_per_iteration": eig_in_solve / iterations if iterations else 0.0,
            "optimize.sweep_s": t.get("optimize.sweep", 0.0),
            "cli.write_s": t.get("cli.write", 0.0),
            "cli.self_s": self.self_time.get("cli.main", 0.0),
        }
        for name in PER_LAYER_UNITS:
            if name.startswith(("fock.", "validate.")):
                out[name] = t.get(name.removesuffix("_s"), 0.0)
        out["solve.gram_s"] = self.in_solve_time.get("replica.gram", 0.0)
        out["solve.eig_s"] = sum(self.in_solve_time.get(n, 0.0) for n in EIGEN_SPANS)
        return out


# ---------------------------------------------------------------------------
# workloads: each pass returns its outputs, collected after the clock stops

def _sweep_pass(spec):
    from dephcap import cli

    csv_path = OUT_DIR / "sweep.csv"
    argv = [
        "sweep",
        "--gammas", ",".join(repr(g) for g in spec["gammas"]),
        "--ns", ",".join(str(n) for n in spec["ns"]),
        "--output", str(csv_path),
    ]
    code = cli.main(argv)

    def collect():
        text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else ""
        # each pass writes a new file: truncating an existing one makes ext4
        # flush it on close, a disk wait of ~50 ms that is not the program's
        csv_path.unlink(missing_ok=True)
        return {"exit": code, "csv": text}

    return collect


def _capacity_pass(spec):
    from dephcap import optimize
    from dephcap.fock import DephasingParams

    params = DephasingParams(spec["gamma"])
    results = [optimize.maximize_coherent_information(n, params) for n in spec["ns"]]
    return lambda: [
        {
            "n_max": r.n_max,
            "gamma": r.gamma,
            "q_bits": r.q_bits,
            "p": [float(x) for x in r.p_opt.p],
            "iterations": r.iterations,
            "converged": r.converged,
        }
        for r in results
    ]


def _validate_pass(spec):
    from dephcap import validate

    results = validate.run_validation(spec["level"])
    return lambda: [{"name": r.name, "passed": r.passed, "worst": r.worst} for r in results]


PASSES = {"sweep": _sweep_pass, "capacity": _capacity_pass, "validate": _validate_pass}


def run(spec: dict) -> dict:
    import numpy  # noqa: F401  (loaded before timing, like any caller would)
    import dephcap

    if not Path(dephcap.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"dephcap imported from {dephcap.__file__}, not from {ROOT / 'src'}")
    one_pass = PASSES[spec["workload"]]
    traced = bool(spec["trace"])
    tracer = Tracer()
    outputs: dict[str, object] = {}
    passes = []

    def timed(trace_this: bool):
        tracer.reset()
        tracer.keep_spans = trace_this and not tracer.spans
        with tracer.installed() if trace_this else contextlib.nullcontext():
            w0, c0 = time.perf_counter(), time.process_time()
            collect = one_pass(spec)
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        data = collect()
        key = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
        outputs.setdefault(key, data)
        record = {"wall_s": wall, "cpu_s": cpu, "output": key, "traced": trace_this}
        if trace_this:
            record["layers"] = tracer.layer_metrics()
        passes.append(record)

    timed(False)  # warm-up: caches, lazy imports and LAPACK workspaces
    passes[0]["warmup"] = True
    start = time.perf_counter()
    while time.perf_counter() - start < spec["seconds"]:
        if traced:
            timed(False)
            timed(True)
        else:
            timed(False)
    return {
        "passes": passes,
        "outputs": outputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
    }


def summarize_layers(passes: list[dict]) -> dict[str, float]:
    """Medians over traced passes; trace.overhead_s is traced minus untraced wall."""
    traced = [p for p in passes if p["traced"]]
    plain = [p["wall_s"] for p in passes if not p["traced"] and not p.get("warmup")]
    out = {name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]}
    out["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(plain)
    return out


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    result = run(spec)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
