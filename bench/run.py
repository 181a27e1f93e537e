"""Benchmark of the dephcap capacity solver, sweep CLI and validation suites.

Usage:
    python3 bench/run.py --workload {sweep,capacity,validate} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The command makes the workload's
inputs from --seed, runs the workload in a fresh single-threaded process
(bench/worker.py) for S seconds, checks every output against the
reference computations in bench/reference.py, and prints one JSON object
as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, cpu_s,
setup_s, peak_rss_mb); with --trace 1 they are the per-layer figures of a
run that alternates traced and untraced passes. The full result goes to
bench/out/. See bench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import worker  # noqa: E402

DEFAULT_SEED = 0
# Relative half-width of the seeded jitter applied to every gamma. A
# jitter of 1e-3 already moves the solver's iteration counts by +-8 %
# (its step control is chaotic in gamma), which would make runs with
# different seeds measure different work.
GAMMA_JITTER = 1e-5
SWEEP_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 40.0)
SWEEP_NS = (4, 8, 16, 24, 32)
# At this base gamma, H(p) - S(Omega) cancels to rounding noise and the
# solver reports a value 70x or more above q_inf (or exactly 0): every
# such point fails its anchor check on every seed.
KNOWN_FAULT_GAMMA = 40.0
CAPACITY_GAMMA = 1.0
CAPACITY_NS = worker.SOLVE_SIZES
VALIDATE_LEVEL = "full"

# Modules whose import a fresh interpreter pays before each workload.
SETUP_IMPORTS = {
    "sweep": "dephcap.cli",
    "capacity": "dephcap.optimize",
    "validate": "dephcap.validate",
}
SETUP_REPEATS = 21
# Hard limit on one run, below the 180 s a run may take.
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DEPHCAP_THREADS": "1",
}


def make_inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one run: a seeded relative jitter of each gamma."""
    rng = random.Random(seed)

    def jitter(g: float) -> float:
        # 10 significant digits survive the 12-digit sweep table exactly
        return float(f"{g * (1.0 + GAMMA_JITTER * rng.uniform(-1.0, 1.0)):.10g}")

    if workload == "sweep":
        gammas = [jitter(g) for g in SWEEP_GAMMAS]
        known = [g for g, base in zip(gammas, SWEEP_GAMMAS) if base == KNOWN_FAULT_GAMMA]
        return {"gammas": gammas, "ns": list(SWEEP_NS), "known_fault_gammas": known}
    if workload == "capacity":
        return {"gamma": jitter(CAPACITY_GAMMA), "ns": list(CAPACITY_NS)}
    if workload == "validate":
        # the suites draw their states from fixed seeds inside the program
        return {"level": VALIDATE_LEVEL}
    raise ValueError(f"unknown workload {workload!r}")


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    # import from cached bytecode, as an installed package does
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(workload: str, deadline: float) -> float:
    """Median seconds for a fresh interpreter to import the workload's modules."""
    code = (
        "import time\n"
        "t = time.perf_counter()\n"
        f"import {SETUP_IMPORTS[workload]}\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
            check=True,
        )
        if i:  # the first import also compiles bytecode: untimed
            times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_worker(spec: dict, deadline: float) -> dict:
    tag = f"{spec['workload']}-{spec['seed']}-{spec['trace']}"
    spec_path = OUT_DIR / f"spec-{tag}.json"
    result_path = OUT_DIR / f"worker-{tag}.json"
    log_path = OUT_DIR / f"worker-{tag}.log"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
            env=child_env(),
            cwd=ROOT,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    if proc.returncode != 0:
        sys.stderr.write(log_path.read_text(encoding="utf-8")[-4000:])
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# checking outputs: one verdict list per distinct output

def _check_capacity_points(points: list[tuple[int, float, float, list]]) -> list[tuple]:
    """(N, gamma, faults) per point, with monotonicity in N added."""
    checks = [reference.check_point(n, g, q, p) for n, g, q, p in points]
    mono = reference.monotone_faults([(c.n_max, c.gamma, c.q_bits) for c in checks])
    verdicts = []
    for c in checks:
        extra = mono.get((c.n_max, c.gamma))
        verdicts.append((c.n_max, c.gamma, c.faults + ((extra,) if extra else ())))
    return verdicts


def check_sweep(output: dict, inputs: dict) -> list[tuple]:
    expected = [(n, g) for n in sorted(inputs["ns"]) for g in sorted(inputs["gammas"])]
    if output["exit"] != 0:
        return [(n, g, (f"sweep exited with code {output['exit']}",)) for n, g in expected]
    rows = {}
    for row in csv.DictReader(io.StringIO(output["csv"])):
        n = int(row["N"])
        rows[(n, float(row["gamma"]))] = (
            n,
            float(row["gamma"]),
            float(row["q_bits"]),
            [float(row[f"p_{m}"]) if row[f"p_{m}"] else math.nan for m in range(n + 1)],
        )
    present = [rows[key] for key in expected if key in rows]
    verdicts = {(n, g): faults for n, g, faults in _check_capacity_points(present)}
    return [(n, g, verdicts.get((n, g), ("row missing from the sweep table",))) for n, g in expected]


def check_capacity(output: list, inputs: dict) -> list[tuple]:
    got = {r["n_max"]: r for r in output}
    present = [
        (n, got[n]["gamma"], got[n]["q_bits"], got[n]["p"]) for n in inputs["ns"] if n in got
    ]
    verdicts = {n: faults for n, _, faults in _check_capacity_points(present)}
    return [(n, inputs["gamma"], verdicts.get(n, ("result missing",))) for n in inputs["ns"]]


def check_validate(output: list, inputs: dict) -> list[tuple]:
    got = {r["name"]: r for r in output}
    verdicts = []
    for name in reference.SUITE_TOLERANCES:
        if name in got:
            faults = reference.check_suite(name, got[name]["passed"], got[name]["worst"])
        else:
            faults = ("suite missing",)
        verdicts.append((name, None, faults))
    return verdicts


CHECKS = {"sweep": check_sweep, "capacity": check_capacity, "validate": check_validate}


def evaluate(workload: str, inputs: dict, result: dict) -> dict:
    """Counts of attempted and failed operations over every pass, warm-up included."""
    verdicts = {key: CHECKS[workload](out, inputs) for key, out in result["outputs"].items()}
    known = set(inputs.get("known_fault_gammas", ()))
    attempted = failed = 0
    unexpected = []
    for record in result["passes"]:
        for name, gamma, faults in verdicts[record["output"]]:
            attempted += 1
            if faults:
                failed += 1
                if gamma not in known:
                    unexpected.append((name, gamma, faults))
    pass_faults = []
    if workload == "sweep" and len(result["outputs"]) != 1:
        pass_faults.append(f"sweep table differs across passes ({len(result['outputs'])} versions)")
    return {
        "correct": not unexpected and not pass_faults,
        "attempted": attempted,
        "failed": failed,
        "unexpected_faults": unexpected[:20],
        "pass_faults": pass_faults,
        "verdicts": verdicts,
    }


def end_to_end(result: dict, setup_s: float) -> dict[str, float]:
    timed = [p for p in result["passes"] if not p.get("warmup")]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in timed),
        "cpu_s": statistics.median(p["cpu_s"] for p in timed),
        "setup_s": setup_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECKS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    # SystemExit unwinds subprocess.run, which kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "dephcap" / "__init__.py").is_file():
        print(f"no dephcap sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    inputs = make_inputs(args.workload, args.seed)
    spec = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **inputs,
    }
    setup_s = None if args.trace else measure_setup(args.workload, deadline)
    result = run_worker(spec, deadline)
    verdict = evaluate(args.workload, inputs, result)

    if args.trace:
        values = worker.summarize_layers(result["passes"])
        units = worker.PER_LAYER_UNITS
    else:
        values = end_to_end(result, setup_s)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    summary = {
        "spec": spec,
        "nproc": os.cpu_count(),
        "passes": result["passes"],
        "peak_rss_mb": result["peak_rss_mb"],
        "checks": {k: v for k, v in verdict.items() if k != "verdicts"},
        "points": [
            {"point": name, "gamma": gamma, "faults": list(faults)}
            for points in verdict["verdicts"].values()
            for name, gamma, faults in points
        ],
        "metrics": metrics,
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if args.trace:
        (OUT_DIR / f"trace-{tag}.json").write_text(
            json.dumps({"columns": ["id", "name", "parent", "start", "end"], "spans": result["spans"]}),
            encoding="utf-8",
        )
    for name, gamma, faults in verdict["unexpected_faults"]:
        print(f"FAIL {name} gamma={gamma}: {'; '.join(faults)}", file=sys.stderr)
    for fault in verdict["pass_faults"]:
        print(f"FAIL {fault}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": verdict["correct"],
                "attempted": verdict["attempted"],
                "failed": verdict["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
