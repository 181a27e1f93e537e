"""Command-line front end: capacity points, sweeps, bounds and validation.

A solve is a function of (N, gamma) alone; no flag or config key tunes it.
Sweep config files are read for their [grid] and [output] sections; any
other section is ignored.

Exit codes: 0 success, 1 invalid flags or config values, 2 uncertified:
the duality gap exceeds 1e-5 of q, or gamma is past the accuracy of J
(capacity and asymptotic commands), 3 I/O failure, including stdout
closed before all output was written.
Records print that gap as gap=, in bits. Numbers in tabular
output carry 12 significant digits with lowercase exponents so repeated
runs diff byte-for-byte.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import __version__, validate
from .fock import DephasingParams
from .optimize import (
    CapacityResult,
    asymptotic_capacity,
    capacity_sweep,
    maximize_coherent_information,
    maximize_over_ansatz,
    two_point_lower_bound,
)

def fmt(x: float) -> str:
    """12 significant digits, lowercase exponent, locale independent."""
    return format(float(x), ".12g")


def _provenance(payload: dict) -> dict:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return {"version": __version__, "config_hash": hashlib.sha256(blob).hexdigest()[:16]}


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return "" if value is None else str(value)


def _result_fields(res: CapacityResult) -> dict:
    """One solved point as the ordered fields of records, table rows and JSON results.

    A failed sweep point has no input distribution: its mean_energy is None
    and it carries no p_m fields.
    """
    fields = {
        "gamma": res.gamma,
        "N": res.n_max,
        "q_bits": res.q_bits,
        "converged": res.converged,
        "iterations": res.iterations,
        "gap": res.gap,
        "mean_energy": res.mean_energy() if res.p_opt is not None else None,
    }
    if res.p_opt is not None:
        fields.update((f"p_{m}", float(pm)) for m, pm in enumerate(res.p_opt.p))
    return fields


def _print_record(fields: dict, inputs: dict) -> None:
    """Print fields plus the provenance of inputs, the parsed arguments, as key=value lines.

    Values round-trip losslessly at the printed precision; timestamps are
    attached to these interactive records only, never to sweep files.
    """
    record = {**fields, **_provenance(inputs)}
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    print("\n".join(f"{key}={_text(value)}" for key, value in record.items()))


# ---------------------------------------------------------------------------
# sweep configuration

@dataclass
class SweepConfig:
    gamma_grid: list[float] = field(default_factory=list)
    n_grid: list[int] = field(default_factory=list)
    output_path: str = "sweep.csv"
    format: str = "csv"

    def __post_init__(self):
        if not (self.gamma_grid and self.n_grid and self.output_path):
            raise ValueError("gamma grid, N grid and output path must be nonempty")
        if not all(math.isfinite(g) and g >= 0 for g in self.gamma_grid):
            raise ValueError("gamma values must be finite and >= 0")
        if any(n < 1 for n in self.n_grid):
            raise ValueError("N values must be >= 1")
        if self.format not in ("csv", "json"):
            raise ValueError("format must be 'csv' or 'json'")

    def canonical(self) -> dict:
        return {
            "gamma_grid": self.gamma_grid,
            "n_grid": self.n_grid,
            "format": self.format,
        }


def _parse_list(text: str, kind=float) -> list:
    return [kind(tok) for tok in text.replace(",", " ").split()]


_GRID_KEYS = ("gamma", "gamma_start", "gamma_stop", "gamma_count", "n")
_FLAG_NAMES = ("--gammas", "--gamma-start", "--gamma-stop", "--gamma-count")


def _sweep_fields(values: dict, names=_GRID_KEYS[:4]) -> dict:
    """The SweepConfig fields set by one source, the config file or the flags.

    values holds the source's settings under their file keys; names spells
    the gamma keys as the source does. The linspace keys go together and
    exclude gamma. Unset fields are left out, so flags can complete a file.
    """
    fields: dict = {}
    linspace = [values.get(key) for key in _GRID_KEYS[1:4]]
    if linspace != [None, None, None]:
        if "gamma" in values or None in linspace:
            raise ValueError(f"{'/'.join(names[1:])} go together and exclude {names[0]}")
        start, stop, count = linspace
        fields["gamma_grid"] = list(np.linspace(float(start), float(stop), int(count)))
    elif "gamma" in values:
        fields["gamma_grid"] = _parse_list(values["gamma"])
    if "n" in values:
        fields["n_grid"] = _parse_list(values["n"], int)
    if "path" in values:
        fields["output_path"] = values["path"]
    if "format" in values:
        fields["format"] = values["format"]
    return fields


def _read_sweep_file(path: str) -> dict:
    """The [grid] and [output] settings of a sweep file; other keys are ignored."""
    parser = configparser.ConfigParser()
    with open(path, "r", encoding="utf-8") as handle:
        parser.read_file(handle)
    sections = (("grid", _GRID_KEYS), ("output", ("path", "format")))
    return {
        key: value
        for section, keys in sections if parser.has_section(section)
        for key, value in parser[section].items() if key in keys
    }


def write_sweep_csv(results: list[CapacityResult], path: str) -> None:
    n_cols = max(res.n_max for res in results) + 1
    header = ["gamma", "N", "q_bits", "converged", "iterations", "mean_energy"]
    header += [f"p_{m}" for m in range(n_cols)]
    lines = [",".join(header)]
    for res in results:
        fields = _result_fields(res)
        lines.append(",".join(_text(fields.get(key)) for key in header))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_sweep_json(results: list[CapacityResult], path: str, config: SweepConfig) -> None:
    """Strict JSON: the nan q_bits and gap of a failed point are written as null.

    Each row ends with error, the text of the exception that failed the
    point, or null for a solved point.
    """
    rows = []
    for res in results:
        row = {
            key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in _result_fields(res).items()
        }
        p = [row.pop(f"p_{m}") for m in range(res.n_max + 1)] if res.p_opt is not None else None
        rows.append({**row, "p": p, "error": res.error})
    body = {"provenance": _provenance(config.canonical()), "results": rows}
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(body, handle, indent=1, allow_nan=False)
        handle.write("\n")


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse flavor whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _nonneg_float(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite value >= 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="dephcap", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dephcap {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    cap = subs.add_parser("capacity", parents=[], help="optimize one (N, gamma) point")
    cap.add_argument("--n", type=_positive_int, required=True, help="truncation level N")
    cap.add_argument("--gamma", type=_nonneg_float, required=True)

    swp = subs.add_parser("sweep", help="optimize a (gamma, N) grid to a table file")
    swp.add_argument("--config", help="INI-style sweep configuration file")
    swp.add_argument(
        "--gammas", dest="gamma", help="comma/space separated gamma grid (overrides file)"
    )
    swp.add_argument("--gamma-start", type=_nonneg_float)
    swp.add_argument("--gamma-stop", type=_nonneg_float)
    swp.add_argument("--gamma-count", type=_positive_int)
    swp.add_argument("--ns", dest="n", help="comma/space separated N grid (overrides file)")
    swp.add_argument("--output", dest="path", help="output table path (overrides file)")
    swp.add_argument("--format", choices=("csv", "json"), default=None)

    low = subs.add_parser("lower-bound", help="two-point coherent-information bound")
    low.add_argument("--gamma", type=_nonneg_float, required=True)
    low.add_argument("--j", type=_positive_int, default=1, help="level separation")

    ans = subs.add_parser("ansatz", help="discrete-Gaussian width search")
    ans.add_argument("--n", type=_positive_int, required=True)
    ans.add_argument("--gamma", type=_nonneg_float, required=True)

    asy = subs.add_parser("asymptotic", help="large-gamma formula at the optimal input")
    asy.add_argument("--n", type=_positive_int, required=True)
    asy.add_argument("--gamma", type=_nonneg_float, required=True)

    val = subs.add_parser("validate", help="run the cross-oracle suites")
    val.add_argument("--level", choices=("quick", "full"), default="quick")
    return parser


# ---------------------------------------------------------------------------
# commands

def cmd_capacity(args) -> int:
    result = maximize_coherent_information(args.n, DephasingParams(args.gamma))
    _print_record(_result_fields(result), vars(args))
    return 0 if result.converged else 2


def cmd_sweep(args) -> int:
    flags = {key: value for key, value in vars(args).items() if value is not None}
    try:
        file_values = _read_sweep_file(args.config) if args.config is not None else {}
        merged = SweepConfig(**{**_sweep_fields(file_values), **_sweep_fields(flags, _FLAG_NAMES)})
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 3
    except configparser.Error as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"invalid sweep configuration: {exc}", file=sys.stderr)
        return 1

    results = capacity_sweep(merged.gamma_grid, merged.n_grid)
    try:
        if merged.format == "csv":
            write_sweep_csv(results, merged.output_path)
        else:
            write_sweep_json(results, merged.output_path, merged)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(results)} rows to {merged.output_path}")
    return 0


def cmd_lower_bound(args) -> int:
    bound = two_point_lower_bound(DephasingParams(args.gamma), args.j)
    _print_record(asdict(bound), vars(args))
    return 0


def cmd_ansatz(args) -> int:
    sigma_opt, q_bits = maximize_over_ansatz(args.n, DephasingParams(args.gamma))
    fields = {"gamma": args.gamma, "N": args.n, "sigma_opt": sigma_opt, "q_bits": q_bits}
    _print_record(fields, vars(args))
    return 0


def cmd_asymptotic(args) -> int:
    params = DephasingParams(args.gamma)
    result = maximize_coherent_information(args.n, params)
    value = asymptotic_capacity(result.p_opt, params)
    fields = {
        "gamma": args.gamma,
        "N": args.n,
        "q_asymptotic_bits": value,
        "q_optimizer_bits": result.q_bits,
        "converged": result.converged,
        "gap": result.gap,
    }
    _print_record(fields, vars(args))
    return 0 if result.converged else 2


def cmd_validate(args) -> int:
    outcomes = validate.run_validation(args.level)
    for res in outcomes:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
    return 0 if all(res.passed for res in outcomes) else 1


_DISPATCH = {
    "capacity": cmd_capacity,
    "sweep": cmd_sweep,
    "lower-bound": cmd_lower_bound,
    "ansatz": cmd_ansatz,
    "asymptotic": cmd_asymptotic,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = _DISPATCH[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so the flush at
        # interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
