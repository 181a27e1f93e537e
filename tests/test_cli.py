import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dephcap import fock, optimize, replica, validate
from dephcap.fock import DephasingParams, FockDensityMatrix
from dephcap.cli import SweepConfig, _read_sweep_file, _sweep_fields, build_parser, fmt, main


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(heading, lang):
    """The first ```lang fenced block after the given README heading line."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index(f"\n{heading}\n"):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def load_config(path):
    """A complete sweep configuration read from one file, as `dephcap sweep --config` reads it."""
    return SweepConfig(**_sweep_fields(_read_sweep_file(str(path))))


def closed_form_q2(gamma):
    e = math.exp(-gamma / 2.0)
    return 1.0 - fock.shannon_bits([(1 + e) / 2.0, (1 - e) / 2.0])


def parse_record(text):
    pairs = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        pairs[key] = value
    return pairs


CONFIG = """
[grid]
gamma = 0.25, 1.0
n = 1, 3

[output]
path = {path}
format = {format}
"""


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(1.0 / 3.0) == "0.333333333333"
        assert fmt(2.0) == "2"
        assert fmt(1.23456789e-9) == "1.23456789e-09"

    def test_lowercase_exponent_and_stability(self):
        s = fmt(6.02214076e23)
        assert "e" in s and "E" not in s
        assert fmt(float(s)) == s


class TestCapacityCommand:
    def test_two_level_record(self, capsys):
        rc = main(["capacity", "--n", "1", "--gamma", "1.0"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert float(rec["q_bits"]) == pytest.approx(closed_form_q2(1.0), abs=1e-8)
        assert float(rec["p_0"]) == pytest.approx(0.5, abs=1e-4)
        assert float(rec["p_1"]) == pytest.approx(0.5, abs=1e-4)
        assert rec["converged"] == "true"

    def test_noiseless_value_is_exact(self, capsys):
        rc = main(["capacity", "--n", "3", "--gamma", "0"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert float(rec["q_bits"]) == 2.0
        assert rec["q_bits"] == "2"
        for m in range(4):
            assert float(rec[f"p_{m}"]) == pytest.approx(0.25, abs=1e-5)

    def test_symmetry_check_on_record(self, capsys):
        main(["capacity", "--n", "4", "--gamma", "0.5"])
        rec = parse_record(capsys.readouterr().out)
        for m in range(5):
            assert float(rec[f"p_{m}"]) == pytest.approx(float(rec[f"p_{4 - m}"]), abs=1e-3)

    @pytest.mark.parametrize(
        "argv",
        [["capacity", "--n", "1", "--gamma", "-2"]],
        ids=lambda argv: "-".join([argv[0], argv[-2].lstrip("-"), argv[-1]]),
    )
    def test_invalid_flags_exit_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--gamma", "1.0"])
        assert exc.value.code == 1

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        # the cap also stops the c solve, whose result the start cache would
        # keep, so the start is solved first: even from the exact large-gamma
        # optimum one Newton step leaves N = 64 at gamma 0.25 with a gap of
        # 3.8e-3 J
        optimize._start_weights(64)
        monkeypatch.setattr(optimize, "MAX_NEWTON_STEPS", 1)
        rc = main(["capacity", "--n", "64", "--gamma", "0.25"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 2
        assert rec["converged"] == "false"
        assert rec["iterations"] == "1"

    def test_gamma_sixteen_certifies(self, capsys):
        # J is about 1e-7 here; its cancellation-free kernel still certifies it
        rc = main(["capacity", "--n", "8", "--gamma", "16"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert rec["converged"] == "true"
        assert 0.0 <= float(rec["gap"]) <= 1e-5 * float(rec["q_bits"])

    def test_gamma_past_kernel_accuracy_certifies(self, capsys):
        # at gamma 73, J's rounding (50 eps e^{gamma/2}) is far above 1e-5 of
        # it, so the point reports e^-gamma c, which at N 1 is the two-point bound
        rc = main(["capacity", "--n", "1", "--gamma", "73"])
        rec = parse_record(capsys.readouterr().out)
        bound = optimize.two_point_lower_bound(DephasingParams(73.0), 1).value_bits
        assert rc == 0
        assert rec["converged"] == "true"
        assert rec["q_bits"] == fmt(bound)

    def test_singular_newton_point_exits_zero(self):
        # J's bordered Newton system is singular at N 16, gamma 132; the
        # solve runs on c there and the point exits 0, with no traceback
        src = Path(fock.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "dephcap.cli", "capacity", "--n", "16", "--gamma", "132"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=60,
        )
        assert proc.returncode == 0
        assert parse_record(proc.stdout)["converged"] == "true"
        assert "Traceback" not in proc.stderr

    def test_underflowed_point_exits_two(self, capsys):
        # e^-gamma underflows to 0 from gamma 745.2, so q_bits is 0 and uncertified
        rc = main(["capacity", "--n", "8", "--gamma", "745.2"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 2
        assert rec["q_bits"] == "0"
        assert rec["converged"] == "false"

    def test_certified_record_reports_gap(self, capsys):
        rc = main(["capacity", "--n", "8", "--gamma", "1"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert 0.0 <= float(rec["gap"]) <= 1e-5 * float(rec["q_bits"])

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["capacity", "--n", "2", "--gamma", "1", "--restarts", "1"], id="restarts"
            ),
            pytest.param(["capacity", "--n", "2", "--gamma", "1", "--seed", "3"], id="seed"),
            pytest.param(
                ["capacity", "--n", "2", "--gamma", "1", "--gradient-mode", "analytic"],
                id="gradient-mode",
            ),
            pytest.param(["sweep", "--gammas", "1", "--ns", "1", "--threads", "2"], id="threads"),
            *(
                pytest.param(
                    [command, "--n", "2", "--gamma", "1", "--objective-tolerance", value],
                    id=f"{command}-objective-tolerance-{value}",
                )
                for command in ("capacity", "asymptotic")
                for value in ("0", "-1", "nan")
            ),
            *(
                pytest.param([*argv, "--max-iterations", "5"], id=f"{argv[0]}-max-iterations")
                for argv in (
                    ["capacity", "--n", "2", "--gamma", "1"],
                    ["sweep", "--gammas", "1", "--ns", "1"],
                    ["asymptotic", "--n", "2", "--gamma", "1"],
                )
            ),
        ],
    )
    def test_removed_flags_exit_one(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1

    def test_closed_stdout_is_an_io_failure(self):
        # a reader that goes away early (`| head -1`) is exit 3, not a traceback
        src = Path(fock.__file__).resolve().parents[1]
        proc = subprocess.Popen(
            [sys.executable, "-m", "dephcap.cli", "capacity", "--n", "1", "--gamma", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 3
        assert "Traceback" not in err


class TestSweepCommand:
    def run_sweep(self, tmp_path, fmt_name="csv"):
        out = tmp_path / f"table.{fmt_name}"
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(CONFIG.format(path=out, format=fmt_name))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 0
        return out

    def test_csv_shape_and_order(self, tmp_path):
        out = self.run_sweep(tmp_path)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        header, body = rows[0], rows[1:]
        assert header == [
            "gamma", "N", "q_bits", "converged", "iterations", "mean_energy",
            "p_0", "p_1", "p_2", "p_3",
        ]
        keys = [(int(r[1]), float(r[0])) for r in body]
        assert keys == sorted(keys)
        n1_rows = [r for r in body if r[1] == "1"]
        assert all(r[8] == "" and r[9] == "" for r in n1_rows)  # right-padded

    def test_csv_values_roundtrip(self, tmp_path):
        out = self.run_sweep(tmp_path)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        for row in rows[1:]:
            q = float(row[2])
            assert fmt(q) == row[2]
            assert 0.0 <= q <= math.log2(int(row[1]) + 1) + 1e-9

    def test_byte_identical_reruns(self, tmp_path):
        first = self.run_sweep(tmp_path).read_bytes()
        second = self.run_sweep(tmp_path).read_bytes()
        assert first == second

    def test_json_format(self, tmp_path):
        out = self.run_sweep(tmp_path, fmt_name="json")
        body = json.loads(out.read_text())
        assert body["provenance"]["version"]
        assert "timestamp" not in body["provenance"]
        assert len(body["results"]) == 4
        for rec in body["results"]:
            assert abs(sum(rec["p"]) - 1.0) < 1e-9

    def test_flag_overrides_file(self, tmp_path):
        out = tmp_path / "flagged.csv"
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(CONFIG.format(path=tmp_path / "ignored.csv", format="csv"))
        rc = main(
            ["sweep", "--config", str(cfg), "--gammas", "0.5", "--ns", "2",
             "--output", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 2
        assert rows[1][0] == "0.5" and rows[1][1] == "2"

    def test_gamma_linspace_flags(self, tmp_path, capsys):
        out = tmp_path / "lin.csv"
        rc = main(
            ["sweep", "--gamma-start", "0.1", "--gamma-stop", "0.3", "--gamma-count", "3",
             "--ns", "1", "--output", str(out)]
        )
        assert rc == 0
        with open(out, newline="") as handle:
            gammas = [float(r[0]) for r in list(csv.reader(handle))[1:]]
        assert gammas == pytest.approx([0.1, 0.2, 0.3])

    def test_missing_config_exits_three(self, capsys):
        rc = main(["sweep", "--config", "/nonexistent/sweep.ini"])
        assert rc == 3
        assert "cannot read" in capsys.readouterr().err

    def test_unwritable_output_exits_three(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(CONFIG.format(path="/nonexistent-dir/out.csv", format="csv"))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 3
        assert "cannot write" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, flags",
        [
            ("gamma = -1.0\nn = 1", []),
            ("gamma = 1, inf\nn = 1", []),
            ("gamma = 1, nan\nn = 1", []),
            (None, ["--gammas", "nan", "--ns", "1"]),
            (None, ["--gammas", "inf", "--ns", "1"]),
            (None, ["--gammas", "abc", "--ns", "1"]),
            (None, ["--gammas", "1", "--ns", "1.5"]),
            ("gamma = 1.0\nn = 1", ["--gamma-stop", "2", "--gamma-count", "3"]),
            (None, ["--gammas", "1", "--gamma-start", "0.1", "--gamma-stop", "0.3",
                    "--gamma-count", "3", "--ns", "1"]),
            ("gamma = 1.0\ngamma_start = 0.1\ngamma_stop = 0.3\ngamma_count = 3\nn = 1", []),
            ("gamma = 1.0\ngamma_stop = 2\nn = 1", []),
            ("gamma_start = 0.1\ngamma_stop = 0.3\nn = 1", []),
            ("gamma = 1.0\nn = 1", ["--gammas", ""]),
            (None, ["--gammas", "1", "--ns", "1", "--output", ""]),
            (None, ["--config", "", "--gammas", "1", "--ns", "1"]),
            ("gamma = 1.0\nn = 0", []),
            ("gamma = 1.0\nn = 1\n[output]\nformat = xml", []),
        ],
        ids=[
            "file-negative", "file-inf", "file-nan",
            "flag-nan", "flag-inf", "flag-abc", "flag-fractional-n",
            "flag-linspace-without-start", "flag-gammas-with-linspace",
            "file-gamma-with-linspace", "file-stop-without-start", "file-incomplete-linspace",
            "empty-gammas-over-file", "empty-output", "empty-config",
            "file-n-zero", "file-format-xml",
        ],
    )
    def test_invalid_grid_exits_one(self, tmp_path, capsys, monkeypatch, grid, flags):
        # an empty flag is a value, never a fallback; an empty --config path
        # cannot be read, which is an I/O failure
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "never.csv"
        argv = ["sweep", "--output", str(out), *flags]
        if grid is not None:
            cfg = tmp_path / "sweep.ini"
            cfg.write_text(f"[grid]\n{grid}\n")
            argv += ["--config", str(cfg)]
        rc = main(argv)
        code, message = (3, "cannot read config") if "--config" in flags else \
            (1, "invalid sweep configuration")
        assert rc == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "grid, flags",
        [
            ("gamma = 0.5, 1", ["--ns", "2"]),
            ("n = 1, 2", ["--gammas", "1"]),
            ("gamma_start = 0.1\ngamma_stop = 0.3\ngamma_count = 3\nn = 1",
             ["--gammas", "0.5,1"]),
            ("gamma = 1.0\nn = 1", ["--gamma-start", "0.1", "--gamma-stop", "0.3",
                                    "--gamma-count", "2"]),
        ],
        ids=["file-gamma-flag-ns", "file-n-flag-gammas", "file-linspace-flag-gammas",
             "file-gamma-flag-linspace"],
    )
    def test_flags_complete_partial_file(self, tmp_path, grid, flags):
        out = tmp_path / "completed.csv"
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(f"[grid]\n{grid}\n")
        rc = main(["sweep", "--config", str(cfg), "--output", str(out), *flags])
        assert rc == 0
        with open(out, newline="") as handle:
            assert len(list(csv.reader(handle))) == 3

    def test_per_point_failure_keeps_exit_zero(self, tmp_path):
        # an interior point failure must not fail the sweep; exercised via a
        # monkeypatched optimizer in test_point_failure below
        out = tmp_path / "ok.csv"
        rc = main(["sweep", "--gammas", "0.5", "--ns", "1", "--output", str(out)])
        assert rc == 0

    def test_singular_newton_points_are_solved_rows(self, tmp_path):
        # points where J's Newton system is singular, (3, 300), (16, 132),
        # (24, 150), (32, 200) and (64, 300), are certified rows of the grid:
        # past J's accuracy limit the solve runs on c
        out = tmp_path / "far.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--gammas", "132,150,200,300", "--ns", "3,16,24,32,64",
                       "--output", str(out), "--format", "json"])
        assert rc == 0
        results = json.loads(out.read_text())["results"]
        assert len(results) == 20
        assert all(r["error"] is None and r["converged"] is True for r in results)
        assert all(r["iterations"] == 0 for r in results)

    def test_point_failure_row(self, tmp_path, monkeypatch):
        real = optimize.maximize_coherent_information

        def flaky(n_max, params):
            if params.gamma == 1.0:
                raise RuntimeError("synthetic point failure")
            return real(n_max, params)

        monkeypatch.setattr(optimize, "maximize_coherent_information", flaky)
        out = tmp_path / "holes.csv"
        with pytest.warns(RuntimeWarning, match="failed"):
            rc = main(["sweep", "--gammas", "0.5,1.0", "--ns", "1", "--output", str(out)])
        assert rc == 0
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        failed = [r for r in rows if r[0] == "1"]
        assert failed[0][2] == "nan" and failed[0][3] == "false" and failed[0][6] == ""
        # JSON has no nan: the failed point's floats are null, parsed strictly
        out = tmp_path / "holes.json"
        with pytest.warns(RuntimeWarning, match="failed"):
            rc = main(["sweep", "--gammas", "0.5,1.0", "--ns", "1", "--output", str(out),
                       "--format", "json"])
        assert rc == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        results = json.loads(out.read_text(), parse_constant=reject)["results"]
        failed = [r for r in results if r["gamma"] == 1.0]
        assert failed == [{"gamma": 1.0, "N": 1, "q_bits": None, "converged": False,
                           "iterations": 0, "gap": None, "mean_energy": None, "p": None,
                           "error": "synthetic point failure"}]
        assert results[0]["q_bits"] > 0.0 and len(results[0]["p"]) == 2
        assert results[0]["error"] is None


class TestConfigLoader:
    def test_gamma_linspace_in_file(self, tmp_path):
        cfg = tmp_path / "lin.ini"
        cfg.write_text(
            "[grid]\ngamma_start = 0.0\ngamma_stop = 1.0\ngamma_count = 5\nn = 1 2\n"
        )
        loaded = load_config(cfg)
        assert loaded.gamma_grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
        assert loaded.n_grid == [1, 2]

    def test_optimizer_section(self, tmp_path):
        # a solve has no settings: the retired [optimizer] section loads like any unknown one
        cfg = tmp_path / "opt.ini"
        cfg.write_text(
            "[grid]\ngamma = 1.0\nn = 1\n\n[optimizer]\nmax_iterations = 50\n"
            "objective_tolerance = 1e-9\n"
        )
        loaded = load_config(cfg)
        assert loaded == SweepConfig(gamma_grid=[1.0], n_grid=[1])


class TestOtherCommands:
    def test_lower_bound_record(self, capsys):
        rc = main(["lower-bound", "--gamma", "1", "--j", "1"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert float(rec["value_bits"]) == pytest.approx(closed_form_q2(1.0), abs=1e-12)

    @pytest.mark.parametrize("gamma, bits", [("0", "1"), ("1", "0")])
    def test_lower_bound_separation_past_float_range(self, capsys, gamma, bits):
        # j^2 = 1e800 has no float: e is 1 at gamma 0 and underflows to 0 otherwise
        rc = main(["lower-bound", "--gamma", gamma, "--j", str(10 ** 400)])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert rec["j"] == str(10 ** 400)
        assert rec["value_bits"] == bits

    def test_ansatz_record(self, capsys):
        rc = main(["ansatz", "--n", "5", "--gamma", "1"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        fit = 0.2 * 5 + 0.6
        assert abs(float(rec["sigma_opt"]) - fit) <= 0.25 * fit

    def test_asymptotic_record(self, capsys):
        rc = main(["asymptotic", "--n", "1", "--gamma", "8"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        expected = math.exp(-8.0) / (2.0 * math.log(2.0))
        assert float(rec["q_asymptotic_bits"]) == pytest.approx(expected, rel=1e-3)

    def test_asymptotic_record_carries_certificate(self, capsys):
        rc = main(["asymptotic", "--n", "8", "--gamma", "16"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert rec["converged"] == "true"
        assert 0.0 <= float(rec["gap"]) <= 1e-5 * float(rec["q_optimizer_bits"])

    def test_asymptotic_equals_optimizer_past_kernel_accuracy(self, capsys):
        # past gamma 41.24 the solver reports e^-gamma c(p_c), the same formula
        rc = main(["asymptotic", "--n", "8", "--gamma", "60"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 0
        assert rec["converged"] == "true"
        assert rec["q_asymptotic_bits"] == rec["q_optimizer_bits"]

    def test_asymptotic_uncertified_exits_two(self, capsys, monkeypatch):
        # the start is solved before the cap, which the start cache would
        # keep: with no J step the exact large-gamma optimum leaves a gap
        # of 1.3e-4 J at N 64, gamma 5, where e^{-gamma/2} < 0.1 raises no
        # warning
        optimize._start_weights(64)
        monkeypatch.setattr(optimize, "MAX_NEWTON_STEPS", 0)
        rc = main(["asymptotic", "--n", "64", "--gamma", "5"])
        rec = parse_record(capsys.readouterr().out)
        assert rc == 2
        assert rec["converged"] == "false"
        assert float(rec["gap"]) > 1e-5 * float(rec["q_optimizer_bits"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestValidateCommand:
    def test_quick_level_passes(self, capsys):
        rc = main(["validate", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    @pytest.mark.parametrize(
        "module, name, fault, suite",
        [
            (replica, "gram_matrix", lambda real: lambda params, idx: real(params, idx) ** 1.01,
             "replica_vs_bruteforce"),
            (fock, "kraus_apply",
             lambda real: lambda rho, params: real(rho, DephasingParams(1.001 * params.gamma)),
             "representation_equivalence"),
            (fock, "environment_amplitudes",
             lambda real: lambda params, n_max: real(DephasingParams(1.001 * params.gamma), n_max),
             "representation_equivalence"),
            (fock, "apply_dephasing",
             lambda real: lambda rho, params: real(rho, DephasingParams(params.gamma ** 1.1)),
             "semigroup"),
            (fock, "apply_dephasing",
             lambda real: lambda rho, params: FockDensityMatrix(
                 0.99 * real(rho, params).entries + 0.01 / rho.dim),
             "covariance"),
            (fock, "coherent_information",
             lambda real: lambda rho, params: real(rho, params)
             + np.abs(np.triu(rho.entries, 1)).sum(),
             "proposition1_dominance"),
            (optimize, "_objective_and_gradient",
             lambda real: lambda w, gamma, levels=None: (
                 lambda j, *rest: (j * (1.0 + 1e-6), *rest))(*real(w, gamma, levels)),
             "replica_vs_bruteforce"),
            (fock, "gram_matrix", lambda real: lambda params, idx: real(params, idx) ** 1.01,
             "representation_equivalence"),
            (fock, "environment_entropy_bits",
             lambda real: lambda p, params: real(p, params) * (1.0 + 1e-6),
             "replica_vs_bruteforce"),
            (optimize, "_objective_and_gradient",
             lambda real: lambda w, gamma, levels=None: (
                 lambda j, *rest: (j * math.nan, *rest))(*real(w, gamma, levels)),
             "replica_vs_bruteforce"),
        ],
        ids=["skewed-gram-kernel", "skewed-kraus", "skewed-environment-table", "rates-do-not-add",
             "mixes-in-superposition", "rewards-coherence", "scaled-j-kernel",
             "skewed-closed-form-kernel", "scaled-environment-entropy", "nan-j-kernel"],
    )
    def test_corrupted_code_fails_its_suite(self, capsys, monkeypatch, module, name, fault, suite):
        # negative controls: the acceptance tests trust these suites, so each
        # must report FAIL when the code it checks is wrong
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        rc = main(["validate", "--level", "quick"])
        out = capsys.readouterr().out
        assert rc == 1
        assert f"FAIL {suite}" in out


@pytest.mark.parametrize("suite", validate._SUITES, ids=lambda s: s.__name__)
def test_suites_reject_unknown_level(suite):
    with pytest.raises(ValueError, match="level"):
        suite("fulll")


def test_suite_results_have_details():
    outcome = validate.suite_semigroup("quick")
    assert outcome.passed
    assert "defect" in outcome.detail


class TestReadmeDrift:
    # the README's examples must track the CLI: a flag the parser no longer
    # knows, or an example config that no longer loads, fails here

    def test_command_lines_parse(self):
        lines = [
            shlex.split(line, comments=True)
            for line in readme_block("## Command line", "sh").splitlines()
            if line.startswith("dephcap ")
        ]
        assert len(lines) >= 6
        for argv in lines:
            build_parser().parse_args(argv[1:])

    def test_sweep_config_example_loads(self, tmp_path):
        cfg = tmp_path / "sweep.ini"
        cfg.write_text(readme_block("### Sweep configuration", "ini"))
        loaded = load_config(cfg)
        assert loaded.gamma_grid and loaded.n_grid

    def test_library_example_runs(self, capsys):
        exec(readme_block("## Library use", "python"), {})
