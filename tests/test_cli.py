"""Command-line surface: subcommands, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opridge
from opridge import (
    cli,
    harness,
    multilevel_schedule,
    packing_operator,
    parse_config,
    theoretical_rate,
)
from opridge.cli import cli_main


def write_config(tmp_path, name="cfg.json", **overrides):
    obj = {
        "p": 0.5, "q": 0.5, "alpha": 0.5, "beta": 0.6, "beta_prime": 0.3,
        "gamma": 0.1, "gamma_prime": 0.7, "B": 1.0, "sigma": 0.1, "c0": 1.0,
        "d_in": 12, "d_out": 16, "seed": 424242,
        "ground_truth": {"kind": "random", "params": {"taper_in": 0.5, "taper_out": 1.0}},
        "n_list": [64, 128, 256], "trials": 2,
    }
    obj.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return path, obj


def fresh_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's opridge."""
    src = str(Path(opridge.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}


README = Path(__file__).resolve().parents[1] / "README.md"

# A 2 x 2 packing block with an explicit sign pattern.
OMEGA_PACKING = {"kind": "packing",
                 "params": {"m1": 2, "m2": 0, "K": 2, "eps": 0.01, "omega": [[1, 0], [0, 1]]}}

# --out values no command can write to, relative to a directory that holds
# a directory d: an existing directory, a missing one, and two that name no file.
UNWRITABLE_OUTS = ("d/", "nodir/x.csv", "", ".")

# A block far off any grid here, whose m1 x K omega would take 7.28 TiB to draw.
HUGE_PACKING = {"kind": "packing", "params": {"m1": 10**6, "K": 10**6, "eps": 0.01}}


def write_staircase_config(tmp_path):
    # Bias-limited geometry whose schedule at n = 2^14 has clean corners.
    obj = {
        "p": 0.5, "q": 0.5, "alpha": 0.5, "beta": 0.9, "beta_prime": 0.1,
        "gamma": 0.1, "gamma_prime": 0.9, "B": 1.0, "sigma": 0.1, "c0": 1.0,
        "d_in": 512, "d_out": 512, "seed": 20260819,
    }
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps(obj))
    return path, obj


class TestGenConfig:
    def test_template_is_a_valid_config(self, tmp_path):
        out = tmp_path / "template.json"
        assert cli_main(["gen-config", "--out", str(out)]) == 0
        obj = json.loads(out.read_text())
        assert "noise" not in obj, "sigma is the one noise scale"
        cfg, gt, noise, extras = parse_config(obj)
        assert cfg.d_out == 512 and cfg.seed == 20260819
        assert gt.kind == "random"
        assert noise.sigma == cfg.sigma
        assert extras["n_list"][0] == 1024 and extras["n_list"][-1] == 65536
        assert extras["trials"] == 20

    def test_template_to_stdout(self, capsys):
        assert cli_main(["gen-config"]) == 0
        parse_config(json.loads(capsys.readouterr().out))


class TestSchedule:
    def test_known_staircase_rows(self, tmp_path):
        path, _ = write_staircase_config(tmp_path)
        out = tmp_path / "schedule.csv"
        assert cli_main(["schedule", "--config", str(path), "--n", "16384",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "level,x,y,lambda,row_start,row_end"
        assert lines[1] == "0,16,64,0.00390625,1,64", \
            f"base level must print its exact closed-form corner, got {lines[1]!r}"
        assert lines[2] == "1,0.5,68719476736,4,64,513"
        assert len(lines) == 3

    def test_json_matches_library_schedule(self, tmp_path):
        path, obj = write_staircase_config(tmp_path)
        out = tmp_path / "schedule.json"
        assert cli_main(["schedule", "--config", str(path), "--n", "16384",
                         "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        cfg, _, _, _ = parse_config(obj)
        sched = multilevel_schedule(cfg, 16384)
        assert doc["n"] == 16384
        eta1, eta2, u = theoretical_rate(cfg)
        assert (doc["eta1"], doc["eta2"], doc["u"]) == (eta1, eta2, u)
        assert doc["special_case"] == sched.special_case
        assert len(doc["levels"]) == len(sched.levels)
        for got, lv in zip(doc["levels"], sched.levels):
            # JSON keeps full precision; only the CSV rounds for display.
            assert got["x"] == lv.x and got["y"] == lv.y and got["lambda"] == lv.lam
            assert (got["row_start"], got["row_end"]) == (lv.row_start, lv.row_end)

    @pytest.mark.parametrize("overrides", [{}, {"trials": 4.0}, {"n_list": [64.0, 128.0, 256.0]}],
                             ids=["ints", "trials-4.0", "n_list-floats"])
    def test_n_defaults_to_config_maximum(self, tmp_path, capsys, overrides):
        # Integral floats count as the integers, as in every other count field.
        path, obj = write_config(tmp_path, **overrides)
        assert cli_main(["schedule", "--config", str(path)]) == 0
        csv_default = capsys.readouterr().out
        assert cli_main(["schedule", "--config", str(path), "--n", "256"]) == 0
        assert csv_default == capsys.readouterr().out

    def test_missing_n_everywhere_is_a_config_error(self, tmp_path, capsys):
        path, _ = write_staircase_config(tmp_path)
        assert cli_main(["schedule", "--config", str(path)]) == 2
        assert "sample count" in capsys.readouterr().err


class TestContours:
    def test_points_satisfy_contour_equations(self, tmp_path):
        path, obj = write_staircase_config(tmp_path)
        out = tmp_path / "contours.csv"
        n = 1024
        assert cli_main(["contours", "--config", str(path), "--n", str(n),
                         "--samples", "17", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kind,x,y"
        assert len(lines) == 1 + 2 * 17
        cfg, _, _, _ = parse_config(obj)
        eta1, eta2, _ = theoretical_rate(cfg)
        exponents = {
            "variance": ((cfg.beta_prime + max(cfg.alpha - cfg.beta, cfg.p)) / cfg.p,
                         (1.0 - cfg.gamma_prime) / cfg.q,
                         float(n) ** eta2),
            "bias": ((cfg.beta - cfg.beta_prime) / cfg.p,
                     (cfg.gamma_prime - cfg.gamma) / cfg.q,
                     float(n) ** eta1),
        }
        seen = {"variance": 0, "bias": 0}
        for line in lines[1:]:
            kind, x_s, y_s = line.split(",")
            e_x, e_y, level = exponents[kind]
            x, y = float(x_s), float(y_s)
            got = x**e_x * y**e_y
            assert abs(got - level) <= 1e-9 * level, \
                f"{kind} point ({x}, {y}) misses its contour: {got} vs {level}"
            seen[kind] += 1
        assert seen == {"variance": 17, "bias": 17}


class TestFormats:
    @pytest.mark.parametrize("argv, key, number", [
        (["schedule", "--n", "16384"], "levels", lambda v: harness.format_number(cli._sig12(v))),
        (["contours", "--n", "1024", "--samples", "9"], "points",
         lambda v: harness.format_number(cli._sig12(v))),
        (["packing"], "entries", harness.format_number),
    ], ids=["schedule", "contours", "packing"])
    def test_json_rows_print_as_the_csv_rows(self, tmp_path, capsys, argv, key, number):
        # Each JSON row, keyed by the CSV header in order, prints as the
        # matching CSV line once its numbers go through the CSV's formatter.
        path, _ = write_staircase_config(tmp_path)
        assert cli_main([*argv, "--config", str(path)]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        assert cli_main([*argv, "--config", str(path), "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)[key]
        assert len(rows) == len(lines) > 0
        for row, line in zip(rows, lines):
            assert ",".join(row) == header
            assert ",".join(v if isinstance(v, str) else number(v) for v in row.values()) == line


def readme_flag_table() -> dict[str, dict[str, bool]]:
    """The README "Command line" table as {subcommand: {flag: required}}."""
    section = README.read_text().split("## Command line", 1)[1]
    lines = section[section.index("\n|"):].strip().splitlines()
    table_lines = lines[:next(i for i, line in enumerate(lines) if not line.startswith("|"))]

    def cells(line):
        return [c.strip() for c in line.strip().strip("|").split("|")]

    columns = [c.strip("`") for c in cells(table_lines[0])]
    assert columns[0] == "subcommand" and columns[-1] == "own flags", columns
    table = {}
    for line in table_lines[2:]:
        name, *marks, own = cells(line)
        flags = {flag: mark == "required"
                 for flag, mark in zip(columns[1:-1], marks, strict=True) if mark}
        assert all(mark in ("", "yes", "required") for mark in marks), line
        flags.update({f.strip().strip("`"): False for f in own.split(",") if f.strip()})
        table[name.strip("`")] = flags
    return table


def test_readme_flag_table_matches_the_parser():
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    parsed = {
        name: {opt: action.required for action in sub._actions
               for opt in action.option_strings if opt.startswith("--") and opt != "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert readme_flag_table() == parsed


class TestSimulate:
    def test_reports_every_estimator(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert cli_main(["simulate", "--config", str(path), "--n", "128"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["estimator"] for r in doc["results"]] == \
            ["single", "variance", "bias", "multilevel"]
        assert all(r["error_sq"] > 0.0 for r in doc["results"])
        assert set(doc["theoretical"]) == {"eta1", "eta2", "u"}
        assert doc["n"] == 128 and doc["trial"] == 0

    def test_single_estimator_selection(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert cli_main(["simulate", "--config", str(path), "--n", "128",
                         "--estimator", "multilevel"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [r["estimator"] for r in doc["results"]] == ["multilevel"]

    def test_seed_flag_changes_the_draw(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        errors = []
        for seed in ("7", "8", "7"):
            assert cli_main(["simulate", "--config", str(path), "--n", "128",
                             "--seed", seed]) == 0
            doc = json.loads(capsys.readouterr().out)
            errors.append(doc["results"][0]["error_sq"])
        assert errors[0] != errors[1], "--seed must reseed the dataset draw"
        assert errors[0] == errors[2], "equal seeds must reproduce exactly"


class TestRates:
    def run(self, tmp_path, name, *extra):
        path, _ = write_config(tmp_path)
        out = tmp_path / name
        code = cli_main(["rates", "--config", str(path), "--out", str(out), *extra])
        assert code == 0
        return out

    def test_writes_summary_runs_and_report(self, tmp_path, capsys):
        out = self.run(tmp_path, "sweep.csv")
        assert out.read_text().startswith("estimator,n,median_error_sq,iqr_low,iqr_high\n")
        runs = (tmp_path / "sweep_runs.csv").read_text().splitlines()
        assert runs[0] == "estimator,n,trial,error_sq,elapsed_ms"
        assert len(runs) == 1 + 4 * 3 * 2
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert set(report["fits"]) == {"single", "variance", "bias", "multilevel"}
        stdout = capsys.readouterr().out
        assert "multilevel: slope" in stdout and "target" in stdout

    def test_progress_goes_to_stderr(self, tmp_path, capsys):
        self.run(tmp_path, "sweep.csv", "--workers", "1")
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert [line.split(",")[0] for line in lines] == ["trial 1/2 done", "trial 2/2 done"], \
            f"one progress line per finished trial, got {lines}"
        assert all(line.endswith(" s") for line in lines)
        assert "trial" not in captured.out, "stdout keeps only the fit lines"

    def test_summary_is_byte_stable(self, tmp_path, capsys):
        # Same plan, fresh process pools, different worker counts: the
        # summary CSV must not change by a single byte.
        a = self.run(tmp_path, "a.csv", "--workers", "1").read_bytes()
        b = self.run(tmp_path, "b.csv", "--workers", "1").read_bytes()
        c = self.run(tmp_path, "c.csv", "--workers", "4").read_bytes()
        capsys.readouterr()
        assert a == b, "two single-worker invocations disagree"
        assert a == c, "a 4-worker pool changed the summary bytes"

    def test_missing_out_is_a_config_error(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert cli_main(["rates", "--config", str(path)]) == 2
        assert "--out" in capsys.readouterr().err

    def test_out_onto_the_config_is_refused(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, name="c2.json")
        before = path.read_bytes()
        assert cli_main(["rates", "--config", str(path),
                         "--out", str(tmp_path / "c2.csv")]) == 2
        assert "--out" in capsys.readouterr().err
        assert path.read_bytes() == before, "the config must be left as it was"
        assert not (tmp_path / "c2.csv").exists()

    def test_colliding_outputs_are_refused(self, tmp_path, capsys):
        # The report goes to out.with_suffix(".json").
        path, _ = write_config(tmp_path)
        before = path.read_bytes()
        out = tmp_path / "r.json"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert path.read_bytes() == before
        assert not out.exists()

    def test_n_list_flag_that_is_not_integers_exits_two(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out),
                         "--n-list", "64,x,256"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --n-list must be comma-separated integers"), err
        assert not out.exists()

    def test_no_sample_counts_anywhere_exits_two(self, tmp_path, capsys):
        path, obj = write_config(tmp_path)
        del obj["n_list"]
        path.write_text(json.dumps(obj))
        out = tmp_path / "sweep.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "n_list" in err and "--n-list" in err and "Traceback" not in err, err
        assert not out.exists()

    def test_seed_flag_changes_the_draw(self, tmp_path, capsys):
        # elapsed_ms is a timing, so the runs are compared without it.
        runs = []
        for stem, seed in (("a", "7"), ("b", "8"), ("c", "7")):
            self.run(tmp_path, f"{stem}.csv", "--seed", seed)
            lines = (tmp_path / f"{stem}_runs.csv").read_text().splitlines()
            runs.append([line.rsplit(",", 1)[0] for line in lines])
        capsys.readouterr()
        assert runs[0] != runs[1], "--seed must reseed the dataset draws"
        assert runs[0] == runs[2], "equal seeds must reproduce exactly"
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()

    def test_n_list_flag_overrides_config(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        out = tmp_path / "sweep.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out),
                         "--n-list", "32,64,128", "--estimator", "single",
                         "--trials", "2"]) == 0
        capsys.readouterr()
        ns = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
        assert ns == ["32", "64", "128"]


@pytest.fixture(scope="module")
def template_runs_per_blas_threads(tmp_path_factory):
    """rates and simulate on the template, each in a fresh process whose
    environment allows 1 and then 2 BLAS threads.

    Returns {threads: (summary CSV bytes, runs CSV text, simulate JSON)}.
    """
    work = tmp_path_factory.mktemp("blas")
    cfg = work / "cfg.json"
    assert cli_main(["gen-config", "--out", str(cfg)]) == 0
    outputs = {}
    for threads in ("1", "2"):
        env = fresh_env()
        env.update({v: threads for v in harness._BLAS_THREAD_VARS})

        def opridge_cli(*argv):
            subprocess.run([sys.executable, "-m", "opridge.cli", *argv, "--config", str(cfg)],
                           env=env, check=True, capture_output=True)

        summary = work / f"sum{threads}.csv"
        opridge_cli("rates", "--n-list", "1024,4096,16384", "--trials", "1",
                    "--workers", "1", "--out", str(summary))
        simulated = work / f"sim{threads}.json"
        opridge_cli("simulate", "--n", "16384", "--trial", "0", "--out", str(simulated))
        outputs[threads] = (summary.read_bytes(),
                            (work / f"sum{threads}_runs.csv").read_text(),
                            json.loads(simulated.read_text()))
    return outputs


class TestBlasThreadsInTheCallersEnvironment:
    # Only a host with two or more CPUs runs a second BLAS thread, so on one
    # CPU these tests cannot fail.
    def test_rates_summary_bytes_do_not_depend_on_them(self, template_runs_per_blas_threads):
        one, two = (template_runs_per_blas_threads[t][0] for t in ("1", "2"))
        assert one == two, "the summary CSV changed with the caller's BLAS threads"

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_simulate_equals_the_rates_cell(self, template_runs_per_blas_threads, threads):
        _, runs, simulated = template_runs_per_blas_threads[threads]
        cell = {}
        for line in runs.splitlines()[1:]:
            estimator, n, trial, error_sq, _ = line.split(",")
            if (n, trial) == ("16384", "0"):
                cell[estimator] = float(error_sq)
        got = {r["estimator"]: r["error_sq"] for r in simulated["results"]}
        assert got == cell, "simulate must reproduce the rates cell bit for bit"


def _openblas_on_x86_64() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas["name"] and platform.machine() in ("x86_64", "AMD64")


class TestBlasKernelInTheCallersEnvironment:
    @pytest.mark.skipif(not _openblas_on_x86_64(),
                        reason="OPENBLAS_CORETYPE picks a kernel of an x86-64 OpenBLAS")
    def test_an_exported_openblas_core_type_moves_no_byte(self, tmp_path, monkeypatch):
        # A Sandybridge kernel rounds the Gram sums and solves differently
        # from the one OpenBLAS picks on a newer CPU; a worker runs the latter.
        cfg = tmp_path / "cfg.json"
        assert cli_main(["gen-config", "--out", str(cfg)]) == 0
        outputs = []
        for coretype in (None, "Sandybridge"):
            if coretype is None:
                monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
            else:
                monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
            summary, simulated = tmp_path / f"{coretype}.csv", tmp_path / f"{coretype}.json"
            assert cli_main(["rates", "--config", str(cfg), "--n-list", "512,1024,2048",
                             "--trials", "2", "--workers", "1", "--out", str(summary)]) == 0
            assert cli_main(["simulate", "--config", str(cfg), "--n", "1024",
                             "--out", str(simulated)]) == 0
            results = json.loads(simulated.read_text())["results"]
            outputs.append((summary.read_bytes(), [r["error_sq"] for r in results]))
        (plain_csv, plain_sim), (sandy_csv, sandy_sim) = outputs
        assert plain_csv == sandy_csv, "OPENBLAS_CORETYPE changed the rates summary"
        assert plain_sim == sandy_sim, "OPENBLAS_CORETYPE changed the simulate errors"


class TestCallingProcess:
    """A sweep's calling process, each test in a fresh interpreter. Only the
    workers build the ground truth, so the caller never imports numpy.random
    (which maps OpenSSL's libcrypto), and a refused build reaches it by name
    from the pool."""

    CALLER_SCRIPT = """
import json, sys
from opridge.cli import cli_main
code = cli_main(sys.argv[1:])
with open("/proc/self/maps") as f:
    openssl = [line for line in f if "libcrypto" in line]
print(json.dumps([code, "numpy.random" in sys.modules, openssl]))
"""

    @staticmethod
    def template(tmp_path, **overrides) -> Path:
        path = tmp_path / "template.json"
        assert cli_main(["gen-config", "--out", str(path)]) == 0
        path.write_text(json.dumps({**json.loads(path.read_text()), **overrides}))
        return path

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
    def test_a_sweeps_caller_loads_no_numpy_random(self, tmp_path):
        argv = ["rates", "--config", str(self.template(tmp_path)), "--n-list", "64,128,256",
                "--trials", "1", "--workers", "1", "--out", str(tmp_path / "r.csv")]
        proc = subprocess.run([sys.executable, "-c", self.CALLER_SCRIPT, *argv],
                              env=fresh_env(), capture_output=True, text=True, check=True)
        code, numpy_random, openssl = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert not numpy_random, "the caller of a sweep imported numpy.random"
        assert openssl == [], f"the caller of a sweep maps OpenSSL: {openssl}"

    def test_a_refused_build_exits_two_through_spawned_workers(self, tmp_path):
        # laplacian needs d_in == d_out, and the template is 256 x 512; each
        # worker refuses its build, and the caller prints one line.
        path = self.template(tmp_path, ground_truth={"kind": "laplacian", "params": {}})
        out = tmp_path / "r.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "opridge.cli", "rates", "--config", str(path),
             "--n-list", "64,128,256", "--trials", "2", "--workers", "2", "--out", str(out)],
            env=fresh_env(), capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ") and "square grid" in proc.stderr, \
            proc.stderr
        assert "Traceback" not in proc.stderr and "Exception in initializer" not in proc.stderr, \
            proc.stderr
        assert not out.exists()


class TestExitCodes:
    def test_zero_problem_exits_two_naming_the_fields(self, tmp_path, capsys):
        # Passes validation, but every error would be 0 and no slope exists.
        path, _ = write_config(tmp_path, B=0.0, sigma=0.0)
        out = tmp_path / "sweep.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "B=0" in err and "ground_truth" in err and "sigma" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["simulate", "--n", "1"], "--n"),
        (["simulate", "--n", "0"], "--n"),
        (["schedule", "--n", "1"], "--n"),
        (["contours", "--n", "1"], "--n"),
        (["contours", "--samples", "1"], "--samples"),
        (["rates", "--n-list", "1,2,4", "--out", "{tmp}/x.csv"], "n_list"),
    ])
    def test_sample_counts_below_two_exit_two(self, tmp_path, capsys, argv, field):
        # The regularization floor needs n >= 2 and a contour two points.
        path, _ = write_config(tmp_path, d_in=16, d_out=16)
        argv = [a.format(tmp=tmp_path) for a in argv]
        assert cli_main([*argv, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("argv, overrides, field", [
        (["schedule", "--n", str(10**400)], {}, "--n"),
        (["contours", "--n", str(10**400)], {}, "--n"),
        (["simulate", "--n", str(2**1024)], {}, "--n"),
        (["schedule", "--n", str(2**1024 - 1)], {}, "--n"),
        (["contours"], {"n_list": [64, 128, 2**1024]}, "n_list"),
        (["simulate"], {"n_list": [64, 128, 2**1024 - 2**970]}, "n_list"),
        (["rates", "--n-list", f"64,128,{10**400}"], {}, "n_list"),
        (["rates"], {"n_list": [64, 128, 2**1024]}, "n_list"),
    ], ids=["schedule-n-1e400", "contours-n-1e400", "simulate-n-2^1024",
            "schedule-n-2^1024-1", "contours-config-2^1024", "simulate-config-2^1024-2^970",
            "rates-flag-1e400", "rates-config-2^1024"])
    def test_sample_counts_past_double_range_exit_two(self, tmp_path, capsys, monkeypatch,
                                                      argv, overrides, field):
        # The lambda floor computes n / ln n in doubles, so a count past the
        # largest double is refused before any cell runs.
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        path, _ = write_config(tmp_path, **overrides)
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if argv[0] == "rates" else []
        assert cli_main([*argv, *extra, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert field in err and "must be at most 1.79769e+308" in err, err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "16"],
        ["rates", "--n-list", "16,32,64"],
        ["packing"],
    ], ids=["simulate", "rates", "packing"])
    @pytest.mark.parametrize("dims, budget", [
        ({"d_in": 10**7, "d_out": 10**7}, None),
        ({"d_in": 16, "d_out": 16}, 1),
    ], ids=["10^7-dims", "1-byte-budget"])
    def test_arrays_past_physical_memory_exit_two(self, tmp_path, capsys, monkeypatch,
                                                  argv, dims, budget):
        # d_in = d_out = 10^7 needs petabytes of arrays against the real
        # budget; both are refused before any array of that size is made.
        def no_build(*args):
            raise AssertionError("the ground truth must not be built")

        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        for builder in ("random_source_operator", "laplacian_operator", "packing_operator"):
            monkeypatch.setattr(harness, builder, no_build)  # build checks memory first
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        if budget is not None:
            monkeypatch.setattr(harness, "_physical_memory", lambda: budget)
        path, _ = write_config(tmp_path, **dims)
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if argv[0] == "rates" else []
        assert cli_main([*argv, *extra, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"d_in={dims['d_in']} and d_out={dims['d_out']}" in err, err
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "16"],
        ["rates", "--n-list", "16,32,64"],
        ["packing"],
    ], ids=["simulate", "rates", "packing"])
    def test_interpreters_past_physical_memory_exit_two(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        # The arrays of d_in = d_out = 16 take well under 1 MiB, so a budget
        # of one interpreter holds them; it cannot hold the interpreters as
        # well, since every command runs at least one process besides them.
        def no_build(*args):
            raise AssertionError("the ground truth must not be built")

        for builder in ("random_source_operator", "laplacian_operator", "packing_operator"):
            monkeypatch.setattr(harness, builder, no_build)  # build checks memory first
        monkeypatch.setattr(harness, "_physical_memory", lambda: harness._INTERPRETER_BYTES)
        path, _ = write_config(tmp_path, d_in=16, d_out=16)
        out = tmp_path / "x.csv"
        extra = ["--out", str(out)] if argv[0] == "rates" else []
        assert cli_main([*argv, *extra, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "d_in=16 and d_out=16" in err and "interpreter(s)" in err, err
        assert "physical memory" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, out", [
        *((["rates", "--trials", "2", "--n-list", "1024,2048,4096"], out)
          for out in (*UNWRITABLE_OUTS, "jsondir/x.csv")),
        *((argv, out) for argv in (["gen-config"], ["schedule", "--n", "64"],
                                   ["contours", "--n", "64"], ["simulate", "--n", "64"],
                                   ["packing"])
          for out in UNWRITABLE_OUTS),
    ], ids=lambda v: v[0] if isinstance(v, list) else v or "empty")
    def test_an_out_that_cannot_be_written_exits_two(self, tmp_path, capsys, monkeypatch,
                                                     argv, out):
        # rates refuses it in its plan, before any cell runs, and also when
        # its .json sibling (jsondir/x.json) is a directory; every other
        # command that reads a config opens --out once the config has
        # loaded, so simulate starts no worker either.
        def no_cells(*args, **kwargs):
            raise AssertionError("rates must refuse --out before any cell runs")

        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(harness, "_run_cells", no_cells)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        monkeypatch.chdir(tmp_path)
        path, _ = write_config(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "jsondir" / "x.json").mkdir(parents=True)
        before = sorted(tmp_path.rglob("*"))
        config = [] if argv[0] == "gen-config" else ["--config", str(path)]
        assert cli_main([*argv, *config, "--out", out]) == 2
        err = capsys.readouterr().err
        assert "--out" in err and "Traceback" not in err, err
        assert sorted(tmp_path.rglob("*")) == before, "nothing may be written"

    def test_an_out_no_file_can_be_made_in_stops_rates_before_the_pool(self, tmp_path, capsys,
                                                                       monkeypatch):
        # /proc is a directory, even writable by root, in which no new file
        # can be made: only opening the path tells.
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        path, _ = write_config(tmp_path)
        assert cli_main(["rates", "--config", str(path), "--n-list", "64,128,256",
                         "--trials", "2", "--out", "/proc/x.csv"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --out '/proc/x.csv'") and err.count("\n") == 1, err
        assert not Path("/proc/x.csv").exists()

    def test_a_write_that_fails_after_the_sweep_exits_two(self, tmp_path, capsys, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(harness, "write_report_json", full_disk)
        path, _ = write_config(tmp_path)
        out = tmp_path / "x.csv"
        assert cli_main(["rates", "--config", str(path), "--trials", "1",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"config error: --out {str(out)!r} cannot be written: "
                            f"{os.strerror(errno.ENOSPC)}\n"), err
        assert "Traceback" not in err, err

    @pytest.mark.parametrize("argv", [["schedule", "--n", "64"], ["contours", "--n", "64"],
                                      ["simulate", "--n", "64"], ["packing"]],
                             ids=lambda argv: argv[0])
    def test_an_out_onto_the_config_is_refused_by_every_command(self, tmp_path, capsys,
                                                                monkeypatch, argv):
        # rates refuses it too (TestRates); no command may replace its own config.
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        path, _ = write_config(tmp_path)
        before = path.read_bytes()
        assert cli_main([*argv, "--config", str(path), "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: --out {path} would overwrite the config file {path}\n", err
        assert path.read_bytes() == before, "the config must be left as it was"

    def test_contour_samples_past_the_cap_exit_two(self, tmp_path, capsys, monkeypatch):
        def no_contour(*args):
            raise AssertionError("no contour may be drawn")

        monkeypatch.setattr(cli, "contour_points", no_contour)
        path, _ = write_config(tmp_path)
        samples = str(cli._MAX_CONTOUR_SAMPLES + 1)
        assert cli_main(["contours", "--config", str(path), "--n", "64",
                         "--samples", samples]) == 2
        err = capsys.readouterr().err
        assert "--samples" in err and samples in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [["schedule", "--n", "64"], ["contours", "--n", "64"]])
    def test_commands_without_matrices_run_at_any_dimension(self, tmp_path, capsys, argv):
        path, _ = write_config(tmp_path, d_in=10**7, d_out=10**7)
        assert cli_main([*argv, "--config", str(path)]) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("noise", [
        {"sigma": 0.1, "profile": "polynomial"},
        {"sigma": -1},
        {"sigma": 0.1, "profile": "white"},
    ], ids=["equal-to-sigma", "bad-sigma", "bad-profile"])
    def test_noise_block_is_an_unknown_key(self, tmp_path, capsys, noise):
        # sigma is the one noise scale; a noise block is refused whatever it holds.
        path, _ = write_config(tmp_path, noise=noise)
        assert cli_main(["schedule", "--config", str(path), "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert "unknown config key(s): ['noise']" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, overrides, fields", [
        (["rates", "--n-list", "16,32"], {}, ("n_list",)),
        (["rates", "--n-list", ""], {}, ("--n-list is empty",)),
        (["rates", "--n-list", ","], {}, ("--n-list is empty",)),
        (["schedule", "--n", "64"], {"B": 10**400}, ("B",)),
        (["rates", "--n-list", "16,32,64"], {"B": 1e200}, ("B", "sigma")),
        (["rates", "--n-list", "16,32,64"], {"sigma": 1e200}, ("config error: sigma must",)),
        (["simulate", "--n", "64"], {"q": 0.005, "d_out": 512}, ("q", "d_out")),
        (["simulate", "--n", "64"], {"p": 0.005, "d_in": 512}, ("p", "d_in")),
        (["schedule", "--n", "64"], '{"B": 1' + "0" * 5000 + "}", ("JSON", "digits")),
        (["schedule", "--n", "64"], "[" * 200_000, ("JSON", "recursion")),
        *((argv, {"ground_truth": HUGE_PACKING}, ("m1", "d_in"))
          for argv in (["packing"], ["rates", "--n-list", "16,32,64"], ["simulate", "--n", "64"])),
        (["packing"], {"ground_truth": {"kind": "packing",
                                        "params": {"m1": math.inf, "K": 1, "eps": 0.01}}},
         ("ground_truth.params.m1", "integer, got inf")),
        # A NaN taper would build the zero operator, and 2.5 rows would build 2.
        (["simulate", "--n", "64"], {"ground_truth": {"kind": "random",
                                                      "params": {"taper_out": math.nan}}},
         ("ground_truth.params.taper_out", "finite")),
        (["simulate", "--n", "64"], {"ground_truth": {"kind": "packing",
                                                      "params": {"m1": 2.5, "K": 4, "eps": 0.01}}},
         ("ground_truth.params.m1", "integer, got 2.5")),
        # The weights mu_i^((beta-1)/2) carry B past double range at d_in = 256.
        (["rates", "--n-list", "16,32,64"],
         {"p": 0.1, "beta": 0.05, "beta_prime": 0.01, "B": 1e300, "d_in": 256},
         ("B=1e+300", "p=0.1", "beta=0.05")),
        # rho_5^-1 = 5^(1/q) puts the laplacian source coefficients past double range.
        (["simulate", "--n", "64"],
         {"q": 0.0022, "gamma": 0.0, "d_in": 5, "d_out": 5,
          "ground_truth": {"kind": "laplacian", "params": {"t": 1}}},
         ("q=0.0022", "p=0.5", "d_in=5", "ground_truth.params.t=1",
          "ground_truth.params.scale=1.0")),
        # rho_5 = 5^(-1/q) underflows to 0, which the config's own decay refuses.
        (["simulate", "--n", "64"],
         {"q": 0.001, "d_in": 5, "d_out": 5,
          "ground_truth": {"kind": "laplacian", "params": {"t": 1}}}, ("q=0.001", "d_out=5")),
        # Every error underflows to 0, so no rate can be fitted.
        (["rates", "--n-list", "16,32,64"], {"B": 1e-200, "sigma": 0.0}, ("B=", "sigma=")),
        (["rates", "--n-list", "16,32,64"], {"B": 0.0, "sigma": 1e-200}, ("B=", "sigma=")),
        # numpy cannot read these as a matrix, so its message named no field.
        *((["packing"], {"ground_truth": {"kind": "packing", "params": {
            "m1": 2, "K": 2, "eps": 0.01, "omega": omega}}}, ("ground_truth.params.omega",
                                                                "m1 x K = 2 x 2"))
          for omega in ("x", {}, [[1, 0], [0]])),
    ], ids=["two-sample-counts", "n-list-empty", "n-list-comma", "B-400-digit-int", "B-1e200",
            "sigma-1e200",
            "q-underflows-at-d_out", "p-underflows-at-d_in", "B-5000-digit-int",
            "200000-nested-brackets", "packing-block-off-the-grid-packing",
            "packing-block-off-the-grid-rates", "packing-block-off-the-grid-simulate",
            "packing-m1-infinite", "random-taper-nan", "packing-m1-not-integral",
            "B-1e300-overflows-the-operator", "laplacian-coefficients-overflow",
            "laplacian-decay-underflows",
            "B-1e-200-sigma-0-underflows", "B-0-sigma-1e-200-underflows",
            "packing-omega-string", "packing-omega-object", "packing-omega-ragged"])
    def test_valid_looking_config_exits_two(self, tmp_path, capsys, argv, overrides, fields):
        # Each config passes the JSON-shape checks, or (given as text) is a
        # file JSON itself cannot read; a rule further in must still end in
        # exit 2 naming the fields, not in a traceback.
        if isinstance(overrides, str):
            path = tmp_path / "cfg.json"
            path.write_text(overrides)
        else:
            path, _ = write_config(tmp_path, **{"d_in": 16, "d_out": 16, **overrides})
        out = tmp_path / "x.csv"
        extra = ["--trials", "1", "--out", str(out)] if argv[0] == "rates" else []
        assert cli_main([*argv, *extra, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert all(f in err for f in fields), err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("ground_truth, key", [
        ({"kind": "random", "params": {"seed": -1}}, "seed"),
        ({"kind": "packing", "params": {"m1": 2, "K": 4, "eps": 0.01, "seed": -1}}, "seed"),
        ({"kind": "random", "params": {"taper_in": -400}}, "taper_in"),
        ({"kind": "random", "params": {"taper_out": -400}}, "taper_out"),
        ({"kind": "packing", "params": {"m1": 4, "K": 8, "eps": 1e308}}, "eps"),
    ], ids=["random-seed", "packing-seed", "taper_in", "taper_out", "packing-eps"])
    def test_a_ground_truth_param_numpy_cannot_take_is_named(self, tmp_path, ground_truth, key):
        # numpy refuses a negative seed, and the taper's power and the
        # packing block's scale overflow; the refusal names the key, and a
        # fresh process shows all stderr gets.
        path, _ = write_config(tmp_path, d_in=8, d_out=8, ground_truth=ground_truth)
        env = fresh_env()
        proc = subprocess.run([sys.executable, "-m", "opridge.cli", "simulate", "--n", "64",
                               "--config", str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert f"ground_truth.params.{key}" in proc.stderr, proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr, proc.stderr

    @pytest.mark.parametrize("n, overrides, code", [
        (511, {"d_in": 3, "d_out": 8, "p": 0.00977290932835192, "q": 0.8450705793958181,
               "alpha": 0.5971451506578692, "beta": 0.02662502981274038,
               "beta_prime": 0.017554802861683396, "gamma": 0.2683515117259533,
               "gamma_prime": 0.32941085716747265, "c0": 3.8642930250202996e-208,
               "seed": 199413720}, 0),
        (512, {"d_in": 8, "d_out": 8, "p": 0.005, "beta": 0.001, "beta_prime": 0.0005}, 0),
        (512, {"d_in": 8, "d_out": 8, "B": 1e200}, 2),
    ], ids=["eigenvalue-below-rounding", "single-lambda-below-double-range",
            "error-past-double-range"])
    def test_a_sampled_config_runs_or_exits_2_in_a_worker(self, tmp_path, n, overrides, code):
        # Configs the valid-domain fuzz found: a rounding-negative eigenvalue
        # of c_kk beside a tiny lambda, a single-ridge lambda that underflowed
        # to 0 in the worker that built it, and an error whose scoring
        # overflowed with a numpy warning before the refusal.
        template = tmp_path / "template.json"
        assert cli_main(["gen-config", "--out", str(template)]) == 0
        path = tmp_path / "sampled.json"
        path.write_text(json.dumps({**json.loads(template.read_text()), **overrides}))
        env = fresh_env()
        proc = subprocess.run([sys.executable, "-m", "opridge.cli", "simulate", "--n", str(n),
                               "--config", str(path)], env=env, capture_output=True, text=True)
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == "", proc.stderr
        else:
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr

    @pytest.mark.parametrize("argv, overrides", [
        (["simulate", "--n", "4096"], {"beta_prime": 0.895}),
        (["contours", "--n", "65536"], {"beta_prime": 0.8, "gamma_prime": 0.9}),
        (["contours", "--n", "65536"], {"q": 0.2, "gamma_prime": 0.99, "beta_prime": 0.8}),
        (["schedule", "--n", "65536"], {"gamma_prime": 4.0 / 7.0 + 1e-6}),
        (["simulate", "--n", "4096"], {"gamma_prime": 4.0 / 7.0 + 1e-6}),
    ], ids=["bias-lambda-past-double-range", "contour-y-past-double-range",
            "staircase-x-below-double-range", "schedule-u-near-one",
            "simulate-u-near-one"])
    def test_extreme_template_config_runs(self, tmp_path, capsys, argv, overrides):
        # Valid configs whose contour corners lie beyond double range; they
        # saturate to finite numbers instead of overflowing. With u within
        # 1e-5 of 1 the staircase halves instead of contracting for ~1/|u-1|
        # levels.
        template = tmp_path / "template.json"
        assert cli_main(["gen-config", "--out", str(template)]) == 0
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({**json.loads(template.read_text()), **overrides}))
        assert cli_main([*argv, "--config", str(path)]) == 0
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert "Infinity" not in out and "NaN" not in out and "inf" not in out

    @pytest.mark.parametrize("argv, flag", [
        (["simulate", "--n", "64", "--trial", "-1"], "--trial"),
        (["simulate", "--n", "64", "--trial", str(2**64)], "--trial"),
        (["oracle-check", "--seed", "-5"], "--seed"),
        (["oracle-check", "--seed", str(2**64)], "--seed"),
    ], ids=["trial-negative", "trial-2^64", "oracle-seed-negative", "oracle-seed-2^64"])
    def test_seed_labels_outside_64_bits_exit_two(self, tmp_path, capsys, monkeypatch,
                                                  argv, flag):
        # derive_seed reads its inputs modulo 2^64, so these would alias
        # values inside the range instead of failing.
        def no_run(*args, **kwargs):
            raise AssertionError("nothing may run")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_run)
        monkeypatch.setattr(cli, "oracle_checks", no_run)
        path, _ = write_config(tmp_path)
        config = ["--config", str(path)] if argv[0] == "simulate" else []
        assert cli_main([*argv, *config]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be an integer in [0, 2^64)" in err and "Traceback" not in err

    def test_missing_config_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["schedule", "--n", "64"])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        ("gen-config", "--config"), ("gen-config", "--seed"), ("gen-config", "--format"),
        ("schedule", "--seed"), ("contours", "--seed"), ("simulate", "--format"),
        ("rates", "--format"),
        ("oracle-check", "--config"), ("oracle-check", "--out"), ("oracle-check", "--format"),
    ])
    def test_flag_the_subcommand_does_not_read_exits_two(self, tmp_path, capsys, command, flag):
        path, _ = write_config(tmp_path)
        out = tmp_path / "x.txt"
        value = {"--config": str(path), "--seed": "5", "--format": "json", "--out": str(out)}
        argv = [command, flag, value[flag]]
        if command in ("schedule", "contours", "simulate"):
            argv += ["--config", str(path), "--n", "64"]
        if command == "rates":
            argv += ["--config", str(path)]
        if command != "oracle-check":
            argv += ["--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    def test_nonexistent_config_file(self, tmp_path, capsys):
        assert cli_main(["schedule", "--config", str(tmp_path / "nope.json"),
                         "--n", "64"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_malformed_json_names_the_problem(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 0.5, "q": }')
        assert cli_main(["schedule", "--config", str(path), "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "JSON" in err

    @pytest.mark.parametrize("overrides, field", [
        ({"beta": True}, "beta"),
        *(({"trials": trials}, "trials") for trials in (2.5, True, "4")),
        *(({"n_list": n_list}, "n_list") for n_list in (["64", 128, 256], [], "64")),
        ({"ground_truth": {"kind": "packing", "params": {"m1": 2, "K": 4}}}, "'eps'"),
        ({"ground_truth": {"kind": ["random"]}}, "ground_truth.kind"),
        ({"ground_truth": {"kind": "packing", "params": {"m1": 2, "K": 4, "eps": 0.01,
                                                         "omega": None}}},
         "ground_truth.params.omega"),
        ({"ground_truth": {"kind": "random", "taper_in": 0.5}}, "ground_truth key(s)"),
        *(({"ground_truth": {"kind": "packing", "params": {"m1": 2, "K": 4, "eps": 0.01,
                                                           key: value}}},
           f"ground_truth.params.{key} must be")
          for key, value in (("m1", 0), ("K", 0), ("m2", -1), ("eps", 0), ("eps", -1))),
        ({"ground_truth": {"kind": "laplacian", "params": {"t": -1}}},
         "ground_truth.params.t must be"),
    ], ids=["beta-true", "trials-2.5", "trials-true", "trials-string", "n_list-string-entry",
            "n_list-empty", "n_list-string", "packing-without-eps", "kind-list", "omega-null",
            "ground_truth-unknown-key", "packing-m1-0", "packing-K-0", "packing-m2-negative",
            "packing-eps-0", "packing-eps-negative", "laplacian-t-negative"])
    def test_bad_field_value_names_the_field(self, tmp_path, capsys, overrides, field):
        # schedule reads neither trials nor the ground truth: every command
        # that loads the config refuses them.
        path, _ = write_config(tmp_path, **overrides)
        assert cli_main(["schedule", "--config", str(path), "--n", "64"]) == 2
        err = capsys.readouterr().err
        assert field in err and err.startswith("config error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("ground_truth", [
        {"kind": "packing", "params": {"m1": 2, "K": 4}},
        {"kind": "packing", "params": {"m1": 2, "K": 4, "eps": 0.01, "omega": None}},
        {"kind": ["random"]},
    ], ids=["packing-without-eps", "omega-null", "kind-list"])
    def test_a_ground_truth_its_spec_refuses_stops_rates_before_any_worker(
            self, tmp_path, capsys, monkeypatch, ground_truth):
        def no_pool(*args, **kwargs):
            raise AssertionError("no worker pool may start")

        monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
        path, _ = write_config(tmp_path, ground_truth=ground_truth)
        out = tmp_path / "x.csv"
        assert cli_main(["rates", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ground_truth") and err.count("\n") == 1, err
        assert not out.exists()

    def test_out_of_range_field_names_the_field(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, alpha=1.5)
        assert cli_main(["schedule", "--config", str(path), "--n", "64"]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_unknown_key_named(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, smoothness=0.5)
        assert cli_main(["schedule", "--config", str(path), "--n", "64"]) == 2
        assert "smoothness" in capsys.readouterr().err

    def test_unknown_subcommand_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_estimator_choice_rejected_by_parser(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli_main(["simulate", "--config", str(path), "--estimator", "lasso"])
        assert exc.value.code == 2


class TestOracleCheck:
    def test_all_suites_pass(self, capsys):
        assert cli_main(["oracle-check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4 and "FAIL" not in out

    def test_failure_turns_into_exit_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "opridge.cli.oracle_checks",
            lambda seed: [("fake-suite", False, "injected failure")],
        )
        assert cli_main(["oracle-check"]) == 1
        assert "FAIL fake-suite" in capsys.readouterr().out


class TestPacking:
    def test_entries_match_the_generator(self, tmp_path, capsys):
        omega = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        path, obj = write_config(
            tmp_path,
            ground_truth={"kind": "packing",
                          "params": {"m1": 2, "m2": 1, "K": 3, "eps": 0.01,
                                     "omega": omega}},
        )
        assert cli_main(["packing", "--config", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "row,col,value"
        cfg, _, _, _ = parse_config(obj)
        want = packing_operator(
            2, 1, 3, 0.01, np.asarray(omega),
            cfg.input_decay, cfg.output_decay, cfg.beta_prime, cfg.gamma_prime,
        )
        got = {}
        for line in lines[1:]:
            r, c, v = line.split(",")
            got[(int(r), int(c))] = float(v)
        rows, cols = np.nonzero(want.m)
        assert got == {
            (int(j) + 1, int(i) + 1): want.m[j, i] for j, i in zip(rows, cols)
        }, "CSV must list exactly the nonzero block, 1-based"

    def test_seed_flag_replaces_the_config_omega(self, tmp_path, capsys):
        path, obj = write_config(tmp_path, ground_truth=OMEGA_PACKING)
        cfg, _, _, _ = parse_config(obj)
        for seed in (1, 2):
            assert cli_main(["packing", "--config", str(path), "--seed", str(seed),
                             "--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert "omega" not in doc["params"] and doc["params"]["seed"] == seed
            want = packing_operator(2, 0, 2, 0.01, np.random.default_rng(seed),
                                    cfg.input_decay, cfg.output_decay,
                                    cfg.beta_prime, cfg.gamma_prime)
            rows, cols = np.nonzero(want.m)
            assert [(e["row"], e["col"], e["value"]) for e in doc["entries"]] == [
                (int(j) + 1, int(i) + 1, want.m[j, i]) for j, i in zip(rows, cols)
            ], f"--seed {seed} must draw the sign pattern, not keep the config's omega"

    def test_config_with_omega_and_seed_exits_two(self, tmp_path, capsys):
        both = {"kind": "packing", "params": {**OMEGA_PACKING["params"], "seed": 3}}
        path, _ = write_config(tmp_path, ground_truth=both)
        assert cli_main(["packing", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ground_truth.params.omega" in err and "ground_truth.params.seed" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("dims", [{"d_in": 4}, {"d_out": 7}], ids=["d_in-4", "d_out-7"])
    def test_a_grid_too_small_for_the_default_block_names_the_grid(self, tmp_path, capsys,
                                                                  dims):
        path, _ = write_config(tmp_path, **dims)
        assert cli_main(["packing", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        for named in (f"d_in={dims.get('d_in', 12)}", f"d_out={dims.get('d_out', 16)}",
                      "default packing block m1=4, K=8"):
            assert named in err, err
        assert "ground_truth.params" not in err, "the config gives no packing params"

    def test_a_negative_seed_flag_names_the_flag(self, tmp_path, capsys):
        path, _ = write_config(tmp_path, ground_truth=OMEGA_PACKING)
        assert cli_main(["packing", "--config", str(path), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --seed must be an integer >= 0, got -1\n", err

    def test_default_block_on_plain_config(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        assert cli_main(["packing", "--config", str(path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["m1"] == 4 and doc["params"]["K"] == 8
        assert all(5 <= e["col"] <= 8 for e in doc["entries"]), \
            "default block must sit in columns m1+1..2*m1"
        assert all(math.isfinite(e["value"]) for e in doc["entries"])
