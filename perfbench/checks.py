"""Correctness checks on what the program outputs, and computed work counts.

Every failed check is one entry in ``Checker.failures``; the benchmark
exits nonzero when there is any. The reference ridge here is written
independently of ``opridge.estimators``: it reads each row's coefficient
from the public schedule functions and solves with ``numpy.linalg.solve``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from opridge.core import ProblemConfig
from opridge.estimators import (
    ESTIMATOR_NAMES,
    EmpiricalCovariances,
    estimate_from_covariances,
    single_ridge_lambda,
)
from opridge.schedules import bias_lambdas, multilevel_schedule, variance_lambdas

# Last-bit changes from later speed-ups stay well inside this.
REFERENCE_RTOL = 1e-9
# The traced path runs the same arithmetic as a pool worker.
REPRODUCE_RTOL = 1e-12
# Band of acceptance test 06 for the multilevel slope on the template n_list.
SLOPE_BAND = (-0.68, -0.32)

CellKey = tuple[str, int, int]  # (estimator, n, trial)


@dataclass
class Checker:
    cells: int = 0
    failures: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class SweepOutput:
    """The three files of one ``rates`` call."""

    summary_bytes: bytes
    summary: dict[tuple[str, int], float]
    runs: dict[CellKey, float]
    report: dict
    bytes_written: int

    @classmethod
    def read(cls, out_csv: Path) -> "SweepOutput":
        runs_csv = out_csv.with_name(out_csv.stem + "_runs" + out_csv.suffix)
        report_json = out_csv.with_suffix(".json")
        summary_bytes = out_csv.read_bytes()
        with out_csv.open(newline="") as f:
            summary = {(r["estimator"], int(r["n"])): float(r["median_error_sq"])
                       for r in csv.DictReader(f)}
        with runs_csv.open(newline="") as f:
            runs = {(r["estimator"], int(r["n"]), int(r["trial"])): float(r["error_sq"])
                    for r in csv.DictReader(f)}
        report = json.loads(report_json.read_text())
        written = sum(p.stat().st_size for p in (out_csv, runs_csv, report_json))
        return cls(summary_bytes, summary, runs, report, written)


def check_sweep(chk: Checker, out: SweepOutput, n_list: tuple[int, ...], trials: int,
                template_n_list: tuple[int, ...]) -> None:
    """Every cell has a finite positive error for every estimator, every
    (estimator, n) is summarized, and the template sweep keeps its slope."""
    for n in n_list:
        for t in range(trials):
            chk.cells += 1
            errs = [out.runs.get((name, n, t)) for name in ESTIMATOR_NAMES]
            chk.expect(all(e is not None and math.isfinite(e) and e > 0.0 for e in errs),
                       f"cell n={n} trial={t}: error_sq {errs}")
    want = {(name, n) for name in ESTIMATOR_NAMES for n in n_list}
    chk.expect(set(out.summary) == want
               and all(math.isfinite(v) and v > 0.0 for v in out.summary.values()),
               f"summary rows {out.summary} do not cover {sorted(want)} with positive errors")
    if tuple(n_list) == tuple(template_n_list):
        slope = out.report["fits"]["multilevel"]["slope"]
        lo, hi = SLOPE_BAND
        chk.expect(lo <= slope <= hi, f"multilevel slope {slope} outside [{lo}, {hi}]")


def check_reproduced(chk: Checker, expected: dict[CellKey, float], n: int, trial: int,
                     got: dict[str, float]) -> None:
    """Errors of one cell computed here match the ones a worker wrote."""
    for name, err in got.items():
        want = expected.get((name, n, trial))
        ok = want is not None and abs(err - want) <= REPRODUCE_RTOL * abs(want)
        chk.expect(ok, f"traced {name} n={n} trial={trial}: error_sq {err} != {want}")


def row_lambdas(cfg: ProblemConfig, n: int, estimator: str) -> np.ndarray:
    """Ridge coefficient of each output row; NaN where the row is not learned."""
    lams = np.full(cfg.d_out, np.nan)
    if estimator == "single":
        lams[:] = single_ridge_lambda(cfg, n)
    elif estimator in ("variance", "bias"):
        sched = (variance_lambdas if estimator == "variance" else bias_lambdas)(cfg, n)
        lams[: sched.y_max] = sched.lambdas
    elif estimator == "multilevel":
        for level in multilevel_schedule(cfg, n).levels:
            lams[level.row_start - 1 : level.row_end - 1] = level.lam
    else:
        raise ValueError(f"unknown estimator {estimator!r}")
    return lams


def reference_ridge(cov: EmpiricalCovariances, lams: np.ndarray) -> np.ndarray:
    """Row j solves a (c_kk + lams[j] I) = c_lk[j]; rows sharing a
    coefficient share the system."""
    a = np.zeros_like(cov.c_lk)
    eye = np.eye(cov.d_in)
    for lam in np.unique(lams[~np.isnan(lams)]):
        rows = np.flatnonzero(lams == lam)
        a[rows] = np.linalg.solve(cov.c_kk + lam * eye, cov.c_lk[rows].T).T
    return a


def check_reference(chk: Checker, cov: EmpiricalCovariances, cfg: ProblemConfig) -> None:
    """Each estimator's fit matches the reference ridge to REFERENCE_RTOL."""
    for name in ESTIMATOR_NAMES:
        ref = reference_ridge(cov, row_lambdas(cfg, cov.n, name))
        got = estimate_from_covariances(cov, cfg, name).m
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        rel = float(np.max(np.abs(got - ref))) / scale
        chk.expect(rel <= REFERENCE_RTOL,
                   f"{name} n={cov.n}: fit differs from the reference ridge by {rel:.3e}")


def work_counts(cfg: ProblemConfig, n_list: tuple[int, ...], trials: int) -> dict[str, int]:
    """Work of one pass over the grid, computed from sizes and schedules.

    These are counts of what the algorithm has to do, not measurements:
    they repeat exactly for a given grid and change only when the
    schedules or the problem size do.
    """
    d_in, d_out = cfg.d_in, cfg.d_out
    counts = {
        "synth.bytes_drawn": 0,
        "estimators.gram_flops": 0,
        "estimators.factorizations": 0,
        "schedules.level_count": 0,
        **{f"schedules.learned_rows.{name}": 0 for name in ESTIMATOR_NAMES},
    }
    for n in n_list:
        counts["synth.bytes_drawn"] += trials * 8 * n * (d_in + d_out)
        counts["estimators.gram_flops"] += trials * 2 * n * d_in * (d_in + d_out)
        counts["schedules.level_count"] += trials * multilevel_schedule(cfg, n).level_count
        for name in ESTIMATOR_NAMES:
            lams = row_lambdas(cfg, n, name)
            learned = lams[~np.isnan(lams)]
            counts["estimators.factorizations"] += trials * int(np.unique(learned).size)
            counts[f"schedules.learned_rows.{name}"] += trials * int(learned.size)
    return counts
