"""Workloads and measurement loops of the opridge sweep benchmark.

Every workload is one closed-loop ``opridge rates`` call on the
``gen-config`` template problem (d_in=256, d_out=512, all four estimators):
the next call starts when the previous one has written its files. The
untraced run (``measure_e2e``) repeats that call through ``cli_main`` and
reports medians. The traced run (``measure_traced``) runs the same cells
serially in this process through ``run_cell``, with a span around each
call ``run_cell`` makes into synth, estimators, schedules and core.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy

from opridge import cli, estimators, harness, synth
from opridge.core import OperatorMatrix, ProblemConfig
from opridge.estimators import ESTIMATOR_NAMES, empirical_covariances
from opridge.harness import load_config, run_cell
from opridge.synth import NoiseProfile, derive_seed, make_dataset

import checks
from tracing import Tracer, patch_calls

TEMPLATE_N_LIST = tuple(2**k for k in range(10, 17))
# The fixed cost of a sweep: spawn, import, ground truth, config load.
SETUP_N_LIST = (4, 8, 16)
SETUP_REPEATS = 3
# Sub-seed tag for the benchmark's own datasets (reference ridge check).
_TAG_REFERENCE = 0xBE


@dataclass(frozen=True)
class Workload:
    name: str
    n_list: tuple[int, ...]
    trials: int
    workers: int

    @property
    def cells(self) -> list[tuple[int, int]]:
        return [(n, t) for n in self.n_list for t in range(self.trials)]

    @property
    def samples(self) -> int:
        return self.trials * sum(self.n_list)


WORKLOADS = {w.name: w for w in (
    # The sweep users run, on the acceptance fixture's n_list. Sampling and
    # Gram products dominate; the per-lambda Cholesky loop is second.
    Workload("template-sweep", TEMPLATE_N_LIST, trials=2, workers=2),
    # Short cells whose arrays fit in L2: the fits and the fixed per-cell
    # costs dominate, so synth and Gram changes should not move it.
    Workload("small-n-sweep", tuple(2**k for k in range(8, 13)), trials=8, workers=2),
    # Synth and Gram out of cache, fits a small share, peak memory growing
    # with n. One worker keeps the peak near 1.4 GB.
    Workload("large-n-sweep", (2**15, 2**16, 2**17), trials=1, workers=1),
)}

E2E_UNITS = {"wall_s": "s", "samples_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Span name -> per-layer metric, for spans opened inside the cells.
_STAGE_METRICS = {
    "synth.make_dataset": "synth.make_dataset_ms",
    "synth.sample_inputs": "synth.sample_inputs_ms",
    "synth.sample_noise": "synth.sample_noise_ms",
    "estimators.empirical_covariances": "estimators.empirical_covariances_ms",
    "estimators.fit_rowwise_ridge": "estimators.fit_rowwise_ridge_ms",
    **{f"estimators.fit.{e}": f"estimators.fit_ms.{e}" for e in ESTIMATOR_NAMES},
    "schedules.variance_lambdas": "schedules.variance_lambdas_ms",
    "schedules.bias_lambdas": "schedules.bias_lambdas_ms",
    "schedules.multilevel_schedule": "schedules.multilevel_schedule_ms",
    "core.bg_norm": "core.bg_norm_ms",
    "harness.run_cell": "harness.run_cell_ms",
}
# Span name -> per-layer metric, for the parent-side steps of a rates call.
_CLI_METRICS = {
    "cli.load_config": "cli.load_config_ms",
    "harness.ground_truth": "harness.ground_truth_ms",
    "harness.fit_rate": "harness.fit_rate_ms",
    "harness.write": "harness.write_ms",
}
PER_LAYER_UNITS = {
    **{m: "ms" for m in _STAGE_METRICS.values()},
    "harness.run_cell_self_ms": "ms",
    **{m: "ms" for m in _CLI_METRICS.values()},
    "estimators.gram_gflops_per_s": "GFLOP/s",
    "harness.pool_busy_frac": "fraction",
    "harness.bytes_written": "B",
    "synth.peak_alloc_mb": "MB",
    "estimators.peak_alloc_mb": "MB",
    "trace.overhead_pct": "%",
    "synth.bytes_drawn": "B-computed",
    "estimators.gram_flops": "flop-computed",
    "estimators.factorizations": "count-computed",
    "schedules.level_count": "count-computed",
    **{f"schedules.learned_rows.{e}": "count-computed" for e in ESTIMATOR_NAMES},
}


@dataclass(frozen=True)
class Result:
    metrics: dict[str, float]
    units: dict[str, str]
    checker: checks.Checker
    work: Path  # where the run left its files

    @property
    def correct(self) -> bool:
        return not self.checker.failures

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": max(1, self.checker.cells),
            "failed": len(self.checker.failures),
            "metrics": {k: {"value": v, "unit": self.units[k]} for k, v in self.metrics.items()},
        })


def _cli(argv: list[str]) -> None:
    # The fit lines go to stderr: stdout ends with the result line.
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.cli_main(argv)
    if code != 0:
        raise RuntimeError(f"opridge {' '.join(argv)} exited with {code}")


@dataclass(frozen=True)
class Sweep:
    """The directory one run writes to, and its template config."""

    work: Path
    config: Path
    seed: int

    @classmethod
    def prepare(cls, workdir: Path, w: Workload, seed: int) -> "Sweep":
        work = workdir / f"{w.name}-seed{seed}-pid{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        config = work / "config.json"
        _cli(["gen-config", "--out", str(config)])
        return cls(work, config, seed)

    def rates(self, n_list: tuple[int, ...], trials: int, workers: int, out_name: str) -> tuple[float, Path]:
        """Wall seconds of one rates call, from its start until its files are written."""
        out = self.work / out_name
        argv = ["rates", "--config", str(self.config), "--seed", str(self.seed),
                "--n-list", ",".join(str(n) for n in n_list), "--trials", str(trials),
                "--workers", str(workers), "--out", str(out)]
        t0 = time.perf_counter()
        _cli(argv)
        return time.perf_counter() - t0, out

    def problem(self) -> tuple[ProblemConfig, OperatorMatrix, NoiseProfile]:
        cfg, gt, noise, _ = load_config(self.config)
        cfg = replace(cfg, seed=self.seed)
        return cfg, gt.build(cfg), noise


def machine_facts(loadavg_start: tuple[float, float, float]) -> dict[str, Any]:
    """What the numbers depend on besides the code."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 2 has no dict mode
        blas = {}
    try:
        llc = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        llc = None
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(loadavg_start),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _check_reference(chk: checks.Checker, sweep: Sweep, n: int) -> None:
    cfg, a0, noise = sweep.problem()
    data = make_dataset(a0, n, noise, derive_seed(sweep.seed, _TAG_REFERENCE, n))
    chk.cells += 1
    checks.check_reference(chk, empirical_covariances(data), cfg)


def measure_e2e(w: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    """End-to-end metrics, tracing off: medians over repeated rates calls."""
    sweep = Sweep.prepare(workdir, w, seed)
    chk = checks.Checker()
    setup = [sweep.rates(SETUP_N_LIST, 1, w.workers, "setup.csv")[0] for _ in range(SETUP_REPEATS)]
    walls: list[float] = []
    first_summary = None
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not walls:
        wall, out_csv = sweep.rates(w.n_list, w.trials, w.workers, "sweep.csv")
        walls.append(wall)
        out = checks.SweepOutput.read(out_csv)
        checks.check_sweep(chk, out, w.n_list, w.trials, TEMPLATE_N_LIST)
        first_summary = first_summary or out.summary_bytes
        chk.expect(out.summary_bytes == first_summary,
                   "summary CSV bytes differ between calls with the same seed")
    # cli_main returns after the pool has joined its workers, so the
    # largest of them is in this process's RUSAGE_CHILDREN.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    _check_reference(chk, sweep, w.n_list[0])
    metrics = {
        "wall_s": statistics.median(walls),
        "samples_per_s": statistics.median(w.samples / x for x in walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_mb,
    }
    (sweep.work / "e2e.json").write_text(json.dumps({"walls": walls, "setup": setup}) + "\n")
    return Result(metrics, dict(E2E_UNITS), chk, sweep.work)


def _cell_targets() -> list[tuple[Any, str, Any]]:
    """The calls run_cell makes, at the module attribute each is looked up in."""
    def fit_name(cov: Any, cfg: Any, estimator: str, lam: Any = None) -> str:
        return f"estimators.fit.{estimator}"

    return [
        (harness, "make_dataset", "synth.make_dataset"),
        (synth, "sample_inputs", "synth.sample_inputs"),
        (synth, "sample_noise", "synth.sample_noise"),
        (harness, "empirical_covariances", "estimators.empirical_covariances"),
        (harness, "estimate_from_covariances", fit_name),
        (estimators, "variance_lambdas", "schedules.variance_lambdas"),
        (estimators, "bias_lambdas", "schedules.bias_lambdas"),
        (estimators, "multilevel_schedule", "schedules.multilevel_schedule"),
        (estimators, "fit_rowwise_ridge", "estimators.fit_rowwise_ridge"),
        (harness, "bg_norm", "core.bg_norm"),
    ]


def _cli_targets() -> list[tuple[Any, str, Any]]:
    """The steps a rates call takes in the calling process."""
    return [
        (cli, "load_config", "cli.load_config"),
        (harness.GroundTruthSpec, "build", "harness.ground_truth"),
        (harness, "fit_rate", "harness.fit_rate"),
        (harness, "write_summary_csv", "harness.write"),
        (harness, "write_runs_csv", "harness.write"),
        (harness, "write_report_json", "harness.write"),
    ]


def _traced_pass(tracer: Tracer, index: int, cfg: ProblemConfig, a0: OperatorMatrix,
                 noise: NoiseProfile, w: Workload, chk: checks.Checker,
                 expected: dict[checks.CellKey, float]) -> tuple[float, float]:
    """Each cell runs twice back to back: plain, and traced with a span
    around run_cell. Which goes first alternates from cell to cell, so
    drift and warm caches favour neither; the ratio of the two totals is
    the tracing overhead. The traced errors must match the ones the pool
    wrote. Returns (plain seconds, traced seconds).
    """
    spent = {False: 0.0, True: 0.0}
    for i, (n, t) in enumerate(w.cells):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            t0 = time.perf_counter()
            if not traced:
                run_cell(cfg, a0, n, t, ESTIMATOR_NAMES, noise)
            else:
                with tracer.traced_calls(_cell_targets()):
                    tracer.cell = (index, n, t)
                    with tracer.span("harness.run_cell"):
                        records = run_cell(cfg, a0, n, t, ESTIMATOR_NAMES, noise)
                    tracer.cell = None
            spent[traced] += time.perf_counter() - t0
        chk.cells += 1
        checks.check_reproduced(chk, expected, n, t, {r.estimator: r.error_sq for r in records})
    return spent[False], spent[True]


def _peak_alloc_mb(cfg: ProblemConfig, a0: OperatorMatrix, noise: NoiseProfile, n: int) -> dict[str, float]:
    """tracemalloc peak above the live heap, per stage, over one run_cell."""
    peaks: dict[str, int] = defaultdict(int)

    def probe(fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        def measured(*args: Any, **kwargs: Any) -> Any:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[layer] = max(peaks[layer], tracemalloc.get_traced_memory()[1] - before)
        return measured

    targets = [(harness, "make_dataset", "synth"),
               (harness, "empirical_covariances", "estimators"),
               (harness, "estimate_from_covariances", "estimators")]
    tracemalloc.start()
    try:
        with patch_calls(targets, probe, []):
            run_cell(cfg, a0, n, 0, ESTIMATOR_NAMES, noise)
    finally:
        tracemalloc.stop()
    return {f"{layer}.peak_alloc_mb": peaks[layer] / 2**20 for layer in ("synth", "estimators")}


def measure_traced(w: Workload, seed: int, seconds: float, workdir: Path) -> Result:
    """Per-layer metrics from spans around the calls into each module."""
    sweep = Sweep.prepare(workdir, w, seed)
    chk = checks.Checker()
    tracer = Tracer()
    with tracer.traced_calls(_cli_targets()):
        wall, out_csv = sweep.rates(w.n_list, w.trials, w.workers, "sweep.csv")
    cli_totals = tracer.totals(None)
    out = checks.SweepOutput.read(out_csv)
    checks.check_sweep(chk, out, w.n_list, w.trials, TEMPLATE_N_LIST)

    cfg, a0, noise = sweep.problem()
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced_walls:
        plain, traced = _traced_pass(tracer, len(traced_walls), cfg, a0, noise, w, chk, out.runs)
        plain_walls.append(plain)
        traced_walls.append(traced)

    per_pass = [tracer.totals(p) for p in range(len(traced_walls))]

    def stage(name: str, self_time: bool = False) -> float:
        return statistics.median(t.get(name, (0, 0))[self_time] for t in per_pass) / 1e6

    metrics = {metric: stage(name) for name, metric in _STAGE_METRICS.items()}
    metrics["harness.run_cell_self_ms"] = stage("harness.run_cell", self_time=True)
    metrics.update({metric: cli_totals.get(name, (0, 0))[0] / 1e6
                    for name, metric in _CLI_METRICS.items()})
    counts = checks.work_counts(cfg, w.n_list, w.trials)
    metrics.update(counts)
    cov_s = metrics["estimators.empirical_covariances_ms"] / 1e3
    # Zero when run_cell no longer calls empirical_covariances (see unpatched).
    metrics["estimators.gram_gflops_per_s"] = counts["estimators.gram_flops"] / cov_s / 1e9 if cov_s else 0.0
    metrics["harness.pool_busy_frac"] = statistics.median(plain_walls) / (w.workers * wall)
    metrics["harness.bytes_written"] = out.bytes_written
    metrics.update(_peak_alloc_mb(cfg, a0, noise, max(w.n_list)))
    metrics["trace.overhead_pct"] = 100.0 * (sum(traced_walls) / sum(plain_walls) - 1.0)

    _check_reference(chk, sweep, w.n_list[0])
    tracer.write(sweep.work / "spans.json")
    (sweep.work / "passes.json").write_text(
        json.dumps({"plain": plain_walls, "traced": traced_walls, "rates_wall": wall}) + "\n")
    return Result(metrics, dict(PER_LAYER_UNITS), chk, sweep.work)
