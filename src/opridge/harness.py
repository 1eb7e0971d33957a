"""Experiment orchestration: configs, plans, the worker pool, rate fits, files, oracle suites.

A convergence experiment is a grid of cells indexed by (sample count n,
trial); each trial is one pass of estimators._run_trial over n_list. The
errors at different n of one trial share their inputs, so they are
correlated; different trials are independent. run_convergence, like the
simulate subcommand, executes trials in spawned worker processes pinned
to one BLAS thread -- even with one worker -- so the parent interpreter
never does cell arithmetic and the output bytes depend neither on how
many workers were requested nor on the caller's BLAS thread variables.
Only the workers build the ground truth and their pass state, each once
for all its trials (_pool_init). A refusal of that build comes back from
the pool by name, so the parent neither builds a0 nor imports
numpy.random. A worker starts with fixed glibc heap thresholds
(_WORKER_ENV), so that its passes reuse resident pages.

Error is always the squared (beta', gamma')-norm of (estimate - truth),
summarized across trials by median and interquartile range; the target
rates are high-probability statements, so medians, not means.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from multiprocessing import get_context
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    ConfigError,
    EigenDecay,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    _scalar,
    bg_norm,
    bg_norm_via_embedding,
    make_decay,
    operator_from_source,
    theoretical_rate,
)
from .estimators import (
    ESTIMATOR_NAMES,
    EmpiricalCovariances,
    LambdaMap,
    TrialRecord,
    _pass_peak_bytes,
    _pass_state,
    _run_trial,
    analytic_bias,
    fit_rowwise_ridge,
    population_regularized,
)
from .synth import (
    derive_seed,
    ground_truth_seed,
    laplacian_operator,
    packing_operator,
    random_source_operator,
)

__all__ = [
    "ExperimentPlan",
    "GroundTruthSpec",
    "RateFit",
    "RateReport",
    "RateSummary",
    "config_to_dict",
    "fit_rate",
    "load_config",
    "oracle_checks",
    "parse_config",
    "run_cell",
    "run_convergence",
    "write_report_json",
    "write_runs_csv",
    "write_summary_csv",
]

# Each ground-truth kind: the params it requires, then every param it allows.
_GROUND_TRUTH_PARAMS = {
    "random": ((), {"taper_in", "taper_out", "seed"}),
    "laplacian": ((), {"t", "scale"}),
    "packing": (("m1", "K", "eps"), {"m1", "m2", "K", "eps", "omega", "seed"}),
}

# The least value of each integer param; numpy seeds its generators with
# nonnegative integers. Every other param but omega is a finite float.
_GROUND_TRUTH_INT_MIN = {"seed": 0, "m1": 1, "m2": 0, "K": 1, "t": 0}

# Environment variables that set a BLAS library's thread count.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# Environment variables that choose the kernel a BLAS library runs, and so
# the last bits of its products: OpenBLAS's core type and MKL's code path.
# A worker starts without them, so it runs the kernel its library picks
# for the CPU.
_BLAS_KERNEL_VARS = ("OPENBLAS_CORETYPE", "MKL_CBWR", "MKL_ENABLE_INSTRUCTIONS",
                     "MKL_DEBUG_CPU_TYPE")

# glibc's malloc reads these when a worker starts. A fixed mmap threshold
# puts every array below it on the heap, whatever the heap's history, and
# the trim threshold (twice it, glibc's own pairing when it moves the mmap
# threshold itself) keeps that much free heap resident. So eigh's workspace
# and each snapshot's arrays reuse the pages of the last ones: on the
# template, a trial pass after the first takes no minor page fault. With a
# 4 MiB trim threshold the pass's freed arrays (4.3 MiB) are trimmed at its
# end and fault in again, about 1,100 faults a pass. Other allocators
# ignore both variables.
_WORKER_MMAP_BYTES = 4 * 2**20
_WORKER_TRIM_BYTES = 8 * 2**20
_WORKER_ENV = {**{v: "1" for v in _BLAS_THREAD_VARS},
               "MALLOC_MMAP_THRESHOLD_": str(_WORKER_MMAP_BYTES),
               "MALLOC_TRIM_THRESHOLD_": str(_WORKER_TRIM_BYTES)}


# ---------------------------------------------------------------------------
# Ground truth construction


@dataclass(frozen=True)
class GroundTruthSpec:
    """Declarative description of the true operator of an experiment.

    kind "random" draws sign coefficients under polynomial tapers
    (params: taper_in, taper_out, seed), "laplacian" builds the diagonal
    derivative-style demo (params: t, scale; requires d_in == d_out),
    "packing" places a sign-pattern block (params: m1, m2, K, eps, and
    either an explicit 0/1 omega matrix or a seed to draw one).

    Parameters are validated on construction so that a bad config fails at
    load time, not in the middle of a sweep: packing needs m1, K and eps,
    omega is a matrix, not null, and each number param is stored as a
    finite float, or as an int where an integral float such as 4.0 is
    accepted. The ints are seed >= 0, m1 >= 1, m2 >= 0, K >= 1 and t >= 0,
    and eps > 0; any other value raises a ConfigError naming
    ground_truth.params.<key>. build refuses only what the grid decides,
    and an omega that is not an m1 x K 0/1 matrix.
    """

    kind: str = "random"
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _GROUND_TRUTH_PARAMS:
            raise ConfigError(f"ground_truth.kind must be one of {tuple(_GROUND_TRUTH_PARAMS)}, "
                              f"got {self.kind!r}")
        required, allowed = _GROUND_TRUTH_PARAMS[self.kind]
        unknown = set(self.params) - allowed
        if unknown:
            raise ConfigError(
                f"ground_truth.params for kind {self.kind!r} has unknown "
                f"key(s) {sorted(unknown)}; allowed: {sorted(allowed)}"
            )
        for key in required:
            if key not in self.params:
                raise ConfigError(f"ground_truth.params for kind {self.kind!r} is missing "
                                  f"key {key!r}")
        if "omega" in self.params and self.params["omega"] is None:  # null is not "draw one"
            raise ConfigError("ground_truth.params.omega must be a 0/1 matrix, got None")
        if "omega" in self.params and "seed" in self.params:
            raise ConfigError("ground_truth.params.omega and ground_truth.params.seed both "
                              "given: the seed only draws an omega, so give one of them")
        params = {k: v if k == "omega"
                  else _scalar(f"ground_truth.params.{k}", v, k in _GROUND_TRUTH_INT_MIN)
                  for k, v in self.params.items()}
        for key, least in _GROUND_TRUTH_INT_MIN.items():
            if params.get(key, least) < least:
                raise ConfigError(f"ground_truth.params.{key} must be an integer >= {least}, "
                                  f"got {params[key]}")
        if params.get("eps", 1.0) <= 0.0:
            raise ConfigError(f"ground_truth.params.eps must be positive, got {params['eps']}")
        object.__setattr__(self, "params", params)

    def build(self, cfg: ProblemConfig) -> OperatorMatrix:
        """Materialize the operator on the config's frequency grid.

        Raises:
            ConfigError: naming d_in and d_out, before anything is
                allocated, when this process and its build of a0 exceed
                physical memory (_check_memory(cfg, 0)); or naming the
                fields that give no operator on this grid: a laplacian on
                a grid that is not square, a packing block past it, or
                coefficients past double range.
        """
        _check_memory(cfg, 0)
        p = self.params
        if self.kind == "random":
            seed = p.get("seed", ground_truth_seed(cfg))
            # A taper that params leave out takes random_source_operator's default.
            tapers = {k: p[k] for k in ("taper_in", "taper_out") if k in p}
            _, a0 = random_source_operator(cfg, seed, **tapers)
            return a0
        if self.kind == "laplacian":
            if cfg.d_in != cfg.d_out:
                raise ConfigError(
                    "ground_truth.kind 'laplacian' needs a square grid, "
                    f"got d_in={cfg.d_in}, d_out={cfg.d_out}"
                )
            # Smoothness orders are pinned by the config decays
            # (mu_i = i^(-1/p) means s = 1/(2p)), so only the symbol
            # is free here. Each decay raises its own ConfigError first.
            decays = cfg.input_decay, cfg.output_decay
            t, scale = p.get("t", 1), p.get("scale", 1.0)
            try:
                with np.errstate(over="ignore", invalid="ignore"):  # refused by name
                    _, op, _ = laplacian_operator(
                        s=1.0 / (2.0 * cfg.p),
                        m=1.0 / (2.0 * cfg.q),
                        t=t,
                        dim=cfg.d_in,
                        scale=scale,
                        beta=cfg.beta,
                        gamma=cfg.gamma,
                    )
            except OverflowError:
                raise ConfigError(
                    f"q={cfg.q} and p={cfg.p} at d_in={cfg.d_in} with ground_truth.params."
                    f"t={t} and ground_truth.params.scale={scale} put the laplacian "
                    "coefficients d_n mu_n^(-beta/2) rho_n^(-(2-gamma)/2) past double "
                    "precision: raise q or p, or lower t or scale") from None
            return OperatorMatrix(op.m, *decays)
        omega = p.get("omega")
        if omega is None:  # packing_operator draws it once the block fits the grid
            omega = np.random.default_rng(p.get("seed", ground_truth_seed(cfg)))
        return packing_operator(p["m1"], p.get("m2", 0), p["K"], p["eps"], omega,
                                cfg.input_decay, cfg.output_decay,
                                cfg.beta_prime, cfg.gamma_prime)


# ---------------------------------------------------------------------------
# Plans and reports


def _check_sample_count(n: int, field: str) -> None:
    """Refuse a sample count the lambda floor c0 * (n / ln n)^(-1/alpha) cannot take.

    The floor needs n >= 2, and n / ln n runs in doubles, so n must not
    exceed the largest one, 2^1024 - 2^971.
    """
    if n < 2:
        raise ConfigError(f"{field} must be >= 2, got {n}")
    if n > sys.float_info.max:
        raise ConfigError(f"{field} must be at most {sys.float_info.max:.6g}, the largest "
                          f"double, got a {n.bit_length()}-bit count")


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything a convergence sweep needs, validated up front.

    The noise scale is cfg.sigma. n_list entries, trials and workers are
    ints, where an integral float such as 64.0 is accepted. When out is
    set, run_convergence writes the summary CSV there, the runs CSV to its
    _runs sibling and the JSON report to its .json sibling (outputs), once
    the sweep is done. An out that names no file, or any of whose three
    paths cannot be opened for writing, is refused here; a file made to
    check this is removed again.
    """

    cfg: ProblemConfig
    n_list: tuple[int, ...]
    trials: int
    estimators: tuple[str, ...] = ESTIMATOR_NAMES
    ground_truth: GroundTruthSpec = field(default_factory=GroundTruthSpec)
    workers: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        n_list = tuple(_scalar("each n_list entry", n, True) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "estimators", tuple(self.estimators))
        for name in ("trials", "workers"):
            object.__setattr__(self, name, _scalar(name, getattr(self, name), True))
        # A rate fit needs 3 points.
        if len(n_list) < 3 or any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ConfigError("n_list must hold at least 3 strictly increasing sample "
                              f"counts, got {n_list}")
        _check_sample_count(n_list[0], "each n_list entry")
        _check_sample_count(n_list[-1], "each n_list entry")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.estimators:
            raise ConfigError("estimators must be a nonempty subset of "
                              f"{ESTIMATOR_NAMES}")
        bad = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if bad:
            raise ConfigError(f"unknown estimator(s) {bad}; valid: {ESTIMATOR_NAMES}")
        if len(set(self.estimators)) != len(self.estimators):
            raise ConfigError(f"estimators repeat: {self.estimators}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # Refused here, before any worker exists, not when the sweep is done.
        if self.out is not None and not Path(self.out).name:
            raise ConfigError(f"--out {self.out!r} names no file")
        written = [p.resolve() for p in self.outputs()]
        if len(set(written)) < len(written):
            raise ConfigError(f"--out {self.out} makes two output files share a path; "
                              "the report goes to the .json sibling of --out")
        _check_writable(self.out, self.outputs())

    def outputs(self) -> tuple[Path, ...]:
        """The summary CSV, runs CSV and JSON report paths; none when out is None."""
        return () if self.out is None else _outputs(self.out)


def _check_writable(out: str, paths: Sequence[Path]) -> None:
    """Refuse --out unless each of paths, which it names, can be opened for writing.

    Each is opened to append, so no byte of a file moves, and a file made
    to check this is removed again.
    """
    for path in paths:
        made = not path.exists()
        try:
            path.open("a").close()
        except OSError as exc:
            which = "" if path == Path(out) else f" would write {path}, which"
            raise ConfigError(f"--out {out!r}{which} cannot be written: {exc.strerror}") from None
        if made:
            path.unlink()


def _outputs(out: str) -> tuple[Path, ...]:
    """The summary CSV out, its _runs sibling and its .json sibling; out names a file."""
    path = Path(out)
    return path, path.with_name(path.stem + "_runs" + path.suffix), path.with_suffix(".json")


@dataclass(frozen=True)
class RateSummary:
    """Across-trial error quartiles for one (estimator, n)."""

    estimator: str
    n: int
    median_error_sq: float
    iqr_low: float
    iqr_high: float


@dataclass(frozen=True)
class RateFit:
    """Least-squares power law of one estimator's median errors."""

    estimator: str
    slope: float
    intercept: float
    r_squared: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValueError(
                f"degenerate rate fit for {self.estimator!r}: "
                f"slope={self.slope}, intercept={self.intercept}"
            )


@dataclass(frozen=True)
class RateReport:
    """Full outcome of a convergence sweep.

    theoretical_eta1 is the predicted squared-error decay exponent; the
    empirical counterpart of -eta1 is each fit's slope. total_seconds is
    wall time for the whole grid, and worker_start_seconds the part of it
    from the pool's creation until the last worker that ran a trial had
    finished its start-up; with the per-record timings, they are the only
    non-deterministic fields.
    """

    runs: tuple[TrialRecord, ...]
    summaries: tuple[RateSummary, ...]
    fits: tuple[RateFit, ...]
    theoretical_eta1: float
    total_seconds: float
    worker_start_seconds: float


# ---------------------------------------------------------------------------
# Single cells


def run_cell(
    cfg: ProblemConfig,
    a0: OperatorMatrix,
    n: int,
    trial_index: int,
    estimators: Sequence[str],
    noise: NoiseProfile,
) -> tuple[TrialRecord, ...]:
    """Fit every requested estimator on the first n rows of one trial's stream.

    The one-n case of the pass a sweep makes over each trial (see
    _run_trial), in the calling process: when it runs BLAS on one thread,
    as a sweep's workers do, its records equal the sweep's records of cell
    (n, trial_index) bit for bit; with more, their last digits differ.
    noise is cfg.noise, as load_config returns it.

    Raises:
        ValueError: noise.sigma is not cfg.sigma; raised before any draw.
        ConfigError: _pass_state refuses cfg, or an error is not finite,
            because the scales B and sigma are too large for double precision.
    """
    if noise.sigma != cfg.sigma:
        raise ValueError(f"noise.sigma={noise.sigma} is not the config's sigma={cfg.sigma}")
    return _run_trial(_pass_state(cfg, a0, (n,), estimators), trial_index)


# ---------------------------------------------------------------------------
# Rate fitting


def fit_rate(points: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Ordinary least squares of ln(err_sq) on ln(n).

    Args:
        points: at least three (n, err_sq) pairs, all positive.

    Returns:
        (slope, intercept, r_squared). A constant sequence has zero
        residuals around its horizontal fit, so r_squared is 1.0 there.

    Raises:
        ValueError: fewer than 3 points, nonpositive values, or all n equal.
    """
    if len(points) < 3:
        raise ValueError(f"rate fit needs >= 3 points, got {len(points)}")
    ns = np.asarray([p[0] for p in points], dtype=np.float64)
    errs = np.asarray([p[1] for p in points], dtype=np.float64)
    if np.any(ns <= 0.0) or np.any(errs <= 0.0):
        raise ValueError("rate fit needs positive sample counts and errors")
    x = np.log(ns)
    if float(np.ptp(x)) == 0.0:
        raise ValueError("rate fit is degenerate: all sample counts equal")
    y = np.log(errs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return float(slope), float(intercept), float(r_sq)


# ---------------------------------------------------------------------------
# The sweep

_WORKER_STATE: dict[str, Any] = {}


def _pool_init(cfg: ProblemConfig, ground_truth: GroundTruthSpec, n_list: tuple[int, ...],
               estimators: tuple[str, ...]) -> None:
    """Keep a worker's _pass_state, for all its trials, and the time it was ready.

    The state slot holds one outcome: the pass state, or the exception its
    build raised, which _pool_trial raises so that the refusal reaches the
    caller by name and the pool does not break. Either way it replaces the
    last run's, so a refused run leaves nothing to a later one in the same
    process. First mark OpenSSL's _hashlib absent, so that the build's
    import of numpy.random maps no libcrypto (3.4 MiB resident). Last,
    freeze the garbage collector's view of every object alive: the modules
    and the state live until the worker exits, so no collection, the one at
    exit included, needs to traverse them again.
    """
    # numpy.random imports secrets, whose hashlib and hmac then fall back to
    # CPython's built-in digests. numpy uses them only to seed from OS
    # entropy, and every stream here is seeded by derive_seed. setdefault
    # keeps a _hashlib already loaded.
    sys.modules.setdefault("_hashlib", None)
    try:
        _WORKER_STATE["state"] = _pass_state(cfg, ground_truth.build(cfg), n_list, estimators)
    except Exception as exc:  # a refusal, raised by each of this worker's trials
        _WORKER_STATE["state"] = exc
    _WORKER_STATE["ready"] = time.time()
    gc.freeze()


def _pool_trial(trial: int) -> tuple[float, tuple[TrialRecord, ...]]:
    """The time this worker was ready and the records of one trial pass.

    Raises:
        Exception: the one _pool_init kept, when the worker's build was refused.
    """
    state = _WORKER_STATE["state"]
    if isinstance(state, Exception):
        raise state
    return _WORKER_STATE["ready"], _run_trial(state, trial)


def _pool_size(workers: int, trials: int) -> int:
    """Worker processes a sweep starts: workers, but no more than trials or usable CPUs."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # the platform cannot pin a process to CPUs
        cpus = os.cpu_count() or 1
    return min(workers, trials, cpus)


def _physical_memory() -> int:
    """Bytes of physical memory, the budget of a sweep's worker arrays."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# GroundTruthSpec.build peaks at this many a0-sized arrays: the "random"
# and "laplacian" kinds hold their source coefficients and the weighted
# operator, each scaled in place (tracemalloc; pinned by a tier-1 test).
_BUILD_PEAK_ARRAYS = 2

# Resident bytes of one idle interpreter, the larger of two measured on the
# gen-config template (Linux x86-64, CPython 3.11, numpy 2.4, OpenBLAS
# 0.3.31), rounded up: a spawned worker after _pool_init held 36.7-37.0 MiB,
# 35.7-36.0 less a0 (pinned by a tier-1 test); the CLI parent of a rates
# sweep, which builds no a0, held 31.4 MiB as its pool started and 34.2 MiB
# at the sweep's end.
_INTERPRETER_BYTES = 38 * 2**20


def _check_memory(cfg: ProblemConfig, workers: int) -> None:
    """Refuse dimensions whose processes, with workers workers, exceed physical memory.

    Each interpreter, parent and workers alike, counts _INTERPRETER_BYTES.
    With workers > 0 only the workers hold arrays: each counts the free
    heap its trim threshold lets it keep (_WORKER_TRIM_BYTES) and the
    larger of its own build of a0 and a0 with the arrays of one pass
    (estimators._pass_peak_bytes): when d_out is much larger than d_in, a
    pass's arrays and a0 come to less than the two a0s of a build. With
    workers == 0 the caller is a process that builds a0, GroundTruthSpec.build
    before each build, and it counts that build. A worker's own check then
    cannot refuse once its pool's has passed, which counted at least that
    for each worker. Called before a0 is built, so a refused config
    allocates nothing.

    Raises:
        ConfigError: naming d_in and d_out.
    """
    a0_bytes = 8 * cfg.d_out * cfg.d_in
    if workers:
        worker = _WORKER_TRIM_BYTES + max(_BUILD_PEAK_ARRAYS * a0_bytes,
                                          a0_bytes + _pass_peak_bytes(cfg.d_in, cfg.d_out))
        arrays, holders = workers * worker, f"in {workers} worker(s)"
    else:
        arrays, holders = _BUILD_PEAK_ARRAYS * a0_bytes, "to build the ground truth"
    have = _physical_memory()
    if arrays + (1 + workers) * _INTERPRETER_BYTES > have:
        raise ConfigError(
            f"d_in={cfg.d_in} and d_out={cfg.d_out} need {arrays / 2**30:.4g} GiB of arrays "
            f"{holders}, besides {1 + workers} interpreter(s) of {_INTERPRETER_BYTES >> 20} "
            f"MiB: more than the {have / 2**30:.4g} GiB of physical memory"
        )


def _run_cells(cfg: ProblemConfig, ground_truth: GroundTruthSpec, estimators: Sequence[str],
               n_list: Sequence[int], trials: Sequence[int], workers: int,
               progress: Callable[[int, int, float], None] | None = None,
               ) -> tuple[list[tuple[TrialRecord, ...]], float]:
    """The records of each trial, one pass and one task per trial, and the workers' start-up time.

    Each task is _run_trial over n_list, in spawned workers with one BLAS
    thread and fixed heap thresholds (_worker_environment); results come
    back in trial order, and progress(done, total, seconds) is called as
    each arrives. The pool starts _pool_size(workers, len(trials))
    processes, and says so on stderr when that is fewer than workers.

    Before the pool starts, this checks that its processes fit in memory
    (_check_memory). Each worker builds a0 and its pass state in
    _pool_init. The spawn arguments hold cfg and the ground-truth spec, not
    a0: a worker reads them only after importing this module, so a payload
    larger than a pipe holds would make the worker starts run one after
    another.

    The second value is the wall-clock seconds from the pool's creation
    until the last worker that ran a trial had finished _pool_init.

    Raises:
        ConfigError: the processes exceed physical memory (before the pool
            starts), or, from a worker, the ground truth or the pass state
            cannot be built on cfg or a cell's error is not finite.
        ValueError: from a worker, _pass_state refuses an estimator.
    """
    size = _pool_size(workers, len(trials))
    _check_memory(cfg, size)
    if size < workers:
        sys.stderr.write(f"starting {size} of {workers} workers: at most one per trial "
                         "and per usable CPU\n")
    with _worker_environment():
        created = time.time()
        with ProcessPoolExecutor(
            max_workers=size,
            mp_context=get_context("spawn"),
            initializer=_pool_init,
            initargs=(cfg, ground_truth, tuple(n_list), tuple(estimators)),
        ) as pool:
            t0 = time.perf_counter()
            results, ready = [], []
            for started, records in pool.map(_pool_trial, trials, chunksize=1):
                ready.append(started)
                results.append(records)
                if progress is not None:
                    progress(len(results), len(trials), time.perf_counter() - t0)
    return results, max(ready) - created


@contextmanager
def _worker_environment() -> Iterator[None]:
    """Set _WORKER_ENV and unset _BLAS_KERNEL_VARS while processes are spawned, then restore.

    A spawned process reads the BLAS thread count and kernel at import and
    the malloc settings at its first allocation, so setting them before the
    spawn pins them without touching the already-initialized parent. They
    are set outright: a user's export must change neither the floating-point
    environment nor a worker's heap.
    """
    saved = {v: os.environ.get(v) for v in (*_WORKER_ENV, *_BLAS_KERNEL_VARS)}
    for v in _BLAS_KERNEL_VARS:
        os.environ.pop(v, None)
    os.environ.update(_WORKER_ENV)
    try:
        yield
    finally:
        for v, old in saved.items():
            if old is None:
                os.environ.pop(v, None)
            else:
                os.environ[v] = old


def run_convergence(
    plan: ExperimentPlan, progress: Callable[[int, int, float], None] | None = None
) -> RateReport:
    """Execute the full (estimator, n, trial) grid and fit the rates.

    Trials run through _run_cells, one pass over n_list each, and results
    are assembled in a fixed order independent of scheduling.
    progress(done, total, seconds), if given, is called as each trial
    finishes, in trial order, with the seconds since the trials started.
    Output files are written only once every rate is fitted.

    Raises:
        ConfigError: _run_cells refuses cfg: before its pool starts
            (memory), or from a worker (ground truth, pass state, or a
            cell's error that is not finite, see run_cell); or a median
            error is 0, so no rate can be fitted:
            the ground truth is the zero operator and sigma is 0, or they
            are so small that every error underflows; or an output file
            cannot be written once the sweep is done.
    """
    t0 = time.perf_counter()
    trials, worker_start = _run_cells(plan.cfg, plan.ground_truth, plan.estimators,
                                      plan.n_list, range(plan.trials), plan.workers, progress)
    by_cell = {(r.estimator, r.n, r.trial): r for records in trials for r in records}
    runs = tuple(
        by_cell[(name, n, t)]
        for name in plan.estimators
        for n in plan.n_list
        for t in range(plan.trials)
    )

    summaries = []
    for name in plan.estimators:
        for n in plan.n_list:
            errs = [r.error_sq for r in runs if r.estimator == name and r.n == n]
            q1, q2, q3 = np.percentile(np.asarray(errs), [25.0, 50.0, 75.0])
            summaries.append(RateSummary(name, n, float(q2), float(q1), float(q3)))

    fits = []
    for name in plan.estimators:
        pts = [(s.n, s.median_error_sq) for s in summaries if s.estimator == name]
        try:
            slope, intercept, r_sq = fit_rate(pts)
        except ValueError as exc:  # a median error is 0
            raise ConfigError(
                f"no {name} rate can be fitted ({exc}): with B={plan.cfg.B}, sigma="
                f"{plan.cfg.sigma} and ground_truth.kind {plan.ground_truth.kind!r}, "
                "the errors are 0 in double precision") from None
        fits.append(RateFit(name, slope, intercept, r_sq))

    report = RateReport(
        runs=runs,
        summaries=tuple(summaries),
        fits=tuple(fits),
        theoretical_eta1=theoretical_rate(plan.cfg)[0],
        total_seconds=time.perf_counter() - t0,
        worker_start_seconds=worker_start,
    )
    if plan.out is not None:
        summary, runs_csv, report_json = plan.outputs()
        try:
            write_summary_csv(report, summary)
            write_runs_csv(report, runs_csv)
            write_report_json(report, report_json, cfg=plan.cfg)
        except OSError as exc:  # the plan opened each, so a full disk, say
            raise ConfigError(f"--out {plan.out!r} cannot be written: {exc.strerror}") from None
    return report


# ---------------------------------------------------------------------------
# Config files


_SCALAR_FIELDS = tuple(f.name for f in fields(ProblemConfig))
_OPTIONAL_KEYS = ("ground_truth", "n_list", "trials")


def parse_config(obj: Any) -> tuple[ProblemConfig, GroundTruthSpec, NoiseProfile, dict[str, Any]]:
    """Validate a decoded config object.

    Checks the JSON shape here; each value is checked by the type it
    builds (ProblemConfig, GroundTruthSpec). The n_list entries and trials
    are converted to ints by the rule ExperimentPlan applies, which also
    checks their ranges.

    Returns:
        (cfg, ground_truth, noise, extras) where noise is cfg.noise and
        extras carries the optional "n_list" and "trials" entries when
        present.

    Raises:
        ConfigError: naming the offending field, on any schema violation.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
    unknown = set(obj) - set(_SCALAR_FIELDS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    for name in _SCALAR_FIELDS:
        if name not in obj:
            raise ConfigError(f"config is missing required field {name!r}")
    cfg = ProblemConfig(**{name: obj[name] for name in _SCALAR_FIELDS})

    gt_obj = obj.get("ground_truth", {"kind": "random", "params": {}})
    if not isinstance(gt_obj, dict):
        raise ConfigError(f"field 'ground_truth' must be an object, got {gt_obj!r}")
    unknown = set(gt_obj) - {"kind", "params"}
    if unknown:
        raise ConfigError(f"unknown ground_truth key(s): {sorted(unknown)}")
    params = gt_obj.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"field 'ground_truth.params' must be an object, got {params!r}")
    ground_truth = GroundTruthSpec(kind=gt_obj.get("kind", "random"), params=params)

    extras: dict[str, Any] = {}
    if "n_list" in obj:
        if not isinstance(obj["n_list"], list) or not obj["n_list"]:
            raise ConfigError(f"field 'n_list' must be a nonempty array, got {obj['n_list']!r}")
        extras["n_list"] = [_scalar("each n_list entry", n, True) for n in obj["n_list"]]
    if "trials" in obj:
        extras["trials"] = _scalar("trials", obj["trials"], True)
    return cfg, ground_truth, cfg.noise, extras


def load_config(path: str | Path) -> tuple[ProblemConfig, GroundTruthSpec, NoiseProfile, dict[str, Any]]:
    """Read and validate a JSON config file; see parse_config."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # A ValueError is malformed JSON or an integer past Python's digit
        # limit; a RecursionError is nesting deeper than the parser's stack.
        raise ConfigError(f"config {p} is not valid JSON: {exc}") from exc
    return parse_config(obj)


def config_to_dict(
    cfg: ProblemConfig,
    ground_truth: GroundTruthSpec | None = None,
    n_list: Sequence[int] | None = None,
    trials: int | None = None,
) -> dict[str, Any]:
    """Config file content for the given pieces, ready for json.dump."""
    out: dict[str, Any] = {name: getattr(cfg, name) for name in _SCALAR_FIELDS}
    if ground_truth is not None:
        out["ground_truth"] = {"kind": ground_truth.kind, "params": dict(ground_truth.params)}
    if n_list is not None:
        out["n_list"] = [int(n) for n in n_list]
    if trials is not None:
        out["trials"] = int(trials)
    return out


# ---------------------------------------------------------------------------
# Persistence


def format_number(v: float | int) -> str:
    """Integer-valued numbers print bare, others as shortest round trip."""
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


def _csv(header: Sequence[str], rows: Iterable[Iterable[Any]],
         number: Callable[[Any], str] = format_number) -> str:
    """CSV text: the header line, then one line per row, strings as they
    are and numbers through number."""
    lines = [",".join(header)]
    lines += [",".join(v if isinstance(v, str) else number(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_runs_csv(report: RateReport, path: str | Path) -> None:
    """Per-trial rows; wall times (elapsed_ms, see _run_trial) make this file non-reproducible."""
    rows = ({**vars(r), "elapsed_ms": round(r.elapsed_ms, 3)}.values() for r in report.runs)
    Path(path).write_text(_csv([f.name for f in fields(TrialRecord)], rows))


def write_summary_csv(report: RateReport, path: str | Path) -> None:
    """Median/IQR rows; byte-reproducible for a given config and seed."""
    rows = (vars(s).values() for s in report.summaries)
    Path(path).write_text(_csv([f.name for f in fields(RateSummary)], rows))


def write_report_json(report: RateReport, path: str | Path, cfg: ProblemConfig) -> None:
    """Full report (fits, summaries, theory target, timings) as JSON."""
    eta1, eta2, u = theoretical_rate(cfg)
    doc: dict[str, Any] = {
        "theoretical_eta1": report.theoretical_eta1,
        "slope_target": -report.theoretical_eta1,
        "theoretical": {"eta1": eta1, "eta2": eta2, "u": u},
        "fits": {
            f.estimator: {"slope": f.slope, "intercept": f.intercept, "r_squared": f.r_squared}
            for f in report.fits
        },
        "summaries": [asdict(s) for s in report.summaries],
        "total_seconds": report.total_seconds,
        "worker_start_seconds": report.worker_start_seconds,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Closed-form oracle suites. Each suite is one row of _ORACLE_SUITES: the CLI
# oracle-check subcommand runs every row (oracle_checks), and the acceptance
# suite runs the same rows on seeds of its own.


def _random_small_instance(rng: np.random.Generator) -> tuple[
    SourceCoefficients, EigenDecay, EigenDecay, LambdaMap, float, float
]:
    d_in = int(rng.integers(2, 65))
    d_out = int(rng.integers(2, 65))
    in_decay = make_decay(d_in, float(rng.uniform(0.2, 0.9)))
    out_decay = make_decay(d_out, float(rng.uniform(0.2, 0.9)))
    beta = float(rng.uniform(0.2, 0.9))
    gamma = float(rng.uniform(0.0, 0.6))
    beta_prime = float(rng.uniform(0.05, 0.9)) * beta
    gamma_prime = float(rng.uniform(gamma + 0.05, 0.97))
    src = SourceCoefficients(
        a=rng.standard_normal((d_out, d_in)), beta=beta, gamma=gamma
    )
    k = int(rng.integers(0, d_out + 1))  # empty and full maps included
    lmap = LambdaMap(lams=10.0 ** rng.uniform(-6.0, 0.0, size=k), d_out=d_out)
    return src, in_decay, out_decay, lmap, beta_prime, gamma_prime


def _bias_instance(rng: np.random.Generator) -> tuple[float, float]:
    """analytic_bias against the norm of the population ridge's deviation from a0."""
    src, in_d, out_d, lmap, bp, gp = _random_small_instance(rng)
    a0 = operator_from_source(src, in_d, out_d)
    direct = bg_norm(population_regularized(a0, lmap).difference(a0), bp, gp)
    return analytic_bias(src, lmap, in_d, out_d, bp, gp), direct


def _population_ridge_instance(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """The row-wise solve on the population moments diag(mu) and a0 diag(mu)
    against the population ridge (all zeros for an empty map)."""
    src, in_d, out_d, lmap, _, _ = _random_small_instance(rng)
    a0 = operator_from_source(src, in_d, out_d)
    cov = EmpiricalCovariances(
        c_kk=np.diag(in_d.values), c_lk=a0.m * in_d.values[np.newaxis, :], n=1
    )
    return fit_rowwise_ridge(cov, lmap), population_regularized(a0, lmap).m


def _norm_instance(rng: np.random.Generator) -> tuple[float, float]:
    """bg_norm against the embedding-based evaluation of the same norm."""
    d_in = int(rng.integers(2, 33))
    d_out = int(rng.integers(2, 33))
    op = OperatorMatrix(
        rng.standard_normal((d_out, d_in)),
        make_decay(d_in, float(rng.uniform(0.2, 0.9))),
        make_decay(d_out, float(rng.uniform(0.2, 0.9))),
    )
    b = float(rng.uniform(0.0, 1.0))
    g = float(rng.uniform(0.0, 1.0))
    return bg_norm(op, b, g), bg_norm_via_embedding(op, b, g)


def _packing_instance(rng: np.random.Generator) -> tuple[float, float]:
    """The squared distance of two packing operators against 32 eps / (m1 k) ||om1 - om2||^2."""
    m1 = int(rng.integers(1, 9))
    k = int(rng.integers(1, 9))
    m2 = int(rng.integers(0, 5))
    d_in = 2 * m1 + int(rng.integers(0, 4))
    d_out = m2 + k + int(rng.integers(0, 4))
    in_d = make_decay(d_in, float(rng.uniform(0.2, 0.9)))
    out_d = make_decay(d_out, float(rng.uniform(0.2, 0.9)))
    bp = float(rng.uniform(0.05, 0.9))
    gp = float(rng.uniform(0.05, 0.97))
    eps = float(10.0 ** rng.uniform(-4.0, 0.0))
    om1 = rng.integers(0, 2, size=(m1, k)).astype(np.float64)
    om2 = rng.integers(0, 2, size=(m1, k)).astype(np.float64)
    a = packing_operator(m1, m2, k, eps, om1, in_d, out_d, bp, gp)
    b = packing_operator(m1, m2, k, eps, om2, in_d, out_d, bp, gp)
    want = (32.0 * eps / (m1 * k)) * float(np.sum((om1 - om2) ** 2))
    return bg_norm(a.difference(b), bp, gp) ** 2, want


@dataclass(frozen=True)
class _OracleSuite:
    """One closed-form check: count instances, each drawn as (got, want) by draw(rng).

    tag keys the suite's stream in oracle_checks (derive_seed(seed, tag)),
    and tol bounds its worst relative deviation there.
    """

    name: str
    tag: int
    count: int
    tol: float
    draw: Callable[[np.random.Generator], tuple[Any, Any]]

    def worst(self, rng: np.random.Generator) -> float:
        """The largest max|got - want| / max|want| over count instances from rng.

        A want of all zeros is scaled by 1e-300, so its got must be zero too.
        """
        worst = 0.0
        for _ in range(self.count):
            got, want = self.draw(rng)
            scale = max(float(np.max(np.abs(want))), 1e-300)
            worst = max(worst, float(np.max(np.abs(np.subtract(got, want)))) / scale)
        return worst


_ORACLE_SUITES = (
    _OracleSuite("bias-oracle", 0xA, 50, 1e-10, _bias_instance),
    _OracleSuite("population-ridge", 0xB, 20, 1e-10, _population_ridge_instance),
    _OracleSuite("norm-equivalence", 0xC, 100, 1e-12, _norm_instance),
    _OracleSuite("packing-separation", 0xD, 50, 1e-12, _packing_instance),
)


def oracle_checks(seed: int = 20260819) -> list[tuple[str, bool, str]]:
    """Run every closed-form oracle suite and report (name, passed, detail).

    The suites are the rows of _ORACLE_SUITES, in order; each draws its
    instances from its own stream, derive_seed(seed, tag), and passes when
    its worst relative deviation is within its tolerance.
    """
    results = []
    for suite in _ORACLE_SUITES:
        worst = suite.worst(np.random.default_rng(derive_seed(seed, suite.tag)))
        results.append((suite.name, worst <= suite.tol, f"max relative deviation {worst:.3e}"))
    return results
