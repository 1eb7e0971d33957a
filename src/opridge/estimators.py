"""Row-wise ridge estimators over spectral coordinates, the trial pass, and analytic oracles.

All estimators share one computational core: given empirical covariances
(c_kk, c_lk) and a ridge coefficient lambda_j for each of the leading k
output rows an estimator learns, row j < k of the estimate solves

    a_hat[j] @ (c_kk + lambda_j I) = c_lk[j]

and rows k..d_out-1 are exactly zero. Every such ridge is a spectral
filter of c_kk = Q diag(Lambda) Q.T, so EmpiricalCovariances keeps one
eigendecomposition, made when it is built, and the cross moment in its
basis, c_lq = c_lk @ Q. Row j is (c_lq[j] / (Lambda + lambda_j)) @ Q.T:
one private solver, _learned_rows, computes the k learned rows alone,
_ROW_CHUNK rows and one product at a time; fit_rowwise_ridge stacks them
on zeros, and a trial pass scores each chunk and drops it before the
next, without building the rest of the estimate (_error_sq).
A cell thus costs one eigh however many distinct coefficients its
estimators use. Covariances are uncentered and c_kk is exactly
symmetric. The estimators differ only in their map:
LambdaMap.for_estimator gives the map of each of the ESTIMATOR_NAMES, and
estimate_from_covariances fits it this way.

A trial pass (_run_trial) scores every estimator at each sample count of
a simulated trial, reading what _pass_state builds once per process and
the covariances _nested_covariances computes at every count in one pass:
it sums u.T @ u over input blocks and builds each snapshot's c_lq in the
eigenbasis, a0.m @ Q scaled by Lambda plus the noise term drawn in those
coordinates, without building the dataset, c_lk or the draw in input
coordinates. empirical_covariances computes them for a dataset (u, v) in
hand. _pass_peak_bytes counts the arrays a pass holds at once; only the
cross moment c_lq grows with d_out.

The population oracles (population_regularized, analytic_bias) evaluate the
infinite-sample limit of the same ridge in closed form; tests pit the solver
against them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .core import (
    ConfigError,
    EigenDecay,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    _finite,
    _norm_weights,
    _row_terms,
)
from .schedules import _LOG_HUGE, bias_lambdas, multilevel_schedule, variance_lambdas
from .synth import _noise_cross_moment, _stream_filler, derive_seed

__all__ = [
    "ESTIMATOR_NAMES",
    "EmpiricalCovariances",
    "LambdaMap",
    "TrialRecord",
    "empirical_covariances",
    "STREAM_BLOCK_ROWS",
    "fit_rowwise_ridge",
    "estimate_from_covariances",
    "single_ridge_lambda",
    "population_regularized",
    "analytic_bias",
]

# Tolerances for the covariance invariants; empirical Gram matrices are
# symmetric PSD up to accumulated rounding only.
_SYM_TOL = 1e-12
_EIG_TOL = 1e-12

# Rows per block when streaming a trial's statistics. A constant, never
# derived from n or the worker count: the Gram sums then run in an order
# that depends on n alone, so a cell gives the same bytes in any pool, and
# the memory a trial needs does not grow with n. A template block (d_in =
# 256 columns) is 1 MiB, and a pass fills the blocks below each n into one
# buffer of that size, which no snapshot holds (see _nested_covariances).
# _pass_peak_bytes counts a pass's working set.
STREAM_BLOCK_ROWS = 512

# Output rows per chunk when a snapshot draws its noise term and when an
# estimator solves its learned rows, so that the cross moment is the one
# array of a pass that grows with d_out. A constant, like STREAM_BLOCK_ROWS,
# never derived from n, the pool or the estimator: the chunk a learned row
# falls in, and with it the row's bits, depend on its index and k alone.
_ROW_CHUNK = 64

# Sub-seed stream tag for trial streams; tags 1-3 belong to the synth module.
_TAG_TRIAL = 0x7

# d_in^2 arrays np.linalg.eigh mallocs outside numpy's allocator, unseen by
# tracemalloc: a Fortran-order copy of its input and LAPACK dsyevd's work
# array of 1 + 6 d_in + 2 d_in^2 doubles.
_EIGH_UNTRACED = 3


def _pass_peak_bytes(d_in: int, d_out: int) -> int:
    """The most bytes of arrays a trial pass holds at once, besides its a0.

    With a = d_in^2, b = d_out * d_in and c = min(_ROW_CHUNK, d_out) * d_in
    doubles, a pass (_run_trial over _nested_covariances) holds the
    running sum u.T @ u (a) at every moment, and one of:
      - while it sums a block, or the rows past n's whole blocks that a
        snapshot draws ahead, those rows (at most one block of
        STREAM_BLOCK_ROWS rows of u) and their Gram product (a);
      - while eigh decomposes c_kk, c_kk and the eigenvectors (2a), and
        _EIGH_UNTRACED more d_in^2 arrays;
      - while it builds the rest of a snapshot and fits, c_kk, the
        eigenvectors and the cross moment in the eigenbasis (2a + b), and
        one chunk of the noise draw Z (at most c) or of an estimator's
        scaled rows and their back-rotation (2c).
    No snapshot holds a block, whatever the n_list: the largest phase is a
    block's sum, 5a (the eigh) or 2a + b + 2c (the fits).
    tests/test_harness.py pins a pass's resident growth to this, within the
    allocator's slack, and its traced peak with _EIGH_UNTRACED = 0, up to
    small arrays: the d_out-long row terms and lambda maps of a pass, and
    one numpy iteration buffer of at most 8192 doubles, which a broadcast
    operation holds while it runs (the fill's column scaling, a chunk's
    table, _row_terms' weighting).
    """
    a, b, c = d_in * d_in, d_out * d_in, min(_ROW_CHUNK, d_out) * d_in
    return 8 * (a + max(STREAM_BLOCK_ROWS * d_in + a, (2 + _EIGH_UNTRACED) * a,
                        2 * a + b + 2 * c))


@dataclass(frozen=True, init=False, eq=False)
class EmpiricalCovariances:
    """Uncentered second moments of one sample set, in the eigenbasis of c_kk.

    EmpiricalCovariances(c_kk, c_lk, n) checks both moments, decomposes
    c_kk = eigvecs @ diag(eigvals) @ eigvecs.T once, and keeps the cross
    moment in those coordinates, c_lq = c_lk @ eigvecs, which is all a
    solve reads. A trial pass builds c_lq directly (_from_sums), and c_lk
    is formed only when it is read.

    Attributes:
        c_kk: input Gram matrix u.T @ u / n, symmetric PSD, shape
            (d_in, d_in).
        n: number of samples the moments were computed from.
        eigvals, eigvecs: eigenvalues ascending, clamped at 0; orthonormal columns.
        c_lq: the cross moment v.T @ u @ eigvecs / n, shape (d_out, d_in).
    """

    c_kk: np.ndarray
    n: int
    eigvals: np.ndarray = field(repr=False)
    eigvecs: np.ndarray = field(repr=False)
    c_lq: np.ndarray = field(repr=False)

    def __init__(self, c_kk: np.ndarray, c_lk: np.ndarray, n: int) -> None:
        c_kk = np.asarray(c_kk, dtype=np.float64)
        c_lk = np.asarray(c_lk, dtype=np.float64)
        if c_kk.ndim != 2 or c_kk.shape[0] != c_kk.shape[1]:
            raise ValueError(f"c_kk must be square, got shape {c_kk.shape}")
        if c_lk.ndim != 2 or c_lk.shape[1] != c_kk.shape[0]:
            raise ValueError(
                f"c_lk shape {c_lk.shape} does not match c_kk {c_kk.shape}"
            )
        if not (_finite(c_kk) and _finite(c_lk)):
            raise ValueError("covariances must be finite")
        diff = c_kk - c_kk.T
        asym = float(np.max(np.abs(diff, out=diff), initial=0.0))
        del diff  # not alive through eigh
        if asym > _SYM_TOL:
            raise ValueError(f"c_kk asymmetric by {asym:.3e}")
        self._decompose(c_kk, n)
        object.__setattr__(self, "c_lq", c_lk @ self.eigvecs)

    def _decompose(self, c_kk: np.ndarray, n: int) -> None:
        """Check n and that c_kk, finite and symmetric, is PSD; keep both and its eigh.

        Eigenvalues are clamped at 0: one below c_kk's rounding error can come
        out slightly negative, and Lambda + lambda_j must stay positive.
        """
        if n < 1:
            raise ValueError(f"sample count must be >= 1, got {n}")
        eigvals, eigvecs = np.linalg.eigh(c_kk)
        if eigvals[0] < -_EIG_TOL:
            raise ValueError(f"c_kk indefinite, min eigenvalue {eigvals[0]:.3e}")
        np.maximum(eigvals, 0.0, out=eigvals)
        for name, value in (("c_kk", c_kk), ("n", n), ("eigvals", eigvals),
                            ("eigvecs", eigvecs)):
            object.__setattr__(self, name, value)

    @cached_property
    def c_lk(self) -> np.ndarray:
        """The cross matrix v.T @ u / n in input coordinates, c_lq @ eigvecs.T.

        Formed on the first read and kept; the solver never reads it.
        """
        return self.c_lq @ self.eigvecs.T

    @property
    def d_in(self) -> int:
        return self.c_kk.shape[0]

    @property
    def d_out(self) -> int:
        return self.c_lq.shape[0]


def empirical_covariances(data: tuple[np.ndarray, np.ndarray]) -> EmpiricalCovariances:
    """Uncentered covariances c_kk = u.T@u/n, c_lk = v.T@u/n of make_dataset's (u, v).

    The products refuse unequal row counts, and EmpiricalCovariances checks the rest.
    """
    u, v = data
    n = u.shape[0]
    c_kk = u.T @ u / n
    c_kk = (c_kk + c_kk.T) / 2.0
    c_lk = v.T @ u / n
    return EmpiricalCovariances(c_kk=c_kk, c_lk=c_lk, n=n)


def _nested_covariances(
    a0: OperatorMatrix,
    n_list: tuple[int, ...],
    profile: NoiseProfile,
    rng_seed: int,
) -> Iterator[EmpiricalCovariances]:
    """Covariances of n rows of the (a0, profile, rng_seed) model for each n in n_list.

    n_list must be strictly increasing counts >= 1: _pass_state's lambda
    maps refuse any n < 2. One pass over n_list, which draws the inputs u
    of the n_list[-1]-row dataset once. For each n, in ascending order, it
    fills every whole block of STREAM_BLOCK_ROWS rows below n not yet
    summed and adds its u.T @ u to the running sum, then yields the
    covariances of the first n rows: that sum plus the product of the
    n mod STREAM_BLOCK_ROWS rows past it, drawn ahead of the stream (none
    when n ends a block). The running sum never includes such a term, so
    c_kk at n is the same bits whatever else n_list holds.

    Since v = u @ a0.m.T + eps, c_lk = a0.m @ c_kk + eps.T @ u / n. Given
    u, the last term's law is fixed by c_kk, so each snapshot draws it from
    the eigendecomposition of c_kk it makes anyway, on a sub-stream keyed
    by (rng_seed, n) (synth._noise_cross_moment): neither eps nor v is
    formed, and snapshots at different n share their inputs but not their
    noise. Against empirical_covariances(make_dataset(a0, n, ...)), c_kk
    agrees up to rounding and c_lk in law.

    Memory does not grow with n: one buffer of STREAM_BLOCK_ROWS rows,
    which the blocks below n are filled into on the calling thread and
    which is freed before n's snapshot; the running sum; and one Gram
    product or the arrays of one snapshot (_pass_peak_bytes). The rows
    past the blocks are drawn from a copy of the generator into an array
    of their own, dropped once their product is formed; the stream does
    not move, so the next block holds them, bit for bit. Below the
    workers' mmap threshold the heap hands the buffer back the same
    pages. The pass keeps no reference to a yielded snapshot, so a
    consumer that drops it holds one at a time. A snapshot's c_lq is not
    checked (see _from_sums).
    """
    fill = _stream_filler(a0, rng_seed)
    noise_sd = np.sqrt(profile.variances(a0.d_out))
    uu = np.zeros((a0.d_in, a0.d_in))
    summed = 0
    for n in n_list:
        u = np.empty((STREAM_BLOCK_ROWS, a0.d_in))
        while n - summed >= STREAM_BLOCK_ROWS:
            fill(u)
            uu += u.T @ u
            summed += STREAM_BLOCK_ROWS
        del u  # no snapshot holds the block
        yield _from_sums(a0, uu, n, noise_sd, rng_seed, _gram_ahead(fill, n - summed, a0.d_in))


def _gram_ahead(fill: Callable[..., None], rows: int, d_in: int) -> np.ndarray:
    """part.T @ part of the stream's next rows, drawn ahead: the stream does not move."""
    part = np.empty((rows, d_in))
    fill(part, ahead=True)
    return part.T @ part


def _from_sums(a0: OperatorMatrix, uu: np.ndarray, n: int, noise_sd: np.ndarray,
               rng_seed: int, part_uu: np.ndarray) -> EmpiricalCovariances:
    """Covariances of n rows from their sum u.T @ u, with the noise term drawn.

    The sum is part_uu, the product part.T @ part of the rows past the
    whole blocks (zeros when there are none), plus uu, the sum over those
    blocks, and c_kk is the sum / n, formed in part_uu, which the snapshot
    then owns. numpy computes each u.T @ u of a C-contiguous block as a
    symmetric rank-k update, so c_kk is exactly symmetric, and finite as a
    sum of bounded inputs. In its eigenbasis, c_lk = a0.m @ c_kk +
    eps.T @ u / n is (a0.m @ Q) diag(Lambda) plus the noise draw of
    synth._noise_cross_moment in its last r columns, added _ROW_CHUNK rows
    at a time; neither c_lk nor the draw in input coordinates is formed.
    c_lq is not checked: an a0 or noise scale past double precision leaves
    it with an inf or nan, which _run_trial refuses.
    """
    c_kk = part_uu
    c_kk += uu
    c_kk /= n
    cov = object.__new__(EmpiricalCovariances)
    cov._decompose(c_kk, n)
    with np.errstate(over="ignore", invalid="ignore"):  # the consumer refuses it
        c_lq = a0.m @ cov.eigvecs
        c_lq *= cov.eigvals
        for rows, z in _noise_cross_moment(noise_sd, cov.eigvals, n, rng_seed, _ROW_CHUNK):
            c_lq[rows, cov.d_in - z.shape[1]:] += z
    object.__setattr__(cov, "c_lq", c_lq)
    return cov


@dataclass(frozen=True)
class LambdaMap:
    """Ridge coefficients of the leading output rows an estimator learns.

    Attributes:
        lams: shape (k,); lams[j] is the coefficient of 0-based row j, each
            positive and finite. Rows k..d_out-1 are not learned, and those
            rows of any estimate are exactly zero.
        d_out: number of output rows the map covers, at least k.
    """

    lams: np.ndarray
    d_out: int

    def __post_init__(self) -> None:
        lams = np.asarray(self.lams, dtype=np.float64)
        if lams.ndim != 1 or lams.shape[0] > self.d_out:
            raise ValueError(f"lams must be 1-d, at most d_out={self.d_out} long, got {lams.shape}")
        if not _finite(lams) or np.any(lams <= 0.0):
            raise ValueError("learned rows must have positive finite lambdas")
        object.__setattr__(self, "lams", lams)

    @property
    def k(self) -> int:
        """Number of learned rows."""
        return self.lams.shape[0]

    @classmethod
    def uniform(cls, d_out: int, lam: float) -> "LambdaMap":
        """Every row learned with the same coefficient."""
        return cls(lams=np.full(d_out, float(lam)), d_out=d_out)

    @classmethod
    def for_estimator(cls, cfg: ProblemConfig, n: int, estimator: str) -> "LambdaMap":
        """The rows one of the ESTIMATOR_NAMES learns at n samples, and their lambdas.

        "single" learns every row at single_ridge_lambda; "variance" and
        "bias" learn rows 1..y_max of their contour schedule at its per-row
        lambdas; "multilevel" learns each staircase level's rows
        [row_start, row_end) at that level's lambda.
        """
        if estimator == "single":
            return cls.uniform(cfg.d_out, single_ridge_lambda(cfg, n))
        if estimator in ("variance", "bias"):
            sched = (variance_lambdas if estimator == "variance" else bias_lambdas)(cfg, n)
            return cls(lams=sched.lambdas, d_out=cfg.d_out)
        if estimator == "multilevel":
            # Contiguous 1-based half-open brackets [row_start, row_end) from row 1.
            levels = multilevel_schedule(cfg, n).levels
            widths = [lv.row_end - lv.row_start for lv in levels]
            return cls(lams=np.repeat([lv.lam for lv in levels], widths), d_out=cfg.d_out)
        raise ValueError(f"unknown estimator {estimator!r}, expected one of {ESTIMATOR_NAMES}")


def fit_rowwise_ridge(cov: EmpiricalCovariances, lmap: LambdaMap) -> np.ndarray:
    """Solve the per-row ridge systems from the eigendecomposition of c_kk.

    The rows of _learned_rows stacked on zeros, so every row equals the
    one a learned-rows-only caller gets, bit for bit.

    Args:
        cov: empirical (or population) covariances.
        lmap: per-row coefficients; must cover cov.d_out rows.

    Returns:
        Matrix of shape (d_out, d_in); learned row j equals
        c_lk[j] @ (c_kk + lambda_j I)^(-1), unlearned rows are zero.

    Raises:
        ValueError: dimension mismatch.
    """
    a_hat = np.zeros((cov.d_out, cov.d_in))
    for rows, a in _learned_rows(cov, lmap):
        a_hat[rows] = a
    return a_hat


def _learned_rows(cov: EmpiricalCovariances,
                  lmap: LambdaMap) -> Iterator[tuple[slice, np.ndarray]]:
    """The learned rows 0..lmap.k-1 of the ridge estimate, _ROW_CHUNK at a time.

    Yields (rows, a) in row order: a is rows `rows` of fit_rowwise_ridge(cov,
    lmap), shape (len, d_in). Row j is solved as (c_lq[j] / (Lambda +
    lambda_j)) @ Q.T: a chunk's table Lambda + lambda_j is divided into in
    place, so its rows cost one product. The table and the product are two
    buffers of min(_ROW_CHUNK, k) rows, reused for every chunk, so a is
    C-ordered and the caller may overwrite it, but must be done with it
    before asking for the next. Raises as fit_rowwise_ridge does.
    """
    if lmap.d_out != cov.d_out:
        raise ValueError(
            f"lambda map covers {lmap.d_out} rows, covariances have {cov.d_out}"
        )
    k = lmap.k
    table = np.empty((min(_ROW_CHUNK, k), cov.d_in))
    out = np.empty_like(table)
    for start in range(0, k, _ROW_CHUNK):
        rows = slice(start, min(start + _ROW_CHUNK, k))
        t, a = table[: rows.stop - start], out[: rows.stop - start]
        np.copyto(t, cov.eigvals)  # not np.add.outer, which buffers both operands
        t += lmap.lams[rows, np.newaxis]
        np.divide(cov.c_lq[rows], t, out=t)
        np.matmul(t, cov.eigvecs.T, out=a)
        yield rows, a


@dataclass(frozen=True)
class TrialRecord:
    """One (estimator, n, trial) cell result."""

    estimator: str
    n: int
    trial: int
    error_sq: float
    elapsed_ms: float


@dataclass(frozen=True)
class _PassState:
    """What a trial pass reads besides its own stream; built by _pass_state."""

    cfg: ProblemConfig
    a0: OperatorMatrix
    n_list: tuple[int, ...]
    estimators: tuple[str, ...]
    lmaps: dict[tuple[int, str], LambdaMap]
    mu_w: np.ndarray
    rho_w: np.ndarray
    a0_terms: np.ndarray


def _pass_state(cfg: ProblemConfig, a0: OperatorMatrix, n_list: Sequence[int],
                estimators: Sequence[str]) -> _PassState:
    """What a trial pass over n_list reads that its trial does not change.

    The LambdaMap.for_estimator of each (n, estimator), the norm's weights
    (mu_i^(1-beta'), rho_j^-(1-gamma')) and a0's row terms; the noise law
    is cfg.noise. Built without BLAS, so the same bits in every process,
    and once per process: for one cell, or by each of a sweep's workers for
    all its trials. The row terms are formed _ROW_CHUNK rows at a time in
    one buffer, not in a copy of a0; each row's term has the same bits
    either way (see _row_terms).

    Raises:
        ConfigError: a norm weight is past double precision.
        ValueError: an unknown estimator.
    """
    lmaps = {(n, name): LambdaMap.for_estimator(cfg, n, name)
             for n in n_list for name in estimators}
    with np.errstate(over="ignore"):  # refused below, or an a0 term as the cell's error
        mu_w, rho_w = _norm_weights(cfg.input_decay, cfg.output_decay,
                                    cfg.beta_prime, cfg.gamma_prime)
        a0_terms = np.empty(a0.d_out)
        buf = np.empty((min(_ROW_CHUNK, a0.d_out), a0.d_in))
        for start in range(0, a0.d_out, _ROW_CHUNK):
            rows = slice(start, min(start + _ROW_CHUNK, a0.d_out))
            chunk = buf[: rows.stop - start]
            np.copyto(chunk, a0.m[rows])
            a0_terms[rows] = _row_terms(chunk, mu_w)
    if not _finite(rho_w):  # mu_w's powers are positive, so at most 1
        raise ConfigError(f"q={cfg.q} with d_out={cfg.d_out} and gamma_prime={cfg.gamma_prime} "
                          "give norm weights rho_j^-(1-gamma_prime) past double precision")
    return _PassState(cfg, a0, tuple(n_list), tuple(estimators), lmaps, mu_w, rho_w, a0_terms)


def _run_trial(state: _PassState, trial_index: int) -> tuple[TrialRecord, ...]:
    """Records of every (n, estimator) of one trial, in that order, from one pass.

    The pass only seeds, streams, solves and scores; all else it reads is
    in state (_pass_state), and its arrays are _pass_peak_bytes. The
    stream is seeded by (cfg.seed, trial_index) alone, and cell n gets its
    first n rows and its own noise draw, the same bits whatever else n_list
    holds. A record's elapsed_ms is that estimator's own learned-row solve
    and score: the draws, the Gram sum and each eigh are shared. A snapshot
    whose cross moment is not finite has no error: each of its records
    would be nan, and the first is refused by name like any other
    non-finite error.

    Only the learned rows 0..k-1 are solved and scored. An unlearned row
    j >= k has error -a0[j], so its term of the norm is a0's; error_sq is
    then bg_norm(estimate_from_covariances(cov, cfg, name).difference(a0),
    beta', gamma') ** 2 bit for bit.
    """
    cfg = state.cfg
    seed = derive_seed(cfg.seed, _TAG_TRIAL, trial_index)
    records = []
    for cov in _nested_covariances(state.a0, state.n_list, cfg.noise, seed):
        finite = _finite(cov.c_lq)
        for name in state.estimators:
            t0 = time.perf_counter()
            err = _error_sq(cov, state.lmaps[cov.n, name], state) if finite else math.nan
            elapsed = time.perf_counter() - t0
            if not math.isfinite(err):
                raise ConfigError(
                    f"the {name} error at n={cov.n} is {err}: the scales B={cfg.B} and "
                    f"sigma={cfg.sigma} are too large for double precision"
                )
            records.append(TrialRecord(name, cov.n, int(trial_index), err, elapsed * 1e3))
        # The loop would hold this snapshot while the stream sums the next.
        del cov
    return tuple(records)


def _error_sq(cov: EmpiricalCovariances, lmap: LambdaMap, state: _PassState) -> float:
    """bg_norm(estimate - a0) ** 2 from the learned rows alone.

    Each chunk of rows _learned_rows yields is scored in its own buffer
    before the next is solved: the difference, its squares and their
    weights are formed there, and only the row terms are kept. The caller
    refuses an overflow.
    """
    with np.errstate(over="ignore"):
        terms = state.a0_terms.copy()
        for rows, err in _learned_rows(cov, lmap):
            err -= state.a0.m[rows]
            terms[rows] = _row_terms(err, state.mu_w)
        return math.sqrt(float(terms @ state.rho_w)) ** 2


def single_ridge_lambda(cfg: ProblemConfig, n: int) -> float:
    """Baseline uniform coefficient n^(-1/(beta+p)), floored at e^-709 as the schedules' are."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return max(float(n) ** (-1.0 / (cfg.beta + cfg.p)), math.exp(-_LOG_HUGE))


ESTIMATOR_NAMES = ("single", "variance", "bias", "multilevel")


def estimate_from_covariances(
    cov: EmpiricalCovariances, cfg: ProblemConfig, estimator: str
) -> OperatorMatrix:
    """Fit one named estimator from a dataset's covariances.

    Every estimator is the same row-wise ridge at the lambda map
    LambdaMap.for_estimator(cfg, cov.n, estimator). The Gram matrices
    dominate the cost at large n, so callers fitting several estimators on
    one dataset compute the covariances once and call this for each name.
    An arbitrary uniform coefficient lam is
    fit_rowwise_ridge(cov, LambdaMap.uniform(cov.d_out, lam)).

    Args:
        cov: empirical covariances of a dataset of cov.n samples.
        cfg: problem configuration supplying schedules and decays.
        estimator: one of ESTIMATOR_NAMES.
    """
    lmap = LambdaMap.for_estimator(cfg, cov.n, estimator)
    return OperatorMatrix(fit_rowwise_ridge(cov, lmap), cfg.input_decay, cfg.output_decay)


def population_regularized(a0: OperatorMatrix, lmap: LambdaMap) -> OperatorMatrix:
    """Infinite-sample limit of the row-wise ridge applied to a0.

    Learned entry (j, i) equals (mu_i / (mu_i + lambda_j)) * a0[j, i];
    unlearned rows are zero.
    """
    if lmap.d_out != a0.d_out:
        raise ValueError(
            f"lambda map covers {lmap.d_out} rows, operator has {a0.d_out}"
        )
    mu = a0.input_decay.values
    shrink = np.zeros((a0.d_out, a0.d_in))
    lam_col = lmap.lams[:, None]
    shrink[: lmap.k] = mu[None, :] / (mu[None, :] + lam_col)
    return OperatorMatrix(
        m=a0.m * shrink,
        input_decay=a0.input_decay,
        output_decay=a0.output_decay,
    )


def analytic_bias(
    src: SourceCoefficients,
    lmap: LambdaMap,
    in_decay: EigenDecay,
    out_decay: EigenDecay,
    beta_prime: float,
    gamma_prime: float,
) -> float:
    """Closed-form regularization bias of the row-wise ridge.

    Returns the (beta', gamma')-norm of the population ridge's deviation
    from the true operator:

        sqrt( sum_{j,i} mu_i^(beta-beta') * rho_j^(gamma'-gamma)
              * (lambda_j / (mu_i + lambda_j))^2 * a[j,i]^2 )

    where unlearned rows carry full weight (the lambda -> infinity limit).
    """
    a = src.a
    if lmap.d_out != a.shape[0]:
        raise ValueError(
            f"lambda map covers {lmap.d_out} rows, source has {a.shape[0]}"
        )
    if len(in_decay) != a.shape[1] or len(out_decay) != a.shape[0]:
        raise ValueError("decay lengths must match source dimensions")
    mu = in_decay.values
    rho = out_decay.values
    ratio = np.ones((a.shape[0], a.shape[1]))
    lam_col = lmap.lams[:, None]
    ratio[: lmap.k] = lam_col / (mu[None, :] + lam_col)
    w_in = mu ** (src.beta - beta_prime)
    w_out = rho ** (gamma_prime - src.gamma)
    total = np.einsum("ji,i,j->", (ratio * a) ** 2, w_in, w_out)
    return float(np.sqrt(total))

