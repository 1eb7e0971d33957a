"""Synthetic data generation: datasets v = A0 u + eps and ground truths.

Every ground truth is built on its config's one eigenvalue grid, the
make_decay decays cfg.input_decay and cfg.output_decay, by the builder of
its GroundTruthSpec kind: _random_operator, _laplacian_operator or
_packing_operator, each called as builder(cfg, **params) and returning
the operator.

A dataset's inputs are one stream per seed, written by an in-place fill
of buffers the caller allocates; any split of the stream into row blocks
gives the same bits, as do rows drawn ahead of it without moving it. The
noise reaches an estimate only through eps.T @ u, so a trial pass draws
that statistic of each cell, given its inputs, directly in the eigenbasis
of the cell's c_kk (_noise_cross_moment); make_dataset draws noise rows
of the same law.

Input coordinates are bounded uniforms scaled by sqrt(mu_i) so the
almost-sure embedding bound genuinely holds (Gaussians would violate it).
Noise coordinates are independent Gaussians N(0, sigma_j^2) with the
Basel-normalized law sigma_j^2 = sigma^2 * (6/pi^2) * j^(-2) of a
config's noise (core.NoiseProfile), whose infinite sum is exactly sigma^2.

All draws are reproducible: every generator takes an explicit 64-bit seed,
and independent sub-streams are derived with derive_seed, a fixed
splitmix64-style integer mixer (Python's builtin hash is process-salted and
must not be used for this).
"""

from __future__ import annotations

import copy
import math
from typing import Any, Callable, Iterator

import numpy as np

from .core import (  # perfbench also imports NoiseProfile from here
    ConfigError,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    operator_from_source,
)

__all__ = [
    "derive_seed",
    "make_dataset",
    "ground_truth_seed",
]

SQRT3 = math.sqrt(3.0)

# Fixed tags separating the independent sub-streams of one base seed.
_TAG_INPUTS = 0x1
_TAG_NOISE = 0x2
_TAG_GROUND_TRUTH = 0x3

_MASK64 = (1 << 64) - 1


def derive_seed(seed: int, *parts: int) -> int:
    """Mix a base seed with integer labels into a decorrelated 64-bit seed.

    splitmix64 finalizer applied once per absorbed label. Pure integer
    arithmetic, stable across processes and platforms, so concurrently
    scheduled trials reproduce the exact draws of a serial run.
    """
    h = seed & _MASK64
    for part in parts:
        h ^= part & _MASK64
        h = (h + 0x9E3779B97F4A7C15) & _MASK64
        z = h
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        h = z ^ (z >> 31)
    return h


def _fill_scaled_uniform(rng: np.random.Generator, out: np.ndarray, scale: np.ndarray) -> None:
    """Fill out with draws uniform on [-sqrt3, sqrt3], column i times scale[i], in place.

    The same bits as rng.uniform(-SQRT3, SQRT3, out.shape) * scale, which
    computes low + (high - low) * r with high - low = 2 * SQRT3 exactly,
    but with no second array of out's size.
    """
    rng.random(out=out)
    out *= 2.0 * SQRT3
    out += -SQRT3
    out *= scale


def _stream_filler(a0: OperatorMatrix, rng_seed: int) -> Callable[..., None]:
    """fill(u, ahead=False): write the next rows of the (a0, rng_seed) input stream into u.

    A call continues the stream where the last fill stopped, so any split
    of the rows into buffers gives the same bits. With ahead=True it draws
    from a copy of the generator and leaves the stream where it was: u
    gets the rows the next fill starts with, bit for bit. The caller owns
    the buffers.
    """
    rng = np.random.default_rng(derive_seed(rng_seed, _TAG_INPUTS))
    scale = np.sqrt(a0.input_decay.values)

    def fill(u: np.ndarray, ahead: bool = False) -> None:
        _fill_scaled_uniform(copy.deepcopy(rng) if ahead else rng, u, scale)

    return fill


def _noise_cross_moment(noise_sd: np.ndarray, eigvals: np.ndarray, n: int, rng_seed: int,
                        chunk: int) -> Iterator[tuple[slice, np.ndarray]]:
    """A draw of eps.T @ u @ Q / n given n rows u with c_kk = Q @ diag(eigvals) @ Q.T.

    Given u, row j of eps.T @ u / n is N(0, sigma_j^2 c_kk / n) for make_dataset's noise,
    independent of the others, so in the eigenbasis Q it is independent normals of
    variance sigma_j^2 L_i / n. The draw is diag(noise_sd) Z diag(sqrt(L / n)) over the
    r = min(n, d_in) largest eigenvalues L (c_kk has rank at most n): shape (d_out, r),
    the last r columns of the statistic; the others are zero. eigvals are those the
    EmpiricalCovariances constructor hands the cross moment it is built with, clamped
    at 0, so the draw is made inside that construction (estimators._from_sums). Z is
    standard normal from the sub-stream (rng_seed, noise, n), so the draw depends on
    the cell alone.

    Yields (rows, z): z is rows `rows` of the draw, at most chunk of them, in
    row order. Each chunk is drawn from the one generator into one buffer of
    min(chunk, d_out) x r doubles, so the chunks are the bits of a one-shot
    draw whatever chunk is, and the caller must use each before the next.
    """
    d_out, r = len(noise_sd), min(n, len(eigvals))
    rng = np.random.default_rng(derive_seed(rng_seed, _TAG_NOISE, n))
    scale = np.sqrt(eigvals[-r:] / n)
    buf = np.empty((min(chunk, d_out), r))
    for start in range(0, d_out, chunk):
        rows = slice(start, min(start + chunk, d_out))
        z = buf[: rows.stop - start]
        rng.standard_normal(out=z)
        z *= scale
        z *= noise_sd[rows, np.newaxis]
        yield rows, z


def make_dataset(
    a0: OperatorMatrix, n: int, profile: NoiseProfile, rng_seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a dataset (u, v) from the model v = A0 u + eps.

    u (n x d_in) is the first n rows of the (a0, rng_seed) input stream and
    eps (n x d_out) has rows N(0, diag(sigma_j^2)) from the noise sub-stream,
    so u does not change with sigma. The streamed pass's noise has this law.

    Raises:
        ValueError: n < 1.
    """
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    u = np.empty((n, a0.d_in))
    _stream_filler(a0, rng_seed)(u)
    eps = np.random.default_rng(derive_seed(rng_seed, _TAG_NOISE)).standard_normal((n, a0.d_out))
    eps *= np.sqrt(profile.variances(a0.d_out))
    return u, u @ a0.m.T + eps


def _random_operator(
    cfg: ProblemConfig,
    seed: int | None = None,
    taper_in: float = 0.75,
    taper_out: float = 0.75,
) -> OperatorMatrix:
    """GroundTruthSpec kind "random": a random operator with source norm exactly B.

    Coefficients are a[j][i] = sign * i^(-taper_in) * j^(-taper_out) with
    i.i.d. random signs drawn from seed (ground_truth_seed(cfg) when None),
    globally rescaled so the Frobenius norm equals cfg.B. The default
    tapers spread coefficient mass while keeping it summable; smaller
    tapers push the instance toward the boundary of the source class.

    Raises:
        ConfigError: the coefficients overflow before the rescaling, naming
            ground_truth.params.taper_in or taper_out; or an operator
            coordinate overflows, naming B, p and beta.
    """
    rng = np.random.default_rng(ground_truth_seed(cfg) if seed is None else seed)
    # Scaled in place, in the order the formula reads, so a is the same bits
    # as signs * w_out * w_in and the build never holds more than two a0s.
    a = rng.integers(0, 2, size=(cfg.d_out, cfg.d_in)) * 2.0
    a -= 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        w_in = np.arange(1, cfg.d_in + 1, dtype=np.float64) ** -taper_in
        w_out = np.arange(1, cfg.d_out + 1, dtype=np.float64) ** -taper_out
        a *= w_out[:, np.newaxis]
        a *= w_in[np.newaxis, :]
        # Not np.linalg.norm: its BLAS dot product rounds differently for each
        # thread count, and this runs in the caller's process.
        norm = math.sqrt(float(np.sum(a * a)))
        if not math.isfinite(norm):
            # The sum of squares is sum(w_in^2) * sum(w_out^2): a taper whose
            # own sum overflows is named alone, else both are.
            tapers = {"taper_in": (taper_in, w_in), "taper_out": (taper_out, w_out)}
            bad = [k for k, (_, w) in tapers.items() if not math.isfinite(float(np.sum(w * w)))]
            named = " and ".join(f"ground_truth.params.{k}={tapers[k][0]}"
                                 for k in bad or tapers)
            raise ConfigError(f"the coefficients i^-taper_in * j^-taper_out overflow at "
                              f"d_in={cfg.d_in}, d_out={cfg.d_out} with {named}: raise it")
    if cfg.B > 0.0 and norm > 0.0:
        a *= cfg.B / norm
    else:
        a.fill(0.0)
    src = SourceCoefficients(a=a, beta=cfg.beta, gamma=cfg.gamma)
    decays = cfg.input_decay, cfg.output_decay  # each raises its own ConfigError
    try:  # a has norm B, so only the weights mu_i^((beta-1)/2) can overflow
        with np.errstate(over="ignore"):  # OperatorMatrix refuses it
            return operator_from_source(src, *decays)
    except ValueError:
        raise ConfigError(f"B={cfg.B} with p={cfg.p} and beta={cfg.beta} puts ground-truth "
                          "coordinates past double precision: lower B or raise p or beta") from None


def _laplacian_operator(cfg: ProblemConfig, t: int = 1, scale: float = 1.0) -> OperatorMatrix:
    """GroundTruthSpec kind "laplacian": a diagonal derivative-style operator on a square grid.

    The symbol d_n = scale * (pi*n)^(2t) on the config's eigenvalues
    mu_n = n^(-1/p) and rho_n = n^(-1/q) has the source coefficients
    a_n = d_n * mu_n^(-beta/2) * rho_n^(-(2-gamma)/2) under the config's
    (beta, gamma). The operator's diagonal is operator_from_source's
    weighting of a_n, in its order, so the build holds one a0.

    Raises:
        ConfigError: naming d_in and d_out when the grid is not square; or
            naming p, q, t and scale when a coefficient or an operator
            coordinate is past double range.
    """
    if cfg.d_in != cfg.d_out:
        raise ConfigError("ground_truth.kind 'laplacian' needs a square grid, "
                          f"got d_in={cfg.d_in}, d_out={cfg.d_out}")
    in_decay, out_decay = cfg.input_decay, cfg.output_decay  # each raises its own ConfigError
    n = np.arange(1, cfg.d_in + 1, dtype=np.float64)
    try:  # 2.0 * t overflows for an integer t past double range
        with np.errstate(over="ignore", invalid="ignore"):
            a = (scale * (math.pi * n) ** (2.0 * t) * in_decay.values ** (-cfg.beta / 2.0)
                 * out_decay.values ** (-(2.0 - cfg.gamma) / 2.0))
            diag = a * in_decay.values ** ((cfg.beta - 1.0) / 2.0)
            diag *= out_decay.values ** ((1.0 - cfg.gamma) / 2.0)
        # mu's weight is at least 1 and rho's in [0, 1], so a non-finite a_n
        # leaves diag[n] non-finite: checking diag checks a too.
        if np.isfinite(diag).all():
            return OperatorMatrix(np.diag(diag), in_decay, out_decay)
    except OverflowError:
        pass
    raise ConfigError(
        f"q={cfg.q} and p={cfg.p} at d_in={cfg.d_in} with ground_truth.params."
        f"t={t} and ground_truth.params.scale={scale} put the laplacian "
        "coefficients d_n mu_n^(-beta/2) rho_n^(-(2-gamma)/2) past double "
        "precision: raise q or p, or lower t or scale")


def _packing_operator(
    cfg: ProblemConfig,
    m1: int,
    K: int,
    eps: float,
    m2: int = 0,
    omega: Any = None,
    seed: int | None = None,
) -> OperatorMatrix:
    """GroundTruthSpec kind "packing": a sign-pattern operator of the adversarial packing family.

    Places the block entry (1-based output row j+m2, input column i+m1)

        sqrt(32*eps/(m1*K)) * omega[i-1][j-1]
            * mu_{i+m1}^((beta'-1)/2) * rho_{j+m2}^((1-gamma')/2)

    for i = 1..m1, j = 1..K and zero elsewhere, on the config's decays and
    its (beta', gamma'). Any two members with sign patterns omega, omega'
    satisfy the exact separation identity
    bg_norm(A - A', beta', gamma')^2 = (32*eps/(m1*K)) * sum (omega - omega')^2.

    Args:
        m1: input block width, >= 1; the block occupies input columns m1+1..2*m1.
        K: output block height, >= 1.
        eps: separation scale, > 0.
        m2: output row offset, >= 0; the block occupies rows m2+1..m2+K.
        omega: m1 x K matrix with entries in {0, 1}; when None, one is
            drawn uniformly from seed (ground_truth_seed(cfg) when None),
            only once the block fits.

    Raises:
        ConfigError: what the grid decides, naming ground_truth.params:
            m1 when the input block is past d_in, m2 and K when the output
            block is past d_out, eps when a block entry is past double
            range; or omega when it is not an m1 x K matrix of 0s and 1s.
    """
    in_decay, out_decay = cfg.input_decay, cfg.output_decay  # each raises its own ConfigError
    if 2 * m1 > cfg.d_in:
        raise ConfigError(f"ground_truth.params.m1={m1} puts the input block 2*m1={2 * m1} "
                          f"past d_in={cfg.d_in}")
    if m2 + K > cfg.d_out:
        raise ConfigError(f"ground_truth.params.m2={m2} and ground_truth.params.K={K} put the "
                          f"output block m2+K={m2 + K} past d_out={cfg.d_out}")
    if omega is None:
        rng = np.random.default_rng(ground_truth_seed(cfg) if seed is None else seed)
        omega = rng.integers(0, 2, size=(m1, K))
    try:
        omega = np.asarray(omega, dtype=np.float64)
        valid = omega.shape == (m1, K) and bool(np.all(np.isin(omega, (0.0, 1.0))))
    except (TypeError, ValueError):  # not numbers, or rows of unequal length
        valid = False
    if not valid:
        raise ConfigError(f"ground_truth.params.omega must be an m1 x K = {m1} x {K} 0/1 matrix")
    mat = np.zeros((cfg.d_out, cfg.d_in))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by name
        c = math.sqrt(32.0 * eps / (m1 * K))
        mu_w = in_decay.values[m1 : 2 * m1] ** ((cfg.beta_prime - 1.0) / 2.0)
        rho_w = out_decay.values[m2 : m2 + K] ** ((1.0 - cfg.gamma_prime) / 2.0)
        mat[m2 : m2 + K, m1 : 2 * m1] = c * omega.T * rho_w[:, np.newaxis] * mu_w[np.newaxis, :]
    try:  # the shapes match, so only an entry past double range is refused
        return OperatorMatrix(mat, in_decay, out_decay)
    except ValueError:
        raise ConfigError(f"ground_truth.params.eps={eps} puts the packing block "
                          "sqrt(32*eps/(m1*K)) * weights past double range: lower eps") from None


def ground_truth_seed(cfg: ProblemConfig) -> int:
    """Sub-seed reserved for drawing the ground-truth operator of a config."""
    return derive_seed(cfg.seed, _TAG_GROUND_TRUTH)
