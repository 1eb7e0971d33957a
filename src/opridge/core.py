"""Coordinate conventions, eigenvalue decays, operators, and weighted norms.

Everything in this package lives in the orthonormal eigenbases of the input
and output covariance operators. An operator is a dense D_out x D_in matrix
of coordinates in those bases, and every norm used here is a diagonally
weighted Frobenius norm, so all quantities have closed forms and no
quadrature is ever needed.

Conventions fixed across the package:
  - eigenvalues are exact power laws, mu_i = i^(-1/p) with 1-based index i
    and the proportionality constant fixed to 1;
  - a smoothness-(b, g) source matrix `a` induces operator coordinates
    m[j][i] = a[j][i] * mu_i^((b-1)/2) * rho_j^((1-g)/2);
  - the (b, g)-norm of an operator is
    sqrt(sum_{j,i} mu_i^(1-b) * rho_j^(-(1-g)) * m[j][i]^2),
    which recovers ||a||_F when evaluated at the source exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "ConfigError",
    "ProblemConfig",
    "EigenDecay",
    "SourceCoefficients",
    "OperatorMatrix",
    "make_decay",
    "operator_from_source",
    "bg_norm",
    "bg_norm_via_embedding",
    "theoretical_rate",
]


class ConfigError(ValueError):
    """Raised when a configuration value violates its constraints.

    The message always names the offending field so CLI users can fix the
    config file directly.
    """


@dataclass(frozen=True)
class ProblemConfig:
    """Problem exponents, scales, truncation dimensions, and the RNG seed.

    Attributes:
        p: input eigenvalue decay exponent, in (0, 1); mu_i = i^(-1/p).
        q: output eigenvalue decay exponent, in (0, 1); rho_j = j^(-1/q).
        alpha: input embedding exponent, in (0, 1).
        beta: input source smoothness, in [0, 1).
        beta_prime: input error smoothness, in (0, beta).
        gamma: output source smoothness, in [0, 1).
        gamma_prime: output error smoothness, in (gamma, 1).
        B: source-norm bound (Frobenius norm of the source coefficients).
        sigma: noise trace scale, the one noise level; the per-coordinate
            noise variances sum to at most sigma^2. NoiseProfile checks
            that sigma^2 is finite.
        c0: regularization floor constant multiplying (N/ln N)^(-1/alpha).
        d_in: input truncation dimension.
        d_out: output truncation dimension.
        seed: 64-bit base seed for every random draw derived from this
            problem.
    """

    p: float
    q: float
    alpha: float
    beta: float
    beta_prime: float
    gamma: float
    gamma_prime: float
    B: float = 1.0
    sigma: float = 0.1
    c0: float = 1.0
    d_in: int = 128
    d_out: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        _validate_config(self)

    @property
    def input_decay(self) -> "EigenDecay":
        return _config_decay(self.d_in, self.p, "d_in", "p")

    @property
    def output_decay(self) -> "EigenDecay":
        return _config_decay(self.d_out, self.q, "d_out", "q")


def _validate_config(cfg: ProblemConfig) -> None:
    """Check every ProblemConfig invariant, naming the field on failure.

    Stores each field as its annotated type: float fields as float, and int
    fields as int, where an integral float such as 16.0 is accepted.

    Raises:
        ConfigError: if any field is not a number of its type or is outside
            its allowed range.
    """
    for f in fields(cfg):
        # Annotations are strings here (from __future__ import annotations).
        object.__setattr__(cfg, f.name, _scalar(f.name, getattr(cfg, f.name), f.type == "int"))
    if not 0.0 < cfg.p < 1.0:
        raise ConfigError(f"p must lie in (0, 1), got {cfg.p}")
    if not 0.0 < cfg.q < 1.0:
        raise ConfigError(f"q must lie in (0, 1), got {cfg.q}")
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {cfg.alpha}")
    if not 0.0 <= cfg.beta < 1.0:
        raise ConfigError(f"beta must lie in [0, 1), got {cfg.beta}")
    if not 0.0 < cfg.beta_prime < cfg.beta:
        raise ConfigError(
            f"beta_prime must lie in (0, beta)=(0, {cfg.beta}), got {cfg.beta_prime}"
        )
    if not 0.0 <= cfg.gamma < 1.0:
        raise ConfigError(f"gamma must lie in [0, 1), got {cfg.gamma}")
    if not cfg.gamma < cfg.gamma_prime < 1.0:
        raise ConfigError(
            f"gamma_prime must lie in (gamma, 1)=({cfg.gamma}, 1), got {cfg.gamma_prime}"
        )
    if cfg.B < 0.0:
        raise ConfigError(f"B must be nonnegative, got {cfg.B}")
    if cfg.sigma < 0.0:
        raise ConfigError(f"sigma must be nonnegative, got {cfg.sigma}")
    if cfg.c0 <= 0.0:
        raise ConfigError(f"c0 must be positive, got {cfg.c0}")
    if cfg.d_in < 1:
        raise ConfigError(f"d_in must be an integer >= 1, got {cfg.d_in}")
    if cfg.d_out < 1:
        raise ConfigError(f"d_out must be an integer >= 1, got {cfg.d_out}")
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError(f"seed must be an integer in [0, 2^64), got {cfg.seed}")


def _finite(x: np.ndarray) -> bool:
    """Whether every entry of x is finite, with no array of flags as large as x."""
    return x.size == 0 or math.isfinite(float(x.min())) and math.isfinite(float(x.max()))


def _scalar(name: str, value: object, integer: bool) -> float | int:
    """A config number as float, or as int when `integer`, naming the field."""
    # bool is an int subclass; a config saying "beta": true is a mistake.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return int(value)
    try:
        x = float(value)
    except OverflowError:  # an int beyond float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite float, got {x}")
    return x


@dataclass(frozen=True)
class EigenDecay:
    """A finite, strictly decreasing sequence of positive eigenvalues.

    Attributes:
        values: the eigenvalues, largest first.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", values)
        if values.ndim != 1 or values.size < 1:
            raise ValueError("EigenDecay values must be a nonempty 1-d vector")
        if not _finite(values) or np.any(values <= 0.0):
            raise ValueError("EigenDecay values must be finite and positive")
        if np.any(np.diff(values) >= 0.0):
            raise ValueError("EigenDecay values must be strictly decreasing")

    def __len__(self) -> int:
        return int(self.values.size)


def make_decay(dim: int, exponent: float) -> EigenDecay:
    """Build the canonical power-law decay value[i-1] = i^(-1/exponent).

    Args:
        dim: number of eigenvalues, >= 1.
        exponent: decay parameter, in (0, 1). Smaller exponents decay faster.

    Returns:
        EigenDecay with values [1, 2^(-1/exponent), ..., dim^(-1/exponent)].

    Raises:
        ValueError: if dim < 1 or exponent is outside (0, 1).
    """
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
        raise ValueError(f"decay dim must be a positive integer, got {dim!r}")
    if not (math.isfinite(exponent) and 0.0 < exponent < 1.0):
        raise ValueError(f"decay exponent must lie in (0, 1), got {exponent!r}")
    idx = np.arange(1, dim + 1, dtype=np.float64)
    return EigenDecay(values=idx ** (-1.0 / exponent))


def _config_decay(dim: int, exponent: float, dim_name: str, exp_name: str) -> EigenDecay:
    """make_decay on a config's grid; the error names the fields when it underflows."""
    try:
        return make_decay(dim, exponent)
    except ValueError as exc:
        raise ConfigError(
            f"{exp_name}={exponent} with {dim_name}={dim} gives eigenvalues "
            f"i^(-1/{exp_name}) that double precision cannot hold ({exc}); "
            f"raise {exp_name} or lower {dim_name}"
        ) from None


@dataclass(frozen=True)
class SourceCoefficients:
    """Spectral source coefficients of a ground-truth operator.

    The matrix `a` is D_out x D_in; entry a[j][i] is the coefficient of the
    (output j, input i) spectral cell under source exponents (beta, gamma).
    Its Frobenius norm is the source norm of the operator.
    """

    a: np.ndarray
    beta: float
    gamma: float

    def __post_init__(self) -> None:
        a = np.asarray(self.a, dtype=np.float64)
        object.__setattr__(self, "a", a)
        if a.ndim != 2:
            raise ValueError("source coefficients must be a 2-d matrix")
        if not _finite(a):
            raise ValueError("source coefficients must be finite")


@dataclass(frozen=True)
class OperatorMatrix:
    """Operator coordinates in the orthonormal eigenbases.

    m[j][i] is the coordinate of the operator on the (output j, input i)
    orthonormal frame pair; shape is (len(output_decay), len(input_decay)).
    """

    m: np.ndarray
    input_decay: EigenDecay
    output_decay: EigenDecay

    def __post_init__(self) -> None:
        m = np.asarray(self.m, dtype=np.float64)
        object.__setattr__(self, "m", m)
        if m.ndim != 2:
            raise ValueError("operator matrix must be 2-d")
        if m.shape != (len(self.output_decay), len(self.input_decay)):
            raise ValueError(
                f"operator shape {m.shape} does not match decays "
                f"({len(self.output_decay)}, {len(self.input_decay)})"
            )
        if not _finite(m):
            raise ValueError("operator matrix entries must be finite")

    @property
    def d_in(self) -> int:
        return int(self.m.shape[1])

    @property
    def d_out(self) -> int:
        return int(self.m.shape[0])

    def difference(self, other: "OperatorMatrix") -> "OperatorMatrix":
        """Entrywise difference self - other, sharing this operator's decays."""
        if self.m.shape != other.m.shape:
            raise ValueError("operator shapes differ")
        return OperatorMatrix(self.m - other.m, self.input_decay, self.output_decay)


def operator_from_source(
    src: SourceCoefficients, in_decay: EigenDecay, out_decay: EigenDecay
) -> OperatorMatrix:
    """Convert source coefficients into orthonormal operator coordinates.

    The coordinate weight is mu_i^((beta-1)/2) * rho_j^((1-gamma)/2), so that
    the (beta, gamma)-norm of the result equals the Frobenius norm of `src`.

    Args:
        src: source coefficients with their exponents (beta, gamma).
        in_decay: input eigenvalues mu, length D_in.
        out_decay: output eigenvalues rho, length D_out.

    Returns:
        OperatorMatrix of shape (D_out, D_in).

    Raises:
        ValueError: if the coefficient matrix shape does not match the decays.
    """
    if src.a.shape != (len(out_decay), len(in_decay)):
        raise ValueError(
            f"source shape {src.a.shape} does not match decays "
            f"({len(out_decay)}, {len(in_decay)})"
        )
    col_w = in_decay.values ** ((src.beta - 1.0) / 2.0)
    row_w = out_decay.values ** ((1.0 - src.gamma) / 2.0)
    m = src.a * col_w[np.newaxis, :]
    m *= row_w[:, np.newaxis]  # in place: the same bits, and no third array of a's size
    return OperatorMatrix(m, in_decay, out_decay)


def bg_norm(op: OperatorMatrix, b: float, g: float) -> float:
    """Weighted Hilbert-Schmidt norm of an operator.

    Computes sqrt(sum_{j,i} mu_i^(1-b) * rho_j^(-(1-g)) * m[j][i]^2) as
    per-row sums sum_i mu_i^(1-b) * m[j][i]^2 (_row_terms), then their dot
    with the row weights rho_j^(-(1-g)). Any real (b, g) are accepted; the
    weights are plain powers of the eigenvalues. At the source exponents
    this recovers the Frobenius norm of the source coefficients.
    """
    mu_w, rho_w = _norm_weights(op.input_decay, op.output_decay, b, g)
    return math.sqrt(float(_row_terms(np.array(op.m, order="C"), mu_w) @ rho_w))


def _norm_weights(
    input_decay: EigenDecay, output_decay: EigenDecay, b: float, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """bg_norm's weights (mu_i^(1-b), rho_j^(-(1-g))) of each column and row."""
    return input_decay.values ** (1.0 - b), output_decay.values ** (-(1.0 - g))


def _row_terms(m: np.ndarray, mu_w: np.ndarray) -> np.ndarray:
    """sum_i mu_w[i] * m[j][i]^2 for each row j of m, overwriting m.

    m must be C-ordered: its weighted squares are formed in place, so the
    terms need no array of m's size. Row j's term is the same bits
    whichever other rows m holds, since each row is summed alone along a
    contiguous axis, so a caller may compute the terms of some rows and
    reuse others.
    """
    np.square(m, out=m)
    m *= mu_w
    return m.sum(axis=1)


def bg_norm_via_embedding(op: OperatorMatrix, b: float, g: float) -> float:
    """Same norm as bg_norm, computed by rescale-then-Frobenius.

    Rescales columns by mu_i^((1-b)/2), then rows by rho_j^(-(1-g)/2), then
    takes the plain Frobenius norm. Algebraically identical to bg_norm; kept
    as an independent computation route for cross-checking.
    """
    col_w = op.input_decay.values ** ((1.0 - b) / 2.0)
    row_w = op.output_decay.values ** (-(1.0 - g) / 2.0)
    rescaled = op.m * col_w[np.newaxis, :]
    rescaled = rescaled * row_w[:, np.newaxis]
    return float(np.linalg.norm(rescaled))


def theoretical_rate(cfg: ProblemConfig) -> tuple[float, float, float]:
    """Predicted error exponents and the staircase contraction parameter.

    Returns:
        (eta1, eta2, u) where
        eta1 = min{(beta-beta')/max{alpha, beta+p}, (gamma'-gamma)/(1-gamma)}
        is the squared-error decay exponent, eta2 = 1 - eta1, and
        u = (beta'+max{alpha-beta, p})/(beta-beta') * (gamma'-gamma)/(1-gamma')
        governs the multilevel recursion (u > 1 iff the input side limits the
        rate).
    """
    eta1 = min(
        (cfg.beta - cfg.beta_prime) / max(cfg.alpha, cfg.beta + cfg.p),
        (cfg.gamma_prime - cfg.gamma) / (1.0 - cfg.gamma),
    )
    eta2 = 1.0 - eta1
    u = (
        (cfg.beta_prime + max(cfg.alpha - cfg.beta, cfg.p))
        / (cfg.beta - cfg.beta_prime)
        * (cfg.gamma_prime - cfg.gamma)
        / (1.0 - cfg.gamma_prime)
    )
    return eta1, eta2, u
