"""Regularization schedules: per-row contour lambdas and the multilevel staircase.

The (input frequency x, output frequency y) plane carries two families of
power-law level curves:

  variance contour:  x^((beta'+max{alpha-beta, p})/p) * y^((1-gamma')/q) = C
  bias contour:      x^((beta-beta')/p)               * y^((gamma'-gamma)/q) = C'

Learning all spectral cells under a contour with the matching per-row ridge
coefficient equalizes that error source across rows. The multilevel staircase
covers the region under the bias contour at level N^eta1 with rectangles that
never cross the variance contour at level N^eta2, giving a schedule of
(x_i, y_i) corners whose x-sequence contracts double-exponentially at a pace
set by |log u|, or halves where contracting would need more than
2*log2(N) + 3 levels (u near 1).

Every contour quantity -- a row's lambda, the learned-row count, a staircase
corner, a sampled contour point -- is solved in log space from one table of
contour exponents and levels: a corner can lie far beyond what doubles
represent (x astronomically small, y astronomically large). Corners, and the
lambdas x^(-1/p) read off them, are exponentiated with saturation at
e^(+-709), so such a corner prints as a tiny or huge finite number.

Every lambda is floored at c0 * (N / ln N)^(-1/alpha), the resolution limit
below which the empirical input covariance is not trustworthy. Natural
logarithms are used wherever a rate formula says log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ProblemConfig, theoretical_rate

__all__ = [
    "LambdaSchedule",
    "Level",
    "LevelSchedule",
    "lambda_floor",
    "variance_lambdas",
    "bias_lambdas",
    "contour_points",
    "multilevel_schedule",
    "level_count_bound",
]

def _ceil_snapped(y: float) -> int:
    """Ceiling with a relative downward snap.

    Row boundaries are exact integers for round configs; float noise must not
    be able to push such a boundary up by a whole row.
    """
    return int(math.ceil(y * (1.0 - 1e-9)))


# exp() saturation bound at both ends: doubles overflow just past e^709.7
# and turn subnormal, losing precision, just below e^-708.3.
_LOG_HUGE = 709.0


def _exp_saturated(lv: float) -> float:
    return math.exp(min(max(lv, -_LOG_HUGE), _LOG_HUGE))


def _contour(cfg: ProblemConfig, kind: str) -> tuple[float, float, float]:
    """(e_x, e_y, eta) of the `kind` contour x^e_x * y^e_y = n^eta."""
    eta1, eta2, _ = theoretical_rate(cfg)
    if kind == "variance":
        mx = max(cfg.alpha - cfg.beta, cfg.p)
        return (cfg.beta_prime + mx) / cfg.p, (1.0 - cfg.gamma_prime) / cfg.q, eta2
    if kind == "bias":
        return (
            (cfg.beta - cfg.beta_prime) / cfg.p,
            (cfg.gamma_prime - cfg.gamma) / cfg.q,
            eta1,
        )
    raise ValueError(f"contour kind must be 'bias' or 'variance', got {kind!r}")


def _solve(e_known: float, e_other: float, log_level: float, l_known: float) -> float:
    """The other log coordinate of the contour point e_known*l_known + e_other*l = log_level."""
    return (log_level - e_known * l_known) / e_other


def _corner_lambda(cfg: ProblemConfig, lx: float, floor: float) -> float:
    """Ridge coefficient of input corner e^lx: max{x^(-1/p), floor}."""
    return max(_exp_saturated(-lx / cfg.p), floor)


def _row_bound(cfg: ProblemConfig, ly: float) -> tuple[int, bool]:
    """Exclusive row bound ceil(e^ly) cut to d_out + 1, and whether it was cut."""
    row = _ceil_snapped(_exp_saturated(ly))
    return min(row, cfg.d_out + 1), row > cfg.d_out


def _check_map_samples(n: int, field: str = "sample count") -> None:
    """The sample-count rule of every lambda map: n >= 2, as lambda_floor's ln n needs.

    The ValueError names field; an ExperimentPlan refuses its n_list by
    this rule too (harness._check_sample_count).
    """
    if n < 2:
        raise ValueError(f"{field} must be >= 2, got {n}")


def lambda_floor(cfg: ProblemConfig, n: int) -> float:
    """Smallest trustworthy regularization, c0 * (n / ln n)^(-1/alpha)."""
    _check_map_samples(n)
    return cfg.c0 * (n / math.log(n)) ** (-1.0 / cfg.alpha)


@dataclass(frozen=True)
class LambdaSchedule:
    """Per-row ridge coefficients for one contour estimator.

    Attributes:
        lambdas: lambdas[j-1] is the coefficient of 1-based row j of the
            y_max learned rows; positive and nondecreasing in j.
        clamped: True when the contour's learned-row count exceeded d_out and
            was cut to it.
    """

    lambdas: tuple[float, ...]
    clamped: bool

    @property
    def y_max(self) -> int:
        """Number of learned output rows; rows with 0-based index >= y_max are not learned."""
        return len(self.lambdas)


def _contour_lambdas(cfg: ProblemConfig, n: int, kind: str) -> LambdaSchedule:
    """Corner lambdas of the `kind` contour at rows j = 1..y_max.

    Row j's input corner solves the contour at y = j; y_max is the row where
    the variance contour crosses x = 1.
    """
    ln_n = math.log(n)
    ex_var, ey_var, eta2 = _contour(cfg, "variance")
    row_end, clamped = _row_bound(cfg, _solve(ex_var, ey_var, eta2 * ln_n, 0.0))
    y_max = min(row_end, cfg.d_out)
    e_x, e_y, eta = _contour(cfg, kind)
    floor = lambda_floor(cfg, n)
    lams = tuple(
        _corner_lambda(cfg, _solve(e_y, e_x, eta * ln_n, math.log(j)), floor)
        for j in range(1, y_max + 1)
    )
    return LambdaSchedule(lambdas=lams, clamped=clamped)


def variance_lambdas(cfg: ProblemConfig, n: int) -> LambdaSchedule:
    """Ridge coefficients equalizing estimation variance across learned rows.

    Row j (1-based) receives
        max{ (j^(-(1-gamma')/q) * n^eta2)^(-1/(beta'+max{alpha-beta, p})),
             lambda_floor }
    for j = 1..y_max with y_max = ceil(n^((q/(1-gamma'))*eta2)) clamped to
    d_out.
    """
    return _contour_lambdas(cfg, n, "variance")


def bias_lambdas(cfg: ProblemConfig, n: int) -> LambdaSchedule:
    """Ridge coefficients equalizing regularization bias across learned rows.

    Row j receives
        max{ (j^(-(gamma'-gamma)/q) * n^eta1)^(-1/(beta-beta')), lambda_floor }
    with the same learned-row count as variance_lambdas.
    """
    return _contour_lambdas(cfg, n, "bias")


def contour_points(
    kind: str,
    level_c: float,
    cfg: ProblemConfig,
    x_range: tuple[float, float],
    samples: int,
) -> list[tuple[float, float]]:
    """Sample points (x, y) on the contour x^e_x * y^e_y = level_c.

    Args:
        kind: 'bias' or 'variance'.
        level_c: contour level, > 0.
        cfg: problem exponents.
        x_range: (x_min, x_max), both positive.
        samples: number of points, >= 2, geometrically spaced in x.

    Returns:
        List of (x, y) pairs with y solving the contour equation at each x.
    """
    e_x, e_y, _ = _contour(cfg, kind)
    if level_c <= 0.0:
        raise ValueError(f"contour level must be positive, got {level_c}")
    x_min, x_max = x_range
    if x_min <= 0.0 or x_max <= 0.0 or x_max < x_min:
        raise ValueError(f"x_range must be positive and ordered, got {x_range}")
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    log_c = math.log(level_c)
    log_min, log_max = math.log(x_min), math.log(x_max)
    pts = []
    for k in range(samples):
        lx = log_min + (log_max - log_min) * k / (samples - 1)
        pts.append((_exp_saturated(lx), _exp_saturated(_solve(e_x, e_y, log_c, lx))))
    return pts


@dataclass(frozen=True)
class Level:
    """One staircase level.

    Attributes:
        x: input-frequency corner of the level, saturated at e^(+-709).
        y: output-frequency corner (unclamped contour solution), saturated
            the same way.
        lam: ridge coefficient of the level, max{x^(-1/p), lambda floor}.
        row_start, row_end: 1-based half-open range of output rows the level
            learns; already clamped to the grid, may be empty.
    """

    x: float
    y: float
    lam: float
    row_start: int
    row_end: int


@dataclass(frozen=True)
class LevelSchedule:
    """The multilevel staircase for one (config, sample count) pair.

    special_case: True when the halving branch was taken.
    """

    levels: tuple[Level, ...]
    special_case: bool
    clamped: bool

    @property
    def level_count(self) -> int:
        return len(self.levels)


def _halving_ceiling(n: int) -> float:
    """Level ceiling 2*log2(n) + 3, which every staircase stays under."""
    return 2.0 * math.log2(n) + 3.0


def _staircase_xy(cfg: ProblemConfig, n: int) -> tuple[list[tuple[float, float]], bool]:
    """The raw (log x_i, log y_i) corners, unclamped, and whether x halved."""
    ex_var, ey_var, eta2 = _contour(cfg, "variance")
    ex_bias, ey_bias, eta1 = _contour(cfg, "bias")
    ln_n = math.log(n)
    ln2 = math.log(2.0)
    lx0 = _solve(ey_var, ex_var, eta2 * ln_n, 0.0) - ln2
    lx, pairs = lx0, []
    for _ in range(int(_halving_ceiling(n))):
        ly = _solve(ex_var, ey_var, eta2 * ln_n, lx)
        pairs.append((lx, ly))
        if lx <= ln2:
            return pairs, False
        lx = _solve(ey_bias, ex_bias, eta1 * ln_n, ly)
    # x_0 < n, so halving takes at most log2(n) + 1 levels.
    lx, pairs = lx0, []
    while True:
        pairs.append((lx, _solve(ex_bias, ey_bias, eta1 * ln_n, lx)))
        if lx < 0.0:
            return pairs, True
        lx -= ln2


def multilevel_schedule(cfg: ProblemConfig, n: int) -> LevelSchedule:
    """Build the multilevel staircase schedule for n samples.

    Starting from x_0 = n^((p/(beta'+max{alpha-beta, p})) * eta2) / 2, the
    variance contour's x at row 1 halved, each level solves the variance
    contour at level n^eta2 for its row corner y_i and the bias contour at
    level n^eta1 for the next x_{i+1}; iteration stops at the first
    x_i <= 2, that level included. log x_i contracts by the factor u per
    level, so near u = 1 that takes about 1/|u - 1| levels; if it does not
    stop within 2*log2(n) + 3 levels, x halves from the same x_0 instead
    (the paper's u = 1 case), y_i solves the bias contour at x_i, and
    iteration stops at the first x_i < 1, within log2(n) + 1 levels.

    Level i learns the 1-based output rows [ceil(y_{i-1}), ceil(y_i)) with
    y_{-1} = 0 (the first level starts at row 1), clamped to the grid; its
    ridge coefficient is max{x_i^(-1/p), lambda_floor}.
    """
    floor = lambda_floor(cfg, n)
    pairs, special = _staircase_xy(cfg, n)
    levels = []
    row_start = 1
    clamped = False
    for lx, ly in pairs:
        row_end, cut = _row_bound(cfg, ly)
        clamped = clamped or cut
        row_end = max(row_end, row_start)
        levels.append(
            Level(
                x=_exp_saturated(lx),
                y=_exp_saturated(ly),
                lam=_corner_lambda(cfg, lx, floor),
                row_start=row_start,
                row_end=row_end,
            )
        )
        row_start = row_end
    return LevelSchedule(levels=tuple(levels), special_case=special, clamped=clamped)


def level_count_bound(cfg: ProblemConfig, n: int) -> tuple[int, float]:
    """Realized level count and its reference ceiling.

    The ceiling is 3*log2(log2 n) + 3 for the contracting branch and
    2*log2(n) + 3 for the halving branch; the latter bounds every schedule.
    Each contracting step multiplies log x by u, so the crossing count
    scales like 1/|log2 u|; the log-log ceiling therefore assumes u at least
    a constant factor away from 1 (roughly u <= 3/4 or u >= 4/3) and is
    exceeded inside that band.
    """
    sched = multilevel_schedule(cfg, n)
    if sched.special_case:
        bound = _halving_ceiling(n)
    else:
        bound = 3.0 * math.log2(math.log2(n)) + 3.0
    return sched.level_count, bound
