"""Tests for contour lambda schedules and the multilevel staircase."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import random_problem_config

from opridge import (
    ESTIMATOR_NAMES,
    LambdaMap,
    ProblemConfig,
    bias_lambdas,
    contour_points,
    lambda_floor,
    level_count_bound,
    multilevel_schedule,
    theoretical_rate,
    variance_lambdas,
)

CFG_A = ProblemConfig(
    p=0.5, q=0.5, alpha=0.5, beta=0.9, beta_prime=0.1, gamma=0.1, gamma_prime=0.9,
    c0=1.0, d_in=256, d_out=512,
)
CFG_B = ProblemConfig(
    p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0, gamma_prime=0.5,
    B=1.0, sigma=0.1, c0=1.0, d_in=256, d_out=512,
)
# gamma' = 4/7 makes the input and output rate parts coincide, u = 1.
CFG_EQUAL_RATES = ProblemConfig(
    p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0, gamma_prime=4.0 / 7.0,
    c0=1.0, d_in=64, d_out=128,
)


def sample_config_with_contraction(
    rng: np.random.Generator, want_expanding: bool
) -> ProblemConfig:
    """Draw a valid config whose staircase contraction u sits safely off 1.

    Near u = 1 both the double-exponential contraction and the asserted
    level-count ceiling degrade, so property tests keep a margin: u in
    [1.3, 8] (expanding branch) or u <= 0.77. The u cap and the gamma_prime
    cap keep the final level's undershoot representable in doubles. The
    first-corner growth exponent is kept >= 0.25 so even N = 1000 produces
    at least two levels.
    """
    while True:
        cfg = random_problem_config(rng, d_in=1024, d_out=1024)
        eta1, eta2, u = theoretical_rate(cfg)
        if cfg.gamma_prime > 0.9:
            continue
        if want_expanding and not 1.3 <= u <= 8.0:
            continue
        if not want_expanding and u > 0.77:
            continue
        mx = max(cfg.alpha - cfg.beta, cfg.p)
        if (cfg.p / (cfg.beta_prime + mx)) * eta2 < 0.25:
            continue
        return cfg


class TestVarianceLambdas:
    def test_worked_example(self):
        sched = variance_lambdas(CFG_B, 16384)
        assert sched.y_max == 128
        assert not sched.clamped
        assert sched.lambdas[0] == pytest.approx(128.0 ** (-1.0 / 0.6), rel=1e-12)
        assert sched.lambdas[0] == pytest.approx(3.07e-4, rel=5e-3)

    def test_floor_inactive_in_worked_example(self):
        floor = lambda_floor(CFG_B, 16384)
        assert floor == pytest.approx(8.5e-9, rel=0.01)
        sched = variance_lambdas(CFG_B, 16384)
        assert all(lam > floor for lam in sched.lambdas)

    def test_nondecreasing_in_row(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            cfg = random_problem_config(rng, d_in=64, d_out=64)
            sched = variance_lambdas(cfg, int(rng.integers(4, 10**5)))
            lams = np.array(sched.lambdas)
            assert np.all(np.diff(lams) >= 0.0), "lambdas must grow with row"

    def test_huge_floor_constant_saturates_all_rows(self):
        # The contour lambda at the last learned row is near 1, so the floor
        # must be pushed above that to swallow every row.
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0,
            gamma_prime=0.5, c0=1e8, d_in=64, d_out=512,
        )
        sched = variance_lambdas(cfg, 4096)
        floor = lambda_floor(cfg, 4096)
        assert all(lam == floor for lam in sched.lambdas)

    def test_clamping_sets_flag(self):
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0,
            gamma_prime=0.5, d_in=64, d_out=16,
        )
        sched = variance_lambdas(cfg, 16384)
        assert sched.clamped and sched.y_max == 16


class TestBiasLambdas:
    def test_worked_example(self):
        sched = bias_lambdas(CFG_B, 16384)
        assert sched.lambdas[0] == pytest.approx(128.0**-1.25, rel=1e-12)
        assert sched.lambdas[0] == pytest.approx(2.33e-3, rel=5e-3)

    def test_same_row_count_as_variance_schedule(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            cfg = random_problem_config(rng, d_in=64, d_out=64)
            n = int(rng.integers(4, 10**5))
            assert bias_lambdas(cfg, n).y_max == variance_lambdas(cfg, n).y_max

    def test_nondecreasing_in_row(self):
        sched = bias_lambdas(CFG_B, 4096)
        lams = np.array(sched.lambdas)
        assert np.all(np.diff(lams) >= 0.0)

    def test_vanishes_with_n(self):
        lams = [bias_lambdas(CFG_B, n).lambdas[0] for n in (10**2, 10**3, 10**4, 10**5)]
        assert all(a > b for a, b in zip(lams, lams[1:]))
        assert lams[-1] < 1e-2

    def test_small_exponent_gap_saturates(self):
        # beta - beta' = 0.0064 sends the row lambda's exponent -1/(beta-beta')
        # past double range; the lambda must saturate, not overflow.
        cfg = ProblemConfig(
            p=0.5954, q=0.5331, alpha=0.1496, beta=0.3481, beta_prime=0.3417,
            gamma=0.4786, gamma_prime=0.982, d_in=8, d_out=384,
        )
        lams = bias_lambdas(cfg, 4096).lambdas
        assert lams and all(0.0 < lam < math.inf for lam in lams)


class TestContourPoints:
    def test_unit_level_passes_through_one_one(self):
        pts = contour_points("variance", 1.0, CFG_B, (1.0, 1.0), 2)
        for x, y in pts:
            assert x == pytest.approx(1.0) and y == pytest.approx(1.0)

    def test_staircase_corner_lies_on_bias_contour(self):
        # The second staircase corner (x_1, y_0) = (0.5, 64) of the worked
        # example sits on the bias contour at level N^eta1.
        level = (2.0**14) ** (4.0 / 7.0)
        (x, y), = contour_points("bias", level, CFG_A, (0.5, 0.5), 2)[:1]
        assert y == pytest.approx(64.0, rel=1e-12)

    def test_doubling_level_scales_y(self):
        pts1 = contour_points("variance", 3.0, CFG_B, (2.0, 2.0), 2)
        pts2 = contour_points("variance", 6.0, CFG_B, (2.0, 2.0), 2)
        factor = pts2[0][1] / pts1[0][1]
        want = 2.0 ** (CFG_B.q / (1.0 - CFG_B.gamma_prime))
        assert factor == pytest.approx(want, rel=1e-12)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            contour_points("bias", -1.0, CFG_B, (1.0, 2.0), 3)
        with pytest.raises(ValueError):
            contour_points("variance", 1.0, CFG_B, (0.0, 2.0), 3)
        with pytest.raises(ValueError):
            contour_points("twist", 1.0, CFG_B, (1.0, 2.0), 3)
        with pytest.raises(ValueError):
            contour_points("bias", 1.0, CFG_B, (1.0, 2.0), 1)

    def test_points_satisfy_contour_equation(self):
        e_x = (CFG_B.beta - CFG_B.beta_prime) / CFG_B.p
        e_y = (CFG_B.gamma_prime - CFG_B.gamma) / CFG_B.q
        for x, y in contour_points("bias", 7.5, CFG_B, (0.1, 100.0), 17):
            assert x**e_x * y**e_y == pytest.approx(7.5, rel=1e-12)


class TestMultilevelSchedule:
    def test_worked_example_two_levels(self):
        sched = multilevel_schedule(CFG_A, 2**14)
        assert sched.level_count == 2
        assert not sched.special_case
        eta1, _, u = theoretical_rate(CFG_A)
        assert eta1 == pytest.approx(4.0 / 7.0, rel=1e-12)
        assert u == pytest.approx(6.0, rel=1e-12)
        lv0, lv1 = sched.levels
        assert lv0.x == pytest.approx(16.0, rel=1e-12)
        assert lv0.y == pytest.approx(64.0, rel=1e-12)
        assert lv1.x == pytest.approx(0.5, rel=1e-12)
        assert lv0.lam == pytest.approx(2.0**-8, rel=1e-12)
        assert lv1.lam == pytest.approx(4.0, rel=1e-12)
        assert (lv0.row_start, lv0.row_end) == (1, 64)
        assert lv1.row_start == 64

    def test_worked_example_recursion_identity(self):
        # z-space recursion with z = N^(-p/(beta+p)) x: 2^-6 = (2^-1)^6.
        sched = multilevel_schedule(CFG_A, 2**14)
        scale = (2.0**14) ** (-0.5 / 1.4)
        z0 = scale * sched.levels[0].x
        z1 = scale * sched.levels[1].x
        assert z1 == pytest.approx(z0**6, rel=1e-9)
        assert z1 == pytest.approx(2.0**-6, rel=1e-9)

    def test_expanding_branch_recursion_identity(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            cfg = sample_config_with_contraction(rng, want_expanding=True)
            u = theoretical_rate(cfg)[2]
            for n in (10**3, 10**4, 10**5, 10**6):
                sched = multilevel_schedule(cfg, n)
                scale = float(n) ** (-cfg.p / max(cfg.alpha, cfg.beta + cfg.p))
                zs = [scale * lv.x for lv in sched.levels]
                for z_prev, z_next in zip(zs, zs[1:]):
                    assert z_next == pytest.approx(z_prev**u, rel=1e-9), (
                        f"u={u} n={n}"
                    )

    def test_contracting_branch_recursion_identity(self):
        rng = np.random.default_rng(67)
        for _ in range(20):
            cfg = sample_config_with_contraction(rng, want_expanding=False)
            u = theoretical_rate(cfg)[2]
            for n in (10**3, 10**4, 10**5, 10**6):
                sched = multilevel_schedule(cfg, n)
                xs = [lv.x for lv in sched.levels]
                assert len(xs) >= 2, "sampler must give at least two levels"
                for x_prev, x_next in zip(xs, xs[1:]):
                    assert x_next == pytest.approx(x_prev**u, rel=1e-9), (
                        f"u={u} n={n}"
                    )

    def test_corners_lie_on_their_contours(self):
        rng = np.random.default_rng(71)
        for want_expanding in (True, False):
            for _ in range(5):
                cfg = sample_config_with_contraction(rng, want_expanding)
                n = 10**4
                eta1, eta2, _ = theoretical_rate(cfg)
                mx = max(cfg.alpha - cfg.beta, cfg.p)
                ex_v = (cfg.beta_prime + mx) / cfg.p
                ey_v = (1.0 - cfg.gamma_prime) / cfg.q
                ex_b = (cfg.beta - cfg.beta_prime) / cfg.p
                ey_b = (cfg.gamma_prime - cfg.gamma) / cfg.q
                sched = multilevel_schedule(cfg, n)
                for lv in sched.levels:
                    assert lv.x**ex_v * lv.y**ey_v == pytest.approx(
                        float(n) ** eta2, rel=1e-9
                    )
                for prev, nxt in zip(sched.levels, sched.levels[1:]):
                    assert nxt.x**ex_b * prev.y**ey_b == pytest.approx(
                        float(n) ** eta1, rel=1e-9
                    )

    def test_equal_rates_branch_halves_x(self):
        eta1, eta2, u = theoretical_rate(CFG_EQUAL_RATES)
        assert abs(u - 1.0) <= 1e-9
        sched = multilevel_schedule(CFG_EQUAL_RATES, 2**20)
        assert sched.special_case
        xs = [lv.x for lv in sched.levels]
        for a, b in zip(xs, xs[1:]):
            assert a / b == pytest.approx(2.0, rel=1e-12)
        assert xs[-1] < 1.0 <= xs[-2]

    def test_equal_rates_corners_on_bias_contour(self):
        cfg = CFG_EQUAL_RATES
        eta1, _, _ = theoretical_rate(cfg)
        ex_b = (cfg.beta - cfg.beta_prime) / cfg.p
        ey_b = (cfg.gamma_prime - cfg.gamma) / cfg.q
        sched = multilevel_schedule(cfg, 2**16)
        for lv in sched.levels:
            assert lv.x**ex_b * lv.y**ey_b == pytest.approx(
                (2.0**16) ** eta1, rel=1e-9
            )

    def test_monotone_geometry_and_row_partition(self):
        rng = np.random.default_rng(73)
        for _ in range(15):
            cfg = random_problem_config(rng, d_in=128, d_out=128)
            sched = multilevel_schedule(cfg, int(rng.integers(4, 10**6)))
            xs = [lv.x for lv in sched.levels]
            ys = [lv.y for lv in sched.levels]
            lams = [lv.lam for lv in sched.levels]
            assert all(a > b for a, b in zip(xs, xs[1:])), "x must decrease"
            assert all(a < b for a, b in zip(ys, ys[1:])), "y must increase"
            assert all(a <= b for a, b in zip(lams, lams[1:])), "lambda must not drop"
            assert sched.levels[0].row_start == 1
            for prev, nxt in zip(sched.levels, sched.levels[1:]):
                assert nxt.row_start == prev.row_end, "brackets must chain"
            for lv in sched.levels:
                assert lv.row_start <= lv.row_end <= cfg.d_out + 1

    def test_lambda_floor_respected(self):
        # c0 = 1e5 puts the floor just above the first level's contour
        # lambda of 16^(-2) at this sample count.
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0,
            gamma_prime=0.5, c0=1e5, d_in=64, d_out=64,
        )
        n = 4096
        sched = multilevel_schedule(cfg, n)
        floor = lambda_floor(cfg, n)
        assert all(lv.lam >= floor for lv in sched.levels)
        assert any(lv.lam == floor for lv in sched.levels)

    def test_tiny_n_still_yields_a_schedule(self):
        sched = multilevel_schedule(CFG_A, 4)
        assert sched.level_count >= 1
        assert sched.levels[0].row_start == 1


class TestLevelCountBound:
    def test_worked_example(self):
        count, bound = level_count_bound(CFG_A, 2**14)
        assert count == 2
        assert bound == pytest.approx(3.0 * math.log2(14.0) + 3.0, rel=1e-12)
        assert count <= bound

    def test_equal_rates_bound_value(self):
        count, bound = level_count_bound(CFG_EQUAL_RATES, 2**20)
        assert bound == pytest.approx(43.0, abs=1e-9)
        assert count <= bound

    def test_bound_holds_across_random_configs(self):
        rng = np.random.default_rng(79)
        for want_expanding in (True, False):
            for _ in range(20):
                cfg = sample_config_with_contraction(rng, want_expanding)
                for k in (8, 12, 16, 20):
                    count, bound = level_count_bound(cfg, 2**k)
                    assert count <= bound, (
                        f"L={count} exceeds {bound} at N=2^{k}, u={theoretical_rate(cfg)[2]}"
                    )

    def test_bound_holds_for_equal_rates_config(self):
        for k in (8, 12, 16, 20):
            count, bound = level_count_bound(CFG_EQUAL_RATES, 2**k)
            assert count <= bound


def sample_config_near_equal_rates(rng: np.random.Generator) -> ProblemConfig:
    """Draw a valid config with |u - 1| log-uniform in (1e-9, 1e-2), either side of 1.

    u is linear in (gamma'-gamma)/(1-gamma'), so gamma' is solved for the
    drawn u.
    """
    cfg = random_problem_config(rng)
    u = 1.0 + float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-9.0, -2.0))
    mx = max(cfg.alpha - cfg.beta, cfg.p)
    r = u * (cfg.beta - cfg.beta_prime) / (cfg.beta_prime + mx)
    return replace(cfg, gamma_prime=(cfg.gamma + r) / (1.0 + r))


class TestNearEqualRates:
    def test_staircase_stays_within_halving_ceiling(self):
        # Contracting needs about 1/|u - 1| levels here; the staircase halves
        # instead and keeps every level and row bracket well formed.
        rng = np.random.default_rng(89)
        for _ in range(300):
            cfg = sample_config_near_equal_rates(rng)
            n = max(2, int(2.0 ** rng.uniform(1.0, 24.0)))
            sched = multilevel_schedule(cfg, n)
            u = theoretical_rate(cfg)[2]
            assert sched.level_count <= 2.0 * math.log2(n) + 3.0, (u, n)
            for lv in sched.levels:
                assert 0.0 < lv.x < math.inf and 0.0 < lv.lam < math.inf, (u, n)
                assert lv.row_start <= lv.row_end <= cfg.d_out + 1, (u, n)
            assert sched.levels[0].row_start == 1
            for prev, nxt in zip(sched.levels, sched.levels[1:]):
                assert nxt.row_start == prev.row_end, (u, n)


def sample_any_valid_config(rng: np.random.Generator) -> ProblemConfig:
    """Draw across the whole validated ranges, edges included.

    beta' runs up to 0.999 beta and gamma' to within 0.001 (1 - gamma) of 1,
    so contour exponents and corners reach far outside double range.
    """
    beta = float(rng.uniform(0.01, 0.99))
    gamma = float(rng.uniform(0.0, 0.99))
    return ProblemConfig(
        p=float(rng.uniform(0.01, 0.99)),
        q=float(rng.uniform(0.01, 0.99)),
        alpha=float(rng.uniform(0.01, 0.99)),
        beta=beta,
        beta_prime=beta * float(rng.uniform(0.001, 0.999)),
        gamma=gamma,
        gamma_prime=gamma + (1.0 - gamma) * float(rng.uniform(0.001, 0.999)),
        c0=float(10.0 ** rng.uniform(-3.0, 3.0)),
        d_in=int(10.0 ** rng.uniform(0.0, 3.3)),
        d_out=int(10.0 ** rng.uniform(0.0, 3.3)),
    )


class TestAnyValidConfig:
    def test_schedules_stay_positive_and_finite(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            cfg = sample_any_valid_config(rng)
            n = max(2, int(2.0 ** rng.uniform(1.0, 24.0)))
            contour = {"variance": variance_lambdas(cfg, n), "bias": bias_lambdas(cfg, n)}
            for sched in contour.values():
                assert all(0.0 < lam < math.inf for lam in sched.lambdas), (cfg, n)
            levels = multilevel_schedule(cfg, n).levels
            assert all(0.0 < lv.x < math.inf for lv in levels), (cfg, n)
            assert all(0.0 < lv.lam < math.inf for lv in levels), (cfg, n)
            # Each estimator's map holds the leading rows its schedule learns.
            learned = {"single": cfg.d_out, "multilevel": levels[-1].row_end - 1,
                       **{name: sched.y_max for name, sched in contour.items()}}
            for name in ESTIMATOR_NAMES:
                k = LambdaMap.for_estimator(cfg, n, name).k
                assert k == learned[name] <= cfg.d_out, (cfg, n, name)
            # The x-range the contours subcommand samples over.
            x_range = (min(0.5, min(lv.x for lv in levels)), 2.0 * max(lv.x for lv in levels))
            eta1, eta2, _ = theoretical_rate(cfg)
            for kind, eta in (("variance", eta2), ("bias", eta1)):
                for x, y in contour_points(kind, float(n) ** eta, cfg, x_range, 9):
                    assert 0.0 < x < math.inf and 0.0 < y < math.inf, (cfg, n, kind)
