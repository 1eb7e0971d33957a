"""End-to-end guarantees, one test and one pass/fail line per promise.

Every numbered test carries its own tolerance and wall-clock budget. The
only long entry is the convergence benchmark (test 06/07), which runs the
shipped template problem once at full size and is shared by both tests.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from opridge import (
    EmpiricalCovariances,
    ExperimentPlan,
    GroundTruthSpec,
    LambdaMap,
    ProblemConfig,
    SourceCoefficients,
    analytic_bias,
    bg_norm,
    bg_norm_via_embedding,
    fit_rowwise_ridge,
    lambda_floor,
    make_decay,
    multilevel_schedule,
    operator_from_source,
    packing_operator,
    population_regularized,
    run_convergence,
    theoretical_rate,
)
from opridge.cli import cli_main

from conftest import random_problem_config

N_GRID = (10**3, 10**4, 10**5, 10**6)


def draw_norm_instance(rng: np.random.Generator):
    """Random source, decays, and lambdas of the leading k rows, k in [0, d_out]."""
    d_in = int(rng.integers(2, 65))
    d_out = int(rng.integers(2, 65))
    in_decay = make_decay(d_in, float(rng.uniform(0.2, 0.9)))
    out_decay = make_decay(d_out, float(rng.uniform(0.2, 0.9)))
    beta = float(rng.uniform(0.2, 0.9))
    gamma = float(rng.uniform(0.0, 0.6))
    src = SourceCoefficients(
        a=rng.standard_normal((d_out, d_in)), beta=beta, gamma=gamma
    )
    k = int(rng.integers(0, d_out + 1))
    lmap = LambdaMap(lams=10.0 ** rng.uniform(-6.0, 0.0, size=k), d_out=d_out)
    beta_prime = float(rng.uniform(0.05, 0.9)) * beta
    gamma_prime = float(rng.uniform(gamma + 0.05, 0.97))
    return src, in_decay, out_decay, lmap, beta_prime, gamma_prime


def schedule_in_double_range(cfg: ProblemConfig, n_grid=N_GRID) -> bool:
    # The identity checks below evaluate powers of the stored corners, so the
    # corners must sit comfortably inside double range on the whole grid.
    for n in n_grid:
        for lv in multilevel_schedule(cfg, n).levels:
            if not (1e-60 < lv.x < 1e60 and lv.y < 1e280):
                return False
    return True


def sample_u_bucket(rng: np.random.Generator, count: int, lo: float, hi: float):
    configs = []
    for _ in range(20_000):
        if len(configs) == count:
            return configs
        cfg = random_problem_config(rng)
        if lo < theoretical_rate(cfg)[2] < hi and schedule_in_double_range(cfg):
            configs.append(cfg)
    raise AssertionError(f"could not sample {count} configs with u in ({lo}, {hi})")


@pytest.fixture(scope="module")
def staircase_geometries():
    # u a constant factor away from 1: the level-count ceiling of test 05
    # scales with 1/|log2 u| and does not apply inside (3/4, 4/3).
    rng = np.random.default_rng(8675309)
    contracting = sample_u_bucket(rng, 20, 1.35, 8.0)   # output side binding
    expanding = sample_u_bucket(rng, 20, 0.15, 0.75)    # input side binding
    return contracting, expanding


@pytest.fixture(scope="module")
def convergence_benchmark():
    """One full-size sweep of the shipped template problem, reused by 06/07."""
    cfg = ProblemConfig(
        p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0,
        gamma_prime=0.5, B=1.0, sigma=0.1, c0=1.0, d_in=256, d_out=512,
        seed=20260819,
    )
    plan = ExperimentPlan(
        cfg=cfg,
        n_list=tuple(2**k for k in range(10, 17)),
        trials=20,
        estimators=("single", "variance", "multilevel"),
        ground_truth=GroundTruthSpec("random", {"taper_in": 0.3, "taper_out": 2.0}),
        workers=2,  # the errors do not depend on the pool size (test 09)
    )
    return plan, run_convergence(plan)


def test_01_closed_form_bias_matches_population_deviation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        src, in_d, out_d, lmap, bp, gp = draw_norm_instance(rng)
        a0 = operator_from_source(src, in_d, out_d)
        direct = bg_norm(population_regularized(a0, lmap).difference(a0), bp, gp)
        closed = analytic_bias(src, lmap, in_d, out_d, bp, gp)
        worst = max(worst, abs(closed - direct) / direct)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"closed-form bias off by {worst:.3e} relative"
    assert elapsed < 5.0, f"bias oracle took {elapsed:.2f}s, budget 5s"


def test_02_ridge_solver_recovers_population_shrinkage():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        src, in_d, out_d, lmap, _, _ = draw_norm_instance(rng)
        a0 = operator_from_source(src, in_d, out_d)
        # Population moments: diagonal input Gram, cross matrix A0 diag(mu).
        cov = EmpiricalCovariances(
            c_kk=np.diag(in_d.values), c_lk=a0.m * in_d.values[np.newaxis, :], n=1
        )
        solved = fit_rowwise_ridge(cov, lmap)
        target = population_regularized(a0, lmap).m
        # An empty map's target is all zeros, and so must be its solve.
        scale = max(float(np.max(np.abs(target))), 1e-300)
        worst = max(worst, float(np.max(np.abs(solved - target))) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-10, f"solver deviates from population shrinkage by {worst:.3e}"
    assert elapsed < 5.0, f"population solve took {elapsed:.2f}s, budget 5s"


def test_03_weighted_norm_equals_embedding_norm():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = 0.0
    for _ in range(100):
        d_in = int(rng.integers(2, 33))
        d_out = int(rng.integers(2, 33))
        op = operator_from_source(
            SourceCoefficients(
                a=rng.standard_normal((d_out, d_in)),
                beta=float(rng.uniform(0.2, 0.9)),
                gamma=float(rng.uniform(0.0, 0.6)),
            ),
            make_decay(d_in, float(rng.uniform(0.2, 0.9))),
            make_decay(d_out, float(rng.uniform(0.2, 0.9))),
        )
        b = float(rng.uniform(0.0, 1.0))
        g = float(rng.uniform(0.0, 1.0))
        direct = bg_norm(op, b, g)
        emb = bg_norm_via_embedding(op, b, g)
        worst = max(worst, abs(direct - emb) / direct)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"norm evaluations disagree by {worst:.3e} relative"
    assert elapsed < 1.0, f"norm comparison took {elapsed:.2f}s, budget 1s"


def check_staircase_identities(cfg: ProblemConfig, n: int, tol: float) -> None:
    """Assert the level corners satisfy their defining contour equations."""
    sched = multilevel_schedule(cfg, n)
    eta1, eta2, _ = theoretical_rate(cfg)
    mx = max(cfg.alpha - cfg.beta, cfg.p)
    ex_v, ey_v = (cfg.beta_prime + mx) / cfg.p, (1.0 - cfg.gamma_prime) / cfg.q
    ex_b, ey_b = (cfg.beta - cfg.beta_prime) / cfg.p, (cfg.gamma_prime - cfg.gamma) / cfg.q
    ln_n = math.log(n)
    ln2 = math.log(2.0)
    lxs = [math.log(lv.x) for lv in sched.levels]
    lys = [math.log(lv.y) for lv in sched.levels]

    lx0 = (cfg.p / (cfg.beta_prime + mx)) * eta2 * ln_n - ln2
    assert abs(lxs[0] - lx0) <= tol * max(1.0, abs(lx0)), \
        f"base corner off: {lxs[0]} vs {lx0} (n={n})"

    if sched.special_case:
        for lx, ly in zip(lxs, lys):
            resid = abs(ex_b * lx + ey_b * ly - eta1 * ln_n)
            assert resid <= tol * max(1.0, eta1 * ln_n), \
                f"equal-rates corner off its contour by {resid:.3e} (n={n})"
        for lx, lx_next in zip(lxs, lxs[1:]):
            assert abs(lx_next - (lx - ln2)) <= tol * max(1.0, abs(lx)), \
                f"equal-rates step is not a halving (n={n})"
        for lx in lxs[:-1]:
            assert lx >= -tol, f"iteration continued past x < 1 (n={n})"
        assert lxs[-1] < 0.0, f"iteration stopped above x = 1 (n={n})"
        return

    for lx, ly in zip(lxs, lys):
        resid = abs(ex_v * lx + ey_v * ly - eta2 * ln_n)
        assert resid <= tol * max(1.0, eta2 * ln_n), \
            f"row corner off the variance contour by {resid:.3e} (n={n})"
    for lx_next, ly in zip(lxs[1:], lys):
        resid = abs(ex_b * lx_next + ey_b * ly - eta1 * ln_n)
        assert resid <= tol * max(1.0, eta1 * ln_n), \
            f"descent corner off the bias contour by {resid:.3e} (n={n})"
    floor = lambda_floor(cfg, n)
    for lv in sched.levels:
        want = max(lv.x ** (-1.0 / cfg.p), floor)
        assert abs(lv.lam - want) <= tol * want, \
            f"level lambda {lv.lam} deviates from max(x^(-1/p), floor) = {want}"
    for lx in lxs[:-1]:
        assert lx > ln2 * (1.0 - 1e-12), f"iteration continued past x <= 2 (n={n})"
    assert lxs[-1] <= ln2 * (1.0 + 1e-12), f"iteration stopped above x = 2 (n={n})"


def test_04_staircase_recursion_identities(staircase_geometries):
    t0 = time.perf_counter()
    contracting, expanding = staircase_geometries
    for cfg in contracting + expanding:
        for n in N_GRID:
            check_staircase_identities(cfg, n, tol=1e-9)

    # Worked example with clean closed-form corners: two levels, the first
    # learning rows [1, 64) at lambda 1/256, the second the rest at lambda 4.
    cfg = ProblemConfig(
        p=0.5, q=0.5, alpha=0.5, beta=0.9, beta_prime=0.1, gamma=0.1,
        gamma_prime=0.9, B=1.0, sigma=0.1, c0=1.0, d_in=512, d_out=512, seed=1,
    )
    sched = multilevel_schedule(cfg, 2**14)
    assert len(sched.levels) == 2, f"expected 2 levels, got {len(sched.levels)}"
    lv0, lv1 = sched.levels
    for got, want, name in (
        (lv0.x, 16.0, "x0"), (lv0.y, 64.0, "y0"), (lv0.lam, 0.00390625, "lambda0"),
        (lv1.x, 0.5, "x1"), (lv1.y, 2.0**36, "y1"), (lv1.lam, 4.0, "lambda1"),
    ):
        assert abs(got - want) <= 1e-12 * want, f"{name}: {got!r} vs {want!r}"
    assert (lv0.row_start, lv0.row_end) == (1, 64)
    assert (lv1.row_start, lv1.row_end) == (64, 513)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"recursion identities took {elapsed:.2f}s, budget 5s"


def test_05_staircase_level_counts_within_ceilings(staircase_geometries):
    t0 = time.perf_counter()
    contracting, expanding = staircase_geometries
    for cfg in contracting + expanding:
        for n in N_GRID:
            sched = multilevel_schedule(cfg, n)
            assert not sched.special_case
            bound = 3.0 * math.log2(math.log2(n)) + 3.0
            assert sched.level_count <= bound, \
                f"{sched.level_count} levels exceeds ceiling {bound:.2f} at n={n}"

    # Equal-rates geometries: solve for the output target that makes the two
    # contours coincide, where the staircase falls back to halving.
    for base in (contracting + expanding)[:20]:
        mx = max(base.alpha - base.beta, base.p)
        gp = ((base.beta - base.beta_prime) + (base.beta_prime + mx) * base.gamma) \
            / (base.beta + mx)
        cfg = replace(base, gamma_prime=gp)
        assert abs(theoretical_rate(cfg)[2] - 1.0) <= 1e-9
        for n in N_GRID:
            sched = multilevel_schedule(cfg, n)
            assert sched.special_case, "equal rates must take the halving branch"
            bound = 2.0 * math.log2(n) + 3.0
            assert sched.level_count <= bound, \
                f"{sched.level_count} levels exceeds halving ceiling {bound:.2f} at n={n}"
            check_staircase_identities(cfg, n, tol=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"level-count audit took {elapsed:.2f}s, budget 5s"


def test_06_multilevel_rate_matches_theory_at_scale(convergence_benchmark):
    plan, report = convergence_benchmark
    assert report.total_seconds < 1800.0, \
        f"benchmark took {report.total_seconds:.0f}s, budget 30min"
    (slope,) = [f.slope for f in report.fits if f.estimator == "multilevel"]
    eta1 = report.theoretical_eta1
    assert -eta1 == pytest.approx(-0.5), "template problem must have eta1 = 1/2"
    assert -0.68 <= slope <= -0.32, \
        f"multilevel slope {slope:.4f} outside [-0.68, -0.32] around -{eta1}"


def test_07_multilevel_beats_baseline_and_tracks_variance_contour(convergence_benchmark):
    plan, report = convergence_benchmark
    n_max = plan.n_list[-1]
    median = {(s.estimator, s.n): s.median_error_sq for s in report.summaries}
    multi = median["multilevel", n_max]
    single = median["single", n_max]
    assert multi <= single, \
        f"at n={n_max} multilevel ({multi:.4e}) must not trail the uniform " \
        f"baseline ({single:.4e})"
    for n in plan.n_list:
        m = median["multilevel", n]
        v = median["variance", n]
        assert m <= 4.0 * v, \
            f"at n={n} multilevel ({m:.4e}) exceeds 4x the variance-contour " \
            f"estimator ({v:.4e})"


def test_08_packing_instances_separated_in_weighted_norm():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(50):
        m1 = int(rng.integers(1, 9))
        k = int(rng.integers(1, 9))
        m2 = int(rng.integers(0, 5))
        in_d = make_decay(2 * m1 + int(rng.integers(0, 4)), float(rng.uniform(0.2, 0.9)))
        out_d = make_decay(m2 + k + int(rng.integers(0, 4)), float(rng.uniform(0.2, 0.9)))
        bp = float(rng.uniform(0.05, 0.9))
        gp = float(rng.uniform(0.05, 0.97))
        eps = float(10.0 ** rng.uniform(-4.0, 0.0))
        om1 = rng.integers(0, 2, size=(m1, k)).astype(np.float64)
        om2 = rng.integers(0, 2, size=(m1, k)).astype(np.float64)
        a = packing_operator(m1, m2, k, eps, om1, in_d, out_d, bp, gp)
        b = packing_operator(m1, m2, k, eps, om2, in_d, out_d, bp, gp)
        got = bg_norm(a.difference(b), bp, gp) ** 2
        want = (32.0 * eps / (m1 * k)) * float(np.sum((om1 - om2) ** 2))
        worst = max(worst, abs(got - want) / want if want else abs(got))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12, f"separation identity off by {worst:.3e} relative"
    assert elapsed < 1.0, f"separation audit took {elapsed:.2f}s, budget 1s"


def test_09_rates_csv_byte_identical_across_invocations_and_pools(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "p": 0.5, "q": 0.5, "alpha": 0.5, "beta": 0.6, "beta_prime": 0.3,
        "gamma": 0.1, "gamma_prime": 0.7, "B": 1.0, "sigma": 0.1, "c0": 1.0,
        "d_in": 12, "d_out": 16, "seed": 424242,
        "ground_truth": {"kind": "random",
                         "params": {"taper_in": 0.5, "taper_out": 1.0}},
        "n_list": [64, 128, 256], "trials": 3,
    }))
    outputs = {}
    for tag, workers in (("1a", "1"), ("1b", "1"), ("4a", "4"), ("4b", "4")):
        out = tmp_path / f"summary_{tag}.csv"
        assert cli_main(["rates", "--config", str(cfg_path),
                         "--out", str(out), "--workers", workers]) == 0
        outputs[tag] = out.read_bytes()
    capsys.readouterr()
    assert outputs["1a"] == outputs["1b"], "single-worker reruns disagree"
    assert outputs["4a"] == outputs["4b"], "4-worker reruns disagree"
    assert outputs["1a"] == outputs["4a"], "pool size changed the CSV bytes"
