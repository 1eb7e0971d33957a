"""Orchestration layer: ground truths from specs, trial grids, rate fits, config IO."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import pickle
import platform
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from opridge import (
    ESTIMATOR_NAMES,
    ConfigError,
    ExperimentPlan,
    GroundTruthSpec,
    LambdaMap,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    analytic_bias,
    bg_norm,
    config_to_dict,
    derive_seed,
    estimate_from_covariances,
    fit_rate,
    fit_rowwise_ridge,
    ground_truth_seed,
    laplacian_operator,
    load_config,
    oracle_checks,
    packing_operator,
    parse_config,
    random_source_operator,
    run_cell,
    run_convergence,
)
from opridge import estimators, harness, synth
from opridge.cli import _template_config
from opridge.core import _row_terms
from opridge.estimators import (
    STREAM_BLOCK_ROWS,
    _nested_covariances,
    _pass_peak_bytes,
)

from conftest import documented_range_config, random_problem_config, random_valid_config


@pytest.fixture(autouse=True)
def unfrozen_gc():
    """_pool_init freezes the collector; a pool run in this process must not leave it so."""
    yield
    gc.unfreeze()


def small_config(**overrides) -> ProblemConfig:
    base = dict(
        p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1,
        gamma_prime=0.7, B=1.0, sigma=0.1, c0=1.0, d_in=8, d_out=12, seed=424242,
    )
    base.update(overrides)
    return ProblemConfig(**base)


class TestFitRate:
    def test_exact_halving_line(self):
        slope, intercept, r_sq = fit_rate([(2.0, 4.0), (4.0, 2.0), (8.0, 1.0)])
        assert abs(slope + 1.0) < 1e-12, f"halving per doubling must give slope -1, got {slope}"
        assert abs(intercept - math.log(8.0)) < 1e-12, f"intercept off: {intercept}"
        assert abs(r_sq - 1.0) < 1e-12, f"exact line must give r^2=1, got {r_sq}"

    def test_exact_minus_half_power_law(self):
        pts = [(float(n), 3.7 * float(n) ** -0.5) for n in (64, 256, 1024, 4096)]
        slope, _, r_sq = fit_rate(pts)
        assert abs(slope + 0.5) < 1e-12, f"exact n^-0.5 data must fit slope -0.5, got {slope}"
        assert abs(r_sq - 1.0) < 1e-12

    def test_constant_errors_zero_slope(self):
        slope, intercept, r_sq = fit_rate([(10.0, 2.5), (100.0, 2.5), (1000.0, 2.5)])
        assert abs(slope) < 1e-12, f"constant errors must give slope 0, got {slope}"
        assert abs(intercept - math.log(2.5)) < 1e-12
        assert r_sq == 1.0, "a constant sequence has zero residuals around its own level"

    def test_noisy_line_r_squared_in_unit_interval(self):
        rng = np.random.default_rng(7)
        pts = [(float(2**k), float(2**k) ** -0.7 * math.exp(rng.normal(0.0, 0.3)))
               for k in range(4, 12)]
        slope, _, r_sq = fit_rate(pts)
        assert 0.0 <= r_sq <= 1.0, f"r^2 out of range: {r_sq}"
        assert -1.2 < slope < -0.2, f"slope far from truth despite mild noise: {slope}"

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="3 points"):
            fit_rate([(2.0, 1.0), (4.0, 0.5)])

    def test_nonpositive_values_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_rate([(2.0, 1.0), (4.0, 0.0), (8.0, 0.25)])

    def test_all_equal_n_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_rate([(8.0, 1.0), (8.0, 2.0), (8.0, 3.0)])


class TestGroundTruthSpec:
    def test_random_kind_matches_generator(self):
        cfg = small_config()
        spec = GroundTruthSpec("random", {"taper_in": 0.3, "taper_out": 2.0})
        _, want = random_source_operator(
            cfg, ground_truth_seed(cfg), taper_in=0.3, taper_out=2.0
        )
        assert np.array_equal(spec.build(cfg).m, want.m), \
            "random spec must reproduce the generator draw for the derived seed"

    @pytest.mark.parametrize("kind, params, d_in, d_out", [
        ("random", {}, 2**70, 12),
        ("random", {}, 8, 2**70),
        ("random", {}, 2**40, 16),
        ("packing", {"m1": 4, "K": 8, "eps": 0.01}, 2**40, 16),
        ("laplacian", {}, 2**40, 2**40),
    ], ids=["d_in", "d_out", "random-2^40", "packing-2^40", "laplacian-2^40"])
    def test_a_grid_past_the_largest_array_is_refused_naming_it(self, kind, params, d_in,
                                                                 d_out):
        # Past physical memory, numpy's largest array included: the build
        # refuses it through _check_memory before it allocates anything.
        cfg = dataclasses.replace(small_config(), d_in=d_in, d_out=d_out)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=rf"^d_in={d_in} and d_out={d_out} need "
                                                  r"\S+ GiB of arrays to build the ground truth"):
                GroundTruthSpec(kind, params).build(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"the refused {kind} build allocated {peak} B first"

    def test_random_kind_explicit_seed(self):
        cfg = small_config()
        a = GroundTruthSpec("random", {"seed": 5}).build(cfg)
        b = GroundTruthSpec("random", {"seed": 5}).build(cfg)
        c = GroundTruthSpec("random", {"seed": 6}).build(cfg)
        assert np.array_equal(a.m, b.m), "same seed must rebuild the identical operator"
        assert not np.array_equal(a.m, c.m), "different seeds must differ"

    def test_laplacian_kind_square_grid(self):
        cfg = small_config(d_in=10, d_out=10)
        op = GroundTruthSpec("laplacian", {"t": 1, "scale": 0.5}).build(cfg)
        _, want, _ = laplacian_operator(
            s=1.0 / (2.0 * cfg.p), m=1.0 / (2.0 * cfg.q), t=1, dim=10,
            scale=0.5, beta=cfg.beta, gamma=cfg.gamma,
        )
        assert np.allclose(op.m, want.m, rtol=0.0, atol=0.0), \
            "laplacian spec must match the demo generator entrywise"
        assert np.array_equal(op.input_decay.values, cfg.input_decay.values), \
            "laplacian decays must coincide with the config grid"

    def test_laplacian_kind_rejects_rectangular(self):
        with pytest.raises(ConfigError, match="square"):
            GroundTruthSpec("laplacian", {}).build(small_config(d_in=8, d_out=12))

    def test_packing_kind_explicit_omega(self):
        cfg = small_config(d_in=8, d_out=12)
        omega = [[1, 0, 1], [0, 1, 1]]
        op = GroundTruthSpec(
            "packing", {"m1": 2, "m2": 1, "K": 3, "eps": 0.01, "omega": omega}
        ).build(cfg)
        want = packing_operator(
            2, 1, 3, 0.01, np.asarray(omega, dtype=float),
            cfg.input_decay, cfg.output_decay, cfg.beta_prime, cfg.gamma_prime,
        )
        assert np.array_equal(op.m, want.m), "explicit omega must pass through unchanged"

    def test_packing_kind_random_omega_deterministic(self):
        cfg = small_config(d_in=8, d_out=12)
        spec = GroundTruthSpec("packing", {"m1": 2, "m2": 0, "K": 4, "eps": 0.5})
        assert np.array_equal(spec.build(cfg).m, spec.build(cfg).m), \
            "omega drawn from the derived seed must be reproducible"
        omega = np.random.default_rng(ground_truth_seed(cfg)).integers(0, 2, size=(2, 4))
        want = packing_operator(2, 0, 4, 0.5, omega, cfg.input_decay, cfg.output_decay,
                                cfg.beta_prime, cfg.gamma_prime)
        assert np.array_equal(spec.build(cfg).m, want.m), "omega is the seed's first draw"

    def test_packing_kind_refuses_omega_with_seed(self):
        # A seed only draws an omega, so next to an explicit one it would be ignored.
        with pytest.raises(ConfigError, match=r"params\.omega and ground_truth\.params\.seed"):
            GroundTruthSpec("packing", {"m1": 2, "K": 2, "eps": 0.01,
                                        "omega": [[1, 0], [0, 1]], "seed": 3})

    def test_packing_kind_missing_key(self):
        cfg = small_config()
        with pytest.raises(ConfigError, match="eps"):
            GroundTruthSpec("packing", {"m1": 2, "K": 4}).build(cfg)

    @pytest.mark.parametrize("key", ["m1", "K", "eps"])
    def test_packing_kind_missing_key_is_refused_when_the_spec_is_built(self, key):
        # Refused by the spec itself, so before any worker would build the operator.
        params = {k: v for k, v in {"m1": 2, "K": 4, "eps": 0.5}.items() if k != key}
        with pytest.raises(ConfigError, match=rf"kind 'packing' is missing key '{key}'"):
            GroundTruthSpec("packing", params)

    @pytest.mark.parametrize("eps", [1e308, 4e306], ids=["scale-infinite", "entry-overflows"])
    def test_a_packing_eps_past_double_range_is_named_without_a_warning(self, eps):
        # 1e308 makes the scale sqrt(32 eps/(m1 K)) infinite. 4e306 keeps it
        # at 1.4e153, but at p = 0.00385 the weight mu_16^((beta'-1)/2) is
        # 4e155, so their product is past double range.
        cfg = small_config(p=0.00385, beta=0.01, beta_prime=0.005, d_in=16, d_out=16)
        spec = GroundTruthSpec("packing", {"m1": 8, "K": 8, "eps": eps})
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ConfigError, match=r"^ground_truth\.params\.eps="):
                spec.build(cfg)

    @pytest.mark.parametrize("params, named", [
        ({"m1": 5, "K": 4, "eps": 0.5}, ("ground_truth.params.m1=5", "d_in=8")),
        ({"m1": 2, "m2": 9, "K": 4, "eps": 0.5},
         ("ground_truth.params.m2=9", "ground_truth.params.K=4", "d_out=12")),
    ], ids=["input-block", "output-block"])
    def test_a_packing_block_past_the_grid_names_its_params(self, params, named):
        spec = GroundTruthSpec("packing", params)
        with pytest.raises(ConfigError, match=r"^ground_truth\.params\.") as exc:
            spec.build(small_config(d_in=8, d_out=12))
        assert all(name in str(exc.value) for name in named), exc.value

    @pytest.mark.parametrize("kind", ["fourier", ["random"], {"random": 1}, None, 3])
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(ConfigError, match="^ground_truth.kind must be one of"):
            GroundTruthSpec(kind, {})

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigError, match="taper"):
            GroundTruthSpec("laplacian", {"taper_in": 0.5})

    @pytest.mark.parametrize("kind, params, key", [
        ("random", {"taper_in": math.nan}, "taper_in"),
        ("random", {"taper_out": math.nan}, "taper_out"),
        ("random", {"taper_in": math.inf}, "taper_in"),
        ("random", {"seed": 5.5}, "seed"),
        ("laplacian", {"t": 1.5}, "t"),
        ("laplacian", {"scale": math.inf}, "scale"),
        ("packing", {"m1": 2.5, "K": 4, "eps": 0.5}, "m1"),
        ("packing", {"m1": 2, "m2": 0.5, "K": 4, "eps": 0.5}, "m2"),
        ("packing", {"m1": 2, "K": 4.5, "eps": 0.5}, "K"),
        ("packing", {"m1": 2, "K": 4, "eps": math.nan}, "eps"),
        ("packing", {"m1": 2, "K": 4, "eps": 0.5, "seed": "7"}, "seed"),
        ("random", {"seed": -1}, "seed"),
        ("packing", {"m1": 2, "K": 4, "eps": 0.5, "seed": -1}, "seed"),
        ("packing", {"m1": 2, "K": 4, "eps": 0.5, "omega": None}, "omega"),
        ("packing", {"m1": 0, "K": 4, "eps": 0.5}, "m1"),
        ("packing", {"m1": 2, "K": 0, "eps": 0.5}, "K"),
        ("packing", {"m1": 2, "m2": -1, "K": 4, "eps": 0.5}, "m2"),
        ("packing", {"m1": 2, "K": 4, "eps": 0.0}, "eps"),
        ("packing", {"m1": 2, "K": 4, "eps": -1}, "eps"),
        ("laplacian", {"t": -1}, "t"),
    ])
    def test_a_param_not_usable_as_written_is_refused_at_load(self, kind, params, key):
        # A NaN taper once built the zero operator, and int() truncated 2.5 to
        # 2. A null omega was drawn by build but counted as given beside a seed.
        # A range that holds on every grid is refused here, not by the build.
        obj = config_to_dict(small_config())
        obj["ground_truth"] = {"kind": kind, "params": params}
        with pytest.raises(ConfigError, match=rf"^ground_truth\.params\.{key} must be"):
            parse_config(obj)

    @pytest.mark.parametrize("params, named", [
        ({"taper_in": -400}, ("taper_in",)),
        ({"taper_out": -400}, ("taper_out",)),
        ({"taper_in": -1e300, "taper_out": 1e300}, ("taper_in",)),
        ({"taper_in": -200, "taper_out": -200}, ("taper_in", "taper_out")),
    ], ids=["taper_in", "taper_out", "taper_in-with-a-vanishing-taper_out", "both"])
    def test_a_taper_whose_coefficients_overflow_is_named_without_a_warning(self, params,
                                                                          named):
        # At d_in = d_out = 8, i^400 overflows; 8^200 does not, but the
        # product of the two weights does.
        spec = GroundTruthSpec("random", params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ConfigError, match="overflow") as exc:
                spec.build(small_config(d_in=8, d_out=8))
        message = str(exc.value)
        got = {k for k in ("taper_in", "taper_out") if f"ground_truth.params.{k}=" in message}
        assert got == set(named), message

    @pytest.mark.parametrize("q, params", [(0.0022, {"t": 1}), (0.5, {"scale": 1e308})],
                             ids=["small-q", "large-scale"])
    def test_a_laplacian_whose_coefficients_overflow_is_named_without_a_warning(self, q,
                                                                               params):
        # At d = 5 and gamma = 0, rho_5^-1 = 5^(1/q) is past double range for
        # q = 0.0022; scale = 1e308 takes d_5 = scale * (5 pi)^2 past it.
        cfg = small_config(q=q, gamma=0.0, d_in=5, d_out=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            with pytest.raises(ConfigError, match="past double precision") as exc:
                GroundTruthSpec("laplacian", params).build(cfg)
        message = str(exc.value)
        for named in (f"q={q}", "p=0.5", "d_in=5", "ground_truth.params.t=",
                      "ground_truth.params.scale="):
            assert named in message, message

    @pytest.mark.parametrize("kind, params, as_ints", [
        ("random", {"seed": 5.0}, {"seed": 5}),
        ("laplacian", {"t": 2.0}, {"t": 2}),
        ("packing", {"m1": 2.0, "m2": 1.0, "K": 4.0, "eps": 0.5, "seed": 7.0},
         {"m1": 2, "m2": 1, "K": 4, "eps": 0.5, "seed": 7}),
    ])
    def test_integral_floats_build_as_their_ints(self, kind, params, as_ints):
        cfg = small_config(d_in=12, d_out=12)
        obj = config_to_dict(cfg, GroundTruthSpec(kind, params))
        _, spec, _, _ = parse_config(obj)
        assert spec.params == as_ints
        assert np.array_equal(spec.build(cfg).m, GroundTruthSpec(kind, as_ints).build(cfg).m)


def run_pass(cfg, a0, n_list, trial_index):
    """The records of one trial pass over n_list with every estimator."""
    state = estimators._pass_state(cfg, a0, n_list, ESTIMATOR_NAMES)
    return estimators._run_trial(state, trial_index)


def trial_record(cfg, a0, n, trial_index, estimator):
    """The record of one estimator on the dataset of cell (n, trial_index)."""
    (rec,) = run_cell(cfg, a0, n, trial_index, (estimator,), NoiseProfile(sigma=cfg.sigma))
    return rec


class TestRunTrial:
    """One estimator on one cell's dataset, through run_cell."""

    def test_bitwise_deterministic(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        e1 = trial_record(cfg, a0, 256, 3, "variance").error_sq
        e2 = trial_record(cfg, a0, 256, 3, "variance").error_sq
        assert e1 == e2, f"same (seed, n, trial) must reproduce the error bit for bit: {e1} vs {e2}"

    def test_trials_decorrelated(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        e1 = trial_record(cfg, a0, 256, 0, "single").error_sq
        e2 = trial_record(cfg, a0, 256, 1, "single").error_sq
        assert e1 != e2, "different trial indices must draw different datasets"

    def test_noiseless_error_at_most_analytic_bias(self):
        # With sigma=0 the only stochastic part is the input design, so the
        # squared error of the multilevel fit hugs its population bias.
        cfg = small_config(sigma=0.0, d_in=8, d_out=32, seed=99)
        src, a0 = random_source_operator(cfg, 1234)
        n = 16384
        err_sq = trial_record(cfg, a0, n, 0, "multilevel").error_sq
        lmap = LambdaMap.for_estimator(cfg, n, "multilevel")
        bias = analytic_bias(src, lmap, cfg.input_decay, cfg.output_decay,
                             cfg.beta_prime, cfg.gamma_prime)
        assert err_sq <= bias**2 + 1e-6, \
            f"noiseless error {err_sq} exceeds analytic bias {bias**2} + 1e-6"

    def test_huge_lambda_recovers_truth_norm(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        (cov,) = _nested_covariances(a0, (128,), NoiseProfile(sigma=cfg.sigma),
                                     derive_seed(cfg.seed, 0x7, 0))
        a_hat = OperatorMatrix(fit_rowwise_ridge(cov, LambdaMap.uniform(cfg.d_out, 1e30)),
                               cfg.input_decay, cfg.output_decay)
        err_sq = bg_norm(a_hat.difference(a0), cfg.beta_prime, cfg.gamma_prime) ** 2
        want = bg_norm(a0, cfg.beta_prime, cfg.gamma_prime) ** 2
        assert abs(err_sq - want) <= 1e-10 * want, \
            f"an infinitely shrunk estimate must score the truth's norm: {err_sq} vs {want}"

    def test_elapsed_positive(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        assert trial_record(cfg, a0, 64, 0, "multilevel").elapsed_ms > 0.0


# With b = STREAM_BLOCK_ROWS: b // 2 lies below one block, 2b + b // 2 inside
# the third, 2b on a block boundary, and 9b + 100 and 17b + 100 in a short
# last block.
_B = STREAM_BLOCK_ROWS
_CHUNK = estimators._ROW_CHUNK
NESTED_N_LISTS = ((_B // 2, 2 * _B + _B // 2, 9 * _B + 100),
                  (2 * _B + _B // 2, 17 * _B + 100),
                  (2 * _B, 2 * _B + _B // 2))


def key(records):
    """The deterministic fields of each record."""
    return [(r.estimator, r.n, r.trial, r.error_sq) for r in records]


class TestRunCell:
    def test_records_follow_requested_order(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        recs = run_cell(cfg, a0, 128, 0, ("multilevel", "single"), NoiseProfile(sigma=cfg.sigma))
        assert [r.estimator for r in recs] == ["multilevel", "single"]
        assert all(r.n == 128 and r.trial == 0 for r in recs)

    def test_shared_covariances_match_standalone_estimates(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        rec = run_cell(cfg, a0, 256, 2, ("multilevel",), NoiseProfile(sigma=cfg.sigma))[0]
        (cov,) = _nested_covariances(a0, (256,), NoiseProfile(sigma=cfg.sigma),
                                     derive_seed(cfg.seed, 0x7, 2))
        a_hat = estimate_from_covariances(cov, cfg, "multilevel")
        want = bg_norm(a_hat.difference(a0), cfg.beta_prime, cfg.gamma_prime) ** 2
        assert rec.error_sq == want, \
            "cell path and standalone estimate must agree bit for bit"

    @pytest.mark.parametrize("n", [100, STREAM_BLOCK_ROWS, 700, 2 * STREAM_BLOCK_ROWS, 1600])
    def test_learned_rows_score_equals_the_standalone_norm_bitwise(self, n):
        # n below one block, on a block boundary and inside a block. At the
        # template's exponents variance, bias and multilevel leave rows
        # unlearned, so the cell scores those rows by a0's own terms.
        cfg = small_config(alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0, gamma_prime=0.5,
                           d_in=32, d_out=64)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        noise = NoiseProfile(sigma=cfg.sigma)
        assert LambdaMap.for_estimator(cfg, n, "multilevel").k < cfg.d_out
        recs = run_cell(cfg, a0, n, 3, ESTIMATOR_NAMES, noise)
        (cov,) = _nested_covariances(a0, (n,), noise, derive_seed(cfg.seed, 0x7, 3))
        for rec in recs:
            a_hat = estimate_from_covariances(cov, cfg, rec.estimator)
            want = bg_norm(a_hat.difference(a0), cfg.beta_prime, cfg.gamma_prime) ** 2
            assert rec.error_sq == want, f"{rec.estimator} at n={n}: {rec.error_sq!r} != {want!r}"

    @pytest.mark.parametrize("d_in, d_out, n", [
        (16, 2 * _CHUNK + 22, 700),
        (16, _CHUNK + 1, 300),
        (96, 2 * _CHUNK + 22, 50),
        (16, 3 * _CHUNK + 8, 2 * _B + 300),
    ], ids=["d_out-not-a-multiple-of-the-chunk", "one-row-last-chunk", "n-below-d_in",
            "n-inside-a-block"])
    def test_a_chunked_cell_equals_the_standalone_norm_and_a_one_shot_draw(self, d_in, d_out,
                                                                          n):
        # d_out spans several row chunks of the solves and the noise draw.
        cfg = small_config(alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0, gamma_prime=0.5,
                           d_in=d_in, d_out=d_out)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        noise = NoiseProfile(sigma=cfg.sigma)
        seed = derive_seed(cfg.seed, 0x7, 3)
        recs = run_cell(cfg, a0, n, 3, ESTIMATOR_NAMES, noise)
        (cov,) = _nested_covariances(a0, (n,), noise, seed)
        for rec in recs:
            a_hat = estimate_from_covariances(cov, cfg, rec.estimator)
            want = bg_norm(a_hat.difference(a0), cfg.beta_prime, cfg.gamma_prime) ** 2
            assert rec.error_sq == want, f"{rec.estimator} at n={n}: {rec.error_sq!r} != {want!r}"
        # The pass adds its draw chunk by chunk; one chunk of d_out rows is
        # the draw made at once.
        noise_sd = np.sqrt(noise.variances(d_out))
        (rows, draw), = synth._noise_cross_moment(noise_sd, cov.eigvals, n, seed, chunk=d_out)
        assert (rows.start, rows.stop) == (0, d_out) and draw.shape == (d_out, min(n, d_in))
        want = a0.m @ cov.eigvecs
        want *= cov.eigvals
        want[:, d_in - draw.shape[1]:] += draw
        assert np.array_equal(cov.c_lq, want), "the chunked draw must be the one-shot draw"

    def test_cell_of_a_nested_pass_equals_the_standalone_cell(self):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        noise = NoiseProfile(sigma=cfg.sigma)
        for n_list in NESTED_N_LISTS:
            nested = key(run_pass(cfg, a0, n_list, 1))
            alone = [rec for n in n_list
                     for rec in key(run_cell(cfg, a0, n, 1, ESTIMATOR_NAMES, noise))]
            assert len(nested) == len(n_list) * len(ESTIMATOR_NAMES)
            assert nested == alone, f"a cell changed in the pass over {n_list}"

    def test_a_noise_scale_other_than_the_configs_is_refused_before_any_draw(self, monkeypatch):
        cfg = small_config()
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        fills = []
        monkeypatch.setattr(synth, "_fill_scaled_uniform", lambda *args: fills.append(args))
        with pytest.raises(ValueError, match=r"noise\.sigma=0\.2 .* sigma=0\.1"):
            run_cell(cfg, a0, 128, 0, ESTIMATOR_NAMES, NoiseProfile(sigma=2 * cfg.sigma))
        assert not fills, "nothing may be drawn"

    def test_elapsed_is_each_estimators_own_time(self):
        # The draw and the Gram sums are shared: charging them to every record
        # would make the records add up to more than the whole cell.
        cfg = small_config(d_in=64, d_out=64)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        t0 = time.perf_counter()
        recs = run_cell(cfg, a0, 20000, 0, ESTIMATOR_NAMES, NoiseProfile(sigma=cfg.sigma))
        wall_ms = (time.perf_counter() - t0) * 1e3
        total = sum(r.elapsed_ms for r in recs)
        assert 0.0 < total <= wall_ms, f"records sum to {total:.3f} ms in a {wall_ms:.3f} ms cell"

    def test_a_worker_builds_each_lambda_map_once_for_all_its_trials(self, monkeypatch):
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg = small_config()
        n_list = (64, 700, 1600)
        calls = []
        for_estimator = LambdaMap.for_estimator.__func__

        def counting(cls, cfg, n, estimator):
            calls.append((n, estimator))
            return for_estimator(cls, cfg, n, estimator)

        monkeypatch.setattr(LambdaMap, "for_estimator", classmethod(counting))
        results, _ = harness._run_cells(cfg, GroundTruthSpec(), ESTIMATOR_NAMES, n_list,
                                        range(3), 1)
        assert InProcessPool.sizes == [1]
        assert sorted(calls) == sorted((n, e) for n in n_list for e in ESTIMATOR_NAMES), \
            "one worker running three trials must build each (n, estimator) map once, " \
            "and the parent none"
        # run_cell builds its own maps, and scores the cell to the same bits.
        a0 = GroundTruthSpec().build(cfg)
        noise = NoiseProfile(sigma=cfg.sigma)
        for trial, records in enumerate(results):
            alone = [rec for n in n_list
                     for rec in key(run_cell(cfg, a0, n, trial, ESTIMATOR_NAMES, noise))]
            assert key(records) == alone, f"trial {trial} differs from its cells run alone"


class TestIndependentRoute:
    """Each record's error against a ridge solved in input coordinates."""

    # The two routes round differently: the largest relative gap over the
    # cases below measured 1.8e-15.
    TOL = 1e-12

    @pytest.mark.parametrize("n", [5, 100, 700])
    def test_errors_match_a_solve_of_the_rebuilt_cross_matrix(self, n):
        # n = 5 lies below d_in = 8, so c_kk has rank 5 and the noise spans
        # its 5 largest eigenpairs; 100 lies in the first block, 700 inside
        # the second. sigma = 1 makes the noise a visible share of each error.
        cfg = small_config(sigma=1.0)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        trial = 2
        records = run_pass(cfg, a0, (n,), trial)
        seed = derive_seed(cfg.seed, 0x7, trial)
        noise = NoiseProfile(sigma=cfg.sigma)
        (cov,) = _nested_covariances(a0, (n,), noise, seed)
        # c_lk = a0 c_kk + diag(sigma_j) Z diag(sqrt(L / n)) V.T over the r
        # largest eigenpairs (L, V) of the snapshot's c_kk, with Z redrawn
        # from the cell's own sub-stream.
        r = min(n, cfg.d_in)
        z = np.random.default_rng(derive_seed(seed, synth._TAG_NOISE, n)).standard_normal(
            (cfg.d_out, r))
        sd = np.sqrt(noise.variances(cfg.d_out))
        scale = np.sqrt(np.maximum(cov.eigvals[-r:], 0.0) / n)
        c_lk = a0.m @ cov.c_kk + (sd[:, None] * z * scale) @ cov.eigvecs[:, -r:].T
        eye = np.eye(cfg.d_in)
        for rec in records:
            lams = LambdaMap.for_estimator(cfg, n, rec.estimator).lams
            a_hat = np.zeros_like(a0.m)
            for lam in np.unique(lams):
                rows = np.flatnonzero(lams == lam)
                a_hat[rows] = np.linalg.solve(cov.c_kk + lam * eye, c_lk[rows].T).T
            err = OperatorMatrix(a_hat - a0.m, cfg.input_decay, cfg.output_decay)
            want = bg_norm(err, cfg.beta_prime, cfg.gamma_prime) ** 2
            rel = abs(rec.error_sq - want) / want
            assert rel <= self.TOL, \
                f"{rec.estimator} at n={n}: {rec.error_sq} vs {want} ({rel:.2e})"


def pass_peak(cfg: ProblemConfig, n_list: tuple[int, ...]) -> int:
    """tracemalloc peak of one _run_trial pass over n_list, above its live heap."""
    _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
    run_pass(cfg, a0, (_B,), 0)  # first-call allocations
    state = estimators._pass_state(cfg, a0, n_list, ESTIMATOR_NAMES)
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        estimators._run_trial(state, 0)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


# numpy's iteration buffer for a fill's broadcast scaling, up to 8192 doubles,
# which a fill holds beside its block; and an allowance of the same size for a
# pass's small arrays and objects (lambda maps, row terms, records), which do
# not grow with the dimensions.
_FILL_BUFFER = 64 * 1024
_SMALL = 64 * 1024


class TestPassMemory:
    # At these sizes the block outweighs every other array, so a second
    # block alive at any moment would show 256 KiB above a bound, and a
    # d_out x d_in array in place of a chunk's (the table of all of an
    # estimator's rows) 96 KiB.
    D_IN, D_OUT = 64, 4 * _CHUNK
    BLOCK = _B * D_IN  # inputs only: no noise row is drawn
    SUMS = D_IN * D_IN  # u.T @ u
    # c_kk, the eigenvectors and the cross moment in their basis, and two
    # chunk x d_in arrays: a chunk's scaled rows and their back-rotation
    # (a chunk of the noise draw, while a snapshot is built, is one).
    SNAPSHOT = 2 * D_IN * D_IN + D_OUT * D_IN + 2 * _CHUNK * D_IN
    # A pass holds the block (or the rows a snapshot draws ahead) and two
    # sums (a Gram product added to the running one), or the sums and one
    # snapshot, never the block and a snapshot at once.
    BLOCK_ENDS_BOUND = 8 * max(BLOCK + 2 * SUMS, SUMS + SNAPSHOT) + _FILL_BUFFER + _SMALL

    def test_a_snapshot_inside_a_block_holds_no_block(self):
        # Its rows of the block are drawn ahead and dropped once their Gram
        # product is formed; the block is filled and summed after it.
        bound = self.BLOCK_ENDS_BOUND
        peak = pass_peak(small_config(d_in=self.D_IN, d_out=self.D_OUT),
                         (2 * _B, 4 * _B + 300, 8 * _B))
        assert peak <= bound, f"a pass peaked at {peak} B, {peak - bound} B over its {bound} B"

    def test_a_snapshot_at_the_end_of_a_block_holds_no_block(self):
        # The block is in the running sum before such a snapshot.
        bound = self.BLOCK_ENDS_BOUND
        peak = pass_peak(small_config(d_in=self.D_IN, d_out=self.D_OUT),
                         (2 * _B, 4 * _B, 8 * _B))
        assert peak <= bound, f"a pass peaked at {peak} B, {peak - bound} B over its {bound} B"

    @pytest.mark.parametrize("n_list", [(2 * _B, 4 * _B, 8 * _B), (2 * _B, 4 * _B + 300, 8 * _B)],
                             ids=["block-ends", "inside-a-block"])
    def test_a_pass_keeps_no_snapshot_its_consumer_dropped(self, n_list):
        # The same passes with no solve, whose consumer drops each snapshot
        # before it asks for the next: within the same bound.
        bound = self.BLOCK_ENDS_BOUND
        cfg = small_config(d_in=self.D_IN, d_out=self.D_OUT)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        noise = NoiseProfile(sigma=cfg.sigma)
        list(_nested_covariances(a0, (_B,), noise, rng_seed=5))  # first-call allocations
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            stream = _nested_covariances(a0, n_list, noise, rng_seed=5)
            for cov in stream:
                del cov
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"a stream peaked at {peak} B, {peak - bound} B over its {bound} B"

    @pytest.mark.parametrize("d_in, d_out", [(512, 512), (256, 512)],
                             ids=["square", "template"])
    def test_pass_peak_bytes_is_the_peak_of_a_pass(self, monkeypatch, d_in, d_out):
        # Here the d^2 arrays outweigh the block or match it, and n_list
        # holds an n inside a block and one on a block boundary. Within the
        # slack on either side, the formula is the peak itself, once it
        # leaves out the arrays of eigh that tracemalloc cannot see.
        monkeypatch.setattr(estimators, "_EIGH_UNTRACED", 0)
        want = _pass_peak_bytes(d_in, d_out)
        peak = pass_peak(small_config(d_in=d_in, d_out=d_out), (_B + 300, 3 * _B))
        assert abs(peak - want) <= 2 * (_FILL_BUFFER + _SMALL), \
            f"a pass peaked at {peak} B, _pass_peak_bytes says {want} B"

    @pytest.mark.parametrize("d_in, d_out", [(512, 128), (256, 1024)],
                             ids=["d_in-dominates", "d_out-dominates"])
    def test_pass_peak_bytes_is_the_peak_when_one_dimension_dominates(self, monkeypatch,
                                                                      d_in, d_out):
        # Either way a fit holds the most that tracemalloc sees: the sums,
        # c_kk, the eigenvectors, the cross moment and two chunks of rows.
        # With d_out * d_in > d_in^2, the cross moment is the largest array
        # of a pass.
        monkeypatch.setattr(estimators, "_EIGH_UNTRACED", 0)
        want = _pass_peak_bytes(d_in, d_out)
        peak = pass_peak(small_config(d_in=d_in, d_out=d_out), (_B + 300, 3 * _B))
        assert abs(peak - want) <= 2 * (_FILL_BUFFER + _SMALL), \
            f"a pass peaked at {peak} B, _pass_peak_bytes says {want} B"

    # One pass in a fresh interpreter: its resident growth over the state it
    # starts from, as [high-water mark before, resident size, high-water
    # mark after] in bytes. Its first n lies inside a block, so it draws
    # that block's first rows ahead; its peak, an eigh or a fit, holds no
    # block.
    RSS_SCRIPT = """
import json, os, resource
from opridge import ESTIMATOR_NAMES, GroundTruthSpec, ProblemConfig, estimators
cfg = ProblemConfig(**json.loads(os.environ["PASS_CONFIG"]))
state = estimators._pass_state(cfg, GroundTruthSpec().build(cfg), (300, 512), ESTIMATOR_NAMES)
high = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
with open("/proc/self/statm") as f:
    now = int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
estimators._run_trial(state, 0)
print(json.dumps([high, now, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024]))
"""

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_pass_peak_bytes_covers_the_resident_growth_of_a_pass(self):
        # eigh's copy of c_kk and LAPACK's work array are malloc'd where
        # tracemalloc cannot see them; the resident size of a process does.
        # At d_in = d_out = 1024 they are 24 MiB of the eigh's 52, and the
        # fits hold 37. A fixed mmap threshold maps every array above
        # 128 KiB on allocation and unmaps it on free, so the resident size
        # follows the live arrays, not the heap's history. The rest of the
        # growth (OpenBLAS's buffer pages, eigh's integer work, small
        # objects) measured 0.0-2.4 MiB over six shapes, 1.4-1.5 MiB at this
        # one; the slack allows 8.
        cfg = small_config(d_in=1024, d_out=1024)
        env = {**os.environ, "PASS_CONFIG": json.dumps(dataclasses.asdict(cfg)),
               "MALLOC_MMAP_THRESHOLD_": "131072",
               **{v: "1" for v in harness._BLAS_THREAD_VARS}}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(harness.__file__).resolve().parents[1]),
             *filter(None, [os.environ.get("PYTHONPATH")])])
        proc = subprocess.run([sys.executable, "-c", self.RSS_SCRIPT], env=env,
                              capture_output=True, text=True, check=True)
        high, now, peak = json.loads(proc.stdout)
        assert peak > high, "the pass must set the process's high-water mark"
        want = _pass_peak_bytes(cfg.d_in, cfg.d_out)
        assert want <= peak - now <= want + 8 * 2**20, \
            f"a pass grew the resident size by {peak - now} B, _pass_peak_bytes says {want} B"


class TestPassState:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a0_row_terms_equal_the_terms_of_a_c_ordered_copy(self, order):
        # Two full chunks and a short one; a Fortran-ordered a0 too.
        cfg = small_config(d_in=40, d_out=2 * _CHUNK + 7)
        _, a0 = random_source_operator(cfg, ground_truth_seed(cfg))
        a0 = OperatorMatrix(np.array(a0.m, order=order), a0.input_decay, a0.output_decay)
        state = estimators._pass_state(cfg, a0, (64,), ESTIMATOR_NAMES)
        want = _row_terms(np.array(a0.m, order="C"), state.mu_w)
        assert state.a0_terms.tobytes() == want.tobytes(), \
            f"row terms differ by {np.max(np.abs(state.a0_terms - want)):.3g}"

    def test_building_the_state_holds_less_than_one_a0(self):
        # The row terms take one chunk of rows at a time, not a copy of a0;
        # neither the parent's pre-pool check nor a worker holds a second a0.
        cfg = small_config(d_in=512, d_out=512)
        a0 = GroundTruthSpec().build(cfg)
        estimators._pass_state(cfg, a0, (64, 128), ESTIMATOR_NAMES)  # first-call allocations
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            estimators._pass_state(cfg, a0, (64, 128), ESTIMATOR_NAMES)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert peak < a0.m.nbytes, f"building the pass state peaked at {peak} B"


def tiny_plan(**overrides) -> ExperimentPlan:
    base = dict(
        cfg=small_config(d_in=12, d_out=16),
        n_list=(64, 128, 256),
        trials=2,
        estimators=("single", "multilevel"),
        ground_truth=GroundTruthSpec("random", {"taper_in": 0.5, "taper_out": 1.0}),
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestExperimentPlan:
    @pytest.mark.parametrize("n_list", [(64, 64, 128), (1500, 300, 5000), ()],
                             ids=["repeat", "decrease", "empty"])
    def test_n_list_must_increase(self, n_list):
        with pytest.raises(ConfigError, match="n_list .*increasing"):
            tiny_plan(n_list=n_list)

    @pytest.mark.parametrize("n_list", [(1, 2, 4), (0, 8)], ids=["one", "zero"])
    def test_n_list_needs_two_samples(self, n_list):
        # The regularization floor is undefined at n = 1.
        with pytest.raises(ConfigError, match="n_list"):
            tiny_plan(n_list=n_list)

    def test_a_count_too_long_to_print_is_refused_by_name(self):
        # Python refuses str() of an int past 4300 digits, so its size is told in bits.
        with pytest.raises(ConfigError, match=r"^each n_list entry must be at most .*"
                                              r"got a 16610-bit count$"):
            ExperimentPlan(small_config(), (2, 3, 10**5000), 1)

    @pytest.mark.parametrize("trials", [0, 2.5, True], ids=["zero", "fraction", "bool"])
    def test_trials_must_be_positive(self, trials):
        with pytest.raises(ConfigError, match="trials"):
            tiny_plan(trials=trials)

    @pytest.mark.parametrize("names, named", [(("single", "lasso"), "lasso"),
                                              ((), "nonempty subset")], ids=["lasso", "none"])
    def test_unknown_estimator_rejected(self, names, named):
        with pytest.raises(ConfigError, match=named):
            tiny_plan(estimators=names)

    def test_repeated_estimator_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            tiny_plan(estimators=("single", "single"))

    @pytest.mark.parametrize("workers", [0, 1.5], ids=["zero", "fraction"])
    def test_workers_must_be_positive(self, workers):
        with pytest.raises(ConfigError, match="workers"):
            tiny_plan(workers=workers)

    @pytest.mark.parametrize("entry", [64.5, "64"], ids=["fraction", "string"])
    def test_each_n_list_entry_must_be_an_integer(self, entry):
        with pytest.raises(ConfigError, match="n_list"):
            tiny_plan(n_list=(entry, 128, 256))

    def test_integral_float_counts_are_stored_as_ints(self):
        plan = tiny_plan(n_list=(64.0, 128, 256.0), trials=2.0, workers=1.0)
        assert plan.n_list == (64, 128, 256) and plan.trials == 2 and plan.workers == 1
        assert all(type(v) is int for v in (*plan.n_list, plan.trials, plan.workers))

    def test_outputs_are_the_out_path_and_its_siblings(self, tmp_path):
        plan = tiny_plan(out=str(tmp_path / "r.csv"))
        assert plan.outputs() == (tmp_path / "r.csv", tmp_path / "r_runs.csv", tmp_path / "r.json")
        assert tiny_plan().outputs() == ()
        # The report of r.json would overwrite the summary.
        with pytest.raises(ConfigError, match="share a path"):
            tiny_plan(out=str(tmp_path / "r.json"))

    def test_out_is_opened_when_the_plan_is_made_and_no_file_is_left(self, tmp_path):
        # Opened to append: an existing output keeps its bytes, and a file
        # made by the check is removed again.
        (tmp_path / "r_runs.csv").write_text("kept\n")
        tiny_plan(out=str(tmp_path / "r.csv"))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r_runs.csv"]
        assert (tmp_path / "r_runs.csv").read_text() == "kept\n"

    def test_noise_defaults_to_config_sigma(self):
        # The sweep's cells draw their noise at the config's sigma.
        plan = tiny_plan(cfg=small_config(d_in=12, d_out=16, sigma=0.3))
        a0 = plan.ground_truth.build(plan.cfg)
        for r in run_convergence(plan).runs:
            want = trial_record(plan.cfg, a0, r.n, r.trial, r.estimator).error_sq
            assert r.error_sq == pytest.approx(want, rel=1e-12), \
                f"sweep and sigma=0.3 cell disagree at ({r.estimator}, {r.n}, {r.trial})"


WORKER_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
               "OPENBLAS_CORETYPE", "MKL_CBWR", "MKL_ENABLE_INSTRUCTIONS", "MKL_DEBUG_CPU_TYPE")


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records the pool size it is asked
    for in `sizes` and the environment a spawned worker would inherit in
    `envs`, and runs each trial in this process. With `refuse` set, its map
    raises a cell's refusal as a worker would."""

    sizes: list[int] = []
    envs: list[dict[str, str | None]] = []
    refuse = False

    def __init__(self, *, max_workers, initializer, initargs, **_):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks, chunksize=1):
        self.envs.append({v: os.environ.get(v) for v in WORKER_VARS})
        if self.refuse:
            raise ConfigError("the multilevel error at n=64 is inf")
        return map(fn, tasks)


class TestPoolAndMemory:
    @pytest.fixture(autouse=True)
    def in_process_pool_on_three_cpus(self, monkeypatch):
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    @pytest.mark.parametrize("workers, trials, size", [
        (8, 2, 2), (8, 5, 3), (2, 5, 2), (3, 3, 3),
    ], ids=["by-trials", "by-cpus", "as-asked", "all-equal"])
    def test_pool_is_clamped_to_trials_and_usable_cpus(self, capsys, workers, trials, size):
        report = run_convergence(tiny_plan(workers=workers, trials=trials))
        assert InProcessPool.sizes == [size]
        err = capsys.readouterr().err
        if size < workers:
            assert f"starting {size} of {workers} workers" in err, err
        else:
            assert "workers" not in err, err
        assert len(report.runs) == 2 * 3 * trials

    def test_memory_past_the_budget_is_refused_before_the_ground_truth(self, monkeypatch):
        # Each worker holds an interpreter, the free heap its trim threshold
        # keeps, and the larger of its build of a0 and a0 with one pass; the
        # parent builds nothing and is one interpreter. The budget fits two
        # workers and the parent.
        plan = tiny_plan(workers=8, trials=2)
        d_in, d_out = plan.cfg.d_in, plan.cfg.d_out
        a0_bytes = 8 * d_out * d_in
        build = harness._BUILD_PEAK_ARRAYS * a0_bytes
        parent = harness._INTERPRETER_BYTES
        worker = (harness._INTERPRETER_BYTES + harness._WORKER_TRIM_BYTES
                  + max(build, a0_bytes + _pass_peak_bytes(d_in, d_out)))
        budget = 2 * worker + parent
        monkeypatch.setattr(harness, "_physical_memory", lambda: budget)
        run_convergence(plan)  # eight workers asked for, two started
        assert InProcessPool.sizes == [2]

        def no_build(*args):
            raise AssertionError("the ground truth must not be built")

        monkeypatch.setattr(GroundTruthSpec, "build", no_build)
        monkeypatch.setattr(harness, "_physical_memory", lambda: budget - 1)
        with pytest.raises(ConfigError, match=f"d_in={d_in} and d_out={d_out} need"):
            run_convergence(plan)
        assert InProcessPool.sizes == [2], "no pool may start"

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("d_in, d_out", [(12, 16), (1, 4096)])
    def test_the_budget_of_the_workers_and_one_parent_is_exact(self, monkeypatch, workers,
                                                                d_in, d_out):
        # The parent builds no a0, so with workers it counts one interpreter
        # and no arrays: exactly that much memory is accepted, a byte less
        # is refused.
        cfg = small_config(d_in=d_in, d_out=d_out)
        a0_bytes = 8 * d_out * d_in
        worker = harness._WORKER_TRIM_BYTES + max(harness._BUILD_PEAK_ARRAYS * a0_bytes,
                                                  a0_bytes + _pass_peak_bytes(d_in, d_out))
        budget = workers * worker + (1 + workers) * harness._INTERPRETER_BYTES
        monkeypatch.setattr(harness, "_physical_memory", lambda: budget)
        harness._check_memory(cfg, workers)
        monkeypatch.setattr(harness, "_physical_memory", lambda: budget - 1)
        with pytest.raises(ConfigError, match=f"in {workers} worker\\(s\\), besides "
                                              f"{1 + workers} interpreter"):
            harness._check_memory(cfg, workers)


def build_peak(spec: GroundTruthSpec, cfg: ProblemConfig) -> int:
    """tracemalloc peak of one GroundTruthSpec.build, above its live heap."""
    spec.build(cfg)  # first-call allocations
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        spec.build(cfg)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


class TestBuildMemory:
    """A build of a0 peaks at two a0s: the source coefficients and the
    operator, each scaled in place. _check_memory counts _BUILD_PEAK_ARRAYS
    a0s for it in each worker, or in the parent when it starts none."""

    D = 512
    A0 = 8 * D * D

    def counted(self) -> int:
        return harness._BUILD_PEAK_ARRAYS * self.A0

    def test_the_random_kind_peaks_at_the_counted_arrays(self):
        peak = build_peak(GroundTruthSpec("random", {}), small_config(d_in=self.D, d_out=self.D))
        assert abs(peak - 2 * self.A0) <= 2 * _SMALL, \
            f"a random build peaked at {peak} B, not two a0s ({2 * self.A0} B)"
        assert abs(peak - self.counted()) <= 2 * _SMALL, \
            f"a random build peaked at {peak} B, _check_memory counts {self.counted()} B"

    @pytest.mark.parametrize("spec", [
        GroundTruthSpec("laplacian", {"t": 1}),
        GroundTruthSpec("packing", {"m1": 8, "K": 4, "eps": 0.1}),
    ], ids=["laplacian", "packing"])
    def test_no_other_kind_peaks_higher(self, spec):
        peak = build_peak(spec, small_config(d_in=self.D, d_out=self.D))
        assert peak <= 2 * self.A0 + 2 * _SMALL, \
            f"a {spec.kind} build peaked at {peak} B, more than two a0s ({2 * self.A0} B)"
        assert peak <= self.counted() + 2 * _SMALL, \
            f"a {spec.kind} build peaked at {peak} B, _check_memory counts {self.counted()} B"

    @pytest.mark.parametrize("kind", ["random", "laplacian", "packing"])
    def test_each_kind_builds_the_bits_of_its_out_of_place_formula(self, kind):
        # The in-place scaling multiplies in the order the formulas read, so
        # a0 is the same bits as one product of temporaries.
        cfg = small_config(d_in=48, d_out=48 if kind == "laplacian" else 80)
        w_in = cfg.input_decay.values ** ((cfg.beta - 1.0) / 2.0)
        w_out = cfg.output_decay.values ** ((1.0 - cfg.gamma) / 2.0)
        if kind == "random":
            spec = GroundTruthSpec("random", {})
            rng = np.random.default_rng(ground_truth_seed(cfg))
            signs = rng.integers(0, 2, size=(cfg.d_out, cfg.d_in)) * 2.0 - 1.0
            taper_in = np.arange(1, cfg.d_in + 1, dtype=np.float64) ** -0.75
            taper_out = np.arange(1, cfg.d_out + 1, dtype=np.float64) ** -0.75
            a = signs * taper_out[:, np.newaxis] * taper_in[np.newaxis, :]
            a = a * (cfg.B / math.sqrt(float(np.sum(a * a))))
            want = a * w_in[np.newaxis, :] * w_out[:, np.newaxis]
        elif kind == "laplacian":
            spec = GroundTruthSpec("laplacian", {"t": 1, "scale": 0.5})
            n = np.arange(1, cfg.d_in + 1, dtype=np.float64)
            mu, rho = n ** (-1.0 / cfg.p), n ** (-1.0 / cfg.q)
            a_diag = (0.5 * (math.pi * n) ** 2.0 * mu ** (-cfg.beta / 2.0)
                      * rho ** (-(2.0 - cfg.gamma) / 2.0))
            want = (np.diag(a_diag) * (mu ** ((cfg.beta - 1.0) / 2.0))[np.newaxis, :]
                    * (rho ** ((1.0 - cfg.gamma) / 2.0))[:, np.newaxis])
        else:
            omega = np.random.default_rng(3).integers(0, 2, size=(4, 5)).astype(np.float64)
            spec = GroundTruthSpec("packing", {"m1": 4, "m2": 2, "K": 5, "eps": 0.1,
                                               "omega": omega})
            mu_w = cfg.input_decay.values[4:8] ** ((cfg.beta_prime - 1.0) / 2.0)
            rho_w = cfg.output_decay.values[2:7] ** ((1.0 - cfg.gamma_prime) / 2.0)
            want = np.zeros((cfg.d_out, cfg.d_in))
            want[2:7, 4:8] = (math.sqrt(32.0 * 0.1 / 20) * omega.T * rho_w[:, np.newaxis]
                              * mu_w[np.newaxis, :])
        got = spec.build(cfg).m
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), \
            f"the {kind} a0 differs from its out-of-place formula by " \
            f"{np.max(np.abs(got - want)):.3g}"

    @pytest.mark.parametrize("d_in, d_out", [
        (1, 1), (1, 4096), (4096, 1), (3, 8), (256, 512), (512, 256), (2048, 2048),
    ])
    def test_a_workers_counted_arrays_cover_its_own_build(self, monkeypatch, d_in, d_out):
        # A worker builds a0 before its first pass. What _check_memory counts
        # for one worker is the least memory that lets it start one worker,
        # less two interpreters: its own and the parent's, which builds
        # nothing. That must cover the build (_BUILD_PEAK_ARRAYS = 2 a0s)
        # and a0 with a pass. At (1, 4096) a0 and a pass come to about 2.2
        # a0s, more than the build.
        cfg = small_config(d_in=d_in, d_out=d_out)

        def least_budget(workers):
            lo, hi = 0, 2**62  # _check_memory refuses lo and accepts hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                monkeypatch.setattr(harness, "_physical_memory", lambda: mid)
                try:
                    harness._check_memory(cfg, workers)
                    hi = mid
                except ConfigError:
                    lo = mid
            return hi

        counted = least_budget(1) - 2 * harness._INTERPRETER_BYTES
        a0_bytes = 8 * d_out * d_in
        assert counted >= harness._BUILD_PEAK_ARRAYS * a0_bytes, \
            f"a worker counts {counted} B, its build takes {harness._BUILD_PEAK_ARRAYS} a0s"
        assert counted >= a0_bytes + _pass_peak_bytes(d_in, d_out), \
            f"a worker counts {counted} B, less than a0 and a pass"


class StopAtSpawn(Exception):
    """Raised by a stand-in pool in place of starting any worker."""


class TestWorkerState:
    """Each worker builds a0 and its pass state from the spawn arguments;
    the parent builds neither, and a refused build comes back from the pool."""

    @pytest.mark.parametrize("cfg, spec", [
        (small_config(), GroundTruthSpec("random", {"taper_in": 0.5, "taper_out": 1.0})),
        (small_config(d_in=8, d_out=8), GroundTruthSpec("laplacian", {"t": 2})),
        (small_config(), GroundTruthSpec("packing", {"m1": 2, "K": 3, "eps": 0.1, "seed": 5})),
    ], ids=["random", "laplacian", "packing"])
    def test_a_spawned_worker_scores_the_parents_ground_truth(self, cfg, spec):
        n_list = (64, 700)
        results, _ = harness._run_cells(cfg, spec, ESTIMATOR_NAMES, n_list, range(2), 1)
        a0 = spec.build(cfg)
        noise = NoiseProfile(sigma=cfg.sigma)
        for trial, records in enumerate(results):
            alone = [rec for n in n_list
                     for rec in key(run_cell(cfg, a0, n, trial, ESTIMATOR_NAMES, noise))]
            assert key(records) == alone, \
                f"trial {trial} of a spawned worker differs from its cells run here"

    RUN_CELL_SCRIPT = (
        "from opridge import ESTIMATOR_NAMES, parse_config, run_cell\n"
        "from opridge.cli import _template_config\n"
        "cfg, spec, noise, _ = parse_config(_template_config())\n"
        "for r in run_cell(cfg, spec.build(cfg), {n}, 0, ESTIMATOR_NAMES, noise):\n"
        "    print(r.estimator, r.error_sq.hex())\n"
    )

    def test_run_cell_on_one_blas_thread_matches_a_spawned_worker(self):
        # run_cell computes in the calling process, so it gives the sweep's
        # bits only where that process, like a worker, runs BLAS on one thread.
        cfg, spec, _, _ = parse_config(_template_config())
        n = 2048
        alone = _worker_env_subprocess(self.RUN_CELL_SCRIPT.format(n=n)).split("\n")[:-1]
        (records,), _ = harness._run_cells(cfg, spec, ESTIMATOR_NAMES, (n,), range(1), 1)
        assert alone == [f"{r.estimator} {r.error_sq.hex()}" for r in records], \
            "run_cell on one BLAS thread differs from the spawned worker's cell"

    @pytest.mark.parametrize("refusal", ["build", "operator coordinates", "lambda map",
                                         "norm weights"])
    def test_a_refusal_comes_back_by_name_from_the_pool(self, monkeypatch, refusal):
        # The worker's init keeps the refusal and its trials raise it, so
        # pool.map gives the caller the exception the build raised.
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg, spec, error, match = small_config(), GroundTruthSpec(), ConfigError, None
        if refusal == "build":  # laplacian needs a square grid
            spec = GroundTruthSpec("laplacian")
        elif refusal == "operator coordinates":  # mu_8^((beta-1)/2) = 8^4.75 times B = 1e308
            cfg = small_config(p=0.1, beta=0.05, beta_prime=0.01, B=1e308)
            match = r"^B=1e\+308 with p=0\.1 and beta=0\.05"
        elif refusal == "norm weights":  # rho_8^-(1-gamma') = 8^(0.99/q) is past double range
            cfg = small_config(q=0.002867, gamma=0.0, gamma_prime=0.01, d_in=4, d_out=8)
            match = "norm weights"
        else:
            def refused(cls, cfg, n, estimator):
                raise ValueError("learned rows must have positive finite lambdas")

            monkeypatch.setattr(LambdaMap, "for_estimator", classmethod(refused))
            error = ValueError
        with pytest.raises(error, match=match):
            harness._run_cells(cfg, spec, ESTIMATOR_NAMES, (64, 128), range(2), 2)
        assert len(InProcessPool.sizes) == 1, "the pool must be created once"

    def test_a_refused_run_leaves_nothing_to_the_next(self, monkeypatch):
        # In one process, a run whose init is refused and then a good run:
        # the good run's init replaces the kept refusal.
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        cfg, n_list = small_config(), (64, 128)
        with pytest.raises(ConfigError, match="square grid"):
            harness._run_cells(cfg, GroundTruthSpec("laplacian"), ESTIMATOR_NAMES, n_list,
                               range(2), 1)
        results, _ = harness._run_cells(cfg, GroundTruthSpec(), ESTIMATOR_NAMES, n_list,
                                        range(2), 1)
        assert InProcessPool.sizes == [1, 1]
        state = estimators._pass_state(cfg, GroundTruthSpec().build(cfg), n_list, ESTIMATOR_NAMES)
        for trial, records in enumerate(results):
            assert key(records) == key(estimators._run_trial(state, trial)), \
                f"trial {trial} of the good run differs from its pass run here"

    def test_the_spawn_payload_fits_a_pipe_at_any_dimension(self, monkeypatch):
        # A worker reads its start-up arguments only after its imports, so
        # a payload past the 64 KiB a pipe holds would keep the parent from
        # starting the next worker until then. The stand-in a0 has the
        # config's shape and decays but no memory of its own.
        d = 4096
        cfg = small_config(d_in=d, d_out=d)
        a0 = OperatorMatrix(np.broadcast_to(0.0, (d, d)), cfg.input_decay, cfg.output_decay)
        monkeypatch.setattr(GroundTruthSpec, "build", lambda self, cfg: a0)
        # Two workers' passes at this size count about 2.7 GiB.
        monkeypatch.setattr(harness, "_physical_memory", lambda: 2**40)
        payloads = []

        def capture(*, initargs, **_):
            payloads.append(pickle.dumps(initargs))
            raise StopAtSpawn

        monkeypatch.setattr(harness, "ProcessPoolExecutor", capture)
        with pytest.raises(StopAtSpawn):
            harness._run_cells(cfg, GroundTruthSpec(), ESTIMATOR_NAMES, (2**10, 2**20),
                               range(2), 2)
        (payload,) = payloads
        assert len(payload) < 64 * 1024, \
            f"the spawn payload is {len(payload)} B at d_in=d_out={d}"


class TestWorkerEnvironment:
    # The caller exports some of the variables, one of them a heap variable
    # and two of them BLAS kernel choices, and leaves the others unset.
    CALLER = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "3",
              "MALLOC_TRIM_THRESHOLD_": "0", "OPENBLAS_CORETYPE": "Sandybridge",
              "MKL_CBWR": "COMPATIBLE"}

    @pytest.fixture(autouse=True)
    def callers_environment(self, monkeypatch):
        for v in WORKER_VARS:
            monkeypatch.delenv(v, raising=False)
        for v, value in self.CALLER.items():
            monkeypatch.setenv(v, value)
        monkeypatch.setattr(InProcessPool, "envs", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)

    @staticmethod
    def callers():
        return {v: os.environ.get(v) for v in WORKER_VARS}

    def test_workers_get_the_blas_and_heap_variables(self):
        run_convergence(tiny_plan())
        want = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": str(4 * 2**20),
                "MALLOC_TRIM_THRESHOLD_": str(8 * 2**20), "OPENBLAS_CORETYPE": None,
                "MKL_CBWR": None, "MKL_ENABLE_INSTRUCTIONS": None, "MKL_DEBUG_CPU_TYPE": None}
        assert InProcessPool.envs == [want], \
            f"workers must start with one BLAS thread, the library's own kernel and the " \
            f"fixed heap thresholds " \
            f"whatever the caller exports: {InProcessPool.envs}"

    @pytest.mark.parametrize("refusal", [None, "in a worker", "in a worker's init"])
    def test_the_callers_environment_is_restored(self, monkeypatch, refusal):
        plan = tiny_plan()
        if refusal == "in a worker":
            monkeypatch.setattr(InProcessPool, "refuse", True)
        elif refusal == "in a worker's init":  # laplacian needs a square grid
            plan = tiny_plan(ground_truth=GroundTruthSpec("laplacian"))
        before = self.callers()
        if refusal is None:
            run_convergence(plan)
        else:
            with pytest.raises(ConfigError):
                run_convergence(plan)
        assert len(InProcessPool.envs) == 1, "every run must reach the pool"
        assert self.callers() == before, "the caller's values must be restored"

    def test_a_worker_freezes_the_collector_once_its_state_is_built(self):
        assert gc.get_freeze_count() == 0
        modules = dict(sys.modules)
        harness._pool_init(small_config(), GroundTruthSpec(), (64, 128), ESTIMATOR_NAMES)
        try:
            assert gc.get_freeze_count() > 0, "_pool_init must end with gc.freeze()"
            # Its _hashlib mark is for a fresh worker: this process loaded
            # _hashlib with this module's hashlib, and keeps it. The build
            # may import numpy.random, but may not mark any module absent.
            assert all(sys.modules.get(k) is m for k, m in modules.items()), \
                "_pool_init must leave a caller's modules as they are"
            absent = [k for k, m in sys.modules.items() if m is None and k not in modules]
            assert absent == [], f"_pool_init marked {absent} absent"
        finally:
            harness._WORKER_STATE.clear()


def _worker_env_subprocess(script: str) -> str:
    """stdout of script run by a fresh interpreter with the workers' environment."""
    env = {**os.environ, **harness._WORKER_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(harness.__file__).resolve().parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout


class TestWorkerProcess:
    """A worker's own cost on the gen-config template's small-n grid."""

    N_LIST = (256, 512, 1024, 2048, 4096)

    FAULT_SCRIPT = """
import resource
from opridge import ESTIMATOR_NAMES, estimators, harness
from opridge.cli import _template_config
cfg, spec, _, _ = harness.parse_config(_template_config())
state = estimators._pass_state(cfg, spec.build(cfg), {n_list}, ESTIMATOR_NAMES)
estimators._run_trial(state, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimators._run_trial(state, 1)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

    def second_pass_faults(self, n_list: tuple[int, ...]) -> int:
        return int(_worker_env_subprocess(self.FAULT_SCRIPT.format(n_list=n_list)))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap variables are glibc's")
    def test_a_second_pass_reuses_the_pages_of_the_first(self):
        # Without the heap variables this pass took 3,065 minor faults, 1,950
        # of them inside eigh; with a 4 MiB trim threshold, 1,092. It takes
        # none with the workers' thresholds.
        faults = self.second_pass_faults(self.N_LIST)
        assert faults < 500, f"a second trial pass took {faults} minor page faults"

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the heap variables are glibc's")
    def test_a_block_freed_at_each_snapshot_comes_back_from_the_same_pages(self):
        # Every n of this grid ends a block, so the block is freed before
        # each snapshot and allocated again after it, below the workers'
        # mmap threshold: from the heap pages it was freed to.
        faults = self.second_pass_faults(tuple(2**k for k in range(9, 14)))
        assert faults < 500, f"a second trial pass took {faults} minor page faults"

    # A spawned worker's status after _pool_init and after one pass, in bytes,
    # the trim threshold it sees, the lines of its maps that name OpenSSL, and
    # its sha256 of DIGEST_INPUT. The hash runs in the worker through eval,
    # since a function defined in a -c script cannot be pickled to it.
    DIGEST_INPUT = b"opridge"
    WORKER_SCRIPT = f"""
import json, os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from opridge import ESTIMATOR_NAMES, harness
from opridge.cli import _template_config

def status(pid):
    with open(f"/proc/{{pid}}/status") as f:
        fields = dict(line.split(":", 1) for line in f)
    return {{k: int(fields[k].split()[0]) * 1024 for k in ("VmRSS", "VmHWM")}}

cfg, spec, _, _ = harness.parse_config(_template_config())
with harness._worker_environment(), ProcessPoolExecutor(
        1, mp_context=get_context("spawn"), initializer=harness._pool_init,
        initargs=(cfg, spec, {N_LIST}, ESTIMATOR_NAMES)) as pool:
    pid = pool.submit(os.getpid).result()
    idle = status(pid)
    pool.submit(harness._pool_trial, 0).result()
    after = status(pid)
    trim = pool.submit(os.getenv, "MALLOC_TRIM_THRESHOLD_").result()
    digest = pool.submit(eval, "__import__('hashlib').sha256({DIGEST_INPUT!r}).hexdigest()").result()
    with open(f"/proc/{{pid}}/maps") as f:
        openssl = [line for line in f if "libcrypto" in line or "_hashlib" in line]
    print(json.dumps([idle, after, trim, openssl, digest]))
"""

    @pytest.fixture(scope="class")
    def worker(self):
        """The WORKER_SCRIPT's values, from one spawned worker for all the tests that read them."""
        return json.loads(_worker_env_subprocess(self.WORKER_SCRIPT))

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/status")
    def test_what_check_memory_counts_for_a_worker_covers_it(self, worker):
        # An idle worker, less its arrays (a0; its pass state is a few KiB),
        # measured 35.7-36.0 MiB, and the CLI parent, which builds no a0,
        # 31.4 MiB as its pool started; _INTERPRETER_BYTES is the larger
        # rounded up, and the lower bound keeps it from drifting far above
        # the worker.
        # After a pass it keeps its freed heap up to the trim threshold:
        # 5.1 MiB more resident in all, 1.8 MiB of it LAPACK's code pages.
        idle, after, trim, _, _ = worker
        assert trim == str(harness._WORKER_TRIM_BYTES), "the worker must see the heap variables"
        cfg, _, _, _ = parse_config(_template_config())
        a0_bytes = 8 * cfg.d_in * cfg.d_out
        interpreter = idle["VmRSS"] - a0_bytes
        assert (harness._INTERPRETER_BYTES - 4 * 2**20 <= interpreter
                <= harness._INTERPRETER_BYTES), \
            f"an idle worker holds {interpreter / 2**20:.2f} MiB besides a0, " \
            f"_INTERPRETER_BYTES is {harness._INTERPRETER_BYTES >> 20} MiB"
        kept = after["VmRSS"] - idle["VmRSS"]
        assert kept <= harness._WORKER_TRIM_BYTES, \
            f"a worker kept {kept / 2**20:.2f} MiB after its pass"
        counted = (harness._INTERPRETER_BYTES + harness._WORKER_TRIM_BYTES
                   + max(harness._BUILD_PEAK_ARRAYS * a0_bytes,
                         a0_bytes + _pass_peak_bytes(cfg.d_in, cfg.d_out)))
        assert after["VmHWM"] <= counted, \
            f"a worker peaked at {after['VmHWM'] / 2**20:.2f} MiB, " \
            f"_check_memory counts {counted / 2**20:.2f} MiB"

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/<pid>/maps")
    def test_a_worker_maps_no_openssl(self, worker):
        # numpy.random would map libcrypto (3.4 MiB resident) through
        # hashlib's _hashlib; _pool_init marks _hashlib absent, and hashlib
        # falls back to CPython's built-in digests, which agree with OpenSSL's.
        _, _, _, openssl, digest = worker
        assert openssl == [], f"a worker maps OpenSSL after its pass: {openssl}"
        assert digest == hashlib.sha256(self.DIGEST_INPUT).hexdigest(), \
            "the worker's hashlib must still hash"


class TestRunConvergence:
    def test_report_shape(self):
        report = run_convergence(tiny_plan())
        assert len(report.runs) == 2 * 3 * 2, "one record per (estimator, n, trial)"
        assert len(report.summaries) == 2 * 3, "one summary row per (estimator, n)"
        assert {f.estimator for f in report.fits} == {"single", "multilevel"}
        assert report.theoretical_eta1 > 0.0
        got = [(s.estimator, s.n) for s in report.summaries]
        want = [(e, n) for e in ("single", "multilevel") for n in (64, 128, 256)]
        assert got == want, "summaries must iterate estimators then sample counts"

    def test_quartiles_bracket_median(self):
        report = run_convergence(tiny_plan(trials=5))
        for s in report.summaries:
            assert s.iqr_low <= s.median_error_sq <= s.iqr_high, \
                f"quartiles out of order for {s}"
            assert s.median_error_sq > 0.0, "sigma>0 medians must be positive"

    def test_identical_across_worker_counts(self):
        r1 = run_convergence(tiny_plan(workers=1))
        r2 = run_convergence(tiny_plan(workers=3))
        for a, b in zip(r1.runs, r2.runs):
            assert (a.estimator, a.n, a.trial) == (b.estimator, b.n, b.trial)
            assert a.error_sq == b.error_sq, \
                f"worker count changed an error value at ({a.estimator}, {a.n}, {a.trial})"
        for a, b in zip(r1.summaries, r2.summaries):
            assert (a.median_error_sq, a.iqr_low, a.iqr_high) == \
                (b.median_error_sq, b.iqr_low, b.iqr_high)

    def test_noiseless_medians_non_increasing(self):
        plan = tiny_plan(
            cfg=small_config(d_in=12, d_out=16, sigma=0.0),
            estimators=("single", "variance", "bias", "multilevel"),
        )
        report = run_convergence(plan)
        for name in plan.estimators:
            meds = [s.median_error_sq for s in report.summaries if s.estimator == name]
            assert all(b <= a for a, b in zip(meds, meds[1:])), \
                f"noiseless {name} medians must fall with n, got {meds}"

    def test_zero_problem_refused_at_the_fit(self):
        plan = tiny_plan(cfg=small_config(d_in=12, d_out=16, B=0.0, sigma=0.0))
        with pytest.raises(ConfigError, match="sigma"):
            run_convergence(plan)
        # Noise alone makes every error positive.
        report = run_convergence(tiny_plan(cfg=small_config(d_in=12, d_out=16, B=0.0)))
        assert all(r.error_sq > 0.0 for r in report.runs)

    def test_needs_three_sample_counts(self):
        # The plan refuses it before any cell runs.
        with pytest.raises(ConfigError, match="n_list"):
            tiny_plan(n_list=(64, 128))

    def test_writes_requested_artifacts(self, tmp_path):
        plan = tiny_plan(out=str(tmp_path / "summary.csv"))
        run_convergence(plan)
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        runs = (tmp_path / "summary_runs.csv").read_text().splitlines()
        assert summary[0] == "estimator,n,median_error_sq,iqr_low,iqr_high"
        assert runs[0] == "estimator,n,trial,error_sq,elapsed_ms"
        assert len(summary) == 1 + 2 * 3
        assert len(runs) == 1 + 2 * 3 * 2
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert set(doc["fits"]) == {"single", "multilevel"}
        assert doc["slope_target"] == -doc["theoretical_eta1"]

    def test_report_gives_the_workers_start_up_time(self, tmp_path):
        plan = tiny_plan(workers=2, out=str(tmp_path / "report.csv"))
        report = run_convergence(plan)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["worker_start_seconds"] == report.worker_start_seconds
        assert 0.0 < doc["worker_start_seconds"] < doc["total_seconds"], \
            f"worker start {doc['worker_start_seconds']} s of {doc['total_seconds']} s in all"


class TestConfigIO:
    def full_dict(self) -> dict:
        return config_to_dict(
            small_config(),
            GroundTruthSpec("random", {"taper_in": 0.3, "taper_out": 2.0}),
            n_list=[64, 128, 256],
            trials=4,
        )

    def test_round_trip(self):
        obj = self.full_dict()
        cfg, gt, noise, extras = parse_config(obj)
        assert cfg == small_config()
        assert gt.kind == "random" and gt.params["taper_out"] == 2.0
        assert noise.sigma == cfg.sigma
        assert extras == {"n_list": [64, 128, 256], "trials": 4}

    def test_minimal_config_defaults(self):
        obj = {k: v for k, v in self.full_dict().items()
               if k not in ("ground_truth", "n_list", "trials")}
        cfg, gt, noise, extras = parse_config(obj)
        assert gt.kind == "random" and gt.params == {}
        assert noise.sigma == cfg.sigma
        assert extras == {}

    def test_missing_field_named(self):
        obj = self.full_dict()
        del obj["gamma_prime"]
        with pytest.raises(ConfigError, match="gamma_prime"):
            parse_config(obj)

    def test_unknown_key_named(self):
        obj = self.full_dict()
        obj["alpha_prime"] = 0.5
        with pytest.raises(ConfigError, match="alpha_prime"):
            parse_config(obj)

    def test_bool_is_not_a_number(self):
        obj = self.full_dict()
        obj["beta"] = True
        with pytest.raises(ConfigError, match="beta"):
            parse_config(obj)

    def test_integral_floats_load_as_their_types(self):
        obj = self.full_dict()
        obj.update(d_in=8.0, seed=424242.0, B=1, n_list=[64.0, 128.0, 256.0], trials=4.0)
        cfg, _, _, extras = parse_config(obj)
        assert cfg == small_config() == small_config(d_in=8.0, seed=424242.0, B=1)
        assert type(cfg.d_in) is int and type(cfg.seed) is int and type(cfg.B) is float
        assert extras == {"n_list": [64, 128, 256], "trials": 4}
        assert all(type(v) is int for v in (*extras["n_list"], extras["trials"]))

    def test_fractional_dimension_rejected(self):
        obj = self.full_dict()
        obj["d_in"] = 8.5
        with pytest.raises(ConfigError, match="d_in"):
            parse_config(obj)

    def test_semantic_violation_propagates_field_name(self):
        obj = self.full_dict()
        obj["beta_prime"] = obj["beta"] + 0.1
        with pytest.raises(ConfigError, match="beta_prime"):
            parse_config(obj)

    def test_bad_noise_profile_named(self):
        # sigma is the one noise scale: a noise block is an unknown key.
        obj = self.full_dict()
        obj["noise"] = {"sigma": 0.1, "profile": "polynomial"}
        with pytest.raises(ConfigError, match=r"unknown config key\(s\): \['noise'\]"):
            parse_config(obj)

    @pytest.mark.parametrize("n_list", [[64, "128"], ["64", 128, 256], [64, 128.5, 256],
                                        [True, 128, 256], [], "64", 64, None])
    def test_bad_n_list_named(self, n_list):
        obj = self.full_dict()
        obj["n_list"] = n_list
        with pytest.raises(ConfigError, match="n_list"):
            parse_config(obj)

    @pytest.mark.parametrize("trials", [2.5, True, "4", None, [4]])
    def test_bad_trials_named(self, trials):
        obj = self.full_dict()
        obj["trials"] = trials
        with pytest.raises(ConfigError, match="^trials must be"):
            parse_config(obj)

    def test_not_an_object_rejected(self):
        with pytest.raises(ConfigError, match="object"):
            parse_config([1, 2, 3])

    def test_load_config_file_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self.full_dict()))
        cfg, _, _, extras = load_config(path)
        assert cfg == small_config()
        assert extras["trials"] == 4

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_load_config_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 0.5,,}')
        with pytest.raises(ConfigError, match="JSON"):
            load_config(path)


# JSON values of every shape, each wrong for some config field.
MALFORMED_VALUES = (None, True, "x", [], {}, 2.5, -1, 0, 1e308, 2**70)

# Valid params of each ground-truth kind on a 16 x 16 grid.
KIND_PARAMS = {"random": {"taper_in": 0.3, "taper_out": 2.0}, "laplacian": {},
               "packing": {"m1": 4, "K": 8, "eps": 0.01}}


def malformed_configs():
    """(field, value, config): the gen-config template on a 16 x 16 grid
    with value in field, for every top-level key, the ground truth's kind
    and params objects, and every param of each kind."""
    base = {**_template_config(), "d_in": 16, "d_out": 16}
    for value in MALFORMED_VALUES:
        for key in base:
            yield key, value, {**base, key: value}
        for kind, params in KIND_PARAMS.items():
            gt = {"kind": kind, "params": params}
            for key in ("kind", "params"):
                yield f"ground_truth.{key}", value, {**base, "ground_truth": {**gt, key: value}}
            for key in sorted(harness._GROUND_TRUTH_PARAMS[kind][1]):
                gt_obj = {"kind": kind, "params": {**params, key: value}}
                yield f"{kind} ground_truth.params.{key}", value, {**base, "ground_truth": gt_obj}


class TestMalformedConfigValues:
    def test_a_malformed_value_in_any_field_loads_or_is_refused(self):
        # Loading checks every value, and building the ground truth refuses
        # what only the grid can decide; neither ends in another exception
        # or in a numpy warning. No worker starts.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            for field, value, obj in malformed_configs():
                try:
                    cfg, spec, _, _ = parse_config(obj)
                except ConfigError:
                    continue
                except Exception as exc:
                    pytest.fail(f"parse_config, {field}={value!r}: {type(exc).__name__}: {exc}")
                # No field gives null a meaning; one that loads is read as absent.
                assert value is not None, f"{field}=null loads"
                try:
                    spec.build(cfg)
                except ConfigError:
                    pass
                except Exception as exc:
                    pytest.fail(f"build, {field}={value!r}: {type(exc).__name__}: {exc}")


class TestOracleChecks:
    def test_all_suites_pass(self):
        results = oracle_checks(20260819)
        assert [name for name, _, _ in results] == [
            "bias-oracle", "population-ridge", "norm-equivalence", "packing-separation",
        ]
        for name, passed, detail in results:
            assert passed, f"oracle suite {name} failed: {detail}"

    def test_seed_changes_instances_not_verdicts(self):
        for seed in (1, 2, 3):
            assert all(passed for _, passed, _ in oracle_checks(seed)), \
                f"oracle suites must pass for any seed, failed at {seed}"


# B near the top of double range: at n=2, c_kk has zero eigenvalues and a0 @ Q
# overflows, so the snapshot's cross moment holds inf * 0 = nan.
OVERFLOW_CONFIG = {
    "p": 0.05, "q": 0.5, "alpha": 0.5, "beta": 0.01, "beta_prime": 0.005, "gamma": 0.0,
    "gamma_prime": 0.5, "B": 7.575e299, "sigma": 0.1, "c0": 1.0, "d_in": 8, "d_out": 8,
    "seed": 0, "ground_truth": {"kind": "random", "params": {"taper_in": -3.0, "taper_out": 0.0}},
    "n_list": [2, 7, 513], "trials": 2,
}


def _pass_outcome(obj: dict, trial: int) -> str:
    """"ran" or "refused": the config object's pass state and one trial pass.

    numpy warnings are errors, and the only other way out is a ConfigError.
    Every refusal that depends on the config alone comes from the state, so
    a pass over a state that was built can refuse only a cell's error.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg, spec, _, _ = parse_config(obj)
            state = estimators._pass_state(cfg, spec.build(cfg), obj["n_list"], ESTIMATOR_NAMES)
        except ConfigError:
            return "refused"
        try:
            records = estimators._run_trial(state, trial)
        except ConfigError as exc:
            assert re.match(r"the \w+ error at n=\d+ is ", str(exc)), f"refused {exc} in the pass"
            return "refused"
    assert all(math.isfinite(r.error_sq) for r in records)
    return "ran"


class TestSampledConfigs:
    def test_random_configs_run_end_to_end(self):
        # Smoke the whole pipeline over a few sampled problem geometries.
        rng = np.random.default_rng(31337)
        for _ in range(3):
            cfg = random_problem_config(rng, d_in=10, d_out=14, sigma=0.05)
            plan = ExperimentPlan(
                cfg=cfg, n_list=(64, 128, 256), trials=2,
                estimators=("variance", "multilevel"),
            )
            report = run_convergence(plan)
            assert all(s.median_error_sq > 0.0 for s in report.summaries)
            assert all(math.isfinite(f.slope) for f in report.fits)

    def test_every_valid_config_runs_or_is_refused_by_name(self):
        rng = np.random.default_rng(11)
        outcomes = {"ran": 0, "refused": 0}
        for case in range(3000):
            obj = random_valid_config(rng)
            try:
                outcomes[_pass_outcome(obj, case % 4)] += 1
            except Exception as exc:
                pytest.fail(f"case {case} raised {exc!r}; config {obj}")
        # Both outcomes are common, so the sampler reaches past validation.
        assert min(outcomes.values()) >= 300, outcomes

    def test_an_overflowing_snapshot_is_refused_by_name(self, tmp_path):
        assert _pass_outcome(OVERFLOW_CONFIG, 0) == "refused"
        proc = _rates_in_a_subprocess(OVERFLOW_CONFIG, tmp_path / "ovf")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: the single error at n=2 is nan: "
                                      "the scales B=7.575e+299 and sigma=0.1"), proc.stderr
        assert "Warning" not in proc.stderr, proc.stderr

    def test_every_documented_range_config_gives_a_report_or_is_refused_by_name(
            self, monkeypatch):
        # parse_config, ExperimentPlan and run_convergence, with warnings as
        # errors and the sweep's worker functions in this process:
        # InProcessPool runs _pool_init, then _pool_trial for each trial. A
        # failure shows the config as JSON, which opridge rates --config replays.
        monkeypatch.setattr(InProcessPool, "sizes", [])
        monkeypatch.setattr(InProcessPool, "envs", [])
        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        outcomes = {"ran": 0, "refused": 0}
        for case, obj in enumerate(documented_range_configs(400)):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    cfg, spec, _, extras = parse_config(obj)
                    report = run_convergence(ExperimentPlan(cfg=cfg, ground_truth=spec, **extras))
            except ConfigError:
                outcomes["refused"] += 1
                continue
            except Exception as exc:
                pytest.fail(f"case {case} raised {type(exc).__name__}: {exc}\n{json.dumps(obj)}")
            assert all(math.isfinite(r.error_sq) for r in report.runs), json.dumps(obj)
            outcomes["ran"] += 1
        # Both outcomes are common, so the sampler reaches past validation.
        assert min(outcomes.values()) >= 50, outcomes

    def test_drawn_configs_exit_zero_or_two_through_the_cli(self, tmp_path):
        codes = []
        for case, obj in enumerate(documented_range_configs(CLI_CASES)):
            proc = _rates_in_a_subprocess(obj, tmp_path / f"case{case}")
            codes.append(proc.returncode)
            assert proc.returncode in (0, 2), f"{proc.stderr}\n{json.dumps(obj)}"
            if proc.returncode == 2:
                assert proc.stderr.count("config error:") == 1, proc.stderr
                assert "Traceback" not in proc.stderr, proc.stderr
        assert set(codes) == {0, 2}, f"the cases should both run and be refused: {codes}"


# The first CLI_CASES of documented_range_configs both run and are refused.
CLI_CASES = 6


def documented_range_configs(count: int) -> list[dict]:
    """The first count configs of a fixed draw over every documented range."""
    rng = np.random.default_rng(37)
    return [documented_range_config(rng) for _ in range(count)]


def _rates_in_a_subprocess(obj: dict, stem: Path) -> subprocess.CompletedProcess:
    """`python -m opridge.cli rates` on the config object, its files named from stem."""
    path = stem.with_name(stem.name + "_config.json")  # stem.json is the report
    path.write_text(json.dumps(obj))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(harness.__file__).resolve().parents[1]),
         *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "opridge.cli", "rates", "--config", str(path),
                           "--out", str(stem.with_suffix(".csv"))],
                          env=env, capture_output=True, text=True)
