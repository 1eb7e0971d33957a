"""Tests for dataset generation and ground-truth constructions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import drawn_inputs, ground_truth, random_problem_config, source_of

from opridge import (
    ConfigError,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    bg_norm,
    derive_seed,
    make_dataset,
    make_decay,
    operator_from_source,
)
from opridge.estimators import _nested_covariances
from opridge.synth import _stream_filler


def small_config(**overrides) -> ProblemConfig:
    fields = dict(
        p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7,
        B=1.0, sigma=0.1, c0=1.0, d_in=8, d_out=8, seed=42,
    )
    fields.update(overrides)
    return ProblemConfig(**fields)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(123, 4, 5) == derive_seed(123, 4, 5)

    def test_part_order_matters(self):
        assert derive_seed(123, 4, 5) != derive_seed(123, 5, 4)

    def test_distinct_tags_decorrelate(self):
        seeds = {derive_seed(0, tag) for tag in range(64)}
        assert len(seeds) == 64

    def test_output_is_64_bit(self):
        s = derive_seed(2**64 - 1, 2**63)
        assert 0 <= s < 2**64


class TestSampleInputs:
    def test_coordinates_bounded_by_sqrt3_times_decay(self):
        decay = make_decay(6, 0.5)
        u = drawn_inputs(200, decay, rng_seed=1)
        ratio = np.abs(u) / np.sqrt(decay.values)[None, :]
        assert ratio.max() <= 1.7320509, "inputs must obey the uniform bound"

    def test_first_coordinate_second_moment_near_one(self):
        u = drawn_inputs(10**5, make_decay(4, 0.5), rng_seed=2)
        m2 = float(np.mean(u[:, 0] ** 2))
        assert 0.98 <= m2 <= 1.02, f"second moment {m2} strayed from 1"

    def test_same_seed_bit_identical(self):
        decay = make_decay(5, 0.4)
        a = drawn_inputs(64, decay, rng_seed=9)
        b = drawn_inputs(64, decay, rng_seed=9)
        assert np.array_equal(a, b)

    def test_embedding_sum_bounded(self):
        # sum_i mu_i^(alpha-1) u_i^2 <= 3 sum_i i^(-alpha/p) for alpha > p.
        p, alpha = 0.3, 0.6
        decay = make_decay(12, p)
        u = drawn_inputs(500, decay, rng_seed=3)
        weighted = (u**2) @ (decay.values ** (alpha - 1.0))
        bound = 3.0 * np.sum(np.arange(1, 13, dtype=float) ** (-alpha / p))
        assert weighted.max() <= bound + 1e-12


def drawn_noise(n: int, d_out: int, profile: NoiseProfile, rng_seed: int) -> np.ndarray:
    """The noise term eps.T @ u / n a pass draws at n, shape (d_out, 2), with d_in = 2.

    With a zero operator the snapshot's c_lk is that term alone.
    """
    op = OperatorMatrix(np.zeros((d_out, 2)), make_decay(2, 0.5), make_decay(d_out, 0.5))
    (cov,) = _nested_covariances(op, (n,), profile, rng_seed)
    return cov.c_lk


class TestSampleNoise:
    def test_zero_sigma_gives_zero_matrix(self):
        eps = drawn_noise(32, 4, NoiseProfile(sigma=0.0), rng_seed=4)
        assert eps.shape == (4, 2) and np.all(eps == 0.0)

    @pytest.mark.parametrize("sigma", [-0.1, math.nan, 1e200, 10**400, True, "0.1"],
                             ids=["negative", "nan", "1e200", "400-digit-int", "bool", "str"])
    def test_bad_sigma_named(self, sigma):
        # 1e200 is finite, but its square, the noise variance, is not.
        with pytest.raises(ConfigError, match="^sigma must be"):
            NoiseProfile(sigma=sigma)

    def test_sigma_stored_as_float(self):
        assert type(NoiseProfile(sigma=1).sigma) is float

    def test_first_coordinate_variance_scale(self):
        profile = NoiseProfile(sigma=1.0)
        var = profile.variances(3)
        assert var[0] == pytest.approx(6.0 / math.pi**2, rel=1e-12)
        assert var[1] == pytest.approx(6.0 / math.pi**2 / 4.0, rel=1e-12)

    def test_truncated_trace_below_sigma_squared(self):
        profile = NoiseProfile(sigma=0.7)
        for d in (1, 5, 1000):
            assert profile.variances(d).sum() <= 0.7**2 + 1e-15

    def test_dataset_noise_has_gaussian_moments(self):
        # With a zero operator v is the noise: each coordinate j must be
        # N(0, sigma_j^2), independent of the others. A bounded uniform law
        # of the same variance has kurtosis 1.8, not 3. At this n the
        # standard errors are 0.0035 (mean, correlation), 0.005 (variance
        # ratio) and 0.017 (kurtosis).
        n, d_out = 80_000, 6
        profile = NoiseProfile(sigma=2.0)
        op = OperatorMatrix(np.zeros((d_out, 3)), make_decay(3, 0.5), make_decay(d_out, 0.5))
        _, eps = make_dataset(op, n, profile, rng_seed=5)
        z = eps / np.sqrt(profile.variances(d_out))
        assert np.abs(z.mean(axis=0)).max() <= 0.03
        assert np.abs(z.var(axis=0) - 1.0).max() <= 0.04
        corr = np.corrcoef(z, rowvar=False) - np.eye(d_out)
        assert np.abs(corr).max() <= 0.03
        kurtosis = (z**4).mean(axis=0) / z.var(axis=0) ** 2
        assert np.abs(kurtosis - 3.0).max() <= 0.1, f"kurtosis {kurtosis} is not Gaussian"


class TestMakeDataset:
    def test_zero_operator_zero_noise_gives_zero_outputs(self):
        cfg = small_config()
        op = OperatorMatrix(
            m=np.zeros((8, 8)), input_decay=cfg.input_decay, output_decay=cfg.output_decay
        )
        u, v = make_dataset(op, 16, NoiseProfile(sigma=0.0), rng_seed=6)
        assert np.all(v == 0.0)
        assert u.shape == (16, 8) and v.shape == (16, 8)

    def test_noiseless_outputs_follow_operator(self):
        cfg = small_config()
        rng = np.random.default_rng(0)
        op = OperatorMatrix(
            m=rng.normal(size=(8, 8)),
            input_decay=cfg.input_decay,
            output_decay=cfg.output_decay,
        )
        u, v = make_dataset(op, 32, NoiseProfile(sigma=0.0), rng_seed=7)
        np.testing.assert_allclose(v, u @ op.m.T, rtol=1e-14)

    def test_identity_operator_reproduces_inputs(self):
        cfg = small_config()
        op = OperatorMatrix(
            m=np.eye(8), input_decay=cfg.input_decay, output_decay=cfg.output_decay
        )
        u, v = make_dataset(op, 16, NoiseProfile(sigma=0.0), rng_seed=8)
        np.testing.assert_allclose(v, u, rtol=1e-14)

    def test_determinism_and_seed_decorrelation(self):
        cfg = small_config()
        op = OperatorMatrix(
            m=np.eye(8), input_decay=cfg.input_decay, output_decay=cfg.output_decay
        )
        d1 = make_dataset(op, 16, NoiseProfile(sigma=0.5), rng_seed=11)
        d2 = make_dataset(op, 16, NoiseProfile(sigma=0.5), rng_seed=11)
        d3 = make_dataset(op, 16, NoiseProfile(sigma=0.5), rng_seed=12)
        assert np.array_equal(d1[0], d2[0]) and np.array_equal(d1[1], d2[1])
        assert not np.array_equal(d1[1], d3[1])

    def test_rejects_zero_samples(self):
        cfg = small_config()
        a0 = ground_truth(cfg, seed=1)
        with pytest.raises(ValueError, match="sample count must be >= 1"):
            make_dataset(a0, 0, NoiseProfile(sigma=0.1), rng_seed=9)


class TestStreamFiller:
    def test_fills_stack_to_the_dataset_bit_for_bit(self):
        # Any split of the input stream gives the same bits; the streamed
        # pass relies on it for c_kk to match make_dataset's inputs.
        cfg = small_config(d_in=5, d_out=7)
        a0 = ground_truth(cfg, seed=1)
        want_u, _ = make_dataset(a0, 23, NoiseProfile(sigma=0.3), rng_seed=9)
        fill = _stream_filler(a0, 9)
        blocks = [np.empty((rows, 5)) for rows in (5, 5, 5, 5, 3)]
        for u in blocks:
            fill(u)
        assert np.array_equal(np.vstack(blocks), want_u), "chunked input draws must equal one draw"

    @pytest.mark.parametrize("rows", [1, 4, 5])
    def test_a_look_ahead_is_the_next_fills_first_rows(self, rows):
        cfg = small_config(d_in=5, d_out=7)
        a0 = ground_truth(cfg, seed=1)
        fill = _stream_filler(a0, 9)
        fill(np.empty((3, 5)))
        ahead = np.empty((rows, 5))
        fill(ahead, ahead=True)
        u = np.empty((5, 5))
        fill(u)
        assert ahead.tobytes() == u[:rows].tobytes(), "a look-ahead must not move the stream"

    def test_look_aheads_and_fills_stack_to_the_dataset_bit_for_bit(self):
        # The streamed pass's order: rows drawn ahead of a block, then the block.
        cfg = small_config(d_in=5, d_out=7)
        a0 = ground_truth(cfg, seed=1)
        want_u, _ = make_dataset(a0, 23, NoiseProfile(sigma=0.3), rng_seed=9)
        fill = _stream_filler(a0, 9)
        blocks = []
        for rows, ahead in ((5, 3), (5, 0), (5, 5), (8, 2)):
            for k in range(1, ahead + 1):
                fill(np.empty((k, 5)), ahead=True)
            blocks.append(np.empty((rows, 5)))
            fill(blocks[-1])
        assert np.array_equal(np.vstack(blocks), want_u), \
            "look-ahead draws must leave the fills equal to one draw"


class TestRandomSourceOperator:
    def test_norm_equals_bound_at_source_exponents(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            cfg = random_problem_config(rng, B=float(rng.uniform(0.5, 4.0)))
            op = ground_truth(cfg, seed=int(rng.integers(2**32)))
            src = source_of(op, cfg.beta, cfg.gamma)
            assert bg_norm(op, cfg.beta, cfg.gamma) == pytest.approx(cfg.B, rel=1e-10)
            assert math.sqrt(float(np.sum(src.a**2))) == pytest.approx(cfg.B, rel=1e-12)

    def test_zero_bound_gives_zero_operator(self):
        op = ground_truth(small_config(B=0.0), seed=1)
        assert np.all(op.m == 0.0)

    def test_same_seed_identical(self):
        cfg = small_config()
        assert np.array_equal(ground_truth(cfg, seed=77).m, ground_truth(cfg, seed=77).m)


class TestLaplacianOperator:
    def test_flat_symbol_at_t_zero(self):
        op = ground_truth(small_config(d_in=4, d_out=4), "laplacian", t=0)
        mu, rho = op.input_decay.values, op.output_decay.values
        d = op.m.diagonal() * np.sqrt(mu * rho)
        np.testing.assert_allclose(d, 1.0, rtol=1e-12)

    def test_symbol_value_at_t_one(self):
        op = ground_truth(small_config(d_in=4, d_out=4), "laplacian", t=1)
        mu, rho = op.input_decay.values, op.output_decay.values
        d = op.m.diagonal() * np.sqrt(mu * rho)
        assert d[1] == pytest.approx(4.0 * math.pi**2, rel=1e-12)

    def test_decays_follow_power_laws(self):
        cfg = small_config(p=0.5, q=0.25, d_in=5, d_out=5)
        op = ground_truth(cfg, "laplacian", t=0)
        n = np.arange(1, 6, dtype=float)
        assert np.array_equal(op.input_decay.values, cfg.input_decay.values)
        assert np.array_equal(op.output_decay.values, cfg.output_decay.values)
        np.testing.assert_allclose(op.input_decay.values, n**-2.0, rtol=1e-14)
        np.testing.assert_allclose(op.output_decay.values, n**-4.0, rtol=1e-14)

    def test_source_round_trips_through_operator(self):
        # The documented source a_n = d_n mu_n^(-beta/2) rho_n^(-(2-gamma)/2) gives the operator.
        cfg = small_config(p=0.625, q=0.8333, beta=0.4, gamma=0.2, d_in=6, d_out=6)
        op = ground_truth(cfg, "laplacian", t=1, scale=0.3)
        mu, rho = cfg.input_decay.values, cfg.output_decay.values
        n = np.arange(1, 7, dtype=float)
        a = 0.3 * (math.pi * n) ** 2 * mu ** (-cfg.beta / 2) * rho ** (-(2 - cfg.gamma) / 2)
        src = SourceCoefficients(np.diag(a), cfg.beta, cfg.gamma)
        rebuilt = operator_from_source(src, op.input_decay, op.output_decay)
        np.testing.assert_allclose(rebuilt.m, op.m, rtol=1e-13)

    @pytest.mark.parametrize("t", [1.5, -1, -2.0])
    def test_refuses_a_t_that_is_not_a_nonnegative_integer(self, t):
        with pytest.raises(ConfigError, match=r"^ground_truth\.params\.t must be an integer"):
            ground_truth(small_config(), "laplacian", t=t)


class TestPackingOperator:
    def test_zero_pattern_gives_zero_operator(self):
        cfg = small_config(d_in=4, d_out=4)
        op = ground_truth(cfg, "packing", m1=1, m2=1, K=1, eps=1 / 32, omega=np.zeros((1, 1)))
        assert np.all(op.m == 0.0)

    def test_single_entry_value(self):
        # m1 = K = 1, m2 = 1, eps = 1/32 puts sqrt(32 eps) = 1 on the
        # (row 2, col 2) cell, weighted by mu_2^(-3/8) rho_2^(1/8) = sqrt(2)
        # for quadratic decays at (beta', gamma') = (0.25, 0.75).
        cfg = small_config(beta_prime=0.25, gamma_prime=0.75, d_in=4, d_out=4)
        op = ground_truth(cfg, "packing", m1=1, m2=1, K=1, eps=1 / 32, omega=np.ones((1, 1)))
        assert op.m[1, 1] == pytest.approx(math.sqrt(2.0), rel=1e-14)
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        assert np.all(op.m[~mask] == 0.0)

    def test_separation_identity(self):
        rng = np.random.default_rng(41)
        for trial in range(50):
            m1 = int(rng.integers(1, 5))
            k = int(rng.integers(1, 6))
            m2 = int(rng.integers(0, 4))
            # beta = 0.95 and gamma = 0 admit every drawn (beta', gamma').
            cfg = small_config(d_in=2 * m1, d_out=m2 + k, p=float(rng.uniform(0.2, 0.8)),
                               q=float(rng.uniform(0.2, 0.8)), beta=0.95,
                               beta_prime=float(rng.uniform(0.05, 0.8)), gamma=0.0,
                               gamma_prime=float(rng.uniform(0.1, 0.9)))
            bp, gp = cfg.beta_prime, cfg.gamma_prime
            eps = float(rng.uniform(0.01, 1.0))
            om1 = rng.integers(0, 2, size=(m1, k)).astype(float)
            om2 = rng.integers(0, 2, size=(m1, k)).astype(float)
            op1 = ground_truth(cfg, "packing", m1=m1, m2=m2, K=k, eps=eps, omega=om1)
            op2 = ground_truth(cfg, "packing", m1=m1, m2=m2, K=k, eps=eps, omega=om2)
            got = bg_norm(op1.difference(op2), bp, gp) ** 2
            want = (32.0 * eps / (m1 * k)) * float(np.sum((om1 - om2) ** 2))
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12), f"trial {trial}"

    def test_out_of_range_block_rejected(self):
        cfg = small_config(d_in=4, d_out=4)
        with pytest.raises(ConfigError, match=r"^ground_truth\.params\.m1=3"):
            ground_truth(cfg, "packing", m1=3, m2=0, K=1, eps=0.1, omega=np.ones((3, 1)))
        with pytest.raises(ConfigError, match=r"^ground_truth\.params\.m2=3"):
            ground_truth(cfg, "packing", m1=1, m2=3, K=2, eps=0.1, omega=np.ones((1, 2)))

    @pytest.mark.parametrize("m1, m2, K, eps, field", [
        (0, 0, 1, 0.1, "m1"), (1, 0, 0, 0.1, "K"), (1, -1, 1, 0.1, "m2"), (1, 0, 1, 0.0, "eps"),
        (1, 0, 1, -0.1, "eps"),
    ], ids=["m1-0", "K-0", "m2-negative", "eps-0", "eps-negative"])
    def test_out_of_range_arguments_rejected(self, m1, m2, K, eps, field):
        with pytest.raises(ConfigError, match=rf"^ground_truth\.params\.{field} must be"):
            ground_truth(small_config(d_in=4, d_out=4), "packing", m1=m1, m2=m2, K=K, eps=eps,
                         seed=0)

    def test_non_binary_pattern_rejected(self):
        with pytest.raises(ConfigError, match=r"^ground_truth\.params\.omega"):
            ground_truth(small_config(d_in=4, d_out=4), "packing", m1=1, m2=1, K=1, eps=0.1,
                         omega=np.array([[0.5]]))
