"""Tests for decays, operator construction, norms, and rate exponents."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from conftest import random_decay, random_problem_config

from opridge import (
    ConfigError,
    EigenDecay,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    bg_norm,
    bg_norm_via_embedding,
    make_decay,
    operator_from_source,
    parse_config,
    theoretical_rate,
)


class TestMakeDecay:
    @pytest.mark.parametrize(
        "dim,exponent,expected",
        [
            (3, 0.5, [1.0, 0.25, 1.0 / 9.0]),
            (1, 0.9, [1.0]),
            (2, 0.25, [1.0, 0.0625]),
        ],
    )
    def test_values(self, dim, exponent, expected):
        decay = make_decay(dim, exponent)
        np.testing.assert_allclose(decay.values, expected, rtol=1e-15)
        assert decay.values[-1] == dim ** (-1.0 / exponent)

    def test_first_value_is_one_and_strictly_decreasing(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            dim = int(rng.integers(1, 64))
            decay = make_decay(dim, float(rng.uniform(0.05, 0.95)))
            assert decay.values[0] == 1.0, "first eigenvalue must be exactly 1"
            assert np.all(np.diff(decay.values) < 0) or dim == 1

    @pytest.mark.parametrize("dim", [0, -3])
    def test_rejects_bad_dim(self, dim):
        with pytest.raises(ValueError):
            make_decay(dim, 0.5)

    @pytest.mark.parametrize("exponent", [0.0, 1.0, 1.5, -0.2])
    def test_rejects_bad_exponent(self, exponent):
        with pytest.raises(ValueError):
            make_decay(4, exponent)


class TestOperatorFromSource:
    def test_zero_source_gives_zero_operator(self):
        ind, outd = make_decay(3, 0.5), make_decay(4, 0.5)
        src = SourceCoefficients(a=np.zeros((4, 3)), beta=0.5, gamma=0.2)
        op = operator_from_source(src, ind, outd)
        assert np.all(op.m == 0.0)

    def test_single_entry_weight(self):
        # mu_1 = 0.25, rho_1 = 0.5, beta = gamma = 0.5:
        # 0.25^(-0.25) * 0.5^(0.25) = 2^(0.25).
        ind = EigenDecay(values=np.array([0.25]))
        outd = EigenDecay(values=np.array([0.5]))
        src = SourceCoefficients(a=np.array([[1.0]]), beta=0.5, gamma=0.5)
        op = operator_from_source(src, ind, outd)
        assert op.m[0, 0] == pytest.approx(2.0**0.25, rel=1e-14)

    def test_unit_weights_at_beta_gamma_one(self):
        ind = EigenDecay(values=np.array([1.0]))
        outd = EigenDecay(values=np.array([1.0]))
        src = SourceCoefficients(a=np.array([[7.0]]), beta=1.0, gamma=1.0)
        op = operator_from_source(src, ind, outd)
        assert op.m[0, 0] == pytest.approx(7.0, rel=1e-15)

    def test_dimension_mismatch_rejected(self):
        src = SourceCoefficients(a=np.ones((2, 3)), beta=0.5, gamma=0.5)
        with pytest.raises(ValueError):
            operator_from_source(src, make_decay(4, 0.5), make_decay(2, 0.5))


class TestBgNorm:
    def test_single_entry_hand_value(self):
        # m_21 = 2, mu_1 = 1, rho_2 = 0.25, (b, g) = (0, 0.5):
        # sqrt(4 * 0.25^(-0.5)) = sqrt(8).
        op = OperatorMatrix(
            m=np.array([[0.0], [2.0]]),
            input_decay=make_decay(1, 0.5),
            output_decay=make_decay(2, 0.5),
        )
        assert bg_norm(op, 0.0, 0.5) == pytest.approx(2.82843, abs=1e-5)

    def test_source_norm_recovery_3_4_5(self):
        ind, outd = make_decay(2, 0.5), make_decay(2, 0.6)
        src = SourceCoefficients(a=np.array([[3.0, 4.0], [0.0, 0.0]]), beta=0.5, gamma=0.3)
        op = operator_from_source(src, ind, outd)
        assert bg_norm(op, 0.5, 0.3) == pytest.approx(5.0, rel=1e-13)

    def test_zero_operator(self):
        op = OperatorMatrix(
            m=np.zeros((3, 2)),
            input_decay=make_decay(2, 0.5),
            output_decay=make_decay(3, 0.5),
        )
        assert bg_norm(op, 0.3, 0.7) == 0.0

    def test_source_norm_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d_in, d_out = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            beta = float(rng.uniform(0.0, 0.99))
            gamma = float(rng.uniform(0.0, 0.99))
            a = rng.normal(size=(d_out, d_in))
            src = SourceCoefficients(a=a, beta=beta, gamma=gamma)
            op = operator_from_source(src, random_decay(rng, d_in), random_decay(rng, d_out))
            got = bg_norm(op, beta, gamma)
            want = float(np.linalg.norm(a))
            assert got == pytest.approx(want, rel=1e-12), (
                f"norm round trip broke: {got} vs {want}"
            )

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(13)
        ind, outd = random_decay(rng, 5), random_decay(rng, 6)
        m = rng.normal(size=(6, 5))
        op = OperatorMatrix(m=m, input_decay=ind, output_decay=outd)
        base = bg_norm(op, 0.4, 0.6)
        for c in (-3.0, 0.0, 0.5, 17.0):
            scaled = OperatorMatrix(m=c * m, input_decay=ind, output_decay=outd)
            assert bg_norm(scaled, 0.4, 0.6) == pytest.approx(abs(c) * base, rel=1e-13)


class TestBgNormViaEmbedding:
    def test_matches_direct_norm_on_random_instances(self):
        rng = np.random.default_rng(17)
        for k in range(100):
            d_in, d_out = int(rng.integers(1, 33)), int(rng.integers(1, 33))
            op = OperatorMatrix(
                m=rng.normal(size=(d_out, d_in)),
                input_decay=random_decay(rng, d_in),
                output_decay=random_decay(rng, d_out),
            )
            b, g = float(rng.uniform(-0.5, 0.99)), float(rng.uniform(-0.5, 0.99))
            direct = bg_norm(op, b, g)
            via = bg_norm_via_embedding(op, b, g)
            assert via == pytest.approx(direct, rel=1e-12), (
                f"instance {k}: {via} vs {direct}"
            )

    def test_identity_weights_give_frobenius_norm(self):
        rng = np.random.default_rng(19)
        m = rng.normal(size=(4, 7))
        op = OperatorMatrix(
            m=m, input_decay=make_decay(7, 0.5), output_decay=make_decay(4, 0.5)
        )
        assert bg_norm_via_embedding(op, 1.0, 1.0) == pytest.approx(
            float(np.linalg.norm(m)), rel=1e-13
        )


class TestTheoreticalRate:
    def test_output_limited_example(self):
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.1, gamma=0.0, gamma_prime=0.5
        )
        eta1, eta2, u = theoretical_rate(cfg)
        assert eta1 == pytest.approx(0.5, abs=1e-12)
        assert eta2 == pytest.approx(0.5, abs=1e-12)
        assert u == pytest.approx(0.75, rel=1e-12)

    def test_input_limited_example(self):
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.5, beta=0.9, beta_prime=0.1, gamma=0.1, gamma_prime=0.9
        )
        eta1, eta2, u = theoretical_rate(cfg)
        assert eta1 == pytest.approx(4.0 / 7.0, rel=1e-12)
        assert u == pytest.approx(6.0, rel=1e-12)

    def test_rate_vanishes_as_beta_prime_approaches_beta(self):
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.4, beta=0.9, beta_prime=0.8999, gamma=0.0, gamma_prime=0.5
        )
        eta1, _, _ = theoretical_rate(cfg)
        assert eta1 < 1e-3

    def test_exponents_partition_unity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            cfg = random_problem_config(rng)
            eta1, eta2, u = theoretical_rate(cfg)
            assert eta1 + eta2 == 1.0, "eta1 + eta2 must be exactly 1"
            assert 0.0 < eta1 < 1.0
            assert u > 0.0


class TestConfigValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("p", 0.0),
            ("p", 1.0),
            ("q", -0.1),
            ("alpha", 1.2),
            ("beta", 1.0),
            ("beta", -0.1),
            ("beta_prime", 0.0),
            ("gamma", -0.01),
            ("gamma_prime", 1.0),
            ("B", -1.0),
            ("sigma", -0.5),
            ("sigma", 1e200),
            ("c0", 0.0),
            ("d_in", 0),
            ("d_out", -4),
            ("seed", -1),
            ("seed", 2**64),
            ("d_in", 16.5),
            pytest.param("B", 10**400, id="B-400-digit-int"),
            ("sigma", True),
            ("c0", "1"),
        ],
    )
    def test_bad_field_named_in_error(self, field, value):
        # The same check whether the config comes from code or from JSON.
        fields = dict(
            p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7
        )
        fields[field] = value
        with pytest.raises(ConfigError, match=field):
            ProblemConfig(**fields)
        obj = {"B": 1.0, "sigma": 0.1, "c0": 1.0, "d_in": 128, "d_out": 128, "seed": 0,
               **fields}
        with pytest.raises(ConfigError, match=field):
            parse_config(obj)

    def test_sigma_has_one_rule_the_noise_profiles(self):
        # 1e200 is finite, but its square, the noise variance, is not.
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7,
            sigma=0.3,
        )
        assert cfg.noise == NoiseProfile(cfg.sigma)
        with pytest.raises(ConfigError, match="^sigma must be nonnegative with a finite square"):
            dataclasses.replace(cfg, sigma=1e200)

    def test_beta_prime_must_be_below_beta(self):
        with pytest.raises(ConfigError, match="beta_prime"):
            ProblemConfig(
                p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.6, gamma=0.1, gamma_prime=0.7
            )

    def test_gamma_prime_must_exceed_gamma(self):
        with pytest.raises(ConfigError, match="gamma_prime"):
            ProblemConfig(
                p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.5, gamma_prime=0.5
            )

    def test_zero_source_bound_is_allowed(self):
        cfg = ProblemConfig(
            p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7, B=0.0
        )
        assert cfg.B == 0.0

    def test_decay_properties_match_dims(self):
        cfg = ProblemConfig(
            p=0.5, q=0.25, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7,
            d_in=5, d_out=9,
        )
        assert len(cfg.input_decay) == 5
        assert len(cfg.output_decay) == 9
        assert cfg.input_decay.values[1] == 2 ** (-1 / 0.5)
        assert cfg.output_decay.values[1] == 2 ** (-1 / 0.25)


class TestEigenDecayValidation:
    def test_rejects_increasing_values(self):
        with pytest.raises(ValueError):
            EigenDecay(values=np.array([0.5, 1.0]))

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            EigenDecay(values=np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="EigenDecay values must be finite and positive"):
            EigenDecay(values=np.array([bad, 1.0]))

    def test_accepts_custom_strictly_decreasing_values(self):
        decay = EigenDecay(values=np.array([0.25]))
        assert len(decay) == 1


class TestSourceCoefficientsValidation:
    def test_the_finiteness_check_holds_no_array_as_large_as_a(self):
        # A 512 x 256 a, the template's; np.isfinite would build a flag
        # array of a.size bytes beside it.
        a = np.ones((512, 256))
        tracemalloc.start()
        try:
            SourceCoefficients(a=a, beta=0.5, gamma=0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < a.size, f"checking a traced {peak} B, a has {a.size} entries"
        for bad in (math.nan, math.inf, -math.inf):
            a[300, 7] = bad
            with pytest.raises(ValueError, match="source coefficients must be finite"):
                SourceCoefficients(a=a, beta=0.5, gamma=0.5)


class TestOperatorMatrixValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1)])
    def test_rejects_a_non_finite_entry(self, bad, where):
        m = np.ones((3, 2))
        m[where] = bad
        with pytest.raises(ValueError, match="finite"):
            OperatorMatrix(m, make_decay(2, 0.5), make_decay(3, 0.5))

    def test_accepts_entries_whose_sum_overflows(self):
        m = np.full((3, 2), 1e308)
        m[1, 1] = -1e308
        assert OperatorMatrix(m, make_decay(2, 0.5), make_decay(3, 0.5)).m is m
