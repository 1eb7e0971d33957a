"""Tests for covariances, the grouped ridge solver, and analytic oracles."""

from __future__ import annotations

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import drawn_inputs, ground_truth, random_decay, random_problem_config

from opridge import (
    ESTIMATOR_NAMES,
    EigenDecay,
    EmpiricalCovariances,
    LambdaMap,
    NoiseProfile,
    OperatorMatrix,
    ProblemConfig,
    SourceCoefficients,
    analytic_bias,
    bg_norm,
    bias_lambdas,
    empirical_covariances,
    estimate_from_covariances,
    fit_rowwise_ridge,
    lambda_floor,
    make_dataset,
    make_decay,
    multilevel_schedule,
    operator_from_source,
    population_regularized,
    single_ridge_lambda,
    variance_lambdas,
)
from opridge import estimators, harness, synth
from opridge.estimators import STREAM_BLOCK_ROWS, _nested_covariances


def small_config(**overrides) -> ProblemConfig:
    fields = dict(
        p=0.5, q=0.5, alpha=0.5, beta=0.6, beta_prime=0.3, gamma=0.1, gamma_prime=0.7,
        B=1.0, sigma=0.1, c0=1.0, d_in=8, d_out=8, seed=3,
    )
    fields.update(overrides)
    return ProblemConfig(**fields)


def covariances(c_kk: np.ndarray, c_lk: np.ndarray, n: int = 1) -> EmpiricalCovariances:
    """A snapshot of hand-built moments, with c_lq = c_lk @ Q."""
    return EmpiricalCovariances(c_kk, n, lambda _, q: c_lk @ q)


def population_covariances(a0: OperatorMatrix) -> EmpiricalCovariances:
    """Infinite-sample covariances c_kk = diag(mu), c_lk = m diag(mu), built as the oracle's:
    in the eigenbasis Q of diag(mu), c_lq = (m Q) diag(Lambda)."""
    return EmpiricalCovariances(np.diag(a0.input_decay.values), 1,
                                lambda lam, q: (a0.m @ q) * lam)


class TestEmpiricalCovariances:
    def test_orthogonal_rows(self):
        cov = empirical_covariances((np.eye(2), np.zeros((2, 2))))
        np.testing.assert_allclose(cov.c_kk, np.eye(2) / 2.0, rtol=1e-15)

    def test_constant_sample(self):
        u = np.ones((5, 1))
        v = 2.0 * np.ones((5, 1))
        cov = empirical_covariances((u, v))
        assert cov.c_kk[0, 0] == pytest.approx(1.0, rel=1e-15)
        assert cov.c_lk[0, 0] == pytest.approx(2.0, rel=1e-15)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(5)
        cov = empirical_covariances((rng.normal(size=(40, 7)), rng.normal(size=(40, 3))))
        assert np.array_equal(cov.c_kk, cov.c_kk.T), "symmetrization must be exact"

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_rejects_indefinite_matrix(self, scale):
        # The tolerance grows with the largest eigenvalue, 3 * scale here,
        # and the least, -scale, lies far below it at any scale.
        with pytest.raises(ValueError, match="indefinite"):
            covariances(scale * np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((1, 2)))

    @pytest.mark.parametrize("scale", [1e3, 1e6])
    def test_accepts_the_gram_matrix_of_rank_deficient_data_at_any_scale(self, scale):
        # 10 samples of 50 inputs: 40 of c_kk's eigenvalues are 0, which
        # rounding leaves a few ulps of the largest below 0. An absolute
        # tolerance of 1e-12 refused both scales.
        rng = np.random.default_rng(6)
        u = scale * rng.normal(size=(10, 50))
        cov = empirical_covariances((u, rng.normal(size=(10, 3))))
        least = np.linalg.eigvalsh(cov.c_kk)[0]
        assert least < -1e-12, f"the least eigenvalue {least:.3e} is not below 0 by rounding"
        assert cov.eigvals[0] == 0.0, f"the least eigenvalue {least:.3e} must be clamped at 0"

    @pytest.mark.parametrize("which", ["u", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, which, bad):
        # A bad input makes both moments non-finite, a bad output c_lk alone.
        data = {"u": np.ones((3, 2)), "v": np.ones((3, 4))}
        data[which][1, 0] = bad
        # The refusal is the only output: no warning of the products first.
        with pytest.raises(ValueError, match="finite"), warnings.catch_warnings():
            warnings.simplefilter("error")
            empirical_covariances((data["u"], data["v"]))

    def test_eigendecomposition_reconstructs_c_kk(self):
        g = np.random.default_rng(3).normal(size=(6, 6))
        c_kk = g @ g.T
        cov = covariances(c_kk, np.zeros((2, 6)))
        assert np.all(np.diff(cov.eigvals) >= 0.0), "eigenvalues must ascend"
        rebuilt = cov.eigvecs @ np.diag(cov.eigvals) @ cov.eigvecs.T
        np.testing.assert_allclose(rebuilt, c_kk, rtol=0, atol=1e-12 * np.abs(c_kk).max())


class TestStreamedCovariances:
    @staticmethod
    def problem():
        cfg = small_config(d_in=8, d_out=12)
        a0 = ground_truth(cfg, seed=51)
        return a0, NoiseProfile(sigma=0.3)

    @pytest.mark.parametrize("n", [100, 16 * STREAM_BLOCK_ROWS + 123])
    def test_matches_raw_sample_covariances(self, n):
        # n below one block, and n spanning a partial last block. c_kk is
        # the raw inputs' to rounding. The noise terms of the pass and of
        # the raw samples are different draws of one law: given u, row j is
        # N(0, sigma_j^2 c_kk / n), so each whitened term is chi-square with
        # d_in * d_out = 96 degrees of freedom (mean 96, sd 13.9).
        a0, profile = self.problem()
        (got,) = _nested_covariances(a0, (n,), profile, rng_seed=52)
        want = empirical_covariances(make_dataset(a0, n, profile, rng_seed=52))
        assert got.n == want.n == n
        rel = np.abs(got.c_kk - want.c_kk).max() / np.abs(want.c_kk).max()
        assert rel <= 1e-12, f"c_kk differs by {rel:.3e} relative at n={n}"
        assert np.array_equal(got.c_kk, got.c_kk.T), "symmetrization must be exact"
        dof = a0.d_in * a0.d_out
        for cov in (got, want):
            noise = (cov.c_lk - a0.m @ cov.c_kk) / np.sqrt(profile.variances(a0.d_out))[:, None]
            chi2 = n * float(np.sum(noise * np.linalg.solve(cov.c_kk, noise.T).T))
            assert abs(chi2 - dof) <= 6.0 * np.sqrt(2.0 * dof), \
                f"whitened noise term {chi2:.1f} is far from chi-square({dof}) at n={n}"

    def test_peak_memory_does_not_grow_with_n(self):
        a0, profile = self.problem()
        pass_peak(a0, profile, (STREAM_BLOCK_ROWS,))  # warm-up: first-call allocations
        small = pass_peak(a0, profile, (2 * STREAM_BLOCK_ROWS,))
        large = pass_peak(a0, profile, (16 * STREAM_BLOCK_ROWS,))
        # Whole arrays at 16 blocks would need 8x the memory of 2 blocks.
        assert large <= 1.1 * small, f"peak {large} B at 16 blocks vs {small} B at 2"

    def test_peak_memory_does_not_grow_with_snapshots(self):
        a0, profile = self.problem()
        # 7 snapshots inside a block, each with its own partial term, then one
        # on the last block boundary.
        n_list = tuple(2 * k * STREAM_BLOCK_ROWS - 300 for k in range(1, 8)) + (
            16 * STREAM_BLOCK_ROWS,)
        pass_peak(a0, profile, (STREAM_BLOCK_ROWS,))  # warm-up: first-call allocations
        small = pass_peak(a0, profile, (2 * STREAM_BLOCK_ROWS,))
        large = pass_peak(a0, profile, n_list)
        assert large <= 1.1 * small, \
            f"peak {large} B over {len(n_list)} snapshots to 16 blocks vs {small} B at 2 blocks"

    @pytest.mark.parametrize("failing", [1, 3], ids=["ahead", "block"])
    def test_a_failed_fill_is_raised_from_the_pass(self, monkeypatch, failing):
        # The first fill is the rows drawn ahead at n=100; the third is the
        # helper's, which fails while the block before is summed.
        a0, profile = self.problem()
        threads = threading.active_count()
        fills = []

        def failing_fill(rng, out, scale):
            fills.append(out.shape[0])
            if len(fills) == failing:
                raise RuntimeError("fill failed")

        monkeypatch.setattr(synth, "_fill_scaled_uniform", failing_fill)
        with pytest.raises(RuntimeError, match="fill failed"):
            list(_nested_covariances(a0, (100, 5 * STREAM_BLOCK_ROWS), profile, rng_seed=56))
        assert fills == [100, STREAM_BLOCK_ROWS, STREAM_BLOCK_ROWS][:failing], fills
        assert threading.active_count() == threads, "the helper must be joined"

    def test_a_helper_fills_only_whole_blocks_and_is_gone_at_every_snapshot(self,
                                                                              monkeypatch):
        # Each n whose blocks number two or more fills its first block on
        # the calling thread and the rest on one helper, each while the
        # block before is summed; a single block is filled on the calling
        # thread, and the rows past the blocks are drawn on it, with no
        # helper alive, once every block is filled.
        a0, profile = self.problem()
        b = STREAM_BLOCK_ROWS
        threads = threading.active_count()
        filled = []

        def recording_filler(*args):
            fill = synth._stream_filler(*args)

            def record(u, ahead=False):
                fill(u, ahead=ahead)
                filled.append((threading.current_thread(), threading.active_count(),
                               ahead, u.copy()))

            return record

        monkeypatch.setattr(estimators, "_stream_filler", recording_filler)
        n_list = (100, 3 * b + 7, 4 * b, 6 * b + 1)
        for cov in _nested_covariances(a0, n_list, profile, rng_seed=59):
            assert threading.active_count() == threads, f"a thread is alive at n={cov.n}"
        here = threading.current_thread()
        assert [(t is here, ahead, u.shape[0]) for t, _, ahead, u in filled] == [
            (True, True, 100),
            (True, False, b), (False, False, b), (False, False, b), (True, True, 7),
            (True, False, b), (True, True, 0),
            (True, False, b), (False, False, b), (True, True, 1)]
        assert [count for _, count, ahead, _ in filled if ahead] == [threads] * 4, \
            "a look-ahead must be drawn with no helper alive"
        inline = synth._stream_filler(a0, 59)
        for k, (*_, ahead, u) in enumerate(filled):
            want_u = np.empty_like(u)
            inline(want_u, ahead=ahead)
            assert np.array_equal(u, want_u), f"draw {k} is not the stream's next rows"

    @pytest.mark.parametrize("n_list", [
        (4, 8, 16), (100, 300, 512, 700, 1500, 5000), (5, 600), (513, 1023, 1024, 1025)])
    def test_c_kk_is_the_bits_of_its_whole_blocks_and_its_last_rows(self, n_list):
        # Built apart from the pass: all rows drawn by one fill, then for
        # each n on its own, the blocks below n summed from zero in order
        # and the product of the rows past them added last.
        a0, profile = self.problem()
        u = np.empty((n_list[-1], a0.d_in))
        synth._stream_filler(a0, 58)(u)
        covs = _nested_covariances(a0, n_list, profile, rng_seed=58)
        for n, cov in zip(n_list, covs, strict=True):
            summed = n - n % STREAM_BLOCK_ROWS
            uu = np.zeros((a0.d_in, a0.d_in))
            for start in range(0, summed, STREAM_BLOCK_ROWS):
                block = u[start:start + STREAM_BLOCK_ROWS]
                uu += block.T @ block
            want = u[summed:n].T @ u[summed:n]
            want += uu
            want /= n
            assert cov.c_kk.tobytes() == want.tobytes(), f"c_kk at n={n} is not its sums' bits"


class TestNoiseStatistic:
    """The noise term n * (c_lk - a0 c_kk) a snapshot draws from its c_kk."""

    def test_rows_have_the_conditional_law_of_the_sample_noise_term(self):
        # One fixed c_kk with eigenvalues spread over two decades, 8000
        # sub-stream draws. Row j must be N(0, S) with S = sigma_j^2 n c_kk:
        # each entry of its sample covariance, over sqrt(S_ii S_kk), then
        # has a standard error of at most sqrt(2 / 8000) = 0.016.
        d_in, d_out, n, draws = 4, 3, 50, 8000
        a0 = OperatorMatrix(np.random.default_rng(61).normal(size=(d_out, d_in)),
                            make_decay(d_in, 0.5), make_decay(d_out, 0.5))
        profile = NoiseProfile(sigma=0.8)
        noise_sd = np.sqrt(profile.variances(d_out))
        u = np.random.default_rng(62).normal(size=(n, d_in)) * [2.0, 1.0, 0.5, 0.25]
        uu = u.T @ u
        rows = np.empty((draws, d_out, d_in))
        for k in range(draws):
            cov = estimators._from_sums(a0, uu, n, noise_sd, k, np.zeros((d_in, d_in)))
            rows[k] = n * (cov.c_lk - a0.m @ cov.c_kk)
        for j in range(d_out):
            target = noise_sd[j] ** 2 * n * cov.c_kk
            got = rows[:, j].T @ rows[:, j] / draws
            sd = np.sqrt(np.diag(target))
            worst = np.abs((got - target) / np.outer(sd, sd)).max()
            assert worst <= 0.1, f"row {j} covariance off by {worst:.3f} of its scale"

    def test_fewer_rows_than_inputs_keeps_the_noise_in_the_range_of_c_kk(self):
        # With n < d_in, c_kk has rank n; eps.T @ u lies in the span of the
        # rows of u, so the drawn term must have no part in c_kk's null space.
        cfg = small_config(d_in=16, d_out=12)
        a0 = ground_truth(cfg, seed=63)
        (cov,) = _nested_covariances(a0, (5,), NoiseProfile(sigma=0.3), rng_seed=64)
        noise = cov.c_lk - a0.m @ cov.c_kk
        null = cov.eigvecs[:, cov.eigvals <= 1e-12 * cov.eigvals[-1]]
        assert null.shape[1] == cfg.d_in - 5
        leak = np.abs(noise @ null).max() / np.abs(noise).max()
        assert leak <= 1e-12, f"{leak:.3e} of the noise lies in the null space of c_kk"
        for name in ESTIMATOR_NAMES:
            a_hat = estimate_from_covariances(cov, cfg, name)
            err = bg_norm(a_hat.difference(a0), cfg.beta_prime, cfg.gamma_prime)
            assert np.isfinite(err), f"{name} error {err} at n=5 < d_in=16"

    def test_snapshots_of_one_pass_draw_independent_noise(self):
        # Cells at different n share their inputs, not their noise: the
        # standard normals behind the two draws, recovered by whitening, are
        # uncorrelated (96 entries each, a standard error of about 0.1).
        cfg = small_config(d_in=8, d_out=12)
        a0 = ground_truth(cfg, seed=68)
        profile = NoiseProfile(sigma=0.3)
        sd = np.sqrt(profile.variances(cfg.d_out))[:, None]
        z = [((cov.c_lk - a0.m @ cov.c_kk) / sd) @ cov.eigvecs * np.sqrt(cov.n / cov.eigvals)
             for cov in _nested_covariances(a0, (600, 1200), profile, rng_seed=69)]
        corr = np.corrcoef(z[0].ravel(), z[1].ravel())[0, 1]
        assert abs(corr) <= 0.5, f"the noise draws at n=600 and n=1200 correlate by {corr:.3f}"

    @pytest.mark.parametrize("n_list", [(100,), (STREAM_BLOCK_ROWS, 2 * STREAM_BLOCK_ROWS + 7)])
    def test_zero_sigma_gives_the_noiseless_cross_matrix_exactly(self, n_list):
        cfg = small_config(d_in=8, d_out=12)
        a0 = ground_truth(cfg, seed=65)
        # The pass keeps c_lk in the eigenbasis of c_kk: c_lk Q = (a0.m Q) diag(Lambda).
        for cov in _nested_covariances(a0, n_list, NoiseProfile(sigma=0.0), rng_seed=66):
            want = a0.m @ cov.eigvecs
            want *= cov.eigvals
            assert np.array_equal(cov.c_lq, want), f"noise added at n={cov.n}"

    def test_one_eigendecomposition_per_snapshot(self, monkeypatch):
        # The noise draw reuses the eigh every snapshot makes for its solves.
        cfg = small_config(d_in=8, d_out=12)
        a0 = ground_truth(cfg, seed=67)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        n_list = (100, STREAM_BLOCK_ROWS, 3 * STREAM_BLOCK_ROWS + 5)
        records = estimators._run_trial(estimators._pass_state(cfg, a0, n_list, ESTIMATOR_NAMES), 0)
        assert len(records) == len(n_list) * len(ESTIMATOR_NAMES)
        assert calls == [(8, 8)] * len(n_list)


def pass_peak(a0: OperatorMatrix, profile: NoiseProfile, n_list: tuple[int, ...]) -> int:
    """tracemalloc peak of one streamed pass whose consumer drops each snapshot."""
    tracemalloc.start()
    try:
        covs = _nested_covariances(a0, n_list, profile, rng_seed=53)
        # Unlike a for loop's name, next's result is dropped before the pass resumes.
        while next(covs, None) is not None:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestFitRowwiseRidge:
    def test_scalar_system(self):
        cov = covariances(np.array([[1.0]]), np.array([[2.0]]))
        out = fit_rowwise_ridge(cov, LambdaMap.uniform(1, 1.0))
        assert out[0, 0] == pytest.approx(1.0, rel=1e-14)

    def test_tiny_lambda_approaches_unregularized_solution(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=(5, 5))
        c_kk = g @ g.T + np.eye(5)
        c_lk = rng.normal(size=(3, 5))
        cov = covariances(c_kk, c_lk)
        out = fit_rowwise_ridge(cov, LambdaMap.uniform(3, 1e-12))
        want = c_lk @ np.linalg.inv(c_kk)
        np.testing.assert_allclose(out, want, rtol=1e-9, atol=1e-11)

    def test_diagonal_system(self):
        cov = covariances(np.diag([4.0, 1.0]), np.array([[4.0, 1.0]]))
        out = fit_rowwise_ridge(cov, LambdaMap.uniform(1, 1.0))
        np.testing.assert_allclose(out, [[0.8, 0.5]], rtol=1e-14)

    def test_unlearned_rows_are_exactly_zero(self):
        rng = np.random.default_rng(9)
        cov = empirical_covariances((rng.normal(size=(20, 4)), rng.normal(size=(20, 6))))
        out = fit_rowwise_ridge(cov, LambdaMap(lams=np.ones(3), d_out=6))
        assert np.all(out[3:] == 0.0)
        assert np.all(out[:3] != 0.0)

    def test_solver_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            d_in, d_out = int(rng.integers(2, 20)), int(rng.integers(1, 20))
            u = rng.normal(size=(50, d_in))
            v = rng.normal(size=(50, d_out))
            cov = empirical_covariances((u, v))
            lams = rng.uniform(0.01, 2.0, size=d_out)
            out = fit_rowwise_ridge(cov, LambdaMap(lams=lams, d_out=d_out))
            for j in range(d_out):
                lhs = out[j] @ (cov.c_kk + lams[j] * np.eye(d_in))
                resid = np.linalg.norm(lhs - cov.c_lk[j]) / np.linalg.norm(cov.c_lk[j])
                assert resid <= 1e-10, f"row {j} residual {resid}"

    def test_a_rounding_negative_eigenvalue_gives_finite_rows(self):
        # c_kk passes the PSD tolerance, and its negative eigenvalue would
        # make c_kk + lambda I singular; it is clamped at 0 instead.
        cov = covariances(np.diag([1.0, -1e-13]), np.ones((2, 2)))
        assert cov.eigvals[0] == 0.0, f"eigenvalues {cov.eigvals} must be clamped at 0"
        rows = fit_rowwise_ridge(cov, LambdaMap.uniform(2, 1e-13))
        assert np.all(np.isfinite(rows)), f"rows {rows} must be finite"
        lmap = LambdaMap(lams=np.array([1.0]), d_out=2)
        assert fit_rowwise_ridge(cov, lmap)[0, 0] == pytest.approx(0.5, rel=1e-14), \
            "a map that learns row 0 alone must not be refused"

    @pytest.mark.parametrize("rows", ["empty", "full", "leading", "chunks"])
    def test_learned_rows_match_the_full_fit_and_a_per_row_solve(self, rows):
        # "chunks" learns two full chunks of rows and a last one of one row.
        rng = np.random.default_rng(17)
        chunk = estimators._ROW_CHUNK
        d_in, d_out = 6, (2 * chunk + 1 if rows == "chunks" else 9)
        g = rng.normal(size=(d_in, d_in))
        cov = covariances(g @ g.T + 0.1 * np.eye(d_in), rng.normal(size=(d_out, d_in)))
        k = {"empty": 0, "full": d_out, "leading": 4, "chunks": d_out}[rows]
        lmap = LambdaMap(lams=rng.uniform(0.01, 2.0, size=k), d_out=d_out)
        # Each chunk is copied: the solver reuses its buffer for the next.
        chunks = [(s, a.copy()) for s, a in estimators._learned_rows(cov, lmap)]
        starts = list(range(0, k, chunk))
        assert [(s.start, s.stop) for s, _ in chunks] == \
            [(j, min(j + chunk, k)) for j in starts], "chunks must tile rows 0..k-1 in order"
        a_rows = np.concatenate([a for _, a in chunks]) if chunks else np.empty((0, d_in))
        assert a_rows.shape == (k, d_in)
        full = fit_rowwise_ridge(cov, lmap)
        assert np.array_equal(full[:k], a_rows), "the full fit must hold these rows"
        assert np.all(full[k:] == 0.0)
        for j in range(k):
            want = np.linalg.solve(cov.c_kk + lmap.lams[j] * np.eye(d_in), cov.c_lk[j])
            err = np.abs(a_rows[j] - want).max() / np.abs(want).max()
            assert err <= 1e-10, f"row {j} off by {err:.3e} relative"

    def test_row_count_mismatch_rejected(self):
        cov = covariances(np.eye(2), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            fit_rowwise_ridge(cov, LambdaMap.uniform(2, 1.0))

    def test_matches_population_oracle_on_population_covariances(self):
        rng = np.random.default_rng(13)
        for trial in range(20):
            d_in, d_out = int(rng.integers(1, 40)), int(rng.integers(1, 40))
            a0 = OperatorMatrix(
                m=rng.normal(size=(d_out, d_in)),
                input_decay=random_decay(rng, d_in),
                output_decay=random_decay(rng, d_out),
            )
            lams = rng.uniform(1e-4, 10.0, size=int(rng.integers(0, d_out + 1)))
            lmap = LambdaMap(lams=lams, d_out=d_out)
            got = fit_rowwise_ridge(population_covariances(a0), lmap)
            want = population_regularized(a0, lmap).m
            err = np.abs(got - want).max()
            scale = max(np.abs(want).max(), 1e-300)
            assert err / scale <= 1e-10, f"trial {trial}: {err / scale}"


class TestEstimators:
    def test_multilevel_equals_grouped_ridge_bitwise(self):
        cfg = small_config(d_in=16, d_out=16)
        a0 = ground_truth(cfg, seed=21)
        cov = empirical_covariances(
            make_dataset(a0, 200, NoiseProfile(sigma=cfg.sigma), rng_seed=22))
        est = estimate_from_covariances(cov, cfg, "multilevel")
        lams = [level.lam for level in multilevel_schedule(cfg, cov.n).levels
                for _ in range(level.row_start, level.row_end)]
        want = fit_rowwise_ridge(cov, LambdaMap(lams=lams, d_out=cfg.d_out))
        assert np.array_equal(est.m, want), "must be the same computation"

    def test_contour_estimators_learn_scheduled_rows_only(self):
        cfg = small_config(d_in=8, d_out=8)
        a0 = ground_truth(cfg, seed=23)
        cov = empirical_covariances(
            make_dataset(a0, 64, NoiseProfile(sigma=cfg.sigma), rng_seed=24))
        for name, sched_fn in (("variance", variance_lambdas), ("bias", bias_lambdas)):
            est = estimate_from_covariances(cov, cfg, name)
            y_max = sched_fn(cfg, cov.n).y_max
            assert np.all(est.m[y_max:] == 0.0)
            assert np.all(np.any(est.m[:y_max] != 0.0, axis=1))

    def test_noiseless_recovery_with_tiny_lambda(self):
        cfg = small_config(d_in=8, d_out=8, sigma=0.0)
        a0 = ground_truth(cfg, seed=25)
        cov = empirical_covariances(make_dataset(a0, 4096, NoiseProfile(sigma=0.0), rng_seed=26))
        lmap = LambdaMap.uniform(cfg.d_out, lambda_floor(cfg, cov.n))
        est = OperatorMatrix(fit_rowwise_ridge(cov, lmap),
                             cfg.input_decay, cfg.output_decay)
        err = bg_norm(est.difference(a0), cfg.beta_prime, cfg.gamma_prime)
        scale = bg_norm(a0, cfg.beta_prime, cfg.gamma_prime)
        assert err <= 1e-3 * scale, f"noiseless recovery error {err / scale}"

    def test_zero_outputs_give_zero_estimate(self):
        cfg = small_config()
        u = drawn_inputs(32, cfg.input_decay, rng_seed=27)
        est = fit_rowwise_ridge(empirical_covariances((u, np.zeros((32, 8)))),
                                LambdaMap.uniform(8, 0.5))
        assert np.all(est == 0.0)

    def test_default_single_lambda_rule(self):
        cfg = small_config()
        assert single_ridge_lambda(cfg, 1024) == pytest.approx(
            1024.0 ** (-1.0 / 1.1), rel=1e-14
        )
        # 512^(-1/0.006) underflows to 0; the rule saturates as the schedules do.
        tiny = small_config(p=0.005, beta=0.001, beta_prime=0.0005)
        assert single_ridge_lambda(tiny, 512) == math.exp(-709.0)
        a0 = ground_truth(cfg, seed=29)
        cov = empirical_covariances(make_dataset(a0, 100, NoiseProfile(sigma=0.1), rng_seed=30))
        default = estimate_from_covariances(cov, cfg, "single")
        explicit = fit_rowwise_ridge(
            cov, LambdaMap.uniform(cfg.d_out, single_ridge_lambda(cfg, 100))
        )
        assert np.array_equal(default.m, explicit)

    def test_unknown_name_rejected(self):
        cfg = small_config()
        cov = population_covariances(ground_truth(cfg, seed=31))
        with pytest.raises(ValueError, match="lasso"):
            estimate_from_covariances(cov, cfg, "lasso")
        with pytest.raises(ValueError, match="unknown estimator 'lasso'"):
            LambdaMap.for_estimator(cfg, 64, "lasso")

    @pytest.mark.parametrize("name", ESTIMATOR_NAMES)
    def test_every_map_refuses_one_sample_by_the_same_rule(self, name):
        with pytest.raises(ValueError, match="sample count must be >= 2, got 1"):
            LambdaMap.for_estimator(small_config(), 1, name)

    @pytest.mark.parametrize("lams, d_out", [
        ([1.0, 1.0], 1), ([1.0, 0.0], 2), ([np.inf], 1), ([1.0, np.nan], 2), ([[1.0]], 1),
    ], ids=["more-rows-than-d_out", "zero-lambda", "infinite-lambda", "nan-lambda", "not-1-d"])
    def test_a_map_refuses_what_no_ridge_can_learn(self, lams, d_out):
        with pytest.raises(ValueError):
            LambdaMap(lams=lams, d_out=d_out)

    @pytest.mark.parametrize("n", [2, 17, 1024, 65536, 10**6])
    def test_for_estimator_matches_row_by_row_maps(self, n):
        # Each estimator's map, written out row by row from its schedule.
        rng = np.random.default_rng(n)
        for _ in range(20):
            cfg = random_problem_config(rng, d_out=int(rng.integers(1, 64)))
            contour = {name: fn(cfg, n) for name, fn in
                       (("variance", variance_lambdas), ("bias", bias_lambdas))}
            rows = {
                "single": {j: single_ridge_lambda(cfg, n) for j in range(cfg.d_out)},
                **{name: {j: sched.lambdas[j] for j in range(sched.y_max)}
                   for name, sched in contour.items()},
                "multilevel": {j: level.lam for level in multilevel_schedule(cfg, n).levels
                               for j in range(level.row_start - 1, level.row_end - 1)},
            }
            assert set(rows) == set(ESTIMATOR_NAMES)
            for name, want in rows.items():
                lmap = LambdaMap.for_estimator(cfg, n, name)
                assert sorted(want) == list(range(lmap.k)), name
                assert lmap.lams.tolist() == [want[j] for j in range(lmap.k)], name


class TestPopulationRegularized:
    def test_lambda_equal_mu_halves_entry(self):
        decay = make_decay(3, 0.5)
        a0 = OperatorMatrix(
            m=np.ones((2, 3)), input_decay=decay, output_decay=make_decay(2, 0.5)
        )
        lmap = LambdaMap(lams=np.array([decay.values[1]]), d_out=2)
        out = population_regularized(a0, lmap)
        assert out.m[0, 1] == pytest.approx(0.5, rel=1e-14)
        assert np.all(out.m[1] == 0.0)

    def test_zero_lambda_keeps_learned_rows(self):
        a0 = OperatorMatrix(
            m=np.arange(6.0).reshape(2, 3),
            input_decay=make_decay(3, 0.5),
            output_decay=make_decay(2, 0.5),
        )
        out = population_regularized(a0, LambdaMap.uniform(2, 1e-300))
        np.testing.assert_allclose(out.m, a0.m, rtol=1e-12)

    def test_huge_lambda_kills_rows(self):
        a0 = OperatorMatrix(
            m=np.ones((2, 3)),
            input_decay=make_decay(3, 0.5),
            output_decay=make_decay(2, 0.5),
        )
        lmap = LambdaMap.uniform(2, 1e300)
        out = population_regularized(a0, lmap)
        assert np.abs(out.m).max() <= 1e-290

    def test_refuses_a_map_of_other_rows(self):
        a0 = OperatorMatrix(np.ones((2, 3)), make_decay(3, 0.5), make_decay(2, 0.5))
        with pytest.raises(ValueError, match="lambda map covers 3 rows, operator has 2"):
            population_regularized(a0, LambdaMap.uniform(3, 1.0))

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(31)
        a0 = OperatorMatrix(
            m=rng.normal(size=(6, 5)),
            input_decay=random_decay(rng, 5),
            output_decay=random_decay(rng, 6),
        )
        lams = rng.uniform(0.1, 1.0, size=6)
        small = population_regularized(a0, LambdaMap(lams=lams, d_out=6))
        big = population_regularized(a0, LambdaMap(lams=4.0 * lams, d_out=6))
        assert np.all(np.abs(big.m) <= np.abs(small.m) + 1e-15)


class TestAnalyticBias:
    def test_hand_value(self):
        # mu_1 = 0.25, rho_1 = 1, lambda = 0.25, beta step 0.8, gamma step
        # 0.8: bias^2 = 0.25 * 0.25^0.8 = 2^(-3.6).
        src = SourceCoefficients(a=np.array([[1.0]]), beta=0.9, gamma=0.1)
        ind = EigenDecay(values=np.array([0.25]))
        outd = EigenDecay(values=np.array([1.0]))
        got = analytic_bias(src, LambdaMap.uniform(1, 0.25), ind, outd, 0.1, 0.9)
        assert got**2 == pytest.approx(2.0**-3.6, rel=1e-12)

    @pytest.mark.parametrize("map_rows, d_in, d_out, match", [
        (3, 3, 4, "lambda map covers 3 rows, source has 4"),
        (4, 2, 4, "decay lengths"),
        (4, 3, 5, "decay lengths"),
    ], ids=["map", "in_decay", "out_decay"])
    def test_refuses_what_does_not_fit_the_source(self, map_rows, d_in, d_out, match):
        src = SourceCoefficients(a=np.ones((4, 3)), beta=0.6, gamma=0.1)
        with pytest.raises(ValueError, match=match):
            analytic_bias(src, LambdaMap.uniform(map_rows, 1.0), make_decay(d_in, 0.5),
                          make_decay(d_out, 0.5), 0.3, 0.7)

    def test_zero_lambda_zero_bias(self):
        rng = np.random.default_rng(33)
        src = SourceCoefficients(a=rng.normal(size=(4, 3)), beta=0.6, gamma=0.1)
        got = analytic_bias(src, LambdaMap.uniform(4, 1e-300), make_decay(3, 0.5),
                            make_decay(4, 0.5), 0.3, 0.7)
        assert got <= 1e-290

    def test_nothing_learned_gives_full_norm(self):
        rng = np.random.default_rng(35)
        src = SourceCoefficients(a=rng.normal(size=(4, 3)), beta=0.6, gamma=0.1)
        ind, outd = make_decay(3, 0.5), make_decay(4, 0.5)
        lmap = LambdaMap(lams=np.empty(0), d_out=4)
        a0 = operator_from_source(src, ind, outd)
        got = analytic_bias(src, lmap, ind, outd, 0.3, 0.7)
        assert got == pytest.approx(bg_norm(a0, 0.3, 0.7), rel=1e-12)

    def test_matches_population_norm_oracle(self):
        rng = np.random.default_rng(37)
        for trial in range(50):
            d_in, d_out = int(rng.integers(1, 65)), int(rng.integers(1, 65))
            beta = float(rng.uniform(0.1, 0.95))
            gamma = float(rng.uniform(0.0, 0.8))
            bp = float(rng.uniform(0.02, beta - 0.01))
            gp = float(rng.uniform(gamma + 0.01, 0.99))
            src = SourceCoefficients(a=rng.normal(size=(d_out, d_in)), beta=beta, gamma=gamma)
            ind, outd = random_decay(rng, d_in), random_decay(rng, d_out)
            a0 = operator_from_source(src, ind, outd)
            lmap = LambdaMap(lams=rng.uniform(1e-3, 5.0, size=int(rng.integers(0, d_out + 1))),
                             d_out=d_out)
            direct = bg_norm(population_regularized(a0, lmap).difference(a0), bp, gp)
            oracle = analytic_bias(src, lmap, ind, outd, bp, gp)
            assert oracle == pytest.approx(direct, rel=1e-10), f"trial {trial}"

