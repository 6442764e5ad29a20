import numpy as np
import pytest

import sys
from pathlib import Path

from ehncs import channel
from ehncs.analysis import _plug_in_terms, check_stability
from ehncs.channel import (EXACT_MAX_N, PiTildeLaw, PiTildeStats, estimate_pitilde_stats,
                           pitilde_stats, receive, sample_channel)
from ehncs.limiter import make_params
from ehncs.numerics import InputDomainError
from ehncs.plant import PlantModel

sys.path.insert(0, str(Path(__file__).parent))
from oracles import reference_pitilde_stats  # noqa: E402


def assert_same_bits(got, want):
    """Each array of got has the dtype, shape and bytes of want's."""
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def normals(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def complex_channel(z):
    """H = (re + i im) / sqrt(2) from normals (P, 2, N_c, N_s), as the draw
    is built."""
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)


class TestSampleChannel:
    def test_shapes_and_cached_svd(self):
        Pi_K = sample_channel(normals(0, 1, 2, 2, 3), K=2)
        assert Pi_K.shape == (1, 2)
        assert np.all(np.diff(Pi_K[0]) <= 0)

    @pytest.mark.parametrize("N_c, N_s, K", [(2, 3, 2), (3, 2, 2), (3, 3, 2), (4, 4, 1),
                                             (4, 6, 3), (5, 3, 2)])
    def test_leading_right_singular_vectors(self, N_c, N_s, K):
        # Pi_K are the gains |H u_i| of the leading right singular vectors
        # u_i of the same H, which a precoder F = U_K F_s relies on
        z = normals(0, 3, 2, N_c, N_s)
        Pi_K = sample_channel(z, K)
        assert Pi_K.shape == (3, K)
        H = complex_channel(z)
        for p in range(3):
            U_K = np.linalg.svd(H[p])[2][:K].conj().T
            gains = np.linalg.norm(H[p] @ U_K, axis=0)
            assert np.all(np.abs(gains - Pi_K[p]) <= 1e-12 * Pi_K[p])
            assert np.all(np.diff(Pi_K[p]) <= 0)
            # each path's draw is built from its own row of normals
            one = sample_channel(z[p:p + 1], K)
            assert np.allclose(one[0], Pi_K[p], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 2), (3, 3), (4, 6)])
    def test_matches_full_svd(self, N_c, N_s):
        # the values-only SVD gives the leading K values of the full SVD of
        # the same H, descending, at every K
        z = normals([11, N_c, N_s], 2000, 2, N_c, N_s)
        full = np.linalg.svd(complex_channel(z))[1]
        for K in range(1, min(N_c, N_s) + 1):
            Pi_K = sample_channel(z, K)
            assert Pi_K.shape == (2000, K)
            assert np.all(np.abs(Pi_K - full[:, :K]) <= 1e-13 * full[:, :K])
            assert np.all(np.diff(Pi_K, axis=1) <= 0)

    def test_k_too_large(self):
        with pytest.raises(InputDomainError):
            sample_channel(normals(0, 1, 2, 2, 3), K=3)

    def test_unit_variance_entries(self):
        # sum_i sigma_i^2 = ||H||_F^2, so E[sum sigma^2] / (N_c N_s) = E|h|^2 = 1
        Pi_K = sample_channel(normals(1, 500, 2, 4, 4), 4)
        assert abs(np.mean((Pi_K**2).sum(axis=1)) / 16 - 1.0) < 0.05


class TestReceive:
    # the matched filter Re(V_K^H y) of y = H U_K s + n is Pi_K s + z / sqrt(2)
    def test_noise_is_each_generators_own_draw(self):
        # the noise of each row is its own K normals over sqrt(2): rows do
        # not mix, and a row alone gives the bits it gives in the stack
        rng = np.random.default_rng(2)
        Pi_K = sample_channel(rng.standard_normal((3, 2, 2, 3)), 2)
        s = rng.standard_normal((3, 2))
        twins = [np.random.default_rng(seed) for seed in (5, 6, 7)]
        z = np.array([twin.standard_normal(2) for twin in twins])
        obs = receive(Pi_K, s, z)
        for p, seed in enumerate((5, 6, 7)):
            own = np.random.default_rng(seed).standard_normal(2)
            assert np.allclose(obs[p] - Pi_K[p] * s[p], own / np.sqrt(2.0), rtol=0,
                               atol=1e-14)
            assert np.array_equal(receive(Pi_K[p:p + 1], s[p:p + 1], own[None])[0], obs[p])

    def test_noise_is_unit_variance(self):
        # n ~ CN(0, I) has unit variance, so Re(V_K^H n) ~ N(0, I/2): the
        # filter's noise has mean 0 and covariance I/2.  Over n = 10^5 draws
        # of variance 1/2 the sample mean has sd sqrt(1/(2n)) = 0.0022, and a
        # sample covariance entry sd sqrt(1/(4n)) off the diagonal and
        # sqrt(2/(4n)) = 0.0022 on it; the bounds are 5 sd
        n, K = 10**5, 3
        Pi_K = sample_channel(normals(3, n, 2, 3, 4), K)
        noise = receive(Pi_K, np.zeros((n, K)), normals(4, n, K))
        sd = np.sqrt(2.0 / (4 * n))
        assert np.abs(noise.mean(axis=0)).max() < 5 * np.sqrt(1.0 / (2 * n))
        assert np.abs(np.cov(noise, rowvar=False) - 0.5 * np.eye(K)).max() < 5 * sd


class TestPiTildeStats:
    def test_quantile_terms_are_the_lookups_bits(self):
        stats = estimate_pitilde_stats(np.random.default_rng(42), 3, 3, 2, 5000)
        xi, below, inv_mean = stats.quantile_terms(200)
        assert_same_bits((xi, below, inv_mean), (stats.quantiles(200),
                                                 stats.prob_below(xi),
                                                 stats.inv_mean_above(xi)))

    def test_hand_case_equal_singular_values(self):
        # Pi = diag(2, 2): t = 1/2 + 1/2 = 1, both samples equal 2
        s = np.array([2.0, 2.0])
        t = (1.0 / s).sum()
        stats = PiTildeStats(s / t)
        assert stats.prob_below(2.0) == 0.0
        assert stats.prob_below(2.0 + 1e-12) == 1.0
        assert stats.inv_mean_above(0.0) == pytest.approx(0.5)

    def test_hand_case_three_samples(self):
        stats = PiTildeStats(np.array([1.0, 2.0, 4.0]))
        assert stats.prob_below(2.0) == pytest.approx(1.0 / 3.0)
        assert stats.inv_mean_above(2.0) == pytest.approx((0.5 + 0.25) / 2.0)
        assert np.isnan(stats.inv_mean_above(5.0))

    def test_quantile_grid(self):
        stats = PiTildeStats(np.linspace(1.0, 2.0, 100))
        q = stats.quantiles(10)
        assert len(q) == 10
        assert np.all(np.diff(q) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(InputDomainError):
            PiTildeStats(np.array([]))

    def test_array_lookups_match_scalar_lookups(self):
        stats = PiTildeStats(np.array([1.0, 2.0, 2.0, 4.0]))
        xi = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(stats.prob_below(xi), [stats.prob_below(x) for x in xi])
        assert np.array_equal(stats.inv_mean_above(xi),
                              [stats.inv_mean_above(x) for x in xi], equal_nan=True)
        assert type(stats.prob_below(2.0)) is float
        assert type(stats.inv_mean_above(5.0)) is float


class TestEstimateStats:
    def test_sample_count_and_positivity(self):
        stats = estimate_pitilde_stats(np.random.default_rng(4), N_c=2, N_s=3,
                                       K=2, n_samples=2000)
        assert stats.samples.size + 2 * stats.n_excluded == 2 * 2000
        assert np.all(stats.samples > 0)

    def test_scalar_channel_reduces_to_square(self):
        # K = 1: pi_tilde = sigma / (1/sigma) = sigma^2 = |h|^2
        rng = np.random.default_rng(5)
        stats = estimate_pitilde_stats(rng, N_c=1, N_s=1, K=1, n_samples=3000)
        # |h|^2 is Exp(1): mean 1
        assert abs(stats.samples.mean() - 1.0) < 0.06

    @pytest.mark.parametrize("N_c, N_s, K", [(2, 3, 2), (2, 3, 1), (3, 2, 2),
                                             (3, 3, 3), (4, 2, 2), (1, 1, 1)])
    def test_matches_per_draw_svd(self, N_c, N_s, K):
        # 20_001 draws: a Gram of order other than 2, (3, 3, 3) and (1, 1, 1),
        # spans more than two eigvalsh blocks, the last one partial; a 2 x 2
        # Gram takes the closed form
        n = 20_001
        stats = estimate_pitilde_stats(np.random.default_rng(6), N_c, N_s, K, n)
        ref = reference_pitilde_stats(np.random.default_rng(6), N_c, N_s, K, n)
        assert stats.n_excluded == ref.n_excluded == 0
        # the Gram eigenvalues carry an absolute error of about 1e-16 lambda_1,
        # so a square channel, whose smallest singular value is not repelled
        # from 0, is checked against the largest sample for its near-0 values
        atol = 1e-12 * ref.samples.max() if N_c == N_s else 0.0
        np.testing.assert_allclose(stats.samples, ref.samples, rtol=1e-12, atol=atol)

    @pytest.mark.parametrize("n_samples", [0, -5])
    def test_nonpositive_sample_count_rejected(self, n_samples):
        with pytest.raises(InputDomainError, match="n_samples"):
            estimate_pitilde_stats(np.random.default_rng(7), 2, 3, 2, n_samples)


def mc_oracle(n, n_draws=1_000_000, chunk=100_000):
    """`estimate_pitilde_stats` over n_draws 2 x n channels, drawn in chunks
    to bound memory."""
    samples = [estimate_pitilde_stats(np.random.default_rng([30, n, i]), 2, n, 2,
                                      chunk).samples
               for i in range(n_draws // chunk)]
    return PiTildeStats(np.concatenate(samples))


class TestPiTildeLaw:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_two_rule_orders_agree(self, n, monkeypatch):
        law = PiTildeLaw(n)
        monkeypatch.setattr(channel, "_TS_STEP", channel._TS_STEP / 2)
        fine = PiTildeLaw(n)
        assert fine._a.size == 2 * law._a.size - 1
        q = fine.quantiles(200)
        assert np.abs(law.quantiles(200) - q).max() < 1e-10
        xi = np.concatenate([q[1:], np.geomspace(0.02, 2.0, 9)])
        assert np.abs(law.prob_below(xi) - fine.prob_below(xi)).max() < 1e-10

        def partial_inv_mean(stats):  # E[1/pt; pt >= xi]
            return stats.inv_mean_above(xi) * (1.0 - stats.prob_below(xi))

        assert np.abs(partial_inv_mean(law) - partial_inv_mean(fine)).max() < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 8, EXACT_MAX_N])
    def test_quantiles_meet_their_levels(self, n):
        law = PiTildeLaw(n)
        q = law.quantiles(200)
        assert q.shape == (200,) and q[0] == 0.0 and np.all(np.diff(q) > 0)
        assert np.abs(law.prob_below(q) - np.arange(200) / 200).max() < 1e-15

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_monte_carlo_oracle(self, n):
        # each draw gives two correlated samples, so the variance of a mean
        # over m samples is at most 2 var / m; that bound is the standard error
        law, mc = PiTildeLaw(n), mc_oracle(n)
        for xi in np.geomspace(0.02, 2.0, 9):
            p_mc = mc.prob_below(xi)
            se = np.sqrt(2.0 * p_mc * (1.0 - p_mc) / mc.samples.size)
            assert abs(law.prob_below(xi) - p_mc) <= 3.0 * se, (n, xi)
            inv = 1.0 / mc.samples[np.searchsorted(mc.samples, xi):]
            se = np.sqrt(2.0 * inv.var() / inv.size)
            assert abs(law.inv_mean_above(xi) - mc.inv_mean_above(xi)) <= 3.0 * se, (n, xi)

    def test_inverse_mean_diverges_at_zero_only_for_two_antennas(self):
        # at n = 2 the density of the smaller sigma is proportional to sigma
        # near 0, so E[1/pt] = E[1/sigma_a^2 + 1/(sigma_a sigma_b)] diverges
        assert PiTildeLaw(2).inv_mean_above(0.0) == np.inf
        assert np.isfinite(PiTildeLaw(2).inv_mean_above(1e-6))
        assert np.isfinite(PiTildeLaw(3).inv_mean_above(0.0))
        assert PiTildeLaw(3).prob_below(0.0) == 0.0
        assert np.isnan(PiTildeLaw(3).inv_mean_above(1e6))

    def test_check_stability_masks_the_infinite_level(self):
        model = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                           Psi=0.5 * np.eye(2))
        params = make_params(model, M=1.0, eps=0.01)
        law = PiTildeLaw(2)
        xi = law.quantiles(200)
        _, den, _, _ = _plug_in_terms(model, params, 1e-4, law.prob_below(xi),
                                      law.inv_mean_above(xi))
        assert den[0] == np.inf and np.all(np.isfinite(den[1:]))
        rep = check_stability(model, params, law, 1e-3, 1e3, 1e-4)
        assert np.isfinite(rep.rhs_max) and rep.xi_star > 0.0

    def test_scalar_and_array_lookups(self):
        law = PiTildeLaw(3)
        xi = np.array([0.0, 0.05, 0.5, 2.0])
        assert type(law.prob_below(0.5)) is float
        assert type(law.inv_mean_above(0.5)) is float
        # one rule, summed by a matrix-vector or a vector-vector product
        for lookup in (law.prob_below, law.inv_mean_above):
            np.testing.assert_allclose(lookup(xi), [lookup(x) for x in xi],
                                       rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, EXACT_MAX_N])
    def test_quantile_terms_are_the_lookups_bits(self, n):
        law = PiTildeLaw(n)
        xi, below, inv_mean = law.quantile_terms(200)
        assert_same_bits((xi, below, inv_mean),
                         (law.quantiles(200), law.prob_below(xi), law.inv_mean_above(xi)))

    def test_check_stability_evaluates_the_law_once_per_quantile(self, monkeypatch):
        # the 64-point table, three Halley evaluations at n = 3 and the
        # xi = 0 row; the last evaluation is at the returned quantiles, and
        # none follows at them
        model = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                           Psi=0.5 * np.eye(2))
        params = make_params(model, M=1.0, eps=0.01)
        law = PiTildeLaw(3)
        seen = []
        poisson = PiTildeLaw._poisson

        def spy(self, xi):
            seen.append(np.array(xi))
            return poisson(self, xi)

        monkeypatch.setattr(PiTildeLaw, "_poisson", spy)
        rep = check_stability(model, params, law, 1e-3, 1e3, 1e-4)
        assert [x.shape for x in seen] == [(64,), (199,), (199,), (199,), (1,)]
        monkeypatch.undo()
        xi = law.quantiles(200)
        assert np.array_equal(seen[3], xi[1:]) and seen[4].tolist() == [0.0]
        assert rep.xi_star in xi

    def test_quantile_search_fails_loudly_at_its_step_cap(self, monkeypatch):
        monkeypatch.setattr(channel, "_MAX_HALLEY_STEPS", 1)
        with pytest.raises(RuntimeError, match=r"n = 3 .* worst \|Pr - level\| = "):
            PiTildeLaw(3).quantiles(200)

    @pytest.mark.parametrize("n", [1, EXACT_MAX_N + 1])
    def test_antenna_count_outside_the_checked_range_rejected(self, n):
        with pytest.raises(InputDomainError, match="PiTildeLaw"):
            PiTildeLaw(n)


class TestPiTildeStatsChoice:
    @pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 2), (2, 2), (2, EXACT_MAX_N)])
    def test_exact_for_two_streams_on_the_smaller_side(self, N_c, N_s):
        rng = np.random.default_rng(40)
        stats = pitilde_stats(rng, N_c, N_s, 2, 1000)
        assert isinstance(stats, PiTildeLaw) and stats.n == max(N_c, N_s)
        assert rng.random() == np.random.default_rng(40).random()  # drew nothing

    @pytest.mark.parametrize("N_c, N_s, K", [(2, 3, 1), (3, 3, 2), (3, 3, 3),
                                             (2, EXACT_MAX_N + 1, 2)])
    def test_sampled_for_other_shapes(self, N_c, N_s, K):
        stats = pitilde_stats(np.random.default_rng(41), N_c, N_s, K, 1000)
        ref = estimate_pitilde_stats(np.random.default_rng(41), N_c, N_s, K, 1000)
        assert isinstance(stats, PiTildeStats)
        assert np.array_equal(stats.samples, ref.samples)
