import numpy as np
import pytest

import sys
from pathlib import Path

from ehncs.channel import PiTildeStats, estimate_pitilde_stats, receive, sample_channel
from ehncs.numerics import InputDomainError

sys.path.insert(0, str(Path(__file__).parent))
from oracles import reference_pitilde_stats  # noqa: E402


class TestSampleChannel:
    def test_shapes_and_cached_svd(self):
        draw = sample_channel([np.random.default_rng(0)], N_c=2, N_s=3, K=2)
        assert draw.H.shape == (1, 2, 3)
        assert draw.Pi_K.shape == (1, 2)
        assert np.all(np.diff(draw.Pi_K[0]) <= 0)
        assert np.abs(draw.svd.reconstruct() - draw.H).max() < 1e-10

    def test_k_too_large(self):
        with pytest.raises(InputDomainError):
            sample_channel([np.random.default_rng(0)], N_c=2, N_s=3, K=3)

    def test_unit_variance_entries(self):
        H = sample_channel([np.random.default_rng(1)] * 500, 4, 4, 4).H
        assert abs(np.mean(np.abs(H) ** 2) - 1.0) < 0.05


class TestReceive:
    def setup_draw(self, n_paths, seed):
        rng = np.random.default_rng(seed)
        draw = sample_channel([rng] * n_paths, 2, 3, 2)
        F = rng.standard_normal((n_paths, 3, 2)) + 1j * rng.standard_normal((n_paths, 3, 2))
        q = rng.standard_normal((n_paths, 2))
        return draw, F, q

    def test_noiseless_is_linear_map(self):
        draw, F, q = self.setup_draw(2, 2)
        rngs = [np.random.default_rng(5), np.random.default_rng(6)]
        y = receive(draw.H, (F @ q[:, :, None])[:, :, 0], rngs,
                    noiseless=np.array([True, True]))
        assert np.allclose(y, (draw.H @ F @ q[:, :, None])[:, :, 0])

    def test_noise_is_unit_variance(self):
        rng = np.random.default_rng(3)
        draw = sample_channel([rng] * 4000, 2, 3, 2)
        ys = receive(draw.H, np.zeros((4000, 3)), [rng] * 4000,
                     noiseless=np.zeros(4000, dtype=bool))
        assert abs(np.mean(np.abs(ys) ** 2) - 1.0) < 0.05

    def test_silent_path_draws_nothing(self):
        # a path's stream does not depend on whether the others transmit
        draw, F, q = self.setup_draw(2, 7)
        rngs = [np.random.default_rng(8), np.random.default_rng(9)]
        twins = [np.random.default_rng(8), np.random.default_rng(9)]
        y = receive(draw.H, (F @ q[:, :, None])[:, :, 0], rngs,
                    noiseless=np.array([True, False]))
        clean = (draw.H @ (F @ q[:, :, None]))[:, :, 0]
        assert np.array_equal(y[0], clean[0])
        z = twins[1].standard_normal((2, 2))
        assert np.allclose(y[1], clean[1] + (z[0] + 1j * z[1]) / np.sqrt(2.0))
        # path 0 is untouched; path 1 advanced by exactly one (2, N_c) draw
        assert rngs[0].random() == twins[0].random()
        assert rngs[1].random() == twins[1].random()


class TestPiTildeStats:
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
