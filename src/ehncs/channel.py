"""Block-fading MIMO channel sampling and normalized-singular-value statistics.

The channel is i.i.d. across slots; each draw caches its SVD because the
precoder consumes the left singular basis and the leading singular values
every slot.  The normalized singular value pi_tilde = sigma / Tr(Pi_K^{-1})
drives the stability condition, and its tail statistics are estimated here
empirically (they would come from offline measurements in a deployment).
"""

from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError, SvdResult, singular_values, svd

# a draw is degenerate when lambda_K <= DEGENERATE_TOL * lambda_1 for the Gram
# eigenvalues lambda = sigma^2 (sigma_K / sigma_1 <= 1e-6); a rank-deficient
# draw leaves lambda_K at the Gram's rounding floor, about 1e-16 * lambda_1,
# on both singular_values paths (closed form for a 2 x 2 Gram, eigvalsh else)
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ChannelDraw:
    """P channel draws stacked along a leading path axis."""

    H: np.ndarray  # (P, N_c, N_s) complex
    svd: SvdResult
    Pi_K: np.ndarray  # (P, K) leading singular values, descending


def _complex_normal(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries from standard normal real and imaginary parts."""
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(rngs, N_c: int, N_s: int, K: int) -> ChannelDraw:
    """One i.i.d. CN(0,1)-entry channel draw per generator in rngs, with the
    stacked draw decomposed in one SVD."""
    if K > min(N_s, N_c):
        raise InputDomainError("sample_channel: K must be <= min(N_s, N_c)")
    z = np.array([g.standard_normal((2, N_c, N_s)) for g in rngs])
    H = _complex_normal(z[:, 0], z[:, 1])
    dec = svd(H)
    return ChannelDraw(H=H, svd=dec, Pi_K=dec.s[..., :K])


def receive(draw: ChannelDraw, F: np.ndarray, q: np.ndarray, rngs,
            noiseless: np.ndarray) -> np.ndarray:
    """Received signal y = H F q + z with z ~ CN(0, I_{N_c}) on each path.

    F and q carry the draw's path axis, rngs holds one generator per path and
    noiseless one flag per path; a noiseless path draws nothing from its
    generator.
    """
    q = np.asarray(q, dtype=float)
    y = (draw.H @ (np.asarray(F) @ q[..., None]))[..., 0]
    noisy = np.flatnonzero(~noiseless)
    if noisy.size:
        N_c = draw.H.shape[-2]
        z = np.array([rngs[p].standard_normal((2, N_c)) for p in noisy])
        y[noisy] += _complex_normal(z[:, 0], z[:, 1])
    return y


class PiTildeStats:
    """Empirical distribution of the normalized unordered singular value.

    Each channel draw contributes all K values sigma_i / sum_j(1/sigma_j)
    with equal weight (equivalent in expectation to picking one uniformly).
    """

    def __init__(self, samples: np.ndarray, n_excluded: int = 0):
        samples = np.sort(np.asarray(samples, dtype=float))
        if samples.size == 0:
            raise InputDomainError("PiTildeStats: no samples")
        self.samples = samples
        self.n_excluded = n_excluded
        self._inv = 1.0 / samples
        # suffix means of 1/pi_tilde for O(1) conditional-mean lookups
        self._inv_suffix_sum = np.concatenate([np.cumsum(self._inv[::-1])[::-1], [0.0]])

    def prob_below(self, xi):
        """Empirical Pr(pi_tilde < xi), for a scalar or an array of xi."""
        p = np.searchsorted(self.samples, xi, side="left") / self.samples.size
        return p if np.ndim(p) else float(p)

    def inv_mean_above(self, xi):
        """Empirical E[1/pi_tilde | pi_tilde >= xi], for a scalar or an array
        of xi; nan where no sample reaches xi."""
        i = np.searchsorted(self.samples, xi, side="left")
        with np.errstate(invalid="ignore"):
            m = self._inv_suffix_sum[i] / (self.samples.size - i)
        return m if np.ndim(m) else float(m)

    def quantiles(self, n: int) -> np.ndarray:
        return np.quantile(self.samples, np.linspace(0.0, 1.0, n, endpoint=False))


def estimate_pitilde_stats(rng: np.random.Generator, N_c: int, N_s: int, K: int,
                           n_samples: int) -> PiTildeStats:
    """Monte Carlo estimate of the pi_tilde distribution from n_samples draws.

    Draws whose K-th singular value is degenerate (see DEGENERATE_TOL) are
    excluded and counted in n_excluded.
    """
    if K > min(N_s, N_c):
        raise InputDomainError("estimate_pitilde_stats: K must be <= min(N_s, N_c)")
    if n_samples < 1:
        raise InputDomainError(
            f"estimate_pitilde_stats: n_samples must be >= 1, got {n_samples}")
    H = _complex_normal(rng.standard_normal((n_samples, N_c, N_s)),
                        rng.standard_normal((n_samples, N_c, N_s)))
    s = singular_values(H)[:, :K]
    good = s[:, -1] ** 2 > DEGENERATE_TOL * s[:, 0] ** 2
    n_excluded = int((~good).sum())
    s = s[good]
    t = (1.0 / s).sum(axis=1, keepdims=True)
    return PiTildeStats(samples=(s / t).ravel(), n_excluded=n_excluded)

