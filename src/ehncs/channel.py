"""Block-fading MIMO channel sampling and normalized-singular-value statistics.

The channel is i.i.d. across slots; each draw caches its SVD because the
precoder consumes the left singular basis and the leading singular values
every slot.  The normalized singular value pi_tilde = sigma / Tr(Pi_K^{-1})
drives the stability condition, and its tail statistics are estimated here
empirically (they would come from offline measurements in a deployment).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError, SvdResult, svd

DEGENERATE_TOL = 1e-12


@dataclass(frozen=True)
class ChannelDraw:
    """One channel draw, or P stacked draws with a leading path axis."""

    H: np.ndarray  # (..., N_c, N_s) complex
    svd: SvdResult
    Pi_K: np.ndarray  # (..., K) leading singular values, descending

    @property
    def K(self) -> int:
        return self.Pi_K.shape[-1]


def _complex_normal(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries from standard normal real and imaginary parts."""
    return (re + 1j * im) / np.sqrt(2.0)


def sample_channel(rng, N_c: int, N_s: int, K: int) -> ChannelDraw:
    """One i.i.d. CN(0,1)-entry channel draw with cached SVD.

    rng is one generator, or a sequence of one generator per path: each path
    draws what a single draw would, and the stacked draw (every field with a
    leading path axis) is decomposed in one SVD.
    """
    if K > min(N_s, N_c):
        raise InputDomainError("sample_channel: K must be <= min(N_s, N_c)")
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal((2, N_c, N_s))
    else:
        z = np.array([g.standard_normal((2, N_c, N_s)) for g in rng])
    H = _complex_normal(z[..., 0, :, :], z[..., 1, :, :])
    dec = svd(H)
    return ChannelDraw(H=H, svd=dec, Pi_K=dec.singular_values[..., :K])


def receive(draw: ChannelDraw, F: np.ndarray, q: np.ndarray, rng,
            noiseless=False) -> np.ndarray:
    """Received signal y = H F q + z with z ~ CN(0, I_{N_c}).

    For a stacked draw, F and q carry its path axis, rng is a sequence of one
    generator per path and noiseless may be one flag per path; a noiseless
    path draws nothing from its generator.
    """
    q = np.asarray(q, dtype=float)
    y = (draw.H @ (np.asarray(F) @ q[..., None]))[..., 0]
    N_c = draw.H.shape[-2]
    if isinstance(rng, np.random.Generator):
        if noiseless:
            return y
        re, im = rng.standard_normal((2, N_c))
        return y + _complex_normal(re, im)
    noisy = np.flatnonzero(~(np.zeros(len(rng), dtype=bool) | noiseless))
    if noisy.size:
        z = np.array([rng[p].standard_normal((2, N_c)) for p in noisy])
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

    def prob_below(self, xi: float) -> float:
        """Empirical Pr(pi_tilde < xi)."""
        return float(np.searchsorted(self.samples, xi, side="left")) / self.samples.size

    def inv_mean_above(self, xi: float) -> float:
        """Empirical E[1/pi_tilde | pi_tilde >= xi]."""
        i = int(np.searchsorted(self.samples, xi, side="left"))
        n = self.samples.size - i
        if n == 0:
            return np.nan
        return float(self._inv_suffix_sum[i]) / n

    def quantiles(self, n: int) -> np.ndarray:
        return np.quantile(self.samples, np.linspace(0.0, 1.0, n, endpoint=False))


def estimate_pitilde_stats(rng: np.random.Generator, N_c: int, N_s: int, K: int,
                           n_samples: int) -> PiTildeStats:
    """Monte Carlo estimate of the pi_tilde distribution from n_samples draws."""
    if K > min(N_s, N_c):
        raise InputDomainError("estimate_pitilde_stats: K must be <= min(N_s, N_c)")
    H = (rng.standard_normal((n_samples, N_c, N_s))
         + 1j * rng.standard_normal((n_samples, N_c, N_s))) / np.sqrt(2.0)
    s = np.linalg.svd(H, compute_uv=False)[:, :K]
    good = s.min(axis=1) > DEGENERATE_TOL
    n_excluded = int((~good).sum())
    s = s[good]
    t = (1.0 / s).sum(axis=1, keepdims=True)
    return PiTildeStats(samples=(s / t).ravel(), n_excluded=n_excluded)


def save_samples_csv(stats: PiTildeStats, path) -> None:
    """Audit export: one pi_tilde sample per line."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pi_tilde"])
        for v in stats.samples:
            writer.writerow([repr(float(v))])
