"""Block-fading MIMO channel sampling and normalized-singular-value statistics.

The channel is i.i.d. across slots.  A slot reads a draw only through its
K leading singular values Pi_K, which `sample_channel` takes from one
values-only SVD of the stacked draws.  The precoders lie on the draw's
leading right singular vectors U_K: F = U_K F_s with F_s a real K x K
matrix gives H F = V_K diag(Pi_K) F_s, V_K the leading left singular
vectors, so the received y = H F q + n enters the receiver only through
its matched filter Re(V_K^H y) = Pi_K (F_s q) + Re(V_K^H n); the rest of
y, and Im(V_K^H y), carry independent noise alone.  Given H, V_K^H n is
CN(0, I_K), since CN(0, I) is unitarily invariant, so Re(V_K^H n) is
N(0, I_K / 2) and independent of H: `receive` forms it from K standard
normals scaled by 1/sqrt(2), and no singular vector is computed.  Both
functions take the standard normals their caller drew.  The normalized
singular value pi_tilde = sigma / Tr(Pi_K^{-1}) drives the stability
condition.  For K = min(N_c, N_s) = 2 its law is evaluated exactly, by
one-dimensional quadrature of the complex Wishart eigenvalue density
(`PiTildeLaw`); other shapes estimate its statistics from sampled channel
draws (`estimate_pitilde_stats`).  `pitilde_stats` picks one by the shape.
"""

import math

import numpy as np

from .numerics import InputDomainError, singular_values

# a draw is degenerate when lambda_K <= DEGENERATE_TOL * lambda_1 for the Gram
# eigenvalues lambda = sigma^2 (sigma_K / sigma_1 <= 1e-6); a rank-deficient
# draw leaves lambda_K at the Gram's rounding floor, about 1e-16 * lambda_1,
# on both singular_values paths (closed form for a 2 x 2 Gram, eigvalsh else)
DEGENERATE_TOL = 1e-12


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def _complex_normal(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """CN(0, 1) entries from standard normal real and imaginary parts, both
    scaled by 1/sqrt(2) in place."""
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, im
    return np.multiply(out, _INV_SQRT2, out=out)


def sample_channel(z: np.ndarray, K: int) -> np.ndarray:
    """The K leading singular values Pi_K (P, K), descending, of one i.i.d.
    CN(0,1)-entry channel draw per path, built from the standard normals z
    (P, 2, N_c, N_s), real parts then imaginary parts, in one values-only
    SVD of the stack."""
    if K > min(z.shape[-2:]):
        raise InputDomainError("sample_channel: K must be <= min(N_s, N_c)")
    H = _complex_normal(z[:, 0], z[:, 1])
    return np.linalg.svd(H, compute_uv=False)[:, :K]


def receive(Pi_K: np.ndarray, s: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Matched-filter output Re(V_K^H y) of y = H U_K s + n, n ~ CN(0, I_{N_c}),
    on each path: Pi_K s + z / sqrt(2), with Pi_K (P, K) of the draw, the
    stream symbols s = F_s q (P, K) and K standard normals z (P, K), which
    stand for Re(V_K^H n) ~ N(0, I_K / 2) in law."""
    return Pi_K * s + z * _INV_SQRT2


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

    def quantile_terms(self, n: int):
        """The quantiles xi at the levels j/n, Pr(pi_tilde < xi) and
        E[1/pi_tilde | pi_tilde >= xi] at them."""
        xi = self.quantiles(n)
        return xi, self.prob_below(xi), self.inv_mean_above(xi)


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


# tanh-sinh rule on (0, pi/2): nodes at t = -_TS_SPAN, ..., _TS_SPAN in steps
# of _TS_STEP (201 nodes); halving the step moves Pr, the 200 quantiles and
# the conditional mean (relative) by less than 1e-13 for 2 <= n <= EXACT_MAX_N
_TS_STEP = 0.025
_TS_SPAN = 2.5
EXACT_MAX_N = 32
# x = xi / h is capped here, where Q(2n, x) < 1e-200 for every n <= EXACT_MAX_N
_X_CAP = 800.0
# quantile search: a table of Pr on a geometric xi grid (in units of n), then
# Halley steps until every level is met to _LEVEL_TOL
_TABLE_XI = (1e-3, 2.0, 64)
_LEVEL_TOL = 2e-15
_MAX_HALLEY_STEPS = 8


class PiTildeLaw:
    """Exact law of the normalized unordered singular value pi_tilde for
    K = min(N_c, N_s) = 2 and n = max(N_c, N_s) (2 <= n <= EXACT_MAX_N).

    The unordered Gram eigenvalues of an i.i.d. CN(0, 1) channel have the
    joint density (l_a - l_b)^2 (l_a l_b)^(n-2) e^(-l_a-l_b) / (2 (n-1)! (n-2)!).
    With sigma_a = r cos(phi), sigma_b = r sin(phi) and u = r^2 it is
    u^(2n-1) e^(-u) w(phi) / ((n-1)! (n-2)!), w = cos^2(2 phi) (cos phi
    sin phi)^(2n-3), and pi_tilde = sigma_a^2 sigma_b / (sigma_a + sigma_b)
    = u h(phi), h = cos^2 phi sin phi / (cos phi + sin phi).  The integrals
    over u are regularized upper gammas of integer order at x = xi / h:

        Pr(pt >= xi)       = int a(phi) Q(2n, x) dphi,
        E[1/pt; pt >= xi]  = int a(phi) Q(2n-1, x) / ((2n-1) h(phi)) dphi,

    a = (2n-1)! w / ((n-1)! (n-2)!), and the integral over phi is a tanh-sinh
    rule.  It has the interface of `PiTildeStats`.  Its quantile search
    returns its own terms: `quantile_terms` takes Pr and the conditional
    mean from the search's last evaluation, which is at the returned xi.
    """

    def __init__(self, n: int):
        if not 2 <= n <= EXACT_MAX_N:
            raise InputDomainError(
                f"PiTildeLaw: n = max(N_c, N_s) must be in [2, {EXACT_MAX_N}], got {n}")
        self.n = n
        t = np.arange(-_TS_SPAN, _TS_SPAN + _TS_STEP / 2, _TS_STEP)
        v = 0.5 * math.pi * np.sinh(t)
        # phi and pi/2 - phi, each accurate near its own end
        sin = np.sin(0.5 * math.pi / (1.0 + np.exp(-2.0 * v)))
        cos = np.sin(0.5 * math.pi / (1.0 + np.exp(2.0 * v)))
        h = cos * cos * sin / (cos + sin)
        # w times the rule's weight dphi/dt, up to a constant factor: the
        # normalization to total mass 1 takes the place of step, the
        # factorials and that factor
        a = np.cosh(t) / np.cosh(v) ** 2 * (cos * cos - sin * sin) ** 2 \
            * (cos * sin) ** (2 * n - 3)
        a /= a.sum()
        self._inv_h = 1.0 / h
        self._a = a
        self._a_over_h = a / h

    def _poisson(self, xi):
        """Q(2n, x) and the Poisson terms x^j e^-x / j! at j = 2n-2 and 2n-1,
        at x = xi / h for each rule node (a trailing node axis)."""
        x = np.minimum(np.maximum(xi, 0.0)[..., None] * self._inv_h, _X_CAP)
        term = np.exp(-x)
        q = term.copy()
        for j in range(1, 2 * self.n):
            prev = term
            term = term * x
            term *= 1.0 / j
            q += term
        return q, prev, term

    def _inv_mean(self, xi, q, last):
        """E[1/pi_tilde | pi_tilde >= xi] from the rule's terms at xi."""
        with np.errstate(invalid="ignore", divide="ignore"):
            m = ((q - last) @ self._a_over_h) / ((2 * self.n - 1) * (q @ self._a))
        return np.where(xi <= 0.0, np.inf, m) if self.n == 2 else m

    def prob_below(self, xi):
        """Pr(pi_tilde < xi), for a scalar or an array of xi."""
        q, _, _ = self._poisson(np.asarray(xi, dtype=float))
        p = (1.0 - q) @ self._a
        return p if np.ndim(p) else float(p)

    def inv_mean_above(self, xi):
        """E[1/pi_tilde | pi_tilde >= xi], for a scalar or an array of xi;
        inf at xi <= 0 when n = 2, where E[1/pi_tilde] diverges, and nan
        where Pr(pi_tilde >= xi) underflows to 0."""
        xi = np.asarray(xi, dtype=float)
        q, _, last = self._poisson(xi)
        m = self._inv_mean(xi, q, last)
        return m if np.ndim(m) else float(m)

    def quantiles(self, n: int) -> np.ndarray:
        """xi at the levels j/n, j = 0, ..., n-1; level 0 is xi = 0."""
        return self.quantile_terms(n)[0]

    def quantile_terms(self, n: int):
        """The quantiles xi at the levels j/n, j = 0, ..., n-1 (level 0 is
        xi = 0), with Pr(pi_tilde < xi) and E[1/pi_tilde | pi_tilde >= xi]
        at them, the bits of `prob_below` and `inv_mean_above` at xi.

        The Halley search ends on an evaluation of the rule at the returned
        xi, so the two terms come from that table, with the xi = 0 row
        stacked on top, and the rule is not evaluated at xi again.  It
        raises RuntimeError if _MAX_HALLEY_STEPS pass without every level
        met to _LEVEL_TOL.
        """
        levels = np.arange(1, n) / n
        lo, hi, size = _TABLE_XI
        grid = self.n * np.geomspace(lo, hi, size)
        xi = np.exp(np.interp(levels, self.prob_below(grid), np.log(grid)))
        for _ in range(_MAX_HALLEY_STEPS):
            q, prev, last = self._poisson(xi)
            g = (1.0 - q) @ self._a - levels
            if np.all(np.abs(g) <= _LEVEL_TOL):
                break
            # density and its slope in xi: Pr' = sum a/h term_{2n-1},
            # Pr'' = sum a/h^2 (term_{2n-2} - term_{2n-1})
            d1 = last @ self._a_over_h
            d2 = (prev - last) @ (self._a_over_h * self._inv_h)
            xi = xi - g / d1 / (1.0 - g * d2 / (2.0 * d1 * d1))
        else:
            raise RuntimeError(f"PiTildeLaw: quantile search at n = {self.n} hit its step "
                               f"cap; worst |Pr - level| = {np.abs(g).max():.3g}")
        # the products run on the n-row table, as `prob_below` and
        # `inv_mean_above` would on xi, so the terms are their bits
        q0, _, last0 = self._poisson(np.zeros(1))
        xi, q, last = (np.concatenate(p) for p in (([0.0], xi), (q0, q), (last0, last)))
        return xi, (1.0 - q) @ self._a, self._inv_mean(xi, q, last)


def pitilde_stats(rng: np.random.Generator, N_c: int, N_s: int, K: int,
                  n_samples: int):
    """The pi_tilde statistics of the stability analysis: the exact law when
    K = min(N_c, N_s) = 2 and max(N_c, N_s) <= EXACT_MAX_N, else the estimate
    from n_samples draws of rng."""
    if K == 2 == min(N_c, N_s) and max(N_c, N_s) <= EXACT_MAX_N:
        return PiTildeLaw(max(N_c, N_s))
    return estimate_pitilde_stats(rng, N_c, N_s, K, n_samples)
