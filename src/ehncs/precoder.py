"""Drift-minimizing event-driven water-filling precoder, the baselines and the
decision-region scan.

The proposed policy solves, per slot, the drift minimization

    min_F  M^2 Tr(F^H F) tau (theta - E)
           + (||A A^T|| / 2) Tr(2 (M/L)^2 Re{F^H H^H H F} + Sigma^{-1})^{-1}
    s.t.   M^2 Tr(F^H F) tau <= E

whose solution diagonalizes in the channel's right singular basis and the
covariance eigenbasis: per-stream allocations follow a water-filling rule
with water level set by (channel gain, stored energy) and seabed level set
by the per-stream estimation error.  Dormant vs active mode is decided
before any allocation from the breakpoints t_i at which stream i switches
on, the ones the allocation walk uses: the sensor stays dormant iff
theta - (t_i + E) > 0 for every stream.  In active mode the water level is
s* = max((theta - E)^+, s_E), with s_E the root of spend(s) = E, and the
budget multiplier is beta = s* - (theta - E)^+.

Capacity and MMSE water-filling (the baselines) have the same structure
with other weights, so the scalar active-set walk `_walk` inverts the
budget equation for one Theorem-1 context (`solve_theorem1`) and for both
baseline power profiles; `theorem1_allocations` takes the same walk over
stacked contexts as one cumulative sum.  A policy does not form its
precoder: it returns the per-stream factors of F = scale U_K diag(gains)
basis^T, on the channel's K leading right singular vectors U_K, and
`assemble_precoder` builds F from them over any leading axes, for one
decision (`PrecoderDecision.F`) or for every path of a slot at once.

The per-stream terms (`_breakpoints`, `_walk_weights`, `_water_fill`,
`_seabed`) are NumPy expressions that serve `theorem1_allocations` only.
One context has only K values, so the per-context solvers (`solve_theorem1`
and the baselines' `_wf_powers`) restate those terms on Python floats after
one `.tolist()` and share the float walk `_walk`.  Python float arithmetic
is IEEE double, as NumPy's float64 is, and the floats keep NumPy's
evaluation order, so the results are the same bits at a fraction of the
per-element dispatch cost.  A per-stream square is written x * x, which is
what NumPy's ** 2 computes on an array.  The squares of the scalars L and
a/(E+b) are Python's ** 2, which is libm pow and rounds differently from
x * x about once in a thousand, so the two spellings are not
interchangeable here.

A slot builds one `DriftContext` and one `PrecoderDecision` per path, so
both are immutable NamedTuples, built positionally: as frozen dataclasses,
which set every field through object.__setattr__, the pair cost about 4 us
per path and slot.  `DriftContext.__new__` keeps the L > 0 and E >= 0
checks, and both records still take keywords.  The policy stays one call
per path, returning one scalar mode and beta, which is what
bench/tracing.py reads.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np

from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError
from .plant import PlantModel

ALLOC_TOL = 1e-12


# the fields of DriftContext: a NamedTuple body may not define __new__, so
# the checks live in a subclass
class _DriftFields(NamedTuple):
    S: np.ndarray  # (K, K) covariance eigenbasis
    Lam: np.ndarray  # (K,) covariance eigenvalues, descending
    U_K: np.ndarray  # (N_s, K) leading right singular vectors of H = V Pi U^H
    Pi_K: np.ndarray  # (K,) leading channel singular values, descending
    E: float
    theta: float
    tau: float
    M: float
    L: float  # limiter dynamic range L(Sigma)
    norm_AAT: float  # spectral norm of A A^T
    slot: int = 0  # slot index (periodic baseline only)


class DriftContext(_DriftFields):
    """Per-slot state the precoding policies consume, one immutable record
    per path and slot, built positionally or by keyword."""

    __slots__ = ()

    def __new__(cls, S, Lam, U_K, Pi_K, E, theta, tau, M, L, norm_AAT, slot=0):
        # negated comparisons also reject NaN
        if not L > 0:
            raise InputDomainError("DriftContext: L must be > 0")
        if not E >= 0:
            raise InputDomainError("DriftContext: E must be >= 0")
        return tuple.__new__(cls, (S, Lam, U_K, Pi_K, E, theta, tau, M, L, norm_AAT,
                                   slot))

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)


def assemble_precoder(U_K, gains, basis, scale) -> np.ndarray:
    """F = scale U_K diag(gains) basis^T over any leading axes.

    U_K is (..., N_s, K), gains (..., K), basis (..., K, K) and scale (...);
    returns the complex (..., N_s, K) precoders.
    """
    top = gains[..., :, None] * np.swapaxes(basis, -1, -2)
    return np.asarray(scale)[..., None, None] * (U_K @ top)


class PrecoderDecision(NamedTuple):
    """A policy's precoder in Theorem 1's factored form,
    F = scale U_K diag(gains) basis^T: Theorem 1 gives gains sqrt(y_i)/Pi_ii,
    basis S and scale L/M; the baselines and dormant decisions give the
    identity basis and scale 1.
    """

    gains: np.ndarray  # (K,) per-stream amplitudes
    basis: np.ndarray  # (K, K)
    scale: float
    U_K: np.ndarray  # (N_s, K) the context's leading right singular vectors
    mode: str  # "dormant" | "active"
    beta: float
    allocations: np.ndarray  # (K,) per-stream allocations (diag of Y*)

    @property
    def F(self) -> np.ndarray:
        """The (N_s, K) complex precoder, assembled as `run_slot` assembles it."""
        return assemble_precoder(self.U_K, self.gains, self.basis, self.scale)


@cache
def _identity(K: int) -> np.ndarray:
    eye = np.eye(K)
    eye.flags.writeable = False  # shared by every decision with this K
    return eye


def _dormant_decision(ctx: DriftContext, mode: str = "dormant") -> PrecoderDecision:
    K = len(ctx.Pi_K)
    return PrecoderDecision(np.zeros(K), _identity(K), 1.0, ctx.U_K, mode, 0.0,
                            np.zeros(K))


# Theorem 1's per-stream terms on stacked (..., K) contexts, with E and L
# broadcasting against the leading axes; `solve_theorem1` restates them on
# floats.

def _seabed(Lam: np.ndarray) -> np.ndarray:
    """1/Lam_ii with zero eigenvalues mapped to an infinite seabed (so the
    allocation on that stream is forced to 0)."""
    return np.divide(1.0, Lam, out=np.full(np.shape(Lam), np.inf), where=Lam > 0)


def _breakpoints(Lam, Pi_K, L, tau: float, c: float) -> np.ndarray:
    """t_i = c (Pi_ii Lam_ii / L)^2 / tau: stream i is active iff the water
    level s is below t_i."""
    return c * (Pi_K * Lam / L) ** 2 / tau


def _walk_weights(Pi_K, L, tau: float, c: float,
                  seabed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a_i and b_i: on a fixed active set the budget L^2 tau sum_i y_i(s) /
    Pi_ii^2 equals a/sqrt(s) - b, with a and b the sums over the set."""
    return 0.5 * L * np.sqrt(c * tau) / Pi_K, 0.5 * L**2 * tau * seabed / Pi_K**2


def _water_fill(s, Pi_K, L, tau: float, c: float, seabed: np.ndarray) -> np.ndarray:
    """Per-stream allocations y_i(s) = (1/2)[(Pi_ii/L) sqrt(c/(s tau)) - 1/Lam_ii]^+
    at water level s."""
    return 0.5 * np.maximum((Pi_K / L) * np.sqrt(c / (s * tau)) - seabed, 0.0)


def _descending(t: np.ndarray) -> np.ndarray:
    """Indices that sort t in descending order along its last axis, the later
    stream first on a tie, as `_walk` orders them.  The sort must be stable:
    NumPy's default sort does not keep ties in index order for 4 or more
    elements on every host."""
    return np.argsort(t, axis=-1, kind="stable")[..., ::-1]


def _walk(a_terms: list, b_terms: list, t: list,
          budget: float) -> tuple[float, float, float]:
    """Active-set walk of a water-filling budget equation, on Python floats.

    Stream i switches on once the water parameter s falls below t_i, and on
    a fixed active set the budget equation a/sqrt(s) - b = budget has the
    root s = (a/(budget+b))^2, with a and b the sums of a_terms and b_terms
    over the set.  Streams switch on in descending t, the later stream first
    on a tie; the walk stops at the first set whose root is at or above the
    next t (0 after the last stream).  The spend is continuous and
    decreasing in s, so that root is the solution.  Returns the sums a and b
    and the breakpoint of the last stream switched on.
    """
    order = sorted(range(len(t)), key=t.__getitem__)[::-1]
    a = b = 0.0
    for m, i in enumerate(order):
        a += a_terms[i]
        b += b_terms[i]
        if (a / (budget + b)) ** 2 >= (t[order[m + 1]] if m + 1 < len(t) else 0.0):
            break
    return a, b, t[i]


def solve_theorem1(ctx: DriftContext) -> PrecoderDecision:
    """Closed-form drift-minimizing precoder (event-driven water-filling).

    Dormant iff theta - (t_i + E) > 0 for every stream, with the breakpoint
    t_i = ||AA^T|| (Lam_ii Pi_ii)^2 / (tau L^2).  Otherwise the water level
    is s* = max((theta - E)^+, s_E), with s_E the root of spend(s) = E, and
    beta = s* - (theta - E)^+: beta is 0 when the spend at (theta - E)^+
    fits in E and positive when the budget binds.  F* = (L/M) U_K Pi_K^{-1} Y^{1/2} S^T.
    """
    c, E, L, tau, theta = ctx.norm_AAT, ctx.E, ctx.L, ctx.tau, ctx.theta
    Lam, Pi_K = ctx.Lam.tolist(), ctx.Pi_K.tolist()
    t = []
    dormant = True
    for p, lam in zip(Pi_K, Lam):
        q = p * lam / L
        t_i = c * (q * q) / tau
        t.append(t_i)
        dormant = dormant and theta - (t_i + E) > ALLOC_TOL
    if dormant:
        return _dormant_decision(ctx)
    if E <= 0.0 or max(t) <= 0:
        # an empty battery pins F at zero; with Sigma = 0 every breakpoint is
        # 0 and no stream switches on
        return _dormant_decision(ctx, mode="active")

    # the walk finds s_E, clamped to the breakpoint of its last stream to
    # absorb round-off
    seabed = [1.0 / lam if lam > 0 else math.inf for lam in Lam]
    a_scale, b_scale = 0.5 * L * math.sqrt(c * tau), 0.5 * L**2 * tau
    a, b, t_last = _walk([a_scale / p for p in Pi_K],
                         [b_scale * sb / (p * p) for p, sb in zip(Pi_K, seabed)], t, E)
    s0 = max(theta - E, 0.0)
    s_star = max(min((a / (E + b)) ** 2, t_last), s0)
    level = math.sqrt(c / (s_star * tau))
    y = [0.5 * max((p / L) * level - sb, 0.0) for p, sb in zip(Pi_K, seabed)]
    gains = np.array([math.sqrt(y_i) / p for y_i, p in zip(y, Pi_K)])
    return PrecoderDecision(gains, ctx.S, L / ctx.M, ctx.U_K, "active", s_star - s0,
                            np.array(y))


def theorem1_allocations(Lam, Pi_K, E, L, theta: float, tau: float,
                         norm_AAT: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 1 over any leading axes, with no Python loop.

    Lam and Pi_K are (..., K); E and L broadcast against their leading axes;
    theta, tau and norm_AAT are scalars.  Each context takes the walk of
    `solve_theorem1` as one cumulative sum, with its branches as masks.
    Returns the per-stream allocations (..., K), beta (...) and the active
    flag (...) (mode == "active"); dormant, empty-battery and Sigma = 0
    contexts allocate 0.
    """
    E = np.asarray(E, dtype=float)[..., None]
    L = np.asarray(L, dtype=float)[..., None]
    shape = np.broadcast_shapes(np.shape(Lam), np.shape(Pi_K), E.shape, L.shape)
    Lam = np.broadcast_to(np.asarray(Lam, dtype=float), shape)
    Pi_K = np.broadcast_to(np.asarray(Pi_K, dtype=float), shape)
    c = norm_AAT
    t = _breakpoints(Lam, Pi_K, L, tau, c)
    active = ~np.all(theta - (t + E) > ALLOC_TOL, axis=-1)
    seabed = _seabed(Lam)
    s0 = np.maximum(theta - E, 0.0)
    # entries outside their own branch see 1/0, inf - inf and the like; the
    # masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        # walk the active sets in descending-breakpoint order
        order = _descending(t)
        t_sorted = np.take_along_axis(t, order, axis=-1)
        a, b = (np.cumsum(np.take_along_axis(w, order, axis=-1), axis=-1)
                for w in _walk_weights(Pi_K, L, tau, c, seabed))
        s = (a / (E + b)) ** 2
        # the first size whose candidate reaches the next breakpoint; the
        # last size always ends the walk (its breakpoint is 0)
        crossing = np.ones(shape, dtype=bool)
        crossing[..., :-1] = s[..., :-1] >= t_sorted[..., 1:]
        m = np.argmax(crossing, axis=-1)[..., None]
        s_star = np.maximum(np.minimum(np.take_along_axis(s, m, axis=-1),
                                       np.take_along_axis(t_sorted, m, axis=-1)), s0)
        y = _water_fill(s_star, Pi_K, L, tau, c, seabed)
    spends = active[..., None] & (E > 0.0) & (t_sorted[..., :1] > 0.0)
    y = np.where(spends, y, 0.0)
    beta = np.where(spends, s_star - s0, 0.0)
    return y, beta[..., 0], active


def decision_region_scan(model: PlantModel, limiter: LimiterParams, E: float,
                         h1: float, sigma1: float, h2_values, sigma2_values,
                         theta: float, tau: float) -> dict:
    """Count of activated spatial channels over a (h2, sigma2) grid.

    Stream 1 is held at (h1, sigma1); the scan reports, for each grid point,
    how many streams the drift-minimizing precoder switches on (0, 1 or 2)
    for a decoupled diagonal plant/channel.  The dynamic range is recomputed
    per point from Sigma = diag(sigma1, sigma2) with the ||B Psi|| variant
    used by the published decision-region plots.
    Rows index sigma2_values, columns index h2_values.
    """
    if not E >= 0:  # also rejects NaN
        raise InputDomainError(f"decision_region_scan: E must be >= 0, got {E}")
    if not (theta > 0 and tau > 0):
        raise InputDomainError(
            f"decision_region_scan: theta and tau must be > 0, got {theta} and {tau}")
    h2_values = np.asarray(h2_values, dtype=float)
    sigma2_values = np.asarray(sigma2_values, dtype=float)
    Lam = np.stack(np.broadcast_arrays(float(sigma1), sigma2_values), axis=-1)
    Pi_K = np.stack(np.broadcast_arrays(float(h1), h2_values), axis=-1)
    L = dynamic_range(model, limiter, Lam[:, :, None] * np.eye(2), gain_norm="BPsi")
    y, _, _ = theorem1_allocations(Lam[:, None, :], Pi_K[None, :, :], E, L[:, None],
                                   theta, tau, model.norm_AAT)
    return {"h2": h2_values, "sigma2": sigma2_values,
            "active_streams": np.count_nonzero(y > 0, axis=-1),
            "E": E, "theta": theta}


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def _wf_powers(pi: np.ndarray, budget: float, profile: str) -> list:
    """p_i = [gamma w_i - 1/pi_i]^+ with sum p_i = budget: w_i = 1 maximizes
    capacity, w_i = pi_i^{-1/2} minimizes the MSE."""
    pi = pi.tolist()
    if budget <= 0:
        return [0.0] * len(pi)
    capacity = profile == "capacity"
    w = [1.0] * len(pi) if capacity else [1.0 / math.sqrt(x) for x in pi]
    floors = [1.0 / x for x in pi]
    # stream i is active iff gamma w_i > 1/pi_i, and gamma = (budget+b)/a
    a, b, _ = _walk(w, floors, [x * x for x in pi] if capacity else pi, budget)
    gamma = (budget + b) / a
    p = [max(gamma * w_i - f, 0.0) for w_i, f in zip(w, floors)]
    if capacity:
        return p
    scale = budget / sum(p)  # exact MMSE budget
    return [x * scale for x in p]


def _baseline_decision(ctx: DriftContext, p: list) -> PrecoderDecision:
    """F = U_K diag(sqrt(p_i)) with p_i read as per-stream powers."""
    mode = "active" if sum(p) > 0 else "dormant"
    p = np.array(p)
    return PrecoderDecision(np.sqrt(p), _identity(len(p)), 1.0, ctx.U_K, mode, 0.0, p)


def baseline_capacity_wf(ctx: DriftContext) -> PrecoderDecision:
    """Baseline 1: capacity-maximizing water-filling over the full budget E."""
    budget = ctx.E / (ctx.M**2 * ctx.tau)
    return _baseline_decision(ctx, _wf_powers(ctx.Pi_K, budget, "capacity"))


def baseline_periodic_wf(ctx: DriftContext, period_slots: int) -> PrecoderDecision:
    """Baseline 2: Baseline 1 on every period_slots-th slot, silent otherwise."""
    if ctx.slot % period_slots != 0:
        return _dormant_decision(ctx)
    return baseline_capacity_wf(ctx)


def baseline_mmse_wf(ctx: DriftContext) -> PrecoderDecision:
    """Baseline 3: MSE-minimizing water-filling profile over the full budget."""
    budget = ctx.E / (ctx.M**2 * ctx.tau)
    return _baseline_decision(ctx, _wf_powers(ctx.Pi_K, budget, "mmse"))


def baseline_constant_power(ctx: DriftContext, mean_alpha: float,
                            profile: str = "capacity") -> PrecoderDecision:
    """Baselines 4/5: nominal budget E[alpha], clipped so the availability
    constraint is never violated."""
    if profile not in ("capacity", "mmse"):
        raise InputDomainError(f"baseline_constant_power: unknown profile {profile!r}")
    budget = min(mean_alpha, ctx.E) / (ctx.M**2 * ctx.tau)
    return _baseline_decision(ctx, _wf_powers(ctx.Pi_K, budget, profile))
