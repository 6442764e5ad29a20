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
stacked contexts as running sums over the sorted streams.  A policy does
not form its precoder: it returns the per-stream factors of F = scale U_K
diag(gains) basis^T, on the channel's K leading right singular vectors
U_K, which no context carries.  The slot never forms F: it gathers every
path's real K x K stream factors F_s = scale diag(gains) basis^T, with
F = U_K F_s, and works in the K-stream space (see `sim`).

The per-stream terms (the breakpoints, the walk weights, the water fill
and `_seabed`) are NumPy expressions in `theorem1_allocations`, which runs
stream-major, on (K, ...) arrays, so that each operation spans every
context: a 50 x 50 region scan takes 0.18-0.19 ms, against 0.53-0.55 ms
in the (..., K) layout with `take_along_axis` (timeit minima, 2-CPU
x86-64 host, NumPy 2.4.6).  One context has only K values, so the
per-context solvers (`solve_theorem1` and the baselines' `_wf_powers`)
restate those terms on Python floats after one `.tolist()` and share the
float walk `_walk`.  Python float arithmetic
is IEEE double, as NumPy's float64 is, and the floats keep NumPy's
evaluation order, so the results are the same bits at a fraction of the
per-element dispatch cost.  A per-stream square is written x * x, which is
what NumPy's ** 2 computes on an array.  The squares of the scalars L and
a/(E+b) are Python's ** 2, which is libm pow and rounds differently from
x * x about once in a thousand, so the two spellings are not
interchangeable here.  `solve_theorem1` unpacks its context once, and it
and `_wf_powers` make one plain pass per stage over the streams (the
breakpoints, then the walk's terms, then the allocations), not one
comprehension per term; tests/oracles.py keeps the comprehension form, and
the tests require the same bits from both.  With its clamps written as
conditionals, this cut `solve_theorem1` by 28%, from 6.1-6.8 to 4.4-5.0 us
per context, on a 2-CPU x86-64 host with Python 3.11 (four runs, each the
median of 12 interleaved rounds over 400 closed-loop contexts of the
reference).

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

    def __new__(cls, S, Lam, Pi_K, E, theta, tau, M, L, norm_AAT, slot=0):
        # negated comparisons also reject NaN
        if not L > 0:
            raise InputDomainError("DriftContext: L must be > 0")
        if not E >= 0:
            raise InputDomainError("DriftContext: E must be >= 0")
        return tuple.__new__(cls, (S, Lam, Pi_K, E, theta, tau, M, L, norm_AAT, slot))

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)


class PrecoderDecision(NamedTuple):
    """A policy's precoder in Theorem 1's factored form,
    F = scale U_K diag(gains) basis^T: Theorem 1 gives gains sqrt(y_i)/Pi_ii,
    basis S and scale L/M; the baselines and dormant decisions give the
    identity basis and scale 1.
    """

    gains: np.ndarray  # (K,) per-stream amplitudes
    basis: np.ndarray  # (K, K)
    scale: float
    mode: str  # "dormant" | "active"
    beta: float
    allocations: np.ndarray  # (K,) per-stream allocations (diag of Y*)


@cache
def _identity(K: int) -> np.ndarray:
    eye = np.eye(K)
    eye.flags.writeable = False  # shared by every decision with this K
    return eye


def _dormant_decision(ctx: DriftContext, mode: str = "dormant") -> PrecoderDecision:
    K = len(ctx.Pi_K)
    return PrecoderDecision(np.zeros(K), _identity(K), 1.0, mode, 0.0, np.zeros(K))


def _seabed(Lam: np.ndarray) -> np.ndarray:
    """1/Lam_ii with zero eigenvalues mapped to an infinite seabed (so the
    allocation on that stream is forced to 0)."""
    return np.divide(1.0, Lam, out=np.full(np.shape(Lam), np.inf), where=Lam > 0)


def _descending(t: np.ndarray) -> np.ndarray:
    """Indices that sort the streams of t in descending order along its
    first axis, the later stream first on a tie, as `_walk` orders them.
    The sort must be stable: NumPy's default sort does not keep ties in
    index order for 4 or more elements on every host."""
    return np.argsort(t, axis=0, kind="stable")[::-1]


def _streams_first(x, ndim: int) -> np.ndarray:
    """The float (..., K) array x as a contiguous stream-major (K, ...) copy
    with ndim axes, the missing leading context axes inserted as length 1."""
    x = np.asarray(x, dtype=float)[(None,) * (ndim - np.ndim(x))]
    return np.ascontiguousarray(x.transpose((-1, *range(ndim - 1))))


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
    S, Lam, Pi_K, E, theta, tau, M, L, c, _ = ctx
    Lam, Pi_K = Lam.tolist(), Pi_K.tolist()
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
    a_scale, b_scale = 0.5 * L * math.sqrt(c * tau), 0.5 * L**2 * tau
    seabed, a_terms, b_terms = [], [], []
    for p, lam in zip(Pi_K, Lam):
        sb = 1.0 / lam if lam > 0 else math.inf
        seabed.append(sb)
        a_terms.append(a_scale / p)
        b_terms.append(b_scale * sb / (p * p))
    a, b, t_last = _walk(a_terms, b_terms, t, E)
    # max(x, m) is x unless m > x and min(x, m) is x unless m < x, NaN and
    # signed zeros included; the conditionals skip a builtin call per use
    s0 = theta - E
    s0 = 0.0 if 0.0 > s0 else s0
    s_star = (a / (E + b)) ** 2
    s_star = t_last if t_last < s_star else s_star
    s_star = s0 if s0 > s_star else s_star
    level = math.sqrt(c / (s_star * tau))
    y, gains = [], []
    for p, sb in zip(Pi_K, seabed):
        y_i = (p / L) * level - sb
        y_i = 0.5 * (0.0 if 0.0 > y_i else y_i)
        y.append(y_i)
        gains.append(math.sqrt(y_i) / p)
    return PrecoderDecision(np.array(gains), S, L / M, "active", s_star - s0, np.array(y))


def theorem1_allocations(Lam, Pi_K, E, L, theta: float, tau: float,
                         norm_AAT: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 1 over any leading axes, with no Python loop over contexts.

    Lam and Pi_K are (..., K); E and L broadcast against their leading axes;
    theta, tau and norm_AAT are scalars.  Each context takes the walk of
    `solve_theorem1` as running sums over its sorted streams, with its
    branches as masks.  Returns the per-stream allocations (..., K), beta
    (...) and the active flag (...) (mode == "active"); dormant,
    empty-battery and Sigma = 0 contexts allocate 0.

    The work runs stream-major, on (K, ...) copies of Lam and Pi_K, so E, L
    and the water level broadcast along contiguous context rows and each
    per-stream term keeps its own broadcast shape.  The sorted breakpoints
    and walk weights are gathered by one flat index, and the walk loops
    over the K sorted positions, each step one operation over every
    context.  The operations on each value are those of the float walk, in
    its order, so the results are the same bits at any layout.
    """
    E, L = np.asarray(E, dtype=float), np.asarray(L, dtype=float)
    ndim = max(np.ndim(Lam), np.ndim(Pi_K), E.ndim + 1, L.ndim + 1)
    Lam, Pi_K = _streams_first(Lam, ndim), _streams_first(Pi_K, ndim)
    seabed = _seabed(Lam)
    # the breakpoints t_i: stream i is active iff the water level s is below t_i
    t = norm_AAT * (Pi_K * Lam / L) ** 2 / tau
    active = ~(theta - (t + E) > ALLOC_TOL).all(axis=0)
    s0 = np.maximum(theta - E, 0.0)
    # entries outside their own branch see 1/0, inf - inf and the like; the
    # masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        # t and the walk weights a_i, b_i on the full shape: on a fixed active
        # set the budget L^2 tau sum_i y_i(s) / Pi_ii^2 is a/sqrt(s) - b, with
        # a and b the sums over the set (math.sqrt and np.sqrt both round
        # correctly)
        terms = np.empty((3, *np.broadcast(t, E).shape))
        terms[0] = t
        terms[1] = 0.5 * L * math.sqrt(norm_AAT * tau) / Pi_K
        terms[2] = 0.5 * L**2 * tau * seabed / Pi_K**2
        # walk the active sets in descending-breakpoint order: stream order[m]
        # of context j of n sits at flat index order[m] * n + j
        contexts = np.arange(terms[0, 0].size).reshape(terms.shape[2:])
        order = _descending(terms[0]) * contexts.size + contexts
        t_sorted, a, b = walk = terms.reshape(3, -1).take(order, axis=1)
        for m in range(1, len(a)):  # a and b become their running sums
            walk[1:, m] += walk[1:, m - 1]
        s = (a / (E + b)) ** 2
        # the first size whose candidate reaches the next breakpoint, found
        # from the last size down (the last always ends the walk: its
        # breakpoint is 0); one np.where per size costs less than an argmax
        # across the stream axis
        capped = np.minimum(s, t_sorted)
        s_star = capped[-1]
        for m in range(len(s) - 2, -1, -1):
            s_star = np.where(s[m] >= t_sorted[m + 1], capped[m], s_star)
        s_star = np.maximum(s_star, s0)
        # y_i(s*) = (1/2)[(Pi_ii/L) sqrt(c/(s* tau)) - 1/Lam_ii]^+, c = ||AA^T||
        y = 0.5 * np.maximum((Pi_K / L) * np.sqrt(norm_AAT / (s_star * tau)) - seabed, 0.0)
    spends = active & (E > 0.0) & (t_sorted[0] > 0.0)
    return (np.where(spends, y, 0.0).transpose((*range(1, y.ndim), 0)),
            np.where(spends, s_star - s0, 0.0), active)


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
    # stream i is active iff gamma w_i > 1/pi_i, and gamma = (budget+b)/a
    w, floors, t = [], [], []
    for x in pi:
        w.append(1.0 if capacity else 1.0 / math.sqrt(x))
        floors.append(1.0 / x)
        t.append(x * x if capacity else x)
    a, b, _ = _walk(w, floors, t, budget)
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
    return PrecoderDecision(np.sqrt(p), _identity(len(p)), 1.0, mode, 0.0, p)


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
