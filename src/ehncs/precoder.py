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
not form its precoder: it returns the per-stream factors of F = U_K
diag(gains) basis^T, on the channel's K leading right singular vectors
U_K, which no context carries; Theorem 1's gains carry its L/M.  The slot
never forms F: it works in the K-stream space on the real K x K stream
factors F_s = diag(gains) basis^T, with F = U_K F_s (see `sim`).
`solve_theorem1.stacked` gives them for a whole slot from one
`theorem1_allocations` call, and `run_slot` calls it in place of one
`solve_theorem1` call per path; the two give the same F_s up to the sign
of a silent path's zeros, and a run the same bytes.

The per-stream terms (the breakpoints, the walk weights, the water fill
and `_seabed`) are NumPy expressions in `theorem1_allocations`, which runs
stream-major, on (K, ...) arrays, so that each operation spans every
context rather than gathering K values per context with
`take_along_axis`.  One context has only K values, so the
per-context solvers (`solve_theorem1` and the baselines' `_wf_powers`)
restate those terms on Python floats after one `.tolist()` and share the
float walk `_walk`.  Python float arithmetic
is IEEE double, as NumPy's float64 is, and the floats keep NumPy's
evaluation order, so the results are the same bits at a fraction of the
per-element dispatch cost.  Every square is written x * x, the correctly
rounded product that NumPy's ** 2 computes on an array: the per-stream
squares, L^2 and the walk's root (a/(E+b))^2.  Python's ** 2 on a float
calls libm pow, which rounds differently about once in 1200 squares, so
spelling one of them ** 2 would part the per-path route from the stacked
one.  `solve_theorem1` unpacks its context once, and it
and `_wf_powers` make one plain pass per stage over the streams (the
breakpoints, then the walk's terms, then the allocations), not one
comprehension per term; tests/oracles.py keeps the baselines'
comprehension form and the stacked walk's earlier form, and the tests
require their bits; the clamps are conditionals, which skip a builtin call
per use.

On the per-path route a slot builds one `DriftContext` and one
`PrecoderDecision` per path, so both are immutable NamedTuples, built
positionally: a frozen dataclass sets every field through
object.__setattr__, a fixed cost per record that a slot would pay per
path.  CHANGES.md holds the timings behind these choices.
`DriftContext.__new__` keeps the L > 0 and E >= 0 checks, which the
stacked form repeats, and both records still take keywords.  Every policy
is still callable on one context, returning one scalar mode and beta,
which is what bench/tracing.py reads: its traced wrapper carries no
stacked form, so a traced run takes the per-path route.
"""

import math
from typing import NamedTuple

import numpy as np

from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError, identity
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
    F = U_K diag(gains) basis^T: Theorem 1 gives gains (L/M) sqrt(y_i)/Pi_ii
    and basis S; the baselines and dormant decisions give the identity basis.
    """

    gains: np.ndarray  # (K,) per-stream amplitudes
    basis: np.ndarray  # (K, K)
    mode: str  # "dormant" | "active"
    beta: float
    allocations: np.ndarray  # (K,) per-stream allocations (diag of Y*)


def _dormant_decision(ctx: DriftContext, mode: str = "dormant") -> PrecoderDecision:
    K = len(ctx.Pi_K)
    return PrecoderDecision(np.zeros(K), identity(K), mode, 0.0, np.zeros(K))


def _seabed(Lam: np.ndarray) -> np.ndarray:
    """1/Lam_ii with zero eigenvalues mapped to an infinite seabed (so the
    allocation on that stream is forced to 0)."""
    return np.divide(1.0, Lam, np.full(Lam.shape, np.inf), where=Lam > 0.0)


def _descending(t: np.ndarray) -> np.ndarray:
    """Indices that sort the streams of t in descending order along its
    first axis, the later stream first on a tie, as `_walk` orders them.
    The sort must be stable: NumPy's default sort does not keep ties in
    index order for 4 or more elements on every host."""
    return t.argsort(axis=0, kind="stable")[::-1]


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
        root = a / (budget + b)
        if root * root >= (t[order[m + 1]] if m + 1 < len(t) else 0.0):
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
    a_scale, b_scale = 0.5 * L * math.sqrt(c * tau), 0.5 * (L * L) * tau
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
    s_star = a / (E + b)
    s_star *= s_star
    s_star = t_last if t_last < s_star else s_star
    s_star = s0 if s0 > s_star else s_star
    level = math.sqrt(c / (s_star * tau))
    scale = L / M
    y, gains = [], []
    for p, sb in zip(Pi_K, seabed):
        y_i = (p / L) * level - sb
        y_i = 0.5 * (0.0 if 0.0 > y_i else y_i)
        y.append(y_i)
        gains.append(scale * (math.sqrt(y_i) / p))
    return PrecoderDecision(np.array(gains), S, "active", s_star - s0, np.array(y))


def _solve_theorem1_stacked(S, Lam, Pi_K, E, L, theta: float, tau: float, M: float,
                            norm_AAT: float) -> tuple[np.ndarray, np.ndarray]:
    """`solve_theorem1` over a stack of P contexts in one
    `theorem1_allocations` call: S (P, K, K), Lam and Pi_K (P, K), E and L
    (P,).  Returns the stream factors F_s = (L/M) diag(sqrt(y)/Pi_K) S^T
    (P, K, K) and the active flags (P,): the F_s and modes that `run_slot`
    gathers from `solve_theorem1`'s decisions, equal as numbers (a silent
    path's zeros carry the signs of S, not of the identity).  The stack
    must not hold a context that DriftContext rejects: the first such path
    raises DriftContext's error."""
    valid = (L > 0.0) & (E >= 0.0)
    if not valid.all():
        p = int(np.argmin(valid))
        DriftContext(S[p], Lam[p], Pi_K[p], E[p], theta, tau, M, L[p], norm_AAT)
    y, _, active = theorem1_allocations(Lam, Pi_K, E, L, theta, tau, norm_AAT)
    gains = (L / M)[:, None] * (np.sqrt(y) / Pi_K)
    return gains[:, :, None] * S.swapaxes(1, 2), active


solve_theorem1.stacked = _solve_theorem1_stacked


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
    and the water level broadcast along contiguous context rows.  The
    breakpoints and walk weights share one buffer on the shape of Lam,
    Pi_K and L (E enters at the walk's root), so one flat index gathers
    them sorted, and the walk loops over the K sorted positions, each step
    one operation over every context.  The operations on each value are
    those of the float walk, in its order, so the results are the same bits
    at any layout.  At a few contexts the cost is one fixed charge per
    NumPy call, so the function makes few calls: in-place arithmetic, no
    reduction across streams, and no mask it can do without.
    """
    E, L = np.asarray(E, dtype=float), np.asarray(L, dtype=float)
    ndim = max(np.ndim(Lam), np.ndim(Pi_K), E.ndim + 1, L.ndim + 1)
    Lam, Pi_K = _streams_first(Lam, ndim), _streams_first(Pi_K, ndim)
    seabed = _seabed(Lam)
    # entries outside their own branch see 1/0, inf - inf and the like; the
    # masks below drop them
    with np.errstate(divide="ignore", invalid="ignore"):
        # the breakpoints t_i (stream i is active iff the water level s is
        # below t_i) and the walk weights a_i, b_i, in one buffer: on a fixed
        # active set the budget L^2 tau sum_i y_i(s) / Pi_ii^2 is
        # a/sqrt(s) - b, with a and b the sums over the set (math.sqrt and
        # np.sqrt both round correctly)
        q = Pi_K * Lam / L
        terms = np.empty((3, *q.shape))
        q *= q
        q *= norm_AAT
        t = np.divide(q, tau, terms[0])
        np.divide(0.5 * L * math.sqrt(norm_AAT * tau), Pi_K, terms[1])
        np.divide(0.5 * (L * L) * tau * seabed, Pi_K * Pi_K, terms[2])
        # walk the active sets in descending-breakpoint order: stream order[m]
        # of context j of n sits at flat index order[m] * n + j
        n = t[0].size
        order = _descending(t) * n
        order += np.arange(n).reshape(t.shape[1:])
        t_sorted, a, b = walk = terms.reshape(3, -1).take(order, axis=1)
        ab = walk[1:]
        for m in range(1, len(a)):  # a and b become their running sums
            np.add(ab[:, m], ab[:, m - 1], ab[:, m])
        s = a / (E + b)
        s *= s
        # the first size whose candidate reaches the next breakpoint, found
        # from the last size down (the last always ends the walk: its
        # breakpoint is 0); one np.where per size costs less than an argmax
        # across the stream axis
        capped = np.minimum(s, t_sorted)
        s_star = capped[-1]
        for m in range(len(s) - 2, -1, -1):
            s_star = np.where(s[m] >= t_sorted[m + 1], capped[m], s_star)
        s0 = np.maximum(theta - E, 0.0)
        s_star = np.maximum(s_star, s0)
        # y_i(s*) = (1/2)[(Pi_ii/L) sqrt(c/(s* tau)) - 1/Lam_ii]^+, c = ||AA^T||
        y = (Pi_K / L) * np.sqrt(norm_AAT / (s_star * tau))
        y -= seabed
        y = np.maximum(y, 0.0)
        y *= 0.5
    # every stream is dormant iff the largest breakpoint is (a NaN one sorts
    # first and makes the context active, as it fails the test itself)
    t_max = t_sorted[0]
    active = ~(theta - (t_max + E) > ALLOC_TOL)
    spends = active & (np.minimum(E, t_max) > 0.0)  # E > 0 and t_max > 0
    y = np.where(spends, y, 0.0)
    return (y.transpose((*range(1, y.ndim), 0)), np.where(spends, s_star - s0, 0.0),
            active)


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
    L = dynamic_range(model, limiter, Lam.sum(axis=-1), gain_norm="BPsi")
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
    return PrecoderDecision(np.sqrt(p), identity(len(p)), mode, 0.0, p)


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
