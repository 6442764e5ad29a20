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

Capacity and MMSE water-filling (the baselines) are the same eigenvalue
water-fill with other breakpoints and weights, so one active-set walk over
stacked contexts, `_active_set_walk`, inverts the budget equation for
Theorem 1 (`theorem1_allocations`) and for both baseline power profiles
(`_water_fill`).

Every policy is its stacked form, which decides a stack of P contexts in
one call: policy.stacked(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT,
slot) takes S (P, K, K), Lam and Pi_K (P, K) and E and L (P,), the rest
shared by the stack, and returns a `StackedDecision`.  A decision is the
per-stream factors of F = U_K diag(gains) basis^T, on the channel's K
leading right singular vectors U_K, which no context carries; Theorem 1's
gains carry its L/M.  The slot never forms F: it works in the K-stream
space on the real K x K stream factors F_s = diag(gains) basis^T, with
F = U_K F_s (see `sim`).  Called on one `DriftContext`, a policy decides
the one-context stack and returns a `PrecoderDecision`, with one str mode
and one float beta, which is what bench/tracing.py reads; `_per_context`
derives that call for every policy alike.  `bind` fixes a policy's own
parameters (the period, E[alpha], the power profile), as
`cli.policy_factory` does once per run.

On `run_slot`'s per-path route a slot builds one `DriftContext` and one
`PrecoderDecision` per path, so both are immutable NamedTuples, built
positionally: a frozen dataclass sets every field through
object.__setattr__, a fixed cost per record that a slot would pay per
path.  The L > 0 and E >= 0 checks of a context are `_check_ranges`, which
every stacked form also runs, so they cover both routes.
"""

import math
from functools import partial, reduce
from typing import NamedTuple

import numpy as np

from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError, identity
from .plant import PlantModel

ALLOC_TOL = 1e-12


def _check_ranges(E, L) -> None:
    """A context's checks, on one context's E and L or on (P,) stacks of
    them: the first path whose L is not > 0, or else whose E is not >= 0,
    raises.  The comparisons are negated, so NaN is rejected too."""
    valid = np.greater(L, 0.0) & np.greater_equal(E, 0.0)
    if not valid.all():
        if not np.ravel(L)[valid.argmin()] > 0.0:
            raise InputDomainError("DriftContext: L must be > 0")
        raise InputDomainError("DriftContext: E must be >= 0")


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
        _check_ranges(E, L)
        return tuple.__new__(cls, (S, Lam, Pi_K, E, theta, tau, M, L, norm_AAT, slot))

    @classmethod
    def _make(cls, iterable):
        # NamedTuple's _make, which _replace calls, would skip the checks
        return cls(*iterable)


class PrecoderDecision(NamedTuple):
    """A policy's precoder on one context in Theorem 1's factored form,
    F = U_K diag(gains) basis^T: Theorem 1 gives gains (L/M) sqrt(y_i)/Pi_ii
    and basis S; the baselines, and every decision whose gains are all
    zero, give the identity basis.
    """

    gains: np.ndarray  # (K,) per-stream amplitudes
    basis: np.ndarray  # (K, K)
    mode: str  # "dormant" | "active"
    beta: float
    allocations: np.ndarray  # (K,) per-stream allocations (diag of Y*)


class StackedDecision(NamedTuple):
    """A policy's precoders on a stack of P contexts, F = U_K diag(gains)
    basis^T per path."""

    gains: np.ndarray  # (P, K)
    basis: np.ndarray  # (P, K, K), or (1, K, K) shared by every path
    active: np.ndarray  # (P,) bool, mode == "active"
    beta: np.ndarray  # (P,)
    allocations: np.ndarray  # (P, K)


def _per_context(stacked):
    """The policy whose stacked form is `stacked`: called on one
    DriftContext, and on the policy's own parameters if it takes any, it
    decides the one-context stack and returns that decision."""
    def policy(ctx: DriftContext, *args, **params) -> PrecoderDecision:
        S, Lam, Pi_K, E, theta, tau, M, L, norm_AAT, slot = ctx
        gains, basis, active, beta, allocations = stacked(
            S[None], Lam[None], Pi_K[None], np.array([E]), np.array([L]), theta, tau,
            M, norm_AAT, slot, *args, **params)
        gains = gains[0]
        return PrecoderDecision(gains, basis[0] if gains.any() else identity(len(gains)),
                                "active" if active[0] else "dormant", float(beta[0]),
                                allocations[0])

    policy.stacked = stacked
    return policy


def _policy(decide):
    """Decorator: the policy whose stacked form is `decide` behind the
    context checks."""
    def stacked(S, Lam, Pi_K, E, L, *args, **params):
        _check_ranges(E, L)
        return decide(S, Lam, Pi_K, E, L, *args, **params)

    policy = _per_context(stacked)
    policy.__name__ = policy.__qualname__ = decide.__name__
    policy.__doc__ = decide.__doc__
    return policy


def bind(policy, **params):
    """`policy` with its own parameters fixed by keyword, as a policy whose
    stacked form takes nothing past the slot index."""
    return _per_context(partial(policy.stacked, **params))


def _seabed(Lam: np.ndarray) -> np.ndarray:
    """1/Lam_ii with zero eigenvalues mapped to an infinite seabed (so the
    allocation on that stream is forced to 0)."""
    return np.divide(1.0, Lam, np.full(Lam.shape, np.inf), where=Lam > 0.0)


def _descending(t: np.ndarray) -> np.ndarray:
    """Indices that sort the streams of t in descending order along its
    first axis, the later stream first on a tie.  The sort must be stable:
    NumPy's default sort does not keep ties in index order for 4 or more
    elements on every host."""
    return t.argsort(axis=0, kind="stable")[::-1]


def _streams_first(x, ndim: int) -> np.ndarray:
    """The float (..., K) array x as a contiguous stream-major (K, ...) copy
    with ndim axes, the missing leading context axes inserted as length 1."""
    x = np.asarray(x, dtype=float)[(None,) * (ndim - np.ndim(x))]
    return np.ascontiguousarray(x.transpose((-1, *range(ndim - 1))))


def _active_set_walk(terms: np.ndarray, budget) -> np.ndarray:
    """Active-set walk of a water-filling budget equation over a stack of
    contexts, with no Python loop over them.

    terms is a stream-major (3, K, ...) buffer of each stream's breakpoint
    t_i and walk weights a_i and b_i; budget broadcasts against its context
    axes.  Stream i switches on once the water parameter s falls below t_i,
    and on a fixed active set the budget equation a/sqrt(s) - b = budget
    has the root s = (a/(budget+b))^2, with a and b the sums of a_i and b_i
    over the set.  Streams switch on in descending t, the later stream
    first on a tie; the walk stops at the first set whose root is at or
    above the next t (0 after the last stream).  The spend is continuous
    and decreasing in s, so that root is the solution.  Returns the
    breakpoint of the last stream switched on and the sums a and b, stacked
    as one (3, ...) array.

    One flat index gathers the three terms sorted, and the walk loops over
    the K sorted positions, each step one operation over every context.  At
    a few contexts the cost is one fixed charge per NumPy call, so the walk
    makes few calls: the running sums are in place, and one np.where per
    size finds the stop, which costs less than an argmax across streams.
    """
    t = terms[0]
    # stream order[m] of context j of n sits at flat index order[m] * n + j
    n = t[0].size
    order = _descending(t) * n
    order += np.arange(n).reshape(t.shape[1:])
    walk = terms.reshape(3, -1).take(order, axis=1)
    ab = walk[1:]
    for m in range(1, len(t)):  # a and b become their running sums
        np.add(ab[:, m], ab[:, m - 1], ab[:, m])
    t_sorted, a, b = walk
    root = a / (budget + b)
    root *= root
    # the first size whose root reaches the next breakpoint, found from the
    # last size down (the last always ends the walk: its breakpoint is 0)
    stop = walk[:, -1]
    for m in range(len(t) - 2, -1, -1):
        stop = np.where(root[m] >= t_sorted[m + 1], walk[:, m], stop)
    return stop


def theorem1_allocations(Lam, Pi_K, E, L, theta: float, tau: float,
                         norm_AAT: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Theorem 1 over any leading axes, with no Python loop over contexts.

    Lam and Pi_K are (..., K); E and L broadcast against their leading axes;
    theta, tau and norm_AAT are scalars.  Returns the per-stream allocations
    (..., K), beta (...) and the active flag (...) (mode == "active");
    dormant, empty-battery and Sigma = 0 contexts allocate 0.

    Dormant iff theta - (t_i + E) > 0 for every stream, with the breakpoint
    t_i = ||AA^T|| (Lam_ii Pi_ii)^2 / (tau L^2), so only the largest
    breakpoint is read.  Otherwise the water level is
    s* = max((theta - E)^+, s_E), with s_E the root of spend(s) = E from
    the active-set walk, clamped to the breakpoint of its last stream to
    absorb round-off, and beta = s* - (theta - E)^+: beta is 0 when the
    spend at (theta - E)^+ fits in E and positive when the budget binds.

    The work runs stream-major, on (K, ...) copies of Lam and Pi_K, so E, L
    and the water level broadcast along contiguous context rows.  The
    breakpoints and walk weights share one buffer on the shape of Lam,
    Pi_K and L (E enters at the walk's root), and no reduction runs across
    streams but the largest breakpoint's.
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
        # a/sqrt(s) - b, with a and b the sums over the set
        q = Pi_K * Lam / L
        terms = np.empty((3, *q.shape))
        q *= q
        q *= norm_AAT
        t = np.divide(q, tau, terms[0])
        np.divide(0.5 * L * math.sqrt(norm_AAT * tau), Pi_K, terms[1])
        np.divide(0.5 * (L * L) * tau * seabed, Pi_K * Pi_K, terms[2])
        t_max = t.max(axis=0)
        t_last, a, b = _active_set_walk(terms, E)
        s_star = a / (E + b)
        s_star *= s_star
        s_star = np.minimum(s_star, t_last)
        s0 = np.maximum(theta - E, 0.0)
        s_star = np.maximum(s_star, s0)
        # y_i(s*) = (1/2)[(Pi_ii/L) sqrt(c/(s* tau)) - 1/Lam_ii]^+, c = ||AA^T||
        y = (Pi_K / L) * np.sqrt(norm_AAT / (s_star * tau))
        y -= seabed
        y = np.maximum(y, 0.0)
        y *= 0.5
    # a NaN breakpoint makes the context active, as it fails the test itself
    active = ~(theta - (t_max + E) > ALLOC_TOL)
    spends = active & (np.minimum(E, t_max) > 0.0)  # E > 0 and t_max > 0
    y = np.where(spends, y, 0.0)
    return (y.transpose((*range(1, y.ndim), 0)), np.where(spends, s_star - s0, 0.0),
            active)


@_policy
def solve_theorem1(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT,
                   slot=0) -> StackedDecision:
    """Closed-form drift-minimizing precoder (event-driven water-filling),
    F* = (L/M) U_K Pi_K^{-1} Y^{1/2} S^T: the gains (L/M) sqrt(y_i)/Pi_ii on
    the basis S, with the allocations y of `theorem1_allocations`."""
    y, beta, active = theorem1_allocations(Lam, Pi_K, E, L, theta, tau, norm_AAT)
    return StackedDecision((L / M)[:, None] * (np.sqrt(y) / Pi_K), S, active, beta, y)


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

def _water_fill(Pi_K: np.ndarray, budget: np.ndarray, profile: str) -> StackedDecision:
    """F = U_K diag(sqrt(p_i)) per path, with the powers
    p_i = [gamma w_i - 1/pi_i]^+ and sum_i p_i = budget over a (P, K) stack
    of channel gains and (P,) budgets: w_i = 1 maximizes capacity,
    w_i = pi_i^{-1/2} minimizes the MSE.  An empty budget sends nothing."""
    pi = Pi_K.T
    terms = np.empty((3, *pi.shape))
    t, w, floors = terms
    # stream i is active iff gamma w_i > 1/pi_i, with gamma = (budget+b)/a for
    # the sums a of w_i and b of 1/pi_i over the active set
    if profile == "capacity":
        np.multiply(pi, pi, t)
        w.fill(1.0)
    else:
        t[...] = pi
        np.divide(1.0, np.sqrt(pi), w)
    np.divide(1.0, pi, floors)
    _, a, b = _active_set_walk(terms, budget)
    p = (budget + b) / a * w
    p -= floors
    p = np.maximum(p, 0.0)
    if profile == "mmse":
        # the exact budget, the streams summed one by one in order at any K
        # and P (NumPy's sum would pair them up from 8 streams on); an empty
        # budget may see 0/0 here, which the mask below drops
        with np.errstate(invalid="ignore"):
            p *= budget / reduce(np.add, p)
    p = np.where(budget > 0.0, p, 0.0).T
    return StackedDecision(np.sqrt(p), identity(len(pi))[None], (p > 0.0).any(axis=1),
                           np.zeros(len(p)), p)


@_policy
def baseline_capacity_wf(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT,
                         slot=0) -> StackedDecision:
    """Baseline 1: capacity-maximizing water-filling over the full budget E."""
    return _water_fill(Pi_K, E / (M**2 * tau), "capacity")


@_policy
def baseline_periodic_wf(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT, slot,
                         period_slots: int) -> StackedDecision:
    """Baseline 2: Baseline 1 on every period_slots-th slot, silent
    otherwise."""
    if slot % period_slots == 0:
        return _water_fill(Pi_K, E / (M**2 * tau), "capacity")
    P, K = Pi_K.shape
    return StackedDecision(np.zeros((P, K)), identity(K)[None], np.zeros(P, dtype=bool),
                           np.zeros(P), np.zeros((P, K)))


@_policy
def baseline_mmse_wf(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT,
                     slot=0) -> StackedDecision:
    """Baseline 3: MSE-minimizing water-filling profile over the full budget."""
    return _water_fill(Pi_K, E / (M**2 * tau), "mmse")


@_policy
def baseline_constant_power(S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT, slot,
                            mean_alpha: float,
                            profile: str = "capacity") -> StackedDecision:
    """Baselines 4/5: nominal budget E[alpha], clipped so the availability
    constraint is never violated."""
    if profile not in ("capacity", "mmse"):
        raise InputDomainError(f"baseline_constant_power: unknown profile {profile!r}")
    return _water_fill(Pi_K, np.minimum(mean_alpha, E) / (M**2 * tau), profile)
