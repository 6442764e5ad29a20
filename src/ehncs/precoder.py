"""Drift-minimizing event-driven water-filling precoder and the baselines.

The proposed policy solves, per slot, the drift minimization

    min_F  M^2 Tr(F^H F) tau (theta - E)
           + (||A A^T|| / 2) Tr(2 (M/L)^2 Re{F^H H^H H F} + Sigma^{-1})^{-1}
    s.t.   M^2 Tr(F^H F) tau <= E

whose solution diagonalizes in the channel's right singular basis and the
covariance eigenbasis: per-stream allocations follow a water-filling rule
with water level set by (channel gain, stored energy) and seabed level set
by the per-stream estimation error.  A positive-definiteness test on the
threshold matrix decides dormant vs active mode before any allocation.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError, SvdResult, bisect

ALLOC_TOL = 1e-12


@dataclass(frozen=True)
class DriftContext:
    """Per-slot state the precoding policies consume."""

    S: np.ndarray  # (K, K) covariance eigenbasis
    Lam: np.ndarray  # (K,) covariance eigenvalues, descending
    svd: SvdResult  # channel decomposition H = V Pi U^H
    Pi_K: np.ndarray  # (K,) leading channel singular values, descending
    E: float
    theta: float
    tau: float
    M: float
    L: float  # limiter dynamic range L(Sigma)
    norm_AAT: float  # spectral norm of A A^T
    eps: float = 0.0  # limiter saturation target (drift diagnostics only)
    slot: int = 0  # slot index (periodic baseline only)

    def __post_init__(self):
        if self.L <= 0:
            raise InputDomainError("DriftContext: L must be > 0")
        if self.E < 0:
            raise InputDomainError("DriftContext: E must be >= 0")


@dataclass(frozen=True)
class PrecoderDecision:
    F: np.ndarray  # (N_s, K) complex
    mode: str  # "dormant" | "active"
    beta: float
    allocations: np.ndarray  # (K,) per-stream allocations (diag of Y*)
    energy_used: float  # M^2 Tr(F^H F) tau


def _n_s(ctx: DriftContext) -> int:
    return ctx.svd.U.shape[0]


def _dormant_decision(ctx: DriftContext, mode: str = "dormant") -> PrecoderDecision:
    K = len(ctx.Pi_K)
    return PrecoderDecision(
        F=np.zeros((_n_s(ctx), K), dtype=complex), mode=mode, beta=0.0,
        allocations=np.zeros(K), energy_used=0.0,
    )


def _seabed(Lam: np.ndarray) -> np.ndarray:
    """1/Lam_ii with zero eigenvalues mapped to an infinite seabed (so the
    allocation on that stream is forced to 0)."""
    with np.errstate(divide="ignore"):
        return np.where(Lam > 0, 1.0 / np.where(Lam > 0, Lam, 1.0), np.inf)


def _alloc(ctx: DriftContext, s: float, seabed: np.ndarray | None = None) -> np.ndarray:
    """Per-stream allocations Y_ii(s) = (1/2)[ (Pi_ii/L) sqrt(c/(s tau)) - 1/Lam_ii ]^+
    at effective water parameter s = [theta-E]^+ + beta."""
    if seabed is None:
        seabed = _seabed(ctx.Lam)
    water = (ctx.Pi_K / ctx.L) * np.sqrt(ctx.norm_AAT / (s * ctx.tau))
    return 0.5 * np.maximum(water - seabed, 0.0)


def _energy_of_alloc(ctx: DriftContext, y: np.ndarray) -> float:
    """M^2 Tr(F^H F) tau for the assembled precoder = L^2 tau sum y_i / Pi_ii^2."""
    return float(ctx.L**2 * ctx.tau * np.sum(y / ctx.Pi_K**2))


def _assemble(ctx: DriftContext, y: np.ndarray, beta: float, mode: str) -> PrecoderDecision:
    """F* = (L/M) U [ Pi_K^{-1} Y^{1/2} S^T ; 0 ]."""
    K = len(ctx.Pi_K)
    top = (np.sqrt(y) / ctx.Pi_K)[:, None] * ctx.S.T  # Pi_K^{-1} Y^{1/2} S^T
    block = np.zeros((_n_s(ctx), K))
    block[:K, :] = top
    F = (ctx.L / ctx.M) * (ctx.svd.U @ block)
    return PrecoderDecision(F=F, mode=mode, beta=beta, allocations=y,
                            energy_used=_energy_of_alloc(ctx, y))


def solve_theorem1(ctx: DriftContext) -> PrecoderDecision:
    """Closed-form drift-minimizing precoder (event-driven water-filling).

    Dormant iff theta - (||AA^T|| (Lam_ii Pi_ii)^2 / (tau L^2) + E) > 0 for
    every stream; otherwise allocations follow the water-filling rule with
    beta = 0 when the budget is slack and beta > 0 (bisection) when binding.
    """
    K = len(ctx.Pi_K)
    thresholds = ctx.theta - (ctx.norm_AAT * (ctx.Lam * ctx.Pi_K) ** 2
                              / (ctx.tau * ctx.L**2) + ctx.E)
    if np.all(thresholds > ALLOC_TOL):
        return _dormant_decision(ctx)

    if ctx.E <= 0.0:
        # active mode with an empty battery: the budget pins F at zero
        return _dormant_decision(ctx, mode="active")

    seabed = _seabed(ctx.Lam)
    s0 = max(ctx.theta - ctx.E, 0.0)
    if s0 > 0.0:
        y0 = _alloc(ctx, s0, seabed)
        if _energy_of_alloc(ctx, y0) < ctx.E:
            return _assemble(ctx, y0, beta=0.0, mode="active")

    # Budget binds: solve energy(s) = E exactly.  Stream i is active iff
    # s < t_i = c (Pi_ii Lam_ii / L)^2 / tau, and on a fixed active set
    # energy(s) = a/sqrt(s) - b, so each candidate interval inverts in
    # closed form.  Walk intervals from large s (few streams) downward.
    t = ctx.norm_AAT * (ctx.Pi_K * ctx.Lam / ctx.L) ** 2 / ctx.tau
    order = np.argsort(t)[::-1]  # activation order as s decreases
    half_sqrt = 0.5 * ctx.L * np.sqrt(ctx.norm_AAT * ctx.tau) / ctx.Pi_K  # a_i terms
    half_seabed = 0.5 * ctx.L**2 * ctx.tau * seabed / ctx.Pi_K**2  # b_i terms
    a = b = 0.0
    s_star = None
    for m, i in enumerate(order):
        if t[i] <= 0:
            break
        a += half_sqrt[i]
        b += half_seabed[i]
        s_cand = (a / (ctx.E + b)) ** 2
        upper = t[i]
        lower = t[order[m + 1]] if m + 1 < len(order) else 0.0
        if lower <= s_cand <= upper:
            s_star = s_cand
            break
    if s_star is None or s_star < s0:
        # fall back to bisection (degenerate ties / round-off at interval edges)
        def gap(s):
            return _energy_of_alloc(ctx, _alloc(ctx, s, seabed)) - ctx.E

        lo = max(s0, 1e-300)
        hi = float(t.max())
        if hi <= lo or gap(lo) < 0:
            # battery cannot be emptied above s0: spend all we can at s0
            return _assemble(ctx, _alloc(ctx, lo, seabed), beta=0.0, mode="active")
        s_star = bisect(gap, lo, hi, tol=1e-12 * max(ctx.E, 1.0))
    y = _alloc(ctx, s_star, seabed)
    return _assemble(ctx, y, beta=s_star - s0, mode="active")


def kkt_residual(ctx: DriftContext, decision: PrecoderDecision) -> float:
    """Max violation of the diagonalized KKT system for the decision.

    Checks primal feasibility, multiplier sign, complementary slackness and
    per-stream stationarity of the water-filling problem; each stationarity
    residual is normalized by the magnitude of its terms.
    """
    if decision.mode == "dormant":
        return 0.0
    y = decision.allocations
    energy = decision.energy_used
    s = max(ctx.theta - ctx.E, 0.0) + decision.beta
    nu = s - (ctx.theta - ctx.E)  # multiplier of the budget constraint

    residuals = [max(0.0, (energy - ctx.E) / max(ctx.E, 1.0)),  # primal
                 max(0.0, -nu)]  # dual feasibility
    if decision.beta > 0:
        residuals.append(abs(energy - ctx.E) / max(ctx.E, 1.0))  # comp. slack
    if s > 0:
        c = ctx.norm_AAT
        a_i = ctx.L**2 * ctx.tau / ctx.Pi_K**2  # budget weights
        seabed = _seabed(ctx.Lam)
        # stationarity: a_i s = c / (2 y_i + 1/Lam_i)^2 on active streams
        term1 = a_i * s
        with np.errstate(over="ignore"):
            term2 = np.where(np.isinf(seabed), 0.0, c * (2.0 * y + seabed) ** -2.0)
        scale = np.maximum(1.0, np.maximum(np.abs(term1), np.abs(term2)))
        station = (term1 - term2) / scale
        for i in range(len(y)):
            if y[i] > ALLOC_TOL:
                residuals.append(abs(station[i]))
            else:
                residuals.append(max(0.0, -station[i]))  # derivative >= 0 at 0
    return float(max(residuals))


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def _wf_capacity_powers(pi: np.ndarray, budget: float) -> np.ndarray:
    """p_i = [gamma - 1/pi_i]^+ with sum p_i = budget."""
    if budget <= 0:
        return np.zeros_like(pi)
    floors = 1.0 / pi
    gamma = _water_level(floors, budget)
    return np.maximum(gamma - floors, 0.0)


def _wf_mmse_powers(pi: np.ndarray, budget: float) -> np.ndarray:
    """p_i = [gamma / sqrt(pi_i) - 1/pi_i]^+ with sum p_i = budget."""
    if budget <= 0:
        return np.zeros_like(pi)
    inv_sqrt = 1.0 / np.sqrt(pi)
    floors = 1.0 / pi
    # stream i active iff gamma > 1/sqrt(pi_i); walk active sets in
    # descending-pi order and invert the budget equation exactly
    order = np.argsort(pi)[::-1]
    for m in range(1, len(pi) + 1):
        idx = order[:m]
        gamma = (budget + floors[idx].sum()) / inv_sqrt[idx].sum()
        if m == len(pi) or gamma * np.sqrt(pi[order[m]]) <= 1.0:
            p = np.maximum(gamma * inv_sqrt - floors, 0.0)
            return p * (budget / p.sum())  # exact budget despite round-off
    raise RuntimeError("unreachable")


def _water_level(floors: np.ndarray, budget: float) -> float:
    """Exact capacity water level: gamma with sum [gamma - floor_i]^+ = budget."""
    order = np.sort(floors)
    k = len(order)
    for m in range(1, k + 1):
        gamma = (budget + order[:m].sum()) / m
        if m == k or gamma <= order[m]:
            return float(gamma)
    raise RuntimeError("unreachable")


def _baseline_decision(ctx: DriftContext, p: np.ndarray) -> PrecoderDecision:
    """F = U [ diag(sqrt(p_i)) ; 0 ] with p_i read as per-stream powers."""
    K = len(ctx.Pi_K)
    block = np.zeros((_n_s(ctx), K))
    block[:K, :K] = np.diag(np.sqrt(p))
    F = (ctx.svd.U @ block).astype(complex)
    energy = float(ctx.M**2 * p.sum() * ctx.tau)
    mode = "active" if p.sum() > 0 else "dormant"
    return PrecoderDecision(F=F, mode=mode, beta=0.0, allocations=p, energy_used=energy)


def baseline_capacity_wf(ctx: DriftContext) -> PrecoderDecision:
    """Baseline 1: capacity-maximizing water-filling over the full budget E."""
    budget = ctx.E / (ctx.M**2 * ctx.tau)
    return _baseline_decision(ctx, _wf_capacity_powers(ctx.Pi_K, budget))


def baseline_periodic_wf(ctx: DriftContext, period_slots: int) -> PrecoderDecision:
    """Baseline 2: Baseline 1 on every period_slots-th slot, silent otherwise."""
    if ctx.slot % period_slots != 0:
        return _dormant_decision(ctx)
    return baseline_capacity_wf(ctx)


def baseline_mmse_wf(ctx: DriftContext) -> PrecoderDecision:
    """Baseline 3: MSE-minimizing water-filling profile over the full budget."""
    budget = ctx.E / (ctx.M**2 * ctx.tau)
    return _baseline_decision(ctx, _wf_mmse_powers(ctx.Pi_K, budget))


def baseline_constant_power(ctx: DriftContext, mean_alpha: float,
                            profile: str = "capacity") -> PrecoderDecision:
    """Baselines 4/5: nominal budget E[alpha], clipped so the availability
    constraint is never violated."""
    budget = min(mean_alpha, ctx.E) / (ctx.M**2 * ctx.tau)
    if profile == "capacity":
        p = _wf_capacity_powers(ctx.Pi_K, budget)
    elif profile == "mmse":
        p = _wf_mmse_powers(ctx.Pi_K, budget)
    else:
        raise InputDomainError(f"baseline_constant_power: unknown profile {profile!r}")
    return _baseline_decision(ctx, p)
