"""Independent numerical oracles used by the test suite.

The package computes Theorem 1 in closed form; these functions check it and
nothing in the package calls them.  `kkt_residual` measures a decision's
violation of the diagonalized KKT system of the drift program, and
`drift_bound` evaluates the per-realization drift integrand at any
candidate precoder.  Both it and `problem1_objective` take the channel H
itself: a context carries only Pi_K, and a random candidate F need not
lie in span(U_K).  A policy returns the factors of F = scale U_K
diag(gains) basis^T and no context carries U_K, so `assemble_precoder`
forms the complex F from a channel's U_K (`right_singular_vectors`).
The projected gradient solver works directly on the diagonalized convex
program, without the closed-form precoder path, so the closed-form
solution can be checked against it; the baselines'
water-filling powers are checked against a bisection on the water level.
The channel statistics and the stability curve have their per-draw-SVD and
per-xi references, and the MSE bound its term-by-term formula at a given
xi.  The per-point decision-region scan is the reference the one-call scan
is checked against: one `DriftContext` and one scalar `solve_theorem1`
walk per grid point.  The per-context policies keep their float walks
frozen here, one comprehension per per-stream term as they were before
their loops were fused, so the solvers must give the same bits on every
context.  Theorem 1's dormancy test has its threshold-matrix
form, the information-form estimator update its augmented-stack solve, and
the certainty-equivalent gain a Riccati value iteration.
The per-path slot loop at the end is the reference the stacked simulation
engine is checked against: one path at a time, one kernel call per stage,
with its own textbook estimator update on the complex received signal
y = H F q + n, which it forms itself from its own full SVD of H and the
complex F.  It consumes its generator as the engine does, each draw by the
generator's own method: every slot 2 N_c N_s channel normals, 2 N_c
receiver-noise normals (used only when the path transmits), K plant-noise
normals and the arrival (none when it is deterministic).  The receiver
normals r give c = (r_re + i r_im)/sqrt(2) ~ CN(0, I) and the noise
n = V c, V the full left singular basis of H: n is CN(0, I) given H, since
V is unitary, and Re(V_K^H n) = Re(c_K) is the first K normals over
sqrt(2), which is what the engine's matched filter adds.
"""

import math
from dataclasses import dataclass

import numpy as np

from ehncs.analysis import delta_constant
from ehncs.channel import DEGENERATE_TOL, PiTildeStats
from ehncs.energy import check_feasible, precoder_budget, spend_and_harvest
from ehncs.estimator import mse_sample
from ehncs.limiter import clip, dynamic_range
from ehncs import sim
from ehncs.numerics import eig_sym
from ehncs.plant import control, instability_measure, step
from ehncs.precoder import ALLOC_TOL, DriftContext, solve_theorem1
from ehncs.sim import FeasibilityError


def kkt_residual(ctx, decision):
    """Max violation of the diagonalized KKT system for the decision.

    Checks primal feasibility, multiplier sign, complementary slackness and
    per-stream stationarity of the water-filling problem; each stationarity
    residual is normalized by the magnitude of its terms.
    """
    if decision.mode == "dormant":
        return 0.0
    y = decision.allocations
    # ||U_K F_s|| = ||F_s||, so the budget of the stream factors is F's
    energy = precoder_budget(stream_factors(decision), ctx.M, ctx.tau)
    s = max(ctx.theta - ctx.E, 0.0) + decision.beta
    nu = s - (ctx.theta - ctx.E)  # multiplier of the budget constraint

    residuals = [max(0.0, (energy - ctx.E) / max(ctx.E, 1.0)),  # primal
                 max(0.0, -nu)]  # dual feasibility
    if decision.beta > 0:
        residuals.append(abs(energy - ctx.E) / max(ctx.E, 1.0))  # comp. slack
    if s > 0:
        c = ctx.norm_AAT
        a_i = ctx.L**2 * ctx.tau / ctx.Pi_K**2  # budget weights
        # seabed 1/Lam_i, infinite where Lam_i = 0 (that stream stays off)
        pos = ctx.Lam > 0
        seabed = np.where(pos, 1.0 / np.where(pos, ctx.Lam, 1.0), np.inf)
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


def drift_bound(ctx, H, F, eps=0.0):
    """Per-realization drift integrand for a candidate precoder F on the
    channel H:

        (||AA^T||/2) [eps Tr(Sigma)
                      + Tr(2 (M/L)^2 Re{F^H H^H H F} + Sigma^{-1})^{-1}]
        + M^2 Tr(F^H F) tau (theta - E) - (1/2) Tr(Sigma)

    with eps the limiter's saturation target, evaluated in the covariance
    eigenbasis so a singular Sigma is handled (directions with zero
    eigenvalue contribute nothing to the inverse trace).  The
    drift-minimizing policy minimizes this over feasible F.
    """
    F = np.asarray(F)
    HF = np.asarray(H) @ F
    G_full = 2.0 * (ctx.M / ctx.L) ** 2 * np.real(HF.conj().T @ HF)
    G = ctx.S.T @ G_full @ ctx.S  # covariance eigenbasis
    pos = ctx.Lam > 1e-300
    if pos.any():
        core = G[np.ix_(pos, pos)] + np.diag(1.0 / ctx.Lam[pos])
        inv_trace = float(np.trace(np.linalg.inv(core)))
    else:
        inv_trace = 0.0
    tr_sigma = float(ctx.Lam.sum())
    energy_term = ctx.M**2 * float(np.real(np.vdot(F, F))) * ctx.tau * (ctx.theta - ctx.E)
    return (0.5 * ctx.norm_AAT * (eps * tr_sigma + inv_trace)
            + energy_term - 0.5 * tr_sigma)


def problem1_objective(ctx, H, F):
    """Drift objective for a candidate precoder F on the channel H:
    M^2 Tr(F^H F) tau (theta - E)
    + (||AA^T||/2) Tr(2 (M/L)^2 Re{F^H H^H H F} + Sigma^{-1})^{-1}."""
    Sigma = (ctx.S * ctx.Lam) @ ctx.S.T
    HF = np.asarray(H) @ np.asarray(F)
    G = 2.0 * (ctx.M / ctx.L) ** 2 * np.real(HF.conj().T @ HF)
    term = float(np.trace(np.linalg.inv(G + np.linalg.inv(Sigma))))
    energy = ctx.M**2 * float(np.real(np.vdot(F, F))) * ctx.tau
    return energy * (ctx.theta - ctx.E) + 0.5 * ctx.norm_AAT * term


def p2_objective(ctx, y):
    a = ctx.tau * ctx.L**2 / ctx.Pi_K**2
    return float((ctx.theta - ctx.E) * (a @ y)
                 + 0.5 * ctx.norm_AAT * np.sum(1.0 / (2.0 * y + 1.0 / ctx.Lam)))


def project_budget(y, a, b, tol=1e-14):
    """Euclidean projection onto {y >= 0, a.y <= b} with a > 0, b >= 0."""
    y = np.maximum(y, 0.0)
    if a @ y <= b:
        return y
    lo, hi = 0.0, float(np.max(y / a)) + 1.0
    for _ in range(200):
        lam = 0.5 * (lo + hi)
        v = a @ np.maximum(y - lam * a, 0.0) - b
        if abs(v) < tol:
            break
        if v > 0:
            lo = lam
        else:
            hi = lam
    return np.maximum(y - lam * a, 0.0)


def water_filling_bisection(w, floors, budget, n_iter=200):
    """Powers p_i = [gamma w_i - floors_i]^+ with sum p_i = budget, the water
    level gamma found by bisection on the spend, which is continuous and
    nondecreasing in gamma (no active-set walk)."""
    w = np.asarray(w, dtype=float)
    floors = np.asarray(floors, dtype=float)

    def spend(gamma):
        return float(np.maximum(gamma * w - floors, 0.0).sum())

    lo, hi = 0.0, 1.0
    while spend(hi) < budget:
        hi *= 2.0
    for _ in range(n_iter):
        mid = 0.5 * (lo + hi)
        if spend(mid) < budget:
            lo = mid
        else:
            hi = mid
    return np.maximum(hi * w - floors, 0.0)


def solve_p2_projected_gradient(ctx, n_iter=20000):
    """Accelerated projected gradient on the diagonalized drift program."""
    a = ctx.tau * ctx.L**2 / ctx.Pi_K**2
    b = ctx.E
    c = ctx.norm_AAT
    inv_lam = 1.0 / ctx.Lam
    lip = float(np.max(4.0 * c * ctx.Lam**3)) + 1e-12  # curvature peaks at y = 0
    step = 1.0 / lip
    y = np.zeros_like(a)
    z = y.copy()
    t = 1.0
    for k in range(n_iter):
        grad = (ctx.theta - ctx.E) * a - c / (2.0 * z + inv_lam) ** 2
        y_new = project_budget(z - step * grad, a, b)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = np.maximum(y_new + ((t - 1.0) / t_new) * (y_new - y), 0.0)
        if k > 100 and np.max(np.abs(y_new - y)) < 1e-15:
            y = y_new
            break
        y, t = y_new, t_new
    y = project_budget(y, a, b)

    # Barzilai-Borwein polish with a best-objective safeguard; helps the
    # ill-conditioned instances near the dormant/binding boundary
    def obj(v):
        return (ctx.theta - ctx.E) * (a @ v) + 0.5 * c * np.sum(1.0 / (2.0 * v + inv_lam))

    def grad_at(v):
        return (ctx.theta - ctx.E) * a - c / (2.0 * v + inv_lam) ** 2

    best, best_val = y.copy(), obj(y)
    g = grad_at(y)
    bb = step
    for _ in range(2000):
        y_new = project_budget(y - bb * g, a, b)
        s = y_new - y
        if np.max(np.abs(s)) < 1e-17:
            break
        g_new = grad_at(y_new)
        sg = s @ (g_new - g)
        bb = (s @ s) / sg if sg > 0 else step
        y, g = y_new, g_new
        v = obj(y)
        if v < best_val:
            best, best_val = y.copy(), v
    return best


def random_feasible_precoder(ctx, H, rng):
    """Random complex F for the channel H (N_c, N_s), scaled to satisfy the
    energy budget; F is not confined to span(U_K)."""
    n_s = H.shape[1]
    K = len(ctx.Pi_K)
    F = rng.standard_normal((n_s, K)) + 1j * rng.standard_normal((n_s, K))
    budget = ctx.M**2 * float(np.real(np.vdot(F, F))) * ctx.tau
    if budget > 0:
        scale = np.sqrt(rng.uniform(0.0, 1.0) * ctx.E / budget)
        F = F * scale
    return F


def right_singular_vectors(H, K):
    """The K leading right singular vectors U_K (N_s, K) of H = V Pi U^H."""
    return np.linalg.svd(H, full_matrices=False)[2][:K].conj().T


def assemble_precoder(U_K, gains, basis, scale):
    """F = scale U_K diag(gains) basis^T over any leading axes.

    U_K is (..., N_s, K), gains (..., K), basis (..., K, K) and scale (...);
    returns the complex (..., N_s, K) precoders.
    """
    top = gains[..., :, None] * np.swapaxes(basis, -1, -2)
    return np.asarray(scale)[..., None, None] * (U_K @ top)


def stream_factors(decision):
    """A decision's real K x K stream factors F_s = scale diag(gains)
    basis^T, with F = U_K F_s: its precoder on U_K = I."""
    return assemble_precoder(np.eye(len(decision.gains)), decision.gains,
                             decision.basis, decision.scale)


# -- references of the channel statistics and the stability curve -----------

def reference_pitilde_stats(rng, N_c, N_s, K, n_samples):
    """`estimate_pitilde_stats` with the same draws, decomposed by one LAPACK
    SVD per draw instead of the Gram eigenvalues; degenerate draws are
    excluded by the same rule, sigma_K^2 <= DEGENERATE_TOL sigma_1^2."""
    H = (rng.standard_normal((n_samples, N_c, N_s))
         + 1j * rng.standard_normal((n_samples, N_c, N_s))) / np.sqrt(2.0)
    s = np.linalg.svd(H, compute_uv=False)[:, :K]
    good = s[:, -1] ** 2 > DEGENERATE_TOL * s[:, 0] ** 2
    s = s[good]
    t = (1.0 / s).sum(axis=1, keepdims=True)
    return PiTildeStats(samples=(s / t).ravel(), n_excluded=int((~good).sum()))


def reference_rhs_curve(model, params, stats, tau, xi_grid):
    """The stability condition's right-hand side at each xi, one point at a
    time: -inf where E[1/pt | pt >= xi] is undefined or not positive."""
    K = model.K
    m_a = instability_measure(model.A)
    m_aat = instability_measure(model.A @ model.A.T)
    delta = delta_constant(model, params)
    rhs = np.empty(len(xi_grid))
    for i, xi in enumerate(xi_grid):
        num = 1.0 - (params.eps + K * stats.prob_below(xi)) * m_aat
        inv_mean = stats.inv_mean_above(xi)
        if not np.isfinite(inv_mean) or inv_mean <= 0:
            rhs[i] = -np.inf
            continue
        den = delta**2 * K * tau * inv_mean * m_a * m_aat
        rhs[i] = num / den
    return rhs


def reference_mse_bound(model, params, stats, E_inv_alpha, theta, tau, xi_star):
    """(eta, bound) of the steady-state MSE bound at xi_star, each term
    evaluated on its own; bound is None when eta <= 0:

        eta = 1 - (eps + K Pr(pt<xi*)) M(AA^T)
              - (E[1/alpha] + 1/theta) K delta^2 tau E[pt^{-1}|pt>=xi*] M(A) M(AA^T)
        bound = (1/eta)(1 + K tau (delta^2/||B Psi||^2) E[pt^{-1}|pt>=xi*]
                        (E[1/alpha] + 1/theta) M(A) M(AA^T)) Tr(W) + theta^2/eta
    """
    K = model.K
    m_a = instability_measure(model.A)
    m_aat = instability_measure(model.A @ model.A.T)
    delta = delta_constant(model, params)
    inv_mean = stats.inv_mean_above(xi_star)
    lhs = E_inv_alpha + 1.0 / theta
    drift_term = lhs * K * delta**2 * tau * inv_mean * m_a * m_aat
    eta = 1.0 - (params.eps + K * stats.prob_below(xi_star)) * m_aat - drift_term
    if eta <= 0:
        return eta, None
    n_bpsi = model.norm_BPsi
    bound = (1.0 / eta) * (1.0 + K * tau * (delta / n_bpsi) ** 2 * inv_mean
                           * lhs * m_a * m_aat) * float(np.trace(model.W)) \
        + theta**2 / eta
    return eta, float(bound)


# -- per-point reference of the decision-region scan ------------------------

def _diagonal_context(E, theta, tau, M, L, norm_AAT, h, sigma):
    """Decoupled per-stream context: H = diag(h), Sigma = diag(sigma), no
    reordering so stream i keeps the pair (h_i, sigma_i)."""
    K = len(h)
    return DriftContext(S=np.eye(K), Lam=np.asarray(sigma, dtype=float),
                        Pi_K=np.asarray(h, dtype=float), E=E, theta=theta, tau=tau,
                        M=M, L=L, norm_AAT=norm_AAT)


def reference_region_scan(model, limiter, E, h1, sigma1, h2_values, sigma2_values,
                          theta, tau):
    """Active-stream counts of `decision_region_scan`, one grid point at a
    time: rows index sigma2_values, columns index h2_values."""
    counts = np.zeros((len(sigma2_values), len(h2_values)), dtype=int)
    for i, s2 in enumerate(sigma2_values):
        L = dynamic_range(model, limiter, np.diag([sigma1, s2]), gain_norm="BPsi")
        for j, h2 in enumerate(h2_values):
            ctx = _diagonal_context(E, theta, tau, limiter.M, L, model.norm_AAT,
                                    h=np.array([h1, h2]), sigma=np.array([sigma1, s2]))
            counts[i, j] = int(np.count_nonzero(solve_theorem1(ctx).allocations > 0))
    return counts


# -- frozen float walks of the per-context policies ------------------------

def _reference_walk(a_terms, b_terms, t, budget):
    """The active-set walk of the budget equation a/sqrt(s) - b = budget:
    streams switch on in descending t, the later stream first on a tie,
    until the root (a/(budget+b))^2 reaches the next breakpoint."""
    order = sorted(range(len(t)), key=t.__getitem__)[::-1]
    a = b = 0.0
    for m, i in enumerate(order):
        a += a_terms[i]
        b += b_terms[i]
        if (a / (budget + b)) ** 2 >= (t[order[m + 1]] if m + 1 < len(t) else 0.0):
            break
    return a, b, t[i]


def _reference_silent(K, mode="dormant"):
    return mode, 0.0, 1.0, np.zeros(K), np.eye(K), np.zeros(K)


def reference_theorem1(ctx):
    """Theorem 1 for one context on Python floats, one list comprehension
    per per-stream term, as the per-context solver computed it before its
    loops were fused.  Returns (mode, beta, scale, gains, basis,
    allocations), the factors of F = scale U_K diag(gains) basis^T; the
    solver must give the same bits."""
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
        return _reference_silent(len(Pi_K))
    if E <= 0.0 or max(t) <= 0:
        return _reference_silent(len(Pi_K), mode="active")
    seabed = [1.0 / lam if lam > 0 else math.inf for lam in Lam]
    a_scale, b_scale = 0.5 * L * math.sqrt(c * tau), 0.5 * L**2 * tau
    a, b, t_last = _reference_walk(
        [a_scale / p for p in Pi_K],
        [b_scale * sb / (p * p) for p, sb in zip(Pi_K, seabed)], t, E)
    s0 = max(theta - E, 0.0)
    s_star = max(min((a / (E + b)) ** 2, t_last), s0)
    level = math.sqrt(c / (s_star * tau))
    y = [0.5 * max((p / L) * level - sb, 0.0) for p, sb in zip(Pi_K, seabed)]
    gains = np.array([math.sqrt(y_i) / p for y_i, p in zip(y, Pi_K)])
    return "active", s_star - s0, L / ctx.M, gains, ctx.S, np.array(y)


def reference_wf_powers(pi, budget, profile):
    """Water-filling powers p_i = [gamma w_i - 1/pi_i]^+ with sum p_i =
    budget on Python floats, as the baselines computed them before their
    loops were fused: w_i = 1 (capacity) or pi_i^{-1/2} (MMSE, rescaled to
    the exact budget)."""
    pi = pi.tolist()
    if budget <= 0:
        return [0.0] * len(pi)
    capacity = profile == "capacity"
    w = [1.0] * len(pi) if capacity else [1.0 / math.sqrt(x) for x in pi]
    floors = [1.0 / x for x in pi]
    a, b, _ = _reference_walk(w, floors, [x * x for x in pi] if capacity else pi,
                              budget)
    gamma = (budget + b) / a
    p = [max(gamma * w_i - f, 0.0) for w_i, f in zip(w, floors)]
    if capacity:
        return p
    scale = budget / sum(p)
    return [x * scale for x in p]


def reference_policy(name, ctx, mean_alpha, period):
    """(mode, beta, scale, gains, basis, allocations) of the named policy of
    `cli.policy_factory` on one context, from the frozen walks above."""
    if name == "proposed":
        return reference_theorem1(ctx)
    if name == "baseline2" and ctx.slot % period != 0:
        return _reference_silent(len(ctx.Pi_K))
    budget = ctx.E
    if name in ("baseline4", "baseline5"):
        budget = min(mean_alpha, ctx.E)
    profile = "mmse" if name in ("baseline3", "baseline5") else "capacity"
    p = reference_wf_powers(ctx.Pi_K, budget / (ctx.M**2 * ctx.tau), profile)
    mode = "active" if sum(p) > 0 else "dormant"
    p = np.array(p)
    return mode, 0.0, 1.0, np.sqrt(p), np.eye(len(p)), p


# -- frozen stacked walk of Theorem 1 ---------------------------------------

def reference_theorem1_allocations(Lam, Pi_K, E, L, theta, tau, norm_AAT):
    """`theorem1_allocations` as it was before its terms kept their own
    broadcast shapes and its sorted terms were gathered by one flat index:
    every term on the full broadcast shape, four `take_along_axis` calls.
    Returns the allocations (..., K), beta (...) and the active flag (...)."""
    E = np.asarray(E, dtype=float)[..., None]
    L = np.asarray(L, dtype=float)[..., None]
    shape = np.broadcast_shapes(np.shape(Lam), np.shape(Pi_K), E.shape, L.shape)
    Lam = np.broadcast_to(np.asarray(Lam, dtype=float), shape)
    Pi_K = np.broadcast_to(np.asarray(Pi_K, dtype=float), shape)
    c = norm_AAT
    t = c * (Pi_K * Lam / L) ** 2 / tau
    active = ~np.all(theta - (t + E) > ALLOC_TOL, axis=-1)
    seabed = np.divide(1.0, Lam, out=np.full(np.shape(Lam), np.inf), where=Lam > 0)
    s0 = np.maximum(theta - E, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        order = np.argsort(t, axis=-1, kind="stable")[..., ::-1]
        t_sorted = np.take_along_axis(t, order, axis=-1)
        weights = (0.5 * L * np.sqrt(c * tau) / Pi_K, 0.5 * L**2 * tau * seabed / Pi_K**2)
        a, b = (np.cumsum(np.take_along_axis(w, order, axis=-1), axis=-1) for w in weights)
        s = (a / (E + b)) ** 2
        crossing = np.ones(shape, dtype=bool)
        crossing[..., :-1] = s[..., :-1] >= t_sorted[..., 1:]
        m = np.argmax(crossing, axis=-1)[..., None]
        s_star = np.maximum(np.minimum(np.take_along_axis(s, m, axis=-1),
                                       np.take_along_axis(t_sorted, m, axis=-1)), s0)
        y = 0.5 * np.maximum((Pi_K / L) * np.sqrt(c / (s_star * tau)) - seabed, 0.0)
    spends = active[..., None] & (E > 0.0) & (t_sorted[..., :1] > 0.0)
    y = np.where(spends, y, 0.0)
    beta = np.where(spends, s_star - s0, 0.0)
    return y, beta[..., 0], active


# -- value-iteration reference of the certainty-equivalent gain -------------

def value_iteration_gain(A, B, P, R, n_iter=10_000, rtol=1e-15):
    """Psi = (B^T Z B + R)^{-1} B^T Z with Z the limit of the Riccati value
    iteration Z <- A^T Z A - A^T Z B (B^T Z B + R)^{-1} B^T Z A + P from
    Z = P, which converges to the stabilizing solution for a stabilizable,
    detectable plant."""
    Z = P
    for _ in range(n_iter):
        gain = np.linalg.solve(B.T @ Z @ B + R, B.T @ Z @ A)
        Z_next = A.T @ Z @ A - A.T @ Z @ B @ gain + P
        if np.abs(Z_next - Z).max() <= rtol * np.abs(Z_next).max():
            return np.linalg.solve(B.T @ Z_next @ B + R, B.T @ Z_next)
        Z = Z_next
    raise AssertionError("value_iteration_gain: no convergence")


# -- augmented-stack reference of the estimator update ----------------------

def augment(Ftilde):
    """Stack Ftilde over its elementwise conjugate: (..., 2 N_c, K)."""
    return np.concatenate([Ftilde, Ftilde.conj()], axis=-2)


def real_stack(a, axis=-2):
    """Real parts stacked over imaginary parts along axis: the real form
    [Re Ftilde; Im Ftilde] of a complex measurement matrix (axis -2), or
    [Re y; Im y] of a complex measurement (axis -1), as `filter_step` takes
    them.  The augmented stack is augment(Ftilde) = [[I, iI], [I, -iI]]
    real_stack(Ftilde)."""
    return np.concatenate([a.real, a.imag], axis=axis)


def _real_part(z, core_ndim):
    """Real part of z, after asserting per path (the leading axes) that its
    imaginary part is round-off."""
    axes = tuple(range(-core_ndim, 0))
    scale = np.maximum(1.0, np.abs(z).max(axis=axes))
    assert (np.abs(z.imag).max(axis=axes) <= 1e-6 * scale).all()
    return z.real


def augmented_filter_step(x_hat, Sigma, y, Ftilde, A, B, u, W):
    """`filter_step` by a (2 N_c) x (2 N_c) complex solve on the augmented
    stack F^a, over stacked paths like the package function.

    X = (F^a Sigma F^aH + I)^{-1} F^a Sigma gives the Kalman gain X^H, the
    estimate A x_hat + B u + A X^H (y^a - F^a x_hat) and the covariance
    A (Sigma - (F^a Sigma)^H X) A^T + W, symmetrized.
    """
    Fa = augment(Ftilde)
    FS = Fa @ Sigma
    X = np.linalg.solve(FS @ np.swapaxes(Fa, -1, -2).conj() + np.eye(Fa.shape[-2]), FS)
    ya = np.concatenate([y, y.conj()], axis=-1)
    innovation = ya - (Fa @ x_hat[..., None])[..., 0]
    corr = (np.swapaxes(X, -1, -2).conj() @ innovation[..., None])[..., 0] @ A.T
    x_next = x_hat @ A.T + u @ B.T + _real_part(corr, 1)
    core = Sigma - _real_part(np.swapaxes(FS, -1, -2).conj() @ X, 2)
    Sigma_next = A @ core @ A.T + W
    return x_next, (Sigma_next + np.swapaxes(Sigma_next, -1, -2)) / 2


# -- threshold-matrix reference of Theorem 1's dormancy test ----------------

def threshold_dormant(Lam, Pi_K, E, L, theta, tau, norm_AAT):
    """Dormant iff every diagonal entry of the threshold matrix,
    theta - (||AA^T|| (Lam_ii Pi_ii)^2 / (tau L^2) + E), exceeds ALLOC_TOL;
    over any leading axes, with E and L broadcasting against them."""
    E = np.asarray(E, dtype=float)[..., None]
    L = np.asarray(L, dtype=float)[..., None]
    entries = theta - (norm_AAT * (Lam * Pi_K) ** 2 / (tau * L**2) + E)
    return np.all(entries > ALLOC_TOL, axis=-1)


# -- per-path reference of the closed loop ----------------------------------

def reference_update(x_hat, Sigma, y, Ftilde, A, B, u, W):
    """Textbook Kalman step of one path on the augmented measurement stack.

    Gain K = Sigma F^aH (F^a Sigma F^aH + I)^{-1} by explicit inverse; the
    estimate is A x_hat + B u + A K (y^a - F^a x_hat) and the covariance
    A (Sigma - K F^a Sigma) A^T + W.  Ftilde None means no update: the
    prediction alone.
    """
    x_next = A @ x_hat + B @ u
    Sigma_post = Sigma
    if Ftilde is not None:
        Fa = augment(Ftilde)
        ya = np.concatenate([y, y.conj()])
        gain = Sigma @ Fa.conj().T @ np.linalg.inv(Fa @ Sigma @ Fa.conj().T
                                                    + np.eye(len(Fa)))
        x_next = x_next + np.real(A @ gain @ (ya - Fa @ x_hat))
        Sigma_post = np.real(Sigma - gain @ Fa @ Sigma)
    Sigma_next = A @ Sigma_post @ A.T + W
    return x_next, (Sigma_next + Sigma_next.T) / 2


@dataclass
class PathState:
    n: int
    x: np.ndarray
    x_hat: np.ndarray
    Sigma: np.ndarray
    E: float
    diverged: bool = False


def reference_slot(setup, state, policy, rng, noise_sqrt):
    """One slot of one path; returns the next state and the slot's
    (E_before, L, active, gamma, spend, Tr Sigma, sq_error, sq_state, alpha).
    The kernels are called on stacks of one path."""
    model, arrivals, K = setup.model, setup.arrivals, setup.K
    z = rng.standard_normal((2, setup.N_c, setup.N_s))
    H = (z[0] + 1j * z[1]) / np.sqrt(2.0)
    V, Pi, Uh = np.linalg.svd(H)
    U_K = Uh[:K].conj().T
    L = float(dynamic_range(model, setup.limiter, state.Sigma))
    dec = eig_sym(state.Sigma)
    ctx = DriftContext(
        S=dec.S, Lam=dec.Lam, Pi_K=Pi[:K], E=state.E,
        theta=setup.theta, tau=setup.tau, M=setup.limiter.M, L=L,
        norm_AAT=model.norm_AAT, slot=state.n)
    decision = policy(ctx)
    # F = scale U_K diag(gains) basis^T, here as a column scaling and a product
    F = decision.scale * ((U_K * decision.gains) @ decision.basis.T)
    if not check_feasible(state.E, F, setup.limiter.M, setup.tau):
        raise FeasibilityError(f"slot {state.n}: policy budget exceeds stored energy")

    lim = clip(state.x, L, setup.limiter.M)
    gamma = 0 if lim.saturated else 1
    active = decision.mode == "active"
    # the receiver noise is drawn every slot and used only when the path sends
    Fq = F @ lim.q
    r = rng.standard_normal((2, setup.N_c))
    y = H @ Fq + V @ ((r[0] + 1j * r[1]) / np.sqrt(2.0))
    if active and np.any(F):
        Ftilde = H @ F * lim.g
        spend = float(np.linalg.norm(Fq) ** 2) * setup.tau
    else:
        y, Ftilde, spend = None, None, 0.0

    sq_error = float(mse_sample(state.x, state.x_hat))
    sq_state = float(state.x @ state.x)
    u = control(model, state.x_hat)
    x_hat_next, Sigma_next = reference_update(
        state.x_hat, state.Sigma, y, Ftilde if gamma else None, model.A, model.B,
        u, model.W)
    x_next = step(model, state.x, u, noise_sqrt @ rng.standard_normal(setup.K))
    alpha = float(rng.poisson(arrivals.mean) if arrivals.kind == "poisson"
                  else arrivals.mean)
    E_next = spend_and_harvest(state.E, spend, alpha, setup.theta)
    record = (state.E, L, active, gamma, spend,
              float(np.trace(state.Sigma)), sq_error, sq_state, alpha)
    nxt = PathState(n=state.n + 1, x=x_next, x_hat=x_hat_next, Sigma=Sigma_next,
                    E=E_next,
                    diverged=state.diverged or sq_state > sim.DIVERGENCE_GUARD)
    return nxt, record


def reference_path(setup, policy, n_slots, rng):
    """One path driven slot by slot through `reference_slot`: a dict of its
    results under the names of `sim.PATH_FIELDS`, summed slot by slot here
    rather than read from the harness."""
    K = setup.K
    W = eig_sym(setup.model.W)
    noise_sqrt = W.S * np.sqrt(W.Lam)
    state = PathState(n=0, x=np.zeros(K), x_hat=np.zeros(K), Sigma=np.zeros((K, K)),
                      E=setup.E0)
    sq_err = tr_sigma = spent = harvested = 0.0
    n_sat = n_active = 0
    for _ in range(n_slots):
        state, (_, _, active, gamma, spend, tr, sq_error, _, alpha) = reference_slot(
            setup, state, policy, rng, noise_sqrt)
        sq_err += sq_error
        tr_sigma += tr
        spent += spend
        harvested += alpha
        n_sat += 1 - gamma
        n_active += active
        if state.diverged:
            break
    n = state.n
    return dict(mse=sq_err / (n * K), mean_tr_sigma=tr_sigma / n,
                saturation_rate=n_sat / n, duty_cycle=n_active / n,
                energy_used=spent, energy_harvested=harvested,
                diverged=state.diverged, n_run=n)
