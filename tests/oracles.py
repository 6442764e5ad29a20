"""Independent numerical oracles used by the test suite.

Nothing here calls into the closed-form precoder path; the projected
gradient solver below works directly on the diagonalized convex program so
the closed-form solution can be checked against it.  The per-path slot loop
at the end is the reference the stacked simulation engine is checked
against: one path at a time, one kernel call per stage.
"""

from dataclasses import dataclass

import numpy as np

from ehncs.channel import receive, sample_channel
from ehncs.energy import EnergyQueue, check_feasible, sample_arrival, spend_and_harvest
from ehncs.estimator import estimate_step, mse_sample, sigma_step
from ehncs.limiter import clip, dynamic_range
from ehncs.numerics import eig_sym
from ehncs.plant import control, step
from ehncs.precoder import DriftContext
from ehncs.sim import FeasibilityError, PathResult


def problem1_objective(ctx, F):
    """Drift objective for a candidate precoder F:
    M^2 Tr(F^H F) tau (theta - E)
    + (||AA^T||/2) Tr(2 (M/L)^2 Re{F^H H^H H F} + Sigma^{-1})^{-1}."""
    H = ctx.svd.reconstruct()
    Sigma = (ctx.S * ctx.Lam) @ ctx.S.T
    HF = H @ np.asarray(F)
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


def random_feasible_precoder(ctx, rng):
    """Random complex F scaled to satisfy the energy budget."""
    n_s = ctx.svd.U.shape[0]
    K = len(ctx.Pi_K)
    F = rng.standard_normal((n_s, K)) + 1j * rng.standard_normal((n_s, K))
    budget = ctx.M**2 * float(np.real(np.vdot(F, F))) * ctx.tau
    if budget > 0:
        scale = np.sqrt(rng.uniform(0.0, 1.0) * ctx.E / budget)
        F = F * scale
    return F


# -- per-path reference of the closed loop ----------------------------------

@dataclass
class PathState:
    n: int
    x: np.ndarray
    x_hat: np.ndarray
    Sigma: np.ndarray
    queue: EnergyQueue
    diverged: bool = False


def reference_slot(setup, state, policy, rng, noise_sqrt):
    """One slot of one path; returns the next state and the slot's
    (E_before, L, mode, gamma, spend, Tr Sigma, sq_error, sq_state, alpha)."""
    model = setup.model
    draw = sample_channel(rng, setup.N_c, setup.N_s, setup.K)
    L = float(dynamic_range(model, setup.limiter, state.Sigma, gain_norm=setup.gain_norm))
    dec = eig_sym(state.Sigma)
    ctx = DriftContext(
        S=dec.S, Lam=dec.Lam, svd=draw.svd, Pi_K=draw.Pi_K, E=state.queue.E,
        theta=setup.theta, tau=setup.tau, M=setup.limiter.M, L=L,
        norm_AAT=model.norm_AAT, eps=setup.limiter.eps, slot=state.n)
    decision = policy(ctx)
    if not check_feasible(state.queue, decision.F, setup.limiter.M):
        raise FeasibilityError(f"slot {state.n}: policy budget exceeds stored energy")

    lim = clip(state.x, L, setup.limiter.M)
    gamma = 0 if lim.saturated else 1
    if decision.mode != "dormant" and np.any(decision.F):
        y = receive(draw, decision.F, lim.q, rng)
        Ftilde = draw.H @ decision.F * lim.g
        spend = float(np.linalg.norm(decision.F @ lim.q) ** 2) * setup.tau
    else:
        y, Ftilde, spend = None, None, 0.0

    sq_error = float(mse_sample(state.x, state.x_hat))
    sq_state = float(state.x @ state.x)
    u = control(model, state.x_hat)
    x_hat_next = estimate_step(state.x_hat, state.Sigma, y, Ftilde, gamma,
                               model.A, model.B, u)
    Sigma_next = sigma_step(state.Sigma, Ftilde, gamma, model.A, model.W)
    x_next = step(model, state.x, u, noise_sqrt @ rng.standard_normal(setup.K))
    alpha = sample_arrival(setup.arrivals, rng)
    queue_next = spend_and_harvest(state.queue, spend, alpha)
    record = (state.queue.E, L, decision.mode, gamma, spend,
              float(np.trace(state.Sigma)), sq_error, sq_state, alpha)
    nxt = PathState(n=state.n + 1, x=x_next, x_hat=x_hat_next, Sigma=Sigma_next,
                    queue=queue_next,
                    diverged=state.diverged or sq_state > setup.divergence_guard)
    return nxt, record


def reference_path(setup, policy, n_slots, rng):
    """PathResult of one path driven slot by slot through `reference_slot`."""
    K = setup.K
    W = eig_sym(setup.model.W)
    noise_sqrt = W.S * np.sqrt(W.Lam)
    state = PathState(n=0, x=np.zeros(K), x_hat=np.zeros(K), Sigma=np.zeros((K, K)),
                      queue=EnergyQueue(E=setup.E0, theta=setup.theta, tau=setup.tau))
    sq_err = tr_sigma = spent = harvested = 0.0
    n_sat = n_active = 0
    for _ in range(n_slots):
        state, (_, _, mode, gamma, spend, tr, sq_error, _, alpha) = reference_slot(
            setup, state, policy, rng, noise_sqrt)
        sq_err += sq_error
        tr_sigma += tr
        spent += spend
        harvested += alpha
        n_sat += 1 - gamma
        n_active += mode == "active"
        if state.diverged:
            break
    n = state.n
    return PathResult(mse=sq_err / (n * K), mean_tr_sigma=tr_sigma / n,
                      saturation_rate=n_sat / n, duty_cycle=n_active / n,
                      energy_used=spent, energy_harvested=harvested,
                      diverged=state.diverged), n
