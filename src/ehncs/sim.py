"""Stacked closed-loop slot step and the Monte Carlo experiment harness.

A slot runs: channel draw, dynamic range, precoding decision, limiter,
transmission, estimator and covariance updates, control, plant step, energy
spend and harvest.  `run_slot` advances every live path of a run at once:
the state is stacked along a leading path axis and each stage is one NumPy
call over all paths, except the random draws and the policy, which stay per
path.  Paths are independent (per-path RNG streams derived from (seed, path
index), each drawn in the same order as a lone path would draw) so results
do not depend on which other paths share the run.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

# The stacked clip, estimator update and queue update are reached through
# their modules: bench/tracing.py attaches per-path outcome observers to the
# names `clip`, `sigma_step` and `spend_and_harvest` in this module.
from . import energy, estimator, limiter
from .channel import receive, sample_channel
from .energy import ArrivalModel, EnergyQueue, check_feasible, sample_arrival
from .estimator import mse_sample
from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError, SvdResult, eig_sym
from .plant import PlantModel, control, step
from .precoder import DriftContext, solve_theorem1


class FeasibilityError(RuntimeError):
    """A policy requested more transmit energy than the battery holds."""


@dataclass(frozen=True)
class SimSetup:
    """Immutable bundle of everything a run needs besides randomness."""

    model: PlantModel
    limiter: LimiterParams
    arrivals: ArrivalModel
    N_c: int
    N_s: int
    tau: float
    theta: float
    E0: float | None = None  # initial battery level, default theta/2
    gain_norm: str = "BPsiA"
    divergence_guard: float = 1e12

    def __post_init__(self):
        if self.tau <= 0 or self.theta <= 0:
            raise InputDomainError("SimSetup: tau and theta must be > 0")
        K = self.model.K
        if K > min(self.N_s, self.N_c):
            raise InputDomainError("SimSetup: need K <= min(N_s, N_c)")
        if self.E0 is None:
            object.__setattr__(self, "E0", self.theta / 2.0)
        if not 0 <= self.E0 <= self.theta:
            raise InputDomainError("SimSetup: E0 must lie in [0, theta]")

    @property
    def K(self) -> int:
        return self.model.K


@dataclass
class SimState:
    """Closed-loop state of P paths, stacked along the leading axis."""

    n: int  # slot index, shared by all paths
    x: np.ndarray  # (P, K)
    x_hat: np.ndarray  # (P, K)
    Sigma: np.ndarray  # (P, K, K)
    queue: EnergyQueue  # E and overspend_count of shape (P,)
    diverged: np.ndarray  # (P,) bool


@dataclass(frozen=True)
class SlotTrace:
    """One slot of one path; `run_slot` returns one whose fields (except n)
    hold one entry per path."""

    n: int
    E_before: float
    L: float
    mode: str
    gamma: int
    energy_used: float  # realized spend ||F q||^2 tau
    Tr_Sigma: float
    sq_error: float
    sq_state: float
    alpha: float


def initial_state(setup: SimSetup, n_paths: int = 1) -> SimState:
    K = setup.K
    return SimState(
        n=0, x=np.zeros((n_paths, K)), x_hat=np.zeros((n_paths, K)),
        Sigma=np.zeros((n_paths, K, K)),
        queue=EnergyQueue(E=np.full(n_paths, float(setup.E0)), theta=setup.theta,
                          tau=setup.tau, overspend_count=np.zeros(n_paths, dtype=int)),
        diverged=np.zeros(n_paths, dtype=bool),
    )


def _noise_sqrt(W: np.ndarray) -> np.ndarray:
    dec = eig_sym(W)
    return dec.S * np.sqrt(dec.Lam)


def run_slot(setup: SimSetup, state: SimState, policy, rngs,
             noise_sqrt: np.ndarray | None = None) -> tuple[SimState, SlotTrace]:
    """Advance the P stacked paths of `state` by one slot.

    rngs holds one generator per path.  The policy is called once per path
    with that path's DriftContext.  The control u(n) = -Psi A x_hat(n) uses
    the estimate formed from measurements through slot n-1; the same u(n)
    drives both the estimator prediction and the plant.  Energy spent on air
    is the realized ||F q||^2 tau while feasibility is checked on the budget
    M^2 Tr(F^H F) tau (the limiter makes the former <= the latter).
    """
    model, lim_params = setup.model, setup.limiter
    if noise_sqrt is None:
        noise_sqrt = _noise_sqrt(model.W)
    E = state.queue.E

    draw = sample_channel(rngs, setup.N_c, setup.N_s, setup.K)
    L = dynamic_range(model, lim_params, state.Sigma, gain_norm=setup.gain_norm)
    dec = eig_sym(state.Sigma)
    decisions = [
        policy(DriftContext(S=S, Lam=Lam, svd=SvdResult(U=U, Pi=Pi, V=V), Pi_K=Pi_K,
                            E=E_p, theta=setup.theta, tau=setup.tau, M=lim_params.M,
                            L=L_p, norm_AAT=model.norm_AAT, eps=lim_params.eps,
                            slot=state.n))
        for S, Lam, U, Pi, V, Pi_K, E_p, L_p in zip(
            dec.S, dec.Lam, draw.svd.U, draw.svd.Pi, draw.svd.V, draw.Pi_K,
            E.tolist(), L.tolist())]
    F = np.array([d.F for d in decisions])
    feasible = check_feasible(state.queue, F, lim_params.M)
    if not feasible.all():
        p = int(np.argmin(feasible))
        raise FeasibilityError(
            f"slot {state.n}: policy budget {decisions[p].energy_used:.6g} J "
            f"exceeds stored energy {E[p]:.6g} J")

    lim = limiter.clip(state.x, L, lim_params.M)
    mode = np.array([d.mode for d in decisions])
    transmitting = (mode != "dormant") & F.any(axis=(1, 2))
    y = receive(draw, F, lim.q, rngs, noiseless=~transmitting)
    Fq = (F @ lim.q[:, :, None])[:, :, 0]
    spend = np.where(transmitting, np.linalg.norm(Fq, axis=1) ** 2 * setup.tau, 0.0)
    update = transmitting & ~lim.saturated
    Ftilde = np.where(update[:, None, None], draw.H @ F * lim.g[:, None, None], 0.0)

    sq_error = mse_sample(state.x, state.x_hat)
    sq_state = (state.x * state.x).sum(axis=1)
    u = control(model, state.x_hat)
    x_hat_next, Sigma_next = estimator.filter_step(
        state.x_hat, state.Sigma, y, Ftilde, model.A, model.B, u, model.W)
    w = np.array([g.standard_normal(setup.K) for g in rngs]) @ noise_sqrt.T
    x_next = step(model, state.x, u, w)

    alpha = sample_arrival(setup.arrivals, rngs)
    queue_next = energy.spend_and_harvest(state.queue, spend, alpha)

    trace = SlotTrace(
        n=state.n, E_before=E, L=L, mode=mode, gamma=(~lim.saturated).astype(int),
        energy_used=spend, Tr_Sigma=np.trace(state.Sigma, axis1=1, axis2=2),
        sq_error=sq_error, sq_state=sq_state, alpha=alpha,
    )
    next_state = SimState(n=state.n + 1, x=x_next, x_hat=x_hat_next,
                          Sigma=Sigma_next, queue=queue_next,
                          diverged=state.diverged | (sq_state > setup.divergence_guard))
    return next_state, trace


@dataclass(frozen=True)
class PathResult:
    mse: float  # time-averaged ||x - x_hat||^2 / K
    mean_tr_sigma: float
    saturation_rate: float
    duty_cycle: float  # fraction of active-mode slots
    energy_used: float
    energy_harvested: float
    diverged: bool
    traces: list[SlotTrace] | None = None


@dataclass(frozen=True)
class Metric:
    mean: float
    ci_half_width: float  # 95% normal CI


@dataclass(frozen=True)
class RunResult:
    n_paths: int
    n_slots: int
    seed: int
    mse: Metric
    tr_sigma: Metric
    saturation_rate: Metric
    duty_cycle: Metric
    n_diverged: int
    paths: list[PathResult] = field(repr=False, default_factory=list)

    @property
    def diverged(self) -> bool:
        return self.n_diverged > 0


def _take(state: SimState, keep: np.ndarray) -> SimState:
    queue = replace(state.queue, E=state.queue.E[keep],
                    overspend_count=state.queue.overspend_count[keep])
    return SimState(n=state.n, x=state.x[keep], x_hat=state.x_hat[keep],
                    Sigma=state.Sigma[keep], queue=queue, diverged=state.diverged[keep])


def _run_paths(setup: SimSetup, policy, n_slots: int, rngs: list,
               keep_traces: bool) -> list[PathResult]:
    """One path per generator in rngs, all advanced together by `run_slot`.

    A path leaves the live set after the slot on which it trips the
    divergence guard; its means divide by the slots it ran.
    """
    P, K = len(rngs), setup.K
    noise_sqrt = _noise_sqrt(setup.model.W)
    state = initial_state(setup, P)
    live = np.arange(P)
    # per-path sums of squared error, Tr(Sigma), spend, harvest, saturated
    # and active slots: `sums` for the live paths, `totals` once they stop
    sums = np.zeros((6, P))
    totals = np.zeros((6, P))
    n_run = np.zeros(P)
    diverged = np.zeros(P, dtype=bool)
    traces = [[] for _ in range(P)]
    for _ in range(n_slots):
        state, t = run_slot(setup, state, policy, rngs, noise_sqrt=noise_sqrt)
        sums += (t.sq_error, t.Tr_Sigma, t.energy_used, t.alpha, 1 - t.gamma,
                 t.mode == "active")
        if keep_traces:
            for p, *fields in zip(live.tolist(), t.E_before.tolist(), t.L.tolist(),
                                  t.mode.tolist(), t.gamma.tolist(),
                                  t.energy_used.tolist(), t.Tr_Sigma.tolist(),
                                  t.sq_error.tolist(), t.sq_state.tolist(),
                                  t.alpha.tolist()):
                traces[p].append(SlotTrace(t.n, *fields))
        if state.diverged.any():
            gone, keep = state.diverged, ~state.diverged
            diverged[live[gone]] = True
            totals[:, live[gone]] = sums[:, gone]
            n_run[live[gone]] = state.n
            live, sums = live[keep], sums[:, keep]
            if not live.size:
                break
            state = _take(state, keep)
            rngs = [g for g, k in zip(rngs, keep) if k]
    totals[:, live] = sums
    n_run[live] = state.n
    sq_err, tr_sigma, spent, harvested, n_sat, n_active = totals
    return [PathResult(*fields) for fields in zip(
        (sq_err / (n_run * K)).tolist(), (tr_sigma / n_run).tolist(),
        (n_sat / n_run).tolist(), (n_active / n_run).tolist(), spent.tolist(),
        harvested.tolist(), diverged.tolist(),
        traces if keep_traces else [None] * P)]


def run_path(setup: SimSetup, policy, n_slots: int,
             rng: np.random.Generator, keep_traces: bool = False) -> PathResult:
    """One path on generator rng: the one-path case of `run_monte_carlo`."""
    return _run_paths(setup, policy, n_slots, [rng], keep_traces)[0]


def _metric(values: np.ndarray) -> Metric:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return Metric(mean=mean, ci_half_width=float("inf"))
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return Metric(mean=mean, ci_half_width=half)


def run_monte_carlo(setup: SimSetup, policy, n_paths: int, n_slots: int,
                    seed: int, keep_traces: bool = False) -> RunResult:
    """Independent paths with per-path RNG streams default_rng([seed, path])."""
    if n_paths < 1 or n_slots < 1:
        raise InputDomainError("run_monte_carlo: n_paths and n_slots must be >= 1")
    rngs = [np.random.default_rng([seed, p]) for p in range(n_paths)]
    paths = _run_paths(setup, policy, n_slots, rngs, keep_traces)
    return RunResult(
        n_paths=n_paths, n_slots=n_slots, seed=seed,
        mse=_metric([p.mse for p in paths]),
        tr_sigma=_metric([p.mean_tr_sigma for p in paths]),
        saturation_rate=_metric([p.saturation_rate for p in paths]),
        duty_cycle=_metric([p.duty_cycle for p in paths]),
        n_diverged=sum(p.diverged for p in paths), paths=paths,
    )


def sweep(setup: SimSetup, policy_factories: dict, axis: str, values,
          n_paths: int, n_slots: int, seed: int) -> list[dict]:
    """Run every policy at every value of the swept parameter.

    axis is "theta" (battery capacity; the default half-full start tracks it)
    or "mean_alpha" (average energy arrival).  policy_factories maps a policy
    name to a callable(setup) -> per-slot policy, so budget-aware baselines
    can read the swept setup.  Returns one row dict per (policy, value).
    """
    values = list(values)
    if any(b < a for a, b in zip(values, values[1:])):
        raise InputDomainError("sweep: values must be ascending")
    if axis == "mean_alpha" and setup.arrivals.kind == "empirical":
        # an empirical model's mean is that of its values, whatever is asked
        raise InputDomainError(
            "sweep: axis 'mean_alpha' cannot set the mean of an 'empirical' "
            "ArrivalModel")
    rows = []
    for value in values:
        if axis == "theta":
            cfg = replace(setup, theta=float(value), E0=None)
        elif axis == "mean_alpha":
            arr = replace(setup.arrivals, mean=float(value))
            cfg = replace(setup, arrivals=arr)
        else:
            raise InputDomainError(f"sweep: unknown axis {axis!r}")
        for name, factory in policy_factories.items():
            result = run_monte_carlo(cfg, factory(cfg), n_paths, n_slots, seed)
            rows.append({
                "policy": name, "axis": axis, "value": float(value),
                "mse": result.mse.mean, "mse_ci": result.mse.ci_half_width,
                "tr_sigma": result.tr_sigma.mean,
                "saturation_rate": result.saturation_rate.mean,
                "duty_cycle": result.duty_cycle.mean,
                "n_diverged": result.n_diverged,
            })
    return rows


def _diagonal_context(E: float, theta: float, tau: float, M: float, L: float,
                      norm_AAT: float, h: np.ndarray, sigma: np.ndarray) -> DriftContext:
    """Decoupled per-stream context: H = diag(h), Sigma = diag(sigma), no
    reordering so stream i keeps the pair (h_i, sigma_i)."""
    K = len(h)
    dec = SvdResult(U=np.eye(K), Pi=np.diag(np.asarray(h, dtype=float)), V=np.eye(K))
    return DriftContext(S=np.eye(K), Lam=np.asarray(sigma, dtype=float), svd=dec,
                        Pi_K=np.asarray(h, dtype=float), E=E, theta=theta, tau=tau,
                        M=M, L=L, norm_AAT=norm_AAT)


def decision_region_scan(model: PlantModel, limiter: LimiterParams, E: float,
                         h1: float, sigma1: float, h2_values, sigma2_values,
                         theta: float, tau: float,
                         gain_norm: str = "BPsi") -> dict:
    """Count of activated spatial channels over a (h2, sigma2) grid.

    Stream 1 is held at (h1, sigma1); the scan reports, for each grid point,
    how many streams the drift-minimizing precoder switches on (0, 1 or 2)
    for a decoupled diagonal plant/channel.  The dynamic range is recomputed
    per point from Sigma = diag(sigma1, sigma2); gain_norm defaults to the
    ||B Psi|| variant used by the published decision-region plots.
    Rows index sigma2_values, columns index h2_values.
    """
    h2_values = np.asarray(h2_values, dtype=float)
    sigma2_values = np.asarray(sigma2_values, dtype=float)
    norm_AAT = model.norm_AAT
    counts = np.zeros((len(sigma2_values), len(h2_values)), dtype=int)
    for i, s2 in enumerate(sigma2_values):
        L = dynamic_range(model, limiter, np.diag([sigma1, s2]), gain_norm=gain_norm)
        for j, h2 in enumerate(h2_values):
            ctx = _diagonal_context(E, theta, tau, limiter.M, L, norm_AAT,
                                    h=np.array([h1, h2]), sigma=np.array([sigma1, s2]))
            decision = solve_theorem1(ctx)
            counts[i, j] = int(np.count_nonzero(decision.allocations > 0))
    return {"h2": h2_values, "sigma2": sigma2_values, "active_streams": counts,
            "E": E, "theta": theta}
