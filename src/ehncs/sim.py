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
from dataclasses import dataclass, field, fields, replace

import numpy as np

# The stacked clip and battery update are reached through their modules.
# bench/tracing.py wraps the names `clip` and `spend_and_harvest` only if
# this module has them, so today it attaches nothing to these calls.
# Importing the bare names would attach its per-path outcome observers,
# which call bool() on one path's result and raise on the stacked arrays.
from . import energy, limiter
from .channel import receive, sample_channel
from .energy import ArrivalModel, check_feasible, sample_arrival
from .estimator import filter_step, mse_sample
from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError, SvdResult, eig_sym
from .plant import PlantModel, control, step
from .precoder import DriftContext


# a path whose ||x||^2 exceeds this on a slot has diverged and leaves the run
DIVERGENCE_GUARD = 1e12


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
    E: np.ndarray  # (P,) battery
    diverged: np.ndarray  # (P,) bool


@dataclass(frozen=True)
class SlotTrace:
    """Per-slot record whose fields are 1-D arrays along one axis.

    In the trace `run_slot` returns, the axis is the live paths of the run,
    and n is the slot index they share, a plain int.  In `PathResult.trace`
    the axis is the slots that path ran, n included.
    """

    n: int | np.ndarray  # slot index
    E_before: np.ndarray  # battery at the start of the slot
    L: np.ndarray  # dynamic range
    active: np.ndarray  # bool, the policy decided active mode
    gamma: np.ndarray  # int, 1 where the limiter did not saturate
    energy_used: np.ndarray  # realized spend ||F q||^2 tau
    Tr_Sigma: np.ndarray
    sq_error: np.ndarray
    sq_state: np.ndarray
    alpha: np.ndarray  # energy arrival


def initial_state(setup: SimSetup, n_paths: int = 1) -> SimState:
    K = setup.K
    return SimState(
        n=0, x=np.zeros((n_paths, K)), x_hat=np.zeros((n_paths, K)),
        Sigma=np.zeros((n_paths, K, K)),
        E=np.full(n_paths, float(setup.E0)),
        diverged=np.zeros(n_paths, dtype=bool),
    )


def run_slot(setup: SimSetup, state: SimState, policy,
             rngs) -> tuple[SimState, SlotTrace]:
    """Advance the P stacked paths of `state` by one slot.

    rngs holds one generator per path.  The policy is called once per path
    with that path's DriftContext.  The control u(n) = -Psi A x_hat(n) uses
    the estimate formed from measurements through slot n-1; the same u(n)
    drives both the estimator prediction and the plant.  Energy spent on air
    is the realized ||F q||^2 tau while feasibility is checked on the budget
    M^2 Tr(F^H F) tau (the limiter makes the former <= the latter).
    """
    model, lim_params, K = setup.model, setup.limiter, setup.K
    E = state.E

    draw = sample_channel(rngs, setup.N_c, setup.N_s, K)
    L = dynamic_range(model, lim_params, state.Sigma)
    dec = eig_sym(state.Sigma)
    decisions = [
        policy(DriftContext(S=S, Lam=Lam, svd=SvdResult(U=U, s=s, V=V), Pi_K=Pi_K,
                            E=E_p, theta=setup.theta, tau=setup.tau, M=lim_params.M,
                            L=L_p, norm_AAT=model.norm_AAT, slot=state.n))
        for S, Lam, U, s, V, Pi_K, E_p, L_p in zip(
            dec.S, dec.Lam, draw.svd.U, draw.svd.s, draw.svd.V, draw.Pi_K,
            E.tolist(), L.tolist())]
    F = np.array([d.F for d in decisions])
    feasible = check_feasible(E, F, lim_params.M, setup.tau)
    if not feasible.all():
        p = int(np.argmin(feasible))
        budget = energy.precoder_budget(F[p], lim_params.M, setup.tau)
        raise FeasibilityError(f"slot {state.n}: policy budget {budget:.6g} J "
                               f"exceeds stored energy {E[p]:.6g} J")

    lim = limiter.clip(state.x, L, lim_params.M)
    active = np.array([d.mode == "active" for d in decisions])
    transmitting = active & F.any(axis=(1, 2))
    Fq = (F @ lim.q[:, :, None])[:, :, 0]
    y = receive(draw.H, Fq, rngs, noiseless=~transmitting)
    spend = np.where(transmitting, np.linalg.norm(Fq, axis=1) ** 2 * setup.tau, 0.0)
    update = transmitting & ~lim.saturated
    Ftilde = np.where(update[:, None, None], draw.H @ F * lim.g[:, None, None], 0.0)

    sq_error = mse_sample(state.x, state.x_hat)
    sq_state = (state.x * state.x).sum(axis=1)
    u = control(model, state.x_hat)
    x_hat_next, Sigma_next = filter_step(
        state.x_hat, state.Sigma, y, Ftilde, model.A, model.B, u, model.W)
    w = np.array([g.standard_normal(K) for g in rngs]) @ model.W_sqrt.T
    x_next = step(model, state.x, u, w)

    alpha = sample_arrival(setup.arrivals, rngs)
    E_next = energy.spend_and_harvest(E, spend, alpha, setup.theta)

    trace = SlotTrace(
        n=state.n, E_before=E, L=L, active=active, gamma=(~lim.saturated).astype(int),
        energy_used=spend, Tr_Sigma=np.trace(state.Sigma, axis1=1, axis2=2),
        sq_error=sq_error, sq_state=sq_state, alpha=alpha,
    )
    next_state = SimState(n=state.n + 1, x=x_next, x_hat=x_hat_next,
                          Sigma=Sigma_next, E=E_next,
                          diverged=state.diverged | (sq_state > DIVERGENCE_GUARD))
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
    trace: SlotTrace | None = None  # the slots this path ran, with keep_traces


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
    return SimState(n=state.n, x=state.x[keep], x_hat=state.x_hat[keep],
                    Sigma=state.Sigma[keep], E=state.E[keep],
                    diverged=state.diverged[keep])


def _metric(values: np.ndarray) -> Metric:
    values = np.asarray(values, dtype=float)
    mean = float(values.mean())
    if values.size < 2:
        return Metric(mean=mean, ci_half_width=float("inf"))
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return Metric(mean=mean, ci_half_width=half)


def run_monte_carlo(setup: SimSetup, policy, n_paths: int, n_slots: int,
                    seed: int, keep_traces: bool = False) -> RunResult:
    """Independent paths with per-path RNG streams default_rng([seed, path]),
    all advanced together by `run_slot`.

    A path leaves the live set after the slot on which it trips the
    divergence guard; its means divide by the slots it ran.  One path is
    n_paths=1.
    """
    if n_paths < 1 or n_slots < 1:
        raise InputDomainError("run_monte_carlo: n_paths and n_slots must be >= 1")
    P, K = n_paths, setup.K
    rngs = [np.random.default_rng([seed, p]) for p in range(P)]
    state = initial_state(setup, P)
    live = np.arange(P)
    # per-path sums of squared error, Tr(Sigma), spend, harvest, saturated
    # and active slots, and slots run
    sums = np.zeros((6, P))
    n_run = np.zeros(P)
    diverged = np.zeros(P, dtype=bool)
    slots = []  # (live, SlotTrace) of each slot, with keep_traces
    for _ in range(n_slots):
        state, t = run_slot(setup, state, policy, rngs)
        sums[:, live] += (t.sq_error, t.Tr_Sigma, t.energy_used, t.alpha, 1 - t.gamma,
                          t.active)
        n_run[live] += 1
        if keep_traces:
            slots.append((live, t))
        if state.diverged.any():
            diverged[live] = state.diverged
            keep = ~state.diverged
            live = live[keep]
            if not live.size:
                break
            state = _take(state, keep)
            rngs = [g for g, k in zip(rngs, keep) if k]
    traces = [None] * P
    if keep_traces:
        # scatter each slot's live-path entries into (P, slots) columns; a
        # path runs from slot 0 until it leaves, so its row is a prefix
        rows = np.concatenate([idx for idx, _ in slots])
        cols = np.repeat(np.arange(len(slots)), [idx.size for idx, _ in slots])
        columns = []
        for f in fields(SlotTrace):
            values = np.concatenate([np.broadcast_to(getattr(t, f.name), idx.shape)
                                     for idx, t in slots])
            column = np.zeros((P, len(slots)), values.dtype)
            column[rows, cols] = values
            columns.append(column)
        traces = [SlotTrace(*(c[p, :n] for c in columns))
                  for p, n in enumerate(n_run.astype(int).tolist())]
    sq_err, tr_sigma, spent, harvested, n_sat, n_active = sums
    paths = [PathResult(*values) for values in zip(
        (sq_err / (n_run * K)).tolist(), (tr_sigma / n_run).tolist(),
        (n_sat / n_run).tolist(), (n_active / n_run).tolist(), spent.tolist(),
        harvested.tolist(), diverged.tolist(), traces)]
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
    if axis not in ("theta", "mean_alpha"):
        raise InputDomainError(f"sweep: unknown axis {axis!r}")
    values = list(values)
    if any(b < a for a, b in zip(values, values[1:])):
        raise InputDomainError("sweep: values must be ascending")
    rows = []
    for value in values:
        if axis == "theta":
            cfg = replace(setup, theta=float(value), E0=None)
        else:
            arr = replace(setup.arrivals, mean=float(value))
            cfg = replace(setup, arrivals=arr)
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

