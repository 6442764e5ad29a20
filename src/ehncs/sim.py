"""Stacked closed-loop slot step and the Monte Carlo experiment harness.

A slot runs: channel draw, dynamic range, precoding decision, limiter,
transmission, estimator and covariance updates, control, plant step, energy
spend and harvest.  `run_slot` advances every live path of a run at once:
the state is stacked along a leading path axis and each stage is one NumPy
call over all paths, except the random draws, which stay per path.  Every
policy `cli.policy_factory` returns carries a stacked form (see
`precoder`), which is called once per slot and returns the per-stream
factors (gains, basis) and active flags of every path.  Any other callable,
such as the benchmark's traced wrapper, is called once per path and
returns one decision, and the slot gathers the factors and modes in one
transpose of the decisions, zip(*decisions).  The two routes give a run
the same bytes, and the slot forms the stream factors from either the same
way.  At the top of each slot, one loop
over the paths has each generator fill its row of normals (channel,
receiver noise, plant noise, in that order) and then draw its arrival,
before any policy decides.  So a path does not depend on the others in
its run, and at one seed every policy and swept value sees the same draws.
`run_monte_carlo` keeps its per-path results as columns: one record array
with a row per path and, with traces kept, one SlotTrace of (P, n_slots)
columns.

The slot runs in the K-stream space and never forms the complex precoder.
F = U_K F_s lies on the channel's K leading right singular vectors, with
the real K x K stream factors F_s = diag(gains) basis^T, so
H F = V_K diag(Pi_K) F_s.  Every quantity the slot takes from F has a real
K-dimensional form: the budget M^2 ||F_s||^2 tau, the spend
||F_s q||^2 tau, the matched-filter output Re(V_K^H y) =
Pi_K (F_s q) + Re(V_K^H n) of `channel.receive`, and the estimator's
measurement matrix G = g diag(Pi_K) F_s, whose information 2 G^T G is
2 Re{Ftilde^H Ftilde} of the effective channel Ftilde = g H F.  So a draw
enters the slot through its singular values Pi_K alone: Re(V_K^H n) is
N(0, I_K / 2) whatever H is, and `receive` forms it from K of the path's
receiver normals, so no singular vector is computed.

At a few paths most of a slot is a fixed cost per stage call that does not
grow with P, so each stage keeps its arithmetic and trims its calls: the
per-model constants of the dynamic range are derived once in PlantModel,
Tr(Sigma) is taken once for both L and SlotTrace.Tr_Sigma, reductions are
ndarray methods, eig_sym's finiteness check reads the max-|entry| it takes
for its scale, filter_step adds a cached identity, and the channel's svd
computes singular values only.  The per-slot records (EigSymResult,
LimiterOutput, SlotTrace) are NamedTuples: a frozen dataclass sets each
field through object.__setattr__, a fixed cost per record and slot.
CHANGES.md holds the timings behind these choices.
"""

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

# The stacked clip and battery update are reached through their modules.
# bench/tracing.py wraps the names `clip` and `spend_and_harvest` only if
# this module has them, so today it attaches nothing to these calls.
# Importing the bare names would attach its per-path outcome observers,
# which call bool() on one path's result and raise on the stacked arrays.
from . import energy, limiter
from .channel import receive, sample_channel
from .energy import ArrivalModel, check_feasible, draw_arrival
from .estimator import filter_step, mse_sample
from .limiter import LimiterParams, dynamic_range
from .numerics import InputDomainError, eig_sym
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
        if not (0 < self.tau < math.inf and 0 < self.theta < math.inf):
            raise InputDomainError("SimSetup: tau and theta must be finite and > 0")
        if not self.model.tr_W > 0:  # L ~ sqrt(Tr W) would be 0 at Sigma = 0
            raise InputDomainError("SimSetup: plant noise W must be nonzero (Tr W > 0)")
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


class SlotTrace(NamedTuple):
    """Per-slot record.  From `run_slot` each field is a (P,) array over the
    live paths; in `RunResult.traces` each is a (P, n_slots) column, the
    slot index being the column index.
    """

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
    return SimState(0, np.zeros((n_paths, K)), np.zeros((n_paths, K)),
                    np.zeros((n_paths, K, K)), np.full(n_paths, float(setup.E0)))


def run_slot(setup: SimSetup, state: SimState, policy,
             rngs) -> tuple[SimState, SlotTrace]:
    """Advance the P stacked paths of `state` by one slot.

    rngs holds one generator per path.  Each draws the whole slot first: one
    row of 2 N_c N_s channel, 2 N_c receiver-noise and K plant-noise normals,
    then its arrival (none when deterministic).  The matched filter reads
    the first K receiver-noise normals, and a silent path's go unused.
    theta, tau, M, ||A A^T|| and the slot index are read once per slot.
    A policy with a `stacked` attribute is called once as
    policy.stacked(S, Lam, Pi_K, E, L, theta, tau, M, ||A A^T||, n) on the
    (P, ...) stacks and returns the gains (P, K), the basis and the active
    flags (P,) of every path.  Any other policy is called once per path with
    its DriftContext (a NamedTuple built positionally from the slot's
    values) and returns the factors of its F; one zip(*decisions) gathers
    the factors and modes.  Either way the slot forms the stream factors
    F_s = diag(gains) basis^T (P, K, K) once, with F = U_K F_s.
    The control u(n) = -Psi A x_hat(n) uses the estimate formed from
    measurements through slot n-1; the same u(n) drives the estimator
    prediction and the plant.  Energy spent on air is the realized
    ||F q||^2 tau = ||F_s q||^2 tau; feasibility is checked on the budget
    M^2 Tr(F^H F) tau = M^2 ||F_s||^2 tau, which the limiter makes the
    larger.  The estimator reads the matched-filter output of the received
    signal as the real measurement G x + e, e ~ N(0, I/2).
    """
    model, K, N_c, N_s = setup.model, setup.K, setup.N_c, setup.N_s
    theta, tau, M, c = setup.theta, setup.tau, setup.limiter.M, model.norm_AAT
    n, E, P, arrivals = state.n, state.E, len(rngs), setup.arrivals

    # each generator's draws of the slot: one row of normals (the channel,
    # the receiver noise, the plant noise), then the arrival
    n_H, n_y = 2 * N_c * N_s, 2 * N_c
    z = np.empty((P, n_H + n_y + K))
    alpha = np.empty(P)
    for p, g in enumerate(rngs):
        g.standard_normal(out=z[p])
        alpha[p] = draw_arrival(arrivals, g)

    Pi_K = sample_channel(z[:, :n_H].reshape(P, 2, N_c, N_s), K)
    tr_Sigma = state.Sigma.trace(axis1=1, axis2=2)
    L = dynamic_range(model, setup.limiter, tr_Sigma)
    dec = eig_sym(state.Sigma)
    stacked = getattr(policy, "stacked", None)
    if stacked is not None:
        gains, basis, active, _, _ = stacked(dec.S, dec.Lam, Pi_K, E, L, theta, tau, M,
                                             c, n)
    else:
        decisions = [policy(DriftContext(S, Lam, Pi_p, E_p, theta, tau, M, L_p, c, n))
                     for S, Lam, Pi_p, E_p, L_p in zip(
                         dec.S, dec.Lam, Pi_K, E.tolist(), L.tolist())]
        gains, basis, modes, _, _ = zip(*decisions)
        gains, basis = np.array(gains), np.array(basis)
        active = np.array([mode == "active" for mode in modes])
    # F = U_K F_s with F_s = diag(gains) basis^T; U_K has orthonormal
    # columns, so ||F|| = ||F_s|| and ||F q|| = ||F_s q||
    F_s = gains[:, :, None] * basis.swapaxes(1, 2)
    feasible = check_feasible(E, F_s, M, tau)
    if not feasible.all():
        p = int(np.argmin(feasible))
        budget = energy.precoder_budget(F_s[p], M, tau)
        raise FeasibilityError(f"slot {n}: policy budget {budget:.6g} J "
                               f"exceeds stored energy {E[p]:.6g} J")

    lim = limiter.clip(state.x, L, M)
    s = (F_s @ lim.q[:, :, None])[:, :, 0]
    obs = receive(Pi_K, s, z[:, n_H:n_H + K])
    # an active path with F_s = 0 spends 0 and measures with G = 0, exactly
    # as a silent one, so the mode alone gates the spend and the update
    spend = np.where(active, (s * s).sum(axis=1) * tau, 0.0)
    # obs = G x + e with G = g diag(Pi_K) F_s, zero where nothing updates
    gain = np.where(active & ~lim.saturated, lim.g, 0.0)
    G = (gain[:, None] * Pi_K)[:, :, None] * F_s

    sq_error = mse_sample(state.x, state.x_hat)
    sq_state = (state.x * state.x).sum(axis=1)
    u = control(model, state.x_hat)
    x_hat_next, Sigma_next = filter_step(
        state.x_hat, state.Sigma, obs, G, model.A, model.B, u, model.W)
    w = z[:, n_H + n_y:] @ model.W_sqrt.T
    x_next = step(model, state.x, u, w)
    E_next = energy.spend_and_harvest(E, spend, alpha, theta)

    trace = SlotTrace(E, L, active, (~lim.saturated).astype(int), spend, tr_Sigma,
                      sq_error, sq_state, alpha)
    return SimState(n + 1, x_next, x_hat_next, Sigma_next, E_next), trace


# per-path result columns of RunResult.paths
PATH_FIELDS = ("mse", "tr_sigma", "saturation_rate", "duty_cycle", "energy_used",
               "energy_harvested", "diverged", "n_run")


@dataclass(frozen=True)
class Metric:
    mean: float
    ci_half_width: float  # 95% normal CI


@dataclass(frozen=True)
class RunResult:
    """Means over paths, and the per-path results they come from.

    paths is a record array with one row per path and the fields of
    PATH_FIELDS: mse is the time-averaged ||x - x_hat||^2 / K, tr_sigma the
    time-averaged Tr(Sigma), duty_cycle the fraction of active-mode slots,
    energy_used the realized spend, and n_run the slots the path ran before
    leaving the run.  paths.mse is a
    (P,) column, and iterating paths yields rows with one attribute per
    field.  Its rows are aligned to 64 bytes with zeroed padding, so the
    bytes of a run are the same in every process.  With keep_traces, traces
    holds (P, n_slots) columns whose row p is valid for its first
    paths.n_run[p] slots.
    """

    n_paths: int
    n_slots: int
    seed: int
    mse: Metric
    tr_sigma: Metric
    saturation_rate: Metric
    duty_cycle: Metric
    n_diverged: int
    paths: np.recarray = field(repr=False)
    traces: SlotTrace | None = field(repr=False, default=None)

    @property
    def diverged(self) -> bool:
        return self.n_diverged > 0


def _take(state: SimState, keep: np.ndarray) -> SimState:
    return SimState(n=state.n, x=state.x[keep], x_hat=state.x_hat[keep],
                    Sigma=state.Sigma[keep], E=state.E[keep])


def _metric(values: np.ndarray) -> Metric:
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
    n_paths=1.  The live set is a slice of all P paths until the first path
    leaves, so the per-slot sums add into a view, and from then on the index
    array of the paths left; one code path serves both.
    """
    if n_paths < 1 or n_slots < 1:
        raise InputDomainError("run_monte_carlo: n_paths and n_slots must be >= 1")
    P, K = n_paths, setup.K
    rngs = [np.random.default_rng([seed, p]) for p in range(P)]
    state = initial_state(setup, P)
    live = slice(None)  # every path, until the first one leaves
    # per-path sums of squared error, Tr(Sigma), spend, harvest, saturated
    # and active slots, and slots run
    sums = np.zeros((6, P))
    n_run = np.zeros(P, dtype=int)
    diverged = np.zeros(P, dtype=bool)
    columns = []  # one (P, n_slots) column per SlotTrace field, with keep_traces
    for j in range(n_slots):
        state, t = run_slot(setup, state, policy, rngs)
        sums[:, live] += (t.sq_error, t.Tr_Sigma, t.energy_used, t.alpha, 1 - t.gamma,
                          t.active)
        n_run[live] += 1
        if keep_traces:
            if j == 0:
                columns = [np.zeros((P, n_slots), v.dtype) for v in t]
            for column, v in zip(columns, t):
                column[live, j] = v
        tripped = t.sq_state > DIVERGENCE_GUARD
        if tripped.any():
            diverged[live] = tripped
            keep = ~tripped
            live = np.arange(P)[live][keep]
            if not live.size:
                break
            state = _take(state, keep)
            rngs = [g for g, k in zip(rngs, keep) if k]
    sq_err, tr_sigma, spent, harvested, n_sat, n_active = sums
    values = [sq_err / (n_run * K), tr_sigma / n_run, n_sat / n_run, n_active / n_run,
              spent, harvested, diverged, n_run]
    # aligned: numpy buffers reductions over packed (unaligned) rows in
    # chunks, which moves the last bits of the means above 8192 paths; from
    # zeros, so the padding after `diverged` is zero and the bytes of a run
    # are the same in every process
    dtype = np.dtype([(name, v.dtype) for name, v in zip(PATH_FIELDS, values)],
                     align=True)
    paths = np.zeros(P, dtype).view(np.recarray)
    for name, v in zip(PATH_FIELDS, values):
        paths[name] = v
    # the first four path fields are the run's four Metric fields, by name
    return RunResult(
        n_paths=n_paths, n_slots=n_slots, seed=seed,
        **{name: _metric(paths[name]) for name in PATH_FIELDS[:4]},
        n_diverged=int(diverged.sum()), paths=paths,
        traces=SlotTrace(*columns) if keep_traces else None,
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

