"""Stability sufficient condition, design requirements and the MSE bound.

All checks are plug-in evaluations over an empirical snapshot of the
normalized channel singular-value distribution.  The stability test compares
the energy-side quantity E[1/alpha] + 1/theta against the best achievable
channel/plant-side rate over a threshold xi; the same maximizer feeds the
MSE bound.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import PiTildeStats
from .limiter import LimiterParams
from .numerics import InputDomainError
from .plant import PlantModel, instability_measure


# grid resolution of the search for the stability maximizer xi*
_N_XI_QUANTILES = 200


class BoundUndefinedError(RuntimeError):
    """The MSE bound requires eta > 0, which the configuration fails."""


@dataclass(frozen=True)
class Requirement:
    name: str
    actual: float
    threshold: float
    satisfied: bool


@dataclass(frozen=True)
class StabilityReport:
    satisfied: bool
    lhs: float  # E[1/alpha] + 1/theta
    rhs_max: float
    xi_star: float
    delta: float
    margin: float  # rhs_max - lhs
    requirements: list[Requirement] = field(default_factory=list)


@dataclass(frozen=True)
class MseBoundReport:
    eta: float
    bound: float


def delta_constant(model: PlantModel, params: LimiterParams) -> float:
    """delta = sqrt(2/eps) (1 + ||A - B Psi A|| Theta) ||B Psi|| ||A||."""
    n_cl = model.norm_closed_loop
    n_bpsi = model.norm_BPsi
    n_a = float(np.linalg.norm(model.A, 2))
    return float(np.sqrt(2.0 / params.eps) * (1.0 + n_cl * params.Theta) * n_bpsi * n_a)


def _rhs_curve(model: PlantModel, params: LimiterParams, stats: PiTildeStats,
               tau: float, xi_grid: np.ndarray) -> tuple[np.ndarray, float]:
    K = model.K
    m_a = instability_measure(model.A)
    m_aat = instability_measure(model.A @ model.A.T)
    delta = delta_constant(model, params)
    num = 1.0 - (params.eps + K * stats.prob_below(xi_grid)) * m_aat
    inv_mean = stats.inv_mean_above(xi_grid)
    defined = np.isfinite(inv_mean) & (inv_mean > 0)
    den = delta**2 * K * tau * np.where(defined, inv_mean, 1.0) * m_a * m_aat
    rhs = np.where(defined, num / den, -np.inf)
    return rhs, delta


def check_stability(model: PlantModel, params: LimiterParams, stats: PiTildeStats,
                    E_inv_alpha: float, theta: float, tau: float) -> StabilityReport:
    """Sufficient stability condition

        E[1/alpha] + 1/theta
            < max_xi (1 - (eps + K Pr(pt < xi)) M(AA^T))
                     / (delta^2 K tau E[pt^{-1} | pt >= xi] M(A) M(AA^T))

    with pt the normalized unordered channel singular value.  The maximizer
    is found by grid search over _N_XI_QUANTILES empirical quantiles, and
    the three derived design requirements are evaluated at it.
    """
    if theta <= 0 or tau <= 0 or E_inv_alpha < 0:
        raise InputDomainError("check_stability: theta, tau > 0 and E_inv_alpha >= 0")
    xi_grid = stats.quantiles(_N_XI_QUANTILES)
    rhs, delta = _rhs_curve(model, params, stats, tau, xi_grid)
    i_star = int(np.argmax(rhs))
    rhs_max = float(rhs[i_star])
    xi_star = float(xi_grid[i_star])
    lhs = E_inv_alpha + 1.0 / theta
    satisfied = lhs < rhs_max

    K = model.K
    m_aat = instability_measure(model.A @ model.A.T)
    eps_cap = 1.0 / m_aat - K * stats.prob_below(xi_star)
    reqs = [Requirement("limiter_eps_cap", actual=params.eps, threshold=eps_cap,
                        satisfied=params.eps < eps_cap)]
    if rhs_max > 0:
        theta_floor = 1.0 / rhs_max
        reqs.append(Requirement("battery_theta_floor", actual=theta,
                                threshold=theta_floor, satisfied=theta > theta_floor))
        slack = rhs_max - 1.0 / theta
        if slack > 0:
            arrival_floor = 1.0 / slack
            mean_est = 1.0 / E_inv_alpha if E_inv_alpha > 0 else np.inf
            reqs.append(Requirement("arrival_rate_floor", actual=mean_est,
                                    threshold=arrival_floor,
                                    satisfied=mean_est > arrival_floor))
        else:
            reqs.append(Requirement("arrival_rate_floor", actual=0.0,
                                    threshold=np.inf, satisfied=False))
    else:
        reqs.append(Requirement("battery_theta_floor", actual=theta,
                                threshold=np.inf, satisfied=False))
        reqs.append(Requirement("arrival_rate_floor", actual=0.0,
                                threshold=np.inf, satisfied=False))

    return StabilityReport(satisfied=satisfied, lhs=lhs, rhs_max=rhs_max,
                           xi_star=xi_star, delta=delta, margin=rhs_max - lhs,
                           requirements=reqs)


def mse_bound(model: PlantModel, params: LimiterParams, stats: PiTildeStats,
              E_inv_alpha: float, theta: float, tau: float,
              xi_star: float | None = None) -> MseBoundReport:
    """Steady-state MSE upper bound

        (1/eta)(1 + K tau (delta^2/||B Psi||^2) E[pt^{-1}|pt>=xi*]
                    (E[1/alpha] + 1/theta) M(A) M(AA^T)) Tr(W) + theta^2/eta

    with eta = 1 - (eps + K Pr(pt<xi*)) M(AA^T)
             - (E[1/alpha] + 1/theta) K delta^2 tau E[pt^{-1}|pt>=xi*] M(A) M(AA^T).

    If xi_star is omitted it is taken from a fresh check_stability run.
    """
    if xi_star is None:
        xi_star = check_stability(model, params, stats, E_inv_alpha, theta, tau).xi_star
    K = model.K
    m_a = instability_measure(model.A)
    m_aat = instability_measure(model.A @ model.A.T)
    delta = delta_constant(model, params)
    inv_mean = stats.inv_mean_above(xi_star)
    lhs = E_inv_alpha + 1.0 / theta
    drift_term = lhs * K * delta**2 * tau * inv_mean * m_a * m_aat
    eta = 1.0 - (params.eps + K * stats.prob_below(xi_star)) * m_aat - drift_term
    if eta <= 0:
        raise BoundUndefinedError(f"mse_bound: eta = {eta:.4g} <= 0, bound undefined")
    n_bpsi = model.norm_BPsi
    bound = (1.0 / eta) * (1.0 + K * tau * (delta / n_bpsi) ** 2 * inv_mean
                           * lhs * m_a * m_aat) * float(np.trace(model.W)) \
        + theta**2 / eta
    return MseBoundReport(eta=eta, bound=float(bound))
