"""Renewable-energy arrival models and the battery (energy queue) dynamics."""

from dataclasses import dataclass, replace

import numpy as np

from .numerics import InputDomainError


@dataclass(frozen=True)
class EnergyQueue:
    """Battery state: 0 <= E <= theta at all times.  Units: Joules, seconds.

    E and overspend_count hold one value per path for stacked paths.
    """

    E: float
    theta: float
    tau: float
    overspend_count: int = 0  # slots where the requested spend exceeded E


@dataclass(frozen=True)
class ArrivalModel:
    """Harvestable-energy distribution: i.i.d. across slots.

    kind is "poisson" (mean Joules per slot) or "deterministic" (constant
    mean every slot).
    """

    kind: str
    mean: float = 0.0

    def __post_init__(self):
        if self.kind not in ("poisson", "deterministic"):
            raise InputDomainError(f"ArrivalModel: unknown kind {self.kind!r}")
        if self.mean < 0:
            raise InputDomainError("ArrivalModel: mean must be non-negative")


def _draw_arrival(model: ArrivalModel, rng: np.random.Generator, size=None):
    """One harvest draw as a float, or `size` draws as an array (the same
    values as `size` single draws)."""
    if model.kind == "poisson":
        draw = rng.poisson(model.mean, size)
    else:
        draw = model.mean if size is None else np.full(size, model.mean)
    return float(draw) if size is None else draw.astype(float)


def sample_arrival(model: ArrivalModel, rngs) -> np.ndarray:
    """One harvest draw per generator in rngs."""
    return np.array([_draw_arrival(model, g) for g in rngs])


def spend_and_harvest(queue: EnergyQueue, spend, alpha) -> EnergyQueue:
    """Queue update E <- min([E - spend]^+ + alpha, theta).

    Spend happens before harvest within the slot; feasibility of the spend
    is enforced upstream, here an overspend only bumps a warning counter.
    A queue whose E holds one battery per path takes one spend and one
    arrival per path.
    """
    if np.min(spend) < 0 or np.min(alpha) < 0:
        raise InputDomainError("spend_and_harvest: spend and alpha must be >= 0")
    overspend = queue.overspend_count + (spend > queue.E + 1e-9)
    E_next = np.minimum(np.maximum(queue.E - spend, 0.0) + alpha, queue.theta)
    return replace(queue, E=E_next, overspend_count=overspend)


def check_feasible(queue: EnergyQueue, F: np.ndarray, M: float):
    """Energy-availability test M^2 Tr(F^H F) tau <= E (absolute slack 1e-9).

    F may stack one precoder per path, against one battery per path.
    """
    F = np.asarray(F)
    budget = M**2 * np.sum(F.real**2 + F.imag**2, axis=(-2, -1)) * queue.tau
    return budget <= queue.E + 1e-9


def estimate_inverse_mean(model: ArrivalModel, rng: np.random.Generator,
                          n: int = 100_000) -> tuple[float, float]:
    """Empirical E[1/alpha | alpha > 0] and the zero-mass fraction.

    A Poisson arrival has positive mass at 0 where 1/alpha is undefined, so
    the mean is conditioned on alpha > 0 and the excluded fraction reported.
    """
    if model.kind == "deterministic":
        if model.mean <= 0:
            raise InputDomainError("estimate_inverse_mean: deterministic mean is 0")
        return 1.0 / model.mean, 0.0
    draws = _draw_arrival(model, rng, size=n)
    pos = draws[draws > 0]
    if pos.size == 0:
        raise InputDomainError("estimate_inverse_mean: all draws were zero")
    return float((1.0 / pos).mean()), 1.0 - pos.size / draws.size
