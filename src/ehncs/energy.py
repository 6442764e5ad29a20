"""Renewable-energy arrival models and the battery dynamics (0 <= E <= theta)."""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError


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
        if not 0 <= self.mean < math.inf:
            raise InputDomainError("ArrivalModel: mean must be finite and >= 0")


def draw_arrival(model: ArrivalModel, rng: np.random.Generator, size=None):
    """One harvest draw as a float, or `size` draws as an array (the same
    values as `size` single draws).  A deterministic arrival draws nothing
    from rng."""
    if model.kind == "poisson":
        draw = rng.poisson(model.mean, size)
    else:
        draw = model.mean if size is None else np.full(size, model.mean)
    return float(draw) if size is None else draw.astype(float)


def spend_and_harvest(E, spend, alpha, theta):
    """Battery update E <- min([E - spend]^+ + alpha, theta).

    Spend happens before harvest within the slot; `check_feasible` keeps the
    spend within E upstream.  E, spend and alpha hold one entry per path.
    """
    if not np.minimum(spend, alpha).min() >= 0:  # also rejects NaN
        raise InputDomainError("spend_and_harvest: spend and alpha must be >= 0")
    return np.minimum(np.maximum(E - spend, 0.0) + alpha, theta)


def precoder_budget(F_s: np.ndarray, M: float, tau: float):
    """M^2 ||F_s||^2 tau: the most a precoder F = U_K F_s can spend in a
    slot, since the limiter keeps ||q|| <= M and U_K has orthonormal
    columns.  The stream factors F_s are real and may stack on leading axes."""
    F_s = np.asarray(F_s)
    return M**2 * (F_s * F_s).sum(axis=(-2, -1)) * tau


def check_feasible(E, F_s: np.ndarray, M: float, tau: float):
    """Energy-availability test `precoder_budget` <= E, with a slack of
    1e-9 J plus 1e-12 E for the round-off of a budget computed at E's scale.

    F_s may stack one path's stream factors per path, against one battery
    per path.
    """
    return precoder_budget(F_s, M, tau) <= E + 1e-9 + 1e-12 * E


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
    draws = draw_arrival(model, rng, size=n)
    pos = draws[draws > 0]
    if pos.size == 0:
        raise InputDomainError("estimate_inverse_mean: all draws were zero")
    return float((1.0 / pos).mean()), 1.0 - pos.size / draws.size
