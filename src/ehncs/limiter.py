"""Saturation energy limiter: clipping map and adaptive dynamic range.

The limiter guarantees ||q|| <= M for any input, which is what turns the
instantaneous energy-availability constraint into the tractable per-slot
budget M^2 Tr(F^H F) tau <= E.  The dynamic range L adapts to the virtual
covariance so the saturation probability stays below the target eps.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numerics import InputDomainError, solve_stein
from .plant import PlantModel


@dataclass(frozen=True)
class LimiterParams:
    M: float  # saturation output amplitude
    eps: float  # target saturation probability, in (0, 1)
    Theta: float  # precomputed drift constant

    def __post_init__(self):
        if not 0 < self.M < math.inf:
            raise InputDomainError("LimiterParams: M must be finite and > 0")
        if not 0 < self.eps < 1:
            raise InputDomainError("LimiterParams: eps must lie in (0, 1)")
        if not 0 < self.Theta < math.inf:
            raise InputDomainError("LimiterParams: Theta must be finite and > 0")


class LimiterOutput(NamedTuple):
    """Limiter output; g and saturated hold one value per path when stacked."""

    q: np.ndarray
    g: float | np.ndarray
    saturated: bool | np.ndarray


def compute_theta(model: PlantModel) -> float:
    """Drift constant from the closed-loop Stein equation.

    With F = A - B Psi A and Q solving F^T Q F - Q = -I:
        Theta = ||F^T Q|| + (||F^T Q||^2 + ||Q||)^{1/2}
    (the general form with T = I in the Stein equation, so mu_min(T) = 1).
    """
    cl = model.closed_loop
    Q = solve_stein(cl, np.eye(model.K))
    n_fq = float(np.linalg.norm(cl.T @ Q, 2))
    n_q = float(np.linalg.norm(Q, 2))
    return n_fq + np.sqrt(n_fq**2 + n_q)


def make_params(model: PlantModel, M: float, eps: float) -> LimiterParams:
    return LimiterParams(M=M, eps=eps, Theta=compute_theta(model))


def dynamic_range(model: PlantModel, params: LimiterParams, tr_Sigma,
                  gain_norm: str = "BPsiA") -> np.ndarray:
    """Adaptive dynamic range

        L = (1/sqrt(eps)) (1 + ||A-BPsiA|| Theta)
            (coeff sqrt(Tr(Sigma) - Tr(W)) + sqrt(Tr(W)))

    from tr_Sigma = Tr(Sigma), the one thing L reads of the covariance, with
    coeff = ||B Psi A|| (normative) or ||B Psi|| (gain_norm="BPsi", the
    variant needed to reproduce some published constants).  The radicand is
    clamped at 0, which only matters at the Sigma(0) = 0 start-up.  An array
    of traces gives one range per trace.
    """
    if gain_norm == "BPsiA":
        coeff = model.norm_BPsiA
    elif gain_norm == "BPsi":
        coeff = model.norm_BPsi
    else:
        raise InputDomainError(f"dynamic_range: unknown gain_norm {gain_norm!r}")
    excess = np.maximum(tr_Sigma - model.tr_W, 0.0)
    prefactor = (1.0 + model.norm_closed_loop * params.Theta) / math.sqrt(params.eps)
    return prefactor * (coeff * np.sqrt(excess) + model.sqrt_tr_W)


def clip(x: np.ndarray, L, M: float) -> LimiterOutput:
    """Amplitude limiter q = g x: linear gain M/L inside the range, hard
    attenuation to amplitude M beyond it.

    x may stack one state per path, with one range L per path.
    """
    if not (np.asarray(L).min() > 0 and M > 0):  # also rejects NaN
        raise InputDomainError("clip: L and M must be > 0")
    x = np.asarray(x, dtype=float)
    norm = np.sqrt((x * x).sum(axis=-1))
    saturated = norm > L
    g = M / np.where(saturated, norm, L)
    return LimiterOutput(g[..., None] * x, g, saturated)
