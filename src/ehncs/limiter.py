"""Saturation energy limiter: clipping map and adaptive dynamic range.

The limiter guarantees ||q|| <= M for any input, which is what turns the
instantaneous energy-availability constraint into the tractable per-slot
budget M^2 Tr(F^H F) tau <= E.  The dynamic range L adapts to the virtual
covariance so the saturation probability stays below the target eps.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError, solve_stein
from .plant import PlantModel


@dataclass(frozen=True)
class LimiterParams:
    M: float  # saturation output amplitude
    eps: float  # target saturation probability, in (0, 1)
    Theta: float  # precomputed drift constant

    def __post_init__(self):
        if self.M <= 0:
            raise InputDomainError("LimiterParams: M must be > 0")
        if not 0 < self.eps < 1:
            raise InputDomainError("LimiterParams: eps must lie in (0, 1)")
        if self.Theta <= 0:
            raise InputDomainError("LimiterParams: Theta must be > 0")


@dataclass(frozen=True)
class LimiterOutput:
    """Limiter output; g and saturated hold one value per path when stacked."""

    q: np.ndarray
    g: float
    saturated: bool


def compute_theta(model: PlantModel, T: np.ndarray | None = None) -> float:
    """Drift constant from the closed-loop Stein equation.

    With F = A - B Psi A and Q solving F^T Q F - Q = -T:
        Theta = (1/mu_min(T)) (||F^T Q|| + (||F^T Q||^2 + mu_min(T) ||Q||)^{1/2})
    T defaults to the identity, which makes Theta deterministic.
    """
    cl = model.closed_loop
    if T is None:
        T = np.eye(model.K)
    Q = solve_stein(cl, T)
    mu_min = float(np.linalg.eigvalsh((T + T.T) / 2).min())
    n_fq = float(np.linalg.norm(cl.T @ Q, 2))
    n_q = float(np.linalg.norm(Q, 2))
    return (n_fq + np.sqrt(n_fq**2 + mu_min * n_q)) / mu_min


def make_params(model: PlantModel, M: float, eps: float,
                T: np.ndarray | None = None) -> LimiterParams:
    return LimiterParams(M=M, eps=eps, Theta=compute_theta(model, T))


def dynamic_range(model: PlantModel, params: LimiterParams, Sigma: np.ndarray,
                  gain_norm: str = "BPsiA") -> float:
    """Adaptive dynamic range

        L = (1/sqrt(eps)) (1 + ||A-BPsiA|| Theta)
            (coeff sqrt(Tr(Sigma) - Tr(W)) + sqrt(Tr(W)))

    with coeff = ||B Psi A|| (normative) or ||B Psi|| (gain_norm="BPsi",
    the variant needed to reproduce some published constants).  The radicand
    is clamped at 0, which only matters at the Sigma(0) = 0 start-up.  A
    stack of covariances gives one range per covariance.
    """
    if gain_norm == "BPsiA":
        coeff = model.norm_BPsiA
    elif gain_norm == "BPsi":
        coeff = model.norm_BPsi
    else:
        raise InputDomainError(f"dynamic_range: unknown gain_norm {gain_norm!r}")
    tr_sigma = np.trace(Sigma, axis1=-2, axis2=-1)
    tr_w = float(np.trace(model.W))
    excess = np.maximum(tr_sigma - tr_w, 0.0)
    prefactor = (1.0 + model.norm_closed_loop * params.Theta) / np.sqrt(params.eps)
    L = prefactor * (coeff * np.sqrt(excess) + np.sqrt(tr_w))
    return L if np.ndim(L) else float(L)


def clip(x: np.ndarray, L, M: float) -> LimiterOutput:
    """Amplitude limiter q = g x: linear gain M/L inside the range, hard
    attenuation to amplitude M beyond it.

    x may stack one state per path, with one range L per path.
    """
    if np.min(L) <= 0 or M <= 0:
        raise InputDomainError("clip: L and M must be > 0")
    x = np.asarray(x, dtype=float)
    norm = np.sqrt((x * x).sum(axis=-1))
    saturated = norm > L
    g = M / np.where(saturated, norm, L)
    return LimiterOutput(q=g[..., None] * x, g=g, saturated=saturated)
