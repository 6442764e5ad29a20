"""Linear stochastic plant dynamics, controller gain and instability measures."""

from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    InputDomainError,
    NotSchurStableError,
    eig_sym,
    solve_dare,
    spectral_radius,
)


class GainDesignError(ValueError):
    """Certainty-equivalent design produced an unstable closed loop."""


@dataclass(frozen=True)
class PlantModel:
    """x(n+1) = A x(n) + B u(n) + w(n) with control u(n) = -Psi A x_hat(n).

    Validates at construction that the noise covariance W is symmetric PSD
    and that the closed loop A - B Psi A is Schur-stable.
    """

    A: np.ndarray  # (K, K)
    B: np.ndarray  # (K, D)
    W: np.ndarray  # (K, K) plant-noise covariance
    Psi: np.ndarray  # (D, K) controller gain
    closed_loop: np.ndarray = field(init=False, repr=False)
    # spectral norms cached at construction (hot in the per-slot loop)
    _norm_AAT: float = field(init=False, repr=False)
    _norm_cl: float = field(init=False, repr=False)
    _norm_BPsi: float = field(init=False, repr=False)
    _norm_BPsiA: float = field(init=False, repr=False)

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B = np.asarray(self.B, dtype=float)
        W = np.asarray(self.W, dtype=float)
        Psi = np.asarray(self.Psi, dtype=float)
        K = A.shape[0]
        if A.shape != (K, K):
            raise InputDomainError("PlantModel: A must be square")
        if B.shape[0] != K or Psi.shape[1] != K or Psi.shape[0] != B.shape[1]:
            raise InputDomainError("PlantModel: B/Psi dimensions inconsistent")
        if W.shape != (K, K):
            raise InputDomainError("PlantModel: W must be K x K")
        eig_sym(W)  # raises on asymmetric or indefinite W
        cl = A - B @ Psi @ A
        if spectral_radius(cl) >= 1.0:
            raise NotSchurStableError("PlantModel: A - B Psi A is not Schur-stable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Psi", Psi)
        object.__setattr__(self, "closed_loop", cl)
        object.__setattr__(self, "_norm_AAT", float(np.linalg.norm(A @ A.T, 2)))
        object.__setattr__(self, "_norm_cl", float(np.linalg.norm(cl, 2)))
        object.__setattr__(self, "_norm_BPsi", float(np.linalg.norm(B @ Psi, 2)))
        object.__setattr__(self, "_norm_BPsiA", float(np.linalg.norm(B @ Psi @ A, 2)))

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def D(self) -> int:
        return self.B.shape[1]

    @property
    def norm_AAT(self) -> float:
        """Spectral norm of A A^T."""
        return self._norm_AAT

    @property
    def norm_closed_loop(self) -> float:
        """Spectral norm of A - B Psi A."""
        return self._norm_cl

    @property
    def norm_BPsi(self) -> float:
        return self._norm_BPsi

    @property
    def norm_BPsiA(self) -> float:
        return self._norm_BPsiA


def step(model: PlantModel, x, u, w) -> np.ndarray:
    """One slot of the plant recursion: A x + B u + w.

    x, u and w may stack one vector per path along their leading axes.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if (x.shape[-1:] != (model.K,) or u.shape[-1:] != (model.D,)
            or w.shape[-1:] != (model.K,)
            or not x.shape[:-1] == u.shape[:-1] == w.shape[:-1]):
        raise InputDomainError("step: dimension mismatch")
    return x @ model.A.T + u @ model.B.T + w


def control(model: PlantModel, x_hat) -> np.ndarray:
    """Control action u = -Psi A x_hat (x_hat may stack one estimate per path)."""
    return -(np.asarray(x_hat, dtype=float) @ model.A.T) @ model.Psi.T


def instability_measure(Mtx: np.ndarray) -> float:
    """Product of eigenvalue moduli clipped below at 1 (>= 1 always)."""
    Mtx = np.asarray(Mtx, dtype=float)
    mods = np.abs(np.linalg.eigvals(Mtx))
    return float(np.prod(np.maximum(1.0, mods)))


def design_gain_ce(A, B, P, R, convention: str = "standard") -> np.ndarray:
    """Certainty-equivalent gain Psi for the control law u = -Psi A x_hat.

    convention="standard": Psi = (B^T Z B + R)^{-1} B^T Z, which combined with
    the -Psi A x_hat law yields the usual LQR feedback.
    convention="negated": Psi carries an extra minus sign (the sign then
    cancels against the one in the control law).  The resulting closed loop
    is checked for Schur stability either way.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        Z = solve_dare(A, B, P, R)
    except Exception as exc:
        raise GainDesignError(f"design_gain_ce: DARE solve failed ({exc})") from exc
    BtZ = B.T @ Z
    core = np.linalg.solve(BtZ @ B + np.asarray(R, dtype=float), BtZ)
    if convention == "standard":
        Psi = core
    elif convention == "negated":
        Psi = -core
    else:
        raise InputDomainError(f"design_gain_ce: unknown convention {convention!r}")
    cl = A - B @ Psi @ A
    if spectral_radius(cl) >= 1.0:
        raise GainDesignError("design_gain_ce: closed loop is not Schur-stable")
    return Psi
