"""Linear stochastic plant dynamics, controller gain and instability measures."""

from dataclasses import dataclass, field

import numpy as np

from .numerics import InputDomainError, NotSchurStableError, eig_sym, spectral_radius


class GainDesignError(ValueError):
    """Certainty-equivalent design found no stabilizing gain."""


@dataclass(frozen=True)
class PlantModel:
    """x(n+1) = A x(n) + B u(n) + w(n) with control u(n) = -Psi A x_hat(n).

    Validates at construction that the noise covariance W is symmetric PSD
    and that the closed loop A - B Psi A is Schur-stable.  The constants the
    per-slot loop reads are derived here, once per model: W_sqrt, Tr W and
    sqrt(Tr W) (for the dynamic range) and the spectral norms.  A frozen
    dataclass rebuilds them on `dataclasses.replace`, so they cannot go
    stale.
    """

    A: np.ndarray  # (K, K)
    B: np.ndarray  # (K, D)
    W: np.ndarray  # (K, K) plant-noise covariance
    Psi: np.ndarray  # (D, K) controller gain
    closed_loop: np.ndarray = field(init=False, repr=False)
    # factor S sqrt(Lam) of W = S Lam S^T, so W = W_sqrt W_sqrt^T
    W_sqrt: np.ndarray = field(init=False, repr=False)
    tr_W: float = field(init=False, repr=False)
    sqrt_tr_W: float = field(init=False, repr=False)
    # spectral norms cached at construction (hot in the per-slot loop)
    norm_AAT: float = field(init=False, repr=False)  # ||A A^T||
    norm_closed_loop: float = field(init=False, repr=False)  # ||A - B Psi A||
    norm_BPsi: float = field(init=False, repr=False)
    norm_BPsiA: float = field(init=False, repr=False)

    def __post_init__(self):
        A, B, W, Psi = (np.asarray(m, dtype=float)
                        for m in (self.A, self.B, self.W, self.Psi))
        K = A.shape[0]
        if A.shape != (K, K):
            raise InputDomainError("PlantModel: A must be square")
        if B.shape[0] != K or Psi.shape[1] != K or Psi.shape[0] != B.shape[1]:
            raise InputDomainError("PlantModel: B/Psi dimensions inconsistent")
        if W.shape != (K, K):
            raise InputDomainError("PlantModel: W must be K x K")
        W_dec = eig_sym(W)  # raises on asymmetric or indefinite W
        cl = A - B @ Psi @ A
        if spectral_radius(cl) >= 1.0:
            raise NotSchurStableError("PlantModel: A - B Psi A is not Schur-stable")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "Psi", Psi)
        object.__setattr__(self, "closed_loop", cl)
        object.__setattr__(self, "W_sqrt", W_dec.S * np.sqrt(W_dec.Lam))
        object.__setattr__(self, "tr_W", float(W.trace()))
        object.__setattr__(self, "sqrt_tr_W", float(np.sqrt(self.tr_W)))
        object.__setattr__(self, "norm_AAT", float(np.linalg.norm(A @ A.T, 2)))
        object.__setattr__(self, "norm_closed_loop", float(np.linalg.norm(cl, 2)))
        object.__setattr__(self, "norm_BPsi", float(np.linalg.norm(B @ Psi, 2)))
        object.__setattr__(self, "norm_BPsiA", float(np.linalg.norm(B @ Psi @ A, 2)))

    @property
    def K(self) -> int:
        return self.A.shape[0]

    @property
    def D(self) -> int:
        return self.B.shape[1]


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


def design_gain_ce(A, B, P, R) -> np.ndarray:
    """Certainty-equivalent gain Psi = (B^T Z B + R)^{-1} B^T Z for the control
    law u = -Psi A x_hat, which makes it the usual LQR feedback.

    Z is the stabilizing solution of the Riccati equation
    Z = A^T Z A - A^T Z B (B^T Z B + R)^{-1} B^T Z A + P from SciPy's
    generalized-eigenproblem solver (Arnold & Laub, Proc. IEEE 1984),
    symmetrized.  P and R are symmetrized first, (X + X^T)/2, so an
    asymmetry that the config's weight check tolerates does not fail SciPy's
    stricter symmetry test; a symmetric weight is left bit for bit.  SciPy
    is imported here, so only a config that gives P and R in place of Psi
    loads it.  A failed solve or a closed loop that is not Schur-stable
    raises GainDesignError.
    """
    from scipy.linalg import LinAlgError, solve_discrete_are

    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    P, R = (P + P.T) / 2, (R + R.T) / 2
    try:
        Z = solve_discrete_are(A, B, P, R)
    except (LinAlgError, ValueError) as exc:
        raise GainDesignError(f"design_gain_ce: DARE solve failed ({exc})") from exc
    BtZ = B.T @ ((Z + Z.T) / 2)
    Psi = np.linalg.solve(BtZ @ B + R, BtZ)
    cl = A - B @ Psi @ A
    if spectral_radius(cl) >= 1.0:
        raise GainDesignError("design_gain_ce: closed loop is not Schur-stable")
    return Psi
