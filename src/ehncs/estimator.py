"""Virtual covariance recursion and the augmented-measurement state estimator.

The effective channel Ftilde = H F g is complex while the plant state is
real, so the measurement is stacked with its conjugate ("augmented" form)
before the usual Kalman algebra.  The covariance recursion is shared by
sensor and controller; it depends only on Ftilde, never on the realized
state.  `filter_step` advances a stack of paths at once; a path without a
measurement update (silent or saturated slot) carries Ftilde = 0.
"""

import numpy as np

from .numerics import herm

IMAG_RESIDUAL_TOL = 1e-6


class NumericalConsistencyError(RuntimeError):
    """A quantity that must be real came out with a large imaginary part."""


def augment(Ftilde: np.ndarray) -> np.ndarray:
    """Stack Ftilde over its elementwise conjugate: (..., 2 N_c, K)."""
    return np.concatenate([Ftilde, Ftilde.conj()], axis=-2)


def _real(z: np.ndarray, core_ndim: int, what: str) -> np.ndarray:
    """Real part of z, after checking per path (the leading axes) that its
    imaginary part is round-off."""
    axes = tuple(range(-core_ndim, 0))
    scale = np.maximum(1.0, np.abs(z).max(axis=axes))
    if (np.abs(z.imag).max(axis=axes) > IMAG_RESIDUAL_TOL * scale).any():
        raise NumericalConsistencyError(f"{what}: update has large imaginary part")
    return z.real


def filter_step(x_hat: np.ndarray, Sigma: np.ndarray, y: np.ndarray,
                Ftilde: np.ndarray, A: np.ndarray, B: np.ndarray, u: np.ndarray,
                W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-slot estimate and covariance of stacked paths, from one solve.

    x_hat (P, K), Sigma (P, K, K), y (P, N_c), Ftilde (P, N_c, K), u (P, D);
    the leading path axis may also be absent.  With F^a the augmented
    Ftilde, X = (F^a Sigma F^aH + I)^{-1} F^a Sigma gives the Kalman gain
    K = X^H, the estimate A x_hat + B u + A K (y^a - F^a x_hat) and the
    covariance A (Sigma - (F^a Sigma)^H X) A^T + W.  Ftilde is zero on every
    path without a measurement update: there X = 0, so the path reduces
    exactly to the prediction A x_hat + B u and A Sigma A^T + W.  Sigma is
    not checked here; the caller's eigendecomposition of it does that.
    """
    Fa = augment(Ftilde)
    FS = Fa @ Sigma
    X = np.linalg.solve(FS @ herm(Fa) + np.eye(Fa.shape[-2]), FS)

    ya = np.concatenate([y, y.conj()], axis=-1)
    innovation = ya - (Fa @ x_hat[..., None])[..., 0]
    corr = (herm(X) @ innovation[..., None])[..., 0] @ A.T
    x_next = x_hat @ A.T + u @ B.T + _real(corr, 1, "filter_step estimate")

    core = Sigma - _real(herm(FS) @ X, 2, "filter_step covariance")
    Sigma_next = A @ core @ A.T + W
    return x_next, (Sigma_next + np.swapaxes(Sigma_next, -1, -2)) / 2


def mse_sample(x: np.ndarray, x_hat: np.ndarray):
    """Squared estimation error ||x - x_hat||^2 (one per path when stacked)."""
    d = np.asarray(x, dtype=float) - np.asarray(x_hat, dtype=float)
    return (d * d).sum(axis=-1)
