"""Virtual covariance recursion and the augmented-measurement state estimator.

The effective channel Ftilde = H F g is complex while the plant state is
real, so the measurement is stacked with its conjugate ("augmented" form)
before the usual Kalman algebra.  The covariance recursion is shared by
sensor and controller; it depends only on Ftilde and the saturation
indicator gamma, never on the realized state.  `filter_step` advances a
stack of paths at once; `sigma_step` and `estimate_step` are its one-path
halves and share its kernels.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import InputDomainError, herm

IMAG_RESIDUAL_TOL = 1e-6


class NumericalConsistencyError(RuntimeError):
    """A quantity that must be real came out with a large imaginary part."""


@dataclass
class EstimatorState:
    x_hat: np.ndarray  # (K,) real
    Sigma: np.ndarray  # (K, K) real symmetric PSD


def augment(Ftilde: np.ndarray) -> np.ndarray:
    """Stack Ftilde over its elementwise conjugate: (..., 2 N_c, K)."""
    return np.concatenate([Ftilde, Ftilde.conj()], axis=-2)


def gram_2re(Ftilde: np.ndarray) -> np.ndarray:
    """2 Re{Ftilde^H Ftilde}; equals (Ftilde^a)^H Ftilde^a and is real PSD."""
    G = herm(Ftilde) @ Ftilde
    return 2.0 * np.real(G)


def _check_psd(Sigma: np.ndarray) -> np.ndarray:
    Sigma = np.asarray(Sigma, dtype=float)
    scale = max(1.0, np.abs(Sigma).max())
    if np.abs(Sigma - Sigma.T).max() > 1e-9 * scale:
        raise InputDomainError("sigma_step: Sigma must be symmetric")
    if np.linalg.eigvalsh(Sigma).min() < -1e-9 * scale:
        raise InputDomainError("sigma_step: Sigma must be PSD")
    return Sigma


def _real(z: np.ndarray, core_ndim: int, what: str) -> np.ndarray:
    """Real part of z, after checking per path (the leading axes) that its
    imaginary part is round-off."""
    axes = tuple(range(-core_ndim, 0))
    scale = np.maximum(1.0, np.abs(z).max(axis=axes))
    if (np.abs(z.imag).max(axis=axes) > IMAG_RESIDUAL_TOL * scale).any():
        raise NumericalConsistencyError(f"{what}: update has large imaginary part")
    return z.real


def _innovation_solve(Sigma: np.ndarray, Ftilde: np.ndarray):
    """F^a, F^a Sigma and X = (F^a Sigma F^aH + I)^{-1} F^a Sigma.

    The Kalman gain is K = Sigma F^aH (F^a Sigma F^aH + I)^{-1} = X^H and
    the covariance update is (F^a Sigma)^H X, so one solve serves both.
    """
    Fa = augment(Ftilde)
    FS = Fa @ Sigma
    innov = FS @ herm(Fa) + np.eye(Fa.shape[-2])
    return Fa, FS, np.linalg.solve(innov, FS)


def _updated_covariance(Sigma: np.ndarray, FS: np.ndarray, X: np.ndarray) -> np.ndarray:
    return Sigma - _real(herm(FS) @ X, 2, "sigma_step")


def _correction(x_hat: np.ndarray, y: np.ndarray, Fa: np.ndarray, X: np.ndarray,
                A: np.ndarray) -> np.ndarray:
    """A K (y^a - F^a x_hat) with K = X^H."""
    ya = np.concatenate([y, y.conj()], axis=-1)
    innovation = ya - (Fa @ x_hat[..., None])[..., 0]
    corr = (herm(X) @ innovation[..., None])[..., 0] @ A.T
    return _real(corr, 1, "estimate_step")


def _propagate(core: np.ndarray, A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """A core A^T + W, symmetrized."""
    out = A @ core @ A.T + W
    return (out + np.swapaxes(out, -1, -2)) / 2


def sigma_step(Sigma: np.ndarray, Ftilde: np.ndarray | None, gamma: int,
               A: np.ndarray, W: np.ndarray, method: str = "auto") -> np.ndarray:
    """One step of the virtual covariance recursion.

    gamma = 0 (saturated slot) or Ftilde = 0 gives the prediction-only form
    A Sigma A^T + W.  Otherwise the measurement update is computed either on
    the augmented stack (method="augmented", safe for singular Sigma) or via
    the Gram-form identity (2 Re{Ftilde^H Ftilde} + Sigma^{-1})^{-1}
    (method="gram").  method="auto" picks by conditioning.
    """
    Sigma = _check_psd(Sigma)
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    if gamma == 0 or Ftilde is None or not np.any(Ftilde):
        return _propagate(Sigma, A, W)

    if method == "auto":
        lam = np.linalg.eigvalsh(Sigma)
        near_singular = lam.min() < 1e-12 * max(lam.max(), 1.0)
        method = "augmented" if near_singular else "gram"

    if method == "gram":
        G = gram_2re(Ftilde)
        core = np.linalg.inv(G + np.linalg.inv(Sigma))
    elif method == "augmented":
        _, FS, X = _innovation_solve(Sigma, Ftilde)
        core = _updated_covariance(Sigma, FS, X)
    else:
        raise InputDomainError(f"sigma_step: unknown method {method!r}")
    return _propagate(core, A, W)


def kalman_gain(Sigma: np.ndarray, Ftilde: np.ndarray) -> np.ndarray:
    """K = Sigma (F^a)^H (F^a Sigma (F^a)^H + I)^{-1} on the augmented stack."""
    return herm(_innovation_solve(Sigma, Ftilde)[2])


def estimate_step(x_hat: np.ndarray, Sigma: np.ndarray, y: np.ndarray | None,
                  Ftilde: np.ndarray | None, gamma: int, A: np.ndarray,
                  B: np.ndarray, u_prev: np.ndarray) -> np.ndarray:
    """Next-slot estimate A x_hat + B u_prev + gamma A K (y^a - F^a x_hat).

    The known control input enters the prediction; the innovation term is
    gated by the saturation indicator.  The result must be real up to
    round-off (the augmented stack enforces conjugate symmetry).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    pred = x_hat @ A.T + np.asarray(u_prev, dtype=float) @ B.T
    if gamma == 0 or Ftilde is None or not np.any(Ftilde):
        return pred
    Fa, _, X = _innovation_solve(Sigma, Ftilde)
    return pred + _correction(x_hat, y, Fa, X, A)


def filter_step(x_hat: np.ndarray, Sigma: np.ndarray, y: np.ndarray,
                Ftilde: np.ndarray, A: np.ndarray, B: np.ndarray, u: np.ndarray,
                W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-slot estimate and covariance of stacked paths, from one solve.

    x_hat (P, K), Sigma (P, K, K), y (P, N_c), Ftilde (P, N_c, K), u (P, D).
    Ftilde is zero on every path without a measurement update (silent or
    saturated slot): there X = 0, so the path reduces exactly to the
    prediction A x_hat + B u and A Sigma A^T + W.  Sigma is not checked here;
    the caller's eigendecomposition of it does that.
    """
    Fa, FS, X = _innovation_solve(Sigma, Ftilde)
    x_next = x_hat @ A.T + u @ B.T + _correction(x_hat, y, Fa, X, A)
    return x_next, _propagate(_updated_covariance(Sigma, FS, X), A, W)


def mse_sample(x: np.ndarray, x_hat: np.ndarray):
    """Squared estimation error ||x - x_hat||^2 (one per path when stacked)."""
    d = np.asarray(x, dtype=float) - np.asarray(x_hat, dtype=float)
    return (d * d).sum(axis=-1)
