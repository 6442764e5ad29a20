"""Matrix decomposition and equation-solving kernels.

They live here, apart from their callers, so each can be validated in
isolation against its own tests: the singular values of the channel
statistics, the symmetric eigendecomposition of the per-slot loop, the
Stein solve of the limiter's drift constant, and the cached identity that
the precoder and the estimator share.  One-line library calls stay at
their call site: the channel draw's values-only SVD, the estimator's
solve, the spectral norms in `plant`, `limiter` and `analysis`, and the
gain design's Riccati solve.
Singular values and eigenvalues come out descending, so the per-stream
pairing done by the precoder is deterministic.  Everything here is NumPy.
"""

import math
from functools import cache
from typing import NamedTuple

import numpy as np


class InputDomainError(ValueError):
    """Input outside the documented domain of an operation."""


class NotSchurStableError(ValueError):
    """Matrix expected to have spectral radius < 1 does not."""


# eigenvalues of a PSD matrix may round off slightly negative; anything more
# negative than this is treated as a genuinely indefinite input
PSD_CLAMP_TOL = 1e-12


class EigSymResult(NamedTuple):
    """Sigma = S @ diag(Lam) @ S.T with Lam descending, clamped to >= 0.

    Stacked decompositions carry the leading axes of the stacked input.
    """

    S: np.ndarray  # (..., K, K) real orthogonal
    Lam: np.ndarray  # (..., K) real, descending

    def reconstruct(self) -> np.ndarray:
        return (self.S * self.Lam[..., None, :]) @ np.swapaxes(self.S, -1, -2)


@cache
def identity(K: int) -> np.ndarray:
    """The K x K identity, built once per K and read-only, so every caller
    shares it."""
    eye = np.eye(K)
    eye.flags.writeable = False
    return eye


def herm(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return X.swapaxes(-1, -2).conj()


def singular_values(H: np.ndarray) -> np.ndarray:
    """Singular values of one (N_c, N_s) matrix or a stack (n, N_c, N_s),
    descending, min(N_c, N_s) per matrix.

    They are sqrt(lambda) for the eigenvalues lambda of the smaller Gram
    matrix (H H^H when N_c <= N_s, else H^H H).  A 2 x 2 Gram (min(N_c, N_s)
    = 2) takes the closed form of _gram2_eigvals over the whole stack; any
    other order takes one eigvalsh call over the Gram stack, which is never
    larger than the input.  The Gram squares the condition
    number: on either path lambda carries an absolute rounding error of
    about 1e-16 * lambda_1.
    """
    H = np.asarray(H)
    if not np.isfinite(H).all():
        raise InputDomainError("singular_values: input has non-finite entries")
    stack = H.reshape((-1,) + H.shape[-2:])
    if stack.shape[-2] > stack.shape[-1]:
        stack = herm(stack)
    if stack.shape[-2] == 2:
        lam = _gram2_eigvals(stack)
    else:
        lam = np.linalg.eigvalsh(stack @ herm(stack))[:, ::-1]
    np.clip(lam, 0.0, None, out=lam)
    return np.sqrt(lam, out=lam).reshape(H.shape[:-2] + lam.shape[-1:])


def _gram2_eigvals(rows: np.ndarray) -> np.ndarray:
    """Eigenvalues (n, 2), descending, of the Grams rows @ rows^H of a stack
    (n, 2, m), in closed form.

    With a = |h1|^2, d = |h2|^2 and b = h1 . h2^H for the rows h1, h2:
    lambda_1 = (a + d)/2 + hypot((a - d)/2, |b|) and lambda_2 =
    a (d/lambda_1) - |b| (|b|/lambda_1).  Dividing before multiplying keeps
    every intermediate at the scale of a Gram entry, so the range is that of
    the Gram itself; (a d - |b|^2)/lambda_1 squares Gram entries and would
    overflow or underflow beyond entry scales of about 1e+-77.  lambda_2 may
    come out negative by rounding (clamped by the caller) or, for near-equal
    eigenvalues, one ulp above lambda_1 (capped here so the pair stays
    descending).
    """
    h1, h2 = rows[:, 0], rows[:, 1]
    a = np.einsum("ij,ij->i", h1, h1.conj()).real
    d = np.einsum("ij,ij->i", h2, h2.conj()).real
    abs_b = np.abs(np.einsum("ij,ij->i", h1, h2.conj()))
    lam1 = (a + d) / 2 + np.hypot((a - d) / 2, abs_b)
    den = np.where(lam1 > 0, lam1, 1.0)  # lambda_1 = 0 only for two zero rows
    lam2 = np.minimum(a * (d / den) - abs_b * (abs_b / den), lam1)
    return np.stack([lam1, lam2], axis=-1)


def eig_sym(Sigma: np.ndarray) -> EigSymResult:
    """Eigendecomposition of a real symmetric PSD matrix, descending order.

    Sigma may be one (K, K) matrix or a stack (..., K, K), decomposed in one
    LAPACK call; each matrix is checked against its own scale, the largest
    |entry| or 1.  A NaN or an infinite entry makes that maximum non-finite,
    so the one reduction serves both the scale and the finiteness check.  An
    exactly symmetric stack, such as every Sigma of a closed-loop run, skips
    the asymmetry tolerance, which could not reject it.  An empty matrix
    (K = 0) is rejected.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if not Sigma.shape[-1]:
        raise InputDomainError("eig_sym: input is empty (K = 0)")
    abs_max = np.abs(Sigma).max(axis=(-2, -1))
    if not abs_max.max() < math.inf:  # also catches NaN
        raise InputDomainError("eig_sym: input has non-finite entries")
    scale = np.maximum(1.0, abs_max)
    if not (Sigma == Sigma.swapaxes(-1, -2)).all():
        asymmetry = Sigma - Sigma.swapaxes(-1, -2)
        if (np.abs(asymmetry, out=asymmetry).max(axis=(-2, -1)) > 1e-10 * scale).any():
            raise InputDomainError("eig_sym: input is not symmetric")
    lam, S = np.linalg.eigh(Sigma)  # ascending
    lam, S = lam[..., ::-1].copy(), S[..., ::-1].copy()
    lam_min = lam[..., -1]
    bad = lam_min < -PSD_CLAMP_TOL * scale
    if bad.any():
        raise InputDomainError(
            f"eig_sym: input is not PSD (min eigenvalue {lam_min[bad].min():.3e})")
    np.maximum(lam, 0.0, out=lam)
    return EigSymResult(S, lam)


def spectral_radius(F: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(F)).max())


def solve_stein(F: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Solve F^T Q F - Q = -T for Q, with F Schur-stable and T SPD.

    One dense solve of (I - F^T kron F^T) vec Q = vec T, a K^2 x K^2 system
    (row-major vec), then symmetrized.  That is small at the plant sizes
    used here, and its conditioning as rho(F) -> 1 is no worse than that of
    SciPy's solve_discrete_lyapunov, whose default method below 10 states
    solves the same system.
    """
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    if spectral_radius(F) >= 1.0:
        raise NotSchurStableError("solve_stein: spectral radius of F is >= 1")
    if np.linalg.eigvalsh((T + T.T) / 2).min() <= 0:
        raise InputDomainError("solve_stein: T must be positive definite")
    K = F.shape[0]
    Q = np.linalg.solve(np.eye(K * K) - np.kron(F.T, F.T), T.ravel()).reshape(K, K)
    return (Q + Q.T) / 2

