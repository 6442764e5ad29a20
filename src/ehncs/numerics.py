"""Matrix decomposition and equation-solving kernels shared by all modules.

Every nontrivial linear-algebra operation used elsewhere lives behind one of
the functions here so it can be validated in isolation.  Ordering conventions
(descending singular values / eigenvalues) are enforced here once, so the
per-stream pairing done by the precoder is deterministic.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_discrete_lyapunov


class InputDomainError(ValueError):
    """Input outside the documented domain of an operation."""


class NotSchurStableError(ValueError):
    """Matrix expected to have spectral radius < 1 does not."""


class ConvergenceError(RuntimeError):
    """Iterative solver failed to converge within its iteration budget."""


class BracketError(ValueError):
    """Root bracket does not contain a sign change."""


# eigenvalues of a PSD matrix may round off slightly negative; anything more
# negative than this is treated as a genuinely indefinite input
PSD_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class SvdResult:
    """H = V @ Pi @ U^H with Pi rectangular diagonal, descending.

    Stacked decompositions carry the leading axes of the stacked input.
    """

    U: np.ndarray  # (..., N_s, N_s) unitary
    Pi: np.ndarray  # (..., N_c, N_s) real, non-negative diagonal
    V: np.ndarray  # (..., N_c, N_c) unitary

    @property
    def singular_values(self) -> np.ndarray:
        k = min(self.Pi.shape[-2:])
        return np.diagonal(self.Pi, axis1=-2, axis2=-1)[..., :k].copy()

    def reconstruct(self) -> np.ndarray:
        return self.V @ self.Pi @ herm(self.U)


@dataclass(frozen=True)
class EigSymResult:
    """Sigma = S @ diag(Lam) @ S.T with Lam descending, clamped to >= 0.

    Stacked decompositions carry the leading axes of the stacked input.
    """

    S: np.ndarray  # (..., K, K) real orthogonal
    Lam: np.ndarray  # (..., K) real, descending

    def reconstruct(self) -> np.ndarray:
        return (self.S * self.Lam[..., None, :]) @ np.swapaxes(self.S, -1, -2)


def herm(X: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(X, -1, -2).conj()


def svd(H: np.ndarray) -> SvdResult:
    """Singular value decomposition in the H = V Pi U^H convention.

    H may be one (N_c, N_s) matrix or a stack (..., N_c, N_s), decomposed in
    one LAPACK call.
    """
    H = np.asarray(H)
    if not np.isfinite(H).all():
        raise InputDomainError("svd: input has non-finite entries")
    # numpy convention H = V_ @ diag(s) @ Uh_; map onto H = V Pi U^H
    V_, s, Uh_ = np.linalg.svd(H, full_matrices=True)
    Pi = np.zeros(H.shape)
    k = np.arange(s.shape[-1])
    Pi[..., k, k] = s
    return SvdResult(U=herm(Uh_), Pi=Pi, V=V_)


def eig_sym(Sigma: np.ndarray) -> EigSymResult:
    """Eigendecomposition of a real symmetric PSD matrix, descending order.

    Sigma may be one (K, K) matrix or a stack (..., K, K), decomposed in one
    LAPACK call; each matrix is checked against its own scale.
    """
    Sigma = np.asarray(Sigma, dtype=float)
    if not np.isfinite(Sigma).all():
        raise InputDomainError("eig_sym: input has non-finite entries")
    scale = np.maximum(1.0, np.abs(Sigma).max(axis=(-2, -1)))
    asymmetry = np.abs(Sigma - np.swapaxes(Sigma, -1, -2)).max(axis=(-2, -1))
    if (asymmetry > 1e-10 * scale).any():
        raise InputDomainError("eig_sym: input is not symmetric")
    lam, S = np.linalg.eigh(Sigma)  # ascending
    lam = lam[..., ::-1].copy()
    S = S[..., ::-1].copy()
    if lam.shape[-1]:
        lam_min = lam[..., -1]
        bad = lam_min < -PSD_CLAMP_TOL * scale
        if bad.any():
            raise InputDomainError(
                f"eig_sym: input is not PSD (min eigenvalue {np.min(lam_min[bad]):.3e})"
            )
    np.clip(lam, 0.0, None, out=lam)
    return EigSymResult(S=S, Lam=lam)


def spectral_radius(F: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(F)).max())


def solve_stein(F: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Solve F^T Q F - Q = -T for Q, with F Schur-stable and T SPD."""
    F = np.asarray(F, dtype=float)
    T = np.asarray(T, dtype=float)
    if spectral_radius(F) >= 1.0:
        raise NotSchurStableError("solve_stein: spectral radius of F is >= 1")
    if np.linalg.eigvalsh((T + T.T) / 2).min() <= 0:
        raise InputDomainError("solve_stein: T must be positive definite")
    Q = solve_discrete_lyapunov(F.T, T)
    return (Q + Q.T) / 2


def solve_dare(
    A: np.ndarray,
    B: np.ndarray,
    P: np.ndarray,
    R: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100_000,
) -> np.ndarray:
    """Fixed-point solve of Z = A^T Z A - A^T Z B (B^T Z B + R)^{-1} B^T Z A + P.

    Iterates the recursion from Z0 = P until successive iterates differ by
    less than ``tol`` in max-norm.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    P = np.asarray(P, dtype=float)
    R = np.asarray(R, dtype=float)
    Z = P.copy()
    for _ in range(max_iter):
        BtZ = B.T @ Z
        gain = np.linalg.solve(BtZ @ B + R, BtZ @ A)
        with np.errstate(over="ignore", invalid="ignore"):
            Z_next = A.T @ Z @ A - (A.T @ Z @ B) @ gain + P
        Z_next = (Z_next + Z_next.T) / 2
        if not np.all(np.isfinite(Z_next)):
            raise ConvergenceError("solve_dare: iteration diverged")
        if np.abs(Z_next - Z).max() < tol:
            return Z_next
        Z = Z_next
    raise ConvergenceError(f"solve_dare: no convergence in {max_iter} iterations")


def bisect(f, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200) -> float:
    """Root of a monotone scalar function by bisection on [lo, hi]."""
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(f"bisect: no sign change on [{lo}, {hi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol or (hi - lo) <= tol * max(1.0, abs(mid)):
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)
