"""Matrix decomposition and equation-solving kernels shared by all modules.

Every nontrivial linear-algebra operation used elsewhere lives behind one of
the functions here so it can be validated in isolation.  Ordering rules
(descending singular values / eigenvalues) are enforced here once, so the
per-stream pairing done by the precoder is deterministic.

Everything here but `solve_dare` is NumPy.  `solve_dare` imports SciPy when
first called, so importing the package does not load `scipy.linalg`.
"""

from dataclasses import dataclass

import numpy as np


class InputDomainError(ValueError):
    """Input outside the documented domain of an operation."""


class NotSchurStableError(ValueError):
    """Matrix expected to have spectral radius < 1 does not."""


class ConvergenceError(RuntimeError):
    """Equation solver found no finite solution."""


# eigenvalues of a PSD matrix may round off slightly negative; anything more
# negative than this is treated as a genuinely indefinite input
PSD_CLAMP_TOL = 1e-12

# matrices per eigvalsh call in singular_values
_GRAM_BLOCK = 8192


@dataclass(frozen=True)
class SvdResult:
    """H = V Pi U^H, Pi the rectangular diagonal of s (descending).

    Stacked decompositions carry the leading axes of the stacked input.
    """

    U: np.ndarray  # (..., N_s, N_s) unitary
    s: np.ndarray  # (..., min(N_c, N_s)) real, non-negative, descending
    V: np.ndarray  # (..., N_c, N_c) unitary

    def reconstruct(self) -> np.ndarray:
        k = self.s.shape[-1]
        return (self.V[..., :k] * self.s[..., None, :]) @ herm(self.U[..., :k])


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
    """Singular value decomposition in the form H = V Pi U^H.

    H may be one (N_c, N_s) matrix or a stack (..., N_c, N_s), decomposed in
    one LAPACK call.
    """
    H = np.asarray(H)
    if not np.isfinite(H).all():
        raise InputDomainError("svd: input has non-finite entries")
    # numpy gives H = V_ @ diag(s) @ Uh_; map onto H = V Pi U^H
    V_, s, Uh_ = np.linalg.svd(H, full_matrices=True)
    return SvdResult(U=herm(Uh_), s=s, V=V_)


def singular_values(H: np.ndarray) -> np.ndarray:
    """Singular values of one (N_c, N_s) matrix or a stack (n, N_c, N_s),
    descending, min(N_c, N_s) per matrix.

    They are sqrt(lambda) for the eigenvalues lambda of the smaller Gram
    matrix (H H^H when N_c <= N_s, else H^H H), found by one eigvalsh call
    per block of _GRAM_BLOCK matrices so the Gram stack's memory stays
    bounded.  The Gram squares the condition number: lambda carries an
    absolute rounding error of about 1e-16 * lambda_1.
    """
    H = np.asarray(H)
    if not np.isfinite(H).all():
        raise InputDomainError("singular_values: input has non-finite entries")
    stack = H.reshape((-1,) + H.shape[-2:])
    if stack.shape[-2] > stack.shape[-1]:
        stack = herm(stack)
    lam = np.empty(stack.shape[:-1])
    for i in range(0, len(stack), _GRAM_BLOCK):
        block = stack[i:i + _GRAM_BLOCK]
        lam[i:i + _GRAM_BLOCK] = np.linalg.eigvalsh(block @ herm(block))[:, ::-1]
    np.clip(lam, 0.0, None, out=lam)
    return np.sqrt(lam, out=lam).reshape(H.shape[:-2] + lam.shape[-1:])


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


def solve_dare(A: np.ndarray, B: np.ndarray, P: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Stabilizing solution of Z = A^T Z A - A^T Z B (B^T Z B + R)^{-1} B^T Z A + P.

    SciPy's generalized-eigenproblem solver (Arnold & Laub, Proc. IEEE 1984),
    symmetrized; raises ConvergenceError when it finds no finite solution.
    SciPy is imported on first use: only the gain design for a config that
    gives P and R in place of Psi calls this.
    """
    from scipy.linalg import LinAlgError, solve_discrete_are

    try:
        Z = solve_discrete_are(A, B, P, R)
    except (LinAlgError, ValueError) as exc:
        raise ConvergenceError(f"solve_dare: {exc}") from exc
    return (Z + Z.T) / 2
