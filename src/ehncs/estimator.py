"""Virtual covariance recursion and the information-form state estimator.

The controller observes the plant state through a real linear measurement
obs = G x + e, e ~ N(0, I/2).  In the closed loop G = g diag(Pi_K) F_s is
K x K: the matched filter Re(V_K^H y) of the complex received signal
(`channel.receive`) is a sufficient statistic for x, since the effective
channel Ftilde = g H F = g V_K diag(Pi_K) F_s.  Its Fisher information is
J = 2 G^T G = 2 Re{Ftilde^H Ftilde}, so the update is the information form
of the Kalman step: one real K x K solve per path.  A complex measurement
enters in the same form through its real stack G = [Re Ftilde; Im Ftilde]
and obs = [Re y; Im y].  The covariance recursion is shared by sensor and
controller; it depends only on G, never on the realized state.
`filter_step` advances a stack of paths at once; a path without a
measurement update (silent or saturated slot) carries G = 0.
"""

import numpy as np

from .numerics import identity


def filter_step(x_hat: np.ndarray, Sigma: np.ndarray, obs: np.ndarray,
                G: np.ndarray, A: np.ndarray, B: np.ndarray, u: np.ndarray,
                W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Next-slot estimate and covariance of stacked paths, from one K x K solve.

    x_hat (P, K), Sigma (P, K, K), the real measurement obs = G x + e,
    e ~ N(0, I/2), as obs (P, m) and G (P, m, K), and u (P, D); the leading
    path axis may also be absent.  The information of the measurement is
    J = 2 G^T G and its innovation r = 2 G^T (obs - G x_hat).  The posterior
    covariance is Sigma+ = (I + Sigma J)^{-1} Sigma, the estimate
    A (x_hat + Sigma+ r) + B u and the covariance A Sigma+ A^T + W.  G is
    zero on every path without a measurement update: there J = 0 and r = 0,
    so the path reduces exactly to the prediction A x_hat + B u and
    A Sigma A^T + W.  Sigma = 0 needs no inverse.  Sigma is not checked
    here; the caller's eigendecomposition of it does that.
    """
    Gt2 = 2.0 * G.swapaxes(-1, -2)
    innovation = obs - (G @ x_hat[..., None])[..., 0]
    r = (Gt2 @ innovation[..., None])[..., 0]
    post = np.linalg.solve(identity(len(A)) + Sigma @ (Gt2 @ G), Sigma)

    x_next = (x_hat + (post @ r[..., None])[..., 0]) @ A.T + u @ B.T
    Sigma_next = A @ post @ A.T + W
    return x_next, (Sigma_next + Sigma_next.swapaxes(-1, -2)) / 2


def mse_sample(x: np.ndarray, x_hat: np.ndarray):
    """Squared estimation error ||x - x_hat||^2 (one per path when stacked)."""
    d = np.asarray(x, dtype=float) - np.asarray(x_hat, dtype=float)
    return (d * d).sum(axis=-1)
