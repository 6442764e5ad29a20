"""`filter_step`, one path at a time and as a stack of paths.

The classes group the checks by the output they read: the covariance
recursion (sigma step), the estimate, and the Kalman gain behind both.  A
complex measurement y = Ftilde x + n enters `filter_step` in its real form,
[Re y; Im y] = [Re Ftilde; Im Ftilde] x + e (`real_stack`), and the complex
references read Ftilde and y themselves.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from ehncs.estimator import filter_step, mse_sample

sys.path.insert(0, str(Path(__file__).parent))
from oracles import augment, augmented_filter_step, real_stack  # noqa: E402


def random_instance(rng, K=None, N_c=None):
    K = K or rng.integers(1, 5)
    N_c = N_c or rng.integers(1, 4)
    Ftilde = rng.standard_normal((N_c, K)) + 1j * rng.standard_normal((N_c, K))
    X = rng.standard_normal((K, K))
    Sigma = X @ X.T + 0.05 * np.eye(K)
    return Ftilde, Sigma


def covariance(Sigma, Ftilde, A, W):
    """filter_step's next covariance of one path (the estimate inputs are 0)."""
    N_c, K = Ftilde.shape
    return filter_step(np.zeros(K), Sigma, np.zeros(2 * N_c), real_stack(Ftilde), A,
                       np.eye(K), np.zeros(K), W)[1]


def gram_form(Sigma, Ftilde, A, W):
    """A (2 Re{Ftilde^H Ftilde} + Sigma^{-1})^{-1} A^T + W."""
    gram = 2.0 * np.real(Ftilde.conj().T @ Ftilde)
    return A @ np.linalg.inv(gram + np.linalg.inv(Sigma)) @ A.T + W


class TestAugmentedAlgebra:
    def test_gram_matches_augmented_stack(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            Ftilde, _ = random_instance(rng)
            Fa = augment(Ftilde)
            direct = Fa.conj().T @ Fa
            assert np.abs(direct.imag).max() < 1e-10
            assert np.allclose(direct.real, 2.0 * np.real(Ftilde.conj().T @ Ftilde))

    def test_gram_is_psd(self):
        rng = np.random.default_rng(1)
        Ftilde, _ = random_instance(rng)
        Fa = augment(Ftilde)
        assert np.linalg.eigvalsh(np.real(Fa.conj().T @ Fa)).min() > -1e-12


class TestSigmaStep:
    def test_scalar_half(self):
        # Sigma=1, Ftilde=1/sqrt(2): gram = 1, (1 + 1/1)^-1 = 1/2, A=1, W=0
        out = covariance(np.array([[1.0]]), np.array([[1.0 / np.sqrt(2.0)]]),
                         A=np.array([[1.0]]), W=np.array([[0.0]]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_prediction_when_gated(self):
        # a silent or saturated path in a stack carries Ftilde = 0 and gets
        # exactly the prediction, whatever the other paths do
        rng = np.random.default_rng(2)
        Ftilde, Sigma = random_instance(rng, K=2, N_c=2)
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        W = np.eye(2)
        x_hat = rng.standard_normal((2, 2))
        u = rng.standard_normal((2, 2))
        y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x_next, Sigma_next = filter_step(
            x_hat, np.stack([Sigma, Sigma]), real_stack(y, -1),
            real_stack(np.stack([Ftilde, np.zeros_like(Ftilde)])), A, B, u, W)
        pred = A @ Sigma @ A.T + W
        assert np.array_equal(Sigma_next[1], (pred + pred.T) / 2)
        assert np.array_equal(x_next[1], x_hat[1] @ A.T + u[1] @ B.T)
        assert not np.allclose(Sigma_next[0], Sigma_next[1])

    def test_gram_and_augmented_paths_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            Ftilde, Sigma = random_instance(rng)
            K = Sigma.shape[0]
            A = rng.standard_normal((K, K))
            W = np.eye(K)
            g = gram_form(Sigma, Ftilde, A, W)
            a = covariance(Sigma, Ftilde, A, W)
            assert np.abs(g - a).max() < 1e-8 * max(1.0, np.abs(g).max())

    def test_singular_sigma_needs_no_inverse(self):
        # Sigma = 0 start-up, where the Gram form would need Sigma^{-1}
        Ftilde = np.array([[1.0 + 1.0j, 0.5]])
        A = np.diag([1.3, 1.2])
        W = np.eye(2)
        out = covariance(np.zeros((2, 2)), Ftilde, A, W)
        assert np.allclose(out, W)

    def test_monotone_in_information(self):
        # adding a measurement never increases the updated covariance trace
        rng = np.random.default_rng(4)
        Ftilde, Sigma = random_instance(rng, K=3, N_c=2)
        A = rng.standard_normal((3, 3))
        W = np.eye(3)
        with_meas = covariance(Sigma, Ftilde, A, W)
        without = covariance(Sigma, np.zeros_like(Ftilde), A, W)
        assert np.trace(with_meas) <= np.trace(without) + 1e-12


class TestEstimateStep:
    def test_prediction_with_control(self):
        A = np.diag([1.3, 1.2])
        B = np.eye(2)
        x_hat = np.array([1.0, -1.0])
        u = np.array([0.5, 0.5])
        out, _ = filter_step(x_hat, np.eye(2), np.zeros(1), np.zeros((1, 2)), A, B, u,
                             np.eye(2))
        assert np.allclose(out, A @ x_hat + u)

    def test_exact_measurement_of_predicted_state(self):
        # innovation vanishes when y equals the model output at x_hat
        rng = np.random.default_rng(5)
        Ftilde, Sigma = random_instance(rng, K=2, N_c=2)
        A = rng.standard_normal((2, 2))
        x_hat = rng.standard_normal(2)
        y = Ftilde @ x_hat
        out, _ = filter_step(x_hat, Sigma, real_stack(y, -1), real_stack(Ftilde), A,
                             np.eye(2), np.zeros(2), np.eye(2))
        assert np.allclose(out, A @ x_hat)

    def test_output_is_real(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            Ftilde, Sigma = random_instance(rng, K=2, N_c=2)
            A = rng.standard_normal((2, 2))
            y = Ftilde @ rng.standard_normal(2) + (
                rng.standard_normal(2) + 1j * rng.standard_normal(2))
            x_next, Sigma_next = filter_step(rng.standard_normal(2), Sigma,
                                             real_stack(y, -1), real_stack(Ftilde),
                                             A, np.eye(2), np.zeros(2), np.eye(2))
            assert x_next.dtype.kind == "f" and Sigma_next.dtype.kind == "f"


class TestKalmanGain:
    def test_matches_direct_formula(self):
        # with A = I and x_hat = u = 0 the estimate is K y^a = 2 Re{K_1 y}
        # (K = [K_1, conj(K_1)]), so the probes y = e_j and y = i e_j, one
        # path each and in their real form, read off column j of K_1
        rng = np.random.default_rng(7)
        Ftilde, Sigma = random_instance(rng, K=3, N_c=2)
        probes = np.concatenate([np.eye(2), 1j * np.eye(2)])
        P = len(probes)
        out, _ = filter_step(np.zeros((P, 3)), np.broadcast_to(Sigma, (P, 3, 3)),
                             real_stack(probes, -1),
                             np.broadcast_to(real_stack(Ftilde), (P, 4, 3)), np.eye(3),
                             np.eye(3), np.zeros((P, 3)), np.zeros((3, 3)))
        K_1 = (out[:2] - 1j * out[2:]).T / 2
        Fa = augment(Ftilde)
        direct = Sigma @ Fa.conj().T @ np.linalg.inv(Fa @ Sigma @ Fa.conj().T
                                                     + np.eye(4))
        assert np.abs(np.hstack([K_1, K_1.conj()]) - direct).max() < 1e-10


def test_stack_matches_one_path_calls():
    # Sigma at scales 1e-6 to 1e3, Sigma = 0 and a rank-one Sigma, with and
    # without a measurement update: each path of the stack equals its own
    # call and agrees with the augmented-stack solve, exactly where gated
    rng = np.random.default_rng(8)
    for K, N_c in ((3, 2), (3, 1), (1, 1), (4, 3)):
        v = rng.standard_normal(K)
        Sigma = [scale * random_instance(rng, K=K, N_c=N_c)[1]
                 for scale in 10.0 ** np.arange(-6, 4)] + [np.zeros((K, K)),
                                                          np.outer(v, v)]
        Sigma = np.array(Sigma + Sigma[-3:])
        P = len(Sigma)
        Ftilde = np.array([random_instance(rng, K=K, N_c=N_c)[0] for _ in range(P)])
        gated = np.arange(P) >= P - 3
        Ftilde[gated] = 0.0
        x_hat = rng.standard_normal((P, K))
        y = rng.standard_normal((P, N_c)) + 1j * rng.standard_normal((P, N_c))
        u = rng.standard_normal((P, K))
        A, B = rng.standard_normal((K, K)), rng.standard_normal((K, K))
        W = np.eye(K)
        obs, G = real_stack(y, -1), real_stack(Ftilde)
        x_next, Sigma_next = filter_step(x_hat, Sigma, obs, G, A, B, u, W)
        x_ref, Sigma_ref = augmented_filter_step(x_hat, Sigma, y, Ftilde, A, B, u, W)
        for p in range(P):
            x_p, Sigma_p = filter_step(x_hat[p], Sigma[p], obs[p], G[p], A, B, u[p], W)
            assert np.abs(x_next[p] - x_p).max() <= 1e-12 * max(1.0, np.abs(x_p).max())
            assert np.abs(Sigma_next[p] - Sigma_p).max() <= 1e-12 * max(1.0, np.abs(Sigma_p).max())
            for got, want in ((x_next[p], x_ref[p]), (Sigma_next[p], Sigma_ref[p])):
                if gated[p]:
                    assert np.array_equal(got, want), (K, N_c, p)
                else:
                    assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max(), (K, N_c, p)


def test_mse_sample():
    assert mse_sample(np.array([1.0, 2.0]), np.array([0.0, 0.0])) == pytest.approx(5.0)
