import numpy as np
import pytest

from ehncs.numerics import (BracketError, ConvergenceError, InputDomainError,
                            NotSchurStableError, bisect, eig_sym, solve_dare,
                            solve_stein, spectral_radius, svd)


class TestSvd:
    def test_identity(self):
        r = svd(np.eye(2))
        assert np.allclose(r.U, np.eye(2))
        assert np.allclose(r.Pi, np.eye(2))
        assert np.allclose(r.V, np.eye(2))

    def test_diagonal_descending(self):
        r = svd(np.diag([3.0, 1.0]))
        assert np.allclose(r.Pi, np.diag([3.0, 1.0]))
        assert np.allclose(r.singular_values, [3.0, 1.0])

    def test_random_rectangular_reconstruction(self):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        r = svd(H)
        assert np.abs(r.reconstruct() - H).max() < 1e-10 * np.abs(H).max()

    def test_nonfinite_rejected(self):
        with pytest.raises(InputDomainError):
            svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_reconstruction_and_unitarity_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n_c = rng.integers(1, 9)
            n_s = rng.integers(1, 9)
            H = rng.standard_normal((n_c, n_s)) + 1j * rng.standard_normal((n_c, n_s))
            r = svd(H)
            scale = max(1.0, np.abs(H).max())
            assert np.abs(r.reconstruct() - H).max() < 1e-10 * scale
            assert np.abs(r.U.conj().T @ r.U - np.eye(n_s)).max() < 1e-10
            assert np.abs(r.V.conj().T @ r.V - np.eye(n_c)).max() < 1e-10
            s = r.singular_values
            assert np.all(np.diff(s) <= 1e-12)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        r = svd(H)
        assert np.abs(r.reconstruct() - H).max() < 1e-10
        for p in range(4):
            one = svd(H[p])
            assert np.allclose(r.singular_values[p], one.singular_values)
            assert np.allclose(r.Pi[p], one.Pi)


class TestEigSym:
    def test_diagonal(self):
        r = eig_sym(np.diag([5.0, 2.0]))
        assert np.allclose(r.Lam, [5.0, 2.0])
        assert np.allclose(np.abs(r.S), np.eye(2))

    def test_hand_two_by_two(self):
        r = eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(r.Lam, [3.0, 1.0])

    def test_zero(self):
        r = eig_sym(np.zeros((3, 3)))
        assert np.allclose(r.Lam, 0.0)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputDomainError):
            eig_sym(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_psd_clamp(self):
        # round-off negative eigenvalue is clamped, a real one raises
        r = eig_sym(np.diag([1.0, -1e-14]))
        assert r.Lam.min() == 0.0
        with pytest.raises(InputDomainError):
            eig_sym(np.diag([1.0, -1e-6]))

    def test_trace_and_frobenius_preserved(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = rng.integers(1, 7)
            X = rng.standard_normal((k, k))
            Sigma = X @ X.T
            r = eig_sym(Sigma)
            assert abs(r.Lam.sum() - np.trace(Sigma)) < 1e-10 * max(1, np.trace(Sigma))
            assert abs(np.linalg.norm(r.Lam) - np.linalg.norm(Sigma)) < 1e-8
            assert np.abs(r.reconstruct() - Sigma).max() < 1e-10 * max(1.0, np.abs(Sigma).max())

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 3, 3))
        stack = X @ np.swapaxes(X, -1, -2)
        r = eig_sym(stack)
        for Sigma, S, Lam in zip(stack, r.S, r.Lam):
            one = eig_sym(Sigma)
            assert np.allclose(Lam, one.Lam)
            assert np.allclose(np.abs(S), np.abs(one.S))
        assert np.allclose(r.reconstruct(), stack)

    def test_stack_checks_each_matrix_on_its_own_scale(self):
        # -1e-10 is round-off next to 1e6 but not next to 1
        with pytest.raises(InputDomainError):
            eig_sym(np.stack([1e6 * np.eye(2), np.diag([1.0, -1e-10])]))
        with pytest.raises(InputDomainError):
            eig_sym(np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]))


class TestStein:
    def test_diagonal_hand_values(self):
        Q = solve_stein(np.diag([0.8, 0.55]), np.eye(2))
        # scalar Stein equations q = 1/(1 - f^2)
        assert np.allclose(np.diag(Q), [1.0 / 0.36, 1.0 / 0.6975])
        assert np.allclose(np.diag(Q), [2.7778, 1.4337], atol=1e-4)

    def test_zero_dynamics(self):
        assert np.allclose(solve_stein(np.zeros((2, 2)), np.eye(2)), np.eye(2))

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = rng.integers(1, 5)
            F = rng.standard_normal((k, k))
            F *= 0.95 / max(spectral_radius(F), 1e-3)
            T = np.eye(k)
            Q = solve_stein(F, T)
            res = F.T @ Q @ F - Q + T
            assert np.abs(res).max() < 1e-9 * max(1.0, np.abs(Q).max())

    def test_unstable_rejected(self):
        with pytest.raises(NotSchurStableError):
            solve_stein(np.diag([1.2, 0.5]), np.eye(2))

    def test_indefinite_t_rejected(self):
        with pytest.raises(InputDomainError):
            solve_stein(np.diag([0.5, 0.5]), np.diag([1.0, -1.0]))


class TestDare:
    def test_scalar_zero_dynamics(self):
        Z = solve_dare(np.array([[0.0]]), np.array([[1.0]]),
                       np.array([[1.0]]), np.array([[1.0]]))
        assert np.allclose(Z, 1.0)

    def test_scalar_no_control(self):
        Z = solve_dare(np.array([[0.5]]), np.array([[0.0]]),
                       np.array([[1.0]]), np.array([[1.0]]))
        assert np.allclose(Z, 4.0 / 3.0)

    def test_reference_plant_residual(self):
        A = np.array([[1.3, 0.1], [-0.2, 1.2]])
        B = np.eye(2)
        Z = solve_dare(A, B, np.eye(2), np.eye(2))
        gain = np.linalg.solve(B.T @ Z @ B + np.eye(2), B.T @ Z @ A)
        res = A.T @ Z @ A - (A.T @ Z @ B) @ gain + np.eye(2) - Z
        assert np.abs(res).max() < 1e-8
        assert np.abs(Z - Z.T).max() < 1e-10

    def test_divergent_iteration_raises(self):
        with pytest.raises(ConvergenceError):
            solve_dare(np.array([[2.0]]), np.array([[0.0]]),
                       np.array([[1.0]]), np.array([[1.0]]))


class TestBisect:
    def test_linear(self):
        assert abs(bisect(lambda x: x - 1.0, 0.0, 2.0) - 1.0) < 1e-12

    def test_sqrt_two(self):
        assert abs(bisect(lambda x: x * x - 2.0, 0.0, 2.0) - np.sqrt(2.0)) < 1e-10

    def test_no_bracket(self):
        with pytest.raises(BracketError):
            bisect(lambda x: x + 10.0, 0.0, 1.0)
