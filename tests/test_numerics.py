import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ehncs
from ehncs.channel import estimate_pitilde_stats
from ehncs.numerics import (ConvergenceError, InputDomainError, NotSchurStableError,
                            eig_sym, singular_values, solve_dare, solve_stein,
                            spectral_radius, svd)


class TestSvd:
    def test_identity(self):
        r = svd(np.eye(2))
        assert np.allclose(r.U, np.eye(2))
        assert np.allclose(r.s, [1.0, 1.0])
        assert np.allclose(r.V, np.eye(2))

    def test_diagonal_descending(self):
        r = svd(np.diag([3.0, 1.0]))
        assert np.allclose(r.s, [3.0, 1.0])

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
            assert r.s.shape == (min(n_c, n_s),)
            assert np.all(np.diff(r.s) <= 1e-12)

    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(2)
        H = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        r = svd(H)
        assert np.abs(r.reconstruct() - H).max() < 1e-10
        for p in range(4):
            one = svd(H[p])
            assert np.allclose(r.s[p], one.s)


class _FixedDraws:
    """Stands in for a Generator: returns the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


class TestSingularValues:
    @pytest.mark.parametrize("shape", [(9000, 2, 3), (9000, 4, 2), (9000, 3, 3),
                                       (5, 1, 1)])
    def test_matches_lapack_svd(self, shape):
        # 9000 matrices span two eigvalsh blocks, the last one partial
        rng = np.random.default_rng(10)
        H = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = singular_values(H)
        ref = np.linalg.svd(H, compute_uv=False)
        assert s.shape == ref.shape == (shape[0], min(shape[1:]))
        # errors are bounded against each matrix's largest singular value
        assert np.all(np.abs(s - ref) <= 1e-12 * ref[:, :1])

    def test_real_input(self):
        H = np.random.default_rng(11).standard_normal((50, 3, 2))
        assert np.allclose(singular_values(H), np.linalg.svd(H, compute_uv=False),
                           rtol=1e-12, atol=0.0)

    def test_descending(self):
        rng = np.random.default_rng(12)
        H = rng.standard_normal((200, 3, 4)) + 1j * rng.standard_normal((200, 3, 4))
        assert np.all(np.diff(singular_values(H), axis=-1) <= 0)
        assert np.array_equal(singular_values(np.diag([1.0, 3.0, 2.0])), [3.0, 2.0, 1.0])

    def test_one_matrix_unstacked(self):
        H = np.array([[3.0, 0.0, 0.0], [0.0, 0.0, 4.0j]])
        s = singular_values(H)
        assert s.shape == (2,)
        assert np.allclose(s, [4.0, 3.0], rtol=1e-15)
        assert np.array_equal(s, singular_values(H[None])[0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_rejected(self, bad):
        H = np.ones((3, 2, 2), dtype=complex)
        H[1, 0, 1] = bad
        with pytest.raises(InputDomainError):
            singular_values(H)

    def test_rank_deficient_draws_excluded(self):
        # draws 5.. are u v^H: the Gram leaves their sigma_2 at 0 or at its
        # rounding floor near 1e-8 sigma_1, and the degenerate rule drops them
        rng = np.random.default_rng(13)
        H = rng.standard_normal((25, 2, 3)) + 1j * rng.standard_normal((25, 2, 3))
        u = rng.standard_normal((20, 2, 1)) + 1j * rng.standard_normal((20, 2, 1))
        v = rng.standard_normal((20, 1, 3)) + 1j * rng.standard_normal((20, 1, 3))
        H[5:] = u @ v
        s = singular_values(H[5:])
        assert np.all(s[:, 1] < 1e-6 * s[:, 0])
        assert np.any(s[:, 1] > 1e-12)  # an absolute 1e-12 floor keeps these
        draws = (np.sqrt(2.0) * H.real, np.sqrt(2.0) * H.imag)
        stats = estimate_pitilde_stats(_FixedDraws(*draws), 2, 3, K=2, n_samples=25)
        assert stats.n_excluded == 20
        assert stats.samples.size == 5 * 2
        # with K = 1 only the leading singular value is used: nothing is dropped
        stats = estimate_pitilde_stats(_FixedDraws(*draws), 2, 3, K=1, n_samples=25)
        assert stats.n_excluded == 0


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

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_scipy_lyapunov(self, k):
        from scipy.linalg import solve_discrete_lyapunov

        rng = np.random.default_rng([17, k])
        for rho in (0.1, 0.5, 0.9, 0.99, 0.999):
            for _ in range(40):
                F = rng.standard_normal((k, k))
                F *= rho / max(spectral_radius(F), 1e-3)
                G = rng.standard_normal((k, k))
                T = G @ G.T + 0.1 * np.eye(k)
                Q = solve_stein(F, T)
                ref = solve_discrete_lyapunov(F.T, T)
                assert np.abs(Q - ref).max() <= 1e-10 * np.abs(ref).max()

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


# set-up and `ehncs analyze` on the reference config, in a fresh interpreter;
# prints whether SciPy was imported after each
_IMPORT_PROBE = """
import sys
from ehncs.cli import main
from ehncs.config import build_setup, parse_config
build_setup(parse_config(sys.argv[1]))
print("scipy" in sys.modules)
code = main(["analyze", "--config", sys.argv[1], "--out", sys.argv[2]])
print("scipy" in sys.modules)
sys.exit(code)
"""


def test_reference_path_does_not_import_scipy(tmp_path):
    package = Path(ehncs.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(package.parent))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(package / "configs" / "reference.cfg"),
         str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False", "False"]
    assert (tmp_path / "stability_report.txt").exists()
