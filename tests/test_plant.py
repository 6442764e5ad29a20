import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import value_iteration_gain  # noqa: E402

from ehncs.numerics import InputDomainError, NotSchurStableError, spectral_radius
from ehncs.plant import (GainDesignError, PlantModel, control, design_gain_ce,
                         instability_measure, step)


def reference_model():
    return PlantModel(A=np.array([[1.3, 0.1], [-0.2, 1.2]]), B=np.eye(2),
                      W=np.diag([1.0, 2.0]), Psi=0.25 * np.eye(2))


def decoupled_model():
    return PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                      Psi=0.5 * np.eye(2))


class TestPlantModel:
    def test_construction_caches_closed_loop(self):
        m = reference_model()
        assert np.allclose(m.closed_loop, 0.75 * m.A)
        assert m.K == 2 and m.D == 2

    def test_nonsquare_a_rejected(self):
        with pytest.raises(InputDomainError):
            PlantModel(A=np.ones((2, 3)), B=np.eye(2), W=np.eye(2), Psi=np.eye(2))

    def test_asymmetric_w_rejected(self):
        with pytest.raises(InputDomainError):
            PlantModel(A=0.5 * np.eye(2), B=np.eye(2),
                       W=np.array([[1.0, 0.5], [0.0, 1.0]]), Psi=np.eye(2))

    @pytest.mark.parametrize("B, Psi", [
        (np.eye(3), np.eye(2)),  # B has 3 rows for 2 states
        (np.eye(2), np.eye(3, 2)),  # Psi has 3 rows for 2 inputs
        (np.eye(2), np.eye(2, 3)),  # Psi has 3 columns for 2 states
    ])
    def test_inconsistent_b_psi_rejected(self, B, Psi):
        with pytest.raises(InputDomainError, match="B/Psi"):
            PlantModel(A=0.5 * np.eye(2), B=B, W=np.eye(2), Psi=Psi)

    def test_w_of_wrong_shape_rejected(self):
        with pytest.raises(InputDomainError, match="W must be K x K"):
            PlantModel(A=0.5 * np.eye(2), B=np.eye(2), W=np.eye(3), Psi=np.eye(2))

    def test_unstable_closed_loop_rejected(self):
        with pytest.raises(NotSchurStableError):
            PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                       Psi=np.zeros((2, 2)))

    def test_cached_norms(self):
        m = reference_model()
        assert abs(m.norm_AAT - np.linalg.norm(m.A @ m.A.T, 2)) < 1e-12
        assert abs(m.norm_closed_loop - np.linalg.norm(m.closed_loop, 2)) < 1e-12
        assert abs(m.norm_BPsi - 0.25) < 1e-12
        # the cached noise factor reproduces W, also when W is rank-deficient
        v = np.array([[1.0], [-2.0]])
        for W in (np.diag([1.0, 2.0]), v @ v.T):
            W_sqrt = PlantModel(A=m.A, B=m.B, W=W, Psi=m.Psi).W_sqrt
            assert np.linalg.norm(W_sqrt @ W_sqrt.T - W) <= 1e-12 * np.linalg.norm(W)


class TestStepControl:
    def test_control_decoupled(self):
        u = control(decoupled_model(), np.array([1.0, 1.0]))
        assert np.allclose(u, [-0.8, -0.55])

    def test_control_reference(self):
        u = control(reference_model(), np.array([1.0, 0.0]))
        assert np.allclose(u, [-0.325, 0.05])

    def test_step_is_affine_recursion(self):
        m = reference_model()
        x = np.array([1.0, -1.0])
        u = np.array([0.5, 0.0])
        w = np.array([0.1, 0.2])
        assert np.allclose(step(m, x, u, w), m.A @ x + m.B @ u + w)

    def test_step_dimension_mismatch(self):
        with pytest.raises(InputDomainError):
            step(reference_model(), np.zeros(3), np.zeros(2), np.zeros(2))


class TestInstabilityMeasure:
    def test_reference_value(self):
        assert abs(instability_measure(np.array([[1.3, 0.1], [-0.2, 1.2]])) - 1.58) < 0.01

    def test_stable_matrix_is_one(self):
        assert instability_measure(np.diag([0.5, -0.9])) == 1.0

    def test_always_at_least_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            assert instability_measure(rng.standard_normal((3, 3))) >= 1.0

    def test_gram_matrix_paths_agree(self):
        # eigenvalues of A A^T are real; symmetric eigensolver must agree
        # with the general complex-eigenvalue path
        rng = np.random.default_rng(5)
        for _ in range(100):
            G = rng.standard_normal((3, 3))
            G = G @ G.T
            sym = float(np.prod(np.maximum(1.0, np.linalg.eigvalsh(G))))
            assert abs(instability_measure(G) - sym) < 1e-9 * max(1.0, sym)


class TestGainDesign:
    def test_scalar_design_is_stabilizing(self):
        A = np.array([[1.6]])
        B = np.array([[1.0]])
        Psi = design_gain_ce(A, B, np.array([[1.0]]), np.array([[1.0]]))
        assert abs(1.6 - Psi[0, 0] * 1.6) < 1.0

    def test_reference_plant_design(self):
        A = np.array([[1.3, 0.1], [-0.2, 1.2]])
        Psi = design_gain_ce(A, np.eye(2), np.eye(2), np.eye(2))
        assert spectral_radius(A - Psi @ A) < 1.0

    def test_scalar_zero_dynamics(self):
        # A = 0 leaves Z = P = 1, so Psi = Z / (Z + R) = 0.5
        Psi = design_gain_ce(np.array([[0.0]]), np.array([[1.0]]),
                             np.array([[1.0]]), np.array([[1.0]]))
        assert np.allclose(Psi, 0.5)

    def test_scalar_no_control(self):
        # with B = 0 the gain is 0 whatever Z (here 4/3) is
        Psi = design_gain_ce(np.array([[0.5]]), np.array([[0.0]]),
                             np.array([[1.0]]), np.array([[1.0]]))
        assert np.array_equal(Psi, [[0.0]])

    def test_reference_plant_matches_value_iteration(self):
        A = np.array([[1.3, 0.1], [-0.2, 1.2]])
        B, P, R = np.eye(2), np.eye(2), np.eye(2)
        Psi = design_gain_ce(A, B, P, R)
        ref = value_iteration_gain(A, B, P, R)
        assert np.abs(Psi - ref).max() <= 1e-8 * np.abs(ref).max()

    def test_riccati_failure_rejected(self):
        # SciPy finds the symplectic pencil of an indefinite state weight
        # too close to the unit circle and raises LinAlgError
        with pytest.raises(GainDesignError, match="DARE solve failed"):
            design_gain_ce(np.array([[1.3, 0.1], [-0.2, 1.2]]), np.eye(2),
                           -np.eye(2), np.eye(2))

    def test_unstabilizable_pair_rejected(self):
        # no input reaches the unstable mode, so no gain stabilizes the loop
        with pytest.raises(GainDesignError):
            design_gain_ce(np.array([[1.6]]), np.array([[0.0]]),
                           np.array([[1.0]]), np.array([[1.0]]))
