from dataclasses import replace

import numpy as np
import pytest

from ehncs.limiter import (LimiterParams, clip, compute_theta, dynamic_range,
                           make_params)
from ehncs.numerics import InputDomainError
from ehncs.plant import PlantModel


def decoupled_model():
    return PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                      Psi=0.5 * np.eye(2))


def reference_model():
    return PlantModel(A=np.array([[1.3, 0.1], [-0.2, 1.2]]), B=np.eye(2),
                      W=np.diag([1.0, 2.0]), Psi=0.25 * np.eye(2))


class TestTheta:
    def test_decoupled_closed_form(self):
        # closed loop diag(0.8, 0.55), T = I: Q = diag(1/0.36, 1/0.6975),
        # Theta = ||F^T Q|| + sqrt(||F^T Q||^2 + ||Q||) = 20/9 + sqrt(400/81 + 25/9) = 5
        assert compute_theta(decoupled_model()) == pytest.approx(5.0, abs=1e-9)

    def test_reference_value_frozen(self):
        assert compute_theta(reference_model()) == pytest.approx(29.8096, abs=1e-3)


class TestParams:
    def test_validation(self):
        with pytest.raises(InputDomainError):
            LimiterParams(M=1.0, eps=1.5, Theta=5.0)
        with pytest.raises(InputDomainError):
            LimiterParams(M=-1.0, eps=0.1, Theta=5.0)
        with pytest.raises(InputDomainError):
            LimiterParams(M=1.0, eps=0.1, Theta=0.0)
        for bad in (np.nan, np.inf):
            with pytest.raises(InputDomainError):
                LimiterParams(M=bad, eps=0.1, Theta=5.0)
            with pytest.raises(InputDomainError):
                LimiterParams(M=1.0, eps=0.1, Theta=bad)

    def test_make_params(self):
        p = make_params(decoupled_model(), M=1.0, eps=0.1)
        assert p.Theta == pytest.approx(5.0)


class TestDynamicRange:
    def test_decoupled_published_form(self):
        # L = 22.36 + coeff sqrt(sigma1 + sigma2 - 2); published plots use
        # coeff = prefactor ||B Psi|| = 7.906
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.1)
        # Sigma = diag(10, 6), so Tr Sigma = 16
        expected = (1.0 + 0.8 * 5.0) / np.sqrt(0.1) * (0.5 * np.sqrt(14.0) + np.sqrt(2.0))
        assert dynamic_range(m, p, 16.0, gain_norm="BPsi") == pytest.approx(expected)
        base = dynamic_range(m, p, 2.0, gain_norm="BPsi")  # Sigma = I
        assert base == pytest.approx(22.3607, abs=1e-3)

    def test_normative_coefficient(self):
        # strict reading uses ||B Psi A|| = 0.8 instead of ||B Psi|| = 0.5
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.1)
        l_norm = dynamic_range(m, p, 6.0, gain_norm="BPsiA")  # Sigma = diag(3, 3)
        l_pub = dynamic_range(m, p, 6.0, gain_norm="BPsi")
        assert l_norm == pytest.approx(22.3607 + 12.6491 * 2.0, abs=1e-3)
        assert l_pub == pytest.approx(22.3607 + 7.9057 * 2.0, abs=1e-3)

    def test_startup_radicand_clamped(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.1)
        assert dynamic_range(m, p, 0.0) == pytest.approx(22.3607, abs=1e-3)

    def test_unknown_gain_norm(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.1)
        with pytest.raises(InputDomainError):
            dynamic_range(m, p, 2.0, gain_norm="other")

    def test_per_model_constants_do_not_go_stale(self):
        # Tr W and sqrt(Tr W) are derived once per PlantModel; models that
        # differ only in W, and params that differ only in eps, must each
        # give the formula computed from scratch
        def from_scratch(model, params, Sigma):
            tr_w = np.trace(model.W)
            coeff = np.linalg.norm(model.B @ model.Psi @ model.A, 2)
            prefactor = (1.0 + np.linalg.norm(model.A - model.B @ model.Psi @ model.A, 2)
                         * params.Theta) / np.sqrt(params.eps)
            excess = np.maximum(np.trace(Sigma, axis1=-2, axis2=-1) - tr_w, 0.0)
            return prefactor * (coeff * np.sqrt(excess) + np.sqrt(tr_w))

        m1 = reference_model()
        m2 = replace(m1, W=np.diag([4.0, 0.5]))
        p1 = make_params(m1, M=1.0, eps=0.1)
        p2 = replace(p1, eps=0.02)
        Sigma = np.stack([np.zeros((2, 2)), np.diag([2.0, 3.0]), np.diag([9.0, 7.0])])
        ranges = set()
        for m, p in ((m1, p1), (m2, p1), (m1, p2), (m2, p2)):
            L = dynamic_range(m, p, Sigma.trace(axis1=1, axis2=2))
            assert np.allclose(L, from_scratch(m, p, Sigma), rtol=1e-14, atol=0.0)
            ranges.add(L.tobytes())
        assert len(ranges) == 4


class TestClip:
    def test_linear_inside_range(self):
        out = clip(np.array([3.0, 4.0]), L=10.0, M=1.0)
        assert not out.saturated
        assert out.g == pytest.approx(0.1)
        assert np.allclose(out.q, [0.3, 0.4])

    def test_saturates_to_amplitude(self):
        out = clip(np.array([30.0, 40.0]), L=10.0, M=1.0)
        assert out.saturated
        assert np.linalg.norm(out.q) == pytest.approx(1.0)

    def test_boundary_not_saturated(self):
        out = clip(np.array([10.0, 0.0]), L=10.0, M=2.0)
        assert not out.saturated
        assert np.linalg.norm(out.q) == pytest.approx(2.0)

    def test_invalid_range(self):
        with pytest.raises(InputDomainError):
            clip(np.ones(2), L=0.0, M=1.0)
        with pytest.raises(InputDomainError):
            clip(np.ones((2, 2)), L=np.array([1.0, np.nan]), M=1.0)
        with pytest.raises(InputDomainError):
            clip(np.ones(2), L=1.0, M=np.nan)

    def test_output_never_exceeds_amplitude(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            x = rng.standard_normal(3) * rng.uniform(0, 100)
            out = clip(x, L=5.0, M=1.5)
            assert np.linalg.norm(out.q) <= 1.5 + 1e-12
