import numpy as np
import pytest

from ehncs.analysis import _plug_in_terms, check_stability, delta_constant
from ehncs.channel import PiTildeLaw, PiTildeStats, estimate_pitilde_stats
from ehncs.limiter import make_params
from ehncs.numerics import InputDomainError
from ehncs.plant import PlantModel, instability_measure
from ehncs.precoder import solve_theorem1

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (assemble_precoder, drift_bound, problem1_objective,  # noqa: E402
                     random_feasible_precoder, reference_mse_bound,
                     reference_rhs_curve, right_singular_vectors)
from test_precoder import diagonal_ctx, make_ctx_and_channel  # noqa: E402


def decoupled_model():
    return PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                      Psi=0.5 * np.eye(2))


class TestDelta:
    def test_decoupled_hand_value(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.1)
        # sqrt(2/0.1) * (1 + 0.8*5) * 0.5 * 1.6 = 4.4721 * 5 * 0.8
        assert delta_constant(m, p) == pytest.approx(17.889, abs=1e-3)

    def test_quartering_eps_doubles_delta(self):
        m = decoupled_model()
        p1 = make_params(m, M=1.0, eps=0.1)
        p2 = make_params(m, M=1.0, eps=0.025)
        assert delta_constant(m, p2) == pytest.approx(2.0 * delta_constant(m, p1))


class TestCheckStability:
    def test_deterministic_channel_closed_form(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.001)
        c = 3.0
        stats = PiTildeStats(np.full(100, c))
        tau = 1e-4
        report = check_stability(m, p, stats, E_inv_alpha=1e-9, theta=1e9, tau=tau)
        m_a = instability_measure(m.A)
        m_aat = instability_measure(m.A @ m.A.T)
        delta = delta_constant(m, p)
        expected = (1.0 - p.eps * m_aat) * c / (delta**2 * 2 * tau * m_a * m_aat)
        assert report.rhs_max == pytest.approx(expected, rel=1e-9)
        assert report.margin == pytest.approx(report.rhs_max - report.lhs)
        assert report.satisfied == (report.margin > 0)

    @pytest.mark.parametrize("E_inv_alpha, theta, tau", [
        (0.01, 10.0, np.nan), (0.01, np.nan, 0.01), (np.nan, 10.0, 0.01)])
    def test_nan_inputs_rejected(self, E_inv_alpha, theta, tau):
        m = decoupled_model()
        stats = PiTildeStats(np.full(50, 1.0))
        with pytest.raises(InputDomainError):
            check_stability(m, make_params(m, M=1.0, eps=0.1), stats, E_inv_alpha,
                            theta, tau)

    def test_unsatisfiable_when_eps_too_large(self):
        m = decoupled_model()
        m_aat = instability_measure(m.A @ m.A.T)
        p = make_params(m, M=1.0, eps=min(0.9, 1.5 / m_aat))
        stats = PiTildeStats(np.full(50, 1.0))
        report = check_stability(m, p, stats, 0.01, 10.0, 0.01)
        assert report.rhs_max <= 0
        assert not report.satisfied
        eps_req = next(r for r in report.requirements if r.name == "limiter_eps_cap")
        assert not eps_req.satisfied

    def test_monotone_in_theta(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.001)
        stats = PiTildeStats(np.full(100, 3.0))
        flags = [check_stability(m, p, stats, 1e-9, theta, 1e-5).satisfied
                 for theta in (1.0, 10.0, 100.0, 1000.0)]
        # increasing theta only lowers the LHS: no true -> false flips
        assert flags == sorted(flags)

    def test_requirements_reported(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.001)
        stats = PiTildeStats(np.full(100, 3.0))
        report = check_stability(m, p, stats, 1e-9, 1e9, 1e-5)
        names = {r.name for r in report.requirements}
        assert names == {"limiter_eps_cap", "battery_theta_floor", "arrival_rate_floor"}
        assert report.satisfied
        assert all(r.satisfied for r in report.requirements)


def rhs_curve(m, p, stats, tau, xi):
    """num/den from the plug-in terms, -inf where den is inf."""
    num, den, _, delta = _plug_in_terms(m, p, tau, stats.prob_below(xi),
                                        stats.inv_mean_above(xi))
    return np.where(den < np.inf, num / den, -np.inf), delta


class TestRhsCurve:
    def test_matches_per_xi_loop_exactly(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.01)
        stats = estimate_pitilde_stats(np.random.default_rng(8), 2, 3, 2, 5000)
        xi = np.concatenate([stats.quantiles(200), [0.0, stats.samples[-1], 1e9]])
        rhs, delta = rhs_curve(m, p, stats, 0.01, xi)
        assert delta == delta_constant(m, p)
        assert np.array_equal(rhs, reference_rhs_curve(m, p, stats, 0.01, xi))
        assert rhs[-1] == -np.inf  # no sample at or above xi

    def test_nonpositive_inverse_mean_masked(self):
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.01)
        # E[1/pt | pt >= xi] is -0.25 at xi = -2 and 0.5 at xi = 1
        stats = PiTildeStats(np.array([-1.0, 2.0]))
        xi = np.array([-2.0, 1.0, 3.0])
        rhs, _ = rhs_curve(m, p, stats, 0.01, xi)
        assert np.array_equal(rhs, reference_rhs_curve(m, p, stats, 0.01, xi))
        assert rhs[0] == -np.inf and np.isfinite(rhs[1]) and rhs[2] == -np.inf


class TestMseBound:
    def args(self):
        # every quantile of the constant distribution, so xi*, is 3.0
        m = decoupled_model()
        p = make_params(m, M=1.0, eps=0.001)
        stats = PiTildeStats(np.full(100, 3.0))
        return m, p, stats

    def test_finite_when_stable(self):
        m, p, stats = self.args()
        rep = check_stability(m, p, stats, 1e-9, 1e3, 1e-5)
        assert rep.xi_star == 3.0
        assert rep.eta > 0
        assert np.isfinite(rep.mse_bound)

    def test_doubling_noise_scales_first_term(self):
        m, p, stats = self.args()
        m2 = PlantModel(A=m.A, B=m.B, W=2.0 * m.W, Psi=m.Psi)
        theta, tau = 1e3, 1e-5
        r1 = check_stability(m, p, stats, 1e-9, theta, tau)
        r2 = check_stability(m2, p, stats, 1e-9, theta, tau)
        assert r1.xi_star == r2.xi_star == 3.0
        assert r2.eta == pytest.approx(r1.eta)
        assert (r2.mse_bound - theta**2 / r2.eta) == pytest.approx(
            2.0 * (r1.mse_bound - theta**2 / r1.eta), rel=1e-9)

    def test_decreasing_in_arrival_rate(self):
        m, p, stats = self.args()
        b_small = check_stability(m, p, stats, 1e-6, 1e3, 1e-5).mse_bound
        b_large = check_stability(m, p, stats, 1e-4, 1e3, 1e-5).mse_bound
        assert b_small < b_large

    def test_undefined_when_eta_negative(self):
        m, p, stats = self.args()
        rep = check_stability(m, p, stats, E_inv_alpha=10.0, theta=1.0, tau=1.0)
        assert rep.xi_star == 3.0
        assert rep.eta <= 0 and rep.mse_bound is None and not rep.satisfied

    @pytest.mark.parametrize("stats", [
        PiTildeStats(np.full(100, 3.0)),
        estimate_pitilde_stats(np.random.default_rng(21), 2, 3, 2, 2000),
        PiTildeLaw(3)],
        ids=["constant", "estimated", "exact"])
    def test_matches_term_by_term_formula(self, stats):
        # eta = den (rhs_max - lhs) and the bound read off the plug-in terms
        # at xi* agree with each term evaluated on its own
        m = decoupled_model()
        rng = np.random.default_rng(22)
        outcomes = set()
        for _ in range(400):
            eps, tau = 10 ** rng.uniform(-3, -0.7), 10 ** rng.uniform(-7, -2)
            theta, e_inv = 10 ** rng.uniform(0, 4), 10 ** rng.uniform(-6, 0)
            p = make_params(m, M=1.0, eps=eps)
            rep = check_stability(m, p, stats, e_inv, theta, tau)
            eta, bound = reference_mse_bound(m, p, stats, e_inv, theta, tau,
                                             rep.xi_star)
            case = (eps, tau, theta, e_inv)
            assert rep.eta == pytest.approx(eta, rel=1e-12), case
            assert (rep.mse_bound is None) == (eta <= 0), case
            if bound is not None:
                assert rep.mse_bound == pytest.approx(bound, rel=1e-12), case
            assert (rep.eta > 0) == rep.satisfied, case
            outcomes.add(rep.satisfied)
        assert outcomes == {True, False}


class TestDriftBound:
    def test_zero_precoder_closed_form(self):
        ctx = diagonal_ctx([2.0, 1.0], [5.0, 3.0], E=4.0, theta=36.0)
        tr = 8.0
        expected = 0.5 * ctx.norm_AAT * (0.1 * tr + tr) - 0.5 * tr
        F0 = np.zeros((2, 2), dtype=complex)
        H = np.diag([2.0, 1.0]).astype(complex)
        assert drift_bound(ctx, H, F0, eps=0.1) == pytest.approx(expected, rel=1e-12)

    def test_solution_minimizes_over_random_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            ctx, H = make_ctx_and_channel(rng)
            d = solve_theorem1(ctx)
            U_K = right_singular_vectors(H, len(ctx.Pi_K))
            best = drift_bound(ctx, H, assemble_precoder(U_K, d.gains, d.basis, d.scale))
            for _ in range(100):
                F = random_feasible_precoder(ctx, H, rng)
                assert best <= drift_bound(ctx, H, F) + 1e-9 * max(1.0, abs(best))

    def test_consistent_with_problem_objective(self):
        # drift_bound differs from the optimization objective only by
        # F-independent terms
        rng = np.random.default_rng(12)
        ctx, H = make_ctx_and_channel(rng)
        F1 = random_feasible_precoder(ctx, H, rng)
        F2 = random_feasible_precoder(ctx, H, rng)
        diff_drift = drift_bound(ctx, H, F1) - drift_bound(ctx, H, F2)
        diff_obj = problem1_objective(ctx, H, F1) - problem1_objective(ctx, H, F2)
        assert diff_drift == pytest.approx(diff_obj, rel=1e-9, abs=1e-9)

    def test_better_channel_lowers_drift(self):
        F = 0.3 * np.eye(2, dtype=complex)
        weak = diagonal_ctx([1.0, 1.0], [5.0, 3.0], E=4.0, theta=36.0)
        strong = diagonal_ctx([2.0, 1.0], [5.0, 3.0], E=4.0, theta=36.0)
        assert (drift_bound(strong, np.diag([2.0, 1.0]), F)
                < drift_bound(weak, np.eye(2), F))
