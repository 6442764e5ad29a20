import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import reference_path  # noqa: E402

from ehncs.cli import policy_factory
from ehncs.energy import ArrivalModel
from ehncs.limiter import make_params
from ehncs.numerics import InputDomainError
from ehncs.plant import PlantModel
from ehncs.precoder import PrecoderDecision, solve_theorem1
from ehncs.sim import (FeasibilityError, SimSetup, decision_region_scan,
                       initial_state, run_monte_carlo, run_path, run_slot,
                       sweep)


def reference_model():
    return PlantModel(A=np.array([[1.3, 0.1], [-0.2, 1.2]]), B=np.eye(2),
                      W=np.diag([1.0, 2.0]), Psi=0.25 * np.eye(2))


def small_setup(theta=80.0, mean_alpha=40.0, eps=0.05):
    model = reference_model()
    return SimSetup(model=model, limiter=make_params(model, M=1.0, eps=eps),
                    arrivals=ArrivalModel(kind="poisson", mean=mean_alpha),
                    N_c=2, N_s=3, tau=0.01, theta=theta)


def zero_policy(ctx):
    K = len(ctx.Pi_K)
    n_s = ctx.svd.U.shape[0]
    return PrecoderDecision(F=np.zeros((n_s, K), dtype=complex), mode="dormant",
                            beta=0.0, allocations=np.zeros(K), energy_used=0.0)


class TestRunSlot:
    # one path, driven as a stack of one
    def test_silent_policy_gives_pure_prediction(self):
        setup = small_setup()
        state = initial_state(setup)
        rngs = [np.random.default_rng(0)]
        A, W = setup.model.A, setup.model.W
        Sigma = np.zeros((2, 2))
        for _ in range(5):
            state, trace = run_slot(setup, state, zero_policy, rngs)
            Sigma = A @ Sigma @ A.T + W
            assert np.allclose(state.Sigma[0], Sigma)
            assert trace.energy_used[0] == 0.0
            assert trace.mode[0] == "dormant"

    def test_unstable_open_loop_covariance_grows(self):
        setup = small_setup()
        state = initial_state(setup)
        rngs = [np.random.default_rng(1)]
        traces = []
        for _ in range(50):
            state, trace = run_slot(setup, state, zero_policy, rngs)
            traces.append(trace.Tr_Sigma[0])
        assert traces[-1] > 100.0 * max(traces[1], 1.0)

    def test_infeasible_policy_raises(self):
        setup = small_setup()
        state = initial_state(setup)

        def greedy(ctx):
            n_s = ctx.svd.U.shape[0]
            K = len(ctx.Pi_K)
            F = np.full((n_s, K), 1e6, dtype=complex)
            return PrecoderDecision(F=F, mode="active", beta=0.0,
                                    allocations=np.zeros(K),
                                    energy_used=1e12)

        with pytest.raises(FeasibilityError):
            run_slot(setup, state, greedy, [np.random.default_rng(2)])

    def test_battery_stays_in_range(self):
        setup = small_setup()
        state = initial_state(setup)
        rngs = [np.random.default_rng(3)]
        for _ in range(200):
            state, trace = run_slot(setup, state, solve_theorem1, rngs)
            assert 0.0 <= state.queue.E[0] <= setup.theta + 1e-12
            assert trace.energy_used[0] <= trace.E_before[0] + 1e-9


class TestMonteCarlo:
    def test_deterministic_replay(self):
        setup = small_setup()
        r1 = run_monte_carlo(setup, solve_theorem1, 3, 50, seed=7)
        r2 = run_monte_carlo(setup, solve_theorem1, 3, 50, seed=7)
        assert r1.mse.mean == r2.mse.mean
        assert [p.mse for p in r1.paths] == [p.mse for p in r2.paths]

    def test_single_path_reduces_to_slot_loop(self):
        setup = small_setup()
        r = run_monte_carlo(setup, solve_theorem1, 1, 40, seed=9)
        manual = run_path(setup, solve_theorem1, 40, np.random.default_rng([9, 0]))
        assert r.paths[0].mse == manual.mse
        assert r.paths[0].mean_tr_sigma == manual.mean_tr_sigma

    def test_energy_ledger(self):
        setup = small_setup()
        path = run_path(setup, solve_theorem1, 100, np.random.default_rng([5, 0]),
                        keep_traces=True)
        spent = sum(t.energy_used for t in path.traces)
        harvested = sum(t.alpha for t in path.traces)
        assert spent <= setup.E0 + harvested + 1e-9

    def test_ci_shrinks_with_paths(self):
        setup = small_setup()
        r1 = run_monte_carlo(setup, solve_theorem1, 40, 60, seed=13)
        r2 = run_monte_carlo(setup, solve_theorem1, 80, 60, seed=13)
        ratio = r2.mse.ci_half_width / r1.mse.ci_half_width
        assert 0.5 < ratio < 1.0  # approx 1/sqrt(2) with CLT slack

    def test_error_tracked_by_virtual_trace(self):
        # mean squared estimation error is tracked by the virtual covariance
        setup = small_setup()
        r = run_monte_carlo(setup, solve_theorem1, 20, 150, seed=17)
        assert r.mse.mean * setup.K <= r.tr_sigma.mean * (1.0 + 0.25)

    def test_validation(self):
        with pytest.raises(InputDomainError):
            run_monte_carlo(small_setup(), solve_theorem1, 0, 10, seed=1)


class TestStackedEngine:
    POLICIES = ("proposed", "baseline1", "baseline2", "baseline3", "baseline4",
                "baseline5")
    FIELDS = ("mse", "mean_tr_sigma", "saturation_rate", "duty_cycle",
              "energy_used", "energy_harvested")
    SEED = 3
    # at 60 slots no path reaches the default 1e12 guard; at 1e6 two
    # baseline2 paths at theta 40 trip it (paths 3 and 16 at SEED)
    GUARD = 1e6

    def setup_at(self, theta):
        return replace(small_setup(theta=theta), divergence_guard=self.GUARD)

    def test_matches_per_path_reference(self):
        n_paths, n_slots = 20, 60
        n_tripped = None
        for theta in (40.0, 120.0):
            setup = self.setup_at(theta)
            for name in self.POLICIES:
                policy = policy_factory(name)(setup)
                run = run_monte_carlo(setup, policy, n_paths, n_slots, self.SEED,
                                      keep_traces=True)
                for p, path in enumerate(run.paths):
                    ref, ref_slots = reference_path(
                        setup, policy, n_slots, np.random.default_rng([self.SEED, p]))
                    assert path.diverged == ref.diverged, (name, theta, p)
                    assert len(path.traces) == ref_slots, (name, theta, p)
                    for f in self.FIELDS:
                        assert getattr(path, f) == pytest.approx(
                            getattr(ref, f), rel=1e-9), (name, theta, p, f)
                if (name, theta) == ("baseline2", 40.0):
                    n_tripped = run.n_diverged
        assert n_tripped >= 1

        # a path does not depend on which other paths share its run, nor on
        # one of them leaving it at the guard
        setup = self.setup_at(40.0)
        policy = policy_factory("baseline2")(setup)
        wide = run_monte_carlo(setup, policy, 8, n_slots, self.SEED)
        narrow = run_monte_carlo(setup, policy, 3, n_slots, self.SEED)
        assert any(p.diverged for p in wide.paths[3:])
        for a, b in zip(wide.paths[:3], narrow.paths):
            assert a.diverged == b.diverged
            for f in self.FIELDS:
                assert getattr(a, f) == pytest.approx(getattr(b, f), rel=1e-12)


class TestSweep:
    def factories(self):
        return {"proposed": lambda setup: solve_theorem1}

    def test_single_value_matches_run(self):
        setup = small_setup()
        rows = sweep(setup, self.factories(), "theta", [80.0], 3, 30, seed=21)
        direct = run_monte_carlo(setup, solve_theorem1, 3, 30, seed=21)
        assert rows[0]["mse"] == direct.mse.mean

    def test_axis_values_must_ascend(self):
        with pytest.raises(InputDomainError):
            sweep(small_setup(), self.factories(), "theta", [80.0, 40.0], 1, 5, 1)

    def test_mean_alpha_axis_changes_arrivals(self):
        rows = sweep(small_setup(), self.factories(), "mean_alpha",
                     [5.0, 40.0], 3, 40, seed=23)
        assert rows[0]["value"] == 5.0
        # starved sensor spends less often
        assert rows[0]["duty_cycle"] <= rows[1]["duty_cycle"] + 0.05

    def test_unknown_axis(self):
        with pytest.raises(InputDomainError):
            sweep(small_setup(), self.factories(), "tau", [0.1], 1, 5, 1)

    def test_mean_alpha_axis_rejects_empirical_arrivals(self):
        # an empirical model's mean is that of its values, so the swept
        # value could not take effect
        setup = replace(small_setup(),
                        arrivals=ArrivalModel(kind="empirical", values=[1.0, 2.0, 3.0]))
        with pytest.raises(InputDomainError, match="mean_alpha.*empirical"):
            sweep(setup, self.factories(), "mean_alpha", [50.0], 1, 5, 1)


class TestDecisionRegions:
    def scan(self, E, n=12):
        model = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                           Psi=0.5 * np.eye(2))
        params = make_params(model, M=1.0, eps=0.1)
        h2 = np.linspace(8.0 / n, 8.0, n)
        s2 = np.linspace(100.0 / n, 100.0, n)
        return decision_region_scan(model, params, E, 4.0, 70.0, h2, s2,
                                    theta=36.0, tau=1.0)

    def test_far_corner_single_channel(self):
        scan = self.scan(E=12.0)
        # tiny h2 and sigma2: stream 2 below the water level
        assert scan["active_streams"][0, 0] <= 1

    def test_second_stream_activates_with_urgency(self):
        scan = self.scan(E=12.0)
        col = scan["active_streams"][:, -1]  # best h2, increasing sigma2
        assert col[-1] >= col[0]

    def test_region_grows_with_energy(self):
        both_12 = self.scan(E=12.0)["active_streams"] == 2
        both_20 = self.scan(E=20.0)["active_streams"] == 2
        assert np.all(both_20 | ~both_12)
        assert both_20.sum() > both_12.sum()
