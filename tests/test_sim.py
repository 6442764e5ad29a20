import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (assemble_precoder, augmented_filter_step,  # noqa: E402
                     reference_path, reference_region_scan)

import ehncs
from ehncs import sim
from ehncs.channel import receive, sample_channel
from ehncs.cli import policy_factory
from ehncs.config import POLICY_NAMES, build_setup, parse_config
from ehncs.energy import ArrivalModel, check_feasible, precoder_budget
from ehncs.estimator import filter_step
from ehncs.limiter import make_params
from ehncs.numerics import InputDomainError, eig_sym
from ehncs.plant import PlantModel
from ehncs.precoder import (DriftContext, PrecoderDecision, decision_region_scan,
                            solve_theorem1)
from ehncs.sim import (FeasibilityError, SimSetup, initial_state, run_monte_carlo,
                       run_slot, sweep)


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
    return PrecoderDecision(gains=np.zeros(K), basis=np.eye(K), mode="dormant",
                            beta=0.0, allocations=np.zeros(K))


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
            assert not trace.active[0]

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
            K = len(ctx.Pi_K)
            return PrecoderDecision(gains=np.full(K, math.sqrt(3.0) * 1e6),
                                    basis=np.eye(K), mode="active",
                                    beta=0.0, allocations=np.zeros(K))

        # budget M^2 Tr(F^H F) tau = 1 * (2 * 3e12) * 0.01
        with pytest.raises(FeasibilityError, match=r"policy budget 6e\+10 J"):
            run_slot(setup, state, greedy, [np.random.default_rng(2)])

    def test_battery_stays_in_range(self):
        setup = small_setup()
        state = initial_state(setup)
        rngs = [np.random.default_rng(3)]
        for _ in range(200):
            state, trace = run_slot(setup, state, solve_theorem1, rngs)
            assert 0.0 <= state.E[0] <= setup.theta + 1e-12
            assert trace.energy_used[0] <= trace.E_before[0] + 1e-9

    @pytest.mark.parametrize("arrival", ["poisson", "deterministic"])
    @pytest.mark.parametrize("policy", [solve_theorem1, zero_policy],
                             ids=["sending", "silent"])
    def test_draws_follow_the_stream_order(self, arrival, policy, monkeypatch):
        # each slot consumes a path's generator as per-purpose draws from a
        # clone do: the channel, the receiver noise, the plant noise, then
        # the arrival (none when deterministic), whatever the path sends; the
        # matched filter reads the first K of the 2 N_c receiver normals
        setup = replace(small_setup(), arrivals=ArrivalModel(kind=arrival, mean=40.0))
        N_c, N_s, K, P = setup.N_c, setup.N_s, setup.K, 3
        seen = {}
        for name in ("sample_channel", "receive", "step"):
            def spy(*args, fn=getattr(sim, name), name=name):
                seen[name] = args, fn(*args)
                return seen[name][1]
            monkeypatch.setattr(sim, name, spy)
        rngs = [np.random.default_rng([4, p]) for p in range(P)]
        clones = [np.random.default_rng([4, p]) for p in range(P)]
        state = initial_state(setup, P)
        sent = False
        for _ in range(3):
            state, trace = run_slot(setup, state, policy, rngs)
            z_H = np.array([g.standard_normal((2, N_c, N_s)) for g in clones])
            z_y = np.array([g.standard_normal((2, N_c)) for g in clones])
            z_w = np.array([g.standard_normal(K) for g in clones])
            alpha = [g.poisson(40.0) if arrival == "poisson" else 40.0 for g in clones]
            (z, k), draw = seen["sample_channel"]
            assert np.array_equal(z, z_H) and k == K
            (Pi_K, s, z), obs = seen["receive"]
            assert Pi_K is draw
            assert np.array_equal(z, z_y.reshape(P, -1)[:, :K])
            assert np.array_equal(obs, receive(Pi_K, s, z))
            assert np.array_equal(seen["step"][0][3], z_w @ setup.model.W_sqrt.T)
            assert np.array_equal(trace.alpha, alpha)
            sent |= bool(trace.energy_used.any())
        assert sent == (policy is solve_theorem1)

    def test_each_row_is_its_generators_own_draw(self, monkeypatch):
        # a path's draws follow its generator, not its place in the stack or
        # the paths beside it: reordering the generators reorders the rows,
        # and a path run alone draws what it draws in the stack
        setup = small_setup()
        seen = []
        monkeypatch.setattr(sim, "sample_channel",
                            lambda z, K: (seen.append(z.copy()), sample_channel(z, K))[1])
        monkeypatch.setattr(
            sim, "receive",
            lambda Pi_K, s, z: (seen.append(z.copy()), receive(Pi_K, s, z))[1])
        seeds = (3, 4, 5)

        def one_slot(order):
            rngs = [np.random.default_rng(seeds[p]) for p in order]
            _, trace = run_slot(setup, initial_state(setup, len(rngs)), zero_policy, rngs)
            return seen[-2], seen[-1], trace.alpha

        z_H, z_y, alpha = one_slot([0, 1, 2])
        for got, want in zip(one_slot([2, 1, 0]), (z_H, z_y, alpha)):
            assert np.array_equal(got, want[::-1])
        for p in range(len(seeds)):
            for got, want in zip(one_slot([p]), (z_H, z_y, alpha)):
                assert np.array_equal(got, want[p:p + 1])

    @pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 3)])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_stacked_assembly_is_each_decisions_own_precoder(self, name, N_c, N_s,
                                                            monkeypatch):
        # the stream factors F_s that run_slot gathers over the stack equal,
        # bit for bit, each path's decision's own scale diag(gains) basis^T,
        # and U F_s is the decision's precoder F on any orthonormal U, on
        # every solver branch
        setup = replace(small_setup(), N_c=N_c, N_s=N_s)
        theta, K = setup.theta, setup.K
        seen = []
        monkeypatch.setattr(
            sim, "check_feasible",
            lambda E, F_s, M, tau: (seen.append(F_s), check_feasible(E, F_s, M, tau))[1])
        policy = policy_factory(name)(setup)
        decisions = []
        sends = set()

        def recorded(ctx):
            decisions.append(policy(ctx))
            return decisions[-1]

        rng = np.random.default_rng(8)
        X = rng.standard_normal((K, K))
        Z = rng.standard_normal((2, N_s, K))
        U = np.linalg.qr(Z[0] + 1j * Z[1])[0]  # orthonormal columns
        urgent = 1e4 * np.eye(K) + 1e3 * X @ X.T
        Sigmas = np.array([np.zeros((K, K)), np.zeros((K, K)), urgent, urgent, urgent])
        E = np.array([theta, theta / 2, 0.0, theta / 2, theta])
        P = len(E)
        for n in (0, 1):  # baseline2 decides only on every third slot
            state = sim.SimState(n=n, x=np.ones((P, K)), x_hat=np.zeros((P, K)),
                                 Sigma=Sigmas, E=E)
            decisions.clear()
            run_slot(setup, state, recorded,
                     [np.random.default_rng([9, p]) for p in range(P)])
            F_s = seen[-1]
            assert F_s.shape == (P, K, K)
            for p, d in enumerate(decisions):
                own = d.gains[:, None] * d.basis.T
                assert np.array_equal(F_s[p], own), (n, p)
                F = assemble_precoder(U, d.gains, d.basis)
                assert np.abs(U @ F_s[p] - F).max() <= 1e-15 * np.linalg.norm(F), (n, p)
            sends.update(F_s.any(axis=(1, 2)).tolist())
        assert sends == {False, True}
        if name == "proposed":
            # Sigma = 0, dormant, empty battery, then two that transmit
            assert [d.mode for d in decisions] == ["active", "dormant", "active",
                                                   "active", "active"]
            assert [bool(d.allocations.any()) for d in decisions] == [
                False, False, False, True, True]


@pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 3)])
def test_stream_space_chain_is_the_complex_one(N_c, N_s):
    # F = U_K F_s gives H F = V_K diag(Pi_K) F_s, so what the slot computes
    # in the K-stream space equals its complex form on random draws at
    # K = 2: the matched filter Pi_K (F_s q) + Re(V_K^H n), the information,
    # the budget and the update
    rng = np.random.default_rng([10, N_c, N_s])
    P, K = 50, 2
    z_H = rng.standard_normal((P, 2, N_c, N_s))
    H = (z_H[:, 0] + 1j * z_H[:, 1]) / np.sqrt(2.0)
    V, Pi, Uh = np.linalg.svd(H, full_matrices=False)
    U_K, V_K, Pi_K = Uh[:, :K].conj().swapaxes(1, 2), V[:, :, :K], sample_channel(z_H, K)
    F_s = rng.standard_normal((P, K, K))
    F = U_K @ F_s
    q, g = rng.standard_normal((P, K)), rng.uniform(0.1, 2.0, P)
    z = rng.standard_normal((P, 2, N_c))

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    close(Pi_K, Pi[:, :K])
    s = (F_s @ q[:, :, None])[:, :, 0]
    n = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    y = (H @ F @ q[:, :, None])[:, :, 0] + n
    # Re(V_K^H n) is N(0, I_K / 2), the law of receive's K normals over sqrt(2)
    noise = (V_K.conj().swapaxes(1, 2) @ n[:, :, None])[:, :, 0].real
    obs = receive(Pi_K, s, np.sqrt(2.0) * noise)
    close(obs, (V_K.conj().swapaxes(1, 2) @ y[:, :, None])[:, :, 0].real)
    G = (g[:, None] * Pi_K)[:, :, None] * F_s
    Ftilde = H @ F * g[:, None, None]
    close(2.0 * G.swapaxes(1, 2) @ G, 2.0 * (Ftilde.conj().swapaxes(1, 2) @ Ftilde).real)
    # the budget of the stream factors is F's, M^2 Tr(F^H F) tau
    close(precoder_budget(F_s, 1.5, 0.01),
          1.5**2 * (F.conj() * F).real.sum(axis=(1, 2)) * 0.01)
    X = rng.standard_normal((P, K, K))
    Sigma = X @ X.swapaxes(1, 2) + 0.1 * np.eye(K)
    x_hat, u = rng.standard_normal((P, K)), rng.standard_normal((P, K))
    A, B, W = rng.standard_normal((K, K)), rng.standard_normal((K, K)), np.eye(K)
    for got, want in zip(filter_step(x_hat, Sigma, obs, G, A, B, u, W),
                         augmented_filter_step(x_hat, Sigma, y, Ftilde, A, B, u, W)):
        close(got, want)


# md5 of the bytes of one run's per-path records, in a fresh interpreter
_PATHS_MD5 = """
import hashlib, sys
from ehncs.config import build_setup, parse_config
from ehncs.precoder import solve_theorem1
from ehncs.sim import run_monte_carlo
run = run_monte_carlo(build_setup(parse_config(sys.argv[1])), solve_theorem1, 20, 30, 3)
print(hashlib.md5(run.paths.tobytes()).hexdigest())
"""


class TestMonteCarlo:
    def test_deterministic_replay(self):
        setup = small_setup()
        r1 = run_monte_carlo(setup, solve_theorem1, 3, 50, seed=7)
        r2 = run_monte_carlo(setup, solve_theorem1, 3, 50, seed=7)
        assert r1.mse.mean == r2.mse.mean
        assert r1.paths.mse.tolist() == r2.paths.mse.tolist()

    def test_energy_ledger(self):
        setup = small_setup()
        traces = run_monte_carlo(setup, solve_theorem1, 1, 100, seed=5,
                                 keep_traces=True).traces
        spent = traces.energy_used[0].sum()
        harvested = traces.alpha[0].sum()
        assert spent <= setup.E0 + harvested + 1e-9

    @pytest.mark.parametrize("name", ["baseline1", "baseline3"])
    def test_full_budget_baseline_at_large_battery(self, name):
        # these baselines spend the whole battery, so at theta = 1e8 J the
        # budget matches E only up to round-off, far above 1e-9 J
        setup = small_setup(theta=1e8)
        run = run_monte_carlo(setup, policy_factory(name)(setup), 2, 5, seed=1)
        assert run.n_paths == 2 and not run.diverged

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

    def test_run_stops_when_every_path_has_diverged(self, monkeypatch):
        # below any ||x||^2, so every path trips the guard on slot 0
        monkeypatch.setattr(sim, "DIVERGENCE_GUARD", -1.0)
        run = run_monte_carlo(small_setup(), solve_theorem1, 3, 10, seed=1,
                              keep_traces=True)
        assert run.n_diverged == 3
        assert run.paths.diverged.all() and (run.paths.n_run == 1).all()

    def test_paths_read_as_rows_and_means_as_plain_numbers(self):
        # bench/workloads.py iterates result.paths for .mse and .diverged and
        # prints the Metric means and n_diverged into its record lines
        run = run_monte_carlo(small_setup(), solve_theorem1, 4, 30, seed=7)
        assert len(run.paths) == 4
        rows = list(run.paths)
        assert [r.mse for r in rows] == run.paths.mse.tolist()
        assert [r.diverged for r in rows] == run.paths.diverged.tolist()
        for metric in (run.mse, run.tr_sigma, run.saturation_rate, run.duty_cycle):
            assert type(metric.mean) is float and type(metric.ci_half_width) is float
        assert type(run.n_diverged) is int

    @pytest.mark.parametrize("name,guard,n_paths,n_slots,seed", [
        *((name, sim.DIVERGENCE_GUARD, 3, 12, 1) for name in POLICY_NAMES),
        # path 2 alone trips this guard, after its slot 55
        ("proposed", 900.0, 8, 60, 3)])
    def test_policy_called_as_the_bench_tracer_reads_it(self, name, guard, n_paths,
                                                         n_slots, seed, monkeypatch):
        # bench/tracing.py's traced_policy wraps the policy and reads one
        # scalar mode and beta per call
        monkeypatch.setattr(sim, "DIVERGENCE_GUARD", guard)
        setup = small_setup(theta=40.0)
        policy = policy_factory(name)(setup)
        calls = []

        def recording(*args, **kwargs):
            decision = policy(*args, **kwargs)
            assert type(decision.mode) is str
            bool(decision.beta > 0)  # raises on a stacked beta
            calls.append((args, kwargs))
            return decision

        run = run_monte_carlo(setup, recording, n_paths, n_slots, seed)
        assert run.n_diverged == int(guard == 900.0)
        assert all(len(args) == 1 and not kwargs and type(args[0]) is DriftContext
                   for args, kwargs in calls)
        # once per live path per slot: a path runs slots 0 .. n_run - 1
        per_slot = np.bincount([args[0].slot for args, _ in calls], minlength=n_slots)
        n_run = run.paths.n_run
        assert per_slot.tolist() == [int((n_run > j).sum()) for j in range(n_slots)]

    def test_paths_bytes_repeat_across_processes(self):
        # each aligned row has 7 padding bytes after `diverged`; they are
        # zero, not what the allocator left there, so a hash of the run's
        # bytes repeats in a fresh interpreter
        package = Path(ehncs.__file__).parent
        env = dict(os.environ, PYTHONPATH=str(package.parent))
        digests = {
            subprocess.run([sys.executable, "-c", _PATHS_MD5,
                            str(package / "configs" / "reference.cfg")],
                           env=env, capture_output=True, text=True, timeout=120,
                           check=True).stdout
            for _ in range(2)}
        assert len(digests) == 1, digests

    def test_columns_equal_their_trace_prefixes(self, monkeypatch):
        # ||x||^2 reaches 967 on path 2 at slot 55, its first above 900, and
        # peaks at 804 or less on the other 7 (path 4, slot 57), so path 2
        # alone trips this guard
        guard, n_slots = 900.0, 60
        monkeypatch.setattr(sim, "DIVERGENCE_GUARD", guard)
        setup = small_setup(theta=40.0)
        run = run_monte_carlo(setup, solve_theorem1, 8, n_slots, seed=3,
                              keep_traces=True)
        paths, t = run.paths, run.traces
        assert paths.diverged.tolist() == [p == 2 for p in range(8)]
        assert paths.n_run.tolist() == [n_slots] * 2 + [56] + [n_slots] * 5
        for p, n in enumerate(paths.n_run.tolist()):
            # a path runs until the first slot over the guard, that one included
            over = np.flatnonzero(t.sq_state[p, :n] > guard).tolist()
            assert over == ([n - 1] if p == 2 else [])
            expected = {
                "mse": t.sq_error[p, :n].sum() / (n * setup.K),
                "tr_sigma": t.Tr_Sigma[p, :n].mean(),
                "saturation_rate": (1 - t.gamma[p, :n]).mean(),
                "duty_cycle": t.active[p, :n].mean(),
                "energy_used": t.energy_used[p, :n].sum(),
                "energy_harvested": t.alpha[p, :n].sum(),
            }
            for f, value in expected.items():
                assert paths[f][p] == pytest.approx(value, rel=1e-12), (p, f)

    @pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 3)])
    def test_every_sigma_is_symmetric_bit_for_bit(self, N_c, N_s, monkeypatch):
        # eig_sym skips its asymmetry tolerance on an exactly symmetric
        # stack; every Sigma a run forms is one, under every policy
        seen = []
        monkeypatch.setattr(sim, "eig_sym",
                            lambda Sigma: (seen.append(Sigma.copy()), eig_sym(Sigma))[1])
        for theta in (40.0, 120.0):
            setup = replace(small_setup(theta=theta), N_c=N_c, N_s=N_s)
            for name in POLICY_NAMES:
                run_monte_carlo(setup, policy_factory(name)(setup), 6, 40, seed=11)
        assert len(seen) == 2 * len(POLICY_NAMES) * 40
        assert all(np.array_equal(S, S.swapaxes(1, 2)) for S in seen)
        assert any(S.any() for S in seen)

    def test_policies_and_theta_share_their_draws(self):
        # no draw depends on a decision, so at one seed every policy and
        # battery size sees the same arrivals on each path: common random
        # numbers for the comparisons
        columns = []
        for theta in (40.0, 120.0):
            setup = small_setup(theta=theta)
            for name in POLICY_NAMES:
                run = run_monte_carlo(setup, policy_factory(name)(setup), 6, 50,
                                      seed=11, keep_traces=True)
                columns.append(run.traces.alpha)
        for column in columns[1:]:
            assert np.array_equal(column, columns[0])

    def test_validation(self):
        with pytest.raises(InputDomainError):
            run_monte_carlo(small_setup(), solve_theorem1, 0, 10, seed=1)
        # a NaN theta is named by its own check, not by the E0 check after it
        for bad in ({"tau": np.nan}, {"tau": np.inf}, {"theta": np.nan, "E0": None},
                    {"theta": np.inf, "E0": None}):
            with pytest.raises(InputDomainError, match="tau and theta"):
                replace(small_setup(), **bad)
        with pytest.raises(InputDomainError, match="K <= min"):
            replace(small_setup(), N_c=1)
        for E0 in (-1.0, 81.0):
            with pytest.raises(InputDomainError, match="E0 must lie"):
                replace(small_setup(theta=80.0), E0=E0)

    def test_zero_plant_noise_rejected(self):
        # L at Sigma = 0 is proportional to sqrt(Tr W), so W = 0 would stop
        # the first slot at the limiter; the setup names W instead
        model = PlantModel(A=reference_model().A, B=np.eye(2), W=np.zeros((2, 2)),
                           Psi=0.25 * np.eye(2))
        with pytest.raises(InputDomainError, match=r"plant noise W .*Tr W > 0"):
            replace(small_setup(), model=model)


class TestStackedPolicy:
    """`run_slot` calls a policy's stacked form once per slot, and any other
    callable once per live path; both routes give the same bytes."""

    @pytest.mark.parametrize("name", POLICY_NAMES)
    @pytest.mark.parametrize("E0", [None, 0.0])
    @pytest.mark.parametrize("N_c, N_s", [(2, 3), (3, 3)])
    def test_routes_give_the_same_bytes(self, N_c, N_s, E0, name, monkeypatch):
        # the per-path route is the one a traced benchmark pass takes.  Under
        # `proposed`, ||x||^2 peaks at 592 and 624 on the two highest paths of
        # the (2, 3) run from a half-full battery, so this guard trips some
        # paths but not all in each of the four runs; slot 0 has Sigma = 0
        # (and E = 0 from an empty battery), and the small arrivals leave
        # dormant slots
        monkeypatch.setattr(sim, "DIVERGENCE_GUARD", 600.0)
        setup = replace(small_setup(theta=40.0, mean_alpha=5.0), N_c=N_c, N_s=N_s, E0=E0)
        policy = policy_factory(name)(setup)
        stacked = policy.stacked
        calls = []

        def counting(S, *args):
            calls.append(len(S))
            return stacked(S, *args)

        monkeypatch.setattr(policy, "stacked", counting)
        n_paths, n_slots = 8, 60
        runs = [run_monte_carlo(setup, p, n_paths, n_slots, seed=3, keep_traces=True)
                for p in (policy, lambda ctx: policy(ctx))]
        run, per_path = runs
        n_run = run.paths.n_run
        # one stacked call per slot, over the paths still live
        assert calls == [int((n_run > j).sum()) for j in range(n_run.max())]
        assert run.paths.tobytes() == per_path.paths.tobytes()
        for a, b in zip(run.traces, per_path.traces, strict=True):
            assert a.tobytes() == b.tobytes()
        t = run.traces
        live = np.arange(n_slots) < n_run[:, None]
        assert (t.Tr_Sigma[:, 0] == 0).all() and (t.E_before[:, 0] == setup.E0).all()
        assert t.active.any()
        if name == "proposed":
            assert 0 < run.n_diverged < n_paths and calls[-1] < n_paths
            assert not t.active[:, 0].any()
        if name in ("proposed", "baseline2"):
            # dormant slots, and for baseline2 the slots off its schedule
            assert (live & ~t.active & (t.Tr_Sigma > 0)).any()
        if name in ("baseline4", "baseline5") and E0 == 0.0:
            # batteries below and above E[alpha]
            assert (live & (t.E_before < 5.0)).any() and (live & (t.E_before > 5.0)).any()

    @pytest.mark.parametrize("field, value, match", [
        ("L", 0.0, "L must be > 0"), ("L", -1.0, "L must be > 0"),
        ("L", np.nan, "L must be > 0"), ("E", -1.0, "E must be >= 0"),
        ("E", np.nan, "E must be >= 0")])
    def test_stacked_form_rejects_what_a_context_rejects(self, field, value, match):
        # the error DriftContext raises for the first path it rejects, from
        # every policy's stacked form
        rng = np.random.default_rng(5)
        P, K = 4, 2
        args = {"S": np.broadcast_to(np.eye(K), (P, K, K)),
                "Lam": rng.uniform(1.0, 5.0, (P, K)), "Pi_K": rng.uniform(0.5, 2.0, (P, K)),
                "E": np.full(P, 10.0), "L": np.full(P, 30.0)}
        setup = small_setup()
        args[field][2] = value
        for name in POLICY_NAMES:
            with pytest.raises(InputDomainError, match=match):
                policy_factory(name)(setup).stacked(*args.values(), 40.0, 0.01, 1.0, 2.0)
        other = "E" if field == "L" else "L"
        args[other][1] = -1.0
        for name in POLICY_NAMES:
            with pytest.raises(InputDomainError, match=f"{other} must be"):
                policy_factory(name)(setup).stacked(*args.values(), 40.0, 0.01, 1.0, 2.0)


class TestStackedEngine:
    POLICIES = POLICY_NAMES
    FIELDS = ("mse", "tr_sigma", "saturation_rate", "duty_cycle",
              "energy_used", "energy_harvested")
    SEED = 3
    # at 60 slots no path reaches the default 1e12 guard; at 5e5 four
    # baseline2 paths at theta 40 trip it (paths 4, 10, 13 and 18 at SEED),
    # path 4 at 5.15e5 being the one of the 8-path run below
    GUARD = 5e5

    @pytest.fixture(autouse=True)
    def lowered_guard(self, monkeypatch):
        monkeypatch.setattr(sim, "DIVERGENCE_GUARD", self.GUARD)

    def test_matches_per_path_reference(self):
        n_paths, n_slots = 20, 60
        n_tripped = None
        for theta in (40.0, 120.0):
            setup = small_setup(theta=theta)
            for name in self.POLICIES:
                policy = policy_factory(name)(setup)
                run = run_monte_carlo(setup, policy, n_paths, n_slots, self.SEED,
                                      keep_traces=True)
                # slots past a row's n_run are left at zero, so the whole
                # column can be checked
                assert np.all(run.traces.energy_used
                              <= run.traces.E_before + 1e-9), (name, theta)
                for p, path in enumerate(run.paths):
                    ref = reference_path(
                        setup, policy, n_slots, np.random.default_rng([self.SEED, p]))
                    assert path.diverged == ref["diverged"], (name, theta, p)
                    assert path.n_run == ref["n_run"], (name, theta, p)
                    for f in self.FIELDS:
                        assert getattr(path, f) == pytest.approx(
                            ref[f], rel=1e-9), (name, theta, p, f)
                if (name, theta) == ("baseline2", 40.0):
                    n_tripped = run.n_diverged
        assert n_tripped >= 1

        # a path does not depend on which other paths share its run, nor on
        # one of them leaving it at the guard
        setup = small_setup(theta=40.0)
        policy = policy_factory("baseline2")(setup)
        wide = run_monte_carlo(setup, policy, 8, n_slots, self.SEED)
        narrow = run_monte_carlo(setup, policy, 3, n_slots, self.SEED)
        assert any(p.diverged for p in wide.paths[3:])
        for a, b in zip(wide.paths[:3], narrow.paths):
            assert a.diverged == b.diverged
            for f in self.FIELDS:
                assert getattr(a, f) == pytest.approx(getattr(b, f), rel=1e-12)

    @pytest.mark.parametrize("N_c, N_s", [(3, 2), (3, 3)])
    @pytest.mark.parametrize("name", ["proposed", "baseline3"])
    def test_other_channel_shapes_match_per_path_reference(self, N_c, N_s, name):
        # more receive antennas than streams, and K < min(N_c, N_s) at 3 x 3
        n_paths, n_slots = 10, 60
        setup = replace(small_setup(theta=40.0), N_c=N_c, N_s=N_s)
        policy = policy_factory(name)(setup)
        run = run_monte_carlo(setup, policy, n_paths, n_slots, self.SEED)
        assert run.duty_cycle.mean > 0
        for p, path in enumerate(run.paths):
            ref = reference_path(setup, policy, n_slots,
                                 np.random.default_rng([self.SEED, p]))
            assert path.diverged == ref["diverged"], p
            for f in self.FIELDS:
                assert getattr(path, f) == pytest.approx(ref[f], rel=1e-9), (p, f)


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

    def test_constant_power_baselines_repeat_the_full_budget_ones_up_to_mean_alpha(self):
        # at theta <= E[alpha] the battery never holds more than E[alpha], so
        # min(E[alpha], E) = E: baseline4 runs baseline1 and baseline5 runs
        # baseline3, bit for bit, at the reference's first sweep value; at
        # theta = 120 the nominal budget binds and the rows part
        package = Path(ehncs.__file__).parent
        cfg = parse_config(package / "configs" / "reference.cfg")
        setup = build_setup(cfg)
        assert setup.arrivals.mean == 40.0
        factories = {name: policy_factory(name, cfg.period) for name in POLICY_NAMES}
        rows = sweep(setup, factories, "theta", [40.0, 120.0], 4, 60, cfg.seed)
        cells = {(r["policy"], r["value"]): {k: v for k, v in r.items() if k != "policy"}
                 for r in rows}
        for full, constant in (("baseline1", "baseline4"), ("baseline3", "baseline5")):
            assert cells[full, 40.0] == cells[constant, 40.0]
            assert cells[full, 120.0]["mse"] != cells[constant, 120.0]["mse"]

    def test_unknown_axis(self):
        with pytest.raises(InputDomainError):
            sweep(small_setup(), self.factories(), "tau", [0.1], 1, 5, 1)
        # checked before the loop over values, so no value is needed to see it
        with pytest.raises(InputDomainError, match="unknown axis"):
            sweep(small_setup(), self.factories(), "bogus", [], 1, 5, 1)


class TestDecisionRegions:
    MODEL = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                       Psi=0.5 * np.eye(2))
    PARAMS = make_params(MODEL, M=1.0, eps=0.1)

    def scan(self, E, n=12):
        h2 = np.linspace(8.0 / n, 8.0, n)
        s2 = np.linspace(100.0 / n, 100.0, n)
        return decision_region_scan(self.MODEL, self.PARAMS, E, 4.0, 70.0, h2, s2,
                                    theta=36.0, tau=1.0)

    @pytest.mark.parametrize("n_sigma, n_h, tied", [(50, 50, False), (37, 61, False),
                                                    (50, 50, True)])
    @pytest.mark.parametrize("E", [12.0, 20.0, 30.0])
    def test_matches_per_point_reference(self, n_sigma, n_h, tied, E):
        # the published 50 x 50 grid, a non-square one, and one whose last
        # row and column repeat stream 1's (sigma1, h1): tied thresholds
        h2 = np.linspace(8.0 / n_h, 8.0, n_h)
        s2 = np.linspace(100.0 / n_sigma, 100.0, n_sigma)
        if tied:
            h2, s2 = np.append(h2, 4.0), np.append(s2, 70.0)
        args = (self.MODEL, self.PARAMS, E, 4.0, 70.0, h2, s2, 36.0, 1.0)
        counts = decision_region_scan(*args)["active_streams"]
        assert counts.shape == (len(s2), len(h2))
        assert np.array_equal(counts, reference_region_scan(*args))

    @pytest.mark.parametrize("theta, tau", [(np.nan, 1.0), (36.0, np.nan),
                                            (0.0, 1.0), (36.0, 0.0)])
    def test_invalid_theta_tau_rejected(self, theta, tau):
        with pytest.raises(InputDomainError, match="theta and tau"):
            decision_region_scan(self.MODEL, self.PARAMS, 12.0, 4.0, 70.0, [1.0],
                                 [10.0], theta=theta, tau=tau)

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
