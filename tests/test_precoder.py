import itertools
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ehncs.cli import policy_factory
from ehncs.config import POLICY_NAMES, build_setup, parse_config
from ehncs.energy import ArrivalModel, precoder_budget
from ehncs.numerics import InputDomainError, eig_sym, identity
from ehncs.precoder import (DriftContext, PrecoderDecision, _descending, _seabed,
                            baseline_capacity_wf, baseline_constant_power,
                            baseline_mmse_wf, baseline_periodic_wf, solve_theorem1,
                            theorem1_allocations)
from ehncs.sim import run_monte_carlo

BUNDLED = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (assemble_precoder, kkt_residual, reference_policy,  # noqa: E402
                     reference_theorem1_allocations, right_singular_vectors,
                     stream_factors, threshold_dormant, water_filling_bisection)


def make_ctx_and_channel(rng, K=2, E=None, theta=None, L=None, tau=None, M=1.0,
                         slot=0):
    """A random context on a random K x (K + 1) channel H, and that H."""
    N_s = K + 1
    N_c = K
    H = (rng.standard_normal((N_c, N_s)) + 1j * rng.standard_normal((N_c, N_s))) / np.sqrt(2)
    s = np.linalg.svd(H, compute_uv=False)
    X = rng.standard_normal((K, K))
    e = eig_sym(X @ X.T + 0.1 * np.eye(K))
    theta = theta if theta is not None else rng.uniform(1.0, 100.0)
    E = E if E is not None else rng.uniform(0.01, theta)
    L = L if L is not None else rng.uniform(1.0, 30.0)
    tau = tau if tau is not None else rng.uniform(0.01, 1.0)
    ctx = DriftContext(S=e.S, Lam=e.Lam, Pi_K=s[:K], E=E, theta=theta, tau=tau, M=M, L=L,
                       norm_AAT=rng.uniform(1.0, 4.0), slot=slot)
    return ctx, H


def make_ctx(rng, **kwargs):
    return make_ctx_and_channel(rng, **kwargs)[0]


def budget_of(ctx, d):
    # ||U_K F_s|| = ||F_s||, so the stream factors' budget is the precoder's
    return precoder_budget(stream_factors(d), ctx.M, ctx.tau)


def diagonal_ctx(h, sigma, E, theta, tau=1.0, M=1.0, L=20.0, norm_AAT=2.56, slot=0):
    K = len(h)
    return DriftContext(S=np.eye(K), Lam=np.asarray(sigma, float),
                        Pi_K=np.asarray(h, float), E=E, theta=theta, tau=tau,
                        M=M, L=L, norm_AAT=norm_AAT, slot=slot)


class TestDormantActive:
    def test_dormant_when_threshold_positive(self):
        # huge theta makes the threshold matrix positive definite
        ctx = diagonal_ctx([1.0, 1.0], [1.0, 1.0], E=1.0, theta=1e6)
        d = solve_theorem1(ctx)
        assert d.mode == "dormant"
        assert not np.any(stream_factors(d))
        assert budget_of(ctx, d) == 0.0
        assert kkt_residual(ctx, d) == 0.0

    def test_mode_matches_threshold_matrix(self):
        # the breakpoint form of the dormancy test against the threshold
        # matrix's diagonal, on random contexts (no constructed ties) with
        # some zero eigenvalues; the stacked kernel decides every context,
        # and the first ten of each group are also decided one at a time
        rng = np.random.default_rng(14)
        n_dormant = n_contexts = 0
        for K in range(1, 5):
            for _ in range(20):
                theta = log_uniform(rng, 1.0, 100.0)
                tau = log_uniform(rng, 1e-3, 1.0)
                norm_AAT = rng.uniform(1.0, 4.0)
                Lam = log_uniform(rng, 1e-2, 1e2, (100, K))
                Lam[::7, rng.integers(K)] = 0.0
                Pi_K = log_uniform(rng, 0.05, 5.0, (100, K))
                L = log_uniform(rng, 1.0, 100.0, 100)
                E = rng.uniform(0.0, theta, 100)
                want = threshold_dormant(Lam, Pi_K, E, L, theta, tau, norm_AAT)
                _, _, active = theorem1_allocations(Lam, Pi_K, E, L, theta, tau, norm_AAT)
                assert np.array_equal(active, ~want)
                for j in range(10):
                    d = solve_theorem1(diagonal_ctx(Pi_K[j], Lam[j], E=E[j], theta=theta,
                                                    tau=tau, L=L[j], norm_AAT=norm_AAT))
                    assert (d.mode == "dormant") == want[j]
                n_dormant += int(want.sum())
                n_contexts += want.size
        assert 0.2 < n_dormant / n_contexts < 0.8, (n_dormant, n_contexts)

    def test_zero_eigenvalue_seabed_divides_nothing_by_zero(self):
        with np.errstate(divide="raise"):
            assert np.array_equal(_seabed(np.array([3.0, 0.0])), [1.0 / 3.0, np.inf])

    def test_active_when_urgent(self):
        ctx = diagonal_ctx([4.0, 3.0], [70.0, 50.0], E=12.0, theta=36.0)
        d = solve_theorem1(ctx)
        assert d.mode == "active"
        assert np.any(d.allocations > 0)

    def test_zero_covariance_with_full_battery(self):
        # Sigma = 0 leaves nothing to report; with E >= theta the dormant
        # test cannot fire, so the decision is active and silent
        for E in (36.0, 40.0):
            ctx = diagonal_ctx([4.0, 3.0], [0.0, 0.0], E=E, theta=36.0)
            d = solve_theorem1(ctx)
            assert d.mode == "active"
            assert not np.any(stream_factors(d))
            assert d.beta == 0.0 and budget_of(ctx, d) == 0.0
            assert kkt_residual(ctx, d) == 0.0

    def test_empty_battery_transmits_nothing(self):
        ctx = diagonal_ctx([4.0, 3.0], [70.0, 50.0], E=0.0, theta=36.0)
        d = solve_theorem1(ctx)
        assert not np.any(stream_factors(d))

    def test_activation_monotone_in_energy(self):
        # once active at some E, still active at larger E (threshold falls)
        base = dict(h=[2.0, 1.0], sigma=[30.0, 20.0], theta=36.0)
        modes = [solve_theorem1(diagonal_ctx(E=e, **base)).mode
                 for e in (5.0, 15.0, 30.0)]
        first_active = modes.index("active") if "active" in modes else len(modes)
        assert all(m == "active" for m in modes[first_active:])


class TestBudget:
    def test_slack_budget_beta_zero(self):
        ctx = diagonal_ctx([4.0, 3.0], [70.0, 50.0], E=30.0, theta=36.0, L=5.0)
        d = solve_theorem1(ctx)
        assert d.mode == "active" and np.any(d.allocations > 0)
        assert d.beta == 0.0
        assert budget_of(ctx, d) < ctx.E

    def test_slack_budget_meets_kkt(self):
        # K = 1..4 streams: random contexts whose water level stays at
        # (theta - E)^+, so the budget has slack and beta = 0
        rng = np.random.default_rng(13)
        n_slack = np.zeros(4, dtype=int)
        for trial in range(2000):
            K = trial % 4 + 1
            theta = log_uniform(rng, 1.0, 100.0)
            ctx = make_ctx(rng, K=K, E=rng.uniform(0.01, theta), theta=theta,
                           L=log_uniform(rng, 1.0, 30.0),
                           tau=log_uniform(rng, 1e-3, 1.0))
            d = solve_theorem1(ctx)
            if d.mode == "active" and d.beta == 0.0 and np.any(d.allocations > 0):
                n_slack[K - 1] += 1
                assert budget_of(ctx, d) < ctx.E
                assert kkt_residual(ctx, d) < 1e-9
        assert n_slack.min() > 100, n_slack

    def test_binding_budget_meets_energy(self):
        # K = 1..4 streams: random contexts, and decoupled ones where two
        # streams share an activation threshold or one eigenvalue is zero
        rng = np.random.default_rng(0)
        n_binding = np.zeros((4, 3), dtype=int)  # by K and by kind of context
        for trial in range(2400):
            K = trial % 4 + 1
            kind = (trial // 4) % 3
            theta = rng.uniform(1.0, 100.0)
            if (trial // 4) % 2:
                # near-full battery with a small threshold gap favors the
                # budget-binding regime
                E = rng.uniform(0.9, 1.0) * theta
            else:
                E = rng.uniform(0.01, theta)
            L = rng.uniform(10.0, 30.0)
            if kind == 0:
                ctx = make_ctx(rng, K=K, E=E, theta=theta, L=L)
            else:
                h = rng.uniform(0.1, 5.0, K)
                sigma = rng.uniform(0.1, 100.0, K)
                if kind == 1:
                    h[-1], sigma[-1] = h[0], sigma[0]  # tied thresholds
                else:
                    sigma[rng.integers(K)] = 0.0  # one zero eigenvalue
                ctx = diagonal_ctx(h, sigma, E=E, theta=theta, L=L,
                                   tau=rng.uniform(0.01, 1.0),
                                   norm_AAT=rng.uniform(1.0, 4.0))
            d = solve_theorem1(ctx)
            assert budget_of(ctx, d) <= ctx.E * (1.0 + 1e-9)
            if d.mode == "active" and d.beta > 0:
                n_binding[K - 1, kind] += 1
                assert budget_of(ctx, d) == pytest.approx(ctx.E, rel=1e-9)
                assert kkt_residual(ctx, d) < 1e-9
        # the regime is exercised for every K and every kind of context (a
        # lone stream cannot tie, and with a zero eigenvalue it never binds)
        assert n_binding.sum(axis=1).min() > 10
        assert n_binding.sum(axis=0).min() > 10

    def test_energy_used_matches_frobenius(self):
        # the assembled F spends L^2 tau sum_i y_i / Pi_ii^2
        rng = np.random.default_rng(1)
        for _ in range(100):
            ctx = make_ctx(rng)
            d = solve_theorem1(ctx)
            of_alloc = ctx.L**2 * ctx.tau * np.sum(d.allocations / ctx.Pi_K**2)
            assert budget_of(ctx, d) == pytest.approx(of_alloc,
                                                      abs=1e-12 * max(1.0, of_alloc))

    def test_kkt_residual_small(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            ctx = make_ctx(rng)
            assert kkt_residual(ctx, solve_theorem1(ctx)) < 1e-9


def log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def kernel_groups(rng, K, n_groups=40, n_ctx=60):
    """Groups of n_ctx K-stream contexts that share (theta, tau, ||AA^T||):
    yields (theta, tau, norm_AAT, L, Pi_K, Lam, E) with (n_ctx,) L and E and
    (n_ctx, K) Pi_K and Lam.  Every covariance kind (random, a tie of two
    breakpoints, a zero eigenvalue, Sigma = 0) meets every battery kind
    (E = 0, theta, 0.9 theta .. theta, uniform)."""
    for _ in range(n_groups):
        theta = log_uniform(rng, 1.0, 100.0)
        tau = log_uniform(rng, 1e-3, 1.0)
        norm_AAT = rng.uniform(1.0, 4.0)
        L = log_uniform(rng, 1.0, 100.0, n_ctx)
        Pi_K = log_uniform(rng, 0.05, 5.0, (n_ctx, K))
        Lam = log_uniform(rng, 1e-2, 1e2, (n_ctx, K))
        E = rng.uniform(0.0, theta, n_ctx)
        for j in range(n_ctx):
            if j % 5 == 1:
                # an exact or a near tie of two activation thresholds
                Pi_K[j, -1] = Pi_K[j, 0]
                Lam[j, -1] = Lam[j, 0] * (1.0 + (j % 2) * 1e-13)
            elif j % 5 == 2:
                Lam[j, rng.integers(K)] = 0.0
            elif j % 5 == 3:
                Lam[j] = 0.0  # Sigma = 0
            E[j] = (0.0, theta, rng.uniform(0.9, 1.0) * theta, E[j])[j % 4]
        yield theta, tau, norm_AAT, L, Pi_K, Lam, E


class TestStackedKernel:
    def test_matches_scalar_walk(self):
        # Per K, groups of contexts share (theta, tau, ||AA^T||) and go
        # through the kernel in one stacked call; each context also goes
        # through `solve_theorem1` alone, a stack of one, which must not
        # depend on the contexts beside it
        rng = np.random.default_rng(11)
        for K in range(1, 5):
            branches = {"dormant": 0, "slack": 0, "binding": 0}
            for theta, tau, norm_AAT, L, Pi_K, Lam, E in kernel_groups(rng, K):
                n_ctx = len(E)
                y, beta, active = theorem1_allocations(Lam, Pi_K, E, L, theta, tau,
                                                       norm_AAT)
                assert y.shape == (n_ctx, K) and beta.shape == active.shape == (n_ctx,)
                for j in range(n_ctx):
                    d = solve_theorem1(diagonal_ctx(Pi_K[j], Lam[j], E=E[j], theta=theta,
                                                    tau=tau, L=L[j], norm_AAT=norm_AAT))
                    assert active[j] == (d.mode == "active")
                    for got, want in ((y[j], d.allocations), (beta[j], d.beta)):
                        assert np.all(np.where(want == 0.0, got == 0.0,
                                               np.abs(got - want) <= 1e-12 * np.abs(want)))
                    if d.mode == "dormant":
                        branches["dormant"] += 1
                    elif d.beta > 0:
                        branches["binding"] += 1
                    elif np.any(d.allocations > 0):
                        branches["slack"] += 1
            assert min(branches.values()) >= 10, (K, branches)

    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_ties_walk_in_the_float_walks_order(self, K):
        # every tie pattern of K breakpoints: descending, the later stream
        # first on a tie, as the frozen float walks of tests/oracles.py
        # order them, both for a stream-major stack of contexts and for one
        # alone
        t = np.array(list(itertools.product([0.0, 1.0, 2.0], repeat=K)))
        want = [sorted(range(K), key=row.__getitem__)[::-1] for row in t.tolist()]
        assert _descending(t.T).T.tolist() == want
        assert [_descending(row).tolist() for row in t] == want


class TestFrozenStackedWalk:
    """`theorem1_allocations` gives the bits of the stacked walk frozen in
    the oracles, which keeps every term on the full broadcast shape."""

    @staticmethod
    def assert_same_bits(got, want):
        for a, b in zip(got, want, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    def test_kernel_stacks(self):
        # random (P, K) stacks with zero eigenvalues, E = 0, Sigma = 0, tied
        # breakpoints and dormant rows; then one context alone, and an E
        # with a leading axis of its own
        rng = np.random.default_rng(11)
        for K in range(1, 5):
            n_dormant = 0
            for theta, tau, norm_AAT, L, Pi_K, Lam, E in kernel_groups(rng, K):
                args = (Lam, Pi_K, E, L, theta, tau, norm_AAT)
                got = theorem1_allocations(*args)
                self.assert_same_bits(got, reference_theorem1_allocations(*args))
                n_dormant += int((~got[2]).sum())
                args = (Lam[0], Pi_K[0], E[0], L[0], theta, tau, norm_AAT)
                self.assert_same_bits(theorem1_allocations(*args),
                                      reference_theorem1_allocations(*args))
                args = (Lam, Pi_K, np.stack([E, E[::-1]]), L, theta, tau, norm_AAT)
                self.assert_same_bits(theorem1_allocations(*args),
                                      reference_theorem1_allocations(*args))
            assert n_dormant >= 10, K

    def test_scan_shapes(self):
        # (S, 1, K) covariances against (1, H, K) channels, (S, 1) ranges and
        # a scalar battery, as `decision_region_scan` calls it
        rng = np.random.default_rng(13)
        for K in range(1, 5):
            for E in (0.0, 5.0, 12.0, 20.0, 40.0):
                Lam = log_uniform(rng, 1e-1, 1e2, (7, 1, K))
                Lam[2, 0, rng.integers(K)] = 0.0
                Pi_K = log_uniform(rng, 0.05, 8.0, (1, 9, K))
                Pi_K[0, 4, -1] = Pi_K[0, 4, 0]
                L = log_uniform(rng, 1.0, 30.0, (7, 1))
                args = (Lam, Pi_K, E, L, 36.0, 1.0, 2.56)
                self.assert_same_bits(theorem1_allocations(*args),
                                      reference_theorem1_allocations(*args))


def assert_same_bits(got, want):
    """Each (name, array) of got has the dtype, shape and bytes of want's."""
    for name, a, b in zip(("active", "beta", "gains", "basis", "allocations"),
                          map(np.asarray, got), map(np.asarray, want), strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), \
            (name, a, b)


def assert_theorem1_bits(decision, ctx):
    """`solve_theorem1`'s decision on ctx has the bits of the frozen stacked
    walk on that one context: its mode and beta, its allocations y, its
    gains (L/M) sqrt(y_i)/Pi_ii and the basis S, or the identity of a silent
    decision where every gain is zero."""
    y, beta, active = reference_theorem1_allocations(
        ctx.Lam, ctx.Pi_K, ctx.E, ctx.L, ctx.theta, ctx.tau, ctx.norm_AAT)
    gains = (ctx.L / ctx.M) * (np.sqrt(y) / ctx.Pi_K)
    assert decision.mode == ("active" if active else "dormant")
    assert_same_bits(
        (active, decision.beta, decision.gains, decision.basis, decision.allocations),
        (active, beta, gains, ctx.S if gains.any() else identity(len(y)), y))


def assert_rows_match_oracles(name, decision, args, mean_alpha, period):
    """Every row of a policy's stacked decision on the stack `args` has the
    bits of its frozen oracle: `proposed` those of the frozen stacked walk
    on the whole stack, a baseline those of its frozen float walk, context
    by context."""
    S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT, slot = args
    P, K = Pi_K.shape
    gains, basis, active, beta, allocations = decision
    if name == "proposed":
        y, want_beta, want_active = reference_theorem1_allocations(Lam, Pi_K, E, L, theta,
                                                                   tau, norm_AAT)
        want = (want_active, want_beta, (L / M)[:, None] * (np.sqrt(y) / Pi_K), S, y)
    else:
        rows = [reference_policy(name, DriftContext(S[j], Lam[j], Pi_K[j], E[j], theta,
                                                    tau, M, L[j], norm_AAT, slot),
                                 mean_alpha, period) for j in range(P)]
        modes, betas, _, want_gains, bases, ys = zip(*rows)
        want = (np.array([mode == "active" for mode in modes]), np.array(betas),
                np.array(want_gains), np.array(bases), np.array(ys))
    assert_same_bits((active, beta, gains, np.broadcast_to(basis, (P, K, K)), allocations),
                     want)


class TestFrozenFloatWalks:
    """Every policy gives the bits of its frozen walk in the oracles: the
    baselines those of their float walks, `proposed` those of the stacked
    walk.  Each stack goes through a policy's stacked form in one call, as
    `run_slot` makes it."""

    def test_kernel_contexts(self):
        # the stacked kernel's contexts, with the baselines' E[alpha] on both
        # sides of their battery levels, and each group's slot index on and
        # off baseline2's schedule
        rng = np.random.default_rng(11)
        for K in range(1, 5):
            for slot, (theta, tau, norm_AAT, L, Pi_K, Lam, E) in enumerate(
                    kernel_groups(rng, K)):
                mean_alpha = 0.5 * theta
                setup = SimpleNamespace(arrivals=ArrivalModel(kind="poisson",
                                                              mean=mean_alpha))
                args = (np.broadcast_to(identity(K), (len(E), K, K)), Lam, Pi_K, E, L,
                        theta, tau, 1.0, norm_AAT, slot)
                for name in POLICY_NAMES:
                    decision = policy_factory(name)(setup).stacked(*args)
                    assert_rows_match_oracles(name, decision, args, mean_alpha, 3)

    def test_many_binding_contexts(self):
        # Python's x ** 2 (libm pow) and x * x differ in about one float in a
        # thousand, and NumPy's ** 2 on an array is x * x.  A binding
        # context's water level is the square of a/(E+b), so a walk that
        # rounded a square otherwise would leave the frozen stacked walk in
        # few results: the sets above miss it, and these 20000 two-stream
        # contexts, three in four binding, catch it
        rng = np.random.default_rng(12)
        n = 20_000
        E = rng.uniform(0.9, 1.0, n)
        L = log_uniform(rng, 1.0, 10.0, n)
        Pi_K = log_uniform(rng, 0.05, 5.0, (n, 2))
        Lam = log_uniform(rng, 1e-2, 1e2, (n, 2))
        setup = SimpleNamespace(arrivals=ArrivalModel(kind="poisson", mean=0.5))
        args = (np.broadcast_to(identity(2), (n, 2, 2)), Lam, Pi_K, E, L, 1.0, 1.0, 1.0,
                2.56, 0)
        for name in ("proposed", "baseline1", "baseline3"):
            decision = policy_factory(name)(setup).stacked(*args)
            assert_rows_match_oracles(name, decision, args, 0.5, 3)
            if name == "proposed":
                assert (decision.beta > 0).sum() > 0.7 * n

    def test_walk_stops_where_its_root_squares_onto_the_next_breakpoint(self):
        # c = tau = L = 1 and the second stream at (Pi, Lam) = (r, 1) put its
        # breakpoint at exactly r * r, with r = a/(E + b) the root of the
        # first stream alone.  E is drawn until libm's r ** 2 rounds below
        # r * r and the root of both streams squares below r * r too, so a
        # walk that went on to the second stream would not be clamped back
        # to r * r.  The walk stops at one stream only if it squares its root
        # as NumPy's stacked walk does.  With glibc's pow the first such E of
        # this seed is at index 35472; a correctly rounded pow has none
        rng = np.random.default_rng(15)
        p0, lam0 = 2.0, 3.0
        for E in rng.uniform(0.5, 2.0, 200_000).tolist():
            a, b = 0.5 / p0, 0.5 * (1.0 / lam0) / (p0 * p0)
            r = a / (E + b)
            r2 = (a + 0.5 / r) / (E + (b + 0.5 * 1.0 / (r * r)))
            if r ** 2 < r * r and r2 * r2 < r * r:
                break
        else:
            pytest.skip("this libm's pow squared every drawn root as x * x does")
        ctx = diagonal_ctx([p0, r], [lam0, 1.0], E=E, theta=E, L=1.0, norm_AAT=1.0)
        decision = solve_theorem1(ctx)
        assert_theorem1_bits(decision, ctx)
        assert decision.beta == r * r

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_closed_loop_contexts(self, name):
        # every context a 20-path x 60-slot run on the reference config
        # visits, recorded at the one stacked call a slot makes
        cfg = parse_config(BUNDLED)
        setup = build_setup(cfg)
        policy = policy_factory(name, cfg.period)(setup)
        seen = []

        def recording(*args):
            seen.append((args, policy.stacked(*args)))
            return seen[-1][1]

        run = run_monte_carlo(setup, SimpleNamespace(stacked=recording), 20, 60, cfg.seed)
        assert [len(args[3]) for args, _ in seen] == [
            int((run.paths.n_run > j).sum()) for j in range(60)]
        for args, decision in seen:
            assert_rows_match_oracles(name, decision, args, setup.arrivals.mean,
                                      cfg.period)
        if name == "proposed":
            active = np.concatenate([d.active for _, d in seen])
            assert active.any() and not active.all()
            assert any((d.beta > 0).any() for _, d in seen)


class TestStackedForm:
    def test_matches_the_per_context_decisions(self):
        # each policy's stacked form over each group of the kernel's
        # contexts (E = 0, Sigma = 0, ties, dormant rows), with a random
        # basis S and M and the group's slot index, gives every context the
        # decision of its own per-context call, bit for bit: the mode as a
        # str, beta as a float, the gains and allocations, and the basis, the
        # identity where every gain is zero
        rng = np.random.default_rng(14)
        for K in range(1, 5):
            for slot, (theta, tau, norm_AAT, L, Pi_K, Lam, E) in enumerate(
                    kernel_groups(rng, K, n_groups=10)):
                P = len(E)
                S = np.linalg.qr(rng.standard_normal((P, K, K)))[0]
                M = rng.uniform(0.5, 2.0)
                setup = SimpleNamespace(arrivals=ArrivalModel(kind="poisson",
                                                              mean=0.5 * theta))
                for name in POLICY_NAMES:
                    policy = policy_factory(name)(setup)
                    gains, basis, active, beta, y = policy.stacked(
                        S, Lam, Pi_K, E, L, theta, tau, M, norm_AAT, slot)
                    basis = np.broadcast_to(basis, (P, K, K))
                    for j in range(P):
                        d = policy(DriftContext(S[j], Lam[j], Pi_K[j], E[j], theta, tau,
                                                M, L[j], norm_AAT, slot))
                        assert type(d.mode) is str and type(d.beta) is float
                        assert d.mode == ("active" if active[j] else "dormant")
                        assert_same_bits(
                            (active[j], d.beta, d.gains, d.basis, d.allocations),
                            (active[j], beta[j], gains[j],
                             basis[j] if gains[j].any() else identity(K), y[j]))


class TestDecoupledStructure:
    def test_matches_scalar_water_filling(self):
        # per-stream: y = (1/2)[(h/L) sqrt(c/(s tau)) - 1/sigma]^+
        ctx = diagonal_ctx([4.0, 1.0], [70.0, 30.0], E=12.0, theta=36.0, L=50.0)
        d = solve_theorem1(ctx)
        s = max(ctx.theta - ctx.E, 0.0) + d.beta
        for i in range(2):
            y_expect = 0.5 * max((ctx.Pi_K[i] / ctx.L)
                                 * np.sqrt(ctx.norm_AAT / (s * ctx.tau))
                                 - 1.0 / ctx.Lam[i], 0.0)
            assert d.allocations[i] == pytest.approx(y_expect, abs=1e-12)
            f_expect = (ctx.L / ctx.M) * np.sqrt(d.allocations[i]) / ctx.Pi_K[i]
            assert abs(stream_factors(d)[i, i] - f_expect) < 1e-12

    def test_zero_covariance_stream_stays_off(self):
        ctx = diagonal_ctx([4.0, 3.0], [70.0, 0.0], E=12.0, theta=36.0)
        d = solve_theorem1(ctx)
        assert d.allocations[1] == 0.0


class TestContextValidation:
    def test_bad_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(InputDomainError):
            make_ctx(rng, L=0.0)
        with pytest.raises(InputDomainError):
            make_ctx(rng, E=-1.0)
        with pytest.raises(InputDomainError):
            make_ctx(rng, L=np.nan)
        with pytest.raises(InputDomainError):
            make_ctx(rng, E=np.nan)


class TestRecords:
    def test_bad_range_positional(self):
        # TestContextValidation's four bad inputs, passed by position and
        # through _replace
        ctx = make_ctx(np.random.default_rng(3))
        for name, bad in (("L", 0.0), ("E", -1.0), ("L", np.nan), ("E", np.nan)):
            fields = list(ctx)
            fields[DriftContext._fields.index(name)] = bad
            with pytest.raises(InputDomainError):
                DriftContext(*fields)
            with pytest.raises(InputDomainError):
                ctx._replace(**{name: bad})

    def test_fields_are_read_only(self):
        ctx = make_ctx(np.random.default_rng(20), E=5.0)
        d = solve_theorem1(ctx)
        for record, name in ((ctx, "E"), (ctx, "slot"), (d, "mode"), (d, "beta")):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
            with pytest.raises(AttributeError):
                record.extra = 1.0

    def test_positional_and_keyword_construction_agree(self):
        rng = np.random.default_rng(21)
        ctx = make_ctx(rng, slot=4)
        by_name = DriftContext(**ctx._asdict())
        by_position = DriftContext(*ctx)
        for other in (by_name, by_position):
            assert all(a is b for a, b in zip(ctx, other))
            assert other.slot == 4
        keywords = ctx._asdict()
        del keywords["slot"]
        assert DriftContext(**keywords).slot == 0
        assert DriftContext(*list(ctx)[:-1]).slot == 0
        d = solve_theorem1(ctx)
        assert all(a is b
                   for a, b in zip(PrecoderDecision(*d), PrecoderDecision(**d._asdict())))
        assert PrecoderDecision._fields == ("gains", "basis", "mode", "beta",
                                            "allocations")

    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_precoder_is_its_policys_formula(self, name):
        # bit for bit: Theorem 1 gives F = U_K diag((L/M) (sqrt(y_i)/Pi_ii)) S^T
        # and a baseline F = U_K diag(sqrt(p_i)), on every solver branch, with
        # U_K the leading right singular vectors of the context's channel
        rng = np.random.default_rng(22)
        setup = SimpleNamespace(arrivals=ArrivalModel(kind="poisson", mean=5.0))
        policy = policy_factory(name)(setup)
        cases = [make_ctx_and_channel(rng, K=K, E=E, theta=40.0, L=L, slot=slot,
                                      M=rng.uniform(0.5, 2.0))
                 for K in (1, 2, 3) for E in (0.0, 2.0, 30.0) for L in (1.0, 30.0)
                 for slot in (0, 1)]
        modes = set()
        for ctx, H in cases:
            d = policy(ctx)
            U_K = right_singular_vectors(H, len(ctx.Pi_K))
            modes.add((d.mode, bool(d.allocations.any())))
            amplitudes = np.sqrt(d.allocations)
            if name == "proposed" and d.allocations.any():
                gains = (ctx.L / ctx.M) * (amplitudes / ctx.Pi_K)
                want = U_K @ (gains[:, None] * ctx.S.T)
            else:
                want = U_K @ (amplitudes[:, None] * np.eye(len(amplitudes)))
            F = assemble_precoder(U_K, d.gains, d.basis)
            assert F.tobytes() == want.tobytes()
        assert ("active", True) in modes


class TestBaselines:
    PROFILES = {"capacity": (baseline_capacity_wf, lambda pi: np.ones_like(pi)),
                "mmse": (baseline_mmse_wf, lambda pi: 1.0 / np.sqrt(pi))}

    def test_capacity_water_filling_hand_case(self):
        ctx = diagonal_ctx([2.0, 1.0], [1.0, 1.0], E=1.0, theta=2.0)
        assert np.allclose(baseline_capacity_wf(ctx).allocations, [0.75, 0.25])

    def test_mmse_water_filling_hand_case(self):
        ctx = diagonal_ctx([4.0, 1.0], [1.0, 1.0], E=1.0, theta=2.0)
        assert np.allclose(baseline_mmse_wf(ctx).allocations, [0.5, 0.5])

    def test_budgets_met_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            pi = rng.uniform(0.05, 5.0, rng.integers(1, 5))
            b = rng.uniform(0.0, 40.0)
            ctx = diagonal_ctx(pi, np.ones_like(pi), E=b, theta=40.0)
            for fn, _ in self.PROFILES.values():
                p = fn(ctx).allocations
                assert p.sum() == pytest.approx(b, abs=1e-9 * max(1.0, b))
                assert (p >= 0).all()
        # every baseline's stacked form, on stacks that lead with an empty
        # battery: that context gets zero powers and is not active, and no
        # RuntimeWarning (an error under this suite) is raised on the way
        setup = SimpleNamespace(arrivals=ArrivalModel(kind="poisson", mean=20.0))
        for K in range(1, 5):
            pi = rng.uniform(0.05, 5.0, (25, K))
            E = np.concatenate([[0.0], rng.uniform(0.0, 40.0, 24)])
            args = (np.broadcast_to(identity(K), (25, K, K)), np.ones((25, K)), pi, E,
                    np.full(25, 20.0), 40.0, 1.0, 1.0, 2.56, 0)
            for name in POLICY_NAMES[1:]:
                gains, _, active, _, p = policy_factory(name)(setup).stacked(*args)
                b = np.minimum(20.0, E) if name in ("baseline4", "baseline5") else E
                assert (np.abs(p.sum(axis=1) - b) <= 1e-9 * np.maximum(1.0, b)).all()
                assert (p >= 0).all() and active.tolist() == (b > 0).tolist()
                assert not (gains[0].any() or p[0].any() or active[0])

    def test_matches_bisection_oracle(self):
        # p_i = [gamma w_i - 1/pi_i]^+ with gamma found by bisection, over
        # random channels, an empty battery and equal channel gains
        rng = np.random.default_rng(12)
        ctxs = []
        for j in range(120):
            K = int(rng.integers(1, 5))
            E = (log_uniform(rng, 1e-4, 40.0), 0.0)[j % 2]
            ctxs.append(make_ctx(rng, K=K, E=E, theta=40.0, M=rng.uniform(0.5, 2.0)))
            ctxs.append(diagonal_ctx(np.full(K, rng.uniform(0.05, 5.0)), np.ones(K),
                                     E=E, theta=40.0, tau=rng.uniform(0.01, 1.0)))
        for ctx in ctxs:
            mean_alpha = log_uniform(rng, 1e-4, 40.0)
            for profile, (fn, weights) in self.PROFILES.items():
                for d, spend in ((fn(ctx), ctx.E),
                                 (baseline_constant_power(ctx, mean_alpha, profile),
                                  min(mean_alpha, ctx.E))):
                    budget = spend / (ctx.M**2 * ctx.tau)
                    want = water_filling_bisection(weights(ctx.Pi_K), 1.0 / ctx.Pi_K,
                                                   budget)
                    assert np.abs(d.allocations - want).max() <= 1e-9 * max(1.0, budget)
                    assert budget_of(ctx, d) == pytest.approx(spend, rel=1e-9, abs=1e-12)

    def test_capacity_baseline_spends_battery(self):
        rng = np.random.default_rng(5)
        ctx = make_ctx(rng, E=2.0)
        d = baseline_capacity_wf(ctx)
        assert budget_of(ctx, d) == pytest.approx(ctx.E, rel=1e-9)

    def test_periodic_schedule(self):
        rng = np.random.default_rng(6)
        for slot, expect in ((0, "active"), (1, "dormant"), (2, "dormant"),
                             (3, "active")):
            ctx = make_ctx(np.random.default_rng(6), E=2.0, slot=slot)
            assert baseline_periodic_wf(ctx, 3).mode == expect

    def test_mmse_baseline_power_profile(self):
        rng = np.random.default_rng(7)
        ctx = make_ctx(rng, E=2.0)
        d = baseline_mmse_wf(ctx)
        budget = ctx.E / (ctx.M**2 * ctx.tau)
        assert d.allocations.sum() == pytest.approx(budget, rel=1e-9)

    def test_constant_power_clips_to_battery(self):
        rng = np.random.default_rng(8)
        ctx = make_ctx(rng, E=1.0)
        d = baseline_constant_power(ctx, mean_alpha=50.0)
        assert budget_of(ctx, d) <= ctx.E * (1.0 + 1e-9)
        ctx2 = make_ctx(np.random.default_rng(8), E=40.0)
        d2 = baseline_constant_power(ctx2, mean_alpha=2.0)
        assert budget_of(ctx2, d2) == pytest.approx(min(2.0, ctx2.E), rel=1e-9)

    def test_constant_power_unknown_profile(self):
        rng = np.random.default_rng(9)
        with pytest.raises(InputDomainError):
            baseline_constant_power(make_ctx(rng), mean_alpha=1.0, profile="other")

    def test_baseline_precoder_shape_uses_left_basis(self):
        rng = np.random.default_rng(10)
        ctx, H = make_ctx_and_channel(rng, E=2.0)
        d = baseline_capacity_wf(ctx)
        U_K = right_singular_vectors(H, len(ctx.Pi_K))
        F = assemble_precoder(U_K, d.gains, d.basis)
        # F = U_K diag(sqrt(p)): back-rotating recovers the diagonal, and F
        # lies in span(U_K)
        block = U_K.conj().T @ F
        assert np.abs(block - np.diag(np.sqrt(d.allocations))).max() < 1e-10
        assert np.abs(U_K @ block - F).max() < 1e-10
