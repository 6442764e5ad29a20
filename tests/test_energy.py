import math

import numpy as np
import pytest

from ehncs.energy import (ArrivalModel, check_feasible, draw_arrival,
                          estimate_inverse_mean, spend_and_harvest)
from ehncs.numerics import InputDomainError


class TestQueue:
    def test_spend_then_harvest(self):
        E = spend_and_harvest(10.0, spend=4.0, alpha=1.0, theta=20.0)
        assert E == pytest.approx(7.0)

    def test_capacity_clamp(self):
        assert spend_and_harvest(10.0, spend=0.0, alpha=100.0, theta=20.0) == 20.0

    def test_overspend_clamps_and_counts(self):
        assert spend_and_harvest(1.0, spend=5.0, alpha=0.0, theta=20.0) == 0.0

    def test_negative_inputs_rejected(self):
        for spend, alpha in [(-1.0, 0.0), (0.0, -1.0), (math.nan, 0.0), (0.0, math.nan),
                             (np.array([1.0, math.nan]), np.zeros(2))]:
            with pytest.raises(InputDomainError):
                spend_and_harvest(10.0, spend=spend, alpha=alpha, theta=20.0)


class TestArrivals:
    def test_deterministic(self):
        # the mean every slot, with nothing drawn from the generator
        m = ArrivalModel(kind="deterministic", mean=3.0)
        rng = np.random.default_rng(0)
        assert draw_arrival(m, rng) == 3.0
        assert rng.random() == np.random.default_rng(0).random()

    def test_poisson_mean(self):
        m = ArrivalModel(kind="poisson", mean=40.0)
        rng = np.random.default_rng(1)
        draws = [draw_arrival(m, rng) for _ in range(20000)]
        assert abs(np.mean(draws) - 40.0) < 0.3

    def test_invalid_kind(self):
        with pytest.raises(InputDomainError):
            ArrivalModel(kind="uniform", mean=1.0)
        for kind in ("poisson", "deterministic"):
            for bad in (math.nan, math.inf):
                with pytest.raises(InputDomainError):
                    ArrivalModel(kind=kind, mean=bad)


class TestFeasibility:
    def test_budget_within_battery(self):
        F = np.ones((3, 2), dtype=complex)  # Tr(F^H F) = 6
        assert check_feasible(0.07, F, M=1.0, tau=0.01)  # 6 * 0.01 = 0.06
        assert not check_feasible(0.05, F, M=1.0, tau=0.01)

    def test_scaling_with_amplitude(self):
        F = np.ones((1, 1), dtype=complex)
        assert check_feasible(0.05, F, M=2.0, tau=0.01)  # 4 * 0.01
        assert not check_feasible(0.03, F, M=2.0, tau=0.01)

    def test_slack_scales_with_the_battery(self):
        # a budget equal to a 1e8 J battery up to round-off passes; one
        # 1e-9 relative above it does not
        F = np.ones((1, 1), dtype=complex)
        E = 1e8
        assert check_feasible(E, F, M=1.0, tau=E * (1.0 + 4e-16))
        assert not check_feasible(E, F, M=1.0, tau=E * (1.0 + 1e-9))


class TestInverseMean:
    def test_deterministic_exact(self):
        m = ArrivalModel(kind="deterministic", mean=4.0)
        inv, zero_frac = estimate_inverse_mean(m, np.random.default_rng(0))
        assert inv == 0.25 and zero_frac == 0.0

    def test_matches_per_draw_loop(self):
        # one call for n draws gives the values of n single draws; at mean 2
        # about 14% of the draws are zero and drop out of the mean
        m = ArrivalModel(kind="poisson", mean=2.0)
        rng = np.random.default_rng(12)
        draws = np.array([draw_arrival(m, rng) for _ in range(5000)])
        pos = draws[draws > 0]
        expect = (float((1.0 / pos).mean()), 1.0 - pos.size / draws.size)
        assert expect[1] > 0.1
        assert estimate_inverse_mean(m, np.random.default_rng(12), n=5000) == expect

    def test_poisson_matches_series(self):
        # series oracle: E[1/a | a > 0] = sum_{k>=1} e^-m m^k / (k! k) / (1 - e^-m)
        mean = 5.0
        log_terms = [-mean + k * math.log(mean) - math.lgamma(k + 1) - math.log(k)
                     for k in range(1, 200)]
        series = sum(math.exp(t) for t in log_terms) / (1.0 - math.exp(-mean))
        m = ArrivalModel(kind="poisson", mean=mean)
        inv, zero_frac = estimate_inverse_mean(m, np.random.default_rng(3), n=200_000)
        assert abs(inv - series) < 0.01 * series
        assert abs(zero_frac - math.exp(-mean)) < 0.005
