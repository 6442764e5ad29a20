import math

import numpy as np
import pytest

from ehncs.energy import (ArrivalModel, EnergyQueue, check_feasible,
                          estimate_inverse_mean, sample_arrival,
                          spend_and_harvest)
from ehncs.numerics import InputDomainError


def queue(E=10.0, theta=20.0):
    return EnergyQueue(E=E, theta=theta, tau=0.01)


class TestQueue:
    def test_spend_then_harvest(self):
        q = spend_and_harvest(queue(), spend=4.0, alpha=1.0)
        assert q.E == pytest.approx(7.0)

    def test_capacity_clamp(self):
        q = spend_and_harvest(queue(), spend=0.0, alpha=100.0)
        assert q.E == 20.0

    def test_overspend_clamps_and_counts(self):
        q = spend_and_harvest(queue(E=1.0), spend=5.0, alpha=0.0)
        assert q.E == 0.0
        assert q.overspend_count == 1

    def test_negative_inputs_rejected(self):
        with pytest.raises(InputDomainError):
            spend_and_harvest(queue(), spend=-1.0, alpha=0.0)


class TestArrivals:
    def test_deterministic(self):
        m = ArrivalModel(kind="deterministic", mean=3.0)
        assert sample_arrival(m, [np.random.default_rng(0)])[0] == 3.0

    def test_poisson_mean(self):
        m = ArrivalModel(kind="poisson", mean=40.0)
        rng = np.random.default_rng(1)
        draws = sample_arrival(m, [rng] * 20000)
        assert abs(np.mean(draws) - 40.0) < 0.3

    def test_invalid_kind(self):
        with pytest.raises(InputDomainError):
            ArrivalModel(kind="uniform", mean=1.0)


class TestFeasibility:
    def test_budget_within_battery(self):
        F = np.ones((3, 2), dtype=complex)  # Tr(F^H F) = 6
        assert check_feasible(queue(E=0.07), F, M=1.0)  # 6 * 0.01 = 0.06
        assert not check_feasible(queue(E=0.05), F, M=1.0)

    def test_scaling_with_amplitude(self):
        F = np.ones((1, 1), dtype=complex)
        assert check_feasible(queue(E=0.05), F, M=2.0)  # 4 * 0.01
        assert not check_feasible(queue(E=0.03), F, M=2.0)


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
        draws = np.array([sample_arrival(m, [rng])[0] for _ in range(5000)])
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
