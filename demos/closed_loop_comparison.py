"""Event-driven precoding against the five always-on baselines.

Runs the bundled reference scenario (unstable 2-state plant, 2x3 Rayleigh
downlink, Poisson harvesting) at a reduced path count and prints the
normalized estimation error ||x - x_hat||^2 / K with 95% confidence
intervals, plus duty cycle and energy use.  The event-driven scheme stays
quiet when the battery is comfortable and still wins on error.
"""

from pathlib import Path

from ehncs.config import build_setup, parse_config
from ehncs.precoder import (baseline_capacity_wf, baseline_constant_power,
                            baseline_mmse_wf, baseline_periodic_wf,
                            solve_theorem1)
from ehncs.sim import run_monte_carlo

CFG = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"
N_PATHS, N_SLOTS, SEED = 40, 300, 1


def main():
    cfg = parse_config(CFG)
    setup = build_setup(cfg)
    mean_alpha = setup.arrivals.mean
    policies = {
        "proposed (event-driven WF)": solve_theorem1,
        "capacity WF, every slot": baseline_capacity_wf,
        "capacity WF, every 3rd slot": lambda c: baseline_periodic_wf(c, 3),
        "MMSE WF, every slot": baseline_mmse_wf,
        "constant power, capacity": lambda c: baseline_constant_power(
            c, mean_alpha, "capacity"),
        "constant power, MMSE": lambda c: baseline_constant_power(
            c, mean_alpha, "mmse"),
    }
    print(f"{'policy':<30} {'mse':>8} {'+-':>6} {'duty':>6} {'energy':>8}")
    for name, policy in policies.items():
        r = run_monte_carlo(setup, policy, N_PATHS, N_SLOTS, SEED)
        print(f"{name:<30} {r.mse.mean:8.3f} {r.mse.ci_half_width:6.3f} "
              f"{r.duty_cycle.mean:6.3f} {r.paths.energy_used.mean():8.1f}")


if __name__ == "__main__":
    main()
