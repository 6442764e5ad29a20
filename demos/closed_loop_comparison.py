"""Event-driven precoding against the five always-on baselines.

Runs the bundled reference scenario (unstable 2-state plant, 2x3 Rayleigh
downlink, Poisson harvesting) at a reduced path count and prints the
normalized estimation error ||x - x_hat||^2 / K with 95% confidence
intervals, plus duty cycle and energy use.  The event-driven scheme stays
quiet when the battery is comfortable and still wins on error.
"""

from pathlib import Path

from ehncs.cli import policy_factory
from ehncs.config import POLICY_NAMES, build_setup, parse_config
from ehncs.sim import run_monte_carlo

CFG = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"
N_PATHS, N_SLOTS, SEED = 40, 300, 1
LABELS = ("proposed (event-driven WF)", "capacity WF, every slot",
          "capacity WF, every 3rd slot", "MMSE WF, every slot",
          "constant power, capacity", "constant power, MMSE")


def main():
    cfg = parse_config(CFG)
    setup = build_setup(cfg)
    print(f"{'policy':<30} {'mse':>8} {'+-':>6} {'duty':>6} {'energy':>8}")
    # POLICY_NAMES lists proposed, then baselines 1-5, in the order of LABELS
    for label, name in zip(LABELS, POLICY_NAMES):
        policy = policy_factory(name, cfg.period)(setup)
        r = run_monte_carlo(setup, policy, N_PATHS, N_SLOTS, SEED)
        print(f"{label:<30} {r.mse.mean:8.3f} {r.mse.ci_half_width:6.3f} "
              f"{r.duty_cycle.mean:6.3f} {r.paths.energy_used.mean():8.1f}")


if __name__ == "__main__":
    main()
