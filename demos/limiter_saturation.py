"""The epsilon-saturation limiter in closed loop.

The dynamic range L is sized from the virtual covariance so the state
exceeds it with probability at most epsilon; on a saturated slot the
receiver discards the measurement (gamma = 0).  Shrinking epsilon inflates
L (and the constant delta in the stability test) but drives the observed
saturation rate down with it.
"""

import numpy as np

from ehncs.analysis import delta_constant
from ehncs.config import build_model, parse_config
from ehncs.energy import ArrivalModel
from ehncs.limiter import compute_theta, dynamic_range, make_params
from ehncs.precoder import solve_theorem1
from ehncs.sim import SimSetup, run_monte_carlo

from pathlib import Path

CFG = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"


def main():
    cfg = parse_config(CFG)
    model = build_model(cfg)
    print(f"estimator amplification Theta = {compute_theta(model):.4f}")
    print()
    print(f"{'eps':>8} {'L at W':>10} {'delta':>10} {'sat rate':>10}")
    for eps in (0.2, 0.05, 0.01):
        params = make_params(model, M=cfg.M, eps=eps)
        setup = SimSetup(model=model, limiter=params,
                         arrivals=ArrivalModel(kind="poisson", mean=cfg.mean_alpha),
                         N_c=cfg.N_c, N_s=cfg.N_s, tau=cfg.tau, theta=cfg.theta)
        run = run_monte_carlo(setup, solve_theorem1, 40, 200, seed=1)
        L0 = dynamic_range(model, params, model.tr_W)  # L at Sigma = W
        print(f"{eps:8.2f} {L0:10.4f} "
              f"{delta_constant(model, params):10.4f} "
              f"{run.saturation_rate.mean:10.4f}")
    print()
    print("observed saturation stays at or below each eps target")


if __name__ == "__main__":
    main()
