"""Mean-square stability test and the steady-state error bound.

The sufficient condition compares an energy-scarcity term
E[1/alpha] + 1/theta against a channel/plant curve maximized over a
truncation level xi.  For the bundled reference scenario the condition
fails by a factor of ~21, though simulation is well-behaved: the
delta^2 K tau factor in the denominator of rhs_max makes the curve too low.
rhs_max scales as 1/tau, so the same plant, channel, limiter and arrivals
pass at tau = 1e-4 and yield a finite error bound, as does a tamer plant
with the same channel.
"""

from pathlib import Path

import numpy as np

from ehncs.analysis import check_stability
from ehncs.channel import PiTildeLaw
from ehncs.config import build_limiter, build_model, parse_config
from ehncs.energy import ArrivalModel, estimate_inverse_mean
from ehncs.limiter import make_params
from ehncs.plant import PlantModel

CFG = Path(__file__).parent.parent / "src" / "ehncs" / "configs" / "reference.cfg"


def show(name, model, params, stats, e_inv, theta, tau):
    rep = check_stability(model, params, stats, e_inv, theta, tau)
    print(f"{name}: satisfied={rep.satisfied} lhs={rep.lhs:.4g} "
          f"rhs_max={rep.rhs_max:.4g} at xi*={rep.xi_star:.3f}")
    for req in rep.requirements:
        print(f"  requirement {req.name}: actual={req.actual:.4g} "
              f"threshold={req.threshold:.4g} ok={req.satisfied}")
    if rep.mse_bound is None:
        print(f"  error bound undefined: mse_bound: eta = {rep.eta:.4g} <= 0, "
              "bound undefined")
    else:
        print(f"  eta={rep.eta:.4g}, steady-state Tr(Sigma) bound={rep.mse_bound:.4g}")
    print()


def main():
    cfg = parse_config(CFG)
    # the reference channel is 2 x 3, so its pi_tilde law is exact
    stats = PiTildeLaw(max(cfg.N_c, cfg.N_s))
    e_inv, _ = estimate_inverse_mean(
        ArrivalModel(kind=cfg.arrival, mean=cfg.mean_alpha),
        np.random.default_rng(1))

    model = build_model(cfg)
    show("reference scenario", model, build_limiter(cfg, model), stats,
         e_inv, cfg.theta, cfg.tau)
    show("reference scenario, tau = 1e-4", model, build_limiter(cfg, model),
         stats, e_inv, cfg.theta, 1e-4)

    tame = PlantModel(A=1.01 * np.eye(2), B=np.eye(2), W=0.01 * np.eye(2),
                      Psi=0.5 * np.eye(2))
    show("tame plant, same channel", tame, make_params(tame, M=1.0, eps=0.01),
         stats, e_inv, theta=1e4, tau=1e-4)


if __name__ == "__main__":
    main()
