"""Structure of the drift-minimizing precoder on a decoupled link.

Two spatial streams with fixed gains (h1, h2) and state-uncertainty
eigenvalues (sigma1, sigma2).  Sweeping the stored energy E shows the three
regimes: dormant (battery comfortable, no transmission), active with slack
budget (inverse water level set by the urgency theta - E alone), and active
with a binding budget (beta > 0 raises the level until the spend fits E).
"""

import numpy as np

from ehncs.energy import precoder_budget
from ehncs.precoder import DriftContext, solve_theorem1


def make_ctx(E, h=(4.0, 3.0), sigma=(70.0, 50.0), theta=36.0, L=20.0):
    K = len(h)
    return DriftContext(S=np.eye(K), Lam=np.asarray(sigma, float),
                        Pi_K=np.asarray(h, float), E=E, theta=theta, tau=1.0,
                        M=1.0, L=L, norm_AAT=2.56)


def main():
    print(f"{'E':>6} {'mode':>8} {'beta':>10} {'y1':>10} {'y2':>10} "
          f"{'energy':>10}")
    for E in [0.5, 2.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0]:
        ctx = make_ctx(E)
        d = solve_theorem1(ctx)
        y = d.allocations
        # the stream factors F_s = scale diag(gains) basis^T: on this
        # decoupled link U_K = I, so they are the precoder itself
        F_s = d.scale * (d.gains[:, None] * d.basis.T)
        print(f"{E:6.1f} {d.mode:>8} {d.beta:10.4f} {y[0]:10.4f} {y[1]:10.4f} "
              f"{precoder_budget(F_s, ctx.M, ctx.tau):10.4f}")

    print()
    print("Weak second stream: it only switches on once the water level")
    print("clears its seabed 1/(h2 sigma2).")
    for h2 in [0.3, 0.8, 1.5, 3.0]:
        d = solve_theorem1(make_ctx(E=12.0, h=(4.0, h2)))
        n_on = int(np.count_nonzero(d.allocations > 0))
        print(f"  h2 = {h2:4.1f}: {n_on} stream(s) active, y = {d.allocations}")


if __name__ == "__main__":
    main()
