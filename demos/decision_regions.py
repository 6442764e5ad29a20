"""Activation regions of the event-driven precoder over channel/uncertainty.

Stream 1 is pinned at (h1, sigma1) = (4, 70); the grid varies the second
stream's gain h2 and uncertainty sigma2.  Each cell shows how many streams
the precoder turns on.  More stored energy enlarges every region: the
both-on set at E = 20 contains the one at E = 12.
"""

import numpy as np

from ehncs.limiter import make_params
from ehncs.plant import PlantModel
from ehncs.precoder import decision_region_scan

GLYPH = {0: ".", 1: "o", 2: "#"}


def main():
    model = PlantModel(A=np.diag([1.6, 1.1]), B=np.eye(2), W=np.eye(2),
                       Psi=0.5 * np.eye(2))
    params = make_params(model, M=1.0, eps=0.1)
    n = 24
    h2 = np.linspace(8.0 / n, 8.0, n)
    s2 = np.linspace(100.0 / n, 100.0, n)
    for E in (12.0, 20.0):
        scan = decision_region_scan(model, params, E, 4.0, 70.0, h2, s2,
                                    theta=36.0, tau=1.0)
        print(f"E = {E}  ('.' = dormant, 'o' = one stream, '#' = both)")
        print("sigma2 increases downward, h2 increases rightward")
        for row in scan["active_streams"]:
            print("  " + "".join(GLYPH[c] for c in row))
        print()


if __name__ == "__main__":
    main()
