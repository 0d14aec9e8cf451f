"""Extinction probabilities as least fixed points of the offspring PGF map.

A population where everyone at site x is replaced by a random offspring
configuration has a coordinatewise generating function G on [0,1]^V, and
the probability of eventual extinction (started from one particle at each
vertex in turn) is its smallest fixed point.  Iterating G from the zero
vector climbs to it; at criticality that climb is sublinear, so after a
budget of plain steps the solver switches to Newton steps, which gain
about one bit each.  Four classics:

  * binary offspring {0: 0.4, 2: 0.6}: extinction solves 0.6 s^2 - s + 0.4,
    so q = 2/3;
  * geometric offspring with mean m: q = min(1, 1/m) in closed form;
  * any subcritical law: q = 1;
  * the critical law {0: 0.5, 2: 0.5}: q = 1, the case Newton finishes
    (float64 resolves G(z) - z = (1 - z)^2 / 2 only down to 1 - z ~ 1e-8).
"""

import numpy as np

import brwlab as bl
from brwlab.spectral import MomentMatrix


def show(title, model, expect):
    q, diag = bl.iterate_extinction(model, "global", tol=1e-12)
    print(f"{title:38s} qbar = {q[0]:.10f}   (expected {expect}; "
          f"{diag.iterations - diag.newton_steps} Kleene + {diag.newton_steps} Newton steps)")


def main():
    show("binary offspring, mean 1.2", bl.build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}}),
         "2/3")

    for mean in (1.5, 2.0, 4.0):
        rates = MomentMatrix(np.array([[1.0]]), (0,))
        show(f"geometric offspring, mean {mean}", bl.counterpart_model(rates, mean),
             f"1/{mean}")

    show("subcritical, mean 0.9", bl.build_scenario("gw", {"rho": {0: 0.55, 2: 0.45}}),
         "1")
    show("critical, mean 1", bl.build_scenario("gw", {"rho": {0: 0.5, 2: 0.5}}), "1")

    # the iterates from zero are monotone; any sub-solution caps them
    model = bl.build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
    z = np.full(1, 0.8)
    rep = bl.check_subsolution(model, z, 0)
    print(f"\nz = 0.8 is a survival certificate: accepted={rep.accepted}, "
          f"max violation {rep.max_violation:.2e}")
    print("so the fixed point 2/3 must lie below 0.8, and it does.")


if __name__ == "__main__":
    main()
