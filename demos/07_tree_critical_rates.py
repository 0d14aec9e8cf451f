"""Two critical rates on a homogeneous tree window.

Scaling all reproduction rates by lam gives a one-parameter family with
two thresholds: lam_w, above which the colony survives globally, and
lam_s >= lam_w, above which it keeps reoccupying its starting vertex.  On
the degree-r tree with unit edge rates the thresholds split:

    lam_w = 1/r            (total population is a mean lam*r process)
    lam_s = 1/(2 sqrt(r-1)) (return rate through the window)

Between them the colony survives by fleeing: the population explodes while
every fixed vertex is eventually abandoned.  The window's own return rate
approaches the untruncated value from below as the depth grows.  Each
window's lam_s comes with a certified bracket: the reciprocal of a
Collatz-Wielandt bracket of the window's Perron root.
"""

import math

import brwlab as bl


def main():
    degree = 4
    print(f"degree-{degree} tree, unit edge rates, thresholds by window depth:")
    print(f"  untruncated: lam_w = {1 / degree:.4f}, "
          f"lam_s = {1 / (2 * math.sqrt(degree - 1)):.4f}")
    for depth in (5, 7, 9):
        verts, K = bl.tree_rates(degree, depth)
        res = bl.lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-3,
                              projected_row_sum=float(degree), stop_tol=1e-9)
        lo, hi = res.lambda_s_bracket
        print(f"  depth {depth}: lam_w = {res.lambda_w:.4f}, "
              f"lam_s = {res.lambda_s:.4f} in [{lo:.5f}, {hi:.5f}]   ({len(verts)} vertices)")

    print("\nextinction probability along the rate axis (depth 7):")
    verts, K = bl.tree_rates(degree, 7)
    res = bl.lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-3,
                          projected_row_sum=float(degree),
                          grid=(0.2, 0.24, 0.26, 0.3, 0.35, 0.4))
    for lam, q in res.qbar_table:
        bar = "#" * int(40 * q)
        print(f"  lam={lam:4.2f}: qbar = {q:6.4f} {bar}")


if __name__ == "__main__":
    main()
