"""Local versus global survival, and why means alone cannot decide the latter.

Local survival is a property of the first-moment matrix: the return growth
rate exceeds 1 or it does not.  Global survival is subtler.  Two headline
scenarios:

  * tree_counterpart: uniform dispersal on a degree-4 tree with mean 1.1.
    Mass spreads so fast that no single site is revisited enough (return
    rate 1.1 * 2*sqrt(3)/4 < 1), yet the total population is a mean-1.1
    single-site process, so the colony survives globally.

  * line_noext: every particle at i has n_i forward children with
    probability 2/n_i.  Every row of the mean matrix sums to 2, but with
    n_i growing fast enough the extinction vector is identically 1 on
    every window: the mean matrix cannot certify global survival.
"""

import brwlab as bl


def main():
    tree = bl.build_scenario("tree_counterpart", {"degree": 4, "depth": 8, "lam": 0.275})
    rep = bl.classify_survival(tree, 0)
    print("degree-4 tree window, mean 1.1:")
    print(rep.to_text())

    print("\nforward line with mean growth 2 at every window size:")
    for K in (4, 8, 16, 32):
        model = bl.build_scenario("line_noext", {"size": K + 1})
        M = bl.moment_matrix(model)
        growth = bl.global_growth_rate(M, 0, n_max=K).value
        q, _ = bl.iterate_extinction(model, "global")
        print(f"  window 0..{K:2d}: row-sum growth {growth:.3f}, "
              f"extinction probability at 0 = {q[model.index[0]]:.6f}")
    print("  (the searched branch counts push every fixed point to 1)")

    print("\nescape to the right despite row sums below 1:")
    ex45 = bl.build_scenario("line_ex45", {"size": 64})
    M = bl.moment_matrix(ex45)
    print(f"  max row sum = 1 - {1.0 - M.max_row_sum():.2e} < 1")
    est = bl.estimate_survival(ex45, {0: 1}, horizon=150, replicas=400, seed=1)
    print(f"  yet MC survival frequency from the origin: {est.frequency:.3f} "
          f"[{est.ci_low:.3f}, {est.ci_high:.3f}]")

    print("\nstrong local survival on a transitive-looking window:")
    zd = bl.build_scenario("zd_translation", {"radius": 10})
    sl = bl.strong_local_compare(zd, 0, 0)
    print(f"  qbar(0) = {sl.qbar_x0:.6f}, avoidance fixed point {sl.q_target_x0:.6f} "
          f"-> {sl.verdict}")


if __name__ == "__main__":
    main()
