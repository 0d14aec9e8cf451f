"""Growth rates and generating series of the first-moment matrix.

The n-th roots of the return values m^(n)_xx converge to the dominant
growth rate of the window; comparing that rate with 1 decides local
survival.  Row sums of M^n play the same role for global survival on
finite windows.  The first-return series Phi and the full return series
Gamma are tied by Gamma = 1 / (1 - Phi) inside the radius.
"""

import math

import numpy as np

import brwlab as bl
from brwlab.spectral import MomentMatrix


def main():
    # symmetric nearest-neighbour window, mean 1.5 children per particle
    model = bl.build_scenario("zd_translation", {"radius": 12})
    M = bl.moment_matrix(model)
    local = bl.local_growth_rate(M, 0, n_max=4000)
    glob = bl.global_growth_rate(M, 0, n_max=40)
    oracle = 1.5 * math.cos(math.pi / 26)
    print(f"window radius 12: local growth {local.value:.6f} "
          f"(closed form {oracle:.6f}), global growth {glob.value:.6f}")
    print(f"  subsequence rule: {local.subsequence_rule}, "
          f"converged={local.converged}")

    # shrinking the window only lowers the local rate, and the sequence of
    # window rates climbs back to the full value as the windows grow
    exhaustion = [range(-r, r + 1) for r in (1, 2, 4, 8, 12)]
    # each window's root comes with a certified Collatz-Wielandt bracket
    print("\nwindow growth along a nested exhaustion:")
    for r, est in zip((1, 2, 4, 8, 12), bl.seneta_sequence(model, exhaustion, 0, n_max=4000)):
        low, high = est.bracket
        print(f"  radius {r:2d}: {est.value:.6f} in [{low:.15f}, {high:.15f}]   "
              f"(closed form {1.5 * math.cos(math.pi / (2 * r + 2)):.15f})")

    # return series on a small random window
    rng = np.random.default_rng(3)
    A = rng.uniform(0, 1, (5, 5))
    M5 = MomentMatrix(A, tuple(range(5)))
    lam = 0.5 / M5.max_row_sum()
    phi = bl.first_return_series(M5, 0, lam, n_max=500)
    gamma = bl.green_series(M5, 0, lam, n_max=500)
    print(f"\nrandom 5-vertex window at lam={lam:.4f}: "
          f"Phi={phi:.8f}, Gamma={gamma:.8f}, Gamma*(1-Phi)={gamma * (1 - phi):.10f}")


if __name__ == "__main__":
    main()
