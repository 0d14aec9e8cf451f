"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a PASS line with its elapsed time (visible with -s);
runtime budgets are asserted as part of the criterion.
"""

import math
import time

import numpy as np

import brwlab as bl
from brwlab.scenarios import ex45_p
from brwlab.spectral import MomentMatrix


class _Clock:
    def __init__(self, num, desc, budget):
        self.num, self.desc, self.budget = num, desc, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.num} exceeded its {self.budget}s budget ({elapsed:.1f}s)")
            print(f"ACCEPTANCE {self.num:02d} PASS ({elapsed:5.1f}s) {self.desc}")
        else:
            print(f"ACCEPTANCE {self.num:02d} FAIL ({elapsed:5.1f}s) {self.desc}")
        return False


def test_01_geometric_counterpart_fixed_point():
    with _Clock(1, "geometric-counterpart extinction equals 1/(lam*k)", 1.0):
        for m in (1.5, 2.0, 4.0):
            rates = MomentMatrix(np.array([[1.0]]), (0,))
            model = bl.counterpart_model(rates, m)
            q, diag = bl.iterate_extinction(model, "global", tol=1e-12)
            assert diag.converged
            assert abs(q[0] - 1.0 / m) <= 1e-8


def test_02_gw_quadratic_fixed_point_and_mc():
    with _Clock(2, "binary-offspring extinction 2/3 and matching MC frequency", 30.0):
        model = bl.build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        q, _ = bl.iterate_extinction(model, "global", tol=1e-12)
        assert abs(q[0] - 2.0 / 3.0) <= 1e-8
        # alive-at-abort bias is (2/3)^3000, far below the CI width
        est = bl.estimate_survival(model, {0: 1}, horizon=500, replicas=10_000,
                                   seed=20240601, hard_cap=3000)
        assert est.ci_low <= 1.0 / 3.0 <= est.ci_high


def test_03_perron_cross_check():
    with _Clock(3, "local verdicts agree with a dense Perron eigensolve", 10.0):
        rng = np.random.default_rng(99)
        checked = 0
        for _ in range(100):
            disp = rng.uniform(0.1, 1.0, (5, 5))
            disp /= disp.sum(axis=1, keepdims=True)
            laws = {}
            for v in range(5):
                mean = rng.uniform(0.6, 1.4)
                n = 2
                laws[v] = bl.product_form_law({0: 1.0 - mean / n, n: mean / n},
                                              {u: disp[v, u] for u in range(5)})
            model = bl.BrwModel(tuple(range(5)), laws)
            M = bl.moment_matrix(model)
            root = max(abs(np.linalg.eigvals(M.csr.toarray())))
            rep = bl.classify_survival(model, 0, n_max=4000)
            if abs(root - 1.0) > 1e-3:
                checked += 1
                expected = "survives" if root > 1.0 else "dies"
                assert rep.local == expected, (root, rep.local)
        assert checked >= 50  # the draw spreads roots across both sides


def test_04_mean_propagation():
    with _Clock(4, "MC means match the moment recursion for n = 1..8", 60.0):
        model = bl.build_scenario("zd_translation", {"radius": 10})
        R = 100_000
        means, samples = bl.mean_curve(model, {0: 1}, 8, R, seed=77, track=0)
        M = bl.moment_matrix(model)
        i0 = M.index[0]
        for n in range(1, 9):
            expect = bl.expected_population(M, {0: 1}, n)[i0]
            se = samples[:, n].astype(float).std(ddof=1) / math.sqrt(R)
            assert abs(means[n][i0] - expect) <= 4.0 * se


def test_05_coupling_domination():
    with _Clock(5, "10^4 coupled trajectories, domination asserted every step", 60.0):
        model = bl.build_scenario("zd_translation", {"radius": 6})
        window = frozenset(range(-2, 3))
        pairs = 0
        # each batch runs replicas 0..2499 as 2,500 run_coupled_trials calls
        # would, asserting every domination pair at every step
        outs = bl.run_trial_batch(model, [1, 5, math.inf], {0: 1}, 25, range(2500),
                                  seed=501, hard_cap=4000)
        pairs += 2 * len(outs)  # (inf,1) and (inf,5): two pairs per replica
        # restriction coupling against the free process
        outs = bl.run_trial_batch(model, [math.inf, math.inf], {0: 1}, 25, range(2500),
                                  seed=502, hard_cap=4000,
                                  couplings=[bl.RestrictionCoupling(window), None])
        pairs += len(outs)
        # capped + restricted lower against free upper
        outs = bl.run_trial_batch(model, [5, math.inf], {0: 1}, 25, range(2500),
                                  seed=503, hard_cap=4000,
                                  couplings=[bl.RestrictionCoupling(window), None])
        pairs += len(outs)
        assert pairs == 10_000


def test_06_seneta_window_convergence():
    with _Clock(6, "nested-window growth matches 1.5*cos(pi/(2r+2)), monotone", 10.0):
        model = bl.build_scenario("zd_translation", {"radius": 30})
        exhaustion = [range(-r, r + 1) for r in range(1, 31)]
        ests = bl.seneta_sequence(model, exhaustion, 0, n_max=6000)
        values = [e.value for e in ests]
        for r, v in zip(range(1, 31), values):
            oracle = 1.5 * math.cos(math.pi / (2 * r + 2))
            assert abs(v - oracle) <= 1e-4, (r, v, oracle)
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_07_line_noext_ladder():
    with _Clock(7, "mean growth 2 with certain extinction on every window", 60.0):
        prev_q = 0.0
        for K in (4, 8, 16, 32):
            model = bl.build_scenario("line_noext", {"size": K + 1})
            M = bl.moment_matrix(model)
            est = bl.global_growth_rate(M, 0, n_max=K)
            assert abs(est.value - 2.0) <= 0.1
            q, diag = bl.iterate_extinction(model, "global")
            assert diag.converged
            qk = float(q[model.index[0]])
            assert qk >= prev_q - 1e-12
            assert qk > 0.99
            prev_q = qk


def test_08_ex45_subsolution_and_mc():
    with _Clock(8, "escape-to-the-right certificate accepted; MC survival > 0", 30.0):
        model = bl.build_scenario("line_ex45", {"size": 64})
        z = np.empty(64)
        for n in range(64):
            logw = 0.0
            i = n
            while True:
                t = math.log(ex45_p(i))
                logw += t
                i += 1
                if t > -1e-18:
                    break
            z[n] = 1.0 - math.exp(logw)
        rep = bl.check_subsolution(model, z, 0, tol=1e-10)
        assert rep.accepted
        assert rep.max_violation <= 1e-10
        est = bl.estimate_survival(model, {0: 1}, horizon=150, replicas=500, seed=6)
        assert est.ci_low > 0.0


def test_09_green_identity():
    with _Clock(9, "Gamma(1 - Phi) = 1 on random matrices", 5.0):
        rng = np.random.default_rng(1312)
        for _ in range(50):
            A = rng.uniform(0.0, 1.2, (6, 6)) * (rng.random((6, 6)) < 0.8)
            M = MomentMatrix(A, tuple(range(6)))
            if M.max_row_sum() == 0.0:
                continue
            lam = 0.5 / M.max_row_sum()
            phi = bl.first_return_series(M, 0, lam, n_max=800)
            gamma = bl.green_series(M, 0, lam, n_max=800)
            assert abs(gamma * (1.0 - phi) - 1.0) <= 1e-8


def test_10_drift_rate_identity_and_region():
    with _Clock(10, "rate identity at the anchor and certified integer directions", 5.0):
        rng = np.random.default_rng(7)
        count = 0
        while count < 100:
            p = rng.uniform(0.05, 0.7)
            q = rng.uniform(0.05, min(0.7, 0.95 - p))
            rb = rng.uniform(0.2, 3.0)
            d = bl.DriftParams(rb, p, q)
            assert abs(bl.q_value(d, p - q, p) - rb) <= 1e-12
            count += 1
        for _ in range(10):
            p = rng.uniform(0.1, 0.8)
            q = rng.uniform(0.1, min(0.8, 0.9 - p))
            rb = rng.uniform(1.05, 2.5)
            region = bl.supercritical_region(bl.DriftParams(rb, p, q))
            assert region.integers is not None, (rb, p, q)
            d1, d2, d3, N = region.integers
            a1, a2, b1, b2 = region.rectangle
            assert a1 * N <= d1 < d2 <= a2 * N
            assert b1 * N <= d3 <= b2 * N


def test_11_truncation_sweep():
    with _Clock(11, "capped survival climbs to the uncapped baseline", 300.0):
        model = bl.build_scenario("zd_translation", {"radius": 20})
        res = bl.truncation_sweep(model, [1, 2, 4, 8, 16, 32], {0: 1},
                                  horizon=200, replicas=2000, target=0,
                                  seed=1105, hard_cap=20_000)
        freqs = [r.alive_frequency for r in res.rows]
        assert freqs == sorted(freqs)  # exact under the shared-draw coupling
        by_cap = {r.cap: r for r in res.rows}
        inf_row = by_cap[math.inf]
        cap32 = by_cap[32.0]
        assert inf_row.ci[0] <= cap32.alive_frequency <= inf_row.ci[1]
        # consecutive rows overlap at CI level
        for a, b in zip(res.rows[1:], res.rows[2:]):
            assert a.ci[1] >= b.ci[0]


def test_12_tree_lambda_sweep():
    with _Clock(12, "critical rates on the degree-4 tree window", 120.0):
        verts, K = bl.tree_rates(4, 12)
        res = bl.lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-3,
                              projected_row_sum=4.0, stop_tol=1e-9)
        assert abs(res.lambda_s - 1.0 / (2.0 * math.sqrt(3.0))) <= 0.01
        assert abs(res.lambda_w - 0.25) <= 0.01


def test_13_percolation_sanity():
    with _Clock(13, "degenerate probabilities exact; monotone under shared noise", 30.0):
        one = bl.oriented_percolation(bl.PercolationConfig(p=1.0, horizon=200), 50, seed=2)
        assert one.frequency == 1.0
        assert np.all(one.revisit_counts == 200)
        zero = bl.oriented_percolation(bl.PercolationConfig(p=0.0, horizon=200), 50, seed=2)
        assert zero.frequency == 0.0
        assert np.all(zero.revisit_counts == 0)
        freqs = []
        for p in (0.3, 0.5, 0.65, 0.8, 1.0):
            r = bl.oriented_percolation(bl.PercolationConfig(p=p, horizon=200), 60, seed=4)
            freqs.append(r.frequency)
        assert freqs == sorted(freqs)


def test_14_chebyshev_minimality():
    with _Clock(14, "returned k is minimal for the one-sided bound", 1.0):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            s2 = rng.uniform(1e-6, 100.0)
            D = rng.uniform(1.0, 10.0)
            eps = rng.uniform(1e-3, 0.999)
            k = bl.chebyshev_k(s2, D, eps)
            assert s2 / (D * D * k + s2) <= eps * (1 + 1e-12)
            if k >= 1:
                assert s2 / (D * D * (k - 1) + s2) > eps * (1 - 1e-12)
