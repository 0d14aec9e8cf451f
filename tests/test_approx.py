import math

import numpy as np
import pytest

from brwlab import approx
from brwlab.approx import (
    _PERC_SALT,
    DriftParams,
    PercolationConfig,
    ball_exhaustion,
    chebyshev_k,
    oriented_percolation,
    q_value,
    spatial_experiment,
    supercritical_region,
    truncation_sweep,
    _perc_structure,
    variance_bound,
)
from brwlab.core import IntDistribution, ModelError
from brwlab.scenarios import build_scenario, build_zd_translation
from brwlab.simulate import _philox


def mp_q_value(rho_bar, p, q, alpha, beta):
    """Independent extended-precision evaluation of the rate function."""
    import mpmath as mp
    mp.mp.dps = 50
    a, b = mp.mpf(alpha), mp.mpf(beta)
    e = [b, b - a, 1 - 2 * b + a]
    base = [mp.mpf(p), mp.mpf(q), mp.mpf(1) - p - q]

    def pw(x, y):
        if y == 0:
            return mp.mpf(1)
        return mp.power(x, y)

    num = mp.mpf(rho_bar)
    for x, y in zip(base, e):
        num *= pw(x, y)
    den = mp.mpf(1)
    for y in e:
        den *= pw(y, y)
    return float(num / den)


class TestQValue:
    def test_anchor_identity(self):
        d = DriftParams(1.7, 0.3, 0.2)
        assert q_value(d, 0.1, 0.3) == pytest.approx(1.7, abs=1e-12)

    def test_symmetric_anchor(self):
        d = DriftParams(1.2, 0.25, 0.25)
        assert q_value(d, 0.0, 0.25) == pytest.approx(1.2, abs=1e-12)

    def test_off_anchor_against_mpmath(self):
        d = DriftParams(1.2, 0.25, 0.25)
        got = q_value(d, 0.05, 0.3)
        assert got == pytest.approx(mp_q_value(1.2, 0.25, 0.25, 0.05, 0.3), rel=1e-12)

    def test_grid_against_mpmath(self):
        d = DriftParams(1.4, 0.35, 0.15)
        for alpha in (0.0, 0.1, 0.2):
            for beta in (0.25, 0.35, 0.45):
                assert q_value(d, alpha, beta) == pytest.approx(
                    mp_q_value(1.4, 0.35, 0.15, alpha, beta), rel=1e-11)

    def test_degenerate_exponents(self):
        d = DriftParams(1.2, 0.5, 0.0)
        # beta == alpha makes the q exponent zero: convention 0^0 = 1
        val = q_value(d, 0.4, 0.4)
        assert math.isfinite(val) and val > 0

    def test_out_of_range_rejected(self):
        d = DriftParams(1.2, 0.25, 0.25)
        with pytest.raises(ModelError):
            q_value(d, 0.2, 0.1)       # beta < alpha
        with pytest.raises(ModelError):
            q_value(d, 0.0, 0.8)       # beta above (1+alpha)/2


class TestSupercriticalRegion:
    def test_subcritical_empty(self):
        r = supercritical_region(DriftParams(0.9, 0.25, 0.25))
        assert r.empty
        assert r.integers is None

    def test_symmetric_contains_anchor(self):
        r = supercritical_region(DriftParams(1.2, 0.25, 0.25))
        assert not r.empty
        a1, a2, b1, b2 = r.rectangle
        assert a1 <= 0.0 <= a2 and b1 <= 0.25 <= b2

    def test_integers_satisfy_inequalities(self):
        d = DriftParams(1.3, 0.3, 0.15)
        r = supercritical_region(d)
        d1, d2, d3, N = r.integers
        a1, a2, b1, b2 = r.rectangle
        assert a1 * N <= d1 < d2 <= a2 * N
        assert b1 * N <= d3 <= b2 * N
        assert len({d1, d2, d3}) == 3
        assert q_value(d, d1 / N, d3 / N) > 1.0
        assert q_value(d, d2 / N, d3 / N) > 1.0


class TestChebyshev:
    def test_worked_example(self):
        assert chebyshev_k(4.0, 1.0, 0.1) == 36

    def test_zero_variance(self):
        assert chebyshev_k(0.0, 2.0, 0.5) == 0

    def test_minimality_random(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            s2 = rng.uniform(0.01, 50)
            D = rng.uniform(1.0, 5.0)
            eps = rng.uniform(0.01, 0.99)
            k = chebyshev_k(s2, D, eps)
            assert s2 / (D * D * k + s2) <= eps + 1e-12
            if k > 0:
                assert s2 / (D * D * (k - 1) + s2) > eps - 1e-12

    def test_halving_eps_roughly_doubles_k(self):
        k1 = chebyshev_k(10.0, 1.0, 0.01)
        k2 = chebyshev_k(10.0, 1.0, 0.005)
        assert k2 >= k1


class TestVarianceBound:
    def test_zero_variance(self):
        assert variance_bound(IntDistribution.from_dict({2: 1.0}), 5) == 0.0

    def test_worked_example(self):
        rho = IntDistribution.from_dict({1: 0.5, 3: 0.5})  # mean 2, var 1
        assert variance_bound(rho, 3) == pytest.approx(4.0)

    def test_front_site_variance_within_expression(self):
        # the expression dominates the empirical per-site variance out at the
        # population front, where counts are small
        from brwlab.core import dominating_law
        from brwlab.simulate import mean_curve
        m = build_zd_translation(radius=10, rho={0: 0.25, 2: 0.75})
        rho = dominating_law(m)
        _, samples = mean_curve(m, {0: 1}, 4, 40_000, seed=3, track=4)
        emp = samples[:, 4].astype(float).var(ddof=1)
        assert emp <= variance_bound(rho, 4)

    def test_expression_is_not_a_uniform_bound(self):
        # negative control: at the origin of a supercritical process the
        # true per-site variance exceeds mean^(n-1)*var from n = 2 on
        # (exact single-site algebra: sigma^2 m^(n-1) (m^n-1)/(m-1));
        # the expression is kept as the documented concentration input only
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        rho = m.laws[0].rho
        mean, var = rho.mean, rho.variance
        exact_var_n2 = var * mean * (mean ** 2 - 1) / (mean - 1)
        assert exact_var_n2 > variance_bound(rho, 2)


class TestPercolation:
    def test_p_one_exact(self):
        r = oriented_percolation(PercolationConfig(p=1.0, horizon=25), 10, seed=0)
        assert r.frequency == 1.0
        assert np.all(r.revisit_counts == 25)

    def test_p_zero_exact(self):
        r = oriented_percolation(PercolationConfig(p=0.0, horizon=25), 10, seed=0)
        assert r.frequency == 0.0
        assert np.all(r.revisit_counts == 0)

    def test_monotone_in_p_common_randomness(self):
        freqs = []
        for p in (0.2, 0.45, 0.7, 0.95):
            r = oriented_percolation(PercolationConfig(p=p, horizon=40), 60, seed=9)
            freqs.append(r.frequency)
        assert freqs == sorted(freqs)

    def test_custom_edges(self):
        edges = ((0, 0), (0, 1), (1, 0), (1, 1))
        cfg = PercolationConfig(p=1.0, horizon=10, edges=edges, origin=0)
        r = oriented_percolation(cfg, 5, seed=3)
        assert r.frequency == 1.0

    @pytest.mark.parametrize("budget", [None, 1000])
    @pytest.mark.parametrize("base", ["z", "n"])
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
    def test_batch_equals_replica_loop(self, p, base, budget, monkeypatch):
        if budget is not None:   # about three replicas per uniform block
            monkeypatch.setattr(approx, "_DRAW_BUDGET", budget)
        cfg = PercolationConfig(p=p, horizon=60, base=base)
        got = oriented_percolation(cfg, 40, seed=5)
        freq, revisits = _percolation_loop(cfg, 40, seed=5)
        assert got.frequency == freq
        assert np.array_equal(got.revisit_counts, revisits)


def _percolation_loop(config, replicas, seed):
    """One replica at a time: per level, uniforms from the replica's own stream."""
    n, src, dst, origin = _perc_structure(config)
    survived = 0
    revisits = np.zeros(replicas, dtype=np.int64)
    for r in range(replicas):
        reach = np.zeros(n, dtype=bool)
        reach[origin] = True
        for level in range(1, config.horizon + 1):
            u = _philox(_PERC_SALT, seed, r, level).random(src.size)
            carry = reach[src] & (u < config.p)
            reach = np.zeros(n, dtype=bool)
            np.logical_or.at(reach, dst[carry], True)
            if not reach.any():
                break
            revisits[r] += bool(reach[origin])
        survived += bool(reach.any())
    return survived / replicas, revisits


class TestSpatialExperiment:
    def test_constant_exhaustion_matches_full(self):
        m = build_zd_translation(radius=5)
        full = [tuple(m.vertices)] * 3
        res = spatial_experiment(m, full, 0)
        for row in res.rows:
            assert row.growth == pytest.approx(res.full_growth, abs=1e-9)
            assert row.verdict == res.full_verdict

    def test_crossing_index_on_line(self):
        m = build_zd_translation(radius=10)
        exhaustion = [range(-r, r + 1) for r in range(1, 11)]
        res = spatial_experiment(m, exhaustion, 0)
        assert res.full_verdict == "survives"
        # oracle: 1.5 cos(pi/(2r+2)) crosses 1 already at radius 1
        assert res.first_surviving_index == 0

    def test_dying_model_has_no_crossing(self):
        m = build_zd_translation(radius=6, rho={0: 0.6, 2: 0.4})
        exhaustion = [range(-r, r + 1) for r in (2, 4, 6)]
        res = spatial_experiment(m, exhaustion, 0)
        assert res.full_verdict == "dies"
        assert res.first_surviving_index is None
        for row in res.rows:
            assert row.verdict == "dies"

    def test_ball_exhaustion_nested(self):
        m = build_zd_translation(radius=6)
        balls = ball_exhaustion(m, 0, (1, 3, 5))
        assert set(balls[0]) < set(balls[1]) < set(balls[2])

    def test_mc_columns(self):
        m = build_zd_translation(radius=5)
        res = spatial_experiment(m, [range(-2, 3), range(-5, 6)], 0,
                                 mc={"horizon": 40, "replicas": 60, "seed": 2,
                                     "hard_cap": 10 ** 4})
        for row in res.rows:
            assert row.mc_frequency is not None
            assert 0.0 <= row.mc_ci[0] <= row.mc_frequency <= row.mc_ci[1] <= 1.0


class TestTruncationSweep:
    def test_monotone_rows_and_baseline(self):
        m = build_zd_translation(radius=8)
        res = truncation_sweep(m, [1, 4], {0: 1}, 60, 150, target=0, seed=21,
                               hard_cap=10 ** 4)
        freqs = [r.alive_frequency for r in res.rows]
        assert freqs == sorted(freqs)
        assert math.isinf(res.rows[-1].cap)

    def test_subcritical_all_zero(self):
        m = build_zd_translation(radius=6, rho={0: 0.7, 2: 0.3})
        res = truncation_sweep(m, [1, 4], {0: 1}, 120, 150, target=0, seed=5)
        for row in res.rows:
            assert row.alive_frequency <= 0.03

    def test_duplicate_caps_rejected(self):
        m = build_zd_translation(radius=3)
        with pytest.raises(ModelError):
            truncation_sweep(m, [2, 2, 4], {0: 1}, 10, 5)
