import math

import numpy as np
import pytest
from scipy.special import xlogy

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
from brwlab.scenarios import build_scenario
from brwlab.simulate import _philox
from brwlab.spectral import moment_matrix


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
        for alpha, beta in ((math.nan, 0.3), (0.0, math.nan), (math.inf, 0.3), (0.0, -math.inf),
                            (True, 1.0), (1.0, True)):
            with pytest.raises(ModelError):
                q_value(d, alpha, beta)


class TestDriftParams:
    @pytest.mark.parametrize("args", [(math.nan, 0.3, 0.2), (True, 0.3, 0.2),
                                      (1.5, math.nan, 0.2), (1.5, True, 0.2),
                                      (1.5, 0.3, math.nan), (1.5, 0.3, False),
                                      (0.0, 0.3, 0.2), (1.5, -0.1, 0.2), (1.5, 0.6, 0.5),
                                      (1.5, 0.6, 0.4 + 1e-13)],
                             ids=["rho-nan", "rho-bool", "p-nan", "p-bool", "q-nan", "q-bool",
                                  "rho-zero", "p-negative", "p-plus-q", "p-plus-q-just-above"])
    def test_refused(self, args):
        with pytest.raises(ModelError):
            DriftParams(*args)


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

    @pytest.mark.parametrize("d", [(1.00001, 0.3, 0.2), (1.5, 0.4, 0.0), (2.0, 0.6, 0.4),
                                   (1.1, 1.0, 0.0)])
    def test_supercritical_anchor_is_not_empty(self, d):
        # Q(p - q, p) = rho_bar > 1, even where no box fits around the anchor
        d = DriftParams(*d)
        assert q_value(d, d.p - d.q, d.p) > 1.0
        assert not supercritical_region(d).empty

    @pytest.mark.parametrize("d", [(1.5, 0.0, 0.4), (1.2, 0.0, 0.0)])
    def test_p_zero_is_empty(self, d):
        # Q = 0 at every admissible exponent when p = 0, whatever rho_bar
        r = supercritical_region(DriftParams(*d))
        assert r.empty and r.rectangle is None and r.integers is None

    @pytest.mark.parametrize("d, segment", [((1.5, 0.4, 0.0), "beta = alpha"),
                                            ((2.0, 0.6, 0.4), "beta = (1 + alpha) / 2")])
    def test_boundary_segment_has_no_box(self, d, segment):
        r = supercritical_region(DriftParams(*d))
        assert r.rectangle is None and r.integers is None
        assert "boundary segment" in r.note and segment in r.note

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


def _scalar_q(d, alpha, beta):
    """The scalar rate formula the array evaluation replaced, kept as the reference."""
    a, b = float(alpha), float(beta)
    e1, e2, e3 = b, b - a, 1.0 - 2.0 * b + a
    if b <= 0 or e2 < -1e-15 or e3 < -1e-15 or b >= (1.0 + a) / 2.0 + 1e-15:
        raise ModelError("outside the admissible exponent range")
    e2, e3 = max(e2, 0.0), max(e3, 0.0)
    log_num = xlogy(e1, d.p) + xlogy(e2, d.q) + xlogy(e3, d.stay)
    log_den = xlogy(e1, e1) + xlogy(e2, e2) + xlogy(e3, e3)
    val = math.log(d.rho_bar) + float(log_num) - float(log_den)
    return math.exp(val) if math.isfinite(val) else 0.0


def _scalar_region(d, resolution=60):
    """(rectangle, integers) from the cell-by-cell loop, kept as the reference."""
    def above_one(a, b):
        try:
            return _scalar_q(d, a, b) > 1.0
        except ModelError:
            return False

    a_star, b_star = d.p - d.q, d.p
    if d.rho_bar <= 1.0:
        return None, None

    def rect_ok(a1, a2, b1, b2, samples=9):
        return all(above_one(a, b) for a in np.linspace(a1, a2, samples)
                   for b in np.linspace(b1, b2, samples))

    da = db = 0.0
    step = 1.0 / (4.0 * resolution)
    while rect_ok(a_star - da - step, a_star + da + step, b_star - db - step, b_star + db + step):
        da += step
        db += step
        if da > 0.4:
            break
    if da == 0.0:
        return None, None
    a1, a2, b1, b2 = a_star - da, a_star + da, b_star - db, b_star + db
    for N in range(max(2, math.ceil(2.0 / (a2 - a1))), 10_000):
        d1 = math.ceil(a1 * N)
        d2 = d1 + 1
        d3 = int(round(b_star * N))
        if d2 > a2 * N or d3 < b1 * N or d3 > b2 * N or d3 in (d1, d2):
            continue
        if above_one(d1 / N, d3 / N) and above_one(d2 / N, d3 / N):
            return (a1, a2, b1, b2), (d1, d2, d3, N)
    return (a1, a2, b1, b2), None


def _region_params():
    """300 random DriftParams with edge cases, then the acceptance-10 and bench draws."""
    rng = np.random.default_rng(2024)
    out = [DriftParams(1.0, 0.3, 0.2), DriftParams(1.5, 0.0, 0.4), DriftParams(1.5, 0.4, 0.0),
           DriftParams(2.0, 0.6, 0.4), DriftParams(1.2, 0.0, 0.0), DriftParams(1.1, 1.0, 0.0)]
    while len(out) < 300:
        p = rng.uniform(0.0, 1.0)
        out.append(DriftParams(rng.uniform(0.3, 3.0), p, rng.uniform(0.0, 1.0 - p)))
    for seed in range(11):     # acceptance 10 is seed 0 of bench/workloads.py's draw
        rng = np.random.default_rng(7 + seed)
        for _ in range(100):
            p = rng.uniform(0.05, 0.7)
            rng.uniform(0.05, min(0.7, 0.95 - p)), rng.uniform(0.2, 3.0)
        for _ in range(10):
            p = rng.uniform(0.1, 0.8)
            q = rng.uniform(0.1, min(0.8, 0.9 - p))
            out.append(DriftParams(rng.uniform(1.05, 2.5), p, q))
    return out


class TestArrayRegion:
    """The array evaluation equals the scalar loop it replaced."""

    def test_region_matches_scalar_loop(self, monkeypatch):
        for k, d in enumerate(_region_params()):
            resolution = (60, 60, 23, 2)[k % 4]
            monkeypatch.setattr(approx, "_RESOLUTION", resolution)
            r = supercritical_region(d)
            rectangle, integers = _scalar_region(d, resolution)
            assert r.rectangle == rectangle, d
            assert r.integers == integers, d

    def test_q_value_bit_equal_to_scalar_formula(self):
        grid = np.linspace(-1.0, 1.0, 41)
        for d in (DriftParams(1.4, 0.35, 0.15), DriftParams(0.7, 0.0, 0.5),
                  DriftParams(2.2, 0.5, 0.5), DriftParams(1.0, 0.2, 0.0)):
            for alpha in list(grid) + [d.p - d.q]:
                for beta in list(grid[grid > -0.1]) + [alpha, (1.0 + alpha) / 2.0, d.p]:
                    try:
                        want = _scalar_q(d, alpha, beta)
                    except ModelError:
                        with pytest.raises(ModelError):
                            q_value(d, alpha, beta)
                        continue
                    assert q_value(d, alpha, beta) == want

    def test_empty_agrees_with_a_fine_grid_and_the_anchor(self):
        # Gibbs' inequality puts the maximum of Q at the anchor, so an empty
        # region has no grid point with Q > 1 and a nonempty one has Q > 1
        # at the anchor
        a, b = np.linspace(-1.0, 1.0, 201)[:, None], np.linspace(0.0, 1.0, 101)[None, :]
        for d in _region_params():
            if supercritical_region(d).empty:
                log_q, admissible = approx._log_q(d, a, b)
                assert not (admissible & (log_q > 0.0)).any(), d
            else:
                assert q_value(d, d.p - d.q, d.p) > 1.0, d

    def test_rectangle_interior_is_supercritical(self):
        # log Q is concave, so Q > 1 at the four corners holds inside the box
        for d in _region_params():
            rect = supercritical_region(d).rectangle
            if rect is None:
                continue
            a1, a2, b1, b2 = rect
            log_q, admissible = approx._log_q(d, np.linspace(a1, a2, 41)[:, None],
                                              np.linspace(b1, b2, 41)[None, :])
            assert (admissible & (log_q > 0.0)).all(), d

    def test_boxes_are_probed_at_their_corners(self, monkeypatch):
        points, real = [], approx._log_q
        monkeypatch.setattr(approx, "_log_q",
                            lambda d, a, b: points.append(np.broadcast(a, b).size) or real(d, a, b))
        monkeypatch.setattr(approx, "q_value", lambda *a: pytest.fail("q_value called"))
        for d in _region_params():
            points.clear()
            supercritical_region(d)
            assert all(n <= 4 for n in points), d


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

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 0.1), (1.0, math.nan, 0.1),
                                      (1.0, 1.0, math.nan), (math.inf, 1.0, 0.1),
                                      (True, 1.0, 0.1), (-1.0, 1.0, 0.1), (1.0, 0.5, 0.1),
                                      (1.0, 1.0, 1.0)],
                             ids=["sigma2-nan", "D-nan", "eps-nan", "sigma2-inf", "sigma2-bool",
                                  "sigma2-negative", "D-below-1", "eps-1"])
    def test_refuses_bad_input(self, args):
        # NaN once reached math.ceil and ended in a bare ValueError
        with pytest.raises(ModelError):
            chebyshev_k(*args)

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
        m = build_scenario("zd_translation", {"radius": 10, "rho": {0: 0.25, 2: 0.75}})
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

    @pytest.mark.parametrize("kwargs, what", [
        ({"horizon": 2.5}, "horizon"),
        ({"width": -3}, "width"),
        ({"width": 2.5}, "width"),
        ({"base": "q"}, "base"),
        ({"p": True}, "open probability"),
        ({"p": math.nan}, "open probability"),
        ({"p": 1.5}, "open probability"),
        ({"p": -0.1}, "open probability"),
    ], ids=["horizon-2.5", "width-neg", "width-2.5", "unknown-base", "p-bool", "p-nan",
            "p-above-1", "p-negative"])
    def test_config_rejects_what_it_cannot_run(self, kwargs, what):
        with pytest.raises(ModelError, match=what):
            PercolationConfig(**{"p": 0.5, "horizon": 5, **kwargs})

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

    @pytest.mark.parametrize("budget", [None, 1000])
    @pytest.mark.parametrize("cfg", [
        # clusters that reach the window edge
        PercolationConfig(p=0.7, horizon=60, width=6),
        PercolationConfig(p=0.7, horizon=60, base="n", width=9),
        PercolationConfig(p=1.0, horizon=30),
        PercolationConfig(p=1.0, horizon=30, base="n", width=12),
    ], ids=["z-narrow", "n-narrow", "z-p1", "n-p1-narrow"])
    def test_span_draws_equal_replica_loop(self, cfg, budget, monkeypatch):
        # the batch draws only each replica's span of reachable edges; the
        # loop draws every edge from a fresh stream
        if budget is not None:
            monkeypatch.setattr(approx, "_DRAW_BUDGET", budget)
        got = oriented_percolation(cfg, 40, seed=11)
        freq, revisits = _percolation_loop(cfg, 40, seed=11)
        assert got.frequency == freq
        assert np.array_equal(got.revisit_counts, revisits)
        assert revisits.any()


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
        m = build_scenario("zd_translation", {"radius": 5})
        full = [tuple(m.vertices)] * 3
        res = spatial_experiment(m, full, 0)
        for row in res.rows:
            assert row.growth == pytest.approx(res.full_growth, abs=1e-9)
            assert row.verdict == res.full_verdict

    def test_crossing_index_on_line(self):
        m = build_scenario("zd_translation", {"radius": 10})
        exhaustion = [range(-r, r + 1) for r in range(1, 11)]
        res = spatial_experiment(m, exhaustion, 0)
        assert res.full_verdict == "survives"
        # oracle: 1.5 cos(pi/(2r+2)) crosses 1 already at radius 1
        assert res.first_surviving_index == 0

    def test_dying_model_has_no_crossing(self):
        m = build_scenario("zd_translation", {"radius": 6, "rho": {0: 0.6, 2: 0.4}})
        exhaustion = [range(-r, r + 1) for r in (2, 4, 6)]
        res = spatial_experiment(m, exhaustion, 0)
        assert res.full_verdict == "dies"
        assert res.first_surviving_index is None
        for row in res.rows:
            assert row.verdict == "dies"

    def test_bracket_columns(self):
        r = 201     # window r has 403 vertices, above the dense cutoff
        m = build_scenario("zd_translation", {"radius": r})
        header, rows = spatial_experiment(m, [range(-3, 4), range(-r, r + 1)], 0).csv_rows()
        growth, low, high = (header.index(c) for c in ("growth", "growth_low", "growth_high"))
        assert rows[0][low] <= rows[0][growth] <= rows[0][high]
        assert rows[0][low] <= 1.5 * math.cos(math.pi / 8) <= rows[0][high]
        assert rows[1][low] == rows[1][high] == ""

    def test_ball_exhaustion_nested(self):
        m = build_scenario("zd_translation", {"radius": 6})
        balls = ball_exhaustion(m, 0, (1, 3, 5))
        assert set(balls[0]) < set(balls[1]) < set(balls[2])

    @pytest.mark.parametrize("model", [build_scenario("zd_translation", {"radius": 6}),
                                       build_scenario("tree_counterpart", {"depth": 3})],
                             ids=["line", "tree"])
    def test_ball_exhaustion_equals_vertex_scan(self, model):
        from scipy.sparse import csgraph

        M = moment_matrix(model)
        dist = csgraph.shortest_path(M.csr + M.csr.T, method="D", unweighted=True,
                                     indices=M.index[0])
        radii = (0, 1, 2, 3, 5, 50)
        scan = [tuple(v for v in model.vertices if dist[M.index[v]] <= r) for r in radii]
        assert ball_exhaustion(model, 0, radii) == scan

    def test_full_growth_in_the_whole_window_bracket(self, monkeypatch):
        # the full model's growth comes from the rows' certified estimator, so
        # it lies in the bracket of the window that is the whole model
        import brwlab.spectral as sp
        calls = []
        real = sp.local_growth_rate
        monkeypatch.setattr(sp, "local_growth_rate",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        m = build_scenario("zd_translation", {"radius": 10})
        res = spatial_experiment(m, ball_exhaustion(m, 0, (1, 2, 5, 10)), 0)
        last = res.rows[-1]
        assert last.window_size == m.size
        assert res.full_growth == last.growth
        assert last.bracket[0] <= res.full_growth <= last.bracket[1]
        assert calls == []


class TestTruncationSweep:
    def test_monotone_rows_and_baseline(self):
        m = build_scenario("zd_translation", {"radius": 8})
        res = truncation_sweep(m, [1, 4], {0: 1}, 60, 150, target=0, seed=21,
                               hard_cap=10 ** 4)
        freqs = [r.alive_frequency for r in res.rows]
        assert freqs == sorted(freqs)
        assert math.isinf(res.rows[-1].cap)

    def test_subcritical_all_zero(self):
        m = build_scenario("zd_translation", {"radius": 6, "rho": {0: 0.7, 2: 0.3}})
        res = truncation_sweep(m, [1, 4], {0: 1}, 120, 150, target=0, seed=5)
        for row in res.rows:
            assert row.alive_frequency <= 0.03

    def test_duplicate_caps_rejected(self):
        m = build_scenario("zd_translation", {"radius": 3})
        with pytest.raises(ModelError):
            truncation_sweep(m, [2, 2, 4], {0: 1}, 10, 5)
