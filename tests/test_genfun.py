import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab.core import (
    BrwModel,
    ModelError,
    OffspringConfig,
    build_offspring_law,
    continuous_counterpart,
)
from brwlab.genfun import (
    check_mean_condition,
    check_subsolution,
    classify_survival,
    counterpart_model,
    eval_G,
    eval_G_geometric,
    iterate_extinction,
    lambda_sweep,
    strong_local_compare,
)
from brwlab.scenarios import (
    build_line_ex45,
    build_line_noext,
    build_scenario,
    build_zd_translation,
    ex45_p,
    tree_rates,
)
from brwlab.spectral import MomentMatrix, global_growth_rate, moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def gw(rho):
    return build_scenario("gw", {"rho": rho})


def ex45_subsolution(size):
    """z(n) = 1 - prod_{i >= n} p_i with the infinite product taken to float precision."""
    z = np.empty(size)
    for n in range(size):
        logw = 0.0
        i = n
        while True:
            term = math.log(ex45_p(i))
            logw += term
            i += 1
            if term > -1e-18:
                break
        z[n] = 1.0 - math.exp(logw)
    return z


class TestEvalG:
    def test_at_one(self):
        m = build_zd_translation(radius=4)
        out = eval_G(m, np.ones(m.size))
        assert out == pytest.approx(np.ones(m.size), abs=1e-12)

    def test_at_zero_gives_death_probability(self):
        m = gw({0: 0.4, 2: 0.6})
        assert eval_G(m, np.zeros(1))[0] == pytest.approx(0.4)

    def test_product_form_factorizes(self):
        # G(z|x) = F(P z (x)) for product-form laws
        m = build_zd_translation(radius=3, rho={0: 0.4, 2: 0.6})
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, m.size)
        out = eval_G(m, z)
        M = moment_matrix(m)
        for v in m.vertices:
            law = m.laws[v]
            pz = sum(w * z[m.index[t]] for t, w in
                     zip(law.product.targets, law.product.weights))
            expected = float(law.rho.pgf(pz))
            assert out[m.index[v]] == pytest.approx(expected, abs=1e-12)

    def test_atom_law_matches_direct_sum(self):
        m = build_line_noext(4)
        z = np.array([0.3, 0.9, 0.2, 0.7])
        out = eval_G(m, z)
        for i in range(3):
            n = m.params["ns"][i]
            p = 2.0 / n
            assert out[i] == pytest.approx(p * z[i + 1] ** n + 1 - p, abs=1e-12)

    def test_geometric_closed_form_agrees(self):
        rates = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        m = counterpart_model(rates, 1.3)
        z = np.array([0.2, 0.7])
        direct = eval_G(m, z)
        closed = eval_G_geometric(moment_matrix(m), z)
        assert direct == pytest.approx(closed, abs=1e-10)

    def test_geometric_closed_form_fixed_values(self):
        M = MomentMatrix(np.array([[2.0]]), (0,))
        assert eval_G_geometric(M, np.ones(1))[0] == pytest.approx(1.0)
        assert eval_G_geometric(M, np.zeros(1))[0] == pytest.approx(1.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_eval_G_monotone(za, zb):
    m = build_zd_translation(radius=1, rho={0: 0.3, 2: 0.7})
    lo = np.minimum(za, zb)
    hi = np.maximum(za, zb)
    assert np.all(eval_G(m, lo) <= eval_G(m, hi) + 1e-12)


class TestIterateExtinction:
    def test_gw_quadratic_root(self):
        # oracle: smallest root of 0.6 s^2 - s + 0.4
        roots = np.roots([0.6, -1.0, 0.4])
        target = min(roots)
        q, diag = iterate_extinction(gw({0: 0.4, 2: 0.6}), "global", tol=1e-12)
        assert diag.converged
        assert q[0] == pytest.approx(target, abs=1e-9)

    def test_geometric_mean_two(self):
        rates = MomentMatrix(np.array([[1.0]]), (0,))
        m = counterpart_model(rates, 2.0)
        q, _ = iterate_extinction(m, "global", tol=1e-13)
        assert q[0] == pytest.approx(0.5, abs=1e-9)

    def test_subcritical_goes_extinct(self):
        q, _ = iterate_extinction(gw({0: 0.55, 2: 0.45}), "global")
        assert q[0] == pytest.approx(1.0, abs=1e-9)

    def test_max_iter_returns_flag(self):
        q, diag = iterate_extinction(gw({0: 0.4, 2: 0.6}), "global", tol=1e-12, max_iter=3)
        assert not diag.converged

    def test_minimality_under_exact_subsolutions(self):
        # iterates from zero stay below any exact sub-solution; note the
        # minimality claim needs G(z) <= z exactly, not just within the
        # acceptance tolerance (a reflected window's far-edge fixed point is
        # the all-ones vector, approached on a metastable timescale)
        m = gw({0: 0.4, 2: 0.6})
        z = np.full(1, 0.8)
        gz = eval_G(m, z)
        assert np.all(gz <= z)
        q, _ = iterate_extinction(m, "global")
        assert np.all(q <= z + 1e-12)

        laws = {0: law_from([({1: 2}, 0.6), ({}, 0.4)]),
                1: law_from([({0: 2}, 0.6), ({}, 0.4)])}
        m2 = BrwModel((0, 1), laws)
        z2 = np.array([0.7, 0.7])
        assert np.all(eval_G(m2, z2) <= z2)
        q2, _ = iterate_extinction(m2, "global")
        assert np.all(q2 <= z2 + 1e-12)

    def test_set_monotonicity(self):
        m = build_zd_translation(radius=5)
        qa, _ = iterate_extinction(m, {0})
        qb, _ = iterate_extinction(m, {-1, 0, 1})
        assert np.all(qa >= qb - 1e-9)

    def test_target_above_global(self):
        m = build_zd_translation(radius=5)
        qy, _ = iterate_extinction(m, {2})
        qbar, _ = iterate_extinction(m, "global")
        assert np.all(qy >= qbar - 1e-9)

    def test_unknown_target_vertex(self):
        with pytest.raises(ModelError):
            iterate_extinction(build_zd_translation(radius=2), {99})

    def test_period_three_cycle_target(self):
        # directed 3-cycle of bursts: avoidance of one site still converges
        # (phase-aware assembly) and agrees with the transitive picture
        laws = {v: law_from([({(v + 1) % 3: 2}, 0.6), ({}, 0.4)]) for v in range(3)}
        m = BrwModel((0, 1, 2), laws)
        qbar, _ = iterate_extinction(m, "global")
        qy, diag = iterate_extinction(m, {0})
        assert diag.converged
        assert diag.period_used == 3
        assert np.all(qy >= qbar - 1e-9)
        # irreducible + transitive, so avoidance of any site matches global
        assert qy == pytest.approx(qbar, abs=1e-8)


class TestSubsolution:
    def test_all_ones_rejected(self):
        m = gw({0: 0.4, 2: 0.6})
        rep = check_subsolution(m, np.ones(1), 0)
        assert not rep.accepted
        assert not rep.strict_at_x0

    def test_gw_fixed_point_accepted_with_equality(self):
        m = gw({0: 0.4, 2: 0.6})
        rep = check_subsolution(m, np.full(1, 2.0 / 3.0), 0)
        assert rep.accepted
        assert rep.max_violation <= 1e-12

    def test_ex45_product_vector(self):
        m = build_line_ex45(64)
        z = ex45_subsolution(64)
        rep = check_subsolution(m, z, 0)
        assert rep.accepted
        assert rep.max_violation <= 1e-10
        assert rep.x0_value < 1.0


class TestMeanCondition:
    def test_zero_vector_fails(self):
        m = gw({0: 0.4, 2: 0.6})
        rep = check_mean_condition(m, np.zeros(1), 0)
        assert not rep.holds
        assert not rep.x0_positive

    def test_gw_mean_two(self):
        m = gw({2: 1.0})
        rep = check_mean_condition(m, np.full(1, 0.5), 0)
        assert rep.holds
        assert rep.min_slack == pytest.approx(0.5)

    def test_line_noext_grid_search_finds_no_witness(self):
        # necessary-condition direction only: scan a coarse grid of constant
        # and geometric profiles; none should satisfy Mv >= v with v(0) > 0,
        # because mass escapes through the window edge
        m = build_line_noext(8)
        found = None
        for c in np.linspace(0.05, 1.0, 20):
            for decay in (1.0, 0.5, 0.25):
                v = c * decay ** np.arange(8)
                rep = check_mean_condition(m, np.clip(v, 0, 1), 0)
                if rep.holds:
                    found = (c, decay)
        assert found is None


class TestClassify:
    def test_gw_supercritical(self):
        rep = classify_survival(gw({2: 1.0}), 0)
        assert rep.local == "survives"
        assert rep.global_ == "survives"
        assert rep.coherent()

    def test_gw_subcritical(self):
        rep = classify_survival(gw({0: 0.8, 2: 0.2}), 0)
        assert rep.local == "dies"
        assert rep.global_ == "dies"

    def test_tree_counterpart_global_without_local(self):
        # mean 1.1 with uniform dispersal on the degree-4 tree: the window's
        # return rate tops out near 1.1 * 2*sqrt(3)/4 < 1, yet the projected
        # single-site model has mean 1.1 > 1
        m = build_scenario("tree_counterpart", {"degree": 4, "depth": 8, "lam": 0.275})
        rep = classify_survival(m, 0)
        assert rep.local == "dies"
        assert rep.global_ == "survives"
        assert rep.global_method == "projection"
        oracle = 1.1 * 2 * math.sqrt(3) / 4
        assert rep.local_growth.value < oracle + 0.01

    def test_line_noext_ladder_flag(self):
        rep = classify_survival(build_line_noext(12), 0)
        assert rep.global_ == "dies"
        assert rep.global_method == "fixed-point"
        assert any("truncation" in n for n in rep.notes)

    def test_evidence_rows_present(self):
        rep = classify_survival(gw({2: 1.0}), 0)
        assert rep.evidence_csv_rows()
        assert "survives" in rep.to_text()


class TestStrongLocal:
    def test_gw_point(self):
        rep = strong_local_compare(gw({0: 0.4, 2: 0.6}), 0, 0, tol=1e-6)
        assert rep.verdict == "yes"
        assert rep.gap <= 1e-9

    def test_transitive_window_interior(self):
        rep = strong_local_compare(build_zd_translation(radius=10), 0, 0, tol=1e-6)
        assert rep.verdict == "yes"

    def test_no_local_survival(self):
        rep = strong_local_compare(gw({0: 0.8, 2: 0.2}), 0, 0, tol=1e-6)
        assert rep.verdict == "no"
        assert rep.q_target_x0 == pytest.approx(1.0, abs=1e-9)


class TestLambdaSweep:
    def test_gw_self_rate(self):
        K = MomentMatrix(np.array([[1.0]]), (0,))
        res = lambda_sweep(K, 0, 0.5, 2.0, width=1e-3, projected_row_sum=1.0)
        assert res.lambda_s == pytest.approx(1.0, abs=5e-3)
        assert res.lambda_w == pytest.approx(1.0, abs=5e-3)

    def test_small_tree(self):
        verts, K = tree_rates(4, 5)
        res = lambda_sweep(K, 0, 0.2, 0.45, vertices=verts, width=2e-3,
                           projected_row_sum=4.0, stop_tol=1e-10)
        assert res.lambda_w == pytest.approx(0.25, abs=5e-3)
        # window threshold sits above the untruncated value and shrinks with depth
        assert res.lambda_s > 1.0 / (2.0 * math.sqrt(3))
        assert res.monotone

    def test_subcritical_lambda_has_full_extinction(self):
        verts, K = tree_rates(4, 4)
        res = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=5e-3,
                           projected_row_sum=4.0, grid=(0.2, 0.24, 0.3, 0.4))
        table = dict(res.qbar_table)
        assert table[0.2] == pytest.approx(1.0, abs=1e-8)
        assert table[0.24] == pytest.approx(1.0, abs=1e-8)
        assert table[0.4] < 0.99

    def test_bad_bracket_rejected(self):
        K = MomentMatrix(np.array([[1.0]]), (0,))
        with pytest.raises(ModelError):
            lambda_sweep(K, 0, 2.0, 3.0, projected_row_sum=1.0)

    def test_lambda_s_is_reciprocal_perron_root(self):
        verts, K = tree_rates(4, 3)
        res = lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0)
        root = max(abs(np.linalg.eigvals(K.toarray())))
        assert res.lambda_s == pytest.approx(1.0 / root, abs=1e-8)
        lo, hi = res.lambda_s_bracket
        assert lo <= res.lambda_s <= hi
        assert res.lambda_w_bracket == (0.25, 0.25)

    def test_projection_table_is_counterpart_fixed_point(self):
        kbar = 4.0
        grid = (0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 1.0)
        verts, K = tree_rates(4, 3)
        res = lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=kbar, grid=grid)
        for lam, q in res.qbar_table:
            if lam * kbar <= 1.0:
                assert q == 1.0
            else:
                gw_model = BrwModel((0,), {0: continuous_counterpart(lam, {0: kbar})})
                fixed, diag = iterate_extinction(gw_model, "global")
                assert diag.converged
                assert q == pytest.approx(float(fixed[0]), abs=1e-8)

    def test_projection_solves_no_fixed_point(self, monkeypatch):
        import brwlab.genfun as gf

        calls = {"local": 0, "global": 0, "extinction": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gf, "local_growth_rate", counted("local", gf.local_growth_rate))
        monkeypatch.setattr(gf, "global_growth_rate", counted("global", gf.global_growth_rate))
        monkeypatch.setattr(gf, "iterate_extinction", counted("extinction", gf.iterate_extinction))
        verts, K = tree_rates(4, 3)
        lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0)
        assert calls == {"local": 1, "global": 0, "extinction": 0}

    def test_without_projection_uses_row_sum_growth(self):
        K = MomentMatrix(np.array([[0.5, 1.0], [0.8, 0.3]]), (0, 1))
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 0.6, 0.8, 1.0, 1.5))
        assert res.lambda_w == pytest.approx(1.0 / global_growth_rate(K, 0).value, rel=1e-12)
        assert res.lambda_w == pytest.approx(1.0 / 1.3, abs=1e-10)
        lo, hi = res.lambda_w_bracket
        assert lo <= res.lambda_w <= hi
        qvals = [q for _, q in res.qbar_table]
        assert all(b <= a for a, b in zip(qvals, qvals[1:]))
        assert qvals[0] == pytest.approx(1.0, abs=1e-9)
        assert qvals[-1] < 0.6

    def test_bracket_wider_than_width_rejected(self):
        verts, K = tree_rates(4, 4)
        res = lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0,
                           n_max=12, width=1.0)
        lo, hi = res.lambda_s_bracket
        assert hi - lo > 1e-3
        with pytest.raises(ModelError, match="wider"):
            lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0,
                         n_max=12, width=1e-3)


class TestReportCoherence:
    def test_local_implies_global(self):
        # a reducible window where the fixed point is certain extinction but a
        # self-loop keeps local survival: coherence forces global = survives
        laws = {
            0: law_from([({0: 2}, 0.9), ({}, 0.1)]),
            1: law_from([({}, 1.0)]),
        }
        m = BrwModel((0, 1), laws)
        rep = classify_survival(m, 0)
        assert rep.local == "survives"
        assert rep.global_ == "survives"
        assert rep.coherent()
