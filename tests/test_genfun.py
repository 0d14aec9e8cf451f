import collections
import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab.core import (
    BrwModel,
    ModelError,
    OffspringConfig,
    build_offspring_law,
    continuous_counterpart,
    product_form_law,
    restrict_model,
)
from brwlab.genfun import (
    IterationDiagnostics,
    _verdict,
    check_subsolution,
    classify_survival,
    counterpart_model,
    eval_G,
    iterate_extinction,
    lambda_sweep,
    strong_local_compare,
    survival_probability,
)
from brwlab.scenarios import build_scenario, ex45_p, tree_rates
from brwlab.spectral import _DENSE_CUTOFF, MomentMatrix, global_growth_rate, moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def gw(rho):
    return build_scenario("gw", {"rho": rho})


def atoms(law):
    """(vertex, count) pairs with their probability, one per atom of an atom
    law, and one per placement of n labelled children of a product law."""
    if law.product is None:
        return [(cfg.entries, p) for cfg, p in law.atoms]
    pf = law.product
    return [(collections.Counter(pf.targets[i] for i in place).items(),
             pn * math.prod(pf.weights[i] for i in place))
            for n, pn in zip(pf.rho.values.tolist(), pf.rho.probs.tolist())
            for place in itertools.product(range(len(pf.targets)), repeat=n)]


def poly_G(model, z):
    """G(z) summed atom by atom in plain floats, valid for any real z."""
    out = np.zeros(model.size)
    for v in model.vertices:
        for entries, p in atoms(model.laws[v]):
            out[model.index[v]] += p * math.prod(z[model.index[u]] ** c for u, c in entries)
    return out


def _unconverged(model, *args, **kwargs):
    """An iterate_extinction stand-in whose solve hit max_iter."""
    return np.full(model.size, 0.5), IterationDiagnostics(7, math.inf, False)


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
        m = build_scenario("zd_translation", {"radius": 4})
        out = eval_G(m, np.ones(m.size))
        assert out == pytest.approx(np.ones(m.size), abs=1e-12)

    def test_at_zero_gives_death_probability(self):
        m = gw({0: 0.4, 2: 0.6})
        assert eval_G(m, np.zeros(1))[0] == pytest.approx(0.4)

    def test_product_form_factorizes(self):
        # G(z|x) = F(P z (x)) for product-form laws
        m = build_scenario("zd_translation", {"radius": 3, "rho": {0: 0.4, 2: 0.6}})
        rng = np.random.default_rng(0)
        z = rng.uniform(0, 1, m.size)
        out = eval_G(m, z)
        M = moment_matrix(m)
        for v in m.vertices:
            law = m.laws[v]
            pz = sum(w * z[m.index[t]] for t, w in
                     zip(law.product.targets, law.product.weights))
            expected = sum(p * pz ** n for n, p in zip(law.rho.values.tolist(),
                                                        law.rho.probs.tolist()))
            assert out[m.index[v]] == pytest.approx(expected, abs=1e-12)

    def test_atom_law_matches_direct_sum(self):
        m = build_scenario("line_noext", {"size": 4})
        z = np.array([0.3, 0.9, 0.2, 0.7])
        out = eval_G(m, z)
        for i in range(3):
            n = m.params["ns"][i]
            p = 2.0 / n
            assert out[i] == pytest.approx(p * z[i + 1] ** n + 1 - p, abs=1e-12)

    def test_geometric_closed_form_agrees(self):
        # geometric totals: G(z) = 1 / (1 + M(1 - z))
        rates = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        m = counterpart_model(rates, 1.3)
        z = np.array([0.2, 0.7])
        closed = 1.0 / (1.0 + moment_matrix(m).csr.dot(1.0 - z))
        assert eval_G(m, z) == pytest.approx(closed, abs=1e-10)

    def test_geometric_closed_form_fixed_values(self):
        m = counterpart_model(MomentMatrix(np.array([[2.0]]), (0,)), 1.0)
        assert eval_G(m, np.ones(1))[0] == pytest.approx(1.0)
        assert eval_G(m, np.zeros(1))[0] == pytest.approx(1.0 / 3.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3),
       st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
def test_eval_G_monotone(za, zb):
    m = build_scenario("zd_translation", {"radius": 1, "rho": {0: 0.3, 2: 0.7}})
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

    def test_critical_gw_converges_with_newton(self):
        # plain iteration stalls sublinearly here; float64 resolves
        # G(z) - z = (1 - z)^2 / 2 only down to 1 - z ~ 1e-8
        q, diag = iterate_extinction(gw({0: 0.5, 2: 0.5}), "global")
        assert diag.converged
        assert 1.0 - q[0] <= 1e-7
        assert diag.iterations <= 1_100
        assert diag.newton_steps > 0

    def test_near_critical_matches_quadratic_root(self):
        # G'(qbar) = 1.02 * 0.49/0.51 = 0.98, so 1,000 plain steps fall short
        m = gw({0: 0.49, 2: 0.51})
        q, diag = iterate_extinction(m, "global")
        assert diag.converged
        assert diag.newton_steps > 0
        assert q[0] == pytest.approx(0.49 / 0.51, abs=1e-9)
        z = np.full(1, 0.9608)
        assert np.all(eval_G(m, z) <= z)
        assert np.all(q <= z)

    def test_max_iter_caps_both_phases(self):
        q, diag = iterate_extinction(gw({0: 0.5, 2: 0.5}), "global", max_iter=1_005)
        assert not diag.converged
        assert diag.iterations == 1_005
        assert diag.newton_steps == 5

    @pytest.mark.parametrize("setting", [{"max_iter": 2.5}, {"max_iter": True}, {"max_iter": 0},
                                         {"tol": math.nan}, {"tol": -1.0}, {"tol": 0.0}])
    @pytest.mark.parametrize("target", ["global", {0}])
    def test_bad_tol_or_max_iter(self, setting, target):
        # max_iter=2.5 ended in a TypeError and True was reported as the
        # iteration count; a NaN or negative tol ran all 200,000 iterations
        with pytest.raises(ModelError, match=next(iter(setting))):
            iterate_extinction(gw({0: 0.4, 2: 0.6}), target, **setting)

    def test_newton_above_the_dense_cutoff(self):
        # 401 sites, each critical and feeding only itself: the Newton phase
        # cuts the sparse Jacobian block, and every site solves as one site does
        n = 401
        assert n > _DENSE_CUTOFF
        laws = {v: product_form_law({0: 0.5, 2: 0.5}, {v: 1.0}) for v in range(n)}
        q, diag = iterate_extinction(BrwModel(tuple(range(n)), laws), "global")
        one = BrwModel((0,), {0: product_form_law({0: 0.5, 2: 0.5}, {0: 1.0})})
        q1, diag1 = iterate_extinction(one, "global")
        assert diag == diag1 and diag.converged and diag.newton_steps > 0
        assert q1[0] == 0.9999999901942507
        assert np.array_equal(q, np.full(n, q1[0]))

    def test_converged_solves_report_no_newton_steps(self):
        _, diag = iterate_extinction(gw({0: 0.4, 2: 0.6}), "global")
        assert diag.newton_steps == 0

    def test_zero_fixed_point_vertex_gives_no_singular_solve(self, monkeypatch):
        # vertex 0 keeps exactly one child at itself (qbar = 0, G'_00 = 1);
        # vertex 1 is supercritical, vertex 2 critical (forces the Newton
        # phase), vertex 3 feeds on all three
        import brwlab.genfun as gf
        solved = []

        def recording(A, b):
            x = spsolve_orig(A, b)
            solved.append(bool(np.all(np.isfinite(x))))
            return x

        spsolve_orig = gf._solve_i_minus
        monkeypatch.setattr(gf, "_solve_i_minus", recording)
        laws = {0: law_from([({0: 1}, 1.0)]),
                1: law_from([({1: 2}, 0.6), ({}, 0.4)]),
                2: law_from([({2: 2}, 0.5), ({}, 0.5)]),
                3: law_from([({0: 1, 1: 1}, 0.5), ({2: 1}, 0.25), ({}, 0.25)])}
        m = BrwModel((0, 1, 2, 3), laws)
        q, diag = iterate_extinction(m, "global")
        assert diag.converged and diag.newton_steps > 0
        assert solved and all(solved)
        assert q[0] == 0.0
        assert q[1] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert 1.0 - q[2] <= 1e-7
        assert q[3] == pytest.approx(0.25 + 0.25 * q[2], abs=1e-12)

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
        m = build_scenario("zd_translation", {"radius": 5})
        qa, _ = iterate_extinction(m, {0})
        qb, _ = iterate_extinction(m, {-1, 0, 1})
        assert np.all(qa >= qb - 1e-9)

    def test_target_above_global(self):
        m = build_scenario("zd_translation", {"radius": 5})
        qy, _ = iterate_extinction(m, {2})
        qbar, _ = iterate_extinction(m, "global")
        assert np.all(qy >= qbar - 1e-9)

    def test_unknown_target_vertex(self):
        with pytest.raises(ModelError):
            iterate_extinction(build_scenario("zd_translation", {"radius": 2}), {99})

    def test_period_three_cycle_target(self):
        # directed 3-cycle of bursts: avoidance of one site still converges
        # (phase-aware assembly) and agrees with the transitive picture
        laws = {v: law_from([({(v + 1) % 3: 2}, 0.6), ({}, 0.4)]) for v in range(3)}
        m = BrwModel((0, 1, 2), laws)
        qbar, _ = iterate_extinction(m, "global")
        qy, diag = iterate_extinction(m, {0})
        assert diag.converged
        assert np.all(qy >= qbar - 1e-9)
        # irreducible + transitive, so avoidance of any site matches global
        assert qy == pytest.approx(qbar, abs=1e-8)

    def test_period_seven_cycle_target(self):
        # period 7: the target solve must not depend on the period of a class
        laws = {v: law_from([({(v + 1) % 7: 2}, 0.6), ({}, 0.4)]) for v in range(7)}
        m = BrwModel(tuple(range(7)), laws)
        start = time.perf_counter()
        q, diag = iterate_extinction(m, {0})
        assert time.perf_counter() - start < 1.0
        assert diag.converged
        assert np.all(np.abs(q - 2.0 / 3.0) <= 1e-9)
        assert strong_local_compare(m, 3, 0).verdict == "yes"

    def test_critical_gw_target_converges_with_newton(self):
        m = gw({0: 0.5, 2: 0.5})
        start = time.perf_counter()
        q, diag = iterate_extinction(m, {0})
        assert time.perf_counter() - start < 1.0
        assert diag.converged and diag.newton_steps > 0
        assert 1.0 - q[0] <= 1e-7
        assert strong_local_compare(m, 0, 0).verdict == "no"

    def test_single_child_walk_visits_target_forever(self):
        # one child per generation on a lazy 3-cycle: the walk returns to 0
        # infinitely often, so q(., {0}) = qbar = 0 though P(no particle at 0
        # at generation n) tends to 2/3
        laws = {v: law_from([({(v + 1) % 3: 1}, 1 / 3), ({(v - 1) % 3: 1}, 1 / 3),
                             ({v: 1}, 1 / 3)]) for v in range(3)}
        m = BrwModel((0, 1, 2), laws)
        q, diag = iterate_extinction(m, {0})
        assert diag.converged
        assert np.all(q == 0.0)
        rep = strong_local_compare(m, 0, 0)
        assert rep.q_target_x0 == 0.0
        assert rep.verdict == "yes"

    def test_irreducible_target_is_global_solve(self):
        m = build_scenario("zd_translation", {"radius": 10})
        qbar, _ = iterate_extinction(m, "global")
        qy, _ = iterate_extinction(m, {0})
        assert qy.tobytes() == qbar.tobytes()

    def test_target_solve_on_ancestors(self):
        # 2 cannot reach A = {0}.  Anc(A) = {0, 1} carries a walk of one
        # particle that never dies there and so visits 0 infinitely often,
        # though at a given generation it sits at 1 with probability 5/9;
        # 1 also sends children to 2, which the restriction drops
        laws = {0: law_from([({0: 1}, 0.5), ({1: 1}, 0.5)]),
                1: law_from([({0: 1}, 0.4), ({1: 1}, 0.4), ({1: 1, 2: 1}, 0.2)]),
                2: law_from([({2: 2}, 0.6), ({}, 0.4)])}
        m = BrwModel((0, 1, 2), laws)
        qbar, _ = iterate_extinction(m, "global")
        q, diag = iterate_extinction(m, {0})
        assert diag.converged
        assert q[2] == 1.0 and qbar[2] < 1.0
        q_sub, _ = iterate_extinction(restrict_model(m, (0, 1)), "global")
        assert np.array_equal(q[:2], q_sub)
        assert np.all(q[:2] == 0.0)

    def test_empty_target_rejected(self):
        with pytest.raises(ModelError):
            iterate_extinction(build_scenario("zd_translation", {"radius": 2}), set())


def _mixed_atom_model():
    """Vertex 0 keeps one child at itself (qbar = 0), 1 is supercritical, 2
    critical (forces the Newton phase) and 3 feeds on all three."""
    return BrwModel((0, 1, 2, 3), {0: law_from([({0: 1}, 1.0)]),
                                   1: law_from([({1: 2}, 0.6), ({}, 0.4)]),
                                   2: law_from([({2: 2}, 0.5), ({}, 0.5)]),
                                   3: law_from([({0: 1, 1: 1}, 0.5), ({2: 1}, 0.25),
                                                ({}, 0.25)])})


_GUARD_MODELS = {
    "line_ex45": lambda: build_scenario("line_ex45", {"size": 64}),
    "gw": lambda: gw({0: 0.4, 2: 0.6}),
    "mixed_atoms": _mixed_atom_model,
    "critical_gw": lambda: gw({0: 0.5, 2: 0.5}),
    "product_and_atoms": lambda: BrwModel((0, 1), {
        0: product_form_law({0: 0.3, 2: 0.7}, {0: 0.5, 1: 0.5}),
        1: law_from([({0: 1, 1: 1}, 0.6), ({}, 0.4)])}),
}


class TestEvaluatorBits:
    """sha256 of the exact repr of extinction solves, of G at 20 random points
    and of 1,000 Kleene steps, recorded before the evaluator skipped the pass
    of a law kind the model lacks and Newton steps solved dense blocks.
    line_ex45, gw and product_and_atoms finish in the Kleene phase;
    mixed_atoms and critical_gw take 20 and 19 Newton steps."""

    SOLVE = {
        "line_ex45": "2331084efe1b968f068335adf00c80e3da976d60277f324be290b9bf858c5a15",
        "gw": "d80b607f5b56eb8863778a8ba61e6480408d216e0e6c03ed384da80a62be5fc8",
        "mixed_atoms": "2d478891929ed7d1ac757d5241774571e769e0881c868c3b73f4777619b8ac08",
        "critical_gw": "e1ee93782f6d6862aabb21b46965e3122df1324f9a4395b95c728bb73132d7d1",
        "product_and_atoms": "06e809c515e9562de3e27b969531c7db1d0d38844585dedc5a3e61b377bb4ebc",
    }
    EVAL = {
        "line_ex45": "93e8efc6e5c0ee6fa38b99faf4b2cd60c3186759911077e6b20f8652c9fc600b",
        "gw": "25e1e9d3b8b5cb29b8371585e0e633d7074f34e395784c25aa8380a2d6df0b0e",
        "mixed_atoms": "4160fe48b0d48093a8ba3793a88c2dcd369dbdfadfb18371e63bff4c2a587e33",
        "critical_gw": "5a06322da270f727a2291cb40023769b74df9d6bcefc64be5e636d668c306e84",
    }
    KLEENE = {
        "line_ex45": "961d69141ed042d141ba7c879e40370ce225586ecb5fb2c799389e273106c66e",
        "gw": "4065f5a2e30825450c5485b043a481f89b8094e5634eccee8cebedfd24b57912",
        "mixed_atoms": "8644e68752da33c5a3723bf3325d6f7f71b816666b8b1b331872fae3e9cf77a6",
        "critical_gw": "f6b69787107d23326d264491e68c27810b254ed7f6d9fb53bae42c1f0ca22dcf",
    }

    @staticmethod
    def _digest(obj):
        return hashlib.sha256(repr(obj).encode()).hexdigest()

    @pytest.mark.parametrize("name", sorted(SOLVE))
    def test_extinction_solve(self, name):
        q, diag = iterate_extinction(_GUARD_MODELS[name](), "global")
        assert diag.converged
        assert self._digest((q.tolist(), diag)) == self.SOLVE[name]

    @pytest.mark.parametrize("name", sorted(EVAL))
    def test_eval_G_at_random_points(self, name):
        m = _GUARD_MODELS[name]()
        rng = np.random.default_rng(23)
        got = [eval_G(m, rng.random(m.size)).tolist() for _ in range(20)]
        assert self._digest(got) == self.EVAL[name]

    @pytest.mark.parametrize("name", sorted(KLEENE))
    def test_thousand_kleene_steps(self, name):
        m = _GUARD_MODELS[name]()
        got = [survival_probability(m, v, 1000) for v in m.vertices[:4]]
        assert self._digest(got) == self.KLEENE[name]

    def test_both_law_kinds_at_random_points(self):
        m = _GUARD_MODELS["product_and_atoms"]()
        rng = np.random.default_rng(23)
        got = [eval_G(m, rng.random(2)).tolist() for _ in range(20)]
        assert self._digest(got) == (
            "559b4589977bc198df2e903c1c7aafa028b5203e1637d2f87f26d5c3a9d8aac0")


class TestJacobian:
    def _check(self, model, z, h=1e-6):
        from brwlab.genfun import _evaluator
        J = _evaluator(model).jacobian(z).toarray()
        fd = np.empty_like(J)
        for j in range(model.size):
            e = np.zeros(model.size)
            e[j] = h
            fd[:, j] = (poly_G(model, z + e) - poly_G(model, z - e)) / (2 * h)
        np.testing.assert_allclose(J, fd, rtol=0, atol=1e-7)

    def atom_model(self):
        laws = {0: law_from([({0: 2, 1: 1}, 0.3), ({2: 3}, 0.2), ({1: 1}, 0.1), ({}, 0.4)]),
                1: law_from([({0: 1, 1: 1, 2: 2}, 0.5), ({1: 2}, 0.25), ({}, 0.25)]),
                2: law_from([({2: 1}, 1.0)])}
        return BrwModel((0, 1, 2), laws)

    @pytest.mark.parametrize("z", [[0.3, 0.6, 0.9], [0.0, 0.5, 0.7], [0.4, 0.0, 0.0],
                                   [0.0, 0.0, 0.0]])
    def test_atom_law_matches_finite_differences(self, z):
        self._check(self.atom_model(), np.array(z))

    @pytest.mark.parametrize("zero", [False, True])
    def test_product_form_matches_finite_differences(self, zero):
        m = build_scenario("zd_translation", {"radius": 2, "rho": {0: 0.2, 1: 0.1, 3: 0.7}})
        z = np.linspace(0.1, 0.9, m.size)
        if zero:
            z[::2] = 0.0
        self._check(m, z)


class TestGrouping:
    def test_tree_counterpart_groups_by_law(self):
        from brwlab.genfun import _GEvaluator

        m = build_scenario("tree_counterpart")
        ev = _GEvaluator(m)
        laws = {m.laws[v].product.rho.dense_probs().tobytes() for v in m.vertices}
        assert len(ev.groups) == len(laws) < m.size
        z = np.random.default_rng(3).uniform(0.0, 1.0, m.size)
        z[::5] = 0.0
        pz = ev.P.dot(z)
        g = np.empty(m.size)
        scale = np.empty(m.size)
        for v in m.vertices:
            i = m.index[v]
            coeffs = m.laws[v].product.rho.dense_probs()
            g[i] = np.polynomial.polynomial.polyval(pz[i:i + 1], coeffs)[0]
            scale[i] = np.polynomial.polynomial.polyval(
                pz[i:i + 1], np.polynomial.polynomial.polyder(coeffs))[0]
        assert ev(z).tobytes() == np.clip(g, 0.0, 1.0).tobytes()
        J = ev.P.tocsr().multiply(scale[:, None]).toarray()
        assert ev.jacobian(z).toarray().tobytes() == J.tobytes()


class TestSurvivalProbability:
    def test_gw_closed_form(self):
        # 1 - G^T(0) for G(s) = .4 + .6 s^2: 1, .6, 1 - (.4 + .6 * .4^2)
        m = gw({0: 0.4, 2: 0.6})
        assert survival_probability(m, 0, 0) == 1.0
        assert survival_probability(m, 0, 1) == pytest.approx(0.6, abs=1e-15)
        assert survival_probability(m, 0, 2) == pytest.approx(0.504, abs=1e-15)

    def test_decreases_to_global_survival(self):
        m = gw({0: 0.4, 2: 0.6})
        seq = [survival_probability(m, 0, t) for t in range(0, 400, 40)]
        assert all(a >= b for a, b in zip(seq, seq[1:]))
        assert seq[-1] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_rejects_unknown_vertex_and_bad_horizon(self):
        m = gw({0: 0.4, 2: 0.6})
        with pytest.raises(ModelError, match="x0"):
            survival_probability(m, 3, 5)
        with pytest.raises(ModelError, match="horizon"):
            survival_probability(m, 0, -1)
        with pytest.raises(ModelError, match="horizon"):
            survival_probability(m, 0, 2.5)

    @pytest.mark.parametrize("K, searched", [(5, 0.2297), (10, 0.1047), (20, 0.0519),
                                             (40, 0.0253)])
    def test_equal_moments_different_survival(self, K, searched):
        # the searched line_noext and its twin with exactly 2 children at
        # i + 1 share M, yet only the twin reaches the window edge surely:
        # survival is not a function of the moment matrix alone
        line = build_scenario("line_noext", {"size": K})
        twin = build_scenario("line_noext", {"size": K, "ns": [2] * K})
        assert np.array_equal(moment_matrix(line).csr.toarray(), moment_matrix(twin).csr.toarray())
        assert survival_probability(line, 0, K - 1) == pytest.approx(searched, abs=5e-5)
        assert survival_probability(twin, 0, K - 1) == 1.0


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
        m = build_scenario("line_ex45", {"size": 64})
        z = ex45_subsolution(64)
        rep = check_subsolution(m, z, 0)
        assert rep.accepted
        assert rep.max_violation <= 1e-10
        assert rep.x0_value < 1.0


    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, True])
    def test_bad_tol(self, tol):
        # a NaN tol silently rejected every certificate
        with pytest.raises(ModelError, match="tol"):
            check_subsolution(gw({0: 0.4, 2: 0.6}), np.full(1, 2.0 / 3.0), 0, tol=tol)


class TestClassify:
    def test_gw_supercritical(self):
        rep = classify_survival(gw({2: 1.0}), 0)
        assert rep.local == "survives"
        assert rep.global_ == "survives"

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

    def test_projection_decides_by_the_projected_mean(self, monkeypatch):
        # the projected law is the GW law the total population follows, so
        # its mean is the row sum of M at every site away from the window edge
        import brwlab.spectral as sp

        def refuse(*args, **kwargs):
            raise AssertionError("the projection runs no growth-rate estimate")
        monkeypatch.setattr(sp, "global_growth_rate", refuse)
        for name in ("zd_translation", "zdrift", "tree_counterpart"):
            model = build_scenario(name)
            rep = classify_survival(model, 0)
            assert rep.global_method == "projection"
            assert rep.global_evidence == {"value": model.projected_law.mean}, name
            assert model.projected_law.mean == moment_matrix(model).row_sums()[model.index[0]], name

    @pytest.mark.parametrize("name, params", [
        *[(name, {"radius": 6, "rho_bar": rb, **extra})
          for name, extra in (("zd_translation", {}), ("zdrift", {"p": 0.4, "q": 0.1}))
          for rb in (0.5, 0.998, 0.999, 0.9995, 1.0, 1.0005, 1.001, 1.0011, 1.5, 3.0)],
        *[("zd_translation", {"rho": rho})
          for rho in ({1: 1.0}, {0: 1.0}, {0: 0.5, 2: 0.5}, {0: 0.25, 2: 0.75})],
        *[("tree_counterpart", {"depth": 4, "lam": lam})
          for lam in (0.2, 0.2497, 0.24975, 0.25, 0.25025, 0.2503, 0.275, 0.3)],
        ("zd_translation", {}), ("zdrift", {}), ("tree_counterpart", {}),
    ])
    def test_projection_verdict_is_the_mean_verdict(self, name, params):
        model = build_scenario(name, params)
        rep = classify_survival(model, 0)
        assert rep.global_ == _verdict(model.projected_law.mean)
        assert not (rep.local == "survives" and rep.global_ == "dies")

    def test_line_noext_ladder_flag(self):
        rep = classify_survival(build_scenario("line_noext", {"size": 12}), 0)
        assert rep.global_ == "dies"
        assert rep.global_method == "fixed-point"
        assert any("truncation" in n for n in rep.notes)
        assert rep.global_evidence["newton_steps"] == 0

    def test_irreducible_window_global_from_return_growth(self, monkeypatch):
        # on a finite irreducible window local and global survival both hold
        # exactly when the Perron root exceeds 1, so no row-sum estimate runs
        import brwlab.spectral as sp
        calls = []
        monkeypatch.setattr(sp, "global_growth_rate", lambda *a, **k: calls.append(a))
        rng = np.random.default_rng(99)         # the acceptance-03 draw
        models = []
        for _ in range(100):
            disp = rng.uniform(0.1, 1.0, (5, 5))
            disp /= disp.sum(axis=1, keepdims=True)
            laws = {}
            for v in range(5):
                mean = rng.uniform(0.6, 1.4)
                laws[v] = product_form_law({0: 1.0 - mean / 2, 2: mean / 2},
                                           {u: disp[v, u] for u in range(5)})
            models.append(BrwModel(tuple(range(5)), laws))
        for means in ((1.6, 0.9), (1.6, 0.5)):  # period 2: root sqrt(m0 m1), 1.2 and 0.89
            laws = {v: product_form_law({0: 1.0 - m / 2, 2: m / 2}, {1 - v: 1.0})
                    for v, m in enumerate(means)}
            models.append(BrwModel((0, 1), laws))
        checked = 0
        for model in models:
            root = max(abs(np.linalg.eigvals(moment_matrix(model).csr.toarray())))
            rep = classify_survival(model, 0, n_max=4000)
            assert rep.global_method == "finite-irreducible"
            assert rep.global_evidence["growth"] is rep.local_growth
            if abs(root - 1.0) > 1e-3:
                checked += 1
                assert rep.global_ == ("survives" if root > 1.0 else "dies"), root
        assert calls == []
        assert checked >= 100

    def test_unconverged_solve_is_inconclusive(self, monkeypatch):
        import brwlab.genfun as gf
        monkeypatch.setattr(gf, "iterate_extinction", _unconverged)
        rep = classify_survival(build_scenario("line_noext", {"size": 12}), 0)
        assert (rep.local, rep.global_method, rep.global_) == ("dies", "fixed-point",
                                                               "inconclusive")
        assert rep.notes == ["extinction iteration hit max_iter"]

    def test_evidence_rows_present(self):
        rep = classify_survival(gw({2: 1.0}), 0)
        assert rep.evidence_csv_rows()
        assert "survives" in rep.to_text()


class TestStrongLocal:
    def test_gw_point(self):
        rep = strong_local_compare(gw({0: 0.4, 2: 0.6}), 0, 0)
        assert rep.verdict == "yes"
        assert rep.gap <= 1e-9

    def test_transitive_window_interior(self):
        rep = strong_local_compare(build_scenario("zd_translation", {"radius": 10}), 0, 0)
        assert rep.verdict == "yes"

    def test_no_local_survival(self):
        rep = strong_local_compare(gw({0: 0.8, 2: 0.2}), 0, 0)
        assert rep.verdict == "no"
        assert rep.q_target_x0 == pytest.approx(1.0, abs=1e-9)

    def test_unconverged_solve_is_inconclusive(self, monkeypatch):
        import brwlab.genfun as gf
        monkeypatch.setattr(gf, "iterate_extinction", _unconverged)
        assert strong_local_compare(gw({0: 0.4, 2: 0.6}), 0, 0).verdict == "inconclusive"

    def test_unknown_start_vertex(self):
        with pytest.raises(ModelError):
            strong_local_compare(build_scenario("zd_translation", {"radius": 2}), 99, 0)


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

    def test_lambda_w_without_projection_is_the_window_rate(self):
        # the window is finite and irreducible, so lambda_w = lambda_s = 1/rho(K)
        # = 0.3141353274; a row-sum estimate stops after 5 terms on the 4^n
        # walk-count plateau and reads 0.25
        verts, K = tree_rates(4, 5)
        res = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-2, grid=(0.2, 0.3, 0.4),
                           stop_tol=1e-9)
        (w_lo, w_hi), (s_lo, s_hi) = res.lambda_w_bracket, res.lambda_s_bracket
        assert w_lo <= s_hi and s_lo <= w_hi

    def test_bad_bracket_rejected(self):
        K = MomentMatrix(np.array([[1.0]]), (0,))
        with pytest.raises(ModelError):
            lambda_sweep(K, 0, 2.0, 3.0, projected_row_sum=1.0)

    def test_rate_matrix_needs_vertices(self):
        verts, K = tree_rates(4, 2)
        with pytest.raises(ModelError, match="vertices"):
            lambda_sweep(K, 0, 0.2, 0.6, projected_row_sum=4.0)
        labelled = lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0)
        wrapped = lambda_sweep(MomentMatrix(K, verts), 0, 0.2, 0.6, projected_row_sum=4.0)
        assert repr(labelled) == repr(wrapped)

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
        import brwlab.spectral as sp

        calls = {"bracket": 0, "local": 0, "global": 0, "extinction": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(gf, "_perron_bracket", counted("bracket", gf._perron_bracket))
        monkeypatch.setattr(gf, "local_growth_rate", counted("local", gf.local_growth_rate))
        monkeypatch.setattr(sp, "global_growth_rate", counted("global", sp.global_growth_rate))
        monkeypatch.setattr(gf, "iterate_extinction", counted("extinction", gf.iterate_extinction))
        verts, K = tree_rates(4, 3)
        lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0)
        assert calls == {"bracket": 1, "local": 0, "global": 0, "extinction": 0}

    def test_no_power_iteration_and_no_period(self, monkeypatch):
        import brwlab.genfun as gf
        import brwlab.spectral as sp

        def refuse(*args, **kwargs):
            raise AssertionError("lambda_sweep ran power iteration or a period search")

        monkeypatch.setattr(gf, "local_growth_rate", refuse)
        monkeypatch.setattr(sp, "local_growth_rate", refuse)
        monkeypatch.setattr(sp, "global_growth_rate", refuse)
        monkeypatch.setattr(sp.MomentMatrix, "period", refuse)
        for depth in (4, 5, 7):     # dense classes and a sparse one
            verts, K = tree_rates(4, depth)
            res = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, projected_row_sum=4.0)
            lo, hi = res.lambda_s_bracket
            assert lo <= res.lambda_s <= hi and hi - lo <= 2e-3
        verts, K = tree_rates(4, 5)
        window = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-2, grid=(0.2, 0.3, 0.4))
        K = MomentMatrix(np.array([[0.0, 1.0], [1.69, 0.0]]), (0, 1))     # period 2
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 1.0), projected_row_sum=1.69)
        assert res.lambda_w_bracket == (1.0 / 1.69, 1.0 / 1.69)
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 1.0))
        lo, hi = res.lambda_s_bracket
        assert lo <= 1.0 / 1.3 <= hi
        for res in (window, res):
            assert res.lambda_w == res.lambda_s
            assert res.lambda_w_bracket == res.lambda_s_bracket

    def test_reducible_rates_need_a_projection(self):
        K = MomentMatrix(np.array([[1.0, 1.0], [0.0, 2.0]]), (0, 1))
        with pytest.raises(ModelError, match="irreducible"):
            lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 1.0))
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 1.0), projected_row_sum=2.0)
        assert res.lambda_s == pytest.approx(1.0, abs=1e-12)
        assert res.lambda_w_bracket == (0.5, 0.5)

    def test_without_projection_uses_row_sum_growth(self):
        K = MomentMatrix(np.array([[0.5, 1.0], [0.8, 0.3]]), (0, 1))
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 0.6, 0.8, 1.0, 1.5))
        # lambda_w is read from lambda_s's bracket; the row-sum growth is the oracle
        assert (res.lambda_w, res.lambda_w_bracket) == (res.lambda_s, res.lambda_s_bracket)
        assert res.lambda_w == pytest.approx(1.0 / global_growth_rate(K, 0).value, rel=1e-12)
        assert res.lambda_w == pytest.approx(1.0 / 1.3, abs=1e-10)
        lo, hi = res.lambda_w_bracket
        assert lo <= res.lambda_w <= hi
        qvals = [q for _, q in res.qbar_table]
        assert all(b <= a for a, b in zip(qvals, qvals[1:]))
        assert qvals[0] == pytest.approx(1.0, abs=1e-9)
        assert qvals[-1] < 0.6

    def test_critical_grid_point_converges(self, monkeypatch):
        # lam = 1/1.3 is lam_w itself: the counterpart model is critical
        import brwlab.genfun as gf
        diags = []

        def recording(*args, **kwargs):
            q, diag = solve(*args, **kwargs)
            diags.append(diag)
            return q, diag

        solve = gf.iterate_extinction
        monkeypatch.setattr(gf, "iterate_extinction", recording)
        K = MomentMatrix(np.array([[0.5, 1.0], [0.8, 0.3]]), (0, 1))
        start = time.perf_counter()
        res = lambda_sweep(K, 0, 0.3, 1.5, grid=(0.4, 1.0 / 1.3, 1.0))
        assert time.perf_counter() - start < 2.0
        assert len(diags) == 3 and all(d.converged for d in diags)
        assert res.qbar_table[1][1] == pytest.approx(1.0, abs=1e-7)

    def test_unconverged_table_solve_raises(self, monkeypatch):
        import brwlab.genfun as gf
        monkeypatch.setattr(gf, "iterate_extinction", _unconverged)
        K = MomentMatrix(np.array([[0.5, 1.0], [0.8, 0.3]]), (0, 1))
        with pytest.raises(ModelError, match="lam = 0.6"):
            lambda_sweep(K, 0, 0.3, 1.5, grid=(0.6, 1.0))

    def test_bracket_wider_than_width_rejected(self):
        verts, K = tree_rates(4, 4)
        res = lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0)
        lo, hi = res.lambda_s_bracket
        assert hi - lo > 0.0
        with pytest.raises(ModelError, match="wider"):
            lambda_sweep(K, 0, 0.2, 0.6, vertices=verts, projected_row_sum=4.0,
                         width=(hi - lo) / 2)


class TestReportCoherence:
    def test_local_implies_global(self):
        # a reducible window whose fixed point, q(0) = 1/9, and self-loop agree:
        # both verdicts survive without the override
        laws = {
            0: law_from([({0: 2}, 0.9), ({}, 0.1)]),
            1: law_from([({}, 1.0)]),
        }
        m = BrwModel((0, 1), laws)
        rep = classify_survival(m, 0)
        assert rep.local == "survives"
        assert rep.global_ == "survives"

    def test_override_drops_the_truncation_note(self):
        # return growth 1.01 at 0, yet q(0) = 0.9999999979 lies within _Q_BAND
        # of 1: the fixed point reads "dies" and the override replaces it, so
        # the report must not claim certain extinction on this truncation
        m = BrwModel((0, 1), {0: law_from([({0: 10 ** 7}, 1.01e-7), ({1: 1}, 1 - 1.01e-7)]),
                              1: law_from([({}, 1.0)])})
        rep = classify_survival(m, 0)
        assert rep.local == "survives" and rep.global_ == "survives"
        assert rep.global_method == "fixed-point"
        assert 1.0 - 1e-6 < rep.global_evidence["qbar_x0"] < 1.0
        assert len(rep.notes) == 1 and "overridden" in rep.notes[0]
        assert "truncation" not in rep.to_text()
