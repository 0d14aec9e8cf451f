import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab.core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    Projection,
    build_offspring_law,
    check_assumption_nonsingular,
    check_invariance,
    continuous_counterpart,
    dominating_law,
    product_form_law,
    project_model,
    restrict_model,
)
from brwlab.scenarios import (
    build_line_ex45,
    build_line_noext,
    build_scenario,
    build_zd_translation,
    build_zdrift,
    line_noext_search,
)
from brwlab.spectral import moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def mean_row(law):
    """The moment-matrix row of a vertex carrying ``law``, in a model where
    every vertex it reaches dies."""
    x = min(law.support, default=0) - 1
    death = law_from([({}, 1.0)])
    M = moment_matrix(BrwModel((x, *law.support), {x: law, **{v: death for v in law.support}}))
    return {v: M.entry(x, v) for v in law.support}


# ---------------------------------------------------------------------------
# offspring laws
# ---------------------------------------------------------------------------

class TestBuildOffspringLaw:
    def test_deterministic_doubling(self):
        law = law_from([({0: 2}, 1.0)])
        assert law.rho.prob_of(2) == 1.0
        assert law.rho_bar == 2.0

    def test_two_atom_sums(self):
        law = law_from([({}, 0.5), ({0: 1, 1: 1}, 0.5)])
        assert law.rho.prob_of(0) == 0.5
        assert law.rho.prob_of(2) == 0.5
        assert law.rho_bar == pytest.approx(1.0)
        assert mean_row(law) == pytest.approx({0: 0.5, 1: 0.5})

    def test_bad_probability_sum(self):
        with pytest.raises(ModelError):
            law_from([({0: 1}, 0.5), ({}, 0.4)])

    def test_duplicate_configs(self):
        with pytest.raises(ModelError):
            law_from([({0: 1}, 0.5), ({0: 1}, 0.5)])

    def test_negative_counts(self):
        with pytest.raises(ModelError):
            OffspringConfig.make({0: -1})


class TestProductForm:
    def test_single_child(self):
        law = product_form_law({1: 1.0}, {5: 1.0})
        assert dict(law.atoms[0][0].entries) == {5: 1}
        assert law.atoms[0][1] == pytest.approx(1.0)

    def test_multinomial_expansion(self):
        law = product_form_law({0: 0.5, 2: 0.5}, {0: 0.5, 1: 0.5})
        got = {cfg.entries: p for cfg, p in law.atoms}
        assert got[()] == pytest.approx(0.5)
        assert got[((0, 2),)] == pytest.approx(0.125)
        assert got[((0, 1), (1, 1))] == pytest.approx(0.25)
        assert got[((1, 2),)] == pytest.approx(0.125)

    def test_atoms_match_brute_force_enumeration(self):
        # independent oracle: enumerate all placements of n labelled children
        import itertools
        rho = {0: 0.2, 1: 0.3, 2: 0.5}
        disp = {0: 0.3, 1: 0.7}
        law = product_form_law(rho, disp)
        brute = {}
        for n, pn in rho.items():
            for assign in itertools.product(disp, repeat=n):
                cfg = {}
                w = pn
                for y in assign:
                    cfg[y] = cfg.get(y, 0) + 1
                    w *= disp[y]
                key = tuple(sorted(cfg.items()))
                brute[key] = brute.get(key, 0.0) + w
        got = {cfg.entries: p for cfg, p in law.atoms}
        assert set(got) == set(brute)
        for key in brute:
            assert got[key] == pytest.approx(brute[key], abs=1e-14)

    def test_means_equal_dispersal_times_rho_bar(self):
        rho = {0: 0.25, 1: 0.25, 3: 0.5}
        disp = {0: 0.2, 1: 0.5, 2: 0.3}
        law = product_form_law(rho, disp)
        rb = law.rho_bar
        for y, w in disp.items():
            assert mean_row(law)[y] == pytest.approx(w * rb, abs=1e-12)

    def test_unnormalized_dispersal_rejected(self):
        with pytest.raises(ModelError):
            product_form_law({1: 1.0}, {0: 0.5, 1: 0.4})


class TestContinuousCounterpart:
    def test_unit_rate_probabilities(self):
        law = continuous_counterpart(1.0, {0: 1.0})
        # geometric: 1/2, 1/4, 1/8, ...
        assert law.rho.prob_of(0) == pytest.approx(0.5, abs=1e-12)
        assert law.rho.prob_of(1) == pytest.approx(0.25, abs=1e-12)
        assert law.rho.prob_of(2) == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("lam,k", [(0.5, 2.0), (1.0, 1.0), (2.0, 1.7)])
    def test_mean_is_lam_k(self, lam, k):
        law = continuous_counterpart(lam, {0: k})
        # brute sum of the geometric mean identity
        brute = sum(int(v) * p for v, p in zip(law.rho.values, law.rho.probs))
        assert brute == pytest.approx(lam * k, abs=1e-10)
        assert law.rho_bar == pytest.approx(lam * k, abs=1e-10)

    def test_rate_row_means(self):
        law = continuous_counterpart(0.5, {1: 2.0})
        assert mean_row(law)[1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_total_rate_rejected(self):
        with pytest.raises(ModelError):
            continuous_counterpart(1.0, {})

    def test_cap_too_small_rejected(self):
        with pytest.raises(ModelError):
            continuous_counterpart(1.0, {0: 1.0}, tail_cap=5)


class TestIntDistribution:
    def test_geometric_tail_below_tolerance(self):
        d = IntDistribution.geometric(4.0)
        r = 4.0 / 5.0
        assert r ** d.support_max <= 1e-12 * (1 + 1e-9)

    def test_mean_variance_consistency(self):
        d = IntDistribution.from_dict({0: 0.4, 2: 0.6})
        assert d.mean == pytest.approx(1.2)
        assert d.variance == pytest.approx(0.4 * 1.2 ** 2 + 0.6 * 0.8 ** 2)

    def test_thinning_of_geometric_stays_geometric(self):
        d = IntDistribution.geometric(2.0)
        t = d.thinned(0.5)
        ref = IntDistribution.geometric(1.0, cap=d.support_max)
        assert t.mean == pytest.approx(1.0, abs=1e-9)
        for k in range(10):
            assert abs(t.prob_of(k) - ref.prob_of(k)) < 1e-9


def binom_mixture(d, s):
    """Thinning of d as the per-atom mixture of scipy.stats.binom.pmf."""
    from scipy.stats import binom

    out = np.zeros(d.support_max + 1)
    for v, pv in zip(d.values, d.probs):
        out[: v + 1] += pv * binom.pmf(np.arange(v + 1), int(v), s)
    return IntDistribution(out, normalize=True)


def assert_same_law(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert a.probs.tobytes() == b.probs.tobytes()


class TestThinningPmf:
    # 0.5 and 0.75 are the boundary keep probabilities of zd_translation and
    # zdrift; at 1e-300 the unclipped ufunc exceeds 1
    @pytest.mark.parametrize("s", [0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.75, 0.9, 1 - 1e-16])
    @pytest.mark.parametrize("law", [
        IntDistribution.from_dict({0: 0.25, 2: 0.75}),
        IntDistribution.from_dict({2: 1.0}),
        IntDistribution.from_dict({0: 0.1, 1: 0.2, 3: 0.3, 7: 0.15, 29: 0.25}),
        IntDistribution.geometric(2.0),
    ], ids=["two", "two-sure", "spread", "geometric"])
    def test_bit_equal_to_scipy_binom(self, law, s):
        assert_same_law(law.thinned(s), binom_mixture(law, s))

    @pytest.mark.parametrize("name", ["zd_translation", "zdrift"])
    def test_scenario_boundary_laws(self, name, monkeypatch):
        orig = IntDistribution.thinned
        seen = []

        def checked(self, keep_prob):
            out = orig(self, keep_prob)
            if keep_prob < 1.0:
                assert_same_law(out, binom_mixture(self, keep_prob))
                seen.append(keep_prob)
            return out

        monkeypatch.setattr(IntDistribution, "thinned", checked)
        build_scenario(name)
        assert seen

    def test_import_leaves_scipy_stats_out(self):
        import brwlab

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(brwlab.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, brwlab, brwlab.cli; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# dominating law
# ---------------------------------------------------------------------------

class TestDominatingLaw:
    def test_identical_laws(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        rho = dominating_law(m)
        assert rho.as_dict() == pytest.approx({0: 0.4, 2: 0.6})

    def test_tail_difference_example(self):
        laws = {
            0: law_from([({}, 0.5), ({0: 2}, 0.5)]),
            1: law_from([({0: 1}, 1.0)]),
        }
        m = BrwModel((0, 1), laws)
        rho = dominating_law(m)
        assert rho.as_dict() == pytest.approx({1: 0.5, 2: 0.5})

    def test_dominates_every_vertex(self):
        m = build_zdrift(radius=4, p=0.3, q=0.2, rho={0: 0.3, 1: 0.2, 3: 0.5})
        rho = dominating_law(m)
        for v in m.vertices:
            rv = m.laws[v].rho
            for n in range(max(rho.support_max, rv.support_max) + 2):
                assert rho.tail(n) >= rv.tail(n) - 1e-12


# ---------------------------------------------------------------------------
# projection / restriction
# ---------------------------------------------------------------------------

class TestProjectModel:
    def test_identity_projection(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        proj = Projection.make({0: 0})
        out = project_model(m, proj)
        assert out.vertices == m.vertices
        assert out.laws[0].equal_within(m.laws[0])

    def test_collapse_to_point_gives_single_site_process(self):
        # boundary laws of a window are thinned, so that collapse must fail
        m = build_zd_translation(radius=3, rho={0: 0.4, 2: 0.6})
        with pytest.raises(ModelError):
            project_model(m, Projection.make({v: 0 for v in m.vertices}))
        # a cycle has no boundary: collapsing it recovers the one-site law
        rho = {0: 0.4, 2: 0.6}
        laws = {v: product_form_law(rho, {(v - 1) % 3: 0.5, (v + 1) % 3: 0.5})
                for v in (0, 1, 2)}
        cyc = BrwModel((0, 1, 2), laws)
        out = project_model(cyc, Projection.make({v: 0 for v in (0, 1, 2)}))
        assert out.vertices == (0,)
        assert out.laws[0].rho.as_dict() == pytest.approx({0: 0.4, 2: 0.6})
        assert moment_matrix(out).entry(0, 0) == pytest.approx(1.2)

    def test_projected_means_sum_over_fibers(self):
        # two columns of a strip collapse onto the line
        rho = {0: 0.4, 2: 0.6}
        verts = [(i, c) for i in range(3) for c in range(2)]
        ids = {v: n for n, v in enumerate(verts)}
        laws = {}
        for (i, c), n in ids.items():
            row = {}
            for j in (i - 1, i + 1):
                if 0 <= j < 3:
                    row[ids[(j, 0)]] = 0.25
                    row[ids[(j, 1)]] = 0.25
            s = sum(row.values())
            row = {k: w / s for k, w in row.items()}
            laws[n] = product_form_law(rho, row)
        m = BrwModel(tuple(ids.values()), laws)
        g = {ids[(i, c)]: i for (i, c) in verts}
        out = project_model(m, Projection.make(g))
        M = moment_matrix(m)
        Mp = moment_matrix(out)
        for (i, c) in verts:
            for j in range(3):
                fiber_sum = sum(M.entry(ids[(i, c)], ids[(j, cc)]) for cc in range(2))
                assert Mp.entry(i, j) == pytest.approx(fiber_sum, abs=1e-12)


class TestRestrictModel:
    def test_full_restriction_is_identity(self):
        m = build_zd_translation(radius=3)
        out = restrict_model(m, m.vertices)
        for v in m.vertices:
            assert out.laws[v].equal_within(m.laws[v])

    def test_two_vertex_marginalization(self):
        laws = {
            0: law_from([({0: 1, 1: 2}, 0.5), ({}, 0.5)]),
            1: law_from([({}, 1.0)]),
        }
        m = BrwModel((0, 1), laws)
        out = restrict_model(m, {0})
        got = {cfg.entries: p for cfg, p in out.laws[0].atoms}
        assert got[((0, 1),)] == pytest.approx(0.5)
        assert got[()] == pytest.approx(0.5)

    def test_means_preserved_on_subset(self):
        m = build_zd_translation(radius=6)
        sub = restrict_model(m, range(-3, 4))
        M, Ms = moment_matrix(m), moment_matrix(sub)
        for x in sub.vertices:
            for y in sub.vertices:
                assert Ms.entry(x, y) == pytest.approx(M.entry(x, y), abs=1e-12)

    def test_idempotent_and_commutes(self):
        m = build_zd_translation(radius=5)
        a = restrict_model(restrict_model(m, range(-4, 5)), range(-2, 3))
        b = restrict_model(m, range(-2, 3))
        for v in b.vertices:
            assert a.laws[v].equal_within(b.laws[v])

    def test_empty_restriction_rejected(self):
        m = build_zd_translation(radius=2)
        with pytest.raises(ModelError):
            restrict_model(m, ())


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

class TestAssumptionNonsingular:
    def test_pure_self_replacement_fails(self):
        m = BrwModel((0,), {0: law_from([({0: 1}, 1.0)])})
        rep = check_assumption_nonsingular(m)
        assert not rep["all_nonsingular"]

    def test_death_atom_passes(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        assert check_assumption_nonsingular(m)["all_nonsingular"]

    def test_binary_fission_passes(self):
        m = BrwModel((0,), {0: law_from([({0: 2}, 1.0)])})
        assert check_assumption_nonsingular(m)["all_nonsingular"]


class TestInvariance:
    def test_translation_invariant_window(self):
        m = build_zd_translation(radius=5)
        gamma = {v: v + 1 for v in m.vertices if v + 1 in m.index}
        rep = check_invariance(m, gamma)
        assert rep["invariant"]
        assert rep["checked"]  # interior nonempty

    def test_perturbed_vertex_detected(self):
        m = build_zd_translation(radius=5)
        laws = dict(m.laws)
        laws[0] = product_form_law({0: 0.5, 2: 0.5}, {-1: 0.5, 1: 0.5})
        m2 = BrwModel(m.vertices, laws)
        gamma = {v: v + 1 for v in m.vertices if v + 1 in m.index}
        assert not check_invariance(m2, gamma)["invariant"]

    def test_identity_map(self):
        m = build_zd_translation(radius=3)
        rep = check_invariance(m, {v: v for v in m.vertices})
        assert rep["invariant"]

    def test_noninjective_rejected(self):
        m = build_zd_translation(radius=2)
        with pytest.raises(ModelError):
            check_invariance(m, {v: 0 for v in m.vertices})


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class TestScenarios:
    def test_gw_single_vertex(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        assert m.vertices == (0,)

    def test_line_noext_structure(self):
        m = build_line_noext(5)
        ns = m.params["ns"]
        assert ns[0] == 4
        law = m.laws[1]
        got = {cfg.entries: p for cfg, p in law.atoms}
        assert got[((2, ns[1]),)] == pytest.approx(2.0 / ns[1])
        assert got[()] == pytest.approx(1.0 - 2.0 / ns[1])

    def test_line_noext_search_targets(self):
        ns = line_noext_search(6)
        # the searched counts keep the finite-system minimal solution high
        zs = 1.0 - 2.0 / ns[-1]
        for i in range(len(ns) - 2, -1, -1):
            zs = (2.0 / ns[i]) * zs ** ns[i] + 1.0 - 2.0 / ns[i]
        assert zs >= (len(ns) - 1.0) / len(ns) - 1e-9

    def test_zdrift_projected_row(self):
        m = build_zdrift(radius=4, p=0.3, q=0.2, rho_bar=1.5)
        M = moment_matrix(m)
        rb = m.laws[0].rho_bar
        assert M.entry(0, 1) == pytest.approx(0.3 * rb, abs=1e-12)
        assert M.entry(0, -1) == pytest.approx(0.2 * rb, abs=1e-12)
        assert M.entry(0, 0) == pytest.approx(0.5 * rb, abs=1e-12)

    def test_zdrift_invalid_params(self):
        with pytest.raises(ModelError):
            build_zdrift(radius=3, p=0.7, q=0.5)

    def test_unknown_scenario(self):
        with pytest.raises(ModelError):
            build_scenario("nope", {})

    def test_unknown_param(self):
        with pytest.raises(ModelError):
            build_scenario("gw", {"bogus": 1})

    def test_ex45_row_sums_below_one(self):
        m = build_line_ex45(16)
        M = moment_matrix(m)
        assert np.all(M.row_sums() < 1.0)

    def test_tree_counterpart_degrees(self):
        m = build_scenario("tree_counterpart", {"degree": 4, "depth": 3, "lam": 0.3})
        M = moment_matrix(m)
        sums = M.row_sums()
        assert sums[0] == pytest.approx(1.2, abs=1e-9)       # root: 4 edges
        assert sums.min() == pytest.approx(0.3, abs=1e-9)    # leaves: 1 edge
        assert m.finite_projection is not None


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@st.composite
def small_laws(draw):
    n_atoms = draw(st.integers(1, 4))
    atoms = []
    seen = set()
    weights = []
    for _ in range(n_atoms):
        cfg = draw(st.dictionaries(st.integers(0, 2), st.integers(1, 3), max_size=3))
        key = tuple(sorted(cfg.items()))
        if key in seen:
            continue
        seen.add(key)
        atoms.append(cfg)
        weights.append(draw(st.floats(0.1, 1.0)))
    total = sum(weights)
    return [(c, w / total) for c, w in zip(atoms, weights)]


@st.composite
def small_models(draw):
    laws = {v: law_from(draw(small_laws())) for v in (0, 1, 2)}
    return BrwModel((0, 1, 2), laws)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_row_sums_equal_rho_bar(model):
    M = moment_matrix(model)
    sums = M.row_sums()
    for v in model.vertices:
        assert sums[M.index[v]] == pytest.approx(model.laws[v].rho_bar, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(small_models())
def test_dominating_law_property(model):
    rho = dominating_law(model)
    for v in model.vertices:
        rv = model.laws[v].rho
        for n in range(rho.support_max + 2):
            assert rho.tail(n) >= rv.tail(n) - 1e-12


@settings(max_examples=25, deadline=None)
@given(small_models(), st.sets(st.integers(0, 2), min_size=1, max_size=3))
def test_restriction_idempotent(model, subset):
    a = restrict_model(model, subset)
    b = restrict_model(a, subset)
    for v in a.vertices:
        assert a.laws[v].equal_within(b.laws[v])
