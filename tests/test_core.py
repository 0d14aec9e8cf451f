import importlib
import inspect
import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab.core import (
    PROB_TOL,
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    _real,
    _whole,
    build_offspring_law,
    check_assumption_nonsingular,
    continuous_counterpart,
    dominating_law,
    product_form_law,
    restrict_model,
)
from brwlab.genfun import eval_G
from brwlab.scenarios import SCENARIOS, build_scenario, line_noext_search, scenario_table
from brwlab.serialize import serialize_model
from brwlab.spectral import moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def entry(M, x, y) -> float:
    """m_xy of a moment matrix, read off its scipy form."""
    return float(M.csr[M.index[x], M.index[y]])


def one_law_model(law):
    """A model whose first vertex carries ``law`` and every vertex it reaches dies."""
    x = min(law.support, default=0) - 1
    death = law_from([({}, 1.0)])
    return BrwModel((x, *law.support), {x: law, **{v: death for v in law.support}})


def mean_row(law):
    """The moment-matrix row of a vertex carrying ``law``."""
    m = one_law_model(law)
    M = moment_matrix(m)
    return {v: entry(M, m.vertices[0], v) for v in law.support}


def g_row(law, z):
    """G(z) at a vertex carrying ``law``, for z a dict vertex -> value."""
    m = one_law_model(law)
    return float(eval_G(m, [0.0] + [z[v] for v in law.support])[0])


def pmf(d) -> dict:
    """value -> probability of an IntDistribution."""
    return dict(zip(d.values.tolist(), d.probs.tolist()))


def close(a: dict, b: dict) -> bool:
    """Equal within PROB_TOL at every key of either dict, a missing key read as 0."""
    return all(abs(a.get(k, 0.0) - b.get(k, 0.0)) <= PROB_TOL for k in a.keys() | b.keys())


def same_law(a, b) -> bool:
    """Two product laws with close child-count laws and dispersal rows, or two
    atom laws with close atoms."""
    if a.product is not None and b.product is not None:
        return (close(pmf(a.rho), pmf(b.rho))
                and close(dict(zip(a.product.targets, a.product.weights)),
                          dict(zip(b.product.targets, b.product.weights))))
    return close(dict(a.atoms), dict(b.atoms))


# ---------------------------------------------------------------------------
# offspring laws
# ---------------------------------------------------------------------------

class TestBuildOffspringLaw:
    def test_deterministic_doubling(self):
        law = law_from([({0: 2}, 1.0)])
        assert pmf(law.rho) == {2: 1.0}
        assert law.rho.mean == 2.0

    def test_two_atom_sums(self):
        law = law_from([({}, 0.5), ({0: 1, 1: 1}, 0.5)])
        assert pmf(law.rho) == {0: 0.5, 2: 0.5}
        assert law.rho.mean == pytest.approx(1.0)
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

    @pytest.mark.parametrize("build", [
        lambda: OffspringConfig.make({0.7: 1}),
        lambda: OffspringConfig.make({1: True}),
        lambda: OffspringConfig.make({True: 1}),
        lambda: OffspringConfig.make({1: 2.0}),
        lambda: product_form_law({0: 0.5, 2: 0.5}, {0.5: 1.0}),
        lambda: product_form_law({0: 0.5, 2: 0.5}, {0: math.nan}),
        lambda: product_form_law({0: 0.5, 2: 0.5}, {0: True}),
        lambda: product_form_law({0: 0.5, 2: 0.5}, {0: 1.5, 1: -0.5}),
        lambda: continuous_counterpart(1.0, {1.9: 1.0}),
        lambda: continuous_counterpart(1.0, {1: math.inf}),
        lambda: continuous_counterpart(True, {1: 1.0}),
        lambda: build_offspring_law([({0: 1}, True)]),
        lambda: build_offspring_law([({0: 1}, math.nan)]),
    ], ids=["vertex-float", "count-bool", "vertex-bool", "count-float", "target-float",
            "weight-nan", "weight-bool", "weight-negative", "rate-target-float", "rate-inf",
            "lam-bool", "atom-prob-bool", "atom-prob-nan"])
    def test_refuses_what_it_would_coerce(self, build):
        # {0.7: 1} was a child at vertex 0 and {1: True} one child at 1
        with pytest.raises(ModelError):
            build()

    def test_reads_numpy_whole_vertices_and_counts(self):
        cfg = OffspringConfig.make({np.int64(-2): np.int64(3), 4: 0})
        assert cfg.entries == ((-2, 3),) and type(cfg.entries[0][0]) is int
        law = product_form_law({2: 1.0}, {np.int64(1): np.float64(0.25), 3: 0.75, 5: 0.0})
        assert law.product.targets == (1, 3) and law.product.weights == (0.25, 0.75)


class TestProductForm:
    # a product law lists no configurations; G factorizes through the
    # dispersal row, and these pin it against the multinomial expansion
    def test_single_child(self):
        law = product_form_law({1: 1.0}, {5: 1.0})
        assert law.atoms is None and law.support == (5,) and pmf(law.rho) == {1: 1.0}
        for t in (0.0, 0.3, 1.0):
            assert g_row(law, {5: t}) == pytest.approx(t, abs=1e-15)

    def test_multinomial_expansion(self):
        # atoms {}: 0.5, {0: 2}: 0.125, {0: 1, 1: 1}: 0.25, {1: 2}: 0.125
        law = product_form_law({0: 0.5, 2: 0.5}, {0: 0.5, 1: 0.5})
        for a, b in ((0.0, 0.0), (0.3, 0.8), (1.0, 0.2), (1.0, 1.0)):
            want = 0.5 + 0.125 * a * a + 0.25 * a * b + 0.125 * b * b
            assert g_row(law, {0: a, 1: b}) == pytest.approx(want, abs=1e-15)

    def test_atoms_match_brute_force_enumeration(self):
        # independent oracle: enumerate all placements of n labelled children
        # into an atom law, which must have the product law's G and means
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
        atoms = law_from([(dict(key), p) for key, p in brute.items()])
        assert mean_row(law) == pytest.approx(mean_row(atoms), abs=1e-14)
        for z in np.random.default_rng(7).random((10, 2)):
            z = dict(zip(disp, z.tolist()))
            assert g_row(law, z) == pytest.approx(g_row(atoms, z), abs=1e-14)

    def test_means_equal_dispersal_times_rho_bar(self):
        rho = {0: 0.25, 1: 0.25, 3: 0.5}
        disp = {0: 0.2, 1: 0.5, 2: 0.3}
        law = product_form_law(rho, disp)
        rb = law.rho.mean
        for y, w in disp.items():
            assert mean_row(law)[y] == pytest.approx(w * rb, abs=1e-12)

    def test_unnormalized_dispersal_rejected(self):
        with pytest.raises(ModelError):
            product_form_law({1: 1.0}, {0: 0.5, 1: 0.4})


class TestContinuousCounterpart:
    def test_unit_rate_probabilities(self):
        law = continuous_counterpart(1.0, {0: 1.0})
        # geometric: 1/2, 1/4, 1/8, ...
        got = pmf(law.rho)
        assert got[0] == pytest.approx(0.5, abs=1e-12)
        assert got[1] == pytest.approx(0.25, abs=1e-12)
        assert got[2] == pytest.approx(0.125, abs=1e-12)

    @pytest.mark.parametrize("lam,k", [(0.5, 2.0), (1.0, 1.0), (2.0, 1.7)])
    def test_mean_is_lam_k(self, lam, k):
        law = continuous_counterpart(lam, {0: k})
        # brute sum of the geometric mean identity
        brute = sum(int(v) * p for v, p in zip(law.rho.values, law.rho.probs))
        assert brute == pytest.approx(lam * k, abs=1e-10)
        assert law.rho.mean == pytest.approx(lam * k, abs=1e-10)

    def test_rate_row_means(self):
        law = continuous_counterpart(0.5, {1: 2.0})
        assert mean_row(law)[1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_total_rate_rejected(self):
        with pytest.raises(ModelError):
            continuous_counterpart(1.0, {})


class TestIntDistribution:
    def test_geometric_tail_below_tolerance(self):
        d = IntDistribution.geometric(4.0)
        r = 4.0 / 5.0
        assert r ** d.support_max <= 1e-12 * (1 + 1e-9)
        assert d.support_max + 1 == math.ceil(math.log(1e-12) / math.log(r)) + 2

    @pytest.mark.parametrize("mean", [1e17, math.nan, math.inf, 1e7])
    def test_geometric_refuses_before_allocating(self, mean, monkeypatch):
        # 1e17 rounds r to 1; 1e7 would need about 2.8e8 entries per array
        def no_allocation(*args, **kwargs):
            raise AssertionError("geometric allocated before refusing its mean")

        monkeypatch.setattr(np, "arange", no_allocation)
        with pytest.raises(ModelError):
            IntDistribution.geometric(mean)

    @pytest.mark.parametrize("d", [{2.7: 1.0}, {2.0: 1.0}, {"2": 1.0}, {True: 1.0},
                                   {0: True}, {0: math.nan}, {0: math.inf, 1: -math.inf},
                                   {0: "1.0"}],
                             ids=["count-2.7", "count-float", "count-string", "count-bool",
                                  "prob-bool", "prob-nan", "prob-inf", "prob-string"])
    def test_from_dict_refuses_what_it_would_coerce(self, d):
        # {2.7: 1.0} was the point mass at 2 and {0: True} the one at 0
        with pytest.raises(ModelError):
            IntDistribution.from_dict(d)

    @pytest.mark.parametrize("n", [2.7, True, -1, "2"])
    def test_delta_refuses_what_it_would_coerce(self, n):
        # delta(2.7) was the point mass at 2 and delta(True) the one at 1
        with pytest.raises(ModelError, match="n must be a whole number"):
            IntDistribution.delta(n)

    @pytest.mark.parametrize("build", [
        lambda: IntDistribution([math.nan, 1.0]),
        lambda: IntDistribution([math.inf, 1.0], normalize=True),
        lambda: IntDistribution.from_values([0, 1], [0.5, math.nan]),
        lambda: IntDistribution.from_values([0.5, 1], [0.5, 0.5]),
        lambda: IntDistribution.from_values([True], [1.0]),
        lambda: IntDistribution.from_values(np.array([2 ** 64 - 1], dtype=np.uint64), [1.0]),
        lambda: IntDistribution.from_values([True, 2], [0.5, 0.5]),
        lambda: IntDistribution.from_values((3, np.True_), [0.5, 0.5]),
    ], ids=["prob-nan", "prob-inf-normalized", "from-values-prob-nan", "value-half",
            "value-bool", "value-above-int64", "value-bool-among-ints",
            "value-numpy-bool-among-ints"])
    def test_refuses_non_finite_probabilities_and_non_whole_values(self, build):
        # [nan, 1.0] was the point mass at 0, [inf, 1.0] too (with a warning
        # when normalized), from_values read 0.5 as 0 and True as 1, and
        # [True, 2] was the law on {1, 2}: numpy promotes the list to int64
        with pytest.raises(ModelError):
            build()

    def test_from_dict_reads_whole_counts(self):
        d = IntDistribution.from_dict({np.int64(2): np.float64(0.75), 0: 0.25})
        assert d.values.tolist() == [0, 2] and d.probs.tolist() == [0.25, 0.75]

    def test_geometric_support_limit(self):
        assert IntDistribution.geometric(36_000).support_max + 1 <= 1_000_000
        with pytest.raises(ModelError, match="support above"):
            IntDistribution.geometric(37_000)

    def test_mean_variance_consistency(self):
        d = IntDistribution.from_dict({0: 0.4, 2: 0.6})
        assert d.mean == pytest.approx(1.2)
        assert d.variance == pytest.approx(0.4 * 1.2 ** 2 + 0.6 * 0.8 ** 2)

    def test_thinning_of_geometric_stays_geometric(self):
        d = IntDistribution.geometric(2.0)
        t = d.thinned(0.5)
        n = d.support_max
        ref = IntDistribution(0.5 ** np.arange(1, n + 2), normalize=True)
        assert t.mean == pytest.approx(1.0, abs=1e-9)
        for k in range(10):
            assert abs(pmf(t).get(k, 0.0) - pmf(ref).get(k, 0.0)) < 1e-9


def exact_thinning(d, s):
    """The thinning of d at keep probability s: each probability is the float
    nearest to the normalised binomial mixture sum_v p_v C(v, k) s^k (1-s)^(v-k),
    evaluated exactly in integers from s = a / b and p_v = c_v / e_v (b and
    each e_v are powers of two) and rounded once by int true division."""
    n = d.support_max
    a, b = float(s).as_integer_ratio()
    kept = [a ** k for k in range(n + 1)]
    lost = [(b - a) ** k for k in range(n + 1)]
    ratios = [p.as_integer_ratio() for p in d.probs.tolist()]
    e = max(den for _, den in ratios)
    q = [0] * (n + 1)
    for v, (c, den) in zip(d.values.tolist(), ratios):
        w = c * (e // den) * b ** (n - v)
        for k in range(v + 1):
            q[k] += w * math.comb(v, k) * kept[k] * lost[v - k]
    total = sum(q)
    return [x / total for x in q]


def dense(law, size):
    """law's probabilities of 0, ..., size - 1."""
    out = np.zeros(size)
    out[law.values] = law.probs
    return out


# Horner's scheme is within 56 ulp of the exact law on these cases (the
# geometric law at s = 1 - 1e-16); scipy's binomial pmf was off by up to 1,032.
THINNING_ULPS = 64


class TestThinningPmf:
    # 0.5 and 0.75 are the boundary keep probabilities of zd_translation and
    # zdrift, and at 1e-300 every s^k with k >= 2 underflows.  The test keeps
    # the id it had when these cases were pinned to scipy's binomial pmf.
    @pytest.mark.parametrize("s", [0.0, 1e-300, 0.1, 1 / 3, 0.5, 0.75, 0.9, 1 - 1e-16])
    @pytest.mark.parametrize("law", [
        IntDistribution.from_dict({0: 0.25, 2: 0.75}),
        IntDistribution.from_dict({2: 1.0}),
        IntDistribution.from_dict({0: 0.1, 1: 0.2, 3: 0.3, 7: 0.15, 29: 0.25}),
        IntDistribution.geometric(2.0),
    ], ids=["two", "two-sure", "spread", "geometric"])
    def test_bit_equal_to_scipy_binom(self, law, s):
        want = exact_thinning(law, s)
        got = dense(law.thinned(s), len(want))
        assert max(abs(g - w) / math.ulp(w) for g, w in zip(got.tolist(), want)) <= THINNING_ULPS

    @pytest.mark.parametrize("name", ["zd_translation", "zdrift"])
    def test_scenario_boundary_laws(self, name, monkeypatch):
        orig = IntDistribution.thinned
        seen = []

        def checked(self, keep_prob):
            out = orig(self, keep_prob)
            if keep_prob < 1.0:
                assert dense(out, self.support_max + 1).tolist() == exact_thinning(self, keep_prob)
                seen.append(keep_prob)
            return out

        monkeypatch.setattr(IntDistribution, "thinned", checked)
        build_scenario(name)
        assert seen

    def test_thinning_refuses_a_burst_above_its_bound(self):
        assert IntDistribution.from_dict({0: 0.5, 10_000: 0.5}).thinned(0.5).mean == pytest.approx(2500)
        with pytest.raises(ModelError, match="bursts above 10000"):
            IntDistribution.from_dict({0: 0.5, 10_001: 0.5}).thinned(0.5)

    def test_import_leaves_scipy_stats_out(self, tmp_path):
        # the import and both Monte Carlo subcommands load no scipy module
        code = textwrap.dedent(f"""
            import sys, brwlab, brwlab.cli
            loaded = sorted(m for m in sys.modules if m.startswith('scipy'))
            assert brwlab.cli.main(["sweep", "--scenario", "zd_translation",
                                    "--set", "param.radius=20",
                                    "--replicas", "4", "--horizon", "20",
                                    "--out", {str(tmp_path / "s")!r}]) == 0
            assert brwlab.cli.main(["percolate", "--replicas", "4", "--horizon", "20",
                                    "--out", {str(tmp_path / "p")!r}]) == 0
            print(loaded, sorted(m for m in sys.modules if m.startswith('scipy')))
        """)
        assert _fresh_python(code).splitlines()[-1] == "[] []"

    def test_monte_carlo_leaves_scipy_graph_and_solvers_out(self, tmp_path):
        # the bench's sweep and replicas set-up models, one coupled trial, a
        # mean curve and both Monte Carlo subcommands load no scipy module
        code = textwrap.dedent(f"""
            import math, sys
            import brwlab as bl, brwlab.cli
            line6 = bl.build_scenario("zd_translation", {{"radius": 6}})
            window = bl.RestrictionCoupling(frozenset(range(-2, 3)))
            bl.build_scenario("line_ex45", {{"size": 64}})
            bl.build_scenario("gw", {{"rho": {{0: 0.4, 2: 0.6}}}})
            bl.build_scenario("zd_translation", {{"radius": 10}})
            bl.run_coupled_trials(line6, [5, math.inf], {{0: 1}}, 25, seed=503, hard_cap=4000,
                                  couplings=[window, None])
            bl.mean_curve(line6, {{0: 1}}, 10, replicas=100, seed=1)
            assert brwlab.cli.main(["sweep", "--scenario", "zd_translation",
                                    "--set", "param.radius=20",
                                    "--replicas", "4", "--horizon", "20",
                                    "--out", {str(tmp_path / "s")!r}]) == 0
            assert brwlab.cli.main(["percolate", "--replicas", "4", "--horizon", "20",
                                    "--out", {str(tmp_path / "p")!r}]) == 0
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        assert _fresh_python(code).splitlines()[-1] == "[]"

    def test_analysis_leaves_scipy_out_up_to_the_dense_cutoff(self, tmp_path):
        # the four analysis subcommands on every default scenario of at most
        # 400 vertices (all but tree_counterpart), and the bench's moment
        # recursion on zd_translation radius 10, load no scipy module
        code = textwrap.dedent(f"""
            import contextlib, io, os, sys
            import brwlab as bl, brwlab.cli
            for name in sorted(set(bl.SCENARIOS) - {{"tree_counterpart"}}):
                for cmd in ("classify", "extinction", "spectral", "spatial"):
                    out = os.path.join({str(tmp_path)!r}, name + "-" + cmd)
                    with contextlib.redirect_stdout(io.StringIO()):
                        assert brwlab.cli.main([cmd, "--scenario", name, "--out", out]) == 0
            M = bl.moment_matrix(bl.build_scenario("zd_translation", {{"radius": 10}}))
            bl.expected_population(M, {{0: 1}}, 8)
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
        """)
        assert _fresh_python(code).splitlines()[-1] == "[]"


def _fresh_python(code) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this brwlab."""
    import brwlab

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(brwlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


# ---------------------------------------------------------------------------
# dominating law
# ---------------------------------------------------------------------------

class TestDominatingLaw:
    def test_identical_laws(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        rho = dominating_law(m)
        assert pmf(rho) == pytest.approx({0: 0.4, 2: 0.6})

    def test_tail_difference_example(self):
        laws = {
            0: law_from([({}, 0.5), ({0: 2}, 0.5)]),
            1: law_from([({0: 1}, 1.0)]),
        }
        m = BrwModel((0, 1), laws)
        rho = dominating_law(m)
        assert pmf(rho) == pytest.approx({1: 0.5, 2: 0.5})

    def test_dominates_every_vertex(self):
        m = build_scenario("zdrift", {"radius": 4, "p": 0.3, "q": 0.2,
                                      "rho": {0: 0.3, 1: 0.2, 3: 0.5}})
        rho = dominating_law(m)
        for v in m.vertices:
            rv = m.laws[v].rho
            for n in range(max(rho.support_max, rv.support_max) + 2):
                assert rho.tail(n) >= rv.tail(n) - 1e-12


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

class TestRestrictModel:
    def test_full_restriction_is_identity(self):
        m = build_scenario("zd_translation", {"radius": 3})
        out = restrict_model(m, m.vertices)
        for v in m.vertices:
            assert same_law(out.laws[v], m.laws[v])

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
        m = build_scenario("zd_translation", {"radius": 6})
        sub = restrict_model(m, range(-3, 4))
        M, Ms = moment_matrix(m), moment_matrix(sub)
        for x in sub.vertices:
            for y in sub.vertices:
                assert entry(Ms, x, y) == pytest.approx(entry(M, x, y), abs=1e-12)

    def test_idempotent_and_commutes(self):
        m = build_scenario("zd_translation", {"radius": 5})
        a = restrict_model(restrict_model(m, range(-4, 5)), range(-2, 3))
        b = restrict_model(m, range(-2, 3))
        for v in b.vertices:
            assert same_law(a.laws[v], b.laws[v])

    def test_empty_restriction_rejected(self):
        m = build_scenario("zd_translation", {"radius": 2})
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


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

class TestScenarios:
    def test_gw_single_vertex(self):
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        assert m.vertices == (0,)

    def test_line_noext_structure(self):
        m = build_scenario("line_noext", {"size": 5})
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
        m = build_scenario("zdrift", {"radius": 4, "p": 0.3, "q": 0.2, "rho_bar": 1.5})
        M = moment_matrix(m)
        rb = m.laws[0].rho.mean
        assert entry(M, 0, 1) == pytest.approx(0.3 * rb, abs=1e-12)
        assert entry(M, 0, -1) == pytest.approx(0.2 * rb, abs=1e-12)
        assert entry(M, 0, 0) == pytest.approx(0.5 * rb, abs=1e-12)

    def test_zdrift_invalid_params(self):
        with pytest.raises(ModelError):
            build_scenario("zdrift", {"radius": 3, "p": 0.7, "q": 0.5})

    def test_unknown_scenario(self):
        with pytest.raises(ModelError):
            build_scenario("nope", {})

    def test_unknown_param(self):
        with pytest.raises(ModelError):
            build_scenario("gw", {"bogus": 1})

    @pytest.mark.parametrize("args", [(["gw"],), ({"gw": None},), (None,), ("gw", 5),
                                      ("gw", [("rho", {2: 1.0})]), ("gw", "rho")],
                             ids=["name-list", "name-dict", "name-none", "params-int",
                                  "params-pairs", "params-text"])
    def test_bad_argument_types_refused(self, args):
        with pytest.raises(ModelError):
            build_scenario(*args)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_listed_defaults_are_the_ones_used(self, name):
        # every listed parameter is accepted, and passing its listed default
        # builds the model that leaving it out builds
        (params,) = [p for n, p, _ in scenario_table() if n == name]
        plain = serialize_model(build_scenario(name))
        for key, (kind, default, _) in params.items():
            assert serialize_model(build_scenario(name, {key: default})) == plain, key
            if default is not None and key in build_scenario(name).params:
                assert build_scenario(name).params[key] == default, key

    @pytest.mark.parametrize("name, params", [
        ("zd_translation", {"radius": 2.5}),
        ("zd_translation", {"radius": True}),
        ("zd_translation", {"rho": {"0": 0.5, "2.5": 0.5}}),
        ("zd_translation", {"rho": {0: True}}),
        ("zdrift", {"p": "0.3"}),
        ("zdrift", {"p": 0.6, "q": 0.4 + 1e-13}),
        ("line_ex45", {"boundary": 1}),
        ("line_noext_irreducible", {"size": 4, "ns": [4, 8]}),
        ("line_noext", {"size": 3, "ns": [0, 4, 8]}),
        ("tree_counterpart", {"degree": 2}),
    ], ids=["radius-float", "radius-bool", "rho-count-float", "rho-prob-bool", "p-string",
            "p-plus-q-above-one", "boundary-int", "ns-short", "ns-zero", "degree-two"])
    def test_bad_parameter_is_a_model_error(self, name, params):
        with pytest.raises(ModelError):
            build_scenario(name, params)

    def test_ex45_row_sums_below_one(self):
        m = build_scenario("line_ex45", {"size": 16})
        M = moment_matrix(m)
        assert np.all(M.row_sums() < 1.0)

    def test_tree_counterpart_degrees(self):
        m = build_scenario("tree_counterpart", {"degree": 4, "depth": 3, "lam": 0.3})
        M = moment_matrix(m)
        sums = M.row_sums()
        assert sums[0] == pytest.approx(1.2, abs=1e-9)       # root: 4 edges
        assert sums.min() == pytest.approx(0.3, abs=1e-9)    # leaves: 1 edge
        law = IntDistribution.geometric(0.3 * 4)
        assert np.array_equal(m.projected_law.values, law.values)
        assert np.array_equal(m.projected_law.probs, law.probs)


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
        assert sums[M.index[v]] == pytest.approx(model.laws[v].rho.mean, abs=1e-12)


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
        assert same_law(a.laws[v], b.laws[v])


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("value", [2, np.int64(2), 2 ** 70])
def test_whole_reads_whole_numbers(value):
    assert _whole(value, 0, "x") == value and type(_whole(value, 0, "x")) is int


@pytest.mark.parametrize("value", [True, 2.0, "2", -1, None, 2 ** 64])
def test_whole_refuses_the_rest(value):
    with pytest.raises(ModelError):
        _whole(value, 0, "x", 2 ** 64)


@pytest.mark.parametrize("value", [0, 2, 0.5, np.float64(0.25), np.int64(3)])
def test_real_reads_finite_numbers(value):
    assert _real(value, 0, "x") == value and type(_real(value, 0, "x")) is float


@pytest.mark.parametrize("value", [False, math.nan, math.inf, -math.inf, "0.5", -0.5, None])
def test_real_refuses_the_rest(value):
    with pytest.raises(ModelError):
        _real(value, 0, "x")


def test_defaulted_public_parameter_count():
    """Parameters with defaults of the public functions, and of the methods
    without a leading underscore of the classes, defined in the library
    modules; a new knob must update this count on purpose."""
    count = 0
    for name in ("core", "spectral", "genfun", "simulate", "approx", "scenarios", "serialize"):
        module = importlib.import_module(f"brwlab.{name}")
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                functions = [obj]
            elif inspect.isclass(obj):
                functions = [getattr(m, "__func__", m) for a, m in vars(obj).items()
                             if not a.startswith("_")]
                functions = [f for f in functions if inspect.isfunction(f)]
            else:
                continue
            count += sum(p.default is not inspect.Parameter.empty
                         for f in functions for p in inspect.signature(f).parameters.values())
    assert count == 41
