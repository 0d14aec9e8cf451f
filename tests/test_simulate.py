import collections
import dataclasses
import hashlib
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import chi2_contingency

from brwlab import simulate
from brwlab.approx import _PERC_SALT, PercolationConfig, oriented_percolation, truncation_sweep
from brwlab.core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    build_offspring_law,
    product_form_law,
)
from brwlab.genfun import survival_probability
from brwlab.scenarios import build_scenario
from brwlab.simulate import (
    _TRIAL_SALT,
    RestrictionCoupling,
    TrialStreams,
    _advance,
    _check_run,
    _draw_indices,
    _invert_cdf,
    _philox,
    _ranges,
    _sampler,
    _StreamPool,
    estimate_survival,
    mean_curve,
    run_coupled_trials,
    run_survival_trial,
    run_trial_batch,
    wilson_interval,
)
from brwlab.spectral import expected_population, moment_matrix


def product_atoms(law) -> dict:
    """{sorted (vertex, count) pairs: probability} of a product-form law, by
    placing each of its n labelled children on every target in turn."""
    pf = law.product
    out = {}
    for n, pn in zip(pf.rho.values.tolist(), pf.rho.probs.tolist()):
        for place in itertools.product(range(len(pf.targets)), repeat=n):
            key = tuple(sorted(collections.Counter(pf.targets[i] for i in place).items()))
            out[key] = out.get(key, 0.0) + pn * math.prod(pf.weights[i] for i in place)
    return out


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def doubling_model():
    return BrwModel((0,), {0: law_from([({0: 2}, 1.0)])})


def interleaved_model():
    """A 9-cycle whose law groups interleave in vertex order: one product law on
    the even vertices, another on the odd ones, an atom law at vertex 4."""
    rho_a = IntDistribution.from_dict({0: 0.3, 1: 0.3, 3: 0.4})
    rho_b = IntDistribution.from_dict({0: 0.25, 2: 0.75})
    laws = {}
    for x in range(9):
        if x == 4:
            laws[x] = law_from([({3: 1, 5: 1}, 0.3), ({4: 2}, 0.2), ({}, 0.25),
                                ({0: 1, 8: 2}, 0.25)])
        elif x % 2 == 0:
            laws[x] = product_form_law(rho_a, {(x - 1) % 9: 0.5, (x + 1) % 9: 0.5})
        else:
            laws[x] = product_form_law(rho_b, {x - 1: 0.25, x: 0.5, x + 1: 0.25})
    return BrwModel(tuple(range(9)), laws)


def _one_step(model, start, rng):
    """The uncapped counts one generation after ``start`` (a dict)."""
    return _advance(_check_run(model, start, 1, 1, 0)[None, None], model, rng)[0, 0]


class TestStep:
    def test_deterministic_doubling(self):
        m = doubling_model()
        out = _one_step(m, {0: 1}, TrialStreams(0).generation(1))
        assert out[0] == 2
        o = run_survival_trial(m, {0: 1}, 1)
        assert o.generations == 1
        assert o.total_born == 3

    def test_certain_death(self):
        m = BrwModel((0,), {0: law_from([({}, 1.0)])})
        out = _one_step(m, {0: 7}, TrialStreams(0).generation(1))
        assert out.sum() == 0

    def test_one_step_mean_matches_moment_row(self):
        # binomial error bars: 4 sigma over 1e5 replicas
        m = build_scenario("zd_translation", {"radius": 2, "rho": {0: 0.3, 2: 0.7}})
        R = 100_000
        means, _ = mean_curve(m, {0: 1}, 1, R, seed=11)
        M = moment_matrix(m)
        row = {v: float(M.csr[M.index[0], i]) for v, i in M.index.items()}
        # exact per-vertex variance from the law's atoms
        atoms = product_atoms(m.laws[0])
        for v in m.vertices:
            mu = row[v]
            var = sum(p * (dict(key).get(v, 0) - mu) ** 2 for key, p in atoms.items())
            se = math.sqrt(var / R) if var else 0.0
            assert abs(means[1][m.index[v]] - mu) <= 4 * se + 1e-12

    def test_equivalent_dynamics_chi_square(self):
        # direct configuration draws vs total-then-conditional draws must
        # produce the same one-step law (1% chi-square, three fixed laws)
        fixtures = [
            [({}, 0.3), ({0: 1}, 0.3), ({0: 1, 1: 1}, 0.4)],
            [({1: 2}, 0.5), ({0: 1}, 0.25), ({}, 0.25)],
            [({0: 3}, 0.2), ({0: 1, 1: 1}, 0.5), ({1: 1}, 0.3)],
        ]
        rng_a = np.random.default_rng(1234)
        rng_b = np.random.default_rng(5678)
        for atoms in fixtures:
            law = law_from(atoms)
            probs = np.array([p for _, p in law.atoms])
            n = 20_000
            direct = rng_a.choice(len(probs), size=n, p=probs)
            # second dynamics: draw H(f), then the configuration given the total
            totals = np.array([cfg.total for cfg, _ in law.atoms])
            drawn_totals = rng_b.choice(law.rho.values, size=n, p=law.rho.probs)
            conditional = {}
            for t in np.unique(totals):
                ids = np.nonzero(totals == t)[0]
                w = probs[ids] / probs[ids].sum()
                conditional[t] = (ids, w)
            two_stage = np.empty(n, dtype=int)
            for t, (ids, w) in conditional.items():
                mask = drawn_totals == t
                two_stage[mask] = rng_b.choice(ids, size=int(mask.sum()), p=w)
            table = np.array([np.bincount(direct, minlength=len(probs)),
                              np.bincount(two_stage, minlength=len(probs))])
            _, pval, _, _ = chi2_contingency(table[:, table.sum(axis=0) > 0])
            assert pval > 0.01


class TestEngineDistribution:
    def test_product_one_step_configuration_law(self):
        # the stepping engine's one-step configuration distribution must match
        # the law's enumerated atoms (chi-square at 1%)
        from scipy.stats import chisquare
        m = build_scenario("zd_translation", {"radius": 2, "rho": {0: 0.5, 2: 0.5}})
        law = m.laws[0]
        expected = product_atoms(law)
        counts = {k: 0 for k in expected}
        R = 40_000
        # batch R independent replicas of a single one-step trial
        from brwlab.simulate import _advance
        import numpy as np
        mat = np.zeros((R, 1, m.size), dtype=np.int64)
        mat[:, 0, m.index[0]] = 1
        rng = TrialStreams(424242).generation(1)
        out = _advance(mat, m, rng)[:, 0]
        for row in out:
            key = tuple((v, int(c)) for v, c in zip(m.vertices, row) if c)
            counts[key] = counts.get(key, 0) + 1
        assert set(counts) == set(expected)
        obs = np.array([counts[k] for k in sorted(expected)])
        exp = np.array([expected[k] * R for k in sorted(expected)])
        _, pval = chisquare(obs, exp)
        assert pval > 0.01

    def test_window_survival_matches_fixed_point(self):
        # end-to-end: MC survival frequency on a multi-vertex window sits in
        # the CI around 1 - qbar(0) from the fixed-point iteration
        from brwlab.genfun import iterate_extinction
        m = build_scenario("zd_translation", {"radius": 8})
        q, _ = iterate_extinction(m, "global")
        est = estimate_survival(m, {0: 1}, 150, 1500, seed=55, hard_cap=10 ** 4)
        assert est.ci_low <= 1.0 - q[m.index[0]] <= est.ci_high


class TestTruncatedStep:
    def test_contact_process_pins_doubling(self):
        m = doubling_model()
        o, = run_coupled_trials(m, [1], {0: 1}, 5, target=0)
        assert o.status == "completed" and o.visits_to_target == 5
        assert o.peak_population == 1 and o.total_born == 6     # one particle per generation

    def test_infinite_cap_matches_plain_step(self):
        m = build_scenario("zd_translation", {"radius": 4})
        a = _one_step(m, {0: 3}, TrialStreams(9).generation(1))
        b, = run_coupled_trials(m, [math.inf], {0: 3}, 1, seed=9)
        assert b.total_born == 3 + a.sum() and b.peak_population == max(3, a.sum())

    def test_cap_after_summing(self):
        # two parents each sending two children to one site: cap 3 keeps 3
        laws = {0: law_from([({1: 2}, 1.0)]), 1: law_from([({}, 1.0)])}
        m = BrwModel((0, 1), laws)
        o, = run_coupled_trials(m, [3], {0: 2}, 1, target=1)
        assert o.visits_to_target == 1 and o.total_born == 2 + 3


class TestCoupledStep:
    def test_identity_coupling_equal_forever(self):
        m = build_scenario("zd_translation", {"radius": 5})
        pair = np.stack([_check_run(m, {0: 2}, 1, 1, 0)] * 2)[None]
        streams = TrialStreams(3)
        for gen in range(1, 15):
            pair = _advance(pair, m, streams.generation(gen))
            assert np.array_equal(pair[0, 0], pair[0, 1])

    def test_restriction_coupling_confines_lower(self):
        m = build_scenario("zd_translation", {"radius": 6})
        keep = frozenset(range(-2, 3))
        mask = RestrictionCoupling(keep).mask(m)
        pair = np.stack([_check_run(m, {0: 2}, 1, 1, 0)] * 2)[None]
        streams = TrialStreams(5)
        for gen in range(1, 12):
            pair = _advance(pair, m, streams.generation(gen), [None, mask])
            up, lo = pair[0]
            assert np.all(lo <= up)
            outside = [m.index[v] for v in m.vertices if v not in keep]
            assert lo[outside].sum() == 0

    def test_caps_dominance_random_models(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m = build_scenario("zd_translation", {"radius": 4, "rho": {0: 0.3, 3: 0.7}})
            outs = run_coupled_trials(m, [1, 5, math.inf], {0: 2}, 25,
                                      seed=trial, hard_cap=10 ** 4)
            # run_coupled_trials asserts domination internally every step
            assert [o.cap for o in outs] == [1, 5, math.inf]


class TestTrials:
    def test_same_seed_identical_outcomes(self):
        m = build_scenario("zd_translation", {"radius": 5})
        a = run_survival_trial(m, {0: 1}, 40, target=0, seed=12, replica=7, hard_cap=10 ** 4)
        b = run_survival_trial(m, {0: 1}, 40, target=0, seed=12, replica=7, hard_cap=10 ** 4)
        assert a == b

    def test_deterministic_doubling_outcome(self):
        m = doubling_model()
        o = run_survival_trial(m, {0: 1}, 12, target=0, hard_cap=10 ** 6)
        assert o.alive and o.status == "completed"
        assert o.visits_to_target == 12
        assert o.peak_population == 2 ** 12

    def test_subcritical_dies(self):
        m = build_scenario("gw", {"rho": {0: 0.75, 2: 0.25}})
        est = estimate_survival(m, {0: 1}, 200, 400, seed=5)
        assert est.frequency < 0.02

    def test_overflow_reported_alive(self):
        m = doubling_model()
        o = run_survival_trial(m, {0: 1}, 100, hard_cap=1000)
        assert o.status == "overflow"
        assert o.alive
        assert o.generations < 100

    def test_horizon_zero(self):
        m = doubling_model()
        est = estimate_survival(m, {0: 1}, 0, 10)
        assert est.frequency == 1.0

    def test_gw_survival_frequency_matches_fixed_point(self):
        from brwlab.genfun import iterate_extinction
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        q, _ = iterate_extinction(m, "global")
        est = estimate_survival(m, {0: 1}, 300, 2000, seed=31, hard_cap=10 ** 4)
        assert est.ci_low <= 1.0 - q[0] <= est.ci_high

    def test_geometric_mean_two_frequency_is_half(self):
        from brwlab.genfun import counterpart_model
        from brwlab.spectral import MomentMatrix
        import numpy as np
        m = counterpart_model(MomentMatrix(np.array([[1.0]]), (0,)), 2.0)
        est = estimate_survival(m, {0: 1}, 300, 2000, seed=8, hard_cap=10 ** 4)
        assert est.ci_low <= 0.5 <= est.ci_high

    def test_total_born_bounded_by_shifted_gw(self):
        # ever-born totals are stochastically below a single-site process
        # whose child count is the dominating law shifted up by one
        from brwlab.core import dominating_law
        m = build_scenario("zd_translation", {"radius": 6, "rho": {0: 0.5, 2: 0.5}})
        rho = dominating_law(m)
        mean_shift = rho.mean + 1.0
        n = 6
        bound = sum(mean_shift ** k for k in range(n + 1))
        outs = [run_survival_trial(m, {0: 1}, n, seed=77, replica=r, hard_cap=10 ** 5)
                for r in range(2000)]
        born = np.array([o.total_born for o in outs], dtype=float)
        se = born.std(ddof=1) / math.sqrt(len(born))
        assert born.mean() <= bound + 4 * se


def _wilson(successes, n, z):
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


class TestSurvivalLaw:
    """Monte Carlo survival frequencies against the exact finite-horizon law
    1 - (G^T(0))(x0).  Seeds, replica count and the z = 4 Wilson interval were
    fixed before the first run; a kernel that draws the wrong law fails
    here even when no digest pin moves."""

    @pytest.mark.parametrize("name, params, horizon, seed, oracle", [
        ("gw", {"rho": {0: 0.4, 2: 0.6}}, 20, 17, 0.33517),
        ("line_ex45", {"size": 64}, 30, 18, 0.74059),
    ])
    def test_frequency_brackets_exact_survival(self, name, params, horizon, seed, oracle):
        m = build_scenario(name, params)
        exact = survival_probability(m, 0, horizon)
        assert exact == pytest.approx(oracle, abs=5e-6)
        est = estimate_survival(m, {0: 1}, horizon, 4000, seed=seed)
        assert est.overflow_count == 0
        lo, hi = _wilson(round(est.frequency * 4000), 4000, 4.0)
        assert lo <= exact <= hi


class TestSweepMachinery:
    def test_monotone_in_cap_by_construction(self):
        m = build_scenario("zd_translation", {"radius": 8})
        caps = [1, 2, 8, math.inf]
        alive = {c: 0 for c in caps}
        for r in range(300):
            outs = run_coupled_trials(m, caps, {0: 1}, 60, target=0, seed=2, replica=r,
                                      hard_cap=10 ** 4)
            flags = [o.alive for o in outs]
            assert flags == sorted(flags)  # nondecreasing in the cap
            for c, o in zip(caps, outs):
                alive[c] += o.alive
        freqs = [alive[c] / 300 for c in caps]
        assert freqs == sorted(freqs)

    def test_inf_row_equals_standalone_baseline(self):
        m = build_scenario("zd_translation", {"radius": 8})
        for r in range(50):
            joint = run_coupled_trials(m, [2, math.inf], {0: 1}, 50, target=0,
                                       seed=4, replica=r, hard_cap=10 ** 4)[-1]
            solo = run_survival_trial(m, {0: 1}, 50, target=0, seed=4, replica=r,
                                      hard_cap=10 ** 4)
            assert joint.alive == solo.alive
            assert joint.visits_to_target == solo.visits_to_target
            assert joint.total_born == solo.total_born


class TestMeanCurve:
    def test_matches_expected_population(self):
        m = build_scenario("zd_translation", {"radius": 10})
        horizon, R = 6, 40_000
        means, samples = mean_curve(m, {0: 1}, horizon, R, seed=3, track=0)
        M = moment_matrix(m)
        for n in range(1, horizon + 1):
            expect = expected_population(M, {0: 1}, n)
            se = samples[:, n].std(ddof=1) / math.sqrt(R)
            i0 = m.index[0]
            assert abs(means[n][i0] - expect[i0]) <= 4 * se + 1e-9


class TestWilson:
    def test_wilson_contains_half(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi

    def test_wilson_extremes(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0 and hi < 0.05

    @pytest.mark.parametrize("successes, n", [(5, 3), (-1, 3), (1.5, 3), (1, 2.0), (True, 3)])
    def test_wilson_needs_whole_counts_with_successes_at_most_n(self, successes, n):
        # (5, 3) ended in "math domain error" and (-1, 3) in an interval below 0
        with pytest.raises(ModelError):
            wilson_interval(successes, n)


def _sha(data) -> str:
    if isinstance(data, np.ndarray):
        data = np.ascontiguousarray(data).tobytes()
    return hashlib.sha256(data).hexdigest()


class TestKernelPins:
    """Exact draws of the stepping kernel, recorded before the coupled-row and
    replica-batch engines were merged; any change to the draw order shows here."""

    def test_mean_curve_product_form(self):
        m = build_scenario("zd_translation", {"radius": 3})
        means, samples = mean_curve(m, {0: 1}, 6, 64, seed=5, track=0)
        assert means.shape == (7, 7) and samples.shape == (64, 7)
        assert _sha(means) == "60768e03dd7c9529831b86ae23bb18521fdb452f1412a4aadb9d6b1428779b65"
        assert _sha(samples) == "330bfbd3e0a0f77ac8f74fcdb5d1eb115cede5f4f8a18837d3f5d2f7f8a7a30b"

    def test_mean_curve_atom_laws(self):
        m = build_scenario("line_noext_irreducible", {"size": 6})
        means, samples = mean_curve(m, {0: 1}, 6, 64, seed=5, track=1)
        assert means.shape == (7, 6) and samples.shape == (64, 7)
        assert _sha(means) == "9e907a2285cb268005895283447c51a14e21460fd084f1ac0517b8167553962f"
        assert _sha(samples) == "9b13b098e2f393a8cbdd7a5280c2ac61e8a10a40a2fdc4950061e187f878da44"

    def test_mean_curve_interleaved_groups(self):
        # recorded while the draw blocks were still laid out group by group
        m = interleaved_model()
        assert [int(g.cols[0]) for g in _sampler(m)[0]] == [0, 1, 4]
        means, samples = mean_curve(m, {0: 1, 4: 2}, 6, 64, seed=9, track=4)
        assert means.shape == (7, 9) and samples.shape == (64, 7)
        assert _sha(means) == "dd3df7488ccb5942e537a330eb76f482654cf66195bd8eadb09e2fb7c94bc931"
        assert _sha(samples) == "d3ff53e4fb6fb91ed948aa62385c8849d7ed42046c089b43f45822a59e042775"

    def test_coupled_rows_with_caps_and_restrictions(self):
        line = build_scenario("zd_translation", {"radius": 5})
        win = RestrictionCoupling(frozenset(range(-2, 3)))
        outs = []
        for r in range(6):
            row = run_coupled_trials(line, [math.inf, 3, math.inf, 2], {0: 1}, 20, target=0,
                                     seed=3, replica=r, hard_cap=4000,
                                     couplings=[None, None, win, win])
            outs.append([(o.alive, o.visits_to_target, o.last_target_visit, o.peak_population,
                          o.total_born, o.status) for o in row])
        assert outs[0] == [(True, 10, 20, 2390, 7997, "completed"),
                           (True, 10, 20, 15, 218, "completed"),
                           (True, 10, 20, 272, 1215, "completed"),
                           (True, 10, 20, 6, 69, "completed")]
        assert _sha(repr(outs).encode()) == \
            "9a0a3f6da091adf73948e8b349778959ca6f48e7c837afb02ab550d5582efca1"

    def test_single_steps_on_atom_laws(self):
        # recorded from single coupled steps: a free row and a row capped at 2
        # and restricted to the window on shared draws, and a free row alone
        m = build_scenario("line_ex45", {"size": 8})
        mask = RestrictionCoupling(frozenset(range(0, 5))).mask(m)
        up = _check_run(m, {0: 3, 1: 2}, 1, 1, 0)
        lo = _check_run(m, {0: 2}, 1, 1, 0)
        free = up.copy()
        born = [up.sum(), lo.sum()]
        streams = TrialStreams(4)
        trace = []
        for gen in range(1, 9):
            up, lo = _advance(np.stack([up, lo])[None], m, streams.generation(gen), [None, mask])[0]
            lo = np.minimum(lo, 2)
            free = _advance(free[None, None], m, streams.generation(gen))[0, 0]
            born = [born[0] + up.sum(), born[1] + lo.sum()]
            trace.append((up.tolist(), lo.tolist(), free.tolist()))
        assert born == [37, 11]
        assert _sha(repr(trace).encode()) == \
            "bc6de034f7a07ceeff72a27156173137a1564b434032dc637507aeddd6cca090"

    @pytest.mark.xfail(strict=True, reason="Philox keys pass through float64, so small "
                                           "seeds collapse onto one stream")
    def test_distinct_seeds_give_distinct_streams(self):
        a = TrialStreams(7).generation(1).random(4)
        b = TrialStreams(8).generation(1).random(4)
        assert (a != b).any()


def _digest(outcomes) -> str:
    return _sha(repr([dataclasses.astuple(o) for o in outcomes]).encode())


_SEGMENTED = {"_SEGMENT_FLOOR": 0, "_SEGMENT_RATIO": 0}
_PER_DRAW = {"_SEGMENT_FLOOR": 2 ** 63}


@pytest.fixture(params=[None, {"_BATCH_DRAWS": 1}, {"_BATCH_DRAWS": 300}, {"_DRAW_BUDGET": 1000},
                        _SEGMENTED, _PER_DRAW, {**_SEGMENTED, "_DRAW_BUDGET": 1000}],
                ids=["default-budget", "one-replica-per-call", "budget-300", "chunk-1000",
                     "segmented", "per-draw", "segmented-chunk-1000"])
def draw_budget(request, monkeypatch):
    """Run a test at the default budgets; with every replica alone in its kernel
    call; with a batch budget that splits a batch mid-generation; with the
    kernel reading its draws in chunks of 1000 (7 or 64 where a test asks),
    which cut blocks and each replica's run of draws, so one site can span
    several chunks; and with every group call that can count by segment sums
    doing so, or none."""
    for name, value in (request.param or {}).items():
        monkeypatch.setattr(simulate, name, value)
    return request.param


def cdf_sizes_model():
    """A 12-cycle whose draw groups hold cdfs of 1, 2, 3 and 10 entries: product
    laws whose child-count and dispersal cdfs have that many entries at
    vertices 0-3, atom laws with that many atoms at vertices 4-7, and one
    product group of four vertices at 8-11."""
    ten = {k: 0.1 for k in range(10)}
    laws = {
        0: product_form_law(IntDistribution.from_dict({3: 1.0}), {1: 1.0}),
        1: product_form_law(IntDistribution.from_dict({0: 0.4, 2: 0.6}), {0: 0.5, 2: 0.5}),
        2: product_form_law(IntDistribution.from_dict({0: 0.3, 1: 0.3, 3: 0.4}),
                            {1: 0.2, 2: 0.3, 3: 0.5}),
        3: product_form_law(IntDistribution.from_dict(ten), {(3 + k) % 12: p for k, p in ten.items()}),
        4: law_from([({5: 1, 6: 1}, 1.0)]),
        5: law_from([({4: 1}, 0.5), ({6: 2}, 0.5)]),
        6: law_from([({}, 0.3), ({7: 1}, 0.3), ({5: 1, 7: 1}, 0.4)]),
        7: law_from([({(8 + k) % 12: 1 + k // 5}, 0.1) for k in range(10)]),
    }
    rho = IntDistribution.from_dict({0: 0.4, 2: 0.6})
    laws.update({x: product_form_law(rho, {x - 1: 0.5, (x + 1) % 12: 0.5}) for x in range(8, 12)})
    return BrwModel(tuple(range(12)), laws)


def _advance_cases():
    """(name, counts, model, rng, keep_masks) inputs of ``_advance``: product and
    atom groups, shared and per-replica streams, S > 1 rows that read
    prefixes of their blocks under keep masks, sites far above a chunk, cdfs
    of 1, 2, 3 and 10 entries, and one state on each side of the default
    choice between counting by segment sums and by per-draw indices."""
    line = build_scenario("zd_translation", {"radius": 5})          # three product groups
    mixed = interleaved_model()                    # two product groups and an atom group
    ex45 = build_scenario("line_ex45", {"size": 12})   # atom groups only
    gw = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
    sizes = cdf_sizes_model()
    short = build_scenario("zd_translation", {"radius": 3})
    pick = np.random.default_rng(2024)

    def rows(model, R, caps, masks):
        top = pick.integers(0, 40, (R, model.size))
        top[0, pick.integers(model.size)] = 300
        out = [np.minimum(top, c) * (1 if m is None else m) for c, m in zip(caps, masks)]
        return np.stack(out, axis=1)

    def streams(R, seed):
        return [TrialStreams(seed, r).generation(3) for r in range(R)]

    inner = np.arange(line.size) % 3 > 0
    left = np.arange(mixed.size) < 5
    half = np.arange(sizes.size) < 6
    big = np.full((1, 1, short.size), 12_000)
    return [
        ("product-per-replica", rows(line, 4, [2 ** 62, 3, 2 ** 62, 5], [None, None, inner, inner]),
         line, streams(4, 31), [None, None, inner, inner]),
        ("mixed-per-replica", rows(mixed, 3, [2 ** 62, 2, 2 ** 62], [None, None, left]),
         mixed, streams(3, 32), [None, None, left]),
        ("atoms-per-replica", rows(ex45, 3, [2 ** 62, 4], [None, None]), ex45, streams(3, 33),
         None),
        ("mixed-shared", rows(mixed, 5, [2 ** 62], [None]), mixed, TrialStreams(34).generation(1),
         None),
        ("atoms-shared", rows(ex45, 4, [2 ** 62, 6], [None, None]), ex45,
         TrialStreams(35).generation(1), None),
        ("gw-one-site", np.array([[[300], [41]], [[170], [170]]]), gw, streams(2, 36), None),
        ("gw-one-site-shared", np.array([[[300], [41]]]), gw, TrialStreams(37).generation(1),
         None),
        ("cdf-sizes-per-replica", rows(sizes, 3, [2 ** 62, 3, 2 ** 62], [None, None, half]),
         sizes, streams(3, 38), [None, None, half]),
        ("cdf-sizes-shared", rows(sizes, 2, [2 ** 62, 5], [None, None]), sizes,
         TrialStreams(39).generation(1), None),
        # 60,000 particles in the middle group's five sites: segment sums by default
        ("above-the-floor", np.concatenate([big, np.minimum(big, 5)], axis=1), short,
         TrialStreams(40).generation(1), None),
        # 40,000 there too, over 1,000 sites of 40: per-draw indices by default
        ("below-the-ratio", np.full((200, 1, short.size), 40), short,
         TrialStreams(41).generation(1), None),
        # each of the three groups holds more entries than a 7- or 64-entry
        # piece, and row 1 reads a prefix of each block
        ("mixed-shared-pieces", rows(mixed, 80, [2 ** 62, 3], [None, None]), mixed,
         TrialStreams(42).generation(1), None),
    ]


_ADVANCE_DIGESTS = {
    "product-per-replica": "02267bbaad0ba841ee5f9baa5e082915b8fdc532b5f76c3fff620f767e860b74",
    "mixed-per-replica": "2491808f2fb4fc10b5f46cee23e49ae4b1c658f54dfb228d03d34146831dba55",
    "atoms-per-replica": "bd9e6b3ca4342d3577248af8cc7c8f4000a22a20d829b0a0ba4e090156c3ab00",
    "mixed-shared": "023585f6df53c8a044255a3debe7ebe2bfd6392f7d277fa19541fdd9e84af476",
    "atoms-shared": "640e62784364c17ba91e39119bacbb818819089871989d4c7c1f998958eeebc6",
    "gw-one-site": "97dbc608b3c6823a2977de03c536ac7524edb0fb4dbd7fb7c6674f0e70622512",
    "gw-one-site-shared": "2b07e1c0afd998ae1b9a989ffb234367249f33a3c91f40ad775c2e806d03daf0",
    "cdf-sizes-per-replica": "0379090fff13abd318c3eb0a82320646fa2341ada863b26ac38172a8ad7cbd68",
    "cdf-sizes-shared": "0bfa88906b6db556e16abc69b317984988bfc2d90ee94e4f2af2040dc6e1530d",
    "above-the-floor": "e4197ef18b7e75ae39fcc7205860500c72581b054b025f12971f96759de5702b",
    "below-the-ratio": "6ce82f607caded795006603fb89afd9cf645163ecba4458377ba1919b1348436",
    "mixed-shared-pieces": "6cd55e7e54ce3517054216a064f157cf45f5cb06b5a0aae8048166b78c68c4f6",
}


class TestKernelChunks:
    """``_advance`` reads each group's draws in chunks at fixed positions of
    its stream and counts them by segment sums or by per-draw indices; its
    output must not depend on where the chunks fall or which way a group is
    counted.  The first seven digests were recorded before the kernel read
    its draws in chunks, the last before it stepped each group in pieces
    of at most _DRAW_BUDGET entries, the others before it counted by
    segment sums."""

    @pytest.mark.parametrize("draw_budget", [
        None, {"_DRAW_BUDGET": 7}, {"_DRAW_BUDGET": 64}, _SEGMENTED,
        {**_SEGMENTED, "_DRAW_BUDGET": 7}, {**_SEGMENTED, "_DRAW_BUDGET": 64}, _PER_DRAW,
    ], ids=["default-budget", "chunk-7", "chunk-64", "segmented", "segmented-chunk-7",
            "segmented-chunk-64", "per-draw"], indirect=True)
    @pytest.mark.parametrize("name", list(_ADVANCE_DIGESTS))
    def test_chunks_do_not_move_a_byte(self, draw_budget, name):
        counts, model, rng, masks = {c[0]: c[1:] for c in _advance_cases()}[name]
        out = simulate._advance(counts, model, rng, masks)
        assert out is counts                      # stepped in place
        assert out.shape == counts.shape and out.dtype == np.int64
        assert _sha(out.tobytes()) == _ADVANCE_DIGESTS[name]

    @pytest.mark.parametrize("name", ["mixed-per-replica", "atoms-shared"])
    def test_a_state_that_is_not_c_contiguous_is_refused(self, name):
        # a reshape of such a state would copy it, and the arrivals scattered
        # into the copy would be lost
        counts, model, rng, masks = {c[0]: c[1:] for c in _advance_cases()}[name]
        held = counts.copy()
        view = counts.transpose(1, 0, 2).copy().transpose(1, 0, 2)
        with pytest.raises(ValueError, match="C-contiguous"):
            simulate._advance(view, model, rng, masks)
        assert np.array_equal(view, held)         # refused before anything is written

    @pytest.mark.parametrize("name, segmented", [("above-the-floor", True),
                                                 ("below-the-ratio", False)])
    def test_default_choice_of_counting(self, name, segmented, monkeypatch):
        calls = []
        seen = simulate._seen
        monkeypatch.setattr(simulate, "_seen", lambda *a: calls.append(a[2].size) or seen(*a))
        counts, model, rng, masks = {c[0]: c[1:] for c in _advance_cases()}[name]
        simulate._advance(counts, model, rng, masks)
        assert bool(calls) == segmented


class TestTrialBatch:
    """A batch steps its live replicas together, each on its own stream; every
    outcome field must equal the one-at-a-time run.  The digests were recorded
    from per-replica run_coupled_trials calls before replicas were batched."""

    def test_gw_overflow_and_extinction(self, draw_budget, monkeypatch):
        widths = []
        advance = simulate._advance

        def spy(counts, *args):
            widths.append(counts.shape[0])
            return advance(counts, *args)

        monkeypatch.setattr(simulate, "_advance", spy)
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        est = estimate_survival(m, {0: 1}, 500, 200, seed=20240601, hard_cap=3000)
        outs = est.outcomes
        assert _digest(outs) == "776d6279287b7206e08ebfb43110be4de80a0e6a50c5d1038f1965107a13afe3"
        assert len({o.generations for o in outs if o.status == "overflow"}) > 1
        assert len({o.generations for o in outs if o.status == "extinct"}) > 1
        if draw_budget == {"_BATCH_DRAWS": 1}:
            assert set(widths) == {1}
        else:   # a chunk boundary inside the batch: wide calls and lone replicas
            assert max(widths) > 1 and min(widths) == 1

    def test_line_ex45_atom_laws(self, draw_budget):
        m = build_scenario("line_ex45", {"size": 64})
        est = estimate_survival(m, {0: 1}, 150, 32, seed=6)
        assert _digest(est.outcomes) == \
            "8639e575e96e039580365faf7888377175564a05e9ddcf13843fd1922a9e4e33"

    def test_line_ex45_capped_and_restricted_rows(self, draw_budget):
        # atom-law vertices read by a capped and a restricted row in a wide batch
        m = build_scenario("line_ex45", {"size": 64})
        win = RestrictionCoupling(frozenset(range(0, 8)))
        batch = run_trial_batch(m, [2, math.inf, math.inf], {0: 6, 3: 4, 10: 3}, 80, range(40),
                                target=0, seed=13, couplings=[None, None, win])
        outs = [o for outs in batch for o in outs]
        assert {o.total_born for o in outs[0::3]} != {o.total_born for o in outs[1::3]}
        assert _digest(outs) == "c7867d9a4cf0a1079273e55366186a9f66ebd8a68a271318747a8121f2546dd9"

    def test_interleaved_groups_capped_and_restricted_rows(self, draw_budget):
        # recorded while the draw blocks were still laid out group by group
        m = interleaved_model()
        win = RestrictionCoupling(frozenset(range(0, 5)))
        batch = run_trial_batch(m, [2, math.inf, math.inf], {0: 2, 4: 3, 5: 1}, 14, range(12),
                                target=4, seed=11, hard_cap=3000, couplings=[None, None, win])
        outs = [o for outs in batch for o in outs]
        assert {o.status for o in outs} == {"completed", "extinct", "overflow"}
        assert _digest(outs) == "b30fb6bf89982cb5780ac3dc2a42759542eeaef4a1997a1a6a819e780da53d33"

    def test_truncation_sweep_with_target(self, draw_budget):
        m = build_scenario("zd_translation", {"radius": 8})
        res = truncation_sweep(m, [1, 2, 8], {0: 1}, 60, 100, target=0, seed=2,
                               hard_cap=10 ** 4)
        outs = [o for cap_outs in res.outcomes.values() for o in cap_outs]
        assert any(o.visits_to_target for o in outs)
        assert _digest(outs) == "16e83a62c140dbc404a08b3ace3fcbb9420da03fae4b41fbafc3170bb53b7513"

    @pytest.mark.parametrize("caps, seed, want", [
        ([math.inf, math.inf], 502,
         "8fd7f6a34cdb56068b0f04c361311bf6336dd42f38b82682f8b87fff7b0b9ca4"),
        ([5, math.inf], 503,
         "925ab6798d471cd1ab4dd0dd95c664f069ba23ab2206493952bcb82882e17038"),
    ])
    def test_restriction_pairs(self, draw_budget, caps, seed, want):
        m = build_scenario("zd_translation", {"radius": 6})
        win = RestrictionCoupling(frozenset(range(-2, 3)))
        batch = run_trial_batch(m, caps, {0: 1}, 25, range(300), seed=seed, hard_cap=4000,
                                couplings=[win, None])
        assert _digest([o for outs in batch for o in outs]) == want

    def test_generations_after_a_row_ends(self, draw_budget, monkeypatch):
        # the middle row (capped at 1 and restricted) ends in every replica
        # while the others live on, so later generations step a copy of the
        # rows still live; its arrivals must land back in the batch state
        widths = []
        advance = simulate._advance

        def spy(counts, *args):
            widths.append(counts.shape[1])
            return advance(counts, *args)

        monkeypatch.setattr(simulate, "_advance", spy)
        m = build_scenario("zd_translation", {"radius": 5, "rho": {0: 0.4, 2: 0.6}})
        caps, win = [math.inf, 1, 4], RestrictionCoupling(frozenset(range(-1, 2)))
        batch = run_trial_batch(m, caps, {0: 2}, 30, range(16), target=0, seed=21,
                                hard_cap=2000, couplings=[None, win, None])
        outs = [o for outs in batch for o in outs]
        assert set(widths) == {2, 3} and {o.status for o in outs[1::3]} == {"extinct"}
        assert _digest(outs) == "3187a178d76f11982b129b3b9b0ce1db526b73a4a7b95fec3dfaa277b750167e"
        for r in (0, 3, 5):
            assert batch[r] == run_coupled_trials(m, caps, {0: 2}, 30, target=0, seed=21,
                                                  replica=r, hard_cap=2000,
                                                  couplings=[None, win, None])

    def test_batch_of_replica_subset_equals_single_runs(self):
        m = build_scenario("zd_translation", {"radius": 5})
        reps = [9, 2, 40]
        batch = run_trial_batch(m, [2, math.inf], {0: 1}, 30, reps, target=0, seed=8,
                                hard_cap=500)
        for r, outs in zip(reps, batch):
            assert outs == run_coupled_trials(m, [2, math.inf], {0: 1}, 30, target=0, seed=8,
                                              replica=r, hard_cap=500)


def _list_key_generator(salt, seed, replica, n):
    key = [(seed & 0xFFFFFFFFFFFFFFFF) ^ salt, ((replica & 0xFFFFFFFF) << 32) | (n & 0xFFFFFFFF)]
    return np.random.Generator(np.random.Philox(key=key))


class TestStreamKeys:
    """Re-keyed pool generators draw what a Philox built from the list key draws."""

    @pytest.mark.parametrize("salt", [_TRIAL_SALT, _PERC_SALT])
    def test_pool_and_philox_match_list_keys(self, salt):
        replicas = (0, 2 ** 21 + 3, 2 ** 31 + 5)
        for seed in (0, 1, 2, 12345, 2 ** 64 - 1):
            pool = _StreamPool(salt, seed)
            for n in (0, 1, 7, 500, 2 ** 32 - 1):
                for r, rng in zip(replicas, pool.streams(replicas, n)):
                    want = _list_key_generator(salt, seed, r, n).random(6)
                    assert np.array_equal(rng.random(6), want), (seed, r, n)
                    assert np.array_equal(_philox(salt, seed, r, n).random(6), want)

    def test_random_triples(self):
        draw = np.random.default_rng(2024)
        seeds = draw.integers(0, 2 ** 64, 3000, dtype=np.uint64).tolist()
        reps = draw.integers(0, 2 ** 32, 3000, dtype=np.uint64).tolist()
        gens = draw.integers(0, 2 ** 32, 3000, dtype=np.uint64).tolist()
        for seed, r, n in zip(seeds, reps, gens):
            rng, = _StreamPool(_TRIAL_SALT, seed).streams([r], n)
            assert rng.random() == _list_key_generator(_TRIAL_SALT, seed, r, n).random()


class TestStreamOffsets:
    """A pool stream started at Philox block k draws the full stream from draw 4k on."""

    @pytest.mark.parametrize("salt", [_TRIAL_SALT, _PERC_SALT])
    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_block_offset_skips_whole_blocks(self, salt, seed):
        # with these seeds, replicas 0 and 2**31 + 5 fall in both key classes:
        # one rounded through float64, one not
        replicas = np.array([0, 2 ** 31 + 5], dtype=np.uint64)
        pool = _StreamPool(salt, seed)
        for k in (0, 1, 225):
            rngs = pool.streams(replicas, 9, np.array([k, k]))
            for r, rng in zip(replicas.tolist(), rngs):
                full = _list_key_generator(salt, seed, r, 9).random(4 * k + 10)
                assert np.array_equal(rng.random(10), full[4 * k:]), (r, k)
                bits = _list_key_generator(salt, seed, r, 9).bit_generator
                bits.advance(k)
                assert np.array_equal(np.random.Generator(bits).random(10), full[4 * k:])
        # the next call without offsets starts every stream at draw 0 again
        for r, rng in zip(replicas.tolist(), pool.streams(replicas, 9)):
            assert np.array_equal(rng.random(3), _list_key_generator(salt, seed, r, 9).random(3))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(0, 9), st.integers(0, 9), st.integers(1, 13), st.integers(0, 2),
           st.sampled_from([_TRIAL_SALT, simulate._BATCH_SALT]))
    @example(3, 2, 5, 0, _TRIAL_SALT)        # from word 5, across the block boundary at 8
    @example(4, 4, 4, 1, _TRIAL_SALT)        # whole blocks on both sides
    def test_cursor_reads_on_n_words_past_a_generator(self, k, n, size, block, salt):
        # a generator that starts at Philox block `block` and has drawn k
        # words; the cursor n words past it reads the stream from word k + n
        # on, and the generator itself does not move
        rng, = _StreamPool(salt, 5).streams([3], 7, np.array([block]))
        full = _list_key_generator(salt, 5, 3, 7).random(4 * block + 40)[4 * block:]
        rng.random(k)
        cursor = simulate._cursor(rng, n)
        assert np.array_equal(cursor.random(size), full[k + n:k + n + size])
        assert np.array_equal(rng.random(size), full[k:k + size])

    def test_threads_keep_their_own_slots(self):
        # pools share Philox slots within a thread only, so runs in two
        # threads cannot re-key each other's generators
        from concurrent.futures import ThreadPoolExecutor

        def first_slot():
            return _StreamPool(_TRIAL_SALT, 0).streams([0], 1)[0]

        with ThreadPoolExecutor(1) as ex:
            other = ex.submit(first_slot).result()
        assert first_slot() is first_slot() and other is not first_slot()


class TestRunValidation:
    """Inputs a Monte Carlo run cannot use raise ModelError, not a traceback or output."""

    @pytest.mark.parametrize("run", [
        lambda m: mean_curve(m, {0: 1}, 8, 10 ** 12),
        lambda m: mean_curve(m, {0: 1}, 10 ** 9, 10),
        lambda m: mean_curve(m, {0: 1}, 10 ** 6, 1000, track=0),
        lambda m: estimate_survival(m, {0: 1}, 5, 10 ** 10),
        lambda m: truncation_sweep(m, [1], {0: 1}, 5, 10 ** 10),
        lambda m: run_trial_batch(m, [1, 2, math.inf], {0: 1}, 5, range(3 * 10 ** 6)),
    ], ids=["curve-replicas", "curve-means", "curve-samples", "survival-replicas",
            "sweep-replicas", "batch-rows"])
    def test_oversized_dense_state_fails_fast(self, run):
        # each would allocate over 2**27 cells (or a 10**10-entry replica list)
        m = build_scenario("zd_translation", {"radius": 10})
        start = time.perf_counter()
        with pytest.raises(ModelError, match=r"2\*\*27|134217729"):
            run(m)
        assert time.perf_counter() - start < 1.0

    def test_outcome_records_count_in_the_cell_bound(self):
        # 10**7 GW replicas hold 10**7 state cells, but their outcome records
        # would need about 14 GB; checked by the guard alone, which allocates
        # nothing, so a guard that let them through could not exhaust memory
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        most = simulate._MAX_CELLS // (m.size + simulate._RECORD_CELLS)   # 762,600
        _check_run(m, {0: 1}, 5, most, 0, record_cells=simulate._RECORD_CELLS)
        for replicas in (most + 1, 10 ** 7):
            with pytest.raises(ModelError, match="outcome records"):
                _check_run(m, {0: 1}, 5, replicas, 0, record_cells=simulate._RECORD_CELLS)

    @pytest.mark.parametrize("run, rows", [
        (lambda m, n: estimate_survival(m, {0: 1}, 3, n), 1),
        (lambda m, n: truncation_sweep(m, [2], {0: 1}, 3, n), 2),
        (lambda m, n: run_trial_batch(m, [1, 2, math.inf], {0: 1}, 3, range(n)), 3),
    ], ids=["survival", "sweep", "batch"])
    def test_both_sides_of_the_record_bound(self, run, rows, monkeypatch):
        # the runs that return records count them: under a bound of exactly
        # 40 replicas' state cells and records, 40 run and 41 are refused
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        monkeypatch.setattr(simulate, "_MAX_CELLS",
                            40 * rows * (m.size + simulate._RECORD_CELLS))
        run(m, 40)
        with pytest.raises(ModelError, match="outcome records"):
            run(m, 41)

    def test_replicas_below_one(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="replica"):
            truncation_sweep(m, [1], {0: 1}, 5, 0)
        with pytest.raises(ModelError, match="replica"):
            estimate_survival(m, {0: 1}, 5, 0)
        with pytest.raises(ModelError, match="replica"):
            mean_curve(m, {0: 1}, 5, 0)
        with pytest.raises(ModelError, match="replica"):
            oriented_percolation(PercolationConfig(p=0.5, horizon=3), 0)

    def test_negative_horizon(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="horizon"):
            run_coupled_trials(m, [1, math.inf], {0: 1}, -1)
        with pytest.raises(ModelError, match="horizon"):
            truncation_sweep(m, [1], {0: 1}, -1, 4)
        with pytest.raises(ModelError, match="horizon"):
            mean_curve(m, {0: 1}, -1, 4)

    def test_cap_below_one(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="cap"):
            run_coupled_trials(m, [0.5, math.inf], {0: 1}, 5)
        with pytest.raises(ModelError, match="cap"):
            estimate_survival(m, {0: 1}, 5, 3, cap=0)
        with pytest.raises(ModelError, match="cap"):
            truncation_sweep(m, [0, 2], {0: 1}, 5, 3)

    @pytest.mark.parametrize("run", [
        lambda m: run_coupled_trials(m, [math.nan, math.inf], {0: 1}, 5),
        lambda m: estimate_survival(m, {0: 1}, 5, 3, cap=math.nan),
        lambda m: truncation_sweep(m, [2, math.nan], {0: 1}, 5, 3),
    ], ids=["run_coupled_trials", "estimate_survival", "truncation_sweep"])
    def test_nan_cap(self, run):
        with pytest.raises(ModelError, match="cap"):
            run(build_scenario("zd_translation", {"radius": 2}))

    @pytest.mark.parametrize("caps", [[2, 2.5], [1.5], [True], [2, "4"]],
                             ids=["2.5", "1.5", "bool", "text"])
    def test_cap_not_a_whole_number(self, caps):
        # [2, 2.5] ran two rows labelled 2 with equal frequencies, [1.5] ran
        # as cap 1, True as cap 1 and "4" as cap 4
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="cap"):
            truncation_sweep(m, caps, {0: 1}, 5, 3)
        with pytest.raises(ModelError, match="cap"):
            estimate_survival(m, {0: 1}, 5, 3, cap=caps[-1])
        with pytest.raises(ModelError, match="cap"):
            run_coupled_trials(m, [*caps, math.inf], {0: 1}, 5)

    def test_cap_too_large_for_a_float(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="cap"):
            truncation_sweep(m, [10 ** 400], {0: 1}, 5, 3)
        with pytest.raises(ModelError, match="cap"):
            run_coupled_trials(m, [2, 10 ** 400], {0: 1}, 5)

    def test_cap_beyond_int64_clips_nothing(self):
        m = build_scenario("zd_translation", {"radius": 2})
        res = truncation_sweep(m, [2 ** 63, 1e19], {0: 1}, 8, 20, seed=4)
        runs = [[(o.alive, o.visits_to_target, o.peak_population, o.total_born, o.status)
                 for o in res.outcomes[c]] for c in (2 ** 63, 1e19, math.inf)]
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("hard_cap", [-5, 0, 2.5, math.inf])
    def test_hard_cap_not_a_whole_number_at_least_one(self, hard_cap):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="hard_cap"):
            truncation_sweep(m, [1], {0: 1}, 5, 3, hard_cap=hard_cap)
        with pytest.raises(ModelError, match="hard_cap"):
            run_coupled_trials(m, [1, math.inf], {0: 1}, 5, hard_cap=hard_cap)

    @pytest.mark.parametrize("key", ["hard_cap", "horizon", "replicas"])
    def test_bool_is_not_a_whole_number(self, key):
        # bool is a numbers.Integral, so True once ran as a hard cap, horizon or count of 1
        m = build_scenario("zd_translation", {"radius": 2})
        args = {"hard_cap": 10, "horizon": 5, "replicas": 3, key: True}
        with pytest.raises(ModelError, match=key):
            truncation_sweep(m, [1], {0: 1}, args["horizon"], args["replicas"],
                             hard_cap=args["hard_cap"])

    @pytest.mark.parametrize("run", [
        lambda m: truncation_sweep(m, [], {0: 1}, 5, 3),
        lambda m: run_trial_batch(m, [], {0: 1}, 5, [0]),
    ], ids=["truncation_sweep", "run_trial_batch"])
    def test_empty_cap_list(self, run):
        with pytest.raises(ModelError, match="cap"):
            run(build_scenario("zd_translation", {"radius": 2}))

    @pytest.mark.parametrize("replica", [2 ** 32, -1, 2 ** 40 + 7, 1.0])
    def test_replica_index_outside_the_stream_key(self, replica):
        # the key packs the index in 32 bits: 2**32 would reuse replica 0's stream
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="replica index"):
            TrialStreams(5, replica)
        with pytest.raises(ModelError, match="replica index"):
            run_trial_batch(m, [math.inf], {0: 1}, 3, [0, replica], seed=5)
        with pytest.raises(ModelError, match="replica index"):
            run_survival_trial(m, {0: 1}, 3, seed=5, replica=replica)

    @pytest.mark.parametrize("seed", [1.5, 2 ** 64 + 1, 2 ** 64, -1, "a", True])
    def test_seed_outside_the_stream_key(self, seed):
        # 1.5 ran seed 1's stream and recorded 1.5, 2**64 + 1 shared seed 1's
        # stream, -1 shared seed 2**64 - 1's, and "a" ended in a ValueError
        m = build_scenario("zd_translation", {"radius": 2})
        runs = [lambda: TrialStreams(seed),
                lambda: run_coupled_trials(m, [math.inf], {0: 1}, 5, seed=seed),
                lambda: estimate_survival(m, {0: 1}, 5, 3, seed=seed),
                lambda: truncation_sweep(m, [1], {0: 1}, 5, 3, seed=seed),
                lambda: mean_curve(m, {0: 1}, 2, 4, seed=seed),
                lambda: oriented_percolation(PercolationConfig(p=0.5, horizon=3), 2, seed=seed)]
        for run in runs:
            with pytest.raises(ModelError, match="seed"):
                run()

    def test_seed_at_the_top_of_the_key(self):
        m = build_scenario("zd_translation", {"radius": 2})
        top = 2 ** 64 - 1
        assert TrialStreams(np.uint64(top)).seed == top
        o, = run_coupled_trials(m, [math.inf], {0: 1}, 3, seed=top)
        assert o.seed == top

    @pytest.mark.parametrize("n", [2 ** 32, -1, 2 ** 40, 1.0, 1.5])
    def test_generation_outside_the_stream_key(self, n):
        # the key packs n in 32 bits: 2**32 would replay generation 0
        with pytest.raises(ModelError, match="generation"):
            TrialStreams(5).generation(n)

    def test_generation_at_the_top_of_the_key(self):
        top = TrialStreams(5).generation(np.uint32(2 ** 32 - 1)).random(3)
        assert np.array_equal(top, _philox(_TRIAL_SALT, 5, 0, 2 ** 32 - 1).random(3))

    @pytest.mark.parametrize("count", [1.5, 1.0, math.nan, -1, 2 ** 63, 2 ** 70])
    def test_start_counts_must_be_whole(self, count):
        # 1.5 became 1 particle, NaN and 2**70 ended in numpy errors
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="occupation count"):
            estimate_survival(m, {0: count}, 3, 2)

    def test_start_counts_total_below_2_63(self):
        # each count is valid, but an int64 sum of them wraps to -2**63,
        # which would read as extinct at generation 0
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="total"):
            mean_curve(m, {0: 2 ** 62, 1: 2 ** 62}, 3, 2)
        with pytest.raises(ModelError, match="total"):
            run_survival_trial(m, {0: 2 ** 62, 1: 2 ** 62}, 3)
        with pytest.raises(ModelError, match="total"):
            run_trial_batch(m, [math.inf], {0: 2 ** 62, 1: 2 ** 62}, 3, [0])
        top = run_survival_trial(m, {0: 2 ** 62, 1: 2 ** 62 - 1}, 0)
        assert top.status == "completed" and top.total_born == 2 ** 63 - 1

    def test_start_counts_accept_numpy_integers(self):
        m = build_scenario("zd_translation", {"radius": 2})
        counts = _check_run(m, {0: np.int64(3), 1: np.uint8(2), 2: 0}, 0, 1, 0)
        assert counts.tolist() == [0, 0, 3, 2, 0]
        assert run_survival_trial(m, {0: np.int64(3), 1: np.uint8(2), 2: 0}, 0).total_born == 5

    def test_replica_index_at_the_top_of_the_key(self):
        m = build_scenario("zd_translation", {"radius": 2})
        top = 2 ** 32 - 1
        assert TrialStreams(5, np.uint32(top)).replica == top
        batch = run_trial_batch(m, [math.inf], {0: 1}, 3, [np.int64(top)], seed=5)
        assert batch[0][0].replica == top

    @pytest.mark.parametrize("run, what", [
        (lambda m: mean_curve(m, {0: 1}, 2, 2.5), "replicas"),
        (lambda m: mean_curve(m, {0: 1}, 2, math.nan), "replicas"),
        (lambda m: mean_curve(m, {0: 1}, 2.5, 4), "horizon"),
        (lambda m: estimate_survival(m, {0: 1}, 5, replicas=2.5), "replicas"),
        (lambda m: run_survival_trial(m, {0: 1}, horizon=2.5), "horizon"),
        (lambda m: run_coupled_trials(m, [2, math.inf], {0: 1}, math.nan), "horizon"),
        (lambda m: truncation_sweep(m, [1], {0: 1}, 5, 2.5), "replicas"),
        (lambda m: oriented_percolation(PercolationConfig(p=0.5, horizon=3), 2.5), "replicas"),
    ], ids=["mean_curve-replicas", "mean_curve-nan-replicas", "mean_curve-horizon",
            "estimate_survival", "run_survival_trial", "run_coupled_trials", "truncation_sweep",
            "oriented_percolation"])
    def test_non_integral_replicas_and_horizons(self, run, what):
        with pytest.raises(ModelError, match=what):
            run(build_scenario("zd_translation", {"radius": 2}))

    def test_numpy_integer_replicas_and_horizons(self):
        m = build_scenario("zd_translation", {"radius": 2})
        means, _ = mean_curve(m, {0: 1}, np.int64(2), np.int32(4), seed=1)
        assert np.array_equal(means, mean_curve(m, {0: 1}, 2, 4, seed=1)[0])
        est = estimate_survival(m, {0: 1}, np.int64(3), np.uint8(3), seed=1)
        assert est.replicas == 3 and len(est.outcomes) == 3

    def test_unknown_vertex(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="99"):
            run_coupled_trials(m, [math.inf], {99: 1}, 5)
        with pytest.raises(ModelError, match="99"):
            estimate_survival(m, {99: 1}, 5, 3)
        with pytest.raises(ModelError, match="track"):
            mean_curve(m, {0: 1}, 3, 4, track=99)
        with pytest.raises(ModelError, match="99"):     # was a KeyError
            run_coupled_trials(m, [math.inf, math.inf], {0: 1}, 5,
                               couplings=[RestrictionCoupling(frozenset({0, 99})), None])

    @pytest.mark.parametrize("couplings", [[None], ["window", None], [frozenset({0}), None]])
    def test_coupling_entries(self, couplings):
        # one entry per cap, each None or a RestrictionCoupling; any other was read as None
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="coupling"):
            run_coupled_trials(m, [math.inf, math.inf], {0: 1}, 5, couplings=couplings)

    def test_start_must_be_a_dict(self):
        m = build_scenario("zd_translation", {"radius": 2})
        with pytest.raises(ModelError, match="start"):
            run_trial_batch(m, [math.inf], [0, 0, 1, 0, 0], 3, [0])


def test_atom_configurations_are_sparse():
    # one (atoms x reached vertices) count table per atom vertex; a dense
    # (atoms x V) table would hold 8·A·V² bytes in total
    m = build_scenario("line_ex45", {"size": 400})
    atoms = [g for g in _sampler(m)[0] if isinstance(g, simulate._AtomGroup)]
    assert len(atoms) == m.size
    assert all(g.configs.shape == (g.cdf.size, g.targets.size) and g.targets.size <= 2
               for g in atoms)
    assert sum(g.configs.nbytes for g in atoms) < 100_000


def _binary_search(cdf, u):
    return np.minimum(np.searchsorted(cdf, u, "right"), cdf.size - 1)


@st.composite
def _cdfs(draw):
    """Nondecreasing cdfs on both sides of the scan cut-off, with zero-probability
    atoms (repeated entries) and, optionally, every entry held below 1."""
    probs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-9, 1.0)), min_size=1,
                          max_size=2 * simulate._SCAN_CDF + 4))
    probs[-1] = probs[-1] if sum(probs) > 0 else 1.0
    cdf = np.cumsum(np.array(probs) / sum(probs))
    if draw(st.booleans()):
        np.minimum(cdf, np.nextafter(1.0, 0.0), out=cdf)
    return cdf


class TestInverseCdf:
    """The comparison scan, the segment sums, the range gather and the replica
    chunks against their plain definitions."""

    @settings(max_examples=300, deadline=None)
    @given(_cdfs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
    @example(np.array([1.0]), [0.0, 0.5])
    @example(np.array([np.nextafter(1.0, 0.0)]), [np.nextafter(1.0, 0.0)])
    @example(np.array([0.0, 0.25, 0.25, 0.25, 1.0]), [0.0, 0.25, 0.5])
    @example(np.array([0.5, np.nextafter(1.0, 0.0)]), [0.5, np.nextafter(1.0, 0.0)])
    def test_scan_equals_binary_search(self, cdf, extra):
        # u exactly on, just below and just above every entry
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), extra, [0.0]])
        u = u[u < 1.0]
        assert np.array_equal(_invert_cdf(cdf, u), _binary_search(cdf, u))

    @settings(max_examples=200, deadline=None)
    @given(_cdfs(), st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
           st.lists(st.floats(0.0, 1.0), max_size=8), st.integers(1, 9))
    @example(np.array([0.25, 0.5, 1.0]), [0.25, 0.5, 0.0], [0.5], 2)
    def test_segment_sums_equal_index_counts(self, cdf, extra, cuts, budget):
        # u exactly on, just below and just above every entry, read in chunks
        # of 1 to 9 draws; the points split the stream anywhere
        u = np.concatenate([cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0), extra, [0.0]])
        u = u[u < 1.0]
        points = np.array(sorted({0, u.size, *(int(c * u.size) for c in cuts)}), dtype=np.int64)

        class Stream:
            pos = 0

            def random(self, n):
                self.pos += n
                return u[self.pos - n:self.pos]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "_DRAW_BUDGET", budget)
            seen = simulate._seen(Stream(), None, cdf, points)
        ids = _binary_search(cdf, u)
        want = [np.bincount(ids[:p], minlength=cdf.size) for p in points.tolist()]
        assert np.array_equal(seen, np.array(want))

    @settings(max_examples=60, deadline=None)
    @given(_cdfs(), st.lists(st.integers(0, 40), min_size=1, max_size=5),
           st.integers(0, 2 ** 32 - 1))
    def test_shared_and_per_replica_generators(self, cdf, sizes, seed):
        def gen(r):
            return np.random.Generator(np.random.Philox(key=[seed, r]))

        sizes = np.array(sizes)
        total = int(sizes.sum())
        assert np.array_equal(_draw_indices(gen(0), cdf, None, 0, total),
                              _binary_search(cdf, gen(0).random(total)))
        u = np.concatenate([gen(r).random(k) for r, k in enumerate(sizes.tolist())])
        stops = np.cumsum(sizes).tolist()
        assert np.array_equal(_draw_indices([gen(r) for r in range(sizes.size)], cdf, stops, 0,
                                            total), _binary_search(cdf, u))
        # read in pieces at fixed positions, which cut runs anywhere
        gens = [gen(r) for r in range(sizes.size)]
        pieces = [_draw_indices(gens, cdf, stops, lo, min(lo + 7, total))
                  for lo in range(0, total, 7)]
        assert np.array_equal(np.concatenate(pieces + [np.empty(0, np.intp)]),
                              _binary_search(cdf, u))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 40), max_size=30), st.integers(1, 60))
    @example([], 5)
    @example([70, 1, 1, 70, 2], 3)
    def test_chunks_equal_the_greedy_loop(self, sizes, budget):
        want, lo, held = [], 0, 0
        for i, k in enumerate(sizes):
            if held + k > budget and i > lo:
                want.append((lo, i))
                lo, held = i, 0
            held += k
        want.append((lo, len(sizes)))
        assert list(simulate._chunks(np.array(sizes, dtype=np.int64), budget)) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 8)), max_size=12))
    def test_ranges_concatenate_aranges(self, spans):
        starts = np.array([a for a, _ in spans], dtype=np.int64)
        stops = starts + np.array([n for _, n in spans], dtype=np.int64)
        want = np.concatenate([np.arange(a, a + n) for a, n in spans] + [np.empty(0, np.int64)])
        got = _ranges(starts, stops)
        assert got.dtype.kind == "i" and np.array_equal(got, want)


class TestMemory:
    """tracemalloc peaks of the kernel's largest bench states against fixed
    bounds; the comments give the peaks measured with numpy 2.4."""

    @staticmethod
    def _peak_mb(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_sweep_step_at_the_hard_cap(self):
        # about 10**6 particles in the uncapped row, four rows capped at 1-8
        m = build_scenario("zd_translation", {"radius": 20})
        top = np.full(m.size, 24_390, dtype=np.int64)
        counts = np.stack([np.minimum(top, c) for c in (1, 2, 4, 8)] + [top])[None]
        peak = self._peak_mb(lambda: simulate._advance(counts, m, TrialStreams(7).generation(1),
                                                       [None] * 5))
        assert peak <= 4.0           # 1.7 MB; 24.5 MB before the kernel read in chunks

    def test_one_site_above_many_chunks(self):
        # a single-vertex GW population at the sweep's hard cap: one block of
        # 10**6 particles, split across chunks
        m = build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}})
        counts = np.full((1, 1, 1), 10 ** 6, dtype=np.int64)
        peak = self._peak_mb(lambda: simulate._advance(counts, m, TrialStreams(7).generation(1)))
        assert peak <= 4.0           # 1.6 MB; 19.2 MB before the kernel read in chunks

    def test_bench_mean_curve(self):
        m = build_scenario("zd_translation", {"radius": 10})
        peak = self._peak_mb(lambda: mean_curve(m, {0: 1}, 8, 100_000, seed=77, track=0))
        assert peak <= 36.0          # 33.4 MB; 48.2 before each group was stepped in pieces

    # Fully occupied steps of 2**20 state cells, three particles per cell:
    # their peaks per cell are what a large mean curve or trial batch needs.

    @classmethod
    def _mean_curve_step(cls):
        """Bytes per state cell of a fully occupied step on a shared stream
        with one row, as a mean curve steps."""
        m = build_scenario("zd_translation", {"radius": 10})
        counts = np.full((2 ** 20 // m.size, 1, m.size), 3, dtype=np.int64)
        rng = _philox(simulate._BATCH_SALT, 0, 0, 1)
        return cls._peak_mb(lambda: simulate._advance(counts, m, rng)) * 1e6 / counts.size

    @classmethod
    def _trial_batch_generation(cls, radius, caps, couplings):
        """Bytes per state cell of one generation of a fully occupied trial
        batch, its own state and outcome records included."""
        m = build_scenario("zd_translation", {"radius": radius})
        R = 2 ** 20 // (len(caps) * m.size)
        eta = {v: 3 for v in m.index}
        run_trial_batch(m, caps, eta, 1, range(1), couplings=couplings)   # the cached plan
        peak = cls._peak_mb(lambda: run_trial_batch(m, caps, eta, 1, range(R),
                                                    couplings=couplings))
        return peak * 1e6 / (R * len(caps) * m.size)

    def test_fully_occupied_mean_curve_step(self):
        assert self._mean_curve_step() <= 32.0   # 25.0 B per cell; 70.6 before the pieces

    def test_fully_occupied_trial_batch_step(self):
        # per-replica streams and three rows: one reading a prefix of each
        # block, one free, one restricted; a wide window keeps the replicas
        # and their runs of draws few
        m = build_scenario("zd_translation", {"radius": 100})
        R = 2 ** 20 // (3 * m.size)
        counts = np.full((R, 3, m.size), 3, dtype=np.int64)
        counts[:, 0] = 1
        mask = RestrictionCoupling(frozenset(range(-3, 4))).mask(m)
        rngs = _StreamPool(_TRIAL_SALT, 0).streams(np.arange(R, dtype=np.uint64), 1)
        peak = self._peak_mb(lambda: simulate._advance(counts, m, rngs, [None, None, mask]))
        assert peak * 1e6 / counts.size <= 28.0   # 20.1 B per cell; 47.8 before the pieces

    def test_five_cap_trial_batch_generation(self):
        # the CLI's five caps give ten domination pairs, whose gathers are
        # taken over replica chunks rather than all replicas at once
        per_cell = self._trial_batch_generation(1000, [1, 2, 4, 8, math.inf], None)
        assert per_cell <= 20.0      # 13.3 B per cell; 42.4 with whole-batch gathers

    @pytest.mark.parametrize("step", ["mean-curve", "trial-batch"])
    def test_the_cell_bound_steps_in_6_gib(self, step):
        # a state at _MAX_CELLS (1 GiB of int64) and a step's temporaries at
        # the per-cell peak measured here stay under 6 GiB; the trial batch's
        # peak already holds its own state, which so counts twice
        if step == "mean-curve":
            per_cell = self._mean_curve_step()
        else:
            win = RestrictionCoupling(frozenset(range(-3, 4)))
            per_cell = self._trial_batch_generation(100, [1, math.inf, math.inf],
                                                    [None, None, win])
        assert per_cell * simulate._MAX_CELLS + 2 ** 30 < 6 * 2 ** 30
