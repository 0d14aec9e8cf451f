import hashlib
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from brwlab.core import BrwModel, ModelError, OffspringConfig, build_offspring_law
from brwlab.scenarios import build_scenario, build_zd_translation
from brwlab.simulate import (
    PopulationState,
    RestrictionCoupling,
    TrialStreams,
    estimate_survival,
    mean_curve,
    run_coupled_trials,
    run_survival_trial,
    step,
    step_coupled,
    step_truncated,
    wilson_interval,
)
from brwlab.spectral import expected_population, moment_matrix


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def doubling_model():
    return BrwModel((0,), {0: law_from([({0: 2}, 1.0)])})


class TestStep:
    def test_deterministic_doubling(self):
        m = doubling_model()
        s = PopulationState.from_dict(m, {0: 1})
        rng = TrialStreams(0).generation(1)
        out = step(s, m, rng)
        assert out.counts[0] == 2
        assert out.generation == 1
        assert out.total_born == 3

    def test_certain_death(self):
        m = BrwModel((0,), {0: law_from([({}, 1.0)])})
        s = PopulationState.from_dict(m, {0: 7})
        out = step(s, m, TrialStreams(0).generation(1))
        assert out.total == 0

    def test_one_step_mean_matches_moment_row(self):
        # binomial error bars: 4 sigma over 1e5 replicas
        m = build_zd_translation(radius=2, rho={0: 0.3, 2: 0.7})
        R = 100_000
        means, _ = mean_curve(m, {0: 1}, 1, R, seed=11)
        M = moment_matrix(m)
        row = {v: M.entry(0, v) for v in m.vertices}
        for v in m.vertices:
            law = m.laws[0]
            var = law.rho.variance * 0.25 + law.rho_bar * 0.25 * (1 - 0.25)  # not exact; bound below
        # exact per-vertex variance from the law's atoms
        atoms = m.laws[0].atoms
        for v in m.vertices:
            mu = row[v]
            var = sum(p * (cfg.count(v) - mu) ** 2 for cfg, p in atoms)
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
        # the law's materialized atoms (chi-square at 1%)
        from scipy.stats import chisquare
        m = build_zd_translation(radius=2, rho={0: 0.5, 2: 0.5})
        law = m.laws[0]
        expected = {tuple(sorted(cfg.entries)): p for cfg, p in law.atoms}
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
        m = build_zd_translation(radius=8)
        q, _ = iterate_extinction(m, "global")
        est = estimate_survival(m, {0: 1}, 150, 1500, seed=55, hard_cap=10 ** 4)
        assert est.ci_low <= 1.0 - q[m.index[0]] <= est.ci_high


class TestTruncatedStep:
    def test_contact_process_pins_doubling(self):
        m = doubling_model()
        s = PopulationState.from_dict(m, {0: 1})
        for gen in range(1, 6):
            s = step_truncated(s, 1, m, TrialStreams(0).generation(gen))
            assert s.counts[0] == 1

    def test_infinite_cap_matches_plain_step(self):
        m = build_zd_translation(radius=4)
        s0 = PopulationState.from_dict(m, {0: 3})
        a = step(s0, m, TrialStreams(9).generation(1))
        b = step_truncated(s0, math.inf, m, TrialStreams(9).generation(1))
        assert np.array_equal(a.counts, b.counts)

    def test_cap_after_summing(self):
        # two parents each sending two children to one site: cap 3 keeps 3
        laws = {0: law_from([({1: 2}, 1.0)]), 1: law_from([({}, 1.0)])}
        m = BrwModel((0, 1), laws)
        s = PopulationState.from_dict(m, {0: 2})
        out = step_truncated(s, 3, m, TrialStreams(0).generation(1))
        assert out.counts[m.index[1]] == 3


class TestCoupledStep:
    def test_identity_coupling_equal_forever(self):
        m = build_zd_translation(radius=5)
        up = PopulationState.from_dict(m, {0: 2})
        lo = up.copy()
        streams = TrialStreams(3)
        for gen in range(1, 15):
            up, lo = step_coupled((up, lo), (math.inf, math.inf), m,
                                  streams.generation(gen))
            assert np.array_equal(up.counts, lo.counts)

    def test_restriction_coupling_confines_lower(self):
        m = build_zd_translation(radius=6)
        keep = frozenset(range(-2, 3))
        coup = RestrictionCoupling(keep)
        up = PopulationState.from_dict(m, {0: 2})
        lo = up.copy()
        streams = TrialStreams(5)
        for gen in range(1, 12):
            up, lo = step_coupled((up, lo), (math.inf, math.inf), m,
                                  streams.generation(gen), coupling=coup)
            assert np.all(lo.counts <= up.counts)
            outside = [m.index[v] for v in m.vertices if v not in keep]
            assert lo.counts[outside].sum() == 0

    def test_caps_dominance_random_models(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m = build_zd_translation(radius=4, rho={0: 0.3, 3: 0.7})
            outs = run_coupled_trials(m, [1, 5, math.inf], {0: 2}, 25,
                                      seed=trial, hard_cap=10 ** 4)
            # run_coupled_trials asserts domination internally every step
            assert [o.cap for o in outs] == [1, 5, math.inf]

    def test_bad_initial_order_rejected(self):
        m = build_zd_translation(radius=2)
        up = PopulationState.from_dict(m, {0: 1})
        lo = PopulationState.from_dict(m, {0: 2})
        with pytest.raises(ModelError):
            step_coupled((up, lo), (math.inf, math.inf), m, TrialStreams(0).generation(1))


class TestTrials:
    def test_same_seed_identical_outcomes(self):
        m = build_zd_translation(radius=5)
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
        m = build_zd_translation(radius=6, rho={0: 0.5, 2: 0.5})
        rho = dominating_law(m)
        mean_shift = rho.mean + 1.0
        n = 6
        bound = sum(mean_shift ** k for k in range(n + 1))
        outs = [run_survival_trial(m, {0: 1}, n, seed=77, replica=r, hard_cap=10 ** 5)
                for r in range(2000)]
        born = np.array([o.total_born for o in outs], dtype=float)
        se = born.std(ddof=1) / math.sqrt(len(born))
        assert born.mean() <= bound + 4 * se


class TestSweepMachinery:
    def test_monotone_in_cap_by_construction(self):
        m = build_zd_translation(radius=8)
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
        m = build_zd_translation(radius=8)
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
        m = build_zd_translation(radius=10)
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
        m = build_scenario("line_ex45", {"size": 8})
        win = RestrictionCoupling(frozenset(range(0, 5)))
        up = PopulationState.from_dict(m, {0: 3, 1: 2})
        lo = PopulationState.from_dict(m, {0: 2})
        free = up.copy()
        streams = TrialStreams(4)
        trace = []
        for gen in range(1, 9):
            up, lo = step_coupled((up, lo), (math.inf, 2), m, streams.generation(gen),
                                  coupling=win)
            free = step(free, m, streams.generation(gen))
            trace.append((up.counts.tolist(), lo.counts.tolist(), free.counts.tolist()))
        assert (up.total_born, lo.total_born) == (37, 11)
        assert _sha(repr(trace).encode()) == \
            "bc6de034f7a07ceeff72a27156173137a1564b434032dc637507aeddd6cca090"

    @pytest.mark.xfail(strict=True, reason="Philox keys pass through float64, so small "
                                           "seeds collapse onto one stream")
    def test_distinct_seeds_give_distinct_streams(self):
        a = TrialStreams(7).generation(1).random(4)
        b = TrialStreams(8).generation(1).random(4)
        assert (a != b).any()
