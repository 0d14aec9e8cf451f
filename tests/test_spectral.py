import hashlib
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.sparse import csr_matrix, random as sparse_random
from scipy.sparse.linalg import eigsh

from brwlab import spectral
from brwlab.approx import ball_exhaustion, spatial_experiment
from brwlab.core import BrwModel, ModelError, OffspringConfig, build_offspring_law
from brwlab.genfun import check_subsolution, classify_survival, lambda_sweep
from brwlab.scenarios import build_scenario, tree_rates
from brwlab.spectral import (
    _DENSE_CUTOFF,
    MomentMatrix,
    _perron_bracket,
    _solve_i_minus,
    _window_growth,
    expected_population,
    first_return_series,
    global_growth_rate,
    green_series,
    local_growth_rate,
    moment_matrix,
    seneta_sequence,
)


def law_from(atom_dicts):
    return build_offspring_law([(OffspringConfig.make(c), p) for c, p in atom_dicts])


def path_rate(mean, n_vertices):
    """Perron root of the symmetric nearest-neighbour window: mean*cos(pi/(n+1))."""
    return mean * math.cos(math.pi / (n_vertices + 1))


def entry(M, x, y) -> float:
    """m_xy of a moment matrix, read off its scipy form."""
    return float(M.csr[M.index[x], M.index[y]])


class TestMomentMatrix:
    def test_doubling(self):
        m = BrwModel((0,), {0: law_from([({0: 2}, 1.0)])})
        assert entry(moment_matrix(m), 0, 0) == 2.0

    def test_mixed_law_row(self):
        m = BrwModel((0, 1), {0: law_from([({}, 0.5), ({0: 1, 1: 1}, 0.5)]),
                              1: law_from([({}, 1.0)])})
        M = moment_matrix(m)
        assert entry(M, 0, 0) == pytest.approx(0.5)
        assert entry(M, 0, 1) == pytest.approx(0.5)

    def test_counterpart_entries(self):
        m = build_scenario("tree_counterpart", {"degree": 4, "depth": 2, "lam": 0.3})
        M = moment_matrix(m)
        assert entry(M, 0, 1) == pytest.approx(0.3, abs=1e-10)

    def test_period_bipartite(self):
        M = MomentMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), (0, 1))
        assert M.period(0) == 2

    def test_period_with_loop(self):
        M = MomentMatrix(np.array([[1.0, 1.0], [1.0, 0.0]]), (0, 1))
        assert M.period(0) == 1


_LINE = build_scenario("zd_translation", {"radius": 2})


@pytest.mark.parametrize("call", [
    lambda: expected_population(moment_matrix(_LINE), {7: 1}, 2),
    lambda: expected_population(moment_matrix(_LINE), np.ones(_LINE.size + 1), 2),
    lambda: check_subsolution(_LINE, 0.5, 7),
    lambda: ball_exhaustion(_LINE, 7, (1,)),
    lambda: MomentMatrix(np.array([[np.nan]]), (0,)),
    lambda: local_growth_rate(MomentMatrix(np.array([[np.nan]]), (0,)), 0),
    lambda: MomentMatrix(csr_matrix(np.array([[1.0, np.inf], [1.0, 0.0]])), (0, 1)),
    lambda: MomentMatrix(np.eye(2), ("a", "a")),
    lambda: MomentMatrix(np.array([["x"]]), ("a",)),
    lambda: MomentMatrix(np.array([[1.0, None], [0.0, 1.0]]), (0, 1)),
    lambda: MomentMatrix(np.ones(2), (0, 1)),
    lambda: expected_population(moment_matrix(_LINE), {0: 1}, 2.5),
    lambda: expected_population(moment_matrix(_LINE), {0: math.nan}, 2),
    lambda: expected_population(moment_matrix(_LINE), {0: -1}, 2),
    lambda: expected_population(moment_matrix(_LINE), {0: True}, 2),
    lambda: expected_population(moment_matrix(_LINE), np.full(_LINE.size, math.inf), 2),
    lambda: expected_population(moment_matrix(_LINE), -np.ones(_LINE.size), 2),
    lambda: expected_population(moment_matrix(_LINE), np.ones(_LINE.size), 2),
    lambda: seneta_sequence(_LINE, [(0, 1, 99)], 0),
    lambda: spatial_experiment(_LINE, [(0, 99)], 0),
    lambda: global_growth_rate(moment_matrix(_LINE), 0, n_max=2.5),
    lambda: classify_survival(_LINE, 0, n_max="a"),
    lambda: ball_exhaustion(_LINE, 0, [-1]),
    lambda: ball_exhaustion(_LINE, 0, [1.5]),
    lambda: lambda_sweep(moment_matrix(_LINE), 0, 0.1, 10.0, width=math.nan),
    lambda: lambda_sweep(moment_matrix(_LINE), 0, 0.1, 10.0, width=1.0, grid=["a"]),
], ids=["population-start-vertex", "population-start-length", "subsolution-x0", "ball-x0", "nan-weight", "nan-growth",
        "inf-weight", "duplicate-labels", "text-entry", "object-entry", "not-square",
        "population-steps-not-whole", "population-nan-count",
        "population-negative-count", "population-bool-count", "population-inf-vector",
        "population-negative-vector", "population-vector-start", "seneta-window-vertex",
        "spatial-window-vertex", "global-n-max-not-whole", "classify-n-max-text",
        "ball-radius-negative", "ball-radius-not-whole", "sweep-width-nan", "sweep-grid-text"])
def test_unusable_input_raises_model_error(call):
    # input the code cannot use fails with ModelError, not with a KeyError, a numpy
    # error or a silent answer (an n_max of 2.5 or "a" ended in a TypeError, a
    # radius of -1 in an empty ball and 1.5 in the ball of radius 1, a NaN width
    # in a sweep that could never refuse, and a grid entry "a" in a ValueError)
    with pytest.raises(ModelError):
        call()


@pytest.mark.parametrize("n_max", [2.5, True, "a"])
def test_local_growth_reads_n_max_as_a_whole_number(n_max):
    # 2.5 and True were refused as "below twice the period" 2, and "a" ended in a TypeError
    with pytest.raises(ModelError, match="n_max must be a whole number"):
        local_growth_rate(moment_matrix(_LINE), 0, n_max=n_max)


class TestExpectedPopulation:
    def test_zero_steps(self):
        m = build_scenario("zd_translation", {"radius": 3})
        M = moment_matrix(m)
        out = expected_population(M, {0: 5}, 0)
        assert out[M.index[0]] == 5.0
        assert out.sum() == 5.0

    def test_doubling_power(self):
        m = BrwModel((0,), {0: law_from([({0: 2}, 1.0)])})
        out = expected_population(moment_matrix(m), {0: 1}, 10)
        assert out[0] == pytest.approx(1024.0)

    def test_two_vertex_chain(self):
        M = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ("a", "b"))
        out = expected_population(M, {"a": 1}, 3)
        assert out[M.index["b"]] == pytest.approx(1.0)
        assert out[M.index["a"]] == pytest.approx(0.0)


class TestLocalGrowthRate:
    def test_gw_exact(self):
        M = MomentMatrix(np.array([[1.7]]), (0,))
        est = local_growth_rate(M, 0)
        assert est.value == pytest.approx(1.7, abs=1e-12)
        assert est.converged

    def test_path_window_matches_eigen_oracle(self):
        m = build_scenario("zd_translation", {"radius": 20})
        est = local_growth_rate(moment_matrix(m), 0, n_max=4000)
        # independent oracle: tridiagonal eigensolve
        n = 41
        w = eigh_tridiagonal(np.zeros(n), np.full(n - 1, 0.75),
                             select="i", select_range=(n - 1, n - 1))[0][0]
        assert est.value == pytest.approx(w, abs=1e-6)
        assert est.value == pytest.approx(path_rate(1.5, 41), abs=1e-6)

    def test_bipartite_two_cycle(self):
        M = MomentMatrix(np.array([[0.0, 2.0], [2.0, 0.0]]), (0, 1))
        est = local_growth_rate(M, 0)
        assert est.value == pytest.approx(2.0, abs=1e-10)
        assert "mod 2" in est.subsequence_rule

    def test_no_return_paths(self):
        m = build_scenario("line_noext", {"size": 6})
        est = local_growth_rate(moment_matrix(m), 0)
        assert est.value == 0.0

    def test_unknown_vertex(self):
        M = MomentMatrix(np.array([[1.0]]), (0,))
        with pytest.raises(ModelError):
            local_growth_rate(M, 99)

    def test_matches_dense_eigensolve_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.uniform(0.05, 1.0, (5, 5))
            M = MomentMatrix(A, tuple(range(5)))
            est = local_growth_rate(M, 0, n_max=5000)
            oracle = max(abs(np.linalg.eigvals(A)))
            assert est.value == pytest.approx(oracle, abs=1e-6)


class TestGlobalGrowthRate:
    def test_gw(self):
        M = MomentMatrix(np.array([[1.7]]), (0,))
        assert global_growth_rate(M, 0).value == pytest.approx(1.7, abs=1e-12)

    def test_line_noext_is_two(self):
        # any branch counts give mean 2 per step; the searched ones only
        # matter for the fixed points, so a long window can use flat counts
        m = build_scenario("line_noext", {"size": 70, "ns": [4] * 70})
        est = global_growth_rate(moment_matrix(m), 0, n_max=60)
        assert est.value == pytest.approx(2.0, abs=0.05)

    def test_zdrift_equals_rho_bar(self):
        m = build_scenario("zdrift", {"radius": 40, "p": 0.3, "q": 0.2, "rho_bar": 1.5})
        est = global_growth_rate(moment_matrix(m), 0, n_max=35)
        assert est.value == pytest.approx(1.5, abs=1e-6)

    def test_supermultiplicativity(self):
        # global growth dominates local growth at the same vertex
        m = build_scenario("zd_translation", {"radius": 8})
        M = moment_matrix(m)
        loc = local_growth_rate(M, 0, n_max=3000).value
        glo = global_growth_rate(M, 0, n_max=25).value
        assert glo >= loc - 1e-6

    def test_collapse_reports_zero(self):
        m = build_scenario("line_noext", {"size": 5})
        est = global_growth_rate(moment_matrix(m), 0, n_max=50)
        assert est.value == 0.0

    @pytest.mark.xfail(strict=True, reason="the stop rule fires on the exact 1.5^n row sums "
                                           "before the walk reaches the window edge")
    def test_stops_before_the_window_edge(self):
        # rho of the radius-12 path window is 1.5 cos(pi/26) = 1.48906; the
        # estimate reports 1.5, converged, after 5 terms
        M = moment_matrix(build_scenario("zd_translation", {"radius": 12}))
        est = global_growth_rate(M, 0)
        assert est.value == pytest.approx(path_rate(1.5, 25), abs=1e-6)

    def test_oscillating_row_sums_resampled(self):
        # asymmetric 2-cycle: consecutive row-sum ratios alternate 4, 1, ...
        # so the estimator falls back to a longer stride and still finds 2
        M = MomentMatrix(np.array([[0.0, 4.0], [1.0, 0.0]]), (0, 1))
        est = global_growth_rate(M, 0, n_max=200)
        assert est.value == pytest.approx(2.0, abs=1e-9)
        assert est.converged


class TestGeneratingSeries:
    def test_single_loop_first_return(self):
        M = MomentMatrix(np.array([[1.5]]), (0,))
        assert first_return_series(M, 0, 0.4) == pytest.approx(0.6, abs=1e-12)

    def test_two_cycle_first_return(self):
        M = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        lam = 0.37
        assert first_return_series(M, 0, lam) == pytest.approx(lam ** 2, abs=1e-12)

    def test_zeroth_term_absent(self):
        M = MomentMatrix(np.array([[0.0]]), (0,))
        assert first_return_series(M, 0, 0.9) == 0.0

    def test_loop_green_geometric(self):
        M = MomentMatrix(np.array([[1.5]]), (0,))
        lam = 0.4  # 1/(1 - 0.6)
        assert green_series(M, 0, lam) == pytest.approx(2.5, abs=1e-10)

    def test_two_cycle_green(self):
        M = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        assert green_series(M, 0, 0.5) == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_green_identity_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = rng.uniform(0.0, 1.0, (5, 5))
            M = MomentMatrix(A, tuple(range(5)))
            lam = 0.5 / M.max_row_sum()
            phi = first_return_series(M, 0, lam, n_max=600)
            gamma = green_series(M, 0, lam, n_max=600)
            assert gamma * (1.0 - phi) == pytest.approx(1.0, abs=1e-10)

    def test_divergence_flag(self):
        M = MomentMatrix(np.array([[2.0]]), (0,))
        assert math.isinf(green_series(M, 0, 1.0, n_max=2000))


def _series_by_powers(A, i, lam, n, taboo):
    """sum_{k=1..n} (lam A)^k e_i read at i, zeroing i after each read when taboo."""
    u = np.zeros(A.shape[0])
    u[i] = 1.0
    total = 0.0
    for _ in range(n):
        u = lam * (u @ A)
        total += u[i]
        if taboo:
            u[i] = 0.0
    return total


class TestSeriesSolve:
    """The series are whole sums, with divergence certified by the solve."""

    def test_loop_near_radius_is_the_full_sum(self):
        M = MomentMatrix(np.array([[1.0]]), (0,))
        assert green_series(M, 0, 0.999) == pytest.approx(1000.0, abs=1e-9)

    def test_loop_at_radius_diverges(self):
        M = MomentMatrix(np.array([[1.0]]), (0,))
        assert math.isinf(green_series(M, 0, 1.0))
        assert first_return_series(M, 0, 1.0) == 1.0

    def test_beyond_radius_green_diverges_first_return_finite(self):
        rng = np.random.default_rng(1312)     # the first matrix of acceptance 09
        A = rng.uniform(0.0, 1.2, (6, 6)) * (rng.random((6, 6)) < 0.8)
        M = MomentMatrix(A, tuple(range(6)))
        rho = max(abs(np.linalg.eigvals(A)))
        assert math.isinf(green_series(M, 0, 1.01 / rho, n_max=800))
        phi = first_return_series(M, 0, 1.01 / rho, n_max=800)
        assert math.isfinite(phi) and phi > 1.0

    def test_reducible_class_matches_long_series(self):
        # x = 0 lives in the class {0, 1}; 2 (reached from 0, never returning)
        # and 3 (reaching 0) are outside it, and 2 alone diverges at lam = 0.3
        A = np.array([[0.5, 1.0, 0.7, 0.0],
                      [1.0, 0.5, 0.0, 0.0],
                      [0.0, 0.0, 5.0, 0.0],
                      [0.9, 0.0, 0.0, 0.2]])
        M = MomentMatrix(A, tuple(range(4)))
        assert M._class_matrix(0).vertices == (0, 1)
        for lam in (0.1, 0.3, 0.6):
            gamma = 1.0 + _series_by_powers(A, 0, lam, 400, taboo=False)
            phi = _series_by_powers(A, 0, lam, 400, taboo=True)
            assert green_series(M, 0, lam) == pytest.approx(gamma, rel=1e-13)
            assert first_return_series(M, 0, lam) == pytest.approx(phi, rel=1e-13)
        assert math.isinf(green_series(M, 0, 0.7))     # the class's rho is 1.5 > 1/0.7
        assert math.isfinite(first_return_series(M, 0, 0.7))

    def test_sparse_solve_above_dense_cutoff(self):
        # a directed n-cycle: Gamma = 1 / (1 - lam^n), Phi = lam^n
        n = 450
        M = MomentMatrix(np.roll(np.eye(n), 1, axis=1), tuple(range(n)))
        lam = 0.999
        assert green_series(M, 0, lam) == pytest.approx(1.0 / (1.0 - lam ** n), rel=1e-12)
        assert first_return_series(M, 0, lam) == pytest.approx(lam ** n, rel=1e-12)
        assert math.isinf(green_series(M, 0, 1.0))        # singular system
        assert math.isinf(green_series(M, 0, 1.001))      # negative solution
        assert first_return_series(M, 0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_one_solve_rule_for_dense_and_sparse_input(self):
        rng = np.random.default_rng(5)
        A = rng.uniform(0.0, 0.2, (6, 6))
        b = rng.uniform(0.0, 1.0, 6)
        dense = _solve_i_minus(A, b)
        assert np.array_equal(_solve_i_minus(csr_matrix(A), b), dense)
        np.testing.assert_allclose((np.eye(6) - A) @ dense, b, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", [3, _DENSE_CUTOFF + 5])
    def test_singular_system_is_non_finite(self, n):
        # I - A is singular for A = I; dense and sparse solves both say so
        x = _solve_i_minus(csr_matrix(np.eye(n)), np.ones(n))
        assert not np.isfinite(x).all()
        if n <= _DENSE_CUTOFF:
            assert not np.isfinite(_solve_i_minus(np.eye(n), np.ones(n))).all()

    @pytest.mark.parametrize("series", [green_series, first_return_series])
    def test_unknown_vertex(self, series):
        M = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        with pytest.raises(ModelError):
            series(M, 5, 0.5)

    @pytest.mark.parametrize("series", [green_series, first_return_series])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.1])
    def test_bad_lambda(self, series, lam):
        M = MomentMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), (0, 1))
        with pytest.raises(ModelError):
            series(M, 0, lam)


class TestSeneta:
    def test_constant_exhaustion(self):
        m = build_scenario("zd_translation", {"radius": 6})
        full = tuple(m.vertices)
        ests = seneta_sequence(m, [full, full, full], 0)
        vals = [e.value for e in ests]
        assert max(vals) - min(vals) < 1e-12

    def test_nested_windows_increase_to_oracle(self):
        m = build_scenario("zd_translation", {"radius": 10})
        exhaustion = [range(-r, r + 1) for r in range(1, 11)]
        ests = seneta_sequence(m, exhaustion, 0, n_max=4000)
        vals = [e.value for e in ests]
        for r, v in zip(range(1, 11), vals):
            assert v == pytest.approx(path_rate(1.5, 2 * r + 1), abs=1e-5)
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_non_monotone_exhaustion_converges(self):
        m = build_scenario("zd_translation", {"radius": 8})
        windows = [range(-8, 9), range(-3, 4), range(-8, 9), range(-6, 7), range(-8, 9)]
        ests = seneta_sequence(m, windows, 0, n_max=4000)
        assert ests[-1].value == pytest.approx(path_rate(1.5, 17), abs=1e-5)

    def test_missing_x0_rejected(self):
        m = build_scenario("zd_translation", {"radius": 4})
        with pytest.raises(ModelError):
            seneta_sequence(m, [range(1, 3)], 0)

    def test_each_distinct_window_solved_once(self, monkeypatch):
        m = build_scenario("zd_translation", {"radius": 8})
        windows = [range(-8, 9), range(-3, 4), range(-8, 9), [0, -1, 1, 2, -2, 3, -3],
                   range(-6, 7), range(-8, 9)]
        fresh = [seneta_sequence(m, [w], 0)[0] for w in windows]
        calls = []
        solve = spectral._window_growth
        monkeypatch.setattr(spectral, "_window_growth",
                            lambda W, x0, n_max: calls.append(W.dim) or solve(W, x0, n_max))
        ests = seneta_sequence(m, windows, 0)
        assert calls == [17, 7, 13]
        assert repr(ests) == repr(fresh)
        assert [e.bracket for e in ests] == [e.bracket for e in fresh]


class TestPerronBracket:
    """Collatz-Wielandt brackets of seneta windows, and the windows that keep
    power iteration."""

    def test_random_irreducible_brackets_hold_the_dense_root(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 5, 8, 13, 40, 120):
            for density in (0.1, 0.5, 1.0):
                A = rng.uniform(0.0, 2.0, (n, n)) * (rng.random((n, n)) < density)
                A[np.arange(n), (np.arange(n) + 1) % n] += 0.05     # a cycle: irreducible
                M = MomentMatrix(A, tuple(range(n)))
                assert M.is_irreducible()
                low, high = _perron_bracket(M)
                root = np.abs(np.linalg.eigvals(A)).max()
                assert low <= root <= high
                assert high - low <= 1e-12 * high

    def test_period_two_blocks(self):
        M = MomentMatrix(np.kron(np.eye(2), [[0.0, 2.0], [1.5, 0.0]]), tuple("abcd"))
        for x in "abcd":
            est = _window_growth(M, x, 100)
            low, high = est.bracket
            assert low <= math.sqrt(3.0) <= high and high - low <= 1e-14
            assert est.value == pytest.approx(math.sqrt(3.0), abs=1e-14)
            assert est.converged and est.sequence == () and est.ratios == ()

    def test_singleton_with_a_self_loop(self):
        est = _window_growth(MomentMatrix(np.array([[0.7]]), (0,)), 0, 100)
        low, high = est.bracket
        assert low < 0.7 < high and high - low <= 1e-15

    @pytest.mark.parametrize("A", [
        np.array([[0.0, 1.0], [0.0, 0.0]]),           # vertex 0 has no return path
        np.array([[0.0, 1e-300], [1e300, 0.0]]),      # v = (1e-300, 1) certifies nothing
    ], ids=["no-returns", "underflowing-vector"])
    def test_fallback_is_local_growth_rate(self, A):
        M = MomentMatrix(A, (0, 1))
        est = _window_growth(M, 0, 100)
        assert est.bracket is None
        assert repr(est) == repr(local_growth_rate(MomentMatrix(A, (0, 1)), 0, n_max=100))

    def test_window_above_the_cutoff_is_local_growth_rate(self):
        r = _DENSE_CUTOFF // 2 + 1
        m = build_scenario("zd_translation", {"radius": r})
        window = range(-r, r + 1)
        (est,) = seneta_sequence(m, [window], 0, n_max=600)
        assert est.bracket is None
        assert repr(est) == repr(local_growth_rate(
            moment_matrix(m).submatrix(window), 0, n_max=600))

    def test_acceptance_06_windows_run_no_power_iteration(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("power iteration ran on a dense window")

        monkeypatch.setattr(spectral, "_log_sequence", refuse)
        m = build_scenario("zd_translation", {"radius": 30})
        ests = seneta_sequence(m, [range(-r, r + 1) for r in range(1, 31)], 0, n_max=6000)
        assert all(e.bracket is not None for e in ests)


def _sparse_irreducible(rng, n, period_two):
    """A random sparse nonnegative n x n matrix made irreducible by a cycle
    through every vertex; with period_two, only edges between the halves
    (a bipartite class, whose cycle has even length for even n)."""
    A = sparse_random(n, n, density=3.0 / n, random_state=rng, format="lil")
    order = rng.permutation(n)
    if period_two:
        half = n // 2
        A[:half, :half] = 0.0
        A[half:, half:] = 0.0
        evens, odds = rng.permutation(half), half + rng.permutation(n - half)
        order = np.ravel(np.column_stack([evens, odds]))
    for a, b in zip(order, np.roll(order, -1)):
        A[a, b] += 0.5
    return MomentMatrix(A.tocsr(), tuple(range(n)))


def _narrow(rel):
    return lambda low, high: high - low <= rel * high


class TestShiftedBracket:
    """The shifted Collatz-Wielandt iteration above the dense cutoff, and
    for dense classes whose eigenvector does not certify."""

    @pytest.mark.parametrize("n, period_two", [
        (401, False), (401 + 1, True), (900, False), (1200, True)])
    def test_random_sparse_classes_hold_the_dense_root(self, n, period_two):
        M = _sparse_irreducible(np.random.default_rng(n), n, period_two)
        assert M.is_irreducible() and M.dim > _DENSE_CUTOFF
        if period_two:
            assert M.period(0) == 2
        low, high = _perron_bracket(M, _narrow(1e-9))
        root = np.abs(np.linalg.eigvals(M.csr.toarray())).max()
        assert low <= root <= high
        assert high - low <= 1e-9 * high

    @pytest.mark.parametrize("period_two", [False, True])
    def test_symmetric_3000_vertex_class_holds_the_eigsh_root(self, period_two):
        M = _sparse_irreducible(np.random.default_rng(3000), 3000, period_two)
        S = MomentMatrix(M.csr + M.csr.T, M.vertices)
        low, high = _perron_bracket(S, _narrow(1e-8))
        root = float(eigsh(S.csr, k=1, which="LA")[0][0])
        assert low <= root <= high
        assert high - low <= 1e-8 * high

    @pytest.mark.parametrize("depth", range(3, 10))
    @pytest.mark.parametrize("width", [2e-3, 1e-6])
    def test_tree_lambda_s_holds_the_reciprocal_root(self, depth, width):
        verts, K = tree_rates(4, depth)
        res = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=width, projected_row_sum=4.0)
        lo, hi = res.lambda_s_bracket
        root = float(eigsh(K, k=1, which="LA")[0][0]) if depth > 3 else \
            np.abs(np.linalg.eigvals(K.toarray())).max()
        assert lo <= 1.0 / root <= hi
        assert lo <= res.lambda_s <= hi
        assert hi - lo <= width

    @pytest.mark.parametrize("steps", [1, 2, 7])
    def test_certified_before_it_converges(self, monkeypatch, steps):
        monkeypatch.setattr(spectral, "_CW_STEPS", steps)
        verts, K = tree_rates(4, 6)
        M = MomentMatrix(K, verts)
        low, high = _perron_bracket(M, lambda low, high: False)
        root = float(eigsh(K, k=1, which="LA")[0][0])
        assert low <= root <= high
        if steps == 1:      # the ones vector: the row sums 1 (leaves) to 4 (inner)
            assert low <= 1.0 and high >= 4.0

    def test_non_certifying_dense_class_iterates_when_asked(self):
        M = MomentMatrix(np.array([[0.0, 1e-300], [1e300, 0.0]]), (0, 1))
        assert _perron_bracket(M) is None
        low, high = _perron_bracket(M, _narrow(1e-3))
        assert low <= 1.0 <= high

    def test_above_cutoff_without_a_stop_rule_is_none(self):
        verts, K = tree_rates(4, 5)
        assert _perron_bracket(MomentMatrix(K, verts)) is None


def _repr_digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _reducible_matrices():
    """Random sparse 8-vertex matrices, most with several communicating
    classes and some with a vertex without returns, and two period-2 classes."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(6):
        A = rng.uniform(0.1, 1.5, (8, 8)) * (rng.random((8, 8)) < 0.3)
        out.append(MomentMatrix(A, tuple(range(8))))
    out.append(MomentMatrix(np.kron(np.eye(2), [[0.0, 2.0], [1.5, 0.0]]), tuple("abcd")))
    return out


def _cycle_with_tail(n):
    """A directed n-cycle (one class, above the dense cutoff) that also feeds a
    vertex n without return, and a vertex n + 1 that feeds the cycle."""
    A = np.zeros((n + 2, n + 2))
    A[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    A[0, n] = 2.0
    A[n + 1, 0] = 0.5
    return MomentMatrix(A, tuple(range(n + 2)))


class TestSameBytesPins:
    """sha256 of the exact repr of growth and series outputs.  Recorded before
    classes became index arrays cut once per matrix; any moved float shows."""

    def test_seneta_sequence_radius_30(self):
        """Re-recorded when dense windows became Perron brackets (the power-
        iteration digest was 45b3ad8911853c6826bb1357c2ca9c55ab9cb2d90183aa64607bb9683111d662)."""
        m = build_scenario("zd_translation", {"radius": 30})
        ests = seneta_sequence(m, [range(-r, r + 1) for r in range(1, 31)], 0, n_max=6000)
        for r, e in zip(range(1, 31), ests):
            low, high = e.bracket
            assert low <= 1.5 * math.cos(math.pi / (2 * r + 2)) <= high
            assert high - low <= 1e-12
        got = [(e.value, e.bracket, e.sequence, e.ratios, e.subsequence_rule, e.converged)
               for e in ests]
        assert _repr_digest(got) == (
            "2352fd9a7d5ce06e623f4f03c7bd389504446a8eac2bb7c64a2e40c3ab0286c1")

    def test_lambda_sweep_tree(self):
        """Re-recorded when lambda_s became the reciprocal of a shifted
        Collatz-Wielandt bracket (the power-iteration digest was
        28b672a334611480fdc749e4ccb6b6fd55a273207faab38811bbfb2962b4af65), and
        again when lambda_w without a projection became lambda_s (the row-sum
        digest was aaaafa63e120c752849ab58bb33f04c7de735af810b82b1ae385de7e7a2ea603)."""
        verts, K = tree_rates(4, 5)
        projected = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-3,
                                 projected_row_sum=4.0, stop_tol=1e-9)
        general = lambda_sweep(K, 0, 0.2, 0.4, vertices=verts, width=2e-2,
                               grid=(0.2, 0.3, 0.4), stop_tol=1e-9)
        assert _repr_digest((projected, general)) == (
            "bf23d80b6f5bfd541f9adea00e6c89ac470a85549e25789a4bbdade6ad450d6f")

    def test_series_on_acceptance_09_matrices(self):
        rng = np.random.default_rng(1312)
        got = []
        while len(got) < 10 * 6 * 2:
            A = rng.uniform(0.0, 1.2, (6, 6)) * (rng.random((6, 6)) < 0.8)
            M = MomentMatrix(A, tuple(range(6)))
            if M.max_row_sum() == 0.0:
                continue
            lam = 0.5 / M.max_row_sum()
            for x in range(6):
                got += [first_return_series(M, x, lam, n_max=800),
                        green_series(M, x, lam, n_max=800)]
        assert _repr_digest(got) == (
            "251f999c9948c0d34d13a6cad160e06e272b18fb3e3eda2e0698ad5c94f32910")

    def test_series_on_reducible_and_sparse_classes(self):
        got = []
        for M in _reducible_matrices():
            for x in M.vertices:
                got += [first_return_series(M, x, 0.3), green_series(M, x, 0.3)]
        M = _cycle_with_tail(450)
        for x in (0, 7, 450, 451):
            for lam in (0.5, 0.999, 1.0, 1.001):
                got += [first_return_series(M, x, lam), green_series(M, x, lam)]
        assert _repr_digest(got) == (
            "68ce130a100ea3d018156fc29d8d25f8747d380e8eda154d6baade9f09312440")

    def test_growth_on_reducible_and_sparse_classes(self):
        got = []
        for M in _reducible_matrices():
            for x in M.vertices:
                got += [M._class_matrix(x).vertices, M.period(x), M.is_irreducible(),
                        local_growth_rate(M, x, n_max=3000),
                        global_growth_rate(M, x, n_max=3000)]
        M = _cycle_with_tail(450)
        for x in (0, 450, 451):
            got += [local_growth_rate(M, x, n_max=1400), global_growth_rate(M, x, n_max=1400)]
        assert _repr_digest(got) == (
            "761c0cc7c7d85900ad32a515837b5f44c47bc348c183e9b1cc685e9eb34415e1")

    def test_expected_population(self):
        m = build_scenario("zd_translation", {"radius": 30})
        M = moment_matrix(m)
        got = [expected_population(M, {0: 1, 5: 2}, n).tolist() for n in (0, 1, 7, 40)]
        assert _repr_digest(got) == (
            "c157c03ba91a2cf9d5d56e90b0dcb14a7b7f4faff2d58d77d814aef3571b307c")
