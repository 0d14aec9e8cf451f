"""Arbitrary-precision audit of the certified brackets.

Each bracket the library certifies in float64 must hold the value that
mpmath computes at 40 significant digits: the dense and the shifted
Collatz-Wielandt Perron brackets hold the root of ``mpmath.eig``, each
lambda_s bracket holds its reciprocal, and ``survival_probability`` agrees
with an mpmath recursion of G^T(0).  The inputs are drawn by hypothesis with
a fixed example count and ``derandomize=True``, so every run audits the same
matrices and models.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from brwlab import spectral
from brwlab.core import BrwModel, ModelError, build_offspring_law, product_form_law
from brwlab.genfun import lambda_sweep, survival_probability
from brwlab.spectral import MomentMatrix, _perron_bracket

DIGITS = 40


@st.composite
def irreducible_matrices(draw):
    """A nonnegative n x n matrix, 2 <= n <= 12, with every entry 10^u for u
    in [-3, 3], in one of three shapes.  "path": irreducible through the path
    0 - 1 - ... - n-1 in both directions, with up to 2n extra edges.
    "bipartite": the same, keeping only edges between vertices of opposite
    parity, so its class has period 2.  "equal rows": every row the same
    positive vector, so every Collatz-Wielandt ratio of the ones vector
    carries the rounding error of one and the same dot product, and only
    the widening by gamma keeps the root inside the bracket."""
    n = draw(st.integers(2, 12))
    shape = draw(st.sampled_from(["path", "bipartite", "equal rows"]))
    if shape == "equal rows":
        row = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
        return np.tile(10.0 ** np.array(row), (n, 1))
    edges = {(i, i + 1) for i in range(n - 1)} | {(i + 1, i) for i in range(n - 1)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if shape == "path" or (i + j) % 2:
            edges.add((i, j))
    edges = sorted(edges)
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(edges), max_size=len(edges)))
    A = np.zeros((n, n))
    for (i, j), u in zip(edges, exponents):
        A[i, j] = 10.0 ** u
    return A


def _mp_perron_root(A):
    """The eigenvalue of largest real part of A, from ``mpmath.eig`` at DIGITS digits."""
    with mp.workdps(DIGITS):
        values = mp.eig(mp.matrix(A.tolist()), left=False, right=False)
        return mp.re(max(values, key=mp.re))


def _narrow(rel):
    return lambda low, high: high - low <= rel * high


def _audit_brackets(A, root, lam_s):
    """Every Perron and lambda_s bracket of A, dense and shifted, holds root
    and lam_s = 1/root; a lambda_s bracket wider than 1e-6 lam_s may be refused."""
    M = MomentMatrix(A, tuple(range(len(A))))
    dense = _perron_bracket(M)
    if dense is not None:
        assert dense[0] <= root <= dense[1]
    for cutoff in (spectral._DENSE_CUTOFF, 0):       # 0: the shifted iteration only
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "_DENSE_CUTOFF", cutoff)
            if cutoff == 0:
                low, high = _perron_bracket(M, _narrow(1e-9))
                assert low <= root <= high
            try:
                res = lambda_sweep(M, 0, 0.0, math.inf, width=1e-6 * float(lam_s),
                                   projected_row_sum=1.0, grid=(1.0,))
            except ModelError as exc:      # a bracket too wide to print is refused
                assert "wider than" in str(exc)
                continue
        lo, hi = res.lambda_s_bracket
        assert lo <= lam_s <= hi


@settings(max_examples=30, derandomize=True, deadline=None)
@given(irreducible_matrices(), st.data())
def test_perron_and_lambda_s_brackets_hold_the_mpmath_root(A, data):
    # relabelling the vertices keeps the root but changes the order of every
    # sum, so one eigensolve audits the brackets of four labellings
    root = _mp_perron_root(A)
    with mp.workdps(DIGITS):
        lam_s = 1 / root
    n = len(A)
    for order in [range(n)] + [data.draw(st.permutations(range(n))) for _ in range(3)]:
        _audit_brackets(A[np.ix_(order, order)], root, lam_s)


@st.composite
def tiny_models(draw):
    """One to three vertices, each with a product-form law (child totals 0-4,
    dispersal over all vertices) or an explicit list of one to three atoms."""
    n = draw(st.integers(1, 3))
    weights = st.floats(0.05, 1.0)
    laws = {}
    for v in range(n):
        if draw(st.booleans()):
            counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
            probs = draw(st.lists(weights, min_size=len(counts), max_size=len(counts)))
            disp = draw(st.lists(weights, min_size=n, max_size=n))
            laws[v] = product_form_law({c: p / sum(probs) for c, p in zip(counts, probs)},
                                       {u: w / sum(disp) for u, w in enumerate(disp)})
        else:
            configs = draw(st.lists(st.dictionaries(st.integers(0, n - 1), st.integers(1, 3),
                                                    max_size=n),
                                    min_size=1, max_size=3,
                                    unique_by=lambda c: tuple(sorted(c.items()))))
            probs = draw(st.lists(weights, min_size=len(configs), max_size=len(configs)))
            laws[v] = build_offspring_law([(c, p / sum(probs)) for c, p in zip(configs, probs)])
    return BrwModel(tuple(range(n)), laws)


def _mp_extinct_by(model, horizon):
    """G^horizon(0) at DIGITS digits, from the probabilities the model stores."""
    with mp.workdps(DIGITS):
        z = [mp.mpf(0)] * model.size
        for _ in range(horizon):
            new = []
            for v in model.vertices:
                law = model.laws[v]
                if law.product is not None:
                    pf = law.product
                    s = mp.fsum(mp.mpf(w) * z[model.index[t]]
                                for t, w in zip(pf.targets, pf.weights))
                    new.append(mp.fsum(mp.mpf(float(p)) * s ** int(k)
                                       for k, p in zip(pf.rho.values, pf.rho.probs)))
                else:
                    new.append(mp.fsum(mp.mpf(p) * mp.fprod(z[model.index[u]] ** c
                                                             for u, c in cfg.entries)
                                       for cfg, p in law.atoms))
            z = new
        return z


@settings(max_examples=40, derandomize=True, deadline=None)
@given(tiny_models(), st.integers(0, 10), st.data())
def test_survival_probability_matches_the_mpmath_recursion(model, horizon, data):
    x0 = data.draw(st.sampled_from(model.vertices))
    want = 1 - _mp_extinct_by(model, horizon)[model.index[x0]]
    assert float(abs(survival_probability(model, x0, horizon) - want)) <= 1e-12
