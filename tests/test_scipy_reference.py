"""The numpy paths against the scipy routines they stand in for.

Up to ``_DENSE_CUTOFF`` vertices the moment matrix, G and the class graph
run on plain csr arrays, with no scipy.  These tests hold each numpy path to
the scipy routine it replaced, on every default scenario and on matrices
drawn by hypothesis with a fixed example count and ``derandomize=True``:
products and dense forms bit for bit, strong components as the same
partition, breadth-first distances equal to ``csgraph.shortest_path``, and
``_log_q`` equal to its ``xlogy`` form bit for bit on a fixed grid.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import csgraph, csr_matrix
from scipy.special import xlogy

from brwlab.approx import DriftParams, _log_q
from brwlab.core import _DENSE_CUTOFF, _CsrArrays, _hops, _strong_labels
from brwlab.genfun import _evaluator
from brwlab.scenarios import SCENARIOS, build_scenario
from brwlab.spectral import moment_matrix


def scipy_form(a: _CsrArrays):
    """The scipy matrix of the same arrays, built apart from ``a.tocsr``."""
    return csr_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def assert_products_match(a: _CsrArrays, seed):
    ref = scipy_form(a)
    rng = np.random.default_rng(seed)
    for z in rng.uniform(0.0, 1.0, (3, a.shape[1])) * (rng.random((3, a.shape[1])) < 0.8):
        assert a.dot(z).tobytes() == ref.dot(z).tobytes()
        assert a.tdot(z).tobytes() == ref.T.dot(z).tobytes()
    assert a.toarray().tobytes() == ref.toarray().tobytes()


def same_partition(labels, ref) -> bool:
    pairs = set(zip(labels.tolist(), ref.tolist()))
    return len(pairs) == len(set(labels.tolist())) == len(set(ref.tolist()))


def assert_graph_matches(a: _CsrArrays):
    ref = scipy_form(a)
    _, labels = csgraph.connected_components(ref, directed=True, connection="strong")
    assert same_partition(_strong_labels(a), labels)
    for source in range(0, a.shape[0], max(1, a.shape[0] // 7)):
        want = csgraph.shortest_path(ref, method="D", unweighted=True, indices=source)
        assert _hops(a, [source]).tolist() == want.tolist()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_scenarios(name):
    m = build_scenario(name)
    M, G = moment_matrix(m), _evaluator(m)
    for i, a in enumerate((M.arrays, G.P, G.jacobian(np.full(m.size, 0.5)))):
        assert_products_match(a, i)
    if m.size <= _DENSE_CUTOFF:
        assert_graph_matches(M.arrays)


@st.composite
def csr_arrays(draw, canonical):
    """Arrays of an n x n matrix, 1 <= n <= 40, with entries 10^u, u in [-3, 3].
    Canonical: columns sorted within rows, no repeats, no zeros.  Otherwise
    entries keep their drawn order within each row, as the law table's
    dispersal rows do, and may repeat or be 0."""
    n = draw(st.integers(1, 40))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    values = st.floats(-3.0, 3.0).map(lambda u: 10.0 ** u)
    if not canonical:
        values = st.one_of(st.just(0.0), values)
    entries = draw(st.lists(st.tuples(cells, values), max_size=4 * n))
    if canonical:
        entries = sorted(dict(entries).items())
    rows = np.array([r for (r, _), _ in entries], dtype=np.int64)
    order = np.argsort(rows, kind="stable")
    cols = np.array([c for (_, c), _ in entries], dtype=np.int64)[order]
    vals = np.array([v for _, v in entries], dtype=float)[order]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return _CsrArrays(vals, cols, indptr, (n, n))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(csr_arrays(canonical=False), st.integers(0, 2 ** 32 - 1))
def test_drawn_products(a, seed):
    assert_products_match(a, seed)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(csr_arrays(canonical=True))
def test_drawn_graphs(a):
    assert_graph_matches(a)


def log_q_by_xlogy(d, alpha, beta):
    """``_log_q``'s value as it was computed with scipy's xlogy."""
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    e1, e2, e3 = (np.maximum(e, 0.0) for e in (b, b - a, 1.0 - 2.0 * b + a))
    log_num = xlogy(e1, d.p) + xlogy(e2, d.q) + xlogy(e3, d.stay)
    log_den = xlogy(e1, e1) + xlogy(e2, e2) + xlogy(e3, e3)
    return math.log(d.rho_bar) + log_num - log_den


@pytest.mark.parametrize("rho_bar", [0.5, 1.5, 3.0])
@pytest.mark.parametrize("p, q", [(0.3, 0.2), (0.0, 0.4), (0.5, 0.0), (0.6, 0.4), (0.1, 0.7)])
def test_log_q_equals_its_xlogy_form(rho_bar, p, q):
    d = DriftParams(rho_bar, p, q)
    alpha = np.linspace(-1.2, 1.2, 49)[:, None]
    beta = np.linspace(-0.2, 1.2, 57)[None, :]
    got, _ = _log_q(d, alpha, beta)
    assert got.tobytes() == log_q_by_xlogy(d, alpha, beta).tobytes()
    assert _log_q(d, d.p - d.q, d.p)[0] == log_q_by_xlogy(d, d.p - d.q, d.p)
