"""First-moment matrix machinery: powers, growth rates, generating series.

Growth rates are read off return/row-sum sequences of matrix powers.  On a
finite window those sequences have the form sum_j c_j lambda_j^n, so the
ratio of consecutive (period-aligned) terms converges geometrically to the
dominant root; we report the raw n-th-root sequence as evidence and an
Aitken-accelerated ratio as the value.  Everything is carried in log scale
so supercritical windows cannot overflow.

Perron roots are certified instead where a caller can use a bracket: any
positive v gives the Collatz-Wielandt bounds min (Mv)_i/v_i <= rho <=
max (Mv)_i/v_i, widened by the rounding of their one matrix-vector
product.  A class of up to ``_DENSE_CUTOFF`` vertices takes v from one
dense eigensolve; seneta windows use only that.  A larger class, or one
whose eigenvector does not certify, takes v from the shifted iteration
v <- (M + I)v, which converges for periodic classes too, when the caller
(``lambda_sweep``) says how narrow the bracket must be.

Linear solves (I - A) x = b, the generating series and Newton steps
alike, run through ``_solve_i_minus``: dense up to ``_DENSE_CUTOFF``
unknowns, sparse above.

A moment matrix holds plain csr arrays (``core._CsrArrays``).  Up to
``_DENSE_CUTOFF`` = 400 vertices its products, dense class blocks and
strong components (Tarjan's algorithm) run in numpy; above it they and the
solves run through scipy, imported where they run.  Periods take
breadth-first levels in plain Python at any size.  ``MomentMatrix.csr`` is
scipy's matrix, built on first access.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (_DENSE_CUTOFF, BrwModel, ModelError, _CsrArrays, _hops, _index_of, _real,
                   _strong_labels, _whole, law_table)

_REL_TOL = 1e-3     # converged: the last three ratios (or a bracket's ends) agree to this
_UNIT_ROUNDOFF = 2.0 ** -53
_CW_STEPS = 5_000   # step budget of the shifted Collatz-Wielandt iteration
_STOP_TOL = 1e-13   # power iteration stops once three stride-ratios agree to this


# ---------------------------------------------------------------------------
# moment matrix
# ---------------------------------------------------------------------------

class MomentMatrix:
    """Sparse nonnegative matrix of expected offspring counts m_xy.

    ``arrays`` holds it as canonical csr arrays, read from a 2-D array of
    real numbers or a scipy sparse matrix; ``csr`` is the scipy matrix,
    built on first access.  Duplicate vertex labels, a shape that does not
    match them, entries that are not real numbers and negative or
    non-finite entries raise ModelError.
    """

    def __init__(self, matrix, vertices):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dim = len(self.vertices)
        if len(self.index) != self.dim:
            raise ModelError("duplicate vertex labels")
        if not isinstance(matrix, _CsrArrays):
            sparse = hasattr(matrix, "tocsr")           # a scipy sparse matrix
            a = matrix if sparse else np.asarray(matrix)
            if a.dtype.kind not in "iuf":
                raise ModelError(f"matrix entries must be real numbers, got {a.dtype}")
            if a.shape != (self.dim, self.dim):
                raise ModelError("matrix shape does not match the vertex list")
            if sparse:
                a = a.tocsr().astype(float)             # a copy, made canonical in place
                a.sum_duplicates()
                a.eliminate_zeros()
                matrix = _CsrArrays(a.data, a.indices, a.indptr, a.shape)
            else:
                rows, cols = np.nonzero(a)
                matrix = _CsrArrays.from_entries(rows, cols, a[rows, cols].astype(float), a.shape)
        if matrix.data.size and not (matrix.data.min() >= 0 and matrix.data.max() < math.inf):
            raise ModelError("negative or non-finite weight in a moment matrix")  # NaN too
        self.arrays = matrix
        self._labels = None
        self._classes = {}      # strong-component label -> that class's MomentMatrix
        self._period = None     # set on an irreducible matrix (a class) once computed

    @property
    def csr(self):
        """The scipy csr matrix, built on first access."""
        return self.arrays.tocsr()

    def row_sums(self) -> np.ndarray:
        """Each row's entries added by ``np.add.reduceat``, as scipy's row sum does."""
        a, out = self.arrays, np.zeros(self.dim)
        filled = np.flatnonzero(np.diff(a.indptr))
        out[filled] = np.add.reduceat(a.data, a.indptr[filled])
        return out

    def max_row_sum(self) -> float:
        return float(self.row_sums().max()) if self.dim else 0.0

    def submatrix(self, subset) -> "MomentMatrix":
        idx = np.unique([_index_of(self.index, v, "window vertex") for v in subset])
        if not idx.size:
            raise ModelError("empty submatrix")
        return self if idx.size == self.dim else self._cut(idx)

    def _cut(self, idx) -> "MomentMatrix":
        """The principal submatrix on the ascending indices idx."""
        a, new = self.arrays, np.full(self.dim, -1)
        new[idx] = np.arange(idx.size)
        keep = (new[a.rows] >= 0) & (new[a.indices] >= 0)
        return MomentMatrix(
            _CsrArrays.from_entries(new[a.rows[keep]], new[a.indices[keep]], a.data[keep],
                                    (idx.size, idx.size)),
            [self.vertices[i] for i in idx.tolist()])

    def _strong_labels(self):
        if self._labels is None:
            self._labels = _strong_labels(self.arrays)
        return self._labels

    def _class_matrix(self, x) -> "MomentMatrix":
        """x's communicating class: self when irreducible, else cut once and cached."""
        i = _index_of(self.index, x, "x")
        if self.is_irreducible():
            return self
        labels = self._strong_labels()
        lab = labels[i]
        if lab not in self._classes:
            self._classes[lab] = cls = self._cut(np.flatnonzero(labels == lab))
            cls._labels = np.zeros(cls.dim, labels.dtype)     # irreducible by construction
        return self._classes[lab]

    def is_irreducible(self) -> bool:
        return self.dim > 0 and not self._strong_labels().any()

    def period(self, x) -> int:
        """gcd of return-path lengths through x's class (0 if x has no returns)."""
        cls = self._class_matrix(x)
        if cls._period is None:
            # a class invariant: gcd over edges of level(u) + 1 - level(v), BFS from 0
            a = cls.arrays
            level = _hops(a, [0]).astype(np.int64)
            cls._period = int(abs(np.gcd.reduce(level[a.rows] + 1 - level[a.indices])))
        return cls._period


def moment_matrix(model: BrwModel) -> MomentMatrix:
    """m_xy = expected children a particle at x sends to y (cached on the model)."""
    M = model._cache.get("moment_matrix")
    if M is None:
        M = model._cache["moment_matrix"] = MomentMatrix(law_table(model).mean(), model.vertices)
    return M


def expected_population(M: MomentMatrix, eta0, n: int) -> np.ndarray:
    """Mean occupation after n generations from eta0, a dict vertex -> count
    whose counts are finite and nonnegative; any other start raises ModelError."""
    n = _whole(n, 0, "generation count")
    if not isinstance(eta0, dict):
        raise ModelError(f"the start must be a dict vertex -> count, got {type(eta0).__name__}")
    u = np.zeros(M.dim)
    for v, c in eta0.items():
        u[_index_of(M.index, v, "start vertex")] = _real(c, 0, f"start count at {v!r}")
    for _ in range(n):
        u = M.arrays.tdot(u)
    return u


# ---------------------------------------------------------------------------
# growth estimates
# ---------------------------------------------------------------------------

@dataclass
class GrowthEstimate:
    """Reported root estimate with its finite evidence: a sequence, or a bracket."""

    value: float
    sequence: tuple = ()            # (n, n-th root of the tracked quantity)
    ratios: tuple = ()              # period-aligned consecutive-ratio estimates
    subsequence_rule: str = ""
    converged: bool = False
    # (low, high) certified to hold the root, None where power iteration ran; out of
    # repr, so the recorded repr digests of power-iteration estimates stand
    bracket: tuple | None = field(default=None, repr=False)


def _aitken(r):
    """Guarded Aitken extrapolation of the last three terms of a ratio sequence."""
    if len(r) < 3:
        return r[-1] if r else 0.0
    a, b, c = r[-3], r[-2], r[-1]
    denom = (c - b) - (b - a)
    if denom == 0.0 or not math.isfinite(denom):
        return c
    acc = c - (c - b) ** 2 / denom
    # reject the extrapolation when it is not an actual refinement
    if not math.isfinite(acc) or abs(acc - c) > abs(c - b) + 1e-15:
        return c
    return acc


def _converged(ratios):
    if len(ratios) < 3:
        return False
    tail = ratios[-3:]
    scale = max(abs(t) for t in tail) or 1.0
    return (max(tail) - min(tail)) / scale <= _REL_TOL


def _log_sequence(M, start_idx, read, stride, n_max):
    """Log-scale values of a tracked functional of e_start @ M^n.

    ``read`` maps the normalized iterate to the tracked nonnegative scalar;
    entries are collected every ``stride`` steps.  Stops early once the
    stride-ratios are stable to _STOP_TOL three times in a row.
    """
    dense = M.dim <= _DENSE_CUTOFF      # u -> u @ M, dense below the cutoff
    mat = M.arrays.toarray() if dense else M.csr.T.tocsr()
    u = np.zeros(M.dim)
    u[start_idx] = 1.0
    logscale = 0.0
    out = []   # (n, log value)
    stable = 0
    last_ratio = None
    for n in range(1, n_max + 1):
        u = u @ mat if dense else mat.dot(u)
        s = np.add.reduce(u)
        if s <= 0.0:
            out.append((n, -math.inf))
            break
        logscale += math.log(s)
        u /= s
        if stride == 1 or n % stride == 0:
            val = read(u)
            out.append((n, math.log(val) + logscale if val > 0 else -math.inf))
            if len(out) >= 2 and math.isfinite(out[-1][1]) and math.isfinite(out[-2][1]):
                ratio = (out[-1][1] - out[-2][1]) / stride
                if last_ratio is not None and abs(ratio - last_ratio) <= _STOP_TOL * max(1.0, abs(ratio)):
                    stable += 1
                    if stable >= 3:
                        break
                else:
                    stable = 0
                last_ratio = ratio
    return out


def _estimate_from_logs(logs, stride):
    finite = [(n, la) for n, la in logs if math.isfinite(la)]
    roots = tuple((n, math.exp(la / n)) for n, la in finite)
    ratios = tuple(math.exp((b - a) / stride)
                   for (n0, a), (n1, b) in zip(finite, finite[1:]) if n1 - n0 == stride)
    if not roots:
        return 0.0, roots, ratios, True
    value = _aitken(ratios) if ratios else roots[-1][1]
    return value, roots, ratios, _converged(ratios)


def local_growth_rate(M: MomentMatrix, x0, n_max=2000) -> GrowthEstimate:
    """Dominant n-th-root growth of the return values m^(n)_{x0 x0}.

    Off-period powers of a periodic class are identically zero, so the roots
    are taken along n = 0 mod period(x0); the value is the Aitken-accelerated
    ratio of on-period terms, converged when the last three agree to _REL_TOL.
    ``n_max`` is a whole number of at least twice the period.
    """
    n_max = _whole(n_max, 1, "n_max")
    cls = M._class_matrix(x0)
    p = M.period(x0)
    if p == 0:
        return GrowthEstimate(0.0, (), (), "no return paths", True)
    if n_max < 2 * p:
        raise ModelError(f"n_max={n_max} below twice the period {p}")
    i0 = cls.index[x0]
    logs = _log_sequence(cls, i0, lambda u: u[i0], p, n_max)
    value, roots, ratios, conv = _estimate_from_logs(logs, p)
    return GrowthEstimate(value, roots, ratios, f"n == 0 (mod {p})", conv)


def global_growth_rate(M: MomentMatrix, x0, n_max=2000) -> GrowthEstimate:
    """Dominant n-th-root growth of the row sums of M^n started at x0.

    A collapse of the iterate to zero (possible on nilpotent reachable sets)
    pins the estimate to 0.  Oscillating ratios are re-sampled at strides
    2..6 before giving up on convergence (``_REL_TOL``).  ``n_max`` is a
    whole number of at least 2.
    """
    i0, n_max = _index_of(M.index, x0, "x0"), _whole(n_max, 2, "n_max")
    for stride in (1, 2, 3, 4, 5, 6):
        logs = _log_sequence(M, i0, np.add.reduce, stride, n_max)
        if logs and not math.isfinite(logs[-1][1]):
            return GrowthEstimate(0.0, tuple((n, math.exp(la / n)) for n, la in logs[:-1]),
                                  (), "iterate collapsed to zero", True)
        value, roots, ratios, conv = _estimate_from_logs(logs, stride)
        if conv or stride == 6:
            rule = "all n" if stride == 1 else f"n == 0 (mod {stride})"
            return GrowthEstimate(value, roots, ratios, rule, conv)


# ---------------------------------------------------------------------------
# generating series
# ---------------------------------------------------------------------------

def _solve_i_minus(A, b):
    """Solve (I - A) x = b for a square A, dense or sparse.

    Up to _DENSE_CUTOFF unknowns the system is densified and solved by
    LAPACK, above it by scipy's spsolve.  A singular system gives
    non-finite entries: NaN from the dense solve, spsolve's own with its
    MatrixRankWarning silenced.
    """
    n = A.shape[0]
    if n <= _DENSE_CUTOFF:
        try:
            return np.linalg.solve(np.eye(n) - (A if isinstance(A, np.ndarray) else A.toarray()), b)
        except np.linalg.LinAlgError:
            return np.full(n, math.nan)
    from scipy.sparse import identity
    from scipy.sparse.linalg import MatrixRankWarning, spsolve

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        return spsolve(identity(n, format="csr") - A, b)


def _series_sum(A, b):
    """sum_n A^n b for nonnegative A and b, or None where the series diverges.

    A finite nonnegative solution of the nonsingular (I - A) h = b bounds every
    partial sum, so it is the series; when every index reaches the support of
    b, a singular system or a negative entry certifies divergence (Seneta 2006, ch. 1).
    """
    h = _solve_i_minus(A, b)
    return h if np.isfinite(h).all() and (h >= 0).all() else None


def _class_block(M: MomentMatrix, x, lam):
    """lam * M on x's class (dense up to _DENSE_CUTOFF vertices) and x's index in it."""
    lam = _real(lam, 0, "lam")
    cls = M._class_matrix(x)
    block = cls.arrays.toarray() if cls.dim <= _DENSE_CUTOFF else cls.csr
    return block * lam, cls.index[x]


def _vector(a):
    """A row or column of a class block as a 1-D array."""
    return a if isinstance(a, np.ndarray) else a.toarray().ravel()


def first_return_series(M: MomentMatrix, x, lam, n_max=400) -> float:
    """Phi(x,x|lam): weighted paths returning to x that avoid x in between.

    They stay in x's class C; with T = C minus x, Phi = lam m_xx + lam M_xT h
    for the taboo sum h solving (I - lam M_TT) h = lam M_Tx (``_series_sum``),
    inf where a singular system or a negative entry certifies divergence.  The
    value is the full sum: ``n_max`` is kept for old callers and bounds nothing.
    """
    A, i = _class_block(M, x, lam)
    t = np.flatnonzero(np.arange(A.shape[0]) != i)
    h = _series_sum(A[t][:, t], _vector(A[t, i]))
    return math.inf if h is None else float(A[i, i] + _vector(A[i, t]) @ h)


def green_series(M: MomentMatrix, x, lam, n_max=400) -> float:
    """Gamma(x,x|lam) = sum_n m^(n)_xx lam^n, inf where the series diverges.

    Returns to x stay in x's class C, so Gamma = y_x for the solution y of
    (I - lam M_CC) y = e_x (``_series_sum``); a singular system or a negative
    entry certifies divergence.  The value is the full sum: ``n_max`` is kept
    for old callers and bounds nothing.
    """
    A, i = _class_block(M, x, lam)
    y = _series_sum(A, (np.arange(A.shape[0]) == i).astype(float))
    return math.inf if y is None else float(y[i])


def _widened(ratios, terms):
    """(min, max) of computed Collatz-Wielandt ratios, each an at most
    ``terms``-term dot product and one division, widened to hold the exact ones.

    Each computed ratio lies within a factor 1 +- gamma_{terms+2} of the
    exact one, gamma_k = k u / (1 - k u); both ends are widened by that
    factor and then by one ulp for the rounding of the widening itself.
    """
    ku = (terms + 2) * _UNIT_ROUNDOFF
    gamma = ku / (1.0 - ku)
    return (float(np.nextafter(ratios.min() * (1.0 - gamma), -math.inf)),
            float(np.nextafter(ratios.max() * (1.0 + gamma), math.inf)))


def _perron_bracket(cls: MomentMatrix, done=None):
    """Certified (low, high) around the Perron root of an irreducible class, or None.

    A class of at most _DENSE_CUTOFF vertices first tries v = |eigenvector
    of the eigenvalue with the largest real part| from one dense ``eig``:
    any positive v gives min (Av)_i/v_i <= rho(A) <= max (Av)_i/v_i, and
    the n-term ratios are widened by ``_widened``.  v certifies when no
    product a_ij v_j can leave the normal range (a zero or NaN entry of v
    fails), where that error bound holds.

    A larger class, or one whose v does not certify, gets None without
    ``done``.  With it, the shifted iteration v <- (A + I)v / max(...) from
    the ones vector: A + I is aperiodic with A's Perron vector, so v
    converges to it even on a periodic class.  At every certifying iterate
    the ratios of A + I minus 1 bound rho(A) = rho(A + I) - 1; they are
    computed as (Av)_i/v_i, which is the same number without the
    cancellation, widened by gamma_{(row nnz) + 3}, and the bracket is the
    intersection over iterates.  The iteration stops once done(low, high)
    holds or after _CW_STEPS steps; None when no iterate certified.
    """
    A, tiny = cls.arrays, np.finfo(float).tiny
    a_min = A.data[A.data > 0].min()
    if cls.dim <= _DENSE_CUTOFF:
        D = A.toarray()
        w, vecs = np.linalg.eig(D)
        v = np.abs(vecs[:, np.argmax(w.real)])
        if v.min() * a_min >= tiny:
            return _widened((D @ v) / v, cls.dim)
    if done is None:
        return None
    terms = int(np.diff(A.indptr).max()) + 1
    low, high = -math.inf, math.inf
    v, ratios = np.ones(cls.dim), np.empty(cls.dim)     # both reused at every step
    for _ in range(_CW_STEPS):
        av = A.dot(v)
        if v.min() * a_min >= tiny:
            lo, hi = _widened(np.divide(av, v, out=ratios), terms)
            low, high = max(low, lo), min(high, hi)
            if done(low, high):
                break
        av += v
        np.divide(av, av.max(), out=v)
    return None if high == math.inf else (low, high)


def _window_growth(W: MomentMatrix, x0, n_max) -> GrowthEstimate:
    """Perron bracket of x0's class in W when it has an edge and at most
    _DENSE_CUTOFF vertices and v certifies; ``local_growth_rate`` otherwise."""
    cls = W._class_matrix(x0)
    if cls.arrays.data.size and cls.dim <= _DENSE_CUTOFF:
        bracket = _perron_bracket(cls)
        if bracket is not None:
            low, high = bracket
            return GrowthEstimate((low + high) / 2, subsequence_rule="Collatz-Wielandt bracket",
                                  converged=high - low <= _REL_TOL * high, bracket=bracket)
    return local_growth_rate(W, x0, n_max=n_max)


def seneta_sequence(model: BrwModel, exhaustion, x0, n_max=2000):
    """Local growth of the induced submatrix along a sequence of windows.

    The induced restriction keeps m_xy for x, y inside each window, so the
    n-th entry is the Perron root of x0's class in (m_xy) on exhaustion[n];
    for nested windows the roots are nondecreasing and increase to the full
    root (Seneta 2006).  A class with an edge and at most _DENSE_CUTOFF
    vertices gets a certified Collatz-Wielandt ``bracket`` from one dense
    eigensolve: ``value`` is its midpoint, ``converged`` means its width is
    at most _REL_TOL * high, and ``sequence`` and ``ratios`` are empty.  A
    class without returns, a larger class, or one whose eigenvector does not
    certify gets ``local_growth_rate`` with ``n_max`` and no bracket.  A
    window that occurs more than once is solved once, and its entries share
    that estimate.
    """
    windows = [frozenset(subset) for subset in exhaustion]
    if any(x0 not in w for w in windows):
        raise ModelError(f"x0={x0!r} missing from an exhaustion member")
    M = moment_matrix(model)
    solved = {}
    for w in windows:
        if w not in solved:
            solved[w] = _window_growth(M.submatrix(w), x0, n_max)
    return [solved[w] for w in windows]
