"""First-moment matrix machinery: powers, growth rates, generating series.

Growth rates are read off return/row-sum sequences of matrix powers.  On a
finite window those sequences have the form sum_j c_j lambda_j^n, so the
ratio of consecutive (period-aligned) terms converges geometrically to the
dominant root; we report the raw n-th-root sequence as evidence and an
Aitken-accelerated ratio as the value.  Everything is carried in log scale
so supercritical windows cannot overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csgraph, csr_matrix, identity, issparse
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from .core import BrwModel, ModelError, law_table

# below this dimension matrix powers and series solves run dense, which is faster
_DENSE_CUTOFF = 400
_REL_TOL = 1e-3     # converged: the last three ratios agree to this relative spread


# ---------------------------------------------------------------------------
# moment matrix
# ---------------------------------------------------------------------------

class MomentMatrix:
    """Sparse nonnegative matrix of expected offspring counts m_xy."""

    def __init__(self, matrix, vertices):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.dim = len(self.vertices)
        self.csr = matrix.tocsr() if issparse(matrix) else csr_matrix(np.asarray(matrix, dtype=float))
        if self.csr.shape != (self.dim, self.dim):
            raise ModelError("matrix shape does not match the vertex list")
        if self.csr.nnz and self.csr.data.min() < 0:
            raise ModelError("negative weight in a moment matrix")
        self._labels = None
        self._periods = {}

    @staticmethod
    def from_rows(rows: dict, vertices) -> "MomentMatrix":
        vertices = tuple(vertices)
        index = {v: i for i, v in enumerate(vertices)}
        r, c, d = [], [], []
        for v, row in rows.items():
            for u, w in row.items():
                if w != 0.0:
                    r.append(index[v])
                    c.append(index[u])
                    d.append(float(w))
        n = len(vertices)
        return MomentMatrix(csr_matrix((d, (r, c)), shape=(n, n)), vertices)

    def entry(self, x, y) -> float:
        return float(self.csr[self.index[x], self.index[y]])

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.csr.sum(axis=1)).ravel()

    def max_row_sum(self) -> float:
        return float(self.row_sums().max()) if self.dim else 0.0

    def submatrix(self, subset) -> "MomentMatrix":
        keepset = set(subset)
        keep = [v for v in self.vertices if v in keepset]
        if not keep:
            raise ModelError("empty submatrix")
        idx = np.array([self.index[v] for v in keep])
        return MomentMatrix(self.csr[np.ix_(idx, idx)], keep)

    def _strong_labels(self):
        if self._labels is None:
            _, self._labels = csgraph.connected_components(
                self.csr, directed=True, connection="strong")
        return self._labels

    def communicating_class(self, x):
        if x not in self.index:
            raise ModelError(f"vertex {x!r} not in the matrix")
        labels = self._strong_labels()
        lab = labels[self.index[x]]
        return tuple(v for v in self.vertices if labels[self.index[v]] == lab)

    def is_irreducible(self) -> bool:
        return len(set(self._strong_labels())) == 1

    def period(self, x) -> int:
        """gcd of return-path lengths through x's class (0 if x has no returns)."""
        if x in self._periods:
            return self._periods[x]
        cls = self.communicating_class(x)
        idx = np.array([self.index[v] for v in cls])
        sub = self.csr[np.ix_(idx, idx)]
        if sub.nnz == 0:
            self._periods[x] = 0
            return 0
        # BFS levels from x inside the class, then gcd over edges of
        # level(u) + 1 - level(v); all vertices are reachable within a class
        start = cls.index(x)
        level = csgraph.shortest_path(sub, method="D", unweighted=True,
                                      indices=start).astype(np.int64)
        coo = sub.tocoo()
        diffs = level[coo.row] + 1 - level[coo.col]
        self._periods[x] = int(abs(np.gcd.reduce(diffs)))
        return self._periods[x]


def moment_matrix(model: BrwModel) -> MomentMatrix:
    """m_xy = expected children a particle at x sends to y (cached on the model)."""
    M = model._cache.get("moment_matrix")
    if M is None:
        M = model._cache["moment_matrix"] = MomentMatrix(law_table(model).mean(), model.vertices)
    return M


def expected_population(M: MomentMatrix, eta0, n: int) -> np.ndarray:
    """Mean occupation after n generations from eta0 (a vector over M.vertices)."""
    if n < 0:
        raise ModelError("generation count must be nonnegative")
    if isinstance(eta0, dict):
        u = np.zeros(M.dim)
        for v, c in eta0.items():
            u[M.index[v]] = c
    else:
        u = np.asarray(eta0, dtype=float).copy()
    mat = M.csr
    for _ in range(n):
        u = mat.T.dot(u)
    return u


# ---------------------------------------------------------------------------
# growth estimates
# ---------------------------------------------------------------------------

@dataclass
class GrowthEstimate:
    """Reported root estimate with its finite evidence sequence."""

    value: float
    sequence: tuple = ()            # (n, n-th root of the tracked quantity)
    ratios: tuple = ()              # period-aligned consecutive-ratio estimates
    subsequence_rule: str = ""
    converged: bool = False


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


def _log_sequence(M, start_idx, read, stride, n_max, stop_tol):
    """Log-scale values of a tracked functional of e_start @ M^n.

    ``read`` maps the normalized iterate to the tracked nonnegative scalar;
    entries are collected every ``stride`` steps.  Stops early once the
    stride-ratios are stable to stop_tol three times in a row.
    """
    dense = M.dim <= _DENSE_CUTOFF      # u -> u @ M, dense below the cutoff
    mat = M.csr.toarray() if dense else M.csr.T.tocsr()
    u = np.zeros(M.dim)
    u[start_idx] = 1.0
    logscale = 0.0
    out = []   # (n, log value)
    stable = 0
    last_ratio = None
    for n in range(1, n_max + 1):
        u = u @ mat if dense else mat.dot(u)
        s = u.sum()
        if s <= 0.0:
            out.append((n, -math.inf))
            break
        logscale += math.log(s)
        u /= s
        if n % stride == 0:
            val = read(u)
            out.append((n, math.log(val) + logscale if val > 0 else -math.inf))
            if len(out) >= 2 and math.isfinite(out[-1][1]) and math.isfinite(out[-2][1]):
                ratio = (out[-1][1] - out[-2][1]) / stride
                if last_ratio is not None and abs(ratio - last_ratio) <= stop_tol * max(1.0, abs(ratio)):
                    stable += 1
                    if stable >= 3:
                        break
                else:
                    stable = 0
                last_ratio = ratio
    return out


def _estimate_from_logs(logs, stride):
    roots = tuple((n, math.exp(la / n)) for n, la in logs if math.isfinite(la))
    ratios = []
    finite = [(n, la) for n, la in logs if math.isfinite(la)]
    for (n0, a), (n1, b) in zip(finite, finite[1:]):
        if n1 - n0 == stride:
            ratios.append(math.exp((b - a) / stride))
    ratios = tuple(ratios)
    if not roots:
        return 0.0, roots, ratios, True
    value = _aitken(list(ratios)) if ratios else roots[-1][1]
    return value, roots, ratios, _converged(ratios)


def local_growth_rate(M: MomentMatrix, x0, n_max=2000, stop_tol=1e-13) -> GrowthEstimate:
    """Dominant n-th-root growth of the return values m^(n)_{x0 x0}.

    Off-period powers of a periodic class are identically zero, so the roots
    are taken along n = 0 mod period(x0); the value is the Aitken-accelerated
    ratio of on-period terms, converged when the last three agree to _REL_TOL.
    """
    sub = M.submatrix(M.communicating_class(x0))
    p = sub.period(x0)
    if p == 0:
        return GrowthEstimate(0.0, (), (), "no return paths", True)
    if n_max < 2 * p:
        raise ModelError(f"n_max={n_max} below twice the period {p}")
    i0 = sub.index[x0]
    logs = _log_sequence(sub, i0, lambda u: u[i0], p, n_max, stop_tol)
    value, roots, ratios, conv = _estimate_from_logs(logs, p)
    return GrowthEstimate(value, roots, ratios, f"n == 0 (mod {p})", conv)


def global_growth_rate(M: MomentMatrix, x0, n_max=2000, stop_tol=1e-13) -> GrowthEstimate:
    """Dominant n-th-root growth of the row sums of M^n started at x0.

    A collapse of the iterate to zero (possible on nilpotent reachable sets)
    pins the estimate to 0.  Oscillating ratios are re-sampled at strides
    2..6 before giving up on convergence (``_REL_TOL``).
    """
    if x0 not in M.index:
        raise ModelError(f"vertex {x0!r} not in the matrix")
    if n_max < 2:
        raise ModelError("n_max must be at least 2")
    i0 = M.index[x0]
    for stride in (1, 2, 3, 4, 5, 6):
        logs = _log_sequence(M, i0, lambda u: u.sum(), stride, n_max, stop_tol)
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

def _series_sum(A, b):
    """sum_n A^n b for nonnegative A and b, or None where the series diverges.

    A finite nonnegative solution of the nonsingular (I - A) h = b bounds every
    partial sum, so it is the series; when every index reaches the support of
    b, a singular system or a negative entry certifies divergence (Seneta 2006, ch. 1).
    """
    n = A.shape[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", MatrixRankWarning)
        try:
            h = (np.linalg.solve(np.eye(n) - A.toarray(), b) if n <= _DENSE_CUTOFF
                 else spsolve(identity(n, format="csr") - A, b))
        except np.linalg.LinAlgError:
            return None
    return h if np.isfinite(h).all() and (h >= 0).all() else None


def _class_block(M: MomentMatrix, x, lam):
    """lam * M on x's communicating class (csr), and x's index in that class."""
    if not 0.0 <= lam < math.inf:
        raise ModelError(f"lam must be finite and nonnegative, got {lam!r}")
    sub = M.submatrix(M.communicating_class(x))
    return sub.csr * float(lam), sub.index[x]


def first_return_series(M: MomentMatrix, x, lam, n_max=400) -> float:
    """Phi(x,x|lam): weighted paths returning to x that avoid x in between.

    They stay in x's class C; with T = C minus x, Phi = lam m_xx + lam M_xT h
    for the taboo sum h solving (I - lam M_TT) h = lam M_Tx (``_series_sum``),
    inf where a singular system or a negative entry certifies divergence.  The
    value is the full sum: ``n_max`` is kept for old callers and bounds nothing.
    """
    A, i = _class_block(M, x, lam)
    t = np.flatnonzero(np.arange(A.shape[0]) != i)
    h = _series_sum(A[t][:, t], A[t, i].toarray().ravel())
    return math.inf if h is None else float(A[i, i] + A[i, t].toarray().ravel() @ h)


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


def seneta_sequence(model: BrwModel, exhaustion, x0, n_max=2000):
    """Local growth of the induced submatrix along a sequence of windows.

    The induced restriction keeps m_xy for x, y inside each window, so the
    n-th entry is the growth of (m_xy) on exhaustion[n] at x0.  For nested
    windows the values are nondecreasing.
    """
    M = moment_matrix(model)
    out = []
    for subset in exhaustion:
        subset = set(subset)
        if x0 not in subset:
            raise ModelError(f"x0={x0!r} missing from an exhaustion member")
        out.append(local_growth_rate(M.submatrix(subset), x0, n_max=n_max))
    return out
