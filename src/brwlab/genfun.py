"""Generating-function fixed points and survival classification.

The coordinatewise map G sends z in [0,1]^V to the vector of offspring
PGF values; its least fixed point is the global extinction vector.  Local
survival is read from the return growth rate; global survival from the mean
of a registered projected child-count law, else on a finite irreducible
window from the same return growth (both hold exactly when rho(M) > 1), else
from fixed points; strong local survival at A from comparing local extinction,
the least fixed point of G on the ancestors of A, with the global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (BrwModel, ModelError, _CsrArrays, _hops, _index_of, _real, _whole,
                   continuous_counterpart, law_table, restrict_model)
from .spectral import (_DENSE_CUTOFF, GrowthEstimate, MomentMatrix, _perron_bracket,
                       _solve_i_minus, local_growth_rate, moment_matrix)


# ---------------------------------------------------------------------------
# evaluating G
# ---------------------------------------------------------------------------

class _GEvaluator:
    """Vectorized evaluator of z -> G(z) for a fixed model, read off its law table.

    Product rows are grouped by equal child-count law: one sparse dispersal
    product plus one polynomial evaluation per group.  Atom rows take one
    pass over the count entries: c log z per entry, one ``add.reduceat`` per
    atom, ``math.exp`` on each atom's sum and one bincount summing each
    row's atoms.  Only that exponential is the C library's: the logarithm is
    ``np.log``, whose last bits can depend on the SIMD path numpy takes on
    the host, so G on atom rows can differ between hosts in the last bit.
    A model without atom rows, or without product groups, skips that pass.
    ``jacobian`` gives G'(z) as csr arrays from the same data.
    """

    def __init__(self, model: BrwModel):
        self.model = model
        table = law_table(model)
        self.P = table.disp
        dense = [(rho.dense_probs(), rows) for rho, rows in table.rho_groups]
        self.groups = [(c, np.polynomial.polynomial.polyder(c), rows) for c, rows in dense]
        # counts[a, j] = children atom a sends to vertex j; atom a belongs to
        # row atom_rows[a].  Each stored entry also gets its slot within the
        # atom, so the product over the atom's other entries is a left times
        # a right cumulative product over a padded (atom x slot) table.
        self.counts = table.counts
        self.atom_probs = table.atom_probs
        self.atom_rows = np.repeat(np.arange(model.size), np.diff(table.atom_ptr))
        self._cnt = self.counts.data.astype(float)
        nnz_per_atom = np.diff(self.counts.indptr)
        self._filled = nnz_per_atom > 0
        self._entry_atom = self.counts.rows
        self._entry_slot = np.arange(self._cnt.size) - self.counts.indptr[self._entry_atom]
        self._slots = int(nnz_per_atom.max()) if self.atom_probs.size else 0

    def __call__(self, z: np.ndarray) -> np.ndarray:
        if self.atom_probs.size:
            with np.errstate(divide="ignore"):
                cz = self._cnt * np.log(z[self.counts.indices])
            logs = np.zeros(self.atom_probs.size)              # sum of c log z per atom
            logs[self._filled] = np.add.reduceat(cz, self.counts.indptr[:-1][self._filled])
            terms = self.atom_probs * np.array([math.exp(x) for x in logs.tolist()])
            out = np.bincount(self.atom_rows, weights=terms, minlength=z.size)
        else:
            out = np.zeros(z.size)
        if self.groups:
            pz = self.P.dot(z)
            for coeffs, _, idx in self.groups:
                out[idx] = np.polynomial.polynomial.polyval(pz[idx], coeffs)
        return out.clip(0.0, 1.0)

    def jacobian(self, z: np.ndarray) -> _CsrArrays:
        """G'(z) as canonical csr arrays: diag(rho'(Pz)) P on product-form
        rows, summed atom terms elsewhere.

        The atom term for entry (a, j) is p_a c_aj z_j^(c_aj - 1) times the
        product of z_k^(c_ak) over the atom's other entries k, taken without
        dividing by z_j, so zero coordinates are exact.
        """
        n = self.model.size
        scale = np.zeros(n)
        if self.groups:
            pz = self.P.dot(z)
            for _, dcoeffs, idx in self.groups:
                scale[idx] = np.polynomial.polynomial.polyval(pz[idx], dcoeffs)
        P = self.P
        rows, cols, data = P.rows, P.indices, P.data * scale[P.rows]
        if self._cnt.size:
            cnt, at = self._cnt, self.counts.indices
            table = np.ones((self.counts.shape[0], self._slots + 2))
            table[self._entry_atom, self._entry_slot + 1] = z[at] ** cnt
            left = np.cumprod(table, axis=1)
            right = np.cumprod(table[:, ::-1], axis=1)[:, ::-1]
            others = (left[self._entry_atom, self._entry_slot]
                      * right[self._entry_atom, self._entry_slot + 2])
            rows = np.concatenate([rows, self.atom_rows[self._entry_atom]])
            cols = np.concatenate([cols, at])
            data = np.concatenate(
                [data, self.atom_probs[self._entry_atom] * cnt * z[at] ** (cnt - 1.0) * others])
        return _CsrArrays.from_entries(rows, cols, data, (n, n))


def _evaluator(model: BrwModel) -> _GEvaluator:
    ev = model._cache.get("gev")
    if ev is None:
        ev = model._cache["gev"] = _GEvaluator(model)
    return ev


def as_field(model: BrwModel, values) -> np.ndarray:
    """A real vector over model.vertices with coordinates in [0,1], as floats;
    any other shape or type, a dict, a scalar or text included, raises ModelError."""
    z = np.asarray(values)
    if z.shape != (model.size,) or z.dtype.kind not in "iuf":
        raise ModelError(f"field must be a real vector of length {model.size}, "
                         f"got {z.dtype} of shape {z.shape}")
    z = z.astype(float, copy=False)
    if not np.all((z >= -1e-12) & (z <= 1.0 + 1e-12)):            # NaN fails too
        raise ModelError("field vector coordinates must be finite and lie in [0,1]")
    return np.clip(z, 0.0, 1.0)


def eval_G(model: BrwModel, z) -> np.ndarray:
    """G(z|x) = sum_f mu_x(f) prod_y z(y)^f(y), coordinatewise over vertices."""
    return _evaluator(model)(as_field(model, z))


# ---------------------------------------------------------------------------
# extinction fixed points
# ---------------------------------------------------------------------------

@dataclass
class IterationDiagnostics:
    iterations: int
    residual: float
    converged: bool
    newton_steps: int = 0


_KLEENE_STEPS = 1_000
_MARGIN = 1e-3              # a growth rate within _MARGIN of 1 is inconclusive
_Q_BAND = 1e-6              # an extinction probability within _Q_BAND of 1 is read as 1


def _newton_step(G: _GEvaluator, z: np.ndarray) -> np.ndarray:
    """z + (I - G'(z)_AA)^-1 (G(z) - z)_A on the active set A = {G(z) > z}.

    Coordinates off A are held fixed, which also holds the vertices whose
    least fixed point is 0 at 0.  The Jacobian block is cut from a dense
    copy up to _DENSE_CUTOFF vertices, else from its scipy matrix, and
    solved by ``_solve_i_minus``; a singular solve falls back to the plain
    step G(z) on A.
    """
    gz = G(z)
    active = np.flatnonzero(gz > z)
    z1 = z.copy()
    if active.size:
        J = G.jacobian(z)
        J = (J.toarray()[np.ix_(active, active)] if z.size <= _DENSE_CUTOFF
             else J.tocsr()[active][:, active])
        rhs = gz[active] - z[active]
        dz = _solve_i_minus(J, rhs)
        z1[active] += dz if np.isfinite(dz).all() else rhs
    return z1.clip(0.0, 1.0)


def _tol(tol) -> float:
    """A tolerance: a finite number above 0."""
    if _real(tol, 0, "tol") > 0:
        return float(tol)
    raise ModelError(f"tol must be above 0, got {tol!r}")


def _least_fixed_point(G: _GEvaluator, tol, max_iter):
    """Kleene steps from the zero vector, then Newton steps; see ``iterate_extinction``."""
    z = np.zeros(G.model.size)
    for it in range(1, max_iter + 1):
        z1 = G(z) if it <= _KLEENE_STEPS else _newton_step(G, z)
        if (z1 < z - 1e-12).any():
            raise RuntimeError("extinction iterates lost monotonicity")
        step = float(np.abs(z1 - z).max())
        z = z1
        if step < tol:
            resid = float(np.abs(G(z) - z).max())
            if resid < tol:
                return z, IterationDiagnostics(it, resid, True,
                                               newton_steps=max(0, it - _KLEENE_STEPS))
    return z, IterationDiagnostics(max_iter, math.inf, False,
                                   newton_steps=max(0, max_iter - _KLEENE_STEPS))


def iterate_extinction(model: BrwModel, target="global", tol=1e-12, max_iter=200_000):
    """Least fixed points of G: global extinction, or local extinction at a set.

    target="global": Kleene iteration z_{n+1} = G(z_n) from the zero vector
    for up to _KLEENE_STEPS steps, then Newton steps (``_newton_step``) from
    the last iterate.  Kleene convergence is sublinear at criticality;
    Newton on a monotone polynomial system stays below the least fixed point
    and gains at least about one bit per step there (Esparza, Kiefer &
    Luttenberger 2010).  Every solve that Kleene finishes within the budget
    is the plain iteration, bit for bit.  Both phases check that the
    iterates increase, share ``max_iter`` (a whole number of at least 1),
    and stop when both the step and the residual fall below ``tol`` (a
    finite number above 0; ModelError otherwise).  At criticality
    G(z) - z = O((1 - z)^2) rounds to 0 in float64 once 1 - z is near 1e-8,
    so such a solve stops there, converged to within tol in residual but
    not in value.

    target=<vertex set> A: q(x, A), the probability that A is visited only
    finitely often, is the least fixed point of G on the ancestors of A and
    1 elsewhere.  The ancestors Anc(A) are the vertices from which A can be
    reached in the moment graph.  A surviving population on a finite window
    visits some vertex infinitely often, and a particle at any vertex of
    Anc(A) has a descendant in A within a bounded number of generations
    with probability at least some delta > 0, so by conditional
    Borel-Cantelli A is visited infinitely often exactly when the process
    restricted to Anc(A) survives.  The solve is the global one on
    ``restrict_model(model, Anc(A))``, and the diagnostics are its own.
    """
    tol, max_iter = _tol(tol), _whole(max_iter, 1, "max_iter")
    if isinstance(target, str):
        if target != "global":
            raise ModelError(f"unknown target {target!r}")
        return _least_fixed_point(_evaluator(model), tol, max_iter)

    A = set(target)
    missing = [v for v in A if v not in model.index]
    if missing or not A:
        raise ModelError(f"target must be a nonempty set of model vertices; "
                         f"not in the model: {missing[:5]}")
    # Anc(A): vertices at finite distance from A in the reversed moment graph
    a = moment_matrix(model).arrays
    reverse = _CsrArrays.from_entries(a.indices, a.rows, a.data, a.shape)
    anc = np.flatnonzero(np.isfinite(_hops(reverse, [model.index[v] for v in A])))
    q_anc, diag = _least_fixed_point(
        _evaluator(restrict_model(model, [model.vertices[i] for i in anc])), tol, max_iter)
    q = np.ones(model.size)
    q[anc] = q_anc
    return q, diag


def survival_probability(model: BrwModel, x0, horizon) -> float:
    """P(some particle is alive at generation ``horizon`` | one particle at x0),
    exactly: 1 - (G^T(0))(x0), from T evaluations of G.

    (G^T(0))(x) is the probability that the descendants of a particle at x
    are extinct by generation T.  This is the survival frequency that
    ``estimate_survival`` estimates when no trial overflows; a restricted
    Monte Carlo row follows it on ``restrict_model`` of the model.
    """
    _index_of(model.index, x0, "x0")
    G, z = _evaluator(model), np.zeros(model.size)
    for _ in range(_whole(horizon, 0, "horizon")):
        z = G(z)
    return float(1.0 - z[model.index[x0]])


@dataclass
class SubsolutionReport:
    accepted: bool
    max_violation: float
    x0_value: float
    strict_at_x0: bool


def check_subsolution(model: BrwModel, z, x0, tol=1e-12) -> SubsolutionReport:
    """Is z a certificate of global survival: G(z) <= z everywhere, z(x0) < 1?"""
    i0, tol = _index_of(model.index, x0, "x0"), _tol(tol)
    z = as_field(model, z)
    gz = eval_G(model, z)
    violation = float(np.max(gz - z))
    x0v = float(z[i0])
    strict = x0v < 1.0 - tol
    return SubsolutionReport(violation <= tol and strict, max(violation, 0.0), x0v, strict)


# ---------------------------------------------------------------------------
# survival classification
# ---------------------------------------------------------------------------

@dataclass
class SurvivalReport:
    x0: object
    local: str                       # "survives" | "dies" | "inconclusive"
    local_growth: GrowthEstimate
    global_: str
    global_method: str               # "projection" | "finite-irreducible" | "fixed-point"
    global_evidence: dict
    notes: list = field(default_factory=list)

    def to_text(self) -> str:
        scalars = {k: v for k, v in self.global_evidence.items()
                   if isinstance(v, (int, float, str))}
        lines = [f"survival report at x0={self.x0}",
                 f"  local   : {self.local} (growth {self.local_growth.value:.6g}, "
                 f"converged={self.local_growth.converged})",
                 f"  global  : {self.global_} via {self.global_method} "
                 + " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in scalars.items())]
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def evidence_csv_rows(self):
        rows = [("local_growth", n, term) for n, term in self.local_growth.sequence]
        ge = self.global_evidence.get("growth")
        if isinstance(ge, GrowthEstimate):
            rows += [("global_growth", n, term) for n, term in ge.sequence]
        return rows


def _verdict(value):
    if value > 1.0 + _MARGIN:
        return "survives"
    if value < 1.0 - _MARGIN:
        return "dies"
    return "inconclusive"


def classify_survival(model: BrwModel, x0, n_max=2000) -> SurvivalReport:
    """Three-way survival classification with explicit finite evidence.

    Local: return growth rate at x0 against 1 with the _MARGIN band.
    Global: a registered projected (Galton-Watson) law decides by its mean;
    on a finite irreducible window both survivals hold exactly when rho(M) > 1,
    so the local estimate decides and is the evidence; everything else falls
    back to the least fixed point (extinction within _Q_BAND of 1 is reported
    as death on this truncation, which is the sound direction for
    restrictions of larger constructions).
    """
    M = moment_matrix(model)
    lg = local_growth_rate(M, x0, n_max=n_max)
    local = _verdict(lg.value) if lg.value > 0 else "dies"
    notes = []

    if model.projected_law is not None:
        m = model.projected_law.mean
        global_ = _verdict(m)
        method = "projection"
        evidence = {"value": m}
    elif M.is_irreducible():
        global_ = local
        method = "finite-irreducible"
        evidence = {"growth": lg, "value": lg.value}
    else:
        q, diag = iterate_extinction(model, "global")
        qx = float(q[model.index[x0]])
        if not diag.converged:
            global_ = "inconclusive"
            notes.append("extinction iteration hit max_iter")
        elif qx < 1.0 - _Q_BAND:
            global_ = "survives"
        else:
            global_ = "dies"
            if local != "survives":         # else the override below replaces the verdict
                notes.append("extinction certain on this truncation; restriction death "
                             "does not decide the untruncated model")
        method = "fixed-point"
        evidence = {"qbar_x0": qx, "iterations": diag.iterations,
                    "newton_steps": diag.newton_steps}

    if local == "survives" and global_ != "survives":
        notes.append(f"global verdict {global_!r} overridden: local survival implies "
                     "global survival")
        global_ = "survives"

    return SurvivalReport(x0, local, lg, global_, method, evidence, notes)


@dataclass
class StrongLocalReport:
    verdict: str          # "yes" | "no" | "inconclusive"
    qbar_x0: float
    q_target_x0: float
    gap: float


def strong_local_compare(model: BrwModel, x0, y) -> StrongLocalReport:
    """Do local extinction at {y} and global extinction coincide at x0?

    "yes" when both solves converge, qbar(x0) < 1 - _Q_BAND and the two
    extinction probabilities at x0 differ by at most _Q_BAND; "inconclusive"
    when a solve does not converge.  Both solves use iterate_extinction's
    defaults."""
    i0 = _index_of(model.index, x0, "x0")
    qbar, d1 = iterate_extinction(model, "global")
    qy, d2 = iterate_extinction(model, {y})
    gap = float(abs(qy[i0] - qbar[i0]))
    if not (d1.converged and d2.converged):
        verdict = "inconclusive"
    elif qbar[i0] < 1.0 - _Q_BAND and gap <= _Q_BAND:
        verdict = "yes"
    else:
        verdict = "no"
    return StrongLocalReport(verdict, float(qbar[i0]), float(qy[i0]), gap)


# ---------------------------------------------------------------------------
# rate sweeps
# ---------------------------------------------------------------------------

@dataclass
class LambdaSweepResult:
    lambda_s: float
    lambda_s_bracket: tuple
    lambda_w: float
    lambda_w_bracket: tuple
    qbar_table: tuple      # ((lam, qbar_lam(x0)), ...), nonincreasing in lam
    monotone: bool


def _reciprocal(value):
    return 1.0 / value if value > 0.0 else math.inf


def _reciprocal_bracket(low, high):
    """[1/high, 1/low] rounded outward: each division is correctly rounded,
    so one ulp covers it."""
    return (float(np.nextafter(1.0 / high, 0.0)),
            float(np.nextafter(_reciprocal(low), math.inf)))


def _critical_rate(name, lam, ends, lam_lo, lam_hi, width):
    """lam, bracketed by the smallest interval holding ``ends``, checked
    against [lam_lo, lam_hi] and ``width``."""
    if not lam_lo <= lam <= lam_hi:
        raise ModelError(f"{name} = {lam:.6g} lies outside [{lam_lo}, {lam_hi}]")
    bracket = (min(ends), max(ends))
    if bracket[1] - bracket[0] > width:
        raise ModelError(f"{name} bracket [{bracket[0]:.6g}, {bracket[1]:.6g}] is wider "
                         f"than width={width}")
    return lam, bracket


def lambda_sweep(rates, x0, lam_lo, lam_hi, vertices=None, width=2e-3,
                 projected_row_sum=None, grid=None, stop_tol=None) -> LambdaSweepResult:
    """Critical rates of the one-parameter family M = lam * K, in closed form.

    Scaling every rate by lam scales every growth rate of K by lam, so each
    threshold is the reciprocal of one root of the unscaled K.  lam_s =
    1/rho(C) for x0's communicating class C of K: its bracket is the
    reciprocal of a certified Perron bracket of C (``_perron_bracket``,
    refined until the lam bracket is at most ``width`` wide or its step
    budget ends), and lam_s is the reciprocal of that bracket's midpoint.
    lam_w = 1/kbar when the untruncated construction has constant row sum
    kbar (``projected_row_sum``; its bracket is the single point 1/kbar).
    Otherwise K is the whole construction, and it must be irreducible
    (ModelError if not): on a finite irreducible window local and global
    survival both hold exactly when rho(lam * K) > 1, so lam_w is lam_s,
    with the same bracket.  A bracket wider than ``width``, or a threshold
    outside [lam_lo, lam_hi], raises ModelError, and so does a ``width``,
    bound or rate of ``grid`` that is not a finite number of at least 0, or
    lam_lo above lam_hi.  ``stop_tol`` is kept for old callers and bounds nothing.

    ``rates`` is a MomentMatrix, or a rate matrix whose rows and columns
    are labelled by ``vertices``.  The table holds the extinction
    probability at x0 for each lam of ``grid`` (default: 9 points over
    [lam_lo, lam_hi]).  With a projection it is that of the geometric-total
    single-site counterpart, min(1, 1/(lam * kbar)); otherwise the least
    fixed point of ``counterpart_model(K, lam)``, whose geometric tails are
    cut at PROB_TOL, and an unconverged solve raises ModelError.  The table
    must be nonincreasing in lam.
    """
    width = _real(width, 0, "width")
    lam_lo, lam_hi = _real(lam_lo, 0, "lam_lo"), _real(lam_hi, 0, "lam_hi")
    if lam_lo > lam_hi:
        raise ModelError(f"lam_lo = {lam_lo} exceeds lam_hi = {lam_hi}")
    lams = (tuple(_real(lam, 0, "a grid rate") for lam in grid) if grid is not None
            else tuple(np.linspace(lam_lo, lam_hi, 9).tolist()))
    if isinstance(rates, MomentMatrix):
        K = rates
    elif vertices is None:
        raise ModelError("a rate matrix needs its vertices (or pass a MomentMatrix)")
    else:
        K = MomentMatrix(rates, tuple(vertices))
    if not math.isfinite(K.max_row_sum()):
        raise ModelError("rate row sums must be finite")
    if projected_row_sum is None and not K.is_irreducible():
        raise ModelError("without projected_row_sum the rate matrix must be irreducible")

    cls = K._class_matrix(x0)
    lambda_s, s_ends = math.inf, (math.inf,)        # no return paths: rho = 0
    if cls.arrays.data.size:
        def narrow(low, high):
            lo, hi = _reciprocal_bracket(low, high)
            return hi - lo <= width

        rho = _perron_bracket(cls, narrow)
        if rho is None:
            raise ModelError(f"no certified Perron bracket for the class of x0 = {x0!r}")
        lambda_s, s_ends = 1.0 / ((rho[0] + rho[1]) / 2), _reciprocal_bracket(*rho)
    lambda_s, s_bracket = _critical_rate("lambda_s", lambda_s, s_ends, lam_lo, lam_hi, width)

    if projected_row_sum is not None:
        kbar = float(projected_row_sum)
        w = _reciprocal(kbar)
        lambda_w, w_bracket = _critical_rate("lambda_w", w, (w,), lam_lo, lam_hi, width)

        def qbar_at(lam):
            return 1.0 if lam * kbar <= 1.0 else 1.0 / (lam * kbar)
    else:
        lambda_w, w_bracket = lambda_s, s_bracket

        def qbar_at(lam):
            model = counterpart_model(K, lam)
            q, diag = iterate_extinction(model, "global", tol=1e-13)
            if not diag.converged:
                raise ModelError(f"extinction solve at lam = {lam:.6g} did not converge "
                                 f"in {diag.iterations} iterations")
            return float(q[model.index[x0]])

    table = tuple((lam, qbar_at(lam)) for lam in lams)
    qvals = [q for _, q in table]
    monotone = all(b <= a + 1e-9 for a, b in zip(qvals, qvals[1:]))
    if not monotone:
        raise RuntimeError("extinction probability failed to be nonincreasing in lam")
    return LambdaSweepResult(lambda_s, s_bracket, lambda_w, w_bracket, table, monotone)


def counterpart_model(rates: MomentMatrix, lam) -> BrwModel:
    """Materialize the generation-chain model of rate matrix lam * K
    (``continuous_counterpart`` at every vertex)."""
    laws = {}
    a = rates.arrays
    for v in rates.vertices:
        i = rates.index[v]
        lo, hi = a.indptr[i], a.indptr[i + 1]
        row = {rates.vertices[j]: float(w) for j, w in zip(a.indices[lo:hi], a.data[lo:hi])}
        if not row:
            raise ModelError(f"vertex {v!r} has zero total rate")
        laws[v] = continuous_counterpart(lam, row)
    return BrwModel(rates.vertices, laws, name="counterpart", params={"lam": lam})
