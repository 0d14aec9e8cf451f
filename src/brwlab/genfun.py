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

from .core import (BrwModel, ModelError, _index_of, _whole, continuous_counterpart, law_table,
                   restrict_model)
from .spectral import (_DENSE_CUTOFF, GrowthEstimate, MomentMatrix, _perron_bracket,
                       _solve_i_minus, global_growth_rate, local_growth_rate, moment_matrix)


# ---------------------------------------------------------------------------
# evaluating G
# ---------------------------------------------------------------------------

class _GEvaluator:
    """Vectorized evaluator of z -> G(z) for a fixed model, read off its law table.

    Product rows are grouped by equal child-count law: one sparse dispersal
    product plus one polynomial evaluation per group.  Atom rows take one
    pass over the count entries: c log z per entry, one ``add.reduceat`` per
    atom, ``math.exp`` on each atom's sum (the libm bits of a scalar loop)
    and one bincount summing each row's atoms.  A model without atom rows,
    or without product groups, skips that pass.  ``jacobian`` gives G'(z) as
    a sparse matrix from the same data.
    """

    def __init__(self, model: BrwModel):
        self.model = model
        table = law_table(model)
        self.P = table.disp.tocsr()
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
        self._entry_atom = np.repeat(np.arange(self.atom_probs.size), nnz_per_atom)
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

    def jacobian(self, z: np.ndarray):
        """G'(z), a scipy csr matrix: diag(rho'(Pz)) P on product-form rows,
        summed atom terms elsewhere.

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
        J = self.P.copy()
        J.data *= np.repeat(scale, np.diff(J.indptr))
        if self._cnt.size:
            from scipy.sparse import csr_matrix

            cols, cnt = self.counts.indices, self._cnt
            table = np.ones((self.counts.shape[0], self._slots + 2))
            table[self._entry_atom, self._entry_slot + 1] = z[cols] ** cnt
            left = np.cumprod(table, axis=1)
            right = np.cumprod(table[:, ::-1], axis=1)[:, ::-1]
            others = (left[self._entry_atom, self._entry_slot]
                      * right[self._entry_atom, self._entry_slot + 2])
            data = self.atom_probs[self._entry_atom] * cnt * z[cols] ** (cnt - 1.0) * others
            J = J + csr_matrix((data, (self.atom_rows[self._entry_atom], cols)), shape=(n, n))
        return J


def _evaluator(model: BrwModel) -> _GEvaluator:
    ev = model._cache.get("gev")
    if ev is None:
        ev = model._cache["gev"] = _GEvaluator(model)
    return ev


def as_field(model: BrwModel, values) -> np.ndarray:
    """Coerce a dict/scalar/array to a [0,1]-vector over model.vertices."""
    if isinstance(values, dict):
        z = np.zeros(model.size)
        for v, x in values.items():
            z[_index_of(model.index, v, "field key")] = x
    elif np.isscalar(values):
        z = np.full(model.size, float(values))
    else:
        z = np.asarray(values, dtype=float)
        if z.shape != (model.size,):
            raise ModelError(f"field vector must have length {model.size}")
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
_SLACK_TOL, _PROBE_TS = 1e-12, (0.0, 0.5)   # check_mean_condition: Mv = v band, probed t


def _newton_step(G: _GEvaluator, z: np.ndarray) -> np.ndarray:
    """z + (I - G'(z)_AA)^-1 (G(z) - z)_A on the active set A = {G(z) > z}.

    Coordinates off A are held fixed, which also holds the vertices whose
    least fixed point is 0 at 0.  The Jacobian block is cut from a dense
    copy up to _DENSE_CUTOFF vertices and solved by ``_solve_i_minus``; a
    singular solve falls back to the plain step G(z) on A.
    """
    gz = G(z)
    active = np.flatnonzero(gz > z)
    z1 = z.copy()
    if active.size:
        J = G.jacobian(z)
        J = (J.toarray()[np.ix_(active, active)] if z.size <= _DENSE_CUTOFF
             else J[active][:, active])
        rhs = gz[active] - z[active]
        dz = _solve_i_minus(J, rhs)
        z1[active] += dz if np.isfinite(dz).all() else rhs
    return z1.clip(0.0, 1.0)


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
    iterates increase, share ``max_iter``, and stop when both the step and
    the residual fall below tol.  At criticality G(z) - z = O((1 - z)^2)
    rounds to 0 in float64 once 1 - z is near 1e-8, so such a solve stops
    there, converged to within tol in residual but not in value.

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
    if isinstance(target, str):
        if target != "global":
            raise ModelError(f"unknown target {target!r}")
        return _least_fixed_point(_evaluator(model), tol, max_iter)

    A = set(target)
    missing = [v for v in A if v not in model.index]
    if missing or not A:
        raise ModelError(f"target must be a nonempty set of model vertices; "
                         f"not in the model: {missing[:5]}")
    from scipy.sparse import csgraph

    # Anc(A): vertices at finite distance from A in the reversed moment graph
    dist = csgraph.dijkstra(moment_matrix(model).csr.T, indices=[model.index[v] for v in A],
                            unweighted=True, min_only=True)
    anc = np.flatnonzero(np.isfinite(dist))
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
    i0 = _index_of(model.index, x0, "x0")
    z = as_field(model, z)
    gz = eval_G(model, z)
    violation = float(np.max(gz - z))
    x0v = float(z[i0])
    strict = x0v < 1.0 - tol
    return SubsolutionReport(violation <= tol and strict, max(violation, 0.0), x0v, strict)


@dataclass
class MeanConditionReport:
    holds: bool
    min_slack: float
    x0_positive: bool
    equality_vertices: dict  # vertex -> PGF linearity held at the probed t values


def check_mean_condition(model: BrwModel, v, x0) -> MeanConditionReport:
    """First-moment necessary condition Mv >= v with v(x0) > 0.

    Vertices where Mv = v (within _SLACK_TOL) are additionally probed for the
    matching fixed-line identity G(1-(1-t)v) = 1-(1-t)v at each t of
    _PROBE_TS; a full functional verification is not attempted.
    """
    i0 = _index_of(model.index, x0, "x0")
    M = moment_matrix(model)
    v = as_field(model, v)
    mv = M.csr.dot(v)
    slack = mv - v
    holds = bool(np.all(slack >= -_SLACK_TOL))
    x0_pos = v[i0] > 0.0
    equality = {}
    eq_idx = np.nonzero(np.abs(slack) <= _SLACK_TOL)[0]
    if eq_idx.size:
        ok = np.ones(model.size, dtype=bool)
        for t in _PROBE_TS:
            w = 1.0 - (1.0 - t) * v
            gw = eval_G(model, np.clip(w, 0.0, 1.0))
            ok &= np.abs(gw - w) <= 1e-10
        for i in eq_idx:
            equality[model.vertices[i]] = bool(ok[i])
    return MeanConditionReport(holds and x0_pos, float(slack.min()), x0_pos, equality)


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

    def coherent(self) -> bool:
        return not (self.local == "survives" and self.global_ == "dies")

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
                 projected_row_sum=None, grid=None, stop_tol=1e-10) -> LambdaSweepResult:
    """Critical rates of the one-parameter family M = lam * K, in closed form.

    Scaling every rate by lam scales every growth rate of K by lam, so each
    threshold is the reciprocal of one root of the unscaled K.  lam_s =
    1/rho(C) for x0's communicating class C of K: its bracket is the
    reciprocal of a certified Perron bracket of C (``_perron_bracket``,
    refined until the lam bracket is at most ``width`` wide or its step
    budget ends), and lam_s is the reciprocal of that bracket's midpoint.
    lam_w = 1/kbar when the untruncated construction has constant row sum
    kbar (``projected_row_sum``; its bracket is the single point 1/kbar),
    otherwise 1/(row-sum growth of K from x0) by power iteration stopped at
    ``stop_tol``, bracketed by it and the reciprocals of the estimate's last
    three ratios.  A bracket wider than ``width``, or a threshold outside
    [lam_lo, lam_hi], raises ModelError.

    ``rates`` is a MomentMatrix, or a rate matrix whose rows and columns
    are labelled by ``vertices``.  The table holds the extinction
    probability at x0 for each lam of ``grid`` (default: 9 points over
    [lam_lo, lam_hi]).  With a projection it is that of the geometric-total
    single-site counterpart, min(1, 1/(lam * kbar)); otherwise the least
    fixed point of ``counterpart_model(K, lam)``, whose geometric tails are
    cut at PROB_TOL, and an unconverged solve raises ModelError.  The table
    must be nonincreasing in lam.
    """
    if isinstance(rates, MomentMatrix):
        K = rates
    elif vertices is None:
        raise ModelError("a rate matrix needs its vertices (or pass a MomentMatrix)")
    else:
        K = MomentMatrix(rates, tuple(vertices))
    if not math.isfinite(K.max_row_sum()):
        raise ModelError("rate row sums must be finite")

    cls = K._class_matrix(x0)
    lambda_s, s_ends = math.inf, (math.inf,)        # no return paths: rho = 0
    if cls.csr.nnz:
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
        est = global_growth_rate(K, x0, stop_tol=stop_tol)
        w = _reciprocal(est.value)
        lambda_w, w_bracket = _critical_rate(
            "lambda_w", w, [w] + [1.0 / r for r in est.ratios[-3:]], lam_lo, lam_hi, width)

        def qbar_at(lam):
            model = counterpart_model(K, lam)
            q, diag = iterate_extinction(model, "global", tol=1e-13)
            if not diag.converged:
                raise ModelError(f"extinction solve at lam = {lam:.6g} did not converge "
                                 f"in {diag.iterations} iterations")
            return float(q[model.index[x0]])

    lams = tuple(grid) if grid is not None else tuple(np.linspace(lam_lo, lam_hi, 9))
    table = tuple((float(l), qbar_at(float(l))) for l in lams)
    qvals = [q for _, q in table]
    monotone = all(b <= a + 1e-9 for a, b in zip(qvals, qvals[1:]))
    if not monotone:
        raise RuntimeError("extinction probability failed to be nonincreasing in lam")
    return LambdaSweepResult(lambda_s, s_bracket, lambda_w, w_bracket, table, monotone)


def counterpart_model(rates: MomentMatrix, lam) -> BrwModel:
    """Materialize the generation-chain model of rate matrix lam * K
    (``continuous_counterpart`` at every vertex)."""
    laws = {}
    csr = rates.csr
    for v in rates.vertices:
        i = rates.index[v]
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        row = {rates.vertices[j]: float(w) for j, w in zip(csr.indices[lo:hi], csr.data[lo:hi])}
        if not row:
            raise ModelError(f"vertex {v!r} has zero total rate")
        laws[v] = continuous_counterpart(lam, row)
    return BrwModel(rates.vertices, laws, name="counterpart", params={"lam": lam})
