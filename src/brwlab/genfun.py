"""Generating-function fixed points and survival classification.

The coordinatewise map G sends z in [0,1]^V to the vector of offspring
PGF values; its least fixed point is the global extinction vector.  Local
survival is read from the return growth rate, global survival from fixed
points (or from a registered finite projection / the finite-window row-sum
criterion), and strong local survival from comparing the target-avoidance
fixed point with the global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from .core import BrwModel, ModelError, continuous_counterpart
from .spectral import GrowthEstimate, MomentMatrix, global_growth_rate, local_growth_rate, moment_matrix


# ---------------------------------------------------------------------------
# evaluating G
# ---------------------------------------------------------------------------

class _GEvaluator:
    """Vectorized evaluator of z -> G(z) for a fixed model.

    Factorized vertices are grouped by shared child-count law: one sparse
    dispersal product plus one polynomial evaluation per group.  Explicit
    atom vertices are evaluated atom by atom.
    """

    def __init__(self, model: BrwModel):
        self.model = model
        n = model.size
        disp_rows, disp_cols, disp_data = [], [], []
        groups = {}  # id(rho) -> (rho, [row indices])
        self.atom_vertices = []  # (row index, [(prob, idx array, count array)])
        for v in model.vertices:
            i = model.index[v]
            law = model.laws[v]
            if law.product is not None:
                pf = law.product
                for t, w in zip(pf.targets, pf.weights):
                    disp_rows.append(i)
                    disp_cols.append(model.index[t])
                    disp_data.append(w)
                groups.setdefault(id(pf.rho), (pf.rho.dense_probs(), []))[1].append(i)
            else:
                atoms = []
                for cfg, p in law.atoms:
                    idx = np.array([model.index[u] for u, _ in cfg.entries], dtype=np.int64)
                    cnt = np.array([c for _, c in cfg.entries], dtype=float)
                    atoms.append((p, idx, cnt))
                self.atom_vertices.append((i, atoms))
        self.P = csr_matrix((disp_data, (disp_rows, disp_cols)), shape=(n, n))
        self.groups = [(coeffs, np.array(idx, dtype=np.int64)) for coeffs, idx in groups.values()]

    def __call__(self, z: np.ndarray) -> np.ndarray:
        out = np.empty_like(z)
        if self.groups:
            pz = self.P.dot(z)
            for coeffs, idx in self.groups:
                out[idx] = np.polynomial.polynomial.polyval(pz[idx], coeffs)
        for i, atoms in self.atom_vertices:
            total = 0.0
            for p, idx, cnt in atoms:
                zi = z[idx]
                if np.all(zi > 0.0):
                    term = p * math.exp(float(np.dot(cnt, np.log(zi))))
                else:
                    term = p * float(np.prod(np.where(zi > 0.0, zi, 0.0) ** cnt)) if idx.size else p
                total += term
            out[i] = total
        return np.clip(out, 0.0, 1.0)


def _evaluator(model: BrwModel) -> _GEvaluator:
    ev = model._cache.get("gev")
    if ev is None:
        ev = _GEvaluator(model)
        model._cache["gev"] = ev
    return ev


def as_field(model: BrwModel, values) -> np.ndarray:
    """Coerce a dict/scalar/array to a [0,1]-vector over model.vertices."""
    if isinstance(values, dict):
        z = np.zeros(model.size)
        for v, x in values.items():
            z[model.index[v]] = x
    elif np.isscalar(values):
        z = np.full(model.size, float(values))
    else:
        z = np.asarray(values, dtype=float)
        if z.shape != (model.size,):
            raise ModelError(f"field vector must have length {model.size}")
    if z.min() < -1e-12 or z.max() > 1.0 + 1e-12:
        raise ModelError("field vector coordinates must lie in [0,1]")
    return np.clip(z, 0.0, 1.0)


def eval_G(model: BrwModel, z) -> np.ndarray:
    """G(z|x) = sum_f mu_x(f) prod_y z(y)^f(y), coordinatewise over vertices."""
    return _evaluator(model)(as_field(model, z))


def eval_G_geometric(M: MomentMatrix, z) -> np.ndarray:
    """Closed form 1 / (1 + M(1-z)) valid for geometric-total laws."""
    z = np.asarray(z, dtype=float)
    return 1.0 / (1.0 + M.csr.dot(1.0 - z))


# ---------------------------------------------------------------------------
# extinction fixed points
# ---------------------------------------------------------------------------

@dataclass
class IterationDiagnostics:
    iterations: int
    residual: float
    converged: bool
    period_used: int = 1


def iterate_extinction(model: BrwModel, target="global", tol=1e-12, max_iter=200_000):
    """Fixed-point iteration for extinction probabilities.

    target="global": z_{n+1} = G(z_n) from the zero vector; the iterates
    increase to the least fixed point (checked every step) and the run
    stops when both the step and the residual fall below tol.

    target=<vertex set>: start from the indicator of the complement (1 off
    the set, 0 on it).  Coordinates at the wrong phase of a periodic class
    sit at their off-phase value, so plain iterates are not coordinatewise
    monotone; convergence is detected when the iterate matches itself p
    steps earlier (smallest p <= 6) and the returned vector takes the
    elementwise minimum over one period, which selects each coordinate's
    on-phase value.
    """
    G = _evaluator(model)
    if isinstance(target, str):
        if target != "global":
            raise ModelError(f"unknown target {target!r}")
        z = np.zeros(model.size)
        for it in range(1, max_iter + 1):
            z1 = G(z)
            if np.any(z1 < z - 1e-12):
                raise RuntimeError("extinction iterates lost monotonicity")
            step = float(np.max(np.abs(z1 - z)))
            z = z1
            if step < tol:
                resid = float(np.max(np.abs(G(z) - z)))
                if resid < tol:
                    return z, IterationDiagnostics(it, resid, True)
        return z, IterationDiagnostics(max_iter, math.inf, False)

    A = set(target)
    missing = [v for v in A if v not in model.index]
    if missing:
        raise ModelError(f"target vertices not in model: {missing[:5]}")
    z = np.ones(model.size)
    for v in A:
        z[model.index[v]] = 0.0
    history = [z]
    max_p = 6
    for it in range(1, max_iter + 1):
        z = G(history[-1])
        history.append(z)
        if len(history) > max_p + 1:
            history.pop(0)
        for p in range(1, min(max_p, len(history) - 1) + 1):
            if np.max(np.abs(history[-1] - history[-1 - p])) < tol:
                q = np.min(np.stack(history[-p:]), axis=0)
                resid_p = float(np.max(np.abs(history[-1] - history[-1 - p])))
                return q, IterationDiagnostics(it, resid_p, True, p)
    q = np.min(np.stack(history[-max_p:]), axis=0)
    return q, IterationDiagnostics(max_iter, math.inf, False, max_p)


@dataclass
class SubsolutionReport:
    accepted: bool
    max_violation: float
    x0_value: float
    strict_at_x0: bool


def check_subsolution(model: BrwModel, z, x0, tol=1e-12) -> SubsolutionReport:
    """Is z a certificate of global survival: G(z) <= z everywhere, z(x0) < 1?"""
    z = as_field(model, z)
    gz = eval_G(model, z)
    violation = float(np.max(gz - z))
    x0v = float(z[model.index[x0]])
    strict = x0v < 1.0 - tol
    return SubsolutionReport(violation <= tol and strict, max(violation, 0.0), x0v, strict)


@dataclass
class MeanConditionReport:
    holds: bool
    min_slack: float
    x0_positive: bool
    equality_vertices: dict  # vertex -> PGF linearity held at the probed t values


def check_mean_condition(model: BrwModel, v, x0, tol=1e-12, probe_ts=(0.0, 0.5)) -> MeanConditionReport:
    """First-moment necessary condition Mv >= v with v(x0) > 0.

    Vertices where Mv = v (within tol) are additionally probed for the
    matching fixed-line identity G(1-(1-t)v) = 1-(1-t)v at finitely many t;
    a full functional verification is not attempted.
    """
    M = moment_matrix(model)
    v = as_field(model, v)
    mv = M.csr.dot(v)
    slack = mv - v
    holds = bool(np.all(slack >= -tol))
    x0_pos = v[model.index[x0]] > 0.0
    equality = {}
    eq_idx = np.nonzero(np.abs(slack) <= tol)[0]
    if eq_idx.size:
        ok = np.ones(model.size, dtype=bool)
        for t in probe_ts:
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
    strong_local: dict = field(default_factory=dict)
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
        for y, rep in self.strong_local.items():
            lines.append(f"  strong local at {y}: {rep['verdict']} "
                         f"(qbar={rep['qbar_x0']:.6g}, q_target={rep['q_target_x0']:.6g})")
        for n in self.notes:
            lines.append(f"  note: {n}")
        return "\n".join(lines)

    def evidence_csv_rows(self):
        rows = [("local_growth", n, term) for n, term, _ in self.local_growth.csv_rows()]
        ge = self.global_evidence.get("growth")
        if isinstance(ge, GrowthEstimate):
            rows += [("global_growth", n, term) for n, term, _ in ge.csv_rows()]
        return rows


def _verdict(value, margin):
    if value > 1.0 + margin:
        return "survives"
    if value < 1.0 - margin:
        return "dies"
    return "inconclusive"


def classify_survival(model: BrwModel, x0, n_max=2000, margin=1e-3, q_band=1e-6,
                      tol=1e-12, strong_targets=(), max_iter=200_000) -> SurvivalReport:
    """Three-way survival classification with explicit finite evidence.

    Local: return growth rate at x0 against 1 with an inconclusive band.
    Global: a registered finite projection decides via its row-sum growth;
    otherwise finite irreducible windows use their own row-sum growth, and
    everything else falls back to the least fixed point (extinction within
    q_band of 1 is reported as death on this truncation, which is the sound
    direction for restrictions of larger constructions).
    """
    M = moment_matrix(model)
    lg = local_growth_rate(M, x0, n_max=n_max)
    local = _verdict(lg.value, margin) if lg.value > 0 else "dies"
    notes = []

    if model.finite_projection is not None:
        proj, mapping = model.finite_projection
        y0 = mapping[x0]
        gg = global_growth_rate(moment_matrix(proj), y0, n_max=n_max)
        global_ = _verdict(gg.value, margin)
        method = "projection"
        evidence = {"growth": gg, "value": gg.value, "projected_x0": y0}
    elif M.is_irreducible():
        gg = global_growth_rate(M, x0, n_max=n_max)
        global_ = _verdict(gg.value, margin)
        method = "finite-irreducible"
        evidence = {"growth": gg, "value": gg.value}
    else:
        q, diag = iterate_extinction(model, "global", tol=tol, max_iter=max_iter)
        qx = float(q[model.index[x0]])
        if not diag.converged:
            global_ = "inconclusive"
            notes.append("extinction iteration hit max_iter")
        elif qx < 1.0 - q_band:
            global_ = "survives"
        else:
            global_ = "dies"
            notes.append("extinction certain on this truncation; restriction death "
                         "does not decide the untruncated model")
        method = "fixed-point"
        evidence = {"qbar_x0": qx, "iterations": diag.iterations}

    if local == "survives" and global_ != "survives":
        notes.append(f"global verdict {global_!r} overridden: local survival implies "
                     "global survival")
        global_ = "survives"

    report = SurvivalReport(x0, local, lg, global_, method, evidence, {}, notes)
    for y in strong_targets:
        report.strong_local[y] = strong_local_compare(model, x0, y, tol=max(q_band, tol),
                                                      max_iter=max_iter).__dict__
    return report


@dataclass
class StrongLocalReport:
    verdict: str          # "yes" | "no" | "inconclusive"
    qbar_x0: float
    q_target_x0: float
    gap: float


def strong_local_compare(model: BrwModel, x0, y, tol=1e-6, fp_tol=1e-12,
                         max_iter=200_000) -> StrongLocalReport:
    """Do the avoidance fixed point at y and the global one coincide at x0?"""
    qbar, d1 = iterate_extinction(model, "global", tol=fp_tol, max_iter=max_iter)
    qy, d2 = iterate_extinction(model, {y}, tol=fp_tol, max_iter=max_iter)
    i0 = model.index[x0]
    gap = float(abs(qy[i0] - qbar[i0]))
    if not (d1.converged and d2.converged):
        verdict = "inconclusive"
    elif qbar[i0] < 1.0 - tol and gap <= tol:
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


def _as_rates(rates, vertices):
    if isinstance(rates, MomentMatrix):
        return rates
    if isinstance(rates, dict):
        return MomentMatrix.from_rows(rates, vertices if vertices is not None else sorted(rates))
    if vertices is None:
        vertices = range(np.asarray(rates).shape[0] if not hasattr(rates, "shape") else rates.shape[0])
    return MomentMatrix(rates, tuple(vertices))


def _critical_rate(name, value, ratios, lam_lo, lam_hi, width):
    """lam = 1/value, bracketed by it and the reciprocals of the last three ratios."""
    lam = 1.0 / value if value > 0.0 else math.inf
    if not lam_lo <= lam <= lam_hi:
        raise ModelError(f"{name} = {lam:.6g} lies outside [{lam_lo}, {lam_hi}]")
    ends = [lam] + [1.0 / r for r in ratios[-3:]]
    bracket = (min(ends), max(ends))
    if bracket[1] - bracket[0] > width:
        raise ModelError(f"{name} bracket [{bracket[0]:.6g}, {bracket[1]:.6g}] is wider "
                         f"than width={width}")
    return lam, bracket


def lambda_sweep(rates, x0, lam_lo, lam_hi, vertices=None, width=2e-3,
                 projected_row_sum=None, grid=None, n_max=2000, stop_tol=1e-10,
                 tail_tol=1e-12) -> LambdaSweepResult:
    """Critical rates of the one-parameter family M = lam * K, in closed form.

    Scaling every rate by lam scales every growth rate of K by lam, so each
    threshold is the reciprocal of one growth estimate of the unscaled K:
    lam_s = 1/(return growth of K at x0), and lam_w = 1/kbar when the
    untruncated construction has constant row sum kbar
    (``projected_row_sum``), otherwise 1/(row-sum growth of K from x0).
    Each bracket is the smallest interval holding the threshold and the
    reciprocals of the estimate's last three period-aligned ratios (a
    projection's lam_w bracket is the single point 1/kbar).  ``width`` is
    the widest acceptable bracket; a wider one, or a threshold outside
    [lam_lo, lam_hi], raises ModelError.

    The table holds the extinction probability at x0 for each lam of
    ``grid`` (default: 9 points over [lam_lo, lam_hi]).  With a projection
    it is that of the geometric-total single-site counterpart,
    min(1, 1/(lam * kbar)); otherwise the least fixed point of
    ``counterpart_model(K, lam)``.  It must be nonincreasing in lam.
    """
    K = _as_rates(rates, vertices)
    if not math.isfinite(K.max_row_sum()):
        raise ModelError("rate row sums must be finite")

    est = local_growth_rate(K, x0, n_max=n_max, stop_tol=stop_tol)
    lambda_s, s_bracket = _critical_rate("lambda_s", est.value, est.ratios,
                                         lam_lo, lam_hi, width)

    if projected_row_sum is not None:
        kbar = float(projected_row_sum)
        lambda_w, w_bracket = _critical_rate("lambda_w", kbar, (), lam_lo, lam_hi, width)

        def qbar_at(lam):
            return 1.0 if lam * kbar <= 1.0 else 1.0 / (lam * kbar)
    else:
        est = global_growth_rate(K, x0, n_max=n_max, stop_tol=stop_tol)
        lambda_w, w_bracket = _critical_rate("lambda_w", est.value, est.ratios,
                                             lam_lo, lam_hi, width)

        def qbar_at(lam):
            model = counterpart_model(K, lam, tail_tol=tail_tol)
            q, _ = iterate_extinction(model, "global", tol=1e-13)
            return float(q[model.index[x0]])

    lams = tuple(grid) if grid is not None else tuple(np.linspace(lam_lo, lam_hi, 9))
    table = tuple((float(l), qbar_at(float(l))) for l in lams)
    qvals = [q for _, q in table]
    monotone = all(b <= a + 1e-9 for a, b in zip(qvals, qvals[1:]))
    if not monotone:
        raise RuntimeError("extinction probability failed to be nonincreasing in lam")
    return LambdaSweepResult(lambda_s, s_bracket, lambda_w, w_bracket, table, monotone)


def counterpart_model(rates: MomentMatrix, lam, tail_tol=1e-12) -> BrwModel:
    """Materialize the generation-chain model of rate matrix lam * K."""
    laws = {}
    csr = rates.csr
    for v in rates.vertices:
        i = rates.index[v]
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        row = {rates.vertices[j]: float(w) for j, w in zip(csr.indices[lo:hi], csr.data[lo:hi])}
        if not row:
            raise ModelError(f"vertex {v!r} has zero total rate")
        laws[v] = continuous_counterpart(lam, row, tail_tol=tail_tol)
    return BrwModel(rates.vertices, laws, name="counterpart", params={"lam": lam})
