"""Approximation programs: window exhaustions, cap sweeps, drift analysis,
and an oriented-percolation sanity simulator.

The two programs mirror each other: confining a surviving process to large
enough windows keeps it surviving (tracked through restricted growth
rates), and capping the per-site population at large enough m keeps it
surviving (tracked through coupled survival frequencies against the
uncapped baseline).  The drift helpers bound where the capped comparison
argument applies for nearest-neighbour kernels on the line.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph
from scipy.special import xlogy

from .core import BrwModel, IntDistribution, ModelError, dominating_law, restrict_model
from .genfun import _verdict
from .serialize import write_manifest
from .simulate import (_DRAW_BUDGET, DEFAULT_HARD_CAP, _chunks, _StreamPool, estimate_survival,
                       run_trial_batch, wilson_interval)
from .spectral import local_growth_rate, moment_matrix, seneta_sequence


# ---------------------------------------------------------------------------
# drift parameters and the exponential rate Q
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftParams:
    """Nearest-neighbour line kernel {+1: p, -1: q, 0: 1-p-q} with mean rho_bar."""

    rho_bar: float
    p: float
    q: float

    def __post_init__(self):
        if self.rho_bar <= 0:
            raise ModelError("rho_bar must be positive")
        if self.p < 0 or self.q < 0 or self.p + self.q > 1.0 + 1e-12:
            raise ModelError("need p, q >= 0 and p + q <= 1")

    @property
    def stay(self) -> float:
        return 1.0 - self.p - self.q


def q_value(d: DriftParams, alpha, beta) -> float:
    """Exponential growth rate of the expected count on the ray site ~ alpha*n.

    Q(alpha, beta) = rho_bar * p^b q^(b-a) s^(1-2b+a) / (b^b (b-a)^(b-a)
    (1-2b+a)^(1-2b+a)) with s = 1-p-q, evaluated in log space.  Degenerate
    zero exponents follow the t^0 = 1 / 0*log 0 = 0 convention; parameters
    outside beta > 0, beta >= alpha, beta <= (1+alpha)/2 are rejected.
    At (alpha, beta) = (p-q, p) the value is exactly rho_bar.
    """
    a, b = float(alpha), float(beta)
    e1, e2, e3 = b, b - a, 1.0 - 2.0 * b + a
    if b <= 0 or e2 < -1e-15 or e3 < -1e-15 or b >= (1.0 + a) / 2.0 + 1e-15:
        raise ModelError(f"(alpha={a}, beta={b}) outside the admissible exponent range")
    e2, e3 = max(e2, 0.0), max(e3, 0.0)
    log_num = xlogy(e1, d.p) + xlogy(e2, d.q) + xlogy(e3, d.stay)
    log_den = xlogy(e1, e1) + xlogy(e2, e2) + xlogy(e3, e3)
    val = math.log(d.rho_bar) + float(log_num) - float(log_den)
    return math.exp(val) if math.isfinite(val) else 0.0


@dataclass
class RegionResult:
    alphas: np.ndarray
    betas: np.ndarray
    mask: np.ndarray              # Q > 1 on the grid
    rectangle: tuple | None       # (a1, a2, b1, b2)
    integers: tuple | None        # (d1, d2, d3, N)
    note: str = ""

    @property
    def empty(self) -> bool:
        return not bool(self.mask.any())


def supercritical_region(d: DriftParams, resolution=60) -> RegionResult:
    """Grid the set {Q > 1} and certify a rectangle plus integer directions.

    The rectangle [a1,a2] x [b1,b2] is grown around the anchor
    (p-q, p), where Q = rho_bar; the integers satisfy a1*N <= d1 < d2 <= a2*N,
    b1*N <= d3 <= b2*N and Q(d_l/N, d3/N) > 1 for l = 1, 2.  Empty for
    rho_bar <= 1.
    """
    a_star, b_star = d.p - d.q, d.p
    alphas = np.linspace(a_star - 0.5, a_star + 0.5, resolution)
    betas = np.linspace(1e-3, 1.0 - 1e-3, resolution)
    mask = np.zeros((resolution, resolution), dtype=bool)
    for i, a in enumerate(alphas):
        for j, b in enumerate(betas):
            try:
                mask[i, j] = q_value(d, a, b) > 1.0
            except ModelError:
                mask[i, j] = False
    if d.rho_bar <= 1.0:
        return RegionResult(alphas, betas, mask, None, None,
                            "rho_bar <= 1: no supercritical exponents")

    def rect_ok(a1, a2, b1, b2, samples=9):
        for a in np.linspace(a1, a2, samples):
            for b in np.linspace(b1, b2, samples):
                try:
                    if q_value(d, a, b) <= 1.0:
                        return False
                except ModelError:
                    return False
        return True

    # grow a symmetric box around the anchor until it stops being supercritical
    da = db = 0.0
    step = 1.0 / (4.0 * resolution)
    while rect_ok(a_star - da - step, a_star + da + step, b_star - db - step, b_star + db + step):
        da += step
        db += step
        if da > 0.4:
            break
    if da == 0.0:
        return RegionResult(alphas, betas, mask, None, None,
                            f"no rectangle found at resolution {resolution}; refine the grid")
    a1, a2, b1, b2 = a_star - da, a_star + da, b_star - db, b_star + db
    for N in range(max(2, math.ceil(2.0 / (a2 - a1))), 10_000):
        d1 = math.ceil(a1 * N)
        d2 = d1 + 1
        d3 = int(round(b_star * N))
        if d2 > a2 * N or d3 < b1 * N or d3 > b2 * N or d3 in (d1, d2):
            continue
        try:
            if q_value(d, d1 / N, d3 / N) > 1.0 and q_value(d, d2 / N, d3 / N) > 1.0:
                return RegionResult(alphas, betas, mask, (a1, a2, b1, b2), (d1, d2, d3, N))
        except ModelError:
            continue
    return RegionResult(alphas, betas, mask, (a1, a2, b1, b2), None,
                        "no integer triple found below N=10000; refine the rectangle")


# ---------------------------------------------------------------------------
# concentration helpers
# ---------------------------------------------------------------------------

def chebyshev_k(sigma2, D, eps) -> int:
    """Smallest k with sigma^2 / (D^2 k + sigma^2) <= eps (one-sided bound)."""
    if sigma2 < 0:
        raise ModelError("variance must be nonnegative")
    if D < 1:
        raise ModelError("D must be at least 1")
    if not (0.0 < eps < 1.0):
        raise ModelError("eps must lie in (0, 1)")
    if sigma2 == 0:
        return 0
    return math.ceil(sigma2 * (1.0 - eps) / (eps * D * D))


def variance_bound(rho: IntDistribution, n) -> float:
    """mean^(n-1) * variance: dominates the per-site variance after n steps."""
    if n < 1:
        raise ModelError("n must be at least 1")
    return rho.mean ** (n - 1) * rho.variance


# ---------------------------------------------------------------------------
# spatial experiment
# ---------------------------------------------------------------------------

@dataclass
class SpatialRow:
    index: int
    window_size: int
    growth: float
    converged: bool
    verdict: str
    mc_frequency: float | None = None
    mc_ci: tuple | None = None


@dataclass
class SpatialResult:
    rows: list
    full_growth: float
    full_verdict: str
    first_surviving_index: int | None

    def csv_rows(self):
        header = ("index", "window_size", "growth", "converged", "verdict",
                  "mc_frequency", "mc_ci_low", "mc_ci_high")
        rows = []
        for r in self.rows:
            lo, hi = r.mc_ci if r.mc_ci else ("", "")
            rows.append((r.index, r.window_size, r.growth, int(r.converged), r.verdict,
                         "" if r.mc_frequency is None else r.mc_frequency, lo, hi))
        return header, rows


def spatial_experiment(model: BrwModel, exhaustion, x0, margin=1e-3, n_max=2000,
                       mc=None) -> SpatialResult:
    """Restricted local growth along a window sequence, with optional MC columns.

    Restriction only ever lowers the growth, so when the full window
    survives locally the report also gives the first index whose restricted
    growth clears 1.  mc, when given, is a dict of estimate_survival options
    (horizon, replicas, seed, cap, hard_cap) run on each restricted model.
    """
    estimates = seneta_sequence(model, exhaustion, x0, n_max=n_max)
    M = moment_matrix(model)
    full = local_growth_rate(M, x0, n_max=n_max)
    full_verdict = _verdict(full.value, margin)
    rows = []
    first = None
    for i, (subset, est) in enumerate(zip(exhaustion, estimates)):
        verdict = _verdict(est.value, margin)
        row = SpatialRow(i, len(set(subset)), est.value, est.converged, verdict)
        if verdict == "survives" and first is None:
            first = i
        if mc:
            sub = restrict_model(model, subset)
            est_mc = estimate_survival(
                sub, {x0: 1}, mc.get("horizon", 100), mc.get("replicas", 200),
                target=x0, cap=mc.get("cap", math.inf), seed=mc.get("seed", 0),
                hard_cap=mc.get("hard_cap", DEFAULT_HARD_CAP))
            row.mc_frequency = est_mc.frequency
            row.mc_ci = (est_mc.ci_low, est_mc.ci_high)
        rows.append(row)
    return SpatialResult(rows, full.value, full_verdict,
                         first if full_verdict == "survives" else None)


def ball_exhaustion(model: BrwModel, x0, radii):
    """Graph-distance balls around x0 in the moment graph, one per radius."""
    M = moment_matrix(model)
    und = M.csr + M.csr.T
    dist = csgraph.shortest_path(und, method="D", unweighted=True,
                                 indices=M.index[x0])
    out = []
    for r in radii:
        out.append(tuple(v for v in model.vertices if dist[M.index[v]] <= r))
    return out


# ---------------------------------------------------------------------------
# truncation sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    cap: float
    alive_frequency: float
    ci: tuple
    visit_frequency: float
    overflow_count: int


@dataclass
class SweepResult:
    rows: list
    replicas: int
    horizon: int
    outcomes: dict = field(repr=False, default_factory=dict)  # cap -> list

    def csv_rows(self):
        header = ("cap", "alive_frequency", "ci_low", "ci_high",
                  "visit_frequency", "overflow_count")
        rows = [("inf" if math.isinf(r.cap) else int(r.cap), r.alive_frequency,
                 r.ci[0], r.ci[1], r.visit_frequency, r.overflow_count)
                for r in self.rows]
        return header, rows

    def summary_rows(self, scenario="", params=""):
        header = ("scenario", "params", "m", "horizon", "replicas",
                  "frequency", "ci_low", "ci_high")
        rows = [(scenario, params, "inf" if math.isinf(r.cap) else int(r.cap),
                 self.horizon, self.replicas, r.alive_frequency, r.ci[0], r.ci[1])
                for r in self.rows]
        return header, rows

    def per_replica_rows(self):
        header = ("cap", "replica", "alive", "visits", "last_target_visit",
                  "peak_population", "total_born", "status")
        rows = []
        for cap, outs in self.outcomes.items():
            name = "inf" if math.isinf(cap) else int(cap)
            for o in outs:
                rows.append((name, o.replica, int(o.alive), o.visits_to_target,
                             o.last_target_visit, o.peak_population, o.total_born, o.status))
        return header, rows


def truncation_sweep(model: BrwModel, caps, eta0, horizon, replicas, target=None,
                     seed=0, hard_cap=DEFAULT_HARD_CAP) -> SweepResult:
    """Coupled survival frequencies per cap with the uncapped baseline.

    All caps of one replica run on shared draw blocks, so the per-replica
    alive flags are monotone in the cap by construction and the inf row of
    the sweep coincides with an independent uncapped run of the same seed.
    """
    caps = sorted(float(c) if c is not None else math.inf for c in caps)
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ModelError("caps must be strictly ascending")
    if not math.isinf(caps[-1]):
        caps.append(math.inf)
    batch = run_trial_batch(model, caps, eta0, horizon, range(replicas), target, seed, hard_cap)
    per_cap = {c: list(outs) for c, outs in zip(caps, zip(*batch))}
    rows = []
    for c in caps:
        outs = per_cap[c]
        alive = sum(o.alive for o in outs)
        visited = sum(o.visits_to_target > 0 for o in outs)
        rows.append(SweepRow(c, alive / replicas, wilson_interval(alive, replicas),
                             visited / replicas,
                             sum(o.status == "overflow" for o in outs)))
    return SweepResult(rows, replicas, horizon, per_cap)


# ---------------------------------------------------------------------------
# oriented percolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PercolationConfig:
    """Bernoulli(p) bond percolation on (base graph) x (oriented levels).

    base "z" is a window of the line with edges to self and both
    neighbours; base "n" the one-sided window; a custom graph is given as
    an edge list on 0..n_sites-1 (self-loops included only if listed).
    """

    p: float
    horizon: int
    base: str = "z"
    width: int | None = None
    edges: tuple | None = None
    origin: int = 0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ModelError("open probability must lie in [0, 1]")
        if self.horizon < 1:
            raise ModelError("horizon must be at least 1")


_PERC_SALT = 0x7F4A7C159E3779B9


def _perc_structure(config: PercolationConfig):
    if config.edges is not None:
        n = max(max(e) for e in config.edges) + 1
        src = np.array([e[0] for e in config.edges], dtype=np.int64)
        dst = np.array([e[1] for e in config.edges], dtype=np.int64)
        return n, src, dst, int(config.origin)
    w = config.width if config.width is not None else config.horizon
    if config.base == "z":
        sites = np.arange(-w, w + 1)
    elif config.base == "n":
        sites = np.arange(0, w + 1)
    else:
        raise ModelError(f"unknown base graph {config.base!r}")
    idx = {int(s): i for i, s in enumerate(sites)}
    src, dst = [], []
    for s in sites:
        for t in (s, s - 1, s + 1):
            if int(t) in idx:
                src.append(idx[int(s)])
                dst.append(idx[int(t)])
    return len(sites), np.array(src), np.array(dst), idx[int(config.origin)]


@dataclass
class PercolationResult:
    frequency: float
    ci: tuple
    revisit_counts: np.ndarray
    replicas: int

    @property
    def revisit_mean(self) -> float:
        return float(self.revisit_counts.mean())


def oriented_percolation(config: PercolationConfig, replicas, seed=0) -> PercolationResult:
    """Origin-cluster survival to the horizon plus axis-revisit counts.

    Edge states are read as uniform(level, edge) < p, so sweeping p at a
    fixed seed gives a monotone (common-random-numbers) family: the open
    edge set, the cluster, and survival all grow with p.  Each replica
    draws its levels from its own (seed, replica, level) stream; the live
    replicas advance together in blocks of at most _DRAW_BUDGET uniforms.
    """
    if replicas < 1:
        raise ModelError("need at least one replica")
    n, src, dst, origin = _perc_structure(config)
    E = src.size
    # into[v] lists v's in-edges, padded with E: a column of `carry` that stays closed
    indeg = np.bincount(dst, minlength=n)
    order = np.argsort(dst, kind="stable")
    into = np.full((n, int(indeg.max())), E)
    into[dst[order], np.arange(E) - np.repeat(np.cumsum(indeg) - indeg, indeg)] = order
    pool = _StreamPool(_PERC_SALT, seed)
    survived = np.zeros(replicas, dtype=bool)
    revisits = np.zeros(replicas, dtype=np.int64)
    for lo, hi in _chunks(np.full(replicas, E), _DRAW_BUDGET):
        live = np.arange(lo, hi)                   # replicas whose cluster still reaches
        reach = np.zeros((live.size, n), dtype=bool)
        reach[:, origin] = True
        for level in range(1, config.horizon + 1):
            u = np.empty((live.size, E))
            for row, rng in zip(u, pool.streams(live, level)):
                rng.random(out=row)
            carry = np.zeros((live.size, E + 1), dtype=bool)
            np.logical_and(reach[:, src], u < config.p, out=carry[:, :E])
            reach = carry[:, into].any(axis=2)
            revisits[live] += reach[:, origin]
            alive = reach.any(axis=1)
            live, reach = live[alive], reach[alive]
            if live.size == 0:
                break
        survived[live] = True
    survivors = int(survived.sum())
    lo, hi = wilson_interval(survivors, replicas)
    return PercolationResult(survivors / replicas, (lo, hi), revisits, replicas)


# ---------------------------------------------------------------------------
# composite report
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def approximation_report(scenario, out_dir, params=None, x0=None, seed=0, horizon=100,
                         replicas=400, caps=(1, 2, 4, 8), radii=None,
                         hard_cap=10 ** 6, run_mc=True) -> dict:
    """Run the window program, the cap program and the analytic bounds at desk scale.

    ``scenario`` is a registered scenario name (built with ``params``) or an
    already-built model.  Writes a CSV bundle plus manifest under out_dir
    and returns a summary dict.  The analytic section always reports the
    dominating child-count law's concentration inputs; the exponent region
    is added for drifting line kernels (models carrying p/q parameters).
    """
    if isinstance(scenario, BrwModel):
        model = scenario
    else:
        from .scenarios import build_scenario
        model = build_scenario(scenario, params)
    if x0 is None:
        x0 = model.vertices[model.size // 2] if model.size > 1 else model.vertices[0]
    summary = {"scenario": model.name, "x0": x0,
               "model_hash": write_manifest(out_dir, model, seed)}
    files = {}

    if model.size > 1:
        if radii is None:
            radii = sorted({max(1, model.size // 8), max(2, model.size // 4),
                            max(3, model.size // 2), model.size})
        exhaustion = ball_exhaustion(model, x0, radii)
        spatial = spatial_experiment(model, exhaustion, x0)
        header, rows = spatial.csv_rows()
        files["spatial"] = os.path.join(out_dir, "spatial.csv")
        write_csv(files["spatial"], header, rows)
        summary["spatial_full_growth"] = spatial.full_growth
        summary["spatial_first_surviving_index"] = spatial.first_surviving_index
    else:
        summary["spatial_full_growth"] = None

    if run_mc and replicas > 0:
        sweep = truncation_sweep(model, caps, {x0: 1}, horizon, replicas,
                                 target=x0, seed=seed, hard_cap=hard_cap)
        header, rows = sweep.csv_rows()
        files["sweep"] = os.path.join(out_dir, "sweep.csv")
        write_csv(files["sweep"], header, rows)
        header, rows = sweep.per_replica_rows()
        files["replicas"] = os.path.join(out_dir, "replicas.csv")
        write_csv(files["replicas"], header, rows)
        summary["sweep_caps"] = [r.cap for r in sweep.rows]
        summary["sweep_frequencies"] = [r.alive_frequency for r in sweep.rows]

    rho = dominating_law(model)
    analytic = [("dominating_mean", rho.mean), ("dominating_variance", rho.variance)]
    for n in (2, 4, 8):
        s2 = variance_bound(rho, n)
        analytic.append((f"variance_bound_n{n}", s2))
        analytic.append((f"chebyshev_k_n{n}_eps0.1", chebyshev_k(s2, 1.0, 0.1)))
    if {"p", "q"} <= set(model.params):
        d = DriftParams(rho.mean, model.params["p"], model.params["q"])
        region = supercritical_region(d)
        analytic.append(("q_at_anchor", q_value(d, d.p - d.q, d.p) if d.p > 0 else d.rho_bar))
        analytic.append(("region_empty", int(region.empty)))
        if region.integers:
            d1, d2, d3, N = region.integers
            analytic += [("d1", d1), ("d2", d2), ("d3", d3), ("N", N)]
    files["analytic"] = os.path.join(out_dir, "analytic.csv")
    write_csv(files["analytic"], ("quantity", "value"), analytic)

    summary["files"] = files
    return summary
