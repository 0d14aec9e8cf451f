"""Approximation programs: window exhaustions, cap sweeps, drift analysis,
and an oriented-percolation sanity simulator on windows of Z and N.

The two programs mirror each other: confining a surviving process to large
enough windows keeps it surviving (tracked through restricted growth
rates, read for every window and for the full model by one
``seneta_sequence`` call, so each carries the same kind of certified Perron
bracket), and capping the per-site population at large enough m keeps it
surviving (tracked through coupled survival frequencies against the
uncapped baseline).  The drift helpers bound where the capped comparison
with oriented percolation applies for nearest-neighbour kernels on the
line, by a rectangle of exponents with Q > 1 certified at its corners.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (BrwModel, IntDistribution, ModelError, _CsrArrays, _hops, _index_of, _real,
                   _whole)
from .genfun import _verdict
from .simulate import (_DRAW_BUDGET, _MAX_CELLS, DEFAULT_HARD_CAP, _cap_label, _caps, _chunks,
                       _seed, _StreamPool, run_trial_batch, wilson_interval)
from .spectral import moment_matrix, seneta_sequence


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
        if _real(self.rho_bar, 0, "rho_bar") == 0:
            raise ModelError("rho_bar must be positive")
        if _real(self.p, 0, "p") + _real(self.q, 0, "q") > 1.0:
            raise ModelError("need p, q >= 0 and p + q <= 1")

    @property
    def stay(self) -> float:
        return 1.0 - self.p - self.q


def _xlogy(x: float, y: float) -> float:
    """x log y, and 0 where x is 0, as scipy's ``xlogy`` computes it: with
    the C library's log, from which numpy's vectorised log can differ in the
    last bit."""
    if x == 0.0:
        return 0.0
    return x * (math.log(y) if y > 0.0 else -math.inf if y == 0.0 else math.nan)


def _log_q(d: DriftParams, alpha, beta):
    """(log Q, admissible exponents) over broadcast alpha and beta; see
    ``q_value``.  log Q is summed in Python floats per point: the library
    passes one point, or a box's four corners."""
    a, b = np.asarray(alpha, dtype=float), np.asarray(beta, dtype=float)
    admissible = ~((b <= 0) | (b - a < -1e-15) | (1.0 - 2.0 * b + a < -1e-15)
                   | (b >= (1.0 + a) / 2.0 + 1e-15))
    pairs, out = np.broadcast(a, b), []
    for x, y in pairs:
        x, y = float(x), float(y)
        # clipped at 0: no inf - inf off the admissible set
        e1, e2, e3 = max(y, 0.0), max(y - x, 0.0), max(1.0 - 2.0 * y + x, 0.0)
        out.append(math.log(d.rho_bar) + (_xlogy(e1, d.p) + _xlogy(e2, d.q) + _xlogy(e3, d.stay))
                   - (_xlogy(e1, e1) + _xlogy(e2, e2) + _xlogy(e3, e3)))
    return np.reshape(out, pairs.shape), admissible


def q_value(d: DriftParams, alpha, beta) -> float:
    """Exponential growth rate of the expected count on the ray site ~ alpha*n.

    Q(alpha, beta) = rho_bar * p^b q^(b-a) s^(1-2b+a) / (b^b (b-a)^(b-a)
    (1-2b+a)^(1-2b+a)) with s = 1-p-q, evaluated in log space.  Degenerate
    zero exponents follow the t^0 = 1 / 0*log 0 = 0 convention; parameters
    outside beta > 0, beta >= alpha, beta <= (1+alpha)/2 are rejected.
    At (alpha, beta) = (p-q, p) the value is exactly rho_bar.
    """
    val, admissible = _log_q(d, _real(alpha, -math.inf, "alpha"), _real(beta, -math.inf, "beta"))
    if not admissible:
        raise ModelError(f"(alpha={alpha}, beta={beta}) outside the admissible exponent range")
    return math.exp(val) if math.isfinite(val) else 0.0


@dataclass
class RegionResult:
    empty: bool                   # no exponents with Q > 1
    rectangle: tuple | None       # (a1, a2, b1, b2)
    integers: tuple | None        # (d1, d2, d3, N)
    note: str = ""


_RESOLUTION = 60      # the box grows by 1 / (4 * _RESOLUTION) per side and step


def supercritical_region(d: DriftParams) -> RegionResult:
    """Decide whether {Q > 1} is empty; certify a rectangle plus integer directions.

    log Q = log rho_bar - KL(e || (p, q, s)) with e = (beta, beta-alpha,
    1-2beta+alpha) affine in (alpha, beta), so Q <= rho_bar with equality
    only at the anchor (p-q, p) (Gibbs' inequality), and log Q is concave on
    the admissible triangle.  So {Q > 1} is nonempty exactly when Q > 1 at
    the anchor, and a square box [a1,a2] x [b1,b2], grown around the anchor
    by 1/(4 _RESOLUTION) per step, lies in it exactly when its four corners
    do.  With q = 0 or s = 0 no box exists: Q > 1 only on a boundary segment.
    The integers satisfy a1*N <= d1 < d2 <= a2*N and b1*N <= d3 <= b2*N, so
    both points (d_l/N, d3/N) lie in the box.
    """
    a_star, b_star = d.p - d.q, d.p
    log_q, admissible = _log_q(d, a_star, b_star)
    if not (d.rho_bar > 1.0 and admissible and log_q > 0.0):
        return RegionResult(True, None, None, "rho_bar <= 1: no supercritical exponents"
                            if d.rho_bar <= 1.0 else "Q at the anchor (p - q, p) is not above 1")

    def corners_ok(a1, a2, b1, b2):
        log_q, admissible = _log_q(d, np.array([a1, a2])[:, None], np.array([b1, b2])[None, :])
        return bool((admissible & (log_q > 0.0)).all())

    # grow a square box around the anchor until it stops being supercritical
    da, step = 0.0, 1.0 / (4.0 * _RESOLUTION)
    while corners_ok(a_star - da - step, a_star + da + step,
                     b_star - da - step, b_star + da + step):
        da += step
        if da > 0.4:
            break
    if da == 0.0:
        return RegionResult(False, None, None, (
            "q = 0: Q > 1 only on the boundary segment beta = alpha" if d.q == 0.0 else
            "s = 0: Q > 1 only on the boundary segment beta = (1 + alpha) / 2" if d.stay <= 0.0
            else f"no box of half-width {step:.4g} around the anchor has Q > 1 at its corners"))
    a1, a2, b1, b2 = a_star - da, a_star + da, b_star - da, b_star + da
    for N in range(max(2, math.ceil(2.0 / (a2 - a1))), 10_000):
        d1 = math.ceil(a1 * N)
        d2 = d1 + 1
        d3 = int(round(b_star * N))
        if d2 <= a2 * N and b1 * N <= d3 <= b2 * N and d3 not in (d1, d2):
            return RegionResult(False, (a1, a2, b1, b2), (d1, d2, d3, N))
    return RegionResult(False, (a1, a2, b1, b2), None,
                        "no integer triple found below N=10000; refine the rectangle")


# ---------------------------------------------------------------------------
# concentration helpers
# ---------------------------------------------------------------------------

def chebyshev_k(sigma2, D, eps) -> int:
    """Smallest k with sigma^2 / (D^2 k + sigma^2) <= eps (one-sided bound)."""
    sigma2, D = _real(sigma2, 0, "variance"), _real(D, 1, "D")
    if not (0.0 < _real(eps, 0, "eps") < 1.0):
        raise ModelError("eps must lie in (0, 1)")
    if sigma2 == 0:
        return 0
    return math.ceil(sigma2 * (1.0 - eps) / (eps * D * D))


def variance_bound(rho: IntDistribution, n) -> float:
    """mean^(n-1) * variance: dominates the per-site variance after n steps."""
    _whole(n, 1, "n")
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
    bracket: tuple | None = None    # certified (low, high) of the growth, if computed


@dataclass
class SpatialResult:
    rows: list
    full_growth: float
    full_verdict: str
    first_surviving_index: int | None

    def csv_rows(self):
        header = ("index", "window_size", "growth", "growth_low", "growth_high", "converged",
                  "verdict")
        rows = []
        for r in self.rows:
            g_lo, g_hi = r.bracket if r.bracket else ("", "")
            rows.append((r.index, r.window_size, r.growth, g_lo, g_hi, int(r.converged),
                         r.verdict))
        return header, rows


def spatial_experiment(model: BrwModel, exhaustion, x0) -> SpatialResult:
    """Restricted local growth along a window sequence.

    Restriction only ever lowers the growth, so when the full window
    survives locally the report also gives the first index whose restricted
    growth clears 1 + 1e-3.  The rows and the full model's growth come from
    one ``seneta_sequence`` call, the whole vertex set as its last window,
    so each carries the certified growth bracket where that call computed
    one (None where power iteration ran).
    """
    *estimates, full = seneta_sequence(model, [*exhaustion, model.vertices], x0)
    full_verdict = _verdict(full.value)
    rows = []
    first = None
    for i, (subset, est) in enumerate(zip(exhaustion, estimates)):
        verdict = _verdict(est.value)
        rows.append(SpatialRow(i, len(set(subset)), est.value, est.converged, verdict,
                               est.bracket))
        if verdict == "survives" and first is None:
            first = i
    return SpatialResult(rows, full.value, full_verdict,
                         first if full_verdict == "survives" else None)


def ball_exhaustion(model: BrwModel, x0, radii):
    """Graph-distance balls around x0 in the moment graph, one per radius
    (each a whole number of at least 0)."""
    radii = [_whole(r, 0, "a radius") for r in radii]
    M = moment_matrix(model)
    a = M.arrays
    und = _CsrArrays.from_entries(np.concatenate([a.rows, a.indices]),
                                  np.concatenate([a.indices, a.rows]), np.ones(2 * a.data.size),
                                  a.shape)
    dist = _hops(und, [_index_of(M.index, x0, "x0")])
    return [tuple(M.vertices[i] for i in np.flatnonzero(dist <= r).tolist()) for r in radii]


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
        rows = [(_cap_label(r.cap), r.alive_frequency, r.ci[0], r.ci[1], r.visit_frequency,
                 r.overflow_count) for r in self.rows]
        return header, rows

    def per_replica_rows(self):
        header = ("cap", "replica", "alive", "visits", "last_target_visit",
                  "peak_population", "total_born", "status")
        rows = [(_cap_label(cap), o.replica, int(o.alive), o.visits_to_target,
                 o.last_target_visit, o.peak_population, o.total_born, o.status)
                for cap, outs in self.outcomes.items() for o in outs]
        return header, rows


def truncation_sweep(model: BrwModel, caps, eta0, horizon, replicas, target=None,
                     seed=0, hard_cap=DEFAULT_HARD_CAP) -> SweepResult:
    """Coupled survival frequencies per cap with the uncapped baseline.

    All caps of one replica run on shared draw blocks, so the per-replica
    alive flags are monotone in the cap by construction and the inf row of
    the sweep coincides with an independent uncapped run of the same seed.
    """
    caps = sorted(_caps(caps))
    if any(b <= a for a, b in zip(caps, caps[1:])):
        raise ModelError("caps must be strictly ascending")
    if not math.isinf(caps[-1]):
        caps.append(math.inf)
    batch = run_trial_batch(model, caps, eta0, horizon,
                            range(_whole(replicas, 1, "replicas", _MAX_CELLS + 1)), target, seed,
                            hard_cap)
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

    base "z" is the window -width..width of the line, base "n" the one-sided
    window 0..width (width defaults to the horizon); each site has edges to
    itself and to both neighbours inside the window, and the origin is site 0.
    """

    p: float
    horizon: int
    base: str = "z"
    width: int | None = None

    def __post_init__(self):
        if _real(self.p, 0, "open probability") > 1.0:
            raise ModelError("open probability must lie in [0, 1]")
        _whole(self.horizon, 1, "horizon")
        if self.width is not None:
            _whole(self.width, 0, "width")
        if self.base not in ("z", "n"):
            raise ModelError(f"unknown base graph {self.base!r}")


_PERC_SALT = 0x7F4A7C159E3779B9


def _perc_structure(config: PercolationConfig):
    """(sites, edge sources, edge targets, origin index); edges go by source."""
    w = config.width if config.width is not None else config.horizon
    lo = -w if config.base == "z" else 0
    n = w + 1 - lo
    src = np.repeat(np.arange(n), 3)
    dst = src + np.tile([0, -1, 1], n)                     # to itself, then left, then right
    inside = (dst >= 0) & (dst < n)
    return n, src[inside], dst[inside], -lo


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
    reads level l's uniform of edge e as the e-th draw of its own
    (seed, replica, l) stream, but draws only the span of edges that leave
    its reached sites, from the Philox block (4 draws) holding the span's
    first edge: an edge outside the span leaves an unreached site, so its
    uniform cannot matter.  The live replicas advance together in blocks of
    at most _DRAW_BUDGET uniforms, and each level's compare and gather cover
    only the batch's union window of edges and the sites they enter.
    """
    replicas = _whole(replicas, 1, "replicas")
    _seed(seed)
    n, src, dst, origin = _perc_structure(config)
    E = src.size
    # into[:, v] lists v's in-edges, padded with E: a column of `carry` that stays closed
    indeg = np.bincount(dst, minlength=n)
    order = np.argsort(dst, kind="stable")
    into = np.full((int(indeg.max()), n), E)
    into[np.arange(E) - np.repeat(np.cumsum(indeg) - indeg, indeg), dst[order]] = order
    pool = _StreamPool(_PERC_SALT, seed)
    survived = np.zeros(replicas, dtype=bool)
    revisits = np.zeros(replicas, dtype=np.int64)
    for lo, hi in _chunks(np.full(replicas, E), _DRAW_BUDGET):
        live = np.arange(lo, hi)                   # replicas whose cluster still reaches
        reach = np.zeros((live.size, n), dtype=bool)
        reach[:, origin] = True
        u = np.ones((live.size, E))                # row i: uniforms of live[i]'s span
        for level in range(1, config.horizon + 1):
            # the edges leaving the first..last reached site, from a Philox block
            # boundary; each site has its self-loop, so no span is empty
            start = src.searchsorted(reach.argmax(axis=1)) & -4
            stop = src.searchsorted(n - 1 - reach[:, ::-1].argmax(axis=1), "right")
            for row, rng, a, b in zip(u, pool.streams(live, level, start >> 2),
                                      start.tolist(), stop.tolist()):
                rng.random(out=row[a:b])
            e0, e1 = int(start.min()), int(stop.max())
            carry = np.zeros((live.size, E + 1), dtype=bool)
            np.logical_and(reach[:, src[e0:e1]], u[:live.size, e0:e1] < config.p,
                           out=carry[:, e0:e1])
            reach = np.zeros_like(reach)
            s0, s1 = int(dst[e0:e1].min()), int(dst[e0:e1].max()) + 1   # the sites they enter
            reach[:, s0:s1] = carry[:, into[:, s0:s1]].any(axis=1)
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
# CSV output
# ---------------------------------------------------------------------------

def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
