"""Canonical model builders, addressable by name + parameter map.

Each scenario builds a finite truncation of a countable construction, with
the restriction (suppression of reproductions outside the window) already
applied, and registers a finite locally-isomorphic model where one exists
so that global survival of the untruncated process stays decidable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix

from .core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    build_offspring_law,
    continuous_counterpart,
    product_form_law,
)


def _gw_projection(model, rho):
    """Register the single-vertex model every site-independent law collapses to."""
    point = BrwModel((0,), {0: product_form_law(rho, {0: 1.0})},
                     name="gw", params={"from": model.name})
    mapping = {v: 0 for v in model.vertices}
    return BrwModel(model.vertices, model.laws, model.name, dict(model.params), (point, mapping))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_gw(rho) -> BrwModel:
    rho = IntDistribution.from_dict(rho) if isinstance(rho, dict) else rho
    law = product_form_law(rho, {0: 1.0})
    return BrwModel((0,), {0: law}, name="gw", params={"rho_mean": rho.mean})


def line_noext_search(size) -> list:
    """Branch counts for the forward line tuned so extinction is certain.

    Sets n_0 = 4 and then, window by window, picks the smallest power-of-two-ish
    n_{k+1} such that the minimal solution of the finite inequality system
    (z fixed to 1 - p_{k+1} at the far end, then pulled back through
    z(i) = p_i z(i+1)^{n_i} + 1 - p_i with p_i = 2/n_i) stays above
    (k+1)/(k+2) everywhere.  The mean matrix is unchanged (p_i n_i = 2) while
    the fixed-point equations are pushed toward the all-ones solution.
    """
    ns = [4]

    def min_solution_floor(candidate):
        zs = 1.0 - 2.0 / candidate
        lo = zs
        for i in range(len(ns) - 1, -1, -1):
            p = 2.0 / ns[i]
            zs = p * math.exp(ns[i] * math.log(zs)) + 1.0 - p if zs > 0 else 1.0 - p
            lo = min(lo, zs)
        return lo

    for k in range(size - 1):
        target = (k + 1.0) / (k + 2.0)
        cand = max(ns[-1], 4)
        while min_solution_floor(cand) < target:
            cand *= 2
            if cand > 10 ** 18:
                raise ModelError("line_noext search failed to terminate")
        ns.append(cand)
    return ns


def build_line_noext(size, ns=None) -> BrwModel:
    size = int(size)
    if size < 2:
        raise ModelError("line_noext needs at least 2 vertices")
    ns = line_noext_search(size) if ns is None else [int(n) for n in ns]
    if len(ns) < size:
        raise ModelError(f"need {size} branch counts, got {len(ns)}")
    laws = {}
    for i in range(size - 1):
        p = 2.0 / ns[i]
        laws[i] = build_offspring_law([
            (OffspringConfig.make({i + 1: ns[i]}), p),
            (OffspringConfig.make({}), 1.0 - p),
        ])
    # all reproduction of the last vertex leaves the window
    laws[size - 1] = build_offspring_law([(OffspringConfig.make({}), 1.0)])
    return BrwModel(tuple(range(size)), laws, name="line_noext",
                    params={"size": size, "ns": list(ns[:size])})


def build_line_noext_irreducible(size, ns=None) -> BrwModel:
    size = int(size)
    if size < 3:
        raise ModelError("irreducible line needs at least 3 vertices")
    ns = line_noext_search(size) if ns is None else [int(n) for n in ns]
    laws = {}
    p0 = 2.0 / ns[0]
    laws[0] = build_offspring_law([
        (OffspringConfig.make({1: ns[0]}), p0),
        (OffspringConfig.make({}), 1.0 - p0),
    ])
    for i in range(1, size - 1):
        p = 2.0 / ns[i]
        laws[i] = build_offspring_law([
            (OffspringConfig.make({i + 1: ns[i], i - 1: 1}), p),
            (OffspringConfig.make({}), 1.0 - p),
        ])
    p = 2.0 / ns[size - 1]
    laws[size - 1] = build_offspring_law([
        (OffspringConfig.make({size - 2: 1}), p),
        (OffspringConfig.make({}), 1.0 - p),
    ])
    return BrwModel(tuple(range(size)), laws, name="line_noext_irreducible",
                    params={"size": size, "ns": list(ns[:size])})


def ex45_p(i) -> float:
    """Forward probability 1 - 2^{-(i+2)} of line_ex45; the misses are summable."""
    return 1.0 - 2.0 ** (-(i + 2))


def build_line_ex45(size, boundary="reflect") -> BrwModel:
    """Single-child line: forward w.p. p_i = ex45_p(i), backward or death sharing the rest.

    Row sums are (1+p_i)/2 < 1 at every vertex, yet the process escapes to
    the right and survives globally when the p_i approach 1 fast enough.
    The last vertex either reflects its forward child onto itself (default;
    keeps the child-count law and the escape route) or kills it.
    """
    size = int(size)
    if size < 2:
        raise ModelError("line_ex45 needs at least 2 vertices")
    if boundary not in ("reflect", "kill"):
        raise ModelError(f"unknown boundary mode {boundary!r}")
    laws = {}
    for i in range(size):
        p = ex45_p(i)
        back = i - 1 if i > 0 else 0
        if i < size - 1:
            fwd = i + 1
        else:
            fwd = i if boundary == "reflect" else None
        atoms = []
        if fwd is not None:
            atoms.append((OffspringConfig.make({fwd: 1}), p))
        rest = 1.0 - p if fwd is not None else 1.0
        half = (1.0 - p) / 2.0
        atoms.append((OffspringConfig.make({back: 1}), half))
        atoms.append((OffspringConfig.make({}), rest - half))
        laws[i] = build_offspring_law([(c, q) for c, q in atoms if q > 0])
    return BrwModel(tuple(range(size)), laws, name="line_ex45",
                    params={"size": size, "boundary": boundary})


def _window_vertices(radius):
    return tuple(range(-int(radius), int(radius) + 1))


def _translation_window(rho, steps, radius, name, params) -> BrwModel:
    """Translation-invariant product-form law on a symmetric window of the line."""
    verts = _window_vertices(radius)
    vset = set(verts)
    laws = {}
    for x in verts:
        row = {x + d: w for d, w in steps.items()}
        laws[x] = product_form_law(rho, row).restrict(vset)
    model = BrwModel(verts, laws, name=name, params=params)
    return _gw_projection(model, rho)


def _rho_from_params(params, default_mean=1.5):
    if "rho" in params and params["rho"] is not None:
        d = params["rho"]
        return IntDistribution.from_dict({int(k): float(v) for k, v in dict(d).items()})
    rb = float(params.get("rho_bar", default_mean))
    if rb <= 0:
        raise ModelError("rho_bar must be positive")
    n = max(1, math.ceil(rb))
    return IntDistribution.from_dict({0: 1.0 - rb / n, n: rb / n})


def build_zd_translation(radius=20, rho=None, rho_bar=1.5) -> BrwModel:
    rho_dist = _rho_from_params({"rho": rho, "rho_bar": rho_bar})
    return _translation_window(
        rho_dist, {-1: 0.5, +1: 0.5}, radius,
        "zd_translation",
        {"radius": int(radius), "rho_mean": rho_dist.mean})


def build_zdrift(radius=20, p=0.25, q=0.25, rho=None, rho_bar=1.5) -> BrwModel:
    p, q = float(p), float(q)
    if p < 0 or q < 0 or p + q > 1.0 + 1e-12:
        raise ModelError(f"need p, q >= 0 and p + q <= 1, got p={p}, q={q}")
    rho_dist = _rho_from_params({"rho": rho, "rho_bar": rho_bar})
    steps = {d: w for d, w in {+1: p, -1: q, 0: 1.0 - p - q}.items() if w > 0}
    return _translation_window(
        rho_dist, steps, radius, "zdrift",
        {"radius": int(radius), "p": p, "q": q, "rho_mean": rho_dist.mean})


def tree_vertices_and_edges(degree, depth):
    """Breadth-first truncation of the homogeneous tree: ids, parent array, depths."""
    degree, depth = int(degree), int(depth)
    if degree < 3:
        raise ModelError("tree degree must be at least 3")
    parents = [-1]
    depths = [0]
    frontier = [0]
    nxt = 1
    for d in range(1, depth + 1):
        newf = []
        for v in frontier:
            kids = degree if v == 0 else degree - 1
            for _ in range(kids):
                parents.append(v)
                depths.append(d)
                newf.append(nxt)
                nxt += 1
        frontier = newf
    return np.arange(nxt), np.array(parents), np.array(depths)


def tree_rates(degree, depth):
    """Unit rates on the edges of the truncated homogeneous tree (symmetric)."""
    verts, parents, _ = tree_vertices_and_edges(degree, depth)
    child = verts[1:]
    par = parents[1:]
    rows = np.concatenate([par, child])
    cols = np.concatenate([child, par])
    data = np.ones(rows.size)
    n = verts.size
    return tuple(int(v) for v in verts), csr_matrix((data, (rows, cols)), shape=(n, n))


def build_tree_counterpart(degree=4, depth=6, lam=0.3) -> BrwModel:
    """Generation chain of the rate-lam unit-edge process on a truncated tree.

    Child totals are geometric with mean lam * (in-window degree); building
    from the truncated edge set is exactly the restriction of the full-tree
    law.  The untruncated construction has constant row sum lam * degree, so
    a single-vertex geometric model is registered as its finite projection.

    Height relative to a fixed boundary ray (any choice is isomorphic; take
    the leftmost infinite ray) sends each vertex's neighbours one step down
    and degree-1 steps up, so the full tree also projects onto the drifting
    line with p = (degree-1)/degree, q = 1/degree: the ``zdrift`` scenario
    is that projected object.
    """
    lam = float(lam)
    if lam <= 0:
        raise ModelError("lam must be positive")
    verts, parents, _ = tree_vertices_and_edges(degree, depth)
    neighbors = {int(v): [] for v in verts}
    for v in verts[1:]:
        neighbors[int(v)].append(int(parents[v]))
        neighbors[int(parents[v])].append(int(v))
    laws = {}
    for v in verts:
        row = {u: 1.0 for u in neighbors[int(v)]}
        laws[int(v)] = continuous_counterpart(lam, row)
    model = BrwModel(tuple(int(v) for v in verts), laws, name="tree_counterpart",
                     params={"degree": int(degree), "depth": int(depth), "lam": lam})
    rho_full = IntDistribution.geometric(lam * degree)
    return _gw_projection(model, rho_full)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

SCENARIOS = {
    "gw": {
        "build": lambda p: build_gw(p.get("rho", {0: 0.4, 2: 0.6})),
        "schema": {"rho": "dict count->prob (default {0:0.4, 2:0.6})"},
        "notes": "single-site branching process; children stay on the site",
    },
    "line_noext": {
        "build": lambda p: build_line_noext(p.get("size", 16), p.get("ns")),
        "schema": {"size": "int window length (default 16)",
                   "ns": "optional branch counts; default from line_noext_search"},
        "notes": "forward-only line, n_i children w.p. 2/n_i: mean growth 2 per "
                 "generation yet extinction a.s. for the searched n_i",
    },
    "line_noext_irreducible": {
        "build": lambda p: build_line_noext_irreducible(p.get("size", 16), p.get("ns")),
        "schema": {"size": "int window length (default 16)",
                   "ns": "optional branch counts; default from line_noext_search"},
        "notes": "irreducible variant: each burst also drops one child backward",
    },
    "line_ex45": {
        "build": lambda p: build_line_ex45(p.get("size", 64), p.get("boundary", "reflect")),
        "schema": {"size": "int window length (default 64)",
                   "boundary": "'reflect' (default) or 'kill' for the last vertex"},
        "notes": "single-child line with row sums (1+p_i)/2 < 1 that still survives "
                 "globally by escaping to the right",
    },
    "zd_translation": {
        "build": lambda p: build_zd_translation(p.get("radius", 20), p.get("rho"),
                                                p.get("rho_bar", 1.5)),
        "schema": {"radius": "int window radius (default 20)",
                   "rho": "dict count->prob (optional)",
                   "rho_bar": "float mean used when rho omitted (default 1.5)"},
        "notes": "translation-invariant symmetric nearest-neighbour dispersal on a "
                 "line window; projects to a single-site model with the same rho",
    },
    "tree_counterpart": {
        "build": lambda p: build_tree_counterpart(p.get("degree", 4), p.get("depth", 6),
                                                  p.get("lam", 0.3)),
        "schema": {"degree": "int tree degree (default 4)",
                   "depth": "int truncation depth (default 6)",
                   "lam": "float rate multiplier (default 0.3)"},
        "notes": "generation chain of the unit-rate process on a homogeneous tree "
                 "window: geometric totals, uniform dispersal to neighbours",
    },
    "zdrift": {
        "build": lambda p: build_zdrift(p.get("radius", 20), p.get("p", 0.25),
                                        p.get("q", 0.25), p.get("rho"),
                                        p.get("rho_bar", 1.5)),
        "schema": {"radius": "int window radius (default 20)",
                   "p": "float probability of step +1 (default 0.25)",
                   "q": "float probability of step -1 (default 0.25)",
                   "rho": "dict count->prob (optional)",
                   "rho_bar": "float mean used when rho omitted (default 1.5)"},
        "notes": "drifting line kernel {+1: p, -1: q, 0: 1-p-q}; projects to a "
                 "single-site model with the same rho",
    },
}


def build_scenario(name, params=None) -> BrwModel:
    if name not in SCENARIOS:
        raise ModelError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    params = dict(params or {})
    known = set(SCENARIOS[name]["schema"])
    stray = set(params) - known
    if stray:
        raise ModelError(f"unknown parameters for {name!r}: {sorted(stray)}")
    return SCENARIOS[name]["build"](params)


def scenario_table():
    """Stable (name, schema, notes) listing for CLIs and reports."""
    out = []
    for name in sorted(SCENARIOS):
        entry = SCENARIOS[name]
        out.append((name, dict(entry["schema"]), entry["notes"]))
    return out
