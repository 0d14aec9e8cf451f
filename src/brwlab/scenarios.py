"""Canonical model builders, addressable by name + parameter map.

``SCENARIOS`` declares each scenario's builder and the kind, default and
description of each parameter; ``scenario_table`` lists it.  The one entry
point ``build_scenario`` fills the defaults (None selects one too) and reads
each value by its kind, so a bad value is a ``ModelError`` before a builder
runs.  Each builds a finite truncation of a countable construction, with the
restriction (suppression of reproductions outside the window) applied, and
registers the child-count law its total population projects onto where one
exists, so that global survival of the untruncated process stays decidable.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    BrwModel,
    IntDistribution,
    ModelError,
    OffspringConfig,
    _real,
    _whole,
    build_offspring_law,
    continuous_counterpart,
    product_form_law,
)


# ---------------------------------------------------------------------------
# builders: each takes every parameter of its declaration, already read
# ---------------------------------------------------------------------------

def _gw(rho) -> BrwModel:
    return BrwModel((0,), {0: product_form_law(rho, {0: 1.0})}, name="gw",
                    params={"rho_mean": rho.mean})


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


def _forward_line(size, ns, name, least, back) -> BrwModel:
    """Vertex i of the line 0..size-1 has n_i children at i + 1 w.p. 2/n_i
    and none otherwise, so mean growth is 2 per generation; the last vertex's
    children leave the window.  With ``back`` each burst also drops one child
    at i - 1, which makes the line irreducible.  The counts n_i are ``ns``,
    or ``line_noext_search``'s when it is None."""
    if size < least:
        raise ModelError(f"{name} needs at least {least} vertices")
    ns = line_noext_search(size) if ns is None else ns
    if len(ns) < size or min(ns[:size]) < 2:        # a burst has probability 2/n_i
        raise ModelError(f"need {size} branch counts of at least 2, got {ns}")
    laws, ns = {}, ns[:size]
    for i, n in enumerate(ns):
        burst = {i + 1: n} if i < size - 1 else {}
        if back and i:
            burst[i - 1] = 1
        atoms = [(burst, 2.0 / n), ({}, 1.0 - 2.0 / n)] if burst else [({}, 1.0)]
        laws[i] = build_offspring_law([(OffspringConfig.make(c), p) for c, p in atoms if p > 0])
    return BrwModel(tuple(range(size)), laws, name=name, params={"size": size, "ns": ns})


def ex45_p(i) -> float:
    """Forward probability 1 - 2^{-(i+2)} of line_ex45; the misses are summable."""
    return 1.0 - 2.0 ** (-(i + 2))


def _line_ex45(size, boundary) -> BrwModel:
    """Single-child line: forward w.p. p_i = ex45_p(i), backward or death sharing the rest.

    Row sums are (1+p_i)/2 < 1 at every vertex, yet the process escapes to
    the right and survives globally when the p_i approach 1 fast enough.
    The last vertex either reflects its forward child onto itself (default;
    keeps the child-count law and the escape route) or kills it.
    """
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


def _translation_window(rho, rho_bar, steps, radius, name, params) -> BrwModel:
    """Translation-invariant product-form law on a symmetric window of the line.

    The child-count law is ``rho``, or when it is None the two-point law with
    mean ``rho_bar`` on {0, ceil(rho_bar)}.
    """
    if rho is None:
        if rho_bar <= 0:
            raise ModelError("rho_bar must be positive")
        n = max(1, math.ceil(rho_bar))
        rho = IntDistribution.from_dict({0: 1.0 - rho_bar / n, n: rho_bar / n})
    verts = tuple(range(-radius, radius + 1))
    vset = set(verts)
    laws = {x: product_form_law(rho, {x + d: w for d, w in steps.items()}).restrict(vset)
            for x in verts}
    return BrwModel(verts, laws, name=name, params={"radius": radius, **params,
                                                    "rho_mean": rho.mean},
                    projected_law=rho)


def _zd_translation(radius, rho, rho_bar) -> BrwModel:
    return _translation_window(rho, rho_bar, {-1: 0.5, +1: 0.5}, radius, "zd_translation", {})


def _zdrift(radius, p, q, rho, rho_bar) -> BrwModel:
    if p + q > 1.0:
        raise ModelError(f"need p + q <= 1, got p={p}, q={q}")
    steps = {d: w for d, w in {+1: p, -1: q, 0: 1.0 - p - q}.items() if w > 0}
    return _translation_window(rho, rho_bar, steps, radius, "zdrift", {"p": p, "q": q})


def tree_vertices_and_edges(degree, depth):
    """Breadth-first truncation of the homogeneous tree: ids and parent array.
    Level d >= 1 holds degree (degree-1)^(d-1) vertices; the root's children
    are 1..degree, and from vertex 1 on each vertex in id order has the next
    degree-1 ids as children."""
    degree, depth = _whole(degree, 3, "tree degree"), _whole(depth, 0, "tree depth")
    n = 1 + sum(degree * (degree - 1) ** (d - 1) for d in range(1, depth + 1))
    deeper = np.arange(max(n - 1 - degree, 0)) // (degree - 1) + 1
    return np.arange(n), np.concatenate([[-1], np.zeros(min(n - 1, degree), int), deeper])


def tree_rates(degree, depth):
    """Unit rates on the edges of the truncated homogeneous tree (symmetric),
    as a scipy csr matrix."""
    from scipy.sparse import csr_matrix

    verts, parents = tree_vertices_and_edges(degree, depth)
    child = verts[1:]
    par = parents[1:]
    rows = np.concatenate([par, child])
    cols = np.concatenate([child, par])
    data = np.ones(rows.size)
    n = verts.size
    return tuple(int(v) for v in verts), csr_matrix((data, (rows, cols)), shape=(n, n))


def _tree_counterpart(degree, depth, lam) -> BrwModel:
    """Generation chain of the rate-lam unit-edge process on a truncated tree.

    Child totals are geometric with mean lam * (in-window degree); building
    from the truncated edge set is exactly the restriction of the full-tree
    law.  Every vertex of the untruncated construction has geometric child
    totals of mean lam * degree, so that law is registered as its projection.

    Height relative to a fixed boundary ray (any choice is isomorphic; take
    the leftmost infinite ray) sends each vertex's neighbours one step down
    and degree-1 steps up, so the full tree also projects onto the drifting
    line with p = (degree-1)/degree, q = 1/degree: the ``zdrift`` scenario
    is that projected object.
    """
    if lam <= 0:
        raise ModelError("lam must be positive")
    verts, parents = tree_vertices_and_edges(degree, depth)
    neighbors = {int(v): [] for v in verts}
    for v in verts[1:]:
        neighbors[int(v)].append(int(parents[v]))
        neighbors[int(parents[v])].append(int(v))
    laws = {v: continuous_counterpart(lam, {u: 1.0 for u in row}) for v, row in neighbors.items()}
    return BrwModel(tuple(neighbors), laws, name="tree_counterpart",
                    params={"degree": degree, "depth": depth, "lam": lam},
                    projected_law=IntDistribution.geometric(lam * degree))


# ---------------------------------------------------------------------------
# parameter kinds and the registry
# ---------------------------------------------------------------------------

def _typed(cls, value, what):
    """``value`` when it is a ``cls``; ModelError otherwise."""
    if not isinstance(value, cls):
        raise ModelError(f"{what} must be a {cls.__name__}, got {value!r}")
    return value


def _law(value, what) -> IntDistribution:
    """A dict count -> probability, whose counts may be JSON's decimal strings."""
    return IntDistribution.from_dict({
        _whole(int(k) if isinstance(k, str) and k.isdecimal() else k, 0, f"a count of {what}"):
        _real(p, 0, f"{what}[{k!r}]") for k, p in _typed(dict, value, what).items()})


# a parameter's kind names the reader of its value
_KINDS = {
    "whole": lambda value, what: _whole(value, 0, what),
    "real": lambda value, what: _real(value, 0, what),
    "law": _law,
    "wholes": lambda value, what: [_whole(n, 0, f"an entry of {what}")
                                   for n in _typed(list, value, what)],
    "word": lambda value, what: _typed(str, value, what),
}

# parameters shared by several scenarios: name -> (kind, default, description)
_LINE = {"size": ("whole", 16, "window length"),
         "ns": ("wholes", None, "branch counts; unset takes line_noext_search's")}
_TRANSLATION = {"radius": ("whole", 20, "window radius"),
                "rho": ("law", None, "child-count law count -> probability; "
                                     "unset takes the two-point law of mean rho_bar"),
                "rho_bar": ("real", 1.5, "mean child count when rho is unset")}

SCENARIOS = {
    "gw": {
        "build": _gw,
        "params": {"rho": ("law", {0: 0.4, 2: 0.6}, "child-count law count -> probability")},
        "notes": "single-site branching process; children stay on the site",
    },
    "line_noext": {
        "build": lambda size, ns: _forward_line(size, ns, "line_noext", 2, back=False),
        "params": _LINE,
        "notes": "forward-only line, n_i children w.p. 2/n_i: mean growth 2 per "
                 "generation yet extinction a.s. for the searched n_i",
    },
    "line_noext_irreducible": {
        "build": lambda size, ns: _forward_line(size, ns, "line_noext_irreducible", 3, back=True),
        "params": _LINE,
        "notes": "irreducible variant: each burst also drops one child backward",
    },
    "line_ex45": {
        "build": _line_ex45,
        "params": {"size": ("whole", 64, "window length"),
                   "boundary": ("word", "reflect", "'reflect' or 'kill' for the last vertex")},
        "notes": "single-child line with row sums (1+p_i)/2 < 1 that still survives "
                 "globally by escaping to the right",
    },
    "zd_translation": {
        "build": _zd_translation,
        "params": _TRANSLATION,
        "notes": "translation-invariant symmetric nearest-neighbour dispersal on a "
                 "line window; projects to a single-site model with the same rho",
    },
    "tree_counterpart": {
        "build": _tree_counterpart,
        "params": {"degree": ("whole", 4, "tree degree"),
                   "depth": ("whole", 6, "truncation depth"),
                   "lam": ("real", 0.3, "rate multiplier")},
        "notes": "generation chain of the unit-rate process on a homogeneous tree "
                 "window: geometric totals, uniform dispersal to neighbours",
    },
    "zdrift": {
        "build": _zdrift,
        "params": {**_TRANSLATION,
                   "p": ("real", 0.25, "probability of step +1"),
                   "q": ("real", 0.25, "probability of step -1")},
        "notes": "drifting line kernel {+1: p, -1: q, 0: 1-p-q}; projects to a "
                 "single-site model with the same rho",
    },
}


def build_scenario(name, params=None) -> BrwModel:
    """The model of scenario ``name`` (text) with ``params`` (a dict name -> value,
    or None) over its defaults."""
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ModelError(f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}")
    if not isinstance(params, (dict, type(None))):
        raise ModelError(f"scenario params must be a dict or None, got {type(params).__name__}")
    params = dict(params or {})
    declared = SCENARIOS[name]["params"]
    stray = set(params) - set(declared)
    if stray:
        raise ModelError(f"unknown parameters for {name!r}: {sorted(stray)}")
    args = {}
    for key, (kind, default, _) in declared.items():
        value = default if params.get(key) is None else params[key]
        args[key] = None if value is None else _KINDS[kind](value, f"{name} parameter {key}")
    return SCENARIOS[name]["build"](**args)


def scenario_table():
    """Stable (name, {parameter: (kind, default, description)}, notes) listing
    for CLIs and reports."""
    return [(name, dict(SCENARIOS[name]["params"]), SCENARIOS[name]["notes"])
            for name in sorted(SCENARIOS)]
