"""Offspring laws and branching-random-walk models on finite vertex windows.

A model couples a finite ordered vertex set with one offspring law per
vertex.  A law is either a finite list of weighted offspring configurations
(explicit atoms) or a factorized "product form": a child-count distribution
plus a dispersal row, with each child placed independently.  The factorized
representation is mandatory in practice: counterpart laws on large windows
(e.g. tree truncations) have combinatorially many atoms, while every
operation we need (means, generating function, restriction, sampling) has
a closed factorized path.

Countable vertex spaces are always represented by explicit finite
truncations; builders apply the restriction (children sent outside the
window are deleted) so that a model is closed under its own dynamics.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

PROB_TOL = 1e-12

# Materializing atoms of a factorized law is only allowed below this count.
MAX_MATERIALIZED_ATOMS = 500_000
_MAX_DENSE = 1_000_000      # the longest coefficient array dense_probs builds
# Thinning costs support_max**2 / 2 multiply-adds: at this bound about
# 0.15 s on a 2-vCPU Xeon VM, and four times that at twice it.
_MAX_THINNED = 10_000


class ModelError(ValueError):
    """Invalid law, model or operation input."""


def _index_of(index: dict, v, role) -> int:
    """index[v], or ModelError when v is not one of the indexed vertices."""
    if v not in index:
        raise ModelError(f"{role} {v!r} is not a vertex of the model")
    return index[v]


def _whole(value, least, what, below=math.inf):
    """``value`` as an int when it is a whole number (numpy integers included,
    bools not) in [least, below)."""
    if type(value) is bool or not (isinstance(value, numbers.Integral) and least <= value < below):
        span = f" in [{least}, {below})" if (least, below) != (-math.inf, math.inf) else ""
        raise ModelError(f"{what} must be a whole number{span}, got {value!r}")
    return int(value)


def _real(value, least, what):
    """``value`` as a float when it is a finite real number (numpy floats
    included, bools not) of at least ``least``.  A float skips the ABC
    check, which costs about 1 us."""
    if not ((type(value) is float or type(value) is not bool and isinstance(value, numbers.Real))
            and math.isfinite(value) and value >= least):
        raise ModelError(f"{what} must be a finite number of at least {least}, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# offspring configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OffspringConfig:
    """Finitely supported map vertex -> child count (zero entries dropped)."""

    entries: tuple  # ((vertex, count), ...) sorted by vertex, count > 0

    @staticmethod
    def make(mapping) -> "OffspringConfig":
        items = []
        for v, c in dict(mapping).items():
            v = _whole(v, -math.inf, "a child's vertex")
            if _whole(c, 0, f"the child count at vertex {v}"):
                items.append((v, int(c)))
        return OffspringConfig(tuple(sorted(items)))

    @property
    def total(self) -> int:
        return sum(c for _, c in self.entries)

    @property
    def support(self):
        return tuple(v for v, _ in self.entries)

    def count(self, vertex) -> int:
        for v, c in self.entries:
            if v == vertex:
                return c
        return 0

    def as_dict(self) -> dict:
        return dict(self.entries)

    def restrict(self, keep) -> "OffspringConfig":
        return OffspringConfig(tuple((v, c) for v, c in self.entries if v in keep))


EMPTY_CONFIG = OffspringConfig(())


# ---------------------------------------------------------------------------
# integer distributions (child-count laws)
# ---------------------------------------------------------------------------

class IntDistribution:
    """Finitely supported probability law on the nonnegative integers.

    Stored sparsely as (values, probs) so that laws with a handful of huge
    bursts (the forward-line constructions reach ~10^11 children per atom)
    stay O(#atoms); dense coefficient access is guarded.
    """

    def __init__(self, probs, normalize=False):
        p = np.asarray(probs, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise ModelError("probabilities must be a nonempty 1-d array")
        self._init_sparse(np.arange(p.size, dtype=np.int64), p, normalize)

    def _init_sparse(self, values, probs, normalize, exact=False):
        probs = np.asarray(probs, dtype=float)
        if np.any(probs < -PROB_TOL):
            raise ModelError("negative probability in integer distribution")
        probs = np.clip(probs, 0.0, None)
        s = probs.sum()
        if normalize:
            if s <= 0:
                raise ModelError("cannot normalize zero mass")
        elif abs(s - 1.0) > PROB_TOL:
            raise ModelError(f"probabilities sum to {s!r}, not 1 within {PROB_TOL}")
        if not (exact and abs(s - 1.0) <= PROB_TOL):
            probs = probs / s
        keep = probs > 0.0
        values, probs = np.asarray(values, dtype=np.int64)[keep], probs[keep]
        if values.size == 0:
            values, probs = np.array([0], dtype=np.int64), np.array([1.0])
        order = np.argsort(values)
        self.values = values[order]
        self.probs = probs[order]

    @staticmethod
    def from_values(values, probs, normalize=False) -> "IntDistribution":
        return IntDistribution._from_values(values, probs, normalize, False)

    @staticmethod
    def _from_values(values, probs, normalize, exact) -> "IntDistribution":
        """from_values; with ``exact``, probabilities that already sum to 1 within
        PROB_TOL are kept bit for bit instead of divided by their sum."""
        d = IntDistribution.__new__(IntDistribution)
        values = np.asarray(values, dtype=np.int64)
        if values.size and (np.any(values < 0) or len(np.unique(values)) != values.size):
            raise ModelError("values must be distinct nonnegative integers")
        d._init_sparse(values, probs, normalize, exact)
        return d

    @staticmethod
    def from_dict(d) -> "IntDistribution":
        """The law of a dict count -> probability; counts are whole numbers and
        probabilities finite reals (bools refused), negatives down to -PROB_TOL
        clipped as ``from_values`` does."""
        try:
            pairs = dict(d).items()
        except (TypeError, ValueError) as exc:
            raise ModelError(f"invalid count distribution: {exc}")
        items = sorted((_whole(k, 0, "a count"), _real(p, -PROB_TOL, f"the probability of {k!r}"))
                       for k, p in pairs)
        return IntDistribution.from_values([k for k, _ in items], [p for _, p in items])

    @staticmethod
    def delta(n) -> "IntDistribution":
        return IntDistribution.from_values([int(n)], [1.0])

    @staticmethod
    def geometric(mean) -> "IntDistribution":
        """Geometric law rho(i) = (m/(1+m))^i / (1+m), truncated and renormalized.

        The support is 0..ceil(log PROB_TOL / log r) + 1 with r = m/(1+m), so
        the removed tail mass is below PROB_TOL.  A mean that is not
        finite, or whose support would exceed _MAX_DENSE entries (means above
        about 36,000), raises ModelError before anything is allocated.
        """
        m = _real(mean, 0, "geometric mean")
        if m == 0:
            return IntDistribution.delta(0)
        r = m / (1.0 + m)
        x = math.log(PROB_TOL) / math.log(r) if r < 1.0 else math.inf
        if x + 2 > _MAX_DENSE:
            raise ModelError(f"geometric mean {m!r} needs a support above {_MAX_DENSE} entries")
        i = np.arange(int(math.ceil(x)) + 2)
        p = (1.0 - r) * r ** i
        return IntDistribution(p, normalize=True)

    @property
    def support_max(self) -> int:
        return int(self.values[-1])

    @property
    def mean(self) -> float:
        return float(np.dot(self.values.astype(float), self.probs))

    @property
    def variance(self) -> float:
        m = self.mean
        return float(np.dot((self.values.astype(float) - m) ** 2, self.probs))

    def prob_of(self, n) -> float:
        i = np.searchsorted(self.values, int(n))
        if i < self.values.size and self.values[i] == int(n):
            return float(self.probs[i])
        return 0.0

    def as_dict(self) -> dict:
        return {int(v): float(p) for v, p in zip(self.values, self.probs)}

    def dense_probs(self) -> np.ndarray:
        """Coefficient array indexed by value; supports above _MAX_DENSE raise."""
        if self.support_max + 1 > _MAX_DENSE:
            raise ModelError(f"support up to {self.support_max} is too large to densify")
        out = np.zeros(self.support_max + 1)
        out[self.values] = self.probs
        return out

    def tail(self, n) -> float:
        """P(X >= n)."""
        i = np.searchsorted(self.values, int(n))
        return float(self.probs[i:].sum())

    def pgf(self, s):
        """Evaluate the probability generating function at s (scalar or array)."""
        s = np.asarray(s, dtype=float)
        with np.errstate(invalid="ignore"):
            terms = np.power(s[..., None], self.values.astype(float))
        # 0^0 = 1 by convention; numpy already honours it for power
        return np.dot(terms, self.probs) if s.ndim else float(np.dot(terms, self.probs))

    def thinned(self, keep_prob) -> "IntDistribution":
        """Law of a binomial thinning: each unit kept independently w.p. keep_prob.

        Its pgf is this law's pgf at (1 - s) + s t, expanded by Horner's scheme
        from the top coefficient down.  Every term is nonnegative and no
        binomial coefficient is formed, so each probability is within a few
        dozen ulp of the exact law's.  Supports above _MAX_THINNED raise.
        """
        s = float(keep_prob)
        if not (0.0 <= s <= 1.0 + PROB_TOL):
            raise ModelError("keep probability outside [0,1]")
        s = min(s, 1.0)
        if s == 1.0:
            return self
        n = self.support_max
        if n > _MAX_THINNED:
            raise ModelError(f"thinning a law with bursts above {_MAX_THINNED} is not supported")
        p, r = self.dense_probs(), 1.0 - s
        out = np.zeros(n + 1)
        for v in range(n, -1, -1):              # out[:n - v + 1] holds the nonzero part
            d = n - v
            out[1:d + 1] = r * out[1:d + 1] + s * out[:d]
            out[0] = r * out[0] + p[v]
        return IntDistribution(out, normalize=True)

    def allclose(self, other) -> bool:
        """Equal within PROB_TOL at every value of either support."""
        union = np.union1d(self.values, other.values)
        for v in union:
            if abs(self.prob_of(v) - other.prob_of(v)) > PROB_TOL:
                return False
        return True

    def __repr__(self):
        return f"IntDistribution(max={self.support_max}, mean={self.mean:.6g})"


# ---------------------------------------------------------------------------
# offspring laws
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProductForm:
    """Child total drawn from rho, each child placed independently by weight."""

    rho: IntDistribution
    targets: tuple
    weights: tuple


class OffspringLaw:
    """One vertex's reproduction law.

    Exactly one of (atoms, product) backs the instance.  The derived
    child-count law rho is cached; ``atoms`` materializes the configuration
    list on demand (guarded for factorized laws).
    """

    __slots__ = ("_atoms", "product", "rho")

    def __init__(self, atoms=None, product=None):
        if (atoms is None) == (product is None):
            raise ModelError("law needs exactly one of atoms / product form")
        self._atoms = tuple(atoms) if atoms is not None else None
        self.product = product
        if self._atoms is not None:
            totals = {}
            for cfg, p in self._atoms:
                totals[cfg.total] = totals.get(cfg.total, 0.0) + p
            self.rho = IntDistribution.from_dict(totals)
        else:
            self.rho = product.rho

    # -- derived quantities -------------------------------------------------

    @property
    def rho_bar(self) -> float:
        return self.rho.mean

    @property
    def support(self):
        if self.product is not None:
            return tuple(t for t, w in zip(self.product.targets, self.product.weights) if w > 0)
        seen = set()
        for cfg, _ in self._atoms:
            seen.update(cfg.support)
        return tuple(sorted(seen))

    @property
    def atoms(self):
        """Explicit (config, probability) list; enumerates factorized laws."""
        if self._atoms is not None:
            return self._atoms
        return self._materialize()

    def _materialize(self):
        pf = self.product
        targets = [t for t, w in zip(pf.targets, pf.weights) if w > 0]
        weights = [w for w in pf.weights if w > 0]
        count = sum(math.comb(int(n) + len(targets) - 1, len(targets) - 1)
                    for n in pf.rho.values)
        if count > MAX_MATERIALIZED_ATOMS:
            raise ModelError(f"refusing to enumerate {count} atoms of a factorized law")
        atoms = []
        for n, pn in zip(pf.rho.values, pf.rho.probs):
            if pn == 0.0:
                continue
            for cfg, mult in _compositions(int(n), targets):
                prob = pn * mult
                for t, w in zip(targets, weights):
                    c = cfg.get(t, 0)
                    if c:
                        prob *= w ** c
                if prob > 0:
                    atoms.append((OffspringConfig.make(cfg), prob))
        return tuple(atoms)

    # -- transforms ----------------------------------------------------------

    def restrict(self, keep) -> "OffspringLaw":
        """Delete all children sent outside the set ``keep`` (marginal law)."""
        if self.product is not None:
            pf = self.product
            s = sum(w for t, w in zip(pf.targets, pf.weights) if t in keep)
            if s <= 0.0:
                return OffspringLaw(atoms=((EMPTY_CONFIG, 1.0),))
            kept = [(t, w / s) for t, w in zip(pf.targets, pf.weights) if t in keep and w > 0]
            return OffspringLaw(product=ProductForm(
                self.rho.thinned(s),
                tuple(t for t, _ in kept),
                tuple(w for _, w in kept)))
        merged = {}
        for cfg, p in self._atoms:
            r = cfg.restrict(keep)
            merged[r] = merged.get(r, 0.0) + p
        return OffspringLaw(atoms=tuple(merged.items()))

    def prob_single_child_in(self, subset) -> float:
        """P(exactly one child lands inside ``subset``)."""
        subset = set(subset)
        if self.product is not None:
            pf = self.product
            s = sum(w for t, w in zip(pf.targets, pf.weights) if t in subset)
            n = pf.rho.values.astype(float)
            with np.errstate(invalid="ignore"):
                terms = n * s * (1.0 - s) ** np.maximum(n - 1.0, 0.0)
            terms[n == 0] = 0.0
            return float(np.dot(pf.rho.probs, terms))
        return sum(p for cfg, p in self._atoms
                   if sum(c for v, c in cfg.entries if v in subset) == 1)

    def equal_within(self, other) -> bool:
        """Total-variation equality within PROB_TOL (factorized fast path when possible)."""
        if self.product is not None and other.product is not None:
            a, b = self.product, other.product
            if not a.rho.allclose(b.rho):
                return False
            ta = {t: w for t, w in zip(a.targets, a.weights) if w > PROB_TOL}
            tb = {t: w for t, w in zip(b.targets, b.weights) if w > PROB_TOL}
            if set(ta) != set(tb):
                return False
            return all(abs(ta[t] - tb[t]) <= PROB_TOL for t in ta)
        da = {cfg: p for cfg, p in self.atoms}
        db = {cfg: p for cfg, p in other.atoms}
        tv = 0.0
        for cfg in set(da) | set(db):
            tv += abs(da.get(cfg, 0.0) - db.get(cfg, 0.0))
        return tv / 2.0 <= PROB_TOL

    def __repr__(self):
        kind = "product" if self.product is not None else f"{len(self._atoms)} atoms"
        return f"OffspringLaw({kind}, rho_bar={self.rho_bar:.6g})"


def _compositions(n, targets):
    """Yield (config dict, multinomial coefficient) over placements of n children."""
    k = len(targets)
    if n == 0:
        yield {}, 1.0
        return

    def rec(i, remaining, cfg):
        if i == k - 1:
            out = dict(cfg)
            if remaining:
                out[targets[i]] = remaining
            yield out
            return
        for c in range(remaining + 1):
            nxt = dict(cfg)
            if c:
                nxt[targets[i]] = c
            yield from rec(i + 1, remaining - c, nxt)

    fact_n = math.factorial(n)
    for cfg in rec(0, n, {}):
        denom = 1
        for c in cfg.values():
            denom *= math.factorial(c)
        yield cfg, fact_n / denom


# ---------------------------------------------------------------------------
# law constructors
# ---------------------------------------------------------------------------

def build_offspring_law(atoms) -> OffspringLaw:
    """Validate and build a law from (config-like, probability) pairs."""
    norm = []
    seen = set()
    total = 0.0
    for cfg, p in atoms:
        if not isinstance(cfg, OffspringConfig):
            cfg = OffspringConfig.make(cfg)
        if not (0.0 < _real(p, 0, "an atom probability") <= 1.0 + PROB_TOL):
            raise ModelError(f"atom probability {p!r} outside (0, 1]")
        if cfg in seen:
            raise ModelError(f"duplicate offspring configuration {cfg.entries}")
        seen.add(cfg)
        norm.append((cfg, float(p)))
        total += p
    if abs(total - 1.0) > PROB_TOL:
        raise ModelError(f"atom probabilities sum to {total!r}, not 1 within {PROB_TOL}")
    return OffspringLaw(atoms=tuple(norm))


def product_form_law(rho, dispersal_row) -> OffspringLaw:
    """Law with rho children placed independently by the dispersal row."""
    if isinstance(rho, dict):
        rho = IntDistribution.from_dict(rho)
    items = sorted((_whole(t, -math.inf, "a dispersal target"), _real(w, 0, "a dispersal weight"))
                   for t, w in dict(dispersal_row).items())
    items = [(t, w) for t, w in items if w != 0.0]
    s = sum(w for _, w in items)
    if abs(s - 1.0) > PROB_TOL:
        raise ModelError(f"dispersal row sums to {s!r}, not 1 within {PROB_TOL}")
    return OffspringLaw(product=ProductForm(
        rho, tuple(t for t, _ in items), tuple(w / s for _, w in items)))


def continuous_counterpart(lam, rates_row) -> OffspringLaw:
    """Generation law of a rate-driven process: geometric totals, rate-proportional dispersal.

    With total rate k = sum of the row, child totals follow
    rho(i) = (lam*k)^i / (1+lam*k)^{i+1}, cut where the tail falls below
    PROB_TOL and renormalized (``IntDistribution.geometric``), and each child
    lands on y with probability rate[y]/k, so mean offspring at y is
    lam * rate[y].
    """
    row = {_whole(t, -math.inf, "a rate target"): _real(w, 0, "a rate")
           for t, w in dict(rates_row).items()}
    row = {t: w for t, w in row.items() if w != 0.0}
    k = sum(row.values())
    if k <= 0:
        raise ModelError("total rate k(x) must be positive")
    rho = IntDistribution.geometric(_real(lam, 0, "lam") * k)
    return product_form_law(rho, {t: w / k for t, w in row.items()})


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

@dataclass
class BrwModel:
    """Finite truncation of a branching random walk: vertices + one law each.

    Treated as immutable after construction.  ``projected_law``, when set by
    a scenario builder, is the child-count law of the Galton-Watson process
    that the untruncated construction's total population projects onto;
    survival classification decides global behavior by its mean.
    """

    vertices: tuple
    laws: dict
    name: str = ""
    params: dict = field(default_factory=dict)
    projected_law: "IntDistribution | None" = None

    def __post_init__(self):
        self.vertices = tuple(self.vertices)
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ModelError("duplicate vertex ids")
        if set(self.laws) != vset:
            raise ModelError("laws must cover exactly the vertex list")
        for v, law in self.laws.items():
            stray = [u for u in law.support if u not in vset]
            if stray:
                raise ModelError(
                    f"law at {v!r} references vertices outside the model: {stray[:5]}"
                    " (apply the restriction first)")
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self._cache = {}

    @property
    def size(self) -> int:
        return len(self.vertices)


def dominating_law(model: BrwModel) -> IntDistribution:
    """Smallest child-count law stochastically above every per-vertex rho.

    rho(n) = sup_x tail_x(n) - sup_x tail_x(n+1); on finite vertex sets the
    suprema are maxima and the result always exists.
    """
    points = sorted({int(n) for v in model.vertices for n in model.laws[v].rho.values})

    def sup_tail(n):
        return max(model.laws[v].rho.tail(n) for v in model.vertices)

    # sup_x tail_x only steps right after a support point, so the dominating
    # law is carried by the union of the per-vertex supports
    values, probs = [], []
    for n in points:
        mass = sup_tail(n) - sup_tail(n + 1)
        if mass > 0:
            values.append(n)
            probs.append(mass)
    return IntDistribution.from_values(values, probs, normalize=True)


# ---------------------------------------------------------------------------
# the compiled law table
# ---------------------------------------------------------------------------

class _CsrArrays(NamedTuple):
    """A sparse matrix as the plain arrays of its compressed rows; ``tocsr``
    builds the scipy matrix from them."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def tocsr(self):
        from scipy.sparse import csr_matrix

        return csr_matrix((self.data, self.indices, self.indptr), shape=self.shape)


class LawTable:
    """A model's laws compiled once; the moment matrix, G, G' and the sampler read this.

    Product rows: the dispersal matrix ``disp`` (csr arrays, targets in law
    order, zero weights kept), mean child totals ``rho_mean``, ``rho_groups``
    [(law, rows)] per child-count law keyed on its values and probs bytes (no
    law is densified), and ``draw_groups`` [(rho group, weights, rows)] per
    (id(rho), weights) key, which the recorded draw order follows, each atom
    row a group (-1, None, [x]) of its own, by least row.  Atom rows: x owns
    atoms atom_ptr[x]:atom_ptr[x + 1], with ``atom_probs`` and ``counts``
    (atoms x V csr arrays).  The arrays are plain numpy, so the sampler needs
    no scipy; the moment matrix and G build scipy matrices from them."""

    def __init__(self, model: BrwModel):
        index, n = model.index, model.size
        disp_ptr, disp_cols, disp_w = [0], [], []
        atom_ptr, probs, cnt_ptr, cnt_cols, cnt_data = [0], [], [0], [], []
        rho_groups, draw_groups = {}, {}
        for i, v in enumerate(model.vertices):
            pf = model.laws[v].product
            if pf is None:
                for cfg, p in model.laws[v].atoms:
                    probs.append(p)
                    cnt_cols += [index[u] for u, _ in cfg.entries]
                    cnt_data += [c for _, c in cfg.entries]
                    cnt_ptr.append(len(cnt_cols))
                draw_groups[i] = (-1, None, [i])
            else:
                disp_cols += [index[t] for t in pf.targets]
                disp_w += pf.weights
                rho = pf.rho
                g = rho_groups.setdefault((rho.values.tobytes(), rho.probs.tobytes()),
                                          (len(rho_groups), rho, []))
                g[2].append(i)
                draw_groups.setdefault((id(rho), pf.weights), (g[0], pf.weights, []))[2].append(i)
            disp_ptr.append(len(disp_cols))
            atom_ptr.append(len(probs))
        self.disp = _CsrArrays(np.array(disp_w, dtype=float), np.array(disp_cols, dtype=np.int64),
                               np.array(disp_ptr, dtype=np.int64), (n, n))
        self.rho_groups = [(rho, np.array(rows)) for _, rho, rows in rho_groups.values()]
        self.rho_mean = np.zeros(n)
        for rho, rows in self.rho_groups:
            self.rho_mean[rows] = rho.mean
        self.draw_groups = [(g, w, np.array(rows)) for g, w, rows in draw_groups.values()]
        self.atom_ptr = np.array(atom_ptr)
        self.atom_probs = np.array(probs, dtype=float)
        self.counts = _CsrArrays(np.array(cnt_data, dtype=np.int64),
                                 np.array(cnt_cols, dtype=np.int64),
                                 np.array(cnt_ptr, dtype=np.int64), (len(probs), n))

    def mean(self):
        """m_xy, a sorted scipy csr matrix: rho_mean times the dispersal rows
        plus atom_probs @ counts."""
        from scipy.sparse import csr_matrix

        d, a = self.disp, self.atom_probs.size
        owners = csr_matrix((self.atom_probs, np.arange(a), self.atom_ptr), shape=(d.shape[0], a))
        m = csr_matrix((d.data * np.repeat(self.rho_mean, np.diff(d.indptr)), d.indices, d.indptr),
                       shape=d.shape) + owners @ self.counts.tocsr()
        m.sort_indices()
        return m


def law_table(model: BrwModel) -> LawTable:
    """The model's compiled law table, built on first use and cached."""
    table = model._cache.get("law_table")
    if table is None:
        table = model._cache["law_table"] = LawTable(model)
    return table


# ---------------------------------------------------------------------------
# restrictions
# ---------------------------------------------------------------------------

def restrict_model(model: BrwModel, subset) -> BrwModel:
    """Suppress every reproduction outside ``subset`` (the induced model)."""
    keepset = set(subset)
    keep = [v for v in model.vertices if v in keepset]
    if not keep:
        raise ModelError("restriction to an empty vertex set")
    laws = {v: model.laws[v].restrict(keepset) for v in keep}
    params = dict(model.params)
    params["restricted_to"] = len(keep)
    return BrwModel(tuple(keep), laws, name=model.name, params=params)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

def check_assumption_nonsingular(model: BrwModel):
    """Per communicating class: does some vertex breed a non-single total inside it?

    Classes are the strong components of this truncation's mean matrix, which
    can differ from the untruncated ones; the report carries that caveat.
    """
    from scipy.sparse import csgraph

    ncomp, labels = csgraph.connected_components(law_table(model).mean(), connection="strong")
    classes = [[] for _ in range(ncomp)]
    for v, lab in zip(model.vertices, labels.tolist()):
        classes[lab].append(v)
    verdicts = []
    for cls in map(tuple, classes):
        ok = any(model.laws[v].prob_single_child_in(cls) < 1.0 - PROB_TOL for v in cls)
        verdicts.append({"class": cls, "nonsingular": ok})
    return {
        "classes": verdicts,
        "all_nonsingular": all(c["nonsingular"] for c in verdicts),
        "note": "classes computed on this finite truncation only",
    }
