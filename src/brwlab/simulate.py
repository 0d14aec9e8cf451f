"""Exact-law Monte Carlo for branching random walks and their truncations.

Randomness contract: every draw comes from a counter-based Philox stream
keyed by (seed, replica, generation), consumed in a canonical order (law
groups by least vertex, within a group child totals before targets, then
replica-major, vertices by index, particles by rank).  Replicas are
therefore reproducible independently of scheduling, and processes that
share a stream share their per-particle offspring draws: a capped or
restricted state reads a prefix of the same draw blocks, which makes
monotone couplings exact rather than statistical.

One kernel draws all offspring.  It advances an (R, S, V) count array:
R replicas, each with S coupled rows over V vertices, by one occupancy pass
per generation: the occupied (replica, vertex) sites, each with one draw
block sized by the largest of its rows, are sorted once into the canonical
order, only the law groups that hold particles are visited, every temporary
is sized by the occupied sites or their particles, and each row's children
are counted by one bincount.  A trial batch steps all its live replicas
together, each replica drawing from its own (seed, replica, generation)
stream, so a batch is bit-identical to running its replicas one at a time;
single steps use R = 1, and the replica-batched mean curves share one
stream per generation with S = 1.

Per-site caps are applied after summing arrivals from all parents, so a
step does not depend on any parent ordering.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import BrwModel, ModelError, law_table

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TRIAL_SALT = 0x9E3779B97F4A7C15
_BATCH_SALT = 0xC2B2AE3D27D4EB4F
_INT64_MAX = 2 ** 63 - 1
_U32, _U63 = np.uint64(32), np.uint64(63)

# Draws one _advance call (or one percolation level block) holds at most,
# which bounds its temporaries; chosen by measurement.
_DRAW_BUDGET = 1 << 16

# Cdfs of at most this many entries are inverted by a comparison scan, larger
# ones by binary search; chosen by measurement.
_SCAN_CDF = 8

DEFAULT_HARD_CAP = 10 ** 8
_Z95 = 1.959963984540054                    # the two-sided 95% normal quantile


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial frequency."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + _Z95 * _Z95 / n
    center = (phat + _Z95 * _Z95 / (2 * n)) / denom
    half = _Z95 * math.sqrt(phat * (1 - phat) / n + _Z95 * _Z95 / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def _seed_words(salt, seed) -> np.ndarray:
    """The first key word, seed ^ salt, and its float64-rounded twin (uint64)."""
    words = np.full(2, (int(seed) & _MASK64) ^ salt, dtype=np.uint64)
    words[1:] = words[1:].astype(np.float64).astype(np.uint64)
    return words


def _keys(words, replicas, n):
    """The two uint64 Philox key words of each replica, as two arrays: seed ^
    salt (``words`` from ``_seed_words``), then replica:n packed in 32+32 bits.

    They are the keys np.random.Philox(key=[a, b]) derives from a list: numpy
    holds an int64-range word and a word above 2**63 together only as
    float64, so such a pair is rounded through float64 (ROADMAP item 1).
    """
    low = (np.asarray(replicas, dtype=np.uint64) << _U32) | np.uint64(int(n) & _MASK32)
    mixed = (low ^ words[0]) >> _U63                       # 1 where the top bits differ
    return words[mixed], np.where(mixed, low.astype(np.float64).astype(np.uint64), low)


def _philox(salt, seed, replica, n) -> np.random.Generator:
    """Philox generator keyed by (seed ^ salt, replica:n packed in 32+32 bits)."""
    high, low = _keys(_seed_words(salt, seed), (replica,), n)
    return np.random.Generator(np.random.Philox(key=[high[0], low[0]]))


# Philox slots a thread keeps between runs (about 1 KB each); a larger batch
# builds the rest and drops them when the next pool is made.
_KEPT_SLOTS = 1024


class _Slots(threading.local):
    """The generators the stream pools of one thread re-key, and the state
    they are set to; its words are Python ints, which the setter reads about
    four times faster than numpy scalars."""

    def __init__(self):
        self.gens = []
        self.state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
                      "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


_SLOTS = _Slots()


class _StreamPool:
    """The (replica, n) streams of one (salt, seed), on the thread's slots.

    Each slot's Philox is re-keyed through its ``state`` setter, which skips
    the SeedSequence entropy read that dominates building a fresh one; the
    same write sets the block counter, so a stream can start at any multiple
    of 4 draws without drawing the ones before it.
    """

    def __init__(self, salt, seed):
        self._words = _seed_words(salt, seed)
        del _SLOTS.gens[_KEPT_SLOTS:]

    def streams(self, replicas, n, blocks=None) -> list:
        """Generators equal to ``_philox(salt, seed, r, n)`` for r in replicas,
        the i-th advanced by blocks[i] Philox blocks (4 draws each) when blocks
        is given; valid until the next ``streams`` call in this thread."""
        gens, state = _SLOTS.gens, _SLOTS.state
        while len(gens) < len(replicas):
            gens.append(np.random.Generator(np.random.Philox(0)))
        inner = state["state"]
        counter = inner["counter"]
        blocks = [0] * len(replicas) if blocks is None else blocks.tolist()
        high, low = _keys(self._words, replicas, n)
        for gen, a, b, block in zip(gens, high.tolist(), low.tolist(), blocks):
            inner["key"] = [a, b]
            counter[0] = block
            gen.bit_generator.state = state
        return gens[:len(replicas)]


class TrialStreams:
    """Per-(seed, replica) family of per-generation Philox generators."""

    def __init__(self, seed, replica=0):
        self.seed = int(seed) & _MASK64
        self.replica = _whole(replica, 0, "replica index", 2 ** 32)

    def generation(self, n) -> np.random.Generator:
        """The stream of generation n; the key holds n in 32 bits."""
        return _philox(_TRIAL_SALT, self.seed, self.replica, _whole(n, 0, "generation", 2 ** 32))


def _draw_indices(rng, cdf, sizes):
    """iid indices with P(i) = cdf[i] - cdf[i-1] (inverse cdf on uniforms):
    ``sizes`` of them from one shared generator, or, given a list of
    per-replica generators, sizes[r] from rng[r] for each r in turn."""
    if isinstance(rng, np.random.Generator):
        if sizes == 0:
            return np.empty(0, dtype=np.int64)
        u = rng.random(sizes)
    else:
        u = np.empty(int(sizes.sum()))
        pos = 0
        for r in sizes.nonzero()[0].tolist():
            k = int(sizes[r])
            rng[r].random(out=u[pos:pos + k])
            pos += k
    return _invert_cdf(cdf, u)


def _invert_cdf(cdf, u):
    """min(searchsorted(cdf, u, "right"), cdf.size - 1) for a nondecreasing cdf.

    A small table is inverted by counting the entries of cdf[:-1] that u
    reaches, which is the same index: one vector pass per entry beats a
    binary search per uniform there.
    """
    if cdf.size > _SCAN_CDF:
        ids = cdf.searchsorted(u, side="right")
        return np.minimum(ids, cdf.size - 1, out=ids)
    if cdf.size == 1:
        return np.zeros(u.size, dtype=np.intp)
    ids = (u >= cdf[0]).astype(np.intp)
    for c in cdf[1:-1].tolist():
        ids += u >= c
    return ids


def _ranges(starts, stops):
    """The concatenation of arange(starts[i], stops[i]) over i, in order."""
    lengths = stops - starts
    return np.arange(int(lengths.sum())) + (starts - lengths.cumsum() + lengths).repeat(lengths)


def _chunks(sizes, budget):
    """Split consecutive replicas into (lo, hi) runs of at most ``budget``
    draws; a replica above the budget gets a run of its own."""
    lo, held = 0, 0
    for i, k in enumerate(sizes.tolist()):
        if held + k > budget and i > lo:
            yield lo, i
            lo, held = i, 0
        held += k
    yield lo, len(sizes)


# ---------------------------------------------------------------------------
# sampler program
# ---------------------------------------------------------------------------

@dataclass(slots=True, eq=False)
class _ProductGroup:
    """Vertices ``cols`` (ascending) sharing one child-count cdf and one
    dispersal weight vector; row i of ``targets`` holds cols[i]'s targets."""

    cols: np.ndarray
    rho_cdf: np.ndarray
    rho_values: np.ndarray
    w_cdf: np.ndarray
    targets: np.ndarray


@dataclass(slots=True, eq=False)
class _AtomGroup:
    """One vertex, cols = [x], with its atom cdf, the sorted vertices its atoms
    reach (``targets``, 1 x U) and their child counts (``configs``, atoms x U)."""

    cols: np.ndarray
    cdf: np.ndarray
    targets: np.ndarray
    configs: np.ndarray


def _atom_configs(table, V):
    """x -> (the sorted vertices x's atoms reach, 1 x U; their child counts,
    atoms x U) for the atom-law vertices of a law table.  Entry e of atom a
    at vertex x lands in x's block at (a, slot of its column among x's)."""
    ptr, counts = table.atom_ptr, table.counts
    atoms = np.diff(ptr)                                            # per vertex
    atom_of = np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr))
    owner = np.repeat(np.arange(V), atoms)[atom_of]
    reached, at = np.unique(owner * V + counts.indices, return_inverse=True)
    width = np.bincount(reached // V, minlength=V)                  # U per vertex
    wstart = np.cumsum(width) - width
    cells = atoms * width
    cstart = np.cumsum(cells) - cells
    configs = np.zeros(int(cells.sum()), dtype=np.int64)
    cell = cstart[owner] + (atom_of - ptr[owner]) * width[owner] + at - wstart[owner]
    configs[cell] = counts.data
    reached %= V
    return lambda x: (reached[None, wstart[x]:wstart[x] + width[x]],
                      configs[cstart[x]:cstart[x] + cells[x]].reshape(atoms[x], width[x]))


def _sampler(model: BrwModel):
    """(groups in draw order, group index of each vertex, row of each vertex in
    its group's target table), cut from the law table's arrays once per model."""
    sampler = model._cache.get("sampler")
    if sampler is not None:
        return sampler
    table, V = law_table(model), model.size
    sizes = np.array([rows.size for _, _, rows in table.draw_groups])
    members = np.concatenate([rows for _, _, rows in table.draw_groups])  # vertices in draw order
    first = np.cumsum(sizes) - sizes
    position = np.argsort(members)                         # of each vertex in the draw order
    group_of = np.repeat(np.arange(sizes.size), sizes)[position]
    row_of = position - first[group_of]
    # product targets: the dispersal rows of all members, cut per group
    lo, hi = table.disp.indptr[members], table.disp.indptr[members + 1]
    flat_targets = table.disp.indices[_ranges(lo, hi)].astype(np.int64)
    cut = np.concatenate(([0], np.cumsum(hi - lo)))[np.append(first, V)]
    atom_block = _atom_configs(table, V) if table.counts.shape[0] else None
    rho_cdfs = [(np.cumsum(rho.probs), rho.values) for rho, _ in table.rho_groups]
    groups = []
    for g, (r, weights, cols) in enumerate(table.draw_groups):
        if r < 0:
            x = int(cols[0])
            cdf = np.cumsum(table.atom_probs[table.atom_ptr[x]:table.atom_ptr[x + 1]])
            groups.append(_AtomGroup(cols, cdf, *atom_block(x)))
        else:
            tgt = flat_targets[cut[g]:cut[g + 1]].reshape(cols.size, len(weights))
            groups.append(_ProductGroup(cols, *rho_cdfs[r], np.cumsum(weights), tgt))
    sampler = model._cache["sampler"] = (groups, group_of, row_of)
    return sampler


# ---------------------------------------------------------------------------
# the stepping kernel
# ---------------------------------------------------------------------------

def _atom_arrivals(block, reads, dest, rng, starts, group):
    """Flat destinations of one atom-law vertex's children, per row; the
    arguments are those of ``_product_arrivals``.  The vertex has one entry
    per replica, so each entry is its replica's run of draws."""
    A = group.cdf.size
    ids = _draw_indices(rng, group.cdf, int(block.sum()) if starts is None else block)
    if block.size > 1:
        ids += np.arange(0, block.size * A, A).repeat(block)
    first = block.cumsum() - block
    out = []
    for row in reads:
        atoms = np.bincount(ids if (row == block).all() else ids[_ranges(first, first + row)],
                            minlength=block.size * A).reshape(block.size, A)
        out.append(dest.ravel().repeat((atoms @ group.configs).ravel()))
    return out


def _product_arrivals(block, reads, dest, rng, starts, group):
    """Flat destinations (replica * V + vertex) of one product group's children,
    per row, or None when no child is born.

    The entries are the group's occupied (replica, vertex) blocks in draw
    order: block holds their sizes, reads (S, entries) each row's prefix of
    them and dest (entries, k) their flat target sites.  rng is the shared
    generator (starts None) or one generator per replica, rng[i] drawing for
    the run of entries from starts[i] on.  The children of a block's first j
    particles are one contiguous range of the flat child array, so a row
    that reads a prefix of some blocks gathers its children by ranges.
    """
    # ufunc methods: cumsum and all without the wrappers small trials pay for
    ends = np.add.accumulate(block)                        # one past each block's last particle
    shared = starts is None
    values = group.rho_values[_draw_indices(
        rng, group.rho_cdf, int(ends[-1]) if shared else np.add.reduceat(block, starts))]
    born = np.zeros(values.size + 1, dtype=np.int64)       # children of the first j particles
    np.add.accumulate(values, out=born[1:])
    cend = born[ends]                                      # children up to each block's end
    if cend[-1] == 0:
        return None
    cstart = born[ends - block]                            # children before each block
    whole = np.logical_and.reduce(reads == block, axis=1).tolist()  # rows reading whole blocks
    # each row's range ends, (S, entries); None when every row reads whole blocks
    stops = None if all(whole) else born[reads + (ends - block)]
    del born, values                               # particle-sized: freed before the child draws
    kids = cend - cstart
    k = dest.shape[1]
    flat = _draw_indices(rng, group.w_cdf,
                         int(cend[-1]) if shared else np.add.reduceat(kids, starts))
    if block.size > 1:
        flat += np.arange(0, block.size * k, k).repeat(kids)
    flat = dest.take(flat)
    if stops is None:
        return [flat] * len(whole)
    return [flat if w else flat[_ranges(cstart, stop)] for w, stop in zip(whole, stops)]


def _advance(counts, model, rng, keep_masks=None):
    """Advance an (R, S, V) count array one generation; R replicas, S coupled rows.

    rng is one generator shared by all replicas, or a list of R per-replica
    generators.  Replicas read disjoint draws; the rows of one replica share
    theirs.  One occupancy pass lays out the draw blocks: one per occupied
    (replica, vertex), sized by the maximum over that replica's rows, ordered
    by law group (groups by least vertex), then replica-major, then by vertex.
    Only the groups that hold particles are visited, and every array is sized
    by the occupied blocks or their particles, never by R·V.  Row s reads the
    first counts[r, s, v] draws of its block, so a smaller row sees a prefix
    of a larger one's particles, gathered by prefix ranges.  Each row's
    children, of every group, are counted by one bincount.  keep_masks[s]
    (None or a boolean vertex mask) kills row s's children sent outside the
    mask, realizing the restriction coupling.  Caps are NOT applied here;
    the uncapped arrivals are returned.
    """
    R, S, V = counts.shape
    if R == 1 and isinstance(rng, list):
        rng = rng[0]
    shared = isinstance(rng, np.random.Generator)
    groups, group_of, row_of = _sampler(model)
    sizes = counts[:, 0] if S == 1 else np.maximum.reduce(counts, axis=1)  # each site's block
    occ = (sizes > 0).ravel().nonzero()[0]                 # replica * V + vertex, replica-major
    vert = occ % V
    gid = group_of[vert]
    order = gid.argsort(kind="stable")                     # the draw order
    occ, vert, gid = occ[order], vert[order], gid[order]
    base = occ - vert                                      # replica * V
    bounds = gid.searchsorted(np.arange(len(groups) + 1))
    block = sizes.ravel()[occ]
    reads = block[None] if S == 1 else counts[occ // V, :, vert].T  # (S, entries)
    if not shared:             # each replica's entries in one group form a run of draws
        run = np.ones(occ.size, dtype=bool)
        run[1:] = (base[1:] != base[:-1]) | (gid[1:] != gid[:-1])
        run_at = run.nonzero()[0]
        run_rng = [rng[i] for i in (base[run_at] // V).tolist()]
        run_bounds = run_at.searchsorted(bounds)
    parts = [[] for _ in range(S)]                         # per row: flat child destinations
    for g in (bounds[1:] > bounds[:-1]).nonzero()[0].tolist():
        a, b = bounds[g], bounds[g + 1]
        group = groups[g]
        starts, grng = None, rng
        if not shared:
            i, j = run_bounds[g], run_bounds[g + 1]
            starts, grng = run_at[i:j] - a, run_rng[i:j]
        dest = group.targets[row_of[vert[a:b]]]            # (entries, k) flat target sites
        if R > 1:
            dest += base[a:b, None]
        arrive = _atom_arrivals if isinstance(group, _AtomGroup) else _product_arrivals
        for s, f in enumerate(arrive(block[a:b], reads[:, a:b], dest, grng, starts, group) or ()):
            parts[s].append(f)
    new = None if S == 1 else np.empty((R, S, V), dtype=np.int64)
    for s, row in enumerate(parts):
        flat = row[0] if len(row) == 1 else np.concatenate(row or [np.empty(0, np.intp)])
        arrivals = np.bincount(flat, minlength=R * V).reshape(R, V)
        if new is None:
            new = arrivals[:, None]
        else:
            new[:, s] = arrivals
        if keep_masks and keep_masks[s] is not None:
            new[:, s] *= keep_masks[s]
    return new


# ---------------------------------------------------------------------------
# states, couplings, single steps
# ---------------------------------------------------------------------------

@dataclass
class PopulationState:
    """Counts per vertex plus the generation index and the ever-born total."""

    counts: np.ndarray
    generation: int = 0
    total_born: int = 0

    @staticmethod
    def from_dict(model: BrwModel, occupancy) -> "PopulationState":
        c = np.zeros(model.size, dtype=np.int64)
        for v, k in occupancy.items():
            if v not in model.index:
                raise ModelError(f"start vertex {v!r} is not a vertex of the model")
            c[model.index[v]] = _whole(k, 0, f"occupation count at {v!r}", 2 ** 63)
        return PopulationState(c, 0, _start_total(c))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def copy(self) -> "PopulationState":
        return PopulationState(self.counts.copy(), self.generation, self.total_born)


@dataclass(frozen=True)
class RestrictionCoupling:
    """F_x(f) = f restricted to ``subset``: children sent outside are killed."""

    subset: frozenset

    def mask(self, model: BrwModel) -> np.ndarray:
        m = np.zeros(model.size, dtype=bool)
        for v in self.subset:
            m[model.index[v]] = True
        return m


def _caps(caps) -> list:
    """A nonempty cap list as floats (None read as math.inf), each at least 1."""
    caps = [math.inf if c is None else float(c) for c in caps]
    if not caps or not all(c >= 1 for c in caps):          # NaN fails too
        raise ModelError(f"need at least one cap, each at least 1, got {caps}")
    return caps


def _cap_label(cap):
    """A cap as CSV rows and printouts show it: ``inf`` or a whole number."""
    return "inf" if math.isinf(cap) else int(cap)


def _cap_limits(caps):
    """Caps from ``_caps`` as an int64 (S, 1) column, or None when none is finite."""
    if any(map(math.isfinite, caps)):
        return np.array([int(c) if math.isfinite(c) else _INT64_MAX for c in caps])[:, None]


def _step(states, caps, model, rng, keep_masks=None):
    """The (S, V) counts of coupled states one generation on, each clipped at its cap."""
    new = _advance(np.stack([s.counts for s in states])[None], model, rng, keep_masks)[0]
    limit = _cap_limits(caps)
    return new if limit is None else np.minimum(new, limit, out=new)


def step(state: PopulationState, model: BrwModel, rng) -> PopulationState:
    """One exact-law generation: each particle draws an offspring configuration."""
    return step_truncated(state, None, model, rng)


def step_truncated(state: PopulationState, m, model: BrwModel, rng) -> PopulationState:
    """As ``step`` then clip every site at m (applied after all arrivals)."""
    new = _step([state], _caps([m]), model, rng)[0]
    return PopulationState(new, state.generation + 1, state.total_born + int(new.sum()))


def step_coupled(pair, caps, model: BrwModel, rng, coupling=None):
    """Advance a dominating pair on shared draws; the order is asserted.

    pair = (upper, lower) with lower.counts <= upper.counts and caps = (m, k),
    k <= m.  coupling None makes the lower process read the identical draws;
    a RestrictionCoupling additionally kills its out-of-subset children.
    """
    upper, lower = pair
    m, k = _caps(caps)
    if k > m:
        raise ModelError("lower cap must not exceed the upper cap")
    if not np.all(lower.counts <= upper.counts):
        raise ModelError("coupled pair must start ordered (lower <= upper)")
    mask = coupling.mask(model) if isinstance(coupling, RestrictionCoupling) else None
    new = _step(pair, (m, k), model, rng, [None, mask])
    if np.any(new[1] > new[0]):
        raise RuntimeError("coupling domination violated")  # must never happen
    up = PopulationState(new[0], upper.generation + 1, upper.total_born + int(new[0].sum()))
    lo = PopulationState(new[1], lower.generation + 1, lower.total_born + int(new[1].sum()))
    return up, lo


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------

@dataclass
class TrialOutcome:
    alive: bool
    visits_to_target: int
    last_target_visit: int          # -1 when never visited after generation 0
    peak_population: int
    generations: int
    replica: int
    seed: int
    total_born: int
    status: str                     # "completed" | "extinct" | "overflow"
    cap: float = math.inf


def _whole(value, least, what, below=math.inf):
    """``value`` as an int when it is a whole number (numpy integers included)
    in [least, below)."""
    if not isinstance(value, numbers.Integral) or not least <= value < below:
        raise ModelError(f"{what} must be a whole number in [{least}, {below}), got {value!r}")
    return int(value)


def _start_total(counts) -> int:
    """The exact sum of start counts; it must fit the int64 run records."""
    total = sum(counts.tolist())
    if total >= 2 ** 63:
        raise ModelError(f"start counts must total below 2**63, got {total}")
    return total


def _check_run(model, eta0, horizon, replicas, vertex=None, role="target"):
    """The one validation point of the Monte Carlo runs; returns the start state."""
    _whole(replicas, 1, "replicas")
    _whole(horizon, 0, "horizon")
    if vertex is not None and vertex not in model.index:
        raise ModelError(f"{role} {vertex!r} is not a vertex of the model")
    if isinstance(eta0, dict):
        return PopulationState.from_dict(model, eta0)
    _start_total(eta0.counts)
    return eta0


def _trial_plan(model, caps, couplings):
    """(row masks, cap limits or None if none is finite, lower and upper rows
    of the domination pairs); the model keeps the last plan for the next run."""
    key = (tuple(caps), tuple(c if isinstance(c, RestrictionCoupling) else None
                              for c in couplings))
    held = model._cache.get("trial_plan")
    if held is not None and held[0] == key:
        return held[1]
    masks = [c.mask(model) if c is not None else None for c in key[1]]
    limit = _cap_limits(caps)
    # row a <= row b under shared draws: a smaller cap and the same or a restricting mask
    pairs = [(a, b) for a in range(len(caps)) for b in range(len(caps)) if a != b
             and caps[a] <= caps[b] and (masks[a] is masks[b] or masks[b] is None)]
    lower, upper = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    model._cache["trial_plan"] = key, (masks, limit, lower, upper)
    return masks, limit, lower, upper


_STATUS_NAMES = ("completed", "extinct", "overflow")
_BORN, _PEAK, _GENS, _VISITS, _LAST, _STATUS = range(6)   # slots of a trial's outcome record


def run_trial_batch(model: BrwModel, caps, eta0, horizon, replicas, target=None, seed=0,
                    hard_cap=DEFAULT_HARD_CAP, couplings=None):
    """Run ``run_coupled_trials`` for every replica index in ``replicas``.

    Returns one list of TrialOutcome (one per cap) per replica.  All live
    replicas advance together, each drawing from its own
    TrialStreams(seed, replica).generation(n) key, so the outcomes equal the
    one-at-a-time runs bit for bit.  The live replicas are re-chunked every
    generation so one kernel call holds at most _DRAW_BUDGET particles; a
    replica above that runs alone.
    """
    caps = _caps(caps)
    couplings = list(couplings) if couplings is not None else [None] * len(caps)
    if len(couplings) != len(caps):
        raise ModelError("one coupling entry per cap required")
    # a stream key holds each index in 32 bits: 2**32 would reuse replica 0's stream
    replicas = [_whole(r, 0, "replica index", 2 ** 32) for r in replicas]
    eta = _check_run(model, eta0, horizon, len(replicas), target)
    t_idx = model.index[target] if target is not None else None
    masks, limit, lower, upper = _trial_plan(model, caps, couplings)
    start = np.stack([eta.counts if mask is None else eta.counts * mask for mask in masks])
    if limit is not None:
        np.minimum(start, limit, out=start)
    R = len(replicas)
    replica_ids = np.array(replicas, dtype=np.uint64)              # for the stream keys
    rec = np.zeros((R, 6, len(caps)), dtype=np.int64)              # batch rows' outcome records
    rec[:, _BORN] = rec[:, _PEAK] = start.sum(axis=1)
    rec[:, _LAST] = -1
    live = rec[:, _BORN] > 0                                       # (R, S) rows still stepped
    rec[:, _STATUS] = np.where(live, 0, 1)                         # index into _STATUS_NAMES
    out = np.empty_like(rec)                                       # records of finished replicas
    idx = np.arange(R)                                             # batch row -> replica position
    counts = np.repeat(start[None], R, axis=0)
    pool = _StreamPool(_TRIAL_SALT, seed)
    changed = True                                 # some row ended in the last generation
    for gen in range(1, horizon + 1):
        if changed:
            keep = live.any(axis=1)
            if not keep.all():
                out[idx[~keep]] = rec[~keep]
                idx, rec, live, counts = idx[keep], rec[keep], live[keep], counts[keep]
                if idx.size == 0:
                    break
            rows = live.any(axis=0)                # coupled rows some replica still steps
            row_masks = [mask for mask, on in zip(masks, rows.tolist()) if on]
            # a row that ended holds zeros and cannot exceed its upper row,
            # so only the upper row's end has to be masked out
            upper_live = live[:, upper]
        stepped = counts if len(row_masks) == len(masks) else counts[:, rows]
        new = np.empty_like(stepped)
        spans = ([(0, 1)] if idx.size == 1
                 else _chunks(stepped.max(axis=1).sum(axis=1), _DRAW_BUDGET))
        for lo, hi in spans:
            rngs = pool.streams(replica_ids[idx[lo:hi]], gen)
            new[lo:hi] = _advance(stepped[lo:hi], model, rngs, row_masks)
        if stepped is not counts:
            new, arrivals = np.zeros_like(counts), new
            new[:, rows] = arrivals
        if limit is not None:
            np.minimum(new, limit, out=new)
        if lower.size and ((new[:, lower] > new[:, upper]).any(axis=2) & upper_live).any():
            raise RuntimeError("coupling domination violated")  # must never happen
        total = new.sum(axis=2)                                    # 0 on rows not stepped
        rec[:, _BORN] += total
        np.maximum(rec[:, _PEAK], total, out=rec[:, _PEAK])
        if t_idx is not None:
            hit = new[:, :, t_idx] > 0
            rec[:, _VISITS] += hit
            rec[:, _LAST][hit] = gen
        ended = live & ((total == 0) | (total > hard_cap))
        changed = ended.any()
        if changed:
            rec[:, _GENS][ended] = gen
            rec[:, _STATUS][ended] = np.where(total[ended] > 0, 2, 1)  # overflow or extinct
            live &= ~ended
            new[ended] = 0                                         # an overflow row is dropped
        counts = new
    rec[:, _GENS][live] = horizon
    out[idx] = rec
    fields = out.transpose(1, 0, 2).tolist()
    return [[TrialOutcome(st != 1, v, lv, p, g, replica, seed, b, _STATUS_NAMES[st], cap)
             for b, p, g, v, lv, st, cap in zip(*record, caps)]
            for replica, *record in zip(replicas, *fields)]


def run_coupled_trials(model: BrwModel, caps, eta0, horizon, target=None, seed=0,
                       replica=0, hard_cap=DEFAULT_HARD_CAP, couplings=None):
    """Run one trial of every cap in ``caps`` jointly on shared draws.

    caps are numbers, math.inf or None; couplings, when given, is a per-cap list
    of None / RestrictionCoupling.  Returns one TrialOutcome per cap.  Every
    pair whose order is guaranteed (same coupling with smaller cap, or a
    restriction against its unrestricted partner) is asserted each step.
    A state passing hard_cap is recorded (alive, "overflow") and dropped;
    the remaining states keep sharing draws.
    """
    return run_trial_batch(model, caps, eta0, horizon, [replica], target, seed, hard_cap,
                           couplings)[0]


def run_survival_trial(model: BrwModel, eta0, horizon, target=None, cap=math.inf,
                       seed=0, replica=0, hard_cap=DEFAULT_HARD_CAP) -> TrialOutcome:
    """Simulate one trial to the horizon or extinction; fully reproducible."""
    return run_coupled_trials(model, [cap], eta0, horizon, target, seed, replica, hard_cap)[0]


@dataclass
class SurvivalEstimate:
    frequency: float
    ci_low: float
    ci_high: float
    replicas: int
    horizon: int
    cap: float
    seed: int
    outcomes: list = field(repr=False, default_factory=list)
    overflow_count: int = 0

    def per_replica_rows(self):
        header = ("replica", "seed", "alive", "last_target_visit",
                  "peak_population", "total_born", "status")
        rows = [(o.replica, o.seed, int(o.alive), o.last_target_visit,
                 o.peak_population, o.total_born, o.status) for o in self.outcomes]
        return header, rows


def estimate_survival(model: BrwModel, eta0, horizon, replicas, target=None,
                      cap=math.inf, seed=0, hard_cap=DEFAULT_HARD_CAP) -> SurvivalEstimate:
    """Survival frequency at the horizon across independent replica streams.

    Aborted (overflow) trials count as alive, which is conservative for
    survival and reported via overflow_count.  Results depend only on the
    inputs, never on execution order, so replicas may run anywhere.
    """
    outcomes = [outs[0] for outs in run_trial_batch(
        model, [cap], eta0, horizon, range(_whole(replicas, 1, "replicas")), target, seed,
        hard_cap)]
    alive = sum(o.alive for o in outcomes)
    lo, hi = wilson_interval(alive, replicas)
    return SurvivalEstimate(alive / replicas, lo, hi, replicas, horizon, outcomes[0].cap, seed,
                            outcomes, sum(o.status == "overflow" for o in outcomes))


# ---------------------------------------------------------------------------
# replica-batched mean curves
# ---------------------------------------------------------------------------

def mean_curve(model: BrwModel, eta0, horizon, replicas, seed=0, track=None):
    """Empirical mean occupation per generation over many replicas at once.

    All replicas advance together, one stream per generation keyed by the
    seed alone; this is orders of magnitude faster than per-replica trials
    and is the intended tool for mean-propagation checks.  Returns
    (means, samples): means has shape (horizon+1, V); samples, when a track
    vertex is given, holds per-replica counts there, (replicas, horizon+1).
    """
    eta = _check_run(model, eta0, horizon, replicas, vertex=track, role="track")
    R, V = int(replicas), model.size
    counts = np.zeros((R, V), dtype=np.int64)
    counts[:] = eta.counts
    t_idx = model.index[track] if track is not None else None
    means = np.zeros((horizon + 1, V))
    means[0] = counts.sum(axis=0) / R     # integer sums below 2**53: equal to counts.mean
    samples = np.zeros((R, horizon + 1), dtype=np.int64) if t_idx is not None else None
    if samples is not None:
        samples[:, 0] = counts[:, t_idx]
    for gen in range(1, horizon + 1):
        counts = _advance(counts[:, None, :], model, _philox(_BATCH_SALT, seed, 0, gen))[:, 0]
        means[gen] = counts.sum(axis=0) / R
        if samples is not None:
            samples[:, gen] = counts[:, t_idx]
    return means, samples
