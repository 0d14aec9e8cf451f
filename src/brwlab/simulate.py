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
order, only the law groups that hold particles are visited, each group's
draws are read in chunks of at most _DRAW_BUDGET at fixed positions of its
stream, every temporary is sized by the occupied sites or the budget, and
each row's arrivals are summed from its per-(site, target) child counts by
one scatter-add.  A group's draws become per-site counts in one of two ways,
which give the same integers: a call of at least _SEGMENT_FLOOR draws with
at least _SEGMENT_RATIO draws per boundary point (site starts and ends, each
row's prefix ends) and a cdf of at most _SCAN_CDF entries sums, for each
interior cdf entry, the uniforms that reach it between consecutive boundary
points; any other call inverts each draw and counts the indices.  A trial
batch steps all its live replicas together, each replica drawing from its
own (seed, replica, generation) stream, so a batch is bit-identical to
running its replicas one at a time; the replica-batched mean curves share
one stream per generation with S = 1.

Per-site caps are applied after summing arrivals from all parents, so a
step does not depend on any parent ordering.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .core import BrwModel, ModelError, _index_of, _real, _whole, law_table

_MASK32 = 0xFFFFFFFF
_TRIAL_SALT = 0x9E3779B97F4A7C15
_BATCH_SALT = 0xC2B2AE3D27D4EB4F
_INT64_MAX = 2 ** 63 - 1
_U32, _U63 = np.uint64(32), np.uint64(63)

# Draws _advance holds at once: it reads each law group's draws in chunks of
# at most this many, so its temporaries are sized by the occupied sites or
# the budget (a percolation level block holds as many uniforms); chosen by
# measurement.
_DRAW_BUDGET = 1 << 16

# Draws a trial batch hands one kernel call, which bounds the call's occupied
# sites and per-replica generators; a replica above it runs alone.
_BATCH_DRAWS = _DRAW_BUDGET

# Cdfs of at most this many entries are inverted by a comparison scan, larger
# ones by binary search; chosen by measurement.
_SCAN_CDF = 8

# A group call with at least _SEGMENT_FLOOR draws, at least _SEGMENT_RATIO
# draws per boundary point (entry starts and ends, prefix ends) and a cdf of
# at most _SCAN_CDF entries counts its draws by segment sums between those
# points; any other inverts each draw.  Both give the same integers; the
# segment sums win on large sites, per-draw indices on small sites and small
# calls.  Chosen by measurement.
_SEGMENT_FLOOR = 1 << 15
_SEGMENT_RATIO = 32

# Cells one dense Monte Carlo array may hold (1 GiB of int64): replicas x rows
# x vertices of a state, replicas x (horizon + 1) tracked samples.
_MAX_CELLS = 2 ** 27

DEFAULT_HARD_CAP = 10 ** 8
_Z95 = 1.959963984540054                    # the two-sided 95% normal quantile


def wilson_interval(successes, n):
    """95% Wilson score interval for a binomial frequency: ``successes`` out
    of ``n`` trials, whole numbers with 0 <= successes <= n."""
    n = _whole(n, 0, "n")
    successes = _whole(successes, 0, "successes", below=n + 1)
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
    words = np.full(2, int(seed) ^ salt, dtype=np.uint64)
    words[1:] = words[1:].astype(np.float64).astype(np.uint64)
    return words


def _keys(words, replicas, n):
    """The two uint64 Philox key words of each replica, as two arrays: seed ^
    salt (``words`` from ``_seed_words``), then replica:n packed in 32+32 bits.

    They are the keys np.random.Philox(key=[a, b]) derives from a list: numpy
    holds an int64-range word and a word above 2**63 together only as
    float64, so such a pair is rounded through float64 (ROADMAP item 2).
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
        self.seed = _seed(seed)
        self.replica = _whole(replica, 0, "replica index", 2 ** 32)

    def generation(self, n) -> np.random.Generator:
        """The stream of generation n; the key holds n in 32 bits."""
        return _philox(_TRIAL_SALT, self.seed, self.replica, _whole(n, 0, "generation", 2 ** 32))


def _uniforms(rng, stops, lo, hi):
    """The uniforms at positions lo..hi-1 of a group's draw stream: from one
    shared generator (stops None), or from one generator per run, rng[i]
    holding the positions from stops[i-1] (0 for i = 0) up to stops[i].  A
    run read in pieces draws what it draws in one piece, so chunks may cut
    runs anywhere."""
    if stops is None:
        return rng.random(hi - lo)
    u = np.empty(hi - lo)
    i, pos = bisect.bisect_right(stops, lo), lo
    while pos < hi:
        stop = min(stops[i], hi)
        rng[i].random(out=u[pos - lo:stop - lo])
        i, pos = i + 1, stop
    return u


def _draw_indices(rng, cdf, stops, lo, hi):
    """iid indices with P(i) = cdf[i] - cdf[i-1] (inverse cdf on the uniforms
    ``_uniforms`` reads) at positions lo..hi-1 of a group's draw stream."""
    return _invert_cdf(cdf, _uniforms(rng, stops, lo, hi))


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
    held = np.concatenate(([0], np.add.accumulate(sizes)))     # draws before each replica
    lo, n = 0, sizes.size
    while True:
        hi = min(n, max(lo + 1, int(held.searchsorted(held[lo] + budget, "right")) - 1))
        yield lo, hi
        if hi >= n:
            return
        lo = hi


def _edges(total):
    """The fixed chunk edges of a stream of ``total`` > 0 draws: the multiples
    of _DRAW_BUDGET below it, then total."""
    return np.append(np.arange(0, total, _DRAW_BUDGET), total)


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
    atom_of = counts.rows
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

def _segmented(cdf, total, entries, cols):
    """Whether a group call of ``total`` draws over ``entries`` entries with
    ``cols`` boundary points each counts its draws by segment sums
    (``_seen``) rather than by per-draw indices."""
    return (cdf.size <= _SCAN_CDF and total >= _SEGMENT_FLOOR
            and total >= _SEGMENT_RATIO * entries * cols)


def _boundaries(cols):
    """(the distinct stream positions the columns hold, increasing; each
    column's index into them, as rows).  cols are arrays over a group's
    entries: the first holds each entry's start, the last its end (the next
    entry's start), the others positions between the two, so sorting each
    entry's few values orders all of them."""
    q = np.stack(cols, axis=1)
    order = q.argsort(axis=1)
    flat = np.take_along_axis(q, order, axis=1).ravel()
    new = np.empty(flat.size, dtype=bool)
    new[0] = True
    np.not_equal(flat[1:], flat[:-1], out=new[1:])
    rank = (np.add.accumulate(new) - 1).reshape(q.shape)
    at = np.empty_like(rank)
    np.put_along_axis(at, order, rank, axis=1)
    return flat[new], at.T


def _seen(rng, stops, cdf, points):
    """(points.size, cdf.size) int64: row i counts each outcome of cdf among
    the draws before points[i] of a group's stream, read as ``_draw_indices``
    reads it; points increase strictly from 0 to the stream's length.

    A draw's index exceeds j exactly when its uniform reaches cdf[j], so per
    chunk of at most _DRAW_BUDGET each interior entry's indicator is summed
    between consecutive points by one segment sum, and running sums of those
    give the draws before each point whose index exceeds j; outcome j is the
    difference of the sums for j - 1 and j.
    """
    total, k = int(points[-1]), cdf.size
    above = np.zeros((k + 1, points.size), dtype=np.int64)  # row j: index > j - 1
    above[0] = points
    edges = _edges(total)
    upto = points.searchsorted(edges, "right")     # chunk c holds points upto[c]..upto[c+1]-1
    below = points.searchsorted(edges[1:], "left")  # of which those below its end
    carry = np.zeros((k - 1, 1), dtype=np.int64)
    inner = cdf[:-1, None]
    for lo, hi, a, m, b in zip(edges[:-1].tolist(), edges[1:].tolist(), upto[:-1].tolist(),
                               below.tolist(), upto[1:].tolist()):
        u = _uniforms(rng, stops, lo, hi)      # read even when k == 1: the stream moves on
        if k == 1:
            continue
        starts = np.concatenate(([0], points[a:m] - lo))   # strictly increasing: no empty segment
        # a chunk's sums fit int32 (_DRAW_BUDGET < 2**31), which halves the reduceat's work
        sums = np.add.reduceat((u >= inner).view(np.uint8), starts, axis=1, dtype=np.int32)
        sums = np.add.accumulate(sums, axis=1, out=sums) + carry
        above[1:k, a:b] = sums[:, :b - a]
        carry = sums[:, -1:]
    return (above[:-1] - above[1:]).T


def _born_at(rng, stops, group, firsts, ends, prefix):
    """born[q], the children of the first q particles of a product group's
    stream, as a list: at each entry's start (firsts) and end (ends), then,
    when ``prefix`` (rows x entries) is given, at each row's prefix end.

    A large call with few boundary points per draw sums the children by
    segments (``_seen``); any other reads the child totals in chunks of at
    most _DRAW_BUDGET at fixed positions and sums them with a carry.  Either
    way only the boundary points and one chunk are held."""
    total = int(ends[-1])
    parts = () if prefix is None else prefix
    if _segmented(group.rho_cdf, total, ends.size, 2 + len(parts)):
        points, at = _boundaries([firsts, *parts, ends])
        born = (_seen(rng, stops, group.rho_cdf, points) @ group.rho_values)[at]
        return [born[0], born[-1]] + ([] if prefix is None else [born[1:-1]])
    queries = [firsts, ends] if prefix is None else [firsts, ends, prefix]
    if total <= _DRAW_BUDGET:
        born = np.zeros(total + 1, dtype=np.int64)
        np.add.accumulate(group.rho_values[_draw_indices(rng, group.rho_cdf, stops, 0, total)],
                          out=born[1:])
        return [born[q] for q in queries]
    out = [np.zeros_like(q) for q in queries]
    edges = _edges(total)
    rows = [(q, o, q.searchsorted(edges, "right").tolist())   # chunk c: q in (edges[c], edges[c+1]]
            for qs, os in zip(queries, out) for q, o in zip(np.atleast_2d(qs), np.atleast_2d(os))]
    carry = 0
    for c, (lo, hi) in enumerate(zip(edges[:-1].tolist(), edges[1:].tolist())):
        born = np.add.accumulate(group.rho_values[_draw_indices(rng, group.rho_cdf, stops, lo, hi)])
        for q, o, cut in rows:
            i, j = cut[c], cut[c + 1]
            o[i:j] = born[q[i:j] - (lo + 1)] + carry
        carry += int(born[-1])
    return out


def _tally(rng, stops, cdf, firsts, ends, whole, prefix):
    """Each row's counts of the outcomes of cdf per (entry, outcome), entries *
    cdf.size flat, over a group's stream of draws read as ``_draw_indices``
    reads it.  Entry i holds positions firsts[i]..ends[i]-1 (consecutive);
    row s reads all of them when whole[s], else those below prefix[s, i].

    A large call with few boundary points per draw takes each count as a
    difference of two rows of ``_seen``.  Any other reads the stream in
    chunks of at most _DRAW_BUDGET at fixed positions; a chunk cuts an entry
    where it falls, and each chunk's counts are added into the entries it
    covers."""
    n, k = ends.size, cdf.size
    total = int(ends[-1])
    if _segmented(cdf, total, n, 2 + whole.count(False)):
        parts = [] if prefix is None else [p for w, p in zip(whole, prefix) if not w]
        points, at = _boundaries([firsts, *parts, ends])
        seen = _seen(rng, stops, cdf, points)
        start = seen[at[0]]
        full = (seen[at[-1]] - start).ravel() if any(whole) else None
        prefix_at = iter(at[1:-1])                    # the prefix rows, in order
        return [full if w else (seen[next(prefix_at)] - start).ravel() for w in whole]
    if total <= _DRAW_BUDGET:
        ids = _draw_indices(rng, cdf, stops, 0, total)
        if n > 1:
            ids += np.arange(0, n * k, k).repeat(ends - firsts)
        full = np.bincount(ids, minlength=n * k) if any(whole) else None
        if prefix is None:
            return [full] * len(whole)
        return [full if w else np.bincount(ids[_ranges(firsts, stop)], minlength=n * k)
                for w, stop in zip(whole, prefix)]
    full = np.zeros(n * k, dtype=np.int64) if any(whole) else None
    out = [full if w else np.zeros(n * k, dtype=np.int64) for w in whole]
    edges = _edges(total)
    e0s = ends.searchsorted(edges[:-1], "right").tolist()     # first entry each chunk covers
    e1s = firsts.searchsorted(edges[1:], "left").tolist()     # one past its last
    for lo, hi, e0, e1 in zip(edges[:-1].tolist(), edges[1:].tolist(), e0s, e1s):
        a = np.maximum(firsts[e0:e1], lo)
        b = np.minimum(ends[e0:e1], hi)
        ids = _draw_indices(rng, cdf, stops, lo, hi)
        ids += np.arange(0, (e1 - e0) * k, k).repeat(b - a)
        if full is not None:
            full[e0 * k:e1 * k] += np.bincount(ids, minlength=(e1 - e0) * k)
        for w, o, stop in zip(whole, out, () if prefix is None else prefix):
            if not w:
                o[e0 * k:e1 * k] += np.bincount(
                    ids[_ranges(a - lo, np.clip(stop[e0:e1], a, b) - lo)], minlength=(e1 - e0) * k)
    return out


def _product_arrivals(block, reads, rng, lasts, group):
    """Each row's child counts of one product group per (entry, dispersal
    slot), entries * k flat, or None when no child is born.

    The entries are the group's occupied (replica, vertex) blocks in draw
    order: block holds their sizes and reads (S, entries) each row's prefix
    of them.  rng is the shared generator (lasts None) or one generator per
    replica, rng[i] drawing for the run of entries that ends at entry
    lasts[i].  Pass 1 reads the child totals and keeps only the children
    born before each block's start and end and each row's prefix end.  The
    children of a block's first j particles are one contiguous range of the
    group's children, so pass 2 reads the dispersal slots and counts, for a
    row that reads a prefix of some blocks, the ranges it reads.
    """
    # ufunc methods: cumsum and all without the wrappers small trials pay for
    ends = np.add.accumulate(block)                        # one past each block's last particle
    firsts = ends - block
    whole = np.logical_and.reduce(reads == block, axis=1).tolist()  # rows reading whole blocks
    born = _born_at(rng, None if lasts is None else ends[lasts].tolist(), group, firsts, ends,
                    None if all(whole) else reads + firsts)
    if born[1][-1] == 0:
        return None
    return _tally(rng, None if lasts is None else born[1][lasts].tolist(), group.w_cdf, born[0],
                  born[1], whole, born[2] if len(born) > 2 else None)


def _atom_arrivals(block, reads, rng, lasts, group):
    """Each row's child counts of one atom-law vertex per (entry, vertex its
    atoms reach), entries * U flat; the arguments are those of
    ``_product_arrivals``.  The vertex has one entry per replica, so each
    entry is its replica's run of draws; a row's atom counts times the
    atoms' configurations are its child counts."""
    ends = np.add.accumulate(block)
    firsts = ends - block
    whole = np.logical_and.reduce(reads == block, axis=1).tolist()
    atoms = _tally(rng, None if lasts is None else ends.tolist(), group.cdf, firsts, ends, whole,
                   None if all(whole) else reads + firsts)
    return [(c.reshape(ends.size, group.cdf.size) @ group.configs).ravel() for c in atoms]


def _advance(counts, model, rng, keep_masks=None):
    """Advance an (R, S, V) count array one generation; R replicas, S coupled rows.

    rng is one generator shared by all replicas, or a list of R per-replica
    generators.  Replicas read disjoint draws; the rows of one replica share
    theirs.  One occupancy pass lays out the draw blocks: one per occupied
    (replica, vertex), sized by the maximum over that replica's rows, ordered
    by law group (groups by least vertex), then replica-major, then by vertex.
    Only the groups that hold particles are visited, and each group's draws
    are read in chunks of at most _DRAW_BUDGET, so besides the (R, V)
    occupancy and the output every array is sized by the occupied blocks or
    the budget, never by the particles.  Row s
    reads the first counts[r, s, v] draws of its block, so a smaller row sees
    a prefix of a larger one's particles.  Each group gives each row's child
    counts per (block, target site), and each row's arrivals are one int64
    scatter-add of all of them.  keep_masks[s] (None or a boolean vertex mask)
    kills row s's children sent outside the mask, realizing the restriction
    coupling.  Caps are NOT applied here; the uncapped arrivals are returned.
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
    if len(groups) > 1:
        order = gid.argsort(kind="stable")                 # the draw order
        occ, vert, gid = occ[order], vert[order], gid[order]
    base = occ - vert                                      # replica * V
    bounds = gid.searchsorted(np.arange(len(groups) + 1))
    block = sizes.ravel()[occ]
    reads = block[None] if S == 1 else counts[occ // V, :, vert].T  # (S, entries)
    if not shared:             # each replica's entries in one group form a run of draws
        run = np.ones(occ.size + 1, dtype=bool)            # the runs' starts, then the end
        run[1:-1] = (base[1:] != base[:-1]) | (gid[1:] != gid[:-1])
        run_at = run.nonzero()[0]
        run_last = run_at[1:] - 1                          # each run's last entry
        run_at = run_at[:-1]
        run_rng = [rng[i] for i in (base[run_at] // V).tolist()]
        run_bounds = run_at.searchsorted(bounds)
    dests, weights = [], [[] for _ in range(S)]            # per group: target sites, row counts
    for g in (bounds[1:] > bounds[:-1]).nonzero()[0].tolist():
        a, b = bounds[g], bounds[g + 1]
        group = groups[g]
        lasts, grng = None, rng
        if not shared:
            i, j = run_bounds[g], run_bounds[g + 1]
            lasts, grng = run_last[i:j] - a, run_rng[i:j]
        arrive = _atom_arrivals if isinstance(group, _AtomGroup) else _product_arrivals
        kids = arrive(block[a:b], reads[:, a:b], grng, lasts, group)
        if kids is None:
            continue
        dest = group.targets[row_of[vert[a:b]]]            # (entries, k) flat target sites
        if R > 1:
            dest += base[a:b, None]
        dests.append(dest.ravel())
        for row, w in zip(weights, kids):
            row.append(w)
    new = np.zeros((S, R, V), dtype=np.int64)
    if dests:
        dest = dests[0] if len(dests) == 1 else np.concatenate(dests)
        for row, w in zip(new.reshape(S, R * V), weights):
            # exact in int64; a weighted bincount would round-trip through float64
            np.add.at(row, dest, w[0] if len(w) == 1 else np.concatenate(w))
    if keep_masks:
        for row, mask in zip(new, keep_masks):
            if mask is not None:
                row *= mask
    return new.transpose(1, 0, 2)


# ---------------------------------------------------------------------------
# couplings and caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictionCoupling:
    """F_x(f) = f restricted to ``subset``: children sent outside are killed."""

    subset: frozenset

    def mask(self, model: BrwModel) -> np.ndarray:
        m = np.zeros(model.size, dtype=bool)
        for v in self.subset:
            m[_index_of(model.index, v, "restriction vertex")] = True
        return m


def _caps(caps) -> list:
    """A nonempty cap list as floats: each cap None or math.inf (no cap), or a whole
    number of at least 1 that fits a float (1e19 is one; 2.5, NaN and True are not)."""
    try:
        out = [math.inf if c is None or c == math.inf else _real(c, 1, "each cap") for c in caps]
    except (ModelError, TypeError, OverflowError):      # 10**400 does not fit a float
        out = []
    if not out or not all(c == math.inf or c.is_integer() for c in out):
        raise ModelError("caps must be a nonempty list of None, inf or whole numbers of at "
                         f"least 1 that fit a float, got {caps!r}")
    return out


def _cap_label(cap):
    """A cap as CSV rows and printouts show it: ``inf`` or a whole number."""
    return "inf" if math.isinf(cap) else int(cap)


def _cap_limits(caps):
    """Caps from ``_caps`` as an int64 (S, 1) column, or None when none is finite;
    a cap at or above the int64 maximum clips nothing, like math.inf."""
    if any(map(math.isfinite, caps)):
        return np.array([int(min(c, _INT64_MAX)) for c in caps])[:, None]


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


def _seed(seed) -> int:
    """A run's seed: a whole number in [0, 2**64), the width of its key word."""
    return _whole(seed, 0, "seed", 2 ** 64)


def _check_cells(what, cells):
    """Refuse a dense array of more than _MAX_CELLS cells before it is made."""
    if cells > _MAX_CELLS:
        raise ModelError(f"{what} would hold {cells} cells, more than 2**27: use fewer "
                         "replicas, rows or generations")


def _check_run(model, eta0, horizon, replicas, seed, vertex=None, role="target", hard_cap=None,
               rows=1):
    """The one validation point of the Monte Carlo runs; returns the start
    counts per vertex of ``eta0``, a dict vertex -> count."""
    _whole(replicas, 1, "replicas")
    _whole(horizon, 0, "horizon")
    _seed(seed)
    _check_cells("the replicas x rows x vertices state", replicas * rows * model.size)
    if hard_cap is not None:
        _whole(hard_cap, 1, "hard_cap")
    if vertex is not None:
        _index_of(model.index, vertex, role)
    if not isinstance(eta0, dict):
        raise ModelError(f"the start must be a dict vertex -> count, got {type(eta0).__name__}")
    counts = np.zeros(model.size, dtype=np.int64)
    for v, k in eta0.items():
        counts[_index_of(model.index, v, "start vertex")] = _whole(
            k, 0, f"occupation count at {v!r}", 2 ** 63)
    total = sum(counts.tolist())                    # exact: it must fit the int64 run records
    if total >= 2 ** 63:
        raise ModelError(f"start counts must total below 2**63, got {total}")
    return counts


def _trial_plan(model, caps, couplings):
    """(row masks, cap limits or None if none is finite, lower and upper rows
    of the domination pairs); the model keeps the last plan for the next run."""
    key = (tuple(caps), tuple(couplings))
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
    generation so one kernel call holds at most _BATCH_DRAWS particles; a
    replica above that runs alone.  ``replicas`` is a sequence, and the
    replicas x caps x vertices state must fit _MAX_CELLS.
    """
    caps = _caps(caps)
    couplings = list(couplings) if couplings is not None else [None] * len(caps)
    if len(couplings) != len(caps):
        raise ModelError("one coupling entry per cap required")
    if not all(c is None or isinstance(c, RestrictionCoupling) for c in couplings):
        raise ModelError("each coupling entry must be None or a RestrictionCoupling")
    eta = _check_run(model, eta0, horizon, len(replicas), seed, target, hard_cap=hard_cap,
                     rows=len(caps))
    # a stream key holds each index in 32 bits: 2**32 would reuse replica 0's stream
    replicas = [_whole(r, 0, "replica index", 2 ** 32) for r in replicas]
    t_idx = model.index[target] if target is not None else None
    masks, limit, lower, upper = _trial_plan(model, caps, couplings)
    start = np.stack([eta if mask is None else eta * mask for mask in masks])
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
                 else _chunks(stepped.max(axis=1).sum(axis=1), _BATCH_DRAWS))
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


def estimate_survival(model: BrwModel, eta0, horizon, replicas, target=None,
                      cap=math.inf, seed=0, hard_cap=DEFAULT_HARD_CAP) -> SurvivalEstimate:
    """Survival frequency at the horizon across independent replica streams.

    Aborted (overflow) trials count as alive, which is conservative for
    survival and reported via overflow_count.  Results depend only on the
    inputs, never on execution order, so replicas may run anywhere.
    """
    outcomes = [outs[0] for outs in run_trial_batch(
        model, [cap], eta0, horizon, range(_whole(replicas, 1, "replicas", _MAX_CELLS + 1)),
        target, seed, hard_cap)]
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
    eta = _check_run(model, eta0, horizon, replicas, seed, vertex=track, role="track")
    R, V = int(replicas), model.size
    _check_cells("the generations x vertices means", (horizon + 1) * V)
    if track is not None:
        _check_cells("the replicas x generations samples", R * (horizon + 1))
    counts = np.zeros((R, V), dtype=np.int64)
    counts[:] = eta
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
