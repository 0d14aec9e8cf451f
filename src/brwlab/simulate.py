"""Exact-law Monte Carlo for branching random walks and their truncations.

Randomness contract: every draw comes from a counter-based Philox stream
keyed by (seed, replica, generation), consumed in a canonical order (law
groups by least vertex, then batched replicas, vertices by index, particles
by rank).  Replicas are therefore reproducible independently of scheduling,
and processes that share a stream share their per-particle offspring draws:
a capped or restricted state reads a prefix of the same draw blocks, which
makes monotone couplings exact rather than statistical.

One kernel draws all offspring.  It advances an (R, S, V) count array:
R independent replicas, each with S coupled rows over V vertices.  Single
steps, coupled pairs and coupled trials use R = 1; the replica-batched
mean curves use S = 1.

Per-site caps are applied after summing arrivals from all parents, so a
step does not depend on any parent ordering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import BrwModel, ModelError

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_TRIAL_SALT = 0x9E3779B97F4A7C15
_BATCH_SALT = 0xC2B2AE3D27D4EB4F

DEFAULT_HARD_CAP = 10 ** 8


def wilson_interval(successes, n, z=1.959963984540054):
    """95% Wilson score interval for a binomial frequency."""
    if n == 0:
        return (0.0, 1.0)
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == n else min(1.0, center + half)
    return (lo, hi)


def _philox(salt, seed, replica, n) -> np.random.Generator:
    """Philox generator keyed by (seed ^ salt, replica:n packed in 32+32 bits)."""
    key = [(int(seed) & _MASK64) ^ salt, ((int(replica) & _MASK32) << 32) | (int(n) & _MASK32)]
    return np.random.Generator(np.random.Philox(key=key))


class TrialStreams:
    """Per-(seed, replica) family of per-generation Philox generators."""

    def __init__(self, seed, replica=0):
        self.seed = int(seed) & _MASK64
        self.replica = int(replica)

    def generation(self, n) -> np.random.Generator:
        return _philox(_TRIAL_SALT, self.seed, self.replica, n)


def _draw_indices(rng, cdf, size):
    """size iid indices with P(i) = cdf[i] - cdf[i-1] (inverse-cdf on uniforms)."""
    if size == 0:
        return np.empty(0, dtype=np.int64)
    ids = np.searchsorted(cdf, rng.random(size), side="right")
    return np.minimum(ids, cdf.size - 1, out=ids)


# ---------------------------------------------------------------------------
# sampler program
# ---------------------------------------------------------------------------

class _ProductGroup:
    """Vertices sharing one child-count cdf and one dispersal weight vector."""

    __slots__ = ("cols", "rho_cdf", "rho_values", "w_cdf", "targets", "order")

    def __init__(self, cols, rho_cdf, rho_values, w_cdf, targets):
        self.cols = np.asarray(cols, dtype=np.int64)
        self.rho_cdf = rho_cdf
        self.rho_values = rho_values
        self.w_cdf = w_cdf
        self.targets = np.asarray(targets, dtype=np.int64)  # (len(cols), k)
        self.order = int(self.cols.min())


class _AtomGroup:
    """Single vertex with an explicit atom table (configs kept dense)."""

    __slots__ = ("col", "cdf", "configs", "order")

    def __init__(self, col, cdf, configs):
        self.col = int(col)
        self.cdf = cdf
        self.configs = configs  # (n_atoms, V) float array
        self.order = int(col)


def _program(model: BrwModel):
    prog = model._cache.get("sampler")
    if prog is not None:
        return prog
    V = model.size
    product = {}
    groups = []
    for v in model.vertices:
        i = model.index[v]
        law = model.laws[v]
        if law.product is not None:
            pf = law.product
            key = (id(pf.rho), pf.weights)
            tgt = [model.index[t] for t in pf.targets]
            product.setdefault(key, (np.cumsum(pf.rho.probs), pf.rho.values,
                                     np.cumsum(pf.weights), []))[3].append((i, tgt))
        else:
            law_atoms = law.atoms
            cdf = np.cumsum([p for _, p in law_atoms])
            cfg = np.zeros((len(law_atoms), V))
            for a, (c, _) in enumerate(law_atoms):
                for u, k in c.entries:
                    cfg[a, model.index[u]] = k
            groups.append(_AtomGroup(i, cdf, cfg))
    for rho_cdf, rho_values, w_cdf, members in product.values():
        members.sort()
        groups.append(_ProductGroup([i for i, _ in members], rho_cdf, rho_values, w_cdf,
                                    np.array([t for _, t in members], dtype=np.int64)))
    prog = sorted(groups, key=lambda g: g.order)
    model._cache["sampler"] = prog
    return prog


# ---------------------------------------------------------------------------
# the stepping kernel
# ---------------------------------------------------------------------------

def _prefix_masks(block, reads):
    """Per row of ``reads``: None when it reads every draw block whole, else a
    mask over the concatenated blocks selecting the first reads[b] of block b."""
    if len(reads) == 1:
        return [None]
    masks = []
    rank = None
    for row in reads:
        if np.array_equal(row, block):
            masks.append(None)
            continue
        if rank is None:
            rank = np.arange(int(block.sum())) - np.repeat(np.cumsum(block) - block, block)
        masks.append(rank < np.repeat(row, block))
    return masks


def _advance(counts, model, rng, keep_masks=None):
    """Advance an (R, S, V) count array one generation; R replicas, S coupled rows.

    Replicas read disjoint draws; the rows of one replica share theirs.  Per
    law group the draw blocks are laid out replica-major, one per (replica,
    vertex), each sized by the maximum over that replica's rows; row s reads
    the first counts[r, s, v] draws of its block, so a smaller row sees a
    prefix of a larger one's particles.  keep_masks[s] (None or a boolean
    vertex mask) kills row s's children sent outside the mask, realizing the
    restriction coupling.  Caps are NOT applied here; the uncapped arrivals
    are returned.
    """
    R, S, V = counts.shape
    new = np.zeros((R, S, V), dtype=np.int64)
    occupied = counts.any(axis=(0, 1))
    for group in _program(model):
        if isinstance(group, _AtomGroup):
            if not occupied[group.col]:
                continue
            c = counts[:, :, group.col]                        # (R, S)
            block = c.max(axis=1)
            ids = _draw_indices(rng, group.cdf, int(block.sum()))
            A = group.cdf.size
            if R > 1:
                ids += np.repeat(np.arange(0, R * A, A), block)
            # a lone block (R == 1) is read by prefix slices, not masks
            sels = _prefix_masks(block, c.T) if R > 1 else [slice(k) for k in c[0].tolist()]
            per = np.stack([np.bincount(ids if sel is None else ids[sel], minlength=R * A)
                            for sel in sels])                          # (S, R * A)
            new += (per.reshape(S, R, A) @ group.configs).astype(np.int64).transpose(1, 0, 2)
        else:
            if not occupied[group.cols].any():
                continue
            sub = counts[:, :, group.cols]                     # (R, S, m)
            m = sub.shape[2]
            block = sub.max(axis=1).ravel()                    # (R * m,) replica-major
            totals = group.rho_values[_draw_indices(rng, group.rho_cdf, int(block.sum()))]
            t_all = int(totals.sum())
            if t_all == 0:
                continue
            parent = np.repeat(np.arange(block.size), block)   # block of each particle
            flat = group.targets[np.repeat(parent % m, totals),
                                 _draw_indices(rng, group.w_cdf, t_all)]
            if R > 1:
                flat += np.repeat(parent // m * V, totals)
            reads = sub.transpose(1, 0, 2).reshape(S, -1)
            for s, sel in enumerate(_prefix_masks(block, reads)):
                f = flat if sel is None else flat[np.repeat(sel, totals)]
                if f.size:
                    new[:, s] += np.bincount(f, minlength=R * V).reshape(R, V)
    for s, keep in enumerate(keep_masks or ()):
        if keep is not None:
            new[:, s, ~keep] = 0
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
            if k < 0:
                raise ModelError("negative occupation count")
            c[model.index[v]] = k
        return PopulationState(c, 0, int(c.sum()))

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


def _apply_cap(arr, cap):
    if cap is not None and math.isfinite(cap):
        np.minimum(arr, int(cap), out=arr)
    return arr


def step(state: PopulationState, model: BrwModel, rng) -> PopulationState:
    """One exact-law generation: each particle draws an offspring configuration."""
    return step_truncated(state, None, model, rng)


def step_truncated(state: PopulationState, m, model: BrwModel, rng) -> PopulationState:
    """As ``step`` then clip every site at m (applied after all arrivals)."""
    if m is not None and m < 1:
        raise ModelError("cap must be at least 1")
    new = _advance(state.counts[None, None, :], model, rng)[0, 0]
    _apply_cap(new, m)
    return PopulationState(new, state.generation + 1, state.total_born + int(new.sum()))


def step_coupled(pair, caps, model: BrwModel, rng, coupling=None):
    """Advance a dominating pair on shared draws; the order is asserted.

    pair = (upper, lower) with lower.counts <= upper.counts and caps = (m, k),
    k <= m.  coupling None makes the lower process read the identical draws;
    a RestrictionCoupling additionally kills its out-of-subset children.
    """
    upper, lower = pair
    m, k = caps
    mv = m if m is not None else math.inf
    kv = k if k is not None else math.inf
    if kv > mv:
        raise ModelError("lower cap must not exceed the upper cap")
    if not np.all(lower.counts <= upper.counts):
        raise ModelError("coupled pair must start ordered (lower <= upper)")
    mask = coupling.mask(model) if isinstance(coupling, RestrictionCoupling) else None
    stacked = np.stack([upper.counts, lower.counts])
    new = _advance(stacked[None], model, rng, [None, mask])[0]
    _apply_cap(new[0], m)
    _apply_cap(new[1], k)
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


def _blank_outcome(replica, seed, cap, eta_total):
    status = "completed" if eta_total > 0 else "extinct"
    return TrialOutcome(eta_total > 0, 0, -1, eta_total, 0, replica, seed,
                        eta_total, status, cap)


def _dominates(cap_a, mask_a, cap_b, mask_b):
    """True when theory guarantees state_a <= state_b under shared draws."""
    ca = cap_a if math.isfinite(cap_a) else math.inf
    cb = cap_b if math.isfinite(cap_b) else math.inf
    if ca > cb:
        return False
    return (mask_a is mask_b) or (mask_b is None and mask_a is not None)


def run_coupled_trials(model: BrwModel, caps, eta0, horizon, target=None, seed=0,
                       replica=0, hard_cap=DEFAULT_HARD_CAP, couplings=None,
                       assert_domination=True):
    """Run one trial of every cap in ``caps`` jointly on shared draws.

    caps are numbers or math.inf; couplings, when given, is a per-cap list
    of None / RestrictionCoupling.  Returns one TrialOutcome per cap.  Every
    pair whose order is guaranteed (same coupling with smaller cap, or a
    restriction against its unrestricted partner) is asserted each step.
    A state passing hard_cap is recorded (alive, "overflow") and dropped;
    the remaining states keep sharing draws.
    """
    caps = [float(c) if c is not None else math.inf for c in caps]
    couplings = list(couplings) if couplings is not None else [None] * len(caps)
    if len(couplings) != len(caps):
        raise ModelError("one coupling entry per cap required")
    eta = PopulationState.from_dict(model, eta0) if isinstance(eta0, dict) else eta0
    t_idx = model.index[target] if target is not None else None
    masks = [c.mask(model) if isinstance(c, RestrictionCoupling) else None for c in couplings]
    states = []
    for cap, mask in zip(caps, masks):
        c = eta.counts.copy()
        if mask is not None:
            c = c * mask
        states.append(_apply_cap(c, cap))
    outcomes = [_blank_outcome(replica, seed, cap, int(s.sum()))
                for cap, s in zip(caps, states)]
    born = [int(s.sum()) for s in states]
    active = [i for i in range(len(caps)) if outcomes[i].alive]
    streams = TrialStreams(seed, replica)
    for gen in range(1, horizon + 1):
        if not active:
            break
        rng = streams.generation(gen)
        mat = np.stack([states[i] for i in active])
        new = _advance(mat[None], model, rng, [masks[i] for i in active])[0]
        for row, i in enumerate(active):
            _apply_cap(new[row], caps[i])
        if assert_domination:
            for ra, a in enumerate(active):
                for rb, b in enumerate(active):
                    if a != b and _dominates(caps[a], masks[a], caps[b], masks[b]):
                        if np.any(new[ra] > new[rb]):
                            raise RuntimeError("coupling domination violated")
        still = []
        for row, i in enumerate(active):
            states[i] = new[row]
            total = int(new[row].sum())
            born[i] += total
            o = outcomes[i]
            o.generations = gen
            o.total_born = born[i]
            o.peak_population = max(o.peak_population, total)
            if t_idx is not None and new[row][t_idx] > 0:
                o.visits_to_target += 1
                o.last_target_visit = gen
            if total == 0:
                o.alive = False
                o.status = "extinct"
            elif total > hard_cap:
                o.alive = True
                o.status = "overflow"
            else:
                still.append(i)
        active = still
    return outcomes


def run_survival_trial(model: BrwModel, eta0, horizon, target=None, cap=math.inf,
                       seed=0, replica=0, hard_cap=DEFAULT_HARD_CAP) -> TrialOutcome:
    """Simulate one trial to the horizon or extinction; fully reproducible."""
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    if horizon == 0:
        eta = PopulationState.from_dict(model, eta0) if isinstance(eta0, dict) else eta0
        c = cap if cap is not None else math.inf
        return _blank_outcome(replica, seed, float(c), eta.total)
    return run_coupled_trials(model, [cap], eta0, horizon, target, seed, replica,
                              hard_cap, assert_domination=False)[0]


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
    if replicas < 1:
        raise ModelError("need at least one replica")
    outcomes = [run_survival_trial(model, eta0, horizon, target, cap, seed, r, hard_cap)
                for r in range(replicas)]
    alive = sum(o.alive for o in outcomes)
    lo, hi = wilson_interval(alive, replicas)
    return SurvivalEstimate(alive / replicas, lo, hi, replicas, horizon,
                            float(cap) if cap is not None else math.inf, seed, outcomes,
                            sum(o.status == "overflow" for o in outcomes))


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
    R, V = int(replicas), model.size
    counts = np.zeros((R, V), dtype=np.int64)
    eta = PopulationState.from_dict(model, eta0) if isinstance(eta0, dict) else eta0
    counts[:] = eta.counts
    t_idx = model.index[track] if track is not None else None
    means = np.zeros((horizon + 1, V))
    means[0] = counts.mean(axis=0)
    samples = np.zeros((R, horizon + 1), dtype=np.int64) if t_idx is not None else None
    if samples is not None:
        samples[:, 0] = counts[:, t_idx]
    for gen in range(1, horizon + 1):
        counts = _advance(counts[:, None, :], model, _philox(_BATCH_SALT, seed, 0, gen))[:, 0]
        means[gen] = counts.mean(axis=0)
        if samples is not None:
            samples[:, gen] = counts[:, t_idx]
    return means, samples
