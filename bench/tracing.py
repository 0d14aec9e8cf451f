"""Per-layer spans for the traced run, installed from outside the library.

The layers are the brwlab modules below. Models built with ``core``'s
constructors count under ``scenarios``. ``Tracer.install`` wraps every
public module-level function of each layer, wherever the function object is
bound: in its own module, in modules that imported it with ``from . import``,
in the package namespace and in module-level dicts such as the CLI's command
table. ``TrialStreams.generation`` is wrapped on the class. Without this,
nested calls through a second binding would go unrecorded.

A span is (name, layer, start, end, parent, error), kept in memory and
written out by ``write``. A span's self time is its duration minus its
children's. Counters are read at the same boundaries, from the arguments and
the returned values. Philox constructions are counted where they happen,
including those ``mean_curve`` and ``oriented_percolation`` make directly,
and credited to the span that encloses them.

Wrappers exist only between ``install`` and ``uninstall``. The timed runs
never install them.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("simulate", "genfun", "spectral", "approx", "cli", "serialize", "scenarios")
LAYER_MODULES = {layer: (layer,) for layer in LAYERS}
LAYER_MODULES["scenarios"] = ("scenarios", "core")


# ---------------------------------------------------------------------------
# counters read at layer boundaries: hook(counts, bound arguments, result, seconds)
# ---------------------------------------------------------------------------

def _trials(c, a, outs, dur):
    c["simulate.trials"] += 1
    c["simulate.particles"] += sum(o.total_born for o in outs)
    c["simulate.replica_gens"] += max((o.generations for o in outs), default=0)
    c["simulate.overflow_trials"] += sum(o.status == "overflow" for o in outs)


def _mean_curve(c, a, result, dur):
    means, _ = result
    R = int(a["replicas"])
    c["simulate.trials"] += R
    c["simulate.particles"] += int(round(R * float(means.sum())))
    c["simulate.replica_gens"] += R * int(a["horizon"])


def _extinction(c, a, result, dur):
    _, diag = result
    c["genfun.G_evals"] += diag.iterations
    c["genfun.G_vertex_evals"] += diag.iterations * a["model"].size
    c["genfun.extinction_s"] += dur
    c["genfun.unconverged"] += not diag.converged


def _iterated_nnz(M, x0, local):
    """Nonzeros of the matrix a growth call iterates on: x0's communicating
    class for local growth (its labels are cached by the call), else all of M."""
    if not local:
        return M.csr.nnz
    labels = M._strong_labels()
    inside = labels == labels[M.index[x0]]
    rows = np.repeat(inside, np.diff(M.csr.indptr))
    return int(np.count_nonzero(rows & inside[M.csr.indices]))


def _growth(c, a, est, dur, local):
    steps = est.sequence[-1][0] if est.sequence else 0
    c["spectral.power_steps"] += steps
    c["spectral.nnz_steps"] += steps * _iterated_nnz(a["M"], a["x0"], local)
    c["spectral.growth_s"] += dur
    c["spectral.unconverged"] += not est.converged


def _csv(c, a, result, dur):
    c["approx.csv_bytes"] += os.path.getsize(a["path"])


def _serialize(c, a, result, dur):
    c["serialize.vertices"] += a["model"].size


HOOKS = {
    "simulate.run_coupled_trials": _trials,
    "simulate.mean_curve": _mean_curve,
    "genfun.iterate_extinction": _extinction,
    "spectral.local_growth_rate": functools.partial(_growth, local=True),
    "spectral.global_growth_rate": functools.partial(_growth, local=False),
    "approx.write_csv": _csv,
    "serialize.serialize_model": _serialize,
}


class Tracer:
    """Records spans and counters while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []                 # [name, layer, start, end, parent, error]
        self.streams = defaultdict(int)  # span index -> Philox constructions inside it
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, layer):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent, False])
        self._stack.append(idx)
        return idx

    def _close(self, idx, error=False):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[3] = end
        span[5] = error
        return end - span[2]

    @contextlib.contextmanager
    def root(self, name):
        """One of the benchmark's own spans (layer "bench"); yields its index."""
        idx = self._open(name, "bench")
        try:
            yield idx
        except BaseException:
            self._close(idx, error=True)
            raise
        self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, error=True)
                raise
            dur = tracer._close(idx)
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer.counts, bound.arguments, result, dur)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr) if not isinstance(owner, dict)
                              else owner[attr]))
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self):
        mods = [m for name, m in sorted(sys.modules.items())
                if name == "brwlab" or name.startswith("brwlab.")]
        namespaces = []
        for m in mods:
            namespaces.append((m, vars(m)))
            namespaces += [(d, d) for d in vars(m).values()
                           if isinstance(d, dict) and any(callable(v) for v in d.values())]
        for layer, names in LAYER_MODULES.items():
            for mod in (sys.modules["brwlab." + name] for name in names):
                for attr, fn in list(vars(mod).items()):
                    if attr.startswith("_") or not inspect.isfunction(fn) \
                            or fn.__module__ != mod.__name__:
                        continue
                    short = mod.__name__.split(".")[-1]
                    wrapper = self._wrap(layer, f"{short}.{attr}", fn)
                    for owner, space in namespaces:
                        for key, val in list(space.items()):
                            if val is fn:
                                self._patch(owner, key, wrapper)
        streams_cls = sys.modules["brwlab.simulate"].TrialStreams
        self._patch(streams_cls, "generation",
                    self._wrap("simulate", "simulate.TrialStreams.generation",
                               streams_cls.generation))

        philox = np.random.Philox
        tracer = self

        def counted_philox(*args, **kwargs):
            t0 = time.perf_counter()
            bitgen = philox(*args, **kwargs)
            tracer.counts["simulate.stream_s"] += time.perf_counter() - t0
            tracer.counts["simulate.streams"] += 1
            tracer.streams[tracer._stack[-1] if tracer._stack else -1] += 1
            return bitgen

        self._patch(np.random, "Philox", counted_philox)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def self_times(self, first, last):
        """Self time of every span with index in [first, last)."""
        child = defaultdict(float)
        for name, layer, start, end, parent, error in self.spans[first:last]:
            if parent >= first:
                child[parent] += end - start
        return {i: (self.spans[i][3] - self.spans[i][2]) - child[i] for i in range(first, last)}

    def layer_totals(self, first, last):
        """(self seconds, calls, errors) per layer over spans [first, last)."""
        selfs = self.self_times(first, last)
        busy, calls, errors = defaultdict(float), defaultdict(int), defaultdict(int)
        for i, t in selfs.items():
            layer = self.spans[i][1]
            busy[layer] += t
            calls[layer] += 1
            errors[layer] += self.spans[i][5]
        return busy, calls, errors

    def write(self, path):
        """Spans as JSON lines: name, layer, start and end (s), parent index, error, streams."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, layer, start, end, parent, error) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "layer": layer,
                                     "start": start - t0, "end": end - t0, "parent": parent,
                                     "error": error, "streams": self.streams.get(i, 0)}) + "\n")


def _ratio(num, den, scale):
    return num / den * scale if den else 0.0


def layer_metrics(tracer, setup_span, body_span, untraced_wall, particles):
    """The per-layer metrics of one traced body, as {name: (value, unit)}."""
    first, last = body_span
    busy, calls, errors = tracer.layer_totals(first, last)
    setup_busy, _, _ = tracer.layer_totals(*setup_span)
    c = tracer.counts
    wall = tracer.spans[first][3] - tracer.spans[first][2]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (busy[layer], "s")
        out[f"{layer}.calls"] = (calls[layer], "count")
        out[f"{layer}.errors"] = (errors[layer], "count")
    out.update({
        "simulate.particles": (c["simulate.particles"], "count"),
        "simulate.ns_per_particle": (_ratio(busy["simulate"], c["simulate.particles"], 1e9), "ns"),
        "simulate.trials": (c["simulate.trials"], "count"),
        "simulate.replica_gens": (c["simulate.replica_gens"], "count"),
        "simulate.us_per_replica_gen": (
            _ratio(busy["simulate"], c["simulate.replica_gens"], 1e6), "us"),
        "simulate.streams": (c["simulate.streams"], "count"),
        "simulate.us_per_stream": (_ratio(c["simulate.stream_s"], c["simulate.streams"], 1e6),
                                   "us"),
        "simulate.overflow_trials": (c["simulate.overflow_trials"], "count"),
        "particles_per_s": (_ratio(particles, untraced_wall, 1.0), "1/s"),
        "genfun.G_evals": (c["genfun.G_evals"], "count"),
        "genfun.us_per_G_vertex": (
            _ratio(c["genfun.extinction_s"], c["genfun.G_vertex_evals"], 1e6), "us"),
        "genfun.unconverged": (c["genfun.unconverged"], "count"),
        "spectral.power_steps": (c["spectral.power_steps"], "count"),
        "spectral.ns_per_nnz_step": (
            _ratio(c["spectral.growth_s"], c["spectral.nnz_steps"], 1e9), "ns"),
        "spectral.unconverged": (c["spectral.unconverged"], "count"),
        "approx.csv_bytes": (c["approx.csv_bytes"], "B"),
        "serialize.us_per_vertex": (_ratio(busy["serialize"], c["serialize.vertices"], 1e6),
                                    "us"),
        "scenarios.build_s": (setup_busy["scenarios"], "s"),
        "bench.self_s": (busy["bench"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
    })
    return out
