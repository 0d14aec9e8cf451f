#!/usr/bin/env python3
"""brwlab benchmark: one workload per run, every metric with its unit.

    python3 bench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Workloads (see BENCHMARK.json and workloads.py): ``sweep``, ``replicas`` and
``analytic``. A run is one process with one BLAS thread and one caller, in a
closed loop: it repeats the workload body until about ``--seconds`` of bodies
have been measured, stopping at the body boundary nearest to that time.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median time of one body, after set-up.
* ``setup_s``: median over fresh processes of process start to models built
  (``import brwlab`` plus building the workload's models).
* ``peak_rss_mb``: peak resident memory of this process.

Both times are scaled to a reference host speed (see ``REFERENCE_S``); the
raw medians are printed beside them.

``--trace 1`` runs one body with tracing.py's wrappers installed between two
untraced bodies, and reports the per-layer metrics. Spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.

Every body's outputs are checked outside the timed region. Standard output
ends with one JSON line: ``correct``, ``attempted`` and ``failed`` operations,
and ``metrics`` as {name: {"value", "unit"}}. The line before it is the
provenance record. ``--record FILE`` also appends both to FILE for
compare.py. Exit code 2 means the run could not start (for instance, no
``src/brwlab`` in the checkout) and nothing was reported.
"""

import os

# One BLAS thread here and in the set-up probes; this must precede numpy's import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402

SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
# The host's speed drifts by up to 1.8x over minutes. Each run therefore times
# a fixed reference kernel before every set-up probe and about once a second
# between a body's operations, and scales setup_s and wall_s by REFERENCE_S /
# (median reference time in that phase): they read as seconds at the speed
# where the kernel takes REFERENCE_S. Raw times are printed and recorded too.
REFERENCE_S = 0.010
REFERENCE_REPEATS = 10
REFERENCE_EVERY_S = 1.0
OUT_ROOT = os.path.join(workloads.ROOT, ".bench_out")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="brwlab benchmark (one workload per run)")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--record", help="append the provenance and result to this JSON-lines file")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

class Reference:
    """Times a fixed mix of interpreter loop, small-array and large-array
    numpy work, which no change to brwlab can alter."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.u = np.linspace(0.0, 1.0, 200_000)
        self.cdf = np.linspace(0.125, 1.0, 8)
        self.times = {"setup": [], "body": []}
        self._last = time.perf_counter()

    def sample(self, phase):
        np, u, cdf = self.np, self.u, self.cdf
        for _ in range(REFERENCE_REPEATS):
            t0 = time.perf_counter()
            x = 0
            for i in range(100_000):
                x += i
            for _ in range(200):
                np.searchsorted(cdf, u[:64])
            np.bincount(np.searchsorted(cdf, u), minlength=8)
            np.repeat(np.arange(1000), 200).sum()
            self.times[phase].append(time.perf_counter() - t0)
        self._last = time.perf_counter()

    def between_ops(self):
        """Sample during a body, at most about once per REFERENCE_EVERY_S."""
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample("body")

    def scale(self, phase) -> float:
        return REFERENCE_S / statistics.median(self.times[phase])


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def probe_setup(args):
    """Child side of a set-up probe: set up, then print the monotonic clock."""
    workloads.setup(args.workload, args.seed, args.size, out=None)
    print(repr(time.monotonic()))


def measure_setup(args, reference):
    """Seconds from spawning a fresh interpreter to models built, per probe.

    CLOCK_MONOTONIC is shared by all processes on Linux, so the parent's
    spawn time and the child's finish time can be subtracted.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        reference.sample("setup")
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _read_first(path, prefix):
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_sha():
    try:
        done = subprocess.run(["git", "-C", workloads.ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args):
    import numpy
    import scipy

    pkg = os.path.join(workloads.SRC, "brwlab")
    lines, digest = {}, hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                data = fh.read()
            lines[name] = data.count(b"\n")
            digest.update(name.encode() + b"\0" + data)
    mem_kb = _read_first("/proc/meminfo", "MemTotal")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": _read_first("/proc/cpuinfo", "model name") or platform.processor(),
        "ram_gb": round(int(mem_kb.split()[0]) / 2 ** 20, 2) if mem_kb else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": _git_sha(), "src_sha256": digest.hexdigest()[:16],
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def timed_body(ctx, ledger, golden, first, reference=None):
    """Run one body and return the seconds spent in its operations; the
    outputs are checked after the clock stops."""
    results, wall = workloads.run_ops(workloads.ops(ctx),
                                      reference.between_ops if reference else None)
    workloads.verify(ctx, results, first, ledger, golden)
    return wall


def timed_bodies(ctx, ledger, golden, seconds, reference):
    """Repeat the body until about ``seconds`` of bodies are measured."""
    walls, particles = [], []
    while True:
        reference.sample("body")
        walls.append(timed_body(ctx, ledger, golden, not walls, reference))
        particles.append(ledger.particles)
        # stop at the body boundary nearest to the requested time
        if sum(walls) + walls[-1] / 2 >= seconds:
            return walls, particles


def run_timed(args, out, golden, ledger):
    reference = Reference()
    setups = measure_setup(args, reference)
    ctx = workloads.setup(args.workload, args.seed, args.size, out)
    walls, particles = timed_bodies(ctx, ledger, golden, args.seconds, reference)
    wall, setup = statistics.median(walls), statistics.median(setups)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall * reference.scale("body"), "s"),
        "setup_s": (setup * reference.scale("setup"), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [f"{len(walls)} bodies: " + " ".join(f"{w:.3f}" for w in walls) + " s",
             "set-up probes: " + " ".join(f"{t:.3f}" for t in setups) + " s",
             f"raw medians: wall {wall:.4f} s, set-up {setup:.4f} s; scales "
             f"{reference.scale('body'):.4f} (bodies), {reference.scale('setup'):.4f} (set-up)",
             f"particles_per_s {statistics.median(particles) / wall:.6g} 1/s "
             f"({statistics.median(particles)} particles per body)"]
    return metrics, notes, {"wall_s": walls, "setup_s": setups,
                            "reference_s": reference.times}


def run_traced(args, out, golden, ledger):
    """One traced body between two untraced ones; the overhead is traced
    minus the mean of the untraced bodies, which cancels a linear drift."""
    import tracing

    ctx = workloads.setup(args.workload, args.seed, args.size, out)
    untraced = [timed_body(ctx, ledger, golden, True)]
    particles = ledger.particles

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup") as idx:
            tctx = workloads.setup(args.workload, args.seed, args.size, out)
        setup_span = (idx, len(tracer.spans))
        tctx.first_digests, tctx.oracles = ctx.first_digests, ctx.oracles
        body = workloads.ops(tctx)
        tracer.counts.clear()
        with tracer.root("bench.body") as idx:
            results, _ = workloads.run_ops(body)
        body_span = (idx, len(tracer.spans))
    finally:
        tracer.uninstall()
    workloads.verify(tctx, results, False, ledger, golden)
    untraced.append(timed_body(ctx, ledger, golden, False))

    metrics = tracing.layer_metrics(tracer, setup_span, body_span,
                                    statistics.mean(untraced), particles)
    path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(path)
    traced = metrics["trace.wall_s"][0]
    outside = metrics["bench.self_s"][0]
    notes = ["untraced bodies " + " ".join(f"{w:.3f}" for w in untraced)
             + f" s, traced body {traced:.3f} s",
             f"outside every layer span: {outside:.6f} s, {outside / traced:.3%} of the traced wall",
             f"{len(tracer.spans)} spans written to {os.path.relpath(path, workloads.ROOT)}"]
    return metrics, notes, {"untraced_wall_s": untraced, "traced_wall_s": [traced]}


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        probe_setup(args)
        return 0
    golden = workloads.load_golden()
    out = os.path.join(OUT_ROOT, f"run-{os.getpid()}")
    ledger = workloads.Ledger()
    try:
        if args.trace:
            metrics, notes, samples = run_traced(args, out, golden, ledger)
        else:
            metrics, notes, samples = run_timed(args, out, golden, ledger)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")
    ratio = ledger.failed / ledger.attempted
    print(f"  fail_ratio {ratio:.6g} ({ledger.failed} of {ledger.attempted} operations failed)")
    print(f"  exact checks: {ledger.exact_checks} made, {len(ledger.problems)} problems")
    for name, (passed, made) in ledger.reported.items():
        print(f"  reported, not counted: {name}: {passed}/{made}")
    for line in ledger.unconverged[:5] + ledger.problems[:20]:
        print(f"  ! {line}")
    prov = provenance(args)
    result = {"correct": ledger.correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": result,
                                 "samples": samples}) + "\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
