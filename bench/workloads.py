"""The benchmark's three workloads: set-up, timed bodies and output checks.

Each workload has three parts:

* ``setup`` imports brwlab from the checkout's ``src`` and builds every model
  the body's library calls need. The benchmark times it as ``setup_s``.
* ``ops`` lists the body's operations. Each one is a single top-level call
  into brwlab: a CLI invocation, a trial batch, a solve or a classify. The
  benchmark times the whole list as one body (``wall_s``).
* ``verify`` checks one body's outputs outside the timed region.

Library seeds are the acceptance-suite and README seeds plus the benchmark
seed. Seed 0 therefore reproduces the README and acceptance inputs, and the
CSV digests in ``golden.json``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")

WORKLOADS = ("sweep", "replicas", "analytic")

# "full" is the measured size; "tiny" exercises every operation and check in
# a few seconds, for the smoke check.
SIZES = {
    "full": {
        "sweep_replicas": 10, "pair_replicas": 50,
        "ex45_replicas": 32, "gw_replicas": 300, "curve_replicas": 100_000,
        "perc_replicas": 100,
        "critical_max_iter": 200_000, "tree_depth": 9, "lam_width": 2e-3, "lam_grid": None,
    },
    "tiny": {
        "sweep_replicas": 2, "pair_replicas": 4,
        "ex45_replicas": 4, "gw_replicas": 20, "curve_replicas": 1_000,
        "perc_replicas": 8,
        "critical_max_iter": 2_000, "tree_depth": 4, "lam_width": 0.15, "lam_grid": (0.2, 0.4),
    },
}

SWEEP_HARD_CAP = 10 ** 6     # the CLI default
SWEEP_CHECK_REPLICAS = 3     # replicas rerun standalone to check the inf row


def load_brwlab():
    """Import brwlab from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "brwlab", "__init__.py")):
        raise RuntimeError(f"no brwlab sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import brwlab
    if os.path.dirname(os.path.dirname(os.path.abspath(brwlab.__file__))) != SRC:
        raise RuntimeError(f"brwlab was imported from {brwlab.__file__}, not from {SRC}")
    import brwlab.cli  # noqa: F401  (the CLI module is part of every set-up)
    return brwlab


@dataclass
class Context:
    """Everything one run of a workload shares between its bodies."""

    workload: str
    seed: int
    size: str
    out: str
    bl: object
    models: dict
    first_digests: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)

    @property
    def n(self) -> dict:
        return SIZES[self.size]

    def op_dir(self, op) -> str:
        return os.path.join(self.out, op.replace(" ", "_"))


# ---------------------------------------------------------------------------
# ledger: operations attempted and failed, checks made and broken
# ---------------------------------------------------------------------------

class Ledger:
    """Tallies one run's operations and checks.

    An operation fails when it raises, returns converged=False, or breaks an
    exact check. Raising and broken checks also make the run incorrect; an
    unconverged solve does not, because its output says so. Reported checks
    (95% confidence-interval coverage, which misses on about 5% of seeds by
    design) are counted separately and never fail an operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.exact_checks = 0
        self.problems = []            # messages that make the run incorrect
        self.unconverged = []         # failed but correctly reported solves
        self.reported = {}            # name -> [passed, made]
        self.particles = 0
        self._failed_ops = set()

    def begin(self, results):
        self._failed_ops = set()
        self.particles = 0            # particles born in this body
        self.attempted += len(results)
        for name, (_, exc) in results.items():
            if exc is not None:
                self._failed_ops.add(name)
                self.problems.append(f"{name}: raised {type(exc).__name__}: {exc}")

    def check(self, op, ok, what):
        self.exact_checks += 1
        if not ok:
            self._failed_ops.add(op)
            self.problems.append(f"{op}: {what}")

    def not_converged(self, op, what):
        self._failed_ops.add(op)
        self.unconverged.append(f"{op}: {what}")

    def report(self, name, ok):
        tally = self.reported.setdefault(name, [0, 0])
        tally[0] += bool(ok)
        tally[1] += 1

    def end(self):
        self.failed += len(self._failed_ops)

    @property
    def correct(self) -> bool:
        return not self.problems


def run_ops(ops, between=None):
    """Run a body's operations in order; return (results, seconds spent in them).

    A raising operation does not stop the body. ``between`` is called after
    each operation, outside the timed part.
    """
    results, spent = {}, 0.0
    for name, thunk in ops:
        t0 = time.perf_counter()
        try:
            results[name] = (thunk(), None)
        except Exception as exc:  # recorded as a failed operation by the ledger
            results[name] = (None, exc)
        spent += time.perf_counter() - t0
        if between is not None:
            between()
    return results, spent


def _cli(bl, argv):
    """brwlab.cli.main with its printout captured; returns (exit code, text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bl.cli.main(argv)
    return code, buf.getvalue()


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def check_digests(ctx, ledger, op, files, golden):
    """CSV bodies must repeat byte for byte across bodies, and match the
    digests recorded at seed 0."""
    for name in files:
        key = f"{op}/{name}"
        digest = _sha256(os.path.join(ctx.op_dir(op), name))
        first = ctx.first_digests.setdefault(key, digest)
        ledger.check(op, digest == first, f"{name} differs from the run's first body")
        if ctx.seed == 0 and golden is not None:
            want = golden.get(ctx.size, {}).get(ctx.workload, {}).get(key)
            ledger.check(op, want is not None and digest == want,
                         f"{name} sha256 {digest[:12]} != golden {str(want)[:12]}")


# ---------------------------------------------------------------------------
# sweep: the cap program on large coupled populations
# ---------------------------------------------------------------------------

def _setup_sweep(bl, seed, n):
    return {
        "line6": bl.build_scenario("zd_translation", {"radius": 6}),
        "window": bl.RestrictionCoupling(frozenset(range(-2, 3))),
    }


def _ops_sweep(ctx):
    bl, m, n, s = ctx.bl, ctx.models, ctx.n, ctx.seed
    argv = ["sweep", "--scenario", "zd_translation", "--set", "param.radius=20",
            "--caps", "1,2,4,8", "--horizon", "100", "--replicas", str(n["sweep_replicas"]),
            "--seed", str(7 + s), "--out", ctx.op_dir("cli sweep")]

    def pairs(caps, seed):
        return [bl.run_coupled_trials(m["line6"], caps, {0: 1}, 25, seed=seed, replica=r,
                                      hard_cap=4000, couplings=[m["window"], None])
                for r in range(n["pair_replicas"])]

    return [
        ("cli sweep", lambda: _cli(bl, argv)),
        ("restriction pairs", lambda: pairs([math.inf, math.inf], 502 + s)),
        ("capped restriction pairs", lambda: pairs([5, math.inf], 503 + s)),
    ]


def _verify_sweep(ctx, results, first, ledger, golden):
    bl, n, s = ctx.bl, ctx.n, ctx.seed
    op = "cli sweep"
    value, exc = results[op]
    if exc is None:
        code, _ = value
        rows = _read_csv(os.path.join(ctx.op_dir(op), "sweep.csv"))
        per = _read_csv(os.path.join(ctx.op_dir(op), "replicas.csv"))
        caps = [r["cap"] for r in rows]
        ledger.check(op, caps == ["1", "2", "4", "8", "inf"], f"cap rows {caps}")
        freqs = [float(r["alive_frequency"]) for r in rows]
        ledger.check(op, freqs == sorted(freqs), "alive frequency not monotone in the cap")
        overflow = sum(int(r["overflow_count"]) for r in rows)
        ledger.check(op, code == (3 if overflow else 0), f"exit code {code}, overflow {overflow}")
        ledger.check(op, len(per) == len(caps) * n["sweep_replicas"], "replicas.csv row count")
        alive = {}
        for r in per:
            alive.setdefault(int(r["replica"]), []).append(int(r["alive"]))
        ledger.check(op, all(a == sorted(a) for a in alive.values()),
                     "a replica's alive flags are not monotone in the cap")
        ledger.particles += sum(int(r["total_born"]) for r in per)
        check_digests(ctx, ledger, op, ("sweep.csv", "replicas.csv"), golden)
        if first:
            inf_rows = {int(r["replica"]): r for r in per if r["cap"] == "inf"}
            line20 = bl.build_scenario("zd_translation", {"radius": 20})
            for rep in range(min(SWEEP_CHECK_REPLICAS, n["sweep_replicas"])):
                o = bl.run_survival_trial(line20, {0: 1}, 100, target=0,
                                          cap=math.inf, seed=7 + s, replica=rep,
                                          hard_cap=SWEEP_HARD_CAP)
                want = (str(int(o.alive)), str(o.visits_to_target), str(o.last_target_visit),
                        str(o.peak_population), str(o.total_born), o.status)
                r = inf_rows.get(rep, {})
                got = tuple(r.get(k) for k in ("alive", "visits", "last_target_visit",
                                               "peak_population", "total_born", "status"))
                ledger.check(op, got == want, f"inf row of replica {rep} differs from a "
                                              f"standalone uncapped run: {got} != {want}")
            # Known defect, reported and not counted: Philox keys built from a
            # list that holds an int above 2**63 go through float64, so small
            # seeds collapse onto one stream.
            a = bl.TrialStreams(7 + s).generation(1).random(4)
            b = bl.TrialStreams(8 + s).generation(1).random(4)
            ledger.report("distinct seeds give distinct trial streams", (a != b).any())
    for op in ("restriction pairs", "capped restriction pairs"):
        value, exc = results[op]
        if exc is not None:
            continue
        ledger.check(op, len(value) == n["pair_replicas"], "one outcome pair per replica")
        for lower, upper in value:
            ledger.particles += lower.total_born + upper.total_born
            ledger.check(op, upper.alive or not lower.alive,
                         f"replica {lower.replica}: restricted process outlived the free one")
            if upper.status != "overflow":
                ledger.check(op, lower.total_born <= upper.total_born
                             and lower.peak_population <= upper.peak_population,
                             f"replica {lower.replica}: restricted process not dominated")


# ---------------------------------------------------------------------------
# replicas: many independent small trials
# ---------------------------------------------------------------------------

def _setup_replicas(bl, seed, n):
    return {
        "ex45": bl.build_scenario("line_ex45", {"size": 64}),
        "gw": bl.build_scenario("gw", {"rho": {0: 0.4, 2: 0.6}}),
        "line10": bl.build_scenario("zd_translation", {"radius": 10}),
    }


def _ops_replicas(ctx):
    bl, m, n, s = ctx.bl, ctx.models, ctx.n, ctx.seed
    argv = ["percolate", "--set", "p=0.7", "--horizon", "150",
            "--replicas", str(n["perc_replicas"]), "--seed", str(s),
            "--out", ctx.op_dir("cli percolate")]
    return [
        ("ex45 survival", lambda: bl.estimate_survival(
            m["ex45"], {0: 1}, horizon=150, replicas=n["ex45_replicas"], seed=6 + s)),
        ("gw survival", lambda: bl.estimate_survival(
            m["gw"], {0: 1}, horizon=500, replicas=n["gw_replicas"], seed=20240601 + s,
            hard_cap=3000)),
        ("mean curve", lambda: bl.mean_curve(
            m["line10"], {0: 1}, 8, n["curve_replicas"], seed=77 + s, track=0)),
        ("cli percolate", lambda: _cli(bl, argv)),
    ]


def _check_estimate(ledger, op, est, replicas, horizon, hard_cap=None):
    outs = est.outcomes
    alive = sum(o.alive for o in outs)
    ledger.check(op, len(outs) == replicas and [o.replica for o in outs] == list(range(replicas)),
                 "one outcome per replica, in order")
    ledger.check(op, est.frequency == alive / replicas, "frequency != alive / replicas")
    ledger.check(op, est.ci_low <= est.frequency <= est.ci_high, "frequency outside its CI")
    ledger.check(op, est.overflow_count == sum(o.status == "overflow" for o in outs),
                 "overflow count")
    ledger.check(op, all(o.status != "completed" or o.generations == horizon for o in outs),
                 "a completed trial stopped before the horizon")
    if hard_cap is not None:
        ledger.check(op, all(o.peak_population > hard_cap
                             for o in outs if o.status == "overflow"),
                     "an overflow trial never passed the hard cap")
    ledger.particles += sum(o.total_born for o in outs)


def _verify_replicas(ctx, results, first, ledger, golden):
    bl, n = ctx.bl, ctx.n
    value, exc = results["ex45 survival"]
    if exc is None:
        _check_estimate(ledger, "ex45 survival", value, n["ex45_replicas"], 150)
        ledger.report("ex45 survival CI excludes 0", value.ci_low > 0.0)
    value, exc = results["gw survival"]
    if exc is None:
        _check_estimate(ledger, "gw survival", value, n["gw_replicas"], 500, hard_cap=3000)
        ledger.report("gw survival CI covers 1/3", value.ci_low <= 1 / 3 <= value.ci_high)
    op = "mean curve"
    value, exc = results[op]
    if exc is None:
        import numpy as np
        means, samples = value
        R = n["curve_replicas"]
        i0 = ctx.models["line10"].index[0]
        start = np.zeros(means.shape[1])
        start[i0] = 1.0
        ledger.check(op, means.shape == (9, ctx.models["line10"].size)
                     and samples.shape == (R, 9), "output shapes")
        ledger.check(op, np.array_equal(means[0], start) and bool(np.all(samples[:, 0] == 1)),
                     "generation 0 is not the start configuration")
        ledger.check(op, np.allclose(samples.mean(axis=0), means[:, i0], rtol=1e-12, atol=0),
                     "tracked samples disagree with the mean curve")
        ledger.particles += int(round(R * float(means.sum())))
        M = bl.moment_matrix(ctx.models["line10"])
        for g in range(1, 9):
            expect = bl.expected_population(M, {0: 1}, g)[i0]
            se = samples[:, g].astype(float).std(ddof=1) / math.sqrt(R)
            ledger.report("mean curve within 4 SE of the moment recursion",
                          abs(means[g][i0] - expect) <= 4.0 * se)
    op = "cli percolate"
    value, exc = results[op]
    if exc is None:
        code, _ = value
        ledger.check(op, code == 0, f"exit code {code}")
        rows = _read_csv(os.path.join(ctx.op_dir(op), "percolation.csv"))
        ledger.check(op, [int(r["replica"]) for r in rows] == list(range(n["perc_replicas"])),
                     "one row per replica")
        ledger.check(op, all(0 <= int(r["revisits"]) <= 150 for r in rows),
                     "revisit count outside [0, horizon]")
        check_digests(ctx, ledger, op, ("percolation.csv",), golden)


# ---------------------------------------------------------------------------
# analytic: classification, fixed points and growth rates
# ---------------------------------------------------------------------------

LADDER = (4, 8, 16, 32)
SENETA_RADIUS = 30


def _setup_analytic(bl, seed, n):
    import numpy as np
    from brwlab.scenarios import ex45_p

    models = {
        "critical": bl.build_scenario("gw", {"rho": {0: 0.5, 2: 0.5}}),
        "ladder": {K: bl.build_scenario("line_noext", {"size": K + 1}) for K in LADDER},
        "ex45": bl.build_scenario("line_ex45", {"size": 64}),
        "line30": bl.build_scenario("zd_translation", {"radius": SENETA_RADIUS}),
        "windows": [range(-r, r + 1) for r in range(1, SENETA_RADIUS + 1)],
        "tree": bl.tree_rates(4, n["tree_depth"]),
    }
    # escape-to-the-right subsolution of acceptance 08
    z = np.empty(64)
    for i0 in range(64):
        logw, i = 0.0, i0
        while True:
            t = math.log(ex45_p(i))
            logw += t
            i += 1
            if t > -1e-18:
                break
        z[i0] = 1.0 - math.exp(logw)
    models["ex45_z"] = z
    rng = np.random.default_rng(99 + seed)      # acceptance 03
    perron = []
    for _ in range(100):
        disp = rng.uniform(0.1, 1.0, (5, 5))
        disp /= disp.sum(axis=1, keepdims=True)
        laws = {}
        for v in range(5):
            mean = rng.uniform(0.6, 1.4)
            laws[v] = bl.product_form_law({0: 1.0 - mean / 2, 2: mean / 2},
                                          {u: disp[v, u] for u in range(5)})
        perron.append(bl.BrwModel(tuple(range(5)), laws))
    models["perron"] = perron
    rng = np.random.default_rng(1312 + seed)    # acceptance 09
    green = []
    while len(green) < 50:
        A = rng.uniform(0.0, 1.2, (6, 6)) * (rng.random((6, 6)) < 0.8)
        M = bl.MomentMatrix(A, tuple(range(6)))
        if M.max_row_sum() > 0.0:
            green.append((M, 0.5 / M.max_row_sum()))
    models["green"] = green
    rng = np.random.default_rng(7 + seed)       # acceptance 10
    identity = []
    for _ in range(100):
        p = rng.uniform(0.05, 0.7)
        q = rng.uniform(0.05, min(0.7, 0.95 - p))
        identity.append(bl.DriftParams(rng.uniform(0.2, 3.0), p, q))
    regions = []
    for _ in range(10):
        p = rng.uniform(0.1, 0.8)
        q = rng.uniform(0.1, min(0.8, 0.9 - p))
        regions.append(bl.DriftParams(rng.uniform(1.05, 2.5), p, q))
    models["drift_identity"], models["drift_regions"] = identity, regions
    rng = np.random.default_rng(14 + seed)      # acceptance 14
    models["chebyshev"] = [(rng.uniform(1e-6, 100.0), rng.uniform(1.0, 10.0),
                            rng.uniform(1e-3, 0.999)) for _ in range(1000)]
    return models


def _ops_analytic(ctx):
    bl, m, n = ctx.bl, ctx.models, ctx.n
    ops = [
        ("cli classify", lambda: _cli(bl, [
            "classify", "--scenario", "gw", "--set", 'param.rho={"0":0.25,"2":0.75}',
            "--out", ctx.op_dir("cli classify")])),
        ("cli extinction", lambda: _cli(bl, [
            "extinction", "--scenario", "line_ex45", "--set", "param.size=64",
            "--out", ctx.op_dir("cli extinction")])),
        ("cli spectral", lambda: _cli(bl, [
            "spectral", "--scenario", "zd_translation", "--set", "param.radius=12",
            "--out", ctx.op_dir("cli spectral")])),
        ("critical gw extinction", lambda: bl.iterate_extinction(
            m["critical"], "global", max_iter=n["critical_max_iter"])),
    ]
    for K in LADDER:
        model = m["ladder"][K]
        ops.append((f"ladder {K}", lambda model=model, K=K: (
            bl.global_growth_rate(bl.moment_matrix(model), 0, n_max=K),
            bl.iterate_extinction(model, "global"))))
    ops.append(("ex45 subsolution", lambda: bl.check_subsolution(
        m["ex45"], m["ex45_z"], 0, tol=1e-10)))
    for i, model in enumerate(m["perron"]):
        ops.append((f"perron {i}", lambda model=model: bl.classify_survival(
            model, 0, n_max=4000)))
    ops.append(("seneta", lambda: bl.seneta_sequence(m["line30"], m["windows"], 0,
                                                     n_max=6000)))
    for i, (M, lam) in enumerate(m["green"]):
        ops.append((f"green {i}", lambda M=M, lam=lam: (
            bl.first_return_series(M, 0, lam, n_max=800),
            bl.green_series(M, 0, lam, n_max=800))))
    ops.append(("drift identity", lambda: [bl.q_value(d, d.p - d.q, d.p)
                                           for d in m["drift_identity"]]))
    for i, d in enumerate(m["drift_regions"]):
        ops.append((f"drift region {i}", lambda d=d: bl.supercritical_region(d)))
    ops.append(("chebyshev", lambda: [bl.chebyshev_k(*args) for args in m["chebyshev"]]))
    verts, K = m["tree"]
    ops.append(("lambda sweep", lambda: bl.lambda_sweep(
        K, 0, 0.2, 0.4, vertices=verts, width=n["lam_width"], grid=n["lam_grid"],
        projected_row_sum=4.0, stop_tol=1e-9)))
    return ops


def _analytic_oracles(ctx):
    """Dense Perron roots and the tree window's Perron root, computed once per run."""
    import numpy as np
    from scipy.sparse.linalg import eigsh

    roots = [max(abs(np.linalg.eigvals(ctx.bl.moment_matrix(model).csr.toarray())))
             for model in ctx.models["perron"]]
    _, K = ctx.models["tree"]
    tree_root = float(eigsh(K.astype(float), k=1, which="LA")[0][0])
    return {"perron": roots, "tree_root": tree_root}


def _verify_analytic(ctx, results, first, ledger, golden):
    n = ctx.n
    if not ctx.oracles:
        ctx.oracles.update(_analytic_oracles(ctx))

    def ok(op):
        value, exc = results[op]
        return exc is None, value

    done, value = ok("cli classify")
    if done:
        code, _ = value
        ledger.check("cli classify", code == 0, f"exit code {code}")
        with open(os.path.join(ctx.op_dir("cli classify"), "classify.txt")) as fh:
            line = [ln for ln in fh if ln.startswith("qbar_x0 ")][0]
        # the value is written as repr(), which numpy 2 renders as np.float64(...)
        q = float(re.search(r"([-+0-9.eE]+)\)?\s*$", line).group(1))
        ledger.check("cli classify", abs(q - 1 / 3) <= 1e-8, f"qbar(x0) = {q}, not 1/3")
        check_digests(ctx, ledger, "cli classify", ("classify_evidence.csv",), golden)
    done, value = ok("cli extinction")
    if done:
        code, text = value
        ledger.check("cli extinction", code == 0, f"exit code {code}")
        if "converged=True" not in text:
            ledger.not_converged("cli extinction", "line_ex45 extinction iteration")
        rows = _read_csv(os.path.join(ctx.op_dir("cli extinction"), "extinction.csv"))
        ledger.check("cli extinction", len(rows) == 64
                     and all(0.0 <= float(r["qbar"]) <= 1.0 for r in rows),
                     "extinction vector outside [0, 1]")
        check_digests(ctx, ledger, "cli extinction", ("extinction.csv",), golden)
    done, value = ok("cli spectral")
    if done:
        code, text = value
        ledger.check("cli spectral", code == 0, f"exit code {code}")
        local = float(text.split("local growth at 0: ")[1].split()[0])
        oracle = 1.5 * math.cos(math.pi / 26)
        ledger.check("cli spectral", abs(local - oracle) <= 1e-4,
                     f"local growth {local} != 1.5 cos(pi/26) = {oracle}")
        check_digests(ctx, ledger, "cli spectral", ("growth.csv",), golden)
    done, value = ok("critical gw extinction")
    if done:
        q, diag = value
        ledger.check("critical gw extinction", 0.999 <= q[0] <= 1.0,
                     f"critical extinction iterate {q[0]} outside [0.999, 1]")
        if not diag.converged:
            ledger.not_converged("critical gw extinction",
                                 f"{diag.iterations} iterations, q = {q[0]!r}")
    prev = 0.0
    for K in LADDER:
        op = f"ladder {K}"
        done, value = ok(op)
        if not done:
            continue
        est, (q, diag) = value
        ledger.check(op, abs(est.value - 2.0) <= 0.1, f"growth {est.value}, not 2")
        if not diag.converged:
            ledger.not_converged(op, "extinction iteration")
        ledger.check(op, 0.99 < q[0] and q[0] >= prev - 1e-12, f"qbar {q[0]} after {prev}")
        prev = float(q[0])
    done, value = ok("ex45 subsolution")
    if done:
        ledger.check("ex45 subsolution", value.accepted and value.max_violation <= 1e-10,
                     f"certificate rejected (violation {value.max_violation})")
    for i, root in enumerate(ctx.oracles["perron"]):
        op = f"perron {i}"
        done, rep = ok(op)
        if not done:
            continue
        if not rep.local_growth.converged:
            ledger.not_converged(op, "local growth")
        if abs(root - 1.0) > 1e-3:
            want = "survives" if root > 1.0 else "dies"
            ledger.check(op, rep.local == want, f"local {rep.local}, dense Perron root {root}")
    done, value = ok("seneta")
    if done:
        vals = [e.value for e in value]
        for r, v in zip(range(1, SENETA_RADIUS + 1), vals):
            ledger.check("seneta", abs(v - 1.5 * math.cos(math.pi / (2 * r + 2))) <= 1e-4,
                         f"radius {r}: growth {v}")
        ledger.check("seneta", all(b >= a - 1e-9 for a, b in zip(vals, vals[1:])),
                     "window growth not monotone")
    for i in range(len(ctx.models["green"])):
        done, value = ok(f"green {i}")
        if done:
            phi, gamma = value
            ledger.check(f"green {i}", abs(gamma * (1.0 - phi) - 1.0) <= 1e-8,
                         f"Gamma (1 - Phi) = {gamma * (1.0 - phi)}")
    done, value = ok("drift identity")
    if done:
        ledger.check("drift identity",
                     all(abs(q - d.rho_bar) <= 1e-12
                         for q, d in zip(value, ctx.models["drift_identity"])),
                     "Q(p - q, p) != rho_bar")
    for i in range(len(ctx.models["drift_regions"])):
        op = f"drift region {i}"
        done, region = ok(op)
        if not done:
            continue
        ledger.check(op, region.integers is not None, "no integer directions")
        if region.integers is not None:
            d1, d2, d3, N = region.integers
            a1, a2, b1, b2 = region.rectangle
            ledger.check(op, a1 * N <= d1 < d2 <= a2 * N and b1 * N <= d3 <= b2 * N,
                         f"integers {region.integers} outside {region.rectangle}")
    done, value = ok("chebyshev")
    if done:
        good = True
        for k, (s2, D, eps) in zip(value, ctx.models["chebyshev"]):
            good &= s2 / (D * D * k + s2) <= eps * (1 + 1e-12)
            if k >= 1:
                good &= s2 / (D * D * (k - 1) + s2) > eps * (1 - 1e-12)
        ledger.check("chebyshev", good, "returned k is not minimal")
    done, res = ok("lambda sweep")
    if done:
        lam_s = 1.0 / ctx.oracles["tree_root"]
        ledger.check("lambda sweep", abs(res.lambda_s - lam_s) <= n["lam_width"],
                     f"lambda_s {res.lambda_s} != 1/rho(K) = {lam_s}")
        ledger.check("lambda sweep", abs(res.lambda_w - 0.25) <= max(0.01, n["lam_width"]),
                     f"lambda_w {res.lambda_w} != 1/4")
        ledger.check("lambda sweep", res.monotone, "qbar not monotone in lambda")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SETUP = {"sweep": _setup_sweep, "replicas": _setup_replicas, "analytic": _setup_analytic}
_OPS = {"sweep": _ops_sweep, "replicas": _ops_replicas, "analytic": _ops_analytic}
_VERIFY = {"sweep": _verify_sweep, "replicas": _verify_replicas, "analytic": _verify_analytic}


def setup(workload, seed, size, out) -> Context:
    """Import brwlab and build the workload's models: the set-up a user pays."""
    bl = load_brwlab()
    models = _SETUP[workload](bl, seed, SIZES[size])
    return Context(workload, seed, size, out, bl, models)


def ops(ctx):
    return _OPS[ctx.workload](ctx)


def verify(ctx, results, first, ledger, golden):
    ledger.begin(results)
    try:
        _VERIFY[ctx.workload](ctx, results, first, ledger, golden)
    except Exception as exc:  # output the checks cannot read is incorrect output
        ledger.problems.append(f"verify: {type(exc).__name__}: {exc}")
    ledger.end()
