"""Configuration-driven command line front end.

Subcommands: classify, extinction, spectral, spatial, sweep, percolate,
scenarios.  Options are `key = value` items from BRWLAB_SEED, a config
file, --set and the flags, later ones winning; every key is declared once,
in _KEYS.  CSV bodies are byte-identical across repeated runs; the
timestamp lives only in the manifest.

Exit codes: 0 ok, 1 invalid configuration or usage, 2 scenario error,
3 at least one trial hit the population hard cap (results still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import approx, genfun, scenarios, spectral
from .core import ModelError, _real, _whole
from .serialize import write_manifest
from .simulate import _cap_label, _caps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_OVERFLOW = 3


class UsageError(ModelError):
    """Bad flags or configuration, as opposed to a failing scenario build."""


def _parse_value(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


_ANY = partial(_whole, least=-math.inf)
_TEXT = partial(scenarios._typed, str)


def _radii(value, what):
    return [_whole(r, 0, what) for r in scenarios._typed(list, value, what)]


def _cap_list(value, what):
    """A list of caps, one cap, or the --caps text 1,2,inf; simulate._caps reads each cap."""
    if isinstance(value, str):
        value = [math.inf if c.strip() in ("inf", "Inf") else _parse_value(c)
                 for c in value.split(",")]
    return _caps(value if isinstance(value, list) else [value])


# every top-level config key: key -> (reader, default).  A reader is called as
# read(value, what=key) on each value that is not None and raises ModelError.
# x0 and target default to the model's vertices.
_KEYS = dict(
    scenario=(_TEXT, None), seed=(partial(_whole, least=0, below=2 ** 64), 0), horizon=(_ANY, 100),
    replicas=(partial(_whole, least=1), 200), caps=(_cap_list, (1, 2, 4, 8)), target=(_ANY, None),
    x0=(_ANY, None), p=(partial(_real, least=0), 0.7), out=(_TEXT, "brwlab_out"),
    hard_cap=(_ANY, 10 ** 6), width=(_ANY, None), radii=(_radii, None), base=(_TEXT, "z"))

# the keys that have a flag, --<key>
_FLAGS = ("scenario", "seed", "horizon", "replicas", "caps", "target", "x0", "p", "out")


def _items(args):
    """The run's (key, value) items in override order: BRWLAB_SEED, the config
    file's `key = value` lines ('#' starts a comment), each --set, the flags.
    Values are JSON where they parse, but the flag of a text key keeps its
    text."""
    if os.environ.get("BRWLAB_SEED"):
        yield "seed", _parse_value(os.environ["BRWLAB_SEED"])
    lines = []
    if args.config:
        with open(args.config) as fh:
            lines = [line for raw in fh if (line := raw.split("#", 1)[0].strip())]
    for text in lines + (args.set or []):
        key, eq, value = text.partition("=")
        if not eq:
            raise UsageError(f"need key = value, got {text!r}")
        yield key.strip(), _parse_value(value.strip())
    for key in _FLAGS:
        text = getattr(args, key)
        if text is not None:
            yield key, text if _KEYS[key][0] is _TEXT else _parse_value(text)


def _merge_config(args) -> dict:
    """Every key of _KEYS, read once (None selects the default), and the
    param.<name> items; any other key is a UsageError."""
    cfg = dict(_items(args))
    for key in cfg:
        if key not in _KEYS and not key.startswith("param."):
            raise UsageError(f"unknown key {key!r}: the keys are {', '.join(_KEYS)} "
                             "and param.<name>")
    for key, (read, default) in _KEYS.items():
        value = cfg.get(key)
        try:
            cfg[key] = default if value is None else read(value, what=key)
        except ModelError as exc:
            raise UsageError(str(exc)) from None
    return cfg


def _build(cfg):
    name = cfg["scenario"]
    if not name:
        raise UsageError("a scenario name is required (use --scenario)")
    return scenarios.build_scenario(
        name, {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("param.")})


def _vertex(cfg, model, key, default):
    """The vertex a config key names (``default`` when unset); UsageError if
    the model has no such vertex."""
    v = cfg[key]
    if v is None:
        return default
    if v not in model.index:
        raise UsageError(f"{key}={v!r} is not a vertex of the model")
    return v


def _x0(cfg, model):
    return _vertex(cfg, model, "x0", 0 if 0 in model.index else model.vertices[0])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scenarios(args) -> int:
    for name, params, notes in scenarios.scenario_table():
        print(name)
        for key, (kind, default, desc) in params.items():
            print(f"    {key} ({kind}, default {json.dumps(default)}): {desc}")
        print(f"    -- {notes}")
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    report = genfun.classify_survival(model, x0)
    qx = report.global_evidence.get("qbar_x0")
    if qx is None:  # the verdict came from a growth rate, not a solve
        q, _ = genfun.iterate_extinction(model, "global")
        qx = float(q[model.index[x0]])
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    approx.write_csv(os.path.join(out, "classify_evidence.csv"),
                     ("series", "n", "term"), report.evidence_csv_rows())
    with open(os.path.join(out, "classify.txt"), "w") as fh:
        fh.write(report.to_text() + "\n")
        fh.write(f"qbar_x0 {qx!r}\n")
    print(report.to_text())
    print(f"  qbar(x0) = {qx:.6g}   [model {h}]")
    return EXIT_OK


def cmd_extinction(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    q, diag = genfun.iterate_extinction(model, "global")
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    approx.write_csv(os.path.join(out, "extinction.csv"), ("vertex", "qbar"),
                     [(v, repr(float(q[model.index[v]]))) for v in model.vertices])
    print(f"extinction fixed point after {diag.iterations} iterations "
          f"({diag.iterations - diag.newton_steps} Kleene + {diag.newton_steps} Newton, "
          f"residual {diag.residual:.2e}, converged={diag.converged}) [model {h}]")
    print(f"  qbar({x0}) = {q[model.index[x0]]:.8g}")
    return EXIT_OK


def cmd_spectral(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    M = spectral.moment_matrix(model)
    local = spectral.local_growth_rate(M, x0)
    glob = spectral.global_growth_rate(M, x0)
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    rows = [("local", n, repr(t), 1) for n, t in local.sequence]
    rows += [("global", n, repr(t), 1) for n, t in glob.sequence]
    approx.write_csv(os.path.join(out, "growth.csv"),
                     ("series", "n", "term", "on_subsequence"), rows)
    print(f"local growth at {x0}: {local.value:.6g} ({local.subsequence_rule}, "
          f"converged={local.converged})")
    print(f"global growth at {x0}: {glob.value:.6g} (converged={glob.converged}) [model {h}]")
    return EXIT_OK


def cmd_spatial(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    radii = cfg["radii"] or sorted({max(1, model.size // 8), max(2, model.size // 4),
                                        model.size // 2, model.size})
    exhaustion = approx.ball_exhaustion(model, x0, radii)
    result = approx.spatial_experiment(model, exhaustion, x0)
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    header, rows = result.csv_rows()
    approx.write_csv(os.path.join(out, "spatial.csv"), header, rows)
    print(f"full-window growth {result.full_growth:.6g} ({result.full_verdict}) [model {h}]")
    for row in result.rows:
        bracket = (f" in [{row.bracket[0]:.15g}, {row.bracket[1]:.15g}]"
                   if row.bracket else "")
        print(f"  window {row.index} (|V|={row.window_size}): growth {row.growth:.6g}"
              f"{bracket} -> {row.verdict}")
    if result.first_surviving_index is not None:
        print(f"  first surviving window index: {result.first_surviving_index}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    target = _vertex(cfg, model, "target", x0)
    result = approx.truncation_sweep(
        model, cfg["caps"], {x0: 1}, cfg["horizon"], cfg["replicas"], target=target,
        seed=cfg["seed"], hard_cap=cfg["hard_cap"])
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    header, rows = result.csv_rows()
    approx.write_csv(os.path.join(out, "sweep.csv"), header, rows)
    header, rows = result.per_replica_rows()
    approx.write_csv(os.path.join(out, "replicas.csv"), header, rows)
    print(f"cap sweep, {result.replicas} replicas, horizon {result.horizon} [model {h}]")
    overflow = 0
    for row in result.rows:
        overflow += row.overflow_count
        print(f"  m={_cap_label(row.cap)}: alive {row.alive_frequency:.4f} "
              f"[{row.ci[0]:.4f}, {row.ci[1]:.4f}] visits {row.visit_frequency:.4f}")
    if overflow:
        print(f"  note: {overflow} trials hit the hard cap and count as alive")
        return EXIT_OVERFLOW
    return EXIT_OK


def cmd_percolate(args) -> int:
    cfg = _merge_config(args)
    config = approx.PercolationConfig(p=cfg["p"], horizon=cfg["horizon"], base=cfg["base"],
                                      width=cfg["width"])
    result = approx.oriented_percolation(config, cfg["replicas"], seed=cfg["seed"])
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    approx.write_csv(os.path.join(out, "percolation.csv"),
                     ("replica", "revisits"),
                     list(enumerate(result.revisit_counts.tolist())))
    print(f"oriented percolation p={config.p} horizon={config.horizon}: "
          f"survival {result.frequency:.4f} [{result.ci[0]:.4f}, {result.ci[1]:.4f}], "
          f"mean revisits {result.revisit_mean:.2f}")
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "extinction": cmd_extinction,
    "spectral": cmd_spectral,
    "spatial": cmd_spatial,
    "sweep": cmd_sweep,
    "percolate": cmd_percolate,
    "scenarios": cmd_scenarios,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brwlab",
        description="branching random walk laboratory: classification, spectra, "
                    "Monte Carlo sweeps and percolation sanity checks")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable); scenario "
                            "parameters use param.<name>")
        for key in _FLAGS:
            p.add_argument(f"--{key}")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_help()
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
