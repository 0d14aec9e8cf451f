"""Configuration-driven command line front end.

Subcommands: classify, extinction, spectral, spatial, sweep, percolate,
scenarios.  Options come from an optional flat key=value config file with
command-line overrides winning; the seed may also arrive via BRWLAB_SEED
(command line wins).  CSV bodies are byte-identical across repeated runs;
the timestamp lives only in the manifest.

Exit codes: 0 ok, 1 invalid configuration or usage, 2 scenario error,
3 at least one trial hit the population hard cap (results still written).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import approx, genfun, scenarios, spectral
from .core import ModelError
from .serialize import params_json, write_manifest
from .simulate import _cap_label

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


def read_config_file(path) -> dict:
    """Flat `key = value` lines; '#' comments; values parsed as JSON when possible."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line (need key = value): {raw.rstrip()!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = _parse_value(val.strip())
    return out


# the numeric config keys and their types; "radii" is a list of whole numbers
_NUMBERS = dict(replicas=int, horizon=int, hard_cap=int, seed=int, p=float, width=int, radii=int)


def _number(key, value):
    """``value`` of the numeric config key ``key`` as its type; UsageError otherwise."""
    kind = _NUMBERS[key]
    if isinstance(value, bool) or not isinstance(value, (int, kind)):   # JSON: int or float
        raise UsageError(f"{key} must be a {'whole ' * (kind is int)}number, got {value!r}")
    return kind(value)


def _merge_config(args) -> dict:
    cfg = {}
    if args.config:
        cfg.update(read_config_file(args.config))
    for item in args.set or []:
        if "=" not in item:
            raise UsageError(f"--set needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg[key.strip()] = _parse_value(val.strip())
    for key in ("scenario", "horizon", "replicas", "seed", "out", "target",
                "x0", "caps", "p"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("seed", _parse_value(os.environ.get("BRWLAB_SEED") or "0"))
    cfg.setdefault("out", "brwlab_out")
    for key in (k for k in _NUMBERS if k in cfg):
        val = cfg[key]
        if key == "radii" and not isinstance(val, list):
            raise UsageError(f"radii must be a list of whole numbers, got {val!r}")
        cfg[key] = [_number(key, r) for r in val] if key == "radii" else _number(key, val)
    if cfg.get("replicas", 1) < 1:
        raise UsageError("replicas must be at least 1")
    return cfg


def _scenario_params(cfg) -> dict:
    return {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("param.")}


def _build(cfg):
    name = cfg.get("scenario")
    if not name:
        raise UsageError("a scenario name is required (use --scenario)")
    return scenarios.build_scenario(name, _scenario_params(cfg))


def _x0(cfg, model):
    x0 = cfg.get("x0")
    if x0 is None:
        return 0 if 0 in model.index else model.vertices[0]
    if x0 not in model.index:
        raise UsageError(f"x0={x0!r} is not a vertex of the model")
    return x0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_scenarios(args) -> int:
    for name, schema, notes in scenarios.scenario_table():
        print(name)
        for key, desc in schema.items():
            print(f"    {key}: {desc}")
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
    radii = cfg.get("radii") or sorted({max(1, model.size // 8), max(2, model.size // 4),
                                        model.size // 2, model.size})
    exhaustion = approx.ball_exhaustion(model, x0, radii)
    result = approx.spatial_experiment(model, exhaustion, x0)
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    header, rows = result.csv_rows()
    approx.write_csv(os.path.join(out, "spatial.csv"), header, rows)
    print(f"full-window growth {result.full_growth:.6g} ({result.full_verdict}) [model {h}]")
    for row in result.rows:
        print(f"  window {row.index} (|V|={row.window_size}): growth {row.growth:.6g} "
              f"-> {row.verdict}")
    if result.first_surviving_index is not None:
        print(f"  first surviving window index: {result.first_surviving_index}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _merge_config(args)
    model = _build(cfg)
    x0 = _x0(cfg, model)
    caps = cfg.get("caps", [1, 2, 4, 8])
    if isinstance(caps, str):
        try:
            caps = [math.inf if c.strip() in ("inf", "Inf") else int(c)
                    for c in caps.split(",")]
        except ValueError:
            raise UsageError(f"bad caps list {caps!r} (use e.g. 1,2,4 or inf)")
    if not caps:
        raise UsageError("the caps list must not be empty")
    result = approx.truncation_sweep(
        model, caps, {x0: 1}, cfg.get("horizon", 100), cfg.get("replicas", 200),
        target=cfg.get("target", x0), seed=cfg["seed"], hard_cap=cfg.get("hard_cap", 10 ** 6))
    out = cfg["out"]
    h = write_manifest(out, model, cfg["seed"])
    header, rows = result.csv_rows()
    approx.write_csv(os.path.join(out, "sweep.csv"), header, rows)
    header, rows = result.per_replica_rows()
    approx.write_csv(os.path.join(out, "replicas.csv"), header, rows)
    header, rows = result.summary_rows(model.name, params_json(model))
    approx.write_csv(os.path.join(out, "summary.csv"), header, rows)
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
    config = approx.PercolationConfig(
        p=cfg.get("p", 0.7), horizon=cfg.get("horizon", 100), base=cfg.get("base", "z"),
        width=cfg.get("width"))
    result = approx.oriented_percolation(config, cfg.get("replicas", 200), seed=cfg["seed"])
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
        p.add_argument("--scenario")
        p.add_argument("--seed", type=int)
        p.add_argument("--horizon", type=int)
        p.add_argument("--replicas", type=int)
        p.add_argument("--caps")
        p.add_argument("--target", type=int)
        p.add_argument("--x0", type=int)
        p.add_argument("--p", type=float)
        p.add_argument("--out")
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
