"""Line-oriented model serialization and content hashing.

One line per (vertex, atom, probability) for explicit laws, with the sparse
configuration as ``v:count`` pairs; factorized laws are written as their
child-count row plus dispersal row instead of being enumerated.  The header
records scenario metadata.  Output is deterministic, so the digest doubles
as a content address for experiment manifests.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os

from .core import BrwModel, IntDistribution, ModelError, OffspringConfig, OffspringLaw, ProductForm

FORMAT_LINE = "brwmodel 1"


def _fmt(x: float) -> str:
    return repr(float(x))


def params_json(model: BrwModel) -> str:
    return json.dumps(model.params, sort_keys=True, default=str)


def serialize_model(model: BrwModel) -> str:
    lines = [FORMAT_LINE,
             f"scenario {model.name or '-'}",
             "params " + params_json(model)]
    lines.append("vertices " + " ".join(str(v) for v in model.vertices))
    for v in model.vertices:
        law = model.laws[v]
        if law.product is not None:
            pf = law.product
            lines.append(f"law {v} product")
            lines.append("rho " + " ".join(f"{int(v)}:{_fmt(p)}"
                                            for v, p in zip(pf.rho.values, pf.rho.probs)))
            lines.append("disp " + " ".join(f"{t}:{_fmt(w)}" for t, w in zip(pf.targets, pf.weights)))
        else:
            atoms = law.atoms
            lines.append(f"law {v} atoms {len(atoms)}")
            for cfg, p in sorted(atoms, key=lambda a: a[0].entries):
                pairs = " ".join(f"{u}:{c}" for u, c in cfg.entries)
                lines.append(f"atom {_fmt(p)} {pairs}".rstrip())
    return "\n".join(lines) + "\n"


def _fields(lines, i, key):
    """The text after line i's keyword; ModelError unless that keyword is ``key``."""
    line = lines[i] if i < len(lines) else "(end of text)"
    word, _, rest = line.partition(" ")
    if word != key:
        raise ModelError(f"expected a line starting {key!r}, got {line!r}")
    return rest


def parse_model(text: str) -> BrwModel:
    """Read a model back from ``serialize_model`` text; malformed text raises ModelError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_LINE:
        raise ModelError("not a serialized model (bad format line)")
    try:
        return _parse_body(lines)
    except (IndexError, ValueError) as exc:   # ModelError and JSONDecodeError included
        raise ModelError(f"malformed model text: {exc}") from exc


def _parse_body(lines) -> BrwModel:
    name = _fields(lines, 1, "scenario")
    params = json.loads(_fields(lines, 2, "params"))
    if not isinstance(params, dict):
        raise ModelError("model params must be a JSON object")
    vertices = tuple(int(t) for t in _fields(lines, 3, "vertices").split())
    laws = {}
    i = 4
    while i < len(lines):
        head = _fields(lines, i, "law").split()
        v = int(head[0])
        if head[1] == "product":
            pairs = [t.split(":") for t in _fields(lines, i + 1, "rho").split()]
            # written probabilities that sum to 1 are kept bit for bit, so a
            # parsed model serializes to the text it was read from
            rho = IntDistribution._from_values([int(v) for v, _ in pairs],
                                               [float(p) for _, p in pairs], True, True)
            disp = {}
            for pair in _fields(lines, i + 2, "disp").split():
                t, w = pair.split(":")
                disp[int(t)] = float(w)
            laws[v] = OffspringLaw(product=ProductForm(
                rho, tuple(sorted(disp)), tuple(disp[t] for t in sorted(disp))))
            i += 3
        else:
            count = int(head[2])
            atoms = []
            for j in range(count):
                parts = _fields(lines, i + 1 + j, "atom").split()
                p = float(parts[0])
                cfg = {}
                for pair in parts[1:]:
                    u, c = pair.split(":")
                    cfg[int(u)] = int(c)
                atoms.append((OffspringConfig.make(cfg), p))
            laws[v] = OffspringLaw(atoms=tuple(atoms))
            i += 1 + count
    return BrwModel(vertices, laws, name="" if name == "-" else name, params=params)


def model_hash(model: BrwModel) -> str:
    return hashlib.sha256(serialize_model(model).encode()).hexdigest()[:12]


def write_manifest(out_dir, model: BrwModel, seed) -> str:
    """Write out_dir/manifest.txt (the only file holding a timestamp); return the model hash."""
    h = model_hash(model)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write(f"scenario {model.name}\n")
        fh.write(f"params {params_json(model)}\n")
        fh.write(f"seed {seed}\n")
        fh.write(f"model_hash {h}\n")
        fh.write(f"generated {datetime.datetime.now().isoformat()}\n")
    return h
