"""Line-oriented model serialization and content hashing.

One line per (vertex, atom, probability) for explicit laws, with the sparse
configuration as ``v:count`` pairs; factorized laws are written as their
child-count row plus dispersal row instead of being enumerated.  The header
records scenario metadata.  Output is deterministic, so the digest doubles
as a content address for experiment manifests; the text is only hashed,
never read back.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os

from .core import BrwModel

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
