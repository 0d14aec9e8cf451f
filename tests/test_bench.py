"""The benchmark's traced analytic run, end to end in a fresh process.

``bench/tracing.py`` reads private names of the library (``MomentMatrix.
_strong_labels``, ``.index`` and ``.csr``, the ``M`` and ``x0`` parameters of
the growth functions), and the run checks the analytic golden digests at seed
0, so a rename or a moved byte fails here rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_analytic_run_is_correct():
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "analytic",
         "--size", "tiny", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads([ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["spectral.power_steps"]["value"] > 0
