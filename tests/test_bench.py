"""The benchmark's traced tiny runs, end to end in a fresh process.

``bench/tracing.py`` reads private names of the library (``MomentMatrix.
_strong_labels``, ``.index`` and ``.csr``, the ``M`` and ``x0`` parameters of
the growth functions, the Monte Carlo entry points), and each run checks the
workload's tiny golden digests at seed 0, so a rename or a moved byte fails
here rather than only in the benchmark.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload, counter", [("analytic", "spectral.power_steps"),
                                               ("sweep", "simulate.particles"),
                                               ("replicas", "simulate.particles")],
                         ids=["analytic", "sweep", "replicas"])
def test_traced_tiny_run_is_correct(workload, counter):
    out = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--size", "tiny", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads([ln for ln in out.stdout.splitlines() if ln.startswith("{")][-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"][counter]["value"] > 0
