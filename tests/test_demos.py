"""Smoke runs of the demos, so a public signature change that breaks one shows here."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_extinction_fixed_points.py",
                                  "02_growth_rates_and_series.py",
                                  "03_survival_classification.py",
                                  "04_monte_carlo_and_couplings.py",
                                  "05_drift_program.py",
                                  "06_oriented_percolation.py",
                                  "07_tree_critical_rates.py"])
def test_demo_runs(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert out.getvalue().strip()
