import hashlib
import json
import pathlib

import pytest

from brwlab.cli import EXIT_USAGE, main


def run_cli(args):
    return main(args)


def _golden(workload) -> dict:
    """The seed-0 CSV digests of one benchmark workload."""
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden.json"
    return json.loads(path.read_text())["full"][workload]


class TestScenarios:
    def test_lists_all_names(self, capsys):
        assert run_cli(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("gw", "line_noext", "line_ex45", "zd_translation",
                     "tree_counterpart", "zdrift"):
            assert name in out

    def test_stable_ordering(self, capsys):
        run_cli(["scenarios"])
        first = capsys.readouterr().out
        run_cli(["scenarios"])
        second = capsys.readouterr().out
        assert first == second


class TestClassify:
    def test_gw_digest(self, tmp_path, capsys):
        code = run_cli(["classify", "--scenario", "gw",
                        "--set", 'param.rho={"0": 0.25, "2": 0.75}',
                        "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "local   : survives" in out
        assert "qbar(x0) = 0.333333" in out
        assert (tmp_path / "classify_evidence.csv").exists()
        assert (tmp_path / "manifest.txt").exists()
        lines = (tmp_path / "classify.txt").read_text().splitlines()
        value = [ln for ln in lines if ln.startswith("qbar_x0 ")][0].split(" ", 1)[1]
        assert abs(float(value) - 1 / 3) <= 1e-8

    def test_evidence_body_matches_bench_golden(self, tmp_path, capsys):
        code = run_cli(["classify", "--scenario", "gw", "--set", 'param.rho={"0":0.25,"2":0.75}',
                        "--out", str(tmp_path)])
        assert code == 0
        digest = hashlib.sha256((tmp_path / "classify_evidence.csv").read_bytes()).hexdigest()
        assert digest == "748ac9cc24dd48a9eb80fa300b6e84acd20e3d13c9b1a236b8362b01e956688f"
        assert digest == _golden("analytic")["cli classify/classify_evidence.csv"]

    @pytest.mark.parametrize("scenario, method", [("line_ex45", "fixed-point"),
                                                  ("gw", "finite-irreducible")])
    def test_solves_once(self, scenario, method, tmp_path, capsys, monkeypatch):
        from brwlab import genfun

        calls = []
        solve = genfun.iterate_extinction
        monkeypatch.setattr(genfun, "iterate_extinction",
                            lambda *a, **k: calls.append(a) or solve(*a, **k))
        assert run_cli(["classify", "--scenario", scenario, "--out", str(tmp_path)]) == 0
        assert f"via {method}" in capsys.readouterr().out
        assert len(calls) == 1

    @pytest.mark.parametrize("scenario, settings, want", [
        ("gw", ["--set", 'param.rho={"0":0.25,"2":0.75}'],
         "4e1c6e4970712d6d9a7cb7b99010780b337c96ccd19797916130cfc43fdf6f3f"),
        ("line_ex45", [], "e1d11764402781394634d4367edef2361bea4c3db4a288f2708fb3182c6745ab"),
    ], ids=["gw", "line_ex45"])
    def test_report_bytes_pinned(self, scenario, settings, want, tmp_path, capsys):
        # sha256 of classify.txt (it holds no timestamp), recorded before the
        # report lost its strong-local field
        assert run_cli(["classify", "--scenario", scenario, *settings, "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "classify.txt").read_bytes()).hexdigest() == want

    @pytest.mark.parametrize("lam", ["1e17", "nan", "Infinity"])
    def test_unbuildable_geometric_exit_two(self, lam, tmp_path, capsys):
        code = run_cli(["classify", "--scenario", "tree_counterpart", "--set", f"param.lam={lam}",
                        "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestExtinction:
    def test_writes_vector(self, tmp_path, capsys):
        code = run_cli(["extinction", "--scenario", "gw", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "extinction.csv").read_text()
        assert body.startswith("vertex,qbar")

    def test_line_ex45_body_matches_bench_golden(self, tmp_path, capsys):
        want = _golden("analytic")["cli extinction/extinction.csv"]
        code = run_cli(["extinction", "--scenario", "line_ex45", "--set", "param.size=64",
                        "--out", str(tmp_path)])
        assert code == 0
        assert "converged=True" in capsys.readouterr().out
        assert hashlib.sha256((tmp_path / "extinction.csv").read_bytes()).hexdigest() == want

    def test_gw_body_pinned(self, tmp_path, capsys):
        # sha256 recorded before the solver gained its Newton phase
        assert run_cli(["extinction", "--scenario", "gw", "--out", str(tmp_path)]) == 0
        assert hashlib.sha256((tmp_path / "extinction.csv").read_bytes()).hexdigest() == (
            "23580a035912b28c2ce48fccc8bcaedf328774cf290a306451fc8947e3d4b7e8")

    def test_unknown_x0_writes_nothing(self, tmp_path, capsys):
        code = run_cli(["extinction", "--scenario", "gw", "--x0", "7", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "x0=7" in capsys.readouterr().err
        assert not (tmp_path / "extinction.csv").exists()
        assert not (tmp_path / "manifest.txt").exists()


class TestPercolate:
    def test_body_matches_bench_golden(self, tmp_path, capsys):
        want = _golden("replicas")["cli percolate/percolation.csv"]
        code = run_cli(["percolate", "--set", "p=0.7", "--horizon", "150", "--replicas", "100",
                        "--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert hashlib.sha256((tmp_path / "percolation.csv").read_bytes()).hexdigest() == want

    def test_p_one(self, tmp_path, capsys):
        code = run_cli(["percolate", "--set", "p=1.0", "--horizon", "15",
                        "--replicas", "5", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "survival 1.0000" in out
        assert (tmp_path / "percolation.csv").exists()


class TestSweepDeterminism:
    def test_identical_csv_bodies(self, tmp_path, capsys):
        args = ["sweep", "--scenario", "zd_translation", "--set", "param.radius=4",
                "--caps", "1,2", "--horizon", "25", "--replicas", "40",
                "--seed", "9", "--set", "hard_cap=10000"]
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--out", str(a_dir)]) in (0, 3)
        assert run_cli(args + ["--out", str(b_dir)]) in (0, 3)
        assert (a_dir / "sweep.csv").read_bytes() == (b_dir / "sweep.csv").read_bytes()
        assert (a_dir / "replicas.csv").read_bytes() == (b_dir / "replicas.csv").read_bytes()

    def test_csv_bodies_pinned(self, tmp_path, capsys):
        # sha256 of the bodies recorded before the stepping engines were merged
        code = run_cli(["sweep", "--scenario", "zd_translation", "--set", "param.radius=4",
                        "--caps", "1,2,inf", "--horizon", "30", "--replicas", "12",
                        "--seed", "11", "--set", "hard_cap=5000", "--out", str(tmp_path)])
        assert code == 3
        digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                  for name in ("sweep.csv", "replicas.csv")}
        assert digest == {
            "sweep.csv": "1fba46d3ca8f1064268def3296a0a17e60b6e6233a02e281457a7f6e6dc06fd2",
            "replicas.csv": "449314612bd7c1a07d4dd96c177733ea5566affc40ca3d2dea49e9554379fe50",
        }

    def test_bench_bodies_match_bench_golden(self, tmp_path, capsys):
        want = _golden("sweep")
        code = run_cli(["sweep", "--scenario", "zd_translation", "--set", "param.radius=20",
                        "--caps", "1,2,4,8", "--horizon", "100", "--replicas", "10",
                        "--seed", "7", "--out", str(tmp_path)])
        assert code == 3
        for name in ("sweep.csv", "replicas.csv"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == want[f"cli sweep/{name}"], name

    def test_writes_manifest_and_two_tables(self, tmp_path, capsys):
        code = run_cli(["sweep", "--scenario", "zd_translation", "--set", "param.radius=4",
                        "--caps", "1,2", "--horizon", "10", "--replicas", "5",
                        "--out", str(tmp_path)])
        assert code in (0, 3)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "manifest.txt", "replicas.csv", "sweep.csv"]

    def test_overflow_exit_code(self, tmp_path, capsys):
        code = run_cli(["sweep", "--scenario", "gw",
                        "--set", 'param.rho={"2": 1.0}',
                        "--caps", "2", "--horizon", "50", "--replicas", "5",
                        "--set", "hard_cap=100", "--out", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "sweep.csv").exists()

    def test_unknown_target_writes_nothing(self, tmp_path, capsys):
        # the same exit code as an unknown --x0
        code = run_cli(["sweep", "--scenario", "gw", "--target", "5", "--caps", "1",
                        "--horizon", "5", "--replicas", "2", "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert "target=5" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "manifest.txt").exists()


class TestConfigFile:
    def test_file_plus_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario = gw\n# comment\nparam.rho = {\"0\": 0.4, \"2\": 0.6}\n")
        code = run_cli(["extinction", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "0.6666" in out

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BRWLAB_SEED", "1234")
        code = run_cli(["percolate", "--set", "p=0.5", "--horizon", "20",
                        "--replicas", "10", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("line", ["horizn = 5", "caps = [2, 2.5]", "caps = [true]"],
                             ids=["unknown-key", "fractional-cap", "bool-cap"])
    @pytest.mark.parametrize("source", ["--set", "--config"])
    def test_refused_item_writes_nothing(self, source, line, tmp_path, capsys):
        # an unknown key was dropped without a word, [2, 2.5] printed two m=2
        # rows and true ran as cap 1
        value = line
        if source == "--config":
            value = tmp_path / "run.cfg"
            value.write_text(f"scenario = gw\n{line}\n")
        out = tmp_path / "out"
        code = run_cli(["sweep", "--scenario", "gw", source, str(value), "--horizon", "3",
                        "--replicas", "2", "--out", str(out)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("setting", ["out=5", "scenario=[1]", "base=[1]"])
    def test_text_key_refuses_other_values(self, setting, tmp_path, capsys, monkeypatch):
        # out=5 and scenario=[1] ended in a TypeError traceback
        monkeypatch.chdir(tmp_path)
        code = run_cli(["extinction", "--set", "scenario=gw", "--set", setting])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_null_selects_the_default(self, tmp_path, capsys):
        code = run_cli(["percolate", "--set", "p=null", "--set", "horizon=null", "--replicas", "2",
                        "--out", str(tmp_path)])
        assert code == 0
        assert "p=0.7 horizon=100:" in capsys.readouterr().out

    def test_cap_forms_agree(self, tmp_path, capsys):
        # --caps text, a --set list and whole-valued floats all reach simulate._caps
        bodies = []
        for i, caps in enumerate([["--caps", "1,2,inf"], ["--caps", "1, 2"],
                                  ["--set", "caps=[1, 2]"], ["--set", "caps=[1.0, 2e0, null]"]]):
            out = tmp_path / str(i)
            assert run_cli(["sweep", "--scenario", "zd_translation", "--set", "param.radius=3",
                            *caps, "--horizon", "6", "--replicas", "4", "--out", str(out)]) == 0
            bodies.append([(out / name).read_bytes() for name in ("sweep.csv", "replicas.csv")])
        assert bodies[0] == bodies[1] == bodies[2] == bodies[3]

    def test_bad_config_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario gw\n")
        assert run_cli(["extinction", "--config", str(cfg)]) == 1


class TestErrors:
    def test_unknown_command_usage(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["frobnicate"])

    def test_no_command_prints_help(self, capsys):
        assert run_cli([]) == 1
        assert "brwlab" in capsys.readouterr().out

    def test_unknown_scenario_exit_two(self, capsys):
        assert run_cli(["classify", "--scenario", "bogus"]) == 2

    def test_bad_param_exit_two(self, capsys):
        assert run_cli(["classify", "--scenario", "zdrift",
                        "--set", "param.p=0.9", "--set", "param.q=0.8"]) == 2

    @pytest.mark.parametrize("command, setting", [
        ("sweep", "replicas=abc"),
        ("sweep", "horizon=abc"),
        ("sweep", "hard_cap=abc"),
        ("percolate", "seed=abc"),
        ("percolate", "p=abc"),
        ("percolate", "width=abc"),
        ("spatial", "radii=abc"),
        ("percolate", "horizon=2.5"),
        ("sweep", "target=[1]"),
        ("sweep", "x0=[1]"),
        ("sweep", "seed=-1"),
        ("percolate", "seed=18446744073709551616"),
    ])
    def test_bad_number_exit_one(self, command, setting, tmp_path, capsys):
        code = run_cli([command, "--scenario", "gw", "--set", setting, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("scenario, setting", [
        ("zd_translation", 'radius="abc"'),
        ("zd_translation", "radius=2.5"),
        ("zd_translation", "radius=-3"),
        ("zd_translation", "radius=true"),
        ("zd_translation", 'rho_bar="x"'),
        ("zd_translation", "rho_bar=NaN"),
        ("zd_translation", 'rho={"0": "a"}'),
        ("line_noext", "size=2.5"),
        ("tree_counterpart", 'depth="x"'),
        ("line_noext", 'ns=["a"]'),
        ("tree_counterpart", "lam=true"),
    ])
    def test_bad_scenario_value_exit_two(self, scenario, setting, tmp_path, capsys):
        code = run_cli(["classify", "--scenario", scenario, "--set", f"param.{setting}",
                        "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--seed", "abc"), ("--horizon", "2.5"),
                                             ("--replicas", "abc"), ("--p", "abc")])
    def test_bad_flag_value_exit_one(self, flag, value, tmp_path, capsys):
        # a flag value is read as its --set twin is
        code = run_cli(["percolate", flag, value, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())


class TestSpatialSpectral:
    def test_spatial_runs(self, tmp_path, capsys):
        code = run_cli(["spatial", "--scenario", "zd_translation",
                        "--set", "param.radius=5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spatial.csv").exists()

    def test_spatial_reports_brackets(self, tmp_path, capsys):
        code = run_cli(["spatial", "--scenario", "zd_translation", "--set", "param.radius=5",
                        "--set", "radii=[1,5]", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(" in [") == 2
        header = (tmp_path / "spatial.csv").read_text().splitlines()[0]
        assert header == "index,window_size,growth,growth_low,growth_high,converged,verdict"

    def test_radii_are_whole_numbers_of_at_least_0(self, tmp_path, capsys):
        # [-1, 2] exited 2 with "x0=0 missing from an exhaustion member"
        code = run_cli(["spatial", "--scenario", "zd_translation", "--set", "radii=[-1, 2]",
                        "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: radii must be a whole number in [0,")
        assert not any(tmp_path.iterdir())

    def test_spectral_runs(self, tmp_path, capsys):
        code = run_cli(["spectral", "--scenario", "zd_translation",
                        "--set", "param.radius=5", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "growth.csv").read_text()
        assert body.startswith("series,n,term,on_subsequence")

    def test_growth_body_matches_bench_golden(self, tmp_path, capsys):
        code = run_cli(["spectral", "--scenario", "zd_translation", "--set", "param.radius=12",
                        "--out", str(tmp_path)])
        assert code == 0
        digest = hashlib.sha256((tmp_path / "growth.csv").read_bytes()).hexdigest()
        assert digest == "a3de3f9d10b9fa2bdd44690588ef1ea6daf5e3d1b4e3bcc112ffc23b7ffa41af"
        assert digest == _golden("analytic")["cli spectral/growth.csv"]
