import hashlib
import json
import pathlib

import pytest

from brwlab.cli import EXIT_SCENARIO, EXIT_USAGE, main


def run_cli(args):
    return main(args)


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


class TestExtinction:
    def test_writes_vector(self, tmp_path, capsys):
        code = run_cli(["extinction", "--scenario", "gw", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "extinction.csv").read_text()
        assert body.startswith("vertex,qbar")

    def test_line_ex45_body_matches_bench_golden(self, tmp_path, capsys):
        golden = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden.json"
        want = json.loads(golden.read_text())["full"]["analytic"]["cli extinction/extinction.csv"]
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
        golden = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden.json"
        want = json.loads(golden.read_text())["full"]["replicas"]["cli percolate/percolation.csv"]
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
        golden = pathlib.Path(__file__).resolve().parent.parent / "bench" / "golden.json"
        want = json.loads(golden.read_text())["full"]["sweep"]
        code = run_cli(["sweep", "--scenario", "zd_translation", "--set", "param.radius=20",
                        "--caps", "1,2,4,8", "--horizon", "100", "--replicas", "10",
                        "--seed", "7", "--out", str(tmp_path)])
        assert code == 3
        for name in ("sweep.csv", "replicas.csv"):
            digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert digest == want[f"cli sweep/{name}"], name

    def test_overflow_exit_code(self, tmp_path, capsys):
        code = run_cli(["sweep", "--scenario", "gw",
                        "--set", 'param.rho={"2": 1.0}',
                        "--caps", "2", "--horizon", "50", "--replicas", "5",
                        "--set", "hard_cap=100", "--out", str(tmp_path)])
        assert code == 3
        assert (tmp_path / "sweep.csv").exists()

    def test_unknown_target_exit_two(self, tmp_path, capsys):
        code = run_cli(["sweep", "--scenario", "gw", "--target", "5", "--caps", "1",
                        "--horizon", "5", "--replicas", "2", "--out", str(tmp_path)])
        assert code == EXIT_SCENARIO
        assert "target 5" in capsys.readouterr().err


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
    ])
    def test_bad_number_exit_one(self, command, setting, tmp_path, capsys):
        code = run_cli([command, "--scenario", "gw", "--set", setting, "--out", str(tmp_path)])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ")
        assert not any(tmp_path.iterdir())


class TestSpatialSpectral:
    def test_spatial_runs(self, tmp_path, capsys):
        code = run_cli(["spatial", "--scenario", "zd_translation",
                        "--set", "param.radius=5", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "spatial.csv").exists()

    def test_spectral_runs(self, tmp_path, capsys):
        code = run_cli(["spectral", "--scenario", "zd_translation",
                        "--set", "param.radius=5", "--out", str(tmp_path)])
        assert code == 0
        body = (tmp_path / "growth.csv").read_text()
        assert body.startswith("series,n,term,on_subsequence")
