"""CLI jobs: artifacts, exit codes, schema handling, determinism."""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from ridgekit import DiscreteMeasure, Direction, Point, is_annihilating
from ridgekit.cli import JobConfig, load_config_file, main, run


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class TestPaths:
    def test_not_dense_exit_two(self, tmp_path):
        code = run(JobConfig("paths", preset="paper-5pt", out_dir=str(tmp_path)))
        assert code == 2
        data = read_json(tmp_path / "verdict.json")
        assert data["verdict"] == "not_dense"
        cert = data["certificate"]
        mu = DiscreteMeasure.from_atoms(
            (Point.from_seq(p), Fraction(w))
            for p, w in zip(cert["points"], cert["weights"])
        )
        dirs = [Direction.of(1, 0, 0), Direction.of(0, 1, 0), Direction.of(0, 0, 1)]
        assert is_annihilating(mu, dirs)

    def test_dense_exit_zero(self, tmp_path):
        code = run(JobConfig("paths", preset="monotone-curve", out_dir=str(tmp_path)))
        assert code == 0
        assert read_json(tmp_path / "verdict.json")["certificate"] is None


class TestInputSchema:
    def test_file_round_trip(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "points": [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]],
                    "directions": [["1", "0"], ["0", "1"]],
                    "values": ["0", "0", "0", "1/2"],
                }
            )
        )
        cfg, values = load_config_file(str(cfg_file))
        assert cfg.n == 4 and values[-1] == Fraction(1, 2)
        code = run(
            JobConfig("paths", input_path=str(cfg_file), out_dir=str(tmp_path / "o"))
        )
        assert code == 2  # the square grid closes a path

    def test_malformed_json_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimension": 2,\n  "points": [[}')
        code = run(JobConfig("paths", input_path=str(bad), out_dir=str(tmp_path)))
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_dimension_mismatch_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"dimension": 3, "points": [["0", "1"]], "directions": [["1", "0"]]})
        )
        assert run(JobConfig("paths", input_path=str(bad), out_dir=str(tmp_path))) == 1

    @pytest.mark.parametrize(
        "payload, message",
        [
            ([1, 2], "configuration must be a JSON object"),
            (
                {"dimension": "2", "points": [["0", "0"]], "directions": [["1", "0"]]},
                "dimension must be a positive integer, got '2'",
            ),
            ({"dimension": 2, "points": [["0", "0"]]}, "missing field 'directions'"),
            (
                {"dimension": 2, "points": "abc", "directions": [["1", "0"]]},
                "points must be a list of coordinate lists",
            ),
            (
                {"dimension": 2, "points": [["0", "0"], ["x", "1"]], "directions": [["1", "0"]]},
                "points[1][0]: 'x' is not a rational",
            ),
        ],
        ids=["top-level-array", "dimension-string", "missing-directions", "points-string", "bad-entry"],
    )
    def test_schema_errors_name_the_field(self, tmp_path, capsys, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(JobConfig("paths", input_path=str(bad), out_dir=str(tmp_path))) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestCommands:
    def test_bolts_artifact(self, tmp_path):
        assert run(JobConfig("bolts", preset="grid-2x2", out_dir=str(tmp_path))) == 0
        data = read_json(tmp_path / "bolt.json")
        assert data["found"] and data["bolt"]["closed"]
        assert len(data["bolt"]["points"]) == 4

    def test_orbits_artifact(self, tmp_path):
        assert run(JobConfig("orbits", preset="paper-orbit", out_dir=str(tmp_path))) == 0
        assert read_json(tmp_path / "orbits.json")["orbit_count"] == 1

    def test_probe_artifacts(self, tmp_path):
        job = JobConfig(
            "probe",
            preset="paper-orbit",
            out_dir=str(tmp_path),
            params={"tests": ["x", "y"], "n": 200},
        )
        assert run(job) == 0
        csv_lines = (tmp_path / "decay.csv").read_text().splitlines()
        assert csv_lines[0] == "n,test_name,abs_integral"
        # 200 steps x 3 tests (ridge-identity is always appended)
        assert len(csv_lines) == 1 + 200 * 3
        assert read_json(tmp_path / "probe.json")["ridge_bounds_ok"] is True

    def test_ridgefit(self, tmp_path):
        job = JobConfig(
            "ridgefit",
            preset="parallel-segments",
            out_dir=str(tmp_path),
            params={"target": "xy"},
        )
        assert run(job) == 0
        assert read_json(tmp_path / "ridgefit.json")["residual"] == "0"

    def test_kfit_artifact(self, tmp_path):
        job = JobConfig(
            "kfit",
            preset="parallel-segments",
            out_dir=str(tmp_path),
            params={"target": "xy", "eps": "1/100"},
        )
        assert run(job) == 0
        data = read_json(tmp_path / "network.json")
        assert len(data["terms"]) == 2
        assert {t["c"] for t in data["terms"]} == {"1"}

    def test_kfit_not_dense_exit_two(self, tmp_path):
        job = JobConfig(
            "kfit",
            preset="grid-3x3",
            out_dir=str(tmp_path),
            params={"target": "xy", "eps": "1/100"},
        )
        assert run(job) == 2
        cert = read_json(tmp_path / "certificate.json")
        assert cert["error"] == "not_dense"
        assert len(cert["certificate"]["points"]) >= 2

    def test_netfit_artifact(self, tmp_path):
        job = JobConfig(
            "netfit",
            preset="parallel-segments",
            out_dir=str(tmp_path),
            params={"target": "x2-y", "eps": "0.01"},
        )
        assert run(job) == 0
        data = read_json(tmp_path / "network.json")
        assert data["activation"] == {"kind": "oracle", "name": "logistic", "params": {}}

    def test_sigma_eval_csv(self, tmp_path):
        job = JobConfig(
            "sigma-eval",
            out_dir=str(tmp_path),
            params={"alpha": "1", "l": "1", "start": "0", "stop": "4", "step": "1/2"},
        )
        assert run(job) == 0
        lines = (tmp_path / "sigma.csv").read_text().splitlines()
        assert lines[0] == "t,sigma_t"
        assert len(lines) == 10

    def test_sigma_build(self, tmp_path):
        job = JobConfig(
            "sigma-build",
            out_dir=str(tmp_path),
            params={"poly": "0,1", "eps": "0.001"},
        )
        assert run(job) == 0
        data = read_json(tmp_path / "encoding.json")
        assert data["index"] == "3"  # the identity polynomial
        assert data["achieved_error"] == 0.0

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_sigma_build_index_longer_than_the_digit_limit(self, tmp_path):
        """The index is written in full even past the default 4300-digit
        int/str limit, and the process-wide limit is left as it was."""
        before = sys.get_int_max_str_digits()
        poly = "1/3,2/7,5/11,1/13,3/17,7/19,11/23,13/29,17/31,19/37,23/41,29/43"
        job = JobConfig("sigma-build", out_dir=str(tmp_path), params={"poly": poly, "eps": "0.001"})
        assert run(job) == 0
        assert sys.get_int_max_str_digits() == before
        index = read_json(tmp_path / "encoding.json")["index"]
        assert len(index) > 4300 and index.isdigit()


class TestResourceCaps:
    def test_tiny_sigma_eval_step_is_refused_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["sigma-eval", "--step", "1/1000000000000", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert "--step" in capsys.readouterr().err
        assert not (tmp_path / "sigma.csv").exists()

    def test_probe_n_above_cap_is_refused(self, tmp_path, capsys):
        code = main(["probe", "--preset", "paper-orbit", "--N", "100001", "--out", str(tmp_path)])
        assert code == 1
        assert "--N" in capsys.readouterr().err
        assert not (tmp_path / "probe.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "0", "abc"])
    def test_sigma_build_bad_eps_is_refused(self, tmp_path, capsys, eps):
        argv = ["sigma-build", "--poly", "1,-1/2,1/3", "--eps", eps]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "--eps" in capsys.readouterr().err
        assert not (tmp_path / "encoding.json").exists()

    def test_netfit_nan_eps_is_refused(self, tmp_path, capsys):
        argv = ["netfit", "--preset", "parallel-segments", "--f", "xy", "--eps", "nan"]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "--eps" in capsys.readouterr().err
        assert not (tmp_path / "network.json").exists()


class TestTableActivation:
    """A malformed activation table is refused at load, naming its line."""

    @pytest.mark.parametrize(
        "rows, line",
        [
            (["nan,0.5"], 3),  # used to run the fit for minutes
            (["1,inf"], 3),  # used to fail inside LAPACK
            (["-1,0.25"], 3),  # a repeated x: silently discontinuous
        ],
        ids=["nan-x", "inf-y", "repeated-x"],
    )
    def test_bad_table_exit_one(self, tmp_path, capsys, rows, line):
        csv = tmp_path / "act.csv"
        csv.write_text("\n".join(["x,y", "-1,0.2"] + rows + ["2,0.9"]) + "\n")
        out = tmp_path / "out"
        argv = ["netfit", "--preset", "parallel-segments", "--f", "xy", "--sigma", "table"]
        code = main(argv + ["--sigma-table", str(csv), "--out", str(out)])
        assert code == 1
        assert f"{csv}:{line}:" in capsys.readouterr().err
        assert not (out / "network.json").exists()


class TestDeterminism:
    def test_probe_byte_identical(self, tmp_path):
        outs = []
        for sub in ("a", "b"):
            job = JobConfig(
                "probe",
                preset="paper-orbit",
                out_dir=str(tmp_path / sub),
                params={"tests": ["x", "x2"], "n": 150},
                seed=7,
            )
            assert run(job) == 0
            outs.append(
                (
                    (tmp_path / sub / "decay.csv").read_bytes(),
                    (tmp_path / sub / "probe.json").read_bytes(),
                )
            )
        assert outs[0] == outs[1]


class TestArgParsing:
    def test_main_paths(self, tmp_path):
        code = main(["paths", "--preset", "grid-2x2", "--out", str(tmp_path)])
        assert code == 2

    def test_subprocess_entry(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ridgekit",
                "paths",
                "--preset",
                "monotone-curve",
                "--out",
                str(tmp_path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "verdict.json").exists()

    def test_unknown_preset_errors(self, tmp_path, capsys):
        assert run(JobConfig("paths", preset="nope", out_dir=str(tmp_path))) == 1
        assert "unknown preset" in capsys.readouterr().err
