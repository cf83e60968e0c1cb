"""CLI jobs: artifacts, exit codes, schema handling, determinism."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import textbook_sigma
from ridgekit import ActivationSpec, DiscreteMeasure, Direction, Point, is_annihilating
from ridgekit import cli
from ridgekit.cli import JobConfig, load_config_file, main, run
from ridgekit.presets import config_preset, target_values
from ridgekit.rationals import format_rational


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
            (
                {"dimension": 2, "points": [["0", "0"]], "directions": [["1", "0"], ["0", "0/3"]]},
                "directions[1]: direction must be nonzero",
            ),
            (
                {
                    "dimension": 2,
                    "points": [["0", "1"], ["1", "0"], ["0", "2/2"]],
                    "directions": [["1", "0"]],
                },
                "points[2] repeats points[0]: points must be pairwise distinct",
            ),
            (
                {"dimension": 2, "points": [], "directions": [["1", "0"]]},
                "points: need at least one point",
            ),
            (
                {"dimension": 2, "points": [["0", "1"]], "directions": []},
                "directions: need at least one direction",
            ),
        ],
        ids=[
            "top-level-array",
            "dimension-string",
            "missing-directions",
            "points-string",
            "bad-entry",
            "zero-direction",
            "repeated-point",
            "no-points",
            "no-directions",
        ],
    )
    def test_schema_errors_name_the_field(self, tmp_path, capsys, payload, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        assert run(JobConfig("paths", input_path=str(bad), out_dir=str(tmp_path))) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "command, artifact, code",
        [("netfit", "network.json", 1), ("kfit", "network.json", 1), ("ridgefit", "ridgefit.json", 0)],
    )
    def test_values_beyond_the_float_range(self, tmp_path, capsys, command, artifact, code):
        """The network fits also use the data as floats and refuse it, naming
        the value; the exact ridge fit takes it."""
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "dimension": 2,
                    "points": [["0", "0"], ["1", "2"], ["2", "1"]],
                    "directions": [["1", "0"], ["0", "1"]],
                    "values": ["1e400", "0", "1"],
                }
            )
        )
        out = tmp_path / "o"
        assert main([command, str(cfg_file), "--out", str(out)]) == code
        if code:
            assert capsys.readouterr().err == "error: values[0] is beyond the float range\n"
            assert not (out / artifact).exists()
        else:
            assert read_json(out / artifact)["residual"] == "0"


class TestCommands:
    def test_bolts_artifact(self, tmp_path):
        assert run(JobConfig("bolts", preset="grid-2x2", out_dir=str(tmp_path))) == 0
        data = read_json(tmp_path / "bolt.json")
        assert data["found"] and data["bolt"]["closed"]
        assert len(data["bolt"]["points"]) == 4

    def test_bolt_is_the_verdicts_certificate(self, tmp_path):
        """On grid-3x3, which has 4 closing points, ``bolt.json`` walks the
        cycle whose alternating weights ``verdict.json`` certifies."""
        assert run(JobConfig("paths", preset="grid-3x3", out_dir=str(tmp_path))) == 2
        assert run(JobConfig("bolts", preset="grid-3x3", out_dir=str(tmp_path))) == 0
        cert = read_json(tmp_path / "verdict.json")["certificate"]["points"]
        bolt = read_json(tmp_path / "bolt.json")["bolt"]["points"]
        assert len(bolt) == len(cert) == 4
        assert set(map(tuple, bolt)) == set(map(tuple, cert))

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


FIT_ARGS = ["--preset", "parallel-segments", "--f", "xy"]
# (argv, the flag its error must name, the artifact it must not write)
UNKNOWN_NAMES = [
    (["probe", "--preset", "paper-orbit", "--tests", "bogus"], "--tests", "probe.json"),
    (["netfit", *FIT_ARGS, "--sigma", "bogus"], "--sigma", "network.json"),
    (["kfit", "--preset", "parallel-segments", "--f", "bogus"], "--f", "network.json"),
    (["paths", "--preset", "bogus"], "--preset", "verdict.json"),
]
BAD_FLAGS = [
    (["kfit", *FIT_ARGS, "--eps", "abc"], "--eps", "network.json"),
    (["netfit", *FIT_ARGS, "--theta-lo", "abc"], "--theta-lo", "network.json"),
    (["netfit", *FIT_ARGS, "--theta-hi", "abc"], "--theta-hi", "network.json"),
    (["sigma-eval", "--from", "abc"], "--from", "sigma.csv"),
    (["sigma-eval", "--to", "abc"], "--to", "sigma.csv"),
    (["sigma-eval", "--step", "abc"], "--step", "sigma.csv"),
    (["sigma-eval", "--alpha", "abc"], "--alpha", "sigma.csv"),
    (["sigma-eval", "--l", "abc"], "--l", "sigma.csv"),
    (["sigma-eval", "--sharpness", "abc"], "--sharpness", "sigma.csv"),
    (["sigma-build", "--poly", "1,x"], "--poly", "encoding.json"),
    (["sigma-build", "--poly", "1,2", "--alpha", "abc"], "--alpha", "encoding.json"),
    (["probe", "--preset", "paper-orbit", "--threshold", "q"], "--threshold", "probe.json"),
    # values that parse but are out of range, or beyond the float range of a
    # flag that is also used as a float
    (["kfit", *FIT_ARGS, "--eps", "1e400"], "--eps", "network.json"),
    (["kfit", *FIT_ARGS, "--eps", "0"], "--eps", "network.json"),
    (["netfit", *FIT_ARGS, "--theta-hi", "-5", "--theta-lo", "5"], "--theta-lo", "network.json"),
    (["netfit", *FIT_ARGS, "--theta-hi", "1e400"], "--theta-hi", "network.json"),
    (["sigma-eval", "--l", "-1"], "--l", "sigma.csv"),
    (["sigma-eval", "--sharpness", "1e400"], "--sharpness", "sigma.csv"),
    (["sigma-eval", "--to", "1e400", "--from", "1e400"], "--from", "sigma.csv"),
    (["sigma-build", "--poly", "1e400"], "--poly", "encoding.json"),
    (["sigma-build", "--poly", "1e308,1e308"], "--poly", "encoding.json"),
    (["sigma-build", "--poly", "1,2", "--l", "1e400"], "--l", "encoding.json"),
    (["probe", "--preset", "paper-orbit", "--threshold", "1e400"], "--threshold", "probe.json"),
    (["sigma-eval", "--step", "0"], "--step", "sigma.csv"),
    (["sigma-eval", "--step", "-1"], "--step", "sigma.csv"),
    (["sigma-eval", "--from", "5", "--to", "1"], "--to", "sigma.csv"),
    # the segment polynomial at t = 1e11 has a degree beyond the evaluation
    # cap, and the gap blend at t = 1e8 + 1/2 is beyond the float range
    (["sigma-eval", "--from", "1e11", "--to", "1e11"], "--from", "sigma.csv"),
    (["sigma-eval", "--from", "200000001/2", "--to", "200000001/2"], "--from", "sigma.csv"),
    (["probe", "--preset", "paper-orbit", "--threshold", "-1"], "--threshold", "probe.json"),
    (["probe", "--preset", "paper-orbit", "--tests", ""], "--tests", "probe.json"),
    (["probe", "--preset", "paper-orbit", "--tests", ","], "--tests", "probe.json"),
    (["netfit", *FIT_ARGS, "--sigma-table", "missing.csv"], "--sigma-table", "network.json"),
    (["probe", "--preset", "paper-orbit", "--tests", "x,y,x"], "--tests", "probe.json"),
    # a flag with no value: a usage error, which exits 1 like every refusal
    (["kfit", *FIT_ARGS, "--eps"], "--eps", "network.json"),
    (["sigma-build", "--poly"], "--poly", "encoding.json"),
    # unknown names, each refused under its flag with the choices listed
    *UNKNOWN_NAMES,
]


# A 5,001-digit denominator, past CPython's 4,300-digit int-to-str limit, and
# a t near 1e11 over it, where sigma cannot be evaluated: (argv, the flag its
# error starts with).
LONG = "1" + "0" * 5000
LONG_T = "1" + "0" * 5010 + "1/" + LONG  # (10^5011 + 1) / 10^5000
LONG_VALUES = [
    (["sigma-eval", "--step", f"1/{LONG}"], "--step"),
    (["sigma-eval", "--step", f"-1/{LONG}"], "--step"),
    (["sigma-eval", "--to", f"-1/{LONG}"], "--to"),
    (["sigma-eval", "--from", LONG_T, "--to", LONG_T], "--from"),
    *((["sigma-eval", flag, f"-1/{LONG}"], flag) for flag in ("--alpha", "--l", "--sharpness")),
    (["netfit", *FIT_ARGS, "--theta-lo", f"1/{LONG}", "--theta-hi", f"-1/{LONG}"], "--theta-lo"),
]


# Refused values and names whose error keeps the refusal's reason and repeats
# at most 40 characters of the value: (argv, flag, reason).
NO_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
LONG_NAME = "y" + "0" * 5000
REASONED_REFUSALS = [
    (["sigma-eval", "--to", "1e-100001"], "--to", "decimal exponent beyond 100000 in magnitude"),
    (["sigma-eval", "--to", f"x{LONG}"], "--to", "is not a rational"),
    (["probe", "--preset", "paper-orbit", "--N", LONG], "--N", "exceeds the probe limit 100000"),
    (["probe", "--preset", "paper-orbit", "--N", f"-{LONG}"], "--N", "is not positive"),
    (["probe", "--preset", "paper-orbit", "--N", f"x{LONG}"], "--N", "is not an integer"),
    (["probe", "--preset", "paper-orbit", "--threshold", f"-1/{LONG}"], "--threshold", "must not be negative"),
    pytest.param(
        ["paths", "--preset", "grid-2x2", "--seed", LONG], "--seed", "cannot be recorded", marks=NO_DIGIT_LIMIT
    ),
    (["paths", "--preset", LONG_NAME], "--preset", "unknown preset 'y000"),
    (["probe", "--preset", "paper-orbit", "--tests", LONG_NAME], "--tests", "; available: const,"),
    (["ridgefit", "--preset", "parallel-segments", "--f", LONG_NAME], "--f", "unknown target function"),
    (["netfit", *FIT_ARGS, "--sigma", LONG_NAME], "--sigma", "(5,003 characters); available: logistic"),
]


def _flag_case_ids(cases) -> list[str]:
    """Ids ``command flag``; a later case of the same flag gets its last argument appended."""
    ids: list[str] = []
    for argv, flag, _ in cases:
        name = f"{argv[0]} {flag}"
        ids.append(f"{name} {argv[-1]}" if name in ids else name)
    return ids


class TestResourceCaps:
    def test_tiny_sigma_eval_step_is_refused_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        code = main(["sigma-eval", "--step", "1/1000000000000", "--out", str(tmp_path)])
        assert time.perf_counter() - start < 5.0
        assert code == 1
        assert "--step" in capsys.readouterr().err
        assert not (tmp_path / "sigma.csv").exists()

    def test_decimal_exponent_beyond_the_bound_is_refused_at_once(self, tmp_path, capsys):
        """``1e-100000000`` is refused before its power of ten is built."""
        cfg_file = tmp_path / "cfg.json"
        points = [["1e-100000000", "0"], ["1", "0"], ["0", "1"], ["1", "1"]]
        cfg_file.write_text(
            json.dumps({"dimension": 2, "points": points, "directions": [["1", "0"], ["0", "1"]]})
        )
        start = time.perf_counter()
        assert main(["paths", str(cfg_file), "--out", str(tmp_path / "out")]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: points[0][0]: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        LONG_VALUES,
        ids=["step-rows", "step-sign", "to", "t", "alpha", "l", "sharpness", "theta-lo"],
    )
    def test_a_long_value_in_an_error_keeps_its_flag(self, tmp_path, capsys, argv, flag):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and "Exceeds the limit" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag, reason",
        REASONED_REFUSALS,
        ids=[
            "to-exponent", "to-long", "N-long", "N-long-negative", "N-long-text", "threshold-long", "seed-long",
            "preset-long", "tests-long", "f-long", "sigma-long",
        ],
    )
    def test_a_refusal_keeps_its_reason_and_a_short_echo(self, tmp_path, capsys, argv, flag, reason):
        assert main(argv + ["--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}") and reason in err and len(err) < 200, err
        assert not (tmp_path / "out").exists()

    def test_probe_n_above_cap_is_refused(self, tmp_path, capsys):
        code = main(["probe", "--preset", "paper-orbit", "--N", "100001", "--out", str(tmp_path)])
        assert code == 1
        assert "--N" in capsys.readouterr().err
        assert not (tmp_path / "probe.json").exists()

    @pytest.mark.parametrize("eps", ["nan", "0", "abc", "inf", "1e400"])
    def test_sigma_build_bad_eps_is_refused(self, tmp_path, capsys, eps):
        argv = ["sigma-build", "--poly", "1,-1/2,1/3", "--eps", eps]
        code = main(argv + ["--out", str(tmp_path)])
        assert code == 1
        assert "--eps" in capsys.readouterr().err
        assert not (tmp_path / "encoding.json").exists()

    @pytest.mark.parametrize(
        "argv, flag, artifact", BAD_FLAGS, ids=_flag_case_ids(BAD_FLAGS)
    )
    def test_bad_rational_flag_is_named(self, tmp_path, capsys, argv, flag, artifact):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize(
        "argv, flag, artifact",
        [
            (["probe", "--preset", "paper-orbit", "--N", "abc"], "--N", "probe.json"),
            (["probe", "--preset", "paper-orbit", "--N", "1.5"], "--N", "probe.json"),
            (["probe", "--preset", "paper-orbit", "--N", "0"], "--N", "probe.json"),
            (["probe", "--preset", "paper-orbit", "--seed", "x"], "--seed", "probe.json"),
            (["paths", "--preset", "grid-2x2", "--seed", "1.5"], "--seed", "verdict.json"),
        ],
        ids=["N-abc", "N-1.5", "N-0", "probe-seed-x", "paths-seed-1.5"],
    )
    def test_bad_integer_flag_is_named(self, tmp_path, capsys, argv, flag, artifact):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / artifact).exists()

    @pytest.mark.parametrize(
        "argv, flag, artifact", UNKNOWN_NAMES, ids=_flag_case_ids(UNKNOWN_NAMES)
    )
    def test_unknown_name_lists_the_choices(self, tmp_path, capsys, argv, flag, artifact):
        assert main(argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"{flag}: unknown" in err and "; available: " in err

    def test_sigma_build_index_beyond_the_cap_is_refused(self, tmp_path, capsys):
        """An exact match whose index passes the cap is skipped, and the error says why."""
        start = time.perf_counter()
        argv = ["sigma-build", "--poly", "1/3000000,1", "--eps", "1e-12", "--out", str(tmp_path)]
        assert main(argv) == 1
        assert time.perf_counter() - start < 60.0
        assert "4,000,000-bit cap" in capsys.readouterr().err
        assert not (tmp_path / "encoding.json").exists()

    @pytest.mark.parametrize(
        "argv, values",
        [
            (["sigma-build", "--poly", "2000000"], None),
            (["kfit"], ["1e308", "-1e308", "1e308"]),
            (["kfit"], ["0", "20000000"]),
        ],
        ids=["sigma-build-large", "kfit-overflow", "kfit-large"],
    )
    def test_coefficients_beyond_the_cap_are_named(self, tmp_path, capsys, argv, values):
        """A fit whose every degree has a coefficient beyond the cap, NaN
        included, is refused with the cap named, not as ``best error inf``."""
        if values is not None:
            cfg_file = tmp_path / "cfg.json"
            points = [[str(i)] for i in range(len(values))]
            cfg_file.write_text(
                json.dumps({"dimension": 1, "points": points, "directions": [["1"]], "values": values})
            )
            argv = argv + [str(cfg_file)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        assert "beyond the 1,000,000 coefficient cap" in capsys.readouterr().err
        assert not out.exists()

    def test_index_of_more_than_a_million_digits_is_written_within_a_minute(self, tmp_path):
        start = time.perf_counter()
        argv = ["sigma-build", "--poly", "1/900000,1", "--eps", "1e-12", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert time.perf_counter() - start < 60.0
        index = read_json(tmp_path / "encoding.json")["index"]
        assert index.isdigit() and len(index) > 10**6

    @pytest.mark.parametrize("sigma", ["logistic", "tanh-ramp"])
    def test_netfit_targets_near_the_float_limit_are_refused_without_a_warning(
        self, tmp_path, capsys, sigma
    ):
        cfg_file = tmp_path / "cfg.json"
        values = ["1e308", "-1e308", "1e308"]
        cfg_file.write_text(
            json.dumps({"dimension": 1, "points": [["0"], ["1"], ["2"]], "directions": [["1"]], "values": values})
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["netfit", str(cfg_file), "--sigma", sigma, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: fit budget exhausted; best error 1e+308\n"
        assert not out.exists()

    def test_netfit_nan_eps_is_refused(self, tmp_path, capsys):
        for eps in ("nan", "inf", "1e400", "abc", "0", "-1"):
            argv = ["netfit", "--preset", "parallel-segments", "--f", "xy", "--eps", eps]
            code = main(argv + ["--out", str(tmp_path)])
            assert code == 1
            assert "--eps" in capsys.readouterr().err
            assert not (tmp_path / "network.json").exists()


# Documented refusals before any fit: (argv, what the error names).  Each
# exits 1 and writes nothing.
REFUSALS = [
    (["bolts", "--preset", "paper-5pt"], "exactly two directions"),
    (["orbits", "--preset", "paper-5pt"], "exactly two directions"),
    *(([c, "--preset", "grid-2x2"], "--f") for c in ("ridgefit", "kfit", "netfit")),
    (["netfit", *FIT_ARGS, "--sigma", "table"], "--sigma-table"),
    *(([c], "--preset") for c in ("paths", "bolts", "orbits", "ridgefit", "netfit", "kfit")),
]


@pytest.mark.parametrize("argv, named", REFUSALS, ids=[" ".join(a) for a, _ in REFUSALS])
def test_refusal_writes_nothing(tmp_path, capsys, argv, named):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


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
    @pytest.mark.parametrize(
        "argv, rational, decimal, artifact",
        [
            (["netfit", *FIT_ARGS], "1/100", "0.01", "network.json"),
            (["sigma-build", "--poly", "1,-1/2,1/3"], "1/1000", "0.001", "encoding.json"),
        ],
        ids=["netfit", "sigma-build"],
    )
    def test_rational_eps_writes_the_decimal_bytes(
        self, tmp_path, argv, rational, decimal, artifact
    ):
        """``--eps`` is read as a rational by every command, and a rational
        passes on the same float as its decimal spelling."""
        for sub, eps in (("rational", rational), ("decimal", decimal)):
            assert main(argv + ["--eps", eps, "--out", str(tmp_path / sub)]) == 0
        written = [(tmp_path / sub / artifact).read_bytes() for sub in ("rational", "decimal")]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "argv, flag, value, artifact",
        [
            (["sigma-build"], "--poly", "-1,2", "encoding.json"),
            (["netfit", *FIT_ARGS], "--theta-lo", "-1/2", "network.json"),
            (["sigma-eval", "--to", "0"], "--from", "-1e-1", "sigma.csv"),
        ],
        ids=["poly", "theta-lo", "from"],
    )
    def test_value_starting_with_minus(self, tmp_path, argv, flag, value, artifact):
        """A value that starts with ``-`` and a digit is the flag's value, as
        with the ``=`` spelling."""
        assert main(argv + [flag, value, "--out", str(tmp_path / "spaced")]) == 0
        assert main(argv + [f"{flag}={value}", "--out", str(tmp_path / "joined")]) == 0
        written = [(tmp_path / sub / artifact).read_bytes() for sub in ("spaced", "joined")]
        assert written[0] == written[1]

    @pytest.mark.parametrize(
        "argv, spelled, artifacts",
        [
            (
                ["sigma-build", "--poly", "1,-1/2,1/3"],
                ["--eps", "0.001", "--alpha", "1", "--l", "1", "--sharpness", "1"],
                ["encoding.json"],
            ),
            (
                ["probe", "--preset", "paper-orbit", "--N", "200"],
                ["--tests", "x,y", "--threshold", "1/100"],
                ["decay.csv", "probe.json"],
            ),
        ],
        ids=["sigma-build", "probe"],
    )
    def test_omitted_flags_and_spelled_out_defaults_write_the_same_bytes(
        self, tmp_path, argv, spelled, artifacts
    ):
        assert main(argv + ["--out", str(tmp_path / "omitted")]) == 0
        assert main(argv + spelled + ["--out", str(tmp_path / "spelled")]) == 0
        for name in artifacts:
            assert (tmp_path / "omitted" / name).read_bytes() == (tmp_path / "spelled" / name).read_bytes()

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


# sha256 of each exact artifact on every preset: (command, preset, --f target,
# exit code, artifact, digest).  netfit and kfit network.json are left out:
# their float fields come from libm and LAPACK.
GOLDEN = [
    ("paths", "grid-2x2", None, 2, "verdict.json", "e516b2d4f5479b4cc6cc31fef6e1065ab3a1a44a1f4760c80e315de0d46cad8d"),
    ("paths", "grid-3x3", None, 2, "verdict.json", "b841bdb9f0968b458461fc0e7104efda9df4ea172875b11a63040eb6d279f992"),
    ("paths", "monotone-curve", None, 0, "verdict.json", "7d73d85a0b55cab84cce6782c579f7db591fcc3a3abeaeb97051402c7618b3b8"),
    ("paths", "paper-5pt", None, 2, "verdict.json", "438a353449c6e980b67c8b3b9ebde7b8d28ba8b7e6f2029099af0cd6fd9c6501"),
    ("paths", "paper-orbit", None, 0, "verdict.json", "3d03f0d03bc7cf0f5d558613644d635da11913fe966cf473d117808810c4da1f"),
    ("paths", "parallel-segments", None, 0, "verdict.json", "b6cfb8fca180f677b943985242b195155d8164b0c35e86a2f8f9ca304547b5f1"),
    ("bolts", "grid-2x2", None, 0, "bolt.json", "0976b9d1b4dadfd84e6c8c96e05fd13c5ca828c343e999df8f5468b05f935cc3"),
    ("orbits", "grid-2x2", None, 0, "orbits.json", "875812f10289b8ede4a757c3ea9b549d04969a26b68dcd480fabc0b10018c0fd"),
    ("bolts", "grid-3x3", None, 0, "bolt.json", "fa386c96b604c52f5ad30f7f64be365e2d423dc453bc5291f2d72ebcd3081dd1"),
    ("orbits", "grid-3x3", None, 0, "orbits.json", "49b68789f3a5156917383b8d16c27ed5c8ce1c98f70ad1d21ac6df2995b550f1"),
    ("bolts", "paper-orbit", None, 0, "bolt.json", "f08c633f7a335cfada9c2d2038e62acaf58a88ced4f6486052bbaa459a75b158"),
    ("orbits", "paper-orbit", None, 0, "orbits.json", "4b5a4440cdeb4c3315f71a92d8d4aab783359ba5865ea95c924c6ad65c2f1992"),
    ("bolts", "parallel-segments", None, 0, "bolt.json", "fd8abd5fcfa1689eda3343785d29f91575afed182dd9f469bffe4e2d6117b42e"),
    ("orbits", "parallel-segments", None, 0, "orbits.json", "c63f836d7f7f20c4c00b28fd25e1c00e32ee9d8c458e94853f9670d49c8f055b"),
    ("ridgefit", "grid-2x2", 'xy', 0, "ridgefit.json", "86d5f0c0eadefaccc54bff5977492a29be3017d5d416e3f36b1c858267987877"),
    ("ridgefit", "grid-2x2", 'x2-y', 0, "ridgefit.json", "1eb4d02c92dbfcd7ee20c82f931c56b16bb90216660b341f0e7b2c0b529dc356"),
    ("ridgefit", "grid-2x2", 'norm', 0, "ridgefit.json", "90aa4b6821c1f7e9a754c3a5b08ba6555434286a32878e9079b3ad3a65b82465"),
    ("ridgefit", "grid-3x3", 'xy', 0, "ridgefit.json", "3b193938bedb259ffd2b86468e228ab564a5c4d198566cf6f5626d778f781239"),
    ("ridgefit", "grid-3x3", 'x2-y', 0, "ridgefit.json", "1fbeeea75ef91eb53a5541cdd64ac4dd0e72afbfdedeb3123ba3d1d344ccb183"),
    ("ridgefit", "grid-3x3", 'norm', 0, "ridgefit.json", "dcea62e05a56235b7dc64568ea43ab113cf7a26475796ba2e717147613f48c03"),
    ("ridgefit", "monotone-curve", 'xy', 0, "ridgefit.json", "1169009f69dee81089b51fc34a79cf4c19be996325d211c012f447fcd596a450"),
    ("ridgefit", "monotone-curve", 'x2-y', 0, "ridgefit.json", "90e3b22170c37e1205f1c9d14c0c5cce67a3915b9d9f529513a66038db1ed1b7"),
    ("ridgefit", "monotone-curve", 'norm', 0, "ridgefit.json", "5aee2ea0eacb70eb4aea13ad2a53306e0735a1698eb956142ca743b0a3e7ee17"),
    ("ridgefit", "paper-5pt", 'xy', 0, "ridgefit.json", "7fd12cbce219a96e5482e8ebde0945129dff1cd1a9454a3b471a897e1ed2fa40"),
    ("ridgefit", "paper-5pt", 'x2-y', 0, "ridgefit.json", "491494c78f1b728694415d063517c83225692c3a7b4a985ae5a2af5a929c1643"),
    ("ridgefit", "paper-5pt", 'norm', 0, "ridgefit.json", "b0f6e91f66223f49c2c809cb65bcbce8de6ea3532e0e70158a286424371addce"),
    ("ridgefit", "paper-orbit", 'xy', 0, "ridgefit.json", "6a6d7d990968adfb241818603e8af520c2bb1d240f24912c10fa05cee95320a3"),
    ("ridgefit", "paper-orbit", 'x2-y', 0, "ridgefit.json", "e0697b2f45e8ec0e5d45d5accb293d3258ed8e75ceb2be69a80bd3546ba35091"),
    ("ridgefit", "paper-orbit", 'norm', 0, "ridgefit.json", "6f89300887bce355909029982557ce396c50d7b40f7b3a7fc25e236e05f3f657"),
    ("ridgefit", "parallel-segments", 'xy', 0, "ridgefit.json", "e9c01048f6c3ac7043c1630c2ffe032fdbb277466c53a88905cdfd291aa745cb"),
    ("ridgefit", "parallel-segments", 'x2-y', 0, "ridgefit.json", "3f59263abcb3bebbf51c1f44848770f591e559d6a0743e23c1ad1f47d9d34139"),
    ("ridgefit", "parallel-segments", 'norm', 0, "ridgefit.json", "c5be37761e4e91a5012c117dff052f07269562af96af11734ce08f58841c210c"),
    ("kfit", "grid-3x3", 'xy', 2, "certificate.json", "58c9c0815e2e261ad212d9570daf10e65f9c5a0a526b45b7892393425d7522ae"),
    ("kfit", "paper-5pt", 'xy', 2, "certificate.json", "1ce071af1ebbbfba3bfc03f1a1f15870f3b42da6d220cd35198f768d8feb0c15"),
    ("kfit", "grid-2x2", 'xy', 2, "certificate.json", "d947cd0ae173a00ed2590a2ead12bcd70b3ee5fc066a00d06f4e1887728f355d"),
    ("netfit", "grid-2x2", 'xy', 2, "certificate.json", "8f6c82b434b1365145bf7f7d5d05787ae1d1dcbe3c7686394fb440ef2d510ac9"),
    ("netfit", "grid-3x3", 'xy', 2, "certificate.json", "147b7ab4c5de940896502e29bb20e1473ac26a4fe68d5756c3d401f36b885046"),
    ("netfit", "paper-5pt", 'xy', 2, "certificate.json", "c247a9ef83c945ac10c1b5a2cb2675cef0f17bb4c5827a7d8213df851a822b86"),
]


@pytest.mark.parametrize(
    "command, preset, target, code, name, digest",
    GOLDEN,
    ids=[f"{c}-{p}-{t}" if t else f"{c}-{p}" for c, p, t, *_ in GOLDEN],
)
def test_golden_artifacts(tmp_path, command, preset, target, code, name, digest):
    params = {"target": target} if target else {}
    assert run(JobConfig(command, preset=preset, out_dir=str(tmp_path), params=params)) == code
    assert [p.name for p in tmp_path.iterdir()] == [name]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of the probe artifacts, on the default tests (x, y) at N = 1000 and
# on x, x2 at N = 300: (extra argv, artifact, digest).
PROBE_GOLDEN = [
    ([], "decay.csv", "fc965ffd0fd2a1e4579d2b2c512afb86e0bfe065bcf67457141813d74de55dff"),
    ([], "probe.json", "615cdd16e8fe8e65b5822926b153a02a414239a1671157abdde5200f435f7498"),
    (["--tests", "x,x2", "--N", "300"], "decay.csv", "5cec3b46a502e9f2b535e3b2a8a210aecb230f66f13b30d49f265985e1bbfb57"),
    (["--tests", "x,x2", "--N", "300"], "probe.json", "a9dc4925b5301e75865efb9b3c7363bbc03c80dc9e6365ef702a639c23aebca4"),
]


@pytest.mark.parametrize(
    "extra, name, digest",
    PROBE_GOLDEN,
    ids=[f"{' '.join(e) or 'default'}-{n}" for e, n, _ in PROBE_GOLDEN],
)
def test_golden_probe_artifacts(tmp_path, extra, name, digest):
    assert main(["probe", "--preset", "paper-orbit", *extra, "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["decay.csv", "probe.json"]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of sigma.csv: the benchmark's `sigma-eval --to 20` (tail, ten segments
# and their gaps at the defaults) and a run with non-unit parameters whose
# rows cover the zero tail, the window, segments and gaps: (argv, digest).
SIGMA_GOLDEN = [
    (["--to", "20"], "ebf1cf970b4abfb4b500ee945aaa2dd7f1d7c5257d102f7ca2d41b8376dd8e14"),
    (
        ["--alpha", "3/2", "--l", "5/2", "--sharpness", "1/2", "--from", "-3/2", "--to", "9", "--step", "1/16"],
        "27741c4d06ce35765b27c65c41b140bd4e0109ab65e7acddd32cbe4c621a1fce",
    ),
]


@pytest.mark.parametrize("argv, digest", SIGMA_GOLDEN, ids=["to-20", "non-unit"])
def test_golden_sigma_eval(tmp_path, argv, digest):
    assert main(["sigma-eval", *argv, "--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["sigma.csv"]
    assert hashlib.sha256((tmp_path / "sigma.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(5))
def test_sigma_rows_match_the_textbook_activation(tmp_path, seed):
    """Each ``sigma.csv`` row at ``t = (first + i * stride) / den``, left
    unreduced where ``--from`` and ``--step`` share a denominator factor, is
    ``repr(tn / den)`` and the float of the textbook activation there; the
    rows cover the tail, segments, their ends and gaps."""
    rng = random.Random(seed)
    spec = ActivationSpec(
        Fraction(rng.randint(1, 9), rng.randint(1, 6)),
        Fraction(rng.randint(1, 9), rng.randint(1, 4)),
        Fraction(rng.randint(1, 5), rng.randint(1, 3)),
    )
    while True:  # rows on every multiple of alpha / k, so on each segment's two ends
        k = rng.randint(2, 6)
        step = spec.alpha / k
        start = -step * rng.randint(1, 2 * k)
        if math.gcd(start.denominator, step.denominator) > 1:
            break
    stop = 60 * spec.alpha  # segments up to m = 30, whose ratios pass 53 bits
    flags = {"--alpha": spec.alpha, "--l": spec.half_width, "--sharpness": spec.sharpness}
    flags |= {"--from": start, "--to": stop, "--step": step}
    argv = [x for flag, q in flags.items() for x in (flag, format_rational(q))]
    assert main(["sigma-eval", *argv, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sigma.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,sigma_t"
    den = math.lcm(start.denominator, step.denominator)
    first, stride = start * den, step * den
    kinds = Counter()
    for i, line in enumerate(lines[1:]):
        tn = int(first + i * stride)
        t = Fraction(tn, den)
        want = textbook_sigma(spec, t)
        assert line == f"{tn / den!r},{float(want)!r}", (spec, t)
        kinds["tail" if t < spec.alpha else "segment" if isinstance(want, Fraction) else "gap"] += 1
        kinds["unreduced"] += t.denominator < den
        kinds["segment end"] += t >= spec.alpha and (t / spec.alpha).denominator == 1
    assert len(lines) - 1 == (stop - start) // step + 1
    assert all(kinds[k] for k in ("tail", "segment", "segment end", "gap", "unreduced")), kinds


def _write_config(path: str, preset: str, target: str) -> None:
    """A preset and its target values as a configuration file."""
    cfg = config_preset(preset)
    payload = {
        "dimension": cfg.points[0].dim,
        "points": [[format_rational(c) for c in p.coords] for p in cfg.points],
        "directions": [[format_rational(c) for c in a.coords] for a in cfg.dirs],
        "values": [format_rational(v) for v in target_values(target, cfg)],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


# Each command with no optional flag: (argv after the command, JobConfig
# fields) naming the same job.  The command line and JobConfig must agree on
# every default, so the parser may hold none of its own.
PARITY = {
    "paths": (["--preset", "paper-5pt"], {"preset": "paper-5pt"}),
    "bolts": (["--preset", "grid-2x2"], {"preset": "grid-2x2"}),
    "orbits": (["--preset", "paper-orbit"], {"preset": "paper-orbit"}),
    "ridgefit": (["segments.json"], {"input_path": "segments.json"}),
    "kfit": (["segments.json"], {"input_path": "segments.json"}),
    "probe": (["--preset", "paper-orbit"], {"preset": "paper-orbit"}),
    "sigma-eval": ([], {}),
    "sigma-build": (["--poly", "1,1/200"], {"params": {"poly": "1,1/200"}}),  # the constant 1 is 1/200 off: --eps decides
}


@pytest.mark.parametrize("command", PARITY)
def test_main_and_jobconfig_write_identical_artifacts(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    _write_config("segments.json", "parallel-segments", "xy")
    argv, fields = PARITY[command]
    code = main([command, *argv, "--out", "main"])
    assert run(JobConfig(command, out_dir="run", **fields)) == code
    names = sorted(p.name for p in Path("main").iterdir())
    assert names and names == sorted(p.name for p in Path("run").iterdir())
    for name in names:
        assert Path("main", name).read_bytes() == Path("run", name).read_bytes(), name


ONE_PROCESS_CALLS = [["sigma-eval", "--to", "2"], ["sigma-build", "--poly"]]  # valid, then a usage error


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


@pytest.fixture(scope="module")
def separate_runs(tmp_path_factory) -> dict[tuple, tuple]:
    """Each of ``ONE_PROCESS_CALLS`` in a process of its own: exit code, stderr, artifacts."""
    runs = {}
    for argv in ONE_PROCESS_CALLS:
        out = tmp_path_factory.mktemp("separate") / argv[0]
        proc = subprocess.run(
            [sys.executable, "-m", "ridgekit", *argv, "--out", str(out)],
            capture_output=True,
            env={**os.environ, "COLUMNS": "80"},
        )
        runs[tuple(argv)] = (proc.returncode, proc.stderr.decode(), _artifacts(out))
    return runs


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

    def test_unknown_command_exits_one(self, tmp_path, capsys):
        """A usage error exits 1: exit 2 is a failed density precondition."""
        assert main(["bogus", "--out", str(tmp_path)]) == 1
        assert "error: argument command: invalid choice: 'bogus'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kfit", "-h"])
        assert exc.value.code == 0
        assert "--eps" in capsys.readouterr().out

    @pytest.mark.parametrize("order", ["usage-error-first", "valid-first"])
    def test_main_calls_in_one_process_match_separate_runs(
        self, tmp_path, capsys, monkeypatch, separate_runs, order
    ):
        """The parser is built by the first ``main`` call and reused: a usage
        error before or after a valid command changes neither's exit code,
        stderr or artifacts."""
        assert [code for code, *_ in separate_runs.values()] == [0, 1]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
        cli._build_parser.cache_clear()
        calls = ONE_PROCESS_CALLS if order == "valid-first" else ONE_PROCESS_CALLS[::-1]
        for argv in calls:
            out = tmp_path / argv[0]
            code = main([*argv, "--out", str(out)])
            assert (code, capsys.readouterr().err, _artifacts(out)) == separate_runs[tuple(argv)]

    def test_unknown_preset_errors(self, tmp_path, capsys):
        assert run(JobConfig("paths", preset="nope", out_dir=str(tmp_path))) == 1
        assert "unknown preset" in capsys.readouterr().err
