"""Every command writes the same bytes and exits the same under ``python -O``.

Assertions are stripped under ``-O``, so no artifact or exit code may depend
on one.  Each case runs in process here (plain), and all of them run again in
one ``python -O`` subprocess that calls ``ridgekit.cli.main`` for every case
and prints each exit code and each artifact's sha256.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import ridgekit
from ridgekit.cli import main

# A closed staircase under two directions: six points whose level graph is
# one cycle, so the fit projects out one closed path on the level forest.
CLOSED_STAIRCASE = {
    "dimension": 2,
    "points": [["0", "0"], ["1/3", "0"], ["1/3", "5/2"], ["-2", "5/2"], ["-2", "-7"], ["0", "-7"]],
    "directions": [["1", "0"], ["0", "1"]],
    "values": ["1", "-1/2", "3", "0", "7/3", "-5"],
}

# (expected exit code, argv without --out); {closed_staircase} is the path of
# CLOSED_STAIRCASE written as JSON
CASES = [
    (2, "paths --preset paper-5pt"),
    (0, "paths --preset monotone-curve"),
    (2, "paths --preset grid-3x3"),
    (0, "bolts --preset grid-3x3"),
    (0, "orbits --preset grid-3x3"),
    (0, "orbits --preset parallel-segments"),
    (0, "ridgefit --preset grid-3x3 --f xy"),
    (0, "ridgefit --preset parallel-segments --f xy"),
    (0, "ridgefit {closed_staircase}"),
    (0, "probe --preset paper-orbit --N 200"),
    (0, "netfit --preset monotone-curve --f x"),
    (0, "kfit --preset parallel-segments --f xy"),
    (0, "sigma-eval --to 2"),
    (0, "sigma-eval --alpha 3/2 --l 5/2 --from -3/2 --to 9 --step 1/16"),
    (0, "sigma-build --poly 1,-1/2,1/3"),
    (0, "sigma-build --poly -1,2"),
]

OPTIMIZED_RUNNER = """
import contextlib, hashlib, io, json, sys
from pathlib import Path
from ridgekit.cli import main

base, cases = Path(sys.argv[1]), json.loads(sys.argv[2])
results = []
for i, argv in enumerate(cases):
    out = base / str(i)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())} if out.is_dir() else {}
    results.append([code, digests])
print(json.dumps({"optimize": sys.flags.optimize, "debug": __debug__, "results": results}))
"""


def digests(out: Path) -> dict[str, str]:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def run_optimized(base: Path, cases: list[list[str]]) -> list[list]:
    src = str(Path(ridgekit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_RUNNER, str(base), json.dumps(cases)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["optimize"] == 1 and report["debug"] is False
    return report["results"]


def test_every_case_matches_under_python_O(tmp_path, capsys):
    closed_staircase = tmp_path / "closed-staircase.json"
    closed_staircase.write_text(json.dumps(CLOSED_STAIRCASE), encoding="utf-8")
    cases = [args.format(closed_staircase=closed_staircase).split() for _, args in CASES]
    plain = []
    for i, argv in enumerate(cases):
        code = main(argv + ["--out", str(tmp_path / "plain" / str(i))])
        plain.append([code, digests(tmp_path / "plain" / str(i))])
    capsys.readouterr()
    optimized = run_optimized(tmp_path / "O", cases)
    for (want, args), (code, files), (o_code, o_files) in zip(CASES, plain, optimized, strict=True):
        assert code == want, f"ridgekit {args}: exit {code}, expected {want}"
        assert o_code == want, f"ridgekit {args} under python -O: exit {o_code}, expected {want}"
        assert files, f"ridgekit {args} wrote no artifact"
        assert o_files == files, f"ridgekit {args}: artifacts differ under python -O"
