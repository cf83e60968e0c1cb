"""Rebuild ``reference.json``: the digests every benchmark run checks against.

Run from the repository root, only at the commit whose outputs define
"correct" (the benchmark's own outputs must never be regenerated to make a
change pass):

    python3 perfbench/make_reference.py

For every key a workload can draw, it runs the op, requires the independent
invariants to hold, and stores a digest.  Each decide and ridge-cold key is
built with two different geometries and must give the same digest, which
checks that the digests depend on the structure only.  Takes a few minutes.
"""

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ridgekit  # noqa: E402
import ridgekit.cli  # noqa: E402,F401

import inputs  # noqa: E402
from worker import git_commit  # noqa: E402
from workloads import CLI_OPS, Cli, Decide, RidgeCold, Sweep  # noqa: E402


def run_checked(wl, op):
    result = wl.collect(op, wl.run_op(op))
    errors = wl.invariant_errors(op, result)
    if errors:
        raise SystemExit(f"{wl.name} {op['key']}: {errors}")
    return result


def keyed_digests(wl, specs) -> dict:
    out = {}
    for key, spec in specs:
        for geometry in (1, 2):
            op = wl.make_op(key, spec, inputs.rng_for("reference-geometry", spec, geometry))
            d = wl.digest(op, run_checked(wl, op))
            if out.setdefault(key, d) != d:
                raise SystemExit(f"{wl.name} {key}: digest depends on the geometry")
    return out


def decide_refs(wl) -> dict:
    specs = [(f"stair:{n}", ("stair", n)) for n in range(40, 161)]
    specs += [(f"closed:{n}", ("closed", n)) for n in range(42, 161, 2)]
    specs += [("generic", ("generic", n)) for n in (100, 250, 400)]
    specs += [
        (f"grid:{a}x{b}:{t}", ("grid", a, b, t))
        for a in inputs.GRID_SIZES
        for b in inputs.GRID_SIZES
        for t in range(len(inputs.DIR_TRIPLES))
    ]
    return keyed_digests(wl, specs)


def ridge_refs(wl) -> dict:
    specs = []
    for n in inputs.RIDGE_SIZES:
        specs += [(f"{fam}:{n}", (fam, n)) for fam in ("stair", "twoline", "closed")]
        specs += [(f"forest:{n}:{v}", ("forest", n, v)) for v in range(inputs.FOREST_VARIANTS)]
    return keyed_digests(wl, specs)


def cli_refs(wl) -> dict:
    out = {}
    for seed in (1, 2):
        wl.seed = seed
        for op in wl.make_pass(0):
            fp = wl.fingerprint(op, run_checked(wl, op))
            if out.setdefault(op["key"], fp) != fp:
                raise SystemExit(f"cli {op['key']}: artifacts depend on the seed")
    return out


def main() -> int:
    workdir = ROOT / ".perfbench_out" / "reference"
    refs = {"provenance": {"commit": git_commit(), "ridgekit": ridgekit.__version__}}
    t0 = time.perf_counter()
    sweep = Sweep(ridgekit, 0, None, workdir)
    refs["sweep"] = [
        sweep.digest(op, run_checked(sweep, op))
        for op in (sweep.make_op(i) for i in range(inputs.SWEEP_POOL_SIZE))
    ]
    print(f"sweep: {len(refs['sweep'])} digests, {time.perf_counter() - t0:.1f}s", flush=True)
    for cls, build in ((Decide, decide_refs), (RidgeCold, ridge_refs), (Cli, cli_refs)):
        t0 = time.perf_counter()
        wl = cls(ridgekit, 0, None, workdir)
        refs[wl.name] = build(wl)
        print(f"{wl.name}: {len(refs[wl.name])} keys, {time.perf_counter() - t0:.1f}s", flush=True)
    shutil.rmtree(workdir, ignore_errors=True)
    if len(refs["cli"]) != len(CLI_OPS):
        raise SystemExit("cli op labels are not unique")
    (HERE / "reference.json").write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
