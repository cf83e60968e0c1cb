"""One-off scaling report: the rows of the ROADMAP baseline table as curves.

Not a workload of the benchmark; run it by hand when a curve is wanted:

    python3 perfbench/scaling.py            # writes perfbench/scaling.json

Each row is timed ``repeats`` times in one process with single-threaded BLAS
(set the environment before numpy loads) and reported with its median, min,
max and spread ((max - min) / median).  Cold ridge fits get a fresh rational
offset per repeat, so the solver cache never serves them.  About three
minutes on a 2-core x86-64 machine.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import ridgekit as rk  # noqa: E402
from ridgekit.presets import config_preset, probe_test, target_values  # noqa: E402

import inputs  # noqa: E402
from worker import provenance  # noqa: E402


def staircase(n: int, tag) -> "rk.PointConfig":
    rng = inputs.rng_for("scaling", n, tag)
    points, dirs = inputs.points_from_level_pairs(inputs.staircase_pairs(n), rng)
    return rk.PointConfig.build(inputs.shifted(points, rng), dirs)


def generic(n: int, tag) -> "rk.PointConfig":
    rng = inputs.rng_for("scaling-generic", n, tag)
    points, dirs = inputs.generic_points(n, rng)
    return rk.PointConfig.build(points, dirs)


def timed(fn) -> float:
    t = time.perf_counter()
    fn()
    return time.perf_counter() - t


def row(op: str, size: str, repeats: int, make_call) -> dict:
    """``make_call(i)`` returns the zero-argument call for repeat ``i``
    (input building stays outside the timing)."""
    times = [timed(make_call(i)) for i in range(repeats)]
    med = statistics.median(times)
    out = {
        "op": op,
        "size": size,
        "repeats": repeats,
        "median_s": med,
        "min_s": min(times),
        "max_s": max(times),
        "spread": (max(times) - min(times)) / med,
    }
    print(f"{op:<34} {size:<8} x{repeats}  median {med:9.4f}s  spread {out['spread']:.2f}", flush=True)
    return out


def data(n: int, shift: int = 0) -> list[Fraction]:
    return [Fraction(j % 7 + shift, 3) for j in range(n)]


def cold_fit(n):
    def call(i):
        cfg = staircase(n, i)
        return lambda: rk.interpolate_ridge(cfg, data(n))
    return call


def verdict(make, n):
    def call(i):
        cfg = make(n, i)
        return lambda: rk.find_closed_path(cfg)
    return call


def closed_bolt(n):
    def call(i):
        cfg = staircase(n, i)
        graph = rk.build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        return lambda: rk.find_closed_bolt(graph)
    return call


def probe(n):
    gen = rk.paper_orbit_generator()
    tests = [probe_test("x"), probe_test("y"), probe_test("ridge-identity")]
    return lambda i: (lambda: rk.weak_star_probe(gen, tests, n))


def main() -> int:
    rows = []
    for n, reps in ((20, 5), (40, 5), (80, 3), (160, 2)):
        rows.append(row("interpolate_ridge, cold (staircase)", f"n={n}", reps, cold_fit(n)))
    warm = staircase(160, "warm")
    rk.interpolate_ridge(warm, data(160))
    rows.append(row("interpolate_ridge, warm (staircase)", "n=160", 5,
                    lambda i: (lambda: rk.interpolate_ridge(warm, data(160, i + 1)))))
    for n in (40, 80, 160, 320):
        rows.append(row("find_closed_path (staircase)", f"n={n}", 5, verdict(staircase, n)))
    for n in (160, 320):
        rows.append(row("find_closed_bolt (staircase)", f"n={n}", 5, closed_bolt(n)))
    for n in (100, 200, 400):
        rows.append(row("find_closed_path (generic, k=3)", f"n={n}", 5, verdict(generic, n)))
    for n, reps in ((1000, 5), (2000, 3), (5000, 3), (10000, 2), (20000, 2)):
        rows.append(row("weak_star_probe (paper-orbit)", f"N={n}", reps, probe(n)))
    # The preset rows share one PointConfig, so repeats after the first find
    # the ridge solve in the solver cache (the first repeat is the max).
    curve = config_preset("monotone-curve")
    theta = rk.ThetaInterval.create(-5, 5)
    rows.append(row("approx_network (monotone-curve, prod)", "n=21", 3, lambda i: (
        lambda: rk.approx_network(curve, target_values("prod", curve), rk.logistic_oracle(), theta, 0.01))))
    segs = config_preset("parallel-segments")
    rows.append(row("build_k_network (parallel-segments, xy)", "n=32", 3, lambda i: (
        lambda: rk.build_k_network(segs, target_values("xy", segs), "1/100"))))
    report = {"provenance": provenance(seed=0), "rows": rows}
    (HERE / "scaling.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
