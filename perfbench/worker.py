"""One workload process: set-up, timed passes, checks, optional tracing.

Started by ``run.py`` (never by hand), with the checkout root as the working
directory.  ``--setup-only`` stops after set-up and reports its duration;
otherwise the process runs whole passes of the workload's op list,
closed-loop on one thread, until the next pass would end after
``--seconds``.  With ``--trace 1`` it alternates an untraced and a traced
pass so the tracing overhead has a base measured on the same op list.
The last stdout line is ``PERFBENCH_RESULT <json>``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import SpeedClock  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MAX_CORRUPTIONS = 40
SETUP_CALIBRATIONS = 9


def import_ridgekit():
    """Import ridgekit from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ridgekit
    import ridgekit.cli  # noqa: F401  (also imports presets)

    origin = Path(ridgekit.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"ridgekit imported from {origin}, not from {src}")
    return ridgekit


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ridgekit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class Runner:
    def __init__(self, workload, tracer, clock):
        self.wl = workload
        self.tracer = tracer
        self.clock = clock
        self.latencies: list[float] = []  # scaled to reference seconds
        self.raw_latencies: list[float] = []
        self.latency_keys: list = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.passes: list[dict] = []
        self.input_hash = hashlib.sha256()
        self.first_results: list | None = None

    def run_pass(self, ops, traced: bool) -> dict:
        wl = self.wl
        if traced:
            self.tracer.install()
        body = self.tracer.span("op", wl.run_op) if traced else wl.run_op
        clock = time.perf_counter
        starts, raw_lat, results = [], [], []
        wall = clock()
        try:
            for op in ops:
                self.clock.maybe_sample()
                t = clock()
                try:
                    raw = body(op)
                except Exception:  # an op that raises counts as failed
                    raw_lat.append(clock() - t)
                    results.append(traceback.format_exc(limit=3))
                else:
                    raw_lat.append(clock() - t)
                    results.append(wl.collect(op, raw))
                starts.append(t)
        finally:
            if traced:
                self.tracer.remove()
        self.clock.sample()
        wall = clock() - wall
        if not self.passes:
            # high-water mark after the first pass: later passes do more work
            # (and fill the solver cache further) when the code is faster
            self.first_pass_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        lat = [self.clock.scaled(t, d) for t, d in zip(starts, raw_lat)]
        quality: dict = {}
        artifact_bytes = 0
        for op, res in zip(ops, results):
            self.input_hash.update(json.dumps(wl.input_record(op)).encode())
            self.attempted += 1
            errs = [res] if isinstance(res, str) else wl.check(op, res)
            if errs:
                self.failed += 1
                self.errors.extend(f"{op['key']}: {e}" for e in errs[:2])
            else:
                artifact_bytes += wl.artifact_bytes(res)
                for k, v in wl.quality(op, res).items():
                    quality[k] = quality.get(k, 0) + v
        if self.first_results is None:
            self.first_results = list(zip(ops, results))
        if not traced:
            self.latencies.extend(lat)
            self.raw_latencies.extend(raw_lat)
            self.latency_keys.extend(op["key"] for op in ops)
        info = {
            "traced": traced,
            "ops": len(ops),
            "op_s": sum(lat),
            "raw_op_s": sum(raw_lat),
            "wall_s": wall,
            "quality": quality,
            "artifact_bytes": artifact_bytes,
        }
        self.passes.append(info)
        return info

    def self_check(self) -> dict:
        """Damaged copies of real results must fail their check."""
        tested = caught = 0
        for op, res in self.first_results or []:
            if isinstance(res, str):
                continue
            for bad in self.wl.corrupt(op, res):
                tested += 1
                caught += bool(self.wl.check(op, bad))
                if tested >= MAX_CORRUPTIONS:
                    break
            if tested >= MAX_CORRUPTIONS:
                break
        return {"tested": tested, "caught": caught, "ok": tested > 0 and caught == tested}


def latency_metrics(lat: list[float], keys: list | None) -> dict:
    """Throughput over every op; percentiles over every op, or with ``keys``
    over the per-key medians."""
    per_op = lat
    if keys is not None:
        by_key: dict = {}
        for k, v in zip(keys, lat):
            by_key.setdefault(k, []).append(v)
        per_op = [statistics.median(v) for v in by_key.values()]
    p90 = per_op[0] if len(per_op) == 1 else statistics.quantiles(per_op, n=10)[8]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(per_op) * 1000.0,
        "latency_p90_ms": p90 * 1000.0,
        "latency_samples": len(per_op),
    }


def layer_metrics(tracer, runner) -> dict:
    from tracer import COUNTED, REPORTED

    traced = [p for p in runner.passes if p["traced"]]
    plain = [p for p in runner.passes if not p["traced"]]
    n = len(traced)
    totals = tracer.layer_totals()
    out: dict[str, float] = {}
    for name, fields in REPORTED.items():
        t = totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            out[f"{name}.{f}"] = t[f] / n
    for name in COUNTED:
        key = name if name == "netapprox.sigma_evals" else f"{name}.calls"
        out[key] = tracer.counts.get(name, 0) / n
    fits = totals.get("incidence.interpolate_ridge", {}).get("calls", 0)
    facts = totals.get("exactlinalg.GaussJordanSolver", {}).get("calls", 0)
    out["exactlinalg.factorizations_per_fit"] = facts / fits if fits else 0.0
    # op.s is raw wall time, like the spans it is compared with; the
    # overhead compares scaled times, so a change of machine speed between
    # the untraced and the traced pass does not show as overhead
    op_s = sum(p["raw_op_s"] for p in traced) / n
    base_s = sum(p["op_s"] for p in plain) / len(plain)
    out["op.s"] = op_s
    out["trace.base_s"] = base_s
    out["trace.overhead"] = sum(p["op_s"] for p in traced) / n / base_s
    out["cli.artifact_bytes"] = sum(p["artifact_bytes"] for p in traced) / n
    first = runner.passes[0]["quality"]
    out["cli.netfit_units"] = first.get("netfit_units", 0)
    out["cli.kfit_index_bits"] = first.get("kfit_index_bits", 0)

    def share(*names):
        return sum(totals.get(a, {}).get(b, 0.0) for a, b in names) / n / op_s

    out["share.interpolate_ridge"] = share(("incidence.interpolate_ridge", "s"))
    out["share.nullspace_incidence"] = share(
        ("exactlinalg.nullspace_int", "s"),
        ("incidence.find_closed_path", "self_s"),
        ("incidence.build_incidence", "s"),
    )
    out["share.GaussJordanSolver"] = share(("exactlinalg.GaussJordanSolver", "s"))
    out["share.approx_univariate"] = share(("netapprox.approx_univariate", "s"))
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    rk = import_ridgekit()
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench_out" / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](rk, args.seed, None, workdir)
    try:
        ops = workload.make_pass(0)
        setup = {"raw_setup_s": time.perf_counter() - T_START}
        clock = SpeedClock(workload.calibration)
        for _ in range(SETUP_CALIBRATIONS):
            clock.sample()
        now = time.perf_counter()
        setup["setup_s"] = setup["raw_setup_s"] * clock.factor(now, now)
        if args.setup_only:
            print("PERFBENCH_RESULT " + json.dumps(setup))
            return 0
        workload.refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        return run(args, workload, ops, setup, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workload, ops, setup: dict, clock) -> int:
    from tracer import Tracer

    tracer = Tracer()
    runner = Runner(workload, tracer, clock)
    start = time.perf_counter()
    pass_no = 0
    while True:
        cycle = time.perf_counter()
        runner.run_pass(ops, traced=False)
        if args.trace:
            pass_no += 1
            runner.run_pass(workload.make_pass(pass_no), traced=True)
        cycle = time.perf_counter() - cycle
        pass_no += 1
        if time.perf_counter() - start + cycle > args.seconds:
            break
        ops = workload.make_pass(pass_no)
    measured_s = time.perf_counter() - start

    result = {
        "workload": args.workload,
        "trace": args.trace,
        **setup,
        "measured_s": measured_s,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:20],
        "self_check": runner.self_check(),
        "inputs_sha256": runner.input_hash.hexdigest(),
        "passes": runner.passes,
        "provenance": provenance(args.seed),
    }
    keys = runner.latency_keys if workload.latency_by_key else None
    result["e2e"] = latency_metrics(runner.latencies, keys)
    result["e2e"]["peak_rss_mb"] = runner.first_pass_rss_mb
    result["e2e"]["samples"] = len(runner.latencies)
    result["e2e"].update(runner.passes[0]["quality"])
    result["raw_e2e"] = latency_metrics(runner.raw_latencies, keys)
    result["calibration"] = {"kernel": workload.calibration, "samples": len(clock.durations)}
    if clock.durations:
        result["calibration"] |= {
            "median_s": statistics.median(clock.durations),
            "min_s": min(clock.durations),
            "max_s": max(clock.durations),
        }
    if args.trace:
        result["layers"] = layer_metrics(tracer, runner)
        result["absent"] = tracer.absent
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
        result["spans_file"] = str(out.relative_to(ROOT))
    print("PERFBENCH_RESULT " + json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
