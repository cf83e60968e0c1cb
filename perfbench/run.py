"""ridgekit benchmark: four closed-loop workloads, end-to-end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload, one table

Workloads (see workloads.py): ``sweep``, ``decide``, ``ridge-cold``, ``cli``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs untraced and
traced passes and reports the per-layer breakdown.  The last stdout line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record goes to ``.perfbench_out/``.

Every workload runs in its own process, one at a time, with single-threaded
BLAS.  ``setup_s`` is the median over several fresh processes.  ridgekit is
imported from ``src/`` of the working directory; without it the benchmark
exits with code 2 and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKLOADS = ("sweep", "decide", "ridge-cold", "cli")
SETUP_PROCESSES = 5
DEADLINE_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
P90_MIN_SAMPLES = 100


class WorkerError(Exception):
    pass


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + extra
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=os.environ | PINNED_ENV,
            stdout=subprocess.PIPE,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("workload process passed the deadline") from None
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1].split(" ", 1)[1])


def layer_unit(name: str) -> str:
    if name.endswith((".calls", "sigma_evals", "netfit_units", "kfit_index_bits")):
        return "count"
    if name.endswith("artifact_bytes"):
        return "bytes"
    if name.startswith(("share.", "trace.overhead")) or name.endswith("_per_fit"):
        return "ratio"
    return "s"


def measure(args) -> dict:
    """Run one workload; returns the result line plus the full record."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        setups = [run_worker(args, ["--setup-only"], deadline) for _ in range(SETUP_PROCESSES - 1)]
    record = run_worker(args, [], deadline)
    setups.append(record)
    record["setup_s_samples"] = [s["setup_s"] for s in setups]
    record["raw_e2e"]["setup_s"] = statistics.median(s["raw_setup_s"] for s in setups)
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in record["layers"].items()}
    else:
        record["e2e"]["setup_s"] = statistics.median(record["setup_s_samples"])
        metrics = {k: {"value": record["e2e"][k], "unit": u} for k, u in END_TO_END.items()}
    correct = record["failed"] == 0 and record["self_check"]["ok"]
    result = {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    out = ROOT / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record | {"result": result}, indent=1) + "\n", encoding="utf-8")
    return result | {"record": record}


def metrics_table(workload: str, result: dict) -> list[str]:
    """The end-to-end metrics by name and unit, with the reason for any that
    this workload does not report."""
    rec = result["record"]
    e2e, raw = rec["e2e"], rec["raw_e2e"]
    samples = e2e["latency_samples"]
    kernel = rec["calibration"]["kernel"]
    scaled = f"scaled by the {kernel} kernel, raw" if kernel else "not scaled"
    rows = [(k, e2e[k], u, f"{scaled} {raw[k]:.6g}" if k in raw else "") for k, u in END_TO_END.items()]
    if samples < P90_MIN_SAMPLES:
        rows[3] = rows[3][:3] + (rows[3][3] + f"; p90 over only {samples} op kinds",)
    rows.append(("failed_share", rec["failed"] / rec["attempted"], "ratio", "gated as correct/failed"))
    for name in ("netfit_units", "kfit_index_bits"):
        if name in e2e:
            rows.append((name, e2e[name], "count", "first pass"))
        else:
            rows.append((name, None, "count", f"n/a: {workload} runs no {name.split('_')[0]}"))
    lines = []
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        lines.append(f"  {workload:<10} {name:<16} {shown:>12} {unit:<6} {note}")
    return lines


def report(workload: str, result: dict) -> None:
    rec = result["record"]
    print(f"perfbench {workload}: seed {rec['provenance']['seed']}, trace {rec['trace']}, "
          f"{rec['attempted']} ops in {len(rec['passes'])} passes, {rec['measured_s']:.1f}s")
    print("  provenance " + json.dumps(rec["provenance"], sort_keys=True))
    print(f"  inputs_sha256 {rec['inputs_sha256']}")
    sc = rec["self_check"]
    print(f"  self-check: {sc['caught']}/{sc['tested']} corrupted results caught")
    for err in rec["errors"]:
        print(f"  FAILED {err}")
    if rec["trace"]:
        layers = rec["layers"]
        print(f"  tracing overhead {layers['trace.overhead']:.3f} "
              f"(base: untraced op time {layers['trace.base_s']:.3f}s per pass)")
        for name in sorted(layers):
            print(f"  {name:<44} {layers[name]:>14.6g} {layer_unit(name)}")
        if rec["absent"]:
            print("  absent (function no longer exists, reported as 0): " + ", ".join(rec["absent"]))
    else:
        print("\n".join(metrics_table(workload, result)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ridgekit" / "__init__.py").is_file():
        print(f"perfbench: no ridgekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        args.workload = name
        try:
            results[name] = measure(args)
        except WorkerError as exc:
            print(f"perfbench {name}: {exc}", file=sys.stderr)
            return 1
        report(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
        del final["record"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
