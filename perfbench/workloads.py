"""The four workloads: their op lists, the op bodies and the correctness checks.

Each workload object builds the op list of one pass from the seed
(``make_pass``), runs one op by calling into ridgekit through module
attributes (``run_op``, so the tracer's wrappers are seen), and checks one
result (``check``) in two independent ways: against the reference digest of
its key, and by an invariant that needs no reference.  ``corrupt`` returns
deliberately damaged copies of a result for the self-check; each must fail
``check``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

import inputs


def digest_of(obj) -> str:
    text = json.dumps(obj, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _dot(a, p) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, p)), Fraction(0))


def expected_levels(points, dirs) -> list[list[Fraction]]:
    """Sorted distinct projection levels, computed without ridgekit."""
    return [sorted({_dot(a, p) for p in points}) for a in dirs]


def annihilates(points, weights, dirs) -> bool:
    """True iff the weights sum to zero on every level of every direction
    (computed without ridgekit)."""
    for a in dirs:
        sums: dict[Fraction, Fraction] = {}
        for p, w in zip(points, weights):
            lv = _dot(a, p)
            sums[lv] = sums.get(lv, Fraction(0)) + w
        if any(s != 0 for s in sums.values()):
            return False
    return True


def verdict_summary(verdict, points) -> list:
    """Dense flag plus certificate weights in input point order, scaled so the
    first nonzero weight is positive (independent of the coordinates)."""
    if verdict.dense:
        return ["dense"]
    w = verdict.certificate.weights_for(points)
    first = next(x for x in w if x != 0)
    sign = 1 if first > 0 else -1
    return ["cert", [str(sign * x) for x in w]]


def certificate_errors(verdict, cfg) -> list[str]:
    """Invariants of a certificate that need no reference."""
    if verdict.dense:
        return []
    cert = verdict.certificate
    errors = []
    if not cert.verify(cfg.dirs):
        errors.append("certificate does not annihilate (cert.verify)")
    support = [p.coords for p in cert.measure.support]
    weights = list(cert.measure.weights)
    if not annihilates(support, weights, [a.coords for a in cfg.dirs]):
        errors.append("certificate does not annihilate (independent level sums)")
    if weights and weights[0] <= 0:
        errors.append("lexicographically first certificate weight is not positive")
    return errors


def table_summary(ridge, residual) -> list:
    return [[[str(v) for v in t.values] for t in ridge.tables], str(residual)]


def ridge_errors(ridge, residual, cfg, data, levels, path_free) -> list[str]:
    """Invariants of one ridge fit that need no reference."""
    errors = []
    if [list(t.levels) for t in ridge.tables] != levels:
        errors.append("table levels differ from the projection levels")
        return errors
    worst = max(abs(f - ridge.value_at(p)) for p, f in zip(cfg.points, data))
    if worst != residual:
        errors.append(f"residual {residual} but value_at misses by {worst}")
    if path_free and residual != 0:
        errors.append("path-free configuration with nonzero residual")
    return errors


def _flip_certificate(rk, verdict):
    m = verdict.certificate.measure
    weights = (-m.weights[0],) + tuple(m.weights[1:])
    cert = rk.ClosedPathCertificate(rk.DiscreteMeasure(m.support, weights))
    return rk.DensityVerdict(False, cert)


def _bump_table(rk, ridge):
    t0 = ridge.tables[0]
    bumped = rk.LevelTable(t0.levels, (t0.values[0] + 1,) + tuple(t0.values[1:]))
    return dataclasses.replace(ridge, tables=(bumped,) + tuple(ridge.tables[1:]))


class Workload:
    name = ""
    calibration: str | None = None
    # latency percentiles over one value per op key (the median over passes)
    # instead of over every op, for op lists that repeat the same kinds
    latency_by_key = False

    def __init__(self, rk, seed: int, refs: dict | None, workdir: Path):
        self.rk = rk
        self.seed = seed
        self.refs = refs
        self.workdir = workdir

    def check(self, op, result) -> list[str]:
        errors = self.invariant_errors(op, result)
        if self.refs is not None:
            want = self.reference(op)
            got = self.digest(op, result)
            if want is None:
                errors.append(f"no reference digest for {op['key']}")
            elif got != want:
                errors.append(f"digest {got} differs from reference {want}")
        return errors

    def reference(self, op):
        return self.refs[self.name].get(op["key"])

    def collect(self, op, result):
        """Turn a raw op result into the form ``check`` reads (untimed)."""
        return result

    def quality(self, op, result) -> dict:
        return {}

    def artifact_bytes(self, result) -> int:
        return 0

    def input_record(self, op):
        """What goes into the input hash for this op."""
        return [op["key"], [[str(c) for c in p.coords] for p in op["cfg"].points]]


class Sweep(Workload):
    """Small C03-shaped configurations: one verdict and 20 fits per op."""

    name = "sweep"
    calibration = "fraction_sum"
    ops_per_pass = 200

    def __init__(self, *args):
        super().__init__(*args)
        self.order = inputs.sweep_order(self.seed)

    def make_pass(self, pass_no: int) -> list[dict]:
        size = inputs.SWEEP_POOL_SIZE
        ops = []
        for i in range(self.ops_per_pass):
            slot = pass_no * self.ops_per_pass + i
            ops.append(self.make_op(self.order[slot % size]))
        return ops

    def make_op(self, index: int) -> dict:
        pts, dirs, data = inputs.sweep_case(index)
        cfg = self.rk.PointConfig.build(pts, dirs)
        return {"key": index, "cfg": cfg, "data": data}

    def reference(self, op):
        return self.refs[self.name][op["key"]]

    def input_record(self, op):
        return super().input_record(op) + [[[str(v) for v in d] for d in op["data"]]]

    def run_op(self, op):
        inc = self.rk.incidence
        cfg = op["cfg"]
        verdict = inc.density_verdict(cfg)
        fits = [inc.interpolate_ridge(cfg, values) for values in op["data"]]
        return verdict, fits

    def digest(self, op, result) -> str:
        verdict, fits = result
        return digest_of(
            [verdict_summary(verdict, op["cfg"].points)] + [table_summary(*f) for f in fits]
        )

    def invariant_errors(self, op, result) -> list[str]:
        verdict, fits = result
        cfg = op["cfg"]
        errors = certificate_errors(verdict, cfg)
        levels = expected_levels([p.coords for p in cfg.points], [a.coords for a in cfg.dirs])
        for (ridge, residual), data in zip(fits, op["data"]):
            errors += ridge_errors(ridge, residual, cfg, data, levels, verdict.dense)
        if verdict.dense != all(res == 0 for _, res in fits):
            errors.append("verdict disagrees with the residuals (finite duality)")
        return errors

    def corrupt(self, op, result) -> list:
        verdict, fits = result
        out = [(verdict, [(_bump_table(self.rk, fits[0][0]), fits[0][1])] + fits[1:])]
        if not verdict.dense:
            out.append((_flip_certificate(self.rk, verdict), fits))
        return out


class Decide(Workload):
    """Large density decisions; bolts and orbits too when k = 2."""

    name = "decide"
    calibration = "elimination"

    def make_pass(self, pass_no: int) -> list[dict]:
        return [
            self.make_op(key, spec, inputs.rng_for("decide-geometry", self.seed, pass_no, j))
            for j, (key, spec) in enumerate(inputs.decide_specs(self.seed, pass_no))
        ]

    def make_op(self, key: str, spec: tuple, rng) -> dict:
        points, dirs = inputs.decide_config(spec, rng)
        return {"key": key, "cfg": self.rk.PointConfig.build(points, dirs)}

    def run_op(self, op):
        cfg = op["cfg"]
        verdict = self.rk.incidence.density_verdict(cfg)
        if cfg.k != 2:
            return verdict, None, None
        bolts = self.rk.bolts
        graph = bolts.build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        return verdict, bolts.find_closed_bolt(graph), bolts.orbits(graph)

    def digest(self, op, result) -> str:
        verdict, bolt, orbits = result
        bolt_part = None if bolt is None else sorted(bolt.indices)
        orbit_part = None if orbits is None else [list(o) for o in orbits]
        return digest_of([verdict_summary(verdict, op["cfg"].points), bolt_part, orbit_part])

    def invariant_errors(self, op, result) -> list[str]:
        verdict, bolt, _ = result
        cfg = op["cfg"]
        errors = certificate_errors(verdict, cfg)
        if cfg.k == 2:
            if verdict.dense != (bolt is None):
                errors.append("dense verdict disagrees with find_closed_bolt")
            if bolt is not None:
                signs = [Fraction((-1) ** j) for j in range(len(bolt.points))]
                dirs = [a.coords for a in cfg.dirs]
                if not annihilates([p.coords for p in bolt.points], signs, dirs):
                    errors.append("closed bolt's alternating measure does not annihilate")
        return errors

    def corrupt(self, op, result) -> list:
        verdict, bolt, orbits = result
        if verdict.dense:
            return []
        return [(_flip_certificate(self.rk, verdict), bolt, orbits)]


class RidgeCold(Workload):
    """Cold exact ridge fits on distinct mid-size configurations."""

    name = "ridge-cold"
    calibration = "gauss_jordan"
    latency_by_key = True

    def __init__(self, *args):
        super().__init__(*args)
        self.seen_configs: set = set()

    def make_pass(self, pass_no: int) -> list[dict]:
        ops = []
        for j, (key, spec) in enumerate(inputs.ridge_specs(self.seed, pass_no)):
            op = self.make_op(key, spec, inputs.rng_for("ridge-geometry", self.seed, pass_no, j))
            # a repeated PointConfig would be served by the solver cache
            if op["cfg"] in self.seen_configs:
                raise RuntimeError(f"ridge-cold input {key} repeats an earlier PointConfig")
            self.seen_configs.add(op["cfg"])
            ops.append(op)
        return ops

    def make_op(self, key: str, spec: tuple, rng) -> dict:
        points, dirs, data = inputs.ridge_config(spec, rng)
        cfg = self.rk.PointConfig.build(points, dirs)
        return {"key": key, "spec": spec, "cfg": cfg, "data": data}

    def input_record(self, op):
        return super().input_record(op) + [[str(v) for v in op["data"]]]

    def run_op(self, op):
        return self.rk.incidence.interpolate_ridge(op["cfg"], op["data"])

    def digest(self, op, result) -> str:
        return digest_of(table_summary(*result))

    def invariant_errors(self, op, result) -> list[str]:
        ridge, residual = result
        cfg = op["cfg"]
        levels = expected_levels([p.coords for p in cfg.points], [a.coords for a in cfg.dirs])
        path_free = inputs.ridge_path_free(op["spec"])
        errors = ridge_errors(ridge, residual, cfg, op["data"], levels, path_free)
        if not path_free and residual == 0:
            errors.append("closing point present but residual is zero")
        return errors

    def corrupt(self, op, result) -> list:
        ridge, residual = result
        return [(_bump_table(self.rk, ridge), residual)]


# CLI ops: (label, argv).  "{curve}" and "{table}" are this pass's generated
# files.  Artifacts of netfit runs are checked by invariants only; every
# other artifact must match the reference byte for byte.  The 19 commands
# have well separated costs around the 10th (kfit on parallel-segments) and
# the 18th (the table netfit), where the latency percentiles fall; no op runs
# much longer than 1 s, so calibration samples fall between ops often enough.
CLI_OPS = (
    ("paths:paper-5pt", ["paths", "--preset", "paper-5pt"]),
    ("paths:parallel-segments", ["paths", "--preset", "parallel-segments"]),
    ("paths:monotone-curve", ["paths", "--preset", "monotone-curve"]),
    ("bolts:parallel-segments", ["bolts", "--preset", "parallel-segments"]),
    ("bolts:paper-orbit", ["bolts", "--preset", "paper-orbit"]),
    ("orbits:parallel-segments", ["orbits", "--preset", "parallel-segments"]),
    ("orbits:paper-orbit", ["orbits", "--preset", "paper-orbit"]),
    ("ridgefit:parallel-segments", ["ridgefit", "--preset", "parallel-segments", "--f", "xy"]),
    ("netfit:monotone-curve:logistic", ["netfit", "--preset", "monotone-curve", "--f", "prod"]),
    (
        "netfit:monotone-curve:tanh-ramp",
        ["netfit", "--preset", "monotone-curve", "--f", "prod", "--sigma", "tanh-ramp"],
    ),
    (
        "netfit:parallel-segments:tanh-ramp",
        ["netfit", "--preset", "parallel-segments", "--f", "xy", "--sigma", "tanh-ramp"],
    ),
    ("netfit:curve:logistic", ["netfit", "{curve}", "--f", "prod"]),
    (
        "netfit:parallel-segments:table",
        ["netfit", "--preset", "parallel-segments", "--f", "xy", "--sigma", "table", "--sigma-table", "{table}"],
    ),
    ("kfit:parallel-segments", ["kfit", "--preset", "parallel-segments", "--f", "xy"]),
    (
        "kfit:monotone-curve",
        ["kfit", "--preset", "monotone-curve", "--f", "norm", "--eps", "1/10"],
    ),
    ("probe:paper-orbit:1000", ["probe", "--preset", "paper-orbit", "--N", "1000"]),
    ("probe:paper-orbit:2000", ["probe", "--preset", "paper-orbit", "--N", "2000"]),
    ("sigma-eval", ["sigma-eval", "--to", "20"]),
    ("sigma-build", ["sigma-build", "--poly", "1,-1/2,1/3"]),
)
NETFIT_EPS = Fraction(1, 100)
THETA_INTERVAL = (Fraction(-5), Fraction(5))


def netfit_errors(payload: dict) -> list[str]:
    """Invariants of a netfit network.json (default eps and theta interval)."""
    errors = []
    report = payload.get("report", {})
    terms = payload.get("terms", [])
    if not terms:
        errors.append("netfit network has no terms")
    if report.get("term_count") != len(terms):
        errors.append("report.term_count differs from the number of terms")
    if not report.get("replayed_error", 1.0) <= NETFIT_EPS:
        errors.append(f"replayed_error {report.get('replayed_error')} exceeds eps")
    lo, hi = THETA_INTERVAL
    if not all(lo < Fraction(t["theta"]) < hi for t in terms):
        errors.append("a netfit threshold lies outside the open theta interval")
    return errors


class Cli(Workload):
    """Every command through ``ridgekit.cli.main`` in this process."""

    name = "cli"
    calibration = "column_build"
    latency_by_key = True

    def make_pass(self, pass_no: int) -> list[dict]:
        rng = inputs.rng_for("cli", self.seed, pass_no)
        in_dir = self.workdir / f"in-{pass_no}"
        in_dir.mkdir(parents=True, exist_ok=True)
        curve = in_dir / "curve.json"
        table = in_dir / "table.csv"
        curve.write_text(json.dumps(inputs.curve_json(rng), indent=1) + "\n", encoding="utf-8")
        table.write_text(inputs.table_csv(rng), encoding="utf-8")
        ops = []
        for j, (label, argv) in enumerate(CLI_OPS):
            argv = [a.format(curve=curve, table=table) for a in argv]
            out = self.workdir / f"out-{pass_no}-{j}"
            ops.append({"key": label, "argv": argv + ["--out", str(out)], "out": out})
        return ops

    def input_record(self, op):
        record = [op["key"], op["argv"][:-2]]
        for arg in op["argv"]:
            if arg.endswith((".json", ".csv")):
                record.append(hashlib.sha256(Path(arg).read_bytes()).hexdigest())
        return record

    def run_op(self, op):
        return self.rk.cli.main(op["argv"]), op["out"]

    def collect(self, op, result):
        """Read the artifacts into memory and remove the out directory."""
        rc, out = result
        files = {}
        if out.is_dir():
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            shutil.rmtree(out)
        return rc, files

    def check(self, op, result) -> list[str]:
        errors = self.invariant_errors(op, result)
        if self.refs is None:
            return errors
        ref = self.reference(op)
        if ref is None:
            return errors + [f"no reference for {op['key']}"]
        rc, files = result
        if rc != ref["rc"]:
            errors.append(f"exit code {rc}, reference {ref['rc']}")
        if sorted(files) != sorted(ref["files"]):
            errors.append(f"artifacts {sorted(files)}, reference {sorted(ref['files'])}")
            return errors
        for name, want in ref["files"].items():
            if want is not None and hashlib.sha256(files[name]).hexdigest() != want:
                errors.append(f"{name} differs from the reference bytes")
        return errors

    def invariant_errors(self, op, result) -> list[str]:
        rc, files = result
        if not op["key"].startswith("netfit:"):
            return []
        if rc != 0 or "network.json" not in files:
            return [f"netfit exit code {rc}, artifacts {sorted(files)}"]
        return netfit_errors(json.loads(files["network.json"]))

    def fingerprint(self, op, result) -> dict:
        """rc plus artifact hashes (None where only invariants are checked)."""
        rc, files = result
        byte_checked = not op["key"].startswith("netfit:")
        return {
            "rc": rc,
            "files": {
                name: hashlib.sha256(data).hexdigest() if byte_checked else None
                for name, data in files.items()
            },
        }

    def corrupt(self, op, result) -> list:
        rc, files = result
        out = []
        if "verdict.json" in files and b'"-' in files["verdict.json"]:
            out.append((rc, files | {"verdict.json": files["verdict.json"].replace(b'"-', b'"', 1)}))
        if op["key"].startswith("netfit:") and "network.json" in files:
            payload = json.loads(files["network.json"])
            payload["report"]["replayed_error"] = 2 * float(NETFIT_EPS)
            out.append((rc, files | {"network.json": json.dumps(payload).encode("utf-8")}))
        return out

    def artifact_bytes(self, result) -> int:
        return sum(len(data) for data in result[1].values())

    def quality(self, op, result) -> dict:
        """Units of netfit networks and index bits of kfit networks."""
        _, files = result
        if "network.json" not in files:
            return {}
        report = json.loads(files["network.json"]).get("report", {})
        if op["key"].startswith("netfit:"):
            return {"netfit_units": report.get("term_count", 0)}
        if op["key"].startswith("kfit:"):
            return {"kfit_index_bits": sum(report.get("indices_bit_length", []))}
        return {}


WORKLOADS = {w.name: w for w in (Sweep, Decide, RidgeCold, Cli)}
