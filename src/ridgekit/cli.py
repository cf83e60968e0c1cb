"""Command-line front end.

Commands analyze a configuration given either as a JSON file (rationals as
"p/q" strings, preserving exactness) or as a named preset, and write their
artifacts as JSON/CSV with sorted keys and LF newlines, so identical jobs
produce byte-identical outputs.

Exit codes: 0 success, 2 a density precondition failed (the certificate is
still written), 1 a usage error, malformed input or internal error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

from .activation import (
    ActivationSpec,
    EncoderBudgetError,
    _sigma_ratio,
    build_k_network,
    encode_univariate,
)
from .bolts import (
    BoltGenerationError,
    build_bolt_graph,
    find_closed_bolt,
    orbits,
    weak_star_probe,
)
from .enumeration import RationalPoly
from .incidence import (
    ClosedPathCertificate,
    DensityPreconditionError,
    PointConfig,
    density_verdict,
    interpolate_ridge,
)
from .netapprox import (
    FitBudgetError,
    PolynomialActivationError,
    ThetaInterval,
    sigma_by_name,
)
from .presets import (
    config_preset,
    generator_preset,
    probe_test,
    target_values,
)
from .rationals import ExponentBoundError, format_rational, parse_int, rationalize

# perfbench/tracer.py times the library by replacing the names imported here
# (config_preset, target_values, sigma_by_name, weak_star_probe and others) and
# approx_network and table_oracle_from_csv in netapprox, which is why
# _run_netfit imports those two at call time: call each through its module
# global, not through a reference taken earlier.  sigma-eval's rows call
# _sigma_ratio, which the tracer does not replace: its sigma_eval span does
# not see them.

# the probe's cost is quadratic in N (denominators grow by ~N/2 bits): a
# paper-orbit probe at N = 20000 takes about 0.5 s on a 2-core x86-64 VM
PROBE_MAX_N = 100_000
SIGMA_EVAL_MAX_ROWS = 1_000_000
_ECHOED = 40  # characters of a refused value that its error message repeats


@dataclass
class JobConfig:
    """One CLI job: the command plus its parameters.

    Flag values may still be strings as given on the command line; :func:`run`
    parses each one, names the flag when it is malformed, and holds the only
    default of each parameter left out.
    """

    command: str
    input_path: str | None = None
    preset: str | None = None
    out_dir: str = "."
    params: dict = field(default_factory=dict)
    seed: int | str = 0


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path.write_bytes(text.encode("utf-8"))


def _write_csv(path: Path, header: list[str], lines: list[str]) -> None:
    """A CSV file of the header and the rows, each row already one line."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(("\n".join([",".join(header), *lines]) + "\n").encode("utf-8"))


def _echo(value) -> str:
    """A refused value as its error message shows it: its ``repr``, or an
    int's digits written digit-safely, and of a longer one only the first
    ``_ECHOED`` characters and the count."""
    text = format_rational(Fraction(value)) if type(value) is int else repr(value)
    if len(text) <= _ECHOED:
        return text
    return f"{text[:_ECHOED]}... ({len(text):,} characters)"


def _rational_at(value, path: str) -> Fraction:
    try:
        return rationalize(value)
    except ExponentBoundError as exc:
        raise ValueError(f"{path}: {_echo(value)}: {exc}") from None
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{path}: {_echo(value)} is not a rational") from None


def _float_rational_at(value, path: str) -> Fraction:
    """A rational flag that is also used as a float: beyond the float range it is refused."""
    return _in_float_range(_rational_at(value, path), path)


def _in_float_range(q: Fraction, path: str) -> Fraction:
    try:
        float(q)
    except OverflowError:
        raise ValueError(f"{path} is beyond the float range") from None
    return q


def _int_at(value, path: str) -> int:
    """An integer flag: an ``int``, or a string that ``int`` reads, of any length."""
    if isinstance(value, str):
        try:
            return parse_int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{path}: {_echo(value)} is not an integer")


def _seed_at(value) -> int:
    """``--seed``, which every artifact records as a JSON integer: one that
    ``json`` cannot write is refused with its reason."""
    seed = _int_at(value, "--seed")
    try:
        json.dumps(seed)
    except ValueError as exc:  # CPython's digit limit; its advice after ";" is dropped
        reason = str(exc).partition(";")[0]
        raise ValueError(f"--seed: {_echo(seed)} cannot be recorded: {reason}") from None
    return seed


def _coordinate_rows(rows, label: str, dim: int) -> list[list[Fraction]]:
    if not isinstance(rows, list):
        raise ValueError(f"{label} must be a list of coordinate lists")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise ValueError(f"{label}[{i}] must be a list of {dim} rationals")
        out.append([_rational_at(v, f"{label}[{i}][{c}]") for c, v in enumerate(row)])
    return out


def load_config_file(path: str) -> tuple[PointConfig, list[Fraction] | None]:
    """Parse and validate the JSON configuration schema.

    Schema: {"dimension": d, "points": [[rational strings]],
    "directions": [[rational strings]], "values": [rational strings]?}.
    A malformed field raises ``ValueError`` naming its path, e.g. ``points[1]``.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise ValueError("configuration must be a JSON object")
    for name in ("dimension", "points", "directions"):
        if name not in raw:
            raise ValueError(f"missing field {name!r}")
    dim = raw["dimension"]
    if type(dim) is not int or dim < 1:
        raise ValueError(f"dimension must be a positive integer, got {dim!r}")
    points = _coordinate_rows(raw["points"], "points", dim)
    dirs = _coordinate_rows(raw["directions"], "directions", dim)
    for label, rows in (("points", points), ("directions", dirs)):
        if not rows:
            raise ValueError(f"{label}: need at least one {label[:-1]}")
    for i, a in enumerate(dirs):
        if not any(a):
            raise ValueError(f"directions[{i}]: direction must be nonzero")
    first_index: dict[tuple[Fraction, ...], int] = {}
    for j, x in enumerate(points):
        i = first_index.setdefault(tuple(x), j)
        if i != j:
            raise ValueError(f"points[{j}] repeats points[{i}]: points must be pairwise distinct")
    values = raw.get("values")
    if values is not None:
        if not isinstance(values, list) or len(values) != len(points):
            raise ValueError("values must be a list with one entry per point")
        values = [_rational_at(v, f"values[{i}]") for i, v in enumerate(values)]
    return PointConfig.build(points, dirs), values


def _named(flag: str, lookup, name: str, *args):
    """``lookup(name, *args)``, with its refusal of an unknown name put under
    ``flag`` and the name, which the refusal repeats, shown by :func:`_echo`."""
    try:
        return lookup(name, *args)
    except ValueError as exc:
        raise ValueError(f"{flag}: {str(exc).replace(repr(name), _echo(name), 1)}") from None


def _resolve_config(job: JobConfig) -> tuple[PointConfig, list[Fraction] | None]:
    if job.preset:
        cfg = _named("--preset", config_preset, job.preset)
        values = None
    elif job.input_path:
        cfg, values = load_config_file(job.input_path)
    else:
        raise ValueError("provide --preset or an input file")
    fname = job.params.get("target")
    if fname:
        values = _named("--f", target_values, fname, cfg)
    return cfg, values


def _certificate_dict(cert: ClosedPathCertificate) -> dict:
    return {
        "points": [[format_rational(c) for c in p.coords] for p in cert.measure.support],
        "weights": [format_rational(w) for w in cert.measure.weights],
    }


def _write_certificate(out: Path, job: JobConfig, cert: ClosedPathCertificate) -> None:
    """The artifact of a fit refused because the configuration is not dense."""
    _write_json(
        out / "certificate.json",
        _source_fields(job) | {"error": "not_dense", "certificate": _certificate_dict(cert)},
    )


def _source_fields(job: JobConfig) -> dict:
    return {
        "command": job.command,
        "source": job.preset or job.input_path,
        "seed": job.seed,
    }


def _run_paths(job: JobConfig, out: Path) -> int:
    cfg, _ = _resolve_config(job)
    verdict = density_verdict(cfg)
    payload = _source_fields(job) | {
        "verdict": "dense" if verdict.dense else "not_dense",
        "certificate": None if verdict.dense else _certificate_dict(verdict.certificate),
    }
    _write_json(out / "verdict.json", payload)
    return 0 if verdict.dense else 2


def _require_two_dirs(cfg: PointConfig) -> None:
    if cfg.k != 2:
        raise ValueError("bolt analysis needs exactly two directions")


def _run_bolts(job: JobConfig, out: Path) -> int:
    cfg, _ = _resolve_config(job)
    _require_two_dirs(cfg)
    graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
    bolt = find_closed_bolt(graph)
    payload = _source_fields(job) | {
        "found": bolt is not None,
        "bolt": None
        if bolt is None
        else {
            "points": [[format_rational(c) for c in p.coords] for p in bolt.points],
            "first_link": bolt.first_link,
            "closed": bolt.closed,
        },
    }
    _write_json(out / "bolt.json", payload)
    return 0


def _run_orbits(job: JobConfig, out: Path) -> int:
    cfg, _ = _resolve_config(job)
    _require_two_dirs(cfg)
    graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
    parts = orbits(graph)
    payload = _source_fields(job) | {
        "orbit_count": len(parts),
        "orbits": [list(part) for part in parts],
    }
    _write_json(out / "orbits.json", payload)
    return 0


def _run_probe(job: JobConfig, out: Path) -> int:
    if not job.preset:
        raise ValueError("probe requires --preset naming a generator")
    gen = _named("--preset", generator_preset, job.preset)
    names = job.params.get("tests", ["x", "y"])
    if not names:
        raise ValueError("--tests names no test")
    if len(set(names)) < len(names):
        raise ValueError(f"--tests names a test more than once: {','.join(names)}")
    tests = [_named("--tests", probe_test, n) for n in names]
    if not any(n == "ridge-identity" for n in names):
        tests.append(probe_test("ridge-identity"))
    n_max = _int_at(job.params.get("n", 1000), "--N")
    if n_max < 1:
        raise ValueError(f"--N {_echo(n_max)} is not positive")
    if n_max > PROBE_MAX_N:
        raise ValueError(f"--N {_echo(n_max)} exceeds the probe limit {PROBE_MAX_N}")
    raw_threshold = job.params.get("threshold", "1/100")
    threshold = _float_rational_at(raw_threshold, "--threshold")
    if threshold < 0:
        raise ValueError(f"--threshold must not be negative, got {_echo(raw_threshold)}")
    report = weak_star_probe(gen, tests, n_max, threshold)
    _write_csv(
        out / "decay.csv",
        ["n", "test_name", "abs_integral"],
        [f"{n},{name},{v!r}" for n, name, v in report.rows],
    )
    payload = _source_fields(job) | {
        "verdict": report.verdict,
        "ridge_bounds_ok": report.ridge_bounds_ok,
        "threshold": report.threshold,
        "n_max": report.n_max,
        "final_values": report.final_values,
    }
    _write_json(out / "probe.json", payload)
    return 0


def _require_values(values) -> list[Fraction]:
    if values is None:
        raise ValueError("this command needs data: provide \"values\" in the input or --f NAME")
    return values


def _require_float_values(values) -> list[Fraction]:
    """Data that a network fit also uses as floats: a value beyond the float range is refused."""
    return [_in_float_range(v, f"values[{i}]") for i, v in enumerate(_require_values(values))]


def _run_ridgefit(job: JobConfig, out: Path) -> int:
    cfg, values = _resolve_config(job)
    values = _require_values(values)
    ridge, residual = interpolate_ridge(cfg, values)
    payload = _source_fields(job) | {
        "residual": format_rational(residual),
        "tables": [
            {
                "direction": [format_rational(c) for c in a.coords],
                "levels": [format_rational(lv) for lv in table.levels],
                "values": [format_rational(v) for v in table.values],
            }
            for a, table in zip(ridge.dirs, ridge.tables)
        ],
    }
    _write_json(out / "ridgefit.json", payload)
    return 0


def _positive_eps(job: JobConfig, default: str) -> Fraction:
    """The rational ``--eps``: a non-rational such as NaN or inf, a value
    beyond the float range, and one that is not positive as a float are refused."""
    raw_eps = job.params.get("eps", default)
    eps = _float_rational_at(raw_eps, "--eps")
    if not float(eps) > 0:
        raise ValueError(f"--eps must be positive, got {_echo(raw_eps)}")
    return eps


def _run_netfit(job: JobConfig, out: Path) -> int:
    from .netapprox import approx_network, table_oracle_from_csv

    cfg, values = _resolve_config(job)
    values = _require_float_values(values)
    sigma_name = job.params.get("sigma", "logistic")
    if sigma_name == "table":
        table_path = job.params.get("sigma_table")
        if not table_path:
            raise ValueError("--sigma table requires --sigma-table FILE.csv")
        sigma = table_oracle_from_csv(table_path)
    elif "sigma_table" in job.params:
        raise ValueError(
            f"--sigma-table is read only with --sigma table, not --sigma {_echo(sigma_name)}"
        )
    else:
        sigma = _named("--sigma", sigma_by_name, sigma_name)
    lo = _float_rational_at(job.params.get("theta_lo", "-5"), "--theta-lo")
    hi = _float_rational_at(job.params.get("theta_hi", "5"), "--theta-hi")
    if not lo < hi:
        raise ValueError(
            f"--theta-lo {format_rational(lo)} must be below --theta-hi {format_rational(hi)}"
        )
    theta = ThetaInterval(lo, hi)
    eps = float(_positive_eps(job, "0.01"))
    try:
        net = approx_network(cfg, values, sigma, theta, eps)
    except DensityPreconditionError as exc:
        _write_certificate(out, job, exc.certificate)
        return 2
    _write_json(out / "network.json", _source_fields(job) | net.to_dict())
    return 0


def _run_kfit(job: JobConfig, out: Path) -> int:
    cfg, values = _resolve_config(job)
    values = _require_float_values(values)
    eps = _positive_eps(job, "1/100")
    try:
        net = build_k_network(cfg, values, eps)
    except DensityPreconditionError as exc:
        _write_certificate(out, job, exc.certificate)
        return 2
    _write_json(out / "network.json", _source_fields(job) | net.to_dict())
    return 0


def _activation_spec(job: JobConfig) -> ActivationSpec:
    """``--alpha``, ``--l`` and ``--sharpness``, each named when malformed or not positive."""
    values = []
    for flag in ("alpha", "l", "sharpness"):
        value = _float_rational_at(job.params.get(flag, "1"), f"--{flag}")
        if not value > 0:
            raise ValueError(f"--{flag} must be positive, got {format_rational(value)}")
        values.append(value)
    return ActivationSpec(*values)


def _run_sigma_eval(job: JobConfig, out: Path) -> int:
    spec = _activation_spec(job)
    start = _float_rational_at(job.params.get("start", "0"), "--from")
    stop = _float_rational_at(job.params.get("stop", "10"), "--to")
    step = _rational_at(job.params.get("step", "1/100"), "--step")
    if step <= 0:
        raise ValueError(f"--step must be positive, got {format_rational(step)}")
    if stop < start:
        raise ValueError(f"--to {format_rational(stop)} is below --from {format_rational(start)}")
    count = (stop - start) // step + 1
    if count > SIGMA_EVAL_MAX_ROWS:
        raise ValueError(
            f"--step {format_rational(step)} gives {format_rational(count)} rows,"
            f" more than {SIGMA_EVAL_MAX_ROWS}"
        )
    den = lcm(start.denominator, step.denominator)  # t = (first + i * stride) / den
    first = start.numerator * (den // start.denominator)
    stride = step.numerator * (den // step.denominator)
    rows = []
    for i in range(count):
        tn = first + i * stride
        try:
            value = _sigma_ratio(spec, tn, den)
            if not isinstance(value, float):
                num, d = value
                value = num / d  # correctly rounded, as float(Fraction(num, d))
            rows.append(f"{tn / den!r},{value!r}")
        except (ValueError, OverflowError) as exc:
            raise ValueError(
                "--from/--to: sigma cannot be evaluated at"
                f" t = {format_rational(Fraction(tn, den))}: {exc}"
            ) from None
    _write_csv(out / "sigma.csv", ["t", "sigma_t"], rows)
    return 0


def _run_sigma_build(job: JobConfig, out: Path) -> int:
    coeffs = job.params.get("poly")
    if not coeffs:
        raise ValueError("sigma-build requires --poly with comma-separated rational coefficients")
    poly = RationalPoly.from_coefficients(
        [_float_rational_at(c, f"--poly[{i}]") for i, c in enumerate(coeffs.split(","))]
    )
    spec = _activation_spec(job)
    peak = sum((abs(c) * spec.half_width**e for e, c in poly.terms), Fraction(0))
    _in_float_range(peak, "--poly (its largest value on [-l, l])")
    enc = encode_univariate(poly, float(_positive_eps(job, "0.001")), spec)
    payload = _source_fields(job) | {
        "index": format_rational(Fraction(enc.index)),
        "scale": format_rational(enc.scale),
        "shift": format_rational(enc.shift),
        "achieved_error": float(enc.achieved_error),
        "poly": str(enc.poly),
    }
    _write_json(out / "encoding.json", payload)
    return 0


_RUNNERS = {
    "paths": _run_paths,
    "bolts": _run_bolts,
    "orbits": _run_orbits,
    "probe": _run_probe,
    "ridgefit": _run_ridgefit,
    "netfit": _run_netfit,
    "kfit": _run_kfit,
    "sigma-eval": _run_sigma_eval,
    "sigma-build": _run_sigma_build,
}


def run(job: JobConfig) -> int:
    """Execute one job; returns the process exit code."""
    if job.command not in _RUNNERS:
        raise ValueError(f"unknown command {job.command!r}")
    out = Path(job.out_dir)
    try:
        job = replace(job, seed=_seed_at(job.seed))
        return _RUNNERS[job.command](job, out)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    except (
        ValueError,
        OSError,
        KeyError,
        OverflowError,
        FitBudgetError,
        PolynomialActivationError,
        EncoderBudgetError,
        BoltGenerationError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _comma_list(text: str) -> list[str]:
    return [t.strip() for t in text.split(",") if t.strip()]


class _UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    """``argparse`` with two changes: a token that starts with ``-`` and a
    digit or a point is a value, as in ``--poly -1,2`` (argparse takes only
    plain numbers, and no ridgekit flag looks like that), and a usage error
    raises :class:`_UsageError` instead of exiting 2, the code of a failed
    density precondition."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.]")

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """Flags only, with no defaults: each ``dest`` is a :class:`JobConfig`
    field or a ``params`` key, and :func:`run` supplies what is left out.
    Built by the first :func:`main` call and reused by the later ones."""
    parser = _Parser(
        prog="ridgekit",
        description="Density analysis and network construction for direction-restricted ridge sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary, *, config=True, target=False, activation=False):
        p = sub.add_parser(name, help=summary)
        if config:
            p.add_argument("input_path", nargs="?", metavar="input", help="configuration JSON file")
            p.add_argument("--preset", help="named preset configuration")
        if target:
            p.add_argument("--f", dest="target", help="named target function for the data")
        if activation:
            for flag in ("--alpha", "--l", "--sharpness"):
                p.add_argument(flag)
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (default: current)")
        p.add_argument("--seed", help="integer seed recorded in artifacts")
        return p

    command("paths", "decide density / find a closed-path certificate")
    command("bolts", "find a closed bolt (two directions)")
    command("orbits", "orbit partition under level sharing (two directions)")

    p = command("probe", "finite weak-star decay probe along a generated bolt", config=False)
    p.add_argument("--preset", required=True, help="generator preset name")
    p.add_argument("--N", dest="n", help="truncation length (a positive integer)")
    p.add_argument("--tests", type=_comma_list, help="comma-separated test names")
    p.add_argument("--threshold", help="decay threshold for plain tests")

    command("ridgefit", "exact least-squares ridge interpolation", target=True)

    p = command("netfit", "fit a network with a named activation oracle", target=True)
    p.add_argument("--sigma", help="activation preset (logistic, tanh-ramp, table)")
    p.add_argument("--sigma-table", help="CSV file for --sigma table")
    p.add_argument("--theta-lo")
    p.add_argument("--theta-hi")
    p.add_argument("--eps")

    p = command("kfit", "build the exactly-k-unit network with the constructed activation", target=True)
    p.add_argument("--eps")

    p = command("sigma-eval", "tabulate the constructed activation as CSV", config=False, activation=True)
    p.add_argument("--from", dest="start")
    p.add_argument("--to", dest="stop")
    p.add_argument("--step")

    p = command("sigma-build", "encode a rational polynomial into the activation", config=False, activation=True)
    p.add_argument("--poly", required=True, help="comma-separated rational coefficients, constant first")
    p.add_argument("--eps")

    return parser


_JOB_FIELDS = {f.name for f in fields(JobConfig)} - {"params"}


def job_from_args(args: argparse.Namespace) -> JobConfig:
    """The parsed flags that were given: job fields by name, the rest as ``params``."""
    job = {key: value for key, value in vars(args).items() if value is not None}
    params = {key: job.pop(key) for key in job.keys() - _JOB_FIELDS}
    return JobConfig(**job, params=params)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return run(job_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
