"""Span and counter recording around ridgekit, installed from outside.

Each traced function is replaced at the place where callers look it up (the
module attribute a caller's global lookup finds, or the class attribute for
methods), only while a traced pass runs; untraced passes call the original
functions.  A name that no longer exists is reported as absent rather than
failing the run.

Spans are kept in memory as ``[name, start, end, parent]`` rows and written
out when the run ends.  ``.s`` is the inclusive time of the outermost span of
a name, ``.self_s`` that time minus the time of its direct child spans.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# metric name -> lookup places "module:attribute[.method]" that get a span
SPANS = {
    "incidence.build_incidence": ["incidence:build_incidence"],
    "incidence.find_closed_path": ["incidence:find_closed_path", "activation:find_closed_path"],
    "incidence.interpolate_ridge": [
        "incidence:interpolate_ridge",
        "cli:interpolate_ridge",
        "netapprox:interpolate_ridge",
        "activation:interpolate_ridge",
    ],
    "exactlinalg.nullspace_int": ["incidence:nullspace_int"],
    "exactlinalg.GaussJordanSolver": ["incidence:GaussJordanSolver"],
    "exactlinalg.GaussJordanSolver.solve": ["exactlinalg:GaussJordanSolver.solve"],
    "exactlinalg.gram_matrix": ["incidence:gram_matrix"],
    "exactlinalg.int_mat_mul": ["incidence:int_mat_mul"],
    "exactlinalg.mat_vec": ["incidence:mat_vec"],
    "bolts.build_bolt_graph": ["bolts:build_bolt_graph", "cli:build_bolt_graph"],
    "bolts.find_closed_bolt": ["bolts:find_closed_bolt", "cli:find_closed_bolt"],
    "bolts.orbits": ["bolts:orbits", "cli:orbits"],
    "bolts.weak_star_probe": ["bolts:weak_star_probe", "cli:weak_star_probe"],
    "bolts.BoltGenerator.generate": ["bolts:BoltGenerator.generate"],
    "enumeration.encode_poly": ["activation:encode_poly"],
    "enumeration.decode_poly": ["activation:decode_poly"],
    "activation.encode_univariate": ["activation:encode_univariate", "cli:encode_univariate"],
    "activation.sigma_eval": ["activation:sigma_eval", "cli:sigma_eval"],
    "activation.eval_network": ["activation:eval_network"],
    "activation.build_k_network": ["cli:build_k_network"],
    "netapprox.polynomial_degree_probe": ["netapprox:polynomial_degree_probe"],
    "netapprox.approx_univariate": ["netapprox:approx_univariate"],
    "netapprox.approx_network": ["netapprox:approx_network"],
    "cli.main": ["cli:main"],
    "presets.config_preset": ["cli:config_preset"],
    "presets.target_values": ["cli:target_values"],
}

# metric name -> lookup places that only count calls (too hot for spans)
COUNTS = {
    "measures.Direction.dot": ["measures:Direction.dot"],
    "rationals.rationalize": [
        f"{m}:rationalize"
        for m in ("measures", "incidence", "bolts", "enumeration", "activation", "netapprox", "presets", "cli")
    ],
    "rationals.format_rational": ["cli:format_rational", "activation:format_rational"],
}

# Oracle factories whose products get a counting evaluator, and the one
# numpy function netapprox calls for its greedy refits.
ORACLE_FACTORIES = ["cli:sigma_by_name", "netapprox:table_oracle_from_csv"]
LSTSQ_PLACE = "netapprox:np"

# metric -> the .calls/.s/.self_s fields the per-layer table reports
REPORTED = {
    "incidence.build_incidence": ("calls", "s"),
    "incidence.find_closed_path": ("calls", "s", "self_s"),
    "incidence.interpolate_ridge": ("calls", "s", "self_s"),
    "exactlinalg.nullspace_int": ("calls", "s"),
    "exactlinalg.GaussJordanSolver": ("calls", "s"),
    "exactlinalg.GaussJordanSolver.solve": ("calls", "s"),
    "exactlinalg.gram_matrix": ("s",),
    "exactlinalg.int_mat_mul": ("s",),
    "exactlinalg.mat_vec": ("s",),
    "bolts.build_bolt_graph": ("calls", "s"),
    "bolts.find_closed_bolt": ("s",),
    "bolts.orbits": ("s",),
    "bolts.weak_star_probe": ("calls", "s"),
    "bolts.BoltGenerator.generate": ("s",),
    "enumeration.encode_poly": ("calls", "s"),
    "enumeration.decode_poly": ("calls", "s"),
    "activation.encode_univariate": ("calls", "s", "self_s"),
    "activation.sigma_eval": ("calls", "s"),
    "activation.eval_network": ("calls", "s"),
    "activation.build_k_network": ("self_s",),
    "netapprox.polynomial_degree_probe": ("s",),
    "netapprox.approx_univariate": ("calls", "s"),
    "netapprox.lstsq": ("calls", "s"),
    "netapprox.approx_network": ("self_s",),
    "cli.main": ("calls", "s", "self_s"),
    "presets.config_preset": ("s",),
    "presets.target_values": ("s",),
}
COUNTED = ("measures.Direction.dot", "rationals.rationalize", "rationals.format_rational", "netapprox.sigma_evals")


class _Proxy:
    """Attribute view of ``target`` with some names overridden."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _resolve(place: str):
    """(owner object, attribute name) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = place.partition(":")
    owner = importlib.import_module(f"ridgekit.{module_name}")
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if attr not in vars(owner):
        raise AttributeError(place)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---------------------------------------------------------- recording

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()

        return traced

    def counter(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _counting_factory(self, factory):
        def make(*args, **kwargs):
            oracle = factory(*args, **kwargs)
            oracle.evaluator = self.counter("netapprox.sigma_evals", oracle.evaluator)
            return oracle

        return make

    # ------------------------------------------------------- install/remove

    def _patch(self, metric: str, place: str, make) -> None:
        try:
            owner, attr = _resolve(place)
        except (ImportError, AttributeError):
            if metric not in self.absent:
                self.absent.append(metric)
            return
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self.absent = []
        for metric, places in SPANS.items():
            for place in places:
                self._patch(metric, place, lambda fn, m=metric: self.span(m, fn))
        for metric, places in COUNTS.items():
            for place in places:
                self._patch(metric, place, lambda fn, m=metric: self.counter(m, fn))
        for place in ORACLE_FACTORIES:
            self._patch("netapprox.sigma_evals", place, self._counting_factory)

        def np_view(np):
            lstsq = self.span("netapprox.lstsq", np.linalg.lstsq)
            return _Proxy(np, linalg=_Proxy(np.linalg, lstsq=lstsq))

        self._patch("netapprox.lstsq", LSTSQ_PLACE, np_view)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- summary

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, outermost inclusive seconds, self seconds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict[str, float]] = {}
        for i, (name, start, end, parent) in enumerate(spans):
            t = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                t["s"] += end - start
        return totals
