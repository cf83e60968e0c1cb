"""A smooth activation whose graph embeds every rational polynomial.

The construction: fix a segment length ``alpha`` and a working half-width
``l``.  On the m-th carrier segment ``[(2m-1)*alpha, 2m*alpha]`` the
activation equals the m-th polynomial of the enumeration, composed with the
affine map that carries the segment onto ``[-l, l]``.  On the gaps between
carrier segments the two neighbouring polynomial extensions are blended with
a step that is flat (all derivatives zero) at both ends, so the result is
infinitely differentiable; below the first segment the first extension is
windowed down to zero over one unit.

Because every continuous profile on ``[-l, l]`` is close to some rational
polynomial, a single translate of this activation reproduces it: one neuron
per direction suffices, at the price of an astronomically large threshold
encoding the polynomial's index.  All segment arithmetic is exact, so those
thresholds are stored and consumed as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .enumeration import RationalPoly, decode_poly, encode_poly
from .incidence import DensityPreconditionError, PointConfig, find_closed_path, interpolate_ridge
from .measures import Direction, Point
from .rationals import RationalLike, format_rational, rationalize


class EncoderBudgetError(Exception):
    """Degree/denominator budget exhausted before reaching the target error."""

    def __init__(self, best_error: float, message: str = ""):
        super().__init__(
            message or f"could not reach the requested accuracy; best error {best_error:.3g}"
        )
        self.best_error = best_error


@dataclass(frozen=True)
class ActivationSpec:
    """Parameters of the constructed activation.

    ``alpha``: carrier segment length; ``half_width``: the profiles live on
    ``[-half_width, half_width]``; ``sharpness``: steepness of the blending
    step (any positive value keeps the activation smooth).
    """

    alpha: Fraction
    half_width: Fraction
    sharpness: Fraction

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.half_width <= 0 or self.sharpness <= 0:
            raise ValueError("alpha, half_width and sharpness must be positive")

    @classmethod
    def create(
        cls, alpha: RationalLike, half_width: RationalLike, sharpness: RationalLike
    ) -> "ActivationSpec":
        return cls(rationalize(alpha), rationalize(half_width), rationalize(sharpness))

    @property
    def scale(self) -> Fraction:
        """The input scaling alpha / (2 * half_width) used by every encoded term."""
        return self.alpha / (2 * self.half_width)

    def shift_for_index(self, m: int) -> Fraction:
        """Threshold that lands profile arguments on the m-th carrier segment."""
        return self.alpha / 2 - 2 * m * self.alpha


def smooth_step(s: float, sharpness: float) -> float:
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, flat at both ends.

    Computed as 1 / (1 + exp(k*(1/s - 1/(1-s)))), the normalized form of the
    classical exp(-k/s) bump, arranged to saturate gracefully in floats.
    """
    if s <= 0.0:
        return 0.0
    if s >= 1.0:
        return 1.0
    d = sharpness * (1.0 / s - 1.0 / (1.0 - s))
    if d > 745.0:
        return 0.0
    if d < -745.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(d))


def _segment_poly_value(spec: ActivationSpec, m: int, t: Fraction) -> Fraction:
    """Value at ``t`` of the m-th polynomial, affinely extended from its segment."""
    tau = (2 * spec.half_width / spec.alpha) * t - 4 * m * spec.half_width + spec.half_width
    return decode_poly(m).eval_exact(tau)


def sigma_eval(spec: ActivationSpec, t: RationalLike) -> Fraction | float:
    """Evaluate the activation, exactly on carrier segments.

    Returns an exact Fraction when ``t`` lies on a carrier segment (the
    polynomial branch) and a float on gaps and the left tail, where the
    transcendental blend is intrinsically inexact.
    """
    tq = rationalize(t)
    q = tq / spec.alpha
    kappa = float(spec.sharpness)
    if q >= 1:
        m = math.ceil(q / 2)
        if q >= 2 * m - 1:
            return _segment_poly_value(spec, m, tq)
        # gap between segments m-1 and m
        s = float(q - (2 * m - 2))
        w = smooth_step(s, kappa)
        low = float(_segment_poly_value(spec, m - 1, tq))
        high = float(_segment_poly_value(spec, m, tq))
        return (1.0 - w) * low + w * high
    window = tq - (spec.alpha - 1)
    if window <= 0:
        return 0.0
    w = smooth_step(float(window), kappa)
    return w * float(_segment_poly_value(spec, 1, tq))


@dataclass(frozen=True)
class UnivariateEncoding:
    """One encoded profile: sigma(scale * t - (-shift)) reproduces the
    polynomial with this index on the working interval."""

    index: int
    scale: Fraction
    shift: Fraction
    achieved_error: float
    poly: RationalPoly


_MAX_ABS_COEFF = 10**6
_MAX_DEGREE = 14  # highest polynomial degree the encoder fits
_FIT_NODES = 512  # least-squares Chebyshev nodes
_VALIDATION_POINTS = 2049  # equispaced grid on which a candidate's worst error is measured
_MAX_DENOMINATOR = 2**24  # largest denominator tried when rounding coefficients (from 8, doubling)


def encode_univariate(
    g: RationalPoly | Callable[[float], float],
    eps_over_k: float,
    spec: ActivationSpec,
) -> UnivariateEncoding:
    """Approximate a profile on [-half_width, half_width] by an enumerated
    polynomial and return its index plus the affine placement.

    Fits by least squares on Chebyshev nodes with increasing degree, rounds
    coefficients through continued fractions with a doubling denominator
    bound, and accepts the first candidate whose worst error on a dense
    validation grid is within budget (an exact match of a ``RationalPoly``
    target has error 0) and whose index :func:`encode_poly` builds within
    its bit cap.  Raises :class:`EncoderBudgetError` with the best error seen
    otherwise, saying so when the cap alone skipped a candidate in budget.
    """
    if not eps_over_k > 0:  # also rejects NaN
        raise ValueError("the error budget must be positive")
    lw = float(spec.half_width)
    if isinstance(g, RationalPoly):
        target = g.eval_float
    else:
        target = g

    xi_nodes = np.cos(np.pi * (np.arange(_FIT_NODES) + 0.5) / _FIT_NODES)  # Chebyshev, in [-1,1]
    t_nodes = lw * xi_nodes
    samples = np.array([target(t) for t in t_nodes], dtype=float)
    grid = np.linspace(-lw, lw, _VALIDATION_POINTS)
    grid_target = np.array([target(t) for t in grid], dtype=float)

    best_error = math.inf
    skipped = ""  # why a candidate within the budget was skipped
    powers = [Fraction(spec.half_width) ** i for i in range(_MAX_DEGREE + 1)]
    for degree in range(_MAX_DEGREE + 1):
        cheb_coeffs = npcheb.chebfit(xi_nodes, samples, degree)
        power_xi = npcheb.cheb2poly(cheb_coeffs)
        coeff_floats = [float(power_xi[i]) / float(powers[i]) for i in range(degree + 1)]
        if any(abs(c) > _MAX_ABS_COEFF for c in coeff_floats):
            continue
        seen: set[tuple] = set()
        bound = 8
        while bound <= _MAX_DENOMINATOR:
            cand_coeffs = tuple(
                Fraction(c).limit_denominator(bound) for c in coeff_floats
            )
            bound *= 2
            if cand_coeffs in seen:
                continue
            seen.add(cand_coeffs)
            cand = RationalPoly.from_coefficients(cand_coeffs)
            if isinstance(g, RationalPoly) and cand == g:
                err = 0.0
            else:
                dense = [float(c) for c in cand_coeffs]
                approx = np.polynomial.polynomial.polyval(grid, dense)
                err = float(np.max(np.abs(grid_target - approx)))
            best_error = min(best_error, err)
            if not err <= eps_over_k:  # also skips a NaN error
                continue
            try:
                index = encode_poly(cand)
            except OverflowError as exc:
                skipped = f"every candidate within the error budget was skipped: {exc}"
                continue
            return UnivariateEncoding(index, spec.scale, spec.shift_for_index(index), err, cand)
    raise EncoderBudgetError(best_error, skipped)


@dataclass(frozen=True)
class NetworkTerm:
    """One hidden unit: coefficient, weight vector, threshold (all exact)."""

    c: Fraction
    w: Direction
    theta: Fraction


@dataclass(frozen=True)
class Network:
    """A single-hidden-layer network with exact term data.

    ``activation`` is either an :class:`ActivationSpec` (constructed,
    polynomial-carrying activation) or an oracle object exposing ``name``,
    ``params`` and ``evaluator`` attributes.
    """

    terms: tuple[NetworkTerm, ...]
    activation: object
    report: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        for term in self.terms:
            if term.w.dim != self.terms[0].w.dim:
                raise ValueError("all weight vectors must share one dimension")

    @property
    def dim(self) -> int | None:
        return self.terms[0].w.dim if self.terms else None

    def to_dict(self) -> dict:
        if isinstance(self.activation, ActivationSpec):
            act = {
                "kind": "segments",
                "alpha": format_rational(self.activation.alpha),
                "half_width": format_rational(self.activation.half_width),
                "sharpness": format_rational(self.activation.sharpness),
            }
        else:
            act = {
                "kind": "oracle",
                "name": self.activation.name,
                "params": dict(self.activation.params),
            }
        return {
            "terms": [
                {
                    "c": format_rational(t.c),
                    "w": [format_rational(x) for x in t.w.coords],
                    "theta": format_rational(t.theta),
                }
                for t in self.terms
            ],
            "activation": act,
            "report": dict(self.report),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Network":
        act_data = data["activation"]
        if act_data["kind"] == "segments":
            activation: object = ActivationSpec.create(
                act_data["alpha"], act_data["half_width"], act_data["sharpness"]
            )
        elif act_data["kind"] == "oracle":
            from .netapprox import sigma_by_name

            activation = sigma_by_name(act_data["name"], act_data.get("params") or {})
        else:
            raise ValueError(f"unknown activation kind {act_data['kind']!r}")
        terms = tuple(
            NetworkTerm(
                rationalize(t["c"]),
                Direction.from_seq(t["w"]),
                rationalize(t["theta"]),
            )
            for t in data["terms"]
        )
        return cls(terms, activation, dict(data.get("report") or {}))


def eval_network(net: Network, x: Point) -> Fraction | float:
    """Evaluate the network at a point.

    Term arguments are formed in exact rational arithmetic (thresholds may
    have thousands of digits, so float formation would alias different
    segments).  With a constructed activation the result is exact whenever
    every argument lands on a carrier segment; any gap contribution, or an
    oracle activation, makes the result a float.
    """
    if net.dim is not None and x.dim != net.dim:
        raise ValueError(f"network is {net.dim}-d, point is {x.dim}-d")
    if isinstance(net.activation, ActivationSpec):
        exact_total = Fraction(0)
        float_total = 0.0
        has_float = False
        for term in net.terms:
            u = term.w.dot(x) - term.theta
            value = sigma_eval(net.activation, u)
            if isinstance(value, Fraction):
                exact_total += term.c * value
            else:
                float_total += float(term.c) * value
                has_float = True
        if has_float:
            return float(exact_total) + float_total
        return exact_total
    evaluator = net.activation.evaluator
    total = 0.0
    for term in net.terms:
        u = term.w.dot(x) - term.theta
        total += float(term.c) * evaluator(float(u))
    return total


def _table_extension(levels: Sequence[Fraction], values: Sequence[Fraction]):
    lv = np.array([float(v) for v in levels], dtype=float)
    va = np.array([float(v) for v in values], dtype=float)

    def extension(t: float) -> float:
        return float(np.interp(t, lv, va))

    return extension


def build_k_network(
    cfg: PointConfig,
    f_values: Sequence[RationalLike],
    eps: RationalLike,
) -> Network:
    """Build a network with exactly one unit per direction matching the data
    within ``eps`` on the configuration points.

    Requires a closed-path-free configuration (raising
    :class:`DensityPreconditionError` with the certificate otherwise).  The
    exact ridge interpolation supplies per-direction level profiles; each is
    extended piecewise-linearly, encoded with budget eps/(k+1), and placed by
    one unit with coefficient 1 and weight along its direction, on the
    activation whose half-width is the largest absolute level (at least 1).
    The build replays the network on the configuration and records exact
    error accounting in ``report``.
    """
    eps_q = rationalize(eps)
    if eps_q <= 0:
        raise ValueError("eps must be positive")
    certificate = find_closed_path(cfg)
    if certificate is not None:
        raise DensityPreconditionError(certificate)
    ridge, residual = interpolate_ridge(cfg, f_values)

    level_bound = max(
        (abs(lv) for table in ridge.tables for lv in table.levels), default=Fraction(0)
    )
    spec = ActivationSpec(Fraction(1), max(level_bound, Fraction(1)), Fraction(1))

    k = cfg.k
    budget = float(eps_q) / (k + 1)
    terms = []
    encodings = []
    exact_level_errors = []
    for a, table in zip(cfg.dirs, ridge.tables):
        extension = _table_extension(table.levels, table.values)
        enc = encode_univariate(extension, budget, spec)
        encodings.append(enc)
        exact_level_errors.append(
            max(
                abs(v - enc.poly.eval_exact(lv))
                for lv, v in zip(table.levels, table.values)
            )
        )
        terms.append(
            NetworkTerm(Fraction(1), a.scale(enc.scale), enc.shift)
        )

    net = Network(tuple(terms), spec)
    f = [rationalize(v) for v in f_values]
    replayed = Fraction(0)
    for point, fv in zip(cfg.points, f):
        value = eval_network(net, point)
        if not isinstance(value, Fraction):
            raise AssertionError("configuration points must hit carrier segments")
        replayed = max(replayed, abs(fv - value))
    bound_exact = residual + sum(exact_level_errors, Fraction(0))
    if replayed > bound_exact:
        raise AssertionError("error budget accounting violated")
    if replayed >= eps_q:
        raise EncoderBudgetError(
            float(replayed), "replayed error exceeded the requested bound"
        )
    report = {
        "replayed_error": float(replayed),
        "ridge_residual": float(residual),
        "per_direction_errors": [float(e) for e in exact_level_errors],
        "encoder_errors": [float(e.achieved_error) for e in encodings],
        "error_bound": float(bound_exact),
        "indices_bit_length": [e.index.bit_length() for e in encodings],
    }
    object.__setattr__(net, "report", report)
    return net
