"""A smooth activation whose graph embeds every rational polynomial.

The construction: fix a segment length ``alpha`` and a working half-width
``l``.  On the m-th carrier segment ``[(2m-1)*alpha, 2m*alpha]`` the
activation equals the m-th polynomial of the enumeration, composed with the
affine map that carries the segment onto ``[-l, l]``.  On the gaps between
carrier segments the two neighbouring polynomial extensions are blended with
a step that is flat (all derivatives zero) at both ends, so the result is
infinitely differentiable.  Below the first segment the activation is 0:
the first polynomial of the enumeration is the zero polynomial, so it is 0
up to the end of the first segment and no window is needed there.

Because every continuous profile on ``[-l, l]`` is close to some rational
polynomial, a single translate of this activation reproduces it: one neuron
per direction suffices, at the price of an astronomically large threshold
encoding the polynomial's index.  All segment arithmetic is exact, so those
thresholds are stored and consumed as exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .enumeration import RationalPoly, decode_poly, encode_poly
from .incidence import DensityPreconditionError, PointConfig, find_closed_path, interpolate_ridge
from .measures import Direction, Point, integer_columns
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


_DECODED_KEPT = 32  # decoded indices kept; one near the bit cap is ~450 KB


@lru_cache(maxsize=_DECODED_KEPT)
def _decoded(m: int) -> RationalPoly:
    """``decode_poly(m)``, decoded once while ``m`` is among the last indices used."""
    return decode_poly(m)


def _segment_value(spec: ActivationSpec, m: int, qn: int, qd: int) -> tuple[int, int]:
    """The m-th polynomial, affinely extended from its segment, at ``t = alpha * qn / qd``.

    Its argument is ``tau = half_width * (2q - 4m + 1)`` with ``q = qn / qd``;
    the value comes back as an unreduced integer ratio.
    """
    hw = spec.half_width
    return _decoded(m).eval_ratio(hw.numerator * (2 * qn - (4 * m - 1) * qd), hw.denominator * qd)


def sigma_eval(spec: ActivationSpec, t: RationalLike) -> Fraction | float:
    """Evaluate the activation, exactly on carrier segments.

    Returns an exact Fraction when ``t`` lies on a carrier segment (the
    polynomial branch), a float on gaps, where the transcendental blend is
    intrinsically inexact, and the float ``0.0`` on the left tail
    ``t < alpha``, where the first (zero) polynomial's extension is 0.
    Every gap float is the correctly rounded value of its exact ratio
    (``int / int``).  The segment value is the ``Fraction`` of
    :func:`_sigma_ratio`'s integer ratio.
    """
    tq = rationalize(t)
    value = _sigma_ratio(spec, tq.numerator, tq.denominator)
    return value if isinstance(value, float) else Fraction(*value)


def _sigma_ratio(spec: ActivationSpec, tn: int, td: int) -> tuple[int, int] | float:
    """:func:`sigma_eval` at ``t = tn / td`` (``td > 0``), a ratio that need not be reduced.

    On a carrier segment the value comes back as an unreduced integer ratio
    ``(n, d)``, ``d > 0``: a caller builds its ``Fraction`` or rounds it once,
    as ``n / d``, which is the float of the reduced value bit for bit.  On a
    gap or the left tail it is the float, as :func:`sigma_eval` returns it.
    """
    alpha = spec.alpha
    qn = tn * alpha.denominator  # q = t / alpha = qn / qd, qd > 0
    qd = td * alpha.numerator
    if qn < qd:
        return 0.0
    m = -(-qn // (2 * qd))  # ceil(q / 2)
    if qn >= (2 * m - 1) * qd:
        return _segment_value(spec, m, qn, qd)
    # gap between segments m-1 and m
    w = smooth_step((qn - (2 * m - 2) * qd) / qd, float(spec.sharpness))
    low_n, low_d = _segment_value(spec, m - 1, qn, qd)
    low = low_n / low_d
    high_n, high_d = _segment_value(spec, m, qn, qd)
    high = high_n / high_d
    return (1.0 - w) * low + w * high


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
_WITNESSES = 8  # grid points at which a candidate is refuted before the grid
_DENOMINATOR_BOUNDS = tuple(8 << i for i in range(22))  # 8, 16, ..., 2**24: the rounding ladder


def _best_approximations(c: float) -> list[tuple[int, int]]:
    """``Fraction(c).limit_denominator(b)`` for every bound ``b`` of
    ``_DENOMINATOR_BOUNDS``, as lowest-terms ``(numerator, denominator)`` pairs.

    One walk down the continued fraction of ``c`` serves every bound, with
    ``limit_denominator``'s semiconvergent and tie rule: the walk stops at the
    last convergent ``p1/q1`` whose successor's denominator passes the bound,
    and the semiconvergent ``(p0 + k p1) / (q0 + k q1)`` with the largest
    ``k`` in the bound wins unless ``p1/q1`` is at least as close.
    """
    num, den = c.as_integer_ratio()
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = num, den  # the remainder of the expansion is n / d
    ladder = []
    for bound in _DENOMINATOR_BOUNDS:
        if den <= bound:
            ladder.append((num, den))
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > bound:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (bound - q0) // q1
        # c lies between the two candidates, 1 / (q1 (q0 + k q1)) apart, and
        # d / (q1 den) from p1/q1
        if 2 * d * (q0 + k * q1) <= den:
            ladder.append((p1, q1))
        else:
            ladder.append((p0 + k * p1, q0 + k * q1))
    return ladder


def _poly_of(ratios: Sequence[tuple[int, int]]) -> RationalPoly:
    """The polynomial whose dense coefficients are the ratios ``n / d``."""
    return RationalPoly.from_coefficients([Fraction(n, d) for n, d in ratios])


def _sample_points(spec: ActivationSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Chebyshev fit nodes on [-1, 1], the same nodes scaled to
    [-half_width, half_width] and the validation grid there: a profile is
    sampled at the last two."""
    lw = float(spec.half_width)
    xi_nodes = np.cos(np.pi * (np.arange(_FIT_NODES) + 0.5) / _FIT_NODES)
    return xi_nodes, lw * xi_nodes, np.linspace(-lw, lw, _VALIDATION_POINTS)


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
    otherwise, saying so when the cap alone skipped a candidate in budget or
    when every fit had a coefficient beyond ``_MAX_ABS_COEFF``.
    """
    exact = g if isinstance(g, RationalPoly) else None
    target = g if exact is None else exact.eval_float

    def sample(ts: np.ndarray) -> np.ndarray:
        return np.array([target(t) for t in ts], dtype=float)

    return _encode(sample, exact, eps_over_k, spec)


# Profiles near the float limit give inf and NaN coefficients, beyond the cap.
@np.errstate(over="ignore", invalid="ignore")
def _encode(
    sample: Callable[[np.ndarray], np.ndarray],
    exact: RationalPoly | None,
    eps_over_k: float,
    spec: ActivationSpec,
) -> UnivariateEncoding:
    """:func:`encode_univariate` on a profile given by ``sample``, which maps
    an array of arguments to the array of profile values; ``exact`` is the
    profile itself when it is a polynomial.

    A candidate is first scored at a few witness grid points (at most
    ``_WITNESSES``): the two grid ends and the worst grid point of each
    candidate scored on the whole grid.  :func:`_refuted` evaluates it there
    with ``polyval``'s own Horner steps in Python floats, which give the grid
    evaluation's values at those points bit for bit.  A witness deviation
    above the budget and at least the best error so far refutes the
    candidate: its grid error is at least as large, so it could neither be
    accepted nor lower the best error, and skipping its grid scoring changes
    no result.  A NaN deviation refutes nothing.
    """
    if not eps_over_k > 0:  # also rejects NaN
        raise ValueError("the error budget must be positive")
    xi_nodes, t_nodes, grid = _sample_points(spec)
    samples = sample(t_nodes)
    grid_target = sample(grid)
    witness_at = [0, _VALIDATION_POINTS - 1]
    witnesses = [(float(grid[i]), float(grid_target[i])) for i in witness_at]

    best_error = math.inf
    tried = False
    skipped = ""  # why a candidate within the budget was skipped
    powers = [Fraction(spec.half_width) ** i for i in range(_MAX_DEGREE + 1)]
    for degree in range(_MAX_DEGREE + 1):
        cheb_coeffs = npcheb.chebfit(xi_nodes, samples, degree)
        power_xi = npcheb.cheb2poly(cheb_coeffs)
        coeff_floats = [float(power_xi[i]) / float(powers[i]) for i in range(degree + 1)]
        if not all(abs(c) <= _MAX_ABS_COEFF for c in coeff_floats):  # also skips NaN
            continue
        tried = True
        seen: set[tuple[tuple[int, int], ...]] = set()
        for ratios in zip(*map(_best_approximations, coeff_floats)):
            if ratios in seen:
                continue
            seen.add(ratios)
            if exact is not None and _poly_of(ratios) == exact:
                err = 0.0
            else:
                dense = [n / d for n, d in ratios]  # float(Fraction(n, d)), correctly rounded
                if _refuted(dense, witnesses, eps_over_k, best_error):
                    continue
                approx = np.polynomial.polynomial.polyval(grid, dense)
                deviations = np.abs(grid_target - approx)
                worst = int(np.argmax(deviations))  # the first NaN, if any: np.max's value
                err = float(deviations[worst])
                if len(witness_at) < _WITNESSES and worst not in witness_at:
                    witness_at.append(worst)
                    witnesses.append((float(grid[worst]), float(grid_target[worst])))
            best_error = min(best_error, err)
            if not err <= eps_over_k:  # also skips a NaN error
                continue
            cand = _poly_of(ratios)
            try:
                index = encode_poly(cand)
            except OverflowError as exc:
                skipped = f"every candidate within the error budget was skipped: {exc}"
                continue
            return UnivariateEncoding(index, spec.scale, spec.shift_for_index(index), err, cand)
    if not tried:
        skipped = (
            "could not reach the requested accuracy: every fit has a coefficient "
            f"beyond the {_MAX_ABS_COEFF:,} coefficient cap"
        )
    raise EncoderBudgetError(best_error, skipped)


def _refuted(
    dense: Sequence[float], witnesses: Sequence[tuple[float, float]], budget: float, best: float
) -> bool:
    """Whether the polynomial with coefficients ``dense`` (lowest first)
    deviates from a witness ``(x, target)`` by more than ``budget`` and by at
    least ``best``.

    The value at ``x`` takes ``polyval``'s steps, ``v = c[-1] + x*0`` and then
    ``v = c[-i] + v*x``, as single IEEE double operations, so it is the grid
    evaluation's value there.  A NaN deviation fails both comparisons.
    """
    top, rest = dense[-1], dense[-2::-1]
    for x, target in witnesses:
        v = top + x * 0
        for c in rest:
            v = c + v * x
        dev = abs(target - v)
        if dev > budget and dev >= best:
            return True
    return False


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
    return _network_values(net, integer_columns([x]))[0]


def _network_values(net: Network, integer_points: tuple[int, Sequence]) -> list[Fraction | float]:
    """:func:`eval_network` at each point of ``integer_points``, which is the
    ``(D, columns)`` of :func:`integer_columns`, on integers.

    With ``E`` the lcm of a weight's denominators, the argument
    ``w . x - theta`` is the integer ratio
    ``((E w) . (D x) theta_d - theta_n E D) / (E D theta_d)``.  Each point
    sums its terms in the network's order.  A constructed activation's
    segment values add up exactly and its gap values in floats, and one gap
    makes the total a float; an oracle's ``evaluator`` gets the argument
    rounded once, as ``int / int``.
    """
    big_d, columns = integer_points
    n = len(columns[0])
    spec = net.activation if isinstance(net.activation, ActivationSpec) else None
    exact = [Fraction(0)] * n
    floats = [0.0] * n
    has_float = [False] * n
    for term in net.terms:
        big_e = term.w.integer_multiple[0]
        dots = term.w.integer_keys(columns)  # (E w) . (D x)
        theta_d = term.theta.denominator
        offset = term.theta.numerator * big_e * big_d
        den = big_e * big_d * theta_d
        if spec is None:
            weight, evaluator = float(term.c), net.activation.evaluator
            floats = [
                total + weight * evaluator((dot * theta_d - offset) / den)
                for total, dot in zip(floats, dots)
            ]
            continue
        for i, dot in enumerate(dots):
            value = _sigma_ratio(spec, dot * theta_d - offset, den)
            if isinstance(value, float):
                floats[i] += float(term.c) * value
                has_float[i] = True
            else:
                exact[i] += term.c * Fraction(*value)
    if spec is None:
        return floats
    return [float(e) + f if h else e for e, f, h in zip(exact, floats, has_float)]


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
        levels = np.array([float(v) for v in table.levels])
        values = np.array([float(v) for v in table.values])
        enc = _encode(partial(np.interp, xp=levels, fp=values), None, budget, spec)
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
    replayed = Fraction(0)
    for fv, value in zip(f_values, _network_values(net, cfg.integer_columns)):
        if not isinstance(value, Fraction):
            raise AssertionError("configuration points must hit carrier segments")
        replayed = max(replayed, abs(rationalize(fv) - value))
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
    return replace(net, report=report)
