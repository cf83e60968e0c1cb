"""kfit: a network with exactly one unit per direction on the constructed activation.

Each direction's level profile is encoded as one enumerated rational
polynomial (:func:`encode_univariate`): a least-squares Chebyshev fit,
coefficients rounded through a doubling denominator ladder, and the first
candidate within budget on a dense validation grid is accepted.  The
polynomial's index becomes the unit's threshold on the activation of
:mod:`ridgekit.activation` (:func:`build_k_network`).  This is the only
module besides :mod:`ridgekit.netapprox` that imports numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as npcheb

from .activation import ActivationSpec, Network, NetworkTerm, _network_values
from .enumeration import RationalPoly, encode_poly
from .incidence import DensityPreconditionError, PointConfig, find_closed_path, interpolate_ridge
from .rationals import RationalLike, Refusal, rationalize


class EncoderBudgetError(Refusal):
    """Degree/denominator budget exhausted before reaching the target error."""

    def __init__(self, best_error: float, message: str = ""):
        super().__init__(
            message or f"could not reach the requested accuracy; best error {best_error:.3g}"
        )
        self.best_error = best_error


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
