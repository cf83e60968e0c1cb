"""Network approximation with an arbitrary continuous nonpolynomial activation.

Pipeline: exact ridge interpolation supplies per-direction level profiles;
each profile is then matched by a small combination of activation atoms
``sigma(t*y - theta)`` with the scale ``t`` on a signed geometric grid and the
threshold ``theta`` restricted to a given open interval.  The assembled
network keeps every threshold strictly inside that interval and has however
many units the one-dimensional fits needed.

Polynomial activations cannot span profiles this way, so a finite-difference
degree probe rejects them up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .activation import Network, NetworkTerm, _network_values
from .incidence import DensityPreconditionError, PointConfig, density_verdict, interpolate_ridge
from .rationals import RationalLike, Refusal, rationalize


# One round's dictionary is a levels x atoms float array; the atom count grows
# about fourfold per round (round 5 of the six has 8.5M atoms).  A fit holds
# one dictionary plus one block of atoms in memory.
MAX_DICTIONARY_ENTRIES = 2**24
_ATOM_BUDGET = 48  # atoms one fit may select
_ROUNDS = 6  # dictionary refinements before a fit gives up
_ATOM_BLOCK = 512  # atoms per array evaluation while filling the dictionary
_PROBE_MAX_DEGREE = 8  # highest degree the polynomial probe looks for
_PROBE_SPAN = 8.0  # the probe samples [-_PROBE_SPAN, _PROBE_SPAN]
_PROBE_RTOL = 1e-8  # a difference within this share of the sample scale has vanished


class FitBudgetError(Refusal):
    """Dictionary fit ran out of atoms/refinements before reaching the target."""

    def __init__(self, best_error: float):
        super().__init__(f"fit budget exhausted; best error {best_error:.3g}")
        self.best_error = best_error


class PolynomialActivationError(Refusal):
    """The activation looks polynomial; the density hypothesis fails."""


@dataclass(eq=False)
class SigmaOracle:
    """A continuous activation given by an evaluator plus a descriptor.

    ``array_evaluator``, when given, computes the same function elementwise on
    a float array; without it :meth:`evaluate` loops over ``evaluator``.  It
    may return a new array or its argument: the fit copies the values into
    its dictionary and never writes into an array the evaluator returned.
    """

    name: str
    evaluator: Callable[[float], float]
    params: dict = field(default_factory=dict)
    array_evaluator: Callable[[np.ndarray], np.ndarray] | None = None

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """The activation applied elementwise to a float array."""
        x = np.asarray(x, dtype=float)
        if self.array_evaluator is not None:
            return self.array_evaluator(x)
        f = self.evaluator
        return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def logistic_oracle() -> SigmaOracle:
    def f(x: float) -> float:
        if x >= 0:
            return 1.0 / (1.0 + math.exp(-x))
        e = math.exp(x)
        return e / (1.0 + e)

    def f_array(x: np.ndarray) -> np.ndarray:
        e = np.abs(x, out=np.empty(np.shape(x)))
        np.negative(e, out=e)
        np.exp(e, out=e)  # the scalar branches' exp argument, never positive
        numerators = np.where(x >= 0, 1.0, e)
        e += 1.0
        return np.divide(numerators, e, out=numerators)

    return SigmaOracle("logistic", f, array_evaluator=f_array)


def tanh_ramp_oracle() -> SigmaOracle:
    def f_array(x: np.ndarray) -> np.ndarray:
        v = np.tanh(x)
        v += 1.0
        v *= 0.5
        return v

    return SigmaOracle("tanh-ramp", lambda x: 0.5 * (1.0 + math.tanh(x)), array_evaluator=f_array)


def _table_point(x: float, y: float, seen: set[float], where: str) -> tuple[float, float]:
    x, y = float(x), float(y)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"{where}: table point ({x!r}, {y!r}) is not finite")
    if x in seen:
        raise ValueError(f"{where}: x = {x!r} repeats an earlier table point")
    seen.add(x)
    return x, y


def table_oracle(points: Sequence[tuple[float, float]]) -> SigmaOracle:
    """Piecewise-linear activation through the given (x, y) pairs, clamped outside.

    Every x and y must be finite and no x may repeat; a bad pair raises
    ``ValueError`` naming its index.
    """
    seen: set[float] = set()
    pts = sorted(_table_point(x, y, seen, f"table point {i}") for i, (x, y) in enumerate(points))
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])

    def f(x: float) -> float:
        return float(np.interp(x, xs, ys))

    return SigmaOracle(
        "table",
        f,
        {"points": [[x, y] for x, y in pts]},
        array_evaluator=lambda x: np.interp(x, xs, ys),
    )


def table_oracle_from_csv(path: str) -> SigmaOracle:
    """Load a piecewise-linear activation from a two-column CSV (x, y).

    A single non-numeric header line is tolerated and skipped.  A non-finite
    value or a repeated x raises ``ValueError`` naming ``path:line``.
    """
    pairs: list[tuple[float, float]] = []
    seen: set[float] = set()
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            if len(cells) != 2:
                raise ValueError(f"{path}:{lineno + 1}: expected two columns")
            try:
                x, y = float(cells[0]), float(cells[1])
            except ValueError:
                if lineno == 0:
                    continue  # header
                raise ValueError(f"{path}:{lineno + 1}: not numeric") from None
            pairs.append(_table_point(x, y, seen, f"{path}:{lineno + 1}"))
    if len(pairs) < 2:
        raise ValueError("table activation needs at least two points")
    return table_oracle(pairs)


def sigma_by_name(name: str, params: dict | None = None) -> SigmaOracle:
    params = params or {}
    if name == "logistic":
        return logistic_oracle()
    if name == "tanh-ramp":
        return tanh_ramp_oracle()
    if name == "table":
        return table_oracle([tuple(p) for p in params["points"]])
    raise ValueError(f"unknown activation preset {name!r}; available: logistic, table, tanh-ramp")


def polynomial_degree_probe(sigma: SigmaOracle) -> int | None:
    """Detect polynomial behaviour by vanishing finite differences.

    Samples the activation on an equispaced grid; the (d+1)-th differences of
    a degree-d polynomial vanish identically, while any genuinely curved
    nonpolynomial keeps them at visible size.  Returns the detected degree,
    or None when no order up to ``_PROBE_MAX_DEGREE`` vanishes.
    """
    count = _PROBE_MAX_DEGREE + 6
    xs = np.linspace(-_PROBE_SPAN, _PROBE_SPAN, count)
    ys = np.array([sigma.evaluator(float(x)) for x in xs])
    scale = max(1.0, float(np.max(np.abs(ys))))
    for degree in range(_PROBE_MAX_DEGREE + 1):
        diffs = np.diff(ys, degree + 1)
        if float(np.max(np.abs(diffs))) <= _PROBE_RTOL * scale:
            return degree
    return None


@dataclass(frozen=True)
class ThetaInterval:
    """An open threshold interval with rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo >= self.hi:
            raise ValueError("interval must be nonempty: lo < hi")

    @classmethod
    def create(cls, lo: RationalLike, hi: RationalLike) -> "ThetaInterval":
        return cls(rationalize(lo), rationalize(hi))

    def contains(self, x: RationalLike) -> bool:
        q = rationalize(x)
        return self.lo < q < self.hi

    def _interior_grid(self, count: int) -> tuple[list[int], int]:
        """``count`` equispaced rationals strictly inside the interval, as
        integer numerators over one common denominator: the ``j``-th is
        ``(lo (count - j) + hi (j + 1)) / (count + 1)``."""
        lo_n = self.lo.numerator * self.hi.denominator
        hi_n = self.hi.numerator * self.lo.denominator
        den = self.lo.denominator * self.hi.denominator * (count + 1)
        return [lo_n * (count - j) + hi_n * (j + 1) for j in range(count)], den


@dataclass(frozen=True)
class UnivariateFit:
    """A one-dimensional activation combination fitted to a level profile."""

    terms: tuple[tuple[Fraction, Fraction, Fraction], ...]  # (c, t, theta)
    achieved_error: float


def _scale_grid(exp_range: int) -> list[Fraction]:
    grid = []
    for e in range(-exp_range, exp_range + 1):
        q = Fraction(2) ** e
        grid.append(q)
        grid.append(-q)
    return grid


def _dictionary(
    ys: np.ndarray, ft: np.ndarray, fth: np.ndarray, sigma: SigmaOracle
) -> tuple[np.ndarray, np.ndarray]:
    """The levels x atoms dictionary ``sigma(ft[j] * ys - fth[j])`` and its
    column norms.

    Each block of ``_ATOM_BLOCK`` atoms takes one pass through one block-sized
    scratch array: the arguments, the activation values (copied into the
    dictionary, so the evaluator may return its argument), then their squares
    summed down the levels.  The values and norms are bit for bit those of
    ``sigma.evaluate`` on the whole argument array and
    ``np.linalg.norm(columns, axis=0)``, without a dictionary-sized temporary.
    """
    columns = np.empty((ys.size, ft.size))
    norms = np.empty(ft.size)
    for j0 in range(0, ft.size, _ATOM_BLOCK):
        j1 = j0 + _ATOM_BLOCK
        scratch = np.multiply.outer(ys, ft[j0:j1])
        scratch -= fth[j0:j1]
        block = columns[:, j0:j1]
        block[...] = sigma.evaluate(scratch)
        np.multiply(block, block, out=scratch)
        np.add.reduce(scratch, axis=0, out=norms[j0:j1])
    return columns, np.sqrt(norms, out=norms)


# Targets near the float limit overflow the correlations and the refit
# residual; the inf and NaN that follow fail every ``err <= eps`` test, so the
# fit refuses with the best finite error it saw.
@np.errstate(over="ignore", invalid="ignore")
def approx_univariate(
    levels: Sequence[RationalLike],
    targets: Sequence[RationalLike],
    sigma: SigmaOracle,
    theta: ThetaInterval,
    eps: float,
) -> UnivariateFit:
    """Greedy dictionary fit of a level profile by activation atoms.

    Atoms are sigma(t*y - theta) with t on a signed geometric grid (powers of
    two) and theta equispaced strictly inside the interval; each round the
    scale range and the theta resolution double.  Atoms are added greedily by
    residual correlation with a full least-squares refit, until the worst
    level error is within ``eps`` or the atom budget runs out; exhausting all
    rounds, or reaching a round whose dictionary would exceed
    ``MAX_DICTIONARY_ENTRIES`` levels x atoms, raises :class:`FitBudgetError`
    with the best error achieved.
    """
    if not eps > 0:  # also rejects NaN
        raise ValueError("eps must be positive")
    ys = np.array([float(rationalize(v)) for v in levels], dtype=float)
    f = np.array([float(rationalize(v)) for v in targets], dtype=float)
    if f.size == 0:
        raise ValueError("need at least one level")
    best_error = float(np.max(np.abs(f)))
    if best_error <= eps:
        return UnivariateFit((), best_error)

    exp_range = 8
    theta_count = 257
    for _ in range(_ROUNDS):
        scales = _scale_grid(exp_range)
        atom_count = len(scales) * theta_count
        if f.size * atom_count > MAX_DICTIONARY_ENTRIES:
            raise FitBudgetError(best_error)
        theta_nums, theta_den = theta._interior_grid(theta_count)
        # Atom j is (scales[j // theta_count], theta_nums[j % theta_count] / theta_den);
        # int / int rounds correctly, as float(Fraction) does.
        ft = np.repeat([float(t) for t in scales], theta_count)
        fth = np.tile([th / theta_den for th in theta_nums], len(scales))
        columns, norms = _dictionary(ys, ft, fth, sigma)
        unusable = ~(norms > 1e-12)  # NaN norms too
        divisors = np.where(unusable, 1.0, norms)

        selected: list[int] = []
        residual = f.copy()
        while len(selected) < _ATOM_BUDGET:
            corr = np.abs(residual @ columns)
            corr[unusable] = -1.0
            if selected:
                corr[selected] = -1.0
            j = int(np.argmax(corr / divisors))
            if corr[j] <= 0:
                break
            selected.append(j)
            sub = columns[:, selected]
            coef, *_ = np.linalg.lstsq(sub, f, rcond=None)
            residual = f - sub @ coef
            err = float(np.max(np.abs(residual)))
            best_error = min(best_error, err)
            if err <= eps:
                terms = tuple(
                    (
                        Fraction(float(c)),
                        scales[jj // theta_count],
                        Fraction(theta_nums[jj % theta_count], theta_den),
                    )
                    for c, jj in zip(coef, selected)
                )
                return UnivariateFit(terms, err)
        del columns  # before the next round's dictionary is allocated
        exp_range *= 2
        theta_count = theta_count * 2 + 1
    raise FitBudgetError(best_error)


def approx_network(
    cfg: PointConfig,
    f_values: Sequence[RationalLike],
    sigma: SigmaOracle,
    theta: ThetaInterval,
    eps: float,
) -> Network:
    """Assemble a network matching the data within ``eps`` on the points.

    Refuses polynomial activations (probe) and configurations with a closed
    path (certificate attached to the error).  The per-direction budget is
    eps/(k+1); the assembled worst-case error over the configuration points
    is replayed, checked against the triangle-inequality bound, and recorded
    in ``report``.
    """
    if not eps > 0:  # also rejects NaN
        raise ValueError("eps must be positive")
    detected = polynomial_degree_probe(sigma)
    if detected is not None:
        raise PolynomialActivationError(
            f"activation {sigma.name!r} looks like a polynomial of degree {detected}; "
            "density requires a nonpolynomial activation"
        )
    verdict = density_verdict(cfg)
    if not verdict.dense:
        raise DensityPreconditionError(verdict.certificate)
    ridge, residual = interpolate_ridge(cfg, f_values)

    k = cfg.k
    per_dir_eps = eps / (k + 1)
    terms: list[NetworkTerm] = []
    fit_errors: list[float] = []
    for a, table in zip(cfg.dirs, ridge.tables):
        fit = approx_univariate(table.levels, table.values, sigma, theta, per_dir_eps)
        fit_errors.append(fit.achieved_error)
        for c, t, th in fit.terms:
            if not theta.contains(th):
                raise AssertionError("threshold escaped the allowed interval")
            terms.append(NetworkTerm(c, a.scale(t), th))

    net = Network(tuple(terms), sigma)
    replayed = 0.0
    for fv, value in zip(f_values, _network_values(net, cfg.integer_columns)):
        replayed = max(replayed, abs(float(rationalize(fv)) - value))
    bound = float(residual) + sum(fit_errors)
    if not replayed <= bound + 1e-9:  # also fails on a NaN bound
        raise AssertionError("error budget accounting violated")
    if replayed > eps:
        raise FitBudgetError(replayed)
    return replace(
        net,
        report={
            "replayed_error": replayed,
            "ridge_residual": float(residual),
            "per_direction_errors": fit_errors,
            "error_bound": bound,
            "term_count": len(terms),
        },
    )
