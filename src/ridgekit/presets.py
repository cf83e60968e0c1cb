"""Named fixtures: point configurations, bolt generators, target functions.

The configuration presets are small exact instances of the geometric
situations the toolkit analyzes:

* ``paper-5pt``: five points in R^3 whose coordinate projections admit the
  canceling weights (-2, 1, 1, 1, -1) - the classic closed-path obstruction.
* ``grid-2x2`` / ``grid-3x3``: integer grids under the coordinate
  directions; grids always close paths.
* ``parallel-segments``: two horizontal segments sampled at 16 symmetric
  abscissas each, analyzed along (1, 1) and (1, -1).  The level graph is a
  two-component forest, so the configuration is dense, yet every level is
  shared by two points - a genuinely coupled, path-free instance.
* ``monotone-curve``: 21 samples of the line t -> (t, t - 1/4, t + 1/4)
  under the coordinate directions; every hyperplane of each direction meets
  the curve at most once, so all projections separate points.
* ``paper-orbit``: the first 10 points of the built-in inward-spiral bolt.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bolts import BoltGenerator, PointTest, RidgeTest, paper_orbit_generator
from .incidence import PointConfig
from .measures import Point
from .rationals import rationalize


def _paper_5pt() -> PointConfig:
    return PointConfig.build(
        [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)],
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
    )


def _grid(size: int) -> PointConfig:
    return PointConfig.build(
        [(i, j) for i in range(size) for j in range(size)],
        [(1, 0), (0, 1)],
    )


def _parallel_segments() -> PointConfig:
    xs = [Fraction(2 * j + 1, 16) for j in range(8)]
    xs = sorted(xs + [-x for x in xs])
    points = [(x, Fraction(-1, 16)) for x in xs] + [(x, Fraction(1, 16)) for x in xs]
    return PointConfig.build(points, [(1, 1), (1, -1)])


def _monotone_curve() -> PointConfig:
    ts = [Fraction(-1, 2) + Fraction(j, 20) for j in range(21)]
    points = [(t, t - Fraction(1, 4), t + Fraction(1, 4)) for t in ts]
    return PointConfig.build(points, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def _paper_orbit_config() -> PointConfig:
    gen = paper_orbit_generator()
    bolt = gen.generate(10)
    return PointConfig(bolt.points, (gen.a1, gen.a2))


_CONFIGS = {
    "paper-5pt": _paper_5pt,
    "grid-2x2": lambda: _grid(2),
    "grid-3x3": lambda: _grid(3),
    "parallel-segments": _parallel_segments,
    "monotone-curve": _monotone_curve,
    "paper-orbit": _paper_orbit_config,
}

_GENERATORS = {
    "paper-orbit": paper_orbit_generator,
}


def config_preset(name: str) -> PointConfig:
    try:
        return _CONFIGS[name]()
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; available: {', '.join(sorted(_CONFIGS))}"
        ) from None


def generator_preset(name: str) -> BoltGenerator:
    try:
        return _GENERATORS[name]()
    except KeyError:
        raise ValueError(
            f"unknown generator preset {name!r}; available: {', '.join(sorted(_GENERATORS))}"
        ) from None


def _norm_value(p: Point) -> Fraction:
    return rationalize(math.sqrt(float(sum(c * c for c in p.coords))))


def _product_value(p: Point) -> Fraction:
    out = Fraction(1)
    for c in p.coords:
        out *= c
    return out


_TARGETS = {
    "xy": lambda p: p[0] * p[1],
    "x2-y": lambda p: p[0] * p[0] - p[1],
    "norm": _norm_value,
    "prod": _product_value,
    "x": lambda p: p[0],
    "y": lambda p: p[1],
    "one": lambda p: Fraction(1),
    "zero": lambda p: Fraction(0),
}


def target_function(name: str):
    try:
        return _TARGETS[name]
    except KeyError:
        raise ValueError(
            f"unknown target function {name!r}; available: {', '.join(sorted(_TARGETS))}"
        ) from None


def target_values(name: str, cfg: PointConfig) -> list[Fraction]:
    f = target_function(name)
    return [rationalize(f(p)) for p in cfg.points]


def probe_test(name: str) -> PointTest | RidgeTest:
    """Probe tests by name: coordinate monomials plus the identity ridge test."""
    pointwise = {
        "x": lambda p: p[0],
        "y": lambda p: p[1],
        "x2": lambda p: p[0] * p[0],
        "y2": lambda p: p[1] * p[1],
        "xy": lambda p: p[0] * p[1],
        "const": lambda p: Fraction(1),
    }
    if name in pointwise:
        return PointTest(name, pointwise[name])
    if name == "ridge-identity":
        identity = lambda level: level  # noqa: E731
        return RidgeTest("ridge-identity", identity, identity)
    available = ", ".join(sorted([*pointwise, "ridge-identity"]))
    raise ValueError(f"unknown probe test {name!r}; available: {available}")
