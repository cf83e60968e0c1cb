"""Finitely supported signed measures and their projections.

A :class:`DiscreteMeasure` is a signed combination of point masses with exact
rational weights.  Projecting it along a direction ``a`` (the map
``x -> a . x``) yields a :class:`ProjectedMeasure` on the line whose atom at
level ``c`` collects the weights of all support points with ``a . x == c``.
A measure *annihilates* a family of directions when every such projection is
the zero measure; these are exactly the measures orthogonal to all sums of
ridge profiles along those directions.  Levels are formed here on integers
too, as ``(E a) . (D x)``: :func:`integer_columns`, :meth:`Direction.integer_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import add, neg
from typing import Callable, Iterable, Sequence

from .rationals import RationalLike, rationalize


@dataclass(frozen=True)
class Point:
    """A point of R^d with exact rational coordinates."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("points need at least one coordinate")

    @cached_property
    def _hash(self) -> int:
        return hash((self.coords,))

    def __hash__(self) -> int:
        """Hashed once per instance, to the dataclass's own value: each hash
        walks every ``Fraction`` coordinate, and a configuration's
        distinctness check, cache lookup and bolt graph all hash its points."""
        return self._hash

    @classmethod
    def of(cls, *values: RationalLike) -> "Point":
        return cls(tuple(rationalize(v) for v in values))

    @classmethod
    def from_seq(cls, values: Sequence[RationalLike]) -> "Point":
        return cls(tuple(rationalize(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]


@dataclass(frozen=True)
class Direction:
    """A nonzero vector of R^d; defines the projection x -> a . x."""

    coords: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.coords) == 0:
            raise ValueError("directions need at least one coordinate")
        if all(c == 0 for c in self.coords):
            raise ValueError("direction must be nonzero")

    @classmethod
    def of(cls, *values: RationalLike) -> "Direction":
        return cls(tuple(rationalize(v) for v in values))

    @classmethod
    def from_seq(cls, values: Sequence[RationalLike]) -> "Direction":
        return cls(tuple(rationalize(v) for v in values))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def dot(self, point: Point) -> Fraction:
        if point.dim != self.dim:
            raise ValueError(
                f"dimension mismatch: direction is {self.dim}-d, point is {point.dim}-d"
            )
        # one Fraction at the end instead of one per product and partial sum
        num, den = 0, 1
        for a, x in zip(self.coords, point.coords):
            term = a.numerator * x.numerator
            if term:
                d = a.denominator * x.denominator
                if d == den:
                    num += term
                else:
                    num, den = num * d + term * den, den * d
        return Fraction(num, den)

    @cached_property
    def integer_multiple(self) -> tuple[int, tuple[int, ...]]:
        """``(E, E a)``, with ``E`` the lcm of the coordinates' denominators."""
        big_e = lcm(*(c.denominator for c in self.coords))
        return big_e, tuple(c.numerator * (big_e // c.denominator) for c in self.coords)

    def integer_keys(self, columns: Sequence[Sequence[int]]) -> list[int]:
        """``(E a) . (D x)`` per point of the columns of :func:`integer_columns`,
        as a new list that shares nothing with the columns.

        The sum starts from the first column of nonzero weight; a column of
        weight 1 is added as it is and one of weight -1 negated, with no
        multiply."""
        keys = None
        for w, col in zip(self.integer_multiple[1], columns):
            if w == 1:
                term = col
            elif w == -1:
                term = map(neg, col)
            elif w:
                term = map(w.__mul__, col)
            else:
                continue
            keys = list(term) if keys is None else list(map(add, keys, term))
        return keys

    def scale(self, factor: RationalLike) -> "Direction":
        f = rationalize(factor)
        if f == 0:
            raise ValueError("cannot scale a direction by zero")
        return Direction(tuple(f * c for c in self.coords))


def integer_columns(points: Sequence[Point]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The points over one denominator: the lcm ``D`` of all their coordinate
    denominators, and per coordinate the column of ``D x``.  ``D > 0``, so
    the points' integer coordinate tuples sort as their ``Fraction`` ones do.

    Each coordinate is read once, as its ``as_integer_ratio()``, and ``D`` is
    the lcm of the distinct denominators."""
    ratios = [[c.as_integer_ratio() for c in coord] for coord in zip(*(p.coords for p in points))]
    big_d = lcm(*{den for col in ratios for _, den in col})
    return big_d, tuple(tuple(num * (big_d // den) for num, den in col) for col in ratios)


@dataclass(frozen=True)
class DiscreteMeasure:
    """Canonical finitely supported signed measure.

    Support points are pairwise distinct, sorted lexicographically, and carry
    nonzero weights; the zero measure is the empty support (never an all-zero
    weight list), so equality of measures is plain equality.
    """

    support: tuple[Point, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.weights):
            raise ValueError("support and weights must have equal length")

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[tuple[Point, RationalLike]]
    ) -> "DiscreteMeasure":
        """Build the canonical form: merge duplicate points, drop zero weights."""
        merged: dict[tuple[Fraction, ...], Fraction] = {}
        dim = None
        for point, weight in atoms:
            if dim is None:
                dim = point.dim
            elif point.dim != dim:
                raise ValueError("all atoms must share one dimension")
            merged[point.coords] = merged.get(point.coords, Fraction(0)) + rationalize(weight)
        kept = sorted((c, w) for c, w in merged.items() if w != 0)
        return cls(tuple(Point(c) for c, _ in kept), tuple(w for _, w in kept))

    def atoms(self) -> Iterable[tuple[Point, Fraction]]:
        return zip(self.support, self.weights)


@dataclass(frozen=True)
class ProjectedMeasure:
    """Canonical signed measure on the line: strictly increasing levels, nonzero weights."""

    levels: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.weights):
            raise ValueError("levels and weights must have equal length")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")

    @classmethod
    def from_atoms(
        cls, atoms: Iterable[tuple[RationalLike, RationalLike]]
    ) -> "ProjectedMeasure":
        merged: dict[Fraction, Fraction] = {}
        for level, weight in atoms:
            lv = rationalize(level)
            merged[lv] = merged.get(lv, Fraction(0)) + rationalize(weight)
        kept = sorted((lv, w) for lv, w in merged.items() if w != 0)
        return cls(tuple(lv for lv, _ in kept), tuple(w for _, w in kept))

    @property
    def is_zero(self) -> bool:
        return not self.levels

    def atoms(self) -> Iterable[tuple[Fraction, Fraction]]:
        return zip(self.levels, self.weights)


def pushforward(mu: DiscreteMeasure, a: Direction) -> ProjectedMeasure:
    """Image of ``mu`` under x -> a . x, with exact level grouping."""
    return ProjectedMeasure.from_atoms((a.dot(p), w) for p, w in mu.atoms())


def total_variation(mu: DiscreteMeasure | ProjectedMeasure) -> Fraction:
    """Sum of absolute atom weights, of a measure or of its projection."""
    return sum((abs(w) for w in mu.weights), Fraction(0))


def integrate(mu: DiscreteMeasure, f: Callable[[Point], RationalLike]) -> Fraction | float:
    """Integrate ``f`` against ``mu``: the weighted sum of f over the support.

    Exact (a Fraction) whenever ``f`` returns rationals; a float leaks in as
    soon as ``f`` produces one.
    """
    total: Fraction | float = Fraction(0)
    for p, w in mu.atoms():
        value = f(p)
        if isinstance(value, float):
            total = float(total) + float(w) * value
        else:
            total = total + w * rationalize(value)
    return total


def is_annihilating(mu: DiscreteMeasure, dirs: Sequence[Direction]) -> bool:
    """True iff every directional projection of ``mu`` is the zero measure."""
    if not dirs:
        raise ValueError("need at least one direction")
    return all(pushforward(mu, a).is_zero for a in dirs)
