"""Two-direction geometry: bolts, orbits, and alternating measures.

With two directions ``a1, a2``, points sharing an ``a1``-level form the
clique family ``E1`` and likewise ``E2``.  A *bolt* is an ordered point
sequence whose consecutive links strictly alternate between the two
families; it is *closed* when it has even length and the wrap-around link
continues the alternation.  Closed bolts carry alternating +/-1 measures
that annihilate both directions.

Every point's (level-1, level-2) pair is an edge of a bipartite graph on
level nodes, and a closed bolt is exactly a simple cycle there, with its
alternating measure a closed-path certificate.  The bolt graph is the cached
level index of :mod:`ridgekit.incidence` itself, the same one the density
verdict of those points and directions reads: :func:`build_bolt_graph`
checks the input and returns it, and the orbits are the components of its
level forest, the union-find the verdict grows.  That forest also gives the
closed bolt: when it has no closing point there is none, and otherwise the
bolt is the cycle of its first closing point, walked in order, whose
alternating weights are the verdict's certificate.  There is no second
search, and one configuration has one obstruction.

For infinite bolts, truncations carry the normalized alternating measures
``mu_n`` (mass 1/n per point, signs alternating).  A finite probe cannot
decide a limit statement, so :func:`weak_star_probe` reports empirical decay
plus the provable telescoping bound and labels the favourable outcome
"consistent-with-zero", never "converges".  The probe walks its bolt once.
The walk reads each point's coordinates once, as integer ratios over the
point's own lcm denominator ``D``, holds each level unreduced as the integer
``(E a) . (D x)`` over ``E D`` and checks consecutive levels by
cross-multiplication, so it builds no ``Fraction`` and takes no gcd per
level.  A ridge test's alternating sum telescopes along the bolt to at most
two terms (a link's two points share a level of its family), so no levels
are grouped, and only the one level per point that the sum reads becomes a
``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, cycle
from math import gcd, lcm
from operator import mul
from typing import Callable, Sequence

from .incidence import IncidenceStructure, PointConfig, analyze
from .measures import Direction, DiscreteMeasure, Point, integer_columns
from .rationals import RationalLike, Refusal, rationalize


class BoltGenerationError(Refusal):
    """A generator rule failed to extend its bolt; carries the violating step."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


@dataclass(frozen=True)
class Bolt:
    """An alternating point sequence; ``first_link`` is 1 or 2, naming the
    family of the link from the first point to the second."""

    points: tuple[Point, ...]
    first_link: int
    closed: bool = False
    indices: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.first_link not in (1, 2):
            raise ValueError("first_link must be 1 or 2")
        if self.closed and len(self.points) % 2 != 0:
            raise ValueError("closed bolts have even length")

    def __len__(self) -> int:
        return len(self.points)

    def link_family(self, j: int) -> int:
        """Family of the link from point j to point j+1 (0-based)."""
        return self.first_link if j % 2 == 0 else 3 - self.first_link


def verify_bolt(bolt: Bolt, a1: Direction, a2: Direction) -> bool:
    """Check consecutive distinctness and strict alternation (wrap included if closed).

    The check does its own arithmetic, on integers: the bolt's points over
    their common denominator (:func:`integer_columns`) are equal exactly when
    the points are, and their integer keys (:meth:`Direction.integer_keys`)
    exactly when their levels are.  Raises ``ValueError`` when a point's
    dimension is not the directions'.
    """
    pts = bolt.points
    m = len(pts)
    if m == 0:
        return False
    for a in (a1, a2):
        for dim in {len(p.coords) for p in pts}:
            if dim != a.dim:
                raise ValueError(f"dimension mismatch: direction is {a.dim}-d, point is {dim}-d")
    _, columns = integer_columns(pts)
    scaled = list(zip(*columns))
    u, v = a1.integer_keys(columns), a2.integer_keys(columns)
    for j in range(m if bolt.closed else m - 1):
        jn = (j + 1) % m
        if scaled[j] == scaled[jn]:
            return False
        same, other = u[j] == u[jn], v[j] == v[jn]
        if bolt.link_family(j) == 2:
            same, other = other, same
        if not same or other:
            return False  # off its family's level, or in both families at once
    return True


def _parallel(a: Direction, b: Direction) -> bool:
    d = a.dim
    for i in range(d):
        for j in range(i + 1, d):
            if a.coords[i] * b.coords[j] != a.coords[j] * b.coords[i]:
                return False
    return True


def build_bolt_graph(
    points: Sequence[Point], a1: Direction, a2: Direction
) -> IncidenceStructure:
    """The bolt graph of ``points`` under ``(a1, a2)``: their cached level
    index (:func:`analyze`).  Family ``i`` links the points that share a
    level along direction ``i``, a group of ``groups[i - 1]``.

    Rejects empty or repeated point sets (as :class:`PointConfig` does),
    parallel directions, and point pairs sharing both levels (such a pair
    belongs to both families, which breaks alternation).

    Points ``i < j`` that share both levels join the same two level nodes,
    so ``i``, added to the index's level forest after ``j``
    (:attr:`IncidenceStructure.forest`), closes a cycle.  Only the closing
    points' ``a1`` level groups are therefore checked for two points on one
    ``a2`` level, and a level forest builds no groups at all; a pair found
    there is named by :func:`_first_shared_pair`.
    """
    cfg = PointConfig(tuple(points), (a1, a2))
    if _parallel(a1, a2):
        raise ValueError("directions must not be parallel")
    inc = analyze(cfg)
    closing, _ = inc.forest
    if closing:
        first, second = inc.level_of
        groups = inc.groups[0]
        for g in {first[c] for c in closing}:
            members = groups[g]
            if len({second[j] for j in members}) < len(members):
                i, j = _first_shared_pair(inc.level_of)
                raise ValueError(
                    f"points {i} and {j} share both projection levels; "
                    "alternating traversal is ambiguous"
                )
    return inc


def _first_shared_pair(level_of: Sequence[Sequence[int]]) -> tuple[int, int]:
    """The pair ``(i, j)``, ``i < j``, of points sharing both levels with the
    smallest ``j``, and the smallest ``i`` for that ``j``."""
    seen: dict[tuple[int, int], int] = {}
    for j, key in enumerate(zip(*level_of)):
        if key in seen:
            return seen[key], j
        seen[key] = j
    raise AssertionError("no two points share both levels")


def find_closed_bolt(graph: IncidenceStructure) -> Bolt | None:
    """The closed bolt of the index's first closed path, or ``None``.

    A closed bolt is a cycle of the index's level graph
    (:attr:`IncidenceStructure.level_graph`), and :func:`build_bolt_graph`
    rejects parallel edges, so there is none when the level forest
    (:attr:`IncidenceStructure.forest`) has no closing point.  Otherwise the
    bolt is the cycle of its first closing point, the one the verdict's
    certificate weighs (:attr:`IncidenceStructure.first_closed_path`), walked
    in order (:meth:`IncidenceStructure._cycle_walk`): the closing point
    first, its first link along ``a2``.  :func:`verify_bolt` checks it.
    """
    closing = graph.forest[0]
    if not closing:
        return None
    walk = graph._cycle_walk(closing[0])
    points = graph.cfg.points
    bolt = Bolt(tuple(points[j] for j in walk), 2, closed=True, indices=tuple(walk))
    if not verify_bolt(bolt, *graph.cfg.dirs):
        raise AssertionError("cycle of the level forest is not a closed bolt")
    return bolt


def orbits(graph: IncidenceStructure) -> tuple[tuple[int, ...], ...]:
    """Connected components under level sharing (union of both families),
    each in increasing order, ordered by their first points.  Two points
    share a component exactly when their levels do in the index's level
    forest (:attr:`IncidenceStructure.forest`), which the verdict reads too."""
    _, component = graph.forest
    comps: dict[int, list[int]] = {}
    for j, node in enumerate(component):
        comps.setdefault(node, []).append(j)
    return tuple(map(tuple, comps.values()))


def bolt_measure(bolt: Bolt, n: int) -> DiscreteMeasure:
    """The normalized alternating measure on the first ``n`` bolt points:
    weight ``(-1)^(j+1)/n`` at the j-th point (1-based)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > len(bolt.points):
        raise ValueError(f"bolt has only {len(bolt.points)} points, asked for {n}")
    sign = 1
    atoms = []
    for p in bolt.points[:n]:
        atoms.append((p, Fraction(sign, n)))
        sign = -sign
    return DiscreteMeasure.from_atoms(atoms)


@dataclass(frozen=True)
class BoltGenerator:
    """Rule-driven infinite bolt: a start point and a next-point map.

    ``first_link`` names the family of the first step; subsequent steps must
    alternate, and :meth:`generate` checks that exactly (raising
    :class:`BoltGenerationError` on the violating step).
    """

    name: str
    initial: Point
    rule: Callable[[Point], Point]
    a1: Direction
    a2: Direction
    first_link: int

    def generate(self, n: int) -> Bolt:
        return self._walk(n)[0]

    def _walk(self, n: int) -> tuple[Bolt, list[int], list[int], list[int]]:
        """The first ``n`` bolt points and, per point, the integers ``K1``,
        ``K2`` and ``D`` of its ``a1``- and ``a2``-levels ``K1 / (E1 D)`` and
        ``K2 / (E2 D)``, unreduced.

        Each point is read once (:func:`_integer_point`), and the next step's
        checks compare its levels with the successor's by cross-multiplication:
        ``K / (E D)`` and ``K' / (E D')`` are equal exactly when
        ``K D' == K' D``.  No level is reduced and no ``Fraction`` is built.
        """
        if n < 1:
            raise ValueError("n must be positive")
        w1, w2 = self.a1.integer_multiple[1], self.a2.integer_multiple[1]
        rule, first_link = self.rule, self.first_link
        current = self.initial
        key, d, u, v = _integer_point(current, w1, w2)
        pts, u_nums, v_nums, dens = [current], [u], [v], [d]
        seen = {key}
        for step in range(1, n):
            nxt = rule(current)
            prev_key = key
            key, nd, nu, nv = _integer_point(nxt, w1, w2)
            if key == prev_key:
                raise BoltGenerationError(step, "rule repeated the previous point")
            fam = first_link if step % 2 else 3 - first_link
            u_kept, v_kept = nu * d == u * nd, nv * d == v * nd
            along_kept, across_kept = (u_kept, v_kept) if fam == 1 else (v_kept, u_kept)
            if not along_kept:
                raise BoltGenerationError(
                    step, f"step is not perpendicular to direction {fam}"
                )
            if across_kept:
                raise BoltGenerationError(step, "step shares both levels")
            if key in seen:
                raise BoltGenerationError(step, "rule revisited an earlier point")
            seen.add(key)
            pts.append(nxt)
            u_nums.append(nu)
            v_nums.append(nv)
            dens.append(nd)
            current, d, u, v = nxt, nd, nu, nv
        return Bolt(tuple(pts), first_link), u_nums, v_nums, dens


def _integer_point(
    p: Point, w1: Sequence[int], w2: Sequence[int]
) -> tuple[tuple[int, ...], int, int, int]:
    """``p``'s revisit key, the lcm ``D`` of its coordinates' denominators and
    its integer levels ``(E1 a1) . (D x)`` and ``(E2 a2) . (D x)``, from the
    directions' integer multiples ``w1 = E1 a1`` and ``w2 = E2 a2``.

    Each coordinate is read once, as its integer ratio.  The key holds
    ``(num, den, den.bit_length())`` per coordinate: equal keys are equal
    points, compared in C.  A ``Fraction`` hashes to ``num * den^-1 mod
    2^61 - 1``, so the coordinates ``2^-k`` and ``2^-(k+61)`` of a
    contracting orbit collide; the denominators' bit lengths tell them
    apart.  When the denominators divide one another, as on the paper
    orbit, ``D`` is the largest of them and takes no gcd.
    """
    ratios = [c.as_integer_ratio() for c in p.coords]
    for w in (w1, w2):
        if len(w) != len(ratios):
            raise ValueError(
                f"dimension mismatch: direction is {len(w)}-d, point is {len(ratios)}-d"
            )
    key: list[int] = []
    big_d = 1
    for num, den in ratios:
        key += (num, den, den.bit_length())
        if den == 1 or den == big_d:
            continue
        if big_d == 1 or not den % big_d:
            big_d = den
        elif big_d % den:
            big_d = lcm(big_d, den)
    scaled = [num if den == big_d or not num else num * (big_d // den) for num, den in ratios]
    return tuple(key), big_d, sum(map(mul, w1, scaled)), sum(map(mul, w2, scaled))


_ZERO = Fraction(0)


def _inward_spiral_rule(p: Point) -> Point:
    """``(1, -1)`` from the origin, ``(3y/4, y/4)`` from ``(0, y)`` and
    ``(0, y - x)`` otherwise, built from the coordinates' integer ratios.

    ``y - x`` is formed over the larger denominator when one divides the
    other, as on the paper orbit, where both are equal; each coordinate is
    one ``Fraction(num, den)``, whose one gcd has a small operand there."""
    x, y = p.coords
    yn, yd = y.as_integer_ratio()
    if not x:
        if not yn:
            return Point.of(1, -1)
        return Point((Fraction(3 * yn, 4 * yd), Fraction(yn, 4 * yd)))
    xn, xd = x.as_integer_ratio()
    if not yd % xd:
        num, den = yn - xn * (yd // xd), yd
    elif not xd % yd:
        num, den = yn * (xd // yd) - xn, xd
    else:
        den = lcm(xd, yd)
        num = yn * (den // yd) - xn * (den // xd)
    return Point((_ZERO, Fraction(num, den)))


def paper_orbit_generator() -> BoltGenerator:
    """The built-in single-orbit infinite bolt for directions (1,1), (1,-1).

    Starting at the origin, each step slides along the current level line of
    the alternating direction; from the third point on the sequence contracts
    by -1/2 every two steps, so the whole orbit accumulates back at the
    start and is topologically closed.
    """
    return BoltGenerator(
        name="paper-orbit",
        initial=Point.of(0, 0),
        rule=_inward_spiral_rule,
        a1=Direction.of(1, 1),
        a2=Direction.of(1, -1),
        first_link=1,
    )


@dataclass(frozen=True)
class PointTest:
    """A plain test function evaluated at bolt points."""

    name: str
    func: Callable[[Point], RationalLike]


@dataclass(frozen=True)
class RidgeTest:
    """A test of the form g1(a1 . x) + g2(a2 . x), given by level profiles.

    Profiles must return rationals so the telescoping bound can be checked
    exactly.
    """

    name: str
    profile1: Callable[[Fraction], RationalLike]
    profile2: Callable[[Fraction], RationalLike]


ProbeTestLike = PointTest | RidgeTest


@dataclass
class ProbeReport:
    """Decay table and verdict of a finite weak-star probe."""

    n_max: int
    rows: list[tuple[int, str, float]]
    final_values: dict[str, float]
    ridge_bounds_ok: bool
    threshold: float
    verdict: str
    bolt: Bolt


def weak_star_probe(
    gen: BoltGenerator,
    tests: Sequence[ProbeTestLike],
    n_max: int,
    threshold: RationalLike = Fraction(1, 100),
) -> ProbeReport:
    """Tabulate |integral of f d(mu_n)| for n = 1..n_max along a generated bolt.

    A ridge test's alternating sum ``S_n`` telescopes, as each link joins two
    points on one level of its family (the walk checks that).  With "along"
    the first link's family, ``S_n = g_across(across[0]) + g_along(along[n-1])``
    for odd n and ``g_across(across[0]) - g_across(across[n-1])`` for even n.
    So |integral| <= (2/n)(sup|g1| + sup|g2|) must hold exactly (sup over the
    realized levels); the probe verifies that for every n.  The walk
    (:meth:`BoltGenerator._walk`) gives each level as an unreduced integer
    ratio, and only the level each term reads, ``along[j]`` at even ``j``,
    ``across[j]`` at odd ``j`` and ``across[0]``, is built as the
    ``Fraction`` its profile is called with, once for all tests.  Each profile
    value is kept as its integer ratio, so the sups, the bound and every
    ``S_n`` come from integer cross-multiplication, and each tabulated value
    is rounded once, as ``int / int``.  The verdict is
    "consistent-with-zero" iff every ridge bound holds and every plain test
    ends below the threshold at n = n_max.
    """
    if not tests:
        raise ValueError("need at least one test")
    thr = rationalize(threshold)
    bolt, u_nums, v_nums, dens = gen._walk(n_max)
    if any(isinstance(test, RidgeTest) for test in tests):
        # the one level per point that the ridge sums read, along at even j
        # and across at odd j, as K / (E D)
        along = (u_nums, gen.a1.integer_multiple[0])
        across = (v_nums, gen.a2.integer_multiple[0])
        if bolt.first_link == 2:
            along, across = across, along
        (along_k, along_e), (across_k, across_e) = along, across
        nums = along_k[:]
        nums[1::2] = across_k[1::2]
        levels = [Fraction(k, e * d) for k, e, d in zip(nums, cycle((along_e, across_e)), dens)]
        head_level = Fraction(across_k[0], across_e * dens[0])

    ridge_bounds_ok = True
    pointwise_ok = True
    per_test_values: list[list[float]] = []
    for test in tests:
        if isinstance(test, RidgeTest):
            g_along, g_across = test.profile1, test.profile2
            if bolt.first_link == 2:
                g_along, g_across = g_across, g_along
            head = rationalize(g_across(head_level)).as_integer_ratio()
            last = [
                rationalize(g(level)).as_integer_ratio()
                for g, level in zip(cycle((g_along, g_across)), levels)
            ]
            along_n, along_d = _largest_magnitude(last[0::2])  # sup |g_along|
            across_n, across_d = _largest_magnitude([head, *last[1::2]])
            bound_num = 2 * (along_n * across_d + across_n * along_d)
            bound_den = along_d * across_d
            a, b = head
            values = []
            for n, (num, den) in enumerate(last, 1):
                size = abs(a * den + num * b if n % 2 else a * den - num * b)
                den *= b
                if size * bound_den > bound_num * den:
                    ridge_bounds_ok = False
                values.append(size / (den * n))
            per_test_values.append(values)
        else:
            values, passed = _pointwise_decay(test, bolt.points, thr)
            if not passed:
                pointwise_ok = False
            per_test_values.append(values)

    names = [test.name for test in tests]
    rows = [
        (n, name, v)
        for n, row in enumerate(zip(*per_test_values), 1)
        for name, v in zip(names, row)
    ]
    final_values = {name: values[-1] for name, values in zip(names, per_test_values)}
    verdict = (
        "consistent-with-zero" if ridge_bounds_ok and pointwise_ok else "inconclusive"
    )
    return ProbeReport(
        n_max=n_max,
        rows=rows,
        final_values=final_values,
        ridge_bounds_ok=ridge_bounds_ok,
        threshold=float(thr),
        verdict=verdict,
        bolt=bolt,
    )


def _largest_magnitude(ratios: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """The largest ``|n / d|`` of the integer ratios ``(n, d)``, ``d > 0``,
    as ``(|n|, d)``, compared by cross-multiplication."""
    best_n, best_d = 0, 1
    for n, d in ratios:
        if abs(n) * best_d > best_n * d:
            best_n, best_d = abs(n), d
    return best_n, best_d


def _pointwise_decay(
    test: PointTest, points: Sequence[Point], thr: Fraction
) -> tuple[list[float], bool]:
    """|integral of f d(mu_n)| for n = 1..len(points), and whether the last
    one is at most ``thr``.

    The partial sum is ``num / den`` with integers, ``den`` the lcm of the
    denominators so far, until ``f`` first returns a float; from there on it
    is a float sum.  A ``Fraction`` value is read by its integer ratio
    ``a / b``, other values through ``rationalize``; when ``b`` divides
    ``den``, ``a`` is scaled up to it and ``den`` kept, and when ``den``
    divides ``b``, ``num`` is scaled up to ``b``, each with no gcd.  An exact
    final value is compared with ``thr`` exactly.
    """
    values: list[float] = []
    num, den = 0, 1
    sign = 1
    for j, p in enumerate(points):
        val = test.func(p)
        if isinstance(val, float):
            break
        a, b = (val if isinstance(val, Fraction) else rationalize(val)).as_integer_ratio()
        if not den % b:
            num += sign * a * (den // b)
        elif not b % den:
            num = num * (b // den) + sign * a
            den = b
        else:
            g = gcd(den, b)
            num = num * (b // g) + sign * a * (den // g)
            den *= b // g
        values.append(abs(num) / (den * (j + 1)))
        sign = -sign
    else:
        n = len(points)
        return values, abs(num) * thr.denominator <= thr.numerator * den * n
    fpartial = num / den
    for n, val in enumerate(chain([val], map(test.func, points[j + 1 :])), j + 1):
        fpartial += sign * float(val)
        values.append(abs(fpartial) / n)
        sign = -sign
    return values, values[-1] <= float(thr)
