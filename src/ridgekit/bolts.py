"""Two-direction geometry: bolts, orbits, and alternating measures.

With two directions ``a1, a2``, points sharing an ``a1``-level form the
clique family ``E1`` and likewise ``E2``.  A *bolt* is an ordered point
sequence whose consecutive links strictly alternate between the two
families; it is *closed* when it has even length and the wrap-around link
continues the alternation.  Closed bolts carry alternating +/-1 measures
that annihilate both directions.

Every point's (level-1, level-2) pair is an edge of a bipartite graph on
level nodes, and a closed bolt is exactly a simple cycle there, so detection
is a linear-time cycle search rather than a combinatorial enumeration.  The
graph is read from the cached level index of :mod:`ridgekit.incidence`, the
same one the density verdict of those points and directions reads.

For infinite bolts, truncations carry the normalized alternating measures
``mu_n`` (mass 1/n per point, signs alternating).  A finite probe cannot
decide a limit statement, so :func:`weak_star_probe` reports empirical decay
plus the provable telescoping bound and labels the favourable outcome
"consistent-with-zero", never "converges".  The probe walks its bolt once:
each point's two levels are computed once, by the step that checks them, and
grouped by sorting integer keys (as the level index does), never by hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Callable, Sequence

from .incidence import IncidenceStructure, PointConfig, analyze, sorted_key_ids
from .measures import Direction, DiscreteMeasure, Point
from .rationals import RationalLike, rationalize


class BoltGenerationError(Exception):
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
    """Check consecutive distinctness and strict alternation (wrap included if closed)."""
    pts = bolt.points
    m = len(pts)
    if m == 0:
        return False
    pairs = [(j, (j + 1) % m) for j in range(m if bolt.closed else m - 1)]
    for j, jn in pairs:
        p, q = pts[j], pts[jn]
        if p.coords == q.coords:
            return False
        fam = bolt.link_family(j)
        a = a1 if fam == 1 else a2
        other = a2 if fam == 1 else a1
        if a.dot(p) != a.dot(q):
            return False
        if other.dot(p) == other.dot(q):
            return False  # would sit in both families at once
    return True


@dataclass(frozen=True)
class BoltGraph:
    """Exact level-sharing structure of a point set under two directions.

    ``incidence`` is the level index of ``points`` under ``(a1, a2)``; family
    ``i`` links the points that share a level of ``incidence.levels[i - 1]``.
    """

    points: tuple[Point, ...]
    a1: Direction
    a2: Direction
    incidence: IncidenceStructure

    def edge_pairs(self, family: int) -> set[frozenset[int]]:
        pairs: set[frozenset[int]] = set()
        for members in self.incidence.groups[family - 1]:
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    pairs.add(frozenset((a, b)))
        return pairs


def _parallel(a: Direction, b: Direction) -> bool:
    d = a.dim
    for i in range(d):
        for j in range(i + 1, d):
            if a.coords[i] * b.coords[j] != a.coords[j] * b.coords[i]:
                return False
    return True


def build_bolt_graph(
    points: Sequence[Point], a1: Direction, a2: Direction
) -> BoltGraph:
    """Index points by exact level along both directions.

    Rejects empty or repeated point sets (as :class:`PointConfig` does),
    parallel directions, and point pairs sharing both levels (such a pair
    belongs to both families, which breaks alternation).
    """
    cfg = PointConfig(tuple(points), (a1, a2))
    if _parallel(a1, a2):
        raise ValueError("directions must not be parallel")
    inc = analyze(cfg).incidence
    seen: dict[tuple[int, int], int] = {}
    for j, key in enumerate(zip(*inc.level_of)):
        if key in seen:
            raise ValueError(
                f"points {seen[key]} and {j} share both projection levels; "
                "alternating traversal is ambiguous"
            )
        seen[key] = j
    return BoltGraph(cfg.points, a1, a2, inc)


def find_closed_bolt(graph: BoltGraph) -> Bolt | None:
    """Search for a closed bolt via cycle detection on the level graph.

    Nodes are the distinct levels of either direction and each point is the
    edge joining its two levels; a simple cycle there is precisely a closed
    bolt (even length, alternation forced by bipartiteness).
    """
    adj: dict[tuple[str, int], list[tuple[tuple[str, int], int]]] = {}
    for j, (g1, g2) in enumerate(zip(*graph.incidence.level_of)):
        nu, nv = ("u", g1), ("v", g2)
        adj.setdefault(nu, []).append((nv, j))
        adj.setdefault(nv, []).append((nu, j))

    visited: set[tuple[str, int]] = set()
    parent: dict[tuple[str, int], tuple[tuple[str, int] | None, int | None]] = {}
    for root in adj:
        if root in visited:
            continue
        visited.add(root)
        parent[root] = (None, None)
        stack = [(root, iter(adj[root]))]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nb, edge in it:
                if nb not in visited:
                    visited.add(nb)
                    parent[nb] = (node, edge)
                    stack.append((nb, iter(adj[nb])))
                    advanced = True
                    break
                if parent[node][1] != edge:
                    return _bolt_from_cycle(graph, parent, node, nb, edge)
            if not advanced:
                stack.pop()
    return None


def _bolt_from_cycle(graph, parent, lower, upper, closing_edge) -> Bolt:
    path_edges: list[int] = []
    node = lower
    while node != upper:
        pnode, pedge = parent[node]
        path_edges.append(pedge)
        node = pnode
    cycle = list(reversed(path_edges)) + [closing_edge]
    points = tuple(graph.points[j] for j in cycle)
    level1_of = graph.incidence.level_of[0]
    first = 1 if level1_of[cycle[0]] == level1_of[cycle[1]] else 2
    bolt = Bolt(points, first, closed=True, indices=tuple(cycle))
    if not verify_bolt(bolt, graph.a1, graph.a2):
        raise AssertionError("cycle of the level graph is not a closed bolt")
    return bolt


def orbits(graph: BoltGraph) -> tuple[tuple[int, ...], ...]:
    """Connected components under level sharing (union of both families)."""
    n = len(graph.points)
    root = list(range(n))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    for groups in graph.incidence.groups:
        for members in groups:
            base = find(members[0])
            for j in members[1:]:
                root[find(j)] = base
    comps: dict[int, list[int]] = {}
    for j in range(n):
        comps.setdefault(find(j), []).append(j)
    return tuple(tuple(sorted(c)) for c in sorted(comps.values()))


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
    first_link: int = 1

    def generate(self, n: int) -> Bolt:
        return self._walk(n)[0]

    def _walk(self, n: int) -> tuple[Bolt, list[Fraction], list[Fraction]]:
        """The first ``n`` bolt points and their ``a1``- and ``a2``-levels.

        Each point's two levels are computed once and carried to the next
        step's checks, which compare them with the successor's.
        """
        if n < 1:
            raise ValueError("n must be positive")
        a1, a2 = self.a1, self.a2
        current = self.initial
        u, v = a1.dot(current), a2.dot(current)
        pts, u_levels, v_levels = [current], [u], [v]
        key = _revisit_key(current)
        seen = {key}
        for step in range(1, n):
            nxt = self.rule(current)
            prev_key, key = key, _revisit_key(nxt)
            if key == prev_key:
                raise BoltGenerationError(step, "rule repeated the previous point")
            nu, nv = a1.dot(nxt), a2.dot(nxt)
            fam = self.first_link if step % 2 else 3 - self.first_link
            along_kept, across_kept = (nu == u, nv == v) if fam == 1 else (nv == v, nu == u)
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
            u_levels.append(nu)
            v_levels.append(nv)
            current, u, v = nxt, nu, nv
        return Bolt(tuple(pts), self.first_link), u_levels, v_levels


def _revisit_key(p: Point) -> tuple[int, ...]:
    """``p.coords`` as ints: equal keys are equal points, compared in C.

    A ``Fraction`` hashes to ``num * den^-1 mod 2^61 - 1``, so the
    coordinates ``2^-k`` and ``2^-(k+61)`` of a contracting orbit collide;
    the denominators' bit lengths tell them apart.
    """
    key: list[int] = []
    for c in p.coords:
        num, den = c.as_integer_ratio()
        key += (num, den, den.bit_length())
    return tuple(key)


def _inward_spiral_rule(p: Point) -> Point:
    x, y = p.coords
    if x == 0:
        if y == 0:
            return Point.of(1, -1)
        return Point((3 * y / 4, y / 4))
    return Point((Fraction(0), y - x))


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

    For ridge tests the alternating sums telescope within each level pair, so
    |integral| <= (2/n)(sup|g1| + sup|g2|) must hold exactly (sup over the
    realized levels); the probe verifies that for every n.  The verdict is
    "consistent-with-zero" iff every ridge bound holds and every plain test
    ends below the threshold at n = n_max.
    """
    if not tests:
        raise ValueError("need at least one test")
    thr = rationalize(threshold)
    bolt, u_levels, v_levels = gen._walk(n_max)
    if any(isinstance(test, RidgeTest) for test in tests):
        u_ids, u_reps = _level_ids(u_levels)
        v_ids, v_reps = _level_ids(v_levels)

    ridge_bounds_ok = True
    pointwise_ok = True
    per_test_values: list[list[float]] = []
    for test in tests:
        if isinstance(test, RidgeTest):
            g1 = [rationalize(test.profile1(lv)) for lv in u_reps]
            g2 = [rationalize(test.profile2(lv)) for lv in v_reps]
            # integers over one common denominator: the partial sums stay exact
            den = lcm(*(q.denominator for q in g1), *(q.denominator for q in g2))
            h1 = [q.numerator * (den // q.denominator) for q in g1]
            h2 = [q.numerator * (den // q.denominator) for q in g2]
            bound = 2 * (max(map(abs, h1)) + max(map(abs, h2)))
            terms = [h1[a] + h2[b] for a, b in zip(u_ids, v_ids)]
            terms[1::2] = [-t for t in terms[1::2]]
            sizes = list(map(abs, accumulate(terms)))
            if max(sizes) > bound:
                ridge_bounds_ok = False
            per_test_values.append([s / (den * n) for n, s in enumerate(sizes, 1)])
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


def _level_ids(levels: list[Fraction]) -> tuple[list[int], list[Fraction]]:
    """Each level's id among the distinct levels (increasing), and the levels by id."""
    scale = lcm(*(lv.denominator for lv in levels))
    distinct, ids = sorted_key_ids([lv.numerator * (scale // lv.denominator) for lv in levels])
    reps: list[Fraction] = [Fraction(0)] * len(distinct)
    for lv, g in zip(levels, ids):
        reps[g] = lv
    return ids, reps


def _pointwise_decay(
    test: PointTest, points: Sequence[Point], thr: Fraction
) -> tuple[list[float], bool]:
    """|integral of f d(mu_n)| for n = 1..len(points), and whether the last
    one is at most ``thr``.

    The partial sum is ``num / den`` with integers, ``den`` the lcm of the
    denominators so far, until ``f`` first returns a float; from there on it
    is a float sum.  An exact final value is compared with ``thr`` exactly.
    """
    values: list[float] = []
    num, den = 0, 1
    sign = 1
    for j, p in enumerate(points):
        val = test.func(p)
        if isinstance(val, float):
            break
        a, b = rationalize(val).as_integer_ratio()
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
