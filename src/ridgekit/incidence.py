"""Level/point incidence analysis for finite configurations.

Fix points ``x^1..x^n`` and directions ``a^1..a^k``.  For each direction,
points group by their exact projection value (their *level*).  Stacking one
0/1 row per (direction, level) pair, with a 1 in column ``j`` when point
``j`` sits on that level, gives the incidence matrix ``M``.

A *closed path* is a subset of points carrying nonzero coefficients that sum
to zero within every level group of every direction, i.e. a nonzero null
vector of ``M``.  Its atoms form a measure annihilating all the directions,
which is exactly the obstruction to representing arbitrary data on the
points as a sum of per-direction level profiles.  Hence the verdict: the
configuration is *dense* (every data vector is an exact ridge sum) iff no
closed path exists.

The level index (:class:`IncidenceStructure`, built by
:func:`build_incidence`) is the only code that maps points to levels, by the
integer keys of :mod:`ridgekit.measures` on the configuration's columns
(:attr:`PointConfig.integer_columns`); ridge tables alone build ``Fraction``
levels.  It groups each direction the first time that direction is read, so
a verdict that a separating direction settles groups no other.

:func:`analyze` caches one index per configuration, which the verdict, the
ridge fits and :mod:`ridgekit.bolts` share: the index holds its
configuration, and for two directions it is the bolt graph.  The index
keeps what is derived from it on first use.  The verdict reads only the
first closed path, the circuit on the rightmost column that depends on the
columns to its right, and does only the work that one vector needs:

* for two directions, points are the edges of the bipartite level graph,
  numbered as :attr:`IncidenceStructure.level_graph` says, and the
  circuits are the cycles that a union-find over level nodes closes when
  the points are added from the last one down
  (:attr:`IncidenceStructure.forest`); the verdict builds the first one,
  nothing is eliminated, and the same forest gives the orbits and the
  closed bolt of :mod:`ridgekit.bolts`;
* otherwise, when one direction has ``n`` levels, it separates every
  point: its rows of ``M`` are a permutation matrix, so ``M`` has full
  column rank and nothing is eliminated, and the directions after the first
  such one are never grouped;
* otherwise the elimination of ``M``, the one routine of
  :mod:`ridgekit.exactlinalg`, over all ``n`` columns with one row per
  level group, stops at its first free column.

The whole null space, which only a ridge fit reads, is for two directions
the cycle of every closing point of the forest, and otherwise the one
elimination of ``M``, resumed where a verdict stopped it.  The ridge fits
take one of three routes, chosen by the number of directions and, for two,
by whether the closed paths are pairwise disjoint, and factor at most once
per index:

* one direction: each point lies on one level, and the fit is each level's
  mean; nothing is eliminated or factored;
* two directions whose closed paths are pairwise disjoint (none, or the one
  cycle of a closed staircase): the fit projects ``f`` off each closed path,
  back-substitutes along the forest and removes each component's
  alternating mean, the forest's basis of the null space of ``M^T``, and
  factors nothing;
* otherwise ``[N | S]`` with ``S = M^T M`` is factored, ``n`` rows, with the
  closed paths as ``N``.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import cycle
from math import gcd, lcm
from operator import add
from typing import Iterator, Sequence

from .exactlinalg import IntegerSolver, nullspace_int
from .measures import Direction, DiscreteMeasure, Point, integer_columns, is_annihilating
from .rationals import RationalLike, rationalize


@dataclass(frozen=True)
class PointConfig:
    """A finite point set together with the directions under study."""

    points: tuple[Point, ...]
    dirs: tuple[Direction, ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("need at least one point")
        if not self.dirs:
            raise ValueError("need at least one direction")
        dim = self.points[0].dim
        if any(p.dim != dim for p in self.points) or any(a.dim != dim for a in self.dirs):
            raise ValueError("points and directions must share one dimension")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")

    @cached_property
    def _hash(self) -> int:
        return hash((len(self.points), self.points[0], self.points[-1], self.dirs))

    def __hash__(self) -> int:
        """Hashed once per instance, on the number of points, the first and
        the last point and the directions: :func:`analyze` looks a
        configuration up on every call, and each hash walks every direction's
        ``Fraction`` coordinates (the points keep their own hashes).  Equality
        still compares every point, so configurations that share this hash
        keep their own cache entries."""
        return self._hash

    @cached_property
    def integer_columns(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """:func:`integer_columns` of the points, scaled once per configuration."""
        return integer_columns(self.points)

    @classmethod
    def build(
        cls,
        points: Sequence[Sequence[RationalLike]],
        dirs: Sequence[Sequence[RationalLike]],
    ) -> "PointConfig":
        return cls(
            tuple(Point.from_seq(p) for p in points),
            tuple(Direction.from_seq(a) for a in dirs),
        )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def k(self) -> int:
        return len(self.dirs)

    @property
    def dim(self) -> int:
        return self.points[0].dim


@dataclass(frozen=True)
class IncidenceStructure:
    """The level index of the configuration ``cfg``, grouped one direction
    at a time: direction ``i`` is keyed (:meth:`Direction.integer_keys`, on
    :attr:`PointConfig.integer_columns`) and sorted (:func:`sorted_key_ids`)
    the first time :meth:`_direction` reads it.  ``keys`` and ``level_of``
    read every direction through it: ``keys[i]`` holds the distinct integer
    level keys along direction ``i`` in increasing order, and
    ``level_of[i][j]`` is the position there of point ``j``'s level.  The
    rows of ``M`` run over (direction, level) pairs in that order.
    """

    cfg: PointConfig

    def __post_init__(self) -> None:
        object.__setattr__(self, "_grouped", [None] * self.cfg.k)

    def _direction(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Direction ``i``'s distinct level keys and each point's level id,
        grouped on its first read."""
        grouped = self._grouped[i]
        if grouped is None:
            keys = self.cfg.dirs[i].integer_keys(self.cfg.integer_columns[1])
            distinct, ids = sorted_key_ids(keys)
            grouped = self._grouped[i] = (tuple(distinct), tuple(ids))
        return grouped

    @cached_property
    def keys(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._direction(i)[0] for i in range(self.cfg.k))

    @cached_property
    def level_of(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._direction(i)[1] for i in range(self.cfg.k))

    @cached_property
    def levels(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per direction, the distinct projection values in increasing order,
        as ``Fraction``s built on first use: only ridge tables read them.
        Level ``g`` along direction ``i`` lies at ``keys[i][g] / (D E)``, with
        ``D E`` that direction's scale."""
        big_d = self.cfg.integer_columns[0]
        scales = [big_d * a.integer_multiple[0] for a in self.cfg.dirs]
        return tuple(
            tuple(Fraction(key, scale) for key in keys) for keys, scale in zip(self.keys, scales)
        )

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per direction, per level: the points on that level, in increasing
        order; built once per index, and the level members that every
        elimination and the level means read."""
        out = []
        for keys, ids in zip(self.keys, self.level_of):
            members: list[list[int]] = [[] for _ in keys]
            for j, g in enumerate(ids):
                members[g].append(j)
            out.append(tuple(tuple(m) for m in members))
        return tuple(out)

    @cached_property
    def level_graph(self) -> tuple[int, int, tuple[int, ...], list[int], list[int]]:
        """For two directions, the one numbering of the bipartite level
        graph: node ``g`` is level ``g`` along the first direction, node
        ``n1 + g`` level ``g`` along the second, and point ``j`` is the edge
        joining its two levels, so :attr:`groups` of the first direction and
        then of the second list each node's edges.  Returns ``n1``, the
        number of nodes, each point's node along the first direction and
        along the second, and their sums ``ends``: the other end of edge ``j``
        from either of its nodes ``v`` is ``ends[j] - v``."""
        (keys1, first), (keys2, second) = self._direction(0), self._direction(1)
        n1 = len(keys1)
        second = [n1 + g for g in second]
        return n1, n1 + len(keys2), first, second, list(map(add, first, second))

    @cached_property
    def forest(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """For two directions: the level graph grown into a spanning forest,
        point by point from ``n - 1`` down to 0.  Returns every point that
        closes a cycle, in that order (none when the graph is a forest), and
        each point's component, named by a level node.

        Each point is added to a union-find over the nodes of
        :attr:`level_graph`, numbered as there within the one pass a verdict
        makes.  The columns of ``M`` are the edges of this graph, so the
        closing points are exactly the free columns of the right-to-left
        elimination, and the other points, the forest's edges, its pivot
        columns.  Each closing point's two levels are joined by the forest
        edges after it, so its cycle runs through those and no later closing
        point (:meth:`_forest_cycle`)."""
        (keys1, first), (keys2, second) = self._direction(0), self._direction(1)
        n1 = len(keys1)
        root = list(range(n1 + len(keys2)))

        def find(a: int) -> int:
            while root[a] != a:
                root[a] = root[root[a]]
                a = root[a]
            return a

        closing = []
        for j in range(len(first) - 1, -1, -1):
            a, b = find(first[j]), find(n1 + second[j])
            if a != b:
                root[a] = b
            else:
                closing.append(j)
        return tuple(closing), tuple(find(g) for g in first)

    @cached_property
    def _rooted_forest(self) -> tuple[list[int], list[int], list[list[int]]]:
        """The spanning forest of :attr:`forest`, rooted breadth first at the
        lowest node of each component: each node's parent edge (the point
        joining it to its parent, -1 at a root) and depth, and each
        component's nodes in breadth-first order, root first."""
        _, nodes, first, second, ends = self.level_graph
        edges: list[list[int]] = [[] for _ in range(nodes)]
        closing = set(self.forest[0])
        for e, (a, b) in enumerate(zip(first, second)):
            if e not in closing:
                edges[a].append(e)
                edges[b].append(e)
        via, depth = [-1] * nodes, [-1] * nodes
        components = []
        for start in range(nodes):
            if depth[start] >= 0:
                continue
            depth[start] = 0
            queue = [start]
            for node in queue:
                for e in edges[node]:
                    other = ends[e] - node
                    if depth[other] < 0:
                        depth[other] = depth[node] + 1
                        via[other] = e
                        queue.append(other)
            components.append(queue)
        return via, depth, components

    def _cycle_walk(self, closing: int) -> list[int]:
        """The cycle that point ``closing`` closes in :attr:`forest`, in walk
        order: the point, then the forest path from its level along the
        second direction to its level along the first, each end walked up to
        their common ancestor in :attr:`_rooted_forest`.  Consecutive points
        share a level, the first two along the second direction.  A forest
        joins two nodes by one path only, and the forest edges after
        ``closing`` already join these two, so the cycle lies on ``closing``
        and points after it, none of them free."""
        _, _, first, second, ends = self.level_graph
        via, depth, _ = self._rooted_forest
        a, b = first[closing], second[closing]
        up_a: list[int] = []
        up_b: list[int] = []
        while a != b:
            if depth[a] >= depth[b]:
                e = via[a]
                up_a.append(e)
                a = ends[e] - a
            else:
                e = via[b]
                up_b.append(e)
                b = ends[e] - b
        return [closing, *up_b, *reversed(up_a)]

    def _forest_cycle(self, closing: int) -> dict[int, int]:
        """The cycle of :meth:`_cycle_walk` as ``{point: weight}``, sorted by
        point: it is :func:`nullspace_int`'s basis vector for the free column
        ``closing``.  The level graph is bipartite, so the walk has even
        length, and weights alternating ±1 along it cancel on every level;
        ``closing``, the smallest point, gets +1, which is that basis's normal
        form."""
        walk = self._cycle_walk(closing)
        return dict(sorted(zip(walk, cycle((1, -1)))))

    @cached_property
    def _null_vectors(self) -> Iterator[dict[int, int]]:
        """The null-space basis of ``M`` from :func:`nullspace_int`, each
        vector as ``{point: weight}`` over its nonzero entries, computed as
        it is read: taking a vector eliminates up to its free column and
        back-substitutes it, and the next one resumes there.  Only
        :attr:`first_closed_path` and :attr:`closed_paths`, for other than
        two directions, take them.

        It is fed all ``n`` columns, with one sparse 0/1 row per (direction,
        level) from :attr:`groups`.  The directions are asked in order and
        grouped as they are asked: at the first one with ``n`` levels, whose
        rows of ``M`` are a permutation matrix, ``M`` has full column rank,
        so there is no vector, no row is built and the later directions stay
        ungrouped."""
        n = self.cfg.n
        if any(len(self._direction(i)[0]) == n for i in range(self.cfg.k)):
            return iter(())
        rows = [dict.fromkeys(members, 1) for dir_groups in self.groups for members in dir_groups]
        return ({j: w for j, w in enumerate(vec) if w} for vec in nullspace_int(rows, n))

    @cached_property
    def first_closed_path(self) -> dict[int, int] | None:
        """The first null-space basis vector, the one the verdict reads, or
        None when ``M`` has full column rank.

        It is the circuit on the rightmost column that depends on the
        columns to its right.  For two directions that is the cycle of the
        first closing point of :attr:`forest`, and nothing is eliminated;
        otherwise it is the first of :attr:`_null_vectors`, whose
        elimination stops at that column."""
        if self.cfg.k != 2:
            return next(self._null_vectors, None)
        closing, _ = self.forest
        return self._forest_cycle(closing[0]) if closing else None

    @cached_property
    def closed_paths(self) -> list[dict[int, int]]:
        """The whole null-space basis, the first closed path first.  For two
        directions the rest are the cycles of the other closing points of
        :attr:`forest`, and nothing is eliminated; otherwise they come from
        the one elimination of :attr:`_null_vectors`, resuming where the
        first stopped it."""
        first = self.first_closed_path
        if first is None:
            return []
        if self.cfg.k == 2:
            return [first, *map(self._forest_cycle, self.forest[0][1:])]
        return [first, *self._null_vectors]

    @cached_property
    def solver(self) -> IntegerSolver:
        """The factorization of ``[N | S]``.  The closed paths fill the
        leftmost columns, which the right-to-left elimination reaches last."""
        p = len(self.closed_paths)
        rows: list[dict[int, int]] = [{} for _ in range(self.cfg.n)]
        for c, vec in enumerate(self.closed_paths):
            for a, w in vec.items():
                rows[a][c] = w
        for dir_groups in self.groups:
            for members in dir_groups:
                for a in members:
                    row = rows[a]
                    for b in members:
                        row[p + b] = row.get(p + b, 0) + 1
        return IntegerSolver(rows, p + self.cfg.n)

    @cached_property
    def _fits_on_forest(self) -> bool:
        """Whether :meth:`fit` reads the level forest: two directions whose
        closed paths are pairwise disjoint (none, or one cycle, as in a closed
        staircase)."""
        if self.cfg.k != 2:
            return False
        paths = self.closed_paths
        return sum(map(len, paths)) == len(set().union(*paths))

    @cached_property
    def _forest_steps(self) -> tuple[list[tuple[int, int, int]], list[tuple], list[tuple]]:
        """What a fit on the level forest reads: each node of
        :attr:`_rooted_forest` but the roots, in breadth-first order, as
        ``(node, parent edge, parent)``; the closed paths; and each
        component's vector of ``null(M^T)``, +1 on its levels along the first
        direction and -1 on those along the second, every point's two levels
        cancelling.  The ±1 vectors are kept as ``(+1 support, -1 support)``."""
        n1, _, _, _, ends = self.level_graph
        via, _, components = self._rooted_forest
        steps = []
        alternating = []
        for nodes in components:
            for node in nodes[1:]:
                e = via[node]
                steps.append((node, e, ends[e] - node))
            alternating.append(
                (tuple(v for v in nodes if v < n1), tuple(v for v in nodes if v >= n1))
            )
        paths = [
            (tuple(j for j, w in vec.items() if w > 0), tuple(j for j, w in vec.items() if w < 0))
            for vec in self.closed_paths
        ]
        return steps, paths, alternating

    def _solve_on_forest(self, f_num: Sequence[int]) -> tuple[list[list[int]], int]:
        """Integer level numerators ``W`` over ``q`` with ``u = W / (q d)`` the
        minimum-norm least-squares solution of ``M^T u = f = F / d``, for two
        directions whose closed paths are pairwise disjoint.  Nothing is
        factored.

        Disjoint closed paths ``N_i`` are orthogonal and span ``null(M)``, so
        ``f' = f - Σ (N_i·f / N_i·N_i) N_i`` is the projection of ``f`` on the
        range of ``M^T``, and ``M^T u = f'`` is consistent.  It is solved
        along :attr:`_rooted_forest`, each root level at 0 and every other
        level from its parent edge's equation.  The components' alternating
        vectors have disjoint supports and span ``null(M^T)``, so removing
        each one's share leaves ``u`` in the range of ``M``: the minimum-norm
        solution."""
        steps, paths, alternating = self._forest_steps
        f, q = _project_out(f_num, paths)
        n1, nodes, _, _, _ = self.level_graph
        u = [0] * nodes
        for node, e, parent in steps:
            u[node] = f[e] - u[parent]
        w, r = _project_out(u, alternating)
        return [w[:n1], w[n1:]], q * r

    def _solve_on_levels(self, f_num: Sequence[int]) -> tuple[list[list[int]], int]:
        """Integer level numerators ``W`` over ``q`` with ``u = W / (q d)`` the
        minimum-norm least-squares solution of ``M^T u = f = F / d``, for one
        direction.  Each point lies on one level, so ``u`` is each level's
        mean of ``f``: with ``S_g`` the sum of ``F`` on level ``g`` and
        ``c_g`` its point count, ``W_g = S_g (q / c_g)`` over ``q = lcm(c_g)``.
        Nothing is eliminated or factored."""
        counts = list(map(len, self.groups[0]))
        q = lcm(*counts)
        [sums] = self.level_sums(f_num)
        return [[s * (q // c) for s, c in zip(sums, counts)]], q

    def _solve_on_closed_paths(self, f_num: Sequence[int]) -> tuple[list[list[int]], int]:
        """Integer level numerators ``W`` over ``q`` with ``u = W / (q d)`` the
        minimum-norm least-squares solution of ``M^T u = f = F / d``.

        ``N`` holds the closed paths as columns, spanning the null space of
        ``M``, and ``S = M^T M``.  The range of ``S`` is the range of ``M^T``,
        the orthogonal complement of that null space, so every ``f`` splits
        uniquely as ``S y + N c`` and ``[N | S] [c; y] = f`` is consistent.
        Its solutions share ``c`` and differ in ``y`` by null vectors of ``M``,
        so ``u = M y`` is the same for all of them: the minimum-norm
        least-squares solution of ``M^T u = f``, as it lies in the range of
        ``M``.  The solver returns ``[c; y] = X / q``, and ``W = M X_y``."""
        x, q = self.solver.solve(f_num)
        return self.level_sums(x[len(self.closed_paths):]), q

    def fit(self, values: Sequence[Fraction]) -> tuple[list[list[Fraction]], Fraction]:
        """The level vectors ``u`` of the minimum-norm least-squares fit of
        ``values``, and the exact worst-case residual ``max |f - M^T u|``.

        The solution is unique, so every route gives the same tables.  The
        route is chosen by the number of directions and, for two, by
        :attr:`_fits_on_forest`:

        * one direction: each level's mean, and nothing is eliminated or
          factored (:meth:`_solve_on_levels`);
        * two directions whose closed paths are pairwise disjoint: the closed
          paths are projected out and the level forest is back-substituted,
          and nothing is factored (:meth:`_solve_on_forest`);
        * otherwise it solves the ``n``-row system ``[N | S]``
          (:meth:`_solve_on_closed_paths`).

        The arithmetic is integer: ``f = F / d`` over the lcm ``d`` of its
        denominators, a route returns ``u = W / (q d)``, and
        ``f - M^T u = (q F - M^T W) / (q d)``.  One ``Fraction`` is built per
        level and one for the residual.
        """
        d = lcm(*(v.denominator for v in values))
        f_num = [v.numerator * (d // v.denominator) for v in values]
        if self.cfg.k == 1:
            solve = self._solve_on_levels
        elif self._fits_on_forest:
            solve = self._solve_on_forest
        else:
            solve = self._solve_on_closed_paths
        sums, q = solve(f_num)
        worst = max(abs(q * a - b) for a, b in zip(f_num, self.gather(sums)))
        den = q * d
        return [[Fraction(s, den) for s in lv] for lv in sums], Fraction(worst, den)

    def level_sums(self, vec: Sequence[int | Fraction]) -> list[list[int | Fraction]]:
        """``M @ vec``, one list per direction: the sum of a point vector over
        each level.  Integer vectors give integer sums."""
        out = []
        for keys, ids in zip(self.keys, self.level_of):
            sums = [0] * len(keys)
            for g, x in zip(ids, vec):
                sums[g] += x
            out.append(sums)
        return out

    def gather(self, level_vecs: Sequence[Sequence[int | Fraction]]) -> list[int | Fraction]:
        """``M^T @ u`` for ``u`` split per direction: each point's sum over its levels."""
        out = [0] * self.cfg.n
        for ids, u in zip(self.level_of, level_vecs):
            out = list(map(add, out, map(u.__getitem__, ids)))
        return out


def _project_out(
    x: Sequence[int], vectors: Sequence[tuple[Sequence[int], Sequence[int]]]
) -> tuple[list[int], int]:
    """Integer numerators ``X`` over ``q`` with ``X / q = x - Σ (v·x / v·v) v``
    for ±1 vectors ``v`` of pairwise disjoint supports, each given as its
    ``(+1 support, -1 support)``: ``x`` less its projection on their span."""
    get = x.__getitem__
    terms, q = [], 1
    for plus, minus in vectors:
        s = sum(map(get, plus)) - sum(map(get, minus))
        if s:
            m = len(plus) + len(minus)
            g = gcd(s, m)
            terms.append((plus, minus, s // g, m // g))
            q = lcm(q, m // g)
    out = [q * a for a in x] if q > 1 else list(x)
    for plus, minus, s, m in terms:
        c = s * (q // m)
        for j in plus:
            out[j] -= c
        for j in minus:
            out[j] += c
    return out, q


def sorted_key_ids(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """The distinct keys in increasing order, and each key's position there.

    Ids come from one sort, not from hashing: ``int`` and ``Fraction`` hashes
    are residues mod 2^61 - 1, so keys such as ``2^k`` and ``2^(k+61)``
    collide.
    """
    ids = [0] * len(keys)
    distinct: list[int] = []
    last, g = None, -1
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[j]
        if key != last:
            distinct.append(key)
            last, g = key, g + 1
        ids[j] = g
    return distinct, ids


def build_incidence(cfg: PointConfig) -> IncidenceStructure:
    """The level index of ``cfg``, uncached (:func:`analyze` caches it), on
    the configuration's integer columns, scaled here once per configuration;
    each direction is grouped when it is first read.

    The integer keys ``(E a) . (D x)`` of :meth:`Direction.integer_keys` are
    ordered like ``a . x``.  Level ids come from :func:`sorted_key_ids`; the
    index keeps the distinct keys, and builds no ``Fraction`` until a ridge
    table reads its levels.
    """
    cfg.integer_columns  # scaled in this call, which perfbench/tracer.py times as the index build
    return IncidenceStructure(cfg)


@dataclass(frozen=True)
class ClosedPathCertificate:
    """A nonzero annihilating measure supported on configuration points.

    Weights are coprime integers and the lexicographically first support
    point carries a positive weight.
    """

    measure: DiscreteMeasure

    def __post_init__(self) -> None:
        if len(self.measure.support) < 2:
            raise ValueError("a closed path needs at least two points")

    def verify(self, dirs: Sequence[Direction]) -> bool:
        return is_annihilating(self.measure, dirs)

    def weights_for(self, points: Sequence[Point]) -> list[Fraction]:
        """Weights aligned with an external point ordering (0 off support)."""
        lookup = {p.coords: w for p, w in self.measure.atoms()}
        return [lookup.get(p.coords, Fraction(0)) for p in points]


class DensityPreconditionError(Exception):
    """Raised when an operation requires a dense configuration but a closed path exists."""

    def __init__(self, certificate: ClosedPathCertificate):
        super().__init__("configuration admits a closed path; ridge sums are not dense")
        self.certificate = certificate


def find_closed_path(cfg: PointConfig) -> ClosedPathCertificate | None:
    """Return an annihilating certificate, or None when the incidence matrix
    has full column rank.

    The certificate is the first null-space basis vector under the
    right-to-left pivot order, restricted to its nonzero coordinates; the
    restriction satisfies the same level equations, so the support is itself
    a closed path.  The support is sorted by the configuration's integer
    coordinates, which sort like the points.
    """
    inc = analyze(cfg)
    vec = inc.first_closed_path
    if vec is None:
        return None
    # distinct points and nonzero weights: already the canonical form, once sorted
    scaled = list(zip(*cfg.integer_columns[1]))
    support = sorted(vec, key=scaled.__getitem__)
    sign = 1 if vec[support[0]] > 0 else -1
    measure = DiscreteMeasure(
        tuple(cfg.points[j] for j in support), tuple(Fraction(sign * vec[j]) for j in support)
    )
    return ClosedPathCertificate(measure)


@dataclass(frozen=True)
class LevelTable:
    """A univariate profile sampled on the levels of one direction."""

    levels: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.levels) != len(self.values):
            raise ValueError("levels and values must have equal length")
        if any(a >= b for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("levels must be strictly increasing")

    @classmethod
    def _of_index(cls, levels: tuple[Fraction, ...], values: tuple[Fraction, ...]) -> "LevelTable":
        """A table on one direction's levels in the index, already sorted: unchecked."""
        table = object.__new__(cls)
        table.__dict__.update(levels=levels, values=values)
        return table

    def value_at(self, level: Fraction) -> Fraction:
        i = bisect_left(self.levels, level)
        if i == len(self.levels) or self.levels[i] != level:
            raise KeyError(f"level {level} not in table")
        return self.values[i]


@dataclass(frozen=True)
class RidgeSum:
    """Per-direction level profiles; evaluates as the sum of the profiles."""

    dirs: tuple[Direction, ...]
    tables: tuple[LevelTable, ...]

    def value_at(self, point: Point) -> Fraction:
        return sum(
            (t.value_at(a.dot(point)) for a, t in zip(self.dirs, self.tables)),
            Fraction(0),
        )


@lru_cache(maxsize=8)
def analyze(cfg: PointConfig) -> IncidenceStructure:
    """The cached level index of ``cfg``; a few recent configurations are kept."""
    return build_incidence(cfg)


def interpolate_ridge(
    cfg: PointConfig, values: Sequence[RationalLike]
) -> tuple[RidgeSum, Fraction]:
    """Best exact ridge-sum fit of ``values`` on the configuration points.

    Solves the stacked level system in the least-squares sense over the
    rationals (minimum-norm among minimizers, by :meth:`IncidenceStructure.fit`
    on the cached index) and returns the per-direction level tables together
    with the exact worst-case pointwise error.  The residual is zero for every
    data vector iff the configuration admits no closed path.
    """
    if len(values) != cfg.n:
        raise ValueError(f"expected {cfg.n} values, got {len(values)}")
    inc = analyze(cfg)
    u, residual = inc.fit([rationalize(v) for v in values])
    tables = tuple(LevelTable._of_index(lv, tuple(ui)) for lv, ui in zip(inc.levels, u))
    return RidgeSum(cfg.dirs, tables), residual


@dataclass(frozen=True)
class DensityVerdict:
    dense: bool
    certificate: ClosedPathCertificate | None

    def __post_init__(self) -> None:
        if self.dense == (self.certificate is not None):
            raise ValueError("verdict and certificate disagree")


def density_verdict(cfg: PointConfig) -> DensityVerdict:
    """Dense iff no closed path exists; otherwise carries the witness."""
    cert = find_closed_path(cfg)
    return DensityVerdict(cert is None, cert)
