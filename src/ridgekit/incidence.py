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

:func:`build_incidence` is the only code that maps points to levels, by
exact integer keys; the ``Fraction`` levels are built only when a ridge table
asks for them.  A point alone on a level carries that level's whole sum, so
it is 0 in every closed path: peeling such points until none is left leaves
the *core*, and only the core's columns are eliminated.  For two directions
this is the leaf-peeling of the bipartite level graph, and the core is
empty exactly when that graph is a forest.

:func:`analyze` caches one index per configuration, which the verdict, the
ridge fits and the bolt graph of :mod:`ridgekit.bolts` share.  The index
keeps what is derived from it on first use, all from the one elimination
routine of :mod:`ridgekit.exactlinalg`: the core's one elimination for the
null space, and from it the first closed path, which is all the verdict
reads; the other closed paths, back-substituted only when the ridge fits ask
for all of ``N``; and the one factorization of ``[N | S]`` with
``S = M^T M`` that the ridge fits need.  It also keeps the points' integer
coordinates, by which the certificate is sorted.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from operator import add
from typing import Iterator, Sequence

from .exactlinalg import IntegerSolver, nullspace_int
from .measures import Direction, DiscreteMeasure, Point, is_annihilating
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
        return hash((self.points, self.dirs))

    def __hash__(self) -> int:
        """Hashed once per instance: :func:`analyze` looks a configuration up
        on every call, and each hash walks every direction's ``Fraction``
        coordinates (the points keep their own hashes)."""
        return self._hash

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
    """The level index: ``keys[i]`` holds the distinct integer level keys
    along direction ``i`` in increasing order, level ``g`` lying at
    ``keys[i][g] / scales[i]``, and ``level_of[i][j]`` is the position there
    of point ``j``'s level.  The rows of ``M`` run over (direction, level)
    pairs in that order.  ``columns[c][j]`` is coordinate ``c`` of point
    ``j`` times the lcm ``D > 0`` of all point denominators, so the points'
    integer coordinate tuples sort as their ``Fraction`` ones do.
    """

    keys: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]
    level_of: tuple[tuple[int, ...], ...]
    columns: tuple[tuple[int, ...], ...]

    @property
    def n_points(self) -> int:
        return len(self.level_of[0])

    @property
    def level_counts(self) -> tuple[int, ...]:
        return tuple(len(keys) for keys in self.keys)

    @cached_property
    def levels(self) -> tuple[tuple[Fraction, ...], ...]:
        """Per direction, the distinct projection values in increasing order,
        as ``Fraction``s built on first use: only ridge tables read them."""
        return tuple(
            tuple(Fraction(key, scale) for key in keys)
            for keys, scale in zip(self.keys, self.scales)
        )

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Per direction, per level: the points on that level, in increasing
        order; built once per index."""
        out = []
        for keys, ids in zip(self.keys, self.level_of):
            members: list[list[int]] = [[] for _ in keys]
            for j, g in enumerate(ids):
                members[g].append(j)
            out.append(tuple(tuple(m) for m in members))
        return tuple(out)

    @cached_property
    def core(self) -> tuple[int, ...]:
        """The points left, in increasing order, after repeatedly removing a
        point that is alone on one of its levels among the points left.

        A point alone on a level carries that level's whole sum, so it is 0
        in every closed path, and by induction every null vector of ``M`` is
        zero off the core.  Each level keeps its count of remaining points
        and the sum of their ids, which names its last point."""
        counts: list[list[int]] = []
        id_sums: list[list[int]] = []
        for keys, ids in zip(self.keys, self.level_of):
            count, total = [0] * len(keys), [0] * len(keys)
            for j, g in enumerate(ids):
                count[g] += 1
                total[g] += j
            counts.append(count)
            id_sums.append(total)
        alone = [t for count, total in zip(counts, id_sums) for c, t in zip(count, total) if c == 1]
        live = [True] * self.n_points
        while alone:
            j = alone.pop()
            if not live[j]:
                continue
            live[j] = False
            for count, total, ids in zip(counts, id_sums, self.level_of):
                g = ids[j]
                count[g] -= 1
                total[g] -= j
                if count[g] == 1:
                    alone.append(total[g])
        return tuple(j for j, kept in enumerate(live) if kept)

    @cached_property
    def _null_vectors(self) -> Iterator[dict[int, int]]:
        """The null-space basis of ``M`` from :func:`nullspace_int`, each
        vector as ``{point: weight}`` over its nonzero entries, computed as
        it is read: the elimination runs here, on first use, and each vector
        is back-substituted when it is taken.  Only
        :attr:`first_closed_path` and :attr:`closed_paths` take them.

        It is fed the core's columns only, relabelled in order, with one
        sparse 0/1 row per (direction, level) holding core points, each of
        which holds at least two.  The basis depends only on the null space
        and the column order, and every null vector is zero off the core,
        so these are ``M``'s own basis vectors, with every entry on the core."""
        core = self.core
        rows: list[dict[int, int]] = []
        for keys, ids in zip(self.keys, self.level_of):
            members: list[dict[int, int]] = [{} for _ in keys]
            for c, j in enumerate(core):
                members[ids[j]][c] = 1
            rows.extend(m for m in members if m)
        vectors = nullspace_int(rows, len(core))
        return ({core[c]: w for c, w in enumerate(vec) if w} for vec in vectors)

    @cached_property
    def first_closed_path(self) -> dict[int, int] | None:
        """The first null-space basis vector, the one the verdict reads, or
        None when ``M`` has full column rank."""
        return next(self._null_vectors, None)

    @cached_property
    def closed_paths(self) -> list[dict[int, int]]:
        """The whole null-space basis: the first closed path, then the rest."""
        first = self.first_closed_path
        return [] if first is None else [first, *self._null_vectors]

    @cached_property
    def solver(self) -> IntegerSolver:
        """The factorization of ``[N | S]``.  The closed paths fill the
        leftmost columns, which the right-to-left elimination reaches last."""
        p = len(self.closed_paths)
        rows: list[dict[int, int]] = [{} for _ in range(self.n_points)]
        for c, vec in enumerate(self.closed_paths):
            for a, w in vec.items():
                rows[a][c] = w
        for dir_groups in self.groups:
            for members in dir_groups:
                for a in members:
                    row = rows[a]
                    for b in members:
                        row[p + b] = row.get(p + b, 0) + 1
        return IntegerSolver(rows, p + self.n_points)

    def fit(self, values: Sequence[Fraction]) -> tuple[list[list[Fraction]], Fraction]:
        """The level vectors ``u`` of the minimum-norm least-squares fit of
        ``values``, and the exact worst-case residual ``max |f - M^T u|``.

        ``N`` holds the closed paths as columns, spanning the null space of
        ``M``, and ``S = M^T M``.  The range of ``S`` is the range of ``M^T``,
        the orthogonal complement of that null space, so every ``f`` splits
        uniquely as ``S y + N c`` and ``[N | S] [c; y] = f`` is consistent.
        Its solutions share ``c`` and differ in ``y`` by null vectors of ``M``,
        so ``u = M y`` is the same for all of them: the minimum-norm
        least-squares solution of ``M^T u = f``, as it lies in the range of
        ``M``.

        The arithmetic is integer: ``f = F / d`` over the lcm ``d`` of its
        denominators, the solver returns ``[c; y] = X / q``, and so
        ``u = M X_y / (q d)`` and ``f - M^T u = (q F - M^T M X_y) / (q d)``.
        One ``Fraction`` is built per level and one for the residual.
        """
        d = lcm(*(v.denominator for v in values))
        f_num = [v.numerator * (d // v.denominator) for v in values]
        x, q = self.solver.solve(f_num)
        sums = self.level_sums(x[len(self.closed_paths):])
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
        out = [0] * self.n_points
        for ids, u in zip(self.level_of, level_vecs):
            out = list(map(add, out, map(u.__getitem__, ids)))
        return out


def sorted_key_ids(keys: Sequence[int]) -> tuple[list[int], list[int]]:
    """The distinct keys in increasing order, and each key's position there.

    Ids come from one sort, not from hashing: ``int`` and ``Fraction`` hashes
    are residues mod 2^61 - 1, so keys such as ``2^k`` and ``2^(k+61)``
    collide.
    """
    ids = [0] * len(keys)
    distinct: list[int] = []
    for j in sorted(range(len(keys)), key=keys.__getitem__):
        key = keys[j]
        if not distinct or distinct[-1] != key:
            distinct.append(key)
        ids[j] = len(distinct) - 1
    return distinct, ids


def build_incidence(cfg: PointConfig) -> IncidenceStructure:
    """Index every point by its exact projection level along every direction.

    With ``D`` the lcm of all point denominators and ``E`` that of one
    direction's, ``(E a) . (D x)`` is an integer key ordered like ``a . x``.
    Level ids come from :func:`sorted_key_ids`; the index keeps the distinct
    keys, the scale ``D E`` and the coordinate columns ``D x``, and builds no
    ``Fraction``.
    """
    n = cfg.n
    big_d = lcm(*(c.denominator for p in cfg.points for c in p.coords))
    columns = [
        [c.numerator * (big_d // c.denominator) for c in coord]
        for coord in zip(*(p.coords for p in cfg.points))
    ]
    distinct_keys: list[tuple[int, ...]] = []
    scales: list[int] = []
    level_of: list[tuple[int, ...]] = []
    for a in cfg.dirs:
        big_e = lcm(*(c.denominator for c in a.coords))
        keys = [0] * n
        for c, col in zip(a.coords, columns):
            if c:
                w = c.numerator * (big_e // c.denominator)
                keys = list(map(add, keys, map(w.__mul__, col)))
        distinct, ids = sorted_key_ids(keys)
        distinct_keys.append(tuple(distinct))
        scales.append(big_d * big_e)
        level_of.append(tuple(ids))
    return IncidenceStructure(
        tuple(distinct_keys), tuple(scales), tuple(level_of), tuple(map(tuple, columns))
    )


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
    a closed path.  The support is sorted by the index's integer coordinates,
    which share one positive denominator and so sort like the points.
    """
    inc = analyze(cfg)
    vec = inc.first_closed_path
    if vec is None:
        return None
    # distinct points and nonzero weights: already the canonical form, once sorted
    scaled = list(zip(*inc.columns))
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
