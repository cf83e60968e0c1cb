"""Incidence structure, closed-path detection, exact ridge interpolation."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    float_lstsq_residual_linf,
    large_config,
    level_cactus,
    level_forest,
    level_multigraph,
    level_rows,
    oracle_has_closed_path,
    random_config,
    random_values,
    right_to_left_oracle,
    rref_nullspace,
    sparse_rows,
    textbook_certificate,
    textbook_dot,
    textbook_levels,
    textbook_min_norm_fit,
)
from ridgekit import (
    Direction,
    LevelTable,
    Point,
    PointConfig,
    build_bolt_graph,
    build_incidence,
    density_verdict,
    find_closed_bolt,
    find_closed_path,
    interpolate_ridge,
    orbits,
)
from ridgekit import exactlinalg, incidence
from ridgekit.exactlinalg import IntegerSolver, nullspace_int
from ridgekit.presets import config_preset
from ridgekit.rationals import rationalize


FIVE_PT = config_preset("paper-5pt")
GRID22 = config_preset("grid-2x2")
GRID_DIRS = ((1, 0), (0, 1), (1, 1))


def square_grid(m: int, dirs) -> PointConfig:
    return PointConfig.build([(i, j) for i in range(m) for j in range(m)], dirs)


def assert_exact_min_norm_least_squares(cfg: PointConfig, values: list[Fraction]) -> None:
    """With r = f - M^T u: M r = 0 (least squares), and u is orthogonal to
    the null space of M^T (minimum norm), both exactly."""
    ridge, residual = interpolate_ridge(cfg, values)
    rows = level_rows(cfg)
    u = [v for table in ridge.tables for v in table.values]
    assert len(u) == len(rows)
    r = [
        f - sum((row[j] * uv for row, uv in zip(rows, u)), Fraction(0))
        for j, f in enumerate(values)
    ]
    assert max(abs(v) for v in r) == residual
    for row in rows:
        assert sum((m * v for m, v in zip(row, r)), Fraction(0)) == 0
    columns = [list(col) for col in zip(*rows)]
    for w in rref_nullspace(columns, len(rows)):
        assert sum((a * b for a, b in zip(u, w)), Fraction(0)) == 0


class TestBuildIncidence:
    def test_five_point_structure(self):
        inc = build_incidence(FIVE_PT)
        assert tuple(map(len, inc.keys)) == (2, 2, 2)
        rows = level_rows(FIVE_PT)
        assert len(rows) == 6 and all(len(r) == 5 for r in rows)
        assert all(v in (0, 1) for r in rows for v in r)
        assert all(sum(r) >= 1 for r in rows)

    def test_single_point(self):
        cfg = PointConfig.build([(2, 3)], [(1, 0), (0, 1), (1, 1)])
        assert level_rows(cfg) == [[1], [1], [1]]
        assert build_incidence(cfg).groups == (((0,),),) * 3

    def test_grid_rows_have_two_ones(self):
        rows = level_rows(GRID22)
        assert len(rows) == 4
        assert all(sum(r) == 2 for r in rows)

    def test_each_point_in_one_group_per_direction(self):
        inc = build_incidence(FIVE_PT)
        for dir_groups in inc.groups:
            seen = sorted(j for members in dir_groups for j in members)
            assert seen == list(range(FIVE_PT.n))

    def test_index_matches_rows_built_from_dot_products(self):
        """Level groups, M v and M^T u read from the index equal the dense products."""
        rng = random.Random(4242)
        for _ in range(60):
            cfg = random_config(rng)
            inc = build_incidence(cfg)
            rows = level_rows(cfg)
            assert [set(m) for per_dir in inc.groups for m in per_dir] == [
                {j for j, v in enumerate(row) if v} for row in rows
            ]
            v = random_values(rng, cfg.n)
            u = random_values(rng, len(rows))
            sums = [s for per_dir in inc.level_sums(v) for s in per_dir]
            assert sums == [sum(r * x for r, x in zip(row, v)) for row in rows]
            split, pos = [], 0
            for count in map(len, inc.keys):
                split.append(u[pos : pos + count])
                pos += count
            assert inc.gather(split) == [
                sum(row[j] * x for row, x in zip(rows, u)) for j in range(cfg.n)
            ]


def hard_level_configs(rng: random.Random):
    """Seeded configurations whose levels are hard to key exactly: d = 1..4,
    huge, power-of-two and mixed denominators, equal values written over
    different denominators, negative and zero direction components, the
    hash-colliding levels 1/2^j and 1/2^(j+61), and every large family."""
    dens = (1, 3, 10**25, 2**70, 2**70 * 3**40, 7 * 10**25)
    for _ in range(150):
        d = rng.randint(1, 4)
        base = rng.choice(dens)
        points = {
            tuple(
                Fraction(rng.randint(-6, 6), rng.choice((1, base, 2 * base, rng.choice(dens))))
                for _ in range(d)
            )
            for _ in range(rng.randint(1, 14))
        }
        dirs: list[tuple[Fraction, ...]] = []
        k = rng.randint(1, 4)
        while len(dirs) < k:
            v = tuple(
                Fraction(rng.choice((0, 0, 1, -1, rng.randint(-9, 9))), rng.choice((1, 2, base)))
                for _ in range(d)
            )
            if any(v):
                dirs.append(v)
        yield PointConfig.build(sorted(points), dirs)
    for j in range(1, 70):
        small, tiny = Fraction(1, 2**j), Fraction(1, 2 ** (j + 61))
        yield PointConfig.build(
            [(small, 0), (tiny, 1), (tiny, 0), (0, small), (small, tiny)],
            [(1, 0), (0, 1), (1, 1), (2**61, -1)],
        )
    for family in ("staircase", "closed-staircase", "forest", "grid", "generic"):
        for n in (12, 60, 200):
            yield large_config(rng, family, n)


class TestIntegerKeys:
    """The integer-keyed index against levels from textbook ``Fraction`` sums."""

    def test_matches_textbook_levels_and_rows(self):
        count = 0
        for cfg in hard_level_configs(random.Random(6060)):
            inc = build_incidence(cfg)
            assert inc.levels == tuple(tuple(lv) for lv in textbook_levels(cfg))
            assert all(type(v) is Fraction for lv in inc.levels for v in lv)
            rows = [
                [int(g == level) for g in ids]
                for lv, ids in zip(inc.levels, inc.level_of)
                for level in range(len(lv))
            ]
            assert rows == level_rows(cfg)
            count += 1
        assert count == 150 + 69 + 15

    def test_integer_typed_coordinates(self):
        cfg = PointConfig(
            (Point((0, 3)), Point((2, Fraction(1, 2))), Point((1, 1))),
            (Direction((1, -2)), Direction((Fraction(1, 3), 0))),
        )
        inc = build_incidence(cfg)
        assert inc.levels == (
            (Fraction(-6), Fraction(-1), Fraction(1)),
            (Fraction(0), Fraction(1, 3), Fraction(2, 3)),
        )
        assert inc.level_of == ((0, 2, 1), (0, 2, 1))


def core_configs():
    """The configurations of acceptance criterion C03 (seed 20260810), every
    large family at n = 12, 60 and 200, k = 3 lifted level forests and lifted
    staircases, and k = 4 draws in which no direction separates the points,
    with the family's name (None for C03 and for the k = 4 draws, whose
    verdicts vary).  In a lifted configuration no direction separates the
    points, so its verdict eliminates all of ``M``."""
    rng = random.Random(20260810)
    for _ in range(500):
        yield None, random_config(rng)
    rng = random.Random("core")
    for family in ("staircase", "closed-staircase", "forest", "grid", "generic"):
        for n in (12, 60, 200):
            yield family, large_config(rng, family, n)
    for n in (12, 60, 150):
        yield "lifted-forest", lifted(level_forest(rng, [n // 4 + (i < n % 4) for i in range(4)]))
        yield "lifted-staircase", lifted(large_config(rng, "staircase", n))
    for _ in range(30):
        yield None, separating_config(rng, 4, "none")


class TestCore:
    """The null-space basis of the whole incidence matrix against the
    textbook elimination."""

    def test_basis_equals_the_unpeeled_elimination_and_the_oracle(self):
        for _, cfg in core_configs():
            rows = level_rows(cfg)
            inc = build_incidence(cfg)
            # the sparse paths widened to n-tuples, zero off their keys
            basis = [tuple(vec.get(j, 0) for j in range(cfg.n)) for vec in inc.closed_paths]
            assert basis == list(nullspace_int(sparse_rows(rows), cfg.n))
            assert basis == right_to_left_oracle(rows, cfg.n)

    def test_zero_off_the_core_and_no_core_point_alone(self):
        """Every closed path is nonzero on its keys; that it is zero off the
        core follows from the basis test above.  Staircases, forests, generic
        sets and their lifts have full column rank; closed staircases and
        grids do not."""
        for family, cfg in core_configs():
            inc = build_incidence(cfg)
            for vec in inc.closed_paths:
                assert all(vec.values())
            if family is not None:
                assert bool(inc.closed_paths) == (family in ("closed-staircase", "grid"))

    def test_verdict_builds_no_level_fraction(self):
        """The verdict and the bolt graph read integer keys only; the
        ``Fraction`` levels are built on a ridge fit's first use."""
        incidence.analyze.cache_clear()
        cfg = large_config(random.Random(21), "closed-staircase", 40)
        assert not density_verdict(cfg).dense
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        assert find_closed_bolt(graph) is not None and orbits(graph)
        inc = incidence.analyze(cfg)
        assert "levels" not in inc.__dict__
        ridge, _ = interpolate_ridge(cfg, random_values(random.Random(21), cfg.n))
        assert [t.levels for t in ridge.tables] == list(inc.__dict__["levels"])


SEPARATING = ((1, 0), (0, 1), (1, 1), (1, -1))


def separating_config(rng: random.Random, k: int, case: str) -> PointConfig:
    """A seeded configuration of 2 to ``s^2`` points of an ``s x s`` grid, ``s <= 5``, placed by
    ``(c i + s0, c j + s1)`` with rationals ``c, s0, s1`` in a seeded order,
    under ``k`` directions, each scaled by a random rational.  Directions from
    :data:`SEPARATING` never separate every point in ``case`` ``"none"``; in
    ``"last"`` the last direction is ``(1, s)`` or ``(s, -1)``, which separates
    the grid, and the others are drawn from :data:`SEPARATING`; in ``"every"``
    every direction separates.  Draws that miss the case are redrawn, checked
    on the textbook levels."""
    while True:
        s = rng.randint(2, 5)
        cells = rng.sample([(i, j) for i in range(s) for j in range(s)], rng.randint(2, s * s))
        c = Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 7))
        s0, s1 = (Fraction(rng.randint(-50, 50), rng.randint(1, 11)) for _ in range(2))
        points = [(c * i + s0, c * j + s1) for i, j in cells]
        apart = [(1, s), (s, -1), (-s, 1), (s, 1)]
        if case == "none":
            dirs = rng.sample(SEPARATING, k)
        elif case == "last":
            dirs = rng.sample(SEPARATING, k - 1) + [rng.choice(apart[:2])]
        else:
            dirs = rng.sample(apart, k)
        dirs = [tuple(Fraction(rng.randint(1, 5) * x, rng.randint(1, 4)) for x in a) for a in dirs]
        cfg = PointConfig.build(points, dirs)
        separates = [len(levels) == cfg.n for levels in textbook_levels(cfg)]
        want = {"none": [False] * k, "last": [False] * (k - 1) + [True], "every": [True] * k}
        if separates == want[case]:
            return cfg


@pytest.fixture
def grouped_directions(monkeypatch):
    """Every direction grouped into levels, in order, as the direction whose
    ``integer_keys`` were taken."""
    calls = []
    integer_keys = Direction.integer_keys

    def recorded(self, columns):
        calls.append(self)
        return integer_keys(self, columns)

    monkeypatch.setattr(Direction, "integer_keys", recorded)
    return calls


def direction_positions(cfg: PointConfig, directions) -> list[int]:
    """The position in ``cfg.dirs`` of each of ``directions``, by identity."""
    return [next(i for i, a in enumerate(cfg.dirs) if a is d) for d in directions]


class TestSeparatingDirection:
    """A direction with ``n`` levels separates every point: its rows of ``M``
    are a permutation matrix, and the verdict eliminates nothing."""

    @pytest.mark.parametrize(
        "k, case",
        [(1, "none"), (1, "every")] + [(k, c) for k in (3, 4) for c in ("none", "last", "every")],
    )
    def test_core_verdict_and_fits(self, k, case, grouped_directions, monkeypatch):
        """The verdict calls ``nullspace_int``, over all ``n`` columns,
        exactly when no direction separates, and builds no ``groups`` when
        one does; the verdict and the fits are the textbook ones.  (With one
        direction, "last" is "every".)

        Directions are grouped as they are read: building the index groups
        none, the verdict groups the first direction alone when it separates,
        and every direction, in order, otherwise; a later fit groups each
        remaining direction once."""
        eliminated = []
        original = incidence.nullspace_int

        def counted(rows, ncols):
            eliminated.append(ncols)
            return original(rows, ncols)

        monkeypatch.setattr(incidence, "nullspace_int", counted)
        rng = random.Random(f"separating-{k}-{case}")
        data_rng = random.Random(f"separating-data-{k}-{case}")
        verdicts: Counter = Counter()
        asked = [0] if case == "every" else list(range(k))
        for _ in range(20):
            cfg = separating_config(rng, k, case)
            want = textbook_certificate(cfg)
            verdicts[want is None] += 1
            if case != "none":
                assert want is None
            grouped_directions.clear()
            build_incidence(cfg)
            assert grouped_directions == []
            incidence.analyze.cache_clear()
            grouped_directions.clear()
            eliminated.clear()
            assert certificate_atoms(cfg) == want
            inc = incidence.analyze(cfg)
            assert direction_positions(cfg, grouped_directions) == asked
            assert eliminated == ([cfg.n] if case == "none" else [])
            assert ("groups" in inc.__dict__) == (case == "none")
            assert density_verdict(cfg).dense == (want is None)
            vectors = [random_values(data_rng, cfg.n), [data_rng.uniform(-3, 3) for _ in range(cfg.n)]]
            assert_matches_min_norm_oracle(cfg, vectors)
            assert direction_positions(cfg, grouped_directions) == list(range(k))
        assert verdicts[False] >= 1 if case == "none" else verdicts[False] == 0
        incidence.analyze.cache_clear()


@pytest.fixture
def counted_calls(monkeypatch):
    """Counts of the calls that index and eliminate, on an empty ``analyze`` cache."""
    counts: Counter = Counter()
    for name in ("build_incidence", "nullspace_int"):
        original = getattr(incidence, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(incidence, name, counted)
    incidence.analyze.cache_clear()
    yield counts
    incidence.analyze.cache_clear()


class TestSharedAnalysis:
    """One index and one elimination per configuration serve every caller."""

    def test_verdict_and_fits_share_one_elimination(self, counted_calls):
        """A k = 2 verdict and 20 fits share one index and its level forest,
        and eliminate nothing."""
        rng = random.Random(17)
        cfg = large_config(rng, "closed-staircase", 40)
        assert not density_verdict(cfg).dense
        for _ in range(20):
            interpolate_ridge(cfg, random_values(rng, cfg.n))
        assert counted_calls == {"build_incidence": 1}

    def test_dense_verdict_on_an_empty_core_eliminates_nothing(self, counted_calls):
        """A generic k = 3 set has a direction that separates every point, so
        its verdict calls no ``nullspace_int`` and builds no level groups."""
        cfg = large_config(random.Random(24), "generic", 60)
        assert density_verdict(cfg).dense
        inc = incidence.analyze(cfg)
        assert "groups" not in inc.__dict__
        assert counted_calls == {"build_incidence": 1}

    def test_lifted_forest_verdict_eliminates_every_column(self, monkeypatch):
        """No direction separates a lifted level forest, so its dense verdict
        makes one ``_eliminate`` call over all ``n`` columns, which pivots on
        every column and finds no vector."""
        runs = []
        eliminate = exactlinalg._eliminate

        def recorded(rows, ncols):
            run = eliminate(rows, ncols)
            runs.append((ncols, run))
            return run

        monkeypatch.setattr(exactlinalg, "_eliminate", recorded)
        incidence.analyze.cache_clear()
        cfg = lifted(level_forest(random.Random(27), [20, 15, 9]))
        assert density_verdict(cfg).dense
        inc = incidence.analyze(cfg)
        [(ncols, (_, pivots, _, free_columns))] = runs
        assert ncols == cfg.n and len(pivots) == cfg.n
        assert next(free_columns, None) is None
        assert inc.closed_paths == [] and len(runs) == 1
        incidence.analyze.cache_clear()

    def test_bolt_graph_reads_the_verdicts_index(self, counted_calls):
        """A k = 2 verdict, the bolt graph and ``orbits`` read one index and
        its level forest, and eliminate nothing."""
        cfg = large_config(random.Random(18), "forest", 60)
        verdict = density_verdict(cfg)
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        assert (find_closed_bolt(graph) is None) == verdict.dense
        assert orbits(graph)
        assert counted_calls["nullspace_int"] == 0
        assert counted_calls == {"build_incidence": 1}

    def test_two_direction_verdict_neither_peels_nor_eliminates(self, monkeypatch):
        """A k = 2 verdict on a closed staircase reads the level forest: no
        ``_eliminate`` step runs, and the level groups that an elimination
        reads are never built."""
        calls = []
        eliminate = exactlinalg._eliminate

        def counted(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        incidence.analyze.cache_clear()
        cfg = large_config(random.Random(23), "closed-staircase", 60)
        verdict = density_verdict(cfg)
        assert not verdict.dense and verdict.certificate.verify(cfg.dirs)
        inc = incidence.analyze(cfg)
        assert calls == []
        assert not {"groups", "_null_vectors"} & inc.__dict__.keys()
        assert inc.closed_paths == [inc.first_closed_path] and calls == []
        incidence.analyze.cache_clear()

    def test_two_direction_verdict_builds_one_cycle(self, monkeypatch):
        """A k = 2 verdict on a 10 x 10 grid, with 81 closing points, builds
        the first cycle alone; a fit then builds the other 80 and takes
        ``[N | S]``, as the cycles overlap."""
        built = []
        forest_cycle = incidence.IncidenceStructure._forest_cycle

        def counted(self, closing):
            built.append(closing)
            return forest_cycle(self, closing)

        monkeypatch.setattr(incidence.IncidenceStructure, "_forest_cycle", counted)
        incidence.analyze.cache_clear()
        cfg = square_grid(10, GRID_DIRS[:2])
        assert not density_verdict(cfg).dense
        inc = incidence.analyze(cfg)
        assert len(built) == 1 and len(inc.forest[0]) == 81
        interpolate_ridge(cfg, random_values(random.Random(26), cfg.n))
        assert sorted(built, reverse=True) == list(inc.forest[0])
        assert not inc._fits_on_forest and "solver" in inc.__dict__
        incidence.analyze.cache_clear()

    @pytest.mark.parametrize("shape", ["closed-staircase", "cactus"])
    def test_two_direction_fits_on_disjoint_paths_eliminate_nothing(self, monkeypatch, shape):
        """20 fits, the first cold, of a k = 2 configuration whose closed
        paths are pairwise disjoint make no ``_eliminate`` call, and do not
        build ``[N | S]``."""
        calls = []
        eliminate = exactlinalg._eliminate

        def counted(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        incidence.analyze.cache_clear()
        rng = random.Random(shape)
        if shape == "cactus":
            cfg = level_cactus(rng, [9, 14, 6, 11])
        else:
            cfg = large_config(rng, shape, 58)
        for _ in range(20):
            interpolate_ridge(cfg, random_values(rng, cfg.n))
        inc = incidence.analyze(cfg)
        assert len(inc.closed_paths) == (4 if shape == "cactus" else 1)
        assert calls == []
        assert not {"_null_vectors", "solver"} & inc.__dict__.keys()
        incidence.analyze.cache_clear()

    @pytest.mark.parametrize("diagonal", [(1, 1), (1, -1)])
    def test_grid_verdict_stops_at_its_free_column(self, monkeypatch, diagonal):
        """A k = 3 16 x 16 grid verdict eliminates only the columns right of
        its first free column: the pivots it reaches, with that column, fall
        short of the ``n`` columns and of the rank.  The whole basis then
        resumes the same elimination."""
        runs = []
        eliminate = exactlinalg._eliminate

        def recorded(rows, ncols):
            run = eliminate(rows, ncols)
            runs.append(run)
            return run

        monkeypatch.setattr(exactlinalg, "_eliminate", recorded)
        incidence.analyze.cache_clear()
        cfg = square_grid(16, ((1, 0), (0, 1), diagonal))
        assert not density_verdict(cfg).dense
        inc = incidence.analyze(cfg)
        [(_, pivots, _, _)] = runs
        reached = len(pivots)
        assert reached + 1 < cfg.n
        paths = inc.closed_paths
        assert len(runs) == 1
        assert reached < len(pivots) == cfg.n - len(paths)
        incidence.analyze.cache_clear()

    def test_cache_follows_equality_not_identity(self, counted_calls):
        cfg = large_config(random.Random(19), "grid", 25)
        copy = PointConfig.build([p.coords for p in cfg.points], [a.coords for a in cfg.dirs])
        assert copy is not cfg
        assert density_verdict(cfg) == density_verdict(copy)
        assert counted_calls == {"build_incidence": 1, "nullspace_int": 1}

    def test_configurations_sharing_a_hash_keep_their_own_index(self, counted_calls):
        """A configuration hashes its number of points, its first and last
        points and its directions.  Two that agree on those but not on a
        middle point share that hash, and ``analyze`` still gives each its own
        index, by equality: a closed staircase, and the same with one middle
        point moved off the cycle."""
        closed = large_config(random.Random(25), "closed-staircase", 40)
        points = list(closed.points)
        x, y = points[20].coords
        points[20] = Point((x + 1000, y + 1000))
        moved = PointConfig(tuple(points), closed.dirs)
        assert hash(moved) == hash(closed) and moved != closed
        first, second = incidence.analyze(closed), incidence.analyze(moved)
        assert first is not second
        assert incidence.analyze(closed) is first and incidence.analyze(moved) is second
        for cfg in (closed, moved):
            assert certificate_atoms(cfg) == textbook_certificate(cfg)
        assert textbook_certificate(closed) is not None and textbook_certificate(moved) is None
        assert counted_calls == {"build_incidence": 2}

    def test_cached_lookup_does_not_rehash_coordinates(self, monkeypatch):
        cfg = large_config(random.Random(20), "generic", 40)
        first = incidence.analyze(cfg)
        calls = []
        original = Fraction.__hash__

        def counted_hash(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted_hash)
        assert incidence.analyze(cfg) is first
        assert calls == []
        hash(Fraction(1, 3))  # the counter does see other hashes
        assert len(calls) == 1

    def test_each_point_is_hashed_once(self, monkeypatch):
        """The distinctness check hashes each point's coordinates once; the
        verdict's cache lookup and the bolt graph's own configuration reuse
        those hashes and hash only the two directions again."""
        source = large_config(random.Random(22), "closed-staircase", 40)
        points = tuple(Point(p.coords) for p in source.points)
        calls = []
        original = Fraction.__hash__

        def counted_hash(self):
            calls.append(self)
            return original(self)

        monkeypatch.setattr(Fraction, "__hash__", counted_hash)
        cfg = PointConfig(points, source.dirs)
        assert len(calls) == cfg.n * cfg.dim
        assert not density_verdict(cfg).dense
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        assert find_closed_bolt(graph) is not None and orbits(graph)
        assert len(calls) == cfg.n * cfg.dim + 2 * cfg.k * cfg.dim


class TestFindClosedPath:
    def test_five_point_certificate(self):
        cert = find_closed_path(FIVE_PT)
        assert cert is not None
        weights = cert.weights_for(FIVE_PT.points)
        # proportional to (-2, 1, 1, 1, -1)
        reference = [-2, 1, 1, 1, -1]
        ratio = Fraction(weights[0], reference[0])
        assert ratio != 0
        assert all(w == ratio * r for w, r in zip(weights, reference))
        assert cert.verify(FIVE_PT.dirs)

    def test_two_points_general_position(self):
        cfg = PointConfig.build([(0, 0), (1, 3)], [(1, 0), (0, 1)])
        assert find_closed_path(cfg) is None

    def test_grid_certificate(self):
        cert = find_closed_path(GRID22)
        weights = cert.weights_for(GRID22.points)
        reference = [1, -1, -1, 1]
        ratio = weights[0]
        assert ratio != 0
        assert all(w == ratio * r for w, r in zip(weights, reference))

    def test_certificate_weights_are_coprime_ints_leading_positive(self):
        cert = find_closed_path(FIVE_PT)
        assert all(w.denominator == 1 for w in cert.measure.weights)
        assert cert.measure.weights[0] > 0


def certificate_atoms(cfg: PointConfig):
    cert = find_closed_path(cfg)
    return None if cert is None else [(p.coords, w) for p, w in cert.measure.atoms()]


MIXED_DENOMINATORS = (1, 3, 7, 2**5 * 3**3 * 5**2 * 7, 10**9 + 7, 2**61 - 1, 10**20 + 39)


def mixed_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-(10**12), 10**12), rng.choice(MIXED_DENOMINATORS))


def shuffled(rng: random.Random, cfg: PointConfig) -> PointConfig:
    """``cfg`` with its points in a seeded order, so that no sort can be
    passed by keeping the input order."""
    points = list(cfg.points)
    rng.shuffle(points)
    return PointConfig(tuple(points), cfg.dirs)


class TestCertificateOracle:
    """``find_closed_path`` against the textbook certificate: the first
    right-to-left oracle vector on its support, sorted by ``Fraction``
    coordinates, first weight positive."""

    def test_acceptance_sweep(self):
        rng = random.Random(20260810)
        found = 0
        for _ in range(500):
            cfg = random_config(rng)
            want = textbook_certificate(cfg)
            assert certificate_atoms(cfg) == want
            found += want is not None
        assert found >= 100

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grids(self, k):
        """a x b grids up to 16 x 16 under the first k of (1, 0), (0, 1),
        (1, 1), (1, -1), with their points in a seeded order."""
        dirs = (GRID_DIRS + ((1, -1),))[:k]
        rng = random.Random(f"certificate-grid-{k}")
        found = 0
        for a, b in ((2, 2), (2, 5), (3, 3), (4, 7), (6, 6), (10, 10), (12, 16), (16, 16)):
            cfg = shuffled(rng, PointConfig.build([(i, j) for i in range(a) for j in range(b)], dirs))
            want = textbook_certificate(cfg)
            assert certificate_atoms(cfg) == want
            found += want is not None
        assert found >= 3

    def test_two_direction_level_graphs(self):
        """The level forest's cycle against the oracle: closed staircases,
        and seeded k = 2 level graphs with cycles, with points sharing both
        levels (3-d points, whose 2-cycles are two-point certificates), and
        under parallel directions."""
        rng = random.Random("certificate-level-graphs")
        configs = [shuffled(rng, large_config(rng, "closed-staircase", n)) for n in (4, 12, 41, 80)]
        configs += [level_multigraph(rng, shape) for shape in ("plane", "shared", "parallel")
                    for _ in range(100)]
        sizes = Counter()
        for cfg in configs:
            want = textbook_certificate(cfg)
            assert certificate_atoms(cfg) == want
            sizes[None if want is None else len(want)] += 1
        assert sizes[2] >= 20 and sum(sizes[m] for m in sizes if m and m > 4) >= 20
        assert sizes[None] >= 20

    def test_one_direction(self):
        """k = 1, where the elimination's first vector is two points on one
        level."""
        rng = random.Random("certificate-one-direction")
        found = 0
        for _ in range(200):
            cfg = random_config(rng, max_k=1)
            want = textbook_certificate(cfg)
            assert certificate_atoms(cfg) == want
            found += want is not None
        assert found >= 50

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_mixed_large_denominators(self, k):
        """Grids placed by ``(c i + s0, c j + s1)`` with rationals of large,
        mixed denominators (``c``'s is composite, so the points' own
        denominators differ with ``i`` and ``j``), negative
        coordinates among them; for k = 2 also grids on random rational rows
        and columns, and closed staircases on such levels.  A sort by a
        wrong scale, such as each point's own denominator, reorders these
        supports."""
        dirs = (GRID_DIRS + ((1, -1),))[:k]
        rng = random.Random(f"certificate-mixed-{k}")
        checked = 0
        for a, b in ((3, 4), (4, 4), (5, 7), (8, 8)):
            c = Fraction(rng.randint(1, 10**6) * rng.choice((1, -1)), MIXED_DENOMINATORS[3])
            s0, s1 = mixed_rational(rng), mixed_rational(rng)
            points = [(c * i + s0, c * j + s1) for i in range(a) for j in range(b)]
            configs = [PointConfig.build(points, dirs)]
            if k == 2:
                rows = sorted({mixed_rational(rng) for _ in range(a)})
                cols = sorted({mixed_rational(rng) for _ in range(b)})
                configs.append(PointConfig.build([(x, y) for x in rows for y in cols], dirs))
                levels = [mixed_rational(rng) for _ in range(2 * a + 2)]
                configs.append(
                    PointConfig.build([(v * 3, w) for v, w in zip(levels, levels[1:])]
                                      + [(levels[-1] * 3, levels[0])], dirs)
                )
            for cfg in configs:
                cfg = shuffled(rng, cfg)
                assert len({p.coords[0].denominator for p in cfg.points}) > 1
                want = textbook_certificate(cfg)
                assert certificate_atoms(cfg) == want
                checked += want is not None
        assert checked >= 3


@pytest.fixture
def back_substitutions(monkeypatch):
    """Counts of ``exactlinalg._back_substitute`` calls and of the ridge
    solves among them, on an empty ``analyze`` cache."""
    counts: Counter = Counter()
    back_substitute, solve = exactlinalg._back_substitute, IntegerSolver.solve

    def counted_back_substitute(*args):
        counts["back_substitute"] += 1
        return back_substitute(*args)

    def counted_solve(self, rhs):
        counts["solve"] += 1
        return solve(self, rhs)

    monkeypatch.setattr(exactlinalg, "_back_substitute", counted_back_substitute)
    monkeypatch.setattr(IntegerSolver, "solve", counted_solve)
    incidence.analyze.cache_clear()
    yield counts
    incidence.analyze.cache_clear()


class TestBackSubstitutions:
    """The verdict back-substitutes the one null vector it reads; a fit adds
    the rest of the basis once, and one back-substitution per solve."""

    def test_verdict_makes_one_and_a_fit_adds_the_rest(self, back_substitutions):
        cfg = square_grid(8, GRID_DIRS)
        nullity = len(rref_nullspace(level_rows(cfg), cfg.n))
        assert nullity > 1
        assert not density_verdict(cfg).dense
        assert back_substitutions == {"back_substitute": 1}
        interpolate_ridge(cfg, random_values(random.Random(8), cfg.n))
        assert back_substitutions == {"back_substitute": nullity + 1, "solve": 1}
        assert len(incidence.analyze(cfg).closed_paths) == nullity

    def test_fit_first_then_verdict_shares_the_first_vector(self, back_substitutions):
        cfg = square_grid(8, GRID_DIRS)
        nullity = len(rref_nullspace(level_rows(cfg), cfg.n))
        interpolate_ridge(cfg, random_values(random.Random(9), cfg.n))
        assert density_verdict(cfg).certificate == find_closed_path(cfg)
        assert back_substitutions == {"back_substitute": nullity + 1, "solve": 1}

    def test_dense_verdict_makes_none(self, back_substitutions):
        cfg = large_config(random.Random(22), "generic", 60)
        assert density_verdict(cfg).dense
        assert back_substitutions == {}


class TestInterpolateRidge:
    def test_constant_exact(self):
        for cfg in (FIVE_PT, GRID22):
            _, residual = interpolate_ridge(cfg, [1] * cfg.n)
            assert residual == 0

    def test_grid_obstruction_residual(self):
        # closed path obstructs: brute-force least squares says 1/4 exactly
        _, residual = interpolate_ridge(GRID22, [0, 0, 0, 1])
        assert residual == Fraction(1, 4)
        oracle = float_lstsq_residual_linf(
            level_rows(GRID22), [Fraction(v) for v in (0, 0, 0, 1)]
        )
        assert abs(float(residual) - oracle) < 1e-9

    def test_parallel_segments_any_values(self):
        cfg = config_preset("parallel-segments")
        rng = random.Random(5)
        for _ in range(5):
            values = random_values(rng, cfg.n)
            ridge, residual = interpolate_ridge(cfg, values)
            assert residual == 0
            for p, v in zip(cfg.points, values):
                assert ridge.value_at(p) == v

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            interpolate_ridge(GRID22, [1, 2, 3])

    def test_tables_match_levels(self):
        ridge, _ = interpolate_ridge(FIVE_PT, [0, 1, 2, 3, 4])
        inc = build_incidence(FIVE_PT)
        for table, levels in zip(ridge.tables, inc.levels):
            assert table.levels == levels

    def test_minimum_norm_matches_pseudoinverse(self):
        """The exact solution agrees with numpy's min-norm least squares."""
        import numpy as np

        rng = random.Random(808)
        for _ in range(30):
            cfg = random_config(rng, max_n=8, max_k=3)
            values = random_values(rng, cfg.n)
            ridge, _ = interpolate_ridge(cfg, values)
            exact_u = [float(v) for table in ridge.tables for v in table.values]
            rows = level_rows(cfg)
            m = np.array(rows, dtype=float)
            f = np.array([float(v) for v in values])
            reference = np.linalg.pinv(m.T) @ f
            assert np.allclose(exact_u, reference, atol=1e-8)

    def test_exact_minimum_norm_least_squares_conditions(self):
        rng = random.Random(20261017)
        for _ in range(40):
            cfg = random_config(rng, max_n=9, max_k=3)
            assert_exact_min_norm_least_squares(cfg, random_values(rng, cfg.n))

    @pytest.mark.parametrize("family", ["staircase", "closed-staircase", "forest", "grid"])
    def test_exact_conditions_on_large_configurations(self, family):
        """The same exact conditions at n = 30..64."""
        rng = random.Random(f"large-{family}")
        for n in (30, 47, 64):
            cfg = large_config(rng, family, n)
            assert 30 <= cfg.n <= 64
            assert density_verdict(cfg).dense == (family in ("staircase", "forest"))
            assert_exact_min_norm_least_squares(cfg, random_values(rng, cfg.n))

    @pytest.mark.parametrize("dirs", [GRID_DIRS[:2], GRID_DIRS], ids=["k2", "k3"])
    def test_exact_conditions_on_16x16_grids(self, dirs):
        """The same exact conditions where the closed paths number (m - 1)^2
        (k = 2) and (m - 2)^2 (k = 3)."""
        cfg = square_grid(16, dirs)
        assert_exact_min_norm_least_squares(cfg, random_values(random.Random(len(dirs)), cfg.n))

    @pytest.mark.parametrize(
        "dirs, digest",
        [
            (GRID_DIRS[:2], "0e69251fa925372d35505671b4cbd1e9303f1420ea93f8140f77de1a5fc5eb5d"),
            (GRID_DIRS, "7b9394d66500f638af7fe4045b95c35bdd49a1918fab6a74a49a71a6c0ad1ec1"),
        ],
        ids=["k2", "k3"],
    )
    def test_10x10_grid_fit_digest(self, dirs, digest):
        """sha256 of the exact tables and residual of one seeded fit."""
        cfg = square_grid(10, dirs)
        ridge, residual = interpolate_ridge(cfg, random_values(random.Random(10), cfg.n))
        text = repr([[str(v) for v in t.values] for t in ridge.tables] + [str(residual)])
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def assert_matches_min_norm_oracle(cfg: PointConfig, vectors: list[list]) -> None:
    """Every fit's tables and residual equal the textbook ``Fraction``
    min-norm fit exactly, and are ``Fraction``s."""
    for values, (u, residual) in zip(vectors, textbook_min_norm_fit(cfg, vectors)):
        ridge, got = interpolate_ridge(cfg, values)
        assert [list(t.values) for t in ridge.tables] == u
        assert got == residual
        assert all(type(v) is Fraction for t in ridge.tables for v in t.values)
        assert type(got) is Fraction


def assert_routes_match_the_oracle(cfg: PointConfig, vectors: list[list], routes) -> None:
    """Each of the named private routes gives the textbook tables; the
    residual is taken from the textbook level rows."""
    inc = incidence.analyze(cfg)
    rows = level_rows(cfg)
    for values, (u, residual) in zip(vectors, textbook_min_norm_fit(cfg, vectors)):
        f = [rationalize(v) for v in values]
        d = lcm(*(v.denominator for v in f))
        f_num = [v.numerator * (d // v.denominator) for v in f]
        for solve in (getattr(inc, f"_solve_on_{route}") for route in routes):
            sums, q = solve(f_num)
            tables = [[Fraction(s, q * d) for s in lv] for lv in sums]
            flat = [v for lv in tables for v in lv]
            worst = max(
                abs(fj - sum((row[j] * x for row, x in zip(rows, flat)), Fraction(0)))
                for j, fj in enumerate(f)
            )
            assert tables == u and worst == residual


def assert_both_routes_match_the_oracle(cfg: PointConfig, vectors: list[list]) -> None:
    """For two directions, the level forest's route and the ``[N | S]`` route
    each give the textbook tables; otherwise ``[N | S]`` does."""
    routes = ["forest", "closed_paths"] if cfg.k == 2 else ["closed_paths"]
    assert_routes_match_the_oracle(cfg, vectors, routes)


class TestMinNormOracle:
    """The integer fit against the textbook normal-equations oracle."""

    def test_c03_sweep(self):
        """The configurations and data stream of acceptance criterion C03
        (seeds 20260810 and 20260811); the first four of each configuration's
        20 data vectors are compared."""
        rng, data_rng = random.Random(20260810), random.Random(20260811)
        for _ in range(500):
            cfg = random_config(rng)
            vectors = [random_values(data_rng, cfg.n) for _ in range(20)]
            assert_matches_min_norm_oracle(cfg, vectors[:4])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_grids(self, k):
        """m x m grids up to 20 x 20 under the first k of (1, 0), (0, 1),
        (1, 1), (1, -1), with small rationals and with float-derived data."""
        dirs = (GRID_DIRS + ((1, -1),))[:k]
        rng = random.Random(f"grid-oracle-{k}")
        for m in (5, 12, 20):
            cfg = square_grid(m, dirs)
            vectors = [random_values(rng, cfg.n), [rng.uniform(-3, 3) for _ in range(cfg.n)]]
            assert_matches_min_norm_oracle(cfg, vectors)

    @pytest.mark.parametrize("family", ["staircase", "forests", "generic"])
    def test_large_configurations_on_both_routes(self, family):
        """Staircases (z = 1) and level forests of several trees (z = the
        number of trees) have no closed path, and the forest and ``[N | S]``
        routes are checked; generic k = 3 sets have none, with z = 2n, and
        take ``[N | S]``."""
        rng = random.Random(f"peel-oracle-{family}")
        for n in (12, 24) if family == "generic" else (16, 33, 50):
            trees = 2 + n % 5
            if family == "forests":
                cfg = level_forest(rng, [n // trees + (i < n % trees) for i in range(trees)])
            else:
                cfg = large_config(rng, family, n)
            inc = incidence.analyze(cfg)
            z = sum(map(len, inc.keys)) - cfg.n
            assert not inc.closed_paths
            assert z == {"staircase": 1, "forests": trees, "generic": 2 * cfg.n}[family]
            vectors = [random_values(rng, cfg.n), [rng.uniform(-3, 3) for _ in range(cfg.n)]]
            assert_matches_min_norm_oracle(cfg, vectors)
            assert_both_routes_match_the_oracle(cfg, vectors)

    @pytest.mark.parametrize("name, z", [("paper-orbit", 1), ("parallel-segments", 2)])
    def test_presets_on_both_routes(self, name, z):
        cfg = config_preset(name)
        inc = incidence.analyze(cfg)
        assert not inc.closed_paths and sum(map(len, inc.keys)) - cfg.n == z
        rng = random.Random(name)
        vectors = [random_values(rng, cfg.n) for _ in range(3)]
        assert_matches_min_norm_oracle(cfg, vectors)
        assert_both_routes_match_the_oracle(cfg, vectors)

    @pytest.mark.parametrize("kind", ["separated", "repeated", "one-level", "mixed"])
    def test_one_direction_takes_level_means(self, kind):
        """k = 1 configurations in d = 1..3 (in one dimension a level holds
        one point, so none repeats), with small rationals and with
        float-derived data: each fit, the level means' route and the
        ``[N | S]`` route give the textbook tables and residual."""
        rng = random.Random(f"level-means-{kind}")
        for d in (2, 3) if kind == "repeated" else (1, 2, 3):
            for _ in range(8):
                cfg = one_direction(rng, kind, d)
                counts = Counter(textbook_dot(cfg.dirs[0], p) for p in cfg.points).values()
                if kind == "separated" or d == 1:
                    assert set(counts) == {1}
                elif kind == "one-level":
                    assert len(counts) == 1
                else:
                    assert max(counts) >= 2
                vectors = [random_values(rng, cfg.n), [rng.uniform(-3, 3) for _ in range(cfg.n)]]
                assert_matches_min_norm_oracle(cfg, vectors)
                assert_routes_match_the_oracle(cfg, vectors, ["levels", "closed_paths"])

    @pytest.mark.parametrize(
        "family, factors",
        [
            ("k1-separated", False),
            ("k1-repeated", False),
            ("k2-staircase", False),
            ("k2-closed-staircase", False),
            ("k2-grid", True),
            ("k3-generic", True),
            ("k3-lifted-forest", True),
            ("k3-grid", True),
        ],
    )
    def test_route_follows_the_index(self, monkeypatch, family, factors):
        """One cold fit factors ``[N | S]`` exactly when the configuration
        has neither one direction nor two with pairwise disjoint closed
        paths; the level means and the level forest make no ``_eliminate``
        call."""
        rng = random.Random(family)
        cfg = {
            "k1-separated": lambda: one_direction(rng, "separated", 2),
            "k1-repeated": lambda: one_direction(rng, "repeated", 3),
            "k2-staircase": lambda: large_config(rng, "staircase", 30),
            "k2-closed-staircase": lambda: large_config(rng, "closed-staircase", 30),
            "k2-grid": lambda: square_grid(6, GRID_DIRS[:2]),
            "k3-generic": lambda: large_config(rng, "generic", 30),
            "k3-lifted-forest": lambda: lifted(level_forest(rng, [20, 15, 9])),
            "k3-grid": lambda: square_grid(6, GRID_DIRS),
        }[family]()
        calls = []
        eliminate = exactlinalg._eliminate

        def counted(rows, ncols):
            calls.append(ncols)
            return eliminate(rows, ncols)

        monkeypatch.setattr(exactlinalg, "_eliminate", counted)
        incidence.analyze.cache_clear()
        interpolate_ridge(cfg, random_values(rng, cfg.n))
        inc = incidence.analyze(cfg)
        assert ("solver" in inc.__dict__) == factors
        assert bool(calls) == factors
        incidence.analyze.cache_clear()

    def test_fit_builds_one_fraction_per_level_and_one_residual(self, monkeypatch):
        """Factoring builds no ``Fraction``, and a fit builds one per level
        and one for the residual: ``[N | S]`` on a grid and on a lifted level
        forest (the closed paths' own back-substitution is not counted), the
        level forest's steps on a closed staircase, and the level groups of
        one direction with repeated levels."""
        cases = [
            (square_grid(8, GRID_DIRS), "solver"),
            (lifted(level_forest(random.Random(8), [20, 12, 6])), "solver"),
            (large_config(random.Random(8), "closed-staircase", 40), "_forest_steps"),
            (one_direction(random.Random(8), "repeated", 3), "groups"),
        ]
        for cfg, factorization in cases:
            incidence.analyze.cache_clear()
            inc = incidence.analyze(cfg)
            if cfg.k > 1:
                inc.closed_paths
            values = random_values(random.Random(8), cfg.n)
            built = []
            original = Fraction.__new__

            def counted(cls, *args, **kwargs):
                built.append(args)
                return original(cls, *args, **kwargs)

            monkeypatch.setattr(Fraction, "__new__", counted)
            getattr(inc, factorization)
            assert built == []
            tables, residual = inc.fit(values)
            assert len(built) == sum(map(len, inc.keys)) + 1
            monkeypatch.undo()
            assert ("solver" in inc.__dict__) == (factorization == "solver")
            ridge, expected = interpolate_ridge(cfg, values)
            assert tables == [list(t.values) for t in ridge.tables] and residual == expected


def lifted(cfg: PointConfig) -> PointConfig:
    """A k = 2 configuration of 2-d points lifted to 3-d, with a third
    direction on which every point shares one level: no direction separates
    the points, the closed paths are the same, and ``z`` grows by one."""
    return PointConfig.build(
        [(*p.coords, 0) for p in cfg.points], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    )


def one_direction(rng: random.Random, kind: str, d: int) -> PointConfig:
    """A seeded k = 1 configuration in ``d`` dimensions, built level by
    level: ``"separated"`` puts every point on its own level, ``"repeated"``
    1 to 4 points on each level and at least 2 on one, ``"one-level"`` every
    point on one level, and ``"mixed"`` 1 to 7 points on each level, so that
    the counts have a large lcm, with coordinates, levels and direction of
    large mixed denominators.  In one dimension each level holds one point.
    Each point's last coordinate is solved from its level."""
    big = 10**6 if kind == "mixed" else 9

    def rational() -> Fraction:
        return Fraction(rng.randint(-5 * big, 5 * big), rng.randint(1, big))

    if kind == "separated":
        counts = [1] * rng.randint(1, 12)
    elif kind == "repeated":
        counts = [rng.randint(2, 4)] + [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
    elif kind == "one-level":
        counts = [rng.randint(2, 12)]
    else:
        counts = rng.sample(range(1, 8), rng.randint(2, 5))
    if d == 1:
        counts = [1] * len(counts)
    a = [rational() for _ in range(d - 1)] + [rational() or Fraction(1)]
    levels: set[Fraction] = set()
    while len(levels) < len(counts):
        levels.add(rational())
    points = []
    for level, count in zip(sorted(levels), counts):
        heads: set[tuple[Fraction, ...]] = set()
        while len(heads) < count:
            heads.add(tuple(rational() for _ in range(d - 1)))
        for head in sorted(heads):
            last = (level - sum(x * y for x, y in zip(a, head))) / a[-1]
            points.append((*head, last))
    rng.shuffle(points)
    return PointConfig.build(points, [a])


def pairwise_disjoint(vectors) -> bool:
    supports = [{j for j, w in enumerate(vec) if w} for vec in vectors]
    return sum(map(len, supports)) == len(set().union(*supports))


class TestForestRoute:
    """Two-direction fits on the level forest against the textbook oracle,
    and the forest's closed paths against the elimination's basis."""

    def assert_route_and_basis(self, cfg: PointConfig) -> bool:
        """The closed paths equal ``nullspace_int`` on the textbook rows; the
        fit reads the forest exactly when they are pairwise disjoint, and
        then makes the textbook tables on every route.  Returns whether it
        reads the forest."""
        rows = level_rows(cfg)
        basis = list(nullspace_int(sparse_rows(rows), cfg.n))
        incidence.analyze.cache_clear()
        inc = incidence.analyze(cfg)
        assert [tuple(vec.get(j, 0) for j in range(cfg.n)) for vec in inc.closed_paths] == basis
        on_forest = pairwise_disjoint(basis)
        assert inc._fits_on_forest == on_forest
        rng = random.Random(cfg.n)
        vectors = [random_values(rng, cfg.n), [rng.uniform(-3, 3) for _ in range(cfg.n)]]
        assert_matches_min_norm_oracle(cfg, vectors)
        routes = ["forest", "closed_paths"] if on_forest else ["closed_paths"]
        assert_routes_match_the_oracle(cfg, vectors[:1], routes)
        return on_forest

    def test_closed_staircases_and_disjoint_cycles(self):
        rng = random.Random("forest-route-cycles")
        configs = [large_config(rng, "closed-staircase", n) for n in (4, 5, 17, 58)]
        configs += [level_cactus(rng, [rng.randint(3, 12) for _ in range(rng.randint(1, 5))])
                    for _ in range(12)]
        cycles = Counter()
        for cfg in configs:
            assert self.assert_route_and_basis(cfg)
            cycles[len(incidence.analyze(cfg).closed_paths)] += 1
        assert cycles[1] >= 4 and sum(cycles[m] for m in cycles if m >= 3) >= 4

    def test_level_forests_with_many_components(self):
        """Trees on disjoint levels, down to single points, where no two
        points share a level and z = n."""
        rng = random.Random("forest-route-forests")
        configs = [level_forest(rng, [rng.randint(1, 9) for _ in range(rng.randint(1, 12))])
                   for _ in range(12)]
        configs += [level_forest(rng, [1] * n) for n in (1, 2, 13)]
        for cfg in configs:
            assert self.assert_route_and_basis(cfg)
            assert not incidence.analyze(cfg).closed_paths
        assert sum(map(len, incidence.analyze(configs[-1]).keys)) == 2 * configs[-1].n

    def test_level_multigraphs(self):
        """Plane, shared and parallel seeds: closed paths that overlap, or
        three points on one level pair, fall back to ``[N | S]``."""
        rng = random.Random("forest-route-multigraphs")
        routes = Counter()
        for shape in ("plane", "shared", "parallel"):
            for _ in range(40):
                cfg = level_multigraph(rng, shape)
                has_paths = bool(incidence.analyze(cfg).closed_paths)
                routes[shape, has_paths, self.assert_route_and_basis(cfg)] += 1
        for shape in ("plane", "shared", "parallel"):
            assert routes[shape, True, False] >= 5
        assert routes["plane", True, True] + routes["shared", True, True] >= 5


class TestLevelTable:
    def test_lookup(self):
        table = LevelTable((Fraction(-1), Fraction(0), Fraction(5, 2)), (1, 2, 3))
        assert table.value_at(Fraction(5, 2)) == 3
        assert table.value_at(Fraction(-1)) == 1
        for missing in (Fraction(-2), Fraction(1, 2), Fraction(3)):
            with pytest.raises(KeyError):
                table.value_at(missing)

    @pytest.mark.parametrize("levels", [(0, 0), (1, 0), (0, 2, 1)])
    def test_rejects_levels_not_strictly_increasing(self, levels):
        with pytest.raises(ValueError, match="strictly increasing"):
            LevelTable(tuple(Fraction(v) for v in levels), tuple(range(len(levels))))


class TestDensityVerdict:
    def test_five_point_not_dense(self):
        verdict = density_verdict(FIVE_PT)
        assert not verdict.dense
        assert verdict.certificate.verify(FIVE_PT.dirs)

    def test_monotone_curve_dense(self):
        assert density_verdict(config_preset("monotone-curve")).dense

    def test_grid_3x3_not_dense(self):
        assert not density_verdict(config_preset("grid-3x3")).dense


class TestOracleAgreement:
    def test_sweep(self):
        rng = random.Random(20260810)
        for _ in range(120):
            cfg = random_config(rng)
            detected = find_closed_path(cfg)
            assert (detected is not None) == oracle_has_closed_path(cfg)
            if detected is not None:
                assert detected.verify(cfg.dirs)

    def test_interpolation_duality(self):
        """Residual vanishes for arbitrary data iff no closed path (finite form)."""
        rng = random.Random(909)
        for _ in range(40):
            cfg = random_config(rng, max_n=9, max_k=3)
            path_free = find_closed_path(cfg) is None
            residuals = [
                interpolate_ridge(cfg, random_values(rng, cfg.n))[1]
                for _ in range(20)
            ]
            if path_free:
                assert all(r == 0 for r in residuals)
            else:
                assert any(r > 0 for r in residuals)


class TestCertificateGeometry:
    def test_restriction_property(self):
        """A certificate's support, taken alone, is again a closed path."""
        rng = random.Random(42)
        found = 0
        for _ in range(200):
            cfg = random_config(rng)
            cert = find_closed_path(cfg)
            if cert is None:
                continue
            found += 1
            sub = PointConfig(tuple(cert.measure.support), cfg.dirs)
            sub_cert = find_closed_path(sub)
            assert sub_cert is not None
            assert sub_cert.verify(cfg.dirs)
        assert found >= 20

    def test_translation_and_scaling_invariance(self):
        rng = random.Random(71)
        checked = 0
        for _ in range(60):
            cfg = random_config(rng, max_n=8)
            cert = find_closed_path(cfg)
            shift = [Fraction(rng.randint(-3, 3), 2) for _ in range(cfg.dim)]
            moved = PointConfig(
                tuple(
                    Point(tuple(c + s for c, s in zip(p.coords, shift)))
                    for p in cfg.points
                ),
                cfg.dirs,
            )
            scaled = PointConfig(
                cfg.points,
                tuple(a.scale(Fraction(rng.choice([1, 2, 3, -1]), 2)) for a in cfg.dirs),
            )
            for variant, point_map in ((moved, True), (scaled, False)):
                other = find_closed_path(variant)
                assert (other is None) == (cert is None)
                if cert is not None:
                    original_support = {p.coords for p in cert.measure.support}
                    if point_map:
                        expected = {
                            tuple(c + s for c, s in zip(coords, shift))
                            for coords in original_support
                        }
                    else:
                        expected = original_support
                    assert {p.coords for p in other.measure.support} == expected
                    checked += 1
        assert checked >= 10
