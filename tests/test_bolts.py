"""Bolt graphs, closed bolts, orbits, alternating measures, the decay probe."""

import hashlib
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from ridgekit import (
    Bolt,
    BoltGenerationError,
    BoltGenerator,
    Direction,
    Point,
    PointConfig,
    PointTest,
    RidgeTest,
    bolt_measure,
    build_bolt_graph,
    density_verdict,
    find_closed_bolt,
    find_closed_path,
    is_annihilating,
    orbits,
    paper_orbit_generator,
    total_variation,
    verify_bolt,
    weak_star_probe,
)
from helpers import (
    large_config,
    level_forest,
    level_multigraph,
    oracle_has_closed_path,
    random_config,
    textbook_bolt,
    textbook_orbits,
    textbook_probe,
    textbook_shared_pair,
)
from ridgekit import bolts
from ridgekit.incidence import analyze
from ridgekit.presets import config_preset, probe_test

A1, A2 = Direction.of(1, 1), Direction.of(1, -1)

ORBIT_POINTS_10 = [
    (0, 0),
    (1, -1),
    (0, -2),
    (Fraction(-3, 2), Fraction(-1, 2)),
    (0, 1),
    (Fraction(3, 4), Fraction(1, 4)),
    (0, Fraction(-1, 2)),
    (Fraction(-3, 8), Fraction(-1, 8)),
    (0, Fraction(1, 4)),
    (Fraction(3, 16), Fraction(1, 16)),
]


def _table_generator(path, a1, a2, first_link=1) -> BoltGenerator:
    """A generator whose rule follows ``path``: each listed point maps to the
    next.  An entry is a :class:`Point`, returned as it is, or a coordinate
    sequence."""
    points = [p if isinstance(p, Point) else Point.of(*p) for p in path]
    nxt = {p.coords: q for p, q in zip(points, points[1:])}
    return BoltGenerator("table", points[0], lambda p: nxt[p.coords], a1, a2, first_link)


SEEDED_WALKS = range(80)
FAULTS = ("repeated", "off-level", "shared-both", "revisited", "dimension")


def _rational_direction(rng: random.Random, d: int) -> Direction:
    """A direction of R^d with rational coordinates whose lcm denominator ``E`` exceeds 1."""
    while True:
        coords = tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 4, 5))) for _ in range(d))
        if any(coords) and lcm(*(c.denominator for c in coords)) > 1:
            return Direction(coords)


def _perpendicular(rng: random.Random, a: Direction, coefficient) -> tuple[Fraction, ...]:
    """A nonzero step perpendicular to ``a``: a combination of the vectors
    ``w_j e_i - w_i e_j`` of ``w = E a``, with coefficients ``coefficient()``."""
    w = a.integer_multiple[1]
    basis = []
    for i, j in combinations(range(len(w)), 2):
        v = [0] * len(w)
        v[i], v[j] = w[j], -w[i]
        if any(v):
            basis.append(v)
    while True:
        ts = [coefficient() for _ in basis]
        step = tuple(sum(t * v[i] for t, v in zip(ts, basis)) for i in range(len(w)))
        if any(step):
            return step


def _as_point(coords) -> Point:
    """A point whose integral coordinates are plain ``int``s, as a rule may return them."""
    return Point(tuple(c.numerator if c.denominator == 1 else c for c in map(Fraction, coords)))


def _seeded_walk(seed: int) -> tuple[BoltGenerator, int, dict]:
    """A seeded table generator on shapes the paper orbit never reaches, the
    length of its table and its shape.

    It has d = 2 or 3, rational directions whose ``E`` exceeds 1 and either
    first link.  Its start point's coordinates have distinct prime
    denominators, and so do the steps' coefficients, so consecutive points
    have different lcm denominators; with an integer rule, every point is
    integral.  Integral coordinates are returned as ``int``.  Each step may
    carry a fault, which ends the table: a repeated point, a step off its
    family's level, one that keeps both levels (d = 3), a 4-cycle back to a
    visited point, or a point of another dimension.  Other steps go to new
    points, so each listed point has one successor."""
    rng = random.Random(seed)
    d, first_link, integer = rng.choice((2, 3)), rng.choice((1, 2)), rng.random() < 0.3
    a1 = _rational_direction(rng, d)
    while True:
        a2 = _rational_direction(rng, d)
        w1, w2 = a1.integer_multiple[1], a2.integer_multiple[1]
        if any(w1[i] * w2[j] != w1[j] * w2[i] for i, j in combinations(range(d), 2)):
            break
    primes = [3, 5, 7, 11, 13, 17]
    if integer:
        coefficient = lambda: rng.randint(-3, 3)  # noqa: E731
        current = tuple(Fraction(rng.randint(-5, 5)) for _ in range(d))
    else:
        coefficient = lambda: Fraction(rng.randint(-6, 6), rng.choice(primes))  # noqa: E731
        current = tuple(Fraction(rng.randint(-9, 9), p) for p in rng.sample(primes, d))
    dirs = (a1, a2)
    path, fault, plan = [_as_point(current)], None, []
    visited = {current}
    for step in range(1, 30):
        fam = first_link if step % 2 else 3 - first_link
        along, across = dirs[fam - 1], dirs[2 - fam]
        if plan:
            move = plan.pop(0)
        elif rng.random() < 0.035:
            fault = rng.choice(FAULTS)
            if fault == "repeated":
                move = (0,) * d
            elif fault == "off-level" or (fault == "shared-both" and d == 2):
                fault = "off-level"
                while True:
                    move = tuple(coefficient() for _ in range(d))
                    if sum(a * m for a, m in zip(along.coords, move)):
                        break
            elif fault == "shared-both":
                move = tuple(w1[i] * w2[j] - w1[j] * w2[i] for i, j in ((1, 2), (2, 0), (0, 1)))
            elif fault == "revisited":
                first = _perpendicular(rng, along, coefficient)
                second = _perpendicular(rng, across, coefficient)
                plan = [second, tuple(-c for c in first), tuple(-c for c in second)]
                move = first
            else:
                path.append(_as_point((*current, rng.randint(-2, 2))))
                break
        else:
            while True:
                move = _perpendicular(rng, along, coefficient)
                new = tuple(c + m for c, m in zip(current, move))
                if sum(a * m for a, m in zip(across.coords, move)) and new not in visited:
                    break
        current = tuple(c + m for c, m in zip(current, move))
        path.append(_as_point(current))
        if current in visited or (fault and not plan):
            break
        visited.add(current)
    gen = _table_generator(path, a1, a2, first_link)
    shape = {"d": d, "first_link": first_link, "integer": integer}
    return gen, len(path), shape


def _halving_generator() -> BoltGenerator:
    """A bolt under the axis directions whose coordinates run through
    ``1/2^k`` and ``1/2^(k+61)``: the two denominators have equal
    ``Fraction`` hashes, so every level and coordinate hash collides with
    another's."""

    def index(c: Fraction) -> int:
        e = c.denominator.bit_length() - 1
        return 2 * (e - 61) + 1 if e >= 61 else 2 * e

    def value(i: int) -> Fraction:
        return Fraction(1, 2 ** (i // 2 + 61 * (i % 2)))

    def rule(p: Point) -> Point:
        x, y = p.coords
        if index(y) > index(x):
            return Point((value(index(y) + 1), y))
        return Point((x, value(index(x) + 1)))

    return BoltGenerator("halving", Point.of(1, 1), rule, Direction.of(1, 0), Direction.of(0, 1), 1)


def _scaled_ridge_tests(seed: int) -> list[RidgeTest]:
    """Seeded rational ridge tests: an affine and a quadratic level profile."""
    rng = random.Random(seed)
    tests = []
    for i in range(4):
        c1 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        c2 = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        tests.append(
            RidgeTest(
                f"ridge-{i}",
                lambda lv, c1=c1: c1 * lv + 1,
                lambda lv, c2=c2: c2 * lv * lv,
            )
        )
    return tests


class TestGenerator:
    def test_reproduces_listed_points(self):
        bolt = paper_orbit_generator().generate(10)
        assert [p.coords for p in bolt.points] == [
            (Fraction(a), Fraction(b)) for a, b in ORBIT_POINTS_10
        ]

    def test_alternation_contract_holds_far_out(self):
        gen = paper_orbit_generator()
        bolt = gen.generate(200)
        assert verify_bolt(bolt, gen.a1, gen.a2)

    def test_paper_orbit_rule_takes_no_fraction_arithmetic(self, monkeypatch):
        """The paper-orbit rule builds each point from integer ratios: a
        2,000-point walk multiplies and subtracts no ``Fraction``."""

        def forbidden(self, other):
            raise AssertionError("Fraction arithmetic in the walk")

        gen = paper_orbit_generator()
        monkeypatch.setattr(Fraction, "__mul__", forbidden)
        monkeypatch.setattr(Fraction, "__sub__", forbidden)
        bolt = gen.generate(2000)
        monkeypatch.undo()
        assert bolt == textbook_bolt(gen, 2000)

    def test_paper_orbit_rule_is_its_fraction_formula(self):
        """On seeded points with equal, nested and coprime denominators: the
        origin goes to (1, -1), (0, y) to (3y/4, y/4) and (x, y) to (0, y - x),
        every coordinate a ``Fraction``."""
        rng = random.Random(36)
        for _ in range(300):
            dens = rng.choice([(4, 4), (3, 12), (40, 8), (7, 9), (2**70, 2**70), (1, 2**65)])
            x = rng.choice([0, Fraction(rng.randint(-50, 50), dens[0])])
            y = rng.choice([0, Fraction(rng.randint(-50, 50), dens[1])])
            got = bolts._inward_spiral_rule(Point((Fraction(x), Fraction(y))))
            if not x:
                want = (Fraction(3, 4) * y, Fraction(1, 4) * y) if y else (Fraction(1), Fraction(-1))
            else:
                want = (Fraction(0), Fraction(y) - x)
            assert got.coords == want and all(type(c) is Fraction for c in got.coords), (x, y)

    def test_a_float_coordinate_is_refused_by_the_point(self):
        gen = replace(paper_orbit_generator(), rule=lambda p: Point((p[0] + 1.0, p[1])))
        with pytest.raises(TypeError, match="point coordinate 0 is a float, not an int or a Fraction"):
            gen.generate(3)

    def test_rule_violation_reports_step(self):
        bad = BoltGenerator(
            name="bad",
            initial=Point.of(0, 0),
            rule=lambda p: Point.of(p[0] + 1, p[1]),  # never perpendicular to (1,1)
            a1=A1,
            a2=A2,
            first_link=1,
        )
        with pytest.raises(BoltGenerationError) as exc:
            bad.generate(3)
        assert exc.value.step == 1

    @pytest.mark.parametrize(
        "gen, step, message",
        [
            (
                _table_generator([(0, 0), (1, -1), (0, -2), (0, -2)], A1, A2),
                3,
                "rule repeated the previous point",
            ),
            (
                _table_generator(
                    [(0, 0, 0), (0, 1, 0), (2, 1, 0), (2, 1, 5)],
                    Direction.of(1, 0, 0),
                    Direction.of(0, 1, 0),
                ),
                3,
                "step shares both levels",
            ),
            (
                _table_generator(
                    [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)], Direction.of(1, 0), Direction.of(0, 1)
                ),
                4,
                "rule revisited an earlier point",
            ),
        ],
        ids=["repeated", "shared-both", "revisited"],
    )
    def test_every_violation_reports_its_step(self, gen, step, message):
        for walk in (gen.generate, lambda n: textbook_bolt(gen, n)):
            with pytest.raises(BoltGenerationError) as exc:
                walk(10)
            assert exc.value.step == step
            assert str(exc.value) == f"step {step}: {message}"
        assert len(gen.generate(step)) == step


def shared_levels(graph, family):
    """The level groups of ``family`` that hold more than one point."""
    return {m for m in graph.groups[family - 1] if len(m) > 1}


class TestBoltGraph:
    @pytest.mark.parametrize("name", ["grid-2x2", "parallel-segments", "paper-orbit"])
    def test_bolt_graph_is_the_cached_index(self, name):
        cfg = config_preset(name)
        assert build_bolt_graph(cfg.points, *cfg.dirs) is analyze(cfg)

    def test_orbit_truncation_is_a_path(self):
        graph = build_bolt_graph([Point.from_seq(p) for p in ORBIT_POINTS_10], A1, A2)
        assert shared_levels(graph, 1) == {(j, j + 1) for j in range(0, 9, 2)}
        assert shared_levels(graph, 2) == {(j, j + 1) for j in range(1, 9, 2)}

    def test_grid_is_a_four_cycle(self):
        cfg = config_preset("grid-2x2")
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        assert shared_levels(graph, 1) == {(0, 1), (2, 3)}
        assert shared_levels(graph, 2) == {(0, 2), (1, 3)}

    def test_general_position_edgeless(self):
        pts = [Point.of(0, 0), Point.of(1, 5), Point.of(2, 11)]
        graph = build_bolt_graph(pts, A1, A2)
        assert not shared_levels(graph, 1) and not shared_levels(graph, 2)

    def test_parallel_directions_rejected(self):
        with pytest.raises(ValueError):
            build_bolt_graph([Point.of(0, 0)], Direction.of(1, 1), Direction.of(2, 2))

    @pytest.mark.parametrize(
        "points, dirs, message",
        [
            ([], [(1, 0), (0, 1)], "need at least one point"),
            ([(0, 0), (0, 0)], [(1, 0), (0, 1)], "points must be pairwise distinct"),
            ([(0, 0), (1, 2)], [(1, 1), (2, 2)], "directions must not be parallel"),
            (
                [(0, 0, 0), (1, 0, 0), (0, 0, 1)],
                [(1, 0, 0), (0, 1, 0)],
                "points 0 and 2 share both projection levels; alternating traversal is ambiguous",
            ),
        ],
        ids=["empty", "repeated", "parallel", "shared-both"],
    )
    def test_error_messages(self, points, dirs, message):
        pts = [Point.of(*p) for p in points]
        a1, a2 = (Direction.of(*a) for a in dirs)
        if len(set(points)) == len(points) > 0:
            # a cached index of the same configuration must not skip the checks
            density_verdict(PointConfig(tuple(pts), (a1, a2)))
        with pytest.raises(ValueError) as exc:
            build_bolt_graph(pts, a1, a2)
        assert str(exc.value) == message

    def test_shared_both_levels_rejected(self):
        # distinct 3-d points can project equally along both directions
        pts = [Point.of(0, 0, 0), Point.of(0, 0, 1)]
        with pytest.raises(ValueError):
            build_bolt_graph(pts, Direction.of(1, 0, 0), Direction.of(0, 1, 0))

    @pytest.mark.parametrize("case", ["copy-after", "copy-before", "three", "beside-a-cycle"])
    def test_shared_levels_name_the_textbook_pair(self, case):
        """Seeded 3-d point lists with points that share both levels: a copy
        of one point, moved off the plane, after or before it; two such
        copies, three points on one level pair; and a copy beside an
        unrelated closed staircase, whose closing point comes first in the
        level forest.  Each raises the message of the textbook scan."""
        rng = random.Random(f"shared-both-{case}")
        for _ in range(15):
            family = rng.choice(("staircase", "forest"))
            base = [(x, y, Fraction(0)) for x, y in
                    (p.coords for p in large_config(rng, family, rng.randint(2, 30)).points)]
            copied = rng.randrange(len(base))
            x, y, _ = base[copied]
            for height in range(1, 3 if case == "three" else 2):
                at = rng.randint(copied + 1, len(base))
                if case == "copy-before":
                    at = rng.randint(0, copied)
                    copied += 1
                base.insert(at, (x, y, height + Fraction(rng.randrange(100), 100)))
            if case == "beside-a-cycle":
                # on levels of its own: the points of large_config lie within 143 of 0
                cycle = large_config(rng, "closed-staircase", rng.randint(4, 30)).points
                base += [(x + 1000, y + 1000, Fraction(0)) for x, y in (p.coords for p in cycle)]
            dirs = [(Fraction(rng.randint(1, 9), rng.randint(1, 9)), 0, 0),
                    (0, Fraction(rng.randint(-9, -1), rng.randint(1, 9)), 0)]
            cfg = PointConfig.build(base, dirs)
            i, j = textbook_shared_pair(cfg)
            with pytest.raises(ValueError) as exc:
                build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            assert str(exc.value) == (
                f"points {i} and {j} share both projection levels; alternating traversal is ambiguous"
            )
            if case == "beside-a-cycle":
                inc = analyze(cfg)
                assert inc.forest[0][0] >= len(base) - len(cycle) > i

    @pytest.mark.parametrize("family", ["staircase", "forest"])
    def test_no_level_groups_on_a_level_forest(self, family):
        """On a level forest the bolt graph, the closed-bolt answer and the
        orbits build no level groups: no point closes a cycle, so no pair of
        points can share both levels."""
        rng = random.Random(f"bolt-graph-{family}")
        for n in (2, 17, 90):
            cfg = large_config(rng, family, n)
            graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            assert find_closed_bolt(graph) is None
            assert orbits(graph) == textbook_orbits(cfg)
            assert "groups" not in graph.__dict__


class TestFindClosedBolt:
    def test_grid_cycle(self):
        cfg = config_preset("grid-2x2")
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        bolt = find_closed_bolt(graph)
        assert bolt is not None and bolt.closed and len(bolt) == 4
        assert verify_bolt(bolt, cfg.dirs[0], cfg.dirs[1])
        assert {p.coords for p in bolt.points} == {p.coords for p in cfg.points}

    def test_orbit_truncation_has_none(self):
        graph = build_bolt_graph([Point.from_seq(p) for p in ORBIT_POINTS_10], A1, A2)
        assert find_closed_bolt(graph) is None

    def test_single_point(self):
        graph = build_bolt_graph([Point.of(3, 7)], A1, A2)
        assert find_closed_bolt(graph) is None

    def test_matches_closed_path_detector(self):
        """For two directions a closed bolt exists iff a closed path does; it
        verifies, its points are the support of the verdict's certificate,
        and its alternating measure is itself a valid certificate.  On seeded
        planar draws, the k = 2 configurations of the acceptance sweep (seed
        20260810) and the k = 2 presets."""
        rng = random.Random(1234)
        configs = [random_config(rng, max_d=2, max_k=2) for _ in range(400)]
        configs = [cfg for cfg in configs if cfg.dim == 2]
        rng = random.Random(20260810)
        configs += [random_config(rng) for _ in range(500)]
        configs += [config_preset(name) for name in
                    ("grid-2x2", "grid-3x3", "monotone-curve", "paper-orbit", "parallel-segments")]
        found = Counter()
        for cfg in configs:
            if cfg.k != 2:
                continue
            try:
                graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            except ValueError:
                continue  # parallel directions, or points sharing both levels
            bolt = find_closed_bolt(graph)
            path = find_closed_path(cfg)
            assert (bolt is not None) == (path is not None)
            if bolt is not None:
                assert verify_bolt(bolt, cfg.dirs[0], cfg.dirs[1])
                assert sorted(bolt.indices) == sorted(analyze(cfg).first_closed_path)
                assert set(bolt.points) == set(path.measure.support)
                mu = bolt_measure(bolt, len(bolt))
                assert is_annihilating(mu, cfg.dirs)
            found[bolt is None] += 1
        assert found[False] >= 20 and found[True] >= 80

    def test_bolt_after_a_verdict_reads_its_cache(self):
        """After a verdict, finding the closed bolt runs no second search:
        the call adds nothing to the index that the verdict filled."""
        for cfg in (
            config_preset("grid-3x3"),
            large_config(random.Random("bolt-after-verdict"), "closed-staircase", 60),
            PointConfig.build([(i, j) for i in range(10) for j in range(10)], [(1, 0), (0, 1)]),
        ):
            assert not density_verdict(cfg).dense
            graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            assert graph is analyze(cfg)
            cached = set(graph.__dict__)
            bolt = find_closed_bolt(graph)
            assert bolt is not None and set(graph.__dict__) == cached

    def test_no_search_on_a_level_forest(self):
        """Staircases, level forests and ``level_multigraph`` seeds: a closed
        bolt is found exactly when the textbook rows have a closed path.  On
        an acyclic level graph the answer comes from the level forest, and
        neither a level group nor the rooted forest is built."""
        rng = random.Random("closed-bolt-forests")
        configs = [large_config(rng, family, n) for family in ("staircase", "closed-staircase")
                   for n in (4, 13, 60)]
        configs += [level_forest(rng, [rng.randint(1, 9) for _ in range(rng.randint(1, 6))])
                    for _ in range(20)]
        configs += [level_multigraph(rng, shape) for shape in ("plane", "shared", "parallel")
                    for _ in range(60)]
        found = Counter()
        for cfg in configs:
            try:
                graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            except ValueError:
                continue  # parallel directions, or points sharing both levels
            bolt = find_closed_bolt(graph)
            assert (bolt is None) == (not oracle_has_closed_path(cfg))
            assert ("groups" in graph.__dict__) == (bolt is not None)
            assert ("_rooted_forest" in graph.__dict__) == (bolt is not None)
            if bolt is not None:
                assert verify_bolt(bolt, cfg.dirs[0], cfg.dirs[1])
            found[bolt is None] += 1
        assert found[True] >= 40 and found[False] >= 20

    def test_traversal_is_pinned(self):
        """sha256 of every found cycle's ``(indices, first_link)``, or None
        where there is none: seeded two-direction planar draws, the k = 2
        families of ``large_config`` at n = 12, 60 and 200, and axis grids
        from 2x2 to 24x24.  Every found cycle is the support of the first
        closed path; any change to its walk order shows here."""
        configs = []
        rng = random.Random("closed-bolt-pin")
        for _ in range(3000):
            cfg = random_config(rng, max_d=2, max_k=2)
            if cfg.k == 2 and cfg.dim == 2:
                configs.append(cfg)
        rng = random.Random("closed-bolt-families")
        for family in ("staircase", "closed-staircase", "forest"):
            for n in (12, 60, 200):
                configs.append(large_config(rng, family, n))
        for m in range(2, 25):
            configs.append(
                PointConfig.build([(i, j) for i in range(m) for j in range(m)], [(1, 0), (0, 1)])
            )
        records = []
        for cfg in configs:
            try:
                graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
            except ValueError:
                continue  # parallel directions drawn
            bolt = find_closed_bolt(graph)
            if bolt is not None:
                assert sorted(bolt.indices) == sorted(analyze(cfg).first_closed_path)
            records.append(None if bolt is None else (bolt.indices, bolt.first_link))
        assert sum(r is not None for r in records) >= 100
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == "fe688a6044e7d4d387ce0713ad248b808375dba58d39cf0d409c25f9e4836afa"


X, Y = Direction.of(1, 0), Direction.of(0, 1)


class TestVerifyBolt:
    """``verify_bolt`` refuses each broken sequence (the accepting cases are
    the generated and found bolts above)."""

    @pytest.mark.parametrize(
        "points, first_link, closed, dirs",
        [
            ([(0, 0), (0, 0), (0, 1)], 1, False, (X, Y)),
            ([(0, 0), (0, 1), (1, 1), (1, 2)], 2, False, (X, Y)),
            ([(0, 0, 0), (0, 0, 1)], 1, False, (Direction.of(1, 0, 0), Direction.of(0, 1, 0))),
            ([(0, 0), (0, 1), (1, 1), (1, 2)], 1, True, (X, Y)),
        ],
        ids=["repeated-point", "off-its-level", "shares-both-levels", "wrap-breaks-alternation"],
    )
    def test_broken_bolts_are_refused(self, points, first_link, closed, dirs):
        bolt = Bolt(tuple(Point.of(*p) for p in points), first_link, closed=closed)
        assert verify_bolt(bolt, *dirs) is False

    def test_only_the_wrap_around_link_breaks(self):
        """The staircase refused closed is a valid open bolt."""
        stair = tuple(Point.of(*p) for p in [(0, 0), (0, 1), (1, 1), (1, 2)])
        assert verify_bolt(Bolt(stair, 1), X, Y)


def bolt_of(*points, first_link=1, closed=False) -> Bolt:
    return Bolt(tuple(Point.of(*p) for p in points), first_link, closed=closed)


class TestVerifyBoltIntegers:
    """``verify_bolt`` compares integer keys over the bolt's common point
    denominator and each direction's own lcm: these cases separate that
    from a comparison over per-point denominators or an unscaled direction."""

    def test_points_with_different_denominators_share_a_level(self):
        third = Fraction(1, 3)
        assert verify_bolt(bolt_of((third, 2 * third), (1, 0)), A1, A2)
        assert verify_bolt(bolt_of((1, 0), (third, 2 * third)), A1, A2)
        # levels (1, -2/3), (1, 1/5), (1/3, 1/5), (1/3, -2/3): a closed 4-cycle
        square = bolt_of((Fraction(1, 6), Fraction(5, 6)), (Fraction(3, 5), Fraction(2, 5)),
                         (Fraction(4, 15), Fraction(1, 15)), (Fraction(-1, 6), Fraction(1, 2)),
                         closed=True)
        assert verify_bolt(square, A1, A2)

    def test_levels_one_unit_apart_are_refused(self):
        """Along the link's family the levels differ by one unit over the
        common denominator of the two points."""
        third, sixth = Fraction(1, 3), Fraction(1, 6)
        assert not verify_bolt(bolt_of((third, 2 * third), (1, -sixth)), A1, A2)  # a1-levels 6/6 and 5/6
        assert not verify_bolt(bolt_of((third, 0), (Fraction(2, 3), 1)), X, Y)  # 1/3 and 2/3
        tiny = Fraction(1, 10**30)
        assert not verify_bolt(bolt_of((0, 0), (tiny, 5)), X, Y)
        assert not verify_bolt(bolt_of((Fraction(1, 7), 0), (Fraction(1, 7) + tiny, 5)), X, Y)
        # and one unit apart across the link's family still counts as apart
        assert verify_bolt(bolt_of((0, 0), (0, tiny)), X, Y)

    @pytest.mark.parametrize("position", [0, 1])
    def test_fractional_direction_matches_its_integer_multiple(self, position):
        """(1/2, 1/3) against (3, 2): the same verdict on every bolt, as a1
        or as a2.  Its numerators (1, 1) alone would put (0, 3) and (2, 0)
        on different levels and (0, 2) and (2, 0) on one."""
        fractional, integer = Direction.of(Fraction(1, 2), Fraction(1, 3)), Direction.of(3, 2)
        link = position + 1  # the fractional direction's family
        bolts = [
            (bolt_of((0, 3), (2, 0), first_link=link), True),
            (bolt_of((0, 2), (2, 0), first_link=link), False),
            (bolt_of((0, 3), (2, 0), (2, 7), (Fraction(14, 3) + 2, 0), first_link=link), True),
            (bolt_of((Fraction(2, 5), 0), (0, Fraction(3, 5)), first_link=link), True),
        ]
        for bolt, valid in bolts:
            for a in (fractional, integer):
                dirs = (a, X) if position == 0 else (X, a)
                assert verify_bolt(bolt, *dirs) is valid, (bolt, a)

    def test_dimension_mismatch_raises(self):
        bolt = bolt_of((0, 0), (0, 1))
        three_d = Direction.of(1, 0, 0)
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_bolt(bolt, three_d, Direction.of(0, 1, 0))
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_bolt(bolt, X, three_d)
        mixed = Bolt((Point.of(0, 0), Point.of(0, 1, 2)), 1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            verify_bolt(mixed, X, Y)


class TestOrbits:
    def test_orbit_truncation_single_class(self):
        graph = build_bolt_graph([Point.from_seq(p) for p in ORBIT_POINTS_10], A1, A2)
        assert len(orbits(graph)) == 1

    def test_non_aligned_segments_all_singletons(self):
        # two horizontal segments sampled at parameters sharing no level
        pts = [Point.of(Fraction(j), 0) for j in range(4)] + [
            Point.of(Fraction(4 * j + 1, 8), 1) for j in range(4)
        ]
        graph = build_bolt_graph(pts, A1, A2)
        parts = orbits(graph)
        assert len(parts) == len(pts)

    def test_disjoint_grids_two_orbits(self):
        cfg = config_preset("grid-2x2")
        far = [Point.of(p[0] + 10, p[1] + 20) for p in cfg.points]
        graph = build_bolt_graph(
            list(cfg.points) + far, Direction.of(1, 0), Direction.of(0, 1)
        )
        assert len(orbits(graph)) == 2

    def test_matches_the_textbook_search(self):
        """On seeded level forests of several trees and on level graphs with
        cycles, ``orbits`` equals a breadth-first search over shared levels."""
        rng = random.Random("orbits-textbook")
        configs = [level_forest(rng, [rng.randint(1, 12) for _ in range(rng.randint(1, 5))])
                   for _ in range(40)]
        configs += [level_multigraph(rng, "plane") for _ in range(60)]
        configs += [large_config(rng, family, n)
                    for family in ("closed-staircase", "forest", "staircase") for n in (12, 60)]
        parts = Counter()
        for cfg in configs:
            want = textbook_orbits(cfg)
            assert orbits(build_bolt_graph(cfg.points, *cfg.dirs)) == want
            parts[min(len(want), 3)] += 1
        assert parts[1] >= 10 and parts[2] >= 10 and parts[3] >= 10

    def test_same_bolt_same_orbit(self):
        gen = paper_orbit_generator()
        bolt = gen.generate(30)
        graph = build_bolt_graph(bolt.points, gen.a1, gen.a2)
        parts = orbits(graph)
        assert len(parts) == 1


class TestBoltMeasure:
    def test_n_one_is_point_mass(self):
        bolt = paper_orbit_generator().generate(5)
        mu = bolt_measure(bolt, 1)
        assert mu.support == (bolt.points[0],) and mu.weights == (Fraction(1),)

    def test_closed_bolt_measure_annihilates(self):
        cfg = config_preset("grid-2x2")
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        bolt = find_closed_bolt(graph)
        mu = bolt_measure(bolt, len(bolt))
        assert is_annihilating(mu, cfg.dirs)

    def test_first_four_weights(self):
        bolt = paper_orbit_generator().generate(10)
        mu = bolt_measure(bolt, 4)
        expected = {
            bolt.points[0].coords: Fraction(1, 4),
            bolt.points[1].coords: Fraction(-1, 4),
            bolt.points[2].coords: Fraction(1, 4),
            bolt.points[3].coords: Fraction(-1, 4),
        }
        assert {p.coords: w for p, w in mu.atoms()} == expected

    def test_total_variation_one(self):
        bolt = paper_orbit_generator().generate(64)
        for n in (1, 2, 3, 10, 33, 64):
            assert total_variation(bolt_measure(bolt, n)) == 1

    def test_length_guard(self):
        bolt = paper_orbit_generator().generate(4)
        with pytest.raises(ValueError):
            bolt_measure(bolt, 5)


class TestWeakStarProbe:
    def test_constant_test_pattern(self):
        report = weak_star_probe(
            paper_orbit_generator(), [probe_test("const")], 20
        )
        values = [v for n, name, v in report.rows]
        for n, v in zip(range(1, 21), values):
            assert v == (1.0 / n if n % 2 else 0.0)

    def test_ridge_identity_bound(self):
        report = weak_star_probe(
            paper_orbit_generator(), [probe_test("ridge-identity")], 400
        )
        assert report.ridge_bounds_ok

    def test_coordinate_decay(self):
        report = weak_star_probe(
            paper_orbit_generator(),
            [probe_test("x"), probe_test("y"), probe_test("x2")],
            1000,
        )
        assert report.verdict == "consistent-with-zero"
        assert all(v <= 0.01 for v in report.final_values.values())

    def test_scaled_decay_stays_bounded(self):
        """n * |integral of x| stays bounded: 1/n decay along the orbit."""
        report = weak_star_probe(paper_orbit_generator(), [probe_test("x")], 1000)
        scaled = [n * v for n, name, v in report.rows if name == "x"]
        assert max(scaled) <= 4.5

    def test_scaled_ridge_tables_bound_exactly(self):
        """The telescoping bound holds for arbitrary rational level tables."""
        report = weak_star_probe(paper_orbit_generator(), _scaled_ridge_tests(3), 300)
        assert report.ridge_bounds_ok

    def test_needs_tests(self):
        with pytest.raises(ValueError):
            weak_star_probe(paper_orbit_generator(), [], 10)

    def test_alternation_broken_at_the_last_step_raises(self):
        """The telescoped ridge sums rely on the walk's alternation check,
        which also guards the last step."""
        gen = _table_generator([*ORBIT_POINTS_10[:5], (1, 2)], A1, A2)  # link 4 repeats family 2
        tests = [probe_test("ridge-identity")]
        assert weak_star_probe(gen, tests, 5).ridge_bounds_ok
        with pytest.raises(BoltGenerationError) as exc:
            weak_star_probe(gen, tests, 6)
        assert exc.value.step == 5

    def test_no_dot_and_no_fraction_hash(self, monkeypatch):
        """The walk reads each point's coordinates as integer ratios and
        compares its levels by cross-multiplication: no ``Direction.dot``."""

        def no_dot(self, point):
            raise AssertionError("Direction.dot was called")

        def unhashable(self):
            raise AssertionError("a Fraction was hashed")

        monkeypatch.setattr(Direction, "dot", no_dot)
        monkeypatch.setattr(Fraction, "__hash__", unhashable)
        tests = [probe_test(name) for name in ("x", "y", "ridge-identity")]
        report = weak_star_probe(paper_orbit_generator(), tests, 500)
        monkeypatch.undo()
        assert report.verdict == "consistent-with-zero"
        assert report == textbook_probe(paper_orbit_generator(), tests, 500)


def test_pointwise_decay_reads_ratios_without_gcd(monkeypatch):
    """On the paper orbit every plain test's denominators divide one another:
    the pointwise sums read each value's integer ratio with no
    ``rationalize`` and no gcd, and match the textbook probe."""

    def forbidden(*args):
        raise AssertionError("gcd or rationalize in the pointwise sums")

    gen, thr = paper_orbit_generator(), Fraction(1, 100)
    tests = [probe_test(n) for n in ("x", "y", "x2", "y2", "xy", "const")]
    points = gen.generate(400).points
    monkeypatch.setattr(bolts, "gcd", forbidden)
    monkeypatch.setattr(bolts, "rationalize", forbidden)
    decays = [bolts._pointwise_decay(test, points, thr) for test in tests]
    monkeypatch.undo()
    for test, (values, passed) in zip(tests, decays):
        expected = textbook_probe(gen, [test], 400, thr)
        assert values == [v for _, _, v in expected.rows], test.name
        assert passed == (expected.verdict == "consistent-with-zero"), test.name


def _x_turning_float(p: Point) -> Fraction | float:
    """``x`` exactly near the start, then as a float wherever it is nonzero."""
    x = p[0]
    return float(x) if x.denominator > 2**20 else x


def _typed_ridge_tests() -> list[RidgeTest]:
    """Ridge tests whose profiles return an ``int``, a ``str`` and a
    ``float``, each with negative values on some levels."""
    return [
        RidgeTest("ridge-int", lambda lv: int(8 * lv) - 3, lambda lv: 5 if lv > 0 else -7),
        RidgeTest("ridge-str", lambda lv: "1/3", lambda lv: str(-lv / 3)),
        RidgeTest("ridge-float", lambda lv: float(lv) / 3 - 0.25, lambda lv: -0.1 * float(lv)),
    ]


PROBE_CASES = {
    "orbit-1": (paper_orbit_generator, lambda: [probe_test("x"), probe_test("ridge-identity")], 1),
    "orbit-2": (paper_orbit_generator, lambda: [probe_test("ridge-identity"), probe_test("y")], 2),
    "orbit-3": (paper_orbit_generator, lambda: [probe_test("x2"), probe_test("const")], 3),
    "ridge-types-1": (paper_orbit_generator, _typed_ridge_tests, 1),
    "ridge-types": (paper_orbit_generator, lambda: [probe_test("x"), *_typed_ridge_tests()], 150),
    "ridge-types-first-link-2": (
        lambda: replace(
            _halving_generator(), a1=Direction.of(0, 1), a2=Direction.of(1, 0), first_link=2
        ),
        _typed_ridge_tests,
        101,
    ),
    "orbit-150": (
        paper_orbit_generator,
        lambda: [probe_test(n) for n in ("x", "y", "x2", "y2", "xy", "const", "ridge-identity")],
        150,
    ),
    "orbit-1000": (
        paper_orbit_generator,
        lambda: [probe_test(n) for n in ("x", "y", "x2", "ridge-identity")],
        1000,
    ),
    "scaled-ridge-tables": (paper_orbit_generator, lambda: _scaled_ridge_tests(3), 300),
    "float-halfway": (
        paper_orbit_generator,
        lambda: [
            PointTest("x-float", _x_turning_float),
            PointTest("y-float", lambda p: float(p[1])),
            PointTest("sign-int", lambda p: 1 if p[0] >= 0 else -1),
            PointTest("x-str", lambda p: str(p[0])),
        ],
        150,
    ),
    "non-dyadic": (
        paper_orbit_generator,
        lambda: [
            PointTest("x-sevenths", lambda p: p[0] / 7 + Fraction(1, 3)),
            RidgeTest("ridge-thirds", lambda lv: lv / 3, lambda lv: lv * lv / 5 + Fraction(2, 7)),
        ],
        300,
    ),
    "hash-collisions": (
        _halving_generator,
        lambda: [probe_test("x"), probe_test("y"), probe_test("ridge-identity"), *_scaled_ridge_tests(5)],
        100,
    ),
    "swapped-first-link-2": (
        lambda: replace(
            _halving_generator(), a1=Direction.of(0, 1), a2=Direction.of(1, 0), first_link=2
        ),
        lambda: [probe_test("x"), *_scaled_ridge_tests(8)],
        101,
    ),
}


class TestProbeMatchesTextbook:
    """The probe equals the textbook probe exactly, field by field."""

    @pytest.mark.parametrize("case", PROBE_CASES)
    @pytest.mark.parametrize("threshold", [Fraction(1, 100), Fraction(1, 10**9)], ids=["1e-2", "1e-9"])
    def test_fields_equal(self, case, threshold):
        make_gen, make_tests, n = PROBE_CASES[case]
        report = weak_star_probe(make_gen(), make_tests(), n, threshold)
        expected = textbook_probe(make_gen(), make_tests(), n, threshold)
        assert report.rows == expected.rows
        assert report.final_values == expected.final_values
        assert report.verdict == expected.verdict
        assert report.ridge_bounds_ok == expected.ridge_bounds_ok
        assert report.bolt == expected.bolt
        assert report == expected

    @pytest.mark.parametrize(
        "threshold, verdict",
        [(Fraction(1, 3), "consistent-with-zero"), (Fraction(1, 3) - Fraction(1, 10**30), "inconclusive")],
        ids=["at", "below"],
    )
    def test_exact_threshold_is_inclusive(self, threshold, verdict):
        """1/3 is the exact final value of ``const`` at n = 3; floats cannot tell these apart."""
        report = weak_star_probe(paper_orbit_generator(), [probe_test("const")], 3, threshold)
        assert report.verdict == verdict
        assert report == textbook_probe(paper_orbit_generator(), [probe_test("const")], 3, threshold)

    def test_halving_bolt_collides_in_hash_only(self):
        bolt = _halving_generator().generate(100)
        coords = [c for p in bolt.points for c in p.coords]
        assert len(set(coords)) == 100
        assert len({hash(c) for c in coords}) < 70


def _walk_outcome(gen: BoltGenerator, n: int) -> Bolt | BoltGenerationError | ValueError:
    """The textbook walk of ``n`` points, or its refusal.  The textbook does not
    check dimensions, so the first point of another dimension is refused as
    :meth:`Direction.dot` refuses it, unless the walk stops before it."""
    points = [gen.initial]
    while len(points) < n:
        points.append(gen.rule(points[-1]))
    dims = {gen.a1.dim, gen.a2.dim}
    bad = next((j for j, p in enumerate(points) if {p.dim} != dims), n)
    try:
        bolt = textbook_bolt(gen, max(bad, 1))
    except BoltGenerationError as exc:
        return exc
    if bad == n:
        return bolt
    for a in (gen.a1, gen.a2):
        try:
            a.dot(points[bad])
        except ValueError as exc:
            return exc
    raise AssertionError("no direction refused the point")


class TestSeededWalks:
    """The walk against the textbook bolt and probe on seeded table
    generators (:func:`_seeded_walk`): rational directions with ``E > 1``,
    coordinates over distinct primes, int coordinates, d = 2 and 3, both
    first links, and every refusal."""

    @pytest.mark.parametrize("seed", SEEDED_WALKS)
    def test_walk_and_probe_match_the_textbook(self, seed):
        gen, n, _ = _seeded_walk(seed)
        tests = [probe_test("x"), probe_test("y"), probe_test("ridge-identity"), *_scaled_ridge_tests(seed)]
        expected = _walk_outcome(gen, n)
        walks = (gen.generate, lambda m: weak_star_probe(gen, tests, m).bolt)
        if isinstance(expected, Bolt):
            for walk in walks:
                assert walk(n) == expected
            walked = n
        else:
            for walk in walks:
                with pytest.raises(type(expected)) as exc:
                    walk(n)
                assert str(exc.value) == str(expected)
                assert getattr(exc.value, "step", None) == getattr(expected, "step", None)
            walked = getattr(expected, "step", n - 1)
        if walked:
            for threshold in (Fraction(1, 100), Fraction(1, 10**9)):
                report = weak_star_probe(gen, tests, walked, threshold)
                assert report == textbook_probe(gen, tests, walked, threshold)

    @pytest.mark.parametrize(
        "path, a2",
        [
            ([(1, 2, 3), (1, 2, 4)], A2),
            ([(0, 0), (1, -1)], Direction.of(1, 0, Fraction(1, 3))),
            ([(0, 0), (1, -1), (0, -2, 0)], A2),
        ],
        ids=["initial-point", "second-direction", "later-point"],
    )
    def test_dimension_mismatch_is_refused_as_dot_refuses_it(self, path, a2):
        gen = _table_generator(path, A1, a2)
        expected = _walk_outcome(gen, len(path))
        assert isinstance(expected, ValueError)
        for walk in (gen.generate, lambda m: weak_star_probe(gen, [probe_test("x")], m)):
            with pytest.raises(ValueError) as exc:
                walk(len(path))
            assert str(exc.value) == str(expected)

    def test_the_seeds_cover_every_shape(self):
        shapes, outcomes = Counter(), Counter()
        for seed in SEEDED_WALKS:
            gen, n, shape = _seeded_walk(seed)
            shapes.update(f"{key}={value}" for key, value in shape.items())
            outcome = _walk_outcome(gen, n)
            if isinstance(outcome, BoltGenerationError):
                outcomes[str(outcome).split(": ", 1)[1].split(" direction")[0]] += 1
            else:
                outcomes[type(outcome).__name__] += 1
        assert {"d=2", "d=3", "first_link=1", "first_link=2", "integer=True", "integer=False"} <= set(shapes)
        assert set(outcomes) == {
            "Bolt",
            "ValueError",
            "rule repeated the previous point",
            "step is not perpendicular to",
            "step shares both levels",
            "rule revisited an earlier point",
        }, outcomes
