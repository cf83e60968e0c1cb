"""Incidence structure, closed-path detection, exact ridge interpolation."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from helpers import (
    float_lstsq_residual_linf,
    large_config,
    level_rows,
    oracle_has_closed_path,
    random_config,
    random_values,
    right_to_left_oracle,
    rref_nullspace,
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
from ridgekit import incidence
from ridgekit.exactlinalg import nullspace_int
from ridgekit.presets import config_preset


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
        assert inc.level_counts == (2, 2, 2)
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
            for count in inc.level_counts:
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
    """The configurations of acceptance criterion C03 (seed 20260810) and
    every large family at n = 12, 60 and 200, with the family's name (None
    for C03)."""
    rng = random.Random(20260810)
    for _ in range(500):
        yield None, random_config(rng)
    rng = random.Random("core")
    for family in ("staircase", "closed-staircase", "forest", "grid", "generic"):
        for n in (12, 60, 200):
            yield family, large_config(rng, family, n)


class TestCore:
    """Peeling before the elimination: the basis on the core, widened with
    zeros, is the basis of the whole incidence matrix."""

    def test_basis_equals_the_unpeeled_elimination_and_the_oracle(self):
        for _, cfg in core_configs():
            rows = level_rows(cfg)
            inc = build_incidence(cfg)
            # the sparse paths widened to n-tuples, zero off their keys
            basis = [tuple(vec.get(j, 0) for j in range(cfg.n)) for vec in inc.closed_paths]
            assert basis == nullspace_int(rows, cfg.n)
            assert basis == right_to_left_oracle(rows, cfg.n)

    def test_zero_off_the_core_and_no_core_point_alone(self):
        for family, cfg in core_configs():
            inc = build_incidence(cfg)
            core = set(inc.core)
            assert list(inc.core) == sorted(core)
            for vec in inc.closed_paths:
                assert core.issuperset(vec) and all(vec.values())
            for dir_groups in inc.groups:
                for members in dir_groups:
                    assert len(core.intersection(members)) != 1
            if family is not None:
                # staircases, forests and generic sets peel away completely
                assert bool(core) == (family in ("closed-staircase", "grid"))

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
        rng = random.Random(17)
        cfg = large_config(rng, "closed-staircase", 40)
        assert not density_verdict(cfg).dense
        for _ in range(20):
            interpolate_ridge(cfg, random_values(rng, cfg.n))
        assert counted_calls == {"build_incidence": 1, "nullspace_int": 1}

    def test_bolt_graph_reads_the_verdicts_index(self, counted_calls):
        cfg = large_config(random.Random(18), "forest", 60)
        verdict = density_verdict(cfg)
        graph = build_bolt_graph(cfg.points, cfg.dirs[0], cfg.dirs[1])
        assert (find_closed_bolt(graph) is None) == verdict.dense
        assert orbits(graph)
        assert counted_calls == {"build_incidence": 1, "nullspace_int": 1}

    def test_cache_follows_equality_not_identity(self, counted_calls):
        cfg = large_config(random.Random(19), "grid", 25)
        copy = PointConfig.build([p.coords for p in cfg.points], [a.coords for a in cfg.dirs])
        assert copy is not cfg
        assert density_verdict(cfg) == density_verdict(copy)
        assert counted_calls == {"build_incidence": 1, "nullspace_int": 1}

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


    def test_fit_builds_one_fraction_per_level_and_one_residual(self, monkeypatch):
        """Factoring ``[N | S]`` builds no ``Fraction``, and a fit builds one
        per level and one for the residual (the closed paths' own
        back-substitution is not counted)."""
        cfg = square_grid(8, GRID_DIRS)
        incidence.analyze.cache_clear()
        inc = incidence.analyze(cfg)
        inc.closed_paths
        values = random_values(random.Random(8), cfg.n)
        built = []
        original = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        inc.solver
        assert built == []
        tables, residual = inc.fit(values)
        assert len(built) == sum(inc.level_counts) + 1
        monkeypatch.undo()
        ridge, expected = interpolate_ridge(cfg, values)
        assert tables == [list(t.values) for t in ridge.tables] and residual == expected


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
