"""Incidence structure, closed-path detection, exact ridge interpolation."""

import random
from fractions import Fraction

import pytest

from helpers import (
    float_lstsq_residual_linf,
    large_config,
    level_rows,
    oracle_has_closed_path,
    random_config,
    random_values,
    rref_nullspace,
)
from ridgekit import (
    LevelTable,
    PointConfig,
    build_incidence,
    density_verdict,
    find_closed_path,
    interpolate_ridge,
)
from ridgekit.presets import config_preset


FIVE_PT = config_preset("paper-5pt")
GRID22 = config_preset("grid-2x2")


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
                tuple(p.translate(shift) for p in cfg.points), cfg.dirs
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
