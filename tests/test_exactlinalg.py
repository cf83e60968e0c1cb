"""Randomized validation of the exact linear algebra kernel."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import large_config, level_rows, random_config, rref_nullspace
from ridgekit.exactlinalg import (
    GaussJordanSolver,
    normalize_coprime,
    nullspace_int,
)
from ridgekit.rationals import format_rational, rationalize


def random_int_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def right_to_left_oracle(rows, ncols):
    """The right-to-left basis, independently: textbook left-to-right RREF of
    the column-reversed matrix, each vector reversed back, then normalized."""
    reversed_rows = [list(row)[::-1] for row in rows]
    return [normalize_coprime(vec[::-1]) for vec in rref_nullspace(reversed_rows, ncols)]


@st.composite
def int_matrices(draw):
    """Small integer matrices with negative entries, zero rows and repeated or
    zero columns; the sparsity draw spans full rank to rank-deficient."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.integers(-5, 5)) if draw(st.booleans()) else st.integers(-5, 5)
    rows = [draw(st.lists(entry, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, ncols - 1)), draw(st.integers(0, ncols - 1))
        zero = draw(st.booleans())
        for row in rows:
            row[dst] = 0 if zero else row[src]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [0] * ncols)
    return rows, ncols


class TestNullspace:
    @settings(max_examples=300, deadline=None)
    @given(int_matrices())
    def test_matches_right_to_left_oracle(self, matrix):
        rows, ncols = matrix
        sparse = [{j: v for j, v in enumerate(row) if v} for row in rows]
        expected = right_to_left_oracle(rows, ncols)
        assert nullspace_int(rows, ncols) == expected
        assert nullspace_int(sparse, ncols) == expected

    @pytest.mark.parametrize(
        "family", ["staircase", "closed-staircase", "forest", "grid", "generic"]
    )
    def test_matches_oracle_on_incidence_rows(self, family):
        """Seeded level rows up to n = 200, dense and as dicts, against the oracle."""
        rng = random.Random(f"nullspace-{family}")
        for n in (12, 60, 200):
            cfg = large_config(rng, family, n)
            rows = level_rows(cfg)
            expected = right_to_left_oracle(rows, cfg.n)
            assert bool(expected) == (family in ("closed-staircase", "grid"))
            assert nullspace_int(rows, cfg.n) == expected
            sparse = [{j: 1 for j, v in enumerate(row) if v} for row in rows]
            assert nullspace_int(sparse, cfg.n) == expected

    def test_vectors_are_in_kernel_and_dimension_matches(self):
        rng = random.Random(99)
        for _ in range(200):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_int_matrix(rng, rows, cols)
            basis = nullspace_int(m, cols)
            oracle = rref_nullspace(m, cols)
            assert len(basis) == len(oracle)
            for vec in basis:
                assert any(vec)
                for row in m:
                    assert sum(a * b for a, b in zip(row, vec)) == 0

    def test_normalization(self):
        vec = [Fraction(2, 3), Fraction(-4, 3), Fraction(0)]
        assert normalize_coprime(vec) == (1, -2, 0)
        assert normalize_coprime([Fraction(-2), Fraction(4)]) == (1, -2)

    def test_deterministic(self):
        m = [[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1]]
        assert nullspace_int(m, 4) == nullspace_int(m, 4)


class TestGaussJordanSolver:
    def test_solves_consistent_systems(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 7)
            a = random_int_matrix(rng, n, n)
            x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum((r * v for r, v in zip(row, x_true)), Fraction(0)) for row in a]
            solver = GaussJordanSolver([[Fraction(v) for v in row] for row in a])
            x = solver.solve(b)
            assert [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a] == b

    def test_detects_inconsistent(self):
        a = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        solver = GaussJordanSolver(a)
        try:
            solver.solve([Fraction(1), Fraction(3)])
            raised = False
        except ValueError:
            raised = True
        assert raised

    def test_rank(self):
        a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        assert GaussJordanSolver(a).rank == 1

    def test_singular_gram_matrices_of_incidence_rows(self):
        """S = M^T M for 0/1 level rows M: singular, symmetric, PSD.  Right-hand
        sides in its range solve exactly; adding a null vector of M (which is
        orthogonal to the range) makes the system inconsistent."""
        rng = random.Random(31)
        singular = 0
        for _ in range(60):
            cfg = random_config(rng, max_n=14, max_k=3)
            rows = level_rows(cfg)
            n = cfg.n
            s = [[sum(r[a] * r[b] for r in rows) for b in range(n)] for a in range(n)]
            null = rref_nullspace(rows, n)
            solver = GaussJordanSolver(s)
            assert solver.rank == n - len(null)
            x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = [sum((v * x for v, x in zip(row, x_true)), Fraction(0)) for row in s]
            x = solver.solve(b)
            assert [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in s] == b
            if null:
                singular += 1
                with pytest.raises(ValueError, match="inconsistent"):
                    solver.solve([v + w for v, w in zip(b, null[0])])
        assert singular >= 10

    def test_dict_rows_match_dense_rows(self):
        rng = random.Random(12)
        for _ in range(100):
            n = rng.randint(1, 9)
            a = [[rng.choice((0, 0, 0, rng.randint(-4, 4))) for _ in range(n)] for _ in range(n)]
            sparse = [{j: v for j, v in enumerate(row) if v} for row in a]
            b = [Fraction(rng.randint(-5, 5)) for _ in range(n)]
            dense_solver, dict_solver = GaussJordanSolver(a), GaussJordanSolver(sparse)
            assert dense_solver.rank == dict_solver.rank
            try:
                expected = dense_solver.solve(b)
            except ValueError:
                with pytest.raises(ValueError):
                    dict_solver.solve(b)
            else:
                assert dict_solver.solve(b) == expected


class TestBigRationalStrings:
    def test_format_parse_round_trip_huge(self):
        q = Fraction(10**5000 + 7, 3**2000)
        text = format_rational(q)
        assert rationalize(text) == q

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_round_trip_leaves_the_digit_limit_unchanged(self):
        before = sys.get_int_max_str_digits()
        q = Fraction(10**100000 + 7, 3**20000)
        assert rationalize(format_rational(q)) == q
        assert sys.get_int_max_str_digits() == before

    def test_plain_forms(self):
        assert format_rational(Fraction(-3, 32)) == "-3/32"
        assert format_rational(Fraction(5)) == "5"
        assert rationalize("0.25") == Fraction(1, 4)
        assert rationalize(0.25) == Fraction(1, 4)
