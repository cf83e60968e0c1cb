"""Randomized validation of the exact linear algebra kernel."""

import random
import sys
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    large_config,
    level_rows,
    normalize_coprime,
    random_config,
    right_to_left_oracle,
    rref_nullspace,
    rref_solve,
    sparse_rows,
)
from ridgekit import exactlinalg, rationals
from ridgekit.exactlinalg import IntegerSolver, nullspace_int
from ridgekit.rationals import format_rational, rationalize


def random_int_matrix(rng, rows, cols, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def solve_fractions(solver, rhs):
    """``solver.solve`` on a rational right-hand side: scale it to integers
    over the lcm ``d`` of its denominators, then ``x = X / (q d)``."""
    rhs = [Fraction(v) for v in rhs]
    d = lcm(*(v.denominator for v in rhs))
    x, q = solver.solve([v.numerator * (d // v.denominator) for v in rhs])
    assert q > 0 and all(type(v) is int for v in x)
    return [Fraction(v, q * d) for v in x]


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
        assert list(nullspace_int(sparse_rows(rows), ncols)) == right_to_left_oracle(rows, ncols)

    @settings(max_examples=300, deadline=None)
    @given(int_matrices(), st.data())
    def test_solver_on_the_same_matrices(self, matrix, data):
        """The solver reproduces any ``A x`` exactly, on non-square and
        rank-deficient matrices too, and refuses ``A x`` plus a left-null
        vector."""
        rows, ncols = matrix
        solver = IntegerSolver(sparse_rows(rows), ncols)
        assert solver.rank == ncols - len(list(nullspace_int(sparse_rows(rows), ncols)))
        small = st.fractions(min_value=-9, max_value=9, max_denominator=5)
        x_true = data.draw(st.lists(small, min_size=ncols, max_size=ncols))
        b = [sum((v * x for v, x in zip(row, x_true)), Fraction(0)) for row in rows]
        x = solve_fractions(solver, b)
        assert len(x) == ncols
        assert [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in rows] == b
        columns = [[row[j] for row in rows] for j in range(ncols)]
        left_null = rref_nullspace(columns, len(rows)) if rows else []
        if left_null:
            with pytest.raises(ValueError, match="inconsistent"):
                solve_fractions(solver, [v + w for v, w in zip(b, left_null[0])])

    @pytest.mark.parametrize(
        "family", ["staircase", "closed-staircase", "forest", "grid", "generic"]
    )
    def test_matches_oracle_on_incidence_rows(self, family):
        """Seeded level rows up to n = 200 against the oracle."""
        rng = random.Random(f"nullspace-{family}")
        for n in (12, 60, 200):
            cfg = large_config(rng, family, n)
            rows = level_rows(cfg)
            expected = right_to_left_oracle(rows, cfg.n)
            assert bool(expected) == (family in ("closed-staircase", "grid"))
            assert list(nullspace_int(sparse_rows(rows), cfg.n)) == expected

    def test_vectors_are_in_kernel_and_dimension_matches(self):
        rng = random.Random(99)
        for _ in range(200):
            rows = rng.randint(1, 8)
            cols = rng.randint(1, 8)
            m = random_int_matrix(rng, rows, cols)
            basis = list(nullspace_int(sparse_rows(m), cols))
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
        assert list(nullspace_int(sparse_rows(m), 4)) == list(nullspace_int(sparse_rows(m), 4))


class TestIntegerSolver:
    def test_solves_consistent_systems(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randint(1, 7)
            a = random_int_matrix(rng, n, n)
            x_true = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            b = [sum((r * v for r, v in zip(row, x_true)), Fraction(0)) for row in a]
            x = solve_fractions(IntegerSolver(sparse_rows(a), n), b)
            assert [sum((r * v for r, v in zip(row, x)), Fraction(0)) for row in a] == b

    def test_detects_inconsistent(self):
        solver = IntegerSolver(sparse_rows([[1, 1], [2, 2]]), 2)
        with pytest.raises(ValueError, match="inconsistent"):
            solver.solve([1, 3])

    def test_rank(self):
        assert IntegerSolver(sparse_rows([[1, 2], [2, 4]]), 2).rank == 1

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
            solver = IntegerSolver(sparse_rows(s), n)
            assert solver.rank == n - len(null)
            x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            b = [sum((v * x for v, x in zip(row, x_true)), Fraction(0)) for row in s]
            x = solve_fractions(solver, b)
            assert [sum((v * w for v, w in zip(row, x)), Fraction(0)) for row in s] == b
            if null:
                singular += 1
                with pytest.raises(ValueError, match="inconsistent"):
                    solve_fractions(solver, [v + w for v, w in zip(b, null[0])])
        assert singular >= 10


def right_to_left_solve_oracle(rows, ncols, rhs):
    """``IntegerSolver``'s particular solution, independently.  Its free
    variables are the columns dependent on the columns to their right, which
    are the free columns of the textbook left-to-right elimination of the
    column-reversed matrix; so solve that with free variables zero and
    reverse back.  Raises ``ValueError`` on an inconsistent system."""
    return rref_solve([list(row)[::-1] for row in rows], ncols, rhs)[::-1]


def float_fraction(rng):
    """A negative or positive rational from a random float in (-1, 1): a
    denominator of up to ``2^52``."""
    return Fraction(rng.uniform(-1, 1))


def solver_cases(kind, seed=11):
    """Seeded ``(rows, ncols, rhs)`` systems of one kind:

    * ``full-rank``: random square and non-square integer matrices, with a
      right-hand side ``A x`` for a small rational ``x``;
    * ``rank-deficient``: products ``B C`` with an inner dimension below
      both sides, right-hand sides again in the range;
    * ``inconsistent``: the rank-deficient matrices with a random
      right-hand side, which the oracle refuses (only those are kept);
    * ``float-rhs``: either matrix kind with ``x`` drawn from floats, so the
      right-hand side carries ``2^52``-sized denominators and negative
      entries.
    """
    rng = random.Random(f"{kind}-{seed}")
    cases = []
    while len(cases) < 60:
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        if kind == "full-rank" or (kind == "float-rhs" and rng.random() < 0.5):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            rows = random_int_matrix(rng, m, n, -6, 6)
        else:
            r = rng.randint(1, min(m, n) - 1)
            b, c = random_int_matrix(rng, m, r), random_int_matrix(rng, r, n)
            rows = [[sum(x * y for x, y in zip(brow, col)) for col in zip(*c)] for brow in b]
        if kind == "inconsistent":
            rhs = [
                float_fraction(rng) if rng.random() < 0.5 else rng.randint(-9, 9) for _ in range(m)
            ]
            try:
                right_to_left_solve_oracle(rows, n, rhs)
            except ValueError:
                cases.append((rows, n, rhs))
            continue
        if kind == "float-rhs":
            x_true = [float_fraction(rng) for _ in range(n)]
        else:
            x_true = [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(n)]
        rhs = [sum((v * x for v, x in zip(row, x_true)), Fraction(0)) for row in rows]
        cases.append((rows, n, rhs))
    return cases


SOLVER_CASE_KINDS = ["full-rank", "rank-deficient", "inconsistent", "float-rhs"]


def oracle_mismatches(cases):
    """Systems on which ``IntegerSolver`` disagrees with the textbook oracle:
    a different solution, or a different verdict on consistency."""
    bad = 0
    for rows, ncols, rhs in cases:
        try:
            expected = right_to_left_solve_oracle(rows, ncols, rhs)
        except ValueError:
            expected = None
        try:
            got = solve_fractions(IntegerSolver(sparse_rows(rows), ncols), rhs)
        except ValueError as exc:
            got = None
            assert "inconsistent" in str(exc)
        bad += got != expected
    return bad


class TestIntegerSolverOracle:
    """``IntegerSolver.solve`` against the textbook ``Fraction`` oracle."""

    @pytest.mark.parametrize("kind", SOLVER_CASE_KINDS)
    def test_matches_textbook_oracle(self, kind):
        cases = solver_cases(kind)
        assert oracle_mismatches(cases) == 0
        deficient = sum(
            IntegerSolver(sparse_rows(rows), n).rank < min(len(rows), n) for rows, n, _ in cases
        )
        if kind in ("rank-deficient", "inconsistent"):
            assert deficient == len(cases)
        if kind == "float-rhs":
            assert any(v.denominator >= 2**52 for _, _, rhs in cases for v in rhs)
            assert any(v < 0 for _, _, rhs in cases for v in rhs)

    def test_inconsistent_systems_raise(self):
        for rows, n, rhs in solver_cases("inconsistent"):
            with pytest.raises(ValueError, match="inconsistent"):
                solve_fractions(IntegerSolver(sparse_rows(rows), n), rhs)

    @pytest.mark.parametrize("mutation", ["drop-all", "drop-one", "double-one"])
    def test_mistracked_row_denominator_is_caught(self, monkeypatch, mutation):
        """A solver whose row denominators ``G`` are dropped (every ``g``
        taken as 1) or mis-tracked for one update (its ``g`` taken as 1, or
        doubled) fails the oracle comparison."""
        original = exactlinalg._eliminate
        mutated = []

        def mutant(rows, ncols):
            """``_eliminate`` with the ``g`` of its updates altered: every one
            for ``drop-all``, else the first one above 1."""
            mat, pivots, updates, free_cols = original(rows, ncols)
            free_cols = list(free_cols)  # run the elimination to the end
            out, done = [], False
            for p, t, pv, rv, g in updates:
                if g > 1 and not done:
                    g = 2 * g if mutation == "double-one" else 1
                    done = mutation != "drop-all"
                    mutated.append(g)
                out.append((p, t, pv, rv, g))
            return mat, pivots, out, iter(free_cols)

        monkeypatch.setattr(exactlinalg, "_eliminate", mutant)
        bad = sum(oracle_mismatches(solver_cases(kind)) for kind in SOLVER_CASE_KINDS)
        assert mutated
        assert bad > 0


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

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
    def test_long_integers_are_written_as_str_writes_them(self):
        """Integers longer than the split length are written by divide and
        conquer: the digits are ``str()``'s, sign included, on both sides of
        the split, and the process-wide digit limit is left as it was."""
        rng = random.Random(31)
        split = rationals._SPLIT_BITS
        lengths = [split, split + 1, 10**5, rng.randint(2 * 10**5, 5 * 10**5), 10**6]
        ints = [rng.getrandbits(bits) | 1 << (bits - 1) for bits in lengths]
        before = sys.get_int_max_str_digits()
        texts = [(format_rational(Fraction(n)), format_rational(Fraction(-n))) for n in ints]
        quotient = format_rational(Fraction(ints[2], ints[3] + 2))
        assert sys.get_int_max_str_digits() == before
        sys.set_int_max_str_digits(0)
        try:
            digits = [str(n) for n in ints]
            assert texts == [(d, "-" + d) for d in digits]  # str(-n) is "-" + str(n)
            q = Fraction(ints[2], ints[3] + 2)
            assert quotient == f"{q.numerator}/{q.denominator}"
        finally:
            sys.set_int_max_str_digits(before)

    def test_decimal_exponent_is_bounded(self):
        """An exponent up to the bound parses; one beyond it, in any spelling,
        is refused before its power of ten is built."""
        bound = rationals._MAX_EXPONENT
        assert rationalize(f"1e{bound}") == 10**bound
        assert rationalize(f" 25E-{bound} ") == Fraction(25, 10**bound)
        for text in (f"1e{bound + 1}", f"1E-{bound + 1}", "1e-1_000_000", "2.5e+" + "9" * 5000):
            with pytest.raises(ValueError, match="decimal exponent beyond"):
                rationalize(text)

    def test_plain_forms(self):
        assert format_rational(Fraction(-3, 32)) == "-3/32"
        assert format_rational(Fraction(5)) == "5"
        assert rationalize("0.25") == Fraction(1, 4)
        assert rationalize(0.25) == Fraction(1, 4)
