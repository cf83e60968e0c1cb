"""Exact rational linear algebra.

Two sparse, loop-based, exact tools; rows may be dense sequences or
``{column: value}`` dicts, and only nonzero entries are touched:

* a forward-only integer fraction-free elimination, pivoting over columns
  right to left, that returns a basis of the null space.  The basis depends
  only on the matrix, not on the elimination route (see :func:`nullspace_int`),
  so certificates are reproducible;
* a factor-once / solve-many elimination over ``Fraction`` for one square
  system against many right-hand sides.  It never squares a matrix, which
  keeps the ridge fit's ``M^T M`` systems cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence


def _row_gcd(row: Iterable[int]) -> int:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


def nullspace_int(
    rows: Sequence[Sequence[int] | dict[int, int]], ncols: int
) -> list[tuple[int, ...]]:
    """Null-space basis of an integer matrix, as coprime integer vectors.

    Columns are processed right to left.  A column's pivot is the lowest-index
    row not yet used as a pivot that is nonzero there; the column is then
    eliminated from the other unused rows by the fraction-free update
    ``r * pivot - pivot_row * r[col]``, divided by the row's gcd.  A column
    with no unused row left is free: it depends on the pivot columns to its
    right, and its basis vector comes from back-substitution over their
    pivot rows, nearest first (each pivot row is zero right of its pivot).

    The pivot columns are exactly the columns independent of those to their
    right, and each vector is the unique null vector with a 1 on its free
    column, 0 on the other free columns and support at or right of that
    column; so the basis depends only on the matrix, not on the elimination
    route.  One vector per free column, right to left, each scaled to coprime
    integers with its first nonzero entry (natural column order) positive.
    """
    mat = [
        {j: int(v) for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
        for r in rows
    ]
    holders: list[set[int]] = [set() for _ in range(ncols)]  # column -> unused rows nonzero there
    for i, r in enumerate(mat):
        for j in r:
            holders[j].add(i)
    pivots: list[tuple[int, dict[int, int]]] = []  # (column, pivot row), right to left
    free_cols: list[int] = []
    for col in range(ncols - 1, -1, -1):
        if not holders[col]:
            free_cols.append(col)
            continue
        p = min(holders[col])
        prow = mat[p]
        for j in prow:
            holders[j].discard(p)
        pivots.append((col, prow))
        pv = prow[col]
        for i in list(holders[col]):
            r = mat[i]
            rv = r[col]
            new = {j: v * pv for j, v in r.items()}
            for j, v in prow.items():
                w = new.get(j, 0) - v * rv
                if w:
                    if j not in new:
                        holders[j].add(i)
                    new[j] = w
                elif j in new:
                    del new[j]
                    holders[j].discard(i)
            g = _row_gcd(new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            mat[i] = new
    basis: list[tuple[int, ...]] = []
    for free_col in free_cols:
        x = {free_col: Fraction(1)}
        for col, prow in reversed(pivots):
            if col > free_col:
                s = sum(v * x[j] for j, v in prow.items() if j in x)
                if s:
                    x[col] = -s / prow[col]
        basis.append(normalize_coprime([x.get(j, Fraction(0)) for j in range(ncols)]))
    return basis


def normalize_coprime(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero entry positive."""
    denom_lcm = 1
    for v in vec:
        d = v.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(v * denom_lcm) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


class GaussJordanSolver:
    """Factor a square rational matrix once, then solve many right-hand sides.

    Sparse elimination over ``Fraction``: rows may be dense sequences or
    ``{column: value}`` dicts.  Columns are eliminated left to right, on the
    diagonal row when it is still available and nonzero (so a symmetric
    positive semidefinite matrix only fills in along its own pattern), else on
    the sparsest remaining row.  The row operations are recorded; ``solve``
    replays them on the right-hand side and back-substitutes, returning the
    particular solution with free variables set to zero.  It raises
    ``ValueError`` on an inconsistent system.
    """

    def __init__(self, matrix: Sequence[Sequence[Fraction] | dict[int, Fraction]]):
        self.n = n = len(matrix)
        rows = [
            {j: Fraction(v) for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
            for r in matrix
        ]
        unused = list(range(n))  # rows not yet chosen as pivots; all zero once elimination ends
        self._ops: list[tuple[int, int, Fraction]] = []  # (pivot row, target row, factor)
        self._pivots: list[tuple[int, int, Fraction]] = []  # (row, column, pivot value)
        for col in range(n):
            targets = [i for i in unused if col in rows[i]]
            if not targets:
                continue
            p = col if col in targets else min(targets, key=lambda i: (len(rows[i]), i))
            unused.remove(p)
            targets.remove(p)
            prow = rows[p]
            pv = prow.pop(col)  # the pivot row keeps its off-pivot entries for back substitution
            for t in targets:
                row = rows[t]
                factor = row.pop(col) / pv
                self._ops.append((p, t, factor))
                for j, v in prow.items():
                    w = row.get(j, 0) - factor * v
                    if w:
                        row[j] = w
                    else:
                        del row[j]
            self._pivots.append((p, col, pv))
        self._rows = rows
        self._zero_rows = unused
        self.rank = len(self._pivots)

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction]:
        if len(rhs) != self.n:
            raise ValueError("right-hand side has wrong length")
        b = list(rhs)
        for p, t, factor in self._ops:
            if b[p]:
                b[t] -= factor * b[p]
        if any(b[i] for i in self._zero_rows):
            raise ValueError("inconsistent linear system")
        x = [Fraction(0)] * self.n
        for p, col, pv in reversed(self._pivots):
            x[col] = (b[p] - sum(v * x[j] for j, v in self._rows[p].items() if x[j])) / pv
        return x
