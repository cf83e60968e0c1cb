"""Exact rational linear algebra.

Two tools, both loop-based and exact:

* an integer fraction-free elimination that returns a basis of the null
  space, pivoting over columns right-to-left so certificates are
  reproducible;
* a sparse factor-once / solve-many elimination over ``Fraction`` for one
  square system against many right-hand sides.  It never squares a matrix
  and only touches nonzero entries, which keeps the ridge fit's
  ``M^T M`` systems cheap.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence


def _row_gcd(row: list[int]) -> int:
    g = 0
    for v in row:
        g = gcd(g, abs(v))
        if g == 1:
            break
    return g


def nullspace_int(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Null-space basis of an integer matrix, as coprime integer vectors.

    Fraction-free cross-multiplication elimination with pivot columns chosen
    right-to-left (reverse-lexicographic); one basis vector per free column,
    emitted in the same right-to-left order.  Each vector is scaled to
    coprime integers with its first nonzero entry (natural column order)
    positive.
    """
    mat = [list(map(int, r)) for r in rows]
    used = [False] * len(mat)
    pivots: list[tuple[int, int]] = []  # (column, row index)
    for col in range(ncols - 1, -1, -1):
        prow = None
        for i, r in enumerate(mat):
            if not used[i] and r[col] != 0:
                prow = i
                break
        if prow is None:
            continue
        used[prow] = True
        pivots.append((col, prow))
        pv = mat[prow][col]
        for i, r in enumerate(mat):
            if i != prow and r[col] != 0:
                rv = r[col]
                for j in range(ncols):
                    r[j] = r[j] * pv - mat[prow][j] * rv
                g = _row_gcd(r)
                if g > 1:
                    for j in range(ncols):
                        r[j] //= g
    pivot_cols = {col for col, _ in pivots}
    basis: list[tuple[int, ...]] = []
    for free_col in range(ncols - 1, -1, -1):
        if free_col in pivot_cols:
            continue
        x = [Fraction(0)] * ncols
        x[free_col] = Fraction(1)
        for col, ri in pivots:
            row = mat[ri]
            s = Fraction(0)
            for j in range(ncols):
                if j != col and x[j]:
                    s += row[j] * x[j]
            x[col] = -s / row[col]
        basis.append(normalize_coprime(x))
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
