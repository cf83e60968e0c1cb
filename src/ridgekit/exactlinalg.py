"""Exact rational linear algebra for small dense systems.

Three tools, all loop-based and exact:

* an integer fraction-free elimination that returns a basis of the null
  space, pivoting over columns right-to-left so certificates are
  reproducible;
* a reusable Gauss-Jordan factorization over ``Fraction`` for solving one
  square system against many right-hand sides;
* an integer matrix product.

Everything here targets desk-scale matrices (tens of rows); no attempt is
made at asymptotic cleverness.
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

    Stores the row-operation matrix ``T`` with ``T @ A`` in reduced form.
    ``solve`` returns the particular solution with free variables set to
    zero and raises ``ValueError`` on an inconsistent system.
    """

    def __init__(self, matrix: Sequence[Sequence[Fraction]]):
        n = len(matrix)
        work = [[Fraction(matrix[i][j]) for j in range(n)] for i in range(n)]
        trans = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        pivots: list[tuple[int, int]] = []  # (row, column)
        prow = 0
        for col in range(n):
            sel = None
            for i in range(prow, n):
                if work[i][col] != 0:
                    sel = i
                    break
            if sel is None:
                continue
            work[prow], work[sel] = work[sel], work[prow]
            trans[prow], trans[sel] = trans[sel], trans[prow]
            pv = work[prow][col]
            for i in range(n):
                if i != prow and work[i][col] != 0:
                    factor = work[i][col] / pv
                    for j in range(n):
                        work[i][j] -= factor * work[prow][j]
                        trans[i][j] -= factor * trans[prow][j]
            pivots.append((prow, col))
            prow += 1
        self.n = n
        self._reduced = work
        self._trans = trans
        self._pivots = pivots
        self._rank = len(pivots)

    @property
    def rank(self) -> int:
        return self._rank

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction]:
        if len(rhs) != self.n:
            raise ValueError("right-hand side has wrong length")
        tb = [
            sum((self._trans[i][j] * rhs[j] for j in range(self.n)), Fraction(0))
            for i in range(self.n)
        ]
        for i in range(self._rank, self.n):
            if tb[i] != 0:
                raise ValueError("inconsistent linear system")
        x = [Fraction(0)] * self.n
        for row, col in self._pivots:
            # pivot rows are mutually reduced; only free columns (all zero here)
            # could contribute besides the pivot itself
            x[col] = tb[row] / self._reduced[row][col]
        return x


def int_mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    if bt[j]:
                        oi[j] += v * bt[j]
    return out
