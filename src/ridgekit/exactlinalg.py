"""Exact rational linear algebra on one elimination.

:func:`_eliminate` is a sparse, forward-only, integer fraction-free
elimination that pivots over columns right to left; rows may be dense
sequences or ``{column: value}`` dicts, and only nonzero entries are touched.
It records every row update as integers.  Two consumers share it:

* :func:`nullspace_int` back-substitutes over its pivot rows for a basis of
  the null space.  The basis depends only on the matrix, not on the
  elimination route, so certificates are reproducible;
* :class:`IntegerSolver` replays its recorded updates on right-hand sides:
  factor once, solve many.  The ridge fit's ``S = M^T M`` systems use it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence


def _eliminate(
    rows: Sequence[Sequence[int] | dict[int, int]], ncols: int
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[int], list[tuple[int, ...]]]:
    """Eliminate an integer matrix over columns right to left.

    A column's pivot is the lowest-index row not yet used as a pivot that is
    nonzero there; the column is then eliminated from the other unused rows
    by the fraction-free update ``r * pv - pivot_row * rv`` (``pv``, ``rv``
    their entries in the column), divided by the result's gcd ``g``.  A
    column with no unused row left is free.  A pivot row is never updated
    again and is zero right of its pivot; the unused rows end zero.

    Returns the rows, the ``(column, pivot row)`` pairs right to left, the
    free columns and each update as ``(pivot row, target row, pv, rv, g)``.
    """
    mat = [
        {j: int(v) for j, v in (r.items() if isinstance(r, dict) else enumerate(r)) if v}
        for r in rows
    ]
    holders: list[set[int]] = [set() for _ in range(ncols)]  # column -> unused rows nonzero there
    for i, r in enumerate(mat):
        for j in r:
            holders[j].add(i)
    pivots: list[tuple[int, int]] = []
    free_cols: list[int] = []
    updates: list[tuple[int, ...]] = []
    for col in range(ncols - 1, -1, -1):
        if not holders[col]:
            free_cols.append(col)
            continue
        p = min(holders[col])
        prow = mat[p]
        for j in prow:
            holders[j].discard(p)
        pivots.append((col, p))
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
            g = gcd(*new.values()) or 1
            if g > 1:
                new = {j: v // g for j, v in new.items()}
            mat[i] = new
            updates.append((p, i, pv, rv, g))
    return mat, pivots, free_cols, updates


def nullspace_int(
    rows: Sequence[Sequence[int] | dict[int, int]], ncols: int
) -> list[tuple[int, ...]]:
    """Null-space basis of an integer matrix, as coprime integer vectors.

    A free column of :func:`_eliminate` depends on the pivot columns to its
    right, and its basis vector comes from back-substitution over their
    pivot rows, nearest first.

    The pivot columns are exactly the columns independent of those to their
    right, and each vector is the unique null vector with a 1 on its free
    column, 0 on the other free columns and support at or right of that
    column; so the basis depends only on the matrix, not on the elimination
    route.  One vector per free column, right to left, each scaled to coprime
    integers with its first nonzero entry (natural column order) positive.
    """
    mat, pivots, free_cols, _ = _eliminate(rows, ncols)
    basis: list[tuple[int, ...]] = []
    for free_col in free_cols:
        x = {free_col: Fraction(1)}
        for col, p in reversed(pivots):
            if col > free_col:
                prow = mat[p]
                s = sum(v * x[j] for j, v in prow.items() if j in x)
                if s:
                    x[col] = -s / prow[col]
        basis.append(normalize_coprime([x.get(j, Fraction(0)) for j in range(ncols)]))
    return basis


def normalize_coprime(vec: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero entry positive."""
    scale = lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


class IntegerSolver:
    """Factor an integer matrix once, then solve many rational right-hand sides.

    The factorization is :func:`_eliminate`.  Each update rescales its target
    row by ``pv / g``; with ``σ`` a row's product of these scales, the updates
    become exact multipliers ``rv·σ_p / (pv·σ_t)`` on the unscaled rows, so
    ``solve`` replays one multiply-subtract per update.  It raises
    ``ValueError`` when a non-pivot row ends nonzero (an inconsistent
    system), else back-substitutes over the pivot rows and returns the
    particular solution with free variables set to zero.
    """

    def __init__(self, rows: Sequence[Sequence[int] | dict[int, int]], ncols: int):
        self.nrows, self.ncols = len(rows), ncols
        mat, pivots, _, updates = _eliminate(rows, ncols)
        sigma = [Fraction(1)] * self.nrows
        self._ops: list[tuple[int, int, Fraction]] = []  # (pivot row, target row, multiplier)
        for p, t, pv, rv, g in updates:
            self._ops.append((p, t, rv * sigma[p] / (pv * sigma[t])))
            sigma[t] = sigma[t] * pv / g
        # (column, row, σ_p / pv, {column: entry / pv} off the pivot), left to right
        self._pivots = []
        for col, p in reversed(pivots):
            pv = mat[p][col]
            off = {j: Fraction(v, pv) for j, v in mat[p].items() if j != col}
            self._pivots.append((col, p, sigma[p] / pv, off))
        pivot_rows = {p for _, p in pivots}
        self._leftover = [i for i in range(self.nrows) if i not in pivot_rows]
        self.rank = len(pivots)

    def solve(self, rhs: Sequence[Fraction]) -> list[Fraction]:
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        b = list(rhs)
        for p, t, m in self._ops:
            if b[p]:
                b[t] -= m * b[p]
        if any(b[i] for i in self._leftover):
            raise ValueError("inconsistent linear system")
        x = [Fraction(0)] * self.ncols
        for col, p, scale, off in self._pivots:
            x[col] = scale * b[p] - sum(v * x[j] for j, v in off.items() if x[j])
        return x
