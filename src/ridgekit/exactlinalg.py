"""Exact linear algebra in integers on one elimination.

:func:`_eliminate` is a sparse, forward-only, integer fraction-free
elimination that pivots over columns right to left; rows may be dense
sequences or ``{column: value}`` dicts, and only nonzero entries are touched.
It records every row update as integers, and runs only as far as it is
asked: it hands back each free column as it reaches it.  Its two consumers
share one integer back-substitution over its pivot rows,
:func:`_back_substitute`:

* :func:`nullspace_int`, for a null-space basis that depends only on the
  matrix, not on the elimination route, so certificates are reproducible;
  it eliminates as vectors are asked for, up to each one's free column, and
  back-substitutes each vector there;
* :class:`IntegerSolver`, which runs the elimination to the end and then
  replays the recorded updates on the integer numerators of right-hand
  sides, with one integer denominator per row that depends only on the
  matrix: factor once, solve many.  The ridge
  fit's ``[N | S]`` systems use it (the closed paths beside ``S = M^T M``).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterator, Sequence


def _eliminate(
    rows: Sequence[Sequence[int] | dict[int, int]], ncols: int
) -> tuple[list[dict[int, int]], list[tuple[int, int]], list[tuple[int, ...]], Iterator[int]]:
    """Eliminate an integer matrix over columns right to left, as far as asked.

    A column's pivot is the lowest-index row not yet used as a pivot that is
    nonzero there; the column is then eliminated from the other unused rows
    by the fraction-free update ``r * pv - pivot_row * rv`` (``pv``, ``rv``
    their entries in the column), divided by the result's gcd ``g``.  A
    column with no unused row left is free.  A pivot row is never updated
    again and is zero right of its pivot; the unused rows end zero.

    The rows are copied here, by this call.  Returns the rows, the
    ``(column, pivot row)`` pairs right to left, each update as
    ``(pivot row, target row, pv, rv, g)``, and an iterator over the free
    columns right to left that runs the elimination: it hands back each free
    column as it reaches it, when the lists hold exactly what was done right
    of that column, and it ends when every column is eliminated.
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
    updates: list[tuple[int, ...]] = []

    def free_columns() -> Iterator[int]:
        for col in range(ncols - 1, -1, -1):
            if not holders[col]:
                yield col
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

    return mat, pivots, updates, free_columns()


def nullspace_int(
    rows: Sequence[Sequence[int] | dict[int, int]], ncols: int
) -> Iterator[tuple[int, ...]]:
    """Null-space basis of an integer matrix, as coprime integer vectors.

    This call copies the rows; the returned iterator then eliminates as
    vectors are asked for.  :func:`_eliminate` stops at each free column,
    and its vector is back-substituted there, so a caller that needs the
    first vector alone eliminates only the columns right of it and pays for
    one back-substitution; the next vector resumes the same elimination.

    A free column of :func:`_eliminate` depends on the pivot columns to its
    right, and its basis vector is :func:`_back_substitute` over their pivot
    rows, with a 1 preset on it and a zero right-hand side.  Those pivot rows
    are all found by the time the free column is reached, and are never
    updated again, so stopping there changes no vector.

    The pivot columns are exactly the columns independent of those to their
    right, and each vector is the unique null vector with a 1 on its free
    column, 0 on the other free columns and support at or right of that
    column; so the basis depends only on the matrix, not on the elimination
    route.  One vector per free column, right to left, in coprime integers
    with its first nonzero entry (natural column order) positive: that entry
    is the free column's running denominator, and each entry set is coprime
    to the factor that scales those set before it, back to the initial 1.
    """
    mat, pivots, _, free_cols = _eliminate(rows, ncols)
    zero = [0] * len(mat)

    def vectors() -> Iterator[tuple[int, ...]]:
        for free_col in free_cols:
            x = [0] * ncols
            x[free_col] = 1
            x, _ = _back_substitute([(col, p, mat[p], 1) for col, p in reversed(pivots)], zero, x)
            yield tuple(x)

    return vectors()


def _back_substitute(prows: list[tuple], b: list[int], x: list[int]) -> tuple[list[int], int]:
    """Back-substitute over pivot rows ``(column, index, row, G)`` in order,
    each zero right of its column and reading ``row · x = b[index] / G``.

    ``x`` holds integers preset on the columns no row sets.  Returns integer
    numerators ``X`` and one positive denominator ``q`` with ``x = X / q``.
    A row sets ``X_col = (b q - G Σ_(j≠col) row_j X_j) / (G row_col)``,
    first scaling ``X`` and ``q`` by the least factor making that integral.
    """
    q = 1
    for col, p, row, gp in prows:
        s = sum([v * x[j] for j, v in row.items() if x[j]])  # x[col] is still 0
        num = b[p] * q - gp * s
        if not num:
            continue
        c = gp * row[col]
        h = abs(c) // gcd(num, c)
        if h != 1:
            x = [v * h for v in x]
            q *= h
            num *= h
        x[col] = num // c
    return x, q


class IntegerSolver:
    """Factor an integer matrix once, then solve many integer right-hand sides.

    The factorization is :func:`_eliminate`, replayed on integers only (the
    fraction-free idea of Bareiss, carried through to the right-hand side).
    Each row ``t`` keeps an integer denominator ``G_t``, which depends only on
    the matrix: the replayed right-hand side of row ``t`` is its integer
    numerator over ``G_t``.  An update ``b_t <- (pv b_t - rv b_p) / g``
    becomes ``b_t <- α b_t - β b_p`` with ``L = lcm(G_t, G_p)``,
    ``α = pv L / G_t``, ``β = rv L / G_p`` and then ``G_t <- g L``.

    ``solve`` raises ``ValueError`` when a non-pivot row ends nonzero (an
    inconsistent system), else back-substitutes over the pivot rows on one
    running denominator and returns the particular solution with free
    variables set to zero.
    """

    def __init__(self, rows: Sequence[Sequence[int] | dict[int, int]], ncols: int):
        self.nrows, self.ncols = len(rows), ncols
        mat, pivots, updates, free_cols = _eliminate(rows, ncols)
        for _ in free_cols:  # run the elimination to the end
            pass
        den = [1] * self.nrows
        self._ops: list[tuple[int, int, int, int]] = []  # (pivot row, target row, α, β)
        for p, t, pv, rv, g in updates:
            gt, gp = den[t], den[p]
            big_l = lcm(gt, gp)
            self._ops.append((p, t, pv * (big_l // gt), rv * (big_l // gp)))
            den[t] = g * big_l
        self._pivots = [(col, p, mat[p], den[p]) for col, p in reversed(pivots)]
        pivot_rows = {p for _, p in pivots}
        self._leftover = [i for i in range(self.nrows) if i not in pivot_rows]
        self.rank = len(pivots)

    def solve(self, rhs: Sequence[int]) -> tuple[list[int], int]:
        """Solve ``A x = rhs`` for integer ``rhs``: returns integer numerators
        ``X`` and one positive denominator ``q`` with ``x = X / q``."""
        if len(rhs) != self.nrows:
            raise ValueError("right-hand side has wrong length")
        b = list(rhs)
        for p, t, alpha, beta in self._ops:
            bp = b[p]
            if bp:
                b[t] = alpha * b[t] - beta * bp
            elif b[t]:
                b[t] *= alpha
        if any(b[i] for i in self._leftover):
            raise ValueError("inconsistent linear system")
        return _back_substitute(self._pivots, b, [0] * self.ncols)
