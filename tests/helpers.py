"""Shared test utilities: independent oracles and random instance generators.

The null-space oracle here is a deliberately plain textbook Gauss-Jordan over
``Fraction`` with left-to-right pivoting — a different algorithm and pivot
order than the package's fraction-free right-to-left elimination, so the two
routes are genuinely independent.  Its incidence rows are built here from
raw ``Direction.dot`` values, not from the package's level index.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from ridgekit import PointConfig


def rref_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Brute-force rational null-space basis via forward-order Gauss-Jordan."""
    mat = [[Fraction(v) for v in row] for row in rows]
    nrows = len(mat)
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][fc]
        basis.append(vec)
    return basis


def level_rows(cfg: PointConfig) -> list[list[int]]:
    """0/1 incidence rows, one per (direction, level), levels increasing."""
    rows = []
    for a in cfg.dirs:
        proj = [a.dot(p) for p in cfg.points]
        for level in sorted(set(proj)):
            rows.append([int(v == level) for v in proj])
    return rows


def oracle_has_closed_path(cfg: PointConfig) -> bool:
    return bool(rref_nullspace(level_rows(cfg), cfg.n))


def random_config(rng: random.Random, max_n=12, max_k=4, max_d=3, coord_range=5) -> PointConfig:
    """A random configuration with small integer coordinates in {0..4}."""
    d = rng.randint(1, max_d)
    n = rng.randint(1, min(max_n, coord_range**d))
    points: set[tuple[int, ...]] = set()
    while len(points) < n:
        points.add(tuple(rng.randrange(coord_range) for _ in range(d)))
    k = rng.randint(1, max_k)
    dirs = []
    while len(dirs) < k:
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(v):
            dirs.append(v)
    return PointConfig.build(sorted(points), dirs)


def random_values(rng: random.Random, n: int) -> list[Fraction]:
    return [Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(n)]


def float_lstsq_residual_linf(rows: list[list[int]], values: list[Fraction]) -> float:
    """Independent brute-force least-squares residual via numpy."""
    m = np.array(rows, dtype=float)
    f = np.array([float(v) for v in values], dtype=float)
    u, *_ = np.linalg.lstsq(m.T, f, rcond=None)
    return float(np.max(np.abs(f - m.T @ u)))
