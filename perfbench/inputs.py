"""Seeded input generators for the four workloads.

Every generator is a pure function of its arguments: the same seed gives
byte-identical inputs.  Inputs are split into a *structure* (which points
share which levels, plus the data vector) that is fixed by a small key, and a
*geometry* (directions, level gaps, rational offsets) that the run seed
chooses freely.  Verdicts, certificates (in point order) and ridge tables
depend on the structure only, so ``reference.json`` can hold one digest per
key, taken once at the seed commit, while every run still sees fresh
``PointConfig`` objects.

This module imports no ridgekit code: configurations are plain tuples of
``Fraction`` coordinates, turned into ``PointConfig`` objects by the caller.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

# Pool seed for structures that are random but must be reproducible across
# runs (the sweep configurations, the level forests).  Changing it
# invalidates reference.json.
POOL_SEED = 20260810

SWEEP_POOL_SIZE = 3000
SWEEP_FITS_PER_OP = 20

# Direction pairs used for level-pair geometry; any non-parallel pair gives
# the same incidence structure.
DIR_PAIRS = (
    ((1, 1), (1, -1)),
    ((1, 0), (0, 1)),
    ((2, 1), (1, -1)),
    ((1, 2), (-1, 1)),
    ((3, 1), (1, 2)),
)
# Direction triples for the k = 3 families.
DIR_TRIPLES = (
    ((1, 0), (0, 1), (1, 1)),
    ((1, 0), (0, 1), (1, -1)),
    ((1, 1), (1, -1), (1, 0)),
)


def rng_for(*parts) -> random.Random:
    """A Random seeded from a stable hash of ``parts`` (not ``hash()``)."""
    h = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _rat(rng: random.Random, lo: int, hi: int, max_den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def data_vector(rng: random.Random, n: int) -> list[Fraction]:
    return [_rat(rng, -40, 40, 8) for _ in range(n)]


# --------------------------------------------------------------- geometry


def _levels(rng: random.Random, count: int) -> list[Fraction]:
    """Strictly increasing rationals with random positive gaps."""
    out = []
    v = _rat(rng, -20, 20, 6)
    for _ in range(count):
        out.append(v)
        v += Fraction(rng.randint(1, 9), rng.randint(1, 7))
    return out


def points_from_level_pairs(pairs, rng: random.Random):
    """Realize (u-node, v-node) index pairs as 2-d points.

    Node ``i`` of each side gets the i-th of an increasing level sequence, so
    the sorted level order equals node order for every seed.  Each point
    solves ``a1 . p = u`` and ``a2 . p = v`` exactly.
    """
    a1, a2 = DIR_PAIRS[rng.randrange(len(DIR_PAIRS))]
    us = _levels(rng, 1 + max(u for u, _ in pairs))
    vs = _levels(rng, 1 + max(v for _, v in pairs))
    det = a1[0] * a2[1] - a1[1] * a2[0]
    points = []
    for ui, vi in pairs:
        u, v = us[ui], vs[vi]
        points.append(((u * a2[1] - v * a1[1]) / det, (v * a1[0] - u * a2[0]) / det))
    return points, [a1, a2]


def shifted(points, rng: random.Random):
    shift = [_rat(rng, -50, 50, 97) for _ in range(len(points[0]))]
    return [tuple(c + s for c, s in zip(p, shift)) for p in points]


# -------------------------------------------------------------- structures


def staircase_pairs(n: int) -> list[tuple[int, int]]:
    """A path in the bipartite level graph: consecutive points share a level,
    alternating between the two directions."""
    return [((j + 1) // 2, j // 2) for j in range(n)]


def closed_staircase_pairs(n: int) -> list[tuple[int, int]]:
    """A staircase of ``n - 1`` points (``n`` even) plus the one point that
    joins its two end levels, closing a cycle through all ``n`` points."""
    if n % 2 or n < 4:
        raise ValueError("a closed staircase needs an even n >= 4")
    pairs = staircase_pairs(n - 1)
    return pairs + [(0, pairs[-1][1])]


def forest_pairs(n: int, variant: int) -> list[tuple[int, int]]:
    """A random bipartite level forest with ``n`` edges (points)."""
    rng = rng_for(POOL_SEED, "forest", n, variant)
    n_u = n_v = 0
    pairs: list[tuple[int, int]] = []
    for j in range(n):
        if j == 0 or rng.random() < 0.12:
            pairs.append((n_u, n_v))
            n_u += 1
            n_v += 1
        elif rng.random() < 0.5:
            pairs.append((rng.randrange(n_u), n_v))
            n_v += 1
        else:
            pairs.append((n_u, rng.randrange(n_v)))
            n_u += 1
    return pairs


def two_line_points(n: int, rng: random.Random):
    """``parallel-segments`` generalized: two horizontal lines sampled at
    ``n / 2`` symmetric abscissas each, under (1, 1) and (1, -1)."""
    if n % 2:
        raise ValueError("two-line samplings need an even n")
    m = n // 2
    delta = Fraction(1, rng.choice((8, 12, 16, 20, 24)))
    xs = [(2 * j + 1 - m) * delta for j in range(m)]
    points = [(x, -delta) for x in xs] + [(x, delta) for x in xs]
    return points, [(1, 1), (1, -1)]


# ---------------------------------------------------------------- sweep


def sweep_case(index: int):
    """Pool case ``index``: a random small configuration in the shape of
    acceptance criterion C03 (n <= 12, k <= 4, d <= 3, coordinates 0..4)
    and its 20 data vectors."""
    rng = rng_for(POOL_SEED, "sweep", index)
    d = rng.randint(1, 3)
    n = rng.randint(1, min(12, 5**d))
    points: set[tuple[int, ...]] = set()
    while len(points) < n:
        points.add(tuple(rng.randrange(5) for _ in range(d)))
    k = rng.randint(1, 4)
    dirs = []
    while len(dirs) < k:
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        if any(v):
            dirs.append(v)
    pts = [tuple(Fraction(c) for c in p) for p in sorted(points)]
    data = [data_vector(rng, n) for _ in range(SWEEP_FITS_PER_OP)]
    return pts, dirs, data


def sweep_order(seed: int) -> list[int]:
    """The run's permutation of the sweep pool; passes consume it in order."""
    order = list(range(SWEEP_POOL_SIZE))
    rng_for("sweep-order", seed).shuffle(order)
    return order


# ---------------------------------------------------------------- decide

DECIDE_PER_FAMILY = 26
# k = 3 grids from 4x4 to 8x8 all admit a closed path (a x 3 grids under
# (1, 1), (1, -1), (1, 0) do not).
GRID_SIZES = range(4, 9)


def _spread(lo: int, hi: int, count: int, i: int) -> int:
    """The middle of the i-th of ``count`` equal strata of [lo, hi]: every
    seed decides the same sizes, so the seed moves geometry, not work."""
    return lo + (hi - lo) * (2 * i + 1) // (2 * count)


def decide_specs(seed: int, pass_no: int) -> list[tuple[str, tuple]]:
    """(reference key, generator args) for one pass of ``decide``."""
    rng = rng_for("decide", seed, pass_no)
    specs = []
    for i in range(DECIDE_PER_FAMILY):
        n = _spread(40, 160, DECIDE_PER_FAMILY, i)
        specs.append((f"stair:{n}", ("stair", n)))
        n = _spread(20, 79, DECIDE_PER_FAMILY, i) * 2 + 1
        specs.append((f"closed:{n + 1}", ("closed", n + 1)))
        n = _spread(100, 400, DECIDE_PER_FAMILY, i)
        specs.append(("generic", ("generic", n)))
        a, b = rng.choice(GRID_SIZES), rng.choice(GRID_SIZES)
        t = rng.randrange(len(DIR_TRIPLES))
        specs.append((f"grid:{a}x{b}:{t}", ("grid", a, b, t)))
    order = list(range(len(specs)))
    rng.shuffle(order)
    return [specs[i] for i in order]


def decide_config(spec: tuple, rng: random.Random):
    kind = spec[0]
    if kind == "stair":
        points, dirs = points_from_level_pairs(staircase_pairs(spec[1]), rng)
    elif kind == "closed":
        points, dirs = points_from_level_pairs(closed_staircase_pairs(spec[1]), rng)
    elif kind == "generic":
        points, dirs = generic_points(spec[1], rng)
    elif kind == "grid":
        _, a, b, t = spec
        points = [(Fraction(i), Fraction(j)) for i in range(a) for j in range(b)]
        dirs = list(DIR_TRIPLES[t])
    else:
        raise ValueError(kind)
    return shifted(points, rng), dirs


def generic_points(n: int, rng: random.Random):
    """n points with k = 3 and every level distinct in every direction."""
    dirs = list(DIR_TRIPLES[rng.randrange(len(DIR_TRIPLES))])
    seen = [set() for _ in dirs]
    points = []
    while len(points) < n:
        p = (_rat(rng, -999, 999, 37), _rat(rng, -999, 999, 37))
        lv = [a[0] * p[0] + a[1] * p[1] for a in dirs]
        if any(v in s for v, s in zip(lv, seen)):
            continue
        for v, s in zip(lv, seen):
            s.add(v)
        points.append(p)
    return points, dirs


# ------------------------------------------------------------- ridge-cold

# 19 sizes, so that the 50th and 90th latency percentiles over one latency per
# op kind fall on a single kind (the 10th and 18th).
RIDGE_SIZES = tuple(16 + 2 * round(i * 24 / 18) for i in range(19))
# One family per size slot (forests with a fixed variant), so that every seed
# does the same elimination work; the seed picks the geometry and the op order.
RIDGE_FAMILIES = (
    "stair", "twoline", "forest", "stair", "closed", "forest", "twoline",
    "stair", "forest", "twoline", "stair", "closed", "forest", "twoline",
    "stair", "forest", "closed", "twoline", "stair",
)
FOREST_VARIANTS = 4


def ridge_specs(seed: int, pass_no: int) -> list[tuple[str, tuple]]:
    """(reference key, generator args) for one pass of ``ridge-cold``: one
    op per size in ``RIDGE_SIZES``."""
    specs = []
    for slot, (n, fam) in enumerate(zip(RIDGE_SIZES, RIDGE_FAMILIES)):
        if fam == "forest":
            v = slot % FOREST_VARIANTS
            specs.append((f"forest:{n}:{v}", ("forest", n, v)))
        else:
            specs.append((f"{fam}:{n}", (fam, n)))
    rng_for("ridge-cold", seed, pass_no).shuffle(specs)
    return specs


def ridge_config(spec: tuple, rng: random.Random):
    """Points, directions and the key-fixed data vector of one ridge op."""
    kind, n = spec[0], spec[1]
    if kind == "stair":
        points, dirs = points_from_level_pairs(staircase_pairs(n), rng)
    elif kind == "closed":
        points, dirs = points_from_level_pairs(closed_staircase_pairs(n), rng)
    elif kind == "forest":
        points, dirs = points_from_level_pairs(forest_pairs(n, spec[2]), rng)
    elif kind == "twoline":
        points, dirs = two_line_points(n, rng)
    else:
        raise ValueError(kind)
    data = data_vector(rng_for(POOL_SEED, "ridge-data", *spec), n)
    return shifted(points, rng), dirs, data


def ridge_path_free(spec: tuple) -> bool:
    return spec[0] != "closed"


# ------------------------------------------------------------------- cli

CURVE_POINTS = 81


def curve_json(rng: random.Random) -> dict:
    """An 81-point monotone curve t -> (t, t - 1/4 + s1, t + 1/4 + s2) under
    the coordinate directions, with seeded small shifts of the window and
    the two offsets."""
    base = Fraction(rng.randint(-8, 8), 160)
    s1 = Fraction(rng.randint(-4, 4), 160)
    s2 = Fraction(rng.randint(-4, 4), 160)
    ts = [Fraction(-1, 2) + base + Fraction(j, CURVE_POINTS - 1) for j in range(CURVE_POINTS)]
    points = [[str(t), str(t - Fraction(1, 4) + s1), str(t + Fraction(1, 4) + s2)] for t in ts]
    return {
        "dimension": 3,
        "points": points,
        "directions": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }


def table_csv(rng: random.Random) -> str:
    """A sampled logistic-like activation with a seeded slope, as x,y CSV."""
    slope = 1.0 + rng.randint(-10, 10) / 100.0
    lines = ["x,y"]
    for i in range(241):
        x = -12.0 + i * 0.1
        lines.append(f"{x!r},{1.0 / (1.0 + math.exp(-slope * x))!r}")
    return "\n".join(lines) + "\n"
