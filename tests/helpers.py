"""Shared test utilities: independent oracles and random instance generators.

The null-space oracle here is a deliberately plain textbook Gauss-Jordan over
``Fraction`` with left-to-right pivoting — a different algorithm and pivot
order than the package's fraction-free right-to-left elimination, so the two
routes are genuinely independent.  The same elimination solves linear systems
(:func:`rref_solve`) and gives the textbook minimum-norm ridge fit
(:func:`textbook_min_norm_fit`, normal equations plus a Gram-Schmidt
projection).  The incidence rows are built here from the
textbook ``Fraction`` dot product, not from ``Direction.dot`` or the
package's integer-keyed level index, and the textbook certificate sorts its
support by ``Fraction`` coordinates.  The textbook weak-star probe walks its
bolt with four ``Fraction`` dot products per step, groups levels in dicts and
sums in plain ``Fraction``s.  The textbook activation places each segment
argument from ``t`` by the affine map, decodes the index afresh on every
call and evaluates by a ``Fraction`` Horner.  The textbook threshold grid
steps through the interval in ``Fraction``s.  The textbook network evaluator
and replay form every term argument at one point at a time through
``textbook_dot``, not over the points' common denominator, and evaluate the
constructed activation by the textbook activation.  The textbook dictionary
evaluates the activation on the whole levels x atoms argument at once and
takes ``np.linalg.norm`` of the result; the textbook greedy fit runs on it,
with its scales and thresholds stepped in ``Fraction``s.  The textbook
profile encoder scores every distinct rounding candidate with ``polyval`` on
the whole validation grid.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd, lcm
from operator import mul

import numpy as np

from ridgekit import (
    ActivationSpec,
    Bolt,
    BoltGenerationError,
    EncoderBudgetError,
    FitBudgetError,
    PointConfig,
    ProbeReport,
    RationalPoly,
    RidgeTest,
    ThetaInterval,
    UnivariateEncoding,
    UnivariateFit,
    decode_poly,
    encode_poly,
    smooth_step,
)
from ridgekit import kfit, netapprox
from ridgekit.rationals import rationalize


def rref(rows: list[list], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Forward-order Gauss-Jordan over ``Fraction``, pivoting in the first
    ``ncols`` columns only (later columns ride along as right-hand sides).
    Returns the reduced rows and the pivot columns; row ``i`` holds the
    pivot of ``pivot_cols[i]``, and rows past the last pivot are zero in the
    first ``ncols`` columns."""
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
        prow = mat[r] = [v / pv for v in mat[r]]
        support = [j for j, v in enumerate(prow) if v]
        for i in range(nrows):
            if i != r and mat[i][c] != 0:
                row, factor = mat[i], mat[i][c]
                for j in support:
                    row[j] -= factor * prow[j]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    return mat, pivot_cols


def rref_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Brute-force rational null-space basis via forward-order Gauss-Jordan."""
    mat, pivot_cols = rref(rows, ncols)
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivot_cols):
            vec[pc] = -mat[row_idx][fc]
        basis.append(vec)
    return basis


def normalize_coprime(vec: list[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, first nonzero entry
    positive: the normal form the package's null-space basis uses."""
    scale = lcm(*(v.denominator for v in vec))
    ints = [int(v * scale) for v in vec]
    g = gcd(*ints) or 1
    if next((v for v in ints if v), 0) < 0:
        g = -g
    return tuple(v // g for v in ints)


def right_to_left_oracle(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """The package's right-to-left null-space basis, independently: textbook
    left-to-right RREF of the column-reversed matrix, each vector reversed
    back, then normalized."""
    reversed_rows = [list(row)[::-1] for row in rows]
    return [normalize_coprime(vec[::-1]) for vec in rref_nullspace(reversed_rows, ncols)]


def rref_solve(rows: list[list[int]], ncols: int, rhs: list) -> list[Fraction]:
    """The solution of ``A x = rhs`` with every non-pivot (free) variable
    zero, by forward-order Gauss-Jordan on ``[A | rhs]``; raises
    ``ValueError`` for an inconsistent system."""
    mat, pivot_cols = rref([list(row) + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[ncols] != 0 for row in mat[len(pivot_cols):]):
        raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * ncols
    for row, pc in zip(mat, pivot_cols):
        x[pc] = row[ncols]
    return x


def textbook_dot(a, p) -> Fraction:
    """``a . p`` as a plain sum of ``Fraction`` products."""
    return sum((c * x for c, x in zip(a.coords, p.coords)), Fraction(0))


def textbook_levels(cfg: PointConfig) -> list[list[Fraction]]:
    """Sorted distinct projection levels, one list per direction."""
    return [sorted({textbook_dot(a, p) for p in cfg.points}) for a in cfg.dirs]


def level_rows(cfg: PointConfig) -> list[list[int]]:
    """0/1 incidence rows, one per (direction, level), levels increasing."""
    rows = []
    for a in cfg.dirs:
        proj = [textbook_dot(a, p) for p in cfg.points]
        for level in sorted(set(proj)):
            rows.append([int(v == level) for v in proj])
    return rows


def sparse_rows(rows: list[list[int]]) -> list[dict[int, int]]:
    """Dense integer rows as the ``{column: nonzero value}`` rows that the
    library's elimination takes."""
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def oracle_has_closed_path(cfg: PointConfig) -> bool:
    return bool(rref_nullspace(level_rows(cfg), cfg.n))


def textbook_certificate(cfg: PointConfig) -> list[tuple[tuple[Fraction, ...], int]] | None:
    """The closed-path certificate as ``(coordinates, weight)`` pairs, or None
    without a closed path: the first vector of :func:`right_to_left_oracle`
    on the textbook level rows, kept on its support, sorted by the points'
    ``Fraction`` coordinates and signed so that the first weight is positive."""
    basis = right_to_left_oracle(level_rows(cfg), cfg.n)
    if not basis:
        return None
    atoms = sorted((p.coords, w) for p, w in zip(cfg.points, basis[0]) if w)
    sign = 1 if atoms[0][1] > 0 else -1
    return [(coords, sign * w) for coords, w in atoms]


def _dot(u: list, v: list) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def textbook_min_norm_fit(
    cfg: PointConfig, vectors: list[list]
) -> list[tuple[list[list[Fraction]], Fraction]]:
    """The minimum-norm least-squares solution ``u`` of ``M^T u = f`` for
    each data vector, split per direction, and its residual ``max |f - M^T u|``.

    Textbook route: Gauss-Jordan on the normal equations ``M M^T u = M f``
    (all vectors as right-hand sides of one elimination), then subtract from
    the particular solution its projection on ``null(M M^T) = null(M^T)``,
    which is orthogonal to ``range(M)``; the projection uses a Gram-Schmidt
    basis of the null space read from the same reduced rows.
    """
    rows = level_rows(cfg)
    nl = len(rows)
    fs = [[rationalize(v) for v in vec] for vec in vectors]
    aug = [
        [sum(map(mul, ra, rb)) for rb in rows]
        + [sum((x for m, x in zip(ra, f) if m), Fraction(0)) for f in fs]
        for ra in rows
    ]
    mat, pivot_cols = rref(aug, nl)
    ortho: list[tuple[list[Fraction], Fraction]] = []  # (vector, its square norm)
    for fc in (c for c in range(nl) if c not in pivot_cols):
        w = [Fraction(0)] * nl
        w[fc] = Fraction(1)
        for row, pc in zip(mat, pivot_cols):
            w[pc] = -row[fc]
        for o, oo in ortho:
            c = _dot(w, o) / oo
            w = [a - c * b for a, b in zip(w, o)]
        ortho.append((w, _dot(w, w)))
    counts = [len(lv) for lv in textbook_levels(cfg)]
    out = []
    for k, f in enumerate(fs):
        u = [Fraction(0)] * nl
        for row, pc in zip(mat, pivot_cols):
            u[pc] = row[nl + k]
        for o, oo in ortho:
            c = _dot(u, o) / oo
            u = [a - c * b for a, b in zip(u, o)]
        fitted = [
            sum((ui for row, ui in zip(rows, u) if row[j]), Fraction(0)) for j in range(cfg.n)
        ]
        residual = max(abs(a - b) for a, b in zip(f, fitted))
        split, pos = [], 0
        for count in counts:
            split.append(u[pos : pos + count])
            pos += count
        out.append((split, residual))
    return out


def large_config(rng: random.Random, family: str, n: int) -> PointConfig:
    """A seeded configuration of about ``n`` points.  The k = 2 families are
    given as level-index pairs under the two axis directions, with random
    rational level values: a staircase (a path in the level graph), the same
    closed into a cycle by one more point, or a random level forest.  The
    k = 3 families are the near-square grid with a diagonal direction and a
    generic set of random rational points (almost surely all levels distinct)."""
    if family == "grid":
        a = int(n**0.5)
        points = [(i, j) for i in range(a) for j in range(n // a)]
        return PointConfig.build(points, [(1, 0), (0, 1), (1, rng.choice((1, -1)))])
    if family == "generic":
        points = {(Fraction(rng.randint(-999, 999), 37), Fraction(rng.randint(-999, 999), 37))
                  for _ in range(n)}
        return PointConfig.build(sorted(points), [(1, 0), (0, 1), (1, 1)])
    if family == "forest":
        pairs = [(0, 0)]
        sizes = [1, 1]
        while len(pairs) < n:
            side = rng.randrange(2)
            old = rng.randrange(sizes[side])
            pair = [0, 0]
            pair[side], pair[1 - side] = old, sizes[1 - side]
            sizes[1 - side] += 1
            pairs.append(tuple(pair))
    else:
        m = n - 1 if family == "closed-staircase" else n
        pairs = [((i + 1) // 2, i // 2) for i in range(m)]
        if family == "closed-staircase":
            pairs.append((0, pairs[-1][1]))
    rng.shuffle(pairs)
    values = [
        sorted(rng.sample(range(-999, 1000), 1 + max(p[side] for p in pairs)))
        for side in (0, 1)
    ]
    points = [(Fraction(values[0][i], 7), Fraction(values[1][j], 5)) for i, j in pairs]
    return PointConfig.build(points, [(1, 0), (0, 1)])


def _level_tree(rng: random.Random, size: int) -> tuple[list[tuple[int, int]], list[int]]:
    """A random tree of ``size`` level pairs, grown as the ``forest`` family
    of :func:`large_config` grows its one tree, and its level counts."""
    tree = [(0, 0)]
    counts = [1, 1]
    while len(tree) < size:
        side = rng.randrange(2)
        pair = [0, 0]
        pair[side], pair[1 - side] = rng.randrange(counts[side]), counts[1 - side]
        counts[1 - side] += 1
        tree.append(tuple(pair))
    return tree, counts


def _on_levels(rng: random.Random, pairs: list[tuple[int, int]], counts: list[int]) -> PointConfig:
    """Level-index pairs in a seeded order, placed on random rational levels
    under the two axis directions."""
    rng.shuffle(pairs)
    values = [sorted(rng.sample(range(-999, 1000), count)) for count in counts]
    points = [(Fraction(values[0][i], 7), Fraction(values[1][j], 5)) for i, j in pairs]
    return PointConfig.build(points, [(1, 0), (0, 1)])


def level_forest(rng: random.Random, sizes: list[int]) -> PointConfig:
    """A k = 2 level forest under the two axis directions: one random tree of
    each size in ``sizes`` (grown as the ``forest`` family of
    :func:`large_config` grows its one tree), the trees on disjoint levels.
    The level graph has ``len(sizes)`` components, so ``L = n + len(sizes)``."""
    pairs: list[tuple[int, int]] = []
    base = [0, 0]
    for size in sizes:
        tree, counts = _level_tree(rng, size)
        pairs += [(base[0] + i, base[1] + j) for i, j in tree]
        base = [base[0] + counts[0], base[1] + counts[1]]
    return _on_levels(rng, pairs, base)


def level_cactus(rng: random.Random, sizes: list[int]) -> PointConfig:
    """A connected k = 2 level graph whose cycles share no point: one random
    tree of each size in ``sizes`` on its own levels, closed into one cycle by
    one more point where two of its levels are not yet joined, and joined to
    the previous tree by one point between their levels, which closes
    nothing."""
    pairs: list[tuple[int, int]] = []
    base = [0, 0]
    for size in sizes:
        tree, counts = _level_tree(rng, size)
        taken = set(tree)
        free = [(i, j) for i in range(counts[0]) for j in range(counts[1]) if (i, j) not in taken]
        if free:
            tree.append(rng.choice(free))
        if pairs:
            tree.append((rng.randrange(-base[0], 0), rng.randrange(counts[1])))
        pairs += [(base[0] + i, base[1] + j) for i, j in tree]
        base = [base[0] + counts[0], base[1] + counts[1]]
    return _on_levels(rng, pairs, base)


def level_multigraph(rng: random.Random, shape: str) -> PointConfig:
    """A seeded k = 2 configuration whose level graph may have cycles.

    ``"plane"``: 2-d points on random rational rows and columns under the
    axis directions.  ``"shared"``: the same in 3-d with a third coordinate
    from {0, 1, 2}, so several points may share both levels (parallel edges,
    whose 2-cycles are the shortest closed paths).  ``"parallel"``: small
    2-d points under the parallel directions (1, -1) and (-2, 2), whose
    levels pair up in reverse order, so points sharing one level share both.
    """
    if shape == "parallel":
        points = {(Fraction(rng.randint(0, 6)), Fraction(rng.randint(0, 6), rng.choice((1, 2, 3))))
                  for _ in range(rng.randint(1, 24))}
        dirs = [(1, -1), (-2, 2)]
    else:
        rows = sorted({Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(1, 20))})
        cols = sorted({Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(rng.randint(1, 20))})
        extra = [()] if shape == "plane" else [(Fraction(z),) for z in range(3)]
        nodes = len(rows) + len(cols)
        points = {(rng.choice(rows), rng.choice(cols), *rng.choice(extra))
                  for _ in range(rng.randint(nodes // 2, nodes + 2))}
        dirs = [(1, 0), (0, 1)] if shape == "plane" else [(1, 0, 0), (0, 1, 0)]
    ordered = sorted(points)
    rng.shuffle(ordered)
    return PointConfig.build(ordered, dirs)


def textbook_orbits(cfg: PointConfig) -> tuple[tuple[int, ...], ...]:
    """Connected components of the points under level sharing: a
    breadth-first search over the point pairs that share a textbook level
    along some direction.  Each component is sorted, and the components are
    ordered by their first points."""
    proj = [[textbook_dot(a, p) for a in cfg.dirs] for p in cfg.points]
    seen = [False] * cfg.n
    out = []
    for start in range(cfg.n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        for j in component:
            for t in range(cfg.n):
                if not seen[t] and any(u == v for u, v in zip(proj[j], proj[t])):
                    seen[t] = True
                    component.append(t)
        out.append(tuple(sorted(component)))
    return tuple(out)


def textbook_shared_pair(cfg: PointConfig) -> tuple[int, int] | None:
    """The first pair ``(i, j)``, ``i < j``, of points whose textbook levels
    are equal along every direction, in the order ``j`` then ``i``, or None."""
    proj = [[textbook_dot(a, p) for a in cfg.dirs] for p in cfg.points]
    for j in range(cfg.n):
        for i in range(j):
            if proj[i] == proj[j]:
                return i, j
    return None


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


def textbook_bolt(gen, n: int) -> Bolt:
    """The first ``n`` points of a generated bolt, every step checked by
    recomputing both points' levels."""
    if n < 1:
        raise ValueError("n must be positive")
    pts = [gen.initial]
    seen = {gen.initial.coords}
    current = gen.initial
    for step in range(1, n):
        nxt = gen.rule(current)
        if nxt.coords == current.coords:
            raise BoltGenerationError(step, "rule repeated the previous point")
        fam = gen.first_link if (step - 1) % 2 == 0 else 3 - gen.first_link
        along = gen.a1 if fam == 1 else gen.a2
        across = gen.a2 if fam == 1 else gen.a1
        if textbook_dot(along, nxt) != textbook_dot(along, current):
            raise BoltGenerationError(step, f"step is not perpendicular to direction {fam}")
        if textbook_dot(across, nxt) == textbook_dot(across, current):
            raise BoltGenerationError(step, "step shares both levels")
        if nxt.coords in seen:
            raise BoltGenerationError(step, "rule revisited an earlier point")
        seen.add(nxt.coords)
        pts.append(nxt)
        current = nxt
    return Bolt(tuple(pts), gen.first_link)


def textbook_probe(gen, tests, n_max: int, threshold=Fraction(1, 100)) -> ProbeReport:
    """The weak-star probe with dict-grouped levels and ``Fraction`` partial
    sums; a pointwise test continues in floats once it returns a float."""
    thr = rationalize(threshold)
    bolt = textbook_bolt(gen, n_max)
    u_levels = [textbook_dot(gen.a1, p) for p in bolt.points]
    v_levels = [textbook_dot(gen.a2, p) for p in bolt.points]
    ridge_ok = pointwise_ok = True
    per_test = []
    for test in tests:
        values = []
        partial = Fraction(0)
        if isinstance(test, RidgeTest):
            g1 = {lv: rationalize(test.profile1(lv)) for lv in set(u_levels)}
            g2 = {lv: rationalize(test.profile2(lv)) for lv in set(v_levels)}
            bound = 2 * (max(map(abs, g1.values())) + max(map(abs, g2.values())))
            for j in range(n_max):
                partial += (-1) ** j * (g1[u_levels[j]] + g2[v_levels[j]])
                ridge_ok = ridge_ok and abs(partial) <= bound
                values.append(abs(partial) / (j + 1))
        else:
            fpartial = None
            for j, p in enumerate(bolt.points):
                val = test.func(p)
                if fpartial is None and isinstance(val, float):
                    fpartial = float(partial)
                if fpartial is None:
                    partial += (-1) ** j * rationalize(val)
                    values.append(abs(partial) / (j + 1))
                else:
                    fpartial += (-1) ** j * float(val)
                    values.append(abs(fpartial) / (j + 1))
            final = values[-1]
            pointwise_ok = pointwise_ok and final <= (float(thr) if fpartial is not None else thr)
        per_test.append(values)
    rows = [
        (n, test.name, float(values[n - 1]))
        for n in range(1, n_max + 1)
        for test, values in zip(tests, per_test)
    ]
    return ProbeReport(
        n_max=n_max,
        rows=rows,
        final_values={test.name: float(values[-1]) for test, values in zip(tests, per_test)},
        ridge_bounds_ok=ridge_ok,
        threshold=float(thr),
        verdict="consistent-with-zero" if ridge_ok and pointwise_ok else "inconclusive",
        bolt=bolt,
    )


def textbook_poly_value(poly: RationalPoly, t: Fraction) -> Fraction:
    """``poly(t)`` by a ``Fraction`` Horner over the sparse terms, top term first."""
    if poly.is_zero:
        return Fraction(0)
    total = Fraction(0)
    prev = poly.degree
    for e, c in reversed(poly.terms):
        total = total * t ** (prev - e) + c
        prev = e
    return total * t**prev


def textbook_sigma(spec: ActivationSpec, t: Fraction) -> Fraction | float:
    """The constructed activation as the module docstring defines it: the
    m-th polynomial at ``(2 l / alpha) t - 4 m l + l`` on the m-th carrier
    segment, the smooth blend of the two neighbouring extensions on a gap,
    and the first extension windowed down over one unit below the first
    segment.  Every segment value decodes its index afresh."""

    def extended(m: int) -> Fraction:
        tau = (2 * spec.half_width / spec.alpha) * t - 4 * m * spec.half_width + spec.half_width
        return textbook_poly_value(decode_poly(m), tau)

    q = t / spec.alpha
    kappa = float(spec.sharpness)
    if q >= 1:
        m = math.ceil(q / 2)
        if q >= 2 * m - 1:
            return extended(m)
        w = smooth_step(float(q - (2 * m - 2)), kappa)
        return (1.0 - w) * float(extended(m - 1)) + w * float(extended(m))
    window = t - (spec.alpha - 1)
    if window <= 0:
        return 0.0
    return smooth_step(float(window), kappa) * float(extended(1))


def random_rational(rng: random.Random, max_num: int = 50, max_den: int = 12) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_sparse_poly(rng: random.Random, max_degree: int = 12) -> RationalPoly:
    """A seeded polynomial with random exponent gaps; one in ten is zero and one in ten a constant."""
    roll = rng.random()
    degree = -1 if roll < 0.1 else 0 if roll < 0.2 else rng.randint(1, max_degree)
    exponents = sorted(rng.sample(range(degree), rng.randint(0, degree)) + [degree]) if degree >= 0 else []
    terms = []
    for e in exponents:
        c = random_rational(rng, 1000, 97)
        terms.append((e, c or Fraction(1)))
    return RationalPoly(tuple(terms))


def interior_grid(theta: ThetaInterval, count: int) -> list[Fraction]:
    """``count`` equispaced rationals strictly inside the interval, by ``Fraction`` steps."""
    step = (theta.hi - theta.lo) / (count + 1)
    return [theta.lo + step * (j + 1) for j in range(count)]


def textbook_dictionary(ys: np.ndarray, ft: np.ndarray, fth: np.ndarray, sigma) -> tuple[np.ndarray, np.ndarray]:
    """The levels x atoms dictionary ``sigma(ft[j] * ys - fth[j])``, the
    activation evaluated on the whole argument array at once, and its column
    norms by ``np.linalg.norm``."""
    argument = np.multiply.outer(ys, ft) - fth
    columns = np.empty(argument.shape)
    columns[...] = sigma.evaluate(argument)
    return columns, np.linalg.norm(columns, axis=0)


def textbook_atoms(theta: ThetaInterval, exp_range: int, count: int) -> list[tuple[Fraction, Fraction]]:
    """The atoms ``(t, theta)`` of one round, scale by scale: ``t`` runs
    through ``2^e, -2^e`` for ``e = -exp_range .. exp_range`` and the
    thresholds through ``interior_grid(theta, count)``."""
    scales = [s * Fraction(2) ** e for e in range(-exp_range, exp_range + 1) for s in (1, -1)]
    thetas = interior_grid(theta, count)
    return [(t, th) for t in scales for th in thetas]


def textbook_approx_univariate(levels, targets, sigma, theta: ThetaInterval, eps: float) -> UnivariateFit:
    """The greedy dictionary fit on :func:`textbook_dictionary`.

    The first round has :func:`textbook_atoms` with ``exp_range`` 8 and
    ``count`` 257; each later round doubles ``exp_range`` and doubles
    ``count`` plus one.  Each step adds the usable atom of largest normalized residual
    correlation and refits all selected atoms by least squares, until the
    worst level error is within ``eps`` or ``netapprox._ATOM_BUDGET`` atoms
    are in; a round whose dictionary would exceed
    ``netapprox.MAX_DICTIONARY_ENTRIES``, or the end of
    ``netapprox._ROUNDS`` rounds, raises ``FitBudgetError`` with the best
    error seen.
    """
    ys = np.array([float(rationalize(v)) for v in levels])
    f = np.array([float(rationalize(v)) for v in targets])
    best_error = float(np.max(np.abs(f)))
    if best_error <= eps:
        return UnivariateFit((), best_error)
    exp_range, theta_count = 8, 257
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(netapprox._ROUNDS):
            if f.size * (4 * exp_range + 2) * theta_count > netapprox.MAX_DICTIONARY_ENTRIES:
                raise FitBudgetError(best_error)
            atoms = textbook_atoms(theta, exp_range, theta_count)
            ft = np.array([float(t) for t, _ in atoms])
            fth = np.array([float(th) for _, th in atoms])
            columns, norms = textbook_dictionary(ys, ft, fth, sigma)
            unusable = ~(norms > 1e-12)
            selected: list[int] = []
            residual = f
            while len(selected) < netapprox._ATOM_BUDGET:
                corr = np.abs(residual @ columns)
                corr[unusable] = -1.0
                corr[selected] = -1.0
                j = int(np.argmax(corr / np.where(unusable, 1.0, norms)))
                if corr[j] <= 0:
                    break
                selected.append(j)
                sub = columns[:, selected]
                coef = np.linalg.lstsq(sub, f, rcond=None)[0]
                residual = f - sub @ coef
                err = float(np.max(np.abs(residual)))
                best_error = min(best_error, err)
                if err <= eps:
                    return UnivariateFit(tuple((Fraction(float(c)), *atoms[jj]) for c, jj in zip(coef, selected)), err)
            exp_range, theta_count = 2 * exp_range, 2 * theta_count + 1
    raise FitBudgetError(best_error)


def textbook_eval_network(net, x) -> Fraction | float:
    """The network at ``x``, one term at a time: each argument is
    ``textbook_dot(w, x) - theta`` as one ``Fraction``.  The constructed
    activation (:func:`textbook_sigma`) adds segment values exactly and gap
    values in floats, and the total is a float once one gap value is; an
    oracle's ``evaluator`` gets ``float`` of the argument."""
    if isinstance(net.activation, ActivationSpec):
        exact_total, float_total, has_float = Fraction(0), 0.0, False
        for term in net.terms:
            value = textbook_sigma(net.activation, textbook_dot(term.w, x) - term.theta)
            if isinstance(value, Fraction):
                exact_total += term.c * value
            else:
                float_total += float(term.c) * value
                has_float = True
        return float(exact_total) + float_total if has_float else exact_total
    total = 0.0
    for term in net.terms:
        total += float(term.c) * net.activation.evaluator(float(textbook_dot(term.w, x) - term.theta))
    return total


def textbook_replayed_error(cfg: PointConfig, values, net) -> float:
    """``max |f(x) - N(x)|`` over the configuration points, with ``N(x)``
    from :func:`textbook_eval_network`."""
    replayed = 0.0
    for point, fv in zip(cfg.points, values):
        replayed = max(replayed, abs(float(rationalize(fv)) - textbook_eval_network(net, point)))
    return replayed


def textbook_encode(sample, exact, eps_over_k: float, spec: ActivationSpec) -> UnivariateEncoding:
    """``kfit._encode`` scoring every distinct rounding candidate on the
    whole validation grid: the same Chebyshev fits, rounding ladder,
    deduplication, exact-match branch, cap checks and messages, and each
    candidate's error is ``max |target - polyval(grid, c)|``."""
    if not eps_over_k > 0:
        raise ValueError("the error budget must be positive")
    xi_nodes, t_nodes, grid = kfit._sample_points(spec)
    samples = sample(t_nodes)
    grid_target = sample(grid)
    best_error = math.inf
    tried = False
    skipped = ""
    powers = [Fraction(spec.half_width) ** i for i in range(kfit._MAX_DEGREE + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        for degree in range(kfit._MAX_DEGREE + 1):
            power_xi = np.polynomial.chebyshev.cheb2poly(
                np.polynomial.chebyshev.chebfit(xi_nodes, samples, degree)
            )
            coeff_floats = [float(power_xi[i]) / float(powers[i]) for i in range(degree + 1)]
            if not all(abs(c) <= kfit._MAX_ABS_COEFF for c in coeff_floats):
                continue
            tried = True
            seen = set()
            for ratios in zip(*map(kfit._best_approximations, coeff_floats)):
                if ratios in seen:
                    continue
                seen.add(ratios)
                cand = RationalPoly.from_coefficients([Fraction(n, d) for n, d in ratios])
                if exact is not None and cand == exact:
                    err = 0.0
                else:
                    approx = np.polynomial.polynomial.polyval(grid, [float(Fraction(n, d)) for n, d in ratios])
                    err = float(np.max(np.abs(grid_target - approx)))
                best_error = min(best_error, err)
                if not err <= eps_over_k:
                    continue
                try:
                    index = encode_poly(cand)
                except OverflowError as exc:
                    skipped = f"every candidate within the error budget was skipped: {exc}"
                    continue
                return UnivariateEncoding(index, spec.scale, spec.shift_for_index(index), err, cand)
    if not tried:
        skipped = (
            "could not reach the requested accuracy: every fit has a coefficient "
            f"beyond the {kfit._MAX_ABS_COEFF:,} coefficient cap"
        )
    raise EncoderBudgetError(best_error, skipped)
