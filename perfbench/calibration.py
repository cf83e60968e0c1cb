"""Convert wall time to reference seconds with an interleaved calibration kernel.

The VMs this benchmark runs on change speed for seconds to tens of seconds at
a time: on a 2-core x86-64 VM a fixed Fraction loop took 13 ms for a minute,
then 26 ms for 30 s.  No run length averages that away.  So a workload
process runs a small fixed kernel that does the same kind of work as its
dominant layer at the reference commit, about every 0.1 s between ops, and
scales each measured time by the kernel's reference time over its median time
in a window around the measurement: the time the op would have taken with
the machine at the speed where the kernel takes its reference time.  The
kernels are frozen benchmark code, not ridgekit, so a change to the library
cannot move them.  Raw wall times are kept in the run record beside the
scaled ones.

The kernel must match the workload: a short interpreter-bound loop slows
about 2x in the slow state, the big-integer elimination of ``ridge-cold``
about 1.4x, so each workload has its own kernel.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
import time
from fractions import Fraction
from math import gcd

import numpy as np

import inputs

CALIB_EVERY_S = 0.1
CALIB_WINDOW_S = 1.0
MIN_SAMPLES = 5


def fraction_sum() -> None:
    """Small-Fraction arithmetic, like the warm fits of ``sweep``."""
    s = Fraction(0)
    for i in range(1, 3000):
        s += Fraction(i % 97, i % 89 + 1)


def _staircase_rows(n: int) -> list[list[int]]:
    pairs = inputs.closed_staircase_pairs(n)
    rows = []
    for side in (0, 1):
        for level in sorted({p[side] for p in pairs}):
            rows.append([1 if p[side] == level else 0 for p in pairs])
    return rows


_ELIMINATION_ROWS = _staircase_rows(40)
_GENERIC_POINTS = [
    (Fraction(7 * i % 101 - 50, i % 13 + 1), Fraction(11 * i % 97 - 48, i % 11 + 1)) for i in range(60)
]


def elimination() -> None:
    """Level grouping by exact dot products plus fraction-free integer
    elimination with right-to-left pivots, like ``decide``."""
    for a in ((1, 0), (0, 1), (1, 1)):
        groups: dict[Fraction, list[int]] = {}
        for j, p in enumerate(_GENERIC_POINTS):
            groups.setdefault(a[0] * p[0] + a[1] * p[1], []).append(j)
        sorted(groups)
    mat = [r[:] for r in _ELIMINATION_ROWS]
    ncols = len(mat[0])
    used = [False] * len(mat)
    for col in range(ncols - 1, -1, -1):
        prow = next((i for i, r in enumerate(mat) if not used[i] and r[col]), None)
        if prow is None:
            continue
        used[prow] = True
        pivot = mat[prow]
        pv = pivot[col]
        for i, r in enumerate(mat):
            if i != prow and r[col]:
                rv = r[col]
                row = [x * pv - y * rv for x, y in zip(r, pivot)]
                g = 0
                for v in row:
                    g = gcd(g, v)
                mat[i] = [v // g for v in row] if g > 1 else row


def _gram_squared(n: int) -> list[list[int]]:
    rows = _staircase_rows(n)
    s = [[sum(r[a] * r[b] for r in rows) for b in range(n)] for a in range(n)]
    return [[sum(s[i][t] * s[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


# Entries scaled up so that, as in the large ridge-cold solves, the time goes
# to big-integer arithmetic rather than to the interpreter.
_GJ_MATRIX = [
    [v * 10**60 + i * 7 + j for j, v in enumerate(row)] for i, row in enumerate(_gram_squared(8))
]


def gauss_jordan() -> None:
    """Dense Fraction Gauss-Jordan with a transformation matrix on a squared
    Gram matrix with big entries, like ``ridge-cold``."""
    n = len(_GJ_MATRIX)
    work = [[Fraction(v) for v in row] for row in _GJ_MATRIX]
    trans = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    prow = 0
    for col in range(n):
        sel = next((i for i in range(prow, n) if work[i][col] != 0), None)
        if sel is None:
            continue
        work[prow], work[sel] = work[sel], work[prow]
        trans[prow], trans[sel] = trans[sel], trans[prow]
        pv = work[prow][col]
        for i in range(n):
            if i != prow and work[i][col] != 0:
                f = work[i][col] / pv
                work[i] = [x - f * y for x, y in zip(work[i], work[prow])]
                trans[i] = [x - f * y for x, y in zip(trans[i], trans[prow])]
        prow += 1


def _logistic(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


_LEVELS = [i / 40 - 1 for i in range(81)]


def column_build() -> None:
    """Scalar activation calls filling dictionary columns plus a small
    least-squares refit, like the netfit runs of ``cli``."""
    cols = np.empty((len(_LEVELS), 320))
    for j in range(320):
        t, th = 2.0 ** (j % 8 - 4), (j // 8) / 20 - 1
        cols[:, j] = [_logistic(t * y - th) for y in _LEVELS]
    np.linalg.lstsq(cols[:, :16], np.ones(len(_LEVELS)), rcond=None)


# kernel -> (function, reference seconds: its time on a 2-core x86-64 VM at
# the VM's fast speed)
KERNELS = {
    "fraction_sum": (fraction_sum, 0.0070),
    "elimination": (elimination, 0.0065),
    "gauss_jordan": (gauss_jordan, 0.0065),
    "column_build": (column_build, 0.0052),
}


class SpeedClock:
    """Calibration samples of one process and the scale factor they imply."""

    def __init__(self, kernel: str | None):
        """``kernel`` None: no calibration, every factor is 1."""
        self.kernel, self.ref_s = KERNELS[kernel] if kernel else (None, 1.0)
        self.times: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        if self.kernel is None:
            return
        # Without this, a collection triggered by the kernel's allocations
        # would walk the workload's heap (the solver cache grows to 128 large
        # factorizations) and the kernel would time that, not the machine.
        enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            self.kernel()
            duration = time.perf_counter() - t
        finally:
            if enabled:
                gc.enable()
        self.times.append(t)
        self.durations.append(duration)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= CALIB_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Reference time over the median kernel time near [start, end]."""
        if self.kernel is None:
            return 1.0
        lo = bisect.bisect_left(self.times, start - CALIB_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CALIB_WINDOW_S)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return self.ref_s / statistics.median(self.durations[lo:hi])

    def scaled(self, start: float, duration: float) -> float:
        return duration * self.factor(start, start + duration)
