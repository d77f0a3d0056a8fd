"""Drift correction: a fixed reference computation timed between operations.

The host's speed drifts by tens of percent over a minute, and CPU time
tracks wall time, so the program's own timings cannot tell a slower program
from a slower host.  The reference is the same mix the program spends its
time in: 3x3 numpy algebra with Python float arithmetic, and the full-grid
numpy temporaries of the ellipse IoU.  A time measured in
a window is scaled by ``NOMINAL_S`` over the reference's duration in that
window, which expresses it at the host's nominal speed.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

SMALL_REPS = 100    # 3x3 solves and products with Python float arithmetic
GRID_REPS = 6       # inside-ellipse tests on a 128 x 128 grid, as ellipse_iou does
NOMINAL_S = 2.3e-3  # mean reference() on the reference machine in a quiet spell (README)
GAP_SHARE = 0.05    # reference time between operations, as a share of the last one
MIN_SAMPLES = 3

_A = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
_V = np.array([1.0, -2.0, 0.5])
_XS = (np.arange(128) + 0.5) / 128.0


def reference():
    """Deterministic work of fixed size; returns a checksum so none of it is
    skipped.  Half of it is small-matrix algebra, half the full-grid numpy
    temporaries of the IoU: slow spells hit the two kinds unequally."""
    M = _A
    acc = 0.0
    for _ in range(SMALL_REPS):
        x = np.linalg.solve(M @ _A, _V)
        a, b, c = float(x[0]), float(x[1]), float(x[2])
        n = math.sqrt(a * a + b * b + c * c)
        M = np.array([[4.0 + a / n, b, c], [b, 3.0, 0.25], [c, 0.25, 2.0 + abs(c) / n]])
        acc += n
    for k in range(GRID_REPS):
        dx = _XS[None, :] - 0.5 - 0.01 * k
        dy = _XS[:, None] - 0.45
        u = (0.8 * dx + 0.6 * dy) / 0.3
        v = (-0.6 * dx + 0.8 * dy) / 0.2
        inside = u * u + v * v <= 1.0
        other = dx * dx / 0.09 + dy * dy / 0.04 <= 1.0
        acc += int(np.count_nonzero(inside & other)) / int(np.count_nonzero(inside | other))
    return acc


def reference_samples(n):
    """Durations of ``n`` timed references."""
    out, sums = [], set()
    for _ in range(n):
        t = time.perf_counter()
        sums.add(reference())
        out.append(time.perf_counter() - t)
    if len(sums) != 1:
        raise RuntimeError("reference computation is not deterministic")
    return out


def gap_samples(last_s=0.0):
    """References run between two operations: ``GAP_SHARE`` of the last
    operation's duration, at least ``MIN_SAMPLES`` of them."""
    return reference_samples(max(MIN_SAMPLES, math.ceil(GAP_SHARE * last_s / NOMINAL_S)))


def factor(*gaps):
    """Nominal over the mean reference duration of the given gaps.  The mean,
    not the median: a slow spell that hits a few samples also hits the
    operation beside them."""
    return NOMINAL_S / statistics.fmean([x for gap in gaps for x in gap])


def corrected(raw, gaps):
    """Scale ``raw[i]``, timed between ``gaps[i]`` and ``gaps[i + 1]``, by
    the factor of those two gaps."""
    return [r * factor(gaps[i], gaps[i + 1]) for i, r in enumerate(raw)]
