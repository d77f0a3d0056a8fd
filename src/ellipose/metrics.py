"""Pose evaluation metrics: rotation/position error, reprojection error,
ADD and a deterministic ellipse IoU."""

from __future__ import annotations

import math

import numpy as np

from .errors import BehindCamera, EmptyPointSet
from .geometry import CameraModel, Ellipse, Pose, _bbox_half


def rotation_distance(R1: np.ndarray, R2: np.ndarray) -> float:
    """Geodesic angle between two rotations, stable near 0 and pi.

    Equivalent to acos((trace(R1^T R2) - 1) / 2) through the identity
    ||R1 - R2||_F = 2 sqrt(2) sin(angle / 2), which evaluates exactly to 0
    for identical matrices.
    """
    s = float(np.linalg.norm(np.asarray(R1) - np.asarray(R2))) / (2.0 * math.sqrt(2.0))
    return 2.0 * math.asin(min(1.0, s))


def pose_errors(est: Pose, gt: Pose):
    """(geodesic rotation error in radians, camera-center distance)."""
    rot = rotation_distance(est.R, gt.R)
    pos = float(np.linalg.norm(est.camera_center - gt.camera_center))
    return rot, pos


def _project(pose: Pose, cam: CameraModel, pts: np.ndarray) -> np.ndarray:
    pc = pts @ pose.R.T + pose.t
    if np.any(pc[:, 2] <= 0.0):
        raise BehindCamera("point with non-positive depth")
    uv = pc[:, :2] / pc[:, 2:3]
    return uv @ cam.K[:2, :2].T + cam.K[:2, 2]


def reprojection_error(est: Pose, gt: Pose, cam: CameraModel, points3d) -> float:
    """Mean pixel distance between projections under the two poses."""
    pts = np.atleast_2d(np.asarray(points3d, float))
    if pts.size == 0:
        raise EmptyPointSet("no points to reproject")
    return float(np.linalg.norm(_project(est, cam, pts) - _project(gt, cam, pts), axis=1).mean())


def add_error(est: Pose, gt: Pose, points3d) -> float:
    """Mean 3D distance between the camera-frame point clouds."""
    pts = np.atleast_2d(np.asarray(points3d, float))
    if pts.size == 0:
        raise EmptyPointSet("no points for ADD")
    d = (pts @ est.R.T + est.t) - (pts @ gt.R.T + gt.t)
    return float(np.linalg.norm(d, axis=1).mean())


def ellipse_iou(e1: Ellipse, e2: Ellipse, grid: int = 512) -> float:
    """Deterministic grid estimate of the intersection-over-union.

    Counts the ``grid`` x ``grid`` cell centers over the union of the two
    bounding boxes that fall inside each ellipse.  The inside cells of one
    grid row form a span, found in closed form and settled by the exact
    inside test of its end cells, so the counts, and the IoU, equal a test
    of every cell while memory stays O(grid).  The absolute error against
    the true IoU is O(perimeter * cell / area), about 0.5% at the default
    resolution for moderately eccentric ellipses.
    """
    iou = _ellipse_ious(
        e1.center[None], e1.axes[None], np.array([e1.angle]),
        e2.center[None], e2.axes[None], np.array([e2.angle]), grid,
    )
    return float(iou[0])


def _ellipse_ious(c1, ax1, ang1, c2, ax2, ang2, grid):
    """IoUs (n,) on :func:`ellipse_iou`'s grid of n ellipse pairs, each side
    given as centers (n,2), semi-axes (n,2) and angles (n,).

    The cosines, sines and bounding boxes are taken per ellipse in Python
    floats, with the arithmetic of :func:`_bbox_half`, and each cell
    is placed and tested with the grid's own expressions: the counts are
    then those of testing all cells.
    """
    n = len(c1)
    if n == 0:
        return np.zeros(0)
    centers = np.concatenate([c1, c2])  # both sides as one stack of 2n ellipses
    axes = np.concatenate([ax1, ax2])
    angles = np.concatenate([ang1, ang2]).tolist()
    c = np.array([math.cos(t) for t in angles])[:, None]
    s = np.array([math.sin(t) for t in angles])[:, None]
    half = np.array([_bbox_half(a, b, t) for (a, b), t in zip(axes.tolist(), angles)])
    lo = np.minimum(centers[:n] - half[:n], centers[n:] - half[n:])
    width = np.maximum(centers[:n] + half[:n], centers[n:] + half[n:]) - lo
    lo, width = np.concatenate([lo, lo]), np.concatenate([width, width])
    x_lo, x_w = lo[:, 0:1], width[:, 0:1]
    ys = lo[:, 1:2] + (np.arange(grid) + 0.5) * width[:, 1:2] / grid  # (2n, grid) row centers
    cx, cy = centers[:, 0:1], centers[:, 1:2]
    a, b = axes[:, 0:1], axes[:, 1:2]
    dy = ys - cy

    # each row's inside chord in closed form: p dx^2 + 2 q dx dy + r dy^2 <= 1
    # with p r - q^2 = 1 / (a b)^2, in column units
    ia2, ib2 = 1.0 / (a * a), 1.0 / (b * b)
    p = c * c * ia2 + s * s * ib2
    mid = (cx - x_lo - c * s * (ia2 - ib2) * dy / p) * grid / x_w - 0.5
    half_chord = np.sqrt(np.maximum(p - dy * dy * (ia2 * ib2), 0.0)) / p * grid / x_w
    with np.errstate(invalid="ignore"):
        first = np.ceil(np.clip(mid - half_chord, -2.0, grid + 1.0))
        last = np.floor(np.clip(mid + half_chord, -2.0, grid + 1.0))
    # the chord is exact to far below a cell: the cells next to its ends
    # decide, tested as the grid tests them, one candidate column at a time
    # so that no temporary outgrows a (2n, grid) row block
    def inside(j):
        dx = x_lo + (j + 0.5) * x_w / grid - cx
        u = (c * dx + s * dy) / a
        v = (-s * dx + c * dy) / b
        return (u * u + v * v <= 1.0) & (j >= 0.0) & (j < grid)

    first = np.where(inside(first - 1.0), first - 1.0,
                     np.where(inside(first), first, first + 1.0))
    last = np.where(inside(last + 1.0), last + 1.0, np.where(inside(last), last, last - 1.0))

    count = np.maximum(last - first + 1.0, 0.0).sum(axis=1)
    inter = np.maximum(np.minimum(last[:n], last[n:]) - np.maximum(first[:n], first[n:]) + 1.0, 0.0)
    inter = inter.sum(axis=1)
    union = count[:n] + count[n:] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)
