"""Pose evaluation metrics: rotation/position error, reprojection error,
ADD and a deterministic ellipse IoU."""

from __future__ import annotations

import math

import numpy as np

from .errors import BehindCamera, EmptyPointSet
from .geometry import CameraModel, Ellipse, Pose, bbox_of_ellipse


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

    Samples ``grid`` x ``grid`` cell centers over the union of the two
    bounding boxes; the absolute error is O(perimeter * cell / area), about
    0.5% at the default resolution for moderately eccentric ellipses.
    """
    b1, b2 = bbox_of_ellipse(e1), bbox_of_ellipse(e2)
    lo = np.minimum(b1.min, b2.min)
    hi = np.maximum(b1.max, b2.max)
    xs = lo[0] + (np.arange(grid) + 0.5) * (hi[0] - lo[0]) / grid
    ys = lo[1] + (np.arange(grid) + 0.5) * (hi[1] - lo[1]) / grid
    in1 = _inside_grid(e1, xs, ys)
    in2 = _inside_grid(e2, xs, ys)
    union = int(np.count_nonzero(in1 | in2))
    if union == 0:
        return 0.0
    inter = int(np.count_nonzero(in1 & in2))
    return inter / union


def _inside_grid(e: Ellipse, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    c, s = math.cos(e.angle), math.sin(e.angle)
    dx = xs[None, :] - e.center[0]
    dy = ys[:, None] - e.center[1]
    u = (c * dx + s * dy) / e.axes[0]
    v = (-s * dx + c * dy) / e.axes[1]
    return u * u + v * v <= 1.0

