"""Pose evaluation metrics: rotation/position error, reprojection error,
ADD and a deterministic ellipse IoU.  The IoU has one kernel over stacks
of point conics, :func:`_conic_ious`, which scores RANSAC consensus on the
projection kernel's conics and, through conics of canonical ellipses,
:func:`ellipse_iou` and the fig3 experiment."""

from __future__ import annotations

import math

import numpy as np

from .errors import BehindCamera, EmptyPointSet
from .geometry import CameraModel, Ellipse, Pose, _UPPER, _check_int, _ellipse_conics

_IOU_BYTES = 96 * 1024  # the largest temporary of _conic_ious, under 128 KiB


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
    """Deterministic intersection-over-union: exact chords summed over
    ``grid`` rows (:func:`_conic_ious`).  Identical ellipses give exactly 1
    and disjoint ones 0.  The error against the true IoU comes from the rows
    that cut the outlines' tips; it falls as grid^-1.5 and stays below 2e-3
    at 128 rows on 10,000 seeded pairs of axis ratio up to 10."""
    _check_int("grid", grid, 1)
    # centered on e1: a far center rounds a conic's constant term
    M = _ellipse_conics(np.array([e1.center, e2.center]) - e1.center,
                        np.array([e1.axes, e2.axes]), np.array([e1.angle, e2.angle]))
    return float(_conic_ious(M[:1], M[1:], grid)[0])


def _conic_ious(M1, M2, rows):
    """IoUs (n,) of n pairs of real-ellipse point conics M1, M2 (n,3,3), at
    any scale, in a common frame.

    A conic scaled to A > 0, with det2 = AC - B^2 and k its value at its
    center, spans sqrt(-kA / det2) above and below its center, and at
    height dy from it has the exact chord of midpoint xc - (B/A) dy and
    half-width sqrt(max(-kA - det2 dy^2, 0)) / A.  Both areas and the
    overlap are these chords summed at the midpoints of ``rows`` equal rows
    over the pair's union y-range: bit-identical conics give exactly 1 and
    no IoU exceeds 1.  An upper-triangular camera matrix maps rows to rows
    and scales all chords alike, so it changes an IoU only by rounding.  The
    pairs go in blocks of ``_IOU_BYTES // (16 rows)``, so that every (2 block,
    rows) float64 temporary stays under glibc's 128 KiB mmap threshold, above
    which each call would map and fault its pages in afresh.  An IoU depends
    on its own pair alone, so the blocks change no bit.
    """
    n, block = len(M1), max(1, _IOU_BYTES // (16 * rows))
    if n > block:
        return np.concatenate([_conic_ious(M1[s:s + block], M2[s:s + block], rows)
                               for s in range(0, n, block)])
    x = np.concatenate([M1, M2]).reshape(-1, 9)[:, _UPPER]  # both sides, 2n conics
    a, b, c, d, e, f = (x * np.sign(x[:, :1])).T[:, :, None]  # entries 00 01 02 11 12 22
    det2 = a * d - b * b
    cx, cy = (e * b - c * d) / det2, (b * c - a * e) / det2
    ka = -(c * cx + e * cy + f) * a  # -k A, positive for a real ellipse
    half_y = np.sqrt(ka / det2)
    lo = np.minimum(cy[:n] - half_y[:n], cy[n:] - half_y[n:])
    hi = np.maximum(cy[:n] + half_y[:n], cy[n:] + half_y[n:])
    dy = np.tile(lo + (np.arange(rows) + 0.5) * ((hi - lo) / rows), (2, 1)) - cy  # (2n, rows)
    mid = cx - b / a * dy
    half = np.sqrt(np.maximum(ka - det2 * dy * dy, 0.0)) / a
    left, right = mid - half, mid + half
    width = (right - left).sum(axis=1)
    inter = np.maximum(np.minimum(right[:n], right[n:]) - np.maximum(left[:n], left[n:]), 0.0)
    inter = inter.sum(axis=1)
    union = width[:n] + width[n:] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)
