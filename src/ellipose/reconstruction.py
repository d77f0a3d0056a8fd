"""Ellipsoid-cloud reconstruction from calibrated views of labeled ellipses,
and ground-truth annotation generation by reprojection.

Each view of an object constrains its dual quadric through the linear
relation C* ~ P Q* P^T, which holds up to an unknown per-view scale.  That
scale is projected out: each view's six equations are multiplied by
(I - c c^T), with c the unit vector of the view's dual-conic entries, and
the stacked homogeneous system in the ten quadric entries alone is solved
by its smallest singular vector (the scale-per-view formulation of Rubino,
Crocco & Del Bue, "3D Object Localisation from Multi-View Image
Detections", TPAMI 2018).  Image coordinates are normalized by the
intrinsics beforehand to keep the system well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateConfiguration,
    ElliposeError,
    EmptyInput,
    InsufficientViews,
)
from .geometry import (
    CameraModel,
    Ellipse,
    Ellipsoid,
    Pose,
    normalize_symmetric,
    _bbox_half,
    _ellipsoid_of_dual,
    _inscribed_ellipses,
    _outline_error,
    _outlines,
    _prechecked,
    _quadric_duals,
)

MIN_VIEWS = 3

# Row and column indices of the 10 independent entries of a symmetric 4x4
# matrix and of the 6 entries of a symmetric 3x3 matrix, row-major upper
# triangle.
_QUAD_I, _QUAD_J = np.triu_indices(4)
_CONIC_I, _CONIC_J = np.triu_indices(3)


class Observation(NamedTuple):
    """One labeled ellipse detection in one view (image frame)."""

    label: str
    ellipse: Ellipse
    view_id: str


@dataclass(frozen=True, eq=False)
class CalibratedView:
    view_id: str
    cam: CameraModel
    pose: Pose


@dataclass(frozen=True, eq=False)
class EllipsoidCloud:
    """Labeled ellipsoid scene model; several objects may share a label."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((l, e) for l, e in self.entries)
        for label, _ in entries:
            if not isinstance(label, str):
                raise ValueError(f"cloud labels must be strings, got {label!r}")
        object.__setattr__(self, "entries", entries)

    @property
    def labels(self) -> list:
        return [l for l, _ in self.entries]

    @cached_property
    def _objects(self) -> dict:
        """label -> the indices of its objects, ascending."""
        objects = {}
        for o, (label, _) in enumerate(self.entries):
            objects.setdefault(label, []).append(o)
        return objects

    @cached_property
    def _stacked(self) -> tuple:
        """The objects' centers (m,3), axes (m,3), rotations (m,3,3) and
        unit dual quadrics (m,4,4) as read-only arrays, row o the o-th
        entry's; built on first use, as a cloud made for one view may never
        need them."""
        center, axes, rotation = (np.array([getattr(E, name) for _, E in self.entries])
                                  for name in ("center", "axes", "rotation"))
        stacked = (center, axes, rotation,
                   normalize_symmetric(_quadric_duals(center, axes, rotation)))
        for a in stacked:
            a.setflags(write=False)
        return stacked


@dataclass(frozen=True, eq=False)
class ViewAnnotations:
    """One view's annotation records as read-only arrays, row i the i-th
    record: ``labels`` (a tuple), ``boxes`` (n,4) as (x_min, y_min, x_max,
    y_max), and the ellipse as ``centers`` (n,2), ``axes`` (n,2) and
    ``angles`` (n,), NaN in a row whose record has none."""

    labels: tuple
    boxes: np.ndarray
    centers: np.ndarray
    axes: np.ndarray
    angles: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        shapes = {"boxes": (-1, 4), "centers": (-1, 2), "axes": (-1, 2), "angles": (-1,)}
        for name, shape in shapes.items():
            a = np.asarray(getattr(self, name), float).reshape(shape)
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def detections(self) -> list:
        """(label, Ellipse) per row, inscribed in the row's box where it has none."""
        centers, axes, angles = self.centers.copy(), self.axes.copy(), self.angles.copy()
        boxed = np.isnan(angles)
        centers[boxed], axes[boxed], angles[boxed] = _inscribed_ellipses(self.boxes[boxed])
        return [(label, Ellipse(*e)) for label, *e in zip(self.labels, centers, axes, angles)]


def reconstruct_from_dual_conics(duals, projections) -> Ellipsoid:
    """Solve the stacked system B_i q ~ c_i for the dual quadric.

    ``duals`` are per-view dual-conic matrices (any nonzero scale),
    ``projections`` the matching 3x4 normalized projection matrices.  Each
    view's rows are multiplied by (I - c c^T), c its unit 6-vector of
    dual-conic entries, which removes the unknown per-view scale; the
    quadric is the smallest right singular vector of the reduced system.
    """
    C = np.asarray(duals, float)
    P = np.asarray(projections, float)
    m = len(C)
    if m < MIN_VIEWS:
        raise InsufficientViews(f"{m} views given, at least {MIN_VIEWS} required")
    c = C[:, _CONIC_I, _CONIC_J]
    c /= np.linalg.norm(c, axis=1, keepdims=True)
    # B_i[r, k]: entry r of P_i E_k P_i^T, E_k the symmetric unit matrix of entry k
    a, b = _CONIC_I[:, None], _CONIC_J[:, None]
    B = P[:, a, _QUAD_I] * P[:, b, _QUAD_J] + P[:, a, _QUAD_J] * P[:, b, _QUAD_I]
    B[:, :, _QUAD_I == _QUAD_J] *= 0.5
    B -= c[:, :, None] * np.einsum("mr,mrk->mk", c, B)[:, None, :]
    _, s, vt = np.linalg.svd(B.reshape(6 * m, 10), full_matrices=False)
    # A rank-deficiency of two or more means the solution is not unique.
    # The smallest-singular-value ratio test only applies when the data are
    # consistent enough to produce a genuine null vector.
    if s[-2] < 1e-9 * s[0]:
        raise DegenerateConfiguration("quadric solution is not unique")
    if s[-1] < 1e-9 * s[0] and s[-2] / max(s[-1], 1e-300) < 1e3:
        raise DegenerateConfiguration(
            "singular value gap too small for a unique solution"
        )
    Q = np.empty((4, 4))
    Q[_QUAD_I, _QUAD_J] = Q[_QUAD_J, _QUAD_I] = vt[-1]
    return _ellipsoid_of_dual(Q)


def _ellipsoids(labels, seen_from, centers, axes, angles, views, allow_partial: bool):
    """(cloud, failures) of :func:`reconstruct_cloud` from labeled pixel
    ellipses (centers (m,2), axes (m,2), angles (m,)), record i seen from the
    view with id seen_from[i]: per label, one stacked solve of its records."""
    index = {v.view_id: i for i, v in enumerate(views)}
    view_of = np.array([index.get(view_id, -1) for view_id in seen_from], int)
    if (view_of < 0).any():  # argmin: the first unknown one
        raise ValueError(f"observation references unknown view {seen_from[view_of.argmin()]!r}")
    Kinv = np.linalg.inv(np.array([v.cam.K for v in views]))
    P = np.array([v.pose.matrix for v in views])
    entries, failures = [], {}
    for label in sorted(set(labels)):
        rows = [i for i, other in enumerate(labels) if other == label]
        at = view_of[rows]
        n_views = len(set(at.tolist()))
        try:
            if n_views < MIN_VIEWS:
                raise InsufficientViews(f"{n_views} distinct views, at least {MIN_VIEWS} required")
            cos, sin = np.cos(angles[rows]), np.sin(angles[rows])
            R = np.stack([np.stack([cos, -sin], 1), np.stack([sin, cos], 1)], 1)
            duals = _quadric_duals(centers[rows], axes[rows], R)
            duals = Kinv[at] @ duals @ Kinv[at].transpose(0, 2, 1)
            entries.append((label, reconstruct_from_dual_conics(duals, P[at])))
        except ElliposeError as exc:
            wrapped = type(exc)(f"label {label!r}: {exc}")
            if not allow_partial:
                raise wrapped from exc
            failures[label] = wrapped
    return EllipsoidCloud(tuple(entries)), failures


def reconstruct_ellipsoid(observations, views) -> Ellipsoid:
    """Reconstruct one object from >= 3 observations of the same label."""
    obs = list(observations)
    labels = {o.label for o in obs}
    if len(labels) != 1:
        raise ValueError(f"expected observations of one label, got {sorted(labels)}")
    params = (np.array([getattr(o.ellipse, k) for o in obs]) for k in ("center", "axes", "angle"))
    cloud, _ = _ellipsoids([o.label for o in obs], [o.view_id for o in obs], *params,
                           list(views), allow_partial=False)
    return cloud.entries[0][1]


def reconstruct_cloud(boxes_by_view, views, *, allow_partial: bool = False):
    """Ellipsoid cloud from hand-labeled boxes (ellipses inscribed in them).

    ``boxes_by_view`` maps view_id -> (labels, boxes (n,4) as (x_min, y_min,
    x_max, y_max)).  Returns (cloud, failures) where failures maps label ->
    error; without ``allow_partial`` the first per-label failure is raised
    with the label attached.
    """
    labels, seen_from, boxes = [], [], []
    for view_id, (view_labels, view_boxes) in boxes_by_view.items():
        labels += view_labels
        seen_from += [view_id] * len(view_labels)
        boxes.append(np.asarray(view_boxes, float).reshape(-1, 4))
    if not labels:
        raise EmptyInput("no annotated boxes")
    return _ellipsoids(labels, seen_from, *_inscribed_ellipses(np.concatenate(boxes)),
                       list(views), allow_partial)


def generate_annotations(cloud: EllipsoidCloud, views):
    """Reproject the cloud into every view, in one kernel call for all
    views times labels.

    Returns (annotations, skipped): annotations maps view_id ->
    :class:`ViewAnnotations` of the exact outlines and their tight boxes, in
    cloud order; objects behind the camera or without an elliptic outline
    are skipped with a per-item note.
    """
    views = list(views)
    ellipsoids = [E for _, E in cloud.entries]
    centers = np.array([E.center for E in ellipsoids]).reshape(-1, 3)
    Qd = _quadric_duals(centers, np.array([E.axes for E in ellipsoids]).reshape(-1, 3),
                        np.array([E.rotation for E in ellipsoids]).reshape(-1, 3, 3))
    centers, axes, angles, code, depth = _outlines(
        np.array([v.pose.R for v in views]).reshape(-1, 3, 3),
        np.array([v.pose.t for v in views]).reshape(-1, 3), Qd, centers,
        np.array([v.cam.K for v in views]).reshape(-1, 3, 3))
    labels, skipped = cloud.labels, []
    for v, k in zip(*np.nonzero(code)):
        exc = _outline_error(int(code[v, k]), float(depth[v, k]))
        skipped.append((views[v].view_id, labels[k], f"{type(exc).__name__}: {exc}"))
    # each box half-extent in Python floats, whose powers can differ from
    # numpy's in the last bit: it keeps annotations.json byte-identical
    half = np.array([_bbox_half(a, b, t) for (a, b), t in zip(
        axes.reshape(-1, 2).tolist(), angles.ravel().tolist())]).reshape(axes.shape)
    boxes = np.concatenate([centers - half, centers + half], axis=-1)
    kept = code == 0
    boxes, centers, axes, angles = (a[kept] for a in (boxes, centers, axes, angles))  # view-major
    for a in (boxes, centers, axes, angles):
        a.setflags(write=False)
    annotations, start = {}, 0
    for view, ok in zip(views, kept.tolist()):
        view_labels = tuple(label for label, keep in zip(labels, ok) if keep)
        at = slice(start, start + len(view_labels))
        annotations[view.view_id] = _prechecked(
            ViewAnnotations, labels=view_labels, boxes=boxes[at], centers=centers[at],
            axes=axes[at], angles=angles[at])
        start = at.stop
    return annotations, skipped
