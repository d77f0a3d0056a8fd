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

import numpy as np

from .errors import (
    DegenerateConfiguration,
    ElliposeError,
    EmptyInput,
    InsufficientViews,
)
from .geometry import (
    Box,
    CameraModel,
    DualQuadric,
    Ellipse,
    Ellipsoid,
    Pose,
    bbox_of_ellipse,
    canonicalize,
    dual_quadric_to_ellipsoid,
    inscribed_ellipse,
    _outline_error,
    _outlines,
    _quadric_duals,
)

MIN_VIEWS = 3

# Row and column indices of the 10 independent entries of a symmetric 4x4
# matrix and of the 6 entries of a symmetric 3x3 matrix, row-major upper
# triangle.
_QUAD_I, _QUAD_J = np.triu_indices(4)
_CONIC_I, _CONIC_J = np.triu_indices(3)


@dataclass(frozen=True, eq=False)
class Observation:
    """One labeled ellipse detection in one view (image frame)."""

    label: str
    ellipse: Ellipse
    view_id: str

    def __post_init__(self):
        object.__setattr__(self, "ellipse", canonicalize(self.ellipse))


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
        object.__setattr__(self, "entries", tuple((str(l), e) for l, e in self.entries))

    @property
    def labels(self) -> list:
        return [l for l, _ in self.entries]


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
    return dual_quadric_to_ellipsoid(DualQuadric(Q))


def reconstruct_ellipsoid(observations, views) -> Ellipsoid:
    """Reconstruct one object from >= 3 observations of the same label."""
    observations = list(observations)
    labels = {o.label for o in observations}
    if len(labels) > 1:
        raise ValueError(f"observations mix labels: {sorted(labels)}")
    by_id = {v.view_id: v for v in views}
    seen = {o.view_id for o in observations}
    if len(seen) < MIN_VIEWS:
        raise InsufficientViews(
            f"{len(seen)} distinct views, at least {MIN_VIEWS} required"
        )
    for o in observations:
        if o.view_id not in by_id:
            raise ValueError(f"observation references unknown view {o.view_id!r}")
    seen_from = [by_id[o.view_id] for o in observations]
    ellipses = [o.ellipse for o in observations]
    axes = np.array([e.axes for e in ellipses])
    angles = np.array([e.angle for e in ellipses])
    cos, sin = np.cos(angles), np.sin(angles)
    R = np.stack([np.stack([cos, -sin], 1), np.stack([sin, cos], 1)], 1)
    pixel_duals = _quadric_duals(np.array([e.center for e in ellipses]), axes, R)
    Kinv = np.linalg.inv(np.array([v.cam.K for v in seen_from]))
    duals = Kinv @ pixel_duals @ Kinv.transpose(0, 2, 1)
    return reconstruct_from_dual_conics(duals, [v.pose.matrix for v in seen_from])


def reconstruct_cloud(boxes_by_view, views, *, allow_partial: bool = False):
    """Ellipsoid cloud from hand-labeled boxes (ellipses inscribed in them).

    ``boxes_by_view`` maps view_id -> list of (label, Box).  Returns
    (cloud, failures) where failures maps label -> error; without
    ``allow_partial`` the first per-label failure is raised with the label
    attached.
    """
    if not boxes_by_view:
        raise EmptyInput("no annotated views")
    obs_by_label: dict = {}
    for view_id, items in boxes_by_view.items():
        for label, box in items:
            obs = Observation(label, inscribed_ellipse(box), view_id)
            obs_by_label.setdefault(label, []).append(obs)
    if not obs_by_label:
        raise EmptyInput("annotated views contain no boxes")
    entries = []
    failures: dict = {}
    for label in sorted(obs_by_label):
        try:
            entries.append((label, reconstruct_ellipsoid(obs_by_label[label], views)))
        except ElliposeError as exc:
            wrapped = type(exc)(f"label {label!r}: {exc}")
            if not allow_partial:
                raise wrapped from exc
            failures[label] = wrapped
    return EllipsoidCloud(tuple(entries)), failures


def generate_annotations(cloud: EllipsoidCloud, views):
    """Reproject the cloud into every view, in one kernel call for all
    views times labels.

    Returns (annotations, skipped): annotations maps view_id -> list of
    (label, Ellipse, Box); objects behind the camera or without an elliptic
    outline are skipped with a per-item note.
    """
    views = list(views)
    ellipsoids = [E for _, E in cloud.entries]
    centers = np.array([E.center for E in ellipsoids]).reshape(-1, 3)
    Qd = _quadric_duals(centers, np.array([E.axes for E in ellipsoids]).reshape(-1, 3),
                        np.array([E.rotation for E in ellipsoids]).reshape(-1, 3, 3))
    outlines = _outlines(np.array([v.pose.R for v in views]).reshape(-1, 3, 3),
                         np.array([v.pose.t for v in views]).reshape(-1, 3), Qd, centers,
                         np.array([v.cam.K for v in views]).reshape(-1, 3, 3))
    annotations: dict = {}
    skipped: list = []
    for v, *row in zip(views, *outlines):
        rows = []
        for label, center, axes, angle, code, depth in zip(cloud.labels, *row):
            if code:
                exc = _outline_error(int(code), float(depth))
                skipped.append((v.view_id, label, f"{type(exc).__name__}: {exc}"))
                continue
            e = Ellipse(center, axes, angle)
            rows.append((label, e, bbox_of_ellipse(e)))
        annotations[v.view_id] = rows
    return annotations, skipped
