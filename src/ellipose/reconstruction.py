"""Ellipsoid-cloud reconstruction from calibrated views of labeled ellipses,
and ground-truth annotation generation by reprojection.

Each view of an object constrains its dual quadric through the linear
relation C* ~ P Q* P^T.  The per-view scales are kept as explicit unknowns
and the stacked homogeneous system is solved by the smallest singular
vector; image coordinates are normalized by the intrinsics beforehand to
keep the system well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCamera,
    DegenerateConfiguration,
    ElliposeError,
    EmptyInput,
    InsufficientViews,
    NotAnEllipse,
)
from .geometry import (
    Box,
    CameraModel,
    Conic,
    DualQuadric,
    Ellipse,
    Ellipsoid,
    Pose,
    bbox_of_ellipse,
    canonicalize,
    dual_quadric_to_ellipsoid,
    ellipse_to_conic,
    inscribed_ellipse,
    normalize_symmetric,
    project_ellipsoid,
)

MIN_VIEWS = 3

# Index pairs of the 10 independent entries of a symmetric 4x4 matrix and
# of the 6 entries of a symmetric 3x3 matrix, row-major upper triangle.
_QUAD_PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]
_CONIC_PAIRS = [(i, j) for i in range(3) for j in range(i, 3)]


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
    """Labeled ellipsoid scene model; duplicate labels (several objects of
    one class) must be declared explicitly."""

    entries: tuple
    allow_duplicate_labels: bool = field(default=False, compare=False)

    def __post_init__(self):
        entries = tuple((str(l), e) for l, e in self.entries)
        labels = [l for l, _ in entries]
        if not self.allow_duplicate_labels and len(set(labels)) != len(labels):
            raise ValueError("duplicate labels must be declared explicitly")
        object.__setattr__(self, "entries", entries)

    @property
    def labels(self) -> list:
        return [l for l, _ in self.entries]


def _normalized_dual_conic(e: Ellipse, cam: CameraModel) -> np.ndarray:
    """Dual conic of a detected ellipse in intrinsics-normalized coordinates."""
    M = ellipse_to_conic(e).M
    Cd = np.linalg.inv(M)
    Kinv = np.linalg.inv(cam.K)
    return normalize_symmetric(Kinv @ Cd @ Kinv.T)


def _dual_projection_rows(P: np.ndarray) -> np.ndarray:
    """6x10 map from the quadric entries to the projected dual-conic entries."""
    B = np.empty((6, 10))
    for k, (i, j) in enumerate(_QUAD_PAIRS):
        E = np.zeros((4, 4))
        E[i, j] = E[j, i] = 1.0
        C = P @ E @ P.T
        B[:, k] = [C[a, b] for a, b in _CONIC_PAIRS]
    return B


def _quadric_from_vector(q: np.ndarray) -> np.ndarray:
    Q = np.empty((4, 4))
    for k, (i, j) in enumerate(_QUAD_PAIRS):
        Q[i, j] = Q[j, i] = q[k]
    return Q


def reconstruct_from_dual_conics(duals, projections) -> Ellipsoid:
    """Solve the stacked system B_i q = s_i c_i for the dual quadric.

    ``duals`` are per-view dual-conic matrices (any positive scale),
    ``projections`` the matching 3x4 normalized projection matrices.  The
    joint null vector over (q, s_1..s_m) is taken from the SVD.
    """
    m = len(duals)
    if m < MIN_VIEWS:
        raise InsufficientViews(f"{m} views given, at least {MIN_VIEWS} required")
    A = np.zeros((6 * m, 10 + m))
    for i, (Cd, P) in enumerate(zip(duals, projections)):
        Cd = normalize_symmetric(np.asarray(Cd, float))
        rows = slice(6 * i, 6 * i + 6)
        A[rows, :10] = _dual_projection_rows(np.asarray(P, float))
        A[rows, 10 + i] = -np.array([Cd[a, b] for a, b in _CONIC_PAIRS])
    _, s, vt = np.linalg.svd(A, full_matrices=False)
    # A rank-deficiency of two or more means the solution is not unique.
    # The smallest-singular-value ratio test only applies when the data are
    # consistent enough to produce a genuine null vector.
    if s[-2] < 1e-9 * s[0]:
        raise DegenerateConfiguration("quadric solution is not unique")
    if s[-1] < 1e-9 * s[0] and s[-2] / max(s[-1], 1e-300) < 1e3:
        raise DegenerateConfiguration(
            "singular value gap too small for a unique solution"
        )
    q = vt[-1, :10]
    if np.linalg.norm(q) < 1e-12:
        raise DegenerateConfiguration("null vector carries no quadric")
    return dual_quadric_to_ellipsoid(DualQuadric(_quadric_from_vector(q)))


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
    duals, projections = [], []
    for o in observations:
        if o.view_id not in by_id:
            raise ValueError(f"observation references unknown view {o.view_id!r}")
        v = by_id[o.view_id]
        duals.append(_normalized_dual_conic(o.ellipse, v.cam))
        projections.append(v.pose.matrix)
    return reconstruct_from_dual_conics(duals, projections)


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
    """Reproject the cloud into every view.

    Returns (annotations, skipped): annotations maps view_id -> list of
    (label, Ellipse, Box); objects behind the camera or without an elliptic
    outline are skipped with a per-item note.
    """
    annotations: dict = {}
    skipped: list = []
    for v in views:
        rows = []
        for label, ellipsoid in cloud.entries:
            try:
                e = project_ellipsoid(ellipsoid, v.pose, v.cam)
            except (BehindCamera, NotAnEllipse) as exc:
                skipped.append((v.view_id, label, f"{type(exc).__name__}: {exc}"))
                continue
            rows.append((label, e, bbox_of_ellipse(e)))
        annotations[v.view_id] = rows
    return annotations, skipped
