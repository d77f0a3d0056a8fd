"""Synthetic calibrated scenes: camera rigs on a semi-sphere, exact
ground-truth rendering of detections, noise models standing in for learned
detectors, and the supporting point-set utilities (minimum-area enclosing
ellipse, ellipsoid surface sampling).

All randomness flows through explicit generators; detector draws are
sub-seeded per view so parallel and serial runs agree.
"""

from __future__ import annotations

import itertools
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, DegeneratePointSet
from .geometry import (
    CameraModel,
    Ellipse,
    Ellipsoid,
    Pose,
    canonicalize,
    rotation_x,
    rotation_y,
    rotation_z,
    _check_int,
    _cross,
    _inscribed_ellipses,
)
from .reconstruction import CalibratedView, EllipsoidCloud, generate_annotations

DEG = math.pi / 180.0

# detector kind -> whether its ellipses depend on the box noise (run_detector)
DETECTOR_KINDS = {
    "gt_projection": False,
    "inscribed_of_noisy_box": True,
    "oracle_with_box_noise": False,
}


@dataclass(frozen=True, eq=False)
class SceneObject:
    label: str
    ellipsoid: Ellipsoid
    model_points: np.ndarray | None = None

    def __post_init__(self):
        if self.model_points is not None:
            pts = np.atleast_2d(np.asarray(self.model_points, float))
            if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] != 3 or not np.isfinite(pts).all():
                raise ValueError("model_points must be finite and (N, 3) with N >= 1")
            pts.setflags(write=False)
            object.__setattr__(self, "model_points", pts)


@dataclass(frozen=True, eq=False)
class SceneSpec:
    objects: tuple

    def __post_init__(self):
        objects = tuple(self.objects)
        if not objects:
            raise ValueError("a scene needs at least one object")
        object.__setattr__(self, "objects", objects)

    def evaluation_points(self, samples_per_object: int = 1000) -> np.ndarray:
        """Model points for metrics; ellipsoid surface samples when a scene
        object carries no explicit model."""
        chunks = []
        for obj in self.objects:
            if obj.model_points is not None:
                chunks.append(obj.model_points)
            else:
                chunks.append(sample_ellipsoid_surface(obj.ellipsoid, samples_per_object))
        return np.vstack(chunks)


@dataclass(frozen=True, eq=False)
class CameraRig:
    """Regular azimuth x elevation grid on a semi-sphere around a target."""

    radius: float
    n_azimuth: int
    n_elevation: int
    elevation_range: tuple = (20.0 * DEG, 70.0 * DEG)
    lookat: np.ndarray = (0.0, 0.0, 0.0)
    cam: CameraModel = None

    def __post_init__(self):
        r = self.radius
        if not (math.isfinite(r) and r > 0.0):
            raise ValueError(f"rig radius must be finite and > 0, got {r!r}")
        _check_int("n_azimuth", self.n_azimuth, 1)
        _check_int("n_elevation", self.n_elevation, 1)
        lookat = np.array(self.lookat, dtype=float)
        lookat.setflags(write=False)
        object.__setattr__(self, "lookat", lookat)
        object.__setattr__(self, "elevation_range", tuple(self.elevation_range))
        if self.cam is None:
            object.__setattr__(self, "cam", default_camera())


@dataclass(frozen=True)
class DetectorModel:
    """Stand-in for the learned detector stack.

    gt_projection: exact outlines.  inscribed_of_noisy_box: perturb the box,
    fit the axis-aligned inscribed ellipse (the box-fitting baseline).
    oracle_with_box_noise: perturb the box but keep the exact outline,
    modeling a predictor robust to crop shifts.
    """

    kind: str
    box_noise_half_range: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in DETECTOR_KINDS:
            raise ValueError(f"unknown detector kind {self.kind!r}")
        h = float(self.box_noise_half_range)
        if not (math.isfinite(h) and h >= 0.0):
            raise ValueError(f"box noise half-range must be finite and >= 0, got {h!r}")
        object.__setattr__(self, "box_noise_half_range", h + 0.0)  # -0.0 is 0.0
        _check_int("seed", self.seed, 0)


@dataclass(frozen=True)
class OrientationNoise:
    max_abs_per_euler_axis: float = 2.0 * DEG

    def __post_init__(self):
        m = self.max_abs_per_euler_axis
        if not (math.isfinite(m) and m >= 0.0):
            raise ValueError(f"noise bound must be finite and >= 0, got {m!r}")


def default_camera() -> CameraModel:
    """640x480, 500 px focal, principal point at the image center."""
    K = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
    return CameraModel(K, (640.0, 480.0))


_UP, _SIDE = np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])


def look_at(camera_pos, target) -> Pose:
    """World-to-camera pose looking from ``camera_pos`` to ``target`` with
    the world up-vector (+z) projected into the image vertical.  Its cross
    products come from the shared helper ``geometry._cross``."""
    camera_pos = np.asarray(camera_pos, float)
    f = np.asarray(target, float) - camera_pos
    nf = np.linalg.norm(f)
    if nf < 1e-12:
        raise ValueError("camera position coincides with the target")
    f = f / nf
    x = _cross(f, _UP)
    if np.linalg.norm(x) < 1e-9:  # looking straight along up: pick any right
        x = _cross(f, _SIDE)
    x = x / np.linalg.norm(x)
    y = _cross(f, x)
    R = np.stack([x, y, f])
    return Pose(R, -R @ camera_pos)


def sample_cameras(rig: CameraRig) -> list:
    """Deterministic grid of calibrated views on the rig semi-sphere."""
    if rig.n_elevation == 1:
        elevations = [0.5 * (rig.elevation_range[0] + rig.elevation_range[1])]
    else:
        elevations = list(
            np.linspace(rig.elevation_range[0], rig.elevation_range[1], rig.n_elevation)
        )
    azimuths = [2.0 * math.pi * j / rig.n_azimuth for j in range(rig.n_azimuth)]
    views = []
    for i, el in enumerate(elevations):
        for j, az in enumerate(azimuths):
            offset = rig.radius * np.array(
                [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
            )
            pose = look_at(rig.lookat + offset, rig.lookat)
            views.append(CalibratedView(f"el{i:02d}_az{j:03d}", rig.cam, pose))
    return views


def cloud_of_scene(scene: SceneSpec) -> EllipsoidCloud:
    """The scene's labeled ellipsoids; several objects may share a label."""
    return EllipsoidCloud(tuple((o.label, o.ellipsoid) for o in scene.objects))


def _perturb_box(box, half_range: float, rng) -> np.ndarray:
    """Shift each of the four coordinates of a box [x_min, y_min, x_max,
    y_max] by an independent uniform draw in [-half_range, half_range],
    checked by DetectorModel; reordered to keep min < max, redrawn (up to 10
    times) when it has zero area.  Returns a read-only row."""
    for _ in range(10):
        p = box + rng.uniform(-half_range, half_range, size=4)
        lo, hi = np.minimum(p[:2], p[2:]), np.maximum(p[:2], p[2:])
        if hi[0] - lo[0] > 1e-9 and hi[1] - lo[1] > 1e-9:
            out = np.concatenate([lo, hi])
            out.setflags(write=False)
            return out
    raise DegenerateBox("box perturbation kept collapsing to zero area")


def perturb_orientation(R: np.ndarray, noise: OrientationNoise, rng) -> np.ndarray:
    """Compose R (world->camera) with a camera-frame XYZ Euler perturbation
    drawn uniformly per axis."""
    m = noise.max_abs_per_euler_axis
    dx, dy, dz = rng.uniform(-m, m, size=3)
    return rotation_x(dx) @ rotation_y(dy) @ rotation_z(dz) @ np.asarray(R, float)


def view_rng(seed: int, view_id: str, stream: int = 0) -> np.random.Generator:
    """Per-view generator: global seed combined with a stable view-id hash.

    ``stream`` separates independent random uses over the same view.
    """
    return np.random.default_rng(
        np.random.SeedSequence(
            [int(seed), zlib.crc32(view_id.encode("utf-8")), int(stream)]
        )
    )


def run_detector(model: DetectorModel, scene: SceneSpec, view: CalibratedView):
    """(label, Ellipse, box row) detections under the given detector model,
    one per object whose exact outline has its center inside the image, in
    scene order; objects behind the camera or with degenerate outlines are
    skipped.  The gt_projection kind returns the exact outlines and their
    tight boxes."""
    a = generate_annotations(cloud_of_scene(scene), [view])[0][view.view_id]
    rows = np.flatnonzero(((a.centers >= 0.0) & (a.centers <= view.cam.image_size)).all(axis=1))
    boxes = [a.boxes[i] for i in rows]
    if model.kind != "gt_projection":
        rng = view_rng(model.seed, view.view_id)
        boxes = [_perturb_box(b, model.box_noise_half_range, rng) for b in boxes]
    if model.kind == "inscribed_of_noisy_box":
        centers, axes, angles = _inscribed_ellipses(np.reshape(boxes, (-1, 4)))
    else:  # exact outlines; the oracle's is unaffected by the crop shift
        centers, axes, angles = a.centers[rows], a.axes[rows], a.angles[rows]
    return [(a.labels[i], Ellipse(c, ax, t), b)
            for i, c, ax, t, b in zip(rows, centers, axes, angles, boxes)]


# ---------------------------------------------------------------------------
# Minimum-area enclosing ellipse (active-set Newton on the dual weights)
# ---------------------------------------------------------------------------


_MVEE_TOL = 1e-9  # the loop stops once max_i q_i^T X(u)^-1 q_i <= 3 (1 + _MVEE_TOL)
_EPS = float(np.finfo(float).eps)


def min_enclosing_ellipse(points) -> Ellipse:
    """Minimum-area ellipse containing all points.

    Finds the dual weights u (:func:`_mvee`) of the points, or of their
    convex hull above 16 points, in coordinates centred on their mean and
    whitened by their singular value decomposition, then rescales the
    ellipse so the outermost point lies exactly on the boundary.  What the
    stop guarantees: with q_i = (p_i, 1) and X(u) = sum_i u_i q_i q_i^T,
    every point has q_i^T X(u)^-1 q_i <= 3 (1 + 1e-9), so the area exceeds
    the minimum by a factor of at most 1 + 1.5e-9 (Khachiyan's bound);
    containment is exact to floating precision.  There is no iteration cap
    and no stall rule.

    Raises ValueError naming the rows of non-finite points, and
    DegeneratePointSet for fewer than 3 points or collinear ones.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (N, 2)")
    if not np.isfinite(pts).all():
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1)).tolist()
        raise ValueError(f"points must be finite; rows {bad} are not")
    if len(pts) < 3:
        raise DegeneratePointSet("need at least 3 points")
    mean = pts.mean(axis=0)
    U, sv, Vt = np.linalg.svd(pts - mean, full_matrices=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise DegeneratePointSet("points are collinear")
    if len(pts) > 16:
        from scipy.spatial import ConvexHull, QhullError

        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError as exc:
            raise DegeneratePointSet(str(exc)) from exc
        mean = pts.mean(axis=0)
        U, sv, Vt = np.linalg.svd(pts - mean, full_matrices=False)
    # whitened points: pts = mean + P T, with P the left singular vectors
    # scaled to unit extent, on which X(u) is as well conditioned as it gets
    umax = float(np.abs(U).max())
    P = U / umax
    T = (umax * sv)[:, None] * Vt
    u = _mvee(P)
    c = u @ P
    D = P - c
    # the optimum is (y - c)^T cov^-1 (y - c) <= 2 in whitened coordinates y
    (sxx, sxy), (_, syy) = ((D.T * u) @ D).tolist()
    det = sxx * syy - sxy * sxy
    # exact containment: scale so the farthest point sits on the boundary
    dx, dy = D[:, 0], D[:, 1]
    vmax = float((dx * (syy * dx - 2.0 * sxy * dy) + sxx * dy * dy).max()) / (2.0 * det)
    vmax = max(vmax, 1.0)
    # the ellipse is c T + z L T over the unit disc, with L^T L = 2 vmax cov:
    # its semi-axes are the singular values of L T, its major axis the first
    # right singular vector
    l11 = math.sqrt(sxx)
    L = math.sqrt(2.0 * vmax) * np.array([[l11, sxy / l11], [0.0, math.sqrt(det) / l11]])
    _, axes, W = np.linalg.svd(L @ T)
    angle = math.atan2(W[0, 1], W[0, 0])
    return canonicalize(Ellipse(mean + c @ T, axes, angle))


def _mvee(P: np.ndarray) -> np.ndarray:
    """Dual weights u (n,) of the minimum-area ellipse of the points P (n,2),
    not collinear, best whitened as :func:`min_enclosing_ellipse` gives them.

    The weights maximise log det X(u), X(u) = sum_i u_i q_i q_i^T with q_i =
    (p_i, 1), over the simplex; at the optimum every q_i^T X^-1 q_i is at
    most 3, with equality where u_i > 0.  An active-set method on the
    support S (Sun & Freund, Oper. Res. 2004): it starts from the largest
    triangle, brings the most violated point in by one Khachiyan step, and
    otherwise takes a Newton step on the face sum(u_S) = 1, cut where a
    weight reaches zero (that point leaves S) and halved until log det X(u)
    rises.  Every step raises it; the loop ends once no point exceeds
    3 (1 + _MVEE_TOL).
    """
    n = len(P)
    Q = np.column_stack([P, np.ones(n)])
    S = _largest_triangle(P)
    u = [1.0 / 3.0] * 3
    QS = Q[S]
    bound = 3.0 * (1.0 + _MVEE_TOL)
    while True:
        Xinv = _inv3((QS.T * u) @ QS)
        QX = Q @ Xinv
        w = (QX * Q).sum(axis=1).tolist()  # q_i^T X^-1 q_i: the gradient of log det X
        wj = max(w)
        if wj <= bound:
            break
        j = w.index(wj)
        if j not in S:
            step = (wj - 3.0) / (3.0 * (wj - 1.0))
            u = [ui * (1.0 - step) for ui in u] + [step]
            S.append(j)
            QS = Q[S]
            continue
        # Newton step d on the face: (W o W) d + mu 1 = w_S - 3, sum(d) = 0,
        # W = Q_S X^-1 Q_S^T.  Its diagonal is raised by m ulps: where the
        # points of S lie on one conic, W o W is singular, and the step then
        # runs along its null space to a zero weight
        m = len(S)
        W = QX[S] @ QS.T
        K = np.ones((m + 1, m + 1))
        K[m, m] = 0.0
        np.multiply(W, W, out=K[:m, :m])
        K.reshape(-1)[: m * (m + 2) : m + 2] *= 1.0 + m * _EPS
        g = [w[s] - 3.0 for s in S]
        d = np.linalg.solve(K, g + [0.0])[:m]
        # det X(u + t d) / det X(u) = det(I + t M) = 1 + c1 t + c2 t^2 + c3 t^3;
        # c1 = tr M = g^T d as sum(d) = 0, which keeps it exact where d runs
        # along the null space and M is rounding noise
        (a, b, c), (e, f, h), (p, q, r) = (Xinv @ ((QS.T * d) @ QS)).tolist()
        d = d.tolist()
        c1 = sum(gi * di for gi, di in zip(g, d))
        c2 = a * f - b * e + a * r - c * p + f * r - h * q
        c3 = a * (f * r - h * q) - b * (e * r - h * p) + c * (e * q - f * p)
        t, zeroed = 1.0, -1  # the longest step up to 1 that keeps u >= 0
        for idx, (ui, di) in enumerate(zip(u, d)):
            if ui < -t * di:
                t, zeroed = -ui / di, idx
        while not t * (c1 + t * (c2 + t * c3)) > 0.0:
            if t == 0.0:
                raise DegeneratePointSet("no Newton step raises log det X(u)")
            t, zeroed = 0.5 * t, -1
        u = [ui + t * di for ui, di in zip(u, d)]
        if zeroed >= 0:
            u[zeroed] = 0.0
        if min(u) <= 0.0:
            S = [s for s, ui in zip(S, u) if ui > 0.0]
            u = [ui for ui in u if ui > 0.0]
            total = sum(u)
            u = [ui / total for ui in u]
            QS = Q[S]
    out = np.zeros(n)
    out[S] = u
    return out


# the 560 index triples of 16 points; the 8 directions of _largest_triangle
_TRIPLES = np.array(list(itertools.combinations(range(16), 3)))
_DIRECTIONS = np.array([[f(k * (math.pi / 8.0)) for k in range(8)] for f in (math.cos, math.sin)])


def _largest_triangle(P: np.ndarray) -> list:
    """Indices of the largest triangle among the points of P (n,2) that are
    extreme along 8 directions; a point extreme in several counts in each,
    and its repeats span no area."""
    proj = P @ _DIRECTIONS
    cand = np.concatenate([proj.argmin(axis=0), proj.argmax(axis=0)])
    x, y = P[cand, 0][_TRIPLES], P[cand, 1][_TRIPLES]
    x, y = x[:, 1:] - x[:, :1], y[:, 1:] - y[:, :1]
    best = int(np.abs(x[:, 0] * y[:, 1] - y[:, 0] * x[:, 1]).argmax())
    return cand[_TRIPLES[best]].tolist()


def _inv3(X: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric positive definite 3x3 matrix by its cofactors."""
    (a, b, c), (_, d, e), (_, _, f) = X.tolist()
    A, B, C = d * f - e * e, c * e - b * f, b * e - c * d
    s = 1.0 / (a * A + b * B + c * C)
    D, E, F = (a * f - c * c) * s, (b * c - a * e) * s, (a * d - b * b) * s
    A, B, C = A * s, B * s, C * s
    return np.array([[A, B, C], [B, D, E], [C, E, F]])


def sample_ellipsoid_surface(E: Ellipsoid, n: int) -> np.ndarray:
    """Deterministic spherical-Fibonacci samples on the ellipsoid surface."""
    if n < 4:
        raise ValueError("need n >= 4 samples")
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    phi = 2.0 * math.pi * i / golden
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    unit = np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    return unit * E.axes @ E.rotation.T + E.center


# ---------------------------------------------------------------------------
# Stock scenes
# ---------------------------------------------------------------------------


def tless_like_board(n_objects: int = 6) -> SceneSpec:
    """Small textured-board stand-in: ellipsoids resting on the z=0 plane
    inside a ~0.4-unit disc, mildly eccentric like household objects."""
    _check_int("n_objects", n_objects, 1)
    if n_objects > 6:
        raise ValueError("board supports 1..6 objects")
    specs = [
        ((0.16, 0.00), (0.048, 0.042, 0.038), 15.0),
        ((-0.05, 0.15), (0.040, 0.038, 0.050), 70.0),
        ((-0.17, -0.04), (0.052, 0.042, 0.040), 130.0),
        ((0.05, -0.16), (0.034, 0.032, 0.042), 200.0),
        ((0.00, 0.02), (0.046, 0.040, 0.036), 260.0),
        ((0.14, 0.14), (0.038, 0.033, 0.046), 320.0),
    ]
    objects = []
    for k, ((x, y), axes, yaw_deg) in enumerate(specs[:n_objects]):
        rot = rotation_z(yaw_deg * DEG) @ rotation_x(10.0 * DEG * (k % 3))
        center = (x, y, axes[2])
        objects.append(SceneObject(f"obj{k + 1:02d}", Ellipsoid(center, axes, rot)))
    return SceneSpec(tuple(objects))


def l_shaped_prism() -> np.ndarray:
    """Vertices of an L-shaped prism centered near the origin; a convenient
    non-ellipsoidal object for reconstruction-consistency experiments."""
    arm, thickness, height = 2.0, 0.8, 0.8
    foot = np.array(
        [
            [0.0, 0.0],
            [arm, 0.0],
            [arm, thickness],
            [thickness, thickness],
            [thickness, arm],
            [0.0, arm],
        ]
    )
    foot -= foot.mean(axis=0)
    lo, hi = -0.5 * height, 0.5 * height
    return np.array([[x, y, z] for x, y in foot for z in (lo, hi)])
