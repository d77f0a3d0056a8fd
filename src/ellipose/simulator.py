"""Synthetic calibrated scenes: camera rigs on a semi-sphere, exact
ground-truth rendering of detections, noise models standing in for learned
detectors, and the supporting point-set utilities (minimum-area enclosing
ellipse, ellipsoid surface sampling).

All randomness flows through explicit generators; detector draws are
sub-seeded per view so parallel and serial runs agree.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, DegeneratePointSet
from .geometry import (
    Box,
    CameraModel,
    Ellipse,
    Ellipsoid,
    Pose,
    canonicalize,
    inscribed_ellipse,
    rotation_x,
    rotation_y,
    rotation_z,
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
        if self.radius <= 0 or self.n_azimuth < 1 or self.n_elevation < 1:
            raise ValueError("rig needs positive radius and counts >= 1")
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


@dataclass(frozen=True)
class OrientationNoise:
    max_abs_per_euler_axis: float = 2.0 * DEG

    def __post_init__(self):
        if self.max_abs_per_euler_axis < 0:
            raise ValueError("noise bound must be >= 0")


def default_camera() -> CameraModel:
    """640x480, 500 px focal, principal point at the image center."""
    K = np.array([[500.0, 0.0, 320.0], [0.0, 500.0, 240.0], [0.0, 0.0, 1.0]])
    return CameraModel(K, (640.0, 480.0))


def look_at(camera_pos, target) -> Pose:
    """World-to-camera pose looking from ``camera_pos`` to ``target`` with
    the world up-vector (+z) projected into the image vertical."""
    camera_pos = np.asarray(camera_pos, float)
    f = np.asarray(target, float) - camera_pos
    nf = np.linalg.norm(f)
    if nf < 1e-12:
        raise ValueError("camera position coincides with the target")
    f = f / nf
    x = np.cross(f, np.array([0.0, 0.0, 1.0]))
    if np.linalg.norm(x) < 1e-9:  # looking straight along up: pick any right
        x = np.cross(f, (0.0, 1.0, 0.0))
    x = x / np.linalg.norm(x)
    y = np.cross(f, x)
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


def render_detections(scene: SceneSpec, view: CalibratedView) -> list:
    """Exact (label, Ellipse, Box) per object whose projected center lies
    inside the image, in scene order; objects behind the camera or with
    degenerate outlines are skipped."""
    annotations, _ = generate_annotations(cloud_of_scene(scene), [view])
    w, h = view.cam.image_size
    return [
        (label, e, box)
        for label, e, box in annotations[view.view_id]
        if 0.0 <= e.center[0] <= w and 0.0 <= e.center[1] <= h
    ]


def perturb_box(b: Box, half_range: float, rng) -> Box:
    """Shift each of the four corner coordinates by an independent uniform
    draw in [-half_range, half_range]; reordered to keep min < max, redrawn
    (up to 10 times) when the result has zero area."""
    if half_range < 0:
        raise ValueError("half_range must be >= 0")
    for _ in range(10):
        d = rng.uniform(-half_range, half_range, size=4)
        x0, y0 = b.min[0] + d[0], b.min[1] + d[1]
        x1, y1 = b.max[0] + d[2], b.max[1] + d[3]
        lo = (min(x0, x1), min(y0, y1))
        hi = (max(x0, x1), max(y0, y1))
        if hi[0] - lo[0] > 1e-9 and hi[1] - lo[1] > 1e-9:
            return Box(lo, hi)
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
    """(label, Ellipse, Box) detections under the given detector model."""
    rng = view_rng(model.seed, view.view_id)
    gt = render_detections(scene, view)
    if model.kind == "gt_projection":
        return gt
    out = []
    for label, ellipse, box in gt:
        noisy = perturb_box(box, model.box_noise_half_range, rng)
        if model.kind == "inscribed_of_noisy_box":
            out.append((label, inscribed_ellipse(noisy), noisy))
        else:  # oracle_with_box_noise: ellipse unaffected by the crop shift
            out.append((label, ellipse, noisy))
    return out


# ---------------------------------------------------------------------------
# Minimum-area enclosing ellipse (Khachiyan iteration with away steps)
# ---------------------------------------------------------------------------


_MVEE_TOL = 1e-9  # duality gap at which the iteration stops
_MVEE_MAX_ITER = 100000
_MVEE_STALL_WINDOW = 100  # iterations without a 1% gap improvement before it stops


def min_enclosing_ellipse(points) -> Ellipse:
    """Minimum-area ellipse containing all points.

    Runs the Khachiyan barycentric-coordinate iteration (with Wolfe-Atwood
    away steps) on the convex hull of the input, then rescales so the
    outermost point lies exactly on the boundary.  What the stop
    guarantees: containment is exact to floating precision whenever it
    stops; the area is optimal only within the duality gap reached, that is
    ``_MVEE_TOL`` or the gap at which ``_MVEE_STALL_WINDOW`` (100)
    iterations in a row failed to improve the best gap by 1%.  Hulls of
    silhouettes with hundreds of near-support points end on that stall
    rule, near a gap of 1e-4, not on ``_MVEE_TOL``.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("points must be (N, 2)")
    if len(pts) < 3:
        raise DegeneratePointSet("need at least 3 points")
    centered = pts - pts.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] <= 1e-12 * max(sv[0], 1.0):
        raise DegeneratePointSet("points are collinear")
    if len(pts) > 16:
        from scipy.spatial import ConvexHull, QhullError

        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError as exc:
            raise DegeneratePointSet(str(exc)) from exc
    center, A = _mvee(pts)
    lam, V = np.linalg.eigh(A)
    axes = 1.0 / np.sqrt(lam)  # ascending lam -> descending axes
    angle = math.atan2(V[1, 0], V[0, 0])
    return canonicalize(Ellipse(center, (axes[0], axes[1]), angle))


def _mvee(pts: np.ndarray):
    n, d = pts.shape
    Q = np.column_stack([pts, np.ones(n)])
    u = np.full(n, 1.0 / n)
    dp1 = d + 1.0
    best_gap = math.inf
    since_improve = 0
    for _ in range(_MVEE_MAX_ITER):
        X = Q.T @ (Q * u[:, None])
        try:
            Xinv = np.linalg.inv(X)
        except np.linalg.LinAlgError as exc:
            raise DegeneratePointSet("weighted scatter is singular") from exc
        M = np.einsum("ij,jk,ik->i", Q, Xinv, Q)
        j_up = int(np.argmax(M))
        k_up = M[j_up]
        eps_up = k_up / dp1 - 1.0
        if eps_up <= _MVEE_TOL:
            break
        if eps_up < best_gap * 0.99:
            best_gap = eps_up
            since_improve = 0
        else:
            since_improve += 1
            if since_improve >= _MVEE_STALL_WINDOW:
                break  # flat-valley stall; the final rescale keeps containment
        support = u > 1e-12
        m_low = np.where(support, M, np.inf)
        j_dn = int(np.argmin(m_low))
        k_dn = m_low[j_dn]
        eps_dn = 1.0 - k_dn / dp1
        if eps_up >= eps_dn:
            step = (k_up - dp1) / (dp1 * (k_up - 1.0))
            u *= 1.0 - step
            u[j_up] += step
        else:
            step = min(
                (dp1 - k_dn) / (dp1 * max(k_dn - 1.0, 1e-300)),
                u[j_dn] / max(1.0 - u[j_dn], 1e-300),
            )
            u *= 1.0 + step
            u[j_dn] -= step
        np.clip(u, 0.0, None, out=u)
        u /= u.sum()
    center = pts.T @ u
    cov = pts.T @ (pts * u[:, None]) - np.outer(center, center)
    A = np.linalg.inv(cov) / d
    A = 0.5 * (A + A.T)
    # exact containment: scale so the farthest point sits on the boundary
    diff = pts - center
    vmax = float(np.einsum("ij,jk,ik->i", diff, A, diff).max())
    if vmax > 1.0:
        A = A / vmax
    return center, A


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
    if not 1 <= n_objects <= 6:
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
