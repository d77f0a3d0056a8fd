import math

import numpy as np
import pytest

from ellipose.geometry import Ellipse, Ellipsoid, bbox_of_ellipse, canonicalize, ellipse_to_conic


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_rotation(rng) -> np.ndarray:
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_ellipse(rng, center_scale=100.0) -> Ellipse:
    center = rng.uniform(-center_scale, center_scale, size=2)
    b = rng.uniform(0.5, 20.0)
    a = b * rng.uniform(1.05, 4.0)
    angle = rng.uniform(-math.pi / 2, math.pi / 2)
    return canonicalize(Ellipse(center, (a, b), angle))


def random_ellipsoid(rng, center_scale=2.0, min_ratio=1.0) -> Ellipsoid:
    center = rng.uniform(-center_scale, center_scale, size=3)
    axes = np.sort(rng.uniform(0.2, 1.0, size=3))[::-1]
    axes[0] *= min_ratio  # optionally force asphericity
    return Ellipsoid(center, axes, random_rotation(rng))


def grid_ellipse_iou(e1: Ellipse, e2: Ellipse, grid: int) -> float:
    """Reference IoU: tests every one of the grid x grid cell centers over
    the union of the two bounding boxes."""
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


def conic_distance(C1, C2) -> float:
    """Frobenius distance between normalized conics, sign-ambiguity safe."""
    d = float(np.linalg.norm(C1.M - C2.M))
    return min(d, float(np.linalg.norm(C1.M + C2.M)))


def ransac_iterations(inlier_fraction: float, minimal_set: int, confidence: float = 0.99) -> int:
    """Draws needed to hit an all-inlier sample at the given confidence."""
    if not 0.0 < inlier_fraction <= 1.0:
        raise ValueError("inlier fraction must be in (0, 1]")
    if inlier_fraction >= 1.0:
        return 1
    w = inlier_fraction**minimal_set
    return max(1, math.ceil(math.log(1.0 - confidence) / math.log(1.0 - w)))


def conic_residuals(e: Ellipse, M: np.ndarray, n=64) -> np.ndarray:
    """Incidence oracle: |x^T M x| for points on the parametric boundary."""
    pts = e.boundary_points(n)
    h = np.column_stack([pts, np.ones(len(pts))])
    return np.abs(np.einsum("ij,jk,ik->i", h, M, h))


def ellipsoids_equivalent(E1: Ellipsoid, E2: Ellipsoid, tol=1e-10) -> bool:
    """Same point set: compare centers and frame-free shape matrices."""
    scale = max(E1.max_axis, E2.max_axis)
    return (
        np.linalg.norm(E1.center - E2.center) <= tol * max(1.0, scale)
        and np.linalg.norm(E1.shape_matrix() - E2.shape_matrix())
        <= tol * max(1.0, scale**2)
    )


def ellipses_close(e1: Ellipse, e2: Ellipse, tol=1e-9) -> bool:
    """Same point set: compare normalized conic matrices."""
    d = np.linalg.norm(ellipse_to_conic(e1).M - ellipse_to_conic(e2).M)
    return d <= tol
