import math

import numpy as np
import pytest

from ellipose.geometry import Ellipse, Ellipsoid, canonicalize, ellipse_to_conic


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
