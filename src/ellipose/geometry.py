"""Exact algebra of ellipses, conics, ellipsoids, dual quadrics and their
perspective projection, plus the image/crop frame transforms.

Ellipses, ellipsoids, cameras, poses and frame transforms are immutable
value objects; conics and dual quadrics are plain arrays, stacked (n, 3, 3)
and (n, 4, 4) in the kernels, and a box is a row [x_min, y_min, x_max,
y_max], stacked (n, 4).  Every operation is a pure function, so everything
here is safe to share across threads.

Conventions:
  * a point conic M satisfies x^T M x = 0 for homogeneous boundary points;
  * matrices defined up to scale are stored with unit Frobenius norm and
    the first non-zero upper-triangular entry positive;
  * ellipse angles go from the horizontal image axis to the major axis; a
    canonical ellipse, made only by the kernel :func:`_canonical`, has
    a >= b and its angle in (-pi/2, pi/2], or 0 for a circle;
  * a world point X maps to the camera frame as R @ X + t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, NotAnEllipse, NotAnEllipsoid, SingularTransform

# Relative axis difference under which an ellipse is treated as a circle
# and its angle pinned to 0 (canonicalization tie-break).
CIRCLE_TIE_TOL = 1e-9

_SIGN_TOL = 1e-12

_TRIU: dict = {}  # matrix size -> raveled indices of its upper triangle, row-major


def _freeze(values, shape) -> np.ndarray:
    a = np.array(values, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():  # the method skips np.all's dispatch, ~2 us a call
        raise ValueError("values must be finite")
    a.setflags(write=False)
    return a


def _prechecked(cls, **values):
    """A value object of ``cls`` holding ``values`` as given, without its
    ``__post_init__``: the caller has frozen them and checked them by the
    rules of ``cls``."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


def normalize_symmetric(M: np.ndarray) -> np.ndarray:
    """Scale a symmetric matrix, or each of a stack (..., s, s), to unit
    Frobenius norm with the sign fixed by the first non-zero upper-triangular
    entry (row-major scan); the norm is a row-by-column matmul, one BLAS dot
    per matrix, so a matrix comes out alike alone or stacked."""
    M = 0.5 * (M + M.swapaxes(-1, -2))
    size = M.shape[-1]
    flat = M.reshape(-1, 1, size * size)
    n = np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0]
    if not 1e-300 <= n.min() <= n.max() < np.inf:  # NaN fails too
        raise ValueError("cannot normalize a zero or non-finite matrix")
    flat = flat[:, 0] / n
    if size not in _TRIU:
        _TRIU[size] = np.flatnonzero(np.triu(np.ones((size, size))))
    vals = flat[:, _TRIU[size]]
    significant = np.abs(vals) > _SIGN_TOL
    first = (vals * significant)[np.arange(len(vals)), significant.argmax(axis=1)]  # 0 if none
    return (flat * np.where(first < 0.0, -1.0, 1.0)[:, None]).reshape(M.shape)


def rotation_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rotation_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _wrap(t):
    """Angles t, a float or an array, wrapped into (-pi/2, pi/2] as an array."""
    t = (t + 0.5 * math.pi) % math.pi - 0.5 * math.pi
    return np.where(t <= -0.5 * math.pi, 0.5 * math.pi, t)


def wrap_angle_half_pi(theta: float) -> float:
    """Wrap an angle into (-pi/2, pi/2] modulo the pi-periodicity of ellipses."""
    return float(_wrap(theta))


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ellipse:
    """Ellipse as (center, semi-axes, major-axis angle) in pixels/radians.

    Construction only requires positive axes; use :func:`canonicalize` to
    obtain the unique a >= b, angle in (-pi/2, pi/2] representative.
    """

    center: np.ndarray
    axes: np.ndarray
    angle: float

    def __post_init__(self):
        center = _freeze(self.center, (2,))
        axes = _freeze(self.axes, (2,))
        if not (axes[0] > 0.0 and axes[1] > 0.0):
            raise ValueError("ellipse semi-axes must be positive")
        angle = float(self.angle)
        if not math.isfinite(angle):
            raise ValueError("ellipse angle must be finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "angle", angle)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Ellipsoid as (center, semi-axis lengths, world-frame rotation)."""

    center: np.ndarray
    axes: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        center = _freeze(self.center, (3,))
        axes = _freeze(self.axes, (3,))
        rotation = _freeze(self.rotation, (3, 3))
        if not np.all(axes > 0.0):
            raise ValueError("ellipsoid semi-axes must be positive")
        if _check_rotation(rotation[None])[0]:
            raise ValueError(_NOT_A_ROTATION)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "rotation", rotation)


@dataclass(frozen=True, eq=False)
class CameraModel:
    """Pinhole intrinsics (pixels) plus image size."""

    K: np.ndarray
    image_size: np.ndarray

    def __post_init__(self):
        K = _freeze(self.K, (3, 3))
        size = _freeze(self.image_size, (2,))
        if _check_cameras(K[None], size[None])[0]:
            raise ValueError(_NOT_A_CAMERA)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "image_size", size)


@dataclass(frozen=True, eq=False)
class Pose:
    """Rigid world-to-camera transform: X_cam = R @ X_world + t."""

    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        R = _freeze(self.R, (3, 3))
        t = _freeze(self.t, (3,))
        if _check_rotation(R[None])[0]:
            raise ValueError(_NOT_A_ROTATION)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    @property
    def matrix(self) -> np.ndarray:
        """3x4 [R | t]."""
        return np.column_stack([self.R, self.t])

    @property
    def camera_center(self) -> np.ndarray:
        return -self.R.T @ self.t


@dataclass(frozen=True, eq=False)
class FrameTransform:
    """Invertible pixel-to-pixel homography."""

    H: np.ndarray

    def __post_init__(self):
        H = _freeze(self.H, (3, 3))
        scale = float(np.abs(H).max())
        if abs(np.linalg.det(H)) <= 1e-12 * scale**3:
            raise SingularTransform("homography is numerically singular")
        object.__setattr__(self, "H", H)

    def inverse(self) -> "FrameTransform":
        return FrameTransform(np.linalg.inv(self.H))


def _check_int(name: str, value, least: int) -> None:
    """An int option (bool excluded) must be at least ``least``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


_NOT_A_CAMERA = ("not a pinhole camera: K must be upper-triangular with K[2,2] = 1 and "
                 "positive focal lengths, and the image size positive")


def _check_cameras(K: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Mask of the cameras of the stacks K (n, 3, 3) and image sizes (n, 2)
    that break a rule of :class:`CameraModel`: K upper-triangular within
    1e-12 with K[2,2] = 1, positive focal lengths and a positive image
    size.  A camera holding a NaN breaks no rule."""
    off = np.abs(K.reshape(-1, 9)[:, [8, 3, 6, 7]] - (1.0, 0.0, 0.0, 0.0))  # K22-1, K10, K20, K21
    return (off > 1e-12).any(axis=1) | (K[:, 0, 0] <= 0.0) | (K[:, 1, 1] <= 0.0) \
        | (size <= 0.0).any(axis=1)


_NOT_A_ROTATION = "matrix is not a rotation (orthonormal with determinant +1)"


def _check_rotation(R: np.ndarray) -> np.ndarray:
    """Mask of the matrices of the stack R (n, 3, 3) that are not rotations:
    R^T R must lie within 1e-8 of I in Frobenius norm and det R must not be
    negative.  A matrix whose R^T R overflows or holds a NaN is not a
    rotation.  Each matrix gets its own BLAS products, so it gets the same
    verdict alone or stacked."""
    with np.errstate(over="ignore", invalid="ignore"):
        E = (R.transpose(0, 2, 1) @ R - np.eye(3)).reshape(-1, 1, 9)
        return ~(np.sqrt(E @ E.transpose(0, 2, 1))[:, 0, 0] <= 1e-8) | (np.linalg.det(R) < 0.0)


# ---------------------------------------------------------------------------
# Ellipse <-> conic
# ---------------------------------------------------------------------------


def _ellipse_conics(centers, axes, angles):
    """Point conics (n,3,3), not normalized, of the ellipses with centers c
    (n,2), semi-axes (n,2) and angles (n,): [[A, -A c], [-c^T A, c^T A c - 1]]
    with A = R diag(a^-2, b^-2) R^T, R the rotation by the angle."""
    n = len(centers)
    cs = [(math.cos(a), math.sin(a)) for a in angles.tolist()]
    R = np.array([((c, -s), (s, c)) for c, s in cs]).reshape(n, 2, 2)
    A = (R * (1.0 / axes**2)[:, None]) @ R.transpose(0, 2, 1)  # R diag(a^-2, b^-2) R^T
    c = centers[:, :, None]
    M = np.empty((n, 3, 3))
    M[:, :2, :2] = A
    M[:, :2, 2:] = -A @ c
    M[:, 2:, :2] = M[:, :2, 2:].transpose(0, 2, 1)
    M[:, 2, 2] = (c.transpose(0, 2, 1) @ A @ c)[:, 0, 0] - 1.0
    return M


def _canonical(centers, axes, angles):
    """Canonical (centers, axes, angles) of ellipses with centers (n,2),
    semi-axes (n,2) and angles (n,): where a < b the axes swap and the angle
    turns by pi/2; angles wrap into (-pi/2, pi/2], and a circle's is 0."""
    swap = axes[:, 0] < axes[:, 1]
    axes = np.where(swap[:, None], axes[:, ::-1], axes)
    angles = _wrap(np.where(swap, angles + 0.5 * math.pi, angles))
    angles[np.abs(axes[:, 0] - axes[:, 1]) <= CIRCLE_TIE_TOL * axes[:, 0]] = 0.0
    return centers, axes, angles


def canonicalize(e: Ellipse) -> Ellipse:
    """Unique representative, a >= b, angle in (-pi/2, pi/2], circles at 0."""
    _, axes, angles = _canonical(e.center[None], e.axes[None], np.array([e.angle]))
    return Ellipse(e.center, axes[0], angles[0])


# ---------------------------------------------------------------------------
# Ellipsoid <-> dual quadric, projection
# ---------------------------------------------------------------------------


def _quadric_duals(centers, axes, rotations):
    """Dual quadrics (d = 3) or dual conics (d = 2) Z diag(axes^2, -1) Z^T
    (n,d+1,d+1), not normalized, of the ellipsoids or ellipses with centers
    c (n,d), semi-axes (n,d) and rotations R (n,d,d); Z = [[R, c], [0, 1]] is
    the rigid frame, and the product is [[R diag(axes^2) R^T - c c^T, -c],
    [-c^T, -1]], the inverse of the point form."""
    n, d = centers.shape
    Z = np.zeros((n, d + 1, d + 1))
    Z[:, :d, :d], Z[:, :d, d], Z[:, d, d] = rotations, centers, 1.0
    diag = np.concatenate([axes**2, -np.ones((n, 1))], axis=1)
    return (Z * diag[:, None]) @ Z.transpose(0, 2, 1)  # Z diag Z^T


def _ellipsoid_of_dual(Q) -> Ellipsoid:
    """The ellipsoid of a symmetric 4x4 dual quadric of any nonzero scale;
    raises NotAnEllipsoid on a center at infinity or a bad signature."""
    q = normalize_symmetric(Q)
    if abs(q[3, 3]) < 1e-12:  # q is unit-Frobenius normalized
        raise NotAnEllipsoid("quadric center is at infinity")
    q = q / q[3, 3]
    center = q[:3, 3].copy()
    S = np.outer(center, center) - q[:3, :3]  # R diag(axes^2) R^T
    evals, evecs = np.linalg.eigh(S)
    if evals[0] <= 1e-12 * abs(evals[-1]) or evals[-1] <= 0.0:
        raise NotAnEllipsoid("quadric does not have ellipsoid signature")
    order = np.argsort(evals)[::-1]  # axes sorted descending, like ellipses
    evals = evals[order]
    R = evecs[:, order]
    if np.linalg.det(R) < 0.0:
        R = R.copy()
        R[:, 2] = -R[:, 2]
    return Ellipsoid(center, np.sqrt(evals), R)


def project_ellipsoid(E: Ellipsoid, pose: Pose, cam: CameraModel) -> Ellipse:
    """Exact perspective outline of an ellipsoid, as a canonical ellipse.

    The dual quadric projects linearly: C* = P Q* P^T with P = K [R | t];
    the returned ellipse is the point form of C*.  This is the 1 x 1 case of
    :func:`_outlines`, on the conic of the kernel the pose solvers use.
    Raises BehindCamera when the ellipsoid center has non-positive depth and
    NotAnEllipse when the quadric crosses the principal plane (outline
    degenerates to a hyperbola).
    """
    Qd = _quadric_duals(E.center[None], E.axes[None], E.rotation[None])
    centers, axes, angles, code, depth = _outlines(
        pose.R[None], pose.t[None], Qd, E.center[None], cam.K[None]
    )
    if code[0, 0]:
        raise _outline_error(int(code[0, 0]), float(depth[0, 0]))
    return Ellipse(centers[0, 0], axes[0, 0], angles[0, 0])


_FULL = np.array([0, 1, 2, 1, 3, 4, 2, 4, 5])  # upper-triangle index of each raveled 3x3 entry
_UPPER = np.array([0, 1, 2, 4, 5, 8])  # raveled 3x3 index of entries 00, 01, 02, 11, 12, 22
# adjugate entry k is x[P[k]] * x[Q[k]] - x[R[k]] * x[S[k]] over the upper entries x,
# the rows of _ADJ being P, Q, R and S
_ADJ = np.array([[3, 2, 1, 0, 1, 0], [5, 4, 4, 5, 2, 3], [4, 1, 2, 2, 0, 1], [4, 5, 3, 2, 4, 1]])


def _project_pairs(Rs, ts, Qd, centers):
    """The conic-projection kernel, the one place that forms C* = P Q* P^T:
    k dual quadrics Qd (k,4,4) centered at ``centers`` (k,3), seen from n
    poses P = [R | t] (Rs (n,3,3), ts (n,3)); or, per pose, its own k
    quadrics (Qd (n,k,4,4), centers (n,k,3)).

    Returns (N, depth, valid, terms): the unit point conics N (n,k,3,3) in
    normalized image coordinates, NaN where invalid; the depths (n,k) of the
    centers; the mask valid (n,k) of centers in front of the camera with a
    non-degenerate conic; and the terms ``pose._conic_jacobians``
    differentiates, so a Jacobian is always that of the very conic its
    residual came from.  N is the adjugate of C*, its inverse up to scale,
    scaled to unit Frobenius norm with the first entry of significant size
    positive (the convention of :func:`normalize_symmetric`).
    """
    n, k = len(Rs), Qd.shape[-3]
    P = np.concatenate([Rs, ts[:, :, None]], axis=2)[:, None]
    QPt = Qd @ P.transpose(0, 1, 3, 2)  # (n,k,4,3)
    depth = (Rs[:, None, None, 2] @ centers[..., None])[..., 0, 0] + ts[:, 2:]
    C = (P @ QPt).reshape(-1, 9)
    x = C[:, _UPPER]  # (a, b, c, d, e, f)
    t = x[:, _ADJ]
    m = t[:, 0] * t[:, 1] - t[:, 2] * t[:, 3]  # the upper entries of adj(C*)
    det = (x[:, :3] * m[:, :3]).sum(axis=1)
    sq = m * m
    norm = np.sqrt(sq[:, 0] + sq[:, 3] + sq[:, 5] + 2.0 * (sq[:, 1] + sq[:, 2] + sq[:, 4]))
    with np.errstate(all="ignore"):
        valid = (depth.ravel() > 0.0) & (np.abs(det) >= 1e-14 * np.abs(C).max(axis=1) ** 3) \
            & (norm >= 1e-300)
        s = 1.0 / norm
        first = np.argmax(np.abs(m) * s[:, None] > 1e-12, axis=1)
        s = np.where(m[np.arange(len(m)), first] < 0.0, -s, s)
        u = np.where(valid[:, None], m * s[:, None], np.nan)
    N = u[:, _FULL].reshape(n, k, 3, 3)
    return N, depth, valid.reshape(n, k), (QPt, x.reshape(n, k, 1, 6), N, s.reshape(n, k, 1, 1))


_NOT_AN_ELLIPSE = {
    2: "projected dual conic is degenerate",
    3: "conic is parabolic or degenerate",
    4: "conic is a hyperbola",
    5: "conic has no real bounded point set",
}


def _outline_error(code: int, depth: float):
    """The error that an outline with the non-zero ``code`` of
    :func:`_outlines` and center ``depth`` raises."""
    if code == 1:
        return BehindCamera(f"ellipsoid center depth {depth:.3g} <= 0")
    return NotAnEllipse(_NOT_AN_ELLIPSE[code])


def _ellipses_of_conics(M):
    """Canonical ellipse parameters of a stack (n,3,3) of point conics, which
    it overwrites: (centers (n,2), axes (n,2), angles (n,), codes).

    A conic's code is 0, or the key in ``_NOT_AN_ELLIPSE`` of the first test
    it fails (3 parabolic or degenerate, 4 hyperbola, 5 no real point); the
    parameters of a failed conic are meaningless.
    """
    M[np.trace(M[:, :2, :2], axis1=1, axis2=2) < 0.0] *= -1.0  # positive leading block
    A = M[:, :2, :2]
    lam, V = np.linalg.eigh(A)
    scale = np.abs(lam).max(axis=1)
    parabolic = (scale <= 0.0) | (np.abs(lam).min(axis=1) <= 1e-12 * scale)
    hyperbola = lam[:, 0] * lam[:, 1] < 0.0
    A[parabolic] = np.eye(2)  # placeholder, keeps the solve nonsingular
    centers = np.linalg.solve(A, -M[:, :2, 2:])[:, :, 0]
    k = np.einsum("ni,ni->n", M[:, :2, 2], centers) + M[:, 2, 2]  # conic value at the center
    code = np.where(k >= 0.0, 5, 0)
    code[hyperbola] = 4
    code[parabolic] = 3
    with np.errstate(divide="ignore", invalid="ignore"):
        axes = np.sqrt(-k[:, None] / lam)  # ascending lam: a >= b, a along V[:, :, 0]
    return (*_canonical(centers, axes, np.arctan2(V[:, 1, 0], V[:, 0, 0])), code)


def _outlines(Rs, ts, Qd, centers, K):
    """Pixel outlines of the conics of :func:`_project_pairs` for n poses
    times k quadrics, pose i seen with the intrinsics K[i] (K (n,3,3)), with
    the tests of :func:`_ellipses_of_conics`.

    Returns (centers (n,k,2), axes (n,k,2), angles (n,k), code (n,k), depth
    (n,k)): canonical ellipse parameters, NaN where the code is not 0; the
    code, 0 or 1 (center behind the camera), 2 (degenerate conic) or 3-5
    (:data:`_NOT_AN_ELLIPSE`); and the center depths, from which
    :func:`_outline_error` makes the error of a failed pair.

    The adjugate is taken in intrinsics-normalized coordinates and only then
    mapped to pixels: pixel-frame dual-conic entries span several orders of
    magnitude, and its products would cancel (axes about 50 times less
    accurate with f = 500 px).
    """
    N, depth, valid, _ = _project_pairs(Rs, ts, Qd, centers)
    n, k = valid.shape
    Kinv = np.linalg.inv(K)[:, None]
    M = (Kinv.transpose(0, 1, 3, 2) @ N @ Kinv).reshape(-1, 3, 3)
    invalid = ~valid.ravel()
    M[invalid] = np.diag([1.0, 1.0, -1.0])  # placeholder, keeps LAPACK finite
    out, axes, angles, code = _ellipses_of_conics(M)
    code[invalid] = 2
    code[depth.ravel() <= 0.0] = 1
    failed = code != 0
    out[failed] = axes[failed] = angles[failed] = np.nan
    return (out.reshape(n, k, 2), axes.reshape(n, k, 2), angles.reshape(n, k),
            code.reshape(n, k), depth)


# ---------------------------------------------------------------------------
# Boxes, crops and plane transforms
# ---------------------------------------------------------------------------


def _inscribed_ellipses(boxes):
    """Canonical axis-aligned ellipses (centers, axes, angles) inscribed in
    boxes (n,4), the box-fitting baseline: a taller box's at angle pi/2."""
    lo, hi = boxes[:, :2], boxes[:, 2:]
    return _canonical(0.5 * (lo + hi), 0.5 * (hi - lo), np.zeros(len(boxes)))


def _bbox_half(a, b, angle):
    """Half width and half height of the bounding box of an ellipse with
    semi-axes (a, b) at ``angle``, in Python floats."""
    a2, b2 = a**2, b**2
    c2, s2 = math.cos(angle) ** 2, math.sin(angle) ** 2
    return math.sqrt(a2 * c2 + b2 * s2), math.sqrt(a2 * s2 + b2 * c2)


def transform_ellipse(e: Ellipse, T: FrameTransform) -> Ellipse:
    """Map an ellipse through a homography, returning the canonical result:
    its unit point conic M goes to H^-T M H^-1.  Raises NotAnEllipse when
    the image is no ellipse, as when H sends the ellipse across the line at
    infinity."""
    M = normalize_symmetric(_ellipse_conics(e.center[None], e.axes[None], np.array([e.angle]))[0])
    Hinv = np.linalg.inv(T.H)  # FrameTransform has checked that H is invertible
    M = normalize_symmetric(Hinv.T @ M @ Hinv)
    centers, axes, angles, code = _ellipses_of_conics(M[None])
    if code[0]:
        raise NotAnEllipse(_NOT_AN_ELLIPSE[int(code[0])])
    return Ellipse(centers[0], axes[0], angles[0])


def crop_transform(box, out_size: float) -> FrameTransform:
    """Similarity mapping the square completion of a box [x_min, y_min,
    x_max, y_max] onto [0, out_size]^2.

    The shorter box side is expanded symmetrically about the box center, so
    aspect ratio is preserved; the transform goes image -> crop and its
    inverse is obtained with ``.inverse()``.
    """
    box = _freeze(box, (4,))
    lo, hi = box[:2], box[2:]
    if not np.all(lo < hi):
        raise ValueError("box min must be strictly below max")
    if out_size <= 0:
        raise ValueError("out_size must be positive")
    side = float((hi - lo).max())
    s = out_size / side
    cx, cy = 0.5 * (lo + hi)
    H = np.array(
        [
            [s, 0.0, 0.5 * out_size - s * cx],
            [0.0, s, 0.5 * out_size - s * cy],
            [0.0, 0.0, 1.0],
        ]
    )
    return FrameTransform(H)

