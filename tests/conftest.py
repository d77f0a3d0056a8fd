import math
from collections import namedtuple

import numpy as np
import pytest

from ellipose.errors import BehindCamera, ElliposeError, NotAnEllipse
from ellipose.geometry import (
    Ellipse,
    Ellipsoid,
    FrameTransform,
    Pose,
    canonicalize,
    normalize_symmetric,
    project_ellipsoid,
    rotation_z,
    _bbox_half,
    _ellipse_conics,
    _project_pairs,
)
from ellipose.pose import (
    _DP_TRANSLATION,
    _conic_jacobians,
    _pairs,
    _pose_directions,
    _ray_placements,
    _refine_raw,
    _rotations,
    _row_norms,
    _two_pair_solutions,
)
from ellipose.reconstruction import (
    EllipsoidCloud,
    Observation,
    ViewAnnotations,
    reconstruct_ellipsoid,
)
from ellipose.simulator import SceneObject, SceneSpec


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def rot2d(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


def axis_angle_to_matrix(w) -> np.ndarray:
    """Rodrigues map: rotation vector (axis * angle) to a rotation matrix."""
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    if theta < 1e-12:
        K = np.array(
            [[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]
        )
        return np.eye(3) + K  # first-order term is exact enough below 1e-12
    axis = w / theta
    K = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + math.sin(theta) * K + (1.0 - math.cos(theta)) * (K @ K)


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


def bbox_of_ellipse(e: Ellipse) -> np.ndarray:
    """Tight axis-aligned bounding box [x_min, y_min, x_max, y_max] of an
    ellipse, with the half-extents of the IoU grid."""
    half = np.array(_bbox_half(float(e.axes[0]), float(e.axes[1]), e.angle))
    return np.concatenate([e.center - half, e.center + half])


def grid_ellipse_iou(e1: Ellipse, e2: Ellipse, grid: int) -> float:
    """Reference IoU: tests every one of the grid x grid cell centers over
    the union of the two bounding boxes."""
    b1, b2 = bbox_of_ellipse(e1), bbox_of_ellipse(e2)
    lo = np.minimum(b1[:2], b2[:2])
    hi = np.maximum(b1[2:], b2[2:])
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


def conic_distance(e1: Ellipse, e2: Ellipse) -> float:
    """Frobenius distance between the unit point conics of two ellipses;
    both have a positive [0, 0] entry, so their signs agree."""
    centers, axes = np.array([e1.center, e2.center]), np.array([e1.axes, e2.axes])
    M = normalize_symmetric(_ellipse_conics(centers, axes, np.array([e1.angle, e2.angle])))
    return float(np.linalg.norm(M[0] - M[1]))


def boundary_points(e: Ellipse, n: int = 64) -> np.ndarray:
    """(n, 2) points of the parametric boundary."""
    t = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    local = np.stack([e.axes[0] * np.cos(t), e.axes[1] * np.sin(t)])
    return (rot2d(e.angle) @ local).T + e.center


def ellipse_contains(e: Ellipse, points: np.ndarray, slack: float = 0.0) -> np.ndarray:
    """Boolean mask of points inside the (slightly inflated) ellipse."""
    local = (np.atleast_2d(points) - e.center) @ rot2d(e.angle)  # R^T applied to rows
    q = (local[:, 0] / e.axes[0]) ** 2 + (local[:, 1] / e.axes[1]) ** 2
    return q <= 1.0 + slack


def apply_transform(T: FrameTransform, points: np.ndarray) -> np.ndarray:
    """Map (N, 2) or (2,) points through the homography."""
    p = np.atleast_2d(points)
    h = np.column_stack([p, np.ones(len(p))]) @ T.H.T
    out = h[:, :2] / h[:, 2:3]
    return out[0] if np.ndim(points) == 1 else out


def stretched_cloud(cloud: EllipsoidCloud, scale: float, angle: float) -> EllipsoidCloud:
    """Variant abstraction: longest axis scaled, frame rotated in-plane."""
    entries = []
    for label, E in cloud.entries:
        axes = np.array(E.axes)
        axes[0] *= scale
        entries.append((label, Ellipsoid(E.center, axes, rotation_z(angle) @ E.rotation)))
    return EllipsoidCloud(tuple(entries))


def scene_from_cloud(cloud: EllipsoidCloud, template: SceneSpec) -> SceneSpec:
    """``template`` with each object's ellipsoid taken from ``cloud``."""
    by_label = dict(cloud.entries)
    return SceneSpec(
        tuple(SceneObject(o.label, by_label[o.label], o.model_points) for o in template.objects)
    )


def conic_residuals(e: Ellipse, M: np.ndarray, n=64) -> np.ndarray:
    """Incidence oracle: |x^T M x| for points on the parametric boundary."""
    pts = boundary_points(e, n)
    h = np.column_stack([pts, np.ones(len(pts))])
    return np.abs(np.einsum("ij,jk,ik->i", h, M, h))


def max_axis(E: Ellipsoid) -> float:
    return float(E.axes.max())


def shape_matrix(E: Ellipsoid) -> np.ndarray:
    """R diag(a^2, b^2, c^2) R^T; frame-free description of the shape."""
    return E.rotation @ np.diag(E.axes**2) @ E.rotation.T


def ellipsoids_equivalent(E1: Ellipsoid, E2: Ellipsoid, tol=1e-10) -> bool:
    """Same point set: compare centers and frame-free shape matrices."""
    scale = max(max_axis(E1), max_axis(E2))
    return (
        np.linalg.norm(E1.center - E2.center) <= tol * max(1.0, scale)
        and np.linalg.norm(shape_matrix(E1) - shape_matrix(E2))
        <= tol * max(1.0, scale**2)
    )


def ellipses_close(e1: Ellipse, e2: Ellipse, tol=1e-9) -> bool:
    """Same point set: compare normalized conic matrices."""
    return conic_distance(e1, e2) <= tol


def view_annotations(rows) -> ViewAnnotations:
    """A view's annotation arrays from (label, box row, Ellipse or None) rows."""
    nan = (math.nan, math.nan)
    return ViewAnnotations(
        [label for label, _, _ in rows],
        [b for _, b, _ in rows],
        [nan if e is None else e.center for _, _, e in rows],
        [nan if e is None else e.axes for _, _, e in rows],
        [math.nan if e is None else e.angle for _, _, e in rows],
    )


def annotation_rows(a: ViewAnnotations) -> list:
    """(label, box row, Ellipse or None) per row of a view's annotation arrays."""
    return [
        (label, b, None if math.isnan(t) else Ellipse(c, ax, t))
        for label, b, c, ax, t in zip(a.labels, a.boxes, a.centers, a.axes, a.angles)
    ]


# ---------------------------------------------------------------------------
# References of the map path: one value object per record
# ---------------------------------------------------------------------------


def reference_inscribed(box) -> Ellipse:
    """The axis-aligned ellipse inscribed in a box row, canonicalized."""
    lo, hi = np.asarray(box[:2], float), np.asarray(box[2:], float)
    return canonicalize(Ellipse(0.5 * (lo + hi), 0.5 * (hi - lo), 0.0))


def reference_cloud(boxes_by_view, views) -> list:
    """(label, Ellipsoid) per label in sorted order, each from the inscribed
    ellipses of its boxes, one Ellipse and one Observation per record."""
    observations = {}
    for vid, (labels, boxes) in boxes_by_view.items():
        for label, b in zip(labels, boxes):
            e = reference_inscribed(b)
            observations.setdefault(label, []).append(Observation(label, e, vid))
    return [(label, reconstruct_ellipsoid(observations[label], views))
            for label in sorted(observations)]


def reference_annotations(cloud: EllipsoidCloud, views) -> tuple:
    """Per view, (label, Ellipse, box row) of each object's own projection and
    its bbox_of_ellipse; and the (view_id, label, note) of each skipped one."""
    annotations, skipped = {}, []
    for v in views:
        rows = []
        for label, E in cloud.entries:
            try:
                e = project_ellipsoid(E, v.pose, v.cam)
            except (BehindCamera, NotAnEllipse) as exc:
                skipped.append((v.view_id, label, f"{type(exc).__name__}: {exc}"))
                continue
            rows.append((label, e, bbox_of_ellipse(e)))
        annotations[v.view_id] = rows
    return annotations, skipped


# ---------------------------------------------------------------------------
# The pose solver's cores on hand-made pairs
# ---------------------------------------------------------------------------


PairRow = namedtuple("PairRow", "ellipse ellipsoid")


def pair_row(ellipse: Ellipse, ellipsoid: Ellipsoid) -> PairRow:
    """A detected ellipse, in canonical form, paired with an ellipsoid."""
    return PairRow(canonicalize(ellipse), ellipsoid)


def pairs_table(rows, K):
    """The solver's table with one row per pair row, in order: each row a
    detection and an object of a label of its own."""
    table, _, _ = _pairs([(str(i), r.ellipse) for i, r in enumerate(rows)],
                         EllipsoidCloud(tuple((str(i), r.ellipsoid) for i, r in enumerate(rows))),
                         K)
    return table


def two_pair_pose(r1, r2, cam) -> Pose:
    """Full 6-dof pose from two pair rows: the one-draw case of the
    two-pair core, whose error it raises."""
    (solution,) = _two_pair_solutions(pairs_table((r1, r2), cam.K), [(0, 1)])
    if isinstance(solution, ElliposeError):
        raise solution
    return solution


Polished = namedtuple("Polished", "pose converged costs")


def polish(p0: Pose, rows, cam, *, rotation_fixed=False) -> Polished:
    """The solver's one-candidate polish from ``p0`` over the pair rows:
    the pose (``p0`` itself when no step was accepted), whether it
    converged, and the costs (the initial one, then one per step)."""
    res, (R, t) = _refine_raw(p0.R[None], p0.t[None], pairs_table(rows, cam.K),
                              np.arange(len(rows))[None], rotation_fixed=rotation_fixed)
    costs = res.costs[0]
    return Polished(p0 if len(costs) <= 1 else Pose(R[0], t[0]), bool(res.converged[0]),
                    tuple(costs))


def placed_and_refined(row, R, cam):
    """Camera translation from one pair under a known orientation: the
    closed-form ray placement, then a one-pair rotation-fixed polish."""
    ts, ok = _ray_placements(np.asarray(R, float)[None], pairs_table([row], cam.K), 0)
    assert ok[0], "the placement is invalid"
    return polish(Pose(R, ts[0]), [row], cam, rotation_fixed=True).pose.t


# ---------------------------------------------------------------------------
# References of the pose solver: the scalar conic projection and the
# one-candidate LM
# ---------------------------------------------------------------------------


def _adjugate(a, b, c, d, e, f):
    """Upper-triangle entries (00, 01, 02, 11, 12, 22) of the adjugate of a
    symmetric 3x3 matrix."""
    return (d * f - e * e, c * e - b * f, b * e - c * d,
            a * f - c * c, b * c - a * e, a * d - b * b)


def _unit_adjugate(Cd):
    """Adjugate entries of the dual conic ``Cd`` and the signed scale ``s``
    that makes them a unit-Frobenius point conic, or None when degenerate;
    the sign makes the first entry of significant size positive."""
    (a, b, c), (_, d, e), (_, _, f) = Cd.tolist()
    m = _adjugate(a, b, c, d, e, f)
    m00, m01, m02, m11, m12, m22 = m
    det = a * m00 + b * m01 + c * m02
    scale = max(abs(a), abs(b), abs(c), abs(d), abs(e), abs(f))
    if scale <= 0.0 or abs(det) < 1e-14 * scale**3:
        return None
    norm = math.sqrt(
        m00 * m00 + m11 * m11 + m22 * m22 + 2.0 * (m01 * m01 + m02 * m02 + m12 * m12)
    )
    if norm < 1e-300:
        return None
    s = 1.0 / norm
    for v in m:
        if abs(v) * s > 1e-12:
            if v < 0.0:
                s = -s
            break
    return m, s


def projected_conic(R, t, pairs, i):
    """Point conic of the quadric of row i of the table in normalized image
    coordinates, unit-Frobenius scaled, or None when the projection is
    invalid."""
    if R[2] @ pairs.center_w[i] + t[2] <= 0.0:
        return None
    P = np.column_stack([R, t])
    unit = _unit_adjugate(P @ pairs.Qd[i] @ P.T)
    if unit is None:
        return None
    (m00, m01, m02, m11, m12, m22), s = unit
    return s * np.array([[m00, m01, m02], [m01, m11, m12], [m02, m12, m22]])


def reference_lm(fun, x0, jac, max_iter=50):
    """One-candidate damped least squares: ``fun(x)`` is the residual or
    None when invalid, ``jac(x)`` the Jacobian at an accepted point.
    Returns (x, costs, converged, uphill); costs is empty for an invalid
    start, and uphill counts the valid trials rejected for raising the cost.

    Its sums are taken as the lockstep LM takes them over its rows, on a
    leading axis of one, so that ties at convergence resolve alike."""

    def norm(v):
        return float(_row_norms(v[None])[0])

    def sq(r):
        return float((r[None] * r[None]).sum(axis=1)[0])

    x = np.array(x0, float)
    r = fun(x)
    if r is None:
        return x, [], False, 0
    cost = sq(r)
    costs, lam, converged, uphill = [cost], 1e-3, False, 0
    for _ in range(max_iter):
        J = jac(x)[None]
        g = (r[None, None] @ J)[0, 0]
        grad_norm = norm(g)
        if grad_norm < 1e-12:
            converged = True
            break
        A = (J.transpose(0, 2, 1) @ J)[0]
        D = np.diag(np.maximum(np.diag(A), 1e-12))
        stepped = False
        while lam < 1e12:
            try:
                delta = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rt = fun(x + delta)
            if rt is not None and sq(rt) <= cost:
                x = x + delta
                r, cost, c_old = rt, sq(rt), cost
                costs.append(cost)
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                converged = c_old - cost <= 1e-12 * c_old
                break
            uphill += rt is not None
            lam *= 4.0
        if not stepped:
            converged = grad_norm < 1e-6
            break
        if converged:
            break
    return x, costs, converged, uphill


def reference_refine(R0, t0, pairs, *, max_iter=50, rotation_fixed=False):
    """:func:`reference_lm` from one pose over the translation or over
    (axis-angle increment, translation offset), on conics of the pose
    module's kernel, over the rows of the table ``pairs``.  Returns (R, t,
    costs, converged, uphill)."""

    Qd, centers, M_det = pairs.Qd, pairs.center_w, pairs.M_det

    def project(R, t):
        N, _, valid, terms = _project_pairs(R[None], t[None], Qd, centers)
        return N[0], valid[0].all(), terms

    def pose_at(x):
        if rotation_fixed:
            return R0, x
        return (_rotations(x[None, :3]) @ R0[None])[0], t0 + x[3:]

    def fun(x):
        N, valid, _ = project(*pose_at(x))
        return (N - M_det).ravel() if valid else None

    def jac(x):
        R, t = pose_at(x)
        if rotation_fixed:
            dP = _DP_TRANSLATION[None]
        else:
            dP = _pose_directions(x[None, :3], R[None])
        return _conic_jacobians(project(R, t)[2], dP)[0]

    x, costs, converged, uphill = reference_lm(
        fun, t0 if rotation_fixed else np.zeros(6), jac, max_iter)
    return (*pose_at(x), costs, converged, uphill)


def reference_mvee_area(points, tol=1e-9) -> float:
    """Area of the minimum-area ellipse of ``points`` by the slow reference:
    Khachiyan's barycentric iteration with Wolfe-Atwood away steps on every
    point, run until max_i q_i^T X(u)^-1 q_i <= 3 (1 + tol), with no cap
    and no stall rule, then rescaled to contain every point."""
    pts = np.asarray(points, float)
    n, d = pts.shape
    Q = np.column_stack([pts, np.ones(n)])
    u = np.full(n, 1.0 / n)
    dp1 = d + 1.0
    while True:
        M = np.einsum("ij,jk,ik->i", Q, np.linalg.inv(Q.T @ (Q * u[:, None])), Q)
        j_up = int(np.argmax(M))
        k_up = M[j_up]
        if k_up / dp1 - 1.0 <= tol:
            break
        m_low = np.where(u > 1e-12, M, np.inf)
        j_dn = int(np.argmin(m_low))
        k_dn = m_low[j_dn]
        if k_up / dp1 - 1.0 >= 1.0 - k_dn / dp1:
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
    diff = pts - pts.T @ u
    A = np.linalg.inv(diff.T @ (diff * u[:, None])) / d
    vmax = max(1.0, float(np.einsum("ij,jk,ik->i", diff, A, diff).max()))
    return math.pi * vmax / math.sqrt(np.linalg.det(A))


def mvee_optimality(P, u) -> float:
    """max_i q_i^T X(u)^-1 q_i / 3 - 1 over the points P (n,2) with q_i =
    (p_i, 1) and X(u) = sum_i u_i q_i q_i^T: the bound the MVEE stops on."""
    Q = np.column_stack([P, np.ones(len(P))])
    w = np.einsum("ij,jk,ik->i", Q, np.linalg.inv(Q.T @ (Q * u[:, None])), Q)
    return float(w.max()) / 3.0 - 1.0
