import math
from collections import namedtuple

import numpy as np
import pytest

from ellipose.errors import BehindCamera, NotAnEllipse
from ellipose.geometry import (
    CIRCLE_TIE_TOL,
    Ellipse,
    Ellipsoid,
    FrameTransform,
    Pose,
    canonicalize,
    normalize_symmetric,
    project_ellipsoid,
    rotation_z,
    _ADJ,
    _FULL,
    _UPPER,
    _bbox_half,
    _ellipse_conics,
    _project_pairs,
)
from ellipose.pose import (
    _COST_TOL,
    _DP_TRANSLATION,
    _GRAD_TOL,
    _LMResult,
    _SKEW,
    _conic_jacobians,
    _damped_steps,
    _dot,
    _pairs,
    _ray_placements,
    _refine_raw,
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


def row_ellipse_iou(e1: Ellipse, e2: Ellipse, rows: int) -> float:
    """Reference of the row-sum IoU ``metrics._conic_ious``: the same sums
    of chord lengths and overlaps at ``rows`` row midpoints over the union
    y-range, each chord taken from the center, semi-axes and angle, not
    from a conic."""
    def chords(e, ys):
        a, b = float(e.axes[0]), float(e.axes[1])
        c, s = math.cos(e.angle), math.sin(e.angle)
        # p dx^2 + 2 q dx dy + r dy^2 = 1 in the offsets from the center,
        # with p r - q^2 = 1 / (a b)^2
        p = c * c / (a * a) + s * s / (b * b)
        q = c * s * (1.0 / (a * a) - 1.0 / (b * b))
        dy = ys - e.center[1]
        mid = e.center[0] - q / p * dy
        half = np.sqrt(np.maximum(p - dy * dy / (a * b) ** 2, 0.0)) / p
        return mid - half, mid + half

    lo = min(e.center[1] - _bbox_half(*e.axes.tolist(), e.angle)[1] for e in (e1, e2))
    hi = max(e.center[1] + _bbox_half(*e.axes.tolist(), e.angle)[1] for e in (e1, e2))
    ys = lo + (np.arange(rows) + 0.5) * ((hi - lo) / rows)
    (l1, r1), (l2, r2) = chords(e1, ys), chords(e2, ys)
    inter = np.maximum(np.minimum(r1, r2) - np.maximum(l1, l2), 0.0).sum()
    union = (r1 - l1).sum() + (r2 - l2).sum() - inter
    return float(inter / union) if union > 0.0 else 0.0


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


def reference_canonicalize(e: Ellipse) -> Ellipse:
    """The canonical form of one ellipse in scalar Python floats: a >= b,
    the angle turned by pi/2 where the axes swap, circles (a and b within
    CIRCLE_TIE_TOL of a) at angle 0, other angles wrapped into
    (-pi/2, pi/2]."""
    a, b = float(e.axes[0]), float(e.axes[1])
    angle = e.angle
    if a < b:
        a, b = b, a
        angle += 0.5 * math.pi
    if abs(a - b) <= CIRCLE_TIE_TOL * a:
        angle = 0.0
    else:
        angle = (angle + 0.5 * math.pi) % math.pi - 0.5 * math.pi
        if angle <= -0.5 * math.pi:
            angle = 0.5 * math.pi
    return Ellipse(e.center, (a, b), angle)


def reference_inscribed(box) -> Ellipse:
    """The axis-aligned ellipse inscribed in a box row, canonicalized."""
    lo, hi = np.asarray(box[:2], float), np.asarray(box[2:], float)
    return reference_canonicalize(Ellipse(0.5 * (lo + hi), 0.5 * (hi - lo), 0.0))


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


def two_pair_poses(r1, r2, cam) -> list:
    """Full 6-dof poses from two pair rows: the one-draw case of the
    two-pair core, none where it finds no pose."""
    Rs, ts, of = _two_pair_solutions(pairs_table((r1, r2), cam.K), np.array([(0, 1)]))
    assert (of == 0).all()
    return [Pose(R, t) for R, t in zip(Rs, ts)]


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
    ts, ok = _ray_placements(np.asarray(R, float)[None], pairs_table([row], cam.K), [0])
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
        return (reference_rotations(x[None, :3]) @ R0[None])[0], t0 + x[3:]

    def fun(x):
        N, valid, _ = project(*pose_at(x))
        return (N - M_det).ravel() if valid else None

    def jac(x):
        R, t = pose_at(x)
        if rotation_fixed:
            dP = _DP_TRANSLATION[None]
        else:
            dP = reference_pose_directions(x[None, :3], R[None])
        return _conic_jacobians(project(R, t)[2], dP)[0]

    x, costs, converged, uphill = reference_lm(
        fun, t0 if rotation_fixed else np.zeros(6), jac, max_iter)
    return (*pose_at(x), costs, converged, uphill)


# ---------------------------------------------------------------------------
# Per-call references of the pose module's kernels, which must match them bit
# for bit: the Rodrigues map and the pose directions each computed from w
# alone, and the lockstep LM with full damping matrices and a list of
# dampings
# ---------------------------------------------------------------------------


def reference_rotations(W):
    """Rodrigues map of the rows of W (m,3) to rotations (m,3,3)."""
    theta = _row_norms(W)
    theta = theta + (theta == 0.0)  # a zero rotation has K = 0
    K = (W[:, None] @ _SKEW).reshape(-1, 3, 3)
    sinc = (np.sin(theta) / theta)[:, None, None]
    vers = ((1.0 - np.cos(theta)) / (theta * theta))[:, None, None]
    return np.eye(3) + sinc * K + vers * (K @ K)


def reference_pose_directions(W, Rs):
    """d[R | t] / d(w, t) (m,6,3,4) for R = exp([w]x) R0 at the rotations
    Rs, the left Jacobian computed from W."""
    m = len(W)
    theta = _row_norms(W)
    tiny = theta < 1e-8
    th = np.where(tiny, 1.0, theta)
    a = np.where(tiny, 0.5, (1.0 - np.cos(th)) / th**2)[:, None, None]
    b = np.where(tiny, 0.0, (th - np.sin(th)) / th**3)[:, None, None]
    S = (W[:, None] @ _SKEW).reshape(m, 3, 3)
    Jl = np.eye(3) + a * S + b * (S @ S)
    dP = np.zeros((m, 6, 3, 4))
    dP[:, :3, :, :3] = (Jl.transpose(0, 2, 1) @ _SKEW).reshape(m, 3, 3, 3) @ Rs[:, None]
    dP[:, 3:] = _DP_TRANSLATION
    return dP


def _reference_damped_steps(M, g):
    try:
        return np.linalg.solve(M, -g[..., None])[..., 0], np.zeros(len(M), bool)
    except np.linalg.LinAlgError:
        delta, singular = np.full(g.shape, np.nan), np.zeros(len(M), bool)
        for j in range(len(M)):
            try:
                delta[j] = np.linalg.solve(M[j], -g[j])
            except np.linalg.LinAlgError:
                singular[j] = True
        return delta, singular


def reference_lockstep_lm(fun, jac, x0, *, max_iter=50):
    """The lockstep LM of the pose module, with the damping diagonals kept
    as full (n,d,d) matrices and the dampings as a list."""
    x = np.array(x0, float)
    n, d = x.shape
    every, diagonal = np.arange(n), np.arange(d)

    def rows(cands):
        return slice(None) if len(cands) == n else np.array(cands, int)

    r, ok, state = fun(slice(None), x)
    cost = (r * r).sum(axis=1).tolist()
    costs = [[c] if v else [] for c, v in zip(cost, ok.tolist())]
    stop = ["" if v else "invalid start" for v in ok.tolist()]
    converged, invalid, uphill = [False] * n, [0] * n, [0] * n
    lam, grad = [1e-3] * n, [0.0] * n
    g, A, D = np.zeros((n, d)), np.zeros((n, d, d)), np.zeros((n, d, d))
    searching = []
    fresh = every[ok].tolist()
    fresh_state = state if len(fresh) == n else tuple(v[ok] for v in state)
    while True:
        if fresh:
            f = rows(fresh)
            J = jac(f, x[f], fresh_state)
            gf = (r[f, None] @ J)[:, 0]
            Af = J.transpose(0, 2, 1) @ J
            g[f], A[f] = gf, Af
            D[every[f][:, None], diagonal, diagonal] = np.maximum(Af[:, diagonal, diagonal], 1e-12)
            for i, gn in zip(fresh, _row_norms(gf).tolist()):
                grad[i] = gn
                if gn < _GRAD_TOL:
                    converged[i], stop[i] = True, "gradient"
                else:
                    searching.append(i)
        act = []
        for i in searching:
            if lam[i] < 1e12:
                act.append(i)
            else:
                converged[i], stop[i] = grad[i] < 1e-6, "no descent"
        if not act:
            break
        searching = sorted(act)
        a = rows(searching)
        lam_a = np.array([lam[i] for i in searching])
        delta, singular = _reference_damped_steps(A[a] + lam_a[:, None, None] * D[a], g[a])
        while singular.any():
            for j in np.flatnonzero(singular).tolist():
                lam[searching[j]] *= 10.0
            lam_a = np.array([lam[i] for i in searching])
            singular &= lam_a < 1e12
            redo = every[a][singular]
            delta[singular], singular[singular] = _reference_damped_steps(
                A[redo] + lam_a[singular, None, None] * D[redo], g[redo])
        act = [i for i, damping in zip(searching, lam_a.tolist()) if damping < 1e12]
        if len(act) < len(searching):
            a, delta = rows(act), delta[lam_a < 1e12]
            if not act:
                fresh = []
                continue
        X = x[a] + delta
        rt, okt, st = fun(a, X)
        acc = []
        for j, (i, v, c) in enumerate(zip(act, okt.tolist(), (rt * rt).sum(axis=1).tolist())):
            if not (v and c <= cost[i]):
                lam[i] *= 4.0
                uphill[i] += v
                invalid[i] += not v
                continue
            acc.append(j)
            c_old, cost[i] = cost[i], c
            costs[i].append(c)
            lam[i] = max(lam[i] * 0.3, 1e-12)
            searching.remove(i)
            if c_old - c <= _COST_TOL * c_old:
                converged[i], stop[i] = True, "cost"
            elif len(costs[i]) > max_iter:
                stop[i] = "iteration cap"
        if len(acc) == len(act):
            x[a], r[a] = X, rt
        elif acc:
            x[every[a][acc]], r[every[a][acc]] = X[acc], rt[acc]
        go = [j for j in acc if not stop[act[j]]]
        fresh = [act[j] for j in go]
        fresh_state = st if len(go) == len(act) else tuple(v[go] for v in st)
    return _LMResult(x, costs, np.array(converged), stop, np.array(invalid), np.array(uphill))


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


# ---------------------------------------------------------------------------
# Frozen copies of the consensus IoU, the conic-projection kernel and P3P as
# they were before their buffers were reused and their passes cut; the
# kernels must equal them bit for bit
# ---------------------------------------------------------------------------


_REFERENCE_IOU_BYTES = 96 * 1024


def reference_conic_ious(M1, M2, rows):
    """IoUs (n,) of the pairs of point conics M1, M2 (n,3,3), every step
    into a fresh temporary and the x offsets tiled."""
    n, block = len(M1), max(1, _REFERENCE_IOU_BYTES // (16 * rows))
    if n > block:
        return np.concatenate([reference_conic_ious(M1[s:s + block], M2[s:s + block], rows)
                               for s in range(0, n, block)])
    x = np.concatenate([M1, M2]).reshape(-1, 9)[:, _UPPER]
    a, b, c, d, e, f = (x * np.sign(x[:, :1])).T[:, :, None]
    det2 = a * d - b * b
    cx, cy = (e * b - c * d) / det2, (b * c - a * e) / det2
    ka = -(c * cx + e * cy + f) * a
    half_y = np.sqrt(ka / det2)
    lo = np.minimum(cy[:n] - half_y[:n], cy[n:] - half_y[n:])
    hi = np.maximum(cy[:n] + half_y[:n], cy[n:] + half_y[n:])
    dy = np.tile(lo + (np.arange(rows) + 0.5) * ((hi - lo) / rows), (2, 1)) - cy
    mid = cx - b / a * dy
    half = np.sqrt(np.maximum(ka - det2 * dy * dy, 0.0)) / a
    left, right = mid - half, mid + half
    width = (right - left).sum(axis=1)
    inter = np.maximum(np.minimum(right[:n], right[n:]) - np.maximum(left[:n], left[n:]), 0.0)
    inter = inter.sum(axis=1)
    union = width[:n] + width[n:] - inter
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(union > 0.0, inter / union, 0.0)


def reference_project_pairs(Rs, ts, Qd, centers):
    """(N, depth, valid, terms) of the conic-projection kernel, the sign of
    every row found by the search for its first significant entry and every
    row passed through the NaN mask."""
    n, k = len(Rs), Qd.shape[-3]
    P = np.concatenate([Rs, ts[:, :, None]], axis=2)[:, None]
    QPt = Qd @ P.transpose(0, 1, 3, 2)
    depth = (Rs[:, None, None, 2] @ centers[..., None])[..., 0, 0] + ts[:, 2:]
    C = (P @ QPt).reshape(-1, 9)
    x = C[:, _UPPER]
    t = x[:, _ADJ]
    m = t[:, 0] * t[:, 1] - t[:, 2] * t[:, 3]
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


def reference_p3p(pairs, triples):
    """(Rs, ts, of) of the stacked P3P solver, with ``np.cross``, ``mean``
    and the reflection fixed by the sign of ``np.linalg.det``."""
    j, P = pairs.ray_dir[triples], pairs.center_w[triples]
    first, second = [1, 0, 0], [2, 2, 1]
    D = P[:, first] - P[:, second]
    d2, cos = _dot(D, D), _dot(j[:, first], j[:, second])
    (a2, b2, c2), (ca, cb, cg) = d2.T, cos.T
    normal = np.cross(D[:, 1], D[:, 2])
    with np.errstate(all="ignore"):
        p, q, r, e = (a2 - c2) / b2, (a2 + c2) / b2, c2 / b2, a2 / b2
        coef = np.stack([
            (p - 1.0) * (p - 1.0) - 4.0 * r * ca * ca,
            4.0 * (p * (1.0 - p) * cb - (1.0 - q) * ca * cg + 2.0 * r * ca * ca * cb),
            2.0 * (p * p - 1.0 + 2.0 * p * p * cb * cb + 2.0 * (1.0 - r) * ca * ca
                   - 4.0 * q * ca * cb * cg + 2.0 * (1.0 - e) * cg * cg),
            4.0 * (-p * (1.0 + p) * cb + 2.0 * e * cg * cg * cb - (1.0 - q) * ca * cg),
            (1.0 + p) * (1.0 + p) - 4.0 * e * cg * cg,
        ], axis=1)
        top = -coef[:, 1:] / coef[:, :1]
        ok = ((_dot(normal, normal) > 1e-20 * b2 * c2) & (cos.max(axis=1) < 1.0 - 1e-12)
              & np.isfinite(top).all(axis=1))
    companion = np.zeros((len(ok), 4, 4))
    companion[:, 0] = np.where(ok[:, None], top, 0.0)
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    w = np.linalg.eigvals(companion)
    v = w.real
    real = (w.imag >= 0.0) & (w.imag <= 1e-6 * (1.0 + np.abs(w)))
    with np.errstate(all="ignore"):
        u = ((p[:, None] - 1.0) * v * v - 2.0 * p[:, None] * cb[:, None] * v + 1.0 + p[:, None]) \
            / (2.0 * (cg[:, None] - v * ca[:, None]))
        s1 = np.sqrt(b2[:, None] / (1.0 + v * v - 2.0 * v * cb[:, None]))
    of, root = np.nonzero(ok[:, None] & real & np.isfinite(u * s1))
    s = s1[of, root, None] * np.stack([np.ones(len(of)), u[of, root], v[of, root]], axis=1)
    cos, d2 = cos[of], d2[of]

    def gaps(s):
        x, y = s[:, first], s[:, second]
        return x, y, x * x + y * y - 2.0 * x * y * cos - d2

    x, y, F = gaps(s)
    J = np.zeros((len(s), 3, 3))
    J[:, [0, 1, 2], first] = 2.0 * (x - y * cos)
    J[:, [0, 1, 2], second] = 2.0 * (y - x * cos)
    step, _ = _damped_steps(J, F)
    with np.errstate(all="ignore"):
        kept = np.abs(gaps(s + step)[2]).sum(axis=1) <= np.abs(F).sum(axis=1)
    s = np.where(kept[:, None], s + step, s)
    positive = (s > 0.0).all(axis=1)
    of, s = of[positive], s[positive]
    X, P = s[:, :, None] * j[of], P[of]
    X_mean, P_mean = X.mean(axis=1), P.mean(axis=1)
    U, _, Vt = np.linalg.svd((P - P_mean[:, None]).transpose(0, 2, 1) @ (X - X_mean[:, None]))
    Vt[:, 2] *= np.sign(np.linalg.det(U @ Vt))[:, None]
    Rs = Vt.transpose(0, 2, 1) @ U.transpose(0, 2, 1)
    return Rs, X_mean - (Rs @ P_mean[:, :, None])[:, :, 0], of
