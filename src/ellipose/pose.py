"""Camera pose recovery from ellipse-ellipsoid correspondences.

Solvers: closed-form camera placement from one pair under a known
orientation (the ellipsoid center on the detection's back-projection ray at
the area-equating depth), full two-pair pose (icosahedral rotation grid
scored by that closed-form placement, then joint 6-dof refinement), local
pose refinement over any number of pairs, and a seeded RANSAC over
label-based association hypotheses that solves each distinct minimal set
once.  With the orientation known, the only damped least-squares solve is
the final polish of the best hypothesis on its inliers.

All residuals are Frobenius differences of unit-normalized point conics.
The damped least-squares solvers use the exact Jacobian of that conic with
respect to (axis-angle increment, translation), and the two-pair rotation
search scores its whole start grid as array code.  RANSAC scores each
hypothesis with one batched projection of every correspondence and one
batched ellipse IoU.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousSolution,
    DegenerateConfiguration,
    ElliposeError,
    NoConvergence,
    NoValidPose,
)
from .geometry import (
    CameraModel,
    Ellipse,
    Ellipsoid,
    Pose,
    axis_angle_to_matrix,
    canonicalize,
    ellipse_to_conic,
    ellipsoid_to_dual_quadric,
    normalize_symmetric,
    rotation_z,
    _FULL,
    _UPPER,
    _adjugate,
    _project_dual_quadrics,
    _unit_point_conics,
)
from .metrics import _ellipse_ious, rotation_distance
from .reconstruction import EllipsoidCloud

_IOU_GRID = 128  # grid resolution of the consensus IoU


@dataclass(frozen=True, eq=False)
class Correspondence:
    """A detected ellipse paired with an ellipsoid; carries the normalized
    dual quadric ``Q`` and the pixel point conic ``M`` of the canonical
    ellipse, so each solver call reuses them."""

    ellipse: Ellipse
    ellipsoid: Ellipsoid
    label: str
    Q: np.ndarray = field(init=False, repr=False)
    M: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "ellipse", canonicalize(self.ellipse))
        object.__setattr__(self, "Q", ellipsoid_to_dual_quadric(self.ellipsoid).Q)
        object.__setattr__(self, "M", ellipse_to_conic(self.ellipse).M)


@dataclass(frozen=True, eq=False)
class PoseEstimate:
    pose: Pose
    inliers: tuple
    score: float  # mean inlier ellipse IoU

    def __post_init__(self):
        if not self.inliers:
            raise ValueError("a pose estimate needs at least one inlier")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError("score must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class RansacOptions:
    """mode 'orientation_known' requires ``rotation`` (world->camera R)."""

    mode: str = "orientation_known"
    iterations: int = 20
    inlier_iou_threshold: float = 0.75
    seed: int = 0
    rotation: np.ndarray | None = None
    refine_orientation: bool = True

    def __post_init__(self):
        if self.mode not in ("orientation_known", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0.0 < self.inlier_iou_threshold < 1.0:
            raise ValueError("inlier threshold must be in (0, 1)")
        if self.mode == "orientation_known":
            if self.rotation is None:
                raise ValueError("orientation_known mode needs a rotation")
            object.__setattr__(self, "rotation", np.asarray(self.rotation, float))


@dataclass(frozen=True, eq=False)
class RefineResult:
    pose: Pose
    converged: bool
    costs: tuple  # initial cost followed by the cost after each accepted step


# ---------------------------------------------------------------------------
# Residual machinery
# ---------------------------------------------------------------------------


class _PairData:
    """Pose-independent data of one correspondence.

    Residuals are evaluated on conics in intrinsics-normalized image
    coordinates: pixel-frame conic entries span several orders of magnitude
    and would numerically crush the shape information after unit-Frobenius
    scaling.
    """

    __slots__ = (
        "Qd", "M_det", "center_w", "area_det", "max_axis",
        "axes", "rot_w", "det_center_n", "ray_dir", "major_norm",
    )

    def __init__(self, corr: Correspondence, K: np.ndarray):
        self.Qd = corr.Q
        self.M_det = normalize_symmetric(K.T @ corr.M @ K)
        self.center_w = corr.ellipsoid.center
        area = _conic_areas(self.M_det[None])[0]
        self.area_det = float(area) if area > 0.0 else None
        self.max_axis = corr.ellipsoid.max_axis
        self.axes = corr.ellipsoid.axes
        self.rot_w = corr.ellipsoid.rotation
        h = np.linalg.solve(K, np.array([corr.ellipse.center[0], corr.ellipse.center[1], 1.0]))
        self.det_center_n = h[:2] / h[2]
        self.ray_dir = h / np.linalg.norm(h)  # unit back-projection ray of the detected center
        f = 0.5 * (K[0, 0] + K[1, 1])
        self.major_norm = float(corr.ellipse.axes[0]) / f


_UPPER_T = [0, 3, 6, 4, 7, 8]  # raveled index of the same entries of the transpose
_FROBENIUS_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


def _unit_adjugate(Cd):
    """Adjugate entries of the dual conic ``Cd`` and the signed scale ``s``
    that makes them a unit-Frobenius point conic, or None when degenerate.

    Hand-rolled (the adjugate is the inverse up to scale, which the
    normalization absorbs): this sits inside every optimizer residual, so
    LAPACK call overhead matters.  The sign makes the first entry of
    significant size positive.
    """
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


def _projection_matrix(R, t):
    P = np.empty((3, 4))
    P[:, :3] = R
    P[:, 3] = t
    return P


def _projected_conic(R, t, pair: _PairData):
    """Point conic of the pair's quadric in normalized image coordinates,
    unit-Frobenius scaled, or None when the projection is invalid."""
    depth = R[2] @ pair.center_w + t[2]
    if depth <= 0.0:
        return None
    P = _projection_matrix(R, t)
    unit = _unit_adjugate(P @ pair.Qd @ P.T)
    if unit is None:
        return None
    (m00, m01, m02, m11, m12, m22), s = unit
    return np.array(
        [
            [m00 * s, m01 * s, m02 * s],
            [m01 * s, m11 * s, m12 * s],
            [m02 * s, m12 * s, m22 * s],
        ]
    )


def _projected_conics(Rs, ts, pair: _PairData):
    """:func:`_projected_conic` over a stack of poses (Rs (n,3,3), ts (n,3)).

    Returns (N, valid): the (n,3,3) unit point conics and the mask of poses
    whose projection is valid; rows of invalid poses are NaN.
    """
    P = np.concatenate([Rs, ts[:, :, None]], axis=2)
    in_front = Rs[:, 2] @ pair.center_w + ts[:, 2] > 0.0
    return _unit_point_conics(np.einsum("nij,jk,nlk->nil", P, pair.Qd, P), in_front)


def _conic_jacobian(R, t, pair: _PairData, dP):
    """Exact Jacobian (9, k) of the raveled unit conic of
    :func:`_projected_conic` at a valid pose, for the k directions
    ``dP`` (k,3,4) of the projection matrix [R | t].

    dC = G + G^T with G = dP Qd P^T; the adjugate entries m are quadratic
    in C, so dm = L(C) dC; the unit normalization N = s m contributes
    dN = s (dm - m <m, dm> / |m|^2), off-diagonal entries weighing 2.
    """
    P = _projection_matrix(R, t)
    QPt = pair.Qd @ P.T
    C = P @ QPt
    unit = _unit_adjugate(C)
    if unit is None:  # rounding: the residual's C, summed in another order, passed
        raise NoConvergence("projected conic degenerate to rounding at an accepted iterate")
    m, s = unit
    (a, b, c), (_, d, e), (_, _, f) = C.tolist()
    L = np.array(  # d(m00, m01, m02, m11, m12, m22) / d(a, b, c, d, e, f)
        [
            [0.0, 0.0, 0.0, f, -2.0 * e, d],
            [0.0, -f, e, 0.0, c, -b],
            [0.0, e, -d, -c, b, 0.0],
            [f, 0.0, -2.0 * c, 0.0, 0.0, a],
            [-e, c, b, 0.0, -a, 0.0],
            [d, -2.0 * b, 0.0, a, 0.0, 0.0],
        ]
    )
    G = (dP @ QPt).reshape(-1, 9)
    dm = (G[:, _UPPER] + G[:, _UPPER_T]) @ L.T
    m = np.array(m)
    inner = dm @ (_FROBENIUS_WEIGHTS * m) * (s * s)
    dn = s * (dm - inner[:, None] * m)
    return dn[:, _FULL].T


def _conic_areas(M):
    """Areas enclosed by a stack (n,3,3) of point conics; NaN where a conic
    is not a real ellipse."""
    a, b, c = M[:, 0, 0], M[:, 0, 1], M[:, 0, 2]
    d, e = M[:, 1, 1], M[:, 1, 2]
    with np.errstate(all="ignore"):
        det2 = a * d - b * b
        cx = (e * b - c * d) / det2
        cy = (b * c - a * e) / det2
        k = c * cx + e * cy + M[:, 2, 2]  # conic value at the center
        k = np.where(a + d < 0.0, -k, k)
        return np.where((det2 > 0.0) & (k < 0.0), math.pi * (-k) / np.sqrt(det2), np.nan)


def _outline_geometry(M, pair):
    """(center offset to the detection, enclosed area) of an ellipse-
    signature conic in normalized image coordinates, or None."""
    a, b, c = M[0, 0], M[0, 1], M[0, 2]
    d, e = M[1, 1], M[1, 2]
    det2 = a * d - b * b
    if det2 <= 0.0:
        return None
    cx = (e * b - c * d) / det2
    cy = (b * c - a * e) / det2
    k = c * cx + e * cy + M[2, 2]  # conic value at the center
    if k >= 0.0:
        return None
    dx = cx - pair.det_center_n[0]
    dy = cy - pair.det_center_n[1]
    return math.sqrt(dx * dx + dy * dy), math.pi * (-k) / math.sqrt(det2)


def _residual(R, t, pairs, caps=None):
    """Stacked conic residual; ``caps`` (one entry per pair, None = free)
    tethers each projected outline to its detection in center and area.

    The guarded form keeps local refinement on real-ellipse outlines near
    the detections: the raw algebraic metric admits hyperbola outlines and
    spurious minima with the object slid far off or away along the ray.
    """
    chunks = []
    for i, pair in enumerate(pairs):
        M = _projected_conic(R, t, pair)
        if M is None:
            return None
        if caps is not None and caps[i] is not None:
            geo = _outline_geometry(M, pair)
            if geo is None:
                return None
            off_cap, area_lo, area_hi = caps[i]
            if geo[0] > off_cap or not area_lo <= geo[1] <= area_hi:
                return None
        chunks.append((M - pair.M_det).ravel())
    return np.concatenate(chunks)


def _tether_caps(R, t, pairs):
    """Per-pair tether for guarded refinement, sized from the start point
    so a valid start always stays feasible."""
    caps = []
    for pair in pairs:
        M = _projected_conic(R, t, pair)
        geo = None if M is None else _outline_geometry(M, pair)
        if geo is None or pair.area_det is None:
            caps.append(None)  # start invalid for this pair: leave it free
            continue
        off0, area0 = geo
        ratio0 = area0 / pair.area_det
        caps.append(
            (
                max(0.75 * pair.major_norm, 1.3 * off0, 0.01),
                pair.area_det * min(0.5, 0.5 * ratio0),
                pair.area_det * max(2.0, 2.0 * ratio0),
            )
        )
    return caps


_GRAD_TOL = 1e-12  # LM stops when the gradient norm falls below this
_STEP_TOL = 1e-13  # ... or when a step is this small relative to 1 + |x|


class _LMResult:
    __slots__ = ("x", "costs", "converged")

    def __init__(self, x, costs, converged):
        self.x = x
        self.costs = costs
        self.converged = converged


def _levenberg_marquardt(fun, x0, jac, *, max_iter=50):
    """Damped least squares on the residual ``fun`` with its exact Jacobian
    ``jac`` (evaluated at accepted iterates only); cost is monotone
    non-increasing because only strictly valid downhill steps are taken."""
    x = np.array(x0, float)
    r = fun(x)
    if r is None:
        raise NoConvergence("invalid starting point for refinement")
    cost = float(r @ r)
    costs = [cost]
    lam = 1e-3
    converged = False
    grad_norm = math.inf
    for _ in range(max_iter):
        J = jac(x)
        g = J.T @ r
        grad_norm = float(np.linalg.norm(g))
        if grad_norm < _GRAD_TOL:
            converged = True
            break
        A = J.T @ J
        D = np.diag(np.maximum(np.diag(A), 1e-12))
        stepped = False
        while lam < 1e12:
            try:
                delta = np.linalg.solve(A + lam * D, -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            rt = fun(x + delta)
            if rt is not None:
                ct = float(rt @ rt)
                if ct <= cost:
                    x = x + delta
                    r, cost = rt, ct
                    costs.append(cost)
                    lam = max(lam * 0.3, 1e-12)
                    stepped = True
                    if float(np.linalg.norm(delta)) < _STEP_TOL * (1.0 + float(np.linalg.norm(x))):
                        converged = True
                    break
            lam *= 4.0
        if not stepped:
            # no damping level yields a downhill step: treat a tiny gradient
            # as a numerical stationary point
            converged = grad_norm < 1e-6
            break
        if converged:
            break
    return _LMResult(x, costs, converged)


# ---------------------------------------------------------------------------
# Pose directions and single-pair placement
# ---------------------------------------------------------------------------


# d[R | t] / dt_k: translation directions of the projection matrix
_DP_TRANSLATION = np.zeros((3, 3, 4))
_DP_TRANSLATION[[0, 1, 2], [0, 1, 2], 3] = 1.0


def _skews(V):
    """Cross-product matrices [v]x of the columns v of V (3, k), as (k, 3, 3)."""
    S = np.zeros((V.shape[1], 3, 3))
    S[:, 0, 1], S[:, 0, 2], S[:, 1, 2] = -V[2], V[1], -V[0]
    return S - S.transpose(0, 2, 1)


def _left_jacobian(w):
    """SO(3) left Jacobian: exp([w + dw]x) = exp([J dw]x) exp([w]x) to first order."""
    theta = float(np.linalg.norm(w))
    W = _skews(w[:, None])[0]
    if theta < 1e-8:
        return np.eye(3) + 0.5 * W
    return (
        np.eye(3)
        + ((1.0 - math.cos(theta)) / theta**2) * W
        + ((theta - math.sin(theta)) / theta**3) * (W @ W)
    )


def _pose_directions(w, R):
    """d[R | t] / d(w, t) for R = exp([w]x) R0 (the current rotation R):
    dR/dw_k = [J_l(w) e_k]x R."""
    dP = np.zeros((6, 3, 4))
    dP[:3, :, :3] = _skews(_left_jacobian(w)) @ R
    dP[3:] = _DP_TRANSLATION
    return dP


def _ray_placements(Rs, pair: _PairData):
    """Closed-form camera translations, one per rotation in Rs (n,3,3), that
    put the ellipsoid center on the detection's back-projection ray at the
    depth that equates projected and detected areas.

    Returns (ts, ok); ``ok`` is False where the detected size would force
    the ellipsoid across the principal plane or the reference projection
    is invalid.
    """
    n = len(Rs)
    if pair.area_det is None:
        return np.full((n, 3), np.nan), np.zeros(n, bool)
    v = pair.ray_dir
    Rc = Rs @ pair.center_w
    # ellipsoid support along the camera z axis bounds the closest valid depth
    z_rows = Rs[:, 2] @ pair.rot_w
    support_z = np.sqrt(np.sum((pair.axes * z_rows) ** 2, axis=1))
    lam_min = 1.05 * support_z / v[2]
    lam_ref = np.maximum(20.0 * pair.max_axis, 2.0 * lam_min)
    M_ref, valid = _projected_conics(Rs, lam_ref[:, None] * v - Rc, pair)
    area_ref = _conic_areas(M_ref)
    with np.errstate(invalid="ignore"):
        lam0 = lam_ref * np.sqrt(area_ref / pair.area_det)
        ok = valid & (area_ref > 0.0) & (lam0 >= 0.5 * lam_min)
    lam0 = np.maximum(lam0, lam_min)
    return lam0[:, None] * v - Rc, ok


# ---------------------------------------------------------------------------
# Two-pair full pose
# ---------------------------------------------------------------------------


def _icosphere_directions() -> np.ndarray:
    """42 near-uniform directions: icosahedron vertices plus edge midpoints."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    v = []
    for a in (-1.0, 1.0):
        for b in (-phi, phi):
            v += [(a, b, 0.0), (0.0, a, b), (b, 0.0, a)]
    v = np.array(v)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
    d2[d2 < 1e-12] = np.inf
    dmin = d2.min()
    mids = []
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if d2[i, j] < dmin * 1.001:
                m = v[i] + v[j]
                mids.append(m / np.linalg.norm(m))
    return np.vstack([v, mids])


def _rotation_with_forward(u: np.ndarray) -> np.ndarray:
    """World->camera rotation whose optical axis is the world direction u."""
    h = np.array([0.0, 0.0, 1.0]) if abs(u[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    x = np.cross(h, u)
    x /= np.linalg.norm(x)
    y = np.cross(u, x)
    return np.stack([x, y, u])


_N_ROLLS = 8
_STAGE_B_KEEP = 24
_STAGE_C_KEEP = 6


@functools.lru_cache(maxsize=1)
def _rotation_starts() -> np.ndarray:
    """The (336, 3, 3) rotation grid: each viewing direction times 8 rolls."""
    rolls = [rotation_z(2.0 * math.pi * k / _N_ROLLS) for k in range(_N_ROLLS)]
    starts = np.array(
        [roll @ _rotation_with_forward(u) for u in _icosphere_directions() for roll in rolls]
    )
    starts.setflags(write=False)
    return starts


def pose_from_two_pairs(
    c1: Correspondence, c2: Correspondence, cam: CameraModel
) -> Pose:
    """Full 6-dof pose from two correspondences.

    The rotation is searched over 42 icosahedral viewing directions times 8
    rolls; each start is scored by placing the object on one pair's
    back-projection ray at the area-equating depth and measuring the conic
    residual on both, the best starts are polished by a joint 6-dof damped
    least-squares refinement, and distinct minima with costs within 1% of
    each other raise AmbiguousSolution carrying both candidates.
    """
    sep = float(np.linalg.norm(c1.ellipsoid.center - c2.ellipsoid.center))
    scale = max(c1.ellipsoid.max_axis, c2.ellipsoid.max_axis, 1e-12)
    if sep < 1e-9 * max(scale, 1.0):
        raise DegenerateConfiguration("ellipsoid centers coincide")
    pairs = (_PairData(c1, cam.K), _PairData(c2, cam.K))

    starts = _rotation_starts()

    # stage A: closed-form position from either pair, residual on both;
    # candidates in start order, anchor 0 before anchor 1, stably sorted
    costs, placements = [], []
    for anchor in pairs:
        ts, ok = _ray_placements(starts, anchor)
        cost = np.zeros(len(starts))
        for pair in pairs:
            N, valid = _projected_conics(starts, ts, pair)
            ok &= valid
            cost += np.sum((N - pair.M_det) ** 2, axis=(1, 2))
        costs.append(np.where(ok, cost, np.inf))
        placements.append(ts)
    costs = np.stack(costs, axis=1).ravel()
    placements = np.stack(placements, axis=1).reshape(-1, 3)
    order = np.argsort(costs, kind="stable")
    order = order[np.isfinite(costs[order])]
    if not order.size:
        raise NoConvergence("no rotation start produced a valid projection")

    # stage B: short joint refinement to make the ranking trustworthy
    # (position-only polish is not discriminative enough: a wrong rotation
    # can reach a similar cost to a nearly-right one)
    stage_b = []
    for i in order[:_STAGE_B_KEEP]:
        res, (R, t) = _refine_raw(starts[i // 2], placements[i], pairs, max_iter=8, guarded=False)
        stage_b.append((res.costs[-1], R, t))
    stage_b.sort(key=lambda s: s[0])

    # stage C: full joint 6-dof refinement of the leading candidates
    candidates = []
    for cost, R0, t0 in stage_b[:_STAGE_C_KEEP]:
        res, (R, t) = _refine_raw(R0, t0, pairs, max_iter=60, guarded=False)
        candidates.append((res.costs[-1], R, t))
    candidates.sort(key=lambda s: s[0])

    # cluster distinct poses, best first
    clusters = []
    for cost, R, t in candidates:
        for cc, cR, ct in clusters:
            if rotation_distance(R, cR) + np.linalg.norm(t - ct) / (
                1.0 + float(np.linalg.norm(ct))
            ) < 0.05:
                break
        else:
            clusters.append((cost, R, t))
    best = clusters[0]
    if len(clusters) > 1 and clusters[1][0] - best[0] <= 0.01 * best[0] + 1e-10:
        raise AmbiguousSolution(
            "two distinct pose minima fit the pairs equally well",
            candidates=(Pose(best[1], best[2]), Pose(clusters[1][1], clusters[1][2])),
        )
    return Pose(best[1], best[2])


def _refine_raw(R0, t0, pairs, *, max_iter=50, rotation_fixed=False, guarded=True):
    """LM over the translation itself (``rotation_fixed``) or jointly over
    (axis-angle increment, translation offset) from (R0, t0).

    Returns the LM result and the pose (R, t) of its final iterate.
    """
    caps = _tether_caps(R0, t0, pairs) if guarded else None
    if rotation_fixed:
        x0 = t0

        def pose_at(x):
            return R0, x
    else:
        x0 = np.zeros(6)

        def pose_at(x):
            return axis_angle_to_matrix(x[:3]) @ R0, t0 + x[3:]

    def fun(x):
        return _residual(*pose_at(x), pairs, caps)

    def jac(x):
        R, t = pose_at(x)
        dP = _DP_TRANSLATION if rotation_fixed else _pose_directions(x[:3], R)
        return np.concatenate([_conic_jacobian(R, t, p, dP) for p in pairs])

    res = _levenberg_marquardt(fun, x0, jac, max_iter=max_iter)
    return res, pose_at(res.x)


def refine_pose(
    p0: Pose,
    correspondences,
    cam: CameraModel,
    *,
    rotation_fixed: bool = False,
) -> RefineResult:
    """Local minimization of the summed conic residual from ``p0``.

    Never raises on stagnation: the best iterate is returned with
    ``converged`` False.  Cost history is monotone non-increasing.
    """
    correspondences = list(correspondences)
    if not correspondences:
        raise ValueError("refinement needs at least one correspondence")
    pairs = tuple(_PairData(c, cam.K) for c in correspondences)
    try:
        res, (R, t) = _refine_raw(p0.R, p0.t, pairs, rotation_fixed=rotation_fixed)
    except NoConvergence:
        return RefineResult(p0, False, ())
    # no accepted step: return the input bit-for-bit
    pose = p0 if len(res.costs) == 1 else Pose(R, t)
    return RefineResult(pose, res.converged, tuple(res.costs))


# ---------------------------------------------------------------------------
# Associations and RANSAC
# ---------------------------------------------------------------------------


def _associations_with_indices(detections, cloud: EllipsoidCloud):
    out = []
    for d_idx, (label, ellipse) in enumerate(detections):
        for o_idx, (obj_label, ellipsoid) in enumerate(cloud.entries):
            if label == obj_label:
                out.append((Correspondence(ellipse, ellipsoid, label), d_idx, o_idx))
    return out


def ransac_pose(detections, cloud: EllipsoidCloud, cam: CameraModel, opts: RansacOptions) -> PoseEstimate:
    """Seeded RANSAC over association hypotheses.

    With the orientation known, a hypothesis is the closed-form placement
    of :func:`_ray_placements` on one correspondence (a draw whose
    placement is invalid yields none); in full mode, the pose or the two
    ambiguous candidates of :func:`pose_from_two_pairs` on two.  Minimal
    sets never reuse a detection or an object, and a minimal set drawn
    again is solved only the first time; hypotheses are scored
    by the ellipse IoU between detections and reprojections, the best
    hypothesis by (inlier count, mean inlier IoU, draw order) is polished
    with :func:`refine_pose` on its inliers, and consensus is re-evaluated
    on the refined pose.  Deterministic for fixed inputs and seed.
    """
    assoc = _associations_with_indices(detections, cloud)
    corrs = [c for c, _, _ in assoc]
    min_set = 1 if opts.mode == "orientation_known" else 2
    if len(corrs) < min_set:
        raise NoValidPose(f"{len(corrs)} correspondences, need {min_set}")
    pairs = [_PairData(c, cam.K) for c in corrs]
    scoring = _Scoring(corrs, pairs, cam.K, opts.inlier_iou_threshold)
    rng = np.random.default_rng(np.random.SeedSequence(int(opts.seed)))
    best = None  # (count, score, -draw_idx, pose, inliers)
    drawn = set()

    for draw_idx in range(opts.iterations):
        # Every iteration draws, so the RNG stream is that of solving every
        # draw.  Skipping a repeat leaves the result unchanged: the solvers
        # are deterministic, so it yields the same hypotheses (or raises, or
        # falls short of min_set, again), and each hypothesis's key has the
        # same count and score as at the first occurrence with a smaller
        # -draw_idx, so it is strictly below that first key, which best
        # already holds or has beaten, and can never replace best.
        sample = _draw_minimal_set(rng, assoc, min_set)
        if sample is None or sample in drawn:
            continue
        drawn.add(sample)
        if opts.mode == "orientation_known":
            ts, ok = _ray_placements(opts.rotation[None], pairs[sample[0]])
            hypotheses = [Pose(opts.rotation, ts[0])] if ok[0] else []
        else:
            try:
                hypotheses = [pose_from_two_pairs(corrs[sample[0]], corrs[sample[1]], cam)]
            except AmbiguousSolution as exc:
                hypotheses = list(exc.candidates)
            except ElliposeError:
                continue
        for pose in hypotheses:
            inliers, score = _consensus(pose, scoring)
            if len(inliers) < min_set:
                continue
            key = (len(inliers), score, -draw_idx)
            if best is None or key > best[0]:
                best = (key, pose, inliers)
    if best is None:
        raise NoValidPose("no hypothesis reached the minimal inlier count")

    key, pose, inliers = best
    score = key[1]
    # final polish, re-run while the consensus set keeps growing; the local
    # refinement minimizes an algebraic cost whose optimum can drift
    # geometrically under detection shape mismatch, so a refined pose only
    # replaces the incumbent when it does not hurt the consensus objective.
    # A single inlier leaves the rotation free to spin while tracking its
    # pair, so orientation refinement needs at least two.
    for _ in range(4):
        rotation_fixed = not opts.refine_orientation or len(inliers) < 2
        refined = refine_pose(
            pose, [corrs[i] for i in inliers], cam, rotation_fixed=rotation_fixed
        )
        inliers2, score2 = _consensus(refined.pose, scoring)
        if (len(inliers2), score2) < (len(inliers), score):
            break
        grew = len(inliers2) > len(inliers)
        pose, inliers, score = refined.pose, inliers2, score2
        if not grew:
            break
    return PoseEstimate(pose, inliers, score)


def _draw_minimal_set(rng, assoc, min_set):
    n = len(assoc)
    if min_set == 1:
        return (int(rng.integers(n)),)
    for _ in range(50):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            continue
        _, di, oi = assoc[i]
        _, dj, oj = assoc[j]
        if di != dj and oi != oj:
            return (i, j)
    return None


class _Scoring:
    """Pose-independent consensus data of all correspondences: their dual
    quadrics, the detected ellipses as arrays, the intrinsics and the
    inlier threshold."""

    __slots__ = ("Q", "K", "centers", "axes", "angles", "threshold")

    def __init__(self, corrs, pairs, K, threshold):
        n = len(pairs)
        self.Q = np.stack([p.Qd for p in pairs])
        self.K = np.broadcast_to(K, (n, 3, 3))
        self.centers = np.stack([c.ellipse.center for c in corrs])
        self.axes = np.stack([c.ellipse.axes for c in corrs])
        self.angles = np.array([c.ellipse.angle for c in corrs])
        self.threshold = threshold


def _consensus(pose: Pose, scoring: _Scoring):
    """Inlier indices and mean inlier IoU of a hypothesis.

    All correspondences are projected in one kernel call; those whose
    outline is invalid (behind the camera, degenerate, not an ellipse) are
    skipped, and the rest are scored against their detections in one IoU
    call.  Inliers are kept and summed in index order.
    """
    n = len(scoring.Q)
    centers, axes, angles, errors = _project_dual_quadrics(
        scoring.Q, np.broadcast_to(pose.matrix, (n, 3, 4)), scoring.K
    )
    valid = np.array([e is None for e in errors])
    idx = np.flatnonzero(valid & (axes[:, 1] > 0.0) & np.isfinite(axes[:, 0]))
    ious = _ellipse_ious(
        centers[idx], axes[idx], angles[idx],
        scoring.centers[idx], scoring.axes[idx], scoring.angles[idx], _IOU_GRID,
    )
    inliers = []
    total = 0.0
    for i, iou in zip(idx.tolist(), ious.tolist()):
        if iou >= scoring.threshold:
            inliers.append(i)
            total += iou
    score = total / len(inliers) if inliers else 0.0
    return tuple(inliers), score
