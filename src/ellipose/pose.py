"""Camera pose recovery from label-associated ellipse-ellipsoid pairs.

The one entry point is :func:`ransac_pose`, RANSAC over the associations of
a view's detections with the cloud's ellipsoids of the same label.  With
the orientation known, each association's hypothesis is the closed-form
camera placement: the ellipsoid center on the detection's back-projection
ray at the area-equating depth.  In full mode, each distinct seeded draw of
two associations is solved for the full pose: an icosahedral rotation grid
scored by that closed-form placement, then joint 6-dof refinement, all
draws of a view together.  The best hypothesis is polished on its inliers,
the only damped least-squares solve besides the two-pair refinement.

Each call converts its detections and ellipsoids once, into one table of
stacked arrays (:func:`_pairs`), one row per association: the placements,
the two-pair solves, consensus and the polish, which reads the inliers'
rows, all read it.  A row depends on its own association alone, so a
subset's table is those rows of the full table, bit for bit.
Every projection goes through the one conic-projection kernel of
``geometry`` over a stack of poses times pairs.  All residuals are
Frobenius differences of its unit-normalized point conics; their exact
Jacobian in (axis-angle increment, translation) is taken from the very
conic that gave the accepted residual.  One Levenberg-Marquardt advances n
candidates in lockstep, each with its own damping, acceptance and stop,
scoring all trials of a round in one kernel call: the two-pair solver
refines the candidates of all of a view's draws together, one LM per
stage, and the polish is the one-candidate case.
Consensus is one kernel call for the pose times every row, mapped to pixel
outlines, and one batched ellipse IoU.

The LM takes any valid downhill step of the algebraic residual, which can
reward a pose that slides an object off its detection or turns its outline
into a hyperbola.  Such a pose loses that inlier under the ellipse IoU, so
the consensus check after the polish, on the objective RANSAC ranks by, is
the one guard a refined pose must pass.  A per-pair test inside the LM
would reject trials that consensus keeps and stop the polish early, at
times on a worse pose.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

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
    Pose,
    canonicalize,
    normalize_symmetric,
    rotation_z,
    _ADJ,
    _FULL,
    _UPPER,
    _check_int,
    _check_rotation,
    _ellipse_conics,
    _freeze,
    _outlines,
    _project_pairs,
    _quadric_duals,
)
from .metrics import _ellipse_ious, rotation_distance
from .reconstruction import EllipsoidCloud

_IOU_GRID = 128  # grid resolution of the consensus IoU


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
    """mode 'orientation_known' requires ``rotation`` (world->camera R);
    ``iterations`` and ``seed`` apply to mode 'full' only."""

    mode: str = "orientation_known"
    iterations: int = 20
    inlier_iou_threshold: float = 0.75
    seed: int = 0
    rotation: np.ndarray | None = None
    refine_orientation: bool = True

    def __post_init__(self):
        if self.mode not in ("orientation_known", "full"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _check_int("iterations", self.iterations, 1)
        _check_int("seed", self.seed, 0)
        threshold = self.inlier_iou_threshold
        if not (isinstance(threshold, (int, float, np.integer, np.floating))
                and 0.0 < threshold < 1.0):
            raise ValueError(f"inlier threshold must be a number in (0, 1), got {threshold!r}")
        if not isinstance(self.refine_orientation, (bool, np.bool_)):
            raise ValueError(f"refine_orientation must be a bool, got {self.refine_orientation!r}")
        if self.mode == "orientation_known":
            if self.rotation is None:
                raise ValueError("orientation_known mode needs a rotation")
            rotation = _freeze(self.rotation, (3, 3))
            _check_rotation(rotation)
            object.__setattr__(self, "rotation", rotation)


# ---------------------------------------------------------------------------
# Residual machinery
# ---------------------------------------------------------------------------


_Pairs = namedtuple(
    "_Pairs", "Qd center_w axes rot_w max_axis M_det area_det ray_dir det_center det_axes det_angle"
)


def _pairs(detections, cloud: EllipsoidCloud, K):
    """The table of the (label, Ellipse) detections associated with the
    cloud's ellipsoids of equal label under the intrinsics K, one row per
    association, detection-major; and each row's detection index and object
    index.  The table is None when no label matches.

    A row holds the ellipsoid's unit dual quadric Qd, center_w, axes,
    rotation rot_w and max_axis; the detection's unit point conic M_det, its
    area area_det (not > 0 where the conic is no real ellipse) and the unit
    back-projection ray ray_dir of its center; and the detection, each
    canonicalized once, as det_center, det_axes and det_angle in pixels.
    M_det and area_det are in intrinsics-normalized coordinates: pixel-frame
    conic entries span several orders of magnitude and would crush the shape
    information after unit-Frobenius scaling.  Rows come from the stacked
    kernels of ``ellipsoid_to_dual_quadric`` and ``ellipse_to_conic`` and
    depend on their own association alone, so the table of a subset is
    those rows of the full table, bit for bit.
    """
    ellipses, det_idx, obj_idx = [], [], []
    for d, (label, ellipse) in enumerate(detections):
        objs = [o for o, (obj_label, _) in enumerate(cloud.entries) if obj_label == label]
        if objs:
            ellipses += [canonicalize(ellipse)] * len(objs)
            det_idx += [d] * len(objs)
            obj_idx += objs
    det_idx, obj_idx = np.array(det_idx, int), np.array(obj_idx, int)
    if not ellipses:
        return None, det_idx, obj_idx
    ellipsoids = [cloud.entries[o][1] for o in obj_idx.tolist()]
    center_w, axes, rot_w = (np.array([getattr(E, name) for E in ellipsoids])
                             for name in ("center", "axes", "rotation"))
    det_center, det_axes, det_angle = (np.array([getattr(e, name) for e in ellipses])
                                       for name in ("center", "axes", "angle"))
    M = normalize_symmetric(_ellipse_conics(det_center, det_axes, det_angle))
    M_det = normalize_symmetric(K.T @ M @ K)
    h = np.concatenate([det_center, np.ones((len(M), 1))], axis=1)[:, :, None]
    h = np.linalg.solve(np.broadcast_to(K, (len(M), 3, 3)), h)[:, :, 0]
    table = _Pairs(normalize_symmetric(_quadric_duals(center_w, axes, rot_w)), center_w, axes,
                   rot_w, axes.max(axis=1), M_det, _conic_areas(M_det),
                   h / np.sqrt(h[:, None] @ h[:, :, None])[:, 0], det_center, det_axes, det_angle)
    return table, det_idx, obj_idx


_UPPER_T = np.array([0, 3, 6, 4, 7, 8])  # raveled index of the same entries of the transpose


# the raveled d adj(C) is G @ (x @ _D_ADJ).reshape(9, 9).T for dC = G + G^T
# (G raveled) and x the upper entries of C: the product rule on the two terms
# of each adjugate entry; _D_ADJ[a, i, j] is the coefficient of x_a G_j
_D_ADJ = np.zeros((6, 6, 9))
for _i, (_p, _q, _r, _s) in enumerate(_ADJ.T):
    for _a, _b, _sign in ((_p, _q, 1.0), (_q, _p, 1.0), (_r, _s, -1.0), (_s, _r, -1.0)):
        _D_ADJ[_a, _i, _UPPER[_b]] += _sign
        _D_ADJ[_a, _i, _UPPER_T[_b]] += _sign
_D_ADJ = _D_ADJ[:, _FULL].reshape(6, 81)


def _conic_jacobians(terms, dP):
    """Exact Jacobian (m, 9k, d) of the raveled unit conics of the kernel
    ``geometry._project_pairs`` for the directions dP (m,d,3,4) of [R | t].

    dC = G + G^T with G = dP Qd P^T, the adjugate entries m follow through
    :data:`_D_ADJ`, and the unit normalization N = s m contributes
    dN = s (dm - N <N, dm>).
    """
    QPt, x, N, s = terms
    m, k = len(s), s.shape[1]
    G = (dP[:, None] @ QPt[:, :, None]).reshape(m, k, -1, 9)
    dm = G @ (x @ _D_ADJ).reshape(m, k, 9, 9).transpose(0, 1, 3, 2)
    N = N.reshape(m, k, 9, 1)
    dn = s * (dm - (dm @ N) * N.transpose(0, 1, 3, 2))
    return dn.transpose(0, 1, 3, 2).reshape(m, 9 * k, -1)


def _conic_areas(M):
    """Enclosed areas of point conics M (..., 3, 3); positive exactly for
    real ellipses."""
    a, b, c = M[..., 0, 0], M[..., 0, 1], M[..., 0, 2]
    d, e = M[..., 1, 1], M[..., 1, 2]
    with np.errstate(all="ignore"):
        det2 = a * d - b * b
        cx = (e * b - c * d) / det2
        cy = (b * c - a * e) / det2
        k = (c * cx + e * cy + M[..., 2, 2]) * np.sign(a + d)  # conic value at the center
        return -math.pi * k / np.sqrt(det2)


_GRAD_TOL = 1e-12  # LM stops when the gradient norm falls below this
_STEP_TOL = 1e-13  # ... or when a step is this small relative to 1 + |x|


# per candidate: the final point x (n,d); costs, the initial cost and then
# one per accepted step (empty for an invalid start); converged; why it
# stopped; and its trials rejected as invalid and as uphill
_LMResult = namedtuple("_LMResult", "x costs converged stop invalid uphill")


def _damped_steps(M, g):
    """Steps solving M delta = -g row by row, and the mask of singular
    systems (their rows NaN); one singular system does not fail the
    others."""
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


def _row_norms(V):
    return np.sqrt((V * V).sum(axis=1))


def _levenberg_marquardt(fun, jac, x0, *, max_iter=50):
    """Damped least squares for the n candidates x0 (n,d) in lockstep.

    ``fun(idx, X)`` scores the points X (m,d) of the candidates ``idx`` (an
    index of the n: an array, or a slice when it is all of them) as
    (residuals (m,R), valid (m,), state), state a tuple of per-row arrays;
    ``jac(idx, X, state)`` gives the exact Jacobians (m,R,d) from the state
    of accepted points.  Each round, every searching candidate proposes one
    trial, all trials are scored in one call and the accepted points get
    their Jacobians in one more.  Damping (diagonal of J^T J floored at
    1e-12), acceptance and stopping are per candidate, so each takes the
    steps it would take alone.  Costs are monotone non-increasing: only
    strictly valid downhill steps are taken.
    """
    x = np.array(x0, float)
    n, d = x.shape
    every, diagonal = np.arange(n), np.arange(d)

    def rows(cands):  # the index of sorted candidates
        return slice(None) if len(cands) == n else np.array(cands, int)

    r, ok, state = fun(slice(None), x)
    cost = (r * r).sum(axis=1).tolist()
    costs = [[c] if v else [] for c, v in zip(cost, ok.tolist())]
    stop = ["" if v else "invalid start" for v in ok.tolist()]
    converged, invalid, uphill = [False] * n, [0] * n, [0] * n
    lam, grad = [1e-3] * n, [0.0] * n
    g, A, D = np.zeros((n, d)), np.zeros((n, d, d)), np.zeros((n, d, d))
    searching = []  # candidates holding a damped system to solve
    fresh = every[ok].tolist()
    fresh_state = state if len(fresh) == n else tuple(v[ok] for v in state)
    while True:
        if fresh:  # new iterates: Jacobian, gradient and normal matrix
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
            else:  # no damping level yields a downhill step: treat a tiny
                # gradient as a numerical stationary point
                converged[i], stop[i] = grad[i] < 1e-6, "no descent"
        if not act:
            break
        searching = sorted(act)
        a = rows(searching)
        lam_a = np.array([lam[i] for i in searching])
        delta, singular = _damped_steps(A[a] + lam_a[:, None, None] * D[a], g[a])
        while singular.any():  # a singular system raises the damping tenfold
            for j in np.flatnonzero(singular).tolist():
                lam[searching[j]] *= 10.0
            lam_a = np.array([lam[i] for i in searching])
            singular &= lam_a < 1e12
            redo = every[a][singular]
            delta[singular], singular[singular] = _damped_steps(
                A[redo] + lam_a[singular, None, None] * D[redo], g[redo])
        act = [i for i, damping in zip(searching, lam_a.tolist()) if damping < 1e12]
        if len(act) < len(searching):
            a, delta = rows(act), delta[lam_a < 1e12]
            if not act:
                fresh = []
                continue
        X = x[a] + delta
        rt, okt, st = fun(a, X)
        small = (_row_norms(delta) < _STEP_TOL * (1.0 + _row_norms(X))).tolist()
        acc = []
        for j, (i, v, c) in enumerate(zip(act, okt.tolist(), (rt * rt).sum(axis=1).tolist())):
            if not (v and c <= cost[i]):
                lam[i] *= 4.0
                uphill[i] += v
                invalid[i] += not v
                continue
            acc.append(j)
            cost[i] = c
            costs[i].append(c)
            lam[i] = max(lam[i] * 0.3, 1e-12)
            searching.remove(i)
            if small[j]:
                converged[i], stop[i] = True, "step"
            elif len(costs[i]) > max_iter:
                stop[i] = "iteration cap"
        if len(acc) == len(act):  # the common case needs no row selection
            x[a], r[a] = X, rt
        elif acc:
            x[every[a][acc]], r[every[a][acc]] = X[acc], rt[acc]
        go = [j for j in acc if not stop[act[j]]]
        fresh = [act[j] for j in go]
        fresh_state = st if len(go) == len(act) else tuple(v[go] for v in st)
    return _LMResult(x, costs, np.array(converged), stop, np.array(invalid), np.array(uphill))


# ---------------------------------------------------------------------------
# Pose directions and single-pair placement
# ---------------------------------------------------------------------------


# d[R | t] / dt_k: translation directions of the projection matrix
_DP_TRANSLATION = np.zeros((3, 3, 4))
_DP_TRANSLATION[[0, 1, 2], [0, 1, 2], 3] = 1.0
_I3 = np.eye(3)
_SKEW = np.cross(_I3[:, None], _I3).transpose(0, 2, 1).reshape(3, 9)  # raveled [v]x = v @ _SKEW


def _rotations(W):
    """Rodrigues map of the rows of W (m,3) to rotations (m,3,3); below an
    angle of about 1e-8, where the cosine rounds to 1, it is exactly its
    first-order term I + [w]x."""
    theta = _row_norms(W)
    theta = theta + (theta == 0.0)  # a zero rotation has K = 0
    K = (W[:, None] @ _SKEW).reshape(-1, 3, 3)
    sinc = (np.sin(theta) / theta)[:, None, None]
    vers = ((1.0 - np.cos(theta)) / (theta * theta))[:, None, None]
    return _I3 + sinc * K + vers * (K @ K)


def _pose_directions(W, Rs):
    """d[R | t] / d(w, t) (m,6,3,4) for R = exp([w]x) R0 at the current
    rotations Rs: dR/dw_k = [J_l(w) e_k]x R, with the SO(3) left Jacobian
    exp([w + dw]x) = exp([J_l dw]x) exp([w]x) to first order."""
    m = len(W)
    theta = _row_norms(W)
    tiny = theta < 1e-8
    th = np.where(tiny, 1.0, theta)
    a = np.where(tiny, 0.5, (1.0 - np.cos(th)) / th**2)[:, None, None]
    b = np.where(tiny, 0.0, (th - np.sin(th)) / th**3)[:, None, None]
    S = (W[:, None] @ _SKEW).reshape(m, 3, 3)
    Jl = _I3 + a * S + b * (S @ S)
    dP = np.zeros((m, 6, 3, 4))
    dP[:, :3, :, :3] = (Jl.transpose(0, 2, 1) @ _SKEW).reshape(m, 3, 3, 3) @ Rs[:, None]
    dP[:, 3:] = _DP_TRANSLATION
    return dP


def _ray_placements(Rs, pairs: _Pairs, i):
    """Closed-form camera translations, one per rotation in Rs (n,3,3), that
    put the ellipsoid center of row i of the table on the detection's
    back-projection ray at the depth that equates projected and detected
    areas.

    Returns (ts, ok); ``ok`` is False where the detection is not a real
    ellipse, where the detected size would force the ellipsoid across the
    principal plane, or where the reference projection is invalid.
    """
    n = len(Rs)
    if not pairs.area_det[i] > 0.0:
        return np.full((n, 3), np.nan), np.zeros(n, bool)
    v = pairs.ray_dir[i]
    Rc = Rs @ pairs.center_w[i]
    # ellipsoid support along the camera z axis bounds the closest valid depth
    z_rows = Rs[:, 2] @ pairs.rot_w[i]
    support_z = np.sqrt(np.sum((pairs.axes[i] * z_rows) ** 2, axis=1))
    lam_min = 1.05 * support_z / v[2]
    lam_ref = np.maximum(20.0 * pairs.max_axis[i], 2.0 * lam_min)
    N_ref, _, valid, _ = _project_pairs(Rs, lam_ref[:, None] * v - Rc, pairs.Qd[i:i + 1],
                                        pairs.center_w[i:i + 1])
    area_ref = _conic_areas(N_ref[:, 0])
    with np.errstate(invalid="ignore"):
        lam0 = lam_ref * np.sqrt(area_ref / pairs.area_det[i])
        ok = valid[:, 0] & (area_ref > 0.0) & (lam0 >= 0.5 * lam_min)
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
    i, j = np.nonzero(np.triu(d2 < dmin * 1.001, 1))
    mids = v[i] + v[j]
    return np.vstack([v, mids / np.sqrt(mids[:, None] @ mids[:, :, None])[:, 0]])


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


def _same_pose(R, t, R0, t0) -> bool:
    """Whether the pose (R, t) falls in the cluster of (R0, t0): rotation
    distance plus translation distance relative to 1 + |t0| below 0.05."""
    distance = np.linalg.norm(t - t0) / (1.0 + float(np.linalg.norm(t0)))
    return rotation_distance(R, R0) + distance < 0.05


def _two_pair_solutions(pairs: _Pairs, draws):
    """Full 6-dof poses of the draws (i, j), each two row indices of the
    table ``pairs``, solved together: per draw, its Pose or the
    ElliposeError it fails with.

    The rotation is searched over 42 icosahedral viewing directions times 8
    rolls (stage A, per draw); each start is scored by placing the object on
    one pair's back-projection ray at the area-equating depth and measuring
    the conic residual on both.  The best starts of every draw are polished
    by a short joint 6-dof damped least-squares refinement (stage B), then
    its leading candidates by a full one (stage C); each stage is one
    lockstep LM over all draws, in which a candidate takes the steps it
    takes alone, so a draw's result does not depend on the others.  Distinct
    minima with costs within 1% of each other give AmbiguousSolution
    carrying both candidates.
    """
    starts = _rotation_starts()
    solutions = [None] * len(draws)
    stage_b = {}  # draw index -> (R0, t0, rows) of its stage-B starts
    for d, rows in enumerate(draws):
        rows = list(rows)  # an index list (a tuple would index two axes)
        sep = float(np.linalg.norm(pairs.center_w[rows[0]] - pairs.center_w[rows[1]]))
        if sep < 1e-9 * max(float(pairs.max_axis[rows].max()), 1.0):
            solutions[d] = DegenerateConfiguration("ellipsoid centers coincide")
            continue
        # stage A: closed-form position from either pair, residual on both;
        # candidates in start order, anchor 0 before anchor 1, stably sorted
        costs, placements = [], []
        for anchor in rows:
            ts, ok = _ray_placements(starts, pairs, anchor)
            N, _, valid, _ = _project_pairs(starts, ts, pairs.Qd[rows], pairs.center_w[rows])
            r = (N - pairs.M_det[rows]).reshape(len(starts), -1)
            costs.append(np.where(ok & valid.all(axis=1), (r * r).sum(axis=1), np.inf))
            placements.append(ts)
        costs = np.stack(costs, axis=1).ravel()
        placements = np.stack(placements, axis=1).reshape(-1, 3)
        order = np.argsort(costs, kind="stable")
        order = order[np.isfinite(costs[order])]
        if not order.size:
            solutions[d] = NoConvergence("no rotation start produced a valid projection")
            continue
        keep = order[:_STAGE_B_KEEP]
        stage_b[d] = (starts[keep // 2], placements[keep], rows)

    # stage B: short joint refinement to make the ranking trustworthy
    # (position-only polish is not discriminative enough: a wrong rotation
    # can reach a similar cost to a nearly-right one)
    stage_c = {}
    for d, ranked in _refined_draws(pairs, stage_b, solutions, max_iter=8).items():
        _, R0, t0 = zip(*ranked[:_STAGE_C_KEEP])
        stage_c[d] = (np.stack(R0), np.stack(t0), stage_b[d][2])

    # stage C: full joint 6-dof refinement of the leading candidates, then
    # distinct poses clustered, best first
    for d, candidates in _refined_draws(pairs, stage_c, solutions, max_iter=60).items():
        clusters = []
        for cost, R, t in candidates:
            if not any(_same_pose(R, t, cR, ct) for _, cR, ct in clusters):
                clusters.append((cost, R, t))
        best = clusters[0]
        solutions[d] = Pose(best[1], best[2])
        if len(clusters) > 1 and clusters[1][0] - best[0] <= 0.01 * best[0] + 1e-10:
            solutions[d] = AmbiguousSolution(
                "two distinct pose minima fit the pairs equally well",
                candidates=(solutions[d], Pose(clusters[1][1], clusters[1][2])),
            )
    return solutions


def _refined_draws(pairs, starts, solutions, *, max_iter):
    """One lockstep LM over the starts of every draw, ``starts`` mapping a
    draw to (R0, t0, rows).  Returns, per draw, the (final cost, R, t) of
    its candidates that started valid, stably sorted by cost; a draw with
    none gets NoConvergence in ``solutions`` instead."""
    if not starts:
        return {}
    R0 = np.concatenate([R for R, _, _ in starts.values()])
    t0 = np.concatenate([t for _, t, _ in starts.values()])
    rows = np.concatenate([np.broadcast_to(rows, (len(t), 2)) for _, t, rows in starts.values()])
    res, (R, t) = _refine_raw(R0, t0, pairs, rows, max_iter=max_iter)
    out, lo = {}, 0
    for d, (_, t_d, _) in starts.items():
        span = slice(lo, lo + len(t_d))
        lo = span.stop
        ranked = sorted(((c[-1], Ri, ti) for c, Ri, ti in zip(res.costs[span], R[span], t[span])
                         if c), key=lambda s: s[0])
        if ranked:
            out[d] = ranked
        else:
            solutions[d] = NoConvergence("no refinement start produced a valid projection")
    return out


def _refine_raw(R0, t0, pairs, rows, *, max_iter=50, rotation_fixed=False):
    """Lockstep LM from the n poses (R0 (n,3,3), t0 (n,3)), candidate i
    fitting the table rows ``rows[i]`` (rows (n,k)), over the translation
    itself (``rotation_fixed``) or jointly over (axis-angle increment,
    translation offset).

    Returns the LM result and the poses (R, t) of its final iterates.
    """
    Qd, centers, M_det = pairs.Qd[rows], pairs.center_w[rows], pairs.M_det[rows]

    def pose_at(idx, X):
        if rotation_fixed:
            return R0[idx], X
        return _rotations(X[:, :3]) @ R0[idx], t0[idx] + X[:, 3:]

    def fun(idx, X):
        R, t = pose_at(idx, X)
        N, _, valid, terms = _project_pairs(R, t, Qd[idx], centers[idx])
        return (N - M_det[idx]).reshape(len(X), -1), valid.all(axis=1), (R, *terms)

    def jac(idx, X, state):
        R, *terms = state
        dP = _DP_TRANSLATION[None] if rotation_fixed else _pose_directions(X[:, :3], R)
        return _conic_jacobians(terms, dP)

    x0 = t0 if rotation_fixed else np.zeros((len(t0), 6))
    res = _levenberg_marquardt(fun, jac, x0, max_iter=max_iter)
    return res, pose_at(slice(None), res.x)


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------


def ransac_pose(detections, cloud: EllipsoidCloud, cam: CameraModel, opts: RansacOptions) -> PoseEstimate:
    """Camera pose of a view from its (label, Ellipse) detections and the
    labeled ellipsoids of ``cloud``, by RANSAC over the associations of
    equal labels, the rows of the table of :func:`_pairs`.

    With the orientation known, every row is placed once, in order, by
    :func:`_ray_placements`; in full mode, each distinct seeded draw of two
    rows that share no detection and no object is solved, all in one
    :func:`_two_pair_solutions` call.  Hypotheses are scored by the ellipse
    IoU between detections and reprojections.  The first with the most
    inliers and then the highest mean inlier IoU is polished on its inliers'
    rows by the one-candidate LM, and consensus is re-evaluated on the
    refined pose.  A distinct pose (outside the cluster of
    :func:`_same_pose`) that ties it on both raises AmbiguousSolution
    carrying the two.  ``seed`` and ``iterations`` act on full mode only.
    """
    pairs, det_idx, obj_idx = _pairs(detections, cloud, cam.K)
    min_set = 1 if opts.mode == "orientation_known" else 2
    if len(det_idx) < min_set:
        raise NoValidPose(f"{len(det_idx)} correspondences, need {min_set}")
    hypotheses = (_placements(opts.rotation, pairs) if opts.mode == "orientation_known"
                  else _two_pair_poses(pairs, det_idx, obj_idx, opts))
    best = rival = None  # best: ((count, score), pose, inliers); rival: a pose tying it
    for poses in hypotheses:
        for pose in poses:
            inliers, score = _consensus(pose, pairs, cam.K, opts.inlier_iou_threshold)
            if len(inliers) < min_set:
                continue
            key = (len(inliers), score)
            if best is None or key > best[0]:
                best, rival = (key, pose, inliers), None
            elif key == best[0] and rival is None and not _same_pose(
                    pose.R, pose.t, best[1].R, best[1].t):
                rival = pose
    if best is None:
        raise NoValidPose("no hypothesis reached the minimal inlier count")
    if rival is not None:
        raise AmbiguousSolution("two distinct poses tie on inlier count and mean IoU",
                                candidates=(best[1], rival))

    (_, score), pose, inliers = best
    # final polish, re-run while the consensus set keeps growing; the local
    # refinement minimizes an algebraic cost whose optimum can drift
    # geometrically under detection shape mismatch, so a refined pose only
    # replaces the incumbent when it does not hurt the consensus objective.
    # This is the only guard on the polish: a pose that slides an object
    # off its detection, or whose outline turns into a hyperbola, loses
    # that inlier here, so the LM needs no per-pair limits of its own.
    # A single inlier leaves the rotation free to spin while tracking its
    # pair, so orientation refinement needs at least two.
    for _ in range(4):
        rotation_fixed = not opts.refine_orientation or len(inliers) < 2
        res, (R, t) = _refine_raw(pose.R[None], pose.t[None], pairs, np.array(inliers)[None],
                                  rotation_fixed=rotation_fixed)
        refined = pose if len(res.costs[0]) <= 1 else Pose(R[0], t[0])
        inliers2, score2 = _consensus(refined, pairs, cam.K, opts.inlier_iou_threshold)
        if (len(inliers2), score2) < (len(inliers), score):
            break
        grew = len(inliers2) > len(inliers)
        pose, inliers, score = refined, inliers2, score2
        if not grew:
            break
    return PoseEstimate(pose, inliers, score)


def _placements(R, pairs: _Pairs):
    """Orientation-known hypotheses: each row's ray placement at R, in order."""
    for i in range(len(pairs.Qd)):
        ts, ok = _ray_placements(R[None], pairs, i)
        yield [Pose(R, ts[0])] if ok[0] else []


def _two_pair_poses(pairs: _Pairs, det_idx, obj_idx, opts: RansacOptions):
    """Full-mode hypotheses: per distinct seeded draw, in draw order, the
    poses :func:`_two_pair_solutions` finds for it, where it does not fail.
    The draws come first, as the RNG stream never depends on a solve, and
    are solved together.  A repeated draw is not solved again: the solver is
    deterministic, so its poses would be poses already scored, which can
    neither beat the best nor become a new rival to it."""
    rng = np.random.default_rng(np.random.SeedSequence(int(opts.seed)))
    draws = [_draw_minimal_set(rng, det_idx, obj_idx) for _ in range(opts.iterations)]
    draws = list(dict.fromkeys(d for d in draws if d is not None))
    for solution in _two_pair_solutions(pairs, draws):
        if isinstance(solution, AmbiguousSolution):
            yield list(solution.candidates)
        elif not isinstance(solution, ElliposeError):
            yield [solution]


def _draw_minimal_set(rng, det_idx, obj_idx):
    """Two rows drawn at random that share no detection and no object, or
    None when 50 tries find none."""
    n = len(det_idx)
    for _ in range(50):
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i != j and det_idx[i] != det_idx[j] and obj_idx[i] != obj_idx[j]:
            return (i, j)
    return None


def _consensus(pose: Pose, pairs: _Pairs, K, threshold):
    """Inlier indices and mean inlier IoU of a hypothesis over the rows of
    the table.

    All rows are projected in one kernel call; those whose outline is
    invalid (behind the camera, degenerate, not an ellipse) are skipped,
    and the rest are scored against their detections in one IoU call.
    Inliers, the rows with an IoU of at least ``threshold``, are kept and
    summed in row order.
    """
    centers, axes, angles, code, _ = _outlines(
        pose.R[None], pose.t[None], pairs.Qd, pairs.center_w, K[None]
    )
    idx = np.flatnonzero(code[0] == 0)
    ious = _ellipse_ious(
        centers[0, idx], axes[0, idx], angles[0, idx],
        pairs.det_center[idx], pairs.det_axes[idx], pairs.det_angle[idx], _IOU_GRID,
    )
    inliers = []
    total = 0.0
    for i, iou in zip(idx.tolist(), ious.tolist()):
        if iou >= threshold:
            inliers.append(i)
            total += iou
    score = total / len(inliers) if inliers else 0.0
    return tuple(inliers), score
