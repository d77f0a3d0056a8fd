"""Camera pose recovery from ellipse-ellipsoid correspondences.

Solvers: closed-form camera placement from one pair under a known
orientation (the ellipsoid center on the detection's back-projection ray at
the area-equating depth), full two-pair pose (icosahedral rotation grid
scored by that closed-form placement, then joint 6-dof refinement), local
pose refinement over any number of pairs, and a seeded RANSAC over
label-based association hypotheses that solves each distinct minimal set
once.  With the orientation known, the only damped least-squares solve is
the final polish of the best hypothesis on its inliers.

Each solver call converts its correspondences once, into one table of
stacked arrays (:func:`_pairs`): RANSAC builds it for its placements and
consensus, and the two-pair solver and the refinement each build their own;
a row depends on its correspondence alone, so the tables agree bit for bit.
Every projection goes through the one conic-projection kernel of
``geometry`` over a stack of poses times pairs.  All residuals are
Frobenius differences of its unit-normalized point conics; their exact
Jacobian in (axis-angle increment, translation) is taken from the very
conic that gave the accepted residual.  One Levenberg-Marquardt advances n
candidates in lockstep, each with its own damping, acceptance and stop,
scoring all trials of a round in one kernel call: the two-pair solver
refines its candidates together, and the polish is the one-candidate case.
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
    Ellipse,
    Ellipsoid,
    Pose,
    canonicalize,
    normalize_symmetric,
    rotation_z,
    _ADJ,
    _FULL,
    _UPPER,
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
class Correspondence:
    """A detected ellipse paired with an ellipsoid, the ellipse stored in
    canonical form.  The solvers read it through the table of
    :func:`_pairs`, which converts each correspondence once per call."""

    ellipse: Ellipse
    ellipsoid: Ellipsoid
    label: str

    def __post_init__(self):
        object.__setattr__(self, "ellipse", canonicalize(self.ellipse))


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
        it = self.iterations
        if not isinstance(it, (int, np.integer)) or isinstance(it, bool) or it < 1:
            raise ValueError(f"iterations must be an int >= 1, got {it!r}")
        if not 0.0 < self.inlier_iou_threshold < 1.0:
            raise ValueError("inlier threshold must be in (0, 1)")
        if self.mode == "orientation_known":
            if self.rotation is None:
                raise ValueError("orientation_known mode needs a rotation")
            rotation = _freeze(self.rotation, (3, 3))
            _check_rotation(rotation)
            object.__setattr__(self, "rotation", rotation)


@dataclass(frozen=True, eq=False)
class RefineResult:
    pose: Pose
    converged: bool
    costs: tuple  # initial cost followed by the cost after each accepted step


# ---------------------------------------------------------------------------
# Residual machinery
# ---------------------------------------------------------------------------


_Pairs = namedtuple(
    "_Pairs", "Qd center_w axes rot_w max_axis M_det area_det ray_dir det_center det_axes det_angle"
)


def _pairs(correspondences, K) -> _Pairs:
    """The table of the correspondences under the intrinsics K, one row each:
    the ellipsoid's unit dual quadric Qd, center_w, axes, rotation rot_w and
    max_axis; the detection's unit point conic M_det, its area area_det (not
    > 0 where the conic is no real ellipse) and the unit back-projection ray
    ray_dir of its center; and the detection's det_center, det_axes and
    det_angle in pixels.  M_det and area_det are in intrinsics-normalized
    coordinates: pixel-frame conic entries span several orders of magnitude
    and would crush the shape information after unit-Frobenius scaling.
    Rows come from the stacked kernels of ``ellipsoid_to_dual_quadric`` and
    ``ellipse_to_conic`` and depend on their own correspondence alone, so
    the table of a subset is those rows of the full table, bit for bit.
    """
    center_w, axes, rot_w = (np.array([getattr(c.ellipsoid, name) for c in correspondences])
                             for name in ("center", "axes", "rotation"))
    det_center, det_axes, det_angle = (np.array([getattr(c.ellipse, name) for c in correspondences])
                                       for name in ("center", "axes", "angle"))
    M = normalize_symmetric(_ellipse_conics(det_center, det_axes, det_angle))
    M_det = normalize_symmetric(K.T @ M @ K)
    h = np.concatenate([det_center, np.ones((len(M), 1))], axis=1)[:, :, None]
    h = np.linalg.solve(np.broadcast_to(K, (len(M), 3, 3)), h)[:, :, 0]
    return _Pairs(normalize_symmetric(_quadric_duals(center_w, axes, rot_w)), center_w, axes,
                  rot_w, axes.max(axis=1), M_det, _conic_areas(M_det),
                  h / np.sqrt(h[:, None] @ h[:, :, None])[:, 0], det_center, det_axes, det_angle)


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
    pairs = _pairs((c1, c2), cam.K)
    sep = float(np.linalg.norm(pairs.center_w[0] - pairs.center_w[1]))
    if sep < 1e-9 * max(float(pairs.max_axis.max()), 1.0):
        raise DegenerateConfiguration("ellipsoid centers coincide")

    starts = _rotation_starts()

    # stage A: closed-form position from either pair, residual on both;
    # candidates in start order, anchor 0 before anchor 1, stably sorted
    costs, placements = [], []
    for anchor in (0, 1):
        ts, ok = _ray_placements(starts, pairs, anchor)
        N, _, valid, _ = _project_pairs(starts, ts, pairs.Qd, pairs.center_w)
        r = (N - pairs.M_det).reshape(len(starts), -1)
        costs.append(np.where(ok & valid.all(axis=1), (r * r).sum(axis=1), np.inf))
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
    keep = order[:_STAGE_B_KEEP]
    stage_b = _ranked(*_refine_raw(starts[keep // 2], placements[keep], pairs, max_iter=8))

    # stage C: full joint 6-dof refinement of the leading candidates
    _, R0, t0 = zip(*stage_b[:_STAGE_C_KEEP])
    candidates = _ranked(*_refine_raw(np.stack(R0), np.stack(t0), pairs, max_iter=60))

    # cluster distinct poses, best first
    clusters = []
    for cost, R, t in candidates:
        if not any(rotation_distance(R, cR) + np.linalg.norm(t - ct) / (
                1.0 + float(np.linalg.norm(ct))) < 0.05 for _, cR, ct in clusters):
            clusters.append((cost, R, t))
    best = clusters[0]
    if len(clusters) > 1 and clusters[1][0] - best[0] <= 0.01 * best[0] + 1e-10:
        raise AmbiguousSolution(
            "two distinct pose minima fit the pairs equally well",
            candidates=(Pose(best[1], best[2]), Pose(clusters[1][1], clusters[1][2])),
        )
    return Pose(best[1], best[2])


def _ranked(res, poses):
    """(final cost, R, t) of the refined candidates that started valid,
    stably sorted by cost."""
    ranked = sorted(
        ((c[-1], R, t) for c, R, t in zip(res.costs, *poses) if c), key=lambda s: s[0]
    )
    if not ranked:
        raise NoConvergence("no refinement start produced a valid projection")
    return ranked


def _refine_raw(R0, t0, pairs, *, max_iter=50, rotation_fixed=False):
    """Lockstep LM from the n poses (R0 (n,3,3), t0 (n,3)) over the
    translation itself (``rotation_fixed``) or jointly over (axis-angle
    increment, translation offset).

    Returns the LM result and the poses (R, t) of its final iterates.
    """
    Qd, centers, M_det = pairs.Qd, pairs.center_w, pairs.M_det

    def pose_at(idx, X):
        if rotation_fixed:
            return R0[idx], X
        return _rotations(X[:, :3]) @ R0[idx], t0[idx] + X[:, 3:]

    def fun(idx, X):
        R, t = pose_at(idx, X)
        N, _, valid, terms = _project_pairs(R, t, Qd, centers)
        return (N - M_det).reshape(len(X), -1), valid.all(axis=1), (R, *terms)

    def jac(idx, X, state):
        R, *terms = state
        dP = _DP_TRANSLATION[None] if rotation_fixed else _pose_directions(X[:, :3], R)
        return _conic_jacobians(terms, dP)

    x0 = t0 if rotation_fixed else np.zeros((len(t0), 6))
    res = _levenberg_marquardt(fun, jac, x0, max_iter=max_iter)
    return res, pose_at(slice(None), res.x)


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
    res, (R, t) = _refine_raw(p0.R[None], p0.t[None], _pairs(correspondences, cam.K),
                              rotation_fixed=rotation_fixed)
    costs = res.costs[0]
    # no accepted step (or an invalid start): return the input bit-for-bit
    pose = p0 if len(costs) <= 1 else Pose(R[0], t[0])
    return RefineResult(pose, bool(res.converged[0]), tuple(costs))


# ---------------------------------------------------------------------------
# Associations and RANSAC
# ---------------------------------------------------------------------------


def _associations_with_indices(detections, cloud: EllipsoidCloud):
    return [(Correspondence(ellipse, ellipsoid, label), d_idx, o_idx)
            for d_idx, (label, ellipse) in enumerate(detections)
            for o_idx, (obj_label, ellipsoid) in enumerate(cloud.entries) if label == obj_label]


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
    pairs = _pairs(corrs, cam.K)
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
            ts, ok = _ray_placements(opts.rotation[None], pairs, sample[0])
            hypotheses = [Pose(opts.rotation, ts[0])] if ok[0] else []
        else:
            try:
                hypotheses = [pose_from_two_pairs(corrs[sample[0]], corrs[sample[1]], cam)]
            except AmbiguousSolution as exc:
                hypotheses = list(exc.candidates)
            except ElliposeError:
                continue
        for pose in hypotheses:
            inliers, score = _consensus(pose, pairs, cam.K, opts.inlier_iou_threshold)
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
    # This is the only guard on the polish: a pose that slides an object
    # off its detection, or whose outline turns into a hyperbola, loses
    # that inlier here, so the LM needs no per-pair limits of its own.
    # A single inlier leaves the rotation free to spin while tracking its
    # pair, so orientation refinement needs at least two.
    for _ in range(4):
        rotation_fixed = not opts.refine_orientation or len(inliers) < 2
        refined = refine_pose(
            pose, [corrs[i] for i in inliers], cam, rotation_fixed=rotation_fixed
        )
        inliers2, score2 = _consensus(refined.pose, pairs, cam.K, opts.inlier_iou_threshold)
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
        if i != j and assoc[i][1] != assoc[j][1] and assoc[i][2] != assoc[j][2]:
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
