"""Camera pose recovery from label-associated ellipse-ellipsoid pairs.

The one entry point is :func:`ransac_pose`, RANSAC over the associations of
a view's detections with the cloud's ellipsoids of the same label.  With
the orientation known, each association's hypothesis is the closed-form
camera placement: the ellipsoid center on the detection's back-projection
ray at the area-equating depth.  In full mode, each distinct seeded draw
of a triple of associations with three distinct detections and three
distinct objects is solved once, in closed form: P3P puts the three
ellipsoid centers on the back-projection rays of the detection centers,
all draws of a view in one vectorized call.  A view with no such triple,
or whose triples give no pose with two inliers (its object centers on one
line, say), draws pairs of associations that share no detection and no
object instead.  With both ellipsoid centers on their rays, such a pair
leaves the pose free only by the turn about the line through the two
centers: each is solved by scanning that turn, scoring every start by the
closed-form placement (both rows at every start, in one call), then by
joint 6-dof refinement of the best starts, all draws of a view together.
A seeded draw of either size is a number below the count of admissible
sets, and all of a view's are mapped to their sets at once by arithmetic.
Both minimal solvers return the stacked poses of all their draws and the
draw of each, every solution of a draw that passes their tests (for the
pairs, the best distinct minimum and the next within 1% of its cost); a
draw that gives no pose is absent.  The best hypothesis is polished on its
inliers, the only damped least-squares solve besides the two-pair
refinement.

Each call converts its detections once, into one table of stacked arrays
(:func:`_pairs`), one row per association, gathered with no object per
detection: the placements, P3P, the two-pair solves, consensus and the
polish, which reads the inliers' rows, all read it.  The cloud side of
the table is gathered from stacks built once per cloud.  A row depends on
its own association alone, so a subset's table is those rows of the full
table, bit for bit.
Every projection goes through the one conic-projection kernel of
``geometry`` over a stack of poses times pairs.  All residuals are
Frobenius differences of its unit-normalized point conics; their exact
Jacobian in (axis-angle increment, translation) is taken from the very
conic that gave the accepted residual, and from the Rodrigues terms of
that trial, mapped once per trial.  One Levenberg-Marquardt advances n
candidates in lockstep, each with its own damping, acceptance and stop,
scoring all trials of a round in one kernel call: the two-pair solver
refines the candidates of all of a view's draws together in one LM, and
the polish is the one-candidate case.  A candidate stops when
its gradient vanishes, when an accepted step lowers its cost by no more
than 1e-12 of it (a test on the actual reduction alone: a fit whose
residual is not zero at its minimum ends there, not after steps that only
trade rounding noise), when no damping gives a downhill step, or at its
iteration cap.
A view's hypotheses are scored together: with the orientation known, one
placement call places every row, and consensus is one kernel call for
every hypothesis pose times every row and one batched ellipse IoU of its
conics against the detected ones, in normalized coordinates throughout.

The LM takes any valid downhill step of the algebraic residual, which can
reward a pose that slides an object off its detection or turns its outline
into a hyperbola.  Such a pose loses that inlier under the ellipse IoU, so
the consensus check after the polish, on the objective RANSAC ranks by, is
the one guard a refined pose must pass.  A per-pair test inside the LM
would reject trials that consensus keeps and stop the polish early, at
times on a worse pose.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import AmbiguousSolution, NoValidPose
from .geometry import (
    CameraModel,
    Pose,
    normalize_symmetric,
    _ADJ,
    _FULL,
    _NOT_A_ROTATION,
    _UPPER,
    _canonical,
    _check_int,
    _check_rotation,
    _ellipse_conics,
    _freeze,
    _project_pairs,
)
from .metrics import _conic_ious, rotation_distance
from .reconstruction import EllipsoidCloud

_IOU_ROWS = 128  # row count of the consensus IoU


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
    ``iterations`` and ``seed`` apply to mode 'full' only, and
    ``refine_orientation`` (False: the polish keeps that rotation) to mode
    'orientation_known' only."""

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
            if _check_rotation(rotation[None])[0]:
                raise ValueError(_NOT_A_ROTATION)
            object.__setattr__(self, "rotation", rotation)


# ---------------------------------------------------------------------------
# Residual machinery
# ---------------------------------------------------------------------------


_Pairs = namedtuple("_Pairs", "Qd center_w axes rot_w max_axis M_det area_det ray_dir")


def _pairs(detections, cloud: EllipsoidCloud, K):
    """The table of the (label, Ellipse) detections associated with the
    cloud's ellipsoids of equal label under the intrinsics K, one row per
    association, detection-major; and each row's detection index and object
    index.  The table is None when no label matches.

    A row holds the ellipsoid's unit dual quadric Qd, center_w, axes,
    rotation rot_w and max_axis; and the detection's unit point conic M_det,
    its area area_det (not > 0 where the conic is no real ellipse) and the
    unit back-projection ray ray_dir of its center.  M_det and area_det are
    in intrinsics-normalized coordinates: pixel-frame conic entries span
    several orders of magnitude and would crush the shape information after
    unit-Frobenius scaling.  The objects' rows are gathered by index from
    the cloud's stacks, built once per cloud; the detections are stacked
    once, canonicalized in one kernel call and gathered by index through
    the stacked kernel ``_ellipse_conics``.  A row depends on its own
    association alone, so the table of a subset is those rows of the full
    table, bit for bit.
    """
    objects = cloud._objects
    matches = [objects.get(label, ()) for label, _ in detections]
    det_idx = np.repeat(np.arange(len(matches)), [len(m) for m in matches])
    obj_idx = np.array([o for m in matches for o in m], int)
    if not len(obj_idx):
        return None, det_idx, obj_idx
    stacked = (np.array([getattr(e, name) for _, e in detections])
               for name in ("center", "axes", "angle"))
    det_center, det_axes, det_angle = (rows[det_idx] for rows in _canonical(*stacked))
    center_w, axes, rot_w, Qd = (rows[obj_idx] for rows in cloud._stacked)
    M = normalize_symmetric(_ellipse_conics(det_center, det_axes, det_angle))
    M_det = normalize_symmetric(K.T @ M @ K)
    h = np.concatenate([det_center, np.ones((len(M), 1))], axis=1)[:, :, None]
    h = np.linalg.solve(np.broadcast_to(K, (len(M), 3, 3)), h)[:, :, 0]
    table = _Pairs(Qd, center_w, axes, rot_w, axes.max(axis=1), M_det, _conic_areas(M_det),
                   h / np.sqrt(h[:, None] @ h[:, :, None])[:, 0])
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
_COST_TOL = 1e-12  # ... or when an accepted step lowers the cost by at most this share


# per candidate: the final point x (n,d); costs, the initial cost and then
# one per accepted step (empty for an invalid start); converged; why it
# stopped; and its trials rejected as invalid and as uphill
_LMResult = namedtuple("_LMResult", "x costs converged stop invalid uphill")


def _damped_steps(M, g):
    """Steps solving M delta = -g row by row, and the mask of singular
    systems (their rows NaN), None when every system solves; one singular
    system does not fail the others."""
    try:
        return np.linalg.solve(M, -g[..., None])[..., 0], None
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

    A candidate stops, with its reason in ``stop``: converged at a gradient
    norm under ``_GRAD_TOL`` ("gradient") or after an accepted step from
    cost c_old to c with c_old - c <= ``_COST_TOL`` * c_old ("cost", a test
    on the actual reduction only, unlike MINPACK's ftol stop, which also
    bounds the reduction the linear model predicted); when
    no damping level gives a valid downhill step ("no descent", converged
    only at a gradient norm under 1e-6); after ``max_iter`` accepted steps
    ("iteration cap"); or at an invalid start.
    """
    x = np.array(x0, float)
    n, d = x.shape

    def rows(cands):  # the index of sorted candidates: a slice when it is all of them
        return slice(None) if len(cands) == n else np.array(cands, int)

    def damped(idx):  # the damped normal matrices A + lam diag(D) of the candidates idx
        M = A[idx] + 0.0  # a new array also where A[idx] is a view
        M.reshape(-1, d * d)[:, ::d + 1] += lam[idx, None] * D[idx]  # the diagonals
        return M

    r, ok, state = fun(slice(None), x)
    valid = ok.tolist()
    cost = (r * r).sum(axis=1).tolist()
    costs = [[c] if v else [] for c, v in zip(cost, valid)]
    stop = ["" if v else "invalid start" for v in valid]
    converged, invalid, uphill, grad = [False] * n, [0] * n, [0] * n, [0.0] * n
    lam = np.full(n, 1e-3)
    g, A, D = np.zeros((n, d)), np.zeros((n, d, d)), np.zeros((n, d))  # D: damping diagonals
    searching = []  # candidates holding a damped system to solve
    fresh = [i for i, v in enumerate(valid) if v]
    fresh_state = state if len(fresh) == n else tuple(v[ok] for v in state)
    while True:
        if fresh:  # new iterates: Jacobian, gradient, normal matrix and damping diagonal
            f = rows(fresh)
            J = jac(f, x[f], fresh_state)
            g[f] = gf = (r[f, None] @ J)[:, 0]
            A[f] = Af = J.transpose(0, 2, 1) @ J
            D[f] = np.maximum(Af.diagonal(0, 1, 2), 1e-12)
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
        act.sort()
        searching = act[:]  # less those accepted below
        a = rows(act)
        delta, singular = _damped_steps(damped(a), g[a])
        if singular is not None:  # a singular system raises the damping tenfold, up to 1e12
            cands = np.array(act)
            while singular.any():
                lam[cands[singular]] *= 10.0
                singular &= lam[cands] < 1e12
                redo = cands[singular]
                delta[singular], again = _damped_steps(damped(redo), g[redo])
                singular[singular] = False if again is None else again
            kept = lam[cands] < 1e12
            act = cands[kept].tolist()
            if not act:
                fresh = []
                continue
            a, delta = rows(act), delta[kept]
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
        if len(acc) == len(act):  # the common case needs no row selection
            x[a], r[a] = X, rt
        elif acc:
            moved = [act[j] for j in acc]
            x[moved], r[moved] = X[acc], rt[acc]
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


def _rodrigues(W):
    """Rodrigues map of the rows of W (m,3) to rotations (m,3,3), and the
    terms (S, S2, a, b) of its SO(3) left Jacobian J_l = I + a S + b S2, S =
    [w]x and S2 = S @ S, a and b (m,1,1).  Below an angle of 1e-8, where
    the cosine rounds to 1, the rotation is exactly its first-order term
    I + [w]x and (a, b) are their limits (1/2, 0)."""
    theta = _row_norms(W)
    tiny = theta < 1e-8
    theta = theta + (theta == 0.0)  # a zero rotation has S = 0
    sin = np.sin(theta)
    a = (1.0 - np.cos(theta)) / (theta * theta)
    S = (W[:, None] @ _SKEW).reshape(-1, 3, 3)
    S2 = S @ S
    R = _I3 + (sin / theta)[:, None, None] * S + a[:, None, None] * S2
    odd = theta - sin  # b = odd / theta**3
    if tiny.any():  # the limits, also where theta**3 would underflow
        a, odd, theta = np.where(tiny, 0.5, a), np.where(tiny, 0.0, odd), np.where(tiny, 1.0, theta)
    return R, S, S2, a[:, None, None], (odd / theta**3)[:, None, None]


def _pose_directions(Rs, S, S2, a, b):
    """d[R | t] / d(w, t) (m,6,3,4) for R = exp([w]x) R0 at the current
    rotations Rs, from the left-Jacobian terms of :func:`_rodrigues` at w:
    dR/dw_k = [J_l(w) e_k]x R, with the SO(3) left Jacobian
    exp([w + dw]x) = exp([J_l dw]x) exp([w]x) to first order."""
    m = len(Rs)
    Jl = _I3 + a * S + b * S2
    dP = np.zeros((m, 6, 3, 4))
    dP[:, :3, :, :3] = (Jl.transpose(0, 2, 1) @ _SKEW).reshape(m, 3, 3, 3) @ Rs[:, None]
    dP[:, 3:] = _DP_TRANSLATION
    return dP


def _ray_placements(Rs, pairs: _Pairs, i):
    """Closed-form camera translations that put the ellipsoid center of a
    table row on the detection's back-projection ray at the depth that
    equates projected and detected areas: row i[k] of the index array i
    (n,) at the rotation Rs[k] (Rs (n,3,3)).

    Returns (ts, ok); ``ok`` is False where the detection is not a real
    ellipse (ts NaN there), where the detected size would force the
    ellipsoid across the principal plane, or where the reference
    projection is invalid.
    """
    Rc = (Rs @ pairs.center_w[i][:, :, None])[:, :, 0]
    z_rows = (Rs[:, 2:] @ pairs.rot_w[i])[:, 0]
    Qd, centers = pairs.Qd[i][:, None], pairs.center_w[i][:, None]
    area_det, v = pairs.area_det[i], pairs.ray_dir[i]
    # ellipsoid support along the camera z axis bounds the closest valid depth
    support_z = np.sqrt(np.sum((pairs.axes[i] * z_rows) ** 2, axis=-1))
    lam_min = 1.05 * support_z / v[:, 2]
    lam_ref = np.maximum(20.0 * pairs.max_axis[i], 2.0 * lam_min)
    N_ref, _, valid, _ = _project_pairs(Rs, lam_ref[:, None] * v - Rc, Qd, centers)
    area_ref = _conic_areas(N_ref[:, 0])
    real = area_det > 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        lam0 = lam_ref * np.sqrt(area_ref / area_det)
        ok = valid[:, 0] & (area_ref > 0.0) & (lam0 >= 0.5 * lam_min) & real
    lam0 = np.maximum(lam0, lam_min)
    ts = lam0[:, None] * v - Rc
    ts[~real] = np.nan
    return ts, ok


# ---------------------------------------------------------------------------
# Three-row full pose
# ---------------------------------------------------------------------------


def _dot(x, y):
    """Row-wise dot products of (..., 3) arrays, summed in a fixed order."""
    return x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def _p3p(pairs: _Pairs, triples):
    """Camera poses that put the ellipsoid centers of each triple of table
    rows (triples (m,3)) on their detections' back-projection rays, all
    triples in one pass.

    Grunert's solution as reviewed by Haralick et al. (IJCV 1994): with the
    depths s2 = u s1 and s3 = v s1 along the unit rays, v is a real root of
    a quartic, an eigenvalue of its companion matrix (a near-real pair of
    them, near a double root, counts once); u follows linearly and s1 from
    the distance of the first and third centers.  One Newton step on the
    three center distances refines the depths where it does not raise
    their residual, and the rotation aligns the three centers with their
    points on the rays (SVD, with the determinant's sign fixed).  Collinear
    centers, coincident rays and a vanishing leading coefficient give no
    solution.

    Returns (Rs (h,3,3), ts (h,3), of (h,)): every solution with positive
    depths, triple by triple in the eigenvalue order, and the index of the
    triple of each.
    """
    j, P = pairs.ray_dir[triples], pairs.center_w[triples]
    first, second = [1, 0, 0], [2, 2, 1]  # sides a, b, c: the rows (2, 3), (1, 3), (1, 2)
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
        top = -coef[:, 1:] / coef[:, :1]  # the companion matrix's first row
        ok = ((_dot(normal, normal) > 1e-20 * b2 * c2) & (cos.max(axis=1) < 1.0 - 1e-12)
              & np.isfinite(top).all(axis=1))
    companion = np.zeros((len(ok), 4, 4))
    companion[:, 0] = np.where(ok[:, None], top, 0.0)
    companion[:, [1, 2, 3], [0, 1, 2]] = 1.0
    w = np.linalg.eigvals(companion)
    v = w.real
    # a real root of a real matrix has imaginary part 0; near a double root
    # rounding can split it into a conjugate pair, kept once (imag >= 0) by
    # its real part, for the Newton step and the depth test to judge
    real = (w.imag >= 0.0) & (w.imag <= 1e-6 * (1.0 + np.abs(w)))
    with np.errstate(all="ignore"):
        u = ((p[:, None] - 1.0) * v * v - 2.0 * p[:, None] * cb[:, None] * v + 1.0 + p[:, None]) \
            / (2.0 * (cg[:, None] - v * ca[:, None]))
        s1 = np.sqrt(b2[:, None] / (1.0 + v * v - 2.0 * v * cb[:, None]))
    of, root = np.nonzero(ok[:, None] & real & np.isfinite(u * s1))
    s = s1[of, root, None] * np.stack([np.ones(len(of)), u[of, root], v[of, root]], axis=1)
    # one Newton step on |s_k j_k - s_l j_l|^2 = |P_k - P_l|^2 over the
    # three pairs (k, l), kept only where it does not raise the residual:
    # at a double root its Jacobian is singular, and the step can run off
    cos, d2 = cos[of], d2[of]

    def gaps(s):
        x, y = s[:, first], s[:, second]
        return x, y, x * x + y * y - 2.0 * x * y * cos - d2

    x, y, F = gaps(s)
    J = np.zeros((len(s), 3, 3))
    J[:, [0, 1, 2], first] = 2.0 * (x - y * cos)
    J[:, [0, 1, 2], second] = 2.0 * (y - x * cos)
    step, _ = _damped_steps(J, F)
    with np.errstate(all="ignore"):  # a step off to overflow is not kept
        kept = np.abs(gaps(s + step)[2]).sum(axis=1) <= np.abs(F).sum(axis=1)  # False on NaN
    s = np.where(kept[:, None], s + step, s)
    positive = (s > 0.0).all(axis=1)
    of, s = of[positive], s[positive]
    X, P = s[:, :, None] * j[of], P[of]
    X_mean, P_mean = X.mean(axis=1), P.mean(axis=1)
    U, _, Vt = np.linalg.svd((P - P_mean[:, None]).transpose(0, 2, 1) @ (X - X_mean[:, None]))
    Vt[:, 2] *= np.sign(np.linalg.det(U @ Vt))[:, None]  # a rotation, not a reflection
    Rs = Vt.transpose(0, 2, 1) @ U.transpose(0, 2, 1)
    return Rs, X_mean - (Rs @ P_mean[:, :, None])[:, :, 0], of


# ---------------------------------------------------------------------------
# Two-pair full pose
# ---------------------------------------------------------------------------


_TURNS = 48  # turns scanned about the line through a draw's two centers
_LM_STARTS = 12  # the best scanned starts of a draw that the LM refines
_TURN_ANGLES = 2.0 * math.pi / _TURNS * np.arange(_TURNS)


def _turn_starts(pairs: _Pairs, rows):
    """The scanned rotations (m,3,3) of the draw of table rows ``rows`` and
    the anchor row of each (m,).

    Each row in turn is the anchor: its center goes on its detection ray at
    the depth where a sphere of its axes' geometric-mean radius fills the
    detected area, and the other center on its own ray at the centers'
    world distance, once per positive root (at the ray's closest point
    where it passes farther off).  The least rotation that turns
    the world center-to-center direction onto the camera one is then turned
    about that line in ``_TURNS`` equal steps.
    """
    Rs, anchors = [], []
    for a, b in (rows, rows[::-1]):
        v, w, area = pairs.ray_dir[a], pairs.ray_dir[b], float(pairs.area_det[a])
        if not area > 0.0:  # no real ellipse: no depth
            continue
        s = float(np.prod(pairs.axes[a])) ** (1.0 / 3.0) * math.sqrt(math.pi / area) / v[2] ** 1.5
        d_w = pairs.center_w[b] - pairs.center_w[a]
        dist = float(np.linalg.norm(d_w))
        p = s * float(v @ w)  # |depth w - s v| = dist: depth = p +- sqrt(disc)
        disc = max(p * p - s * s + dist * dist, 0.0)  # out of reach: the closest point
        for depth in sorted({p - math.sqrt(disc), p + math.sqrt(disc)}):
            if depth > 0.0:
                d_c = depth * w - s * v
                Rs.append(_turned(d_w / dist, d_c / np.linalg.norm(d_c)))
                anchors += [a] * _TURNS
    return np.concatenate(Rs) if Rs else np.zeros((0, 3, 3)), np.array(anchors, int)


def _turned(a, b):
    """The rotations (_TURNS,3,3) that take the unit vector a to the unit
    vector b: the least one, then turned about b by ``_TURN_ANGLES``.  The
    least rotation is the reflection across the plane normal to a + b
    (taking a to -b) followed by the one normal to b; for opposite vectors,
    the first plane is any that holds a."""
    m = a + b
    if m @ m < 1e-20:
        m = np.cross(a, _I3[np.argmin(np.abs(a))])
    R0 = (_I3 - 2.0 * np.outer(b, b)) @ (_I3 - 2.0 * np.outer(m, m) / (m @ m))
    return _rodrigues(_TURN_ANGLES[:, None] * b)[0] @ R0


def _same_pose(R, t, R0, t0) -> bool:
    """Whether the pose (R, t) falls in the cluster of (R0, t0): rotation
    distance plus translation distance relative to 1 + |t0| below 0.05."""
    distance = np.linalg.norm(t - t0) / (1.0 + float(np.linalg.norm(t0)))
    return rotation_distance(R, R0) + distance < 0.05


def _two_pair_solutions(pairs: _Pairs, draws):
    """Camera poses that fit the two table rows of each draw (draws (m,2)),
    all draws solved together.

    With both ellipsoid centers on their back-projection rays, the pose is
    free only by the turn about the line through the two centers, so each
    draw's rotation is scanned over that turn (:func:`_turn_starts`).  Each
    start is scored by placing its anchor on its ray at the area-equating
    depth and measuring the conic residual on both rows, all starts of a
    draw in one call.  The best ``_LM_STARTS`` starts of every draw are
    refined by one joint 6-dof lockstep LM over all draws, in which a
    candidate takes the steps it takes alone, so a draw's result does not
    depend on the others.  The refined poses of a draw are clustered by
    :func:`_same_pose`, best first.  A draw whose centers coincide, or with
    no valid start or refinement, gives no pose.

    Returns (Rs (h,3,3), ts (h,3), of (h,)): per draw, in draw order, its
    best distinct minimum and then the next one when its cost is within 1%
    of the best; and the index of the draw of each.
    """
    R0, t0, fits, spans = [], [], [], {}  # spans: draw index -> its LM candidates
    for d, rows in enumerate(draws.tolist()):
        sep = float(np.linalg.norm(pairs.center_w[rows[0]] - pairs.center_w[rows[1]]))
        if sep < 1e-9 * max(float(pairs.max_axis[rows].max()), 1.0):  # coincident centers
            continue
        Rs, anchors = _turn_starts(pairs, rows)
        ts, ok = _ray_placements(Rs, pairs, anchors)
        N, _, valid, _ = _project_pairs(Rs, ts, pairs.Qd[rows], pairs.center_w[rows])
        r = (N - pairs.M_det[rows]).reshape(len(Rs), 18)  # both rows' conic entries
        costs = np.where(ok & valid.all(axis=1), (r * r).sum(axis=1), np.inf)
        order = np.argsort(costs, kind="stable")
        keep = order[np.isfinite(costs[order])][:_LM_STARTS]
        if keep.size:
            spans[d] = slice(len(fits), len(fits) + len(keep))
            R0.append(Rs[keep])
            t0.append(ts[keep])
            fits += [rows] * len(keep)
    if not spans:
        return np.zeros((0, 3, 3)), np.zeros((0, 3)), np.zeros(0, int)
    # joint 6-dof refinement of the kept starts, then each draw's distinct
    # poses clustered, best first
    res, (R, t) = _refine_raw(np.concatenate(R0), np.concatenate(t0), pairs, np.array(fits),
                              max_iter=60)
    kept = []  # (candidate, draw) of each pose returned
    for d, span in spans.items():
        clusters = []
        for cost, h in sorted((res.costs[h][-1], h) for h in range(span.start, span.stop)
                              if res.costs[h]):
            if not any(_same_pose(R[h], t[h], R[k], t[k]) for _, k in clusters):
                clusters.append((cost, h))
        kept += [(h, d) for cost, h in clusters[:2]
                 if cost - clusters[0][0] <= 0.01 * clusters[0][0] + 1e-10]
    index, of = np.array(kept, int).reshape(-1, 2).T
    return R[index], t[index], of


def _refine_raw(R0, t0, pairs, rows, *, max_iter=50, rotation_fixed=False):
    """Lockstep LM from the n poses (R0 (n,3,3), t0 (n,3)), candidate i
    fitting the table rows ``rows[i]`` (rows (n,k)), over the translation
    itself (``rotation_fixed``) or jointly over (axis-angle increment,
    translation offset).

    Returns the LM result and the poses (R, t) of its final iterates.
    """
    Qd, centers, M_det = pairs.Qd[rows], pairs.center_w[rows], pairs.M_det[rows]

    def pose_at(idx, X):  # the poses of X, and the left-Jacobian terms of their turns
        if rotation_fixed:
            return R0[idx], X, ()
        turn, *left = _rodrigues(X[:, :3])
        R = turn @ R0[idx]
        return R, t0[idx] + X[:, 3:], (R, *left)

    def fun(idx, X):
        R, t, left = pose_at(idx, X)
        N, _, valid, terms = _project_pairs(R, t, Qd[idx], centers[idx])
        return (N - M_det[idx]).reshape(len(X), -1), valid.all(axis=1), (*terms, *left)

    def jac(idx, X, state):  # the Jacobian terms of the trial that was accepted at X
        dP = _DP_TRANSLATION[None] if rotation_fixed else _pose_directions(*state[4:])
        return _conic_jacobians(state[:4], dP)

    x0 = t0 if rotation_fixed else np.zeros((len(t0), 6))
    res = _levenberg_marquardt(fun, jac, x0, max_iter=max_iter)
    return res, pose_at(slice(None), res.x)[:2]


# ---------------------------------------------------------------------------
# RANSAC
# ---------------------------------------------------------------------------


def ransac_pose(detections, cloud: EllipsoidCloud, cam: CameraModel, opts: RansacOptions) -> PoseEstimate:
    """Camera pose of a view from its (label, Ellipse) detections and the
    labeled ellipsoids of ``cloud``, by RANSAC over the associations of
    equal labels, the rows of the table of :func:`_pairs`.

    With the orientation known, every row is placed once, in order, by
    :func:`_ray_placements`; in full mode, each distinct seeded draw of a
    triple of rows with three distinct detections and three distinct
    objects is solved once, all in one :func:`_p3p` call.  A view with no
    such triple, or whose triples give no pose with two inliers, draws
    unordered pairs of rows that share no detection and no object instead,
    solved in one :func:`_two_pair_solutions` call, and a view with no such
    pair either raises NoValidPose.  A full-mode pose needs at least two
    inliers.  Hypotheses are scored by the ellipse IoU between detections
    and reprojections.  The first ranked highest by
    :func:`_below` is polished on its inliers' rows by the one-candidate
    LM, and the refined pose replaces it unless it ranks below it.  A
    distinct pose (outside the cluster of :func:`_same_pose`) that ties it
    raises AmbiguousSolution carrying the two.  ``seed`` and ``iterations``
    act on full mode only, ``refine_orientation`` on orientation-known mode
    only.
    """
    pairs, det_idx, obj_idx = _pairs(detections, cloud, cam.K)
    min_set = 1 if opts.mode == "orientation_known" else 2
    if len(det_idx) < min_set:
        raise NoValidPose(f"{len(det_idx)} correspondences, need {min_set}")
    if opts.mode == "orientation_known":  # each row's ray placement, in order
        Rs = np.broadcast_to(opts.rotation, (len(det_idx), 3, 3))
        ts, ok = _ray_placements(Rs, pairs, np.arange(len(det_idx)))
        ts = ts[ok]
        hypotheses = [(Rs[:len(ts)], ts)]  # the one rotation, viewed once per kept row
    else:
        hypotheses = _full_mode_hypotheses(pairs, det_idx, obj_idx, opts)
    for Rs, ts in hypotheses:
        best, rival = _ranked(Rs, ts, pairs, opts.inlier_iou_threshold, min_set)
        if best is not None:
            break
    else:
        raise NoValidPose("no hypothesis reached the minimal inlier count")
    if rival is not None:
        raise AmbiguousSolution("two distinct poses tie on inlier count and mean IoU",
                                candidates=tuple(Pose(Rs[h], ts[h]) for h in (best[1], rival)))

    (_, score), h, inliers = best
    pose = Pose(Rs[h], ts[h])
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
        rotation_fixed = len(inliers) < 2 or (opts.mode == "orientation_known"
                                              and not opts.refine_orientation)
        res, (R, t) = _refine_raw(pose.R[None], pose.t[None], pairs, np.array(inliers)[None],
                                  rotation_fixed=rotation_fixed)
        refined = pose if len(res.costs[0]) <= 1 else Pose(R[0], t[0])
        ((inliers2, score2),) = _consensus(refined.R[None], refined.t[None], pairs,
                                           opts.inlier_iou_threshold)
        if _below((len(inliers2), score2), (len(inliers), score)):
            break
        grew = len(inliers2) > len(inliers)
        pose, inliers, score = refined, inliers2, score2
        if not grew:
            break
    return PoseEstimate(pose, inliers, score)


def _below(key, other):
    """Whether the consensus key (inlier count, mean inlier IoU) ranks
    below ``other``: by count, then by mean IoU, where mean IoUs within 1e-9
    tie, far above the rounding spread of one geometry and far below the
    IoU's error."""
    return key[0] < other[0] or (key[0] == other[0] and key[1] < other[1] - 1e-9)


def _ranked(Rs, ts, pairs: _Pairs, threshold, min_set):
    """The best of the hypotheses (Rs (h,3,3), ts (h,3)) with at least
    ``min_set`` inliers, ((count, score), h, inliers), the first of those
    ranked highest by :func:`_below`, and the index of the first distinct
    one tying it (or None); (None, None) when no hypothesis has enough."""
    best = rival = None
    for h, (inliers, score) in enumerate(_consensus(Rs, ts, pairs, threshold)):
        if len(inliers) < min_set:
            continue
        key = (len(inliers), score)
        if best is None or _below(best[0], key):
            best, rival = (key, h, inliers), None
        elif not _below(key, best[0]) and rival is None and not _same_pose(
                Rs[h], ts[h], Rs[best[1]], ts[best[1]]):
            rival = h
    return best, rival


def _full_mode_hypotheses(pairs: _Pairs, det_idx, obj_idx, opts: RansacOptions):
    """The full-mode hypothesis sets (Rs (h,3,3), ts (h,3)) of the seeded
    draws of :func:`_seeded_draws`, each set solved only when the one
    before it gave no pose with two inliers.  First the triples, every
    solution of every distinct draw from one :func:`_p3p` call.  A view
    with no admissible triple, or whose drawn triples give no pose (its
    object centers on one line, say), then takes those of the pairs, from
    one :func:`_two_pair_solutions` call."""
    triples = _seeded_draws(det_idx, obj_idx, 3, opts)
    if triples is not None:
        yield _p3p(pairs, triples)[:2]
    draws = _seeded_draws(det_idx, obj_idx, 2, opts)
    if draws is None:
        raise NoValidPose("no two correspondences differ in both detection and object")
    yield _two_pair_solutions(pairs, draws)[:2]


def _seeded_draws(det_idx, obj_idx, size, opts: RansacOptions):
    """The distinct admissible sets of ``size`` rows (2 or 3) among
    ``opts.iterations`` seeded draws uniform over them, as an array (m,
    size) in order of first draw; None when there is none.  Each is solved
    once: the solvers are deterministic, so a repeat would give poses
    already scored, which can neither beat the best nor rival it."""
    total, nth = _admissible_sets(det_idx, obj_idx, size)
    if not total:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(int(opts.seed)))
    return nth(np.array(list(dict.fromkeys(rng.integers(total, size=opts.iterations).tolist()))))


def _admissible_sets(d, o, size):
    """The count of the admissible sets of ``size`` rows (2 or 3) of n >= 1
    distinct rows of detections d and objects o (n,), those of distinct
    detections and distinct objects, and the map of ks (m,) to the k-th
    sets (m, size) in ``itertools.combinations`` order.  All is counted by
    inclusion-exclusion from the rows after each row of each detection and
    object, (n, D) and (n, O), with no list of the sets: a row's admissible
    later rows, and their pairs less those within one detection or object.
    A k's first row i comes from the counts per first row, a triple's second
    row from the pairs that start at each admissible later row of i, and
    the last row is the remaining k-th admissible later row of those chosen."""
    n, rows = len(d), np.arange(len(d))
    table = np.full((d.max() + 1, o.max() + 1), -1)
    table[d, o] = rows  # the row of each (detection, object), -1 for none
    one_d, one_o = np.eye(d.max() + 1, dtype=int)[d], np.eye(o.max() + 1, dtype=int)[o]
    after_d, after_o = (one[::-1].cumsum(0)[::-1] - one for one in (one_d, one_o))  # (n, D), (n, O)
    later = n - 1 - rows - after_d[rows, d] - after_o[rows, o]
    per = later
    if size == 3:
        by_d = after_d - (table[:, o].T > rows[:, None])
        by_o = after_o - (table[d] > rows[:, None])
        by_d[rows, d] = by_o[rows, o] = 0
        per = (later * (later - 1) - (by_d * (by_d - 1)).sum(1) - (by_o * (by_o - 1)).sum(1)) // 2

    def nth(ks):
        cum = np.cumsum(per)
        i = np.searchsorted(cum, ks, side="right")
        k = ks - cum[i] + per[i]
        i_d, i_o = d[i, None], o[i, None]
        ok = (rows > i[:, None]) & (d != i_d) & (o != i_o)  # (m, n): admissible later rows of i
        chosen = [i]
        if size == 3:
            starts = ok * (later - after_d[rows, i_d] - after_o[rows, i_o]
                           + (table[i_d, o] > rows) + (table[d, i_o] > rows))
            cum = np.cumsum(starts, axis=1)
            j = (cum <= k[:, None]).sum(1)
            k = k - (cum - starts)[np.arange(len(ks)), j]
            ok &= (rows > j[:, None]) & (d != d[j, None]) & (o != o[j, None])
            chosen.append(j)
        chosen.append((np.cumsum(ok, axis=1) <= k[:, None]).sum(1))
        return np.stack(chosen, axis=1)

    return per.sum(), nth


def _consensus(Rs, ts, pairs: _Pairs, threshold):
    """Inlier rows and mean inlier IoU of each of the n hypotheses (Rs
    (n,3,3), ts (n,3)) over the rows of the table: a list of n (inliers,
    score).

    All poses times all rows are projected in one kernel call; conics that
    are invalid or no real ellipse are skipped, and the rest are scored
    against M_det in one IoU call, in normalized coordinates: the pixel
    IoUs up to rounding (:func:`metrics._conic_ious`).  A pose's inliers,
    the rows with an IoU of at least ``threshold``, are kept and summed in
    row order.
    """
    N, _, valid, _ = _project_pairs(Rs, ts, pairs.Qd, pairs.center_w)
    hyp, idx = np.nonzero(valid & (_conic_areas(N) > 0.0))  # pose-major, rows in order
    ious = _conic_ious(N[hyp, idx], pairs.M_det[idx], _IOU_ROWS)
    inliers = [[] for _ in range(len(ts))]
    totals = [0.0] * len(ts)
    for h, i, iou in zip(hyp.tolist(), idx.tolist(), ious.tolist()):
        if iou >= threshold:
            inliers[h].append(i)
            totals[h] += iou
    return [(tuple(rows), total / len(rows) if rows else 0.0)
            for rows, total in zip(inliers, totals)]
