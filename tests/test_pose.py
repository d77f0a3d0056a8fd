import math
import time

import numpy as np
import pytest

from conftest import (
    axis_angle_to_matrix,
    grid_ellipse_iou,
    max_axis,
    pair_row,
    pairs_table,
    placed_and_refined,
    polish,
    projected_conic,
    random_ellipse,
    random_ellipsoid,
    random_rotation,
    reference_lm,
    reference_refine,
    rot2d,
    two_pair_pose,
)
from ellipose import pose as pose_module
from ellipose.errors import (
    AmbiguousSolution,
    DegenerateConfiguration,
    ElliposeError,
    NoValidPose,
)
from ellipose.geometry import (
    Conic,
    Ellipse,
    Ellipsoid,
    Pose,
    conic_to_ellipse,
    ellipse_to_conic,
    ellipsoid_to_dual_quadric,
    normalize_symmetric,
    project_ellipsoid,
    rotation_z,
    _project_pairs,
)
from ellipose.metrics import pose_errors, rotation_distance
from ellipose.pose import (
    EllipsoidCloud,
    PoseEstimate,
    RansacOptions,
    ransac_pose,
)
from ellipose.pose import (  # white-box kernels
    _DP_TRANSLATION,
    _IOU_GRID,
    _Pairs,
    _conic_areas,
    _conic_jacobians,
    _consensus,
    _draw_minimal_set,
    _levenberg_marquardt,
    _pairs,
    _pose_directions,
    _ray_placements,
    _rotations,
)
from ellipose.simulator import DEG, OrientationNoise, default_camera, look_at, perturb_orientation


def sized_ellipsoid(rng, center_scale=0.5, lo=0.05, hi=0.12):
    center = rng.uniform(-center_scale, center_scale, size=3)
    axes = np.sort(rng.uniform(lo, hi, size=3))[::-1]
    axes[0] *= 1.3
    return Ellipsoid(center, axes, random_rotation(rng))


def camera_near(rng, target, dist=2.0):
    az = rng.uniform(0, 2 * math.pi)
    el = rng.uniform(0.25, 1.1)
    pos = np.asarray(target) + dist * np.array(
        [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
    )
    return look_at(pos, target)


class TestPositionFromPair:
    def test_round_trip(self, rng):
        cam = default_camera()
        for _ in range(30):
            E = sized_ellipsoid(rng)
            pose = camera_near(rng, E.center + rng.uniform(-0.1, 0.1, 3))
            ell = project_ellipsoid(E, pose, cam)
            t = placed_and_refined(pair_row(ell, E), pose.R, cam)
            assert np.linalg.norm(t - pose.t) < 1e-6

    def test_tangent_cone_depth(self):
        # on-axis sphere: refined depth along the ray equals r / sin(alpha)
        cam = default_camera()
        E = Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))
        pose = Pose(np.eye(3), (0.0, 0.0, 2.5))
        ell = project_ellipsoid(E, pose, cam)
        t = placed_and_refined(pair_row(ell, E), pose.R, cam)
        # from the projected circle radius (pixels): tan(alpha) = a / f
        alpha = math.atan2(ell.axes[0], 500.0)
        assert np.linalg.norm(t) == pytest.approx(0.3 / math.sin(alpha), abs=1e-6)
        assert np.linalg.norm(t - pose.t) < 1e-6

    def test_impossible_detection_behind_camera(self):
        cam = default_camera()
        E = Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))
        # detection center outside the image and far larger than any valid
        # projection: the object would have to cross the principal plane
        ell = Ellipse((900.0, 700.0), (2500.0, 2200.0), 0.2)
        R = look_at((2.0, 0.0, 0.5), (8.0, 0.0, 0.0)).R  # pointing away
        corr = pair_row(ell, E)
        _, ok = _ray_placements(R[None], pairs_table([corr], cam.K), 0)
        assert not ok[0]
        cloud = EllipsoidCloud((("x", E),))
        with pytest.raises(NoValidPose):
            ransac_pose([("x", ell)], cloud, cam, RansacOptions(rotation=R))


class TestPairsTable:
    @staticmethod
    def _problem(rng):
        """Exact outlines of objects in front of a camera, and random
        ellipses (circles among them) paired with random ellipsoids."""
        cam = default_camera()
        pose = camera_near(rng, (0.0, 0.0, 0.0), dist=2.0)
        corrs = []
        for _ in range(12):
            E = sized_ellipsoid(rng, center_scale=0.3)
            corrs.append(pair_row(project_ellipsoid(E, pose, cam), E))
        for i in range(24):
            e = random_ellipse(rng, center_scale=300.0)
            if i % 4 == 0:
                e = Ellipse(e.center, (e.axes[0], e.axes[0]), e.angle)
            corrs.append(pair_row(e, random_ellipsoid(rng)))
        return cam, corrs

    @staticmethod
    def _scalar_formulas(c, K):
        """The dual quadric and the normalized detected conic, one matrix at a
        time from the definitions."""

        def unit(X):
            X = X / np.linalg.norm(X)
            upper = X[np.triu_indices(len(X))]
            return X * np.sign(upper[np.flatnonzero(np.abs(upper) > 1e-12)[0]])

        E, e = c.ellipsoid, c.ellipse
        Z = np.eye(4)
        Z[:3, :3], Z[:3, 3] = E.rotation, E.center
        R = rot2d(e.angle)
        A = R @ np.diag(1.0 / e.axes**2) @ R.T
        M = np.empty((3, 3))
        M[:2, :2], M[:2, 2], M[2, :2] = A, -A @ e.center, -A @ e.center
        M[2, 2] = e.center @ A @ e.center - 1.0
        return unit(Z @ np.diag([*E.axes**2, -1.0]) @ Z.T), unit(K.T @ unit(M) @ K)

    def test_rows_equal_per_correspondence_formulas(self, rng):
        cam, corrs = self._problem(rng)
        pairs = pairs_table(corrs, cam.K)
        fx, fy = cam.K[0, 0], cam.K[1, 1]
        for i, c in enumerate(corrs):
            M = normalize_symmetric(cam.K.T @ ellipse_to_conic(c.ellipse).M @ cam.K)
            h = np.linalg.solve(cam.K, np.array([*c.ellipse.center, 1.0]))
            close = {
                "Qd": ellipsoid_to_dual_quadric(c.ellipsoid).Q,
                "M_det": M,
                "ray_dir": h / np.linalg.norm(h),
                "area_det": _conic_areas(M),
            }
            for name, want in close.items():
                assert np.abs(getattr(pairs, name)[i] - want).max() <= 1e-15, name
            Qd, M_det = self._scalar_formulas(c, cam.K)
            assert np.abs(pairs.Qd[i] - Qd).max() <= 1e-15
            assert np.abs(pairs.M_det[i] - M_det).max() <= 1e-15
            a, b = c.ellipse.axes
            assert pairs.area_det[i] == pytest.approx(math.pi * a * b / (fx * fy), rel=1e-9)
            exact = {
                "center_w": c.ellipsoid.center,
                "axes": c.ellipsoid.axes,
                "rot_w": c.ellipsoid.rotation,
                "max_axis": max_axis(c.ellipsoid),
                "det_center": c.ellipse.center,
                "det_axes": c.ellipse.axes,
                "det_angle": c.ellipse.angle,
            }
            for name, want in exact.items():
                assert np.array_equal(getattr(pairs, name)[i], want), name
            assert set(close) | set(exact) == set(_Pairs._fields)

    def test_subset_table_is_rows_of_full_table(self, rng):
        # the polish reads its inliers' rows of the view's table, which are
        # the table those pairs would have alone
        cam, corrs = self._problem(rng)
        full = pairs_table(corrs, cam.K)
        subsets = [[3], [5, 0], [7, 7], list(range(len(corrs)))[::-3]]
        subsets += [rng.choice(len(corrs), size=k).tolist() for k in (2, 6, 17)]
        for idx in subsets:
            sub = pairs_table([corrs[i] for i in idx], cam.K)
            for name, rows, got in zip(_Pairs._fields, full, sub):
                assert rows[idx].shape == got.shape and rows[idx].tobytes() == got.tobytes(), name


    def test_view_table_rows_are_its_associations(self, rng, monkeypatch):
        # shared labels: each detection meets every object of its label,
        # detection-major, and is canonicalized once however many it meets
        cam = default_camera()
        cloud = EllipsoidCloud(tuple((label, sized_ellipsoid(rng)) for label in "abac"))
        dets = []
        for label in "bada":
            e = random_ellipse(rng, center_scale=300.0)
            dets.append((label, Ellipse(e.center, e.axes[::-1], e.angle + 0.5)))  # not canonical
        calls = []
        canonicalize = pose_module.canonicalize
        monkeypatch.setattr(pose_module, "canonicalize", lambda e: calls.append(e) or canonicalize(e))
        table, det_idx, obj_idx = _pairs(dets, cloud, cam.K)
        assert len(calls) == 3  # detections 0, 1 and 3
        assert list(zip(det_idx.tolist(), obj_idx.tolist())) == [(0, 1), (1, 0), (1, 2),
                                                                 (3, 0), (3, 2)]
        rows = [pair_row(dets[d][1], cloud.entries[o][1]) for d, o in zip(det_idx, obj_idx)]
        for name, got, want in zip(_Pairs._fields, table, pairs_table(rows, cam.K)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert _pairs(dets, EllipsoidCloud((("c", cloud.entries[3][1]),)), cam.K)[0] is None


class TestConicKernels:
    @staticmethod
    def _stack(rng):
        """Three pairs seen from a stack of eight poses: six near a common
        view, one looking away (every pair behind the camera) and one with
        the camera center on the first ellipsoid's surface (degenerate for
        that pair)."""
        cam = default_camera()
        objs = [sized_ellipsoid(rng, center_scale=0.3) for _ in range(3)]
        poses = [camera_near(rng, (0.0, 0.0, 0.0), dist=2.0) for _ in range(6)]
        pairs = pairs_table(
            [pair_row(project_ellipsoid(E, poses[0], cam), E) for E in objs], cam.K
        )
        center = -poses[1].R.T @ poses[1].t
        poses.append(look_at(center, 2.0 * center))
        E = objs[0]
        on_surface = E.center + E.rotation @ np.array([E.axes[0], 0.0, 0.0])
        poses.append(look_at(on_surface, E.center + 0.05))
        Rs = np.array([p.R for p in poses])
        ts = np.array([p.t for p in poses])
        assert (Rs[7, 2] @ E.center + ts[7, 2]) > 0.0  # in front: degenerate, not behind
        return pairs, Rs, ts

    @staticmethod
    def _central_difference(fun, X, h=1e-6):
        cols = []
        for k in range(X.shape[1]):
            step = np.zeros(X.shape[1])
            step[k] = h
            cols.append((fun(X + step) - fun(X - step)) / (2.0 * h))
        return np.stack(cols, axis=-1)

    @staticmethod
    def _assert_matches(J, Jn, valid):
        m, k = valid.shape
        J = J.reshape(m, k, 9, -1)
        for i, j in zip(*np.nonzero(valid)):
            assert np.abs(J[i, j] - Jn[i, j]).max() <= 1e-6 * np.abs(Jn[i, j]).max()
        assert np.isnan(J[~valid]).all()

    @pytest.mark.parametrize("w_scale", [0.2, 1e-10])
    def test_pose_jacobian_matches_central_differences(self, rng, w_scale):
        # w_scale 1e-10 exercises the small-angle branch of the left Jacobian
        for _ in range(4):
            pairs, R0, t0 = self._stack(rng)
            stacks = pairs.Qd, pairs.center_w
            W = rng.normal(size=(len(R0), 3))
            W *= w_scale / np.linalg.norm(W, axis=1, keepdims=True)
            X = np.concatenate([W, rng.normal(scale=0.02, size=(len(R0), 3))], axis=1)
            X[7] = 0.0  # keeps the camera center on the surface

            def pose_at(X):
                return np.einsum("mij,mjk->mik", _rotations(X[:, :3]), R0), t0 + X[:, 3:]

            def fun(X):
                return _project_pairs(*pose_at(X), *stacks)[0].reshape(len(X), len(pairs.Qd), 9)

            R, t = pose_at(X)
            _, _, valid, terms = _project_pairs(R, t, *stacks)
            J = _conic_jacobians(terms, _pose_directions(X[:, :3], R))
            assert J.shape == (8, 27, 6)
            assert not valid[6].any() and not valid[7, 0] and valid[:6].all()
            self._assert_matches(J, self._central_difference(fun, X), valid)

    def test_translation_jacobian_matches_central_differences(self, rng):
        for _ in range(4):
            pairs, R, t0 = self._stack(rng)
            stacks = pairs.Qd, pairs.center_w
            t = t0 + rng.normal(scale=0.02, size=t0.shape)
            t[7] = t0[7]  # keeps the camera center on the surface

            def fun(t):
                return _project_pairs(R, t, *stacks)[0].reshape(len(t), len(pairs.Qd), 9)

            _, _, valid, terms = _project_pairs(R, t, *stacks)
            J = _conic_jacobians(terms, np.broadcast_to(_DP_TRANSLATION, (len(t), 3, 3, 4)))
            assert J.shape == (8, 27, 3)
            assert not valid[6].any() and not valid[7, 0] and valid[:6].all()
            self._assert_matches(J, self._central_difference(fun, t), valid)

    def test_batched_projection_matches_scalar(self, rng):
        cam = default_camera()
        E = sized_ellipsoid(rng)
        pose = camera_near(rng, E.center + rng.uniform(-0.1, 0.1, 3))
        pairs = pairs_table([pair_row(project_ellipsoid(E, pose, cam), E)], cam.K)
        Rs = np.array([random_rotation(rng) for _ in range(300)])
        ts = rng.normal(scale=2.0, size=(300, 3))
        Rs[:100] = pose.R  # near the true pose: mostly valid
        ts[:100] = pose.t + rng.normal(scale=0.05, size=(100, 3))
        N, _, valid, _ = _project_pairs(Rs, ts, pairs.Qd, pairs.center_w)
        depth = Rs[:, 2] @ pairs.center_w[0] + ts[:, 2]
        assert (depth <= 0.0).sum() > 50 and valid.sum() > 100
        for R, t, Ni, ok in zip(Rs, ts, N[:, 0], valid[:, 0]):
            M = projected_conic(R, t, pairs, 0)
            assert (M is not None) == ok
            if ok:
                assert np.abs(M - Ni).max() <= 1e-12
            else:
                assert np.isnan(Ni).all()


class TestPoseFromTwoPairs:
    def test_round_trip(self, rng):
        cam = default_camera()
        for _ in range(10):
            E1 = sized_ellipsoid(rng)
            E2 = sized_ellipsoid(rng)
            while np.linalg.norm(E1.center - E2.center) < 0.3:
                E2 = sized_ellipsoid(rng)
            pose = camera_near(rng, 0.5 * (E1.center + E2.center), dist=2.2)
            c1 = pair_row(project_ellipsoid(E1, pose, cam), E1)
            c2 = pair_row(project_ellipsoid(E2, pose, cam), E2)
            est = two_pair_pose(c1, c2, cam)
            rot, pos = pose_errors(est, pose)
            assert rot < 1e-4 and pos < 1e-4

    def test_coincident_centers_rejected(self, rng):
        cam = default_camera()
        E = sized_ellipsoid(rng)
        pose = camera_near(rng, E.center)
        ell = project_ellipsoid(E, pose, cam)
        c = pair_row(ell, E)
        with pytest.raises(DegenerateConfiguration):
            two_pair_pose(c, c, cam)

    def test_two_spheres_axially_ambiguous(self):
        # two spheres share a rotational symmetry about the line joining
        # their centers: the pose is only defined up to that rotation
        cam = default_camera()
        E1 = Ellipsoid((0.4, 0.0, 0.0), (0.1, 0.1, 0.1), np.eye(3))
        E2 = Ellipsoid((-0.4, 0.0, 0.0), (0.15, 0.15, 0.15), np.eye(3))
        pose = look_at((1.2, 1.5, 1.0), (0.0, 0.0, 0.0))
        c1 = pair_row(project_ellipsoid(E1, pose, cam), E1)
        c2 = pair_row(project_ellipsoid(E2, pose, cam), E2)
        with pytest.raises(AmbiguousSolution) as ei:
            two_pair_pose(c1, c2, cam)
        assert len(ei.value.candidates) == 2


def noisy_two_pair_problem(rng):
    """Two correspondences with box-like shape noise on the detections, so
    the two-pair refinements take real steps."""
    cam = default_camera()
    E1, E2 = sized_ellipsoid(rng), sized_ellipsoid(rng)
    while np.linalg.norm(E1.center - E2.center) < 0.3:
        E2 = sized_ellipsoid(rng)
    truth = camera_near(rng, 0.5 * (E1.center + E2.center), dist=2.2)
    corrs = []
    for E in (E1, E2):
        e = project_ellipsoid(E, truth, cam)
        e = Ellipse(e.center + rng.normal(scale=2.0, size=2),
                    e.axes * rng.uniform(0.9, 1.1, 2), e.angle)
        corrs.append(pair_row(e, E))
    return corrs, cam


def reference_best_pose(stage_b_starts, pairs):
    """Stages B and C and the clustering of the two-pair solver,
    each candidate refined alone by the scalar reference LM."""
    R0, t0 = stage_b_starts
    stage_b = sorted(
        ((costs[-1], R, t) for R, t, costs, *_ in
         (reference_refine(R, t, pairs, max_iter=8) for R, t in zip(R0, t0))),
        key=lambda s: s[0])
    stage_c = sorted(
        ((costs[-1], R, t) for R, t, costs, *_ in
         (reference_refine(R, t, pairs, max_iter=60) for _, R, t in stage_b[:6])),
        key=lambda s: s[0])
    clusters = []
    for cost, R, t in stage_c:
        if all(rotation_distance(R, cR) + np.linalg.norm(t - ct) / (1.0 + np.linalg.norm(ct))
               >= 0.05 for _, cR, ct in clusters):
            clusters.append((cost, R, t))
    assert len(clusters) == 1 or clusters[1][0] - clusters[0][0] > 0.01 * clusters[0][0] + 1e-10
    return clusters[0][1], clusters[0][2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lockstep_lm_matches_one_candidate_reference(monkeypatch, seed):
    # every stage-B and stage-C candidate of the lockstep LM takes the
    # steps the one-candidate scalar reference takes from the same start
    corrs, cam = noisy_two_pair_problem(np.random.default_rng(seed))
    calls = []
    refine = pose_module._refine_raw

    def recording(R0, t0, pairs, rows, **kwargs):
        res, poses = refine(R0, t0, pairs, rows, **kwargs)
        assert (rows == [0, 1]).all()  # the one draw fits both rows of its table
        calls.append((R0, t0, pairs, kwargs, res))
        return res, poses

    monkeypatch.setattr(pose_module, "_refine_raw", recording)
    got = two_pair_pose(*corrs, cam)
    assert [c[3]["max_iter"] for c in calls] == [8, 60]
    assert len(calls[0][0]) == 24 and len(calls[1][0]) == 6
    steps = 0
    for R0, t0, pairs, kwargs, res in calls:
        for i in range(len(R0)):
            _, _, costs, converged, _ = reference_refine(R0[i], t0[i], pairs, **kwargs)
            assert len(res.costs[i]) == len(costs)
            assert res.costs[i][-1] == pytest.approx(costs[-1], rel=1e-9, abs=0.0)
            assert res.converged[i] == converged
            steps += len(costs) - 1
    assert steps > 24  # the candidates move
    R, t = reference_best_pose(calls[0][:2], calls[0][2])
    assert np.abs(got.R - R).max() <= 1e-9 and np.abs(got.t - t).max() <= 1e-9


def two_pair_outcome(solution):
    """A two-pair solution, a pose or an ElliposeError, as bytes: its kind
    and the poses it gives (an AmbiguousSolution's two candidates)."""
    if isinstance(solution, AmbiguousSolution):
        poses = solution.candidates
    else:
        poses = [] if isinstance(solution, ElliposeError) else [solution]
    return type(solution).__name__, [(p.R.tobytes(), p.t.tobytes()) for p in poses]


def test_two_pair_draws_solved_together_as_alone():
    # one table of two noisy two-pair problems, the two-sphere problem and
    # a row on the first object again; each draw's result is what solving
    # its two correspondences alone gives, whatever the other draws
    cam = default_camera()
    corrs = []
    for seed in (0, 2):
        corrs += noisy_two_pair_problem(np.random.default_rng(seed))[0]
    spheres = (Ellipsoid((0.4, 0.0, 0.0), (0.1, 0.1, 0.1), np.eye(3)),
               Ellipsoid((-0.4, 0.0, 0.0), (0.15, 0.15, 0.15), np.eye(3)))
    sphere_pose = look_at((1.2, 1.5, 1.0), (0.0, 0.0, 0.0))
    corrs += [pair_row(project_ellipsoid(E, sphere_pose, cam), E) for E in spheres]
    corrs.append(pair_row(corrs[1].ellipse, corrs[0].ellipsoid))
    draws = [(0, 1), (4, 5), (2, 3), (0, 6), (1, 0), (3, 2), (5, 4)]
    pairs = pairs_table(corrs, cam.K)

    def together(draws):
        return [two_pair_outcome(s) for s in pose_module._two_pair_solutions(pairs, draws)]

    alone = []
    for i, j in draws:
        try:
            alone.append(two_pair_outcome(two_pair_pose(corrs[i], corrs[j], cam)))
        except ElliposeError as exc:
            alone.append(two_pair_outcome(exc))
    assert [kind for kind, _ in alone] == ["Pose", "AmbiguousSolution", "Pose",
                                          "DegenerateConfiguration", "Pose", "Pose",
                                          "AmbiguousSolution"]
    assert together(draws) == alone
    assert together(draws[::-1]) == alone[::-1]
    assert together(draws[:3]) + together(draws[3:]) == alone


@pytest.mark.parametrize("rotation_fixed", [False, True])
def test_polish_matches_one_candidate_reference(rotation_fixed):
    # the polish (n = 1) against the reference; noisy detections make both
    # reject uphill trials
    rng = np.random.default_rng(7)
    cam = default_camera()
    cloud = board_scene(rng)
    uphill = 0
    for _ in range(6):
        truth = camera_near(rng, (0, 0, 0), dist=1.8)
        corrs = []
        for _, E in cloud.entries:
            e = project_ellipsoid(E, truth, cam)
            e = Ellipse(e.center + rng.normal(scale=6.0, size=2),
                        e.axes * rng.uniform(0.7, 1.3, 2), e.angle)
            corrs.append(pair_row(e, E))
        pairs = pairs_table(corrs, cam.K)
        R0 = axis_angle_to_matrix(rng.normal(scale=0.03, size=3)) @ truth.R
        t0 = truth.t + rng.normal(scale=0.03, size=3)
        res, (R, t) = pose_module._refine_raw(R0[None], t0[None], pairs,
                                             np.arange(len(corrs))[None],
                                             rotation_fixed=rotation_fixed)
        R_ref, t_ref, costs, converged, uphill_ref = reference_refine(
            R0, t0, pairs, rotation_fixed=rotation_fixed)
        assert len(res.costs[0]) == len(costs) > 1 and res.converged[0] == converged
        assert res.costs[0][-1] == pytest.approx(costs[-1], rel=1e-9, abs=0.0)
        assert np.abs(R[0] - R_ref).max() <= 1e-9 and np.abs(t[0] - t_ref).max() <= 1e-9
        assert res.uphill[0] == uphill_ref
        uphill += uphill_ref
    assert uphill > 0


def test_lockstep_candidates_stop_alone(monkeypatch):
    # Rosenbrock residuals from four starts.  Candidate 0's Jacobian is NaN
    # and the solver stub reports its damped system singular at every
    # damping; candidate 1's Jacobian has the wrong sign, so no damping
    # level gives a downhill step.  Both stop on their own, and candidates
    # 2 and 3 take the steps they take alone and under the reference LM.
    solve = np.linalg.solve

    def singular_on_nan(a, b):
        if np.isnan(a).any():
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_on_nan)

    def residual(X):
        return np.stack([X[:, 0] - 1.0, 10.0 * (X[:, 1] - X[:, 0] ** 2)], axis=1)

    def fun(idx, X):
        return residual(X), np.ones(len(X), bool), ()

    def jac(idx, X, state, offset=0):
        cands = np.arange(4)[idx] + offset
        J = np.zeros((len(X), 2, 2))
        J[:, 0, 0], J[:, 1, 0], J[:, 1, 1] = 1.0, -20.0 * X[:, 0], 10.0
        J[cands == 0] = np.nan
        J[cands == 1] *= -1.0
        return J

    x0 = np.array([[-1.2, 1.0], [0.5, -0.5], [-1.2, 1.0], [2.0, 2.5]])
    res = _levenberg_marquardt(fun, jac, x0)
    assert res.stop[:2] == ["no descent", "no descent"]
    assert len(res.costs[0]) == len(res.costs[1]) == 1
    assert res.invalid[0] == res.uphill[0] == 0  # never got a step to try
    assert res.uphill[1] > 10 and not res.converged[:2].any()
    for i in (2, 3):
        alone = _levenberg_marquardt(fun, lambda idx, X, s: jac(slice(0, 1), X, s, i),
                                     x0[i:i + 1])
        assert alone.costs[0] == res.costs[i] and alone.stop[0] == res.stop[i]
        assert alone.x[0].tobytes() == res.x[i].tobytes()
        x, costs, converged, _ = reference_lm(lambda x: residual(x[None])[0], x0[i],
                                              lambda x: jac(slice(0, 1), x[None], (), i)[0])
        assert len(costs) == len(res.costs[i]) > 5 and converged == res.converged[i]
        assert np.abs(x - res.x[i]).max() <= 1e-9
    assert res.converged[2:].all()


class TestRefinePose:
    def _scene(self, rng, n=4):
        cam = default_camera()
        objs = [sized_ellipsoid(rng, center_scale=0.4) for _ in range(n)]
        pose = camera_near(rng, (0.0, 0.0, 0.0), dist=2.0)
        corrs = [pair_row(project_ellipsoid(E, pose, cam), E) for E in objs]
        return cam, pose, corrs

    def test_stationary_at_ground_truth(self, rng):
        cam, pose, corrs = self._scene(rng)
        out = polish(pose, corrs, cam)
        assert out.converged
        rot, pos = pose_errors(out.pose, pose)
        assert rot < 1e-10 and pos < 1e-10

    def test_recovers_from_perturbation(self, rng):
        cam, pose, corrs = self._scene(rng, n=4)
        R0 = rotation_z(2.0 * DEG) @ pose.R
        p0 = Pose(R0, pose.t + np.array([0.02, -0.01, 0.015]))
        out = polish(p0, corrs, cam)
        rot, pos = pose_errors(out.pose, pose)
        assert rot < 1e-5 and pos < 1e-5

    def test_costs_monotone(self, rng):
        cam, pose, corrs = self._scene(rng, n=3)
        p0 = Pose(rotation_z(3.0 * DEG) @ pose.R, pose.t + 0.03)
        out = polish(p0, corrs, cam)
        assert all(a >= b for a, b in zip(out.costs, out.costs[1:]))

    def test_single_correspondence_cost_decreases(self, rng):
        cam, pose, corrs = self._scene(rng, n=1)
        p0 = Pose(rotation_z(2.0 * DEG) @ pose.R, pose.t + 0.02)
        out = polish(p0, corrs, cam)
        assert out.costs[-1] < out.costs[0]

    def test_empty_rejected(self, rng, monkeypatch):
        # a view without a label-matched pair is refused before any LM,
        # in both modes
        cam, pose, corrs = self._scene(rng, n=1)
        cloud = EllipsoidCloud((("o0", corrs[0].ellipsoid),))

        def no_lm(*args, **kwargs):
            raise AssertionError("the LM ran without a correspondence")

        monkeypatch.setattr(pose_module, "_levenberg_marquardt", no_lm)
        for dets in ([], [("other", corrs[0].ellipse)]):
            for opts in (RansacOptions(rotation=pose.R), RansacOptions(mode="full")):
                with pytest.raises(NoValidPose, match="0 correspondences"):
                    ransac_pose(dets, cloud, cam, opts)


def reference_consensus(pose, cam, corrs, pairs, threshold, outcomes):
    """Per-pair consensus: scalar projection, Conic, conic_to_ellipse and
    the full grid IoU; ``outcomes`` counts what happened to each pair."""
    Kinv = np.linalg.inv(cam.K)
    inliers, total = [], 0.0
    for i, corr in enumerate(corrs):
        M = projected_conic(pose.R, pose.t, pairs, i)
        if M is None:
            outcomes["no conic"] += 1
            continue
        try:
            proj = conic_to_ellipse(Conic(Kinv.T @ M @ Kinv))
        except ElliposeError:
            outcomes["not an ellipse"] += 1
            continue
        iou = grid_ellipse_iou(corr.ellipse, proj, _IOU_GRID)
        if iou >= threshold:
            outcomes["inlier"] += 1
            inliers.append(i)
            total += iou
        else:
            outcomes["outlier"] += 1
    return tuple(inliers), total / len(inliers) if inliers else 0.0


def test_consensus_equals_per_pair_reference(rng):
    # objects in front of, across and behind the principal plane of the
    # true camera; hypotheses near it and far from it
    cam = default_camera()
    outcomes = dict.fromkeys(["no conic", "not an ellipse", "inlier", "outlier"], 0)
    for trial in range(25):
        truth = Pose(random_rotation(rng), rng.normal(size=3))
        corrs = []
        for depth in (-0.6, -0.05, 0.0, 0.06, 0.4, 1.0, 1.5, 2.5):
            p_cam = np.array([*rng.uniform(-0.3, 0.3, 2) * max(depth, 0.5), depth])
            E = Ellipsoid(truth.R.T @ (p_cam - truth.t), rng.uniform(0.05, 0.2, 3),
                          random_rotation(rng))
            try:
                det = project_ellipsoid(E, truth, cam)
            except ElliposeError:
                det = Ellipse(rng.uniform(0, 600, 2), (30.0, 10.0), rng.uniform(-1, 1))
            det = Ellipse(det.center + rng.normal(scale=3.0, size=2),
                          det.axes * rng.uniform(0.8, 1.25, 2), det.angle)
            corrs.append(pair_row(det, E))
        pairs = pairs_table(corrs, cam.K)
        for step in (0.0, 0.02, 0.3):
            w = rng.normal(scale=step, size=3)
            hyp = Pose(axis_angle_to_matrix(w) @ truth.R, truth.t + rng.normal(scale=step, size=3))
            want = reference_consensus(hyp, cam, corrs, pairs, 0.5, outcomes)
            assert _consensus(hyp, pairs, cam.K, 0.5) == want
    assert min(outcomes.values()) > 0, outcomes


def enumerate_associations(detections, cloud):
    """The (detection, object) index of every row of the solver's table."""
    _, det_idx, obj_idx = _pairs(detections, cloud, default_camera().K)
    return list(zip(det_idx.tolist(), obj_idx.tolist()))


class TestAssociations:
    def _cloud(self, rng, labels):
        return EllipsoidCloud(tuple((l, sized_ellipsoid(rng)) for l in labels))

    def test_one_to_one(self, rng):
        cloud = self._cloud(rng, ["a"])
        dets = [("a", Ellipse((0, 0), (2, 1), 0.0))]
        assert len(enumerate_associations(dets, cloud)) == 1

    def test_two_by_two(self, rng):
        cloud = self._cloud(rng, ["duck", "duck"])
        e = Ellipse((0, 0), (2, 1), 0.0)
        dets = [("duck", e), ("duck", e)]
        assert enumerate_associations(dets, cloud) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_unknown_label_ignored(self, rng):
        cloud = self._cloud(rng, ["a"])
        dets = [("b", Ellipse((0, 0), (2, 1), 0.0))]
        assert enumerate_associations(dets, cloud) == []


def board_scene(rng, n=6):
    objs = []
    for i in range(n):
        az = 2 * math.pi * i / n
        center = np.array([0.25 * math.cos(az), 0.25 * math.sin(az), 0.05])
        axes = np.sort(rng.uniform(0.04, 0.1, size=3))[::-1]
        objs.append((f"obj{i}", Ellipsoid(center, axes, random_rotation(rng))))
    return EllipsoidCloud(tuple(objs))


class TestRansac:
    def test_known_orientation_with_noise(self, rng):
        cam = default_camera()
        cloud = board_scene(rng)
        pose = camera_near(rng, (0, 0, 0), dist=1.8)
        dets = [
            (l, project_ellipsoid(E, pose, cam)) for l, E in cloud.entries
        ]
        R_noisy = perturb_orientation(pose.R, OrientationNoise(2.0 * DEG), rng)
        opts = RansacOptions(
            mode="orientation_known", rotation=R_noisy, iterations=10,
            inlier_iou_threshold=0.75, seed=4,
        )
        est = ransac_pose(dets, cloud, cam, opts)
        assert len(est.inliers) == 6
        _, pos = pose_errors(est.pose, pose)
        assert pos < 0.02  # far below the object scale

    def test_outlier_rejection(self, rng):
        cam = default_camera()
        cloud = board_scene(rng)
        pose = camera_near(rng, (0, 0, 0), dist=1.8)
        dets = []
        for i, (l, E) in enumerate(cloud.entries):
            e = project_ellipsoid(E, pose, cam)
            if i < 2:  # swap labels of the first two detections
                l = cloud.entries[1 - i][0]
            dets.append((l, e))
        opts = RansacOptions(
            mode="orientation_known", rotation=pose.R, iterations=24, seed=9,
        )
        est = ransac_pose(dets, cloud, cam, opts)
        rot, pos = pose_errors(est.pose, pose)
        assert pos < 1e-4
        assert len(est.inliers) == 4
        labels = [l for l, _ in dets]
        assert all(labels[i] == f"obj{i}" for i in est.inliers)

    def test_full_mode(self, rng):
        cam = default_camera()
        cloud = board_scene(rng, n=4)
        pose = camera_near(rng, (0, 0, 0), dist=2.0)
        dets = [(l, project_ellipsoid(E, pose, cam)) for l, E in cloud.entries]
        opts = RansacOptions(mode="full", iterations=6, seed=3)
        est = ransac_pose(dets, cloud, cam, opts)
        rot, pos = pose_errors(est.pose, pose)
        assert rot < 1e-4 and pos < 1e-4
        assert len(est.inliers) == 4

    def test_zero_correspondences(self, rng):
        cam = default_camera()
        cloud = board_scene(rng)
        with pytest.raises(NoValidPose):
            ransac_pose([], cloud, cam, RansacOptions(rotation=np.eye(3)))

    def test_deterministic(self, rng):
        cam = default_camera()
        cloud = board_scene(rng)
        pose = camera_near(rng, (0, 0, 0), dist=1.8)
        dets = [(l, project_ellipsoid(E, pose, cam)) for l, E in cloud.entries]
        opts = RansacOptions(mode="orientation_known", rotation=pose.R, iterations=8, seed=11)
        a = ransac_pose(dets, cloud, cam, opts)
        b = ransac_pose(dets, cloud, cam, opts)
        assert repr(a.pose.R.tolist()) == repr(b.pose.R.tolist())
        assert repr(a.pose.t.tolist()) == repr(b.pose.t.tolist())
        assert a.inliers == b.inliers and a.score == b.score

    def test_consensus_with_half_outliers(self, rng):
        # every row is placed, so the 3 true correspondences are hypotheses
        cam = default_camera()
        n_trials, hits = 20, 0
        for trial in range(n_trials):
            cloud = board_scene(rng)
            pose = camera_near(rng, (0, 0, 0), dist=1.8)
            dets = []
            for i, (l, E) in enumerate(cloud.entries):
                e = project_ellipsoid(E, pose, cam)
                if i % 2 == 1:  # 3 of 6 labels corrupted
                    l = cloud.entries[(i + 1) % 6][0]
                dets.append((l, e))
            est = ransac_pose(
                dets, cloud, cam, RansacOptions(mode="orientation_known", rotation=pose.R)
            )
            _, pos = pose_errors(est.pose, pose)
            hits += pos < 1e-3
        assert hits >= 19


def reference_ransac(detections, cloud, cam, opts):
    """RANSAC that pairs every detection with every object of its label,
    detection-major, and, with the orientation known, places and scores
    every row in row order and, in full mode, solves each draw alone and
    scores every draw, repeats included; then it polishes the best
    hypothesis as :func:`ransac_pose` does.  Returns the estimate and the
    list of minimal sets."""
    assoc = [(pair_row(e, E), d, o) for d, (label, e) in enumerate(detections)
             for o, (obj_label, E) in enumerate(cloud.entries) if obj_label == label]
    corrs = [c for c, _, _ in assoc]
    det_idx, obj_idx = (np.array([a[k] for a in assoc]) for k in (1, 2))
    min_set = 1 if opts.mode == "orientation_known" else 2
    pairs = pairs_table(corrs, cam.K)
    threshold = opts.inlier_iou_threshold
    if min_set == 1:
        draws = [(i,) for i in range(len(corrs))]
    else:
        rng = np.random.default_rng(np.random.SeedSequence(int(opts.seed)))
        draws = [_draw_minimal_set(rng, det_idx, obj_idx) for _ in range(opts.iterations)]
    best, scored = None, []
    for draw_idx, sample in enumerate(draws):
        if sample is None:
            continue
        try:
            if min_set == 1:
                ts, ok = _ray_placements(opts.rotation[None], pairs, sample[0])
                hypotheses = [Pose(opts.rotation, ts[0])] if ok[0] else []
            else:
                hypotheses = [two_pair_pose(corrs[sample[0]], corrs[sample[1]], cam)]
        except AmbiguousSolution as exc:
            hypotheses = list(exc.candidates)
        except ElliposeError:
            continue
        for hyp in hypotheses:
            inliers, score = _consensus(hyp, pairs, cam.K, threshold)
            key = (len(inliers), score, -draw_idx)
            if len(inliers) >= min_set:
                scored.append((key, hyp))
                if best is None or key > best[0]:
                    best = (key, hyp, inliers)
    (count, score, _), pose, inliers = best
    rivals = [h for (n, s, _), h in scored if (n, s) == (count, score) and not (
        rotation_distance(h.R, pose.R) + np.linalg.norm(h.t - pose.t) / (
            1.0 + np.linalg.norm(pose.t)) < 0.05)]
    if rivals:
        raise AmbiguousSolution("tie", candidates=(pose, rivals[0]))
    for _ in range(4):
        rotation_fixed = not opts.refine_orientation or len(inliers) < 2
        refined = polish(pose, [corrs[i] for i in inliers], cam, rotation_fixed=rotation_fixed)
        inliers2, score2 = _consensus(refined.pose, pairs, cam.K, threshold)
        if (len(inliers2), score2) < (len(inliers), score):
            break
        grew = len(inliers2) > len(inliers)
        pose, inliers, score = refined.pose, inliers2, score2
        if not grew:
            break
    return PoseEstimate(pose, inliers, score), draws


def ransac_problem(rng, mode, seed):
    """Board detections with box-like shape noise and, in orientation-known
    mode, two swapped labels and a noisy rotation; 20 draws."""
    cam = default_camera()
    cloud = board_scene(rng, n=6 if mode == "orientation_known" else 4)
    truth = camera_near(rng, (0, 0, 0), dist=1.8)
    dets = []
    for i, (label, E) in enumerate(cloud.entries):
        e = project_ellipsoid(E, truth, cam)
        e = Ellipse(e.center + rng.normal(scale=2.0, size=2), e.axes * rng.uniform(0.9, 1.1, 2),
                    e.angle)
        if mode == "orientation_known" and i < 2:
            label = cloud.entries[1 - i][0]
        dets.append((label, e))
    rotation = perturb_orientation(truth.R, OrientationNoise(2.0 * DEG), rng)
    opts = RansacOptions(mode=mode, iterations=20, inlier_iou_threshold=0.5, seed=seed,
                         rotation=rotation if mode == "orientation_known" else None)
    return dets, cloud, cam, opts


def assert_same_estimate(got, want):
    assert got.pose.R.tobytes() == want.pose.R.tobytes()
    assert got.pose.t.tobytes() == want.pose.t.tobytes()
    assert got.inliers == want.inliers and got.score == want.score


@pytest.mark.parametrize("mode, seed", [("orientation_known", 2), ("full", 5)])
def test_ransac_equals_solving_every_draw(rng, mode, seed):
    # with the orientation known, the reference's draws are the rows in order
    dets, cloud, cam, opts = ransac_problem(rng, mode, seed)
    want, draws = reference_ransac(dets, cloud, cam, opts)
    if mode == "full":
        assert len(set(draws)) < len(draws)  # the draws repeat
    assert_same_estimate(ransac_pose(dets, cloud, cam, opts), want)


def test_known_mode_ignores_seed_and_iterations(rng):
    dets, cloud, cam, opts = ransac_problem(rng, "orientation_known", seed=2)
    want = ransac_pose(dets, cloud, cam, opts)
    for seed, iterations in ((0, 1), (7, 3), (2, 40)):
        other = RansacOptions(mode=opts.mode, iterations=iterations, seed=seed,
                              inlier_iou_threshold=opts.inlier_iou_threshold,
                              rotation=opts.rotation)
        assert_same_estimate(ransac_pose(dets, cloud, cam, other), want)


@pytest.mark.parametrize(
    "mode, solver", [("orientation_known", "_ray_placements"), ("full", "_two_pair_solutions")]
)
def test_ransac_solves_each_distinct_draw_once(rng, monkeypatch, mode, solver):
    dets, cloud, cam, opts = ransac_problem(rng, mode, seed=3)
    _, draws = reference_ransac(dets, cloud, cam, opts)
    distinct = set(draws) - {None}
    calls = []
    wrapped = getattr(pose_module, solver)

    def counting(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    lm_runs = []
    lm = pose_module._levenberg_marquardt

    def recording(fun, jac, x0, **kwargs):
        lm_runs.append(kwargs.get("max_iter"))
        return lm(fun, jac, x0, **kwargs)

    monkeypatch.setattr(pose_module, solver, counting)
    monkeypatch.setattr(pose_module, "_levenberg_marquardt", recording)
    ransac_pose(dets, cloud, cam, opts)
    if mode == "full":  # one call for the view, each distinct draw once
        assert len(calls) == 1
        solved = list(calls[0][1])
        assert len(solved) == len(distinct) < opts.iterations and set(solved) == distinct
        # one stage-B and one stage-C LM for all the draws, then the polish
        assert lm_runs[:2] == [8, 60] and set(lm_runs[2:]) == {50}
    else:  # once per row, in row order
        assert len(calls) == len(distinct)
        assert [i for _, _, i in calls] == list(range(len(dets)))


def test_full_mode_two_spheres_tie_is_ambiguous():
    # two spheres fix the pose only up to the turn about the line through
    # their centers: two distinct hypotheses tie on both inliers at IoU 1,
    # and the solver names the tie instead of returning the first of them
    cam = default_camera()
    cloud = EllipsoidCloud((("a", Ellipsoid((0.4, 0.0, 0.0), (0.1, 0.1, 0.1), np.eye(3))),
                            ("b", Ellipsoid((-0.4, 0.0, 0.0), (0.15, 0.15, 0.15), np.eye(3)))))
    truth = look_at((1.2, 1.5, 1.0), (0.0, 0.0, 0.0))
    dets = [(label, project_ellipsoid(E, truth, cam)) for label, E in cloud.entries]
    opts = RansacOptions(mode="full", iterations=8, seed=0)
    with pytest.raises(AmbiguousSolution) as got:
        ransac_pose(dets, cloud, cam, opts)
    with pytest.raises(AmbiguousSolution) as want:
        reference_ransac(dets, cloud, cam, opts)
    assert two_pair_outcome(got.value) == two_pair_outcome(want.value)
    pairs, _, _ = _pairs(dets, cloud, cam.K)
    a, b = got.value.candidates
    assert _consensus(a, pairs, cam.K, 0.75) == _consensus(b, pairs, cam.K, 0.75) == ((0, 1), 1.0)
    assert rotation_distance(a.R, b.R) > 0.05


@pytest.mark.parametrize("seed", [1, 8])
def test_one_label_full_mode_contract(monkeypatch, seed):
    # 4 detections x 4 objects of one label: 16 correspondences, 4 of them
    # true; seed 1 draws a minimal set whose two-pair refinement once met a
    # projection degenerate to rounding, seed 8 draws no all-true minimal set
    rng = np.random.default_rng(seed)
    objs = []
    for i in range(4):
        az = 0.5 * math.pi * i
        center = np.array([0.25 * math.cos(az), 0.25 * math.sin(az), 0.05])
        axes = np.sort(rng.uniform(0.04, 0.1, size=3))[::-1]
        objs.append(("part", Ellipsoid(center, axes, random_rotation(rng))))
    cloud = EllipsoidCloud(tuple(objs))
    cam = default_camera()
    truth = look_at((1.2, 0.9, 1.3), (0.0, 0.0, 0.0))
    dets = [(label, project_ellipsoid(E, truth, cam)) for label, E in cloud.entries]
    _, det_idx, obj_idx = _pairs(dets, cloud, cam.K)
    assert len(det_idx) == 16
    sets = []
    solve = pose_module._two_pair_solutions

    def recording(pairs, draws):
        sets.extend(draws)
        return solve(pairs, draws)

    monkeypatch.setattr(pose_module, "_two_pair_solutions", recording)
    start = time.perf_counter()
    try:
        est = ransac_pose(dets, cloud, cam, RansacOptions(mode="full", iterations=20, seed=seed))
    except NoValidPose:
        est = None
    # about 3 s on a 2-core host; the bound leaves room for a slow one
    assert time.perf_counter() - start < 60.0
    assert sets
    for i, j in sets:  # rows of the table: no shared detection or object
        assert det_idx[i] != det_idx[j] and obj_idx[i] != obj_idx[j]
    if est is not None:
        rot, pos = pose_errors(est.pose, truth)
        assert rot < 1e-8 and pos < 1e-8
        assert est.inliers == (0, 5, 10, 15)


def test_ransac_options_validates_rotation_and_iterations():
    # a malformed rotation fails at construction, not deep inside the draws
    for bad in (np.eye(2), 2.0 * np.eye(3), np.diag([1.0, 1.0, -1.0]), np.full((3, 3), np.nan)):
        with pytest.raises(ValueError):
            RansacOptions(rotation=bad)
    for iterations in (2.5, 3.0, "3", True):
        with pytest.raises(ValueError):
            RansacOptions(rotation=np.eye(3), iterations=iterations)
    opts = RansacOptions(rotation=np.eye(3).tolist(), iterations=np.int64(3))
    assert opts.rotation.shape == (3, 3) and not opts.rotation.flags.writeable
    assert RansacOptions(mode="full").rotation is None
    # a threshold that is no number in (0, 1), and a refine_orientation
    # that is no bool (the string "no" would act as True)
    for threshold in ("0.5", None, 0.0, 1.0, np.nan, True):
        with pytest.raises(ValueError, match="inlier threshold"):
            RansacOptions(mode="full", inlier_iou_threshold=threshold)
    for flag in ("no", 0, None):
        with pytest.raises(ValueError, match="refine_orientation must be a bool"):
            RansacOptions(mode="full", refine_orientation=flag)
    assert RansacOptions(mode="full", inlier_iou_threshold=np.float32(0.5),
                         refine_orientation=np.False_).refine_orientation == np.False_


def test_ransac_options_validates_seed():
    # a negative seed fails at construction, not at the first full-mode
    # draw; a float is not truncated
    for mode in ("full", "orientation_known"):
        for seed in (-1, 2.7, 3.0, "3", True, None):
            with pytest.raises(ValueError, match="seed must be an int >= 0"):
                RansacOptions(mode=mode, rotation=np.eye(3), seed=seed)
    for seed in (0, 5, np.int64(3)):
        assert RansacOptions(mode="full", seed=seed).seed == seed


def test_pose_estimate_validation(rng):
    pose = Pose(np.eye(3), (0, 0, 0))
    with pytest.raises(ValueError):
        PoseEstimate(pose, (), 0.5)
    with pytest.raises(ValueError):
        PoseEstimate(pose, (0,), 1.5)
