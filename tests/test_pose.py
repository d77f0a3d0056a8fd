import itertools
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    axis_angle_to_matrix,
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
    reference_lockstep_lm,
    reference_pose_directions,
    reference_refine,
    reference_rotations,
    rot2d,
    row_ellipse_iou,
    two_pair_poses,
)
from ellipose import pose as pose_module
from ellipose.errors import AmbiguousSolution, ElliposeError, NoValidPose
from ellipose.geometry import (
    Ellipse,
    Ellipsoid,
    Pose,
    canonicalize,
    normalize_symmetric,
    project_ellipsoid,
    rotation_z,
    _ellipse_conics,
    _ellipses_of_conics,
    _project_pairs,
    _quadric_duals,
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
    _IOU_ROWS,
    _LMResult,
    _Pairs,
    _admissible_sets,
    _below,
    _conic_areas,
    _conic_jacobians,
    _consensus,
    _levenberg_marquardt,
    _p3p,
    _pairs,
    _pose_directions,
    _ray_placements,
    _rodrigues,
)
from ellipose.simulator import (
    DEG,
    CameraRig,
    DetectorModel,
    OrientationNoise,
    cloud_of_scene,
    default_camera,
    look_at,
    perturb_orientation,
    run_detector,
    sample_cameras,
    tless_like_board,
)


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
        _, ok = _ray_placements(R[None], pairs_table([corr], cam.K), [0])
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
            e, E = c.ellipse, c.ellipsoid
            conic = _ellipse_conics(e.center[None], e.axes[None], np.array([e.angle]))[0]
            dual = _quadric_duals(E.center[None], E.axes[None], E.rotation[None])[0]
            M = normalize_symmetric(cam.K.T @ normalize_symmetric(conic) @ cam.K)
            h = np.linalg.solve(cam.K, np.array([*c.ellipse.center, 1.0]))
            close = {
                "Qd": normalize_symmetric(dual),
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


    def test_view_table_rows_are_its_associations(self, rng):
        # shared labels: each detection meets every object of its label,
        # detection-major; a detection's rows are those of its canonical form
        cam = default_camera()
        cloud = EllipsoidCloud(tuple((label, sized_ellipsoid(rng)) for label in "abac"))
        dets = []
        for label in "bada":
            e = random_ellipse(rng, center_scale=300.0)
            dets.append((label, Ellipse(e.center, e.axes[::-1], e.angle + 0.5)))  # not canonical
        table, det_idx, obj_idx = _pairs(dets, cloud, cam.K)
        assert list(zip(det_idx.tolist(), obj_idx.tolist())) == [(0, 1), (1, 0), (1, 2),
                                                                 (3, 0), (3, 2)]
        canonical = [(label, canonicalize(e)) for label, e in dets]
        assert all(c.axes[0] > e.axes[0] for (_, c), (_, e) in zip(canonical, dets))
        table2, det_idx2, obj_idx2 = _pairs(canonical, cloud, cam.K)
        assert det_idx2.tobytes() == det_idx.tobytes() and obj_idx2.tobytes() == obj_idx.tobytes()
        for name, got, want in zip(_Pairs._fields, table, table2):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        rows = [pair_row(dets[d][1], cloud.entries[o][1]) for d, o in zip(det_idx, obj_idx)]
        for name, got, want in zip(_Pairs._fields, table, pairs_table(rows, cam.K)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        assert _pairs(dets, EllipsoidCloud((("c", cloud.entries[3][1]),)), cam.K)[0] is None

    def test_cloud_stacks_are_read_only_entry_values_gathered_as_per_call_stacks(self, rng):
        # built once per cloud on first use: every entry's values, read-only;
        # the objects' rows of the shared-label table equal those stacked and
        # normalized from the cloud's entries in the call
        cam = default_camera()
        cloud = EllipsoidCloud(tuple((label, sized_ellipsoid(rng)) for label in "abac"))
        dets = [(label, random_ellipse(rng, center_scale=300.0)) for label in "bada"]
        assert "_stacked" not in vars(cloud)
        table, det_idx, obj_idx = _pairs(dets, cloud, cam.K)
        assert list(zip(det_idx.tolist(), obj_idx.tolist())) == [(0, 1), (1, 0), (1, 2),
                                                                 (3, 0), (3, 2)]
        stacked = cloud._stacked
        assert _pairs(dets, cloud, cam.K)[0].Qd.tobytes() == table.Qd.tobytes()
        assert cloud._stacked is stacked
        for o, (_, E) in enumerate(cloud.entries):
            Qd = normalize_symmetric(_quadric_duals(E.center[None], E.axes[None], E.rotation[None]))
            for rows, want in zip(stacked, (E.center, E.axes, E.rotation, Qd[0])):
                assert not rows.flags.writeable and rows[o].tobytes() == want.tobytes()
        center_w, axes, rot_w = (np.array([getattr(E, name) for _, E in cloud.entries])[obj_idx]
                                 for name in ("center", "axes", "rotation"))
        want = {"Qd": normalize_symmetric(_quadric_duals(center_w, axes, rot_w)),
                "center_w": center_w, "axes": axes, "rot_w": rot_w, "max_axis": axes.max(axis=1)}
        for name, rows in want.items():
            got = getattr(table, name)
            assert got.shape == rows.shape and got.tobytes() == rows.tobytes(), name


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
                return np.einsum("mij,mjk->mik", _rodrigues(X[:, :3])[0], R0), t0 + X[:, 3:]

            def fun(X):
                return _project_pairs(*pose_at(X), *stacks)[0].reshape(len(X), len(pairs.Qd), 9)

            R, t = pose_at(X)
            _, _, valid, terms = _project_pairs(R, t, *stacks)
            J = _conic_jacobians(terms, _pose_directions(R, *_rodrigues(X[:, :3])[1:]))
            assert J.shape == (8, 27, 6)
            assert not valid[6].any() and not valid[7, 0] and valid[:6].all()
            self._assert_matches(J, self._central_difference(fun, X), valid)

    def test_rodrigues_terms_give_the_per_call_rotations_and_directions(self, rng):
        # angles 0, below 1e-8 (1e-200 has a cube that underflows) and above,
        # on seeded axes: the rotations, and the pose directions from the
        # carried left-Jacobian terms, equal those computed from w alone bit
        # for bit; below 1e-8 the terms are their limits a = 1/2, b = 0
        angles = np.array([0.0, 1e-200, 1e-12, 9.9e-9, 1e-8, 1e-5, 0.3, 2.0, 3.1])
        axes = rng.normal(size=(len(angles), 3))
        W = angles[:, None] * axes / np.linalg.norm(axes, axis=1, keepdims=True)
        Rs = np.array([random_rotation(rng) for _ in angles])
        R, S, S2, a, b = _rodrigues(W)
        assert R.tobytes() == reference_rotations(W).tobytes()
        assert _pose_directions(Rs, S, S2, a, b).tobytes() == reference_pose_directions(W, Rs).tobytes()
        tiny = angles < 1e-8
        assert (a[tiny] == 0.5).all() and (b[tiny] == 0.0).all()

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
            (est,) = two_pair_poses(c1, c2, cam)  # one pose, no near tie
            rot, pos = pose_errors(est, pose)
            assert rot < 1e-4 and pos < 1e-4

    def test_coincident_centers_rejected(self, rng):
        cam = default_camera()
        E = sized_ellipsoid(rng)
        pose = camera_near(rng, E.center)
        ell = project_ellipsoid(E, pose, cam)
        c = pair_row(ell, E)
        assert two_pair_poses(c, c, cam) == []

    def test_two_spheres_axially_ambiguous(self):
        # two spheres share a rotational symmetry about the line joining
        # their centers: the pose is only defined up to that rotation
        cam = default_camera()
        E1 = Ellipsoid((0.4, 0.0, 0.0), (0.1, 0.1, 0.1), np.eye(3))
        E2 = Ellipsoid((-0.4, 0.0, 0.0), (0.15, 0.15, 0.15), np.eye(3))
        pose = look_at((1.2, 1.5, 1.0), (0.0, 0.0, 0.0))
        c1 = pair_row(project_ellipsoid(E1, pose, cam), E1)
        c2 = pair_row(project_ellipsoid(E2, pose, cam), E2)
        a, b = two_pair_poses(c1, c2, cam)
        assert rotation_distance(a.R, b.R) > 0.05


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


def reference_best_pose(starts, pairs):
    """The refinement and the clustering of the two-pair solver, each
    candidate refined alone by the scalar reference LM."""
    ranked = sorted(
        ((costs[-1], R, t) for R, t, costs, *_ in
         (reference_refine(R, t, pairs, max_iter=60) for R, t in zip(*starts))),
        key=lambda s: s[0])
    clusters = []
    for cost, R, t in ranked:
        if all(rotation_distance(R, cR) + np.linalg.norm(t - ct) / (1.0 + np.linalg.norm(ct))
               >= 0.05 for _, cR, ct in clusters):
            clusters.append((cost, R, t))
    assert len(clusters) == 1 or clusters[1][0] - clusters[0][0] > 0.01 * clusters[0][0] + 1e-10
    return clusters[0][1], clusters[0][2]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_lockstep_lm_matches_one_candidate_reference(monkeypatch, seed):
    # the two-pair solver refines its kept starts in one lockstep LM, and
    # every candidate takes the steps the one-candidate scalar reference
    # takes from the same start
    corrs, cam = noisy_two_pair_problem(np.random.default_rng(seed))
    calls = []
    refine = pose_module._refine_raw

    def recording(R0, t0, pairs, rows, **kwargs):
        res, poses = refine(R0, t0, pairs, rows, **kwargs)
        assert (rows == [0, 1]).all()  # the one draw fits both rows of its table
        calls.append((R0, t0, pairs, kwargs, res))
        return res, poses

    monkeypatch.setattr(pose_module, "_refine_raw", recording)
    (got,) = two_pair_poses(*corrs, cam)
    ((R0, t0, pairs, kwargs, res),) = calls
    assert kwargs == {"max_iter": 60} and len(R0) == pose_module._LM_STARTS
    steps = 0
    for i in range(len(R0)):
        _, _, costs, converged, _ = reference_refine(R0[i], t0[i], pairs, **kwargs)
        assert len(res.costs[i]) == len(costs)
        assert res.costs[i][-1] == pytest.approx(costs[-1], rel=1e-9, abs=0.0)
        assert res.converged[i] == converged
        steps += len(costs) - 1
    assert steps > len(R0)  # the candidates move
    R, t = reference_best_pose((R0, t0), pairs)
    assert np.abs(got.R - R).max() <= 1e-9 and np.abs(got.t - t).max() <= 1e-9


def test_exact_two_pair_problems_never_miss():
    # 200 problems drawn as noisy_two_pair_problem draws them, less its
    # noise: every draw gives the true pose among its one or two poses.  A
    # scan of 36 turns with 6 starts refined misses problem 115, ending
    # 31.7 degrees off at a cost far above the truth's
    rng = np.random.default_rng(99)
    cam = default_camera()
    for k in range(200):
        E1, E2 = sized_ellipsoid(rng), sized_ellipsoid(rng)
        while np.linalg.norm(E1.center - E2.center) < 0.3:
            E2 = sized_ellipsoid(rng)
        truth = camera_near(rng, 0.5 * (E1.center + E2.center), dist=2.2)
        poses = two_pair_poses(*(pair_row(project_ellipsoid(E, truth, cam), E)
                                 for E in (E1, E2)), cam)
        assert any(max(pose_errors(p, truth)) < 1e-6 for p in poses), k


def pose_bytes(poses):
    """Poses as the bytes of each R and t, in order."""
    return [(p.R.tobytes(), p.t.tobytes()) for p in poses]


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

    def together(draws):  # the poses of each draw, as bytes
        Rs, ts, of = pose_module._two_pair_solutions(pairs, np.array(draws))
        assert (np.diff(of) >= 0).all()  # draw by draw
        return [pose_bytes(Pose(R, t) for R, t in zip(Rs[of == d], ts[of == d]))
                for d in range(len(draws))]

    alone = [pose_bytes(two_pair_poses(corrs[i], corrs[j], cam)) for i, j in draws]
    assert [len(poses) for poses in alone] == [1, 2, 1, 0, 1, 1, 2]
    assert together(draws) == alone
    assert together(draws[::-1]) == alone[::-1]
    assert together(draws[:3]) + together(draws[3:]) == alone


def box_fitted_board_polish(view_index):
    """(pairs, R0, t0): the inscribed ellipses of 10 px noisy boxes (seed 17)
    of one view of the benchmark's 25 x 10 board rig, and a start near its
    true pose drawn from the view index."""
    scene = tless_like_board(6)
    view = sample_cameras(CameraRig(0.75, 25, 10))[view_index]
    ellipsoids = dict(cloud_of_scene(scene).entries)
    dets = run_detector(DetectorModel("inscribed_of_noisy_box", 10.0, seed=17), scene, view)
    pairs = pairs_table([pair_row(e, ellipsoids[label]) for label, e, _ in dets], view.cam.K)
    rng = np.random.default_rng(view_index)
    R0 = axis_angle_to_matrix(rng.normal(scale=0.02, size=3)) @ view.pose.R
    return pairs, R0, view.pose.t + rng.normal(scale=0.01, size=3)


@pytest.mark.parametrize("rotation_fixed", [False, True])
def test_polish_matches_one_candidate_reference(rotation_fixed):
    # the polish (n = 1) against the reference, on six problems with noisy
    # detections and one box-fitted board view whose residual is not zero
    # at its minimum, so that both reject uphill trials that are not
    # rounding noise before the relative-cost stop
    rng = np.random.default_rng(7)
    cam = default_camera()
    cloud = board_scene(rng)
    problems = []
    for _ in range(6):
        truth = camera_near(rng, (0, 0, 0), dist=1.8)
        corrs = []
        for _, E in cloud.entries:
            e = project_ellipsoid(E, truth, cam)
            e = Ellipse(e.center + rng.normal(scale=6.0, size=2),
                        e.axes * rng.uniform(0.7, 1.3, 2), e.angle)
            corrs.append(pair_row(e, E))
        R0 = axis_angle_to_matrix(rng.normal(scale=0.03, size=3)) @ truth.R
        problems.append((pairs_table(corrs, cam.K), R0, truth.t + rng.normal(scale=0.03, size=3)))
    # el02_az010 for the 6-dof polish, el04_az000 for the translation-only
    # one: each rejects a few valid uphill trials before it stops on the cost
    problems.append(box_fitted_board_polish(100 if rotation_fixed else 60))
    uphill = 0
    for pairs, R0, t0 in problems:
        res, (R, t) = pose_module._refine_raw(R0[None], t0[None], pairs,
                                             np.arange(len(pairs.M_det))[None],
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
        x, costs, converged, uphill = reference_lm(lambda x: residual(x[None])[0], x0[i],
                                                   lambda x: jac(slice(0, 1), x[None], (), i)[0])
        assert len(costs) == len(res.costs[i]) > 5 and converged == res.converged[i]
        assert np.abs(x - res.x[i]).max() <= 1e-9
        assert res.uphill[i] == uphill
    assert res.uphill[2] > 0  # the Rosenbrock valley from (-1.2, 1) rejects trials
    assert res.converged[2:].all()


@pytest.mark.parametrize("n", [1, 12])
def test_lockstep_lm_matches_its_per_call_reference(monkeypatch, n):
    # Rosenbrock residuals with a third term, valid for -0.5 < x1 < 4.2 and
    # with a NaN Jacobian beyond x0 = 2.8; the solver stub reports a system
    # singular where it is not finite or its two columns correlate by 0.99
    # or more, so a small damping is raised until the system solves.  The
    # LM's result equals that of the reference bit for bit, and the
    # problem takes singular, invalid and uphill trials
    solve, singular = np.linalg.solve, []

    def near_singular(M, b):
        with np.errstate(all="ignore"):
            bad = ~np.isfinite(M).all(axis=(-2, -1)) | (
                M[..., 0, 1] ** 2 >= 0.99 * M[..., 0, 0] * M[..., 1, 1])
        singular.append(bool(bad.any()))
        if singular[-1]:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(M, b)

    monkeypatch.setattr(np.linalg, "solve", near_singular)

    def fun(idx, X):
        r = np.stack([X[:, 0] - 1.0, 10.0 * (X[:, 1] - X[:, 0] ** 2), 0.1 * X[:, 0] * X[:, 1]],
                     axis=1)
        return r, (X[:, 1] > -0.5) & (X[:, 1] < 4.2), (X,)

    def jac(idx, X, state):
        (at,) = state
        J = np.zeros((len(X), 3, 2))
        J[:, 0, 0], J[:, 1, 0], J[:, 1, 1] = 1.0, -20.0 * at[:, 0], 10.0
        J[:, 2, 0], J[:, 2, 1] = 0.1 * at[:, 1], 0.1 * at[:, 0]
        J[at[:, 0] > 2.8] = np.nan
        return J

    rng = np.random.default_rng(1)
    x0 = np.column_stack([rng.uniform(-2.5, 3.0, 12), rng.uniform(-0.5, 4.0, 12)])
    x0 = x0[2:3] if n == 1 else x0
    res = _levenberg_marquardt(fun, jac, x0)
    assert any(singular) and res.invalid.sum() > 0 and res.uphill.sum() > 0
    ref = reference_lockstep_lm(fun, jac, x0)
    for name, got, want in zip(_LMResult._fields, res, ref):
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert got == want, name


def test_step_that_gains_at_most_1e_12_of_the_cost_stops_its_candidate():
    # residuals (x, 1): the cost x^2 + 1 is not zero at its minimum.  From
    # x = 1e-7 the first accepted step lowers the cost by no more than 1e-12
    # of it, so that candidate stops there; from x = 1 it lowers it by more,
    # so the other candidate of the same call goes on, until its own step
    # gains at most that share
    def fun(idx, X):
        return np.stack([X[:, 0], np.ones(len(X))], axis=1), np.ones(len(X), bool), ()

    def jac(idx, X, state):
        return np.broadcast_to([[1.0], [0.0]], (len(X), 2, 1))

    res = _levenberg_marquardt(fun, jac, np.array([[1e-7], [1.0]]))
    assert res.stop == ["cost", "cost"] and res.converged.all()
    assert len(res.costs[0]) == 2 and len(res.costs[1]) > 2
    for costs in res.costs:
        gains = [(c_old - c) / c_old for c_old, c in zip(costs, costs[1:])]
        assert gains[-1] <= 1e-12 < min(gains[:-1], default=1.0)


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
    """Per-pair consensus: scalar projection, the unit pixel conic's ellipse
    and the row-sum IoU from the two ellipses' centers, axes and angles;
    ``outcomes`` counts what happened to each pair."""
    Kinv = np.linalg.inv(cam.K)
    inliers, total = [], 0.0
    for i, corr in enumerate(corrs):
        M = projected_conic(pose.R, pose.t, pairs, i)
        if M is None:
            outcomes["no conic"] += 1
            continue
        M = normalize_symmetric(Kinv.T @ M @ Kinv)
        centers, axes, angles, code = _ellipses_of_conics(M[None])
        if code[0]:
            outcomes["not an ellipse"] += 1
            continue
        proj = Ellipse(centers[0], axes[0], angles[0])
        iou = row_ellipse_iou(proj, corr.ellipse, _IOU_ROWS)
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
        hyps = []
        for step in (0.0, 0.02, 0.3):
            w = rng.normal(scale=step, size=3)
            hyps.append(Pose(axis_angle_to_matrix(w) @ truth.R,
                             truth.t + rng.normal(scale=step, size=3)))
        want = [reference_consensus(hyp, cam, corrs, pairs, 0.5, outcomes) for hyp in hyps]
        got = _consensus(np.stack([h.R for h in hyps]), np.stack([h.t for h in hyps]), pairs,
                         0.5)
        assert [inliers for inliers, _ in got] == [inliers for inliers, _ in want]
        assert [score for _, score in got] == pytest.approx([score for _, score in want],
                                                            abs=1e-12)
    assert min(outcomes.values()) > 0, outcomes


def test_stacked_consensus_equals_scoring_each_pose(rng):
    # a stack of poses near the truth, poses facing away from every object
    # (each outline invalid) and far ones, interleaved; each pose's inliers
    # and score are those of scoring it alone, to the last bit
    cam = default_camera()
    cloud = board_scene(rng)
    truth = camera_near(rng, (0, 0, 0), dist=1.8)
    pairs, _, _ = _pairs([(l, project_ellipsoid(E, truth, cam)) for l, E in cloud.entries],
                         cloud, cam.K)
    away = look_at(-truth.camera_center, -2.0 * truth.camera_center)
    poses = []
    for k in range(9):
        if k % 3 == 1:
            poses.append(away)
        else:
            step = 0.01 if k % 3 == 0 else 0.2
            poses.append(Pose(axis_angle_to_matrix(rng.normal(scale=step, size=3)) @ truth.R,
                              truth.t + rng.normal(scale=step, size=3)))
    Rs, ts = np.stack([p.R for p in poses]), np.stack([p.t for p in poses])
    got = _consensus(Rs, ts, pairs, 0.5)
    alone = [_consensus(R[None], t[None], pairs, 0.5) for R, t in zip(Rs, ts)]
    assert [[g] for g in got] == alone
    assert got[1] == got[4] == ((), 0.0) and len(got[0][0]) == 6
    assert _consensus(Rs[:0], ts[:0], pairs, 0.5) == []


def test_full_mode_consensus_takes_no_page_faults():
    # the benchmark's first localize_full view at seed 17 (oracle outlines
    # at 10 px, 8 draws) gives 16 P3P hypotheses over 6 rows, 96 IoU pairs
    # a consensus call.  The IoU's temporaries stay below glibc's mmap
    # threshold, so a warmed call faults no page in, where one (192, 128)
    # block takes 160 minor faults a call.  A fresh interpreter, as no
    # earlier test may have raised the threshold
    pytest.importorskip("resource")
    code = textwrap.dedent("""
        import resource
        from ellipose import pose, scenarios, simulator
        scene = simulator.tless_like_board(6)
        view = simulator.sample_cameras(simulator.CameraRig(0.75, 25, 10))[0]
        model = simulator.DetectorModel("oracle_with_box_noise", 10.0, seed=17)
        dets = [(label, e) for label, e, _ in simulator.run_detector(model, scene, view)]
        opts = pose.RansacOptions(mode="full", iterations=8, inlier_iou_threshold=0.35, seed=17)
        pairs, det_idx, obj_idx = pose._pairs(dets, scenarios.cloud_of_scene(scene), view.cam.K)
        Rs, ts = next(pose._full_mode_hypotheses(pairs, det_idx, obj_idx, opts))
        pose._consensus(Rs, ts, pairs, 0.35)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(20):
            pose._consensus(Rs, ts, pairs, 0.35)
        print(len(ts), len(det_idx), (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(pose_module.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    hypotheses, rows, faults = run.stdout.split()
    assert (int(hypotheses), int(rows)) == (16, 6)
    assert float(faults) < 5.0


def test_ray_placements_of_rows_equal_each_row_alone(rng):
    # rows of real detections, one whose conic is not a real ellipse (NaN
    # area) and one of zero area: one call for all rows at one rotation
    # equals the one-row call per row, NaN placements and flags included
    cam = default_camera()
    cloud = board_scene(rng)
    truth = camera_near(rng, (0, 0, 0), dist=1.8)
    dets = [(l, project_ellipsoid(E, truth, cam)) for l, E in cloud.entries]
    pairs, _, _ = _pairs(dets + dets[:2], cloud, cam.K)
    area = pairs.area_det.copy()
    area[[2, 6]] = np.nan, 0.0
    pairs = pairs._replace(area_det=area)
    R = perturb_orientation(truth.R, OrientationNoise(2.0 * DEG), rng)
    rows = np.arange(len(area))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts, ok = _ray_placements(np.broadcast_to(R, (len(rows), 3, 3)), pairs, rows)
        alone = [_ray_placements(R[None], pairs, [i]) for i in rows.tolist()]
    assert ts.tobytes() == np.concatenate([t for t, _ in alone]).tobytes()
    assert ok.tolist() == [bool(o[0]) for _, o in alone]
    assert ok.tolist() == [i not in (2, 6) for i in rows.tolist()]
    assert np.isnan(ts[[2, 6]]).all() and np.isfinite(ts[ok]).all()


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


def scalar_p3p(rays, centers):
    """The poses putting each of three world points ``centers`` (3,3) on
    its unit ray ``rays`` (3,3) at positive depth, for one triple alone:
    Grunert's quartic in v = s3/s1 by ``np.roots``, u = s2/s1 and s1 from
    each real root (a conjugate pair within 1e-6 of the real axis counts
    once, by its real part), one Newton step on the three distances where
    it does not raise their residual, and the Kabsch rotation with the
    reflection fixed.  Empty for collinear points or
    coincident rays."""
    def dot(x, y):
        return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]

    (a2, b2, c2), (ca, cb, cg) = zip(*[
        (dot(centers[k] - centers[l], centers[k] - centers[l]), dot(rays[k], rays[l]))
        for k, l in ((1, 2), (0, 2), (0, 1))])
    normal = np.cross(centers[0] - centers[2], centers[0] - centers[1])
    if not (dot(normal, normal) > 1e-20 * b2 * c2 and max(ca, cb, cg) < 1.0 - 1e-12):
        return []
    p, q, r, e = (a2 - c2) / b2, (a2 + c2) / b2, c2 / b2, a2 / b2
    roots = np.roots([
        (p - 1.0) * (p - 1.0) - 4.0 * r * ca * ca,
        4.0 * (p * (1.0 - p) * cb - (1.0 - q) * ca * cg + 2.0 * r * ca * ca * cb),
        2.0 * (p * p - 1.0 + 2.0 * p * p * cb * cb + 2.0 * (1.0 - r) * ca * ca
               - 4.0 * q * ca * cb * cg + 2.0 * (1.0 - e) * cg * cg),
        4.0 * (-p * (1.0 + p) * cb + 2.0 * e * cg * cg * cb - (1.0 - q) * ca * cg),
        (1.0 + p) * (1.0 + p) - 4.0 * e * cg * cg,
    ])
    sides = ((1, 2, ca, a2), (0, 2, cb, b2), (0, 1, cg, c2))

    def gaps(s):
        return np.array([s[k] * s[k] + s[l] * s[l] - 2.0 * s[k] * s[l] * cos - d2
                         for k, l, cos, d2 in sides])

    poses = []
    near_real = (roots.imag >= 0.0) & (roots.imag <= 1e-6 * (1.0 + np.abs(roots)))
    for v in roots[near_real].real:
        u = ((p - 1.0) * v * v - 2.0 * p * cb * v + 1.0 + p) / (2.0 * (cg - v * ca))
        s1 = np.sqrt(b2 / (1.0 + v * v - 2.0 * v * cb))
        s = s1 * np.array([1.0, u, v])
        J = np.zeros((3, 3))  # one Newton step on the three distances, unless it worsens them
        for row, (k, l, cos, _) in enumerate(sides):
            J[row, k], J[row, l] = 2.0 * (s[k] - s[l] * cos), 2.0 * (s[l] - s[k] * cos)
        try:
            stepped = s + np.linalg.solve(J[None], -gaps(s)[None, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            stepped = s
        if np.abs(gaps(stepped)).sum() <= np.abs(gaps(s)).sum():
            s = stepped
        if not (s > 0.0).all():
            continue
        X = s[:, None] * rays
        U, _, Vt = np.linalg.svd((centers - centers.mean(axis=0)).T @ (X - X.mean(axis=0)))
        Vt[2] *= np.sign(np.linalg.det(U @ Vt))
        R = Vt.T @ U.T
        poses.append(Pose(R, X.mean(axis=0) - (R @ centers.mean(axis=0)[:, None])[:, 0]))
    return poses


def admissible_triples(det_idx, obj_idx):
    """The triples of rows with three distinct detections and three distinct
    objects, in ``itertools.combinations`` order."""
    return [rows for rows in itertools.combinations(range(len(det_idx)), 3)
            if len(set(det_idx[list(rows)])) == len(set(obj_idx[list(rows)])) == 3]


def reference_ransac(detections, cloud, cam, opts):
    """RANSAC that pairs every detection with every object of its label,
    detection-major, and, with the orientation known, places and scores
    every row alone, in row order, and, in full mode, solves each draw alone
    and scores every hypothesis alone, repeats included; then it polishes
    the best hypothesis as :func:`ransac_pose` does.  A full-mode draw is a
    triple of rows solved by :func:`scalar_p3p`, or, in a view with no
    admissible triple or none of whose drawn triples gives a hypothesis
    with two inliers, a pair solved by the two-pair core, drawn afresh from
    the seed.  Keys (inlier count, mean IoU) rank by count, then by mean
    IoU, where mean IoUs within 1e-9 tie.  Returns the estimate and the
    list of minimal sets of the draws it ranked."""
    def above(key, other):
        return key[0] > other[0] or (key[0] == other[0] and key[1] > other[1] + 1e-9)

    assoc = [(pair_row(e, E), d, o) for d, (label, e) in enumerate(detections)
             for o, (obj_label, E) in enumerate(cloud.entries) if obj_label == label]
    corrs = [c for c, _, _ in assoc]
    det_idx, obj_idx = (np.array([a[k] for a in assoc]) for k in (1, 2))
    min_set = 1 if opts.mode == "orientation_known" else 2
    pairs = pairs_table(corrs, cam.K)
    threshold = opts.inlier_iou_threshold
    if min_set == 1:
        families = [[(i,) for i in range(len(corrs))]]
    else:  # uniform over the admissible triples, then over the unordered
        # pairs of rows sharing no detection or object, each from the seed
        families = []
        for admissible in (admissible_triples(det_idx, obj_idx), [
                (i, j) for i in range(len(corrs)) for j in range(i + 1, len(corrs))
                if det_idx[i] != det_idx[j] and obj_idx[i] != obj_idx[j]]):
            if admissible:
                rng = np.random.default_rng(np.random.SeedSequence(int(opts.seed)))
                families.append([admissible[k] for k in
                                 rng.integers(len(admissible), size=opts.iterations)])
    for draws in families:
        best, scored = None, []
        for sample in draws:
            if min_set == 1:
                ts, ok = _ray_placements(opts.rotation[None], pairs, list(sample))
                hypotheses = [Pose(opts.rotation, ts[0])] if ok[0] else []
            elif len(sample) == 3:
                rows = list(sample)
                hypotheses = scalar_p3p(pairs.ray_dir[rows], pairs.center_w[rows])
            else:
                hypotheses = two_pair_poses(corrs[sample[0]], corrs[sample[1]], cam)
            for hyp in hypotheses:
                ((inliers, score),) = _consensus(hyp.R[None], hyp.t[None], pairs, threshold)
                key = (len(inliers), score)
                if len(inliers) >= min_set:
                    scored.append((key, hyp))
                    if best is None or above(key, best[0]):  # the first of equal keys stays
                        best = (key, hyp, inliers)
        if best is not None:
            break
    (count, score), pose, inliers = best
    rivals = [h for k, h in scored if not above(k, best[0]) and not above(best[0], k) and not (
        rotation_distance(h.R, pose.R) + np.linalg.norm(h.t - pose.t) / (
            1.0 + np.linalg.norm(pose.t)) < 0.05)]
    if rivals:
        raise AmbiguousSolution("tie", candidates=(pose, rivals[0]))
    for _ in range(4):
        rotation_fixed = len(inliers) < 2 or (min_set == 1 and not opts.refine_orientation)
        refined = polish(pose, [corrs[i] for i in inliers], cam, rotation_fixed=rotation_fixed)
        ((inliers2, score2),) = _consensus(refined.pose.R[None], refined.pose.t[None], pairs,
                                           threshold)
        if above((len(inliers), score), (len(inliers2), score2)):
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
    "mode, solver", [("orientation_known", "_ray_placements"), ("full", "_p3p")]
)
def test_ransac_solves_each_distinct_draw_once(rng, monkeypatch, mode, solver):
    dets, cloud, cam, opts = ransac_problem(rng, mode, seed=3)
    _, draws = reference_ransac(dets, cloud, cam, opts)
    distinct = set(draws)
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
    monkeypatch.setattr(pose_module, "_two_pair_solutions", None)  # every view has a triple
    ransac_pose(dets, cloud, cam, opts)
    if mode == "full":  # one call for the view, each distinct draw once, in order of first draw
        assert len(calls) == 1
        solved = [tuple(rows) for rows in calls[0][1].tolist()]
        assert len(solved) == len(distinct) < opts.iterations
        assert solved == list(dict.fromkeys(draws))
        assert len({frozenset(rows) for rows in solved}) == len(solved)  # nor reordered
        assert lm_runs and set(lm_runs) == {50}  # no LM but the polish
    else:  # one call for the view, every row in row order
        assert len(calls) == 1
        assert calls[0][2].tolist() == sorted(i for i, in distinct) == list(range(len(dets)))


def test_consensus_keys_tie_within_1e_9():
    # RANSAC's ranking and the polish guard: inlier count first, then mean
    # IoU, where mean IoUs within 1e-9 tie
    assert not _below((3, 0.8), (3, 0.8 + 1e-12)) and not _below((3, 0.8 + 1e-12), (3, 0.8))
    assert _below((3, 0.8), (3, 0.8 + 1e-6)) and not _below((3, 0.8 + 1e-6), (3, 0.8))
    assert _below((3, 0.9), (4, 0.5)) and not _below((4, 0.5), (3, 0.9))


def test_admissible_pair_by_arithmetic_equals_the_listing():
    # full mode maps its drawn ks to the k-th admissible pairs, in
    # np.triu_indices order, from per-row counts, all ks in one pass,
    # instead of listing the pairs.  Layouts as _pairs builds them, each
    # detection with every object of its label: one label per object, one
    # label for all (4 x 4 and 40 x 40, 1,600 rows), a detection whose rows
    # all share it, and seeded mixes of three labels, in row order and
    # shuffled with their indices spread out
    rng = np.random.default_rng(68)
    layouts = [(range(6), range(6)), ([0] * 4, [0] * 4), ([0] * 40, [0] * 40), ([0], [0] * 5)]
    layouts += [(rng.integers(3, size=rng.integers(1, 10)),
                 rng.integers(3, size=rng.integers(1, 8))) for _ in range(30)]
    seen = 0
    for n_layout, (det_labels, obj_labels) in enumerate(layouts):
        rows = [(d, o) for d, label in enumerate(det_labels)
                for o, obj_label in enumerate(obj_labels) if obj_label == label]
        if not rows:
            continue
        det_idx, obj_idx = (np.array([r[k] for r in rows], int) for k in (0, 1))
        if n_layout >= 4 and n_layout % 2:
            order = rng.permutation(len(rows))
            det_idx, obj_idx = 3 * det_idx[order] + 2, 5 * obj_idx[order]
        i, j = np.triu_indices(len(rows), 1)
        listing = np.flatnonzero((det_idx[i] != det_idx[j]) & (obj_idx[i] != obj_idx[j]))
        total, nth = _admissible_sets(det_idx, obj_idx, 2)
        assert total == listing.size
        if not total:
            continue
        ks = np.arange(total) if total < 5000 else rng.integers(total, size=500)
        assert nth(ks).tolist() == np.stack([i[listing[ks]], j[listing[ks]]], axis=1).tolist()
        seen += 1
    assert seen >= 20


def test_admissible_triple_by_arithmetic_equals_the_listing():
    # full mode maps its drawn ks to the k-th admissible triples, in
    # itertools.combinations order, from per-row counts, all ks in one
    # pass, instead of listing the triples.  Layouts as _pairs builds them:
    # one label per object, one label for all (4 x 4 and 12 x 12), views of
    # fewer than three rows, views with rows but no admissible triple, and
    # seeded mixes of three labels, in row order and shuffled with their
    # indices spread out
    rng = np.random.default_rng(69)
    layouts = [(range(6), range(6)), ([0] * 4, [0] * 4), ([0] * 12, [0] * 12), ([0], [0]),
               (range(2), range(2)), ([0] * 2, [0] * 5), ([0] * 5, [0] * 2), ([0, 0, 1], [0, 1])]
    layouts += [(rng.integers(3, size=rng.integers(1, 9)),
                 rng.integers(3, size=rng.integers(1, 7))) for _ in range(60)]
    seen = empty = 0
    for n_layout, (det_labels, obj_labels) in enumerate(layouts):
        rows = [(d, o) for d, label in enumerate(det_labels)
                for o, obj_label in enumerate(obj_labels) if obj_label == label]
        if not rows:
            continue
        det_idx, obj_idx = (np.array([r[k] for r in rows], int) for k in (0, 1))
        if n_layout >= 8 and n_layout % 2:
            order = rng.permutation(len(rows))
            det_idx, obj_idx = 3 * det_idx[order] + 2, 5 * obj_idx[order]
        listing = admissible_triples(det_idx, obj_idx)
        total, nth = _admissible_sets(det_idx, obj_idx, 3)
        assert total == len(listing)
        empty += not listing
        if not total:
            continue
        ks = np.arange(total) if total < 2000 else rng.integers(total, size=500)
        assert nth(ks).tolist() == [list(listing[k]) for k in ks]
        seen += 1
    assert seen >= 20 and empty >= 20


def p3p_problem(rng, m):
    """m seeded triples of world points in front of random cameras: the
    table (unit rays and centers only, rows 3k to 3k + 2 the k-th triple)
    and the true rotations and translations."""
    R = np.array([random_rotation(rng) for _ in range(m)])
    t = rng.normal(size=(m, 3))
    X = np.concatenate([rng.uniform(-1.0, 1.0, (m, 3, 2)), rng.uniform(1.0, 5.0, (m, 3, 1))], axis=2)
    centers = (X - t[:, None]) @ R  # R^T (X - t), row by row
    rays = X / np.linalg.norm(X, axis=2, keepdims=True)
    table = _Pairs(None, centers.reshape(-1, 3), None, None, None, None, None, rays.reshape(-1, 3))
    return table, R, t


def test_p3p_finds_the_truth_with_every_center_on_its_ray():
    # one call for 1200 triples: the true pose is among each triple's
    # solutions to 1e-9 in at least 99% of them; every solution is a
    # rotation that puts each center on its ray at positive depth; and each
    # triple's solutions are those of the one-triple reference, bit for bit
    m = 1200
    table, R, t = p3p_problem(np.random.default_rng(70), m)
    Rs, ts, of = _p3p(table, np.arange(3 * m).reshape(m, 3))
    assert np.all(np.diff(of) >= 0) and len(of) <= 4 * m
    error = np.maximum(np.abs(Rs - R[of]).max(axis=(1, 2)), np.abs(ts - t[of]).max(axis=1))
    best = np.full(m, np.inf)
    np.minimum.at(best, of, error)
    assert np.mean(best < 1e-9) >= 0.99
    assert np.abs(Rs @ Rs.transpose(0, 2, 1) - np.eye(3)).max() < 1e-12
    assert np.abs(np.linalg.det(Rs) - 1.0).max() < 1e-12
    X = Rs[:, None] @ table.center_w.reshape(m, 3, 3, 1)[of] + ts[:, None, :, None]
    rays = table.ray_dir.reshape(m, 3, 3)[of]
    depth = (rays[..., None, :] @ X)[..., 0, 0]
    assert depth.min() > 0.0
    off = np.linalg.norm(X[..., 0] - depth[..., None] * rays, axis=2)
    assert off.max() < 1e-8 * depth.max()
    for k in range(0, m, 6):
        rows = np.arange(3 * k, 3 * k + 3)
        want = scalar_p3p(table.ray_dir[rows], table.center_w[rows])
        got = np.flatnonzero(of == k)
        assert len(got) == len(want)
        for h, pose in zip(got, want):
            assert Rs[h].tobytes() == pose.R.tobytes() and ts[h].tobytes() == pose.t.tobytes()


def test_p3p_degenerate_triples_give_no_solution():
    # collinear or coincident centers, and coincident rays, give no pose and
    # no floating-point warning; the good triple between them still solves
    table, _, _ = p3p_problem(np.random.default_rng(71), 1)
    centers, rays = table.center_w, table.ray_dir
    collinear = np.array([centers[0], centers[1], 2.0 * centers[1] - centers[0]])
    coincident = np.array([centers[0], centers[0], centers[2]])
    cases = [(collinear, rays), (coincident, rays), (centers, rays[[0, 0, 2]]),
             (centers, rays[[0, 1, 1]]), (centers, rays)]
    table = table._replace(center_w=np.concatenate([c for c, _ in cases]),
                           ray_dir=np.concatenate([r for _, r in cases]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Rs, ts, of = _p3p(table, np.arange(15).reshape(5, 3))
        assert len(of) and set(of.tolist()) == {4}
        for rows in np.arange(12).reshape(4, 3):
            assert not scalar_p3p(table.ray_dir[rows], table.center_w[rows])
        Rs, ts, of = _p3p(table, np.zeros((0, 3), int))
    assert Rs.shape == (0, 3, 3) and ts.shape == (0, 3) and of.shape == (0,)


def test_p3p_on_the_danger_cylinder_keeps_the_double_root():
    # a camera on the circumcylinder of the three points makes the true
    # depths a double root of the quartic, which rounding in the eigenvalues
    # can split into a conjugate pair, and makes the Newton step's Jacobian
    # singular: the pair still counts by its real part, the step is dropped
    # where it raises the residual, and the truth is found in most triples
    rng = np.random.default_rng(72)
    m = 300
    angles = rng.uniform(0.0, 2.0 * math.pi, (m, 3))
    centers = np.stack([np.cos(angles), np.sin(angles), np.zeros((m, 3))], axis=2)
    R, t = [], []
    for k, (az, height) in enumerate(zip(rng.uniform(0.0, 2.0 * math.pi, m),
                                         rng.uniform(0.5, 3.0, m))):
        pose = look_at((math.cos(az), math.sin(az), height), centers[k].mean(axis=0))
        R.append(pose.R)
        t.append(pose.t)
    R, t = np.array(R), np.array(t)
    X = centers @ R.transpose(0, 2, 1) + t[:, None]
    assert X[..., 2].min() > 0.0
    rays = X / np.linalg.norm(X, axis=2, keepdims=True)
    table = _Pairs(None, centers.reshape(-1, 3), None, None, None, None, None, rays.reshape(-1, 3))
    Rs, ts, of = _p3p(table, np.arange(3 * m).reshape(m, 3))
    error = np.maximum(np.abs(Rs - R[of]).max(axis=(1, 2)), np.abs(ts - t[of]).max(axis=1))
    best = np.full(m, np.inf)
    np.minimum.at(best, of, error)
    # only real eigenvalues and every Newton step kept: 74% within 1e-2,
    # 41% within 1e-6, and no solution at all for 4% of the triples
    assert np.isfinite(best).all()
    assert np.mean(best < 1e-2) >= 0.9 and np.mean(best < 1e-6) >= 0.7
    for k in range(m):
        rows = np.arange(3 * k, 3 * k + 3)
        want = scalar_p3p(table.ray_dir[rows], table.center_w[rows])
        got = np.flatnonzero(of == k)
        assert len(got) == len(want)
        for h, pose in zip(got, want):
            assert Rs[h].tobytes() == pose.R.tobytes() and ts[h].tobytes() == pose.t.tobytes()


def test_full_mode_collinear_centers_fall_back_to_pairs(monkeypatch):
    # a view of three objects on a line has a triple but no P3P pose: full
    # mode solves it by the two-pair solver instead, to the exact pose, as
    # the reference RANSAC does, and with no floating-point warning
    cam = default_camera()
    truth = look_at((1.2, 0.9, 1.3), (0.0, 0.0, 0.0))
    cloud = EllipsoidCloud(tuple((f"o{i}", Ellipsoid((0.2 * i, 0.0, 0.0), (0.05, 0.04, 0.03),
                                                      random_rotation(np.random.default_rng(i))))
                                 for i in range(3)))
    dets = [(label, project_ellipsoid(E, truth, cam)) for label, E in cloud.entries]
    opts = RansacOptions(mode="full")
    calls = []
    for name in ("_p3p", "_two_pair_solutions"):
        def recording(pairs, draws, solve=getattr(pose_module, name), name=name):
            out = solve(pairs, draws)
            calls.append((name, len(out[0]) if name == "_p3p" else len(draws)))
            return out
        monkeypatch.setattr(pose_module, name, recording)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = ransac_pose(dets, cloud, cam, opts)
    assert calls == [("_p3p", 0), ("_two_pair_solutions", 3)]
    rot, pos = pose_errors(est.pose, truth)
    assert rot < 1e-8 and pos < 1e-8
    assert est.inliers == (0, 1, 2)
    assert_same_estimate(est, reference_ransac(dets, cloud, cam, opts)[0])


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
    assert pose_bytes(got.value.candidates) == pose_bytes(want.value.candidates)
    pairs, _, _ = _pairs(dets, cloud, cam.K)
    a, b = got.value.candidates
    got = _consensus(np.stack([a.R, b.R]), np.stack([a.t, b.t]), pairs, 0.75)
    assert [inliers for inliers, _ in got] == [(0, 1)] * 2
    assert [score for _, score in got] == pytest.approx([1.0] * 2, abs=1e-9)
    assert rotation_distance(a.R, b.R) > 0.05


@pytest.mark.parametrize("seed", [1, 8])
def test_one_label_full_mode_contract(monkeypatch, seed):
    # 4 detections x 4 objects of one label: 16 correspondences, the true
    # ones rows 0, 5, 10 and 15, and 96 admissible triples.  Every drawn
    # triple has three distinct detections and three distinct objects;
    # scene 1, drawn with seed 7, and scene 8, drawn with its own seed, each
    # reach an all-true triple, whose P3P solution is the exact pose.  The
    # two-pair solver, full mode's fallback, meets on scene 1's rows 3 and
    # 14 a refinement that once hit a projection degenerate to rounding, and
    # now finds two equally good minima there
    draw_seed = {1: 7, 8: 8}[seed]
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
    pairs, det_idx, obj_idx = _pairs(dets, cloud, cam.K)
    assert len(det_idx) == 16 and len(admissible_triples(det_idx, obj_idx)) == 96
    if seed == 1:
        Rs, _, of = pose_module._two_pair_solutions(pairs, np.array([(3, 14)]))
        assert of.tolist() == [0, 0] and rotation_distance(Rs[0], Rs[1]) > 0.05
    solved = []
    solve = pose_module._p3p

    def recording(pairs, triples):
        solved.extend(tuple(rows) for rows in triples.tolist())
        return solve(pairs, triples)

    monkeypatch.setattr(pose_module, "_p3p", recording)
    start = time.perf_counter()
    est = ransac_pose(dets, cloud, cam, RansacOptions(mode="full", iterations=20, seed=draw_seed))
    # under 0.05 s on a 2-core host; the bound leaves room for a slow one
    assert time.perf_counter() - start < 60.0
    assert solved
    for rows in solved:  # rows of the table: no shared detection or object
        assert len(set(det_idx[list(rows)])) == len(set(obj_idx[list(rows)])) == 3
    assert [rows for rows in solved if set(rows) <= {0, 5, 10, 15}]
    rot, pos = pose_errors(est.pose, truth)
    assert rot < 1e-8 and pos < 1e-8
    assert est.inliers == (0, 5, 10, 15)


def test_full_mode_without_an_admissible_pair_is_named(monkeypatch):
    # two detections of one label and one object of it, or one detection
    # and two objects: every two rows share the object or the detection,
    # so no minimal set exists and nothing is solved, by P3P or in pairs
    cam = default_camera()
    truth = look_at((1.2, 0.9, 1.3), (0.0, 0.0, 0.0))
    E = Ellipsoid((0.0, 0.0, 0.0), (0.12, 0.08, 0.05), np.eye(3))
    e = project_ellipsoid(E, truth, cam)
    shifted = Ellipse(e.center + 40.0, e.axes, e.angle)
    monkeypatch.setattr(pose_module, "_two_pair_solutions", None)
    monkeypatch.setattr(pose_module, "_p3p", None)
    for dets, objects in (([("x", e), ("x", shifted)], [E]),
                          ([("x", e)], [E, Ellipsoid((0.3, 0.0, 0.0), E.axes, np.eye(3))])):
        cloud = EllipsoidCloud(tuple(("x", obj) for obj in objects))
        with pytest.raises(NoValidPose, match="no two correspondences differ in both "
                                              "detection and object"):
            ransac_pose(dets, cloud, cam, RansacOptions(mode="full"))


def test_full_mode_coincident_centers_are_no_pose():
    # two objects of their own labels share one center: the one admissible
    # pair is degenerate, gives no pose, and the view raises NoValidPose
    # with no floating-point warning on the way
    cam = default_camera()
    truth = look_at((1.2, 0.9, 1.3), (0.0, 0.0, 0.0))
    cloud = EllipsoidCloud((("a", Ellipsoid((0.0, 0.0, 0.0), (0.12, 0.08, 0.05), np.eye(3))),
                            ("b", Ellipsoid((0.0, 0.0, 0.0), (0.1, 0.06, 0.04),
                                            random_rotation(np.random.default_rng(5))))))
    dets = [(label, project_ellipsoid(E, truth, cam)) for label, E in cloud.entries]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoValidPose, match="no hypothesis reached the minimal inlier count"):
            ransac_pose(dets, cloud, cam, RansacOptions(mode="full"))


def test_full_mode_ignores_refine_orientation():
    # no orientation is given in full mode, so the flag that keeps a given
    # one has nothing to keep: every 25th view of the board rig, oracle
    # outlines with 10 px box noise, whose polish turns the rotation
    scene = tless_like_board(6)
    cloud = cloud_of_scene(scene)
    detector = DetectorModel("oracle_with_box_noise", 10.0, seed=17)
    for view in sample_cameras(CameraRig(0.75, 25, 10))[::25]:
        dets = [(label, e) for label, e, _ in run_detector(detector, scene, view)]
        refined, kept = (ransac_pose(dets, cloud, view.cam, RansacOptions(
            mode="full", iterations=8, inlier_iou_threshold=0.35, seed=17,
            refine_orientation=flag)).pose for flag in (True, False))
        assert pose_bytes([refined]) == pose_bytes([kept]), view.view_id


def test_full_mode_straddling_objects_contract(rng):
    # of 3 objects, 1 to 3 straddle the true camera's principal plane and
    # have no elliptic outline there: their detections are stand-in
    # ellipses, the others' exact outlines.  Full mode raises NoValidPose,
    # or returns a pose that puts every inlier's ellipsoid wholly in front
    # of its own principal plane: the truth on the two other objects when
    # one straddles, else a fit to the stand-ins that counts a straddling
    # object as an inlier
    cam = default_camera()
    outcomes = dict.fromkeys(["raised", "truth", "fit to stand-ins"], 0)
    for trial in range(30):
        truth = Pose(random_rotation(rng), rng.normal(size=3))
        straddling = 1 + trial % 3
        cloud, dets = [], []
        for o in range(3):
            axes = np.sort(rng.uniform(0.05, 0.2, 3))[::-1]
            if o < straddling:  # center in front, beside the camera, within reach of the plane
                depth = rng.uniform(0.05, 0.5) * axes[2]
                side = rng.choice([-1.0, 1.0]) * rng.uniform(1.5, 3.0) * axes[0]
                p_cam = np.array([side, rng.uniform(-0.3, 0.3) * depth, depth])
            else:
                depth = rng.uniform(1.0, 2.5)
                p_cam = np.array([*rng.uniform(-0.3, 0.3, 2) * depth, depth])
            E = Ellipsoid(truth.R.T @ (p_cam - truth.t), axes, random_rotation(rng))
            if o < straddling:
                with pytest.raises(ElliposeError):
                    project_ellipsoid(E, truth, cam)
                center_px = rng.uniform(100.0, 540.0, 2)
                e = Ellipse(center_px, np.sort(rng.uniform(20.0, 200.0, 2))[::-1],
                            rng.uniform(-1.5, 1.5))
            else:
                e = project_ellipsoid(E, truth, cam)
            cloud.append((f"o{o}", E))
            dets.append((f"o{o}", e))
        opts = RansacOptions(mode="full", iterations=8, seed=trial, inlier_iou_threshold=0.5)
        try:
            est = ransac_pose(dets, EllipsoidCloud(tuple(cloud)), cam, opts)
        except NoValidPose:
            outcomes["raised"] += 1
            continue
        R, t = est.pose.R, est.pose.t
        for i in est.inliers:  # rows are objects: one detection per label
            E = cloud[i][1]
            assert R[2] @ E.center + t[2] > np.linalg.norm(E.axes * (R[2] @ E.rotation))
        if straddling == 1:
            rot, pos = pose_errors(est.pose, truth)
            assert rot < 1e-6 and pos < 1e-6 and est.inliers == (1, 2)
            outcomes["truth"] += 1
        else:
            assert min(est.inliers) < straddling
            outcomes["fit to stand-ins"] += 1
    assert min(outcomes.values()) > 0, outcomes


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
