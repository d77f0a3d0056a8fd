import math

import numpy as np
import pytest

from conftest import grid_ellipse_iou, random_rotation
from ellipose.errors import BehindCamera, EmptyPointSet
from ellipose.geometry import Ellipse, Pose, rotation_z
from ellipose.metrics import (
    _ellipse_ious,
    add_error,
    ellipse_iou,
    pose_errors,
    reprojection_error,
)
from ellipose.simulator import default_camera, look_at


class TestPoseErrors:
    def test_identical(self, rng):
        p = Pose(random_rotation(rng), rng.normal(size=3))
        assert pose_errors(p, p) == (0.0, 0.0)

    def test_half_turn(self):
        gt = Pose(np.eye(3), (0, 0, 0))
        est = Pose(rotation_z(math.pi), (0, 0, 0))
        rot, _ = pose_errors(est, gt)
        assert rot == pytest.approx(math.pi)

    def test_camera_center_distance(self):
        gt = look_at((1.0, 0.0, 0.0), (0, 0, 0))
        est = look_at((1.0, 0.0, 0.05), (0, 0, 0))
        _, pos = pose_errors(est, gt)
        assert pos == pytest.approx(0.05, rel=1e-9)


class TestReprojection:
    def test_zero_for_identical(self, rng):
        cam = default_camera()
        pose = Pose(np.eye(3), (0, 0, 4.0))
        pts = rng.uniform(-0.5, 0.5, size=(50, 3))
        assert reprojection_error(pose, pose, cam, pts) == 0.0

    def test_first_order_pinhole(self):
        # camera shifted by delta in its image plane, points at depth z:
        # pixel displacement ~ f * delta / z
        cam = default_camera()
        z, delta = 4.0, 1e-3
        gt = Pose(np.eye(3), (0.0, 0.0, 0.0))
        est = Pose(np.eye(3), (delta, 0.0, 0.0))
        pts = np.array([[x, y, z] for x in (-0.2, 0.0, 0.2) for y in (-0.2, 0.2)])
        err = reprojection_error(est, gt, cam, pts)
        assert err == pytest.approx(500.0 * delta / z, rel=1e-6)

    def test_behind_camera(self):
        cam = default_camera()
        gt = Pose(np.eye(3), (0, 0, 0))
        with pytest.raises(BehindCamera):
            reprojection_error(gt, gt, cam, [[0.0, 0.0, -1.0]])


class TestAdd:
    def test_zero_and_translation(self, rng):
        pts = rng.uniform(-1, 1, size=(100, 3))
        gt = Pose(random_rotation(rng), rng.normal(size=3))
        assert add_error(gt, gt, pts) == 0.0
        est = Pose(gt.R, gt.t + np.array([1.0, 0.0, 0.0]))
        assert add_error(est, gt, pts) == pytest.approx(1.0, rel=1e-12)

    def test_empty(self):
        gt = Pose(np.eye(3), (0, 0, 0))
        with pytest.raises(EmptyPointSet):
            add_error(gt, gt, np.empty((0, 3)))


class TestEllipseIoU:
    def test_identical(self):
        e = Ellipse((10, 20), (5, 2), 0.7)
        assert ellipse_iou(e, e) == pytest.approx(1.0, abs=0.005)

    def test_disjoint(self):
        a = Ellipse((0, 0), (1, 1), 0.0)
        b = Ellipse((10, 0), (1, 1), 0.0)
        assert ellipse_iou(a, b) == 0.0

    def test_concentric_circles(self):
        a = Ellipse((0, 0), (1, 1), 0.0)
        b = Ellipse((0, 0), (2, 2), 0.0)
        assert ellipse_iou(a, b) == pytest.approx(0.25, abs=0.01)

    def test_symmetry(self, rng):
        for _ in range(10):
            a = Ellipse(rng.uniform(-5, 5, 2), np.sort(rng.uniform(0.5, 4, 2))[::-1], rng.uniform(-1, 1))
            b = Ellipse(rng.uniform(-5, 5, 2), np.sort(rng.uniform(0.5, 4, 2))[::-1], rng.uniform(-1, 1))
            assert ellipse_iou(a, b) == pytest.approx(ellipse_iou(b, a), abs=1e-12)


def _random_pair_ellipse(rng):
    b = 10.0 ** rng.uniform(-1.0, 2.0)
    a = b * 10.0 ** rng.uniform(0.0, 1.0)
    angle = rng.choice([0.0, 0.5 * math.pi, rng.uniform(-0.5 * math.pi, 0.5 * math.pi)])
    return Ellipse(rng.uniform(-200.0, 200.0, 2), (a, b), angle)


def _iou_cases(rng, n_random, grid):
    """Seeded random pairs, half of them overlapping, plus the special cases.

    In the boundary cases a circle of radius grid/2 puts the cell centers on
    half-integers, and a Pythagorean-triple outline passes exactly through
    some of them, where rounding decides the inside test.
    """
    big = Ellipse((0, 0), (grid / 2, grid / 2), 0.0)
    cases = [(Ellipse((0.5 + dx, 0.5), (a, b), angle), big)
             for a, b in ((5, 5), (13, 13), (25, 25), (10, 5), (26, 13))
             for dx in (0.0, 1.0) for angle in (0.0, 0.5 * math.pi)]
    cases += [
        (Ellipse((10, 20), (5, 2), 0.7), Ellipse((10, 20), (5, 2), 0.7)),  # identical
        (Ellipse((0, 0), (1, 1), 0.0), Ellipse((10, 0), (1, 1), 0.0)),  # disjoint
        (Ellipse((3, -2), (4, 2), 0.3), Ellipse((3.5, -2), (1.5, 0.5), -0.4)),  # nested
        (Ellipse((0, 0), (1, 1), 0.0), Ellipse((0.3, 0.1), (2, 2), 0.0)),  # circles
        (Ellipse((0, 0), (300, 0.02), 0.01), Ellipse((5, 0), (250, 0.5), 0.0)),  # very eccentric
        (Ellipse((0, 0), (2, 1), 0.0), Ellipse((4, 0), (2, 1), 0.0)),  # bboxes share an edge
        (Ellipse((0, 0), (2, 1), 0.0), Ellipse((0, 0.5), (2, 3), 0.0)),  # same x extent
        (Ellipse((0, 0), (2, 1), 0.5 * math.pi), Ellipse((0, 0), (2, 1), 0.0)),  # crossed
    ]
    for i in range(n_random):
        e1 = _random_pair_ellipse(rng)
        if i % 2:
            e2 = _random_pair_ellipse(rng)
        else:
            e2 = Ellipse(
                e1.center + rng.normal(size=2) * e1.axes[1],
                e1.axes * rng.uniform(0.7, 1.3, 2),
                e1.angle + rng.normal(scale=0.2),
            )
        cases.append((e1, e2))
    return cases


class TestEllipseIoUKernel:
    """The row-span kernel counts exactly the cells the full grid test counts."""

    @pytest.mark.parametrize("grid, n_random", [(128, 400), (512, 60), (5, 200)])
    def test_equals_grid_reference(self, rng, grid, n_random):
        cases = _iou_cases(rng, n_random, grid)
        want = [grid_ellipse_iou(a, b, grid) for a, b in cases]
        assert [ellipse_iou(a, b, grid) for a, b in cases] == want

        def side(k):
            return (
                np.array([p[k].center for p in cases]),
                np.array([p[k].axes for p in cases]),
                np.array([p[k].angle for p in cases]),
            )

        assert _ellipse_ious(*side(0), *side(1), grid).tolist() == want
        assert 0.0 < min(w for w in want if w > 0.0) and max(want) == 1.0

    def test_mixed_random_batch_equals_grid_reference(self, rng):
        # 360 seeded pairs in one call, a quarter each: tiny ellipses (from a
        # thousandth of a pixel to a few pixels, beside partners up to 100
        # times larger), near-circular ones (axes within 1e-9 of each other,
        # at any angle), disjoint ones and overlapping ones of all sizes
        cases = []
        for k in range(360):
            e1 = _random_pair_ellipse(rng)
            if k % 4 == 0:
                b = 10.0 ** rng.uniform(-3.0, 0.5)
                e1 = Ellipse(e1.center, (b * rng.uniform(1.0, 3.0), b), e1.angle)
                scale = b * 10.0 ** rng.uniform(0.0, 2.0)
                e2 = Ellipse(e1.center + rng.normal(size=2) * scale,
                             (scale * rng.uniform(1.0, 2.0), scale), rng.uniform(-1.5, 1.5))
            elif k % 4 == 1:
                r = 10.0 ** rng.uniform(-1.0, 2.0)
                e1 = Ellipse(e1.center, (r * (1.0 + rng.uniform(0.0, 1e-9)), r),
                             rng.uniform(-1.5, 1.5))
                e2 = Ellipse(e1.center + rng.normal(size=2) * r, (r * rng.uniform(0.5, 1.5),) * 2,
                             rng.uniform(-1.5, 1.5))
            elif k % 4 == 2:
                e2 = _random_pair_ellipse(rng)
                gap = e1.axes[0] + e2.axes[0] + rng.uniform(0.0, 10.0)
                direction = rng.normal(size=2)
                e2 = Ellipse(e1.center + gap * direction / np.linalg.norm(direction), e2.axes,
                             e2.angle)
            else:
                e2 = Ellipse(e1.center + rng.normal(size=2) * e1.axes[0],
                             e1.axes * rng.uniform(0.5, 2.0, 2), rng.uniform(-1.5, 1.5))
            cases.append((e1, e2))
        want = [grid_ellipse_iou(a, b, 128) for a, b in cases]
        got = _ellipse_ious(*(np.array([getattr(p[s], f) for p in cases])
                              for s in (0, 1) for f in ("center", "axes", "angle")), 128)
        assert got.tolist() == want
        assert want[2::4] == [0.0] * 90  # disjoint
        assert min(want[0::4]) == 0.0 < max(want[0::4]) < 1.0  # tiny: some miss every cell
        assert sum(0.0 < w < 1.0 for w in want[1::4] + want[3::4]) >= 90  # partial overlaps

    def test_empty_batch(self):
        none = np.zeros((0, 2))
        assert _ellipse_ious(none, none, np.zeros(0), none, none, np.zeros(0), 128).shape == (0,)


class TestRigidInvariance:
    def test_common_rigid_transform(self, rng):
        # moving the world by G and composing both poses with G^-1 leaves
        # every metric unchanged
        cam = default_camera()
        pts = rng.uniform(-0.5, 0.5, size=(60, 3)) + np.array([0, 0, 0.0])
        gt = look_at((2.0, 1.0, 1.5), (0, 0, 0))
        est = Pose(rotation_z(0.01) @ gt.R, gt.t + np.array([0.01, -0.02, 0.005]))
        G_R = random_rotation(rng)
        G_t = rng.normal(size=3)
        pts2 = pts @ G_R.T + G_t  # X' = G X
        gt2 = Pose(gt.R @ G_R.T, gt.t - gt.R @ G_R.T @ G_t)
        est2 = Pose(est.R @ G_R.T, est.t - est.R @ G_R.T @ G_t)
        assert pose_errors(est2, gt2)[0] == pytest.approx(pose_errors(est, gt)[0], abs=1e-9)
        assert pose_errors(est2, gt2)[1] == pytest.approx(pose_errors(est, gt)[1], abs=1e-9)
        assert add_error(est2, gt2, pts2) == pytest.approx(add_error(est, gt, pts), abs=1e-9)
        assert reprojection_error(est2, gt2, cam, pts2) == pytest.approx(
            reprojection_error(est, gt, cam, pts), abs=1e-6
        )
