import math

import numpy as np
import pytest

from conftest import grid_ellipse_iou, random_rotation, reference_conic_ious, row_ellipse_iou
from ellipose.errors import BehindCamera, EmptyPointSet
from ellipose.geometry import Ellipse, Pose, rotation_z, _ellipse_conics
from ellipose.metrics import (
    _conic_ious,
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
        assert ellipse_iou(e, e) == 1.0

    @pytest.mark.parametrize("grid", [0, -3, 2.5, True, "8"])
    def test_grid_must_be_a_positive_int(self, grid):
        e = Ellipse((10, 20), (5, 2), 0.7)
        with pytest.raises(ValueError, match="grid must be an int >= 1"):
            ellipse_iou(e, e, grid=grid)

    def test_disjoint(self):
        a = Ellipse((0, 0), (1, 1), 0.0)
        b = Ellipse((10, 0), (1, 1), 0.0)
        assert ellipse_iou(a, b) == 0.0

    def test_concentric_circles(self):
        a = Ellipse((0, 0), (1, 1), 0.0)
        b = Ellipse((0, 0), (2, 2), 0.0)
        assert ellipse_iou(a, b) == pytest.approx(0.25, abs=1e-3)

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
    """Seeded random pairs, half of them overlapping, after 20 boundary
    cases and 8 special ones.

    In the boundary cases a circle of radius grid/2 puts the cell centers,
    and the row midpoints, on half-integers, and a Pythagorean-triple
    outline passes exactly through some of them: rounding decides the
    inside test of a cell there, and the chord of a row that touches an
    outline's top or bottom.
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


def _near_pair(rng):
    """An ellipse and a partner moved, stretched and turned a little from it,
    as a reprojection is from its detection."""
    e1 = _random_pair_ellipse(rng)
    return e1, Ellipse(e1.center + rng.normal(size=2) * e1.axes[1],
                       e1.axes * rng.uniform(0.7, 1.3, 2), e1.angle + rng.normal(scale=0.2))


def _pair_conics(cases):
    """The conics of the pairs, each pair in a frame centered on its first
    ellipse, as :func:`ellipse_iou` builds them."""
    origin = np.array([a.center for a, _ in cases])

    def side(k):
        return _ellipse_conics(np.array([p[k].center for p in cases]) - origin,
                               np.array([p[k].axes for p in cases]),
                               np.array([p[k].angle for p in cases]))

    return side(0), side(1)


def _lens_iou(d):
    """Exact IoU of two unit circles whose centers are d apart."""
    lens = 2.0 * math.acos(d / 2.0) - 0.5 * d * math.sqrt(4.0 - d * d)
    return lens / (2.0 * math.pi - lens)


class TestEllipseIoUKernel:
    """The conic kernel sums the chords that the per-ellipse reference sums,
    and its error against a fine reference stays below the grid's."""

    @pytest.mark.parametrize("rows, n_random", [(128, 400), (512, 60), (5, 200)])
    def test_equals_row_reference(self, rng, rows, n_random):
        # the first 20 cases put a row midpoint on an outline's top or
        # bottom, where the chord is the square root of a rounding-level
        # value: there two exact computations agree to about sqrt(eps)
        cases = _iou_cases(rng, n_random, rows)
        want = np.array([row_ellipse_iou(a, b, rows) for a, b in cases])
        for got in (np.array([ellipse_iou(a, b, rows) for a, b in cases]),
                    _conic_ious(*_pair_conics(cases), rows)):
            assert np.abs(got - want)[20:].max() <= 1e-12
            assert np.abs(got - want)[:20].max() <= 1e-9
        assert 0.0 < min(w for w in want if w > 0.0) and max(got) == 1.0

    def test_mixed_random_batch_equals_row_reference(self, rng):
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
        want = np.array([row_ellipse_iou(a, b, 128) for a, b in cases])
        got = _conic_ious(*_pair_conics(cases), 128)
        assert np.abs(got - want).max() <= 1e-12
        assert got[2::4].tolist() == [0.0] * 90  # disjoint
        assert 0.0 < max(got[0::4]) < 1.0  # tiny
        assert sum(0.0 < w < 1.0 for w in got[1::4].tolist() + got[3::4].tolist()) >= 90

    def test_error_below_the_grid(self):
        # 10,000 seeded near pairs of axis ratio up to 10, the consensus
        # regime; the truth is the reference at 4096 rows, whose own error,
        # falling as rows^-1.5, is about 1e-5 at most; the next test ties
        # it to the full 4096 x 4096 grid
        rng = np.random.default_rng(30)
        cases = [_near_pair(rng) for _ in range(10_000)]
        truth = np.array([row_ellipse_iou(a, b, 4096) for a, b in cases])
        err = np.abs(_conic_ious(*_pair_conics(cases), 128) - truth)
        err_grid = np.abs(np.array([grid_ellipse_iou(a, b, 128) for a, b in cases]) - truth)
        assert err.max() <= 2e-3
        assert err.max() <= err_grid.max() and err.mean() <= err_grid.mean()

    def test_fine_reference_agrees_with_fine_grid(self):
        # the first pairs of test_error_below_the_grid against the full
        # 4096 x 4096 grid, whose cell is 1/32 of the 128 grid's
        rng = np.random.default_rng(30)
        for a, b in [_near_pair(rng) for _ in range(3)]:
            assert row_ellipse_iou(a, b, 4096) == pytest.approx(grid_ellipse_iou(a, b, 4096),
                                                                abs=1e-4)

    def test_edge_cases(self):
        e = Ellipse((10, 20), (5, 2), 0.7)
        assert ellipse_iou(e, e, 128) == 1.0
        assert ellipse_iou(Ellipse((0, 0), (1, 1), 0.0), Ellipse((10, 0), (1, 1), 0.0)) == 0.0
        circles = (Ellipse((0, 0), (1, 1), 0.0), Ellipse((0, 0), (2, 2), 0.0))
        assert ellipse_iou(*circles, 128) == pytest.approx(0.25, abs=1e-3)
        # nested: the IoU is the ratio of the areas
        outer, inner = Ellipse((3, -2), (4, 2), 0.3), Ellipse((3.5, -2), (1.5, 0.5), -0.4)
        assert ellipse_iou(outer, inner, 128) == pytest.approx(0.75 / 8.0, abs=1e-3)
        # tangent from outside (no overlap) and from inside (area ratio)
        assert ellipse_iou(Ellipse((0, 0), (2, 1), 0.0), Ellipse((4, 0), (2, 1), 0.0)) == 0.0
        assert ellipse_iou(Ellipse((0, 0), (2, 2), 0.0), Ellipse((1, 0), (1, 1), 0.0),
                           128) == pytest.approx(0.25, abs=1e-3)
        # eccentricity 1e4: two copies shifted along the major axis are two
        # unit circles 0.5 apart under an affine map, which keeps the IoU
        a = np.array([math.cos(0.3), math.sin(0.3)])
        long1 = Ellipse((5, 7), (1e4, 1.0), 0.3)
        long2 = Ellipse(long1.center + 5e3 * a, (1e4, 1.0), 0.3)
        assert ellipse_iou(long1, long2, 128) == pytest.approx(_lens_iou(0.5), abs=1e-3)
        # sub-row ellipses: one inside a partner 1e4 times wider, which no
        # row may cut; two far apart, which no row cuts
        big, tiny = Ellipse((0, 0), (10, 10), 0.0), Ellipse((0.3, 0.2), (2e-3, 1e-3), 0.4)
        assert ellipse_iou(big, tiny, 128) == pytest.approx(2e-8, abs=1e-7)
        dots = (Ellipse((0, 0), (2e-3, 1e-3), 0.4), Ellipse((0, 1), (2e-3, 1e-3), 0.4))
        assert ellipse_iou(*dots, 2) == 0.0

    def test_normalized_frame_equals_pixel_frame(self, rng):
        # consensus scores conics in intrinsics-normalized coordinates; an
        # upper-triangular K maps them to pixels row to row.  Detection-sized
        # pairs, each in a pixel frame centered on its first ellipse, so that
        # neither conic rounds its constant term at a far center
        cases = []
        for _ in range(300):
            b = rng.uniform(5.0, 50.0)
            e1 = Ellipse(rng.uniform(50.0, 450.0, 2), (b * rng.uniform(1.0, 4.0), b),
                         rng.uniform(-1.5, 1.5))
            cases.append((e1, Ellipse(e1.center + rng.normal(size=2) * b,
                                      e1.axes * rng.uniform(0.7, 1.3, 2),
                                      e1.angle + rng.normal(scale=0.2))))
        M1, M2 = _pair_conics(cases)
        pixel = _conic_ious(M1, M2, 128)
        for skew in (0.0, 3.0):
            K = np.tile([[520.0, skew, 318.0], [0.0, 490.0, 245.0], [0.0, 0.0, 1.0]],
                        (len(cases), 1, 1))
            K[:, :2, 2] -= [a.center for a, _ in cases]  # from that pixel frame
            Kt = K.transpose(0, 2, 1)
            normalized = _conic_ious(Kt @ M1 @ K, Kt @ M2 @ K, 128)
            assert np.abs(normalized - pixel).max() <= 1e-12
        assert np.count_nonzero((0.0 < pixel) & (pixel < 1.0)) >= 250

    def test_empty_batch(self):
        none = np.zeros((0, 3, 3))
        assert _conic_ious(none, none, 128).shape == (0,)

    @pytest.mark.parametrize("rows", [128, 512])
    def test_blocks_give_the_ious_of_one_pair_a_call(self, rng, rows):
        # the kernel scores its pairs in blocks sized to keep its
        # temporaries below glibc's mmap threshold (48 pairs at 128 rows,
        # 12 at 512); an IoU depends on its own pair alone, so any count of
        # pairs, on and across every block boundary, gives bit for bit the
        # IoUs of one pair a call
        M1, M2 = _pair_conics([_near_pair(rng) for _ in range(200)])
        alone = np.array([_conic_ious(M1[k:k + 1], M2[k:k + 1], rows)[0] for k in range(200)])
        for n in (1, 47, 48, 49, 200):
            assert _conic_ious(M1[:n], M2[:n], rows).tobytes() == alone[:n].tobytes()
        assert np.count_nonzero((0.0 < alone) & (alone < 1.0)) >= 150

    @pytest.mark.parametrize("rows, n", [(128, 6), (128, 36), (128, 96), (128, 500), (512, 40)])
    def test_equals_the_frozen_kernel_bit_for_bit(self, rows, n):
        # the kernel computes its chords into reused buffers; every IoU must
        # equal that of the frozen copy with a fresh temporary a step, over
        # one block and several (48 pairs a block at 128 rows, 12 at 512).
        # The first pair is identical (exactly 1), the second disjoint
        # (exactly 0); the second conics come scaled by signed powers of 2,
        # which scale every product exactly
        rng = np.random.default_rng(73)
        cases = [(Ellipse((10, 20), (5, 2), 0.7), Ellipse((10, 20), (5, 2), 0.7)),
                 (Ellipse((0, 0), (1, 1), 0.0), Ellipse((10, 0), (1, 1), 0.0))]
        cases += [_near_pair(rng) if k % 3 else (_random_pair_ellipse(rng),
                                                 _random_pair_ellipse(rng)) for k in range(n - 2)]
        M1, M2 = _pair_conics(cases)
        M2 = M2 * (rng.choice([-1.0, 1.0], n) * 2.0 ** rng.integers(-10, 11, n))[:, None, None]
        got = _conic_ious(M1, M2, rows)
        assert got.tobytes() == reference_conic_ious(M1, M2, rows).tobytes()
        assert got[0] == 1.0 and got[1] == 0.0
        assert np.count_nonzero((0.0 < got) & (got < 1.0)) >= (n - 2) // 2


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
