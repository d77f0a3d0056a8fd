import math
import warnings

import numpy as np
import pytest

from conftest import (
    bbox_of_ellipse,
    boundary_points,
    ellipse_contains,
    ellipses_close,
    mvee_optimality,
    random_ellipsoid,
    random_rotation,
    reference_inscribed,
    reference_mvee_area,
    rot2d,
)
from ellipose.errors import BehindCamera, DegenerateBox, DegeneratePointSet, NotAnEllipse
from ellipose.geometry import (
    Ellipse,
    Ellipsoid,
    project_ellipsoid,
)
from ellipose.metrics import ellipse_iou
from ellipose.reconstruction import CalibratedView, generate_annotations
from ellipose.simulator import (
    DEG,
    CameraRig,
    DetectorModel,
    OrientationNoise,
    SceneObject,
    SceneSpec,
    default_camera,
    l_shaped_prism,
    look_at,
    min_enclosing_ellipse,
    cloud_of_scene,
    perturb_orientation,
    run_detector,
    sample_cameras,
    sample_ellipsoid_surface,
    tless_like_board,
    view_rng,
)
from ellipose.simulator import _perturb_box  # white-box: DetectorModel checks its half-range
from ellipose.simulator import _mvee  # white-box: the weights the MVEE stops on

GT = DetectorModel("gt_projection")  # the exact outlines of the in-image objects


class TestRig:
    def test_four_azimuths_single_elevation(self):
        rig = CameraRig(2.0, 4, 1, elevation_range=(45 * DEG, 45 * DEG))
        views = sample_cameras(rig)
        assert len(views) == 4
        centers = np.array([v.pose.camera_center for v in views])
        d = np.linalg.norm(centers, axis=1)
        assert np.allclose(d, 2.0, atol=1e-10)
        # 90 degree azimuth spacing
        az = np.arctan2(centers[:, 1], centers[:, 0])
        gaps = np.diff(np.unwrap(az))
        assert np.allclose(np.abs(gaps), math.pi / 2, atol=1e-9)

    def test_all_views_on_sphere_looking_at_target(self):
        rig = CameraRig(0.75, 10, 5, lookat=(0.1, -0.2, 0.0))
        for v in sample_cameras(rig):
            c = v.pose.camera_center
            assert np.linalg.norm(c - rig.lookat) == pytest.approx(0.75, abs=1e-10)
            # optical axis passes through the target
            z_cam = v.pose.R[2]
            to_target = rig.lookat - c
            to_target /= np.linalg.norm(to_target)
            assert np.allclose(z_cam, to_target, atol=1e-10)

    def test_deterministic_ordering(self):
        rig = CameraRig(1.0, 3, 2)
        ids = [v.view_id for v in sample_cameras(rig)]
        assert ids == sorted(ids)
        assert ids == [v.view_id for v in sample_cameras(rig)]


class TestRender:
    def test_sphere_on_axis(self):
        scene = SceneSpec((SceneObject("ball", Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))),))
        rig = CameraRig(3.0, 1, 1, elevation_range=(90 * DEG - 1e-9, 90 * DEG - 1e-9))
        view = sample_cameras(rig)[0]
        dets = run_detector(GT, scene, view)
        assert len(dets) == 1
        _, e, _ = dets[0]
        assert np.allclose(e.center, (320.0, 240.0), atol=1e-6)
        assert e.axes[0] == pytest.approx(e.axes[1], rel=1e-9)

    def test_object_behind_camera_absent(self):
        scene = SceneSpec(
            (
                SceneObject("front", Ellipsoid((0, 0, 0), (0.2, 0.2, 0.2), np.eye(3))),
                SceneObject("behind", Ellipsoid((0, 0, 9.0), (0.2, 0.2, 0.2), np.eye(3))),
            )
        )
        rig = CameraRig(3.0, 1, 1, elevation_range=(80 * DEG, 80 * DEG))
        view = sample_cameras(rig)[0]
        labels = [l for l, _, _ in run_detector(GT, scene, view)]
        assert labels == ["front"]

    def test_counts_match_visibility_oracle(self):
        scene = tless_like_board(6)
        rig = CameraRig(0.75, 10, 5)
        total = 0
        for view in sample_cameras(rig):
            dets = run_detector(GT, scene, view)
            w, h = view.cam.image_size
            expected = 0
            for obj in scene.objects:
                pc = view.pose.R @ obj.ellipsoid.center + view.pose.t
                if pc[2] <= 0:
                    continue
                uv = view.cam.K @ (pc / pc[2])
                # oracle uses the projected ellipse center, which can differ
                # from the projected center point; tolerate boundary cases
                try:
                    e = project_ellipsoid(obj.ellipsoid, view.pose, view.cam)
                except Exception:
                    continue
                if 0 <= e.center[0] <= w and 0 <= e.center[1] <= h:
                    expected += 1
            assert len(dets) == expected
            total += len(dets)
        assert total > 0


def _per_object_detections(scene, view):
    """Reference rendering: each object through its own projection."""
    w, h = view.cam.image_size
    out = []
    for obj in scene.objects:
        try:
            e = project_ellipsoid(obj.ellipsoid, view.pose, view.cam)
        except (BehindCamera, NotAnEllipse):
            continue
        if 0.0 <= e.center[0] <= w and 0.0 <= e.center[1] <= h:
            out.append((obj.label, e, bbox_of_ellipse(e)))
    return out


def _assert_identical_detections(got, want):
    assert [label for label, _, _ in got] == [label for label, _, _ in want]
    for (_, e1, b1), (_, e2, b2) in zip(got, want):
        assert np.array_equal(e1.center, e2.center)
        assert np.array_equal(e1.axes, e2.axes)
        assert e1.angle == e2.angle
        assert np.array_equal(b1, b2)


class TestRenderMatchesPerObjectProjection:
    """The gt_projection detector projects the scene in one batched call; its output
    must equal projecting each object on its own, bit for bit."""

    def test_board_rig(self):
        scene = tless_like_board(6)
        n = 0
        for view in sample_cameras(CameraRig(0.75, 10, 5)):
            want = _per_object_detections(scene, view)
            _assert_identical_detections(run_detector(GT, scene, view), want)
            n += len(want)
        assert n > 200

    def test_skipped_objects_and_shared_labels(self, rng):
        def obj(label, center, axes, R=np.eye(3)):
            return SceneObject(label, Ellipsoid(center, axes, R))

        scene = SceneSpec(
            (
                obj("front", (0.0, 0.0, 0.0), (0.2, 0.15, 0.1), random_rotation(rng)),
                obj("behind", (0.0, 0.0, 9.0), (0.2, 0.2, 0.2)),
                obj("outside", (5.0, 0.0, 0.0), (0.2, 0.2, 0.2)),
                obj("straddles", (1.0, 0.0, 2.95), (0.3, 0.3, 0.3)),
                obj("twin", (0.5, 0.3, 0.0), (0.12, 0.08, 0.05), random_rotation(rng)),
                obj("twin", (-0.4, -0.2, 0.1), (0.1, 0.1, 0.06), random_rotation(rng)),
            )
        )
        view = CalibratedView("v", default_camera(), look_at((0.0, 0.0, 3.0), (0.0, 0.0, 0.0)))
        want = _per_object_detections(scene, view)
        assert [label for label, _, _ in want] == ["front", "twin", "twin"]
        _assert_identical_detections(run_detector(GT, scene, view), want)


class TestPerturbations:
    def test_box_identity_at_zero(self):
        b = np.array([0.0, 0.0, 10.0, 20.0])
        out = _perturb_box(b, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, b) and not out.flags.writeable

    def test_box_center_displacement_linear(self):
        b = np.array([0.0, 0.0, 100.0, 100.0])
        means = []
        for h in (5.0, 10.0):
            rng = np.random.default_rng(42)
            d = []
            for _ in range(10000):
                nb = _perturb_box(b, h, rng)
                d.append(np.linalg.norm(0.5 * (nb[:2] + nb[2:]) - 50.0))
            means.append(np.mean(d))
        assert means[1] / means[0] == pytest.approx(2.0, rel=0.05)

    def test_box_reproducible(self):
        b = np.array([0.0, 0.0, 10.0, 20.0])
        a = _perturb_box(b, 5.0, np.random.default_rng(7))
        c = _perturb_box(b, 5.0, np.random.default_rng(7))
        assert np.array_equal(a, c)

    def test_box_degenerate_raises(self):
        b = np.array([0.0, 0.0, 1e-12, 1e-12])
        with pytest.raises(DegenerateBox):
            _perturb_box(b, 0.0, np.random.default_rng(0))

    def test_orientation_zero_noise(self, rng):
        R = np.eye(3)
        out = perturb_orientation(R, OrientationNoise(0.0), np.random.default_rng(1))
        assert np.allclose(out, R)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-3])
    def test_orientation_bound_finite_and_non_negative(self, bad):
        with pytest.raises(ValueError, match="noise bound must be finite and >= 0"):
            OrientationNoise(bad)

    def test_orientation_bound(self):
        rng = np.random.default_rng(3)
        noise = OrientationNoise(2.0 * DEG)
        bound = math.sqrt(3.0) * 2.0 * DEG
        for _ in range(10000):
            R = perturb_orientation(np.eye(3), noise, rng)
            ang = math.acos(min(1.0, max(-1.0, 0.5 * (np.trace(R) - 1.0))))
            assert ang <= bound + 1e-9

    def test_orientation_reproducible(self):
        a = perturb_orientation(np.eye(3), OrientationNoise(), np.random.default_rng(5))
        b = perturb_orientation(np.eye(3), OrientationNoise(), np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestDetectors:
    def _one_view(self):
        scene = tless_like_board(6)
        rig = CameraRig(0.75, 8, 3)
        return scene, sample_cameras(rig)[5]

    def test_gt_projection_equals_render(self):
        # the exact detections are the view's annotation render, in order,
        # less the rows whose center lies outside the image; a close rig
        # leaves some objects out
        scene = tless_like_board(6)
        n_out = 0
        for view in sample_cameras(CameraRig(0.3, 8, 3)):
            a = generate_annotations(cloud_of_scene(scene), [view])[0][view.view_id]
            det = iter(run_detector(GT, scene, view))
            rows = zip(a.labels, a.boxes, a.centers, a.axes, a.angles)
            for label, box, center, axes, angle in rows:
                if not ((center >= 0.0) & (center <= view.cam.image_size)).all():
                    n_out += 1
                    continue
                l2, e2, b2 = next(det)
                assert l2 == label and e2.angle == angle
                assert np.array_equal(e2.center, center) and np.array_equal(e2.axes, axes)
                assert np.array_equal(b2, box)
            assert next(det, None) is None
        assert n_out > 0

    @pytest.mark.parametrize("kind", ["gt_projection", "inscribed_of_noisy_box",
                                      "oracle_with_box_noise"])
    def test_no_object_in_image(self, kind):
        # the camera looks away from the board: every object is behind it
        view = CalibratedView("v", default_camera(), look_at((0.0, 0.0, 1.0), (0.0, 0.0, 2.0)))
        assert run_detector(DetectorModel(kind, 5.0), tless_like_board(6), view) == []

    def test_oracle_at_zero_noise_equals_gt(self):
        scene, view = self._one_view()
        a = run_detector(DetectorModel("oracle_with_box_noise", 0.0), scene, view)
        b = run_detector(DetectorModel("gt_projection"), scene, view)
        for (l1, e1, b1), (l2, e2, b2) in zip(a, b):
            assert l1 == l2
            assert ellipses_close(e1, e2, tol=1e-12)
            assert np.allclose(b1, b2)

    def test_inscribed_at_zero_noise(self):
        scene, view = self._one_view()
        det = run_detector(DetectorModel("inscribed_of_noisy_box", 0.0), scene, view)
        gt = run_detector(GT, scene, view)
        for (label, e, box), (_, ge, gbox) in zip(det, gt):
            expect = reference_inscribed(gbox)
            assert np.allclose(e.center, expect.center, atol=1e-9)
            assert np.allclose(e.axes, expect.axes, rtol=1e-9)

    def test_detector_contrast_at_high_noise(self):
        scene = tless_like_board(6)
        rig = CameraRig(0.75, 12, 4)
        views = sample_cameras(rig)
        ious = {"inscribed_of_noisy_box": [], "oracle_with_box_noise": []}
        for kind in ious:
            model = DetectorModel(kind, 20.0, seed=11)
            for view in views:
                gt = {l: e for l, e, _ in run_detector(GT, scene, view)}
                for label, e, _ in run_detector(model, scene, view):
                    ious[kind].append(ellipse_iou(e, gt[label], grid=128))
        assert np.mean(ious["inscribed_of_noisy_box"]) < np.mean(ious["oracle_with_box_noise"])

    def test_per_view_subseeding_deterministic(self):
        scene, view = self._one_view()
        m = DetectorModel("inscribed_of_noisy_box", 10.0, seed=3)
        a = run_detector(m, scene, view)
        b = run_detector(m, scene, view)
        for (_, e1, _), (_, e2, _) in zip(a, b):
            assert np.array_equal(e1.center, e2.center)
        assert view_rng(3, "x").uniform() == view_rng(3, "x").uniform()


class TestMinEnclosingEllipse:
    def test_square_corners_circumscribed_circle(self):
        pts = np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float)
        e = min_enclosing_ellipse(pts)
        assert np.allclose(e.center, 0.0, atol=1e-7)
        assert e.axes[0] == pytest.approx(math.sqrt(2.0), rel=1e-6)
        assert e.axes[1] == pytest.approx(math.sqrt(2.0), rel=1e-6)

    def test_recovers_ellipse_from_boundary(self):
        gt = Ellipse((3.0, -2.0), (4.0, 1.5), 0.6)
        e = min_enclosing_ellipse(boundary_points(gt, 500))
        assert np.allclose(e.center, gt.center, atol=1e-6)
        assert np.allclose(e.axes, gt.axes, rtol=1e-6)
        assert abs(e.angle - gt.angle) < 1e-6

    def test_containment(self, rng):
        pts = rng.normal(size=(5000, 2)) * (3.0, 1.0)
        e = min_enclosing_ellipse(pts)
        assert ellipse_contains(e, pts, slack=1e-7).all()

    def test_two_points_degenerate(self):
        with pytest.raises(DegeneratePointSet):
            min_enclosing_ellipse(np.array([[0.0, 0.0], [1.0, 1.0]]))

    def test_collinear_degenerate(self):
        pts = np.stack([np.linspace(0, 1, 50), np.linspace(0, 2, 50)], axis=1)
        with pytest.raises(DegeneratePointSet):
            min_enclosing_ellipse(pts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_named(self, bad):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.5, 2.0]])
        pts[3, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a named error, not a numpy warning
            with pytest.raises(ValueError, match=r"finite; rows \[3\]"):
                min_enclosing_ellipse(pts)

    def test_offset_square_exact(self):
        pts = 1e6 + np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]], float)
        e = min_enclosing_ellipse(pts)
        assert e.center.tolist() == [1e6, 1e6]
        assert e.axes == pytest.approx([math.sqrt(2.0)] * 2, rel=1e-12)

    def test_circle_points_unit_radius(self):
        theta = 2.0 * math.pi * np.arange(17) / 17
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        e = min_enclosing_ellipse(pts)
        assert np.abs(e.center).max() < 1e-9
        assert e.axes == pytest.approx([1.0, 1.0], rel=2e-9)
        assert mvee_optimality(pts, _mvee(pts)) <= 1e-9

    def test_weights_meet_the_bound(self, rng):
        sets = [rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2) for n in range(3, 17)]
        for n in (3, 4, 5, 6, 12, 16, 40):  # regular polygons: many points on one conic
            theta = 2.0 * math.pi * np.arange(n) / n
            sets.append(np.stack([np.cos(theta), np.sin(theta)], axis=1))
        sets.append(boundary_points(Ellipse((0.3, -0.2), (1.0, 0.4), 0.7), 300))
        sets.append(l_shaped_prism()[:, :2] @ rot2d(0.4).T * (1.0, 0.3))
        for pts in sets:
            P = (pts - pts.mean(axis=0)) / np.abs(pts - pts.mean(axis=0)).max()
            u = _mvee(P)
            assert u.min() >= 0.0 and u.sum() == pytest.approx(1.0, abs=1e-14)
            # the bound, to the rounding of recomputing it
            assert mvee_optimality(P, u) <= 1e-9 + 1e-13

    def test_area_matches_slow_reference(self):
        rng = np.random.default_rng(4242)
        for _ in range(200):
            n = int(rng.integers(3, 21))
            pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, 2) + rng.uniform(-50, 50, 2)
            e = min_enclosing_ellipse(pts)
            # both stop on the same bound, so both areas lie within a factor
            # 1 + 1.5e-9 above the minimum
            assert math.pi * e.axes[0] * e.axes[1] == pytest.approx(
                reference_mvee_area(pts), rel=2e-9
            )
            assert ellipse_contains(e, pts, slack=1e-12).all()

    def test_thin_sets_contained(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = rng.normal(size=(8, 2)) * (1.0, 1e-5) @ rot2d(1.0).T + (3.0, -2.0)
            assert ellipse_contains(min_enclosing_ellipse(pts), pts, slack=1e-9).all()


class TestSurfaceSampling:
    def test_unit_sphere_norms(self):
        pts = sample_ellipsoid_surface(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3)), 1000)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_implicit_equation(self, rng):
        E = random_ellipsoid(rng)
        pts = sample_ellipsoid_surface(E, 500)
        local = (pts - E.center) @ E.rotation
        q = np.sum((local / E.axes) ** 2, axis=1)
        assert np.abs(q - 1.0).max() < 1e-12

    def test_deterministic(self, rng):
        E = random_ellipsoid(rng)
        assert np.array_equal(sample_ellipsoid_surface(E, 64), sample_ellipsoid_surface(E, 64))


def test_l_shape_has_12_vertices():
    pts = l_shaped_prism()
    assert pts.shape == (12, 3)
    assert np.allclose(pts[:, :2].mean(axis=0), 0.0, atol=1e-12)
