import math

import numpy as np
import pytest

from conftest import (
    annotation_rows,
    bbox_of_ellipse,
    conic_distance,
    ellipsoids_equivalent,
    random_ellipsoid,
    reference_annotations,
    reference_cloud,
    reference_inscribed,
)
from ellipose.errors import DegenerateConfiguration, EmptyInput, InsufficientViews
from ellipose.geometry import (
    Ellipsoid,
    normalize_symmetric,
    project_ellipsoid,
    _ellipse_conics,
    _ellipsoid_of_dual,
    _inscribed_ellipses,
)
from ellipose.metrics import ellipse_iou
from ellipose.reconstruction import (
    CalibratedView,
    EllipsoidCloud,
    Observation,
    generate_annotations,
    reconstruct_cloud,
    reconstruct_ellipsoid,
    reconstruct_from_dual_conics,
)
from ellipose.simulator import (
    CameraRig,
    DEG,
    DetectorModel,
    default_camera,
    look_at,
    run_detector,
    sample_cameras,
    tless_like_board,
)


def ring_views(n, radius=5.0, target=(0, 0, 0), elevation=0.35, cam=None):
    cam = cam or default_camera()
    views = []
    for k in range(n):
        az = 2 * math.pi * k / n
        pos = np.array(target) + radius * np.array(
            [math.cos(elevation) * math.cos(az), math.cos(elevation) * math.sin(az), math.sin(elevation)]
        )
        views.append(CalibratedView(f"v{k}", cam, look_at(pos, target)))
    return views


def exact_boxes(objects, view):
    """(labels, boxes (n,4)) of the tight boxes of the objects' outlines."""
    boxes = [bbox_of_ellipse(project_ellipsoid(o.ellipsoid, view.pose, view.cam))
             for o in objects]
    return [o.label for o in objects], np.array(boxes)


def exact_observations(E, label, views):
    return [
        Observation(label, project_ellipsoid(E, v.pose, v.cam), v.view_id) for v in views
    ]


def exact_duals(E, views):
    """Intrinsics-normalized dual conics of exact outlines, and the views' [R | t]."""
    duals, projections = [], []
    for v in views:
        Kinv = np.linalg.inv(v.cam.K)
        e = project_ellipsoid(E, v.pose, v.cam)
        M = _ellipse_conics(e.center[None], e.axes[None], np.array([e.angle]))[0]
        M = normalize_symmetric(M)  # the unit point conic
        duals.append(Kinv @ np.linalg.inv(M) @ Kinv.T)
        projections.append(v.pose.matrix)
    return duals, projections


def unreduced_solve(duals, projections):
    """Dual quadric from B_i q = s_i c_i with one scale unknown per view:
    the null vector of the 6m x (10+m) system, conic entries unit-Frobenius."""
    quad = [(i, j) for i in range(4) for j in range(i, 4)]
    conic = [(i, j) for i in range(3) for j in range(i, 3)]
    m = len(duals)
    A = np.zeros((6 * m, 10 + m))
    for v, (Cd, P) in enumerate(zip(duals, projections)):
        Cd = Cd / np.linalg.norm(Cd)
        for k, (i, j) in enumerate(quad):
            Ek = np.zeros((4, 4))
            Ek[i, j] = Ek[j, i] = 1.0
            C = P @ Ek @ P.T
            A[6 * v:6 * v + 6, k] = [C[a, b] for a, b in conic]
        A[6 * v:6 * v + 6, 10 + v] = [-Cd[a, b] for a, b in conic]
    q = np.linalg.svd(A)[2][-1, :10]
    Q = np.empty((4, 4))
    for k, (i, j) in enumerate(quad):
        Q[i, j] = Q[j, i] = q[k]
    return Q


class TestReconstructEllipsoid:
    def test_unit_sphere_three_views(self):
        E = Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))
        views = ring_views(3, radius=5.0, elevation=0.0)
        out = reconstruct_ellipsoid(exact_observations(E, "s", views), views)
        assert np.linalg.norm(out.center - E.center) < 1e-8
        assert np.allclose(np.sort(out.axes), np.sort(E.axes), atol=1e-8)

    def test_random_ellipsoids_heldout_reprojection(self, rng):
        cam = default_camera()
        for _ in range(10):
            E = random_ellipsoid(rng, center_scale=0.3)
            views = ring_views(5, radius=6.0, elevation=rng.uniform(0.2, 0.8))
            held = ring_views(10, radius=5.0, elevation=rng.uniform(0.9, 1.1))
            out = reconstruct_ellipsoid(exact_observations(E, "x", views), views)
            assert ellipsoids_equivalent(E, out, tol=1e-7)
            for v in held:
                got = project_ellipsoid(out, v.pose, v.cam)
                want = project_ellipsoid(E, v.pose, v.cam)
                assert conic_distance(got, want) < 1e-6

    def test_two_views_insufficient(self):
        E = Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))
        views = ring_views(2)
        with pytest.raises(InsufficientViews):
            reconstruct_ellipsoid(exact_observations(E, "s", views), views)

    def test_repeated_view_id_does_not_count(self):
        E = Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))
        views = ring_views(2)
        obs = exact_observations(E, "s", views)
        obs.append(obs[0])
        with pytest.raises(InsufficientViews):
            reconstruct_ellipsoid(obs, views)

    def test_scale_invariance_of_conic_inputs(self, rng):
        # white-box: the stacked solver must ignore per-view conic scales
        E = random_ellipsoid(rng, center_scale=0.2)
        views = ring_views(4, radius=5.0)
        duals, projections = exact_duals(E, views)
        a = reconstruct_from_dual_conics(duals, projections)
        scales = rng.uniform(0.01, 100.0, size=len(duals))
        b = reconstruct_from_dual_conics([s * d for s, d in zip(scales, duals)], projections)
        assert ellipsoids_equivalent(a, b, tol=1e-9)

    def test_matches_unreduced_system(self, rng):
        # the scale-free solve equals the 6m x (10+m) system that keeps one
        # scale unknown per view, on exact outlines
        for _ in range(5):
            E = random_ellipsoid(rng, center_scale=0.3)
            views = ring_views(int(rng.integers(3, 9)), radius=6.0, elevation=rng.uniform(0.2, 0.8))
            duals, projections = exact_duals(E, views)
            got = reconstruct_from_dual_conics(duals, projections)
            want = _ellipsoid_of_dual(unreduced_solve(duals, projections))
            assert ellipsoids_equivalent(got, want, tol=1e-12)

    @staticmethod
    def assert_degenerate(targets):
        # every view is taken from one camera center, so every view sees the
        # same cone: the system is rank-deficient
        E = Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))
        cam = default_camera()
        views = [
            CalibratedView(f"v{k}", cam, look_at((5.0, 0, 1.0), t)) for k, t in enumerate(targets)
        ]
        with pytest.raises(DegenerateConfiguration):
            reconstruct_ellipsoid(exact_observations(E, "s", views), views)
        duals, projections = exact_duals(E, views)
        with pytest.raises(DegenerateConfiguration):
            reconstruct_from_dual_conics(duals, projections)

    def test_degenerate_identical_viewpoints(self):
        self.assert_degenerate([(0, 0, 0)] * 3)

    def test_degenerate_one_camera_center(self):
        self.assert_degenerate([(0, 0, 0), (0, 0.3, 0), (0, 0, 0.3)])


class TestReconstructCloud:
    def test_board_from_boxes(self):
        scene = tless_like_board(6)
        views = ring_views(3, radius=0.75, target=(0, 0, 0), elevation=0.6)
        held = ring_views(7, radius=0.75, elevation=0.9)
        boxes = {v.view_id: exact_boxes(scene.objects, v) for v in views}
        cloud, failures = reconstruct_cloud(boxes, views)
        assert not failures
        assert cloud.labels == [o.label for o in scene.objects]
        # boxes (not exact outlines) feed the solver, so the reconstruction
        # is approximate; it must still reproject close to the detections
        for v in held:
            for label, E in cloud.entries:
                gt_obj = next(o for o in scene.objects if o.label == label)
                got = project_ellipsoid(E, v.pose, v.cam)
                want = project_ellipsoid(gt_obj.ellipsoid, v.pose, v.cam)
                assert ellipse_iou(got, want, grid=128) > 0.5

    def test_label_with_two_views_fails_with_name(self):
        scene = tless_like_board(2)
        views = ring_views(3, radius=0.75, elevation=0.6)
        boxes = {
            # obj02 appears in only 2 views
            v.view_id: exact_boxes(scene.objects[:1] if i == 2 else scene.objects, v)
            for i, v in enumerate(views)
        }
        with pytest.raises(InsufficientViews, match="obj02"):
            reconstruct_cloud(boxes, views)
        cloud, failures = reconstruct_cloud(boxes, views, allow_partial=True)
        assert cloud.labels == ["obj01"]
        assert set(failures) == {"obj02"}

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            reconstruct_cloud({}, [])


class TestEllipsoidCloud:
    @pytest.mark.parametrize("label", [7, None, ("a",), b"a"])
    def test_label_not_a_string_rejected(self, label):
        # a label 7 coerced to "7" would match no detection labeled 7
        ball = Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))
        with pytest.raises(ValueError, match="cloud labels must be strings, got"):
            EllipsoidCloud((("a", ball), (label, ball)))


class TestGenerateAnnotations:
    def test_sphere_centered_annotation(self):
        E = Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))
        cloud = EllipsoidCloud((("ball", E),))
        cam = default_camera()
        pose = look_at((0, 0, 3.0), (0, 0, 0))
        anns, skipped = generate_annotations(cloud, [CalibratedView("v0", cam, pose)])
        assert not skipped
        [(label, box, e)] = annotation_rows(anns["v0"])
        assert label == "ball"
        assert np.allclose(e.center, (320.0, 240.0), atol=1e-6)
        assert np.allclose(0.5 * (box[:2] + box[2:]), (320.0, 240.0), atol=1e-6)

    def test_behind_camera_skipped(self):
        cloud = EllipsoidCloud(
            (
                ("front", Ellipsoid((0, 0, 0), (0.3, 0.3, 0.3), np.eye(3))),
                ("behind", Ellipsoid((0, 0, 9.0), (0.3, 0.3, 0.3), np.eye(3))),
            )
        )
        cam = default_camera()
        view = CalibratedView("v0", cam, look_at((0, 0, 3.0), (0, 0, 0)))
        anns, skipped = generate_annotations(cloud, [view])
        assert anns["v0"].labels == ("front",)
        assert skipped == [("v0", "behind", "BehindCamera: ellipsoid center depth -6 <= 0")]

    def test_inscribed_reconstruction_not_fully_coherent(self):
        # ellipses inscribed in boxes are not exact outlines, so reprojecting
        # the reconstructed ellipsoid does not reproduce them exactly
        scene = tless_like_board(1)
        obj = scene.objects[0]
        views = ring_views(3, radius=0.75, elevation=0.7)
        boxes = {v.view_id: exact_boxes([obj], v) for v in views}
        cloud, _ = reconstruct_cloud(boxes, views)
        anns, _ = generate_annotations(cloud, views)
        ious = []
        for v in views:
            [(_, _, e)] = annotation_rows(anns[v.view_id])
            source = reference_inscribed(boxes[v.view_id][1][0])
            ious.append(ellipse_iou(e, source))
        assert all(i < 0.9999 for i in ious)
        assert all(i > 0.5 for i in ious)

    def test_annotation_count_matches_visibility(self):
        scene = tless_like_board(6)
        cloud = EllipsoidCloud(tuple((o.label, o.ellipsoid) for o in scene.objects))
        views = sample_cameras(CameraRig(0.75, 12, 4))
        anns, skipped = generate_annotations(cloud, views)
        for v in views:
            # annotations skip only behind/degenerate, not out-of-image
            detections = run_detector(DetectorModel("gt_projection"), scene, v)
            assert len(anns[v.view_id].labels) >= len(detections)


class TestMapPathMatchesPerRecordFormulas:
    """reconstruct_cloud and generate_annotations work on per-view arrays;
    their outputs must equal, bit for bit, one value object per record:
    inscribed ellipses canonicalized one box at a time, reconstruct_ellipsoid
    per label, and each object's own projection with bbox_of_ellipse."""

    @pytest.fixture
    def board(self):
        scene = tless_like_board(6)
        views = sample_cameras(CameraRig(0.75, 5, 2))
        boxes = {v.view_id: exact_boxes(scene.objects, v) for v in views}
        # the first view's boxes of obj01-obj03, each about its own centre:
        # taller than wide, a square, and one whose height exceeds its width
        # by less than the circle tie
        _, b = boxes[views[0].view_id]
        center, side = 0.5 * (b[:3, :2] + b[:3, 2:]), (b[:3, 2:] - b[:3, :2]).max(axis=1)
        half = 0.5 * side[:, None] * [(0.9, 1.0), (1.0, 1.0), (1.0, 1.0 + 1e-10)]
        b[:3] = np.concatenate([center - half, center + half], axis=1)
        return scene, views, boxes

    def test_inscribed_ellipses_tie_rules(self, board):
        _, views, boxes = board
        b = np.concatenate([rows for _, rows in boxes.values()])
        centers, axes, angles = _inscribed_ellipses(b)
        assert angles[0] == 0.5 * math.pi and angles[1] == angles[2] == 0.0
        assert axes[2, 0] > axes[2, 1]
        for row, c, a, t in zip(b, centers, axes, angles):
            want = reference_inscribed(row)
            assert np.array_equal(c, want.center) and np.array_equal(a, want.axes)
            assert t == want.angle

    def test_cloud_bit_identical(self, board):
        _, views, boxes = board
        cloud, failures = reconstruct_cloud(boxes, views)
        assert not failures
        want = reference_cloud(boxes, views)
        assert cloud.labels == [label for label, _ in want]
        for (_, got), (_, ref) in zip(cloud.entries, want):
            for name in ("center", "axes", "rotation"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))

    def test_annotations_bit_identical(self, board):
        scene, views, boxes = board
        cloud, _ = reconstruct_cloud(boxes, views)
        # one object behind every camera, skipped with its note
        behind = Ellipsoid((0.0, 0.0, 3.0), (0.05, 0.05, 0.05), np.eye(3))
        cloud = EllipsoidCloud(cloud.entries + (("far", behind),))
        anns, skipped = generate_annotations(cloud, views)
        want, want_skipped = reference_annotations(cloud, views)
        assert skipped == want_skipped and len(skipped) == len(views)
        assert list(anns) == list(want)
        for vid, rows in want.items():
            a, n = anns[vid], len(rows)
            assert type(a.labels) is tuple and len(a.labels) == n
            for rows_of, shape in ((a.boxes, (n, 4)), (a.centers, (n, 2)), (a.axes, (n, 2)),
                                   (a.angles, (n,))):
                assert rows_of.shape == shape and not rows_of.flags.writeable
            got = annotation_rows(a)
            assert [label for label, _, _ in got] == [label for label, _, _ in rows]
            for (_, b1, e1), (_, e2, b2) in zip(got, rows):
                assert np.array_equal(e1.center, e2.center)
                assert np.array_equal(e1.axes, e2.axes) and e1.angle == e2.angle
                assert np.array_equal(b1, b2)
