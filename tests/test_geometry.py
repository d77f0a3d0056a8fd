import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    apply_transform,
    boundary_points,
    conic_residuals,
    ellipse_contains,
    ellipses_close,
    ellipsoids_equivalent,
    max_axis,
    random_ellipse,
    random_ellipsoid,
    random_rotation,
    rot2d,
)
from ellipose.errors import BehindCamera, NotAnEllipse, NotAnEllipsoid, SingularTransform
from ellipose.geometry import (
    Box,
    CameraModel,
    Conic,
    DualQuadric,
    Ellipse,
    Ellipsoid,
    FrameTransform,
    Pose,
    bbox_of_ellipse,
    canonicalize,
    conic_to_ellipse,
    crop_transform,
    dual_quadric_to_ellipsoid,
    ellipse_to_conic,
    ellipsoid_to_dual_quadric,
    inscribed_ellipse,
    normalize_symmetric,
    project_ellipsoid,
    transform_conic,
    transform_ellipse,
    wrap_angle_half_pi,
    _outline_error,
    _outlines,
    _quadric_duals,
)
from ellipose.simulator import default_camera, look_at


class TestNormalizeSymmetric:
    def test_stack_equals_each_alone(self, rng):
        # small and negative leading entries exercise the sign rule
        S = rng.normal(size=(60, 4, 4))
        S[::3, 0, :2] = 1e-13
        S[1::3, 0, 0] = -1e-12
        stacked = normalize_symmetric(S)
        for X, got in zip(S, stacked):
            alone = normalize_symmetric(X)
            assert alone.shape == (4, 4) and alone.tobytes() == got.tobytes()
            sym = 0.5 * (X + X.T)
            upper = sym[np.triu_indices(4)]
            sign = np.sign(upper[np.flatnonzero(np.abs(upper) > 1e-12 * np.linalg.norm(sym))[0]])
            assert np.abs(got - sign * sym / np.linalg.norm(sym)).max() <= 1e-15
        assert normalize_symmetric(S.reshape(3, 20, 4, 4)).tobytes() == stacked.tobytes()

    def test_zero_matrix_in_a_stack_rejected(self):
        with pytest.raises(ValueError):
            normalize_symmetric(np.stack([np.eye(3), np.zeros((3, 3))]))


class TestEllipseConic:
    def test_unit_circle_matrix(self):
        M = ellipse_to_conic(Ellipse((0, 0), (1, 1), 0.0)).M
        expected = np.diag([1.0, 1.0, -1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(M, expected, atol=1e-14)

    def test_incidence_offset_circle(self):
        e = Ellipse((1.0, 0.0), (2.0, 2.0), 0.7)
        res = conic_residuals(e, ellipse_to_conic(e).M, n=64)
        assert res.max() < 1e-12

    def test_incidence_tilted(self):
        e = Ellipse((0.0, 0.0), (2.0, 1.0), math.pi / 4)
        res = conic_residuals(e, ellipse_to_conic(e).M, n=64)
        assert res.max() < 1e-12

    def test_conic_to_ellipse_unit_circle(self):
        e = conic_to_ellipse(Conic(np.diag([1.0, 1.0, -1.0])))
        assert np.allclose(e.center, 0.0, atol=1e-12)
        assert np.allclose(e.axes, 1.0, atol=1e-12)

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            e = random_ellipse(rng)
            back = conic_to_ellipse(ellipse_to_conic(e))
            assert np.allclose(back.center, e.center, atol=1e-10 * 100)
            assert np.allclose(back.axes, e.axes, rtol=1e-10)
            assert abs(wrap_angle_half_pi(back.angle - e.angle)) < 1e-9

    def test_hyperbola_rejected(self):
        with pytest.raises(NotAnEllipse):
            conic_to_ellipse(Conic(np.diag([1.0, -1.0, -1.0])))

    def test_parabola_rejected(self):
        with pytest.raises(NotAnEllipse):
            conic_to_ellipse(Conic(np.diag([1.0, 0.0, -1.0])))

    def test_imaginary_rejected(self):
        with pytest.raises(NotAnEllipse):
            conic_to_ellipse(Conic(np.diag([1.0, 1.0, 1.0])))


class TestCanonicalize:
    def test_axis_swap(self):
        e = canonicalize(Ellipse((0, 0), (1.0, 2.0), 0.0))
        assert e.axes[0] == 2.0 and e.axes[1] == 1.0
        assert abs(e.angle - math.pi / 2) < 1e-15

    def test_angle_wrap(self):
        e = canonicalize(Ellipse((0, 0), (2.0, 1.0), math.pi / 2 + 0.1))
        assert abs(e.angle - (-math.pi / 2 + 0.1)) < 1e-12
        assert np.allclose(e.axes, (2.0, 1.0))

    def test_circle_tie_break(self):
        e = canonicalize(Ellipse((0, 0), (3.0, 3.0), 1.1))
        assert e.angle == 0.0

    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_wrap_range(self, theta):
        w = wrap_angle_half_pi(theta)
        assert -math.pi / 2 < w <= math.pi / 2

    def test_idempotent_same_point_set(self, rng):
        for _ in range(200):
            center = rng.uniform(-10, 10, size=2)
            axes = rng.uniform(0.5, 5.0, size=2)
            angle = rng.uniform(-10, 10)
            e = Ellipse(center, axes, angle)
            c = canonicalize(e)
            assert -math.pi / 2 < c.angle <= math.pi / 2
            assert c.axes[0] >= c.axes[1]
            assert ellipses_close(e, c, tol=1e-10)
            assert ellipses_close(c, canonicalize(c), tol=1e-14)


class TestDualQuadric:
    def test_unit_sphere(self):
        Q = ellipsoid_to_dual_quadric(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))).Q
        expected = np.diag([1.0, 1.0, 1.0, -1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(Q, expected, atol=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            E = random_ellipsoid(rng)
            back = dual_quadric_to_ellipsoid(ellipsoid_to_dual_quadric(E))
            assert ellipsoids_equivalent(E, back, tol=1e-10)
            assert sorted(back.axes) == pytest.approx(sorted(E.axes), rel=1e-10)

    def test_bad_signature(self):
        with pytest.raises(NotAnEllipsoid):
            dual_quadric_to_ellipsoid(DualQuadric(np.diag([1.0, 1.0, -1.0, -1.0])))


class TestProjection:
    def test_on_axis_sphere_tangent_cone(self):
        # sphere r=1 at depth 5, K = I: outline is a circle of radius
        # tan(alpha) with sin(alpha) = 1/5, i.e. 1/sqrt(24).
        cam = CameraModel(np.eye(3), (2.0, 2.0))
        pose = Pose(np.eye(3), (0.0, 0.0, 5.0))
        e = project_ellipsoid(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3)), pose, cam)
        assert np.allclose(e.center, 0.0, atol=1e-12)
        assert e.axes[0] == pytest.approx(1.0 / math.sqrt(24.0), abs=1e-12)
        assert e.axes[1] == pytest.approx(1.0 / math.sqrt(24.0), abs=1e-12)

    def test_sphere_on_optical_axis_centered_at_pp(self):
        cam = default_camera()
        pose = Pose(np.eye(3), (0.0, 0.0, 4.0))
        e = project_ellipsoid(Ellipsoid((0, 0, 0), (0.5, 0.5, 0.5), np.eye(3)), pose, cam)
        assert np.allclose(e.center, (320.0, 240.0), atol=1e-9)

    def test_behind_camera(self):
        cam = default_camera()
        pose = Pose(np.eye(3), (0.0, 0.0, -5.0))
        with pytest.raises(BehindCamera):
            project_ellipsoid(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3)), pose, cam)

    def test_crossing_principal_plane(self):
        cam = default_camera()
        pose = Pose(np.eye(3), (0.0, 0.0, 0.5))  # center depth 0.5 < radius
        with pytest.raises(NotAnEllipse):
            project_ellipsoid(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3)), pose, cam)

    def test_silhouette_sampling_oracle(self, rng):
        # the projected outline must enclose (tightly) the projection of any
        # surface point; checked properly with the min-area ellipse in the
        # acceptance suite, here via containment + support tightness
        from ellipose.simulator import sample_ellipsoid_surface

        cam = default_camera()
        for _ in range(20):
            E = random_ellipsoid(rng)
            pos = rng.uniform(-1, 1, size=3) * 0.5 + np.array([0, 0, 6.0])
            pose = look_at(E.center + np.array([0, 0, -1]) * 0 + pos, E.center)
            ell = project_ellipsoid(E, pose, cam)
            pts = sample_ellipsoid_surface(E, 4000)
            pc = (pose.R @ pts.T).T + pose.t
            uv = (cam.K @ (pc / pc[:, 2:3]).T).T[:, :2]
            assert ellipse_contains(ell, uv, slack=1e-9).all()
            # tight: some sample lies near the boundary
            d = uv - ell.center
            local = d @ np.array(
                [
                    [math.cos(ell.angle), -math.sin(ell.angle)],
                    [math.sin(ell.angle), math.cos(ell.angle)],
                ]
            )
            q = (local[:, 0] / ell.axes[0]) ** 2 + (local[:, 1] / ell.axes[1]) ** 2
            assert q.max() > 0.999


def _reference_outline(E, pose, cam):
    """Outline by the textbook route: C = inv(K [R|t] Q* [R|t]^T K^T), then
    the center, axes and angle of the point conic C; or the exception the
    projection must raise, as BehindCamera or a NotAnEllipse message."""
    if pose.R[2] @ E.center + pose.t[2] <= 0.0:
        return BehindCamera
    Z = np.eye(4)
    Z[:3, :3] = E.rotation
    Z[:3, 3] = E.center
    P = cam.K @ np.column_stack([pose.R, pose.t])
    C = np.linalg.inv(P @ Z @ np.diag(np.append(E.axes**2, -1.0)) @ Z.T @ P.T)
    lam = np.linalg.eigvalsh(C[:2, :2])
    if np.abs(lam).min() <= 1e-12 * np.abs(lam).max():
        return "conic is parabolic or degenerate"
    if lam[0] * lam[1] < 0.0:
        return "conic is a hyperbola"
    if lam[0] < 0.0:
        C = -C
    center = -np.linalg.solve(C[:2, :2], C[:2, 2])
    k = C[2, 2] + C[:2, 2] @ center
    if k >= 0.0:
        return "conic has no real bounded point set"
    lam, V = np.linalg.eigh(C[:2, :2])
    return center, np.sqrt(-k / lam), math.atan2(V[1, 0], V[0, 0])


def _stacked_duals(ellipsoids):
    """(dual quadrics, centers) of the ellipsoids, as the kernel takes them."""
    centers = np.array([E.center for E in ellipsoids])
    axes = np.array([E.axes for E in ellipsoids])
    return _quadric_duals(centers, axes, np.array([E.rotation for E in ellipsoids])), centers


def _dual_conic_reference(center, axes, angle):
    """The closed form [[S - c c^T, -c], [-c^T, -1]], S = R diag(a^2, b^2) R^T."""
    R = rot2d(angle)
    D = np.empty((3, 3))
    D[:2, :2] = R @ np.diag(np.square(axes)) @ R.T - np.outer(center, center)
    D[:2, 2] = D[2, :2] = -np.asarray(center)
    D[2, 2] = -1.0
    return D


class TestProjectionKernel:
    @staticmethod
    def _cases(rng, kinds):
        """(ellipsoid, pose) pairs: in front, center behind the camera, the
        principal plane cutting the ellipsoid in front of or beside the
        camera."""
        cases = []
        for kind in kinds:
            E = random_ellipsoid(rng)
            if kind == "front":
                d = rng.uniform(2.0, 8.0) * max_axis(E)
            elif kind == "behind":
                d = -rng.uniform(0.1, 5.0)
            else:  # center in front, but the principal plane cuts the ellipsoid
                d = rng.uniform(0.05, 0.5) * E.axes.min()
            # camera-frame center: near the optical axis, or beside the camera
            # so that the camera center lies outside the ellipsoid
            side = rng.uniform(1.5, 3.0) * max_axis(E) if kind == "straddle" else 0.0
            x_cam = np.array([side, 0.0, 0.0]) + np.array([*rng.uniform(-0.3, 0.3, 2) * abs(d), d])
            R = random_rotation(rng)
            cases.append((E, Pose(R, x_cam - R @ E.center)))
        return cases

    def test_batch_matches_reference(self, rng):
        cam = default_camera()
        cases = self._cases(rng, ["front", "behind", "inside", "straddle"] * 30)
        Qd, w_centers = _stacked_duals([E for E, _ in cases])
        Rs = np.array([pose.R for _, pose in cases])
        ts = np.array([pose.t for _, pose in cases])
        # every pose sees every ellipsoid; case i is cell (i, i)
        grid = _outlines(Rs, ts, Qd, w_centers, np.array([cam.K] * len(cases)))
        diagonal = np.arange(len(cases))
        centers, axes, angles, codes, depths = (a[diagonal, diagonal] for a in grid)
        kinds = set()
        for (E, pose), c, ax, ang, code, z in zip(cases, centers, axes, angles, codes, depths):
            exc = _outline_error(int(code), float(z)) if code else None
            want = _reference_outline(E, pose, cam)
            if not isinstance(want, tuple):
                kinds.add(want)
                if want is BehindCamera:
                    assert type(exc) is BehindCamera
                else:
                    assert type(exc) is NotAnEllipse and str(exc) == want
                assert np.isnan(c).all() and np.isnan(ax).all()
                with pytest.raises(type(exc)):
                    project_ellipsoid(E, pose, cam)
                continue
            kinds.add(None)
            assert exc is None
            w_center, w_axes, w_angle = want
            scale = max(1.0, float(np.abs(w_center).max()))
            assert np.abs(c - w_center).max() <= 1e-9 * scale
            assert np.abs(ax - w_axes).max() <= 1e-9 * w_axes.max()
            assert abs(wrap_angle_half_pi(ang - w_angle)) <= 1e-6
            single = project_ellipsoid(E, pose, cam)
            assert np.array_equal(single.center, c) and np.array_equal(single.axes, ax)
            assert single.angle == ang
        assert kinds == {
            None, BehindCamera, "conic is a hyperbola", "conic has no real bounded point set"
        }

    def test_grid_cell_equals_its_own_call(self, rng):
        # consensus, annotations and project_ellipsoid run the same kernel on
        # grids of different shapes: a cell must not depend on its neighbours
        cases = self._cases(rng, ["front", "behind", "inside", "straddle", "front", "front"] * 2)
        Qd, w_centers = _stacked_duals([E for E, _ in cases])
        Rs = np.array([pose.R for _, pose in cases[:7]])
        ts = np.array([pose.t for _, pose in cases[:7]])
        K = np.array([default_camera().K * [[f], [f], [1.0]] for f in rng.uniform(0.5, 2.0, 7)])
        grid = _outlines(Rs, ts, Qd, w_centers, K)
        assert grid[3].shape == (7, 12) and {0, 1}.issubset(grid[3].ravel().tolist())
        for i, j in np.ndindex(7, 12):
            cell = _outlines(Rs[i:i + 1], ts[i:i + 1], Qd[j:j + 1], w_centers[j:j + 1], K[i:i + 1])
            for got, alone in zip(grid, cell):
                assert got[i, j].tobytes() == alone[0, 0].tobytes()

    def test_plane_duals_match_closed_form(self, rng):
        # _quadric_duals in the plane gives the dual conics reconstruction uses
        n = 200
        centers = rng.uniform(-50.0, 700.0, size=(n, 2))
        axes = rng.uniform(0.5, 300.0, size=(n, 2))
        angles = rng.uniform(-math.pi, math.pi, size=n)
        got = _quadric_duals(centers, axes, np.array([rot2d(a) for a in angles]))
        assert got.shape == (n, 3, 3)
        for D, c, ax, a in zip(got, centers, axes, angles):
            want = _dual_conic_reference(c, ax, a)
            assert np.abs(D - want).max() <= 1e-15 * np.abs(want).max()


class TestBoxes:
    def test_inscribed_simple(self):
        e = inscribed_ellipse(Box((0, 0), (4, 2)))
        assert np.allclose(e.center, (2, 1))
        assert np.allclose(e.axes, (2, 1))
        assert e.angle == 0.0

    def test_inscribed_square_is_circle(self):
        e = inscribed_ellipse(Box((0, 0), (3, 3)))
        assert e.axes[0] == pytest.approx(e.axes[1])
        assert e.angle == 0.0

    def test_inscribed_tall_box(self):
        e = inscribed_ellipse(Box((-1, -3), (1, 3)))
        assert np.allclose(e.axes, (3, 1))
        assert abs(e.angle - math.pi / 2) < 1e-15

    def test_bbox_axis_aligned(self):
        b = bbox_of_ellipse(Ellipse((0, 0), (2, 1), 0.0))
        assert np.allclose(b.min, (-2, -1)) and np.allclose(b.max, (2, 1))

    def test_bbox_tilted_against_sampling_oracle(self):
        e = Ellipse((0, 0), (2, 1), math.pi / 4)
        b = bbox_of_ellipse(e)
        pts = boundary_points(e, 200000)
        assert b.max[0] == pytest.approx(np.abs(pts[:, 0]).max(), abs=1e-6)
        assert b.max[1] == pytest.approx(np.abs(pts[:, 1]).max(), abs=1e-6)
        assert b.max[0] == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert b.max[1] == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_bbox_circle(self):
        b = bbox_of_ellipse(Ellipse((5, 5), (2, 2), 1.3))
        assert np.allclose(b.size, (4, 4))

    def test_bbox_of_inscribed_is_identity(self, rng):
        for _ in range(100):
            lo = rng.uniform(-50, 50, size=2)
            b = Box(lo, lo + rng.uniform(0.5, 40.0, size=2))
            b2 = bbox_of_ellipse(inscribed_ellipse(b))
            assert np.allclose(b2.min, b.min, atol=1e-12)
            assert np.allclose(b2.max, b.max, atol=1e-12)


class TestTransformConic:
    def test_identity(self, rng):
        e = random_ellipse(rng)
        C = ellipse_to_conic(e)
        C2 = transform_conic(C, FrameTransform(np.eye(3)))
        assert np.allclose(C.M, C2.M, atol=1e-14)

    def test_translation_moves_center(self, rng):
        e = random_ellipse(rng)
        H = np.eye(3)
        H[:2, 2] = (5.0, -3.0)
        e2 = transform_ellipse(e, FrameTransform(H))
        assert np.allclose(e2.center, e.center + (5.0, -3.0), atol=1e-9)
        assert np.allclose(e2.axes, e.axes, rtol=1e-9)
        assert abs(wrap_angle_half_pi(e2.angle - e.angle)) < 1e-9

    def test_homography_pointwise_oracle(self, rng):
        H = np.array([[1.1, 0.2, 3.0], [-0.1, 0.9, -2.0], [5e-4, -3e-4, 1.0]])
        T = FrameTransform(H)
        for _ in range(20):
            e = random_ellipse(rng, center_scale=20.0)
            C2 = transform_conic(ellipse_to_conic(e), T)
            pts = apply_transform(T, boundary_points(e, 64))
            h = np.column_stack([pts, np.ones(len(pts))])
            res = np.abs(np.einsum("ij,jk,ik->i", h, C2.M, h))
            assert res.max() < 1e-10

    def test_group_action(self, rng):
        T1 = FrameTransform(np.array([[1.2, 0.1, 4.0], [0.0, 0.8, 1.0], [0, 0, 1.0]]))
        T2 = FrameTransform(np.array([[0.9, -0.2, -1.0], [0.3, 1.1, 2.0], [1e-4, 0, 1.0]]))
        e = random_ellipse(rng)
        C = ellipse_to_conic(e)
        lhs = transform_conic(C, FrameTransform(T2.H @ T1.H))
        rhs = transform_conic(transform_conic(C, T1), T2)
        assert np.allclose(lhs.M, rhs.M, atol=1e-12)

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            FrameTransform(np.array([[1.0, 0, 0], [0, 0.0, 0], [0, 0, 1.0]]))


class TestCropTransform:
    def test_identity_case(self):
        T = crop_transform(Box((0, 0), (10, 10)), 10.0)
        assert np.allclose(T.H, np.eye(3), atol=1e-12)

    def test_wide_box_completion(self):
        T = crop_transform(Box((0, 0), (20, 10)), 20.0)
        # square completion is (0,-5)-(20,15), scale 1
        assert np.allclose(apply_transform(T, np.array([0.0, -5.0])), (0.0, 0.0), atol=1e-12)
        assert np.allclose(apply_transform(T, np.array([20.0, 15.0])), (20.0, 20.0), atol=1e-12)

    def test_scale_and_center(self):
        T = crop_transform(Box((0, 0), (4, 2)), 64.0)
        assert T.H[0, 0] == pytest.approx(16.0)
        assert np.allclose(apply_transform(T, np.array([2.0, 1.0])), (32.0, 32.0), atol=1e-12)

    def test_crop_round_trip(self, rng):
        for _ in range(50):
            e = random_ellipse(rng)
            b = bbox_of_ellipse(e)
            T = crop_transform(b, 224.0)
            back = transform_ellipse(transform_ellipse(e, T), T.inverse())
            assert np.allclose(back.center, e.center, atol=1e-10 * 224)
            assert np.allclose(back.axes, e.axes, rtol=1e-10)
            assert abs(wrap_angle_half_pi(back.angle - e.angle)) < 1e-10


class TestValidation:
    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid((0, 0, 0), (1, 1, 1), np.diag([1.0, 1.0, -1.0]))

    def test_negative_axes_rejected(self):
        with pytest.raises(ValueError):
            Ellipse((0, 0), (1.0, -1.0), 0.0)

    def test_box_ordering(self):
        with pytest.raises(ValueError):
            Box((1, 1), (0, 2))

    def test_camera_checks(self):
        with pytest.raises(ValueError):
            CameraModel(np.array([[1.0, 0, 0], [0, 1, 0], [0, 0, 2.0]]), (10, 10))

    @pytest.mark.parametrize("size", [(-640, 480), (640, 0), (640, math.nan)])
    def test_camera_image_size_checked(self, size):
        K = np.array([[500.0, 0, 320], [0, 500, 240], [0, 0, 1]])
        with pytest.raises(ValueError):
            CameraModel(K, size)

    def test_ellipse_angle_checked(self):
        with pytest.raises(ValueError):
            Ellipse((0, 0), (2.0, 1.0), math.nan)

    def test_pose_rotation_checked(self, rng):
        R = random_rotation(rng)
        Pose(R, (0, 0, 0))  # fine
        with pytest.raises(ValueError):
            Pose(R * 1.1, (0, 0, 0))

    def test_symmetry_check_is_allclose(self, rng):
        # the written-out test accepts exactly what np.allclose accepts
        verdicts = set()
        for scale in (1e-3, 1.0, 1e6):
            for _ in range(200):
                M = rng.normal(size=(3, 3)) * scale
                M = M + M.T
                M[0, 1] += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-10, -3) * max(1.0, scale)
                want = np.allclose(M, M.T, atol=1e-8 * max(1.0, float(np.abs(M).max())))
                try:
                    Conic(M)
                    got = True
                except ValueError:
                    got = False
                assert got == want
                verdicts.add(got)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_conic_rejected(self, bad):
        M = np.eye(3)
        M[0, 1] = bad
        with pytest.raises(ValueError):
            Conic(M)
        M[1, 0] = bad
        with pytest.raises(ValueError):
            DualQuadric(np.pad(M, ((0, 1), (0, 1))))
        with pytest.raises(ValueError):
            Conic(np.full((3, 3), bad))
