import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    bbox_of_ellipse,
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
    reference_canonicalize,
    reference_inscribed,
    rot2d,
)
from ellipose.errors import BehindCamera, NotAnEllipse, NotAnEllipsoid, SingularTransform
from ellipose.geometry import (
    CameraModel,
    Ellipse,
    Ellipsoid,
    FrameTransform,
    Pose,
    canonicalize,
    crop_transform,
    normalize_symmetric,
    project_ellipsoid,
    transform_ellipse,
    wrap_angle_half_pi,
    _canonical,
    _check_rotation,
    _ellipse_conics,
    _ellipses_of_conics,
    _ellipsoid_of_dual,
    _inscribed_ellipses,
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


def unit_conics(ellipses) -> np.ndarray:
    """Unit point conics (n,3,3) of a list of ellipses, by the stacked kernel."""
    centers, axes, angles = (np.array([getattr(e, k) for e in ellipses])
                             for k in ("center", "axes", "angle"))
    return normalize_symmetric(_ellipse_conics(centers, axes, angles))


def ellipse_code(M) -> int:
    """The code of :func:`_ellipses_of_conics` of one conic matrix."""
    return int(_ellipses_of_conics(np.array(M, float)[None])[3][0])


class TestEllipseConic:
    def test_unit_circle_matrix(self):
        M = unit_conics([Ellipse((0, 0), (1, 1), 0.0)])[0]
        expected = np.diag([1.0, 1.0, -1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(M, expected, atol=1e-14)

    def test_incidence_offset_circle(self):
        e = Ellipse((1.0, 0.0), (2.0, 2.0), 0.7)
        res = conic_residuals(e, unit_conics([e])[0], n=64)
        assert res.max() < 1e-12

    def test_incidence_tilted(self):
        e = Ellipse((0.0, 0.0), (2.0, 1.0), math.pi / 4)
        res = conic_residuals(e, unit_conics([e])[0], n=64)
        assert res.max() < 1e-12

    def test_conic_to_ellipse_unit_circle(self):
        centers, axes, _, code = _ellipses_of_conics(np.diag([1.0, 1.0, -1.0])[None])
        assert code[0] == 0
        assert np.allclose(centers[0], 0.0, atol=1e-12)
        assert np.allclose(axes[0], 1.0, atol=1e-12)

    def test_round_trip_random(self, rng):
        ellipses = [random_ellipse(rng) for _ in range(1000)]
        centers, axes, angles, code = _ellipses_of_conics(unit_conics(ellipses))
        assert not code.any()
        for e, c, ax, angle in zip(ellipses, centers, axes, angles):
            assert np.allclose(c, e.center, atol=1e-10 * 100)
            assert np.allclose(ax, e.axes, rtol=1e-10)
            assert abs(wrap_angle_half_pi(angle - e.angle)) < 1e-9

    def test_hyperbola_rejected(self):
        assert ellipse_code(np.diag([1.0, -1.0, -1.0])) == 4

    def test_parabola_rejected(self):
        assert ellipse_code(np.diag([1.0, 0.0, -1.0])) == 3
        assert ellipse_code(np.zeros((3, 3))) == 3

    def test_imaginary_rejected(self):
        assert ellipse_code(np.diag([1.0, 1.0, 1.0])) == 5
        # the sign of a conic does not matter: -M is the same point set
        assert ellipse_code(-np.diag([1.0, 1.0, 1.0])) == 5
        assert ellipse_code(-np.diag([1.0, 1.0, -1.0])) == 0


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

    @staticmethod
    def _cases(rng):
        """Seeded ellipses, then the edge cases of the rule: a < b, exact
        circles, relative axis gaps just inside, just outside and exactly at
        CIRCLE_TIE_TOL either way round, and angles at +-pi/2, +-pi, -0.0
        and up to 1e4 rad in size."""
        n = 2000
        centers = rng.uniform(-500.0, 500.0, size=(n, 2))
        axes = rng.uniform(0.5, 80.0, size=(n, 2))
        angles = rng.uniform(-20.0, 20.0, size=n)
        angles[::5] = rng.uniform(-1e4, 1e4, size=len(angles[::5]))
        edge_angles = [0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, math.pi, -math.pi,
                       1.5 * math.pi, 0.7, -1e4, 1e4]
        edge_axes = [(2.0, 1.0), (1.0, 2.0), (3.0, 3.0)]
        for a in (1.0, 7.3, 250.0):
            for gap in (1.0 - 1e-6, 1.0 + 1e-6):  # just inside, just outside
                b = a - gap * 1e-9 * a
                edge_axes += [(a, b), (b, a)]
        a = 1e9 * 2.0**-22  # a gap of exactly the tolerance, a tie
        assert abs(a - (a - 2.0**-22)) == 1e-9 * a
        edge_axes += [(a, a - 2.0**-22), (a - 2.0**-22, a)]
        rows = [(c, ab, t) for ab in edge_axes for t in edge_angles
                for c in [rng.uniform(-500.0, 500.0, size=2)]]
        return (np.concatenate([centers, [c for c, _, _ in rows]]),
                np.concatenate([axes, [ab for _, ab, _ in rows]]),
                np.concatenate([angles, [t for _, _, t in rows]]))

    def test_kernel_bit_equal_to_reference(self, rng):
        # the array kernel, and canonicalize its one-row case, against the
        # scalar rule byte for byte
        centers, axes, angles = self._cases(rng)
        got = _canonical(centers, axes, angles)
        ties = gaps = 0
        for i, e in enumerate(Ellipse(*row) for row in zip(centers, axes, angles)):
            want = reference_canonicalize(e)
            one = canonicalize(e)
            for c, ax, t in ((got[0][i], got[1][i], got[2][i]), (one.center, one.axes, one.angle)):
                assert c.tobytes() == want.center.tobytes()
                assert ax.tobytes() == want.axes.tobytes()
                assert np.float64(t).tobytes() == np.float64(want.angle).tobytes(), (e, t, want)
            near = 0.0 < abs(want.axes[0] - want.axes[1]) <= 2e-9 * want.axes[0]
            ties += near and want.angle == 0.0
            gaps += near and want.angle != 0.0
        assert ties > 0 and gaps > 0  # both sides of the tie tolerance reached


def dual_of(E: Ellipsoid) -> np.ndarray:
    """The dual quadric (4,4) of one ellipsoid, by the stacked kernel."""
    return _quadric_duals(E.center[None], E.axes[None], E.rotation[None])[0]


class TestDualQuadric:
    def test_unit_sphere(self):
        Q = normalize_symmetric(dual_of(Ellipsoid((0, 0, 0), (1, 1, 1), np.eye(3))))
        expected = np.diag([1.0, 1.0, 1.0, -1.0])
        expected /= np.linalg.norm(expected)
        assert np.allclose(Q, expected, atol=1e-14)

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            E = random_ellipsoid(rng)
            back = _ellipsoid_of_dual(dual_of(E))
            assert ellipsoids_equivalent(E, back, tol=1e-10)
            assert sorted(back.axes) == pytest.approx(sorted(E.axes), rel=1e-10)
            # any nonzero scale, of either sign, is the same quadric
            scaled = _ellipsoid_of_dual(-1e3 * dual_of(E))
            assert ellipsoids_equivalent(back, scaled, tol=1e-12)

    def test_bad_signature(self):
        with pytest.raises(NotAnEllipsoid, match="does not have ellipsoid signature"):
            _ellipsoid_of_dual(np.diag([1.0, 1.0, -1.0, -1.0]))
        with pytest.raises(NotAnEllipsoid, match="center is at infinity"):
            _ellipsoid_of_dual(np.diag([1.0, 1.0, 1.0, 0.0]))


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


def inscribed(box) -> Ellipse:
    """The ellipse inscribed in one box row, through the stacked kernel."""
    centers, axes, angles = _inscribed_ellipses(np.array([box], float))
    return Ellipse(centers[0], axes[0], angles[0])


class TestBoxes:
    def test_inscribed_simple(self):
        e = inscribed((0, 0, 4, 2))
        assert np.allclose(e.center, (2, 1))
        assert np.allclose(e.axes, (2, 1))
        assert e.angle == 0.0

    def test_inscribed_square_is_circle(self):
        e = inscribed((0, 0, 3, 3))
        assert e.axes[0] == pytest.approx(e.axes[1])
        assert e.angle == 0.0

    def test_inscribed_tall_box(self):
        e = inscribed((-1, -3, 1, 3))
        assert np.allclose(e.axes, (3, 1))
        assert abs(e.angle - math.pi / 2) < 1e-15

    def test_inscribed_bit_equal_to_reference(self, rng):
        lo = rng.uniform(-300.0, 300.0, size=(300, 2))
        sides = rng.uniform(0.5, 120.0, size=(300, 2))
        sides[::3, 1] = sides[::3, 0]  # squares among tall and wide boxes
        boxes = np.concatenate([lo, lo + sides], axis=1)
        centers, axes, angles = _inscribed_ellipses(boxes)
        for i, box in enumerate(boxes):
            want = reference_inscribed(box)
            assert centers[i].tobytes() == want.center.tobytes()
            assert axes[i].tobytes() == want.axes.tobytes()
            assert np.float64(angles[i]).tobytes() == np.float64(want.angle).tobytes()
        assert set(angles.tolist()) == {0.0, 0.5 * math.pi}

    def test_bbox_axis_aligned(self):
        b = bbox_of_ellipse(Ellipse((0, 0), (2, 1), 0.0))
        assert np.allclose(b, (-2, -1, 2, 1))

    def test_bbox_tilted_against_sampling_oracle(self):
        e = Ellipse((0, 0), (2, 1), math.pi / 4)
        b = bbox_of_ellipse(e)
        pts = boundary_points(e, 200000)
        assert b[2] == pytest.approx(np.abs(pts[:, 0]).max(), abs=1e-6)
        assert b[3] == pytest.approx(np.abs(pts[:, 1]).max(), abs=1e-6)
        assert b[2] == pytest.approx(math.sqrt(2.5), abs=1e-12)
        assert b[3] == pytest.approx(math.sqrt(2.5), abs=1e-12)

    def test_bbox_circle(self):
        b = bbox_of_ellipse(Ellipse((5, 5), (2, 2), 1.3))
        assert np.allclose(b[2:] - b[:2], (4, 4))

    def test_bbox_of_inscribed_is_identity(self, rng):
        for _ in range(100):
            lo = rng.uniform(-50, 50, size=2)
            b = np.concatenate([lo, lo + rng.uniform(0.5, 40.0, size=2)])
            assert np.allclose(bbox_of_ellipse(inscribed(b)), b, atol=1e-12)


class TestTransformConic:
    def test_identity(self, rng):
        for _ in range(20):
            e = random_ellipse(rng)
            e2 = transform_ellipse(e, FrameTransform(np.eye(3)))
            assert np.allclose(unit_conics([e])[0], unit_conics([e2])[0], atol=1e-14)

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
            M = unit_conics([transform_ellipse(e, T)])[0]
            pts = apply_transform(T, boundary_points(e, 64))
            h = np.column_stack([pts, np.ones(len(pts))])
            res = np.abs(np.einsum("ij,jk,ik->i", h, M, h))
            assert res.max() < 1e-10

    def test_group_action(self, rng):
        T1 = FrameTransform(np.array([[1.2, 0.1, 4.0], [0.0, 0.8, 1.0], [0, 0, 1.0]]))
        T2 = FrameTransform(np.array([[0.9, -0.2, -1.0], [0.3, 1.1, 2.0], [1e-4, 0, 1.0]]))
        for _ in range(20):
            e = random_ellipse(rng)
            lhs = transform_ellipse(e, FrameTransform(T2.H @ T1.H))
            rhs = transform_ellipse(transform_ellipse(e, T1), T2)
            assert np.allclose(*unit_conics([lhs, rhs]), atol=1e-12)

    def test_across_line_at_infinity_rejected(self):
        # H sends the line x = 5 to infinity: a circle across it maps to a
        # hyperbola, one clear of it to an ellipse through its mapped points
        T = FrameTransform(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-0.2, 0.0, 1.0]]))
        with pytest.raises(NotAnEllipse, match="^conic is a hyperbola$"):
            transform_ellipse(Ellipse((5.0, 0.0), (2.0, 2.0), 0.0), T)
        e = Ellipse((0.0, 0.0), (2.0, 2.0), 0.0)
        pts = apply_transform(T, boundary_points(e))
        h = np.column_stack([pts, np.ones(len(pts))])
        M = unit_conics([transform_ellipse(e, T)])[0]
        assert np.abs(np.einsum("ij,jk,ik->i", h, M, h)).max() < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularTransform):
            FrameTransform(np.array([[1.0, 0, 0], [0, 0.0, 0], [0, 0, 1.0]]))


class TestCropTransform:
    def test_identity_case(self):
        T = crop_transform((0, 0, 10, 10), 10.0)
        assert np.allclose(T.H, np.eye(3), atol=1e-12)

    def test_wide_box_completion(self):
        T = crop_transform((0, 0, 20, 10), 20.0)
        # square completion is (0,-5)-(20,15), scale 1
        assert np.allclose(apply_transform(T, np.array([0.0, -5.0])), (0.0, 0.0), atol=1e-12)
        assert np.allclose(apply_transform(T, np.array([20.0, 15.0])), (20.0, 20.0), atol=1e-12)

    def test_scale_and_center(self):
        T = crop_transform((0, 0, 4, 2), 64.0)
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
        # crop_transform is where a library caller's box enters
        for box, message in [
            ((1, 1, 0, 2), "box min must be strictly below max"),
            ((0, 1, 1, 1), "box min must be strictly below max"),
            ((0, 0, math.inf, 2), "values must be finite"),
            ((0, math.nan, 1, 2), "values must be finite"),
            ((0, 0, 1), "expected shape"),
        ]:
            with pytest.raises(ValueError, match=message):
                crop_transform(box, 64.0)

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

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scales=st.lists(st.sampled_from([0.0, 1e-12, 1e-10, 3e-9, 6e-9, 1e-8, 3e-8, 1e-6]),
                        min_size=1, max_size=8),
        flips=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_rotation_verdict_alone_or_stacked(self, seed, scales, flips):
        # rotations perturbed around the 1e-8 tolerance, some reflected: each
        # matrix gets the same verdict alone, in the stack and by the
        # norm-and-determinant rule written out per matrix
        rng = np.random.default_rng(seed)
        Rs = np.stack([random_rotation(rng) + s * rng.normal(size=(3, 3)) for s in scales])
        Rs[np.array(flips[:len(scales)]), :, 2] *= -1.0
        alone = [bool(_check_rotation(R[None])[0]) for R in Rs]
        assert alone == [np.linalg.norm(R.T @ R - np.eye(3)) > 1e-8 or np.linalg.det(R) < 0.0
                         for R in Rs]
        assert _check_rotation(Rs).tolist() == alone
        for R, bad in zip(Rs, alone):
            if bad:
                with pytest.raises(ValueError, match="not a rotation"):
                    Pose(R, (0, 0, 0))
            else:
                Pose(R, (0, 0, 0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_conic_rejected(self, bad):
        # conics are arrays; normalize_symmetric, which every conic and
        # dual quadric passes through, rejects a non-finite one, alone or
        # stacked
        M = np.eye(3)
        M[0, 1] = bad
        with pytest.raises(ValueError):
            normalize_symmetric(M)
        M[1, 0] = bad
        with pytest.raises(ValueError):
            normalize_symmetric(np.pad(M, ((0, 1), (0, 1))))
        with pytest.raises(ValueError):
            normalize_symmetric(np.stack([np.eye(3), np.full((3, 3), bad)]))
