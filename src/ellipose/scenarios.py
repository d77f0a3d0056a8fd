"""End-to-end experiment recipes shared by the CLI and the test suite:
per-view pose estimation under detector/orientation noise, the box-noise
sweep, the reconstruction-consistency demonstration on a non-ellipsoidal
object, and the named scenario registry behind ``ellipose simulate``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import SCENARIO_PARAMS, Dataset, save_dataset, save_orientations, write_csv
from .errors import ElliposeError
from .geometry import (
    Ellipsoid,
    project_ellipsoid,
    rotation_z,
    _ellipse_conics,
    _outline_error,
    _outlines,
    _quadric_duals,
)
# ellipse_iou stays bound here: the benchmark's trace wraps it by this name
from .metrics import add_error, ellipse_iou, pose_errors, reprojection_error, _conic_ious
from .pose import RansacOptions, ransac_pose
from .reconstruction import (
    CalibratedView,
    EllipsoidCloud,
    Observation,
    generate_annotations,
    reconstruct_ellipsoid,
)
from .simulator import (
    DEG,
    DETECTOR_KINDS,
    CameraRig,
    DetectorModel,
    OrientationNoise,
    SceneObject,
    SceneSpec,
    cloud_of_scene,
    default_camera,
    l_shaped_prism,
    look_at,
    min_enclosing_ellipse,
    perturb_orientation,
    run_detector,
    sample_cameras,
    sample_ellipsoid_surface,
    tless_like_board,
    view_rng,
)

_ORIENT_STREAM = 7919  # detector and orientation draws use distinct streams


@dataclass(frozen=True, eq=False)
class ViewResult:
    view_id: str
    n_inliers: int
    score: float
    rotation_error: float  # radians
    position_error: float  # world units
    reprojection_error: float  # pixels
    add_error: float  # world units


def noisy_orientations(views, noise: OrientationNoise, seed: int) -> dict:
    """Per-view world->camera rotations with the test-time Euler noise."""
    return {
        v.view_id: perturb_orientation(
            v.pose.R, noise, view_rng(seed, v.view_id, _ORIENT_STREAM)
        )
        for v in views
    }


def localize_views(
    views,
    detections_of,
    cloud: EllipsoidCloud,
    *,
    orientations: dict | None = None,
    eval_points: np.ndarray | None = None,
    mode: str = "orientation_known",
    iterations: int = 8,
    inlier_iou_threshold: float = 0.75,
    seed: int = 0,
    refine_orientation: bool = True,
):
    """Detections -> RANSAC -> errors against ground truth, view by view.

    ``detections_of(view)`` gives the view's (label, Ellipse) detections;
    ``orientations`` maps view ids to the world->camera rotations that
    orientation-known mode starts from (the ground truth when None);
    ``iterations`` and ``seed`` set the draws of full mode only.
    Without ``eval_points`` the reprojection and ADD errors are NaN.

    Returns (estimates, results, failures): view_id -> PoseEstimate, the
    per-view :class:`ViewResult` rows, and view_id -> reason for the views
    where no pose was found.
    """
    estimates, results, failures = {}, [], {}
    for view in views:
        detections = detections_of(view)
        R = view.pose.R if orientations is None else orientations[view.view_id]
        opts = RansacOptions(
            mode=mode,
            iterations=iterations,
            inlier_iou_threshold=inlier_iou_threshold,
            seed=seed,
            rotation=R if mode == "orientation_known" else None,
            refine_orientation=refine_orientation,
        )
        try:
            est = ransac_pose(detections, cloud, view.cam, opts)
        except ElliposeError as exc:
            failures[view.view_id] = f"{type(exc).__name__}: {exc}"
            continue
        estimates[view.view_id] = est
        rot, pos = pose_errors(est.pose, view.pose)
        if eval_points is None:
            reproj = add = float("nan")
        else:
            try:
                reproj = reprojection_error(est.pose, view.pose, view.cam, eval_points)
            except ElliposeError:
                reproj = float("inf")
            add = add_error(est.pose, view.pose, eval_points)
        results.append(
            ViewResult(view.view_id, len(est.inliers), est.score, rot, pos, reproj, add)
        )
    return estimates, results, failures


def noise_sweep(
    scene: SceneSpec,
    views,
    half_ranges,
    *,
    detectors=("inscribed_of_noisy_box", "oracle_with_box_noise"),
    orientation_noise: OrientationNoise = OrientationNoise(2.0 * DEG),
    seed: int = 0,
):
    """Median pose errors versus box-noise level, per detector model.

    The sweep keeps a tolerant inlier threshold (0.35): box-fitted ellipses
    differ from every possible outline in shape, and the point of the
    experiment is to measure how far they drag the pose, not to gate them
    out.  A detector whose ellipses do not depend on the box noise is
    localised once, and its row values are repeated at every level.
    The detectors see ``scene``, and the pose is solved against its
    ellipsoids.

    Returns rows of dicts with keys: half_range_px, detector, n_views,
    n_failures, median_position_error, median_rotation_error.
    """
    orients = noisy_orientations(views, orientation_noise, seed)
    cloud = cloud_of_scene(scene)
    summaries = {}
    rows = []
    for half_range in half_ranges:
        for kind in detectors:
            detector = DetectorModel(kind, float(half_range), seed=seed)
            key = (kind, detector.box_noise_half_range) if DETECTOR_KINDS[kind] else kind
            if key not in summaries:
                _, results, failures = localize_views(
                    views,
                    lambda view: [
                        (label, e) for label, e, _ in run_detector(detector, scene, view)
                    ],
                    cloud,
                    orientations=orients,
                    inlier_iou_threshold=0.35,
                    seed=seed,
                )
                pos = [r.position_error for r in results]
                rot = [r.rotation_error for r in results]
                summaries[key] = {
                    "n_views": len(results),
                    "n_failures": len(failures),
                    "median_position_error": float(np.median(pos)) if pos else float("nan"),
                    "median_rotation_error": float(np.median(rot)) if rot else float("nan"),
                }
            rows.append(
                {"half_range_px": float(half_range), "detector": kind, **summaries[key]}
            )
    return rows


# ---------------------------------------------------------------------------
# Reconstruction-consistency experiment (non-ellipsoidal object)
# ---------------------------------------------------------------------------


def reconstruction_consistency_experiment(*, n_build: int = 3, n_held: int = 8):
    """Compare two detection pipelines through reconstruction.

    Both reconstruct an ellipsoid from 3 views and reproject it into held
    out views.  With detections that are minimum-area enclosing ellipses of
    a projected L-shaped prism, the reprojections disagree with the held-out
    detections; with detections that are exact outlines of a fixed
    ellipsoid, they agree essentially perfectly.

    Returns (rows, mean_min_pipeline_iou, mean_gt_pipeline_iou); each row is
    (view_id, iou_min_pipeline, iou_gt_pipeline).
    """
    cam = default_camera()
    pts3d = l_shaped_prism()

    def ring(n, radius, elev, phase):
        out = []
        for k in range(n):
            az = 2 * math.pi * k / n + phase
            pos = radius * np.array(
                [math.cos(elev) * math.cos(az), math.cos(elev) * math.sin(az), math.sin(elev)]
            )
            out.append(CalibratedView(f"e{elev:.2f}a{k:02d}", cam, look_at(pos, (0, 0, 0))))
        return out

    build = ring(n_build, 7.0, 0.5, 0.0)
    held = ring(n_held, 6.0, 0.9, 0.3)

    def project_pts(view):
        pc = (view.pose.R @ pts3d.T).T + view.pose.t
        return (cam.K @ (pc / pc[:, 2:3]).T).T[:, :2]

    # pipeline 1: min-area enclosing ellipses of the projected prism
    obs = [
        Observation("L", min_enclosing_ellipse(project_pts(v)), v.view_id) for v in build
    ]
    E_min = reconstruct_ellipsoid(obs, build)

    # pipeline 2: exact outlines of a fixed ellipsoid abstraction
    E_gt = Ellipsoid((0.0, 0.0, 0.0), (1.3, 1.3, 0.55), rotation_z(0.3))
    obs_gt = [
        Observation("L", project_ellipsoid(E_gt, v.pose, v.cam), v.view_id) for v in build
    ]
    E_rec = reconstruct_ellipsoid(obs_gt, build)

    # every held view at once: one projection of each ellipsoid, one IoU
    # call per pipeline
    Rs = np.array([v.pose.R for v in held])
    ts = np.array([v.pose.t for v in held])
    Ks = np.array([v.cam.K for v in held])

    def outlines(E):  # pixel conics of the canonical outlines
        Qd = _quadric_duals(E.center[None], E.axes[None], E.rotation[None])
        centers, axes, angles, code, depth = _outlines(Rs, ts, Qd, E.center[None], Ks)
        if code.any():
            i = int(np.flatnonzero(code[:, 0])[0])
            raise _outline_error(int(code[i, 0]), float(depth[i, 0]))
        return _ellipse_conics(centers[:, 0], axes[:, 0], angles[:, 0])

    mins = [min_enclosing_ellipse(project_pts(v)) for v in held]
    M_min = _ellipse_conics(np.array([e.center for e in mins]), np.array([e.axes for e in mins]),
                            np.array([e.angle for e in mins]))
    iou_min = _conic_ious(M_min, outlines(E_min), 512)
    iou_gt = _conic_ious(outlines(E_gt), outlines(E_rec), 512)
    rows = [(v.view_id, a, b) for v, a, b in zip(held, iou_min.tolist(), iou_gt.tolist())]
    mean_min = float(np.mean([r[1] for r in rows]))
    mean_gt = float(np.mean([r[2] for r in rows]))
    return rows, mean_min, mean_gt


# ---------------------------------------------------------------------------
# Named scenarios (the `simulate` command)
# ---------------------------------------------------------------------------


def _board_dataset(params) -> tuple:
    scene = tless_like_board(params["n_objects"])
    rig = CameraRig(params["radius"], params["n_azimuth"], params["n_elevation"])
    views = sample_cameras(rig)
    annotations, _ = generate_annotations(cloud_of_scene(scene), views)  # exact outlines
    return scene, views, Dataset(views, annotations, scene)


def _run_tless_board(params, out_dir: Path, seed: int) -> list:
    _, _, dataset = _board_dataset(params)
    path = out_dir / "dataset.json"
    save_dataset(dataset, path)
    return [path]


def _run_linemod_single(params, out_dir: Path, seed: int) -> list:
    ellipsoid = Ellipsoid(
        (0.0, 0.0, 0.06), (0.09, 0.06, 0.05), rotation_z(40.0 * DEG)
    )
    scene = SceneSpec(
        (SceneObject("target", ellipsoid, sample_ellipsoid_surface(ellipsoid, 500)),)
    )
    rig = CameraRig(params["radius"], params["n_azimuth"], params["n_elevation"])
    views = sample_cameras(rig)
    dataset = Dataset(views, generate_annotations(cloud_of_scene(scene), views)[0], scene)
    noise = OrientationNoise(params["orientation_noise_deg"] * DEG)
    orients = noisy_orientations(views, noise, seed)
    p1 = out_dir / "dataset.json"
    p2 = out_dir / "orientations.json"
    save_dataset(dataset, p1)
    save_orientations(orients, p2)
    return [p1, p2]


def _run_fig3_demo(params, out_dir: Path, seed: int) -> list:
    rows, mean_min, mean_gt = reconstruction_consistency_experiment(
        n_build=params["n_build"], n_held=params["n_held"]
    )
    path = out_dir / "fig3_ious.csv"
    out_rows = [(vid, float(a), float(b)) for vid, a, b in rows]
    out_rows.append(("mean", mean_min, mean_gt))
    out_rows.append(("gap", mean_gt - mean_min, 0.0))
    write_csv(
        path,
        ["view_id", "iou_min_ellipse_pipeline[ratio]", "iou_gt_ellipsoid_pipeline[ratio]"],
        out_rows,
    )
    return [path]


def _run_noise_sweep(params, out_dir: Path, seed: int) -> list:
    scene, views, dataset = _board_dataset(params)
    rows = noise_sweep(
        scene,
        views,
        params["half_ranges"],
        seed=seed,
        orientation_noise=OrientationNoise(params["orientation_noise_deg"] * DEG),
    )
    p1 = out_dir / "dataset.json"
    p2 = out_dir / "noise_sweep.csv"
    save_dataset(dataset, p1)
    write_csv(
        p2,
        [
            "half_range_px",
            "detector",
            "n_views",
            "n_failures",
            "median_position_error[world]",
            "median_rotation_error[deg]",
        ],
        [
            (
                r["half_range_px"],
                r["detector"],
                r["n_views"],
                r["n_failures"],
                r["median_position_error"],
                r["median_rotation_error"] / DEG,
            )
            for r in rows
        ],
    )
    return [p1, p2]


SCENARIOS = {
    "tless_board": _run_tless_board,
    "linemod_single": _run_linemod_single,
    "fig3_demo": _run_fig3_demo,
    "noise_sweep": _run_noise_sweep,
}


def run_scenario(name: str, params: dict, out_dir, seed: int) -> list:
    """Run a named scenario; params it does not set take the defaults in
    :data:`dataio.SCENARIO_PARAMS` (which ``load_scenario`` checks)."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    defaults = {key: spec.default for key, spec in SCENARIO_PARAMS[name].items()}
    return SCENARIOS[name]({**defaults, **(params or {})}, out_dir, int(seed))
