"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured figures (run pytest with -s or read the captured output)."""

import json
import math
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from conftest import (
    conic_distance,
    conic_residuals,
    ellipsoids_equivalent,
    pair_row,
    placed_and_refined,
    random_ellipse,
    random_ellipsoid,
    random_rotation,
    scene_from_cloud,
    shape_matrix,
    stretched_cloud,
    two_pair_pose,
)
from ellipose.cli import main as cli_main
from ellipose.errors import AmbiguousSolution
from ellipose.geometry import (
    Ellipse,
    Ellipsoid,
    Pose,
    conic_to_ellipse,
    ellipse_to_conic,
    dual_quadric_to_ellipsoid,
    ellipsoid_to_dual_quadric,
    project_ellipsoid,
    wrap_angle_half_pi,
    FrameTransform,
)
from ellipose.metrics import ellipse_iou, pose_errors
from ellipose.multibin import MultibinConfig, decode_prediction, perfect_prediction
from ellipose.pose import RansacOptions, ransac_pose
from ellipose.reconstruction import CalibratedView, EllipsoidCloud, Observation, reconstruct_ellipsoid
from ellipose.scenarios import (
    cloud_of_scene,
    noise_sweep,
    reconstruction_consistency_experiment,
)
from ellipose.simulator import (
    DEG,
    CameraRig,
    default_camera,
    look_at,
    min_enclosing_ellipse,
    sample_cameras,
    sample_ellipsoid_surface,
    tless_like_board,
)

RIG_RADIUS = 0.75
SWEEP_LEVELS = (0.0, 5.0, 10.0, 15.0, 20.0)
SWEEP_SEED = 17


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def ring_views(n, radius, target=(0.0, 0.0, 0.0), elevation=0.5, phase=0.0, cam=None):
    cam = cam or default_camera()
    views = []
    for k in range(n):
        az = 2 * math.pi * k / n + phase
        pos = np.asarray(target) + radius * np.array(
            [math.cos(elevation) * math.cos(az), math.cos(elevation) * math.sin(az), math.sin(elevation)]
        )
        views.append(CalibratedView(f"v{k}", cam, look_at(pos, target)))
    return views


def test_criterion_1_geometry_round_trips():
    start = time.time()
    rng = np.random.default_rng(101)
    worst_e = 0.0
    for _ in range(10000):
        e = random_ellipse(rng)
        back = conic_to_ellipse(ellipse_to_conic(e))
        worst_e = max(
            worst_e,
            float(np.abs(back.center - e.center).max()) / max(1.0, abs(e.center).max()),
            float(np.abs(back.axes - e.axes).max() / e.axes[0]),
            abs(wrap_angle_half_pi(back.angle - e.angle)),
        )
    assert worst_e < 1e-10
    worst_q = 0.0
    for _ in range(10000):
        E = random_ellipsoid(rng)
        back = dual_quadric_to_ellipsoid(ellipsoid_to_dual_quadric(E))
        worst_q = max(
            worst_q,
            float(np.abs(back.center - E.center).max()),
            float(np.linalg.norm(shape_matrix(back) - shape_matrix(E))),
        )
    assert worst_q < 1e-10

    cam = default_camera()
    min_iou = 1.0
    for _ in range(200):
        E = random_ellipsoid(rng, center_scale=0.4)
        d = rng.uniform(4.0, 8.0)
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 1.3)
        pos = E.center + d * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )
        pose = look_at(pos, E.center + rng.uniform(-0.2, 0.2, 3))
        outline = project_ellipsoid(E, pose, cam)
        pts = sample_ellipsoid_surface(E, 20000)
        pc = (pose.R @ pts.T).T + pose.t
        uv = (cam.K @ (pc / pc[:, 2:3]).T).T[:, :2]
        min_iou = min(min_iou, ellipse_iou(outline, min_enclosing_ellipse(uv)))
    elapsed = time.time() - start
    _report(
        1,
        worst_e < 1e-10 and worst_q < 1e-10 and min_iou > 0.999 and elapsed < 30.0,
        f"round-trip errors {worst_e:.2e}/{worst_q:.2e} (tol 1e-10), "
        f"silhouette IoU min {min_iou:.5f} (>0.999), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_reconstruction():
    start = time.time()
    rng = np.random.default_rng(202)
    worst_geom = 0.0
    worst_reproj = 0.0
    for _ in range(100):
        E = random_ellipsoid(rng, center_scale=0.3)
        n_views = int(rng.integers(3, 6))
        views = ring_views(n_views, radius=6.0, elevation=rng.uniform(0.2, 0.9), phase=rng.uniform(0, 2))
        held = ring_views(5, radius=5.0, elevation=rng.uniform(0.95, 1.2), phase=rng.uniform(0, 2))
        obs = [Observation("x", project_ellipsoid(E, v.pose, v.cam), v.view_id) for v in views]
        out = reconstruct_ellipsoid(obs, views)
        worst_geom = max(
            worst_geom,
            float(np.abs(out.center - E.center).max()),
            float(np.abs(np.sort(out.axes) - np.sort(E.axes)).max()),
        )
        for v in held:
            got = ellipse_to_conic(project_ellipsoid(out, v.pose, v.cam))
            want = ellipse_to_conic(project_ellipsoid(E, v.pose, v.cam))
            worst_reproj = max(worst_reproj, conic_distance(got, want))
    elapsed = time.time() - start
    _report(
        2,
        worst_geom < 1e-7 and worst_reproj < 1e-6 and elapsed < 30.0,
        f"center/axes error {worst_geom:.2e} (<1e-7), held-out conic residual "
        f"{worst_reproj:.2e} (<1e-6), {elapsed:.1f}s (<30s)",
    )


def _two_pair_scene(rng):
    while True:
        E1 = random_ellipsoid(rng, center_scale=0.5)
        E2 = random_ellipsoid(rng, center_scale=0.5)
        if np.linalg.norm(E1.center - E2.center) > 0.3:
            return E1, E2


def test_criterion_3_pose_round_trips():
    start = time.time()
    rng = np.random.default_rng(303)
    cam = default_camera()

    worst_pos = 0.0
    for _ in range(100):
        E = random_ellipsoid(rng, center_scale=0.5)
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.25, 1.1)
        pos = E.center + 2.0 * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )
        pose = look_at(pos, E.center + rng.uniform(-0.1, 0.1, 3))
        ell = project_ellipsoid(E, pose, cam)
        t = placed_and_refined(pair_row(ell, E), pose.R, cam)
        worst_pos = max(worst_pos, float(np.linalg.norm(t - pose.t)))
    assert worst_pos < 1e-6

    worst_rot2 = worst_pos2 = 0.0
    for _ in range(100):
        E1, E2 = _two_pair_scene(rng)
        mid = 0.5 * (E1.center + E2.center)
        az, el = rng.uniform(0, 2 * math.pi), rng.uniform(0.25, 1.1)
        pos = mid + 2.2 * np.array(
            [math.cos(el) * math.cos(az), math.cos(el) * math.sin(az), math.sin(el)]
        )
        pose = look_at(pos, mid)
        c1 = pair_row(project_ellipsoid(E1, pose, cam), E1)
        c2 = pair_row(project_ellipsoid(E2, pose, cam), E2)
        try:
            est = two_pair_pose(c1, c2, cam)
        except AmbiguousSolution as exc:
            est = min(exc.candidates, key=lambda p: pose_errors(p, pose)[0])
        rot, p = pose_errors(est, pose)
        worst_rot2 = max(worst_rot2, rot)
        worst_pos2 = max(worst_pos2, p)
    assert worst_rot2 < 1e-3 and worst_pos2 < 1e-3

    # RANSAC: 6 correspondences, 2 wrong labels (33% outliers), 10 scenes
    trials = hits = 0
    for scene_idx in range(10):
        objs = []
        for i in range(6):
            az = 2 * math.pi * i / 6
            center = np.array([0.25 * math.cos(az), 0.25 * math.sin(az), 0.05])
            axes = np.sort(rng.uniform(0.04, 0.1, size=3))[::-1]
            objs.append((f"o{i}", Ellipsoid(center, axes, random_rotation(rng))))
        cloud = EllipsoidCloud(tuple(objs))
        pose = look_at(
            1.8 * np.array([math.cos(scene_idx), math.sin(scene_idx), 1.0]) / math.sqrt(2.0),
            (0, 0, 0),
        )
        dets = []
        for i, (label, E) in enumerate(cloud.entries):
            e = project_ellipsoid(E, pose, cam)
            if i in (1, 4):  # 2 of 6 labels corrupted
                label = cloud.entries[(i + 2) % 6][0]
            dets.append((label, e))
        trials += 1
        est = ransac_pose(
            dets, cloud, cam, RansacOptions(mode="orientation_known", rotation=pose.R)
        )
        _, p = pose_errors(est.pose, pose)
        hits += p < 1e-3
    elapsed = time.time() - start
    _report(
        3,
        worst_pos < 1e-6 and worst_rot2 < 1e-3 and worst_pos2 < 1e-3
        and hits == trials and elapsed < 120.0,
        f"single-pair pos {worst_pos:.2e} (<1e-6), two-pair {worst_rot2:.2e} rad / "
        f"{worst_pos2:.2e} units (<1e-3), RANSAC {hits}/{trials} (all), "
        f"{elapsed:.1f}s (<120s)",
    )


def test_criterion_4_multibin():
    start = time.time()
    rng = np.random.default_rng(404)
    cfg = MultibinConfig(8, 0.1)
    ident = FrameTransform(np.eye(3))
    worst = 0.0
    for _ in range(10000):
        theta = rng.uniform(-math.pi / 2 + 1e-12, math.pi / 2)
        gt = Ellipse(rng.uniform(0, 224, 2), (40.0, 20.0), theta)
        out = decode_prediction(perfect_prediction(gt, cfg), cfg, ident)
        worst = max(worst, abs(wrap_angle_half_pi(out.angle - theta)))
    elapsed = time.time() - start
    _report(4, worst < 1e-9, f"decode-encode {worst:.2e} (<1e-9), {elapsed:.1f}s")


def test_criterion_5_reconstruction_consistency_gap():
    start = time.time()
    rows, mean_min, mean_gt = reconstruction_consistency_experiment(n_build=3, n_held=8)
    gap = mean_gt - mean_min
    elapsed = time.time() - start
    _report(
        5,
        gap >= 0.02 and mean_gt > 0.999 and elapsed < 60.0,
        f"min-ellipse pipeline IoU {mean_min:.4f}, exact-outline pipeline "
        f"{mean_gt:.4f} (>0.999), gap {gap:.4f} (>=0.02), {elapsed:.1f}s (<60s)",
    )


@pytest.fixture(scope="module")
def board_protocol():
    scene = tless_like_board(6)
    views = sample_cameras(CameraRig(RIG_RADIUS, 25, 10))
    return scene, views


@pytest.fixture(scope="module")
def oracle_sweep_results(board_protocol):
    scene, views = board_protocol
    start = time.time()
    rows = noise_sweep(scene, views, SWEEP_LEVELS, seed=SWEEP_SEED)
    return rows, time.time() - start


def test_criterion_6_box_noise_sweep(oracle_sweep_results):
    rows, elapsed = oracle_sweep_results
    ins = {r["half_range_px"]: r for r in rows if r["detector"] == "inscribed_of_noisy_box"}
    ora = {r["half_range_px"]: r for r in rows if r["detector"] == "oracle_with_box_noise"}
    assert all(r["n_failures"] == 0 for r in rows)
    levels = list(SWEEP_LEVELS)
    ins_med = [ins[h]["median_position_error"] for h in levels]
    ora_med = [ora[h]["median_position_error"] for h in levels]
    rho = float(spearmanr(levels, ins_med).statistic)
    exceeds = all(ins[h]["median_position_error"] > ora[h]["median_position_error"]
                  for h in levels if h >= 5.0)
    zero_noise_ok = ora[0.0]["median_position_error"] < 0.01 * RIG_RADIUS
    detail = (
        f"inscribed medians {[f'{m * 1000:.1f}mm' for m in ins_med]}, Spearman {rho:.3f} (>0.9), "
        f"oracle at 0px {ora_med[0] * 1000:.2e}mm (<{10 * RIG_RADIUS:.1f}mm), "
        f"inscribed>oracle at >=5px: {exceeds}, sweep {elapsed:.0f}s (<300s)"
    )
    _report(6, rho > 0.9 and exceeds and zero_noise_ok and elapsed < 300.0, detail)


def test_criterion_7_ellipsoid_choice_invariance(board_protocol, oracle_sweep_results):
    scene, views = board_protocol
    base = {
        r["half_range_px"]: r["median_position_error"]
        for r in oracle_sweep_results[0]
        if r["detector"] == "oracle_with_box_noise"
    }
    variant_cloud = stretched_cloud(cloud_of_scene(scene), scale=1.5, angle=30.0 * DEG)
    rows = noise_sweep(
        scene, views, SWEEP_LEVELS,
        detectors=("oracle_with_box_noise",),
        seed=SWEEP_SEED,
        detection_scene=scene_from_cloud(variant_cloud, scene),
    )
    floor = 1e-4 * RIG_RADIUS  # both pipelines at numerical zero: no influence
    ok = True
    details = []
    for r in rows:
        h = r["half_range_px"]
        b, v = base[h], r["median_position_error"]
        if max(b, v) < floor:
            details.append(f"h={h:g}: both <{floor:.1e} (vacuous)")
            continue
        rel = abs(v - b) / max(b, 1e-300)
        details.append(f"h={h:g}: rel change {rel:.3f}")
        ok = ok and rel < 0.20
    _report(7, ok, "; ".join(details))


def test_criterion_8_cli_determinism(tmp_path):
    scenarios = {
        "tless_board": {"n_azimuth": 4, "n_elevation": 2},
        "linemod_single": {"n_azimuth": 4, "n_elevation": 2},
        "fig3_demo": {"n_held": 5},
        "noise_sweep": {
            "n_azimuth": 4, "n_elevation": 1,
            "half_ranges": [0.0, 10.0],
        },
    }
    all_ok = True
    notes = []
    for name, params in scenarios.items():
        spath = tmp_path / f"{name}.json"
        spath.write_text(
            json.dumps({"schema_version": 1, "name": name, "seed": 23, "params": params})
        )
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{name}_{run}"
            rc = cli_main(["simulate", "--scenario", str(spath), "--out-dir", str(out)])
            assert rc == 0
            outs.append(out)
        files = sorted(p.name for p in outs[0].iterdir())
        same = all(
            (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes() for f in files
        )
        all_ok = all_ok and same
        notes.append(f"{name}: {'identical' if same else 'DIFFERS'} ({', '.join(files)})")
    _report(8, all_ok, "; ".join(notes))
