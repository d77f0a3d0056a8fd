import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellipose
from ellipose import scenarios
from ellipose.dataio import SCENARIO_PARAMS
from ellipose.scenarios import cloud_of_scene, localize_views, noise_sweep, noisy_orientations
from ellipose.simulator import (
    DEG,
    CameraRig,
    DetectorModel,
    OrientationNoise,
    run_detector,
    sample_cameras,
    tless_like_board,
)


def test_sweep_runs_noise_free_detector_once(monkeypatch):
    scene = tless_like_board(6)
    views = sample_cameras(CameraRig(0.75, 4, 2))
    calls = []

    def counting(detector, *args, **kwargs):
        calls.append((detector.kind, detector.box_noise_half_range))
        return run_detector(detector, *args, **kwargs)

    monkeypatch.setattr(scenarios, "run_detector", counting)
    rows = noise_sweep(scene, views, (0.0, 10.0), seed=17)
    # one detector pass runs the detector once per view
    assert calls == [
        *[("inscribed_of_noisy_box", 0.0)] * len(views),
        *[("oracle_with_box_noise", 0.0)] * len(views),
        *[("inscribed_of_noisy_box", 10.0)] * len(views),
    ]

    oracle = {r["half_range_px"]: r for r in rows if r["detector"] == "oracle_with_box_noise"}
    assert oracle[0.0] == {**oracle[10.0], "half_range_px": 0.0}

    detector = DetectorModel("oracle_with_box_noise", 10.0, seed=17)
    _, results, failures = localize_views(
        views,
        lambda view: [(label, e) for label, e, _ in run_detector(detector, scene, view)],
        cloud_of_scene(scene),
        orientations=noisy_orientations(views, OrientationNoise(2.0 * DEG), 17),
        eval_points=scene.evaluation_points(200),
        inlier_iou_threshold=0.35,
        seed=17,
    )
    assert oracle[10.0] == {
        "half_range_px": 10.0,
        "detector": "oracle_with_box_noise",
        "n_views": len(results),
        "n_failures": len(failures),
        "median_position_error": float(np.median([r.position_error for r in results])),
        "median_rotation_error": float(np.median([r.rotation_error for r in results])),
    }


def test_every_scenario_has_a_param_table():
    assert set(scenarios.SCENARIOS) == set(SCENARIO_PARAMS)


@pytest.mark.parametrize("view_id, px, seed, n_inliers", [
    # at 20 px the box-fitted outlines are far off; each correspondence is
    # placed, and the best placement must carry the others into consensus
    ("el06_az000", 20.0, 6, 6),
    # per-pair outline limits inside the polish's LM left these two over
    # 100 mm off; the consensus check alone keeps them within 50 mm
    ("el03_az015", 10.0, 29, 6),
    ("el03_az010", 10.0, 6, 6),
])
def test_box_fitted_view_localises_with_orientation_known(view_id, px, seed, n_inliers):
    # one view of the 25 x 10 board rig under the criterion-6 protocol
    scene = tless_like_board(6)
    views = [v for v in sample_cameras(CameraRig(0.75, 25, 10)) if v.view_id == view_id]
    detector = DetectorModel("inscribed_of_noisy_box", px, seed=seed)
    _, results, failures = localize_views(
        views,
        lambda view: [(label, e) for label, e, _ in run_detector(detector, scene, view)],
        cloud_of_scene(scene),
        orientations=noisy_orientations(views, OrientationNoise(2.0 * DEG), seed),
        inlier_iou_threshold=0.35,
        seed=seed,
    )
    assert failures == {}
    (result,) = results
    assert result.n_inliers == n_inliers and result.position_error < 0.05


def test_fig3_demo_imports_no_scipy(tmp_path):
    # its point sets have at most 16 points, which need no convex hull; an
    # import of scipy.spatial would add about 30 MB to the process
    code = (
        "import sys\n"
        "from ellipose.scenarios import run_scenario\n"
        f"run_scenario('fig3_demo', {{}}, {str(tmp_path)!r}, 17)\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ellipose.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert (tmp_path / "fig3_ious.csv").exists()
    assert run.stdout.strip() == "[]"
