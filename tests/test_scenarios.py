import numpy as np

from ellipose import scenarios
from ellipose.scenarios import noise_sweep, noisy_orientations, run_pose_experiment
from ellipose.simulator import (
    DEG,
    CameraRig,
    DetectorModel,
    OrientationNoise,
    sample_cameras,
    tless_like_board,
)


def test_sweep_runs_noise_free_detector_once(monkeypatch):
    scene = tless_like_board(6)
    views = sample_cameras(CameraRig(0.75, 4, 2))
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return run_pose_experiment(*args, **kwargs)

    monkeypatch.setattr(scenarios, "run_pose_experiment", counting)
    rows = noise_sweep(scene, views, (0.0, 10.0), seed=17)
    assert [(d.kind, d.box_noise_half_range) for d in calls] == [
        ("inscribed_of_noisy_box", 0.0),
        ("oracle_with_box_noise", 0.0),
        ("inscribed_of_noisy_box", 10.0),
    ]

    oracle = {r["half_range_px"]: r for r in rows if r["detector"] == "oracle_with_box_noise"}
    assert oracle[0.0] == {**oracle[10.0], "half_range_px": 0.0}

    orients = noisy_orientations(views, OrientationNoise(2.0 * DEG), 17)
    results, failures = run_pose_experiment(
        scene, views, DetectorModel("oracle_with_box_noise", 10.0, seed=17),
        orientations=orients, seed=17, iterations=8, inlier_iou_threshold=0.35,
        eval_points=scene.evaluation_points(200),
    )
    assert oracle[10.0] == {
        "half_range_px": 10.0,
        "detector": "oracle_with_box_noise",
        "n_views": len(results),
        "n_failures": len(failures),
        "median_position_error": float(np.median([r.position_error for r in results])),
        "median_rotation_error": float(np.median([r.rotation_error for r in results])),
    }
