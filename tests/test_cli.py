import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ellipose
from conftest import bbox_of_ellipse
from ellipose import dataio
from ellipose.cli import main
from ellipose.dataio import Dataset, PredictionRecord, PredictionSet
from ellipose.geometry import (
    Ellipse,
    crop_transform,
    project_ellipsoid,
    transform_ellipse,
)
from ellipose.multibin import MultibinConfig, perfect_prediction
from ellipose.reconstruction import generate_annotations
from ellipose.scenarios import cloud_of_scene
from ellipose.simulator import CameraRig, sample_cameras, tless_like_board


@pytest.fixture
def board(tmp_path):
    scene = tless_like_board(4)
    views = sample_cameras(CameraRig(0.75, 5, 2))
    annotations, _ = generate_annotations(cloud_of_scene(scene), views)
    dataset = Dataset(views, annotations, scene)
    path = tmp_path / "dataset.json"
    dataio.save_dataset(dataset, path)
    return scene, views, dataset, path


class TestReconstructCommand:
    def test_cloud_matches_scene(self, board, tmp_path):
        scene, views, dataset, dpath = board
        out = tmp_path / "cloud.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(out)]) == 0
        cloud = dataio.load_cloud(out)
        assert cloud.labels == [o.label for o in scene.objects]

    def test_label_in_two_views_fails(self, board, tmp_path):
        scene, views, dataset, dpath = board
        # keep obj01 in only two views
        doc = json.loads(dpath.read_text())
        kept = 0
        for vid in sorted(doc["annotations"]):
            rows = doc["annotations"][vid]
            doc["annotations"][vid] = [
                r for r in rows if r["label"] != "obj01" or (kept := kept + 1) <= 2
            ]
        dpath.write_text(json.dumps(doc))
        out = tmp_path / "cloud.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(out)]) == 3
        assert (
            main(["reconstruct", "--dataset", str(dpath), "--out", str(out), "--allow-partial"])
            == 0
        )
        cloud = dataio.load_cloud(out)
        assert "obj01" not in cloud.labels
        assert len(cloud.labels) == 3

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["reconstruct", "--dataset", str(bad), "--out", str(tmp_path / "c.json")]) == 2

    def test_annotations_list_exit_code(self, board, tmp_path, capsys):
        _, _, _, dpath = board
        doc = json.loads(dpath.read_text())
        doc["annotations"] = list(doc["annotations"].values())
        dpath.write_text(json.dumps(doc))
        out = tmp_path / "c.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"file={dpath}" in err and "field=annotations" in err


    def test_non_list_views_exit_code(self, board, tmp_path, capsys):
        _, _, _, dpath = board
        doc = json.loads(dpath.read_text())
        doc["views"] = 5
        dpath.write_text(json.dumps(doc))
        out = tmp_path / "c.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"file={dpath}" in err and "field=views" in err


    def test_dataset_directory_exit_code(self, tmp_path, capsys):
        out = tmp_path / "c.json"
        assert main(["reconstruct", "--dataset", str(tmp_path), "--out", str(out)]) == 2
        assert f"file={tmp_path}" in capsys.readouterr().err


class TestAnnotateCommand:
    def test_round_trip_annotations(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        out = tmp_path / "ann.json"
        assert main(["annotate", "--dataset", str(dpath), "--cloud", str(cloud_path), "--out", str(out)]) == 0
        anns, skipped = dataio.load_annotations(out)
        assert set(anns) == {v.view_id for v in views}
        for vid, a in anns.items():
            assert len(a.labels) == len(scene.objects)


class TestPoseCommand:
    def test_exact_annotations_near_zero_error(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        poses = tmp_path / "poses.json"
        metrics = tmp_path / "metrics.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(poses), "--out-metrics", str(metrics),
                "--seed", "3", "--iterations", "6",
            ]
        )
        assert rc == 0
        lines = metrics.read_text().splitlines()
        assert lines[0].startswith("view_id,n_inliers,mean_inlier_iou[ratio],rotation_error[deg]")
        assert len(lines) == len(views) + 1
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[4]) < 1e-4  # position error, world units
            assert float(cells[5]) < 0.1  # reprojection error, px
        doc = json.loads(poses.read_text())
        assert len(doc["poses"]) == len(views)

    def test_predictions_path(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cfg = MultibinConfig(8, 0.1)
        crop_size = 224.0
        records = {}
        for v in views:
            rows = []
            for obj in scene.objects:
                e = project_ellipsoid(obj.ellipsoid, v.pose, v.cam)
                box = bbox_of_ellipse(e)
                T = crop_transform(box, crop_size)
                e_crop = transform_ellipse(e, T)
                rows.append(PredictionRecord(obj.label, box, perfect_prediction(e_crop, cfg)))
            records[v.view_id] = rows
        ds = Dataset(views, dataset.annotations, scene, PredictionSet(crop_size, cfg, records))
        dpath2 = tmp_path / "with_preds.json"
        dataio.save_dataset(ds, dpath2)
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath2), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--detections", "predictions", "--seed", "1", "--iterations", "6",
            ]
        )
        assert rc == 0
        for line in metrics.read_text().splitlines()[1:]:
            assert float(line.split(",")[4]) < 1e-4

    @staticmethod
    def _pose_with_bad_prediction(board, tmp_path, key, value):
        """Exit code of ``pose --detections predictions`` on a dataset whose
        one prediction record has ``key`` set to ``value``, and the path."""
        scene, views, dataset, dpath = board
        cfg = MultibinConfig(8, 0.1)
        pred = perfect_prediction(Ellipse((112.0, 112.0), (60.0, 30.0), 0.4), cfg)
        records = {views[0].view_id: [PredictionRecord("obj01", np.array([5.0, 5.0, 50.0, 60.0]), pred)]}
        ds = Dataset(views, dataset.annotations, scene, PredictionSet(224.0, cfg, records))
        dpath2 = tmp_path / "with_preds.json"
        dataio.save_dataset(ds, dpath2)
        doc = json.loads(dpath2.read_text())
        doc["predictions"]["records"][views[0].view_id][0][key] = value
        dpath2.write_text(json.dumps(doc))
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        rc = main(
            [
                "pose", "--dataset", str(dpath2), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(tmp_path / "m.csv"),
                "--detections", "predictions",
            ]
        )
        return rc, dpath2

    def test_nan_prediction_is_parse_error(self, board, tmp_path, capsys):
        rc, path = self._pose_with_bad_prediction(board, tmp_path, "bin_scores", [math.nan] * 8)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"file={path}" in err and "field=bin_scores" in err

    def test_non_positive_dims_is_parse_error(self, board, tmp_path, capsys):
        rc, path = self._pose_with_bad_prediction(board, tmp_path, "dims", [60.0, -1.0])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"file={path}" in err and "field=dims" in err

    def test_orientation_file_used(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        from ellipose.scenarios import noisy_orientations
        from ellipose.simulator import DEG, OrientationNoise

        orients = noisy_orientations(views, OrientationNoise(2 * DEG), 7)
        opath = tmp_path / "orient.json"
        dataio.save_orientations(orients, opath)
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--orientation-file", str(opath), "--keep-orientation",
                "--iou-threshold", "0.35", "--seed", "2", "--iterations", "6",
            ]
        )
        assert rc == 0
        rot_errs = [float(l.split(",")[3]) for l in metrics.read_text().splitlines()[1:]]
        # orientation kept as provided: rotation error equals the injected noise
        assert all(1e-4 < r < 3.5 for r in rot_errs)

    def test_partial_orientation_file_is_parse_error(self, board, tmp_path, capsys):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        opath = tmp_path / "orient.json"
        dataio.save_orientations({v.view_id: v.pose.R for v in views[:3]}, opath)
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"),
                "--out-metrics", str(tmp_path / "m.csv"),
                "--orientation-file", str(opath), "--keep-orientation",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"file={opath} | record=orientations[{views[3].view_id}]\n" in err

    def test_bad_skipped_in_annotations_file_is_parse_error(self, board, tmp_path, capsys):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        ann_path = tmp_path / "ann.json"
        assert main(["annotate", "--dataset", str(dpath), "--cloud", str(cloud_path),
                     "--out", str(ann_path)]) == 0
        doc = json.loads(ann_path.read_text())
        doc["skipped"] = 5
        ann_path.write_text(json.dumps(doc))
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--annotations-file", str(ann_path),
                "--out-poses", str(tmp_path / "p.json"),
                "--out-metrics", str(tmp_path / "m.csv"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"file={ann_path}" in err and "record=<root>" in err and "field=skipped" in err

    def test_sceneless_dataset_nan_scene_metrics(self, board, tmp_path):
        scene, views, dataset, dpath = board
        dataio.save_dataset(Dataset(views, dataset.annotations), dpath)
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--seed", "3", "--iterations", "6",
            ]
        )
        assert rc == 0
        rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
        assert len(rows) == len(views)
        for cells in rows:
            rot, pos, reproj, add = (float(c) for c in cells[3:])
            assert math.isfinite(rot) and pos < 1e-4
            assert math.isnan(reproj) and math.isnan(add)

    def test_reconstructed_cloud_with_its_own_annotations(self, board, tmp_path):
        # full closed loop: boxes -> cloud -> regenerated annotations -> pose;
        # the cloud differs from the true objects but its reprojections
        # recover the pose essentially exactly
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        ann_path = tmp_path / "ann.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(cloud_path)]) == 0
        assert main(["annotate", "--dataset", str(dpath), "--cloud", str(cloud_path), "--out", str(ann_path)]) == 0
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--annotations-file", str(ann_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--seed", "1", "--iterations", "6",
            ]
        )
        assert rc == 0
        for line in metrics.read_text().splitlines()[1:]:
            assert float(line.split(",")[4]) < 1e-6

    def test_detector_detections(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--detections", "detector", "--detector-kind", "inscribed_of_noisy_box",
                "--box-noise", "5.0", "--iou-threshold", "0.35",
                "--seed", "4", "--iterations", "6",
            ]
        )
        assert rc == 0
        pos_errs = [float(l.split(",")[4]) for l in metrics.read_text().splitlines()[1:]]
        assert len(pos_errs) == len(views)
        assert all(e < 0.5 for e in pos_errs)  # noisy baseline, coarse bound

    @pytest.mark.parametrize("noise", ["inf", "nan", "1e400", "-0.0"])
    def test_box_noise_must_be_finite(self, board, tmp_path, capsys, noise):
        # a non-finite half-range exits 2 naming it, and -0.0 runs as 0.0
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)

        def run(value):
            outputs = tmp_path / f"p_{value}.json", tmp_path / f"m_{value}.csv"
            rc = main(
                [
                    "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                    "--out-poses", str(outputs[0]), "--out-metrics", str(outputs[1]),
                    "--detections", "detector", "--detector-kind", "inscribed_of_noisy_box",
                    "--box-noise", value, "--iou-threshold", "0.35",
                    "--seed", "4", "--iterations", "4",
                ]
            )
            return rc, [path.read_bytes() for path in outputs if path.exists()]

        rc, outputs = run(noise)
        if noise == "-0.0":
            assert rc == 0 and run("0.0") == (0, outputs) and len(outputs) == 2
        else:
            assert rc == 2 and not outputs
            assert "box noise half-range must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("detections", ["annotations", "detector"])
    def test_negative_seed_exit_code(self, board, tmp_path, capsys, detections):
        # a negative seed exits 2 naming it, before any view is solved
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        poses = tmp_path / "p.json"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(poses), "--out-metrics", str(tmp_path / "m.csv"),
                "--mode", "full", "--detections", detections, "--seed", "-1",
            ]
        )
        assert rc == 2 and not poses.exists()
        assert "seed must be an int >= 0, got -1" in capsys.readouterr().err

    def test_full_mode(self, board, tmp_path):
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        metrics = tmp_path / "m.csv"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(tmp_path / "p.json"), "--out-metrics", str(metrics),
                "--mode", "full", "--seed", "6", "--iterations", "4",
            ]
        )
        assert rc == 0
        for line in metrics.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert float(cells[3]) < 0.01  # rotation error, degrees
            assert float(cells[4]) < 1e-3  # position error, world units

    @pytest.mark.parametrize("command", ["pose", "annotate"])
    def test_full_mode_independent_of_blas_threads(self, board, tmp_path, command):
        # batched linear algebra must not make the output depend on how
        # many threads the BLAS runs: the full-mode poses, and the
        # annotations of one projection-kernel call over all views
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(ellipose.__file__).parents[1]))
            out = tmp_path / f"{command}_{threads}.json"
            args = {
                "pose": ["--out-poses", str(out), "--out-metrics", str(tmp_path / f"m_{threads}.csv"),
                         "--mode", "full", "--seed", "6", "--iterations", "4"],
                "annotate": ["--out", str(out)],
            }[command]
            subprocess.run(
                [sys.executable, "-m", "ellipose", command, "--dataset", str(dpath),
                 "--cloud", str(cloud_path), *args],
                env=env, check=True, timeout=300,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("source, message", [
        (["--detections", "predictions"], "dataset carries no predictions"),
        (["--detections", "detector", "--detector-kind", "bogus"], "unknown detector kind 'bogus'"),
    ])
    def test_detection_source_checked_without_views(self, board, tmp_path, capsys,
                                                    source, message):
        # the source is checked once before any view, so a dataset with no
        # views still exits 2 rather than 3 ("no view produced a pose")
        scene, views, dataset, dpath = board
        doc = json.loads(dpath.read_text())
        doc["views"], doc["annotations"] = [], {}
        dpath.write_text(json.dumps(doc))
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        poses = tmp_path / "p.json"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(poses), "--out-metrics", str(tmp_path / "m.csv"), *source,
            ]
        )
        assert rc == 2 and not poses.exists()
        err = capsys.readouterr().err
        assert message in err
        if source[1] == "predictions":
            assert f"file={dpath}" in err

    def test_every_view_fails(self, board, tmp_path, capsys):
        # full mode needs two correspondences; a cloud of obj01 alone gives one
        scene, views, dataset, dpath = board
        cloud_path = tmp_path / "cloud.json"
        assert main(["reconstruct", "--dataset", str(dpath), "--out", str(cloud_path),
                     "--labels", "obj01"]) == 0
        poses = tmp_path / "p.json"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(poses), "--out-metrics", str(tmp_path / "m.csv"),
                "--mode", "full", "--iterations", "4",
            ]
        )
        assert rc == 3
        doc = json.loads(poses.read_text())
        assert doc["poses"] == {}
        assert sorted(doc["failures"]) == sorted(v.view_id for v in views)
        assert all(r.startswith("NoValidPose: ") for r in doc["failures"].values())
        warnings = [l for l in capsys.readouterr().err.splitlines() if l.startswith("warning:")]
        assert sorted(warnings) == sorted(
            f"warning: no pose for view {vid}: {r}" for vid, r in doc["failures"].items())
        assert len(warnings) == len(views)

    def test_some_views_fail(self, board, tmp_path, capsys):
        # views without annotations fail alone; the others still get a pose
        scene, views, dataset, dpath = board
        failing = sorted(v.view_id for v in views[::3])
        doc = json.loads(dpath.read_text())
        for vid in failing:
            doc["annotations"][vid] = []
        dpath.write_text(json.dumps(doc))
        cloud_path = tmp_path / "cloud.json"
        dataio.save_cloud(cloud_of_scene(scene), cloud_path)
        poses = tmp_path / "p.json"
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(cloud_path),
                "--out-poses", str(poses), "--out-metrics", str(tmp_path / "m.csv"),
            ]
        )
        assert rc == 0
        doc = json.loads(poses.read_text())
        assert sorted(doc["failures"]) == failing
        assert sorted(doc["poses"]) == sorted(set(v.view_id for v in views) - set(failing))
        assert all(r.startswith("NoValidPose: ") for r in doc["failures"].values())
        err = capsys.readouterr().err
        assert err.count("warning: no pose for view") == len(failing)

    def test_missing_cloud_is_parse_error(self, board, tmp_path):
        scene, views, dataset, dpath = board
        rc = main(
            [
                "pose", "--dataset", str(dpath), "--cloud", str(tmp_path / "nope.json"),
                "--out-poses", str(tmp_path / "p.json"),
                "--out-metrics", str(tmp_path / "m.csv"),
            ]
        )
        assert rc == 2


class TestSimulateCommand:
    def _scenario(self, tmp_path, name, params, seed=3):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps({"schema_version": 1, "name": name, "seed": seed, "params": params})
        )
        return path

    def test_fig3_demo(self, tmp_path):
        spath = self._scenario(tmp_path, "fig3_demo", {"n_held": 5})
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out)]) == 0
        lines = (out / "fig3_ious.csv").read_text().splitlines()
        gap_row = [l for l in lines if l.startswith("gap,")][0]
        assert float(gap_row.split(",")[1]) > 0.02

    def test_noise_sweep_zero_levels_identical_medians(self, tmp_path):
        spath = self._scenario(
            tmp_path,
            "noise_sweep",
            {"n_azimuth": 4, "n_elevation": 1, "half_ranges": [0.0]},
        )
        out = tmp_path / "out"
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out)]) == 0
        rows = (out / "noise_sweep.csv").read_text().splitlines()[1:]
        assert len(rows) == 2  # one per detector at the single level

    def test_tless_board_and_linemod_single(self, tmp_path):
        for name in ("tless_board", "linemod_single"):
            spath = self._scenario(tmp_path, name, {"n_azimuth": 3, "n_elevation": 1})
            out = tmp_path / f"out_{name}"
            assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out)]) == 0
            ds = dataio.load_dataset(out / "dataset.json")
            assert ds.scene is not None and len(ds.views) == 3

    def test_unknown_scenario(self, tmp_path):
        spath = self._scenario(tmp_path, "nope", {})
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(tmp_path / "o")]) == 2

    def test_list_document_exit_code(self, tmp_path, capsys):
        spath = tmp_path / "scenario.json"
        spath.write_text(json.dumps([{"schema_version": 1, "name": "fig3_demo"}]))
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(tmp_path / "o")]) == 2
        assert f"file={spath}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("seed", [3]), ("params", [1])], ids=["seed", "params"])
    def test_bad_field_exit_code(self, tmp_path, capsys, key, value):
        spath = self._scenario(tmp_path, "fig3_demo", {})
        doc = json.loads(spath.read_text())
        doc[key] = value
        spath.write_text(json.dumps(doc))
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"file={spath}" in err and f"field={key}" in err

    @pytest.mark.parametrize(
        "name, params, record, field",
        [
            ("noise_sweep", {"radius": None}, "params", "radius"),
            ("noise_sweep", {"n_azimuth": None}, "params", "n_azimuth"),
            ("noise_sweep", {"n_elevation": [1]}, "params", "n_elevation"),
            ("noise_sweep", {"half_ranges": 5}, "params", "half_ranges"),
            ("noise_sweep", {"n_azimuth": "abc"}, "params", "n_azimuth"),
            ("fig3_demo", {"n_build": 2}, "params", "n_build"),
            ("fig3_demo", {"n_held": 0}, "params", "n_held"),
            ("fig3_demo", {"n_held": 1, "n_views": 3}, "params", "n_views"),
            ("noise_sweep", {"iterations": 4}, "params", "iterations"),
            ("nope", {}, "<root>", "name"),
        ],
        ids=[
            "radius_null", "n_azimuth_null", "n_elevation_list", "half_ranges_number",
            "n_azimuth_string", "n_build_2", "n_held_0", "unknown_param",
            "noise_sweep_iterations", "unknown_scenario",
        ],
    )
    def test_bad_param_named(self, tmp_path, capsys, name, params, record, field):
        spath = self._scenario(tmp_path, name, params)
        out = tmp_path / "o"
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"file={spath}" in err and f"record={record}" in err and f"field={field}" in err
        assert not out.exists()

    def test_seeded_rerun_identical_bytes(self, tmp_path):
        spath = self._scenario(
            tmp_path,
            "noise_sweep",
            {"n_azimuth": 3, "n_elevation": 1, "half_ranges": [0.0, 10.0]},
            seed=11,
        )
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(spath), "--out-dir", str(out2)]) == 0
        assert (out1 / "noise_sweep.csv").read_bytes() == (out2 / "noise_sweep.csv").read_bytes()
        assert (out1 / "dataset.json").read_bytes() == (out2 / "dataset.json").read_bytes()
