import contextlib
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    annotation_rows,
    bbox_of_ellipse,
    random_ellipse,
    random_ellipsoid,
    random_rotation,
    view_annotations,
)
from ellipose.cli import main
from ellipose.dataio import (
    Dataset,
    PredictionRecord,
    PredictionSet,
    SCHEMA_VERSION,
    load_annotations,
    load_cloud,
    load_dataset,
    load_orientations,
    save_annotations,
    save_cloud,
    save_dataset,
    save_orientations,
    save_poses,
    write_csv,
)
from ellipose.errors import ParseError, SchemaVersionMismatch
from ellipose.geometry import CameraModel, Ellipse, Pose
from ellipose.multibin import MultibinConfig, perfect_prediction
from ellipose.pose import PoseEstimate
from ellipose.reconstruction import CalibratedView, EllipsoidCloud, ViewAnnotations
from ellipose.scenarios import run_scenario
from ellipose.simulator import SceneObject, SceneSpec, default_camera, look_at


@pytest.fixture
def dataset(rng):
    cam = default_camera()
    views = [
        CalibratedView(f"v{k}", cam, look_at(rng.uniform(1, 2, 3), (0, 0, 0)))
        for k in range(3)
    ]
    e = random_ellipse(rng)
    annotations = {
        "v0": view_annotations([("a", bbox_of_ellipse(e), e)]),
        "v1": view_annotations([("a", (0, 0, 10, 10), None)]),
    }
    obj = SceneObject("a", random_ellipsoid(rng), model_points=rng.normal(size=(5, 3)))
    cfg = MultibinConfig(8, 0.1)
    gt_crop = Ellipse((112.0, 112.0), (60.0, 30.0), 0.4)
    preds = PredictionSet(
        224.0,
        cfg,
        {"v2": [PredictionRecord("a", np.array([5.0, 5.0, 50.0, 60.0]), perfect_prediction(gt_crop, cfg))]},
    )
    return Dataset(views, annotations, SceneSpec((obj,)), preds)


class TestDatasetRoundTrip:
    def test_lossless(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        back = load_dataset(path)
        assert [v.view_id for v in back.views] == [v.view_id for v in dataset.views]
        for a, b in zip(dataset.views, back.views):
            assert np.array_equal(a.cam.K, b.cam.K)
            assert np.array_equal(a.pose.R, b.pose.R)
            assert np.array_equal(a.pose.t, b.pose.t)
        a0 = dataset.annotations["v0"]
        b0 = back.annotations["v0"]
        assert np.array_equal(a0.centers, b0.centers)
        assert np.array_equal(a0.angles, b0.angles)
        assert np.isnan(back.annotations["v1"].angles[0])
        assert np.array_equal(
            dataset.scene.objects[0].model_points, back.scene.objects[0].model_points
        )
        p_a = dataset.predictions.records["v2"][0].prediction
        p_b = back.predictions.records["v2"][0].prediction
        assert np.array_equal(p_a.bin_scores, p_b.bin_scores)
        assert np.array_equal(p_a.corrections, p_b.corrections)
        # byte-identical re-serialization
        path2 = tmp_path / "d2.json"
        save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_missing_field_named(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        del doc["views"][0]["K"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert ei.value.field == "K"

    def test_annotations_list_named(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc["annotations"] = list(doc["annotations"].values())
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert ei.value.file == str(path)
        assert ei.value.field == "annotations"

    def test_schema_mismatch(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc["schema_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaVersionMismatch):
            load_dataset(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_dataset(path)

    @pytest.mark.parametrize(
        "file_kind, keys",
        [
            ("dataset", ("views",)),
            ("dataset", ("annotations", "v0")),
            ("dataset", ("scene", "objects")),
            ("dataset", ("predictions", "records", "v2")),
            ("cloud", ("objects",)),
            ("annotations", ("annotations", "v0")),
        ],
        ids=["views", "annotations", "scene", "predictions", "cloud", "annotation_rows"],
    )
    def test_non_list_field_named(self, dataset, rng, tmp_path, file_kind, keys):
        path = tmp_path / f"{file_kind}.json"
        if file_kind == "dataset":
            save_dataset(dataset, path)
            load = load_dataset
        elif file_kind == "cloud":
            save_cloud(EllipsoidCloud((("a", random_ellipsoid(rng)),)), path)
            load = load_cloud
        else:
            e = random_ellipse(rng)
            save_annotations({"v0": view_annotations([("a", bbox_of_ellipse(e), e)])}, [], path)
            load = load_annotations
        doc = json.loads(path.read_text())
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = 7
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load(path)
        assert ei.value.file == str(path)
        assert ei.value.field == keys[-1]

    @pytest.mark.parametrize("model_points", [[[1, 2]], [["a", 0, 0]]], ids=["2d", "non_numeric"])
    def test_bad_model_points_named(self, dataset, tmp_path, model_points):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc["scene"]["objects"][0]["model_points"] = model_points
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert ei.value.file == str(path)
        assert ei.value.record == "scene.objects[0]"
        assert ei.value.field == "model_points"

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("predictions", "n_bins", [8]),
            ("predictions", "overlap_fraction", {"a": 1}),
            ("predictions", "crop_size", "large"),
        ],
        ids=["n_bins", "overlap_fraction", "crop_size"],
    )
    def test_non_numeric_field_named(self, dataset, tmp_path, section, key, value):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc[section][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (str(path), section, key)

    def test_world_scale_neither_written_nor_read(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        assert list(doc["scene"]) == ["objects"]
        doc["scene"]["world_scale"] = 1.0  # as in datasets written before it was dropped
        path.write_text(json.dumps(doc))
        assert load_dataset(path).scene.objects[0].label == "a"

    @pytest.mark.parametrize(
        "record, key, value",
        [
            ("predictions[v2][0]", "bin_scores", "short"),
            ("predictions[v2][0]", "center", [math.nan, 1.0]),
            ("predictions", "crop_size", 0),
            ("predictions", "crop_size", math.nan),
            ("predictions[v2][0]", "bin_scores", [math.nan] * 8),
            ("predictions[v2][0]", "dims", [60, -1]),
            ("predictions[v2][0]", "dims", [0, 5]),
            ("predictions[v2][0]", "label", 7),
        ],
        ids=["short_bin_scores", "nan_center", "zero_crop_size", "nan_crop_size", "nan_bin_scores",
             "negative_dims", "zero_dims", "label_not_a_string"],
    )
    def test_bad_prediction_named(self, dataset, tmp_path, record, key, value):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        pdoc = doc["predictions"]
        rec = pdoc if record == "predictions" else pdoc["records"]["v2"][0]
        if value == "short":  # a head with one bin fewer than the file declares
            rec["bin_scores"] = rec["bin_scores"][:-1]
            rec["corrections"] = rec["corrections"][:-1]
        else:
            rec[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (str(path), record, key)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("K", [[500.0, 0, 320], [1.0, 500, 240], [0, 0, 1]]),
            ("K", [[500.0, 0, 320], [0, 500, 240]]),
            ("image_size", [-640.0, 480.0]),
            ("image_size", [640.0, math.inf]),
            ("R", [[1.0, 0, 0], [0, 1, 0], [0, 0, -1]]),
            ("t", [0.0, "x", 1.0]),
            ("view_id", None),
        ],
        ids=["K_not_intrinsics", "K_shape", "negative_image_size", "inf_image_size",
             "R_reflection", "t_non_numeric", "view_id_null"],
    )
    def test_bad_view_named(self, dataset, tmp_path, key, value):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc["views"][1][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (str(path), "views[1]", key)

    def test_bad_multibin_config_named(self, dataset, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        doc["predictions"]["n_bins"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record) == (str(path), "predictions")

    def test_duplicate_view_ids_rejected(self, rng):
        cam = default_camera()
        v = CalibratedView("v0", cam, look_at((1, 1, 1), (0, 0, 0)))
        with pytest.raises(ValueError):
            Dataset([v, v])

    def test_annotation_for_unknown_view_rejected(self, rng):
        cam = default_camera()
        v = CalibratedView("v0", cam, look_at((1, 1, 1), (0, 0, 0)))
        with pytest.raises(ValueError):
            Dataset([v], {"nope": []})


# Each record kind has one parser; these are the four places it is read.
# site -> (file kind, keys to the record in its document, record name)
_RECORD_SITES = {
    "dataset_object": ("dataset", ("scene", "objects", 0), "scene.objects[0]"),
    "cloud_object": ("cloud", ("objects", 0), "objects[0]"),
    "dataset_annotation": ("dataset", ("annotations", "v0", 0), "annotations[v0][0]"),
    "annotations_row": ("annotations", ("annotations", "v0", 0), "annotations[v0][0]"),
}
_OBJECT_FAULTS = {
    "center_shape": ("center", [0.0, 1.0]),
    "center_missing": ("center", None),
    "negative_axis": ("axes", [0.1, -0.2, 0.3]),
    "not_a_rotation": ("rotation", [[1, 0, 0], [0, 1, 0], [0, 0, 2]]),
    "non_numeric_rotation": ("rotation", [["x", 0, 0], [0, 1, 0], [0, 0, 1]]),
    "label_not_a_string": ("label", ["a"]),
}
_ANNOTATION_FAULTS = {
    "negative_ellipse_axis": ("ellipse", {"center": [1.0, 2.0], "axes": [-3.0, 2.0], "angle": 0.0}),
    "ellipse_missing_axes": ("ellipse", {"center": [1.0, 2.0], "angle": 0.0}),
    "ellipse_not_an_object": ("ellipse", [1.0, 2.0, 3.0]),
    "box_three_values": ("box", [0.0, 0.0, 10.0]),
    "box_five_values": ("box", [0.0, 0.0, 10.0, 10.0, 5.0]),
    "box_inverted": ("box", [10.0, 0.0, 0.0, 10.0]),
    "label_not_a_string": ("label", 7),
}
_RECORD_CASES = [
    (site, fault)
    for site in _RECORD_SITES
    for fault in (_OBJECT_FAULTS if site.endswith("object") else _ANNOTATION_FAULTS)
]


class TestRecordSites:
    def _write(self, kind, dataset, rng, path):
        e = random_ellipse(rng)
        if kind == "dataset":
            save_dataset(dataset, path)
            return load_dataset
        if kind == "cloud":
            save_cloud(EllipsoidCloud((("a", random_ellipsoid(rng)),)), path)
            return load_cloud
        save_annotations({"v0": view_annotations([("a", bbox_of_ellipse(e), e)])}, [], path)
        return load_annotations

    def _load_with(self, site, key, value, dataset, rng, tmp_path):
        kind, keys, record = _RECORD_SITES[site]
        path = tmp_path / f"{kind}.json"
        load = self._write(kind, dataset, rng, path)
        doc = json.loads(path.read_text())
        rec = doc
        for k in keys:
            rec = rec[k]
        if value is None and key != "ellipse":
            del rec[key]
        else:
            rec[key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load(path)
        assert (ei.value.file, ei.value.record) == (str(path), record)
        return ei.value

    @pytest.mark.parametrize("site, fault", _RECORD_CASES, ids=[f"{s}-{f}" for s, f in _RECORD_CASES])
    def test_malformed_record_named(self, dataset, rng, tmp_path, site, fault):
        key, value = {**_OBJECT_FAULTS, **_ANNOTATION_FAULTS}[fault]
        assert self._load_with(site, key, value, dataset, rng, tmp_path).field == key

    def test_null_ellipse_in_annotations_file_named(self, dataset, rng, tmp_path):
        err = self._load_with("annotations_row", "ellipse", None, dataset, rng, tmp_path)
        assert err.field == "ellipse"


class TestAnnotationArrays:
    """A view's records are held as arrays; a null ellipse is a NaN row."""

    @pytest.fixture
    def four_views(self, rng):
        cam = default_camera()
        views = [
            CalibratedView(f"v{k}", cam, look_at((1.0, k + 1.0, 1.5), (0, 0, 0))) for k in range(4)
        ]
        es = [random_ellipse(rng) for _ in range(3)]
        rows = [("a", bbox_of_ellipse(es[0]), es[0]), ("b", (0, 0, 9, 7), None),
                ("c", bbox_of_ellipse(es[1]), es[1]), ("d", bbox_of_ellipse(es[2]), es[2])]
        return Dataset(views, {"v1": view_annotations(rows[:1]), "v3": view_annotations(rows)})

    def test_null_ellipse_mid_view_round_trips_as_null(self, four_views, tmp_path):
        path = tmp_path / "d.json"
        save_dataset(four_views, path)
        text = path.read_text()
        assert "NaN" not in text
        assert [r["ellipse"] is None for r in json.loads(text)["annotations"]["v3"]] == [
            False, True, False, False]
        back = load_dataset(path)
        got, want = back.annotations["v3"], four_views.annotations["v3"]
        assert got.labels == want.labels == ("a", "b", "c", "d")
        assert np.isnan(got.centers[1]).all() and np.isnan(got.axes[1]).all()
        assert math.isnan(got.angles[1])
        for name in ("boxes", "centers", "axes", "angles"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
        path2 = tmp_path / "d2.json"
        save_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("box", [0.0, 0.0, 10.0]),
            ("box", [0.0, 10.0, 10.0, 0.0]),
            ("box", [0.0, 0.0, "x", 10.0]),
            ("ellipse", {"center": [1.0, 2.0], "axes": [3.0, 0.0], "angle": 0.0}),
            ("ellipse", {"center": [1.0], "axes": [3.0, 2.0], "angle": 0.0}),
            ("ellipse", {"center": [1.0, 2.0], "axes": [3.0, 2.0], "angle": None}),
        ],
        ids=["box_short", "box_inverted", "box_string", "ellipse_zero_axis",
             "ellipse_short_center", "ellipse_null_angle"],
    )
    @pytest.mark.parametrize("kind", ["dataset", "annotations"])
    def test_bad_record_mid_view_named(self, four_views, tmp_path, kind, key, value):
        path = tmp_path / f"{kind}.json"
        if kind == "dataset":
            save_dataset(four_views, path)
            load = load_dataset
        else:
            full = view_annotations(
                [row for row in annotation_rows(four_views.annotations["v3"]) if row[2]])
            save_annotations({"v1": four_views.annotations["v1"], "v3": full}, [], path)
            load = load_annotations
        doc = json.loads(path.read_text())
        doc["annotations"]["v3"][2][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (
            str(path), "annotations[v3][2]", key)


class TestOtherFiles:
    def test_cloud_round_trip(self, rng, tmp_path):
        cloud = EllipsoidCloud(tuple((f"o{i}", random_ellipsoid(rng)) for i in range(3)))
        path = tmp_path / "c.json"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert back.labels == cloud.labels
        for (_, a), (_, b) in zip(cloud.entries, back.entries):
            assert np.array_equal(a.center, b.center)
            assert np.array_equal(a.rotation, b.rotation)

    def test_annotations_round_trip(self, rng, tmp_path):
        e = random_ellipse(rng)
        anns = {"v0": view_annotations([("a", bbox_of_ellipse(e), e)])}
        path = tmp_path / "a.json"
        save_annotations(anns, [("v1", "b", "BehindCamera")], path)
        back, skipped = load_annotations(path)
        [(label, box2, e2)] = annotation_rows(back["v0"])
        assert label == "a"
        assert np.array_equal(e.center, e2.center)
        assert skipped == [("v1", "b", "BehindCamera")]

    def test_orientations_round_trip(self, rng, tmp_path):
        R = look_at((1, 2, 3), (0, 0, 0)).R
        path = tmp_path / "o.json"
        save_orientations({"v0": R}, path)
        assert np.array_equal(load_orientations(path)["v0"], R)

    @pytest.mark.parametrize("skipped, record", [(5, "<root>"), ([7], "skipped[0]")], ids=["number", "entry"])
    def test_bad_skipped_named(self, rng, tmp_path, skipped, record):
        path = tmp_path / "a.json"
        save_annotations({}, [], path)
        doc = json.loads(path.read_text())
        doc["skipped"] = skipped
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_annotations(path)
        assert ei.value.file == str(path)
        assert ei.value.record == record
        assert ei.value.field == "skipped"

    @pytest.mark.parametrize(
        "R",
        [
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
            [["x", 0, 0], [0, 1, 0], [0, 0, 1]],
            [[1, 0, 0], [0, 1, 0]],
        ],
        ids=["scaled", "reflection", "non_numeric", "2x3"],
    )
    def test_bad_orientation_named(self, tmp_path, R):
        path = tmp_path / "o.json"
        save_orientations({}, path)
        doc = json.loads(path.read_text())
        doc["orientations"]["v0"] = R
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_orientations(path)
        assert ei.value.file == str(path)
        assert ei.value.record == "orientations[v0]"

    def test_poses_file(self, rng, tmp_path):
        pose = look_at((1, 1, 1), (0, 0, 0))
        est = PoseEstimate(pose, (0, 2), 0.9)
        path = tmp_path / "p.json"
        save_poses({"v0": est}, {"v1": "NoValidPose"}, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["poses"]["v0"]["inliers"] == [0, 2]
        assert doc["failures"]["v1"] == "NoValidPose"

    def test_csv_units_header_and_determinism(self, tmp_path):
        rows = [("v0", 1, 0.5, 1.0 / 3.0), ("v1", 2, 0.25, math.pi)]
        p1, p2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
        header = ["view_id", "n", "score[ratio]", "err[px]"]
        write_csv(p1, header, rows)
        write_csv(p2, header, rows)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text().splitlines()
        assert text[0] == "view_id,n,score[ratio],err[px]"
        assert repr(math.pi) in text[2]


# ---------------------------------------------------------------------------
# Bulk checks: the values of a record-by-record parse, and its faults
# ---------------------------------------------------------------------------


def _leaves(x) -> list:
    """Every array (dtype, shape and bytes) and scalar of a loaded value, in order."""
    if isinstance(x, np.ndarray):
        return [(x.dtype.str, x.shape, x.tobytes())]
    if dataclasses.is_dataclass(x):
        return _leaves([getattr(x, f.name) for f in dataclasses.fields(x)])
    if isinstance(x, dict):
        return _leaves(list(x.items()))
    if isinstance(x, (list, tuple)):
        return [leaf for item in x for leaf in _leaves(item)]
    return [repr(x)]


def _write_indented(doc, path):
    """``doc`` in the indented layout that writers used before the compact one."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _reference_dataset(doc) -> Dataset:
    """A dataset document parsed one record at a time: each view through the
    value objects, each annotation value through float()."""
    views = [CalibratedView(v["view_id"], CameraModel(v["K"], v["image_size"]), Pose(v["R"], v["t"]))
             for v in doc["views"]]
    nan = [math.nan, math.nan]
    annotations = {
        vid: ViewAnnotations(
            [r["label"] for r in recs],
            np.array([[float(x) for x in r["box"]] for r in recs]).reshape(-1, 4),
            [nan if r["ellipse"] is None else [float(x) for x in r["ellipse"]["center"]] for r in recs],
            [nan if r["ellipse"] is None else [float(x) for x in r["ellipse"]["axes"]] for r in recs],
            [math.nan if r["ellipse"] is None else float(r["ellipse"]["angle"]) for r in recs],
        )
        for vid, recs in doc["annotations"].items()
    }
    return Dataset(views, annotations)


# JSON numbers as a file may hold them: ints, and floats with any last bits
_COORD = st.one_of(st.integers(-5000, 5000), st.floats(-5000.0, 5000.0))
_SPAN = st.one_of(st.integers(1, 800), st.floats(1.0, 800.0))


@st.composite
def _annotation_records(draw):
    records = []
    for _ in range(draw(st.integers(0, 3))):
        x, y, w, h = draw(_COORD), draw(_COORD), draw(_SPAN), draw(_SPAN)
        ellipse = draw(st.none() | st.fixed_dictionaries({
            "center": st.lists(_COORD, min_size=2, max_size=2),
            "axes": st.lists(_SPAN, min_size=2, max_size=2),
            "angle": st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0)),
        }))
        records.append({"label": draw(st.text(max_size=3)), "box": [x, y, x + w, y + h],
                        "ellipse": ellipse})
    return records


@st.composite
def _dataset_documents(draw):
    """A valid dataset document of 1-4 views with ints and floats mixed."""
    views = []
    for k in range(draw(st.integers(1, 4))):
        f = draw(st.lists(_SPAN, min_size=2, max_size=2))
        c = draw(st.lists(_COORD, min_size=3, max_size=3))
        zero = draw(st.sampled_from([0, 0.0, -0.0]))
        R = random_rotation(np.random.default_rng(draw(st.integers(0, 2**32 - 1)))).tolist()
        views.append({
            "view_id": f"v{k}",
            "K": [[f[0], c[0], c[1]], [zero, f[1], c[2]], [zero, 0, draw(st.sampled_from([1, 1.0]))]],
            "image_size": draw(st.lists(_SPAN, min_size=2, max_size=2)),
            "R": draw(st.sampled_from([R, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]])),
            "t": draw(st.lists(_COORD, min_size=3, max_size=3)),
        })
    annotations = {v["view_id"]: draw(_annotation_records())
                   for v in views if draw(st.booleans())}
    return {"schema_version": SCHEMA_VERSION, "views": views, "annotations": annotations}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("bulk")


class TestBulkParse:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(doc=_dataset_documents())
    def test_bulk_equals_record_parse(self, scratch, doc):
        # the bulk path gives the arrays and view ids of a record-by-record
        # parse, bit for bit, in the compact and the indented layout
        compact, indented = scratch / "compact.json", scratch / "indented.json"
        compact.write_text(json.dumps(doc) + "\n")
        _write_indented(doc, indented)
        want = _leaves(_reference_dataset(doc))
        for path in (compact, indented):
            got = load_dataset(path)
            assert [v.view_id for v in got.views] == [v["view_id"] for v in doc["views"]]
            assert _leaves(got) == want
            assert not got.views[0].pose.R.flags.writeable
            assert not any(a.flags.writeable for ann in got.annotations.values()
                           for a in (ann.boxes, ann.centers, ann.axes, ann.angles))

    def test_indented_layout_loads_bit_equal(self, dataset, rng, tmp_path):
        # every writer emits one line; a file in the older indented layout
        # loads to the same values
        e = random_ellipse(rng)
        writers = {
            load_dataset: lambda p: save_dataset(dataset, p),
            load_cloud: lambda p: save_cloud(
                EllipsoidCloud(tuple((f"o{i}", random_ellipsoid(rng)) for i in range(3))), p),
            load_annotations: lambda p: save_annotations(
                {"v0": view_annotations([("a", bbox_of_ellipse(e), e)]), "v1": view_annotations([])},
                [("v2", "b", "BehindCamera")], p),
            load_orientations: lambda p: save_orientations(
                {v.view_id: v.pose.R for v in dataset.views}, p),
        }
        for load, write in writers.items():
            compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
            write(compact)
            text = compact.read_text()
            assert text.endswith("}\n") and text.count("\n") == 1
            _write_indented(json.loads(text), indented)
            assert _leaves(load(indented)) == _leaves(load(compact))

    @pytest.mark.parametrize(
        "faults, named",
        [
            ({0: ("R", [[1.0, 0, 0], [0, 1, 0], [0, 0, -1]]), 2: ("t", [0.0, "x", 1.0])}, (0, "R")),
            ({0: ("t", [0.0, "x", 1.0]), 2: ("R", [[1.0, 0, 0], [0, 1, 0], [0, 0, -1]])}, (0, "t")),
            ({1: ("image_size", [640, 0]), 2: ("K", [[500.0, 0, 320], [0, 500, 240]])},
             (1, "image_size")),
            ({1: ("view_id", 3), 2: ("R", [[2.0, 0, 0], [0, 1, 0], [0, 0, 1]])}, (1, "view_id")),
        ],
        ids=["rule_before_conversion", "conversion_before_rule", "size_before_shape", "id_before_R"],
    )
    def test_first_bad_view_named(self, dataset, tmp_path, faults, named):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        for i, (key, value) in faults.items():
            doc["views"][i][key] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (
            str(path), f"views[{named[0]}]", named[1])

    @pytest.mark.parametrize(
        "entries, named",
        [
            ([None, "x", "reflection"], "v1"),
            ([None, "reflection", "x"], "v1"),
            ([None, None, "scaled"], "v2"),
        ],
        ids=["conversion_first", "rotation_first", "last"],
    )
    def test_first_bad_orientation_named(self, rng, tmp_path, entries, named):
        bad = {"x": [["x", 0, 0], [0, 1, 0], [0, 0, 1]],
               "reflection": [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
               "scaled": [[1.1, 0, 0], [0, 1.1, 0], [0, 0, 1.1]]}
        path = tmp_path / "o.json"
        save_orientations({f"v{k}": random_rotation(rng) for k in range(3)}, path)
        doc = json.loads(path.read_text())
        for k, fault in enumerate(entries):
            if fault is not None:
                doc["orientations"][f"v{k}"] = bad[fault]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_orientations(path)
        assert (ei.value.file, ei.value.record) == (str(path), f"orientations[{named}]")


# a rotation holding 0.5 at [0][0] and 1 at [2][2]
_R60 = [[0.5, -math.sqrt(0.75), 0.0], [math.sqrt(0.75), 0.5, 0.0], [0.0, 0.0, 1.0]]

# case -> (file, keys to a numeric field, record, field, the entry to plant
# at, which holds any number; None: the field is set to _R60)
_NUMBER_FIELDS = {
    "view_K": ("dataset", ("views", 1, "K"), "views[1]", "K", (0, 1)),  # the skew
    "view_image_size": ("dataset", ("views", 1, "image_size"), "views[1]", "image_size", (0,)),
    "view_t": ("dataset", ("views", 1, "t"), "views[1]", "t", (2,)),
    "orientation": ("orientations", ("orientations", "v1"), "orientations[v1]", None, None),
    "scene_center": ("dataset", ("scene", "objects", 0, "center"), "scene.objects[0]", "center",
                     (0,)),
    "scene_axes": ("dataset", ("scene", "objects", 0, "axes"), "scene.objects[0]", "axes", (0,)),
    "scene_rotation": ("dataset", ("scene", "objects", 0, "rotation"), "scene.objects[0]",
                       "rotation", None),
    "cloud_center": ("cloud", ("objects", 0, "center"), "objects[0]", "center", (0,)),
    "cloud_axes": ("cloud", ("objects", 0, "axes"), "objects[0]", "axes", (0,)),
    "cloud_rotation": ("cloud", ("objects", 0, "rotation"), "objects[0]", "rotation", None),
    "model_points": ("dataset", ("scene", "objects", 0, "model_points"), "scene.objects[0]",
                     "model_points", (0, 0)),
    "prediction_center": ("dataset", ("predictions", "records", "v2", 0, "center"),
                          "predictions[v2][0]", "center", (0,)),
    "prediction_dims": ("dataset", ("predictions", "records", "v2", 0, "dims"),
                        "predictions[v2][0]", "dims", (0,)),
    "prediction_bin_scores": ("dataset", ("predictions", "records", "v2", 0, "bin_scores"),
                              "predictions[v2][0]", "bin_scores", (0,)),
}
_FILE_LOADERS = {"dataset": load_dataset, "cloud": load_cloud, "orientations": load_orientations}


def _write_inputs(dataset, directory) -> dict:
    """The dataset, its scene's cloud and its views' orientations, written
    to ``directory``: file kind -> path."""
    paths = {kind: directory / f"{kind}.json" for kind in _FILE_LOADERS}
    save_dataset(dataset, paths["dataset"])
    save_cloud(EllipsoidCloud(tuple((o.label, o.ellipsoid) for o in dataset.scene.objects)),
               paths["cloud"])
    save_orientations({v.view_id: v.pose.R for v in dataset.views}, paths["orientations"])
    return paths


def _plant(path, keys, index, value):
    """Rewrite the file at ``path`` with ``value`` at entry ``index`` of the
    field at ``keys``; with no index, the field is first set to _R60 and
    ``value`` goes where it holds 0.5 (for 0.5 or "0.5"), else 1."""
    doc = json.loads(path.read_text())
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    if index is None:
        parent[keys[-1]] = [row[:] for row in _R60]
        index = (0, 0) if value in (0.5, "0.5") else (2, 2)
    entry = parent[keys[-1]]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = value
    path.write_text(json.dumps(doc))


def _fault_line(path, record, field_name) -> str:
    named = f"file={path} | record={record}"
    return named + (f" | field={field_name}\n" if field_name else "\n")


class TestNumberRule:
    """Every record kind takes the same JSON numbers: a boolean or a string
    is not one, wherever it stands."""

    @pytest.mark.parametrize("value", ["0.5", True], ids=["string", "bool"])
    @pytest.mark.parametrize("case", sorted(_NUMBER_FIELDS))
    def test_bool_or_string_exits_2_named(self, dataset, tmp_path, capsys, case, value):
        kind, keys, record, field_name, index = _NUMBER_FIELDS[case]
        paths = _write_inputs(dataset, tmp_path)
        # the same file with the number itself in place loads
        _plant(paths[kind], keys, index, float(value))
        _FILE_LOADERS[kind](paths[kind])
        _plant(paths[kind], keys, index, value)
        rc = main(["pose", "--dataset", str(paths["dataset"]), "--cloud", str(paths["cloud"]),
                   "--orientation-file", str(paths["orientations"]),
                   "--out-poses", str(tmp_path / "p.json"),
                   "--out-metrics", str(tmp_path / "m.csv")])
        assert rc == 2
        assert _fault_line(paths[kind], record, field_name) in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["orientation", "view_R", "scene_rotation", "cloud_rotation"])
    def test_huge_rotation_entry_named_without_warning(self, dataset, tmp_path, case):
        # R^T R of a rotation holding 1e308 overflows: not a rotation, and
        # no RuntimeWarning on the way
        kind, keys, record, field_name, _ = _NUMBER_FIELDS.get(
            case, ("dataset", ("views", 1, "R"), "views[1]", "R", None))
        paths = _write_inputs(dataset, tmp_path)
        _plant(paths[kind], keys, None, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParseError) as ei:
                _FILE_LOADERS[kind](paths[kind])
        assert (ei.value.file, ei.value.record, ei.value.field) == (
            str(paths[kind]), record, field_name)

    @pytest.mark.parametrize(
        "fault, record, field_name",
        [("repeated_view_id", "views[2]", "view_id"),
         ("annotations_of_unknown_view", "annotations", "nope"),
         ("predictions_of_unknown_view", "predictions.records", "nope")],
    )
    def test_dataset_level_fault_named(self, dataset, tmp_path, fault, record, field_name):
        path = tmp_path / "d.json"
        save_dataset(dataset, path)
        doc = json.loads(path.read_text())
        if fault == "repeated_view_id":
            doc["views"][2]["view_id"] = doc["views"][0]["view_id"]
        elif fault == "annotations_of_unknown_view":
            doc["annotations"]["nope"] = []
        else:
            doc["predictions"]["records"]["nope"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as ei:
            load_dataset(path)
        assert (ei.value.file, ei.value.record, ei.value.field) == (str(path), record, field_name)


@pytest.fixture(scope="module")
def board_document(tmp_path_factory):
    """The directory and text of the 250-view tless_board dataset."""
    directory = tmp_path_factory.mktemp("board")
    run_scenario("tless_board", {}, directory, 0)
    return directory, (directory / "dataset.json").read_text()


# fault -> (where it is planted, the field it names)
_BOARD_FAULTS = {
    "bool_in_box": ("box", "box"),
    "huge_int_in_box": ("box", "box"),
    "huge_int_in_ellipse": ("ellipse", "ellipse"),
    "huge_int_in_t": ("t", "t"),
    "R_not_a_rotation": ("R", "R"),
    "label_not_a_string": ("label", "label"),
}


@settings(max_examples=36, deadline=None, derandomize=True)
@given(fault=st.sampled_from(sorted(_BOARD_FAULTS)), view=st.integers(0, 249),
       row=st.integers(0, 5), pos=st.integers(0, 3))
def test_board_fault_exits_2_named(board_document, fault, view, row, pos):
    # one fault at a random record of the full board dataset: the CLI exits
    # 2 naming the file, the record and the field
    directory, text = board_document
    doc = json.loads(text)
    place, field_name = _BOARD_FAULTS[fault]
    if place in ("t", "R"):
        view = 200 if place == "R" else view
        rec, record = doc["views"][view], f"views[{view}]"
        if place == "t":
            rec["t"][pos % 3] = 10**400
        else:
            rec["R"] = (2.0 * np.array(rec["R"]) if pos % 2 else -np.array(rec["R"])).tolist()
    else:
        vid = doc["views"][view]["view_id"]
        rec, record = doc["annotations"][vid][row], f"annotations[{vid}][{row}]"
        if place == "box":  # a box that would be valid if a boolean were a number
            rec["box"] = [0.0, 0.0, 10.0, 10.0]
            rec["box"][pos] = True if fault == "bool_in_box" else 10**400
        elif place == "ellipse":
            rec["ellipse"][["center", "axes"][pos % 2]][pos // 2] = 10**400
        else:
            rec["label"] = [7, None, ["obj01"], 1.5][pos]
    path = directory / "faulty.json"
    path.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["reconstruct", "--dataset", str(path), "--out", str(directory / "cloud.json")])
    assert rc == 2
    assert f"file={path} | record={record} | field={field_name}" in err.getvalue()
