"""File formats: JSON for structured records (datasets, clouds,
annotations, orientations, poses) and CSV for metric tables.

JSON floats round-trip losslessly (repr emits the shortest exact decimal),
and writers are deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SchemaVersionMismatch
from .geometry import CameraModel, Ellipsoid, Pose, _check_rotation, _freeze
from .multibin import MultibinConfig, MultibinPrediction
from .reconstruction import CalibratedView, EllipsoidCloud, ViewAnnotations
from .simulator import SceneObject, SceneSpec

SCHEMA_VERSION = 1

# what numpy and float() raise on a value of the wrong type or size
_BAD_VALUE = (ValueError, TypeError, OverflowError)

_PREDICTION_FIELDS = ("center", "dims", "bin_scores", "corrections")  # in file order


@dataclass(frozen=True, eq=False)
class PredictionRecord:
    label: str
    box: np.ndarray  # read-only [x_min, y_min, x_max, y_max]
    prediction: MultibinPrediction


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Raw detection-head outputs plus the decode configuration they assume."""

    crop_size: float
    config: MultibinConfig
    records: dict  # view_id -> list of PredictionRecord


@dataclass(frozen=True, eq=False)
class Dataset:
    views: list
    annotations: dict = field(default_factory=dict)  # view_id -> ViewAnnotations
    scene: SceneSpec | None = None
    predictions: PredictionSet | None = None

    def __post_init__(self):
        ids = [v.view_id for v in self.views]
        if len(set(ids)) != len(ids):
            raise ValueError("view ids must be unique")
        known = set(ids)
        for vid in self.annotations:
            if vid not in known:
                raise ValueError(f"annotation references unknown view {vid!r}")
        if self.predictions is not None:
            for vid in self.predictions.records:
                if vid not in known:
                    raise ValueError(f"prediction references unknown view {vid!r}")


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _mat(a) -> list:
    return np.asarray(a, float).tolist()


def _object_to_json(o: SceneObject) -> dict:
    E = o.ellipsoid
    rec = {"label": o.label, "center": _mat(E.center), "axes": _mat(E.axes),
           "rotation": _mat(E.rotation)}
    if o.model_points is not None:
        rec["model_points"] = _mat(o.model_points)
    return rec


def _annotations_to_json(a: ViewAnnotations) -> list:
    """One view's records, a NaN ellipse row written as null."""
    ellipses = zip(a.centers.tolist(), a.axes.tolist(), a.angles.tolist())
    return [
        {"label": label, "box": box, "ellipse": None if math.isnan(angle) else {
            "center": center, "axes": axes, "angle": angle}}
        for label, box, (center, axes, angle) in zip(a.labels, a.boxes.tolist(), ellipses)
    ]


def dataset_to_json(d: Dataset) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "views": [
            {
                "view_id": v.view_id,
                "K": _mat(v.cam.K),
                "image_size": _mat(v.cam.image_size),
                "R": _mat(v.pose.R),
                "t": _mat(v.pose.t),
            }
            for v in d.views
        ],
        "annotations": {vid: _annotations_to_json(a) for vid, a in d.annotations.items()},
    }
    if d.scene is not None:
        out["scene"] = {"objects": [_object_to_json(o) for o in d.scene.objects]}
    if d.predictions is not None:
        p = d.predictions
        out["predictions"] = {
            "crop_size": float(p.crop_size),
            "n_bins": int(p.config.n_bins),
            "overlap_fraction": float(p.config.overlap_fraction),
            "records": {
                vid: [{"label": r.label, "box": _mat(r.box),
                       **{k: _mat(getattr(r.prediction, k)) for k in _PREDICTION_FIELDS}}
                      for r in recs]
                for vid, recs in p.records.items()
            },
        }
    return out


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------


class _Reader:
    """Field access with file/record context attached to every failure."""

    def __init__(self, file: str):
        self.file = file

    def get(self, obj, key, record):
        if not isinstance(obj, dict) or key not in obj:
            raise ParseError("missing field", file=self.file, record=record, field=key)
        return obj[key]

    def get_mapping(self, obj, key, record):
        return self._get_typed(obj, key, record, dict, "an object")

    def get_list(self, obj, key, record):
        return self._get_typed(obj, key, record, list, "a list")

    def get_str(self, obj, key, record):
        return self._get_typed(obj, key, record, str, "a string")

    def get_number(self, obj, key, record, kind=float):
        value = self.get(obj, key, record)
        number = _number(value, kind)
        if number is None:
            what = "an integer" if kind is int else "a finite number"
            self.fail(f"expected {what}, got {json.dumps(value)}", record, key)
        return number

    def _get_typed(self, obj, key, record, kind, name):
        value = self.get(obj, key, record)
        if not isinstance(value, kind):
            raise ParseError(
                f"expected {name}, got {type(value).__name__}",
                file=self.file, record=record, field=key,
            )
        return value

    def fail(self, message, record, fld=None):
        raise ParseError(message, file=self.file, record=record, field=fld)


def _number(value, kind):
    """``value`` as a finite ``kind`` (int or float), or None when it is not
    a JSON number of that kind (a boolean is not a number)."""
    if kind is int:
        return value if type(value) is int else None
    out = _floats([value], 1)
    return out[0] if out else None


def _floats(values, n: int):
    """A list of n JSON numbers as finite floats, else None."""
    if type(values) is not list or len(values) != n:
        return None
    try:
        out = [float(v) for v in values if type(v) in (int, float)]  # not a bool
    except OverflowError:
        return None
    return out if len(out) == n and all(map(math.isfinite, out)) else None


def _parse_arrays(rec, rd: _Reader, record, shapes: dict, what: str) -> dict:
    """The finite arrays of ``rec`` under the keys of ``shapes``, each of its
    shape; a fault names the key it is in."""
    out = {}
    for key, shape in shapes.items():
        try:
            out[key] = _freeze(rd.get(rec, key, record), shape)
        except _BAD_VALUE as exc:
            rd.fail(f"bad {what}: {exc}", record, key)
    return out


def _check_schema(doc, rd: _Reader):
    version = rd.get(doc, "schema_version", record="<root>")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema_version {version!r}, this build reads {SCHEMA_VERSION}",
            file=rd.file, record="<root>", field="schema_version",
        )


def _load_json(path) -> tuple:
    path = Path(path)
    rd = _Reader(str(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON: {exc}", file=str(path)) from exc
    except (IsADirectoryError, PermissionError) as exc:
        raise ParseError(f"cannot read: {exc.strerror}", file=str(path)) from exc
    if not isinstance(doc, dict):
        rd.fail(f"expected a JSON object, got {type(doc).__name__}", "<root>")
    _check_schema(doc, rd)
    return doc, rd


class ScenarioParam(NamedTuple):
    """Type, default and valid range of one scenario param."""

    kind: type  # int, float, or list: a non-empty list of floats
    default: object
    lo: float  # least valid value (of each entry of a list)
    hi: float = math.inf
    lo_open: bool = False  # lo itself is not valid

    def describe(self) -> str:
        what = {int: "an integer", float: "a number", list: "a non-empty list of numbers"}
        if self.hi < math.inf:
            return f"{what[self.kind]} in {self.lo}..{self.hi}"
        return f"{what[self.kind]} {'>' if self.lo_open else '>='} {self.lo:g}"


_RIG_PARAMS = {
    "radius": ScenarioParam(float, 0.75, 0.0, lo_open=True),
    "n_azimuth": ScenarioParam(int, 25, 1),
    "n_elevation": ScenarioParam(int, 10, 1),
}
_BOARD_PARAMS = {"n_objects": ScenarioParam(int, 6, 1, 6), **_RIG_PARAMS}
_NOISE_PARAM = {"orientation_noise_deg": ScenarioParam(float, 2.0, 0.0)}

# the params each named scenario of `ellipose simulate` reads
SCENARIO_PARAMS = {
    "tless_board": _BOARD_PARAMS,
    "linemod_single": {
        "radius": ScenarioParam(float, 0.6, 0.0, lo_open=True),
        "n_azimuth": ScenarioParam(int, 20, 1),
        "n_elevation": ScenarioParam(int, 5, 1),
        **_NOISE_PARAM,
    },
    "fig3_demo": {
        "n_build": ScenarioParam(int, 3, 3),
        "n_held": ScenarioParam(int, 8, 1),
    },
    "noise_sweep": {
        **_BOARD_PARAMS,
        "half_ranges": ScenarioParam(list, (0.0, 5.0, 10.0, 15.0, 20.0), 0.0),
        **_NOISE_PARAM,
    },
}


def _scenario_param(params: dict, key: str, spec: ScenarioParam, rd: _Reader):
    """``params[key]`` checked against its spec and converted to its type."""
    value = params[key]
    entries = value if spec.kind is list else [value]
    scalar = int if spec.kind is int else float
    numbers = [_number(v, scalar) for v in entries] if isinstance(entries, list) else []
    if not (numbers and all(
        v is not None and (v > spec.lo if spec.lo_open else v >= spec.lo) and v <= spec.hi
        for v in numbers
    )):
        rd.fail(f"expected {spec.describe()}, got {json.dumps(value)}", "params", key)
    return numbers if spec.kind is list else numbers[0]


def load_scenario(path) -> tuple:
    """(name, params, seed) of a scenario file.

    The name must be a key of :data:`SCENARIO_PARAMS` and every param one
    of that scenario's, within its range; the params hold the given ones,
    converted to their types (absent ones take their defaults when the
    scenario runs).  The seed defaults to 0.
    """
    doc, rd = _load_json(path)
    name = rd.get(doc, "name", "<root>")
    if not isinstance(name, str) or name not in SCENARIO_PARAMS:
        rd.fail(
            f"expected one of {sorted(SCENARIO_PARAMS)}, got {json.dumps(name)}", "<root>", "name"
        )
    raw = doc.get("params")
    if raw is None:
        raw = {}
    elif not isinstance(raw, dict):
        rd.fail(f"expected an object, got {type(raw).__name__}", "<root>", "params")
    specs = SCENARIO_PARAMS[name]
    params = {}
    for key in raw:
        if key not in specs:
            rd.fail(f"unknown param of {name}; have {sorted(specs)}", "params", key)
        params[key] = _scenario_param(raw, key, specs[key], rd)
    seed = rd.get_number(doc, "seed", "<root>", int) if "seed" in doc else 0
    if seed < 0:
        rd.fail(f"expected a non-negative integer, got {seed}", "<root>", "seed")
    return name, params, seed


def _parse_view(rec, rd: _Reader, idx: int) -> CalibratedView:
    """One calibrated view.  The value objects check and freeze its arrays;
    where they fail, the arrays are parsed one by one to name the field."""
    record = f"views[{idx}]"
    vid = rd.get_str(rec, "view_id", record)
    cam = None
    try:
        cam = CameraModel(rec["K"], rec["image_size"])
        return CalibratedView(vid, cam, Pose(rec["R"], rec["t"]))
    except (*_BAD_VALUE, KeyError) as exc:
        shapes = {"K": (3, 3), "image_size": (2,), "R": (3, 3), "t": (3,)}
        parts = _parse_arrays(rec, rd, record, shapes, "view")
        # not a rotation, else a non-positive image size or not intrinsics
        key = "R" if cam is not None else "image_size" if min(parts["image_size"]) <= 0.0 else "K"
        rd.fail(f"bad view: {exc}", record, key)


def _parse_box(rec, rd, record) -> list:
    """The record's box, [x_min, y_min, x_max, y_max] in floats."""
    vals = rd.get(rec, "box", record)
    box = _floats(vals, 4)
    if box is None:
        rd.fail(f"bad box: expected 4 finite numbers, got {json.dumps(vals)}", record, "box")
    if not (box[0] < box[2] and box[1] < box[3]):
        rd.fail("bad box: min must be strictly below max", record, "box")
    return box


def _parse_annotations(doc, rd, *, need_ellipse: bool) -> dict:
    """view_id -> ViewAnnotations of a dataset (a null ellipse a NaN row) or
    of an annotations file (``need_ellipse``).  Each record is checked in
    Python floats, a fault naming it and its field, then all views' arrays
    are built at once, each view holding its slice."""
    ann_doc = rd.get_mapping(doc, "annotations", "<root>")
    labels, boxes, ellipses, stops = [], [], [], []
    for vid in ann_doc:
        for j, rec in enumerate(rd.get_list(ann_doc, vid, "annotations")):
            record = f"annotations[{vid}][{j}]"
            boxes.append(_parse_box(rec, rd, record))
            raw = rd.get(rec, "ellipse", record)
            e = ((math.nan,) * 2, (math.nan,) * 2, math.nan)
            if raw is not None:
                e = (_floats(raw.get("center"), 2), _floats(raw.get("axes"), 2),
                     _number(raw.get("angle"), float)) if isinstance(raw, dict) else (None,)
                if None in e or min(e[1]) <= 0.0:
                    rd.fail("bad ellipse: expected finite center[2] and angle and positive "
                            f"axes[2], got {json.dumps(raw)}", record, "ellipse")
            labels.append(rd.get_str(rec, "label", record))
            if need_ellipse and raw is None:
                rd.fail("expected an ellipse, got null", record, "ellipse")
            ellipses.append(e)
        stops.append(len(labels))
    a = ViewAnnotations(labels, boxes, *(zip(*ellipses) if ellipses else ((),) * 3))
    fields = (a.labels, a.boxes, a.centers, a.axes, a.angles)
    return {vid: ViewAnnotations(*(f[start:stop] for f in fields))
            for vid, start, stop in zip(ann_doc, [0] + stops, stops)}


def _parse_object(rec, rd, record) -> SceneObject:
    """One labeled ellipsoid, with optional model points, of a dataset scene
    or a cloud file; each fault names the key it is in, as in
    :func:`_parse_view`."""
    try:
        ellipsoid = Ellipsoid(rec["center"], rec["axes"], rec["rotation"])
    except (*_BAD_VALUE, KeyError) as exc:
        shapes = {"center": (3,), "axes": (3,), "rotation": (3, 3)}
        parts = _parse_arrays(rec, rd, record, shapes, "ellipsoid")
        key = "axes" if min(parts["axes"]) <= 0.0 else "rotation"  # else not a rotation
        rd.fail(f"bad ellipsoid: {exc}", record, key)
    label = rd.get_str(rec, "label", record)
    try:
        return SceneObject(label, ellipsoid, rec.get("model_points"))
    except _BAD_VALUE as exc:
        rd.fail(f"bad model points: {exc}", record, "model_points")


def load_dataset(path) -> Dataset:
    doc, rd = _load_json(path)
    views = [
        _parse_view(rec, rd, i) for i, rec in enumerate(rd.get_list(doc, "views", "<root>"))
    ]
    annotations = _parse_annotations(doc, rd, need_ellipse=False)
    scene = None
    if doc.get("scene") is not None:
        objs = [
            _parse_object(rec, rd, f"scene.objects[{j}]")
            for j, rec in enumerate(rd.get_list(doc["scene"], "objects", "scene"))
        ]
        try:
            scene = SceneSpec(tuple(objs))
        except ValueError as exc:  # no objects
            rd.fail(f"bad scene: {exc}", "scene", "objects")
    predictions = None
    if doc.get("predictions") is not None:
        pdoc = doc["predictions"]
        n_bins = rd.get_number(pdoc, "n_bins", "predictions", int)
        overlap = rd.get_number(pdoc, "overlap_fraction", "predictions")
        try:
            cfg = MultibinConfig(n_bins, overlap)
        except ValueError as exc:
            rd.fail(f"bad multibin configuration: {exc}", "predictions")
        crop_size = rd.get_number(pdoc, "crop_size", "predictions")
        if crop_size <= 0.0:
            rd.fail(f"expected a positive number, got {crop_size!r}", "predictions", "crop_size")
        shapes = dict(zip(_PREDICTION_FIELDS, [(2,), (2,), (n_bins,), (n_bins, 2)]))
        records = {}
        rec_doc = rd.get_mapping(pdoc, "records", "predictions")
        for vid in rec_doc:
            rows = []
            for j, rec in enumerate(rd.get_list(rec_doc, vid, "predictions.records")):
                record = f"predictions[{vid}][{j}]"
                box = _freeze(_parse_box(rec, rd, record), (4,))
                parts = _parse_arrays(rec, rd, record, shapes, "prediction")
                if not np.all(parts["dims"] > 0.0):
                    rd.fail(f"bad prediction: dims must be positive, got {parts['dims'].tolist()}",
                            record, "dims")
                pred = MultibinPrediction(**parts)
                rows.append(PredictionRecord(rd.get_str(rec, "label", record), box, pred))
            records[vid] = rows
        predictions = PredictionSet(crop_size, cfg, records)
    try:
        return Dataset(views, annotations, scene, predictions)
    except ValueError as exc:
        rd.fail(str(exc), "<root>")


def save_dataset(d: Dataset, path) -> None:
    _dump(dataset_to_json(d), path)


def _dump(doc, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Cloud / annotations / orientations / poses files
# ---------------------------------------------------------------------------


def save_cloud(cloud: EllipsoidCloud, path) -> None:
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "objects": [_object_to_json(SceneObject(label, E)) for label, E in cloud.entries],
        },
        path,
    )


def load_cloud(path) -> EllipsoidCloud:
    doc, rd = _load_json(path)
    objs = [
        _parse_object(rec, rd, f"objects[{j}]")
        for j, rec in enumerate(rd.get_list(doc, "objects", "<root>"))
    ]
    return EllipsoidCloud(tuple((o.label, o.ellipsoid) for o in objs))


def save_annotations(annotations: dict, skipped, path) -> None:
    """``annotations`` maps view_id -> ViewAnnotations, every row with its ellipse."""
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "annotations": {vid: _annotations_to_json(a) for vid, a in annotations.items()},
            "skipped": [list(s) for s in skipped],
        },
        path,
    )


def load_annotations(path) -> tuple:
    doc, rd = _load_json(path)
    out = _parse_annotations(doc, rd, need_ellipse=True)
    skipped = rd.get_list(doc, "skipped", "<root>") if "skipped" in doc else []
    for j, note in enumerate(skipped):
        if not isinstance(note, list):
            rd.fail(f"expected a list, got {type(note).__name__}", f"skipped[{j}]", "skipped")
    return out, [tuple(note) for note in skipped]


def save_orientations(orientations: dict, path) -> None:
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "orientations": {vid: _mat(R) for vid, R in orientations.items()},
        },
        path,
    )


def load_orientations(path) -> dict:
    doc, rd = _load_json(path)
    out = {}
    for vid, R in rd.get_mapping(doc, "orientations", "<root>").items():
        try:
            R = _freeze(R, (3, 3))
            _check_rotation(R)
        except _BAD_VALUE as exc:
            rd.fail(f"bad orientation: {exc}", f"orientations[{vid}]")
        out[vid] = R
    return out


def save_poses(poses: dict, failures: dict, path) -> None:
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "poses": {
                vid: {
                    "R": _mat(est.pose.R),
                    "t": _mat(est.pose.t),
                    "inliers": list(est.inliers),
                    "score": float(est.score),
                }
                for vid, est in poses.items()
            },
            "failures": dict(failures),
        },
        path,
    )


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: floats via repr (shortest exact decimal)."""

    def cell(v):
        if isinstance(v, float):
            return repr(v)
        return str(v)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(cell(v) for v in row) + "\n")
