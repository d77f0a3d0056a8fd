"""File formats: JSON for structured records (datasets, clouds,
annotations, orientations, poses) and CSV for metric tables.

Writers emit each JSON file as one compact line through the C encoder;
files in the older indented layout load the same.  JSON floats round-trip
losslessly (repr emits the shortest exact decimal), and writers are
deterministic byte-for-byte for identical inputs.

This module is where file input is checked.  A reader checks a file's
views, annotation records and orientations all at once, on stacked arrays,
and builds the value objects from the checked arrays without checking them
again; only when a bulk check fails does it walk the records one by one, to
name the file, record and field of the first fault.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ParseError, SchemaVersionMismatch
from .geometry import (
    _NOT_A_CAMERA,
    _NOT_A_ROTATION,
    CameraModel,
    Ellipsoid,
    Pose,
    _check_cameras,
    _check_rotation,
    _freeze,
)
from .multibin import MultibinConfig, MultibinPrediction
from .reconstruction import CalibratedView, EllipsoidCloud, ViewAnnotations
from .simulator import SceneObject, SceneSpec

SCHEMA_VERSION = 1

# what numpy and float() raise on a value of the wrong type or size
_BAD_VALUE = (ValueError, TypeError, OverflowError)

_PREDICTION_FIELDS = ("center", "dims", "bin_scores", "corrections")  # in file order
_VIEW_SHAPES = {"K": (3, 3), "image_size": (2,), "R": (3, 3), "t": (3,)}  # in walk order


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
    out = _number_rows([value], 0)
    return None if out is None else float(out[0])


def _number_rows(values: list, n: int):
    """``values``, each a list of ``n`` JSON numbers (with ``n`` 0, each a
    number), as one finite float array (len(values), n) or (len(values),),
    else None; a boolean is not a number."""
    if n:
        if not (set(map(type, values)) <= {list} and set(map(len, values)) <= {n}):
            return None
        flat = chain.from_iterable(values)
    else:
        flat = values
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        out = np.array(values, float)
    except OverflowError:  # an int beyond float range
        return None
    out = out.reshape(-1, n) if n else out
    return out if np.isfinite(out).all() else None


def _boxes(values: list):
    """``values``, JSON boxes, as float rows (n, 4) [x_min, y_min, x_max,
    y_max] with each min strictly below its max, else None."""
    out = _number_rows(values, 4)
    return out if out is not None and (out[:, :2] < out[:, 2:]).all() else None


def _ellipses(values: list):
    """(centers (k, 2), axes (k, 2), angles (k,)) of the k non-null
    ``values``, JSON ellipses each null or an object with a finite
    ``center`` [2] and ``angle`` and positive ``axes`` [2], else None."""
    shown = [e for e in values if e is not None]
    if not set(map(type, shown)) <= {dict}:
        return None
    try:
        parts = [_number_rows([e[key] for e in shown], n)
                 for key, n in (("center", 2), ("axes", 2), ("angle", 0))]
    except KeyError:
        return None
    if any(p is None for p in parts) or not (parts[1] > 0.0).all():
        return None
    return parts


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


def _frozen_stack(values: list, shape) -> np.ndarray:
    """``values`` as one read-only finite float array (len(values), *shape);
    raises as :func:`geometry._freeze`."""
    return _freeze(values if values else np.empty((0, *shape)), (len(values), *shape))


def _prechecked(cls, **values):
    """A value object of ``cls`` holding ``values`` as given, without its
    ``__post_init__``: the caller has frozen them and checked them by the
    rules of ``cls``."""
    obj = object.__new__(cls)
    obj.__dict__.update(values)
    return obj


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


def _parse_views(doc, rd: _Reader) -> list:
    """The calibrated views.  All views' arrays are stacked and checked at
    once for shape, finiteness and the camera and rotation rules; on any
    fault the records are walked, :func:`_parse_view` naming the first."""
    recs = rd.get_list(doc, "views", "<root>")
    try:
        ids = [rec["view_id"] for rec in recs]
        K, size, R, t = (_frozen_stack([rec[key] for rec in recs], shape)
                         for key, shape in _VIEW_SHAPES.items())
    except (*_BAD_VALUE, KeyError):
        ids = None
    if ids is None or not set(map(type, ids)) <= {str} \
            or _check_cameras(K, size) is not None or _check_rotation(R) is not None:
        for i, rec in enumerate(recs):
            _parse_view(rec, rd, i)
        rd.fail("bad views", "<root>", "views")  # unreached: the walk finds it
    return [CalibratedView(vid, _prechecked(CameraModel, K=K[i], image_size=size[i]),
                           _prechecked(Pose, R=R[i], t=t[i])) for i, vid in enumerate(ids)]


def _parse_view(rec, rd: _Reader, idx: int) -> None:
    """Raise the fault of one view record, if it has one: in order, its
    ``view_id``, the shape and finiteness of each array of
    :data:`_VIEW_SHAPES`, the camera rules (naming ``image_size`` where it
    is not positive, else ``K``) and the rotation rule (naming ``R``)."""
    record = f"views[{idx}]"
    rd.get_str(rec, "view_id", record)
    parts = _parse_arrays(rec, rd, record, _VIEW_SHAPES, "view")
    if _check_cameras(parts["K"][None], parts["image_size"][None]) is not None:
        key = "image_size" if min(parts["image_size"]) <= 0.0 else "K"
        rd.fail(f"bad view: {_NOT_A_CAMERA}", record, key)
    if _check_rotation(parts["R"][None]) is not None:
        rd.fail(f"bad view: {_NOT_A_ROTATION}", record, "R")


def _parse_box(rec, rd, record) -> np.ndarray:
    """The record's box as a float row [x_min, y_min, x_max, y_max]."""
    vals = rd.get(rec, "box", record)
    box = _boxes([vals])
    if box is None:
        rd.fail("bad box: expected 4 finite numbers, each min strictly below its max, "
                f"got {json.dumps(vals)}", record, "box")
    return box[0]


def _parse_annotations(doc, rd, *, need_ellipse: bool) -> dict:
    """view_id -> ViewAnnotations of a dataset (a null ellipse a NaN row) or
    of an annotations file (``need_ellipse``).  All records are checked
    together, boxes and ellipses each by one call of the check that the
    record walk makes on one record; on any fault the records are walked,
    :func:`_parse_annotation` naming the first.  Each view holds its slice
    of the arrays."""
    ann_doc = rd.get_mapping(doc, "annotations", "<root>")
    rows = list(ann_doc.values())
    try:
        recs = [rec for view in rows for rec in view]
        labels, boxes, raw = ([rec[key] for rec in recs] for key in ("label", "box", "ellipse"))
    except (TypeError, KeyError):  # a view not a list, or a record not an object with them
        recs = None
    if recs is None or not set(map(type, rows)) <= {list} or not set(map(type, labels)) <= {str} \
            or (need_ellipse and None in raw) \
            or (boxes := _boxes(boxes)) is None or (ellipses := _ellipses(raw)) is None:
        for vid in ann_doc:
            for j, rec in enumerate(rd.get_list(ann_doc, vid, "annotations")):
                _parse_annotation(rec, rd, f"annotations[{vid}][{j}]", need_ellipse)
        rd.fail("bad annotations", "<root>", "annotations")  # unreached: the walk finds it
    fields = [tuple(labels), boxes]
    shown = np.array([e is not None for e in raw], bool)
    for values, shape in zip(ellipses, ((2,), (2,), ())):
        fields.append(np.full((len(recs), *shape), math.nan))
        fields[-1][shown] = values
    stops = list(accumulate(map(len, rows)))
    return {vid: ViewAnnotations(*(f[start:stop] for f in fields))
            for vid, start, stop in zip(ann_doc, [0] + stops, stops)}


def _parse_annotation(rec, rd, record, need_ellipse) -> None:
    """Raise the fault of one annotation record, if it has one: in order,
    its box, its ellipse, its label, then a null ellipse where
    ``need_ellipse``."""
    _parse_box(rec, rd, record)
    raw = rd.get(rec, "ellipse", record)
    if _ellipses([raw]) is None:
        rd.fail("bad ellipse: expected null or finite center[2] and angle and positive "
                f"axes[2], got {json.dumps(raw)}", record, "ellipse")
    rd.get_str(rec, "label", record)
    if need_ellipse and raw is None:
        rd.fail("expected an ellipse, got null", record, "ellipse")


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
    views = _parse_views(doc, rd)
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
                pred = _prechecked(MultibinPrediction, **parts)
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
        fh.write(json.dumps(doc))  # one line, through the C encoder
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
    """view_id -> rotation, all checked in one stacked call; on a fault the
    rotations are walked to name the first bad ``orientations[<vid>]``."""
    doc, rd = _load_json(path)
    raw = rd.get_mapping(doc, "orientations", "<root>")
    try:
        R = _frozen_stack(list(raw.values()), (3, 3))
    except _BAD_VALUE:
        R = None
    if R is None or _check_rotation(R) is not None:
        for vid, values in raw.items():
            try:
                bad = _check_rotation(_freeze(values, (3, 3))[None]) is not None
            except _BAD_VALUE as exc:
                rd.fail(f"bad orientation: {exc}", f"orientations[{vid}]")
            if bad:
                rd.fail(f"bad orientation: {_NOT_A_ROTATION}", f"orientations[{vid}]")
        rd.fail("bad orientations", "<root>", "orientations")  # unreached: the walk finds it
    return dict(zip(raw, R))


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
