"""File formats: JSON for structured records (datasets, clouds,
annotations, orientations, poses) and CSV for metric tables.

Writers emit each JSON file as one compact line through the C encoder;
files in the older indented layout load the same.  JSON floats round-trip
losslessly (repr emits the shortest exact decimal), and writers are
deterministic byte-for-byte for identical inputs.

This module is where file input is checked.  A reader checks each field
of all of a file's records at once, by one number rule (a boolean or a
string is not a number), and builds the value objects from the checked
arrays without checking them again.  A fault names the file, the first bad
record in file order and the field of its first failing check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise
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
    _prechecked,
)
from .multibin import MultibinConfig, MultibinPrediction
from .reconstruction import CalibratedView, EllipsoidCloud, ViewAnnotations
from .simulator import SceneObject, SceneSpec

SCHEMA_VERSION = 1

_PREDICTION_FIELDS = ("center", "dims", "bin_scores", "corrections")  # in file order
_VIEW_SHAPES = {"K": (3, 3), "image_size": (2,), "R": (3, 3), "t": (3,)}  # in check order


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
            self.fail(f"expected {name}, got {type(value).__name__}", record, key)
        return value

    def fail(self, message, record, fld=None):
        raise ParseError(message, file=self.file, record=record, field=fld)


def _number(value, kind):
    """``value`` as a finite ``kind`` (int or float), or None when it is not
    a JSON number of that kind (a boolean is not a number)."""
    if kind is int:
        return value if type(value) is int else None
    out = _number_rows([value], ())
    return None if out is None else float(out[0])


def _number_rows(values: list, shape: tuple):
    """``values``, each finite JSON numbers in lists nested to ``shape``, as
    one float array (len(values), *shape), else None; a boolean or a string
    is not a number."""
    flat = values
    for n in shape:
        if not (set(map(type, flat)) <= {list} and set(map(len, flat)) <= {n}):
            return None
        flat = list(chain.from_iterable(flat))
    if not set(map(type, flat)) <= {int, float}:
        return None
    try:
        out = np.array(values, float).reshape(len(values), *shape)
    except OverflowError:  # an int beyond float range
        return None
    return out if np.isfinite(out).all() else None


def _numbers(values: list, shape: tuple) -> tuple:
    """``values`` as one read-only float array (len(values), *shape), a NaN
    row for each value that is not finite JSON numbers of ``shape``, and the
    mask of those values.  The values are checked stacked, and each alone
    only when that fails."""
    out, bad = _number_rows(values, shape), np.zeros(len(values), bool)
    if out is None:
        rows = [_number_rows([v], shape) for v in values]
        bad = np.array([r is None for r in rows], bool)
        out = np.array([np.full(shape, math.nan) if r is None else r[0] for r in rows])
        out = out.reshape(len(values), *shape)
    out.setflags(write=False)
    return out, bad


def _lists(values: list, shape: tuple, length=None) -> tuple:
    """``values``, each a list of ``length`` (None: one or more) items of
    ``shape``, as slices of one :func:`_numbers` array of all the items,
    and the mask of the values that are not."""
    lists = [v if type(v) is list else [] for v in values]
    items, bad_items = _numbers(list(chain.from_iterable(lists)), shape)
    spans = list(pairwise([0, *accumulate(map(len, lists))]))
    bad = [type(v) is not list or (len(v) != length if length else not v) or bad_items[a:b].any()
           for v, (a, b) in zip(values, spans)]
    return [items[a:b] for a, b in spans], np.array(bad, bool)


def _strings(values: list) -> tuple:
    """``values``, and the mask of those that are not strings."""
    return values, np.array([type(v) is not str for v in values], bool)


def _boxes(values: list) -> tuple:
    """``values``, JSON boxes, as read-only float rows (n, 4) [x_min, y_min,
    x_max, y_max], and the mask of the boxes that are not 4 finite numbers
    with each min strictly below its max."""
    rows, bad = _numbers(values, (4,))
    return rows, bad | ~(rows[:, :2] < rows[:, 2:]).all(axis=1)


def _ellipses(values: list) -> tuple:
    """[centers (n, 2), axes (n, 2), angles (n,)] of ``values``, JSON
    ellipses, read-only, NaN in a null one's row, and the mask of those
    neither null nor with a finite ``center`` [2] and ``angle`` and positive
    ``axes`` [2]."""
    shown = np.array([e is not None for e in values], bool)
    kept = [e if type(e) is dict else {} for e in values if e is not None]
    parts = [_numbers([e.get(key) for e in kept], shape)
             for key, shape in (("center", (2,)), ("axes", (2,)), ("angle", ()))]
    bad = np.zeros(len(values), bool)
    bad[shown] = np.any([b for _, b in parts], axis=0) | ~(parts[1][0] > 0.0).all(axis=1)
    out = [np.full((len(values), *part.shape[1:]), math.nan) for part, _ in parts]
    for full, (part, _) in zip(out, parts):
        full[shown] = part
        full.setflags(write=False)
    return out, bad


_BAD_BOX = "bad box: expected 4 finite numbers, each min strictly below its max"


class _Checks(list):
    """The checks of a list of records, in the order in which a record's
    fault is named: each (field, message, mask of the records failing it)."""

    def __init__(self, recs: list):
        super().__init__()
        self.recs = recs

    def field(self, key: str, message: str, parse, *args):
        """The ``key`` values of the records as ``parse(values, *args)``
        gives them, with the mask of the bad ones (a missing value is None);
        adds the checks that the field is there, then that it is not bad."""
        try:
            values, missing = [rec[key] for rec in self.recs], np.zeros(len(self.recs), bool)
        except (KeyError, TypeError):  # a record not an object, or without the key
            missing = np.array([type(rec) is not dict or key not in rec for rec in self.recs], bool)
            values = [None if m else rec[key] for rec, m in zip(self.recs, missing)]
        out, bad = parse(values, *args)
        self += [(key, "missing field", missing), (key, message, bad)]
        return out


def _first_fault(rd: _Reader, name, checks: list, then=None) -> None:
    """Raise the fault of the first record in file order that fails one of
    ``checks``, naming it ``name(i)``, i its index, and the field of the
    first check it fails; else ``then``, a (message, record, field), if
    given."""
    bad = np.array([mask for *_, mask in checks], bool)
    if bad.any():
        i = int(bad.any(axis=0).argmax())
        fld, message, _ = checks[int(bad[:, i].argmax())]
        rd.fail(message, name(i), fld)
    if then is not None:
        rd.fail(*then)


def _grouped(groups: dict, known, record: str, prefix: str) -> tuple:
    """The records of ``groups`` (view id -> list) up to the first group that
    is not a list or, given ``known`` view ids, not one: each group's (view
    id, start, stop), the records, the function that names record i
    ``<prefix>[<vid>][<j>]``, and that group's fault (message, ``record``,
    view id) or None."""
    spans, recs = [], []

    def name(i):
        vid, start = next((vid, start) for vid, start, stop in spans if start <= i < stop)
        return f"{prefix}[{vid}][{i - start}]"

    for vid, group in groups.items():
        if type(group) is not list or known is not None and vid not in known:
            what = "a list" if type(group) is not list else "the id of a view of the dataset"
            return spans, recs, name, (f"expected {what}", record, vid)
        spans.append((vid, len(recs), len(recs) + len(group)))
        recs += group
    return spans, recs, name, None


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
    version = rd.get(doc, "schema_version", record="<root>")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"schema_version {version!r}, this build reads {SCHEMA_VERSION}",
            file=rd.file, record="<root>", field="schema_version",
        )
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
    """The calibrated views.  Checks, in order: ``view_id`` (missing, not a
    string, a repeat), the arrays of :data:`_VIEW_SHAPES`, the camera rules
    (naming ``image_size`` where it is not positive, else ``K``) and the
    rotation rule (naming ``R``)."""
    recs = rd.get_list(doc, "views", "<root>")
    checks = _Checks(recs)
    ids = checks.field("view_id", "expected a string", _strings)
    first = {}  # view id -> index of its first view
    checks.append(("view_id", "repeats the view id of an earlier view",
                   [type(v) is str and first.setdefault(v, i) != i for i, v in enumerate(ids)]))
    K, size, R, t = [checks.field(key, f"bad view: expected finite numbers of shape {shape}",
                                  _numbers, shape) for key, shape in _VIEW_SHAPES.items()]
    camera = _check_cameras(K, size)
    checks += [("image_size", f"bad view: {_NOT_A_CAMERA}", camera & (size <= 0.0).any(axis=1)),
               ("K", f"bad view: {_NOT_A_CAMERA}", camera),
               ("R", f"bad view: {_NOT_A_ROTATION}", _check_rotation(R))]
    _first_fault(rd, "views[{}]".format, checks)
    return [CalibratedView(vid, _prechecked(CameraModel, K=K[i], image_size=size[i]),
                           _prechecked(Pose, R=R[i], t=t[i])) for i, vid in enumerate(ids)]


def _parse_annotations(doc, rd, *, need_ellipse: bool, known=None) -> dict:
    """view_id -> ViewAnnotations, each a slice of the arrays, of a dataset
    (a null ellipse a NaN row; ``known`` its view ids) or of an annotations
    file (``need_ellipse``).  Checks, in order: ``box``, ``ellipse``,
    ``label``, then a null ellipse where ``need_ellipse``."""
    spans, recs, name, fault = _grouped(
        rd.get_mapping(doc, "annotations", "<root>"), known, "annotations", "annotations")
    checks = _Checks(recs)
    boxes = checks.field("box", _BAD_BOX, _boxes)
    ellipses = checks.field("ellipse", "bad ellipse: expected null or finite center[2] and angle "
                            "and positive axes[2]", _ellipses)
    labels = checks.field("label", "expected a string", _strings)
    if need_ellipse:
        checks.append(("ellipse", "expected an ellipse, got null", np.isnan(ellipses[2])))
    _first_fault(rd, name, checks, fault)
    labels, (centers, axes, angles) = tuple(labels), ellipses
    return {vid: _prechecked(ViewAnnotations, labels=labels[start:stop], boxes=boxes[start:stop],
                             centers=centers[start:stop], axes=axes[start:stop],
                             angles=angles[start:stop])
            for vid, start, stop in spans}


def _parse_objects(recs: list, rd, prefix: str) -> list:
    """The SceneObjects of ``recs``, named ``<prefix>[<j>]``.  Checks, in
    order: ``center``, ``axes``, ``rotation``, positive axes, the rotation
    rule, ``label``, the optional ``model_points``."""
    checks = _Checks(recs)
    center, axes, rotation = [
        checks.field(key, f"bad ellipsoid: expected finite numbers of shape {shape}",
                     _numbers, shape)
        for key, shape in (("center", (3,)), ("axes", (3,)), ("rotation", (3, 3)))]
    checks += [("axes", "bad ellipsoid: semi-axes must be positive", ~(axes > 0.0).all(axis=1)),
               ("rotation", f"bad ellipsoid: {_NOT_A_ROTATION}", _check_rotation(rotation))]
    labels = checks.field("label", "expected a string", _strings)
    # absent or null: no model points
    points = [rec.get("model_points") if type(rec) is dict else None for rec in recs]
    rows, bad = _lists(points, (3,))
    checks.append(("model_points", "bad model points: expected a non-empty list of finite "
                   "[x, y, z]", bad & np.array([p is not None for p in points], bool)))
    _first_fault(rd, f"{prefix}[{{}}]".format, checks)
    return [_prechecked(SceneObject, label=label,
                        ellipsoid=_prechecked(Ellipsoid, center=center[i], axes=axes[i],
                                              rotation=rotation[i]),
                        model_points=None if points[i] is None else rows[i])
            for i, label in enumerate(labels)]


def _parse_predictions(pdoc, rd, known) -> PredictionSet:
    """A dataset's prediction records.  Checks, in order: ``box``, the arrays
    of :data:`_PREDICTION_FIELDS`, positive ``dims``, ``label``."""
    n_bins = rd.get_number(pdoc, "n_bins", "predictions", int)
    overlap = rd.get_number(pdoc, "overlap_fraction", "predictions")
    try:
        cfg = MultibinConfig(n_bins, overlap)
    except ValueError as exc:
        rd.fail(f"bad multibin configuration: {exc}", "predictions")
    crop_size = rd.get_number(pdoc, "crop_size", "predictions")
    if crop_size <= 0.0:
        rd.fail(f"expected a positive number, got {crop_size!r}", "predictions", "crop_size")
    spans, recs, name, fault = _grouped(
        rd.get_mapping(pdoc, "records", "predictions"), known, "predictions.records", "predictions")
    checks = _Checks(recs)
    boxes = checks.field("box", _BAD_BOX, _boxes)
    center, dims = [checks.field(key, "bad prediction: expected finite numbers of shape (2,)",
                                 _numbers, (2,)) for key in ("center", "dims")]
    scores, corrections = [
        checks.field(key, f"bad prediction: expected {n_bins} entries, each finite numbers of "
                     f"shape {shape}", _lists, shape, n_bins)
        for key, shape in (("bin_scores", ()), ("corrections", (2,)))]
    checks.append(("dims", "bad prediction: dims must be positive", ~(dims > 0.0).all(axis=1)))
    labels = checks.field("label", "expected a string", _strings)
    _first_fault(rd, name, checks, fault)
    preds = [PredictionRecord(label, boxes[i], _prechecked(
        MultibinPrediction, center=center[i], dims=dims[i], bin_scores=scores[i],
        corrections=corrections[i])) for i, label in enumerate(labels)]
    return PredictionSet(crop_size, cfg, {vid: preds[start:stop] for vid, start, stop in spans})


def load_dataset(path) -> Dataset:
    doc, rd = _load_json(path)
    views = _parse_views(doc, rd)
    known = {v.view_id for v in views}
    annotations = _parse_annotations(doc, rd, need_ellipse=False, known=known)
    scene = None
    if doc.get("scene") is not None:
        objs = _parse_objects(rd.get_list(doc["scene"], "objects", "scene"), rd, "scene.objects")
        if not objs:
            rd.fail("bad scene: a scene needs at least one object", "scene", "objects")
        scene = SceneSpec(tuple(objs))
    pdoc = doc.get("predictions")
    predictions = None if pdoc is None else _parse_predictions(pdoc, rd, known)
    return _prechecked(Dataset, views=views, annotations=annotations, scene=scene,
                       predictions=predictions)


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
    objs = _parse_objects(rd.get_list(doc, "objects", "<root>"), rd, "objects")
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
    _first_fault(rd, "skipped[{}]".format,
                 [("skipped", "expected a list", [type(note) is not list for note in skipped])])
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
    """view_id -> rotation, all checked at once; a fault names the first bad
    ``orientations[<vid>]``."""
    doc, rd = _load_json(path)
    raw = rd.get_mapping(doc, "orientations", "<root>")
    R, bad = _numbers(list(raw.values()), (3, 3))
    _first_fault(rd, lambda i: f"orientations[{list(raw)[i]}]", [
        (None, "bad orientation: expected finite JSON numbers of shape (3, 3)", bad),
        (None, f"bad orientation: {_NOT_A_ROTATION}", _check_rotation(R))])
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
