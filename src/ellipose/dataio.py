"""File formats: JSON for structured records (datasets, clouds,
annotations, orientations, poses) and CSV for metric tables.

JSON floats round-trip losslessly (repr emits the shortest exact decimal),
and writers are deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ParseError, SchemaVersionMismatch
from .geometry import Box, CameraModel, Ellipse, Ellipsoid, Pose, _check_rotation, _freeze
from .multibin import MultibinConfig, MultibinPrediction
from .reconstruction import CalibratedView, EllipsoidCloud
from .simulator import SceneObject, SceneSpec

SCHEMA_VERSION = 1


@dataclass(frozen=True, eq=False)
class Annotation:
    label: str
    box: Box
    ellipse: Ellipse | None = None


@dataclass(frozen=True, eq=False)
class PredictionRecord:
    label: str
    box: Box
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
    annotations: dict = field(default_factory=dict)  # view_id -> [Annotation]
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


def _ellipse_to_json(e: Ellipse) -> dict:
    return {"center": _mat(e.center), "axes": _mat(e.axes), "angle": float(e.angle)}


def _box_to_json(b: Box) -> list:
    return [float(b.min[0]), float(b.min[1]), float(b.max[0]), float(b.max[1])]


def _ellipsoid_to_json(E: Ellipsoid) -> dict:
    return {"center": _mat(E.center), "axes": _mat(E.axes), "rotation": _mat(E.rotation)}


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
        "annotations": {
            vid: [
                {
                    "label": a.label,
                    "box": _box_to_json(a.box),
                    "ellipse": None if a.ellipse is None else _ellipse_to_json(a.ellipse),
                }
                for a in anns
            ]
            for vid, anns in d.annotations.items()
        },
    }
    if d.scene is not None:
        objs = []
        for o in d.scene.objects:
            rec = {"label": o.label, **_ellipsoid_to_json(o.ellipsoid)}
            if o.model_points is not None:
                rec["model_points"] = _mat(o.model_points)
            objs.append(rec)
        out["scene"] = {"world_scale": float(d.scene.world_scale), "objects": objs}
    if d.predictions is not None:
        p = d.predictions
        out["predictions"] = {
            "crop_size": float(p.crop_size),
            "n_bins": int(p.config.n_bins),
            "overlap_fraction": float(p.config.overlap_fraction),
            "records": {
                vid: [
                    {
                        "label": r.label,
                        "box": _box_to_json(r.box),
                        "center": _mat(r.prediction.center),
                        "dims": _mat(r.prediction.dims),
                        "bin_scores": _mat(r.prediction.bin_scores),
                        "corrections": _mat(r.prediction.corrections),
                    }
                    for r in recs
                ]
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
        try:
            return kind(value)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"expected a number, got {type(value).__name__}",
                file=self.file, record=record, field=key,
            ) from exc

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


def _check_schema(doc, rd: _Reader):
    version = rd.get(doc, "schema_version", record="<root>")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(
            f"{rd.file}: schema_version {version!r}, this build reads {SCHEMA_VERSION}"
        )


def _load_json(path) -> tuple:
    path = Path(path)
    rd = _Reader(str(path))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", file=str(path)) from exc
    except (IsADirectoryError, PermissionError) as exc:
        raise ParseError(f"cannot read: {exc.strerror}", file=str(path)) from exc
    if not isinstance(doc, dict):
        rd.fail(f"expected a JSON object, got {type(doc).__name__}", "<root>")
    _check_schema(doc, rd)
    return doc, rd


def load_scenario(path) -> tuple:
    """(name, params, seed) of a scenario file; the seed defaults to 0 and
    the params to an empty object."""
    doc, rd = _load_json(path)
    name = rd.get(doc, "name", "<root>")
    if not isinstance(name, str) or not name:
        rd.fail("expected a scenario name", "<root>", "name")
    params = doc.get("params")
    if params is None:
        params = {}
    elif not isinstance(params, dict):
        rd.fail(f"expected an object, got {type(params).__name__}", "<root>", "params")
    seed = rd.get_number(doc, "seed", "<root>", int) if "seed" in doc else 0
    return name, params, seed


def _parse_view(rec, rd: _Reader, idx: int) -> CalibratedView:
    label = f"views[{idx}]"
    vid = rd.get(rec, "view_id", label)
    try:
        cam = CameraModel(rd.get(rec, "K", label), rd.get(rec, "image_size", label))
        pose = Pose(rd.get(rec, "R", label), rd.get(rec, "t", label))
    except (ValueError, TypeError) as exc:
        rd.fail(f"bad view geometry: {exc}", label)
    return CalibratedView(str(vid), cam, pose)


def _parse_ellipse(rec, rd, record) -> Ellipse:
    try:
        return Ellipse(
            rd.get(rec, "center", record), rd.get(rec, "axes", record),
            rd.get(rec, "angle", record),
        )
    except (ValueError, TypeError) as exc:
        rd.fail(f"bad ellipse: {exc}", record)


def _parse_box(vals, rd, record) -> Box:
    try:
        return Box((vals[0], vals[1]), (vals[2], vals[3]))
    except (ValueError, TypeError, IndexError) as exc:
        rd.fail(f"bad box: {exc}", record, "box")


def load_dataset(path) -> Dataset:
    doc, rd = _load_json(path)
    views = [
        _parse_view(rec, rd, i) for i, rec in enumerate(rd.get_list(doc, "views", "<root>"))
    ]
    annotations = {}
    ann_doc = rd.get_mapping(doc, "annotations", "<root>")
    for vid in ann_doc:
        rows = []
        for j, rec in enumerate(rd.get_list(ann_doc, vid, "annotations")):
            record = f"annotations[{vid}][{j}]"
            box = _parse_box(rd.get(rec, "box", record), rd, record)
            raw_e = rd.get(rec, "ellipse", record)
            ellipse = None if raw_e is None else _parse_ellipse(raw_e, rd, record)
            rows.append(Annotation(str(rd.get(rec, "label", record)), box, ellipse))
        annotations[vid] = rows
    scene = None
    if doc.get("scene") is not None:
        sdoc = doc["scene"]
        objs = []
        for j, rec in enumerate(rd.get_list(sdoc, "objects", "scene")):
            record = f"scene.objects[{j}]"
            try:
                ellipsoid = Ellipsoid(
                    rd.get(rec, "center", record), rd.get(rec, "axes", record),
                    rd.get(rec, "rotation", record),
                )
            except (ValueError, TypeError) as exc:
                rd.fail(f"bad ellipsoid: {exc}", record)
            label = str(rd.get(rec, "label", record))
            try:
                objs.append(SceneObject(label, ellipsoid, rec.get("model_points")))
            except (ValueError, TypeError) as exc:
                rd.fail(f"bad model points: {exc}", record, "model_points")
        scene = SceneSpec(tuple(objs), rd.get_number(sdoc, "world_scale", "scene"))
    predictions = None
    if doc.get("predictions") is not None:
        pdoc = doc["predictions"]
        n_bins = rd.get_number(pdoc, "n_bins", "predictions", int)
        overlap = rd.get_number(pdoc, "overlap_fraction", "predictions")
        try:
            cfg = MultibinConfig(n_bins, overlap)
        except ValueError as exc:
            rd.fail(f"bad multibin configuration: {exc}", "predictions")
        records = {}
        rec_doc = rd.get_mapping(pdoc, "records", "predictions")
        for vid in rec_doc:
            rows = []
            for j, rec in enumerate(rd.get_list(rec_doc, vid, "predictions.records")):
                record = f"predictions[{vid}][{j}]"
                box = _parse_box(rd.get(rec, "box", record), rd, record)
                try:
                    pred = MultibinPrediction(
                        rd.get(rec, "center", record), rd.get(rec, "dims", record),
                        rd.get(rec, "bin_scores", record),
                        rd.get(rec, "corrections", record),
                    )
                except (ValueError, TypeError) as exc:
                    rd.fail(f"bad prediction: {exc}", record)
                rows.append(PredictionRecord(str(rd.get(rec, "label", record)), box, pred))
            records[vid] = rows
        predictions = PredictionSet(rd.get_number(pdoc, "crop_size", "predictions"), cfg, records)
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
            "objects": [
                {"label": label, **_ellipsoid_to_json(E)} for label, E in cloud.entries
            ],
        },
        path,
    )


def load_cloud(path) -> EllipsoidCloud:
    doc, rd = _load_json(path)
    entries = []
    for j, rec in enumerate(rd.get_list(doc, "objects", "<root>")):
        record = f"objects[{j}]"
        try:
            E = Ellipsoid(
                rd.get(rec, "center", record), rd.get(rec, "axes", record),
                rd.get(rec, "rotation", record),
            )
        except (ValueError, TypeError) as exc:
            rd.fail(f"bad ellipsoid: {exc}", record)
        entries.append((str(rd.get(rec, "label", record)), E))
    return EllipsoidCloud(tuple(entries), allow_duplicate_labels=True)


def save_annotations(annotations: dict, skipped, path) -> None:
    _dump(
        {
            "schema_version": SCHEMA_VERSION,
            "annotations": {
                vid: [
                    {
                        "label": label,
                        "box": _box_to_json(box),
                        "ellipse": _ellipse_to_json(e),
                    }
                    for label, e, box in rows
                ]
                for vid, rows in annotations.items()
            },
            "skipped": [list(s) for s in skipped],
        },
        path,
    )


def load_annotations(path) -> tuple:
    doc, rd = _load_json(path)
    out = {}
    ann_doc = rd.get_mapping(doc, "annotations", "<root>")
    for vid in ann_doc:
        rows = []
        for j, rec in enumerate(rd.get_list(ann_doc, vid, "annotations")):
            record = f"annotations[{vid}][{j}]"
            e = _parse_ellipse(rd.get(rec, "ellipse", record), rd, record)
            box = _parse_box(rd.get(rec, "box", record), rd, record)
            rows.append((str(rd.get(rec, "label", record)), e, box))
        out[vid] = rows
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
        except (ValueError, TypeError) as exc:
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
