"""Loader fuzz test: a valid document of each file kind, mutated by type
swaps, deleted keys, NaN/inf, huge integers and wrong shapes or lengths,
either loads or raises a ParseError (SchemaVersionMismatch is one) naming
the file, and, for one mutation at or below a record, that record."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bbox_of_ellipse, random_ellipse, random_ellipsoid, view_annotations
from ellipose import dataio
from ellipose.dataio import Dataset, PredictionRecord, PredictionSet
from ellipose.errors import ParseError
from ellipose.geometry import Ellipse
from ellipose.multibin import MultibinConfig, perfect_prediction
from ellipose.reconstruction import CalibratedView, EllipsoidCloud
from ellipose.simulator import SceneObject, SceneSpec, default_camera, look_at

LOADERS = {
    "dataset": dataio.load_dataset,
    "cloud": dataio.load_cloud,
    "annotations": dataio.load_annotations,
    "orientations": dataio.load_orientations,
    "scenario": dataio.load_scenario,
}


def _valid_documents(directory) -> dict:
    """One small valid document per file kind, as parsed JSON."""
    rng = np.random.default_rng(5)
    cam = default_camera()
    views = [
        CalibratedView(f"v{k}", cam, look_at((1.0, k + 1.0, 1.5), (0, 0, 0))) for k in range(2)
    ]
    e = random_ellipse(rng)
    cfg = MultibinConfig(3, 0.1)
    dataset = Dataset(
        views,
        {"v0": view_annotations([("a", bbox_of_ellipse(e), e),
                                 ("b", (0, 0, 9, 7), None)])},
        SceneSpec((SceneObject("a", random_ellipsoid(rng), rng.normal(size=(2, 3))),)),
        PredictionSet(64.0, cfg, {"v1": [PredictionRecord(
            "a", np.array([5.0, 5.0, 50.0, 60.0]), perfect_prediction(Ellipse((32, 32), (20, 9), 0.4), cfg)
        )]}),
    )
    writers = {
        "dataset": lambda p: dataio.save_dataset(dataset, p),
        "cloud": lambda p: dataio.save_cloud(EllipsoidCloud((("a", random_ellipsoid(rng)),)), p),
        "annotations": lambda p: dataio.save_annotations(
            {"v0": view_annotations([("a", bbox_of_ellipse(e), e)])},
            [("v1", "b", "BehindCamera")], p,
        ),
        "orientations": lambda p: dataio.save_orientations({"v0": views[0].pose.R}, p),
        "scenario": lambda p: p.write_text(json.dumps({
            "schema_version": 1, "name": "noise_sweep", "seed": 3,
            "params": {"n_azimuth": 4, "radius": 0.5, "half_ranges": [0.0, 5.0]},
        })),
    }
    docs = {}
    for kind, write in writers.items():
        path = directory / f"{kind}.json"
        write(path)
        docs[kind] = json.loads(path.read_text())
        LOADERS[kind](path)  # the unmutated document loads
    return docs


def _paths(node, prefix=()):
    """Key/index paths of every node of a JSON document, the root first."""
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, prefix + (key,))


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(10**400),  # JSON allows it; float() of it overflows
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
_VALUES = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=4),
    st.lists(st.lists(st.floats(-2, 2), min_size=3, max_size=3), max_size=3),
    st.dictionaries(st.text(max_size=2), _SCALARS, max_size=2),
)
_MUTATIONS = ("replace", "delete", "wrap", "truncate", "extend", "nan", "inf")

# file kind -> (the keys to a record, None for any, and how a fault names it)
_RECORDS = {
    "dataset": [(("views", None), "views[{1}]"),
                (("annotations", None, None), "annotations[{1}][{2}]"),
                (("scene", "objects", None), "scene.objects[{2}]"),
                (("predictions", "records", None, None), "predictions[{2}][{3}]")],
    "cloud": [(("objects", None), "objects[{1}]")],
    "annotations": [(("annotations", None, None), "annotations[{1}][{2}]")],
    "orientations": [(("orientations", None), "orientations[{1}]")],
}


def _record_at(kind, path, mutation):
    """The name of the record that ``mutation`` at ``path`` changes, or None
    when the path lies above every record, the mutation deletes the record,
    or it touches a view id (which other records refer to)."""
    for keys, name in _RECORDS.get(kind, ()):
        if len(path) >= len(keys) and all(k in (None, p) for k, p in zip(keys, path)):
            if "view_id" in path or (mutation == "delete" and len(path) == len(keys)):
                return None
            return name.format(*path)
    return None


def _mutate(doc, path, mutation, data):
    """``doc`` with ``mutation`` applied at ``path``."""
    if not path:
        return data.draw(_VALUES) if mutation == "replace" else [doc] if mutation == "wrap" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key, node = path[-1], parent[path[-1]]
    if mutation == "delete":
        del parent[key]
    elif mutation == "replace":
        parent[key] = data.draw(_VALUES)
    elif mutation == "wrap":
        parent[key] = [node]
    elif mutation in ("nan", "inf"):
        parent[key] = math.nan if mutation == "nan" else -math.inf
    elif isinstance(node, list) and node:
        parent[key] = node[:-1] if mutation == "truncate" else node + node[-1:]
    return doc


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    return directory, _valid_documents(directory)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_document_loads_or_names_the_file(documents, data):
    directory, docs = documents
    kind = data.draw(st.sampled_from(sorted(docs)), label="kind")
    doc = copy.deepcopy(docs[kind])
    n_mutations = data.draw(st.integers(1, 3), label="n_mutations")
    for _ in range(n_mutations):
        path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        mutation = data.draw(st.sampled_from(_MUTATIONS), label="mutation")
        doc = _mutate(doc, path, mutation, data)
    target = directory / f"mutated_{kind}.json"
    target.write_text(json.dumps(doc))
    try:
        LOADERS[kind](target)
    except ParseError as exc:
        assert exc.file == str(target)
        record = _record_at(kind, path, mutation) if n_mutations == 1 else None
        if record is not None:
            assert exc.record == record
