"""In-memory span tracer for the traced benchmark run.

Public functions are wrapped at the module attributes through which their
callers reach them (``from .metrics import ellipse_iou`` binds the name in
``ellipose.pose``, so that is the attribute wrapped).  Each call records one
span: name, start, end, parent span and operation id, plus a few facts read
from the arguments or the result.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import time

IOU_INLIER = 0.35  # the workloads' inlier IoU threshold


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _iou(args, kwargs, result):
    return {"inlier": result >= IOU_INLIER}


def _refine(args, kwargs, result):
    return {"steps": max(len(result.costs) - 1, 0), "converged": bool(result.converged)}


def _views(args, kwargs, result):
    return {"views": len({o.view_id for o in args[0]})}


def _read(args, kwargs, result):
    return {"bytes_read": _size(args[0])}


def _written_at(i):
    def observe(args, kwargs, result):
        return {"bytes_written": _size(args[i])}

    return observe


# (module, attribute, span name, observer of (args, kwargs, result))
TARGETS = (
    ("ellipose.pose", "ransac_pose", "pose.ransac_pose", None),
    ("ellipose.pose", "position_from_pair", "pose.position_from_pair", None),
    ("ellipose.pose", "pose_from_two_pairs", "pose.pose_from_two_pairs", None),
    ("ellipose.pose", "refine_pose", "pose.refine_pose", _refine),
    ("ellipose.pose", "ellipse_iou", "metrics.ellipse_iou", _iou),
    ("ellipose.scenarios", "ellipse_iou", "metrics.ellipse_iou", _iou),
    ("ellipose.simulator", "project_ellipsoid", "geometry.project_ellipsoid", None),
    ("ellipose.reconstruction", "project_ellipsoid", "geometry.project_ellipsoid", None),
    ("ellipose.scenarios", "project_ellipsoid", "geometry.project_ellipsoid", None),
    ("ellipose.reconstruction", "reconstruct_ellipsoid", "reconstruction.reconstruct_ellipsoid", _views),
    ("ellipose.scenarios", "reconstruct_ellipsoid", "reconstruction.reconstruct_ellipsoid", _views),
    ("ellipose.cli", "generate_annotations", "reconstruction.generate_annotations", None),
    ("ellipose.scenarios", "generate_annotations", "reconstruction.generate_annotations", None),
    ("ellipose.simulator", "run_detector", "simulator.run_detector", None),
    ("ellipose.scenarios", "min_enclosing_ellipse", "simulator.min_enclosing_ellipse", None),
    ("ellipose.dataio", "load_dataset", "dataio.load_dataset", _read),
    ("ellipose.dataio", "load_cloud", "dataio.load_cloud", _read),
    ("ellipose.dataio", "save_cloud", "dataio.save_cloud", _written_at(1)),
    ("ellipose.dataio", "save_annotations", "dataio.save_annotations", _written_at(2)),
    ("ellipose.scenarios", "save_dataset", "dataio.save_dataset", _written_at(1)),
    ("ellipose.scenarios", "write_csv", "dataio.write_csv", _written_at(0)),
)

# (metric, unit, better); every metric the traced run prints
PER_LAYER = (
    ("pose.ransac_pose.self_ms", "ms", "lower"),
    ("pose.position_from_pair.calls", "count", "lower"),
    ("pose.position_from_pair.us", "us", "lower"),
    ("pose.position_from_pair.failed", "count", "lower"),
    ("pose.pose_from_two_pairs.calls", "count", "lower"),
    ("pose.pose_from_two_pairs.ms", "ms", "lower"),
    ("pose.pose_from_two_pairs.ambiguous", "count", "lower"),
    ("pose.pose_from_two_pairs.failed", "count", "lower"),
    ("pose.refine_pose.calls", "count", "lower"),
    ("pose.refine_pose.ms", "ms", "lower"),
    ("pose.refine_pose.lm_steps", "count", "lower"),
    ("pose.refine_pose.converged_share", "ratio", "higher"),
    ("metrics.ellipse_iou.calls", "count", "lower"),
    ("metrics.ellipse_iou.us", "us", "lower"),
    ("metrics.ellipse_iou.inlier_share", "ratio", "higher"),
    ("geometry.project_ellipsoid.calls", "count", "lower"),
    ("geometry.project_ellipsoid.us", "us", "lower"),
    ("reconstruction.reconstruct_ellipsoid.calls", "count", "lower"),
    ("reconstruction.reconstruct_ellipsoid.ms", "ms", "lower"),
    ("reconstruction.reconstruct_ellipsoid.views", "count", "higher"),
    ("reconstruction.generate_annotations.ms", "ms", "lower"),
    ("simulator.run_detector.calls", "count", "lower"),
    ("simulator.run_detector.us", "us", "lower"),
    ("simulator.min_enclosing_ellipse.calls", "count", "lower"),
    ("simulator.min_enclosing_ellipse.us", "us", "lower"),
    ("dataio.load_dataset.ms", "ms", "lower"),
    ("dataio.load_cloud.ms", "ms", "lower"),
    ("dataio.save_cloud.ms", "ms", "lower"),
    ("dataio.save_annotations.ms", "ms", "lower"),
    ("dataio.bytes_read", "bytes", "lower"),
    ("dataio.bytes_written", "bytes", "lower"),
    ("cli.reconstruct.self_ms", "ms", "lower"),
    ("cli.annotate.self_ms", "ms", "lower"),
    ("cli.simulate.self_ms", "ms", "lower"),
    ("pose.ransac_pose.pos_err_p50_mm", "mm", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Tracer:
    """Records spans of wrapped calls; ``op`` tags new spans."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op, facts or None]
        self.spans = []
        self.op = None
        self.missing = []
        self._stack = []
        self._originals = []  # (module, attribute, original) while installed

    def install(self):
        self.missing = []
        for module_name, attr, name, observe in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapped(name, original, observe))

    def uninstall(self):
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []

    def call(self, name, fn, *args):
        """Run ``fn`` under a span of the benchmark's own."""
        return self._wrapped(name, fn, None)(*args)

    def _wrapped(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[2] = time.perf_counter()
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
            rec[2] = time.perf_counter()
            if observe is not None:
                rec[5] = observe(args, kwargs, result)
            return result

        return wrapper

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op, facts) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "facts": facts,
                }) + "\n")


def self_times(spans):
    """Per-span (duration, self time); raises when children overrun a parent."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = []
    for i, (name, start, end, _, _, _) in enumerate(spans):
        dur = end - start
        if child[i] > dur + 1e-9:
            raise ValueError(f"children of span {i} ({name}) exceed it: {child[i]} > {dur}")
        out.append((dur, dur - child[i]))
    return out


def layer_metrics(spans, scale, overhead_pct, pos_err_mm):
    """Per-layer figures from recorded spans; ``scale`` converts raw span
    seconds to drift-corrected seconds."""
    times = self_times(spans)
    by_name = {}
    for (name, _, _, _, _, facts), (dur, own) in zip(spans, times):
        by_name.setdefault(name, []).append((own * scale, facts or {}))

    def calls(name):
        return len(by_name.get(name, ()))

    def per_call(name, unit_s):
        rows = by_name.get(name, ())
        return sum(o for o, _ in rows) / len(rows) / unit_s if rows else 0.0

    def count(name, pred):
        return sum(1 for _, f in by_name.get(name, ()) if pred(f))

    def share(name, key):
        rows = by_name.get(name, ())
        return sum(1 for _, f in rows if f.get(key)) / len(rows) if rows else 0.0

    def mean_fact(name, key):
        rows = by_name.get(name, ())
        return sum(f.get(key, 0) for _, f in rows) / len(rows) if rows else 0.0

    def total_fact(key):
        return sum(f.get(key, 0) for rows in by_name.values() for _, f in rows)

    ms, us = 1e-3, 1e-6
    values = {
        "pose.ransac_pose.self_ms": per_call("pose.ransac_pose", ms),
        "pose.position_from_pair.calls": calls("pose.position_from_pair"),
        "pose.position_from_pair.us": per_call("pose.position_from_pair", us),
        "pose.position_from_pair.failed": count("pose.position_from_pair", lambda f: "error" in f),
        "pose.pose_from_two_pairs.calls": calls("pose.pose_from_two_pairs"),
        "pose.pose_from_two_pairs.ms": per_call("pose.pose_from_two_pairs", ms),
        "pose.pose_from_two_pairs.ambiguous": count(
            "pose.pose_from_two_pairs", lambda f: f.get("error") == "AmbiguousSolution"),
        "pose.pose_from_two_pairs.failed": count(
            "pose.pose_from_two_pairs",
            lambda f: "error" in f and f["error"] != "AmbiguousSolution"),
        "pose.refine_pose.calls": calls("pose.refine_pose"),
        "pose.refine_pose.ms": per_call("pose.refine_pose", ms),
        "pose.refine_pose.lm_steps": mean_fact("pose.refine_pose", "steps"),
        "pose.refine_pose.converged_share": share("pose.refine_pose", "converged"),
        "metrics.ellipse_iou.calls": calls("metrics.ellipse_iou"),
        "metrics.ellipse_iou.us": per_call("metrics.ellipse_iou", us),
        "metrics.ellipse_iou.inlier_share": share("metrics.ellipse_iou", "inlier"),
        "geometry.project_ellipsoid.calls": calls("geometry.project_ellipsoid"),
        "geometry.project_ellipsoid.us": per_call("geometry.project_ellipsoid", us),
        "reconstruction.reconstruct_ellipsoid.calls": calls("reconstruction.reconstruct_ellipsoid"),
        "reconstruction.reconstruct_ellipsoid.ms": per_call("reconstruction.reconstruct_ellipsoid", ms),
        "reconstruction.reconstruct_ellipsoid.views": mean_fact(
            "reconstruction.reconstruct_ellipsoid", "views"),
        "reconstruction.generate_annotations.ms": per_call("reconstruction.generate_annotations", ms),
        "simulator.run_detector.calls": calls("simulator.run_detector"),
        "simulator.run_detector.us": per_call("simulator.run_detector", us),
        "simulator.min_enclosing_ellipse.calls": calls("simulator.min_enclosing_ellipse"),
        "simulator.min_enclosing_ellipse.us": per_call("simulator.min_enclosing_ellipse", us),
        "dataio.load_dataset.ms": per_call("dataio.load_dataset", ms),
        "dataio.load_cloud.ms": per_call("dataio.load_cloud", ms),
        "dataio.save_cloud.ms": per_call("dataio.save_cloud", ms),
        "dataio.save_annotations.ms": per_call("dataio.save_annotations", ms),
        "dataio.bytes_read": total_fact("bytes_read"),
        "dataio.bytes_written": total_fact("bytes_written"),
        "cli.reconstruct.self_ms": per_call("cli.reconstruct", ms),
        "cli.annotate.self_ms": per_call("cli.annotate", ms),
        "cli.simulate.self_ms": per_call("cli.simulate", ms),
        "pose.ransac_pose.pos_err_p50_mm": pos_err_mm,
        "trace.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
