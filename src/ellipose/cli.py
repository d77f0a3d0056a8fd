"""Command-line interface: reconstruct, annotate, pose, simulate.

Exit codes: 0 success, 2 parse/usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import dataio
from .errors import ElliposeError, ParseError
from .geometry import crop_transform
from .multibin import decode_prediction
from .reconstruction import generate_annotations, reconstruct_cloud
from .scenarios import localize_views, run_scenario
from .simulator import DEG, DetectorModel, run_detector

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NUMERIC = 3


def _cmd_reconstruct(args) -> int:
    dataset = dataio.load_dataset(args.dataset)
    wanted = set(args.labels.split(",")) if args.labels else None
    boxes_by_view = {}
    for vid, ann in dataset.annotations.items():
        keep = [i for i, label in enumerate(ann.labels) if wanted is None or label in wanted]
        if keep:
            boxes_by_view[vid] = ([ann.labels[i] for i in keep], ann.boxes[keep])
    cloud, failures = reconstruct_cloud(boxes_by_view, dataset.views,
                                        allow_partial=args.allow_partial)
    dataio.save_cloud(cloud, args.out)
    for label, exc in sorted(failures.items()):
        print(f"warning: skipped label {label!r}: {exc}", file=sys.stderr)
    print(f"wrote {args.out} ({len(cloud.entries)} objects)")
    return EXIT_OK


def _cmd_annotate(args) -> int:
    dataset = dataio.load_dataset(args.dataset)
    cloud = dataio.load_cloud(args.cloud)
    annotations, skipped = generate_annotations(cloud, dataset.views)
    dataio.save_annotations(annotations, skipped, args.out)
    for vid, label, reason in skipped:
        print(f"note: skipped {label!r} in view {vid}: {reason}", file=sys.stderr)
    n = sum(len(a.labels) for a in annotations.values())
    print(f"wrote {args.out} ({n} annotations, {len(skipped)} skipped)")
    return EXIT_OK


def _detection_source(dataset, args, annotations_override):
    """view -> (label, Ellipse) detections according to --detections; the
    source is checked, and its detector built, once before any view."""
    if args.detections == "predictions":
        pred = dataset.predictions
        if pred is None:
            raise ParseError("dataset carries no predictions", file=args.dataset)
        return lambda view: [
            (rec.label, decode_prediction(rec.prediction, pred.config,
                                          crop_transform(rec.box, pred.crop_size)))
            for rec in pred.records.get(view.view_id, [])
        ]
    if args.detections == "detector":
        if dataset.scene is None:
            raise ParseError("dataset carries no scene for the detector", file=args.dataset)
        model = DetectorModel(args.detector_kind, args.box_noise, seed=args.seed)
        return lambda view: [(label, e) for label, e, _ in run_detector(model, dataset.scene, view)]
    annotations = dataset.annotations if annotations_override is None else annotations_override
    return lambda view: annotations[view.view_id].detections() if view.view_id in annotations else []


def _cmd_pose(args) -> int:
    dataset = dataio.load_dataset(args.dataset)
    cloud = dataio.load_cloud(args.cloud)
    orientations = None
    if args.orientation_file:
        orientations = dataio.load_orientations(args.orientation_file)
        for view in dataset.views:
            if view.view_id not in orientations:
                raise ParseError(
                    "no orientation for view", file=args.orientation_file,
                    record=f"orientations[{view.view_id}]",
                )
    annotations_override = None
    if args.annotations_file:
        annotations_override, _ = dataio.load_annotations(args.annotations_file)
    poses, results, failures = localize_views(
        dataset.views,
        _detection_source(dataset, args, annotations_override),
        cloud,
        orientations=orientations,
        eval_points=(
            dataset.scene.evaluation_points(1000) if dataset.scene is not None else None
        ),
        mode=args.mode.replace("-", "_"),
        iterations=args.iterations,
        inlier_iou_threshold=args.iou_threshold,
        seed=args.seed,
        refine_orientation=not args.keep_orientation,
    )
    dataio.save_poses(poses, failures, args.out_poses)
    dataio.write_csv(
        args.out_metrics,
        [
            "view_id",
            "n_inliers",
            "mean_inlier_iou[ratio]",
            "rotation_error[deg]",
            "position_error[world]",
            "reprojection_error[px]",
            "add_error[world]",
        ],
        [
            (r.view_id, r.n_inliers, float(r.score), r.rotation_error / DEG,
             r.position_error, r.reprojection_error, r.add_error)
            for r in results
        ],
    )
    for vid, reason in failures.items():
        print(f"warning: no pose for view {vid}: {reason}", file=sys.stderr)
    print(f"wrote {args.out_poses} and {args.out_metrics} ({len(results)} views)")
    if not poses:
        print("error: no view produced a pose", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_simulate(args) -> int:
    name, params, seed = dataio.load_scenario(args.scenario)
    if args.seed is not None:
        seed = args.seed
    paths = run_scenario(name, params, args.out_dir, seed)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The ``ellipose`` argument parser, built once: parsing leaves it as is."""
    ap = argparse.ArgumentParser(
        prog="ellipose",
        description="Object-based camera pose estimation from ellipse-ellipsoid geometry",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="build an ellipsoid cloud from annotated boxes")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", default=None, help="comma-separated label filter")
    p.add_argument("--allow-partial", action="store_true")
    p.set_defaults(fn=_cmd_reconstruct)

    p = sub.add_parser("annotate", help="reproject a cloud into every view")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_annotate)

    p = sub.add_parser("pose", help="estimate per-view camera poses")
    p.add_argument("--dataset", required=True)
    p.add_argument("--cloud", required=True)
    p.add_argument("--out-poses", required=True)
    p.add_argument("--out-metrics", required=True)
    p.add_argument("--mode", choices=["orientation-known", "full"], default="orientation-known")
    p.add_argument("--seed", type=int, default=0,
                   help="seed of --detections detector and of --mode full's RANSAC draws")
    p.add_argument("--iterations", type=int, default=8, help="RANSAC draws, --mode full only")
    p.add_argument("--iou-threshold", type=float, default=0.75)
    p.add_argument("--orientation-file", default=None)
    p.add_argument(
        "--annotations-file", default=None,
        help="use ellipses from an annotate output instead of the dataset",
    )
    p.add_argument(
        "--detections",
        choices=["annotations", "predictions", "detector"],
        default="annotations",
    )
    p.add_argument("--detector-kind", default="gt_projection")
    p.add_argument("--box-noise", type=float, default=0.0)
    p.add_argument(
        "--keep-orientation",
        action="store_true",
        help="never refine the provided orientation (--mode orientation-known only)",
    )
    p.set_defaults(fn=_cmd_pose)

    p = sub.add_parser("simulate", help="run a named scenario end to end")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=_cmd_simulate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ElliposeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
