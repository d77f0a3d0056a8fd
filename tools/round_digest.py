"""Digest of one localisation round, per recipe and seed.

    python3 tools/round_digest.py --seed 17 --seed 29

Run from the repository root.  Three recipes are run once per seed, in
order, with one BLAS thread.  The first two are the operations of the
benchmark's two localisation workloads, ``localize_known`` and
``localize_full``, built as ``bench/workload.py`` builds them.  The third,
``two_object_full``, reaches the two-pair solver, which the others never
do: every 5th view of the benchmark's 25 x 10 board rig on the two-object
board ``tless_like_board(2)``, which has no triple of objects, localised in
full mode with 8 draws, an inlier IoU of 0.35 and the seed, first from the
exact outlines and then from the inscribed ellipses of 5 px noisy boxes
with the detector seeded by the seed.  One line is printed per recipe and
seed, and a second that leaves the scores out::

    localize_known seed 17 <sha256 hex>
    localize_known seed 17 poses <sha256 hex>

The recipe of the first: one sha256 over the round's operations in order;
for each operation that returns a pose estimate, the bytes of ``pose.R``
(float64, C order, native byte order), then the bytes of ``pose.t``, then
``repr(inliers)`` encoded as UTF-8, then the bytes of
``numpy.float64(score)``; for an operation that raises an ``ElliposeError``,
its class name encoded as UTF-8.  The second is the same sha256 without the
score bytes.  Two trees, or two processes, gave the same outputs for a round
exactly when their first digests are equal, and the same poses and inlier
sets when their second are: a change that moves only scores changes the
first line alone.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # set before numpy loads its BLAS

import argparse  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import ellipose  # noqa: E402
import workload  # noqa: E402
from ellipose import scenarios, simulator  # noqa: E402

RECIPES = ("localize_known", "localize_full", "two_object_full")


def operations(name, seed):
    """One round of recipe ``name`` at ``seed``: one callable per operation,
    in order, each returning a pose estimate or raising."""
    if name != "two_object_full":
        w = workload.make(name, seed)
        return [functools.partial(w.run, op, index) for index, op in enumerate(w.ops)]
    scene = simulator.tless_like_board(2)
    cloud = scenarios.cloud_of_scene(scene)
    views = simulator.sample_cameras(simulator.CameraRig(0.75, 25, 10))[::5]
    opts = ellipose.RansacOptions(mode="full", iterations=8, inlier_iou_threshold=0.35, seed=seed)
    ops = []
    for kind, level in (("gt_projection", 0.0), ("inscribed_of_noisy_box", 5.0)):
        model = simulator.DetectorModel(kind, level, seed=seed)
        for view in views:
            dets = [(label, e) for label, e, _ in simulator.run_detector(model, scene, view)]
            ops.append(functools.partial(ellipose.ransac_pose, dets, cloud, view.cam, opts))
    return ops


def round_digests(name, seed):
    """sha256 hex digests of one round of recipe ``name`` at ``seed``:
    over everything, and over everything but the scores."""
    full, poses = hashlib.sha256(), hashlib.sha256()
    for op in operations(name, seed):
        try:
            est = op()
        except ellipose.ElliposeError as exc:
            for h in (full, poses):
                h.update(type(exc).__name__.encode())
            continue
        for h in (full, poses):
            h.update(np.ascontiguousarray(est.pose.R, np.float64).tobytes())
            h.update(np.ascontiguousarray(est.pose.t, np.float64).tobytes())
            h.update(repr(est.inliers).encode())
        full.update(np.float64(est.score).tobytes())
    return full.hexdigest(), poses.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append", help="repeat for several (default: 17)")
    args = ap.parse_args()
    for name in RECIPES:
        for seed in args.seed or (17,):
            full, poses = round_digests(name, seed)
            print(f"{name} seed {seed} {full}", flush=True)
            print(f"{name} seed {seed} poses {poses}", flush=True)


if __name__ == "__main__":
    main()
