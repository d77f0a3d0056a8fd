"""Digest of one benchmark localisation round, per workload and seed.

    python3 tools/round_digest.py --seed 17 --seed 29

Run from the repository root.  For each seed, the operations of the
benchmark's two localisation workloads, ``localize_known`` and
``localize_full``, are built as ``bench/workload.py`` builds them and run
once, in order, with one BLAS thread.  One line is printed per workload and
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
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402

import ellipose  # noqa: E402
import workload  # noqa: E402


def round_digests(name, seed):
    """sha256 hex digests of one round of workload ``name`` at ``seed``:
    over everything, and over everything but the scores."""
    w = workload.make(name, seed)
    full, poses = hashlib.sha256(), hashlib.sha256()
    for index, op in enumerate(w.ops):
        try:
            est = w.run(op, index)
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
    for name in ("localize_known", "localize_full"):
        for seed in args.seed or (17,):
            full, poses = round_digests(name, seed)
            print(f"{name} seed {seed} {full}", flush=True)
            print(f"{name} seed {seed} poses {poses}", flush=True)


if __name__ == "__main__":
    main()
