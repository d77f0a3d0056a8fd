"""Output checks of the benchmark, in plain numpy.

Each check compares the program's outputs with a computation made here, apart
from the package, or with a property the method must have.  A check returns
a list of failure messages; an empty list means the outputs passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np

ORACLE_TOL = 1e-6        # x rig radius: exact outlines give the exact pose
FULL_ROT_TOL = 1e-3      # rad, criterion 3's two-pair bound
FULL_POS_TOL = 1e-3      # x rig radius
CLOUD_CENTER_TOL = 1e-3  # world units (1 mm)
CLOUD_AXES_TOL = 0.05    # relative, descending semi-axes
TANGENCY_TOL = 1e-9      # ray-quadric discriminant / b^2
FIG3_GT_IOU = 0.999
FIG3_GAP = 0.02


def camera_center(R, t):
    R = np.asarray(R, float)
    return -R.T @ np.asarray(t, float)


def rotation_angle(R1, R2):
    """Geodesic angle via ||R1 - R2||_F = 2 sqrt(2) sin(angle / 2), exact at 0."""
    s = float(np.linalg.norm(np.asarray(R1) - np.asarray(R2))) / (2.0 * math.sqrt(2.0))
    return 2.0 * math.asin(min(1.0, s))


def pose_error(R, t, R_true, t_true):
    """(rotation error in rad, camera-centre distance in world units)."""
    pos = float(np.linalg.norm(camera_center(R, t) - camera_center(R_true, t_true)))
    return rotation_angle(R, R_true), pos


def check_oracle(pos_errors, radius):
    bad = [e for e in pos_errors if not e <= ORACLE_TOL * radius]
    if bad:
        return [f"oracle: {len(bad)} camera centres off by up to {max(bad):.3g} "
                f"(> {ORACLE_TOL * radius:.3g})"]
    return []


def check_boxfit(medians_by_level, oracle_median):
    """Box-fitting median error rises strictly with box noise and exceeds the
    oracle's at every level."""
    levels = sorted(medians_by_level)
    meds = [medians_by_level[h] for h in levels]
    out = []
    if not all(a < b for a, b in zip(meds, meds[1:])):
        out.append(f"box-fit medians do not rise strictly over {levels} px: {meds}")
    if not all(m > oracle_median for m in meds):
        out.append(f"box-fit medians {meds} do not all exceed the oracle's {oracle_median:.3g}")
    return out


def check_full(errors, radius):
    bad = [(r, p) for r, p in errors if not (r <= FULL_ROT_TOL and p <= FULL_POS_TOL * radius)]
    if bad:
        worst_r = max(r for r, _ in bad)
        worst_p = max(p for _, p in bad)
        return [f"full mode: {len(bad)} poses off by up to {worst_r:.3g} rad / {worst_p:.3g}"]
    return []


def check_cloud(cloud_doc, truth):
    """``cloud_doc`` is the parsed cloud JSON; ``truth`` maps label ->
    (center, semi-axes)."""
    got = {o["label"]: o for o in cloud_doc["objects"]}
    if sorted(got) != sorted(truth):
        return [f"cloud labels {sorted(got)} != scene labels {sorted(truth)}"]
    out = []
    for label, (center, axes) in truth.items():
        dc = float(np.linalg.norm(np.asarray(got[label]["center"], float) - center))
        if not dc <= CLOUD_CENTER_TOL:
            out.append(f"cloud {label}: centre off by {dc:.3g}")
        a_got = np.sort(np.asarray(got[label]["axes"], float))[::-1]
        a_true = np.sort(np.asarray(axes, float))[::-1]
        rel = float(np.max(np.abs(a_got / a_true - 1.0)))
        if not rel <= CLOUD_AXES_TOL:
            out.append(f"cloud {label}: semi-axes off by {100 * rel:.2f}%")
    return out


def cloud_center_errors(cloud_doc, truth):
    got = {o["label"]: o for o in cloud_doc["objects"]}
    return [float(np.linalg.norm(np.asarray(got[l]["center"], float) - c))
            for l, (c, _) in truth.items() if l in got]


def tangency(views, annotations, cloud_doc, n_points=8):
    """Largest |ray-quadric discriminant| / b^2 over back-projected boundary
    points of every annotated ellipse, against the ellipsoid of its label.

    ``views`` maps view_id -> (K, R, t); ``annotations`` view_id -> list of
    records with ``label`` and ``ellipse`` {center, axes, angle}.
    """
    shapes = {}
    for o in cloud_doc["objects"]:
        Rw = np.asarray(o["rotation"], float)
        a = np.asarray(o["axes"], float)
        shapes[o["label"]] = (np.asarray(o["center"], float), Rw @ np.diag(1.0 / a**2) @ Rw.T)
    phi = 2.0 * math.pi * np.arange(n_points) / n_points
    worst = 0.0
    for vid, recs in annotations.items():
        K, R, t = views[vid]
        C = camera_center(R, t)
        Kinv = np.linalg.inv(K)
        for rec in recs:
            e = rec["ellipse"]
            c, s = math.cos(e["angle"]), math.sin(e["angle"])
            u = e["axes"][0] * np.cos(phi)
            v = e["axes"][1] * np.sin(phi)
            px = np.stack([e["center"][0] + c * u - s * v, e["center"][1] + s * u + c * v,
                           np.ones(n_points)])
            d = R.T @ (Kinv @ px)                  # world ray directions, (3, n)
            center, A = shapes[rec["label"]]
            p = C - center
            qa = np.einsum("in,ij,jn->n", d, A, d)
            qb = d.T @ (A @ p)
            qc = float(p @ A @ p) - 1.0
            disc = qb * qb - qa * qc
            worst = max(worst, float(np.max(np.abs(disc) / (qb * qb))))
    return worst


def check_annotations(views, annotations, cloud_doc):
    worst = tangency(views, annotations, cloud_doc)
    n = sum(len(r) for r in annotations.values())
    if n == 0:
        return ["annotate wrote no annotations"]
    if not worst <= TANGENCY_TOL:
        return [f"annotations: back-projected outline misses its ellipsoid "
                f"(|disc|/b^2 up to {worst:.3g} > {TANGENCY_TOL:g})"]
    return []


def read_fig3(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    by_id = {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}
    return by_id


def check_fig3(by_id):
    if "mean" not in by_id or "gap" not in by_id:
        return ["fig3 CSV lacks its mean or gap row"]
    mean_gt = by_id["mean"][1]
    gap = by_id["gap"][0]
    out = []
    if not mean_gt > FIG3_GT_IOU:
        out.append(f"fig3: exact-outline IoU {mean_gt:.5f} <= {FIG3_GT_IOU}")
    if not gap >= FIG3_GAP:
        out.append(f"fig3: gap {gap:.4f} < {FIG3_GAP}")
    return out
