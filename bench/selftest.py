"""Self-test of the output checks: each passes on real outputs and fails once
one output is corrupted.  Run through ``python3 bench/run.py --self-test``."""

import argparse
import json
import shutil

import numpy as np

import workload
from ellipose import Pose, PoseEstimate

MM = 1e-3  # world units


def shifted(est, dx=MM):
    """The estimate with its camera centre moved by ``dx`` along camera x."""
    return PoseEstimate(Pose(est.pose.R, est.pose.t + np.array([dx, 0.0, 0.0])),
                        est.inliers, est.score)


def localize_cases(seed):
    cases = {}
    w = workload.Localize("localize_known", seed)
    outs = [w.run(op, i) for i, op in enumerate(w.ops)]
    keys = [op[0] for op in w.ops]
    cases["localize_known: clean outputs pass"] = w.check([outs]) == []

    bad = list(outs)
    i = keys.index(("oracle_with_box_noise", workload.ORACLE_LEVEL_PX))
    bad[i] = shifted(bad[i])
    cases["oracle pose shifted by 1 mm"] = w.check([bad]) != []

    bad = list(outs)
    lo, hi = workload.BOX_LEVELS_PX[0], workload.BOX_LEVELS_PX[-1]
    src = [j for j, k in enumerate(keys) if k == ("inscribed_of_noisy_box", lo)]
    dst = [j for j, k in enumerate(keys) if k == ("inscribed_of_noisy_box", hi)]
    for a, b in zip(src, dst):
        bad[b] = outs[a]
    cases[f"box-fit poses at {hi:g} px replaced by those at {lo:g} px"] = w.check([bad]) != []

    again = list(outs)
    again[0] = shifted(again[0], 1e-12)
    cases["repeated round differs in one pose"] = w.check([outs, again]) != []

    w = workload.Localize("localize_full", seed)
    outs = [w.run(op, i) for i, op in enumerate(w.ops)]
    cases["localize_full: clean outputs pass"] = w.check([outs]) == []
    bad = list(outs)
    bad[-1] = shifted(bad[-1])
    cases["full-mode pose shifted by 1 mm"] = w.check([bad]) != []
    return cases


def build_map_cases(seed):
    cases = {}
    w = workload.BuildMap("build_map", seed)
    try:
        out = w.run(None, 0)
        cases["build_map: clean outputs pass"] = w.check([[out]]) == []

        def corrupted(name, edit, path):
            bad = w.work / f"bad_{len(cases)}"
            shutil.copytree(out, bad)
            target = bad / path
            if target.suffix == ".json":
                doc = json.loads(target.read_text())
                edit(doc)
                target.write_text(json.dumps(doc))
            else:
                target.write_text(edit(target.read_text()))
            cases[name] = w.check_one(bad) != []

        def scale_axis(doc):
            doc["objects"][2]["axes"][0] *= 1.1

        def move_annotation(doc):
            first = next(iter(doc["annotations"].values()))
            first[0]["ellipse"]["center"][0] += 1.0

        def lower_gap(text):
            lines = text.splitlines()
            lines[-1] = "gap,0.01,0.0"
            return "\n".join(lines) + "\n"

        corrupted("cloud semi-axis scaled by 10%", scale_axis, "cloud.json")
        corrupted("annotation moved by 1 px", move_annotation, "annotations.json")
        corrupted("fig3 gap lowered to 0.01", lower_gap, "fig3/fig3_ious.csv")

        again = w.work / "again"
        shutil.copytree(out, again)
        (again / "cloud.json").write_text((out / "cloud.json").read_text() + " ")
        cases["repeated map build writes a different cloud"] = w.check([[out], [again]]) != []
    finally:
        w.cleanup(None)
    return cases


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()
    workload.OUT.mkdir(exist_ok=True)
    cases = {**build_map_cases(args.seed), **localize_cases(args.seed)}
    print(json.dumps({"cases": cases, "all_checks_can_fail": all(cases.values())}))


if __name__ == "__main__":
    main()
