"""One benchmark workload in one process.

Started by ``run.py`` with one BLAS thread and ``src`` on the import path.
Phases: ``setup`` (package import, input generation, one warm-up operation;
prints the set-up time), ``run`` (set-up, then whole rounds of the timed
operations for ``--seconds``, then the output checks) and ``trace`` (set-up
and one round traced, beside one round untraced for the overhead).  The
last line of standard output is one JSON object.
"""

import time

T0 = time.perf_counter()  # set-up starts before the package import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ellipose  # noqa: E402
from ellipose import cli, pose, scenarios, simulator  # noqa: E402

import checks  # noqa: E402
import drift  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

T_IMPORTED = time.perf_counter()

# the criterion-6 protocol
RIG_RADIUS = 0.75
RIG = (25, 10)             # azimuths x elevations
ITERATIONS = 8
INLIER_IOU = 0.35
ORIENT_NOISE_DEG = 2.0
KNOWN_VIEW_STEP = 5        # localize_known: every 5th rig view (50 views)
BOX_LEVELS_PX = (0.0, 5.0, 10.0)
ORACLE_LEVEL_PX = 10.0
FULL_VIEW_STEP = 26        # localize_full: every 26th rig view (10 views)
SETUP_REFS = 10            # references before and after set-up

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def board():
    scene = simulator.tless_like_board(6)
    rig = simulator.CameraRig(RIG_RADIUS, *RIG)
    return scene, simulator.sample_cameras(rig)


# ---------------------------------------------------------------------------
# Localisation workloads: one operation is one ransac_pose call
# ---------------------------------------------------------------------------


class Localize:
    def __init__(self, name, seed, tracer=None):
        self.name = name
        self.tracer = tracer
        scene, views = board()
        self.cloud = scenarios.cloud_of_scene(scene)
        if name == "localize_known":
            noise = simulator.OrientationNoise(ORIENT_NOISE_DEG * simulator.DEG)
            orients = scenarios.noisy_orientations(views, noise, seed)
            chosen = views[::KNOWN_VIEW_STEP]
            detectors = [("inscribed_of_noisy_box", h) for h in BOX_LEVELS_PX]
            detectors.append(("oracle_with_box_noise", ORACLE_LEVEL_PX))
            mode = "orientation_known"
        else:
            orients = {}
            chosen = views[::FULL_VIEW_STEP]
            detectors = [("oracle_with_box_noise", ORACLE_LEVEL_PX)]
            mode = "full"
        self.ops = []
        for kind, level in detectors:
            model = simulator.DetectorModel(kind, level, seed=seed)
            for view in chosen:
                dets = [(label, e) for label, e, _ in simulator.run_detector(model, scene, view)]
                opts = pose.RansacOptions(
                    mode=mode, iterations=ITERATIONS, inlier_iou_threshold=INLIER_IOU,
                    seed=seed, rotation=orients.get(view.view_id),
                )
                self.ops.append(((kind, level), view, dets, opts))

    def run(self, op, index):
        _, view, dets, opts = op
        return pose.ransac_pose(dets, self.cloud, view.cam, opts)

    def errors(self, outputs):
        """(rotation, position) error per operation of one round; None where it failed."""
        errs = []
        for (_, view, _, _), est in zip(self.ops, outputs):
            errs.append(None if est is None else checks.pose_error(
                est.pose.R, est.pose.t, view.pose.R, view.pose.t))
        return errs

    def check(self, rounds):
        first = rounds[0]
        problems = []
        for later in rounds[1:]:
            for a, b in zip(first, later):
                if (a is None) != (b is None) or (a is not None and not (
                        np.array_equal(a.pose.R, b.pose.R) and np.array_equal(a.pose.t, b.pose.t))):
                    problems.append("a repeated operation gave a different pose")
                    break
        errs = self.errors(first)
        keys = [op[0] for op in self.ops]
        ok = [(k, e) for k, e in zip(keys, errs) if e is not None]
        if self.name == "localize_full":
            return problems + checks.check_full([e for _, e in ok], RIG_RADIUS)
        oracle = [e[1] for k, e in ok if k[0] == "oracle_with_box_noise"]
        problems += checks.check_oracle(oracle, RIG_RADIUS)
        medians = {k[1]: float(np.median([e[1] for kk, e in ok if kk == k]))
                   for k in set(keys) if k[0] == "inscribed_of_noisy_box"}
        problems += checks.check_boxfit(medians, float(np.median(oracle)))
        return problems

    def pos_err_mm(self, rounds):
        errs = self.errors(rounds[0])
        pos = [e[1] for op, e in zip(self.ops, errs)
               if e is not None and (self.name == "localize_full"
                                     or op[0][0] == "inscribed_of_noisy_box")]
        return 1000.0 * float(np.median(pos))

    def cleanup(self, outputs):
        pass


# ---------------------------------------------------------------------------
# Map building: one operation is reconstruct + annotate + simulate fig3
# ---------------------------------------------------------------------------


class CliFailed(Exception):
    """An ``ellipose`` command exited with a non-zero code."""


def run_cli(tracer, argv):
    """``ellipose <argv>`` in-process; its progress lines are discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
    if rc != 0:
        raise CliFailed(f"ellipose {' '.join(argv)} exited {rc}")


def write_scenario(path, name, seed):
    path.write_text(json.dumps({"schema_version": 1, "name": name, "seed": seed, "params": {}}))


class BuildMap:
    name = "build_map"

    def __init__(self, name, seed, tracer=None):
        self.seed = seed
        self.tracer = tracer
        self.work = OUT / f"build_map_{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        board_json = self.work / "tless_board.json"
        write_scenario(board_json, "tless_board", seed)
        self.fig3_json = self.work / "fig3_demo.json"
        write_scenario(self.fig3_json, "fig3_demo", seed)
        run_cli(tracer, ["simulate", "--scenario", str(board_json),
                         "--out-dir", str(self.work / "board"), "--seed", str(seed)])
        self.dataset = self.work / "board" / "dataset.json"
        scene = simulator.tless_like_board(6)
        self.truth = {o.label: (np.array(o.ellipsoid.center), np.array(o.ellipsoid.axes))
                      for o in scene.objects}
        doc = json.loads(self.dataset.read_text())
        self.views = {v["view_id"]: (np.array(v["K"]), np.array(v["R"]), np.array(v["t"]))
                      for v in doc["views"]}
        self.ops = [None]

    def run(self, op, index):
        out = self.work / f"op_{index}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        cloud, ann = out / "cloud.json", out / "annotations.json"
        run_cli(self.tracer, ["reconstruct", "--dataset", str(self.dataset), "--out", str(cloud)])
        run_cli(self.tracer, ["annotate", "--dataset", str(self.dataset), "--cloud", str(cloud),
                              "--out", str(ann)])
        run_cli(self.tracer, ["simulate", "--scenario", str(self.fig3_json),
                              "--out-dir", str(out / "fig3"), "--seed", str(self.seed)])
        return out

    def read(self, out):
        cloud = json.loads((out / "cloud.json").read_text())
        ann = json.loads((out / "annotations.json").read_text())["annotations"]
        fig3 = checks.read_fig3(out / "fig3" / "fig3_ious.csv")
        return cloud, ann, fig3

    def check_one(self, out):
        cloud, ann, fig3 = self.read(out)
        return (checks.check_cloud(cloud, self.truth)
                + checks.check_annotations(self.views, ann, cloud)
                + checks.check_fig3(fig3))

    def check(self, rounds):
        problems = []
        done = [out for (out,) in rounds if out is not None]
        first = (done[0] / "cloud.json").read_bytes() if done else None
        for out in done:
            problems += self.check_one(out)
            if (out / "cloud.json").read_bytes() != first:
                problems.append("a repeated map build wrote a different cloud")
        return problems

    def pos_err_mm(self, rounds):
        done = [out for (out,) in rounds if out is not None]
        if not done:
            return float("nan")
        cloud, _, _ = self.read(done[0])
        return 1000.0 * float(np.median(checks.cloud_center_errors(cloud, self.truth)))

    def cleanup(self, outputs):
        shutil.rmtree(self.work, ignore_errors=True)


def make(name, seed, tracer=None):
    return (BuildMap if name == "build_map" else Localize)(name, seed, tracer)


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


def timed_rounds(w, seconds, tracer=None):
    """Whole rounds of every operation until ``seconds`` have passed; with
    a ``tracer``, spans are tagged with the operation's index.

    Returns (outputs per round, raw seconds, corrected seconds, failed)."""
    gaps = [drift.gap_samples()]
    raw, rounds, failed = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        outputs = []
        for op in w.ops:
            if tracer is not None:
                tracer.op = index
            t = time.perf_counter()
            try:
                out = w.run(op, index)
            except (ellipose.ElliposeError, CliFailed):
                out = None
                failed += 1
            raw.append(time.perf_counter() - t)
            gaps.append(drift.gap_samples(raw[-1]))
            outputs.append(out)
            index += 1
        rounds.append(outputs)
        if time.perf_counter() - start >= seconds:
            break
    return rounds, raw, drift.corrected(raw, gaps), failed


def setup(args, tracer=None):
    """Input generation and one warm-up operation; returns the workload and
    the drift-corrected and raw set-up seconds (import included)."""
    before = drift.reference_samples(SETUP_REFS)
    t_inputs = time.perf_counter()
    w = make(args.workload, args.seed, tracer)
    w.run(w.ops[0], "warmup")
    t1 = time.perf_counter()
    after = drift.reference_samples(SETUP_REFS)
    raw = (t1 - t_inputs) + (T_IMPORTED - T0)
    return w, raw * drift.factor(before, after), raw


def latency_metrics(seconds, n_ops, suffix=""):
    """Throughput over every operation; latency percentiles over the distinct
    operations of a round, each taken as its median over the rounds."""
    ms = [1000.0 * s for s in seconds]
    per_op = [statistics.median(ms[j::n_ops]) for j in range(n_ops)]
    return {
        "throughput_ops_s" + suffix: {"value": len(ms) / (sum(ms) / 1000.0), "unit": "1/s"},
        "latency_p50_ms" + suffix: {"value": statistics.median(per_op), "unit": "ms"},
        "latency_p90_ms" + suffix: {"value": percentile(per_op, 90), "unit": "ms"},
    }


def machine():
    from importlib.metadata import version
    import platform

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": version("scipy"),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=["localize_known", "localize_full", "build_map"])
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--phase", choices=["setup", "run", "trace"], required=True)
    args = ap.parse_args()
    src = (ROOT / "src").resolve()
    if Path(ellipose.__file__).resolve().parent.parent != src:
        sys.exit(f"ellipose imported from {ellipose.__file__}, not from {src}")
    OUT.mkdir(exist_ok=True)

    if args.phase == "setup":
        w, setup_s, raw = setup(args)
        w.cleanup(None)
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": raw}))
        return

    if args.phase == "run":
        w, setup_s, setup_raw = setup(args)
        rounds, raw, corr, failed = timed_rounds(w, args.seconds)
        problems = w.check(rounds)
        metrics = latency_metrics(corr, len(w.ops))
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
        raw_metrics = latency_metrics(raw, len(w.ops), "_raw")
        raw_metrics["setup_s_raw"] = {"value": setup_raw, "unit": "s"}
        pos_err = w.pos_err_mm(rounds)
        w.cleanup(rounds)
        print(json.dumps({"problems": problems, "attempted": len(raw), "failed": failed,
                          "rounds": len(rounds), "pos_err_p50_mm": pos_err,
                          "machine": machine(), "metrics": metrics, "raw": raw_metrics}))
        return

    tracer = Tracer()
    tracer.install()
    tracer.op = "setup"
    w, _, _ = setup(args, tracer)
    tracer.uninstall()
    w.tracer = None
    plain, _, plain_corr, failed_plain = timed_rounds(w, 0.0)
    tracer.install()
    w.tracer = tracer
    traced, traced_raw, traced_corr, failed_traced = timed_rounds(w, 0.0, tracer)
    tracer.uninstall()
    problems = w.check(plain + traced)
    scale = sum(traced_corr) / sum(traced_raw)
    overhead = 100.0 * (sum(traced_corr) / sum(plain_corr) - 1.0)
    pos_err = w.pos_err_mm(traced) if isinstance(w, Localize) else 0.0
    metrics = layer_metrics(tracer.spans, scale, overhead, pos_err)
    path = OUT / f"trace_{args.workload}_seed{args.seed}.jsonl"
    tracer.write(path)
    w.cleanup(plain + traced)
    print(json.dumps({"problems": problems, "attempted": len(plain_corr) + len(traced_corr),
                      "failed": failed_plain + failed_traced, "missing": tracer.missing,
                      "trace_file": str(path.relative_to(ROOT)), "metrics": metrics}))


if __name__ == "__main__":
    main()
