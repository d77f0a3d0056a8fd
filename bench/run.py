"""Benchmark of ellipose: localisation and map building, drift-corrected.

    python3 bench/run.py --workload localize_known --seed 17 --seconds 10 --trace 0

Run from the repository root.  Each workload runs in child processes with
one BLAS thread, one after another: ``SETUPS - 1`` set-up-only processes,
then one that sets up again and runs the timed loop (``--trace 0``) or the
traced round (``--trace 1``).  ``--workload all`` runs the three workloads in
turn.  ``--self-test`` shows that every output check can fail.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("localize_known", "localize_full", "build_map")
SETUPS = 3            # set-up is measured in this many fresh processes
CHILD_TIMEOUT_S = 150


def child_env():
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(ROOT / "src"),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
    })
    return env


def run_child(script, args):
    """Run a bench script in a fresh interpreter; returns its last stdout line
    as JSON.  Other output is passed on to stderr."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *args],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{script} {' '.join(args)} exited {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace):
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        res = run_child("workload.py", base + ["--phase", "trace"])
    else:
        setups = [run_child("workload.py", base + ["--phase", "setup"]) for _ in range(SETUPS - 1)]
        res = run_child("workload.py", base + ["--phase", "run"])
        setups.append({"setup_s": res["metrics"]["setup_s"]["value"],
                       "setup_raw_s": res["raw"]["setup_s_raw"]["value"]})
        res["metrics"]["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
        res["raw"]["setup_s_raw"]["value"] = statistics.median(s["setup_raw_s"] for s in setups)
    for problem in res["problems"]:
        print(f"{name}: check failed: {problem}", file=sys.stderr)
    detail = {k: v for k, v in res.items() if k not in ("metrics",)}
    print(json.dumps({"workload": name, "seed": seed, **detail}))
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": res["metrics"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "ellipose" / "__init__.py").is_file():
        sys.exit(f"no ellipose package under {ROOT / 'src'}; run from a checkout of the repository")
    if args.self_test:
        res = run_child("selftest.py", ["--seed", str(args.seed)])
        print(json.dumps(res))
        sys.exit(0 if res["all_checks_can_fail"] else 1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, args.seed, args.seconds, args.trace) for n in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))


if __name__ == "__main__":
    main()
