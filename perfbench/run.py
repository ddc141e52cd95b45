#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe from source (into $CARGO_TARGET_DIR, default
.bench_build, with the dune cache off so nothing is written outside the
checkout), runs it, and prints as the last line of stdout one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list; a layer the workload does not exercise reads 0.

Exit codes: 0 all checks passed; 1 an output, repeat or determinism check
failed (the result is still printed, with "correct": false); 2 the
benchmark could not run (no result is printed).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        die("no dune-project at %s: run from a full checkout of the repo" % ROOT)
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = shutil.which("dune")
    if dune is None and os.environ.get("OPAM_SWITCH_PREFIX"):
        dune = shutil.which("dune", path=os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin"))
    if dune is None:
        die("dune not found on PATH")
    cmd = [dune, "build", "--root", ROOT, "--build-dir", build_dir,
           "--profile", "release", "./perfbench/main.exe"]
    try:
        # the build's chatter goes to stderr: stdout carries only the result
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        die("cannot run dune: %s" % e)
    if done.returncode != 0:
        die("build failed")
    return os.path.join(build_dir, "default", "perfbench", "main.exe")


def select(spec_metrics, got, traced):
    """BENCHMARK.json's metrics for this mode, in its order and units."""
    out = {}
    for m in spec_metrics:
        name, unit = m["name"], m["unit"]
        if name in got:
            value, got_unit = got[name]["value"], got[name]["unit"]
            if got_unit != unit:
                die("metric %s: unit %r, BENCHMARK.json says %r" % (name, got_unit, unit))
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                die("metric %s: not a finite number (%r)" % (name, value))
        elif traced:
            value = 0.0  # the workload does not exercise this layer
        else:
            die("end-to-end metric %s missing" % name)
        out[name] = {"value": value, "unit": unit}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (spec_path, e))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds <= 0:
        die("need --seed >= 0 and --seconds > 0")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    out_dir = os.path.join(build_dir, "perfbench-spans")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        die("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        die("workload exited with code %d and no result" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("workload printed no JSON result")
    traced = args.trace == 1
    metrics = select(spec["per_layer" if traced else "end_to_end"],
                     result["metrics"], traced)
    correct = bool(result["correct"]) and done.returncode == 0
    print(json.dumps({"correct": correct, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
