#!/usr/bin/env python3
"""Builds and runs the cloudgen repository benchmark.

    python3 perfbench/run.py --workload gen_many --seed 1 --seconds 10 --trace 0

Run from the root of a cloudgen checkout. The first run configures and
builds `perfbench` (the repository's libraries plus the benchmark program in
perfbench/src) under .bench_build/ (or $CARGO_TARGET_DIR); later runs only
rebuild what changed. A run then has two steps, each a child process:

  prepare  synthesizes the seed's trace and trains the model generation
           loads (inputs, never timed);
  run      measures the workload, checks its outputs, and prints the result.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones, each exactly as BENCHMARK.json lists them (a run whose
metrics differ fails without a result); --trace 1 also writes a Chrome
trace to .bench_build/perfbench-traces/<workload>-<seed>.json. Exit status is 0 only
for a correct run. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("gen_many", "gen_stream", "serve", "train")
# A measured run must end well within three minutes, build excluded.
RUN_BUDGET_S = 170.0


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir, env):
    """Configures (once) and builds the perfbench target; False on failure."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def manifest_metrics(trace):
    """{name: unit} the result line must hold: BENCHMARK.json's end_to_end
    metrics untraced, its per_layer ones traced; None without a manifest."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        return {m["name"]: m["unit"]
                for m in manifest["per_layer" if trace else "end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError):
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    expected = manifest_metrics(args.trace)
    if expected is None:
        log("cannot read the metric list from BENCHMARK.json")
        return 1
    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out_root, "perfbench")
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(out_root, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not build(build_dir, env):
        return 1
    binary = os.path.join(build_dir, "perfbench")
    work_dir = os.path.join(out_root, "perfbench-work",
                            "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir]
    run_cmd = [binary, "--phase", "run", "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + common
    if args.trace:
        trace_dir = os.path.join(out_root, "perfbench-traces")
        os.makedirs(trace_dir, exist_ok=True)
        run_cmd += ["--trace-out", os.path.join(
            trace_dir, "%s-%d.json" % (args.workload, args.seed))]

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        # subprocess.run kills and reaps the child when its timeout expires.
        prepared = subprocess.run(
            [binary, "--phase", "prepare"] + common,
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=deadline - time.monotonic())
        if prepared.returncode != 0:
            log("prepare failed")
            return 1
        ran = subprocess.run(run_cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stderr=sys.stderr, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("run exceeded %.0f s" % RUN_BUDGET_S)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = ran.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        valid = (sorted(result) == ["attempted", "correct", "failed", "metrics"]
                 and result["attempted"] >= 1 and result["metrics"])
        units = {name: m["unit"] for name, m in result["metrics"].items()}
    except (IndexError, ValueError, TypeError, KeyError, AttributeError):
        valid = False
    if not valid:
        log("the benchmark printed no valid result")
        sys.stderr.write(ran.stdout)
        return 1
    if units != expected:
        # Every workload must report exactly the manifest's metrics.
        log("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(expected.items()) - set(units.items())),
            sorted(set(units.items()) - set(expected.items()))))
        sys.stderr.write(ran.stdout)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0 if ran.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
