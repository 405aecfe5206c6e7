#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the nemsim_perf driver from this checkout (Release, its own CMake
project in perfbench/) and runs one workload:

    python3 perfbench/run.py --workload column_read --seed 1 --seconds 15 --trace 0

Run it from the checkout root.  The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/; traced runs also write their
spans there.  The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1.  Exits nonzero without a result when the
build fails, when the driver fails, or when any output check misses.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Configure plus build, and one run, must end within 900 s on a cold
# checkout.
BUILD_TIMEOUT_S = 700
# Time nemsim_perf needs beyond --seconds: set-up, the reference analyses,
# the warm-up pass, the pass that ends past the deadline and the probes.
RUN_SLACK_S = 150


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git_provenance():
    """(sha, dirty) of the checkout, or 'unavailable' outside a git tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable", "unavailable"
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return "unavailable", "unavailable"
    return sha, "1" if status.strip() else "0"


def build(build_dir):
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nemsim_perf",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()),
                           check=True)
        except (OSError, subprocess.SubprocessError) as e:
            die(f"build step {' '.join(cmd)} failed: {e}")
    return os.path.join(build_dir, "nemsim_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        die("--seed must be >= 0 and --seconds in [1, 600]")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("nemsim sources (src/) not found next to perfbench/: run from "
            "a full checkout")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    build_dir = os.path.join(build_root, "perfbench")
    binary = build(build_dir)

    sha, dirty = git_provenance()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha, "--git-dirty", dirty]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    timeout = args.seconds + RUN_SLACK_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        die(f"driver exceeded {timeout} s")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        die(f"driver exited with code {proc.returncode}", 1)

    raw = json.loads(lines[-1])
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if not isinstance(value, (int, float)):
            die(f"driver reported no value for metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = set(raw["metrics"]) - set(metrics)
    if extra:
        die(f"driver reported metrics missing from BENCHMARK.json: {sorted(extra)}")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
