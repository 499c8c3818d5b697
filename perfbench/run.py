#!/usr/bin/env python3
"""Benchmark of gpufi campaigns, end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the harness and the `gpufi` CLI from this checkout (Release, under
.bench_build/perfbench), then runs the harness on one workload, or on all
of them in turn with --workload all (the default). --trace 0 prints the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run; both
check the outputs first. Each metric is printed with its unit and sample
count, and the last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is nonzero when the
build fails or any output check fails.

Everything the run writes goes under .bench_build/ at the checkout root:
the build tree, and one output directory per run holding results.json,
stamp.json, the journals the checks compare and, when traced, spans.jsonl.
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
HARNESS = os.path.join(BUILD, "perfbench_harness")
GPUFI = os.path.join(BUILD, "gpufi", "tools", "gpufi")

WORKLOADS = ["gemm-iov", "spmv-mem-retry", "conv2d-adaptive-sharded"]
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the harness and gpufi up to date."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench_harness", "gpufi"])
    for cmd in steps:
        # Build chatter goes to stderr; stdout carries only results.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return True


def stamp():
    version = subprocess.run([GPUFI, "version"], capture_output=True,
                             text=True).stdout.strip()
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    return {"gpufi": version, "build_type": build_type,
            "nproc": os.cpu_count()}


def run_harness(workload, seed, seconds, trace, info):
    """Runs one workload; returns its parsed result line, or None."""
    out = os.path.join(OUT, "%s-s%d-t%d-%d" % (workload, seed, trace,
                                              time.time_ns()))
    os.makedirs(out)
    with open(os.path.join(out, "stamp.json"), "w") as f:
        json.dump(info, f)
    cmd = [HARNESS, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace, "--out=" + out,
           "--gpufi=" + GPUFI]
    # Own process group, so a timeout also ends the supervisor's workers.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("perfbench: %s timed out after %d s" % (workload,
                                                    HARNESS_TIMEOUT_S))
        return None
    lines = stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: %s printed no result (exit %d)" % (workload,
                                                           proc.returncode))
        return None
    bad = [n for n in result["metrics"] if not NAME.match(n)]
    if bad:
        log("perfbench: malformed metric names: %s" % bad)
        result["correct"] = False
    if proc.returncode != 0:
        result["correct"] = False
    print("results: " + os.path.join(out, "results.json"))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # Compilers and the harness put temporary files under TMPDIR; keep them
    # inside the checkout too.
    os.environ["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    if not build():
        return 1
    info = stamp()
    print("stamp: %s, build %s, nproc %s" % (info["gpufi"],
                                             info["build_type"],
                                             info["nproc"]))

    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if len(names) > 1:
            print("== %s" % name)
        result = run_harness(name, args.seed, args.seconds, args.trace, info)
        if result is None:
            return 1
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = name + "." if len(names) > 1 else ""
        for metric, value in result["metrics"].items():
            combined["metrics"][prefix + metric] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
