#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Builds the unchained library from src/ together with the perfbench binary
(perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR, or .bench_build when
that is unset, then runs the binary. The binary's own lines (operation
counts per type, sample counts, failed checks) are passed through; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1 (a layer a workload does not exercise
reports 0). Traced runs also write a per-layer table to perfbench/results/.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full checkout")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1))
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build failed: %s" % e)
        if done.returncode != 0:
            fail("build failed: %s" % " ".join(cmd))
    return os.path.join(out, "perfbench")


def run_binary(cmd):
    """Runs the binary in its own process group; returns (code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not args.selftest and args.workload not in [
            w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    binary = build()

    scratch = os.path.join(os.path.dirname(build_dir()),
                           "scratch-%d" % os.getpid())
    os.makedirs(scratch, exist_ok=True)
    try:
        if args.selftest:
            code, out = run_binary([binary, "--selftest", "--scratch", scratch])
            sys.stdout.write(out)
            sys.exit(code)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        code, out = run_binary([
            binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--scratch", scratch, "--results", RESULTS_DIR])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if code != 0 or result is None:
        fail("the benchmark binary exited with %d and no result" % code)

    metrics = {}
    if args.trace == 0:
        listed = {m["name"] for m in spec["end_to_end"]}
        for name, got in result["metrics"].items():
            if name not in listed:
                print("metric %-26s %s %s" % (name, got["value"], got["unit"]))
        for m in spec["end_to_end"]:
            got = result["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"]:
                fail("end-to-end metric %s not measured" % m["name"])
            metrics[m["name"]] = got
    else:
        for m in spec["per_layer"]:
            got = result["layers"].get(m["name"])
            if got is not None and got["unit"] != m["unit"]:
                fail("per-layer metric %s has unit %s" % (m["name"], got["unit"]))
            metrics[m["name"]] = got or {"value": 0, "unit": m["unit"]}
    final = {"correct": result["correct"], "attempted": result["attempted"],
             "failed": result["failed"], "metrics": metrics}
    name = "%s-seed%d%s.json" % (args.workload, args.seed,
                                 "-trace" if args.trace else "")
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(final, f, indent=1)
    print(json.dumps(final))


if __name__ == "__main__":
    main()
