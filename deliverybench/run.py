#!/usr/bin/env python3
"""Build the delivery-path benchmark from source and run one workload.

    python3 deliverybench/run.py --workload fanout --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark (and the program's libraries from ../src) under
$CARGO_TARGET_DIR/deliverybench, default .bench_build/deliverybench; later
runs rebuild incrementally. Every run first executes the benchmark's
self-tests, then the driver, whose standard output is passed through: its
last line is the JSON result. The exit code is the driver's.
"""
import argparse
import multiprocessing
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, echoing its output to stderr only if it fails."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        log(f"failed: {' '.join(cmd)}")
    return proc.returncode == 0


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_quiet(cmd):
            return False
    jobs = str(min(4, multiprocessing.cpu_count()))
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs])


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fanout", "recover", "cluster"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "deliverybench")
    if not build(build_dir):
        return 2

    selftest = subprocess.run([os.path.join(build_dir, "deliverybench_selftest")],
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=60)
    if selftest.returncode != 0:
        sys.stderr.write(selftest.stdout)
        log("self-tests failed")
        return 1

    cmd = [os.path.join(build_dir, "deliverybench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(build_dir, "work"),
           "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
