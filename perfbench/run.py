#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory; the first run configures and
compiles the library (a few minutes), later runs only check it is up to
date. The binary's output is passed through; its last line is the JSON
result. Exits non-zero, without a result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pcg", "pcg-block", "serve", "paper")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    os.makedirs(os.path.join(build_dir, "tmp"), exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    log_path = os.path.join(build_dir, "build.log")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
                return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        ok = proc.returncode == 0 and isinstance(json.loads(lines[-1]), dict)
    except (IndexError, ValueError):
        ok = False
    if not ok:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("perfbench: binary exited %d without a JSON result\n"
                         % proc.returncode)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
