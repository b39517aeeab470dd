#!/usr/bin/env python3
"""Appends one perfbench summary line to the performance trajectory.

    python3 scripts/perf_snapshot.py [--seconds 15]
        [--out bench/perf_trajectory.jsonl] [--repo DIR] [--label TEXT]

Runs perfbench/run.py for every workload at seed 1, first with tracing
off (the end-to-end metrics: op_p10_ms, setup_s) and then with tracing on
(the per-layer metrics), and appends one JSON object to --out: the
commit measured, whether its tree had uncommitted changes, the git ids of
the sources the benchmark binary is built from as they were measured
(`source`; for a committed tree each equals `git rev-parse
<commit>:<path>`), the date, the CPU model, nproc, the run length, and
for each workload every metric plus the operations attempted and failed
in each run.

--repo measures another checkout. It is built in its own DIR/.bench_build;
this checkout is built under $CARGO_TARGET_DIR (default .bench_build), as
perfbench/run.py does. Exits non-zero, appending nothing, when that build
directory was configured from another checkout, or when a run fails to
produce a result, reports an incorrect answer, or counts a failed
operation.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile

WORKLOADS = ("pcg", "pcg-block", "serve", "paper")
SEED = 1
# What the benchmark binary is built from: the root CMake project (the
# library under src/) and perfbench/ itself.
BUILD_SOURCES = ("CMakeLists.txt", "src", "perfbench")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_env(repo):
    """The environment perfbench/run.py runs under for `repo`: another
    checkout builds in its own directory, never in a shared one."""
    env = dict(os.environ)
    if repo != ROOT:
        env["CARGO_TARGET_DIR"] = os.path.join(repo, ".bench_build")
    return env


def configured_source(build_dir):
    """The source directory build_dir's CMake cache names, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_HOME_DIRECTORY:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def checked_env(repo, prog):
    """build_env(repo), or None after saying why on stderr when the build
    directory it names was configured from another checkout: run.py
    configures a build directory once and rebuilds it from whichever
    checkout configured it, so its binary would be another tree's."""
    env = build_env(repo)
    build_dir = os.path.join(repo, env.get("CARGO_TARGET_DIR") or ".bench_build")
    configured = configured_source(build_dir)
    wanted = os.path.join(repo, "perfbench")
    if configured is not None and \
            os.path.realpath(configured) != os.path.realpath(wanted):
        sys.stderr.write("%s: %s was configured from %s, not %s; "
                         "set CARGO_TARGET_DIR per checkout\n"
                         % (prog, build_dir, configured, wanted))
        return None
    return env


def run_workload(repo, env, workload, seconds, trace, seed=SEED):
    """Runs one workload; returns its JSON result, or None on failure."""
    cmd = [sys.executable, os.path.join(repo, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    return result if isinstance(result, dict) else None


def git(repo, *args, env=None):
    proc = subprocess.run(["git", "-C", repo] + list(args), env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_ids(repo):
    """Git ids of BUILD_SOURCES as they are in repo's working tree,
    uncommitted and untracked (not ignored) files included. A scratch
    index keeps the checkout's own index untouched."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git(repo, "read-tree", "HEAD", env=env)
        git(repo, "add", "-A", "--", *BUILD_SOURCES, env=env)
        tree = git(repo, "write-tree", env=env)
        if not tree:
            return {}
        return {p: git(repo, "rev-parse", "%s:%s" % (tree, p))
                for p in BUILD_SOURCES}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--out", default=os.path.join(ROOT, "bench",
                                                  "perf_trajectory.jsonl"))
    ap.add_argument("--repo", default=ROOT)
    ap.add_argument("--label", default="")
    args = ap.parse_args()
    repo = os.path.abspath(args.repo)
    env = checked_env(repo, "perf_snapshot")
    if env is None:
        return 1

    workloads = {}
    bad = []
    for trace in (0, 1):
        for w in WORKLOADS:
            r = run_workload(repo, env, w, args.seconds, trace)
            run = "traced" if trace else "untraced"
            if r is None:
                bad.append("%s %s: no result" % (w, run))
                continue
            print("%s %s: %s" % (w, run, json.dumps(r)))
            if r.get("correct") is not True or r.get("failed") != 0:
                bad.append("%s %s: correct=%s failed=%s"
                           % (w, run, r.get("correct"), r.get("failed")))
            entry = workloads.setdefault(w, {})
            for name, m in r.get("metrics", {}).items():
                entry[name] = m.get("value")
            prefix = "traced_" if trace else ""
            entry[prefix + "attempted"] = r.get("attempted")
            entry[prefix + "failed"] = r.get("failed")
    if bad:
        for line in bad:
            sys.stderr.write("perf_snapshot: %s\n" % line)
        return 1

    record = {
        "commit": git(repo, "rev-parse", "--short", "HEAD"),
        "dirty": bool(git(repo, "status", "--porcelain", "--untracked-files=no")),
        "source": source_ids(repo),
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "seed": SEED,
        "seconds": args.seconds,
        "workloads": workloads,
    }
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
