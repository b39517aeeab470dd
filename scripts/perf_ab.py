#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on the repo benchmark.

    python3 scripts/perf_ab.py --base DIR [--change DIR] [--seed 1]
        [--workloads serve,pcg,...] [--json OUT]

Builds perfbench in each checkout (in DIR/.bench_build, refusing a build
directory configured from another checkout, as perf_snapshot.py does),
then runs perfbench/run.py untraced, at BENCHMARK.json's run length, in 10
alternating pairs: for every pair and workload it runs both sides back to
back, alternating which side goes first, and the workloads take turns
within a pair, so slow drifts of the host's load fall on both sides and on
every workload alike. --change defaults to this checkout.

For each workload and each end-to-end metric of BENCHMARK.json it prints
the median and quartiles of both sides, the median change, the pairs the
change won, and a verdict against the metric's bound:
  * "unresolved"  either side's interquartile range is wider than the
                  bound (relative to its median): the runs cannot tell,
                  unless every change run beats every base run
                  ("better, every run") or loses to it ("worse, every
                  run");
  * "worse"/"better"  the medians differ by more than the bound;
  * "within bound"    otherwise.
"beyond IQR" says whether the medians differ by more than the base's
interquartile range. --json writes every run's result after each pair.
Exits 1 when a run fails, reports an incorrect answer or counts a failed
operation; 2 on a usage or build problem.
"""
import argparse
import datetime
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "scripts"))
import perf_snapshot  # noqa: E402  (build isolation, runs, git and CPU)

# Pairs per comparison: the fewest that can show a change winning 9 of 10.
PAIRS = 10


def quartiles(values):
    """(q1, median, q3) with linear interpolation between order statistics."""
    v = sorted(values)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4, method="inclusive")
    return q[0], q[1], q[2]


def verdict(metric, base, change):
    """One summary row for one workload and metric."""
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    lower = metric.get("better", "lower") == "lower"
    wins = sum(1 for b, c in zip(base, change) if (c < b if lower else c > b))
    delta = (cmed - bmed) / bmed if bmed else 0.0
    bound = metric["bound"]
    spread = max((bq3 - bq1) / bmed if bmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    gain = -delta if lower else delta
    better = (max(change) < min(base)) if lower else (min(change) > max(base))
    worse = (min(change) > max(base)) if lower else (max(change) < min(base))
    if spread > bound and better:
        word = "better, every run"
    elif spread > bound and worse:
        word = "worse, every run"
    elif spread > bound:
        word = "unresolved"
    elif gain < -bound:
        word = "worse"
    elif gain > bound:
        word = "better"
    else:
        word = "within bound"
    return {
        "base": {"median": bmed, "q1": bq1, "q3": bq3},
        "change": {"median": cmed, "q1": cq1, "q3": cq3},
        "delta_pct": 100.0 * delta,
        "wins": wins,
        "pairs": len(base),
        "spread_pct": 100.0 * spread,
        "bound_pct": 100.0 * bound,
        "beyond_base_iqr": abs(cmed - bmed) > (bq3 - bq1),
        "verdict": word,
    }


def spread_text(s):
    return "%.4g [%.4g-%.4g]" % (s["median"], s["q1"], s["q3"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--change", default=ROOT)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset (default: all)")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        wanted = args.workloads.split(",")
        unknown = [w for w in wanted if w not in workloads]
        if unknown:
            sys.stderr.write("perf_ab: unknown workload(s) %s\n" % unknown)
            return 2
        workloads = wanted
    metrics = bench["end_to_end"]

    sides = []
    for name, path in (("base", args.base), ("change", args.change)):
        repo = os.path.abspath(path)
        env = perf_snapshot.checked_env(repo, "perf_ab")
        if env is None:
            return 2
        side = {"name": name, "repo": repo, "env": env,
                "commit": perf_snapshot.git(repo, "rev-parse", "--short",
                                            "HEAD"),
                "dirty": bool(perf_snapshot.git(repo, "status", "--porcelain",
                                                "--untracked-files=no"))}
        # A short run builds the binary, so no measured run pays for it.
        if perf_snapshot.run_workload(repo, env, workloads[0], 0.1, 0,
                                      args.seed) is None:
            sys.stderr.write("perf_ab: %s (%s) did not build or run\n"
                             % (name, repo))
            return 2
        sides.append(side)

    header = {
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "cpu": perf_snapshot.cpu_model(), "nproc": os.cpu_count(),
        "seconds": seconds, "seed": args.seed, "pairs": PAIRS,
        "base": {k: sides[0][k] for k in ("repo", "commit", "dirty")},
        "change": {k: sides[1][k] for k in ("repo", "commit", "dirty")},
    }
    tag = [s["commit"] + ("+" if s["dirty"] else "") for s in sides]
    print("perf_ab: base %s vs change %s, %d pairs x %s s, seed %d, %s, "
          "%d CPUs" % (tag[0], tag[1], PAIRS, seconds, args.seed,
                       header["cpu"], header["nproc"]), flush=True)

    runs = {w: {"base": [], "change": []} for w in workloads}
    bad = []
    for p in range(PAIRS):
        for k in range(len(workloads)):
            j = (p + k) % len(workloads)
            w = workloads[j]
            # Each workload's first side alternates from pair to pair.
            order = sides if (p + j) % 2 == 0 else sides[::-1]
            line = []
            for side in order:
                r = perf_snapshot.run_workload(side["repo"], side["env"], w,
                                               seconds, 0, args.seed)
                if r is None or r.get("correct") is not True or \
                        r.get("failed") != 0:
                    why = "no result" if r is None else \
                        "correct=%s failed=%s" % (r.get("correct"),
                                                  r.get("failed"))
                    bad.append("pair %d %s %s: %s"
                               % (p + 1, w, side["name"], why))
                    r = None
                runs[w][side["name"]].append(r)
                if r is not None:
                    line.append("%s %s" % (side["name"], " ".join(
                        "%s=%.4g" % (m["name"],
                                     r["metrics"][m["name"]]["value"])
                        for m in metrics)))
            print("pair %d/%d %-9s %s" % (p + 1, PAIRS, w,
                                          " | ".join(line)), flush=True)
        if args.json:
            with open(args.json, "w") as f:
                json.dump({"header": header, "runs": runs}, f, indent=1)

    summary = {}
    print()
    print("%-9s %-9s %-27s %-27s %8s %6s %7s %-6s %s" % (
        "workload", "metric", "base median [q1-q3]", "change median [q1-q3]",
        "change", "wins", "spread", "IQR", "verdict"))
    for w in workloads:
        for m in metrics:
            pairs = [(b, c) for b, c in zip(runs[w]["base"], runs[w]["change"])
                     if b is not None and c is not None]
            if not pairs:
                continue
            base = [b["metrics"][m["name"]]["value"] for b, _ in pairs]
            change = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            v = verdict(m, base, change)
            summary.setdefault(w, {})[m["name"]] = v
            print("%-9s %-9s %-27s %-27s %+7.1f%% %2d/%-3d %6.1f%% %-6s %s" % (
                w, m["name"], spread_text(v["base"]),
                spread_text(v["change"]), v["delta_pct"],
                v["wins"], v["pairs"], v["spread_pct"],
                "beyond" if v["beyond_base_iqr"] else "inside", v["verdict"]))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"header": header, "runs": runs, "summary": summary},
                      f, indent=1)
    for line in bad:
        sys.stderr.write("perf_ab: %s\n" % line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
