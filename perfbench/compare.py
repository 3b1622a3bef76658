#!/usr/bin/env python3
"""Compare two builds of BusSense on the composed benchmark.

Usage:
    python3 perfbench/compare.py --base <checkout> --head <checkout>
        [--pairs 10] [--seconds <s>] [--seed <first seed>]
        [--workloads a,b] [--trace 0|1] [--out result.json]

Each checkout is a source tree holding perfbench/run.py (for example two
`git clone`s or two `git archive` extracts). The script runs
the two sides alternately, pair by pair, swapping which side goes first on
every pair; pair i of every workload uses seed <first seed> + i on both
sides. Each side builds in its own <checkout>/.bench_build.

For every (workload, metric) it prints each side's median and quartiles,
the share of pairs the head side won (ties count for neither), and a
verdict:

  improved    head won at least 9/10 of the pairs and the medians differ
              by more than the base side's own quartile spread;
  regressed   head's median is worse than base's by more than the metric's
              bound (BENCHMARK.json) and the base spread is within it;
  unresolved  base's own quartile spread is wider than the bound and the
              head's runs do not all beat (or all lose to) the base's;
  unchanged   otherwise.

Per-layer metrics (--trace 1) have no bound: each is improved or regressed
by the 9/10 rule (in its better direction) and unchanged otherwise.
Every result records nproc and the build stanza of both sides.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_side(root, workload, seed, seconds, trace):
    env = dict(os.environ)
    env["CARGO_TARGET_DIR"] = os.path.join(root, ".bench_build")
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s %s seed %d failed (exit %d): %s" % (
            root, workload, seed, done.returncode, done.stderr[-2000:]))
    build = next((l for l in lines if l.startswith("build: ")),
                 "build: unknown")
    return json.loads(lines[-1]), build[len("build: "):]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(base, head, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    pairs = len(base)
    mb, mh = statistics.median(base), statistics.median(head)
    q1, q3 = quartiles(base)
    spread = q3 - q1
    gain = sign * (mh - mb)
    if wins >= 0.9 * pairs and gain > spread:
        return "improved", wins / pairs
    if bound is None:
        lost = losses >= 0.9 * pairs and -gain > spread
        return ("regressed" if lost else "unchanged"), wins / pairs
    all_better = min(sign * h for h in head) > max(sign * b for b in base)
    all_worse = max(sign * h for h in head) < min(sign * b for b in base)
    if mb != 0 and spread / abs(mb) > bound and not (all_better or all_worse):
        return "unresolved", wins / pairs
    if mb != 0 and -gain / abs(mb) > bound:
        return "regressed", wins / pairs
    return "unchanged", wins / pairs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("at least ten pairs are needed for a verdict")

    with open(os.path.join(args.base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in spec[kind]}

    sides = {"base": os.path.abspath(args.base),
             "head": os.path.abspath(args.head)}
    builds = {}
    values = {}  # (workload, metric, side) -> [value per pair]
    failed = {}  # (workload, side) -> [(failed, attempted)]
    for workload in workloads:
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                result, build = run_side(sides[side], workload, args.seed + i,
                                         seconds, args.trace)
                builds[side] = build
                failed.setdefault((workload, side), []).append(
                    (result["failed"], result["attempted"]))
                for name, m in result["metrics"].items():
                    values.setdefault((workload, name, side), []).append(
                        m["value"])
            print("%s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr)

    report = {"builds": builds, "pairs": args.pairs, "seconds": seconds,
              "first_seed": args.seed, "trace": args.trace, "rows": []}
    print("base: %s" % builds.get("base"))
    print("head: %s" % builds.get("head"))
    print("%-18s %-38s %14s %-23s %14s %-23s %5s  %s" % (
        "workload", "metric", "base median", "[q1, q3]", "head median",
        "[q1, q3]", "wins", "verdict"))
    for workload in workloads:
        for name, m in metrics.items():
            base = values.get((workload, name, "base"))
            head = values.get((workload, name, "head"))
            if not base or not head:
                continue
            v, share = verdict(base, head, m["better"], m.get("bound"))
            bq, hq = quartiles(base), quartiles(head)
            row = {"workload": workload, "metric": name, "unit": m["unit"],
                   "base": {"median": statistics.median(base),
                            "q1": bq[0], "q3": bq[1], "values": base},
                   "head": {"median": statistics.median(head),
                            "q1": hq[0], "q3": hq[1], "values": head},
                   "head_win_share": share, "verdict": v}
            report["rows"].append(row)
            print("%-18s %-38s %14.6g [%9.4g, %9.4g] %14.6g [%9.4g, %9.4g]"
                  " %5.2f  %s" % (workload, name, row["base"]["median"],
                                  bq[0], bq[1], row["head"]["median"],
                                  hq[0], hq[1], share, v))
        for side in ("base", "head"):
            runs = failed[(workload, side)]
            print("%-18s %s failed/attempted per run: %s" % (
                workload, side, ", ".join("%d/%d" % r for r in runs)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
