#!/usr/bin/env python3
"""Repeatability tool: runs each workload N times and reports, per
end-to-end metric, the median, the quartiles and the spread (inter-quartile
distance / median) next to the bound BENCHMARK.json fixes.

    python3 benchmark/repeat.py --runs 10 [--sets 2] [--workloads a,b]

Run from the root of a checkout. Each run uses its own seed (set k, run i
uses seed first_seed + k * runs + i). With --sets 2 the tool also reports
whether the second set's median is worse than the first's by more than the
bound. A spread below a third of the bound reads "steady" (setup_s is
judged on drift between sets only). Raw results are written to
.bench_build/repeat.json.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib

ROOT = Path(__file__).resolve().parent.parent


def run_once(root, workload, seed, seconds, trace=0):
    """Runs the benchmark once in `root` and returns its result object."""
    proc = subprocess.run(
        [sys.executable, str(Path(root) / "benchmark" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    if proc.returncode != 0:
        raise RuntimeError("%s seed %d failed (exit %d)"
                           % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(spec, results):
    """results: {workload: [result, ...]} -> {workload: {metric: stats}}"""
    table = {}
    for workload, runs in results.items():
        table[workload] = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = benchlib.quartiles(values)
            table[workload][m["name"]] = {
                "values": values, "q1": q1, "median": q2, "q3": q3,
                "spread": benchlib.spread(values), "bound": m["bound"],
                "better": m["better"]}
    return table


def print_table(table):
    print("%-15s %-22s %12s %12s %12s %8s %6s  %s" % (
        "workload", "metric", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for workload, metrics in table.items():
        for name, s in metrics.items():
            if name == "setup_s":
                verdict = "(drift only)"
            elif s["spread"] < s["bound"] / 3:
                verdict = "steady"
            elif s["spread"] <= s["bound"]:
                verdict = "within bound, > bound/3"
            else:
                verdict = "TOO NOISY"
            print("%-15s %-22s %12.5g %12.5g %12.5g %8.4f %6.3f  %s" % (
                workload, name, s["q1"], s["median"], s["q3"], s["spread"],
                s["bound"], verdict))


def main():
    spec = benchlib.load_spec(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1, choices=(1, 2))
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / ".bench_build" /
                                             "repeat.json"))
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    sets = []
    for k in range(args.sets):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            seed = args.first_seed + k * args.runs + i
            for w in workloads:
                r = run_once(ROOT, w, seed, args.seconds)
                if not r["correct"] or r["failed"]:
                    print("run %s seed %d: correct=%s failed=%d" % (
                        w, seed, r["correct"], r["failed"]), file=sys.stderr)
                results[w].append(r)
                print("set %d run %d %s done" % (k + 1, i + 1, w),
                      file=sys.stderr, flush=True)
        sets.append(summarize(spec, results))
        print("\n== set %d (%d runs per workload)" % (k + 1, args.runs))
        print_table(sets[-1])

    if len(sets) == 2:
        print("\n== second median vs first (worse by, share of first)")
        for w in workloads:
            for m in spec["end_to_end"]:
                a = sets[0][w][m["name"]]["median"]
                b = sets[1][w][m["name"]]["median"]
                worse = benchlib.worse_by(a, b, m["better"])
                print("%-15s %-22s %+8.4f  bound %.3f  %s" % (
                    w, m["name"], worse, m["bound"],
                    "ok" if worse <= m["bound"] else "DRIFT"))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(sets, indent=1))


if __name__ == "__main__":
    main()
