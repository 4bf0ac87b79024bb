#!/usr/bin/env python3
"""Compare tool: measures a parent and a change checkout in alternating
pairs and judges every end-to-end metric of every workload by the
choosing-metrics rule (section 8).

    python3 benchmark/compare.py --parent ../parent --change . [--pairs 10]

Both checkouts must carry the same benchmark code (the tool refuses to
compare otherwise). Pair i runs both sides on the same seed, the parent
first on even pairs and the change first on odd ones. Per metric:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ, in the better direction, by more than
              the parent's own inter-quartile distance;
  regression  the change's median is worse than the parent's by more than
              the bound in BENCHMARK.json;
  unresolved  the parent's spread exceeds the bound, unless every change
              run reads better than every parent run;
  same        none of the above: no worse than the bound.

Each workload gets one row.
"""

import argparse
import hashlib
import sys
from pathlib import Path

import benchlib
from repeat import run_once

ROOT = Path(__file__).resolve().parent.parent


def benchmark_digest(root):
    h = hashlib.sha256()
    files = sorted(p for p in (Path(root) / "benchmark").rglob("*")
                   if p.is_file() and p.suffix != ".md"
                   and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    h.update((Path(root) / "BENCHMARK.json").read_bytes())
    return h.hexdigest()


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def verdict(parent, change, metric):
    direction = metric["better"]
    wins = sum(1 for p, c in zip(parent, change) if better(c, p, direction))
    q1, pm, q3 = benchlib.quartiles(parent)
    cm = benchlib.quartiles(change)[1]
    worse = benchlib.worse_by(pm, cm, direction)
    all_better = all(better(c, p, direction) for c in change for p in parent)
    if (wins >= 0.9 * len(parent) and better(cm, pm, direction)
            and abs(cm - pm) > q3 - q1):
        label = "gain"
    elif benchlib.spread(parent) > metric["bound"] and not all_better:
        label = "unresolved"
    elif worse > metric["bound"]:
        label = "regression"
    else:
        label = "same"
    return label, worse, wins


def main():
    spec = benchlib.load_spec(ROOT / "BENCHMARK.json")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    args = parser.parse_args()
    parent = Path(args.parent).resolve()
    change = Path(args.change).resolve()
    if benchmark_digest(parent) != benchmark_digest(change):
        sys.exit("parent and change carry different benchmark code")

    rows = []
    for w in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                root = parent if side == "parent" else change
                runs[side].append(run_once(root, w, seed, spec["run_seconds"]))
            print("%s pair %d done" % (w, i + 1), file=sys.stderr, flush=True)
        failed = {s: sum(r["failed"] for r in runs[s]) for s in runs}
        cells = []
        for m in spec["end_to_end"]:
            p = [r["metrics"][m["name"]]["value"] for r in runs["parent"]]
            c = [r["metrics"][m["name"]]["value"] for r in runs["change"]]
            label, worse, wins = verdict(p, c, m)
            pq = benchlib.quartiles(p)
            cq = benchlib.quartiles(c)
            cells.append("%s=%s (%+.1f%% worse, %d/%d wins; parent %.4g "
                         "[%.4g, %.4g], change %.4g [%.4g, %.4g])" % (
                             m["name"], label, 100 * worse, wins, len(p),
                             pq[1], pq[0], pq[2], cq[1], cq[0], cq[2]))
        rows.append("%s | failed parent %d change %d | %s" % (
            w, failed["parent"], failed["change"], " | ".join(cells)))
    print("\n".join(rows))


if __name__ == "__main__":
    main()
