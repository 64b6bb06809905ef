#!/usr/bin/env python3
"""Compares bench_e2e result files of two commits.

  python3 e2ebench/compare.py --base P1.json P2.json ... \\
      --change C1.json C2.json ... [--claim latency_p50_us@cold_plan]

Each file is a run.py result (BENCH_e2e.json) holding one or more runs of
the same kind (untraced or traced). Take at least ten runs per side, in
alternating pairs (parent, change, change, parent, ...); base run i and
change run i form pair i.

For every declared metric and workload it prints one row: the base and
change medians with their quartiles, and the change of the median. An
end-to-end row is marked

  REGRESSED   the change's median is worse than the base's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's quartile distance, as a share of its median,
              exceeds the bound, unless every change run beats every base
              run;
  ok          otherwise.

Per-layer metrics (traced runs) have no bound; their rows show how far each
moved, and the largest movers of each workload are listed, so a regression
can be traced to its layer. --claim METRIC@WORKLOAD applies the gain rule:
the change wins at least nine tenths of the pairs (ties count for neither)
and the medians differ by more than the base's quartile distance.

Every run must report every declared metric with its declared unit. The
exit status is 1 when a metric regressed or a file is malformed.
"""
import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(paths, kind, spec):
    """The runs of every file, checked against the declared metrics."""
    want = {m["name"]: m["unit"] for m in spec[kind]}
    runs = []
    for path in paths:
        with open(path) as f:
            result = json.load(f)
        for run in result["runs"]:
            if run["trace"] != (kind == "per_layer"):
                sys.exit("%s mixes traced and untraced runs" % path)
            for workload, data in run["workloads"].items():
                got = {name: m["unit"] for name, m in data["metrics"].items()}
                missing = sorted(set(want) - set(got))
                wrong = sorted(n for n in want if n in got and got[n] != want[n])
                if missing or wrong:
                    sys.exit("%s: %s lacks %s, has wrong units for %s"
                             % (path, workload, missing, wrong))
                if not data["correct"]:
                    print("warning: %s: %s had %d wrong answers"
                          % (path, workload, data["failed"]))
            runs.append(run)
    return runs


def values(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in runs if workload in r["workloads"]]


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def better(a, b, direction):
    """True when value a is better than value b."""
    return a < b if direction == "lower" else a > b


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", default="",
                        help="METRIC@WORKLOAD the change claims to improve")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    with open(args.base[0]) as f:
        traced = json.load(f)["runs"][0]["trace"]
    kind = "per_layer" if traced else "end_to_end"
    base = load_runs(args.base, kind, spec)
    change = load_runs(args.change, kind, spec)
    workloads = [w["name"] for w in spec["workloads"]]
    print("%d base runs, %d change runs, %s metrics" % (len(base), len(change), kind))
    if min(len(base), len(change)) < 10:
        print("note: fewer than ten runs per side; the pair rule needs ten")

    regressed = False
    movers = {}
    header = "%-13s %-36s %-34s %-34s %9s  %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "change", "verdict")
    print(header)
    for m in spec[kind]:
        for workload in workloads:
            b = values(base, workload, m["name"])
            c = values(change, workload, m["name"])
            if not b or not c:
                continue
            bq, cq = quartiles(b), quartiles(c)
            delta = (cq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            verdict = ""
            if kind == "end_to_end":
                bound = m["bound"]
                worse = -delta if m["better"] == "higher" else delta
                dominates = all(better(x, y, m["better"]) for x in c for y in b)
                if worse > bound:
                    verdict = "REGRESSED (bound %.0f%%)" % (100 * bound)
                    regressed = True
                elif max(spread(b), spread(c)) > bound and not dominates:
                    verdict = "unresolved (spread %.1f%%)" % (
                        100 * max(spread(b), spread(c)))
                else:
                    verdict = "ok"
            elif not m["name"].startswith("bench."):
                # bench.* describe the benchmark itself, not a layer.
                movers.setdefault(workload, []).append((abs(delta), m["name"], delta))
            print("%-13s %-36s %-34s %-34s %+8.1f%%  %s" % (
                workload, m["name"],
                "%.4g [%.4g, %.4g]" % (bq[1], bq[0], bq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                100 * delta, verdict))

    for workload, moved in movers.items():
        top = sorted(moved, reverse=True)[:5]
        print("largest movers on %s: %s" % (workload, ", ".join(
            "%s %+.1f%%" % (name, 100 * d) for _, name, d in top)))

    if args.claim:
        metric, _, workload = args.claim.partition("@")
        decl = next((m for m in spec[kind] if m["name"] == metric), None)
        if decl is None or workload not in workloads:
            sys.exit("unknown claim %s" % args.claim)
        direction = decl["better"]
        b = values(base, workload, metric)
        c = values(change, workload, metric)
        pairs = list(zip(b, c))
        wins = sum(1 for x, y in pairs if better(y, x, direction))
        q1, med, q3 = quartiles(b)
        gap = abs(statistics.median(c) - med)
        met = len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gap > q3 - q1
        print("claim %s: change wins %d of %d pairs; median moved %.4g against "
              "a base quartile distance of %.4g: %s" % (
                  args.claim, wins, len(pairs), gap, q3 - q1,
                  "MET" if met else "NOT MET"))
    sys.exit(1 if regressed else 0)


if __name__ == "__main__":
    main()
