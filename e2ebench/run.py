#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md here).

One workload, as a regression gate runs it:

  python3 e2ebench/run.py --workload hot_cached --seed 1 --seconds 20 --trace 0

Every workload, each in its own process, into one result file:

  python3 e2ebench/run.py --seed=1 [--trace] [--repeat 5] [--label SHA]

The program is built from source first: an optimised (RelWithDebInfo)
CMake build of this directory in .bench_build/ at the repository root.
Every metric is printed as `workload metric value unit samples=n`; the
result file is .bench_build/results/BENCH_e2e.json unless --result names
another. With one workload the last line of stdout is the JSON object
{"correct", "attempted", "failed", "metrics"}. The exit status is 0 when
every answer was right, 1 when one was wrong, and 2 when the build or a run
failed (no result line is printed then).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["hot_cached", "cold_plan", "bulk_exec", "policy_churn"]


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    def run(cmd):
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as e:
            fail("cannot run %s: %s" % (cmd[0], e))
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))

    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run(["cmake", "--build", BUILD, "-j", "4", "--target", "bench_e2e"])
    return os.path.join(BUILD, "bench_e2e")


def declared():
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from
    BENCHMARK.json, or None when the file is absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def run_workload(binary, workload, args, out_dir):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
           "--scale", str(args.scale), "--out", out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=60 + 2 * args.seconds)
    except subprocess.TimeoutExpired:
        fail(workload + " timed out")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        fail("%s exited with status %d" % (workload, done.returncode))
    for line in lines[:-1]:
        print(line)
    summary = json.loads(lines[-1])
    with open(os.path.join(out_dir, "RESULT_%s.json" % workload)) as f:
        detail = json.load(f)
    spec = declared()
    if spec is not None:
        want = spec["per_layer" if args.trace else "end_to_end"]
        got = {name: m["unit"] for name, m in summary["metrics"].items()}
        if got != want:
            fail("%s reported %s, BENCHMARK.json declares %s"
                 % (workload, sorted(got.items()), sorted(want.items())))
    return summary, detail


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        help="0 (end-to-end metrics) or 1 (per-layer)")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="full runs to record in the result file")
    parser.add_argument("--label", default="",
                        help="recorded in the result file, e.g. a commit")
    parser.add_argument("--result", default=os.path.join(BUILD, "results",
                                                         "BENCH_e2e.json"))
    args = parser.parse_args()
    args.trace = args.trace not in ("0", "false")

    binary = build()
    out_dir = os.path.join(BUILD, "results")
    os.makedirs(out_dir, exist_ok=True)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]

    runs = []
    correct = True
    attempted = failed = 0
    last = None
    host = None
    for _ in range(args.repeat):
        run = {"seed": args.seed, "trace": args.trace, "seconds": args.seconds,
               "workloads": {}}
        for workload in workloads:
            last, detail = run_workload(binary, workload, args, out_dir)
            host = detail["host"]
            correct = correct and last["correct"]
            attempted += last["attempted"]
            failed += last["failed"]
            run["workloads"][workload] = {
                key: detail[key] for key in
                ("correct", "attempted", "failed", "rechecked",
                 "first_failure", "metrics", "extra")}
        runs.append(run)

    os.makedirs(os.path.dirname(os.path.abspath(args.result)), exist_ok=True)
    with open(args.result, "w") as f:
        json.dump({"label": args.label, "host": host, "scale": args.scale,
                   "runs": runs}, f, indent=1, sort_keys=True)
        f.write("\n")
    if len(workloads) == 1 and args.repeat == 1:
        print(json.dumps(last))
    else:
        print(json.dumps({"correct": correct, "attempted": attempted,
                          "failed": failed, "result": args.result}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
