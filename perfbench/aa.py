#!/usr/bin/env python3
"""A/A runs: the same code, several seeds, one summary per metric.

Runs `bash perfbench/run.sh` once per (workload, seed), untraced, and
summarises every end-to-end metric: median, first and third quartile
(`statistics.quantiles(values, n=4)`), and spread = (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json. Run from the repository root:

    python3 perfbench/aa.py --runs 10 --first-seed 101 --out perfbench/aa/aa-1.json

The per-run result lines and noise records are kept in the output JSON.
Two series of the same code are compared with

    python3 perfbench/aa.py --compare perfbench/aa/aa-1.json perfbench/aa/aa-2.json

which prints, per workload and metric, how much worse the second median is
than the first (negative: better), next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    noise = json.loads(lines[-2])["noise"] if len(lines) > 1 else None
    return result, noise


def summarise(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None,
                    help="comma-separated; default: every workload in BENCHMARK.json")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None, help="write the summary JSON here")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two summary files instead of running")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        compare(bench, *args.compare)
        return
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads:
        runs = []
        summary["workloads"][workload] = {"runs": runs}
        for seed in seeds:
            result, noise = run_once(workload, seed, seconds)
            runs.append({"seed": seed, "result": result, "noise": noise})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
            write(args.out, summary)
        metrics = {}
        for name in bounds:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            metrics[name]["bound"] = bounds[name]
        summary["workloads"][workload] = {"metrics": metrics, "runs": runs}
        write(args.out, summary)
        print(f"\n{workload} ({len(runs)} runs, {seconds}s each)")
        print(f"{'metric':20} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}")
        for name, s in metrics.items():
            flag = "" if s["spread"] is None or s["spread"] < s["bound"] / 3 else "  <-- wide"
            print(f"{name:20} {s['median']:14.6f} {s['q1']:14.6f} {s['q3']:14.6f} "
                  f"{s['spread']:8.4f} {s['bound'] / 3:8.4f}{flag}")

    write(args.out, summary)


def compare(bench, first_path, second_path):
    """Prints how much worse each median of the second series is."""
    better = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    with open(first_path) as f:
        first = json.load(f)["workloads"]
    with open(second_path) as f:
        second = json.load(f)["workloads"]
    print(f"{'workload':14} {'metric':20} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
    for workload, s1 in first.items():
        s2 = second.get(workload)
        if not s2 or "metrics" not in s1 or "metrics" not in s2:
            continue
        for name, (direction, bound) in better.items():
            a, b = s1["metrics"][name]["median"], s2["metrics"][name]["median"]
            worse = (b - a) / a if direction == "lower" else (a - b) / a
            flag = "  <-- over" if worse > bound else ""
            print(f"{workload:14} {name:20} {a:14.6g} {b:14.6g} {worse:9.4f} {bound:6.2f}{flag}")


def write(path, summary):
    """Writes the summary so far; called after every run, so a cut
    series keeps its runs."""
    if path:
        with open(path, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
