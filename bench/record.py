"""Repeat the benchmark over seeds and summarise its spread.

Usage, from the repository root::

    python3 bench/record.py --seeds 10 --label baseline --append bench/trajectory.json

Runs ``bench/run.py`` once per seed and workload (untraced), then once
traced per workload, and prints for each end-to-end metric its median and
the distance between the first and third quartile as a share of the median,
next to the bound from ``BENCHMARK.json``.  With ``--append`` the result
objects and their summary are added as one entry of the trajectory file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import machine

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--label", default="")
    parser.add_argument("--append", metavar="PATH")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    entry = {"label": args.label, "machine": machine(), "run_seconds": args.seconds,
             "seeds": seeds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in seeds:
            results.append(run(workload, seed, args.seconds, 0))
            values = {m: round(v["value"], 4) for m, v in results[-1]["metrics"].items()}
            print(f"{workload} seed {seed}: correct {results[-1]['correct']} {values}",
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            summary[metric] = {"median": statistics.median(values),
                               "spread": spread(values), "bound": bound}
            print(f"{workload} {metric}: median {statistics.median(values):.4g}, "
                  f"spread {spread(values):.3f} (bound {bound})", flush=True)
        traced = run(workload, seeds[0], args.seconds, 1)
        entry["workloads"][workload] = {"summary": summary, "results": results,
                                        "traced": traced}
        print(f"{workload} traced: correct {traced['correct']}", flush=True)

    if args.append:
        trajectory = []
        if os.path.exists(args.append):
            with open(args.append, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        trajectory.append(entry)
        with open(args.append, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
