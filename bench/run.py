"""Benchmark of the thermodiag command line, end to end and by layer.

Usage, from the repository root::

    python3 bench/run.py --workload oracle --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload (see ``workloads.py``) writes its inputs from the seed, then a
worker process (``worker.py``) calls ``thermodiag.cli.main(argv)`` back to
back for ``--seconds`` seconds.  Every call's output files are hashed and
checked.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics (call times scaled to a reference host
speed by ``calibration.py``, import time and peak memory); with ``--trace 1`` the worker alternates
untraced calls with calls traced by ``spans.py`` and the metrics are the
per-layer ones.  Lines before it are for people; they give the plain wall
time per call, the sample count and the error rate.

Exit status: 0 when a result was printed (``correct`` says whether every
check passed), 2 when the repository to measure is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import calibration  # noqa: E402

#: Fresh interpreters timed per measurement of ``setup_s``, half before and
#: half after the measured calls, after one untimed import that fills the
#: bytecode cache (if Python writes one).
SETUP_SAMPLES = 8

#: Time to import the CLI, measured inside a fresh interpreter.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import thermodiag.cli; "
                "print(repr(time.perf_counter() - t))")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_imports(samples: int) -> list[float]:
    """Times to import ``thermodiag.cli`` in ``samples`` fresh interpreters."""
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _median_by_variant(runs: list[dict], key) -> float:
    """Mean over variants of the median of each variant's values."""
    by_variant: dict[int, list] = {}
    for r in runs:
        by_variant.setdefault(r["variant"], []).append(key(r))
    return statistics.fmean(statistics.median(v) for v in by_variant.values())


def _check_runs(workload, runs: list[dict], keep: str) -> tuple[list[str], set]:
    """Problems found and the indices of the runs they fail."""
    problems, failed = [], set()

    def fail(run, problem):
        problems.append(f"run {run['index']}: {problem}")
        failed.add(run["index"])

    first = {}
    for r in runs:
        ref = first.setdefault(r["variant"], r)
        if r["error"]:
            fail(r, r["error"].strip().splitlines()[-1])
        elif r["rc"] != 0:
            fail(r, f"exit code {r['rc']}")
        elif r["files"] != ref["files"]:
            fail(r, f"output files differ from run {ref['index']}")
    for variant in sorted(first):
        out = os.path.join(keep, str(variant))
        found = workload.check(out) if os.path.isdir(out) else ["no output kept"]
        for problem in found:
            for r in runs:
                if r["variant"] == variant:
                    fail(r, problem)
    return problems, failed


def _layers(runs: list[dict], spans: list[list]) -> tuple[dict, list[str], set]:
    from spans import DETERMINISTIC, layer_metrics

    spans_by_run: dict[int, list] = {}
    for s in spans:
        spans_by_run.setdefault(s[0], []).append(s)
    traced = [r for r in runs if r["traced"]]
    plain = [r for r in runs if not r["traced"]]
    for r in traced:
        r["layers"] = layer_metrics(spans_by_run.get(r["index"], []))
    problems, failed = [], set()
    first = {}
    for r in traced:
        ref = first.setdefault(r["variant"], r)
        for name in DETERMINISTIC:
            if r["layers"][name] != ref["layers"][name]:
                problems.append(f"run {r['index']}: {name} = {r['layers'][name]} but "
                                f"{ref['layers'][name]} in run {ref['index']}")
                failed.add(r["index"])
    names = [n for n in traced[0]["layers"] if n != "trace.root_s"]
    metrics = {n: _median_by_variant(traced, lambda r, n=n: r["layers"][n]) for n in names}
    metrics["trace.overhead_s"] = (_median_by_variant(traced, lambda r: r["wall_s"])
                                   - _median_by_variant(plain, lambda r: r["wall_s"]))
    metrics["trace.root_share"] = _median_by_variant(
        traced, lambda r: r["layers"]["trace.root_s"] / r["wall_s"])
    return metrics, problems, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict) -> dict:
    """Measure one workload; returns the result object (and prints notes)."""
    from workloads import WORKLOADS

    work = os.path.join(ROOT, ".bench_work", f"{name}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = WORKLOADS[name](ROOT, work, seed)
        workload.prepare()
        print(f"{name}: inputs {json.dumps(workload.sizes)}")
        imports = []
        if not trace:
            time_imports(1)
            imports += time_imports(SETUP_SAMPLES // 2)
        job = {"src": SRC, "variants": workload.variants(), "seconds": seconds,
               "trace": trace, "keep": os.path.join(work, "keep"),
               "result": os.path.join(work, "result.json")}
        job_path = os.path.join(work, "job.json")
        with open(job_path, "w", encoding="utf-8") as fh:
            json.dump(job, fh)
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                       cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL,
                       timeout=seconds + 120, check=True)
        with open(job["result"], encoding="utf-8") as fh:
            result = json.load(fh)
        if not trace:
            imports += time_imports(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        runs = result["runs"]
        problems, failed = _check_runs(workload, runs, job["keep"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:   # another run still uses it
            pass

    plain = [r["wall_s"] for r in runs if not r["traced"]]
    step_s = statistics.median(r["step_s"] for r in runs if not r["traced"])
    if trace:
        layer_values, layer_problems, layer_failed = _layers(runs, result["spans"])
        problems += layer_problems
        failed |= layer_failed
        layer_values["host.wall_s"] = statistics.median(plain)
        layer_values["host.step_us"] = step_s * 1e6
    else:
        wall_ref = statistics.median(calibration.scaled(r["wall_s"], r["step_s"])
                                     for r in runs)
        layer_values = {"wall_ref_s": wall_ref, "setup_s": statistics.median(imports),
                        "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
    metrics = {n: {"value": v, "unit": units[n]} for n, v in layer_values.items()}
    for p in problems:
        print(f"{name}: FAILED CHECK {p}")
    print(f"{name}: {len(runs)} runs ({len(plain)} untraced), "
          f"wall_s median {statistics.median(plain):.4f} s over {len(plain)} samples, "
          f"calibration step median {step_s * 1e6:.2f} us, "
          f"error_rate {len(failed)}/{len(runs)} = {len(failed) / len(runs):.3f}")
    return {"correct": not problems, "attempted": len(runs), "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "thermodiag", "cli.py")):
        print(f"error: no package to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    print(f"machine: {json.dumps(machine())}")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    started = time.perf_counter()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, seconds, bool(args.trace), units)
               for n in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        for n, r in results.items():
            row = "  ".join(f"{m} {v['value']:.6g} {v['unit']}" for m, v in r["metrics"].items())
            print(f"{n:<14} {row}  error_rate {r['failed'] / r['attempted']:.3f}")
        summary = {"correct": all(r["correct"] for r in results.values()),
                   "attempted": sum(r["attempted"] for r in results.values()),
                   "failed": sum(r["failed"] for r in results.values()),
                   "metrics": {f"{n}.{m}": v for n, r in results.items()
                               for m, v in r["metrics"].items()}}
    print(f"total {time.perf_counter() - started:.1f} s")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
