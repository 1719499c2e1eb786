"""Run CLI calls back to back in this one process and time each.

Usage: python3 bench/worker.py JOB.json

The job names the package source directory, the argument lists to cycle
through, the measuring time and whether to trace.  Each call goes through
``thermodiag.cli.main(argv)`` with its ``--out`` directory emptied first.
The worker hashes the files each call wrote, keeps a copy of the first
output of every argument list for the caller's checks, and writes its
results (and spans, when tracing) as JSON when it ends.  In trace mode,
traced and untraced calls alternate.

During each untraced call a :class:`calibration.Sampler` times the
calibration loop every 0.1 s; the call's ``wall_s`` excludes that time and
its ``step_s`` (the loop's time per step, from those samples and one taken
right after the call) lets the caller scale it to a fixed host speed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

#: Runs per mode (untraced, traced) even when the measuring time is over.
MIN_RUNS = 3
#: Every argument list runs at least twice, so that determinism is checked.
MIN_PASSES = 2


def _hashes(out: str) -> dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def main(job_path: str) -> int:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    import thermodiag.cli as cli

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calibration import Sampler, loop

    recorder = None
    if job["trace"]:
        from spans import Recorder
        recorder = Recorder()

    variants = job["variants"]
    # variants take turns; in trace mode each runs untraced, then traced
    modes = (False, True) if recorder else (False,)
    min_runs = max(MIN_RUNS, MIN_PASSES * len(variants)) * len(modes)
    loop(1000)                      # warm-up
    runs = []
    start = time.perf_counter()
    while not (len(runs) % len(modes) == 0
               and time.perf_counter() - start >= job["seconds"]
               and len(runs) >= min_runs):
        index = len(runs)
        variant = index // len(modes) % len(variants)
        traced = modes[index % len(modes)]
        argv = variants[variant]
        out = argv[argv.index("--out") + 1]
        shutil.rmtree(out, ignore_errors=True)
        error = None
        sampler = Sampler()
        if traced:
            recorder.run_id = index
            recorder.install()
        t0 = time.perf_counter()
        try:
            if not traced:
                sampler.start()
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc, error = None, traceback.format_exc()
        finally:
            if not traced:
                sampler.stop()
        wall = time.perf_counter() - t0 - sampler.spent
        if traced:
            recorder.uninstall()
        if error:
            print(error, file=sys.stderr)
        sampler.sample()
        runs.append({"index": index, "variant": variant, "traced": traced,
                     "wall_s": wall, "step_s": sampler.step_s(), "samples": len(sampler.samples),
                     "rc": rc, "error": error, "files": _hashes(out)})
        kept = os.path.join(job["keep"], str(variant))
        if rc == 0 and not os.path.exists(kept):
            shutil.copytree(out, kept)

    result = {"runs": runs,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "spans": recorder.spans if recorder else []}
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
