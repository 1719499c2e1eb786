"""The benchmark's span recorder still finds what it wraps in the package.

``bench/spans.py`` wraps package functions by name; a rename under ``src/``
would break ``bench/run.py --trace 1`` without failing any other test.
"""

import importlib.util
import sys
from pathlib import Path

import thermodiag.cli

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

_spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no cache in bench/
try:
    _spec.loader.exec_module(spans)
finally:
    sys.dont_write_bytecode = _saved

KEYS = {
    "simulate.calls", "simulate.steps", "simulate.busy_s", "simulate.us_per_step",
    "simulate.errors", "diagnose.evals", "diagnose.cache_hit_ratio", "diagnose.resims",
    "diagnose.eval_self_s", "diagnose.oracle_s", "diagnose.per_node_s",
    "diagnose.report_s", "ga.self_s", "ga.generations", "ga.stopped_by_cap",
    "ga.oracle_match_ratio", "cli.parse_s", "cli.self_s", "model.assemble_s",
    "trace.root_s",
}


def test_recorder_traces_one_diagnosis(tmp_path):
    # the parser outlives the recorder, so it must not hold the commands
    # it wraps
    thermodiag.cli.build_arg_parser()
    recorder = spans.Recorder()
    recorder.install()
    try:
        rc = thermodiag.cli.main([
            "diagnose", "--building", str(DATA / "example_cell_door_defect.building"),
            "--weather", str(DATA / "example_weather.csv"),
            "--measurements", str(DATA / "example_measurements.csv"),
            "--generations", "3", "--exhaustive", "--out", str(tmp_path)])
        diagnosis = len(recorder.spans)
        rc_simulate = thermodiag.cli.main([
            "simulate", "--building", str(DATA / "example_cell.building"),
            "--weather", str(DATA / "example_weather.csv"), "--out", str(tmp_path)])
    finally:
        recorder.uninstall()
    assert rc == rc_simulate == 0
    # the diagnosis marches the oracle's 32-set table in one kernel call,
    # which every later set finds in the cache, and the simulation marches
    # once; the recorder sees both where their callers look the kernel up
    kernel_steps = [[s[6]["steps"] for s in run if s[3] == "simulate.simulate"]
                    for run in (recorder.spans[:diagnosis], recorder.spans[diagnosis:])]
    assert kernel_steps == [[479], [479]]
    metrics = spans.layer_metrics(recorder.spans)
    assert set(metrics) == KEYS
    # every layer the benchmark reports was reached through its wrapper
    for key in ("simulate.calls", "simulate.steps", "diagnose.evals", "diagnose.resims",
                "diagnose.oracle_s", "diagnose.per_node_s", "diagnose.report_s",
                "ga.self_s", "cli.parse_s", "cli.self_s", "model.assemble_s",
                "trace.root_s"):
        assert metrics[key] > 0, key
    assert metrics["ga.generations"] == 3
    assert metrics["ga.stopped_by_cap"] == 1
    assert metrics["simulate.errors"] == 0
    # the wrappers are gone again
    assert thermodiag.cli.main.__module__ == "thermodiag.cli"
    assert not hasattr(thermodiag.cli.main, "__wrapped__")
