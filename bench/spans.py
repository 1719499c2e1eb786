"""Spans around the package's public functions, recorded from outside.

:class:`Recorder` replaces each traced function in the namespace where its
caller looks it up (``thermodiag.diagnose.simulate``, not only
``thermodiag.simulate.simulate``) with a wrapper that records one span per
call: run id, span id, parent span id, name, start, end and a few
attributes.  Spans stay in memory; the caller writes them out at exit.
:func:`layer_metrics` turns the spans of one CLI run into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import time


def _steps(args, kwargs, result):
    weather = args[1] if len(args) > 1 else kwargs["weather"]
    return {"steps": weather.n_records - 1}


def _ga(args, kwargs, result):
    config = kwargs.get("config", args[0])
    generations = result[1].generations - 1
    return {"generations": generations,
            "stopped_by_cap": int(generations >= config.max_generations)}


def _oracle(args, kwargs, result):
    report = result[0]
    if report.oracle_best_J is None:
        return {}
    return {"ga_matches_oracle": int(report.oracle_best_J == report.best.J)}


#: (module or class, attribute, span name, attribute extractor)
TARGETS = [
    ("thermodiag.cli", "main", "cli.main", None),
    *[("thermodiag.cli", f"cmd_{c}", "cli.command", None)
      for c in ("simulate", "diagnose")],
    *[("thermodiag.cli", f"parse_{f}", "cli.parse", None)
      for f in ("building", "weather", "measurements")],
    *[("thermodiag.cli", f, f"model.{f}", None) for f in ("build_mesh", "assemble")],
    *[(m, "simulate", "simulate.simulate", _steps)
      for m in ("thermodiag.cli", "thermodiag.diagnose")],
    ("thermodiag.cli", "run_diagnosis", "diagnose.run_diagnosis", _oracle),
    ("thermodiag.diagnose.ChromosomeEvaluator", "__call__", "diagnose.eval", None),
    ("thermodiag.diagnose.ChromosomeEvaluator", "air_series", "diagnose.air_series", None),
    ("thermodiag.diagnose", "exhaustive_search", "diagnose.oracle", None),
    ("thermodiag.diagnose", "per_node_scores", "diagnose.per_node", None),
    *[("thermodiag.cli", f, "diagnose.report", None)
      for f in ("format_report", "report_key_values", "history_csv", "air_comparison_csv")],
    ("thermodiag.diagnose", "run_ga", "ga.run_ga", _ga),
]


def _resolve(path: str):
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


class Recorder:
    """Collects spans while installed; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []   # [run, id, parent, name, start, end, attrs]
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for path, attr, name, extract in TARGETS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, extract))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, extract):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [self.run_id, len(spans), stack[-1] if stack else None, name,
                    time.perf_counter(), None, {}]
            spans.append(span)
            stack.append(span[1])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6]["error"] = 1
                raise
            finally:
                span[5] = time.perf_counter()
                stack.pop()
            if extract is not None:
                span[6].update(extract(args, kwargs, result))
            return result

        return traced


#: Counters that depend only on the inputs; equal across runs of one seed.
DETERMINISTIC = ("simulate.calls", "simulate.steps", "diagnose.evals",
                 "diagnose.resims", "ga.generations", "ga.stopped_by_cap")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer numbers of one CLI run from its spans."""
    by_id = {s[1]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + s[5] - s[4]
    has_air_series = {s[2] for s in spans if s[3] == "diagnose.air_series"}

    def named(name):
        return [s for s in spans if s[3] == name]

    def total(name):
        return sum(s[5] - s[4] for s in named(name))

    def self_time(name):
        return sum(s[5] - s[4] - child_time.get(s[1], 0.0) for s in named(name))

    sims = named("simulate.simulate")
    steps = sum(s[6].get("steps", 0) for s in sims)
    busy = total("simulate.simulate")
    evals = named("diagnose.eval")
    hits = sum(1 for s in evals if s[1] not in has_air_series)
    resims = sum(1 for s in named("diagnose.air_series")
                 if s[2] is None or by_id[s[2]][3] != "diagnose.eval")
    ga_runs = named("ga.run_ga")
    oracles = [s for s in named("diagnose.run_diagnosis") if "ga_matches_oracle" in s[6]]
    roots = [s for s in spans if s[2] is None]
    return {
        "simulate.calls": len(sims),
        "simulate.steps": steps,
        "simulate.busy_s": busy,
        "simulate.us_per_step": busy / steps * 1e6 if steps else 0.0,
        "simulate.errors": sum(1 for s in sims if s[6].get("error")),
        "diagnose.evals": len(evals),
        "diagnose.cache_hit_ratio": hits / len(evals) if evals else 0.0,
        "diagnose.resims": resims,
        "diagnose.eval_self_s": self_time("diagnose.eval"),
        "diagnose.oracle_s": total("diagnose.oracle"),
        "diagnose.per_node_s": total("diagnose.per_node"),
        "diagnose.report_s": total("diagnose.report"),
        "ga.self_s": self_time("ga.run_ga"),
        "ga.generations": sum(s[6].get("generations", 0) for s in ga_runs),
        "ga.stopped_by_cap": sum(s[6].get("stopped_by_cap", 0) for s in ga_runs),
        "ga.oracle_match_ratio": (sum(s[6]["ga_matches_oracle"] for s in oracles)
                                  / len(oracles) if oracles else 0.0),
        "cli.parse_s": total("cli.parse"),
        "cli.self_s": self_time("cli.command"),
        "model.assemble_s": total("model.build_mesh") + total("model.assemble"),
        "trace.root_s": sum(s[5] - s[4] for s in roots),
    }
