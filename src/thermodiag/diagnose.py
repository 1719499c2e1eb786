"""Chromosome evaluation, diagnosis orchestration and report assembly.

A chromosome selects nodes whose balance equations are replaced by their
measurement series.  Its objective is the sum of squared residuals between
measured and simulated indoor air temperature:

    J = sum_i (T_air_measured[i] - T_air_simulated[i])^2

A large drop of J when a node is forced singles that node's sub-model out as
the defective one.  The module provides the memoised evaluator used by the
GA, an exhaustive-search oracle for small node sets, per-node single-forcing
scores, residual statistics and the report writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ga import (
    GAConfig, GAHistory, ScoredIndividual, decode, encode, fitness, rank, run_ga,
)
from .model import NodalModel, StateMatrices
from .seriescsv import csv_blocks, row_numbers
from .simulate import MeasurementSeries, WeatherSeries, simulate

__all__ = [
    "DiagnosisReport",
    "ChromosomeEvaluator",
    "ObjectiveOverflow",
    "objective",
    "exhaustive_search",
    "per_node_scores",
    "residual_stats",
    "run_diagnosis",
    "format_report",
    "report_key_values",
    "history_csv",
    "air_comparison_csv",
]


class ObjectiveOverflow(ValueError):
    """J does not fit a double, though every residual is finite.

    ``simulated`` tells whether the simulated series' own sum of squares
    overflows as well, which points at the model's inputs (the weather)
    rather than at the measured series.
    """

    def __init__(self, simulated: bool):
        super().__init__("J, the sum of squared air residuals, overflows a double")
        self.simulated = simulated


def _residuals(sim_air, meas_air, least: int, too_few: str) -> tuple[np.ndarray, np.ndarray]:
    """The simulated series, or a stack of them, and measured minus simulated,
    as float arrays; each series must have at least ``least`` samples."""
    sim_air = np.asarray(sim_air, dtype=float)
    meas_air = np.asarray(meas_air, dtype=float)
    if meas_air.ndim != 1 or sim_air.shape[-1:] != meas_air.shape:
        raise ValueError(f"series lengths differ: {sim_air.shape} vs {meas_air.shape}")
    if meas_air.size < least:
        raise ValueError(too_few)
    return sim_air, meas_air - sim_air


def objective(sim_air: np.ndarray, meas_air: np.ndarray) -> float | list[float]:
    """Sum of squared residuals (measured minus simulated), in °C², of one
    simulated series, or the list of those of a stack of series, which one
    product scores with the bits of each series alone; raise
    :class:`ObjectiveOverflow` for the first one that overflows."""
    with np.errstate(over="ignore"):
        sim_air, residuals = _residuals(sim_air, meas_air, 1,
                                        "objective needs at least one sample")
        r = residuals.reshape(-1, residuals.shape[-1])
        J = (r[:, None, :] @ r[:, :, None])[:, 0, 0]
        over = np.flatnonzero(J == np.inf)
        if over.size:
            sim = sim_air.reshape(r.shape)[over[0]]
            raise ObjectiveOverflow(simulated=float(sim @ sim) == np.inf)
    return float(J[0]) if sim_air.ndim == 1 else J.tolist()


def residual_stats(sim_air: np.ndarray, meas_air: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (N-1) of measured minus simulated."""
    _, residuals = _residuals(sim_air, meas_air, 2,
                              "residual statistics need at least two samples")
    return float(np.mean(residuals)), float(np.std(residuals, ddof=1))


#: Most forcing sets marched in one kernel call; bounds the output array
#: and the call's lists of a large exhaustive search, far above any GA
#: population.  The kernel bounds its own step matrices and block buffers.
MAX_BATCH = 256


class ChromosomeEvaluator:
    """Memoised map from a list of chromosomes to their J values.

    Pure per chromosome: the same bit pattern always yields the same J,
    whatever else is in the list, so results are cached by pattern and each
    pattern is simulated once.  One call marches all its uncached patterns
    together, each from its own forced steady state, and scores them with
    one :func:`objective` of the stack of their air series.  Of those
    series it keeps copies of two at most: the empty set's, and that of
    the lowest set marched so far in
    :func:`~thermodiag.ga.rank`'s order.  :meth:`air_series` returns
    those without a march and marches any other set on its own.
    """

    def __init__(self, sm: StateMatrices, weather: WeatherSeries,
                 meas: MeasurementSeries, air_node: int, skip_steps: int = 0):
        if air_node not in meas.node_ids:
            raise ValueError(f"air node {air_node} has no measurement series")
        if not 0 <= skip_steps <= meas.n_samples - 2:
            raise ValueError("skip_steps must leave at least two samples")
        self.sm = sm
        self.weather = weather
        self.meas = meas
        self.air_node = air_node
        self.skip_steps = skip_steps
        # every J compares with the same measured air series
        self._meas_air = meas.node_series(air_node)[skip_steps:]
        self.chromosome_length = sm.n_nodes - 1
        self._cache: dict[tuple, float] = {}
        self._empty = encode((), self.chromosome_length)
        self._lowest: tuple | None = None  # the lowest set marched
        self._air: dict[tuple, np.ndarray] = {}  # the empty and the lowest set's series

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def _forcing(self, chromosome: tuple) -> frozenset:
        forcing = decode(chromosome)
        if self.air_node in forcing:
            raise ValueError("the air node must not be forced")
        return forcing

    def air_series(self, chromosome: tuple) -> np.ndarray:
        """Simulated air-node series under the chromosome's forcing (full horizon).

        The empty and the lowest marched set's series come from the march
        that scored them; any other set is marched here.
        """
        key = self._key(chromosome)
        if key in self._air:
            return self._air[key]
        return self._march([key])[0]

    def _march(self, keys: list) -> np.ndarray:
        """The air series of the sets ``keys``, marched in one kernel call."""
        return simulate(self.sm, self.weather, [self._forcing(k) for k in keys],
                        self.meas, rows=(self.air_node,))[:, 0]

    def _key(self, chromosome) -> tuple:
        key = tuple(map(int, chromosome))
        if len(key) != self.chromosome_length:
            raise ValueError(f"chromosome length {len(key)} != {self.chromosome_length}")
        return key

    def _keep(self, key: tuple, series: np.ndarray) -> None:
        held = series.copy()
        held.flags.writeable = False
        self._air[key] = held

    def __call__(self, chromosomes) -> list[float]:
        # a cached tuple is its own key: tuples of 0/1 ints, bools or numpy
        # integers hash and compare like the int key.  A fully cached call
        # returns the cached float objects themselves (ga._score relies on
        # it); otherwise only misses are normalised and checked
        cache = self._cache
        try:
            return [cache[c] for c in chromosomes]
        except (KeyError, TypeError):  # a miss, or an unhashable chromosome
            pass
        keys = [c if type(c) is tuple and c in cache else self._key(c) for c in chromosomes]
        todo = list(dict.fromkeys(k for k in keys if k not in cache))
        for start in range(0, len(todo), MAX_BATCH):
            batch = todo[start:start + MAX_BATCH]
            air = self._march(batch)
            cache.update(zip(batch, objective(air[:, self.skip_steps:], self._meas_air)))
            if self._empty in batch:
                self._keep(self._empty, air[batch.index(self._empty)])
            lowest = min(batch if self._lowest is None else [self._lowest, *batch],
                         key=lambda k: rank(cache[k], k))
            if lowest != self._lowest:
                if self._lowest not in (None, self._empty):
                    del self._air[self._lowest]
                self._lowest = lowest
                self._keep(lowest, air[batch.index(lowest)])
        return [cache[k] for k in keys]


#: Most nodes the exhaustive oracle searches the subsets of (2**20 sets).
MAX_EXHAUSTIVE_NODES = 20


def exhaustive_search(measurable_nodes: Iterable[int], evaluator,
                      chromosome_length: int) -> tuple[frozenset, dict]:
    """Evaluate every subset of the measurable nodes (the brute-force oracle).

    The whole subset table is scored in one evaluator call.  Returns the
    best subset, the lowest in the GA's order (:func:`~thermodiag.ga.rank`),
    and the full subset -> J table, so oracle and GA agree whenever the GA
    finds an optimum.
    """
    nodes = sorted(set(measurable_nodes))
    if len(nodes) > MAX_EXHAUSTIVE_NODES:
        raise ValueError(f"{len(nodes)} measurable nodes: exhaustive search capped at "
                         f"{MAX_EXHAUSTIVE_NODES}")
    subsets = [frozenset(n for i, n in enumerate(nodes) if pattern >> i & 1)
               for pattern in range(2 ** len(nodes))]
    bits = [encode(subset, chromosome_length) for subset in subsets]
    scores = [float(J) for J in evaluator(bits)]
    table = dict(zip(subsets, scores))
    best = min(range(len(subsets)), key=lambda i: rank(scores[i], bits[i]))
    return subsets[best], table


def per_node_scores(measurable_nodes: Iterable[int], evaluator,
                    chromosome_length: int) -> dict[int, float]:
    """J for each single-node forcing, plus the unforced run under key 0."""
    keys = [0, *sorted(set(measurable_nodes))]
    bits = [encode(() if node == 0 else (node,), chromosome_length) for node in keys]
    return {node: float(J) for node, J in zip(keys, evaluator(bits))}


@dataclass(frozen=True)
class DiagnosisReport:
    """Everything one diagnosis run produced."""

    best: ScoredIndividual
    per_node: dict               # node id -> J; key 0 is the unforced run
    residuals_before: tuple      # (mean °C, sd °C) with no forcing
    residuals_after: tuple       # same under the best forcing set
    air_unforced: np.ndarray = field(compare=False, repr=False)  # °C, full horizon
    air_best: np.ndarray = field(compare=False, repr=False)      # °C, best forcing set
    history: GAHistory
    air_node: int
    measured_nodes: tuple
    skip_steps: int
    oracle_best: frozenset | None = None
    oracle_best_J: float | None = None

    @property
    def best_forcing(self) -> frozenset:
        """The node ids the best chromosome forces."""
        return decode(self.best.chromosome)

    @property
    def unforced_J(self) -> float:
        """J of the unforced run, in °C²."""
        return self.per_node[0]

    @property
    def ratio(self) -> float | None:
        """J best over J unforced; None when the unforced J is 0."""
        return self.best.J / self.unforced_J if self.unforced_J > 0.0 else None

    @property
    def ga_matches_oracle(self) -> bool | None:
        """Whether the GA reached the oracle's J; None without the oracle."""
        return None if self.oracle_best_J is None else self.oracle_best_J == self.best.J


def run_diagnosis(sm: StateMatrices, weather: WeatherSeries,
                  meas: MeasurementSeries, air_node: int, config: GAConfig,
                  skip_steps: int = 0, exhaustive: bool = False
                  ) -> tuple[DiagnosisReport, ChromosomeEvaluator]:
    """Run the oracle (when asked), then the GA, and assemble the report.

    The nodes ``meas`` holds a series for, the air node excluded, are the
    GA's loci, the oracle's nodes and the per-node table's rows.  The best
    set is the lower, in the GA's order, of the GA's best and the already
    scored empty set.  The report keeps the air series of the empty and
    the best set, which the evaluator holds from the march that scored
    them; only a best set that is not the lowest set it marched, such as
    a capped GA's that misses the oracle's optimum, is marched once more.
    Also returns the evaluator, whose cache holds every J computed.
    """
    evaluator = ChromosomeEvaluator(sm, weather, meas, air_node, skip_steps)
    length = evaluator.chromosome_length
    measured = sorted(meas.node_ids - {air_node})

    oracle_best = oracle_J = None
    if exhaustive:
        # the whole subset table is one kernel call; the GA and the
        # per-node table then find every J they ask for in the cache
        oracle_best, oracle_table = exhaustive_search(measured, evaluator, length)
        oracle_J = oracle_table[oracle_best]

    best, history = run_ga(config, evaluator, encode(measured, length))
    scores = per_node_scores(measured, evaluator, length)
    unforced_J = scores[0]
    # the GA can stop on a set whose J is round-off above the empty set's
    # (a perfect model scores exactly 0 unforced); that J is already cached
    empty = ScoredIndividual(encode((), length), unforced_J, fitness(unforced_J))
    if empty.key < best.key:
        best = empty

    meas_air = meas.node_series(air_node)[skip_steps:]
    air_unforced = evaluator.air_series(encode((), length))
    air_best = evaluator.air_series(best.chromosome)
    before = residual_stats(air_unforced[skip_steps:], meas_air)
    after = residual_stats(air_best[skip_steps:], meas_air)

    report = DiagnosisReport(
        best=best,
        per_node=scores,
        residuals_before=before,
        residuals_after=after,
        air_unforced=air_unforced,
        air_best=air_best,
        history=history,
        air_node=air_node,
        measured_nodes=tuple(measured),
        skip_steps=skip_steps,
        oracle_best=oracle_best,
        oracle_best_J=oracle_J,
    )
    return report, evaluator


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _set_label(nodes: Iterable[int]) -> str:
    nodes = sorted(nodes)
    return "none" if not nodes else " ".join(str(n) for n in nodes)


def format_report(report: DiagnosisReport, model: NodalModel | None = None) -> str:
    """Human-readable report: best set, per-node table, residual statistics."""

    def name(node: int) -> str:
        return model.label(node) if model is not None else str(node)

    lines = []
    lines.append("Diagnosis report")
    lines.append("================")
    lines.append(f"air node:        {name(report.air_node)}")
    lines.append(f"measured nodes:  {', '.join(name(n) for n in report.measured_nodes)}")
    if report.skip_steps:
        lines.append(f"skipped samples: {report.skip_steps}")
    lines.append("")
    lines.append(f"best forcing set: {_set_label(report.best_forcing)}")
    lines.append(f"J best:     {_fmt(report.best.J)}")
    lines.append(f"J unforced: {_fmt(report.unforced_J)}")
    if report.ratio is not None:
        lines.append(f"J ratio:    {_fmt(report.ratio)}")
    lines.append(f"generations: {report.history.generations - 1}")
    if report.oracle_best is not None:
        lines.append("")
        lines.append(f"oracle best set: {_set_label(report.oracle_best)}")
        lines.append(f"oracle best J:   {_fmt(report.oracle_best_J)}")
        lines.append(f"ga matches oracle J: {'yes' if report.ga_matches_oracle else 'no'}")
    lines.append("")
    lines.append("single-node forcing scores")
    lines.append("--------------------------")
    width = max(len(name(n)) for n in report.per_node if n) if len(report.per_node) > 1 else 4
    width = max(width, len("none"))
    for node, J in sorted(report.per_node.items(), key=lambda kv: (kv[1], kv[0])):
        label = "none" if node == 0 else name(node)
        lines.append(f"  {label:<{width}}  J = {_fmt(J)}")
    lines.append("")
    lines.append("air-temperature residuals (measured - simulated)")
    lines.append("-------------------------------------------------")
    mb, sb = report.residuals_before
    ma, sa = report.residuals_after
    lines.append(f"  before forcing: mean {_fmt(mb)} °C, sd {_fmt(sb)} °C")
    lines.append(f"  after forcing:  mean {_fmt(ma)} °C, sd {_fmt(sa)} °C")
    lines.append("")
    return "\n".join(lines)


def report_key_values(report: DiagnosisReport) -> str:
    """Machine-readable report: one `key = value` per line, full precision."""
    kv = []
    kv.append(("air_node", report.air_node))
    kv.append(("measured_nodes", _set_label(report.measured_nodes)))
    kv.append(("skip_steps", report.skip_steps))
    kv.append(("best_forcing_set", _set_label(report.best_forcing)))
    kv.append(("best_chromosome", "".join(str(b) for b in report.best.chromosome)))
    kv.append(("best_J", repr(report.best.J)))
    kv.append(("best_fitness", repr(report.best.f)))
    kv.append(("unforced_J", repr(report.unforced_J)))
    kv.append(("generations", report.history.generations - 1))
    for node, J in sorted(report.per_node.items()):
        key = "J_unforced" if node == 0 else f"J_node_{node}"
        kv.append((key, repr(J)))
    kv.append(("residual_mean_before", repr(report.residuals_before[0])))
    kv.append(("residual_sd_before", repr(report.residuals_before[1])))
    kv.append(("residual_mean_after", repr(report.residuals_after[0])))
    kv.append(("residual_sd_after", repr(report.residuals_after[1])))
    if report.oracle_best is not None:
        kv.append(("oracle_best_set", _set_label(report.oracle_best)))
        kv.append(("oracle_best_J", repr(report.oracle_best_J)))
        kv.append(("ga_matches_oracle", int(report.ga_matches_oracle)))
    return "\n".join(f"{k} = {v}" for k, v in kv) + "\n"


def history_csv(history: GAHistory) -> str:
    """Plot data: generation index vs best/mean scores."""
    lines = ["generation,best_J,best_fitness,mean_fitness,best_bits"]
    for g in range(history.generations):
        bits = "".join(str(b) for b in history.best_individual[g])
        lines.append(
            f"{g},{history.best_J[g]!r},{history.best_fitness[g]!r},"
            f"{history.mean_fitness[g]!r},{bits}"
        )
    return "\n".join(lines) + "\n"


def air_comparison_csv(report: DiagnosisReport, evaluator: ChromosomeEvaluator) -> bytes:
    """Plot data: measured vs simulated air temperature, unforced and best,
    as ASCII bytes."""
    values = np.column_stack([evaluator.meas.node_series(report.air_node),
                              report.air_unforced, report.air_best])
    return b"".join(csv_blocks("step,measured,simulated_unforced,simulated_best_forcing",
                               row_numbers, values))
