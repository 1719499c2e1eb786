"""Verification protocol: plant a defect, then check the search finds it.

A known defect is injected into a copy of a reference building (a wrong layer
conductivity, a wrong interior convective coefficient, a wrong shortwave
absorptivity).  Pseudo-measurements are generated by simulating the
unperturbed reference, so the "measurements" are perfect data for the correct
model.  Diagnosing the perturbed model against them must localize the defect:

* a component defect (conductivity, absorptivity) passes when the best
  forcing set contains the component's inside-surface node and forcing cuts
  the objective below LOCALIZE_RATIO of its unforced value;
* a global interior-convection defect decouples the air node from every
  surface, so no forcing can help: the case passes when the best set is empty
  or the objective barely improves (ratio above NO_GAIN_RATIO);
* a control run (no defect at all) passes when the best set is empty and the
  unforced objective is numerically zero.

Each outcome holds its case's diagnosis report, which also runs the
exhaustive oracle over the measured nodes and says whether the GA reached
the oracle's optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnose import DiagnosisReport, _set_label, run_diagnosis
from .ga import GAConfig
from .model import BuildingDescription, EnvelopeComponent, assemble, build_mesh
from .simulate import MeasurementSeries, WeatherSeries, simulate

__all__ = [
    "DefectSpec",
    "VerificationOutcome",
    "DEFECT_KINDS",
    "LOCALIZE_RATIO",
    "NO_GAIN_RATIO",
    "CONTROL_J_MAX",
    "CONTROL_ID",
    "inject_defect",
    "generate_pseudo_measurements",
    "measurement_noise",
    "run_case",
    "format_outcomes",
    "outcomes_key_values",
]

DEFECT_KINDS = ("layer_conductivity", "h_ci", "absorptivity")

#: A localized defect must cut J below this fraction of the unforced J.
LOCALIZE_RATIO = 0.2
#: A defect that forcing cannot repair must leave J above this fraction.
NO_GAIN_RATIO = 0.9
#: A defect-free control must score essentially zero unforced.
CONTROL_J_MAX = 1e-18
#: The case id of the control run, which no defect case may take.
CONTROL_ID = "control"


@dataclass(frozen=True)
class DefectSpec:
    """One parameter of the building description, wrong on purpose."""

    case_id: str
    kind: str                  # one of DEFECT_KINDS
    base: float                # value the description is expected to hold
    perturbed: float           # value the defective model gets instead
    component: str | None = None  # required unless kind == "h_ci" (then None = all)
    layer_index: int = 0       # which layer, for layer_conductivity

    def __post_init__(self):
        if not self.case_id:
            raise ValueError("case_id must be non-empty")
        if self.case_id == CONTROL_ID:
            raise ValueError(f"case id {CONTROL_ID!r} is reserved for the control run")
        if self.kind not in DEFECT_KINDS:
            raise ValueError(f"unknown defect kind {self.kind!r}")
        if self.base == self.perturbed:
            raise ValueError("base equals perturbed value")
        if self.kind == "layer_conductivity":
            if self.component is None:
                raise ValueError("layer_conductivity needs a component")
            if self.perturbed <= 0.0:
                raise ValueError("conductivity must stay positive")
        elif self.kind == "absorptivity":
            if self.component is None:
                raise ValueError("absorptivity needs a component")
            if not 0.0 <= self.perturbed <= 1.0:
                raise ValueError("absorptivity must stay in [0, 1]")
        elif self.kind == "h_ci":
            if self.perturbed < 0.0:
                raise ValueError("h_ci must stay >= 0")
        if self.layer_index < 0:
            raise ValueError("layer_index must be >= 0")


@dataclass(frozen=True)
class VerificationOutcome:
    case_id: str
    report: DiagnosisReport    # the case's diagnosis, oracle included
    expected: frozenset        # empty when no localization is expected
    passed: bool
    criterion: str             # human-readable pass rule


def _check_base(spec: DefectSpec, what: str, actual: float) -> None:
    if not np.isclose(actual, spec.base, rtol=1e-9, atol=0.0):
        raise ValueError(f"{what} is {actual}, expected base {spec.base}")


def _perturb(comp: EnvelopeComponent, spec: DefectSpec) -> EnvelopeComponent:
    if spec.kind == "h_ci":
        _check_base(spec, f"h_ci of {comp.name}", comp.h_ci)
        return replace(comp, h_ci=spec.perturbed)
    if spec.kind == "absorptivity":
        _check_base(spec, f"absorptivity of {comp.name}", comp.absorptivity)
        return replace(comp, absorptivity=spec.perturbed)
    if spec.layer_index >= len(comp.layers):
        raise ValueError(f"{comp.name} has no layer {spec.layer_index}")
    layer = comp.layers[spec.layer_index]
    _check_base(spec, f"conductivity of {comp.name} layer {spec.layer_index}",
                layer.conductivity)
    layers = list(comp.layers)
    layers[spec.layer_index] = replace(layer, conductivity=spec.perturbed)
    return replace(comp, layers=tuple(layers))


def inject_defect(desc: BuildingDescription, spec: DefectSpec) -> BuildingDescription:
    """Copy the description with exactly one parameter perturbed.

    A global ``h_ci`` defect (no component) perturbs every component.  A
    component or layer the building lacks, or a value other than
    ``spec.base``, raises ValueError; the message does not repeat the case id.
    """
    names = [c.name for c in desc.components]
    if spec.component is not None and spec.component not in names:
        raise ValueError(f"the building has no component {spec.component!r}")
    return replace(desc, components=tuple(
        _perturb(c, spec) if spec.component in (None, c.name) else c
        for c in desc.components))


def generate_pseudo_measurements(desc: BuildingDescription, weather: WeatherSeries,
                                 measured_nodes) -> MeasurementSeries:
    """Simulate the reference unforced and read off the sensor series.

    The air node is always included: it is the comparison output every
    diagnosis needs.
    """
    model = build_mesh(desc)
    sm = assemble(model, desc)
    for node in measured_nodes:
        if not 1 <= node <= model.n_nodes:
            raise ValueError(f"measured node {node} outside 1..{model.n_nodes}")
    nodes = sorted(set(measured_nodes) | {model.air_node})
    return MeasurementSeries(dt=weather.dt, series=dict(zip(
        nodes, simulate(sm, weather, rows=nodes)[0])))


def measurement_noise(n_series: int, n_records: int, noise_sd: float,
                      seed: int) -> np.ndarray:
    """The Gaussian noise :func:`run_case` adds to pseudo-measurements, one
    row per series in node order."""
    return np.random.default_rng(seed).normal(0.0, noise_sd, size=(n_series, n_records))


def run_case(spec: DefectSpec | None, reference: BuildingDescription,
             weather: WeatherSeries, pseudo: MeasurementSeries, config: GAConfig,
             skip_steps: int = 0, noise_sd: float = 0.0) -> VerificationOutcome:
    """Diagnose the model with ``spec``'s defect, or the unperturbed model
    for the control (``spec=None``), and judge it by the module's rules.

    ``pseudo`` is the reference's noise-free pseudo-measurements; its nodes
    are the ones searched.  Gaussian noise of ``noise_sd`` °C, drawn from
    ``config.rng_seed``, is added to every series, so every case of one
    protocol sees the same noisy series.
    """
    if not 0.0 <= noise_sd < np.inf:
        raise ValueError(f"noise_sd must be finite and >= 0, got {noise_sd!r}")
    if noise_sd > 0.0:
        noise = measurement_noise(len(pseudo.series), pseudo.n_samples, noise_sd,
                                  config.rng_seed)
        pseudo = MeasurementSeries(dt=pseudo.dt, series={
            node: values + row
            for (node, values), row in zip(sorted(pseudo.series.items()), noise)})
    desc = reference if spec is None else inject_defect(reference, spec)
    model = build_mesh(desc)
    report, _ = run_diagnosis(assemble(model, desc), weather, pseudo, model.air_node,
                              config, skip_steps=skip_steps, exhaustive=True)
    best_set, ratio = report.best_forcing, report.ratio
    expected = frozenset()
    if spec is None:
        criterion = f"best set empty and unforced J < {CONTROL_J_MAX}"
        passed = not best_set and report.unforced_J < CONTROL_J_MAX
    elif spec.kind == "h_ci":
        criterion = f"best set empty or J ratio > {NO_GAIN_RATIO}"
        passed = not best_set or (ratio is not None and ratio > NO_GAIN_RATIO)
    else:
        expected = frozenset({model.inside_surface_node(spec.component)})
        criterion = f"best set contains {_set_label(expected)} and J ratio < {LOCALIZE_RATIO}"
        passed = expected <= best_set and ratio is not None and ratio < LOCALIZE_RATIO
    return VerificationOutcome(CONTROL_ID if spec is None else spec.case_id,
                               report, expected, passed, criterion)


def format_outcomes(outcomes) -> str:
    """Fixed-width pass/fail table over all cases."""
    outcomes = list(outcomes)
    rows = [("case", "pass", "best set", "expected", "J best", "J unforced", "ratio")]
    for o in outcomes:
        r = o.report
        rows.append((
            o.case_id,
            "yes" if o.passed else "NO",
            _set_label(r.best_forcing),
            _set_label(o.expected),
            f"{r.best.J:.6g}",
            f"{r.unforced_J:.6g}",
            "-" if r.ratio is None else f"{r.ratio:.4f}",
        ))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for k, row in enumerate(rows):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if k == 0:
            lines.append("  ".join("-" * w for w in widths))
    n_pass = sum(o.passed for o in outcomes)
    lines.append("")
    lines.append(f"{n_pass}/{len(outcomes)} cases passed")
    return "\n".join(lines) + "\n"


def outcomes_key_values(outcomes) -> str:
    """Machine-readable outcome dump, one block of keys per case."""
    lines = []
    for o in outcomes:
        r, prefix = o.report, f"case.{o.case_id}"
        lines.append(f"{prefix}.passed = {int(o.passed)}")
        lines.append(f"{prefix}.best_set = {_set_label(r.best_forcing)}")
        lines.append(f"{prefix}.expected = {_set_label(o.expected)}")
        lines.append(f"{prefix}.J_best = {r.best.J!r}")
        lines.append(f"{prefix}.J_unforced = {r.unforced_J!r}")
        lines.append(f"{prefix}.ratio = {'' if r.ratio is None else repr(r.ratio)}")
        lines.append(f"{prefix}.criterion = {o.criterion}")
        lines.append(f"{prefix}.ga_matches_oracle = {int(r.ga_matches_oracle)}")
        lines.append(f"{prefix}.oracle_best_set = {_set_label(r.oracle_best)}")
        lines.append(f"{prefix}.oracle_best_J = {r.oracle_best_J!r}")
    return "\n".join(lines) + "\n"
